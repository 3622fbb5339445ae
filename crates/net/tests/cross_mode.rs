//! One scripted analyst conversation, run against every analyst-serving
//! role: an engine server, a coordinator over two in-process shards, and
//! a live server that never ingests. All three serve the same seeded
//! federation under the same per-analyst grant, so every released value,
//! every typed error, and every ledger reading must agree across them —
//! the roles differ in transport, never in what an analyst observes.

use std::io::Write as _;
use std::net::TcpStream;

use fedaqp_core::{FederationEngine, LiveFederation, QueryPlan, RefreshPolicy, ShardedFederation};
use fedaqp_model::Row;
use fedaqp_net::wire::{
    encode_frame, read_frame, write_frame, ExplainRequest, Frame, Hello, PlanRequest,
};
use fedaqp_net::{LoopbackServer, NetError, RemoteFederation, ServeOptions};

mod common;
use common::*;

/// The per-analyst grant. The script below spends 15.5ε before the
/// exhaustion probe, so exactly one more ε = 1 query fits.
const XI: f64 = 16.0;
const PSI: f64 = 0.5;

fn online_plan() -> QueryPlan {
    QueryPlan::Online {
        query: count_query(100, 800),
        sampling_rate: 0.2,
        epsilon: 1.0,
        delta: 1e-3,
        rounds: 3,
    }
}

fn scalar_plan() -> QueryPlan {
    QueryPlan::Scalar {
        query: count_query(100, 800),
        sampling_rate: 0.2,
        epsilon: 1.0,
        delta: 1e-3,
    }
}

/// Opens a raw, handshaken connection.
fn raw_connection(addr: &str, analyst: &str) -> TcpStream {
    let mut stream = TcpStream::connect(addr).unwrap();
    write_frame(
        &mut stream,
        &Frame::Hello(Hello {
            analyst: analyst.into(),
        }),
    )
    .unwrap();
    match read_frame(&mut stream).unwrap() {
        Frame::HelloAck(_) => {}
        other => panic!("expected HelloAck, got {other:?}"),
    }
    stream
}

/// Sends one encoded frame on a raw connection and returns the typed
/// error it must be answered with.
fn refused(stream: &mut TcpStream, bytes: &[u8]) -> String {
    stream.write_all(bytes).unwrap();
    match read_frame(stream).unwrap() {
        Frame::Error(e) => format!("error {:?} {:?} {}", e.code, e.message, e.index),
        other => panic!("expected a typed refusal, got {other:?}"),
    }
}

fn spent(client: &mut RemoteFederation) -> String {
    let status = client.budget_status().unwrap();
    assert!(status.limited);
    format!(
        "budget spent=({:?}, {:?}) total=({:?}, {:?}) charges={}",
        status.spent_eps,
        status.spent_delta,
        status.total_eps,
        status.total_delta,
        status.queries_answered
    )
}

fn remote_error(result: Result<impl std::fmt::Debug, NetError>) -> String {
    match result {
        Err(NetError::Remote { code, message }) => format!("error {code:?} {message:?}"),
        other => panic!("expected a typed remote error, got {other:?}"),
    }
}

/// Runs the scripted conversation against `addr` and returns its
/// transcript: every released value (exact float formatting), every
/// error code and message, and every ledger reading, in order.
///
/// Every request that reaches the providers has distinct content. The
/// live role runs each request on a fresh scoped engine, whose
/// per-content occurrence ledger starts at zero (see
/// `fedaqp_core::LiveFederation`), so a repeated identical request there
/// replays its first draw while the long-lived roles draw the next one.
fn converse(addr: &str) -> Vec<String> {
    let mut log = Vec::new();
    let mut alice = RemoteFederation::connect_as(addr, "alice").unwrap();
    assert_eq!(alice.session_budget(), Some((XI, PSI)));

    // Scalar plans at the served defaults: config ε = 1 each (4ε so far).
    for i in 0..4 {
        let query = count_query(150 - 50 * i, 600 + 50 * i);
        let answer = remote_query(&mut alice, &query).unwrap();
        log.push(format!("scalar[{i}] {:?} {:?}", answer.result, answer.cost));
    }

    // One plan of each kind (scalar 1 + derived 1 + group-by 2.5 +
    // extreme 5 = 9.5ε), then an online plan (1ε): 14.5ε so far.
    for plan in mixed_plans() {
        let answer = alice.run_plan(&plan).unwrap();
        log.push(format!("plan {:?} {:?}", answer.result, answer.cost));
    }
    let mut pushed = Vec::new();
    let online = alice
        .submit_plan(&online_plan())
        .unwrap()
        .wait_streaming(|s| pushed.push(*s))
        .unwrap();
    assert_eq!(online.snapshots().unwrap(), &pushed[..]);
    log.push(format!("online {:?} {:?}", online.result, online.cost));

    // Explain and Metrics are free; BudgetRequest reads the ledger.
    let explanation = alice.explain_plan(&mixed_plans()[1]).unwrap();
    log.push(format!("explain {explanation:?}"));
    let metrics = alice.metrics().unwrap();
    assert!(metrics
        .iter()
        .any(|m| m.name == "fedaqp_server_frames_total"));
    log.push(spent(&mut alice));

    // Requests stamped with an older protocol version are refused before
    // any charge: a plan, an explain and an online plan.
    for (frame, version) in [
        (
            Frame::Plan(PlanRequest {
                plan: scalar_plan(),
            }),
            1,
        ),
        (
            Frame::Explain(ExplainRequest {
                plan: scalar_plan(),
            }),
            2,
        ),
        (
            Frame::Plan(PlanRequest {
                plan: online_plan(),
            }),
            6,
        ),
    ] {
        let mut stale = raw_connection(addr, "alice");
        log.push(refused(&mut stale, &stamped(&frame, version)));
    }
    // Fragment frames are served only to a coordinator, by a shard.
    let mut raw = raw_connection(addr, "alice");
    for frame in [Frame::ShardBoundsRequest, Frame::FragmentSummariesRequest] {
        log.push(refused(&mut raw, &encode_frame(&frame).unwrap()));
    }
    log.push(spent(&mut alice));

    // One more query fits (15.5ε); the next is a typed exhaustion that
    // survives the connection and a reconnect under the same identity.
    let last = remote_query(&mut alice, &count_query(200, 700)).unwrap();
    log.push(format!("last {:?} {:?}", last.result, last.cost));
    log.push(remote_error(remote_query(
        &mut alice,
        &count_query(100, 800),
    )));
    log.push(remote_error(alice.run_plan(&scalar_plan())));
    log.push(spent(&mut alice));
    let mut again = RemoteFederation::connect_as(addr, "alice").unwrap();
    log.push(remote_error(remote_query(
        &mut again,
        &count_query(100, 800),
    )));
    log.push(spent(&mut again));
    log
}

/// The frozen roles refuse ingest with a typed error, charging nothing.
fn assert_ingest_refused(addr: &str) {
    let mut client = RemoteFederation::connect_as(addr, "ingestor").unwrap();
    let refusal = remote_error(client.ingest(0, &[Row::cell(vec![1, 2], 1)]));
    assert!(refusal.contains("BadRequest"), "{refusal}");
    assert!(refusal.contains("live-mode"), "{refusal}");
    assert_eq!(client.budget_status().unwrap().spent_eps, 0.0);
}

#[test]
fn one_conversation_is_identical_across_engine_coordinator_and_live_servers() {
    let options = ServeOptions::with_budget(XI, PSI);

    let engine = FederationEngine::start(plan_federation(1.0));
    let server = LoopbackServer::analyst(engine.handle(), options).unwrap();
    let engine_log = converse(server.addr());
    assert_ingest_refused(server.addr());
    server.shutdown();
    engine.shutdown();

    let coordinator =
        ShardedFederation::in_process(plan_config(1.0), plan_schema(), plan_partitions(), 2)
            .unwrap();
    let server = LoopbackServer::coordinator(coordinator.clone(), options).unwrap();
    let coordinator_log = converse(server.addr());
    assert_ingest_refused(server.addr());
    server.shutdown();
    coordinator.shutdown();

    let live = LiveFederation::new(plan_federation(1.0), RefreshPolicy::default());
    let server = LoopbackServer::live(live, options).unwrap();
    let live_log = converse(server.addr());
    server.shutdown();

    // Sanity: the transcript really recorded the exhaustion and the
    // version refusals it is meant to compare.
    assert!(engine_log.iter().any(|l| l.contains("BudgetExhausted")));
    assert_eq!(
        engine_log
            .iter()
            .filter(|l| l.contains("UnsupportedVersion"))
            .count(),
        3
    );
    for (mode, log) in [("coordinator", &coordinator_log), ("live", &live_log)] {
        assert_eq!(log.len(), engine_log.len(), "{mode} transcript length");
        for (got, want) in log.iter().zip(&engine_log) {
            assert_eq!(got, want, "{mode} diverged from the engine server");
        }
    }
}
