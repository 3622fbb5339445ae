//! End-to-end socket tests: a real [`FederationServer`] on an ephemeral
//! loopback port, driven by real [`RemoteFederation`] clients.
//!
//! Coverage targets:
//! * seeded remote answers are **byte-identical** to the in-process
//!   engine's (`run_batch_serial` for scalar plans, `run_plan` for every
//!   plan kind),
//! * ≥ 4 concurrent clients are served without a dropped connection,
//! * budget exhaustion surfaces as a typed `Error` frame (the connection
//!   survives), and reconnecting cannot reset a spent budget,
//! * a frame of any protocol version but the one gets a typed error and
//!   charges nothing.

use std::io::Write as _;

use fedaqp_core::{Federation, FederationConfig, FederationEngine, PlanResult, QueryBatch};
use fedaqp_model::{Aggregate, Dimension, Domain, QueryPlan, Range, RangeQuery, Row, Schema};
use fedaqp_net::wire::{self, read_frame, write_frame, Frame, Hello};
use fedaqp_net::{
    ErrorCode, FederationServer, LoopbackServer, NetError, RemoteFederation, ServeOptions,
};

mod common;
use common::*;

fn schema() -> Schema {
    Schema::new(vec![
        Dimension::new("x", Domain::new(0, 999).unwrap()),
        Dimension::new("y", Domain::new(0, 99).unwrap()),
    ])
    .unwrap()
}

fn partitions(rows_per: usize, n: usize) -> Vec<Vec<Row>> {
    (0..n)
        .map(|p| {
            (0..rows_per)
                .map(|i| {
                    let v = (i * 7 + p * 13) % 1000;
                    Row::cell(vec![v as i64, ((i + p) % 100) as i64], 1 + (i % 3) as u64)
                })
                .collect()
        })
        .collect()
}

fn federation(epsilon: f64) -> Federation {
    let mut cfg = FederationConfig::paper_default(50);
    cfg.cost_model = fedaqp_smc::CostModel::zero();
    cfg.n_min = 3;
    cfg.epsilon = epsilon;
    Federation::build(cfg, schema(), partitions(2000, 4)).unwrap()
}

fn batch() -> QueryBatch {
    let mut batch = QueryBatch::new();
    for i in 0..6 {
        batch.push(count_query(50 * i, 500 + 50 * i), 0.2);
    }
    batch
}

/// Two federations built from identical inputs: one served over TCP, one
/// queried in-process. A seeded batch of scalar plans must produce
/// byte-identical released values through both paths — the wire adds
/// transport, never arithmetic.
#[test]
fn remote_batch_is_byte_identical_to_in_process_serial() {
    let engine = FederationEngine::start(federation(1.0));
    let server = LoopbackServer::analyst(engine.handle(), ServeOptions::unlimited()).unwrap();
    let addr = server.addr().to_string();

    let mut client = RemoteFederation::connect(&addr).unwrap();
    assert_eq!(client.schema(), &schema());
    assert_eq!(client.n_providers(), 4);
    assert_eq!(client.session_budget(), None);
    let remote: Vec<_> = batch()
        .specs()
        .iter()
        .map(|spec| {
            let plan = client.scalar_plan(&spec.query, spec.sampling_rate);
            client.run_plan(&plan).unwrap()
        })
        .collect();

    let in_process: Vec<_> = federation(1.0)
        .with_engine(|engine| engine.run_batch_serial(&batch()))
        .into_iter()
        .map(|r| r.unwrap())
        .collect();

    assert_eq!(remote.len(), in_process.len());
    for (r, l) in remote.iter().zip(&in_process) {
        match r.result {
            PlanResult::Value {
                value,
                ci_halfwidth,
            } => {
                assert_eq!(value.to_bits(), l.value.to_bits(), "released value");
                assert_eq!(
                    ci_halfwidth.map(f64::to_bits),
                    l.ci_halfwidth.map(f64::to_bits),
                    "confidence half-width"
                );
            }
            ref other => panic!("expected a scalar release, got {other:?}"),
        }
        assert_eq!(r.cost, l.cost);
    }

    drop(client);
    server.shutdown();
    engine.shutdown();
}

/// Submit/wait pipelining on one connection mirrors the engine handle:
/// answers come back in submission order.
#[test]
fn pipelined_submits_answer_in_order() {
    let engine = FederationEngine::start(federation(1.0));
    let server = LoopbackServer::analyst(engine.handle(), ServeOptions::unlimited()).unwrap();
    let addr = server.addr().to_string();

    let mut client = RemoteFederation::connect(&addr).unwrap();
    // The borrow rules make interleaved pending handles impossible on one
    // connection, so pipeline at the wire level: plans are answered
    // strictly in order, so sequential waits pair up correctly.
    let a1 = remote_query(&mut client, &count_query(0, 400)).unwrap();
    let a2 = remote_query(&mut client, &count_query(100, 900)).unwrap();
    assert!(a1.value().unwrap().is_finite() && a2.value().unwrap().is_finite());
    // Spot-check submit/wait as separate steps too.
    let plan = client.scalar_plan(&count_query(0, 400), 0.2);
    let a3 = client.submit_plan(&plan).unwrap().wait().unwrap();
    assert!(a3.value().unwrap().is_finite());

    drop(client);
    server.shutdown();
    engine.shutdown();
}

/// Dropping a pending plan without waiting must not desynchronize the
/// stream: the next plan's answer is its own, not the abandoned one's —
/// an abandoned online plan's whole snapshot stream included.
#[test]
fn dropped_pending_does_not_desync_the_connection() {
    // High ε keeps the DP noise small so "big answer" vs "small answer"
    // is unambiguous.
    let engine = FederationEngine::start(federation(50.0));
    let server = LoopbackServer::analyst(engine.handle(), ServeOptions::unlimited()).unwrap();
    let addr = server.addr().to_string();

    let mut client = RemoteFederation::connect(&addr).unwrap();
    // A query matching (almost) everything vs. one matching (almost)
    // nothing: their answers are orders of magnitude apart, so a swapped
    // reply is unmistakable.
    let q_big = count_query(0, 999);
    let q_small = count_query(998, 999);
    let expected_small = remote_query(&mut client, &q_small)
        .unwrap()
        .value()
        .unwrap();

    // Submit the big query and abandon the pending handle.
    let big_plan = client.scalar_plan(&q_big, 0.2);
    let _ = client.submit_plan(&big_plan).unwrap();
    // The next query must get its own answer, not q_big's stale reply.
    let small_again = remote_query(&mut client, &q_small)
        .unwrap()
        .value()
        .unwrap();
    let big = remote_query(&mut client, &q_big).unwrap().value().unwrap();
    assert!(
        (small_again - expected_small).abs() < 0.2 * big.max(1.0),
        "stale reply leaked: got {small_again}, small ≈ {expected_small}, big ≈ {big}"
    );
    assert!(big > 10.0 * small_again.abs().max(1.0));
    // An abandoned online plan's snapshots and close are drained too.
    let online = QueryPlan::Online {
        query: q_big.clone(),
        sampling_rate: 0.2,
        epsilon: 50.0,
        delta: 1e-3,
        rounds: 3,
    };
    let _ = client.submit_plan(&online).unwrap();
    let small_last = remote_query(&mut client, &q_small)
        .unwrap()
        .value()
        .unwrap();
    assert!((small_last - expected_small).abs() < 0.2 * big.max(1.0));
    // A status request after an abandoned submit also stays in sync.
    let _ = client.submit_plan(&big_plan).unwrap();
    assert!(!client.budget_status().unwrap().limited);

    drop(client);
    server.shutdown();
    engine.shutdown();
}

/// ≥ 4 concurrent remote analysts hammer one server; every query is
/// answered (no dropped connections, no cross-talk between sockets).
#[test]
fn four_concurrent_clients_are_all_served() {
    let engine = FederationEngine::start(federation(1.0));
    let server = LoopbackServer::analyst(engine.handle(), ServeOptions::unlimited()).unwrap();
    let addr = server.addr().to_string();

    let per_client = 8usize;
    let answers: Vec<Vec<f64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|analyst: usize| {
                let addr = addr.clone();
                scope.spawn(move || {
                    let mut client =
                        RemoteFederation::connect_as(&addr, &format!("analyst-{analyst}")).unwrap();
                    (0..per_client)
                        .map(|i| {
                            let lo = ((i * 31 + analyst * 7) % 300) as i64;
                            let hi = (400 + (i * 53) % 500) as i64;
                            let answer = remote_query(&mut client, &count_query(lo, hi));
                            answer.unwrap().value().unwrap()
                        })
                        .collect::<Vec<f64>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(answers.len(), 4);
    for per_analyst in &answers {
        assert_eq!(per_analyst.len(), per_client);
        assert!(per_analyst.iter().all(|v| v.is_finite()));
    }

    server.shutdown();
    engine.shutdown();
}

/// Budget exhaustion is a *typed* protocol error, not a hangup: the
/// connection keeps answering status requests, and neither reconnecting
/// nor parallel connections reset the analyst's ledger.
#[test]
fn budget_exhaustion_is_typed_and_sticky_across_reconnects() {
    let engine = FederationEngine::start(federation(1.0));
    // ξ = 2 at ε = 1 per query: exactly two queries fit.
    let server =
        LoopbackServer::analyst(engine.handle(), ServeOptions::with_budget(2.0, 1e-2)).unwrap();
    let addr = server.addr().to_string();

    let mut alice = RemoteFederation::connect_as(&addr, "alice").unwrap();
    assert_eq!(alice.session_budget(), Some((2.0, 1e-2)));
    let q = count_query(100, 800);
    remote_query(&mut alice, &q).unwrap();
    remote_query(&mut alice, &q).unwrap();
    match remote_query(&mut alice, &q) {
        Err(NetError::Remote { code, message }) => {
            assert_eq!(code, ErrorCode::BudgetExhausted);
            assert!(message.contains("budget"), "{message}");
        }
        other => panic!("expected a typed budget error, got {other:?}"),
    }
    // The connection survived the rejection.
    let status = alice.budget_status().unwrap();
    assert!(status.limited);
    assert!((status.spent_eps - 2.0).abs() < 1e-9);
    assert_eq!(status.queries_answered, 2);

    // Reconnecting under the same identity cannot reset the ledger…
    let mut alice_again = RemoteFederation::connect_as(&addr, "alice").unwrap();
    match remote_query(&mut alice_again, &q) {
        Err(NetError::Remote { code, .. }) => assert_eq!(code, ErrorCode::BudgetExhausted),
        other => panic!("expected a typed budget error, got {other:?}"),
    }
    // …while a different analyst gets a fresh one.
    let mut bob = RemoteFederation::connect_as(&addr, "bob").unwrap();
    assert!(remote_query(&mut bob, &q).is_ok());

    drop((alice, alice_again, bob));
    server.shutdown();
    engine.shutdown();
}

/// A batch of scalar plans that straddles the budget boundary: the
/// affordable prefix is answered, the rest comes back as typed errors, in
/// order, on the same connection.
#[test]
fn batch_straddling_the_budget_gets_partial_answers() {
    let engine = FederationEngine::start(federation(1.0));
    let server =
        LoopbackServer::analyst(engine.handle(), ServeOptions::with_budget(3.0, 1e-2)).unwrap();
    let addr = server.addr().to_string();

    let mut client = RemoteFederation::connect_as(&addr, "carol").unwrap();
    let results: Vec<_> = batch() // 6 queries, 3 afford
        .specs()
        .iter()
        .map(|spec| remote_query(&mut client, &spec.query))
        .collect();
    assert_eq!(results.len(), 6);
    let ok = results.iter().filter(|r| r.is_ok()).count();
    assert_eq!(ok, 3, "exactly ξ/ε queries fit");
    for rejected in results.iter().skip(3) {
        match rejected {
            Err(NetError::Remote { code, .. }) => assert_eq!(*code, ErrorCode::BudgetExhausted),
            other => panic!("expected a typed budget error, got {other:?}"),
        }
    }

    drop(client);
    server.shutdown();
    engine.shutdown();
}

/// Garbage on the socket gets a typed error reply, then the connection is
/// closed — never a panic, never a silent drop.
#[test]
fn malformed_bytes_get_a_typed_error_then_close() {
    use std::io::Write as _;

    let engine = FederationEngine::start(federation(1.0));
    let server = LoopbackServer::analyst(engine.handle(), ServeOptions::unlimited()).unwrap();
    let addr = server.addr();

    // Handshake properly first, then send garbage.
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    fedaqp_net::wire::write_frame(
        &mut stream,
        &fedaqp_net::Frame::Hello(fedaqp_net::wire::Hello {
            analyst: "mallory".into(),
        }),
    )
    .unwrap();
    match fedaqp_net::wire::read_frame(&mut stream).unwrap() {
        fedaqp_net::Frame::HelloAck(_) => {}
        other => panic!("expected HelloAck, got {other:?}"),
    }
    stream.write_all(&[0xDE; 64]).unwrap();
    stream.flush().unwrap();
    match fedaqp_net::wire::read_frame(&mut stream) {
        Ok(fedaqp_net::Frame::Error(e)) => assert_eq!(e.code, ErrorCode::BadRequest),
        other => panic!("expected a BadRequest error frame, got {other:?}"),
    }
    // The server closed its side after the unsyncable stream.
    assert!(matches!(
        fedaqp_net::wire::read_frame(&mut stream),
        Err(NetError::Disconnected)
    ));

    drop(stream);
    server.shutdown();
    engine.shutdown();
}

/// The acceptance bar of the plan redesign: a seeded mixed batch — scalar,
/// derived, group-by, and extreme — answered over a real socket is
/// byte-identical to the same plans run in-process. The wire carries
/// plans, never arithmetic.
#[test]
fn remote_plans_are_byte_identical_to_in_process() {
    let engine = FederationEngine::start(plan_federation(1.0));
    let server = LoopbackServer::analyst(engine.handle(), ServeOptions::unlimited()).unwrap();
    let addr = server.addr().to_string();

    let mut client = RemoteFederation::connect(&addr).unwrap();
    let remote: Vec<_> = mixed_plans()
        .iter()
        .map(|plan| client.run_plan(plan).unwrap())
        .collect();

    let in_process: Vec<_> = plan_federation(1.0).with_engine(|engine| {
        mixed_plans()
            .iter()
            .map(|plan| engine.run_plan(plan).unwrap())
            .collect()
    });

    assert_eq!(remote.len(), in_process.len());
    for (r, l) in remote.iter().zip(&in_process) {
        assert_eq!(r.result, l.result, "released result");
        assert_eq!(r.cost, l.cost, "charged cost");
    }
    // Spot-check the shapes came through. Threshold 0 still suppresses
    // groups whose noise swung negative, so released + suppressed = 5.
    assert!(remote[0].value().is_some());
    let groups = remote[2].groups().unwrap();
    match &remote[2].result {
        fedaqp_core::PlanResult::Groups { suppressed, .. } => {
            assert_eq!(groups.len() as u64 + suppressed, 5, "5 categories");
        }
        other => panic!("expected groups, got {other:?}"),
    }
    assert!(!groups.is_empty());

    drop(client);
    server.shutdown();
    engine.shutdown();
}

/// EXPLAIN over the wire: the remote explanation is identical to the one
/// the in-process engine computes, asking for it charges nothing to a
/// session-capped analyst, and the explained plan still runs afterwards.
#[test]
fn remote_explain_matches_in_process_and_charges_nothing() {
    let engine = FederationEngine::start(plan_federation(1.0));
    let server =
        LoopbackServer::analyst(engine.handle(), ServeOptions::with_budget(5.0, 1e-2)).unwrap();
    let addr = server.addr().to_string();

    let mut client = RemoteFederation::connect_as(&addr, "erin").unwrap();
    for plan in mixed_plans() {
        let remote = client.explain_plan(&plan).unwrap();
        let local = plan_federation(1.0).with_engine(|engine| engine.explain_plan(&plan).unwrap());
        assert_eq!(remote, local, "explanations must agree across the wire");
    }
    let status = client.budget_status().unwrap();
    assert_eq!(status.spent_eps, 0.0, "explaining must charge nothing");
    assert_eq!(status.queries_answered, 0);

    // The explained plan still runs on the same connection.
    let answer = client
        .run_plan(&QueryPlan::Scalar {
            query: count_query(100, 800),
            sampling_rate: 0.2,
            epsilon: 1.0,
            delta: 1e-3,
        })
        .unwrap();
    assert!(answer.value().unwrap().is_finite());

    drop(client);
    server.shutdown();
    engine.shutdown();
}

/// A session-capped server charges a plan's *whole* declared (ε, δ)
/// atomically: a group-by that fits is answered, the next plan that does
/// not is a typed error, and reconnecting cannot reset the ledger.
#[test]
fn plan_budgets_are_charged_whole_and_typed() {
    let engine = FederationEngine::start(plan_federation(1.0));
    let server =
        LoopbackServer::analyst(engine.handle(), ServeOptions::with_budget(3.0, 1e-2)).unwrap();
    let addr = server.addr().to_string();

    let mut dana = RemoteFederation::connect_as(&addr, "dana").unwrap();
    let group_by = QueryPlan::GroupBy {
        base: count_query(0, 999),
        statistic: None,
        group_dim: 1,
        threshold: 0.0,
        sampling_rate: 0.2,
        epsilon: 2.5,
        delta: 1e-3,
    };
    dana.run_plan(&group_by).unwrap();
    let status = dana.budget_status().unwrap();
    assert!(
        (status.spent_eps - 2.5).abs() < 1e-9,
        "the whole plan (not per-sub-query driblets) is on the ledger: {}",
        status.spent_eps
    );
    // ξ has 0.5 left: the same 2.5-ε plan no longer fits, typed error.
    match dana.run_plan(&group_by) {
        Err(NetError::Remote { code, .. }) => assert_eq!(code, ErrorCode::BudgetExhausted),
        other => panic!("expected a typed budget error, got {other:?}"),
    }
    // An invalid plan costs nothing (validate-before-charge): the spend is
    // unchanged after a rejected group-by over a filtered group dim.
    let invalid = QueryPlan::GroupBy {
        base: RangeQuery::new(Aggregate::Count, vec![Range::new(1, 0, 2).unwrap()]).unwrap(),
        statistic: None,
        group_dim: 1,
        threshold: 0.0,
        sampling_rate: 0.2,
        epsilon: 0.1,
        delta: 1e-4,
    };
    assert!(dana.run_plan(&invalid).is_err());
    let status = dana.budget_status().unwrap();
    assert!((status.spent_eps - 2.5).abs() < 1e-9);
    // Reconnecting cannot reset the plan spend.
    let mut dana_again = RemoteFederation::connect_as(&addr, "dana").unwrap();
    match dana_again.run_plan(&group_by) {
        Err(NetError::Remote { code, .. }) => assert_eq!(code, ErrorCode::BudgetExhausted),
        other => panic!("expected a typed budget error, got {other:?}"),
    }

    drop((dana, dana_again));
    server.shutdown();
    engine.shutdown();
}

/// Opens a raw connection with a current `Hello`, sends `frame` stamped
/// at the stale `version`, and returns the typed error it is answered
/// with. The stream cannot be resynchronized after a refused header, so
/// the server then closes the connection.
fn refused_at(addr: &str, frame: &Frame, version: u16) -> wire::ErrorFrame {
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    write_frame(
        &mut stream,
        &Frame::Hello(Hello {
            analyst: "sneaky".into(),
        }),
    )
    .unwrap();
    assert!(matches!(
        read_frame(&mut stream).unwrap(),
        Frame::HelloAck(_)
    ));
    stream.write_all(&stamped(frame, version)).unwrap();
    let error = match read_frame(&mut stream) {
        Ok(Frame::Error(e)) => e,
        other => panic!("expected a typed version error, got {other:?}"),
    };
    assert!(matches!(
        read_frame(&mut stream),
        Err(NetError::Disconnected)
    ));
    error
}

/// The budget `sneaky` has spent, read on a fresh connection.
fn sneaky_spend(addr: &str) -> (f64, u64) {
    let mut client = RemoteFederation::connect_as(addr, "sneaky").unwrap();
    let status = client.budget_status().unwrap();
    (status.spent_eps, status.queries_answered)
}

fn scalar_plan_frame() -> Frame {
    Frame::Plan(wire::PlanRequest {
        plan: QueryPlan::Scalar {
            query: count_query(100, 800),
            sampling_rate: 0.2,
            epsilon: 1.0,
            delta: 1e-3,
        },
    })
}

/// A plan frame stamped with the first protocol version, sent on an
/// open connection, is refused with the typed version error BEFORE any
/// budget is charged.
#[test]
fn plans_on_a_v1_connection_are_rejected_without_charging() {
    let engine = FederationEngine::start(federation(1.0));
    let server =
        LoopbackServer::analyst(engine.handle(), ServeOptions::with_budget(5.0, 1e-2)).unwrap();

    let error = refused_at(server.addr(), &scalar_plan_frame(), 1);
    assert_eq!(error.code, ErrorCode::UnsupportedVersion);
    assert_eq!(error.index, u32::from(wire::VERSION));
    assert_eq!(sneaky_spend(server.addr()), (0.0, 0), "no budget charged");

    server.shutdown();
    engine.shutdown();
}

/// An explain frame stamped with a stale version is refused with a typed
/// error, never a bare hangup.
#[test]
fn explains_on_a_v2_connection_are_rejected_cleanly() {
    let engine = FederationEngine::start(federation(1.0));
    let server = LoopbackServer::analyst(engine.handle(), ServeOptions::unlimited()).unwrap();

    let explain = Frame::Explain(wire::ExplainRequest {
        plan: QueryPlan::Extreme {
            dim: 0,
            extreme: fedaqp_model::Extreme::Min,
            epsilon: 1.0,
        },
    });
    let error = refused_at(server.addr(), &explain, 2);
    assert_eq!(error.code, ErrorCode::UnsupportedVersion);
    assert!(error.message.contains("declared 2"), "{}", error.message);
    // The server keeps serving current connections.
    let mut client = RemoteFederation::connect(server.addr()).unwrap();
    assert!(remote_query(&mut client, &count_query(100, 800)).is_ok());

    drop(client);
    server.shutdown();
    engine.shutdown();
}

/// An online plan or an ingest batch stamped with a stale version is
/// refused typed before anything is charged or appended.
#[test]
fn online_frames_on_a_v5_connection_are_rejected_without_charging() {
    use fedaqp_core::{LiveFederation, RefreshPolicy};

    let live = LiveFederation::new(federation(1.0), RefreshPolicy::default());
    let server = LoopbackServer::live(live, ServeOptions::with_budget(50.0, 0.5)).unwrap();

    let online = Frame::Plan(wire::PlanRequest {
        plan: QueryPlan::Online {
            query: count_query(100, 800),
            sampling_rate: 0.2,
            epsilon: 1.0,
            delta: 1e-3,
            rounds: 4,
        },
    });
    let ingest = Frame::Ingest(wire::IngestRequest {
        provider: 0,
        rows: vec![wire::WireRow {
            values: vec![1, 2],
            measure: 1,
        }],
    });
    for frame in [online, ingest] {
        let error = refused_at(server.addr(), &frame, 5);
        assert_eq!(error.code, ErrorCode::UnsupportedVersion);
    }
    assert_eq!(sneaky_spend(server.addr()), (0.0, 0), "no budget charged");
    // Nothing was appended either: the next ingest lands in epoch 1.
    let mut client = RemoteFederation::connect(server.addr()).unwrap();
    let ack = client.ingest(0, &[Row::cell(vec![1, 2], 1)]).unwrap();
    assert_eq!(ack.epoch, 1);

    drop(client);
    server.shutdown();
}

/// A `Hello` whose header names any version but the one — the first
/// version, the one before this, or a future one — gets a typed version
/// error frame carrying the server's version, before the close, never a
/// bare hangup. Every role answers the same way, and the analyst roles
/// charge nothing for it.
#[test]
fn unknown_versions_get_a_typed_error_not_a_hangup() {
    use fedaqp_core::{LiveFederation, RefreshPolicy};

    let options = ServeOptions::with_budget(5.0, 1e-2);
    let engine = FederationEngine::start(federation(1.0));
    let analyst = LoopbackServer::analyst(engine.handle(), options).unwrap();
    let live = LoopbackServer::live(
        LiveFederation::new(federation(1.0), RefreshPolicy::default()),
        options,
    )
    .unwrap();
    let (engines, shards) = spawn_shard_grid(2);
    let coordinator = spawn_coordinator(&shards, options);

    let roles = [
        ("engine", analyst.addr(), true),
        ("coordinator", coordinator.addr(), true),
        ("live", live.addr(), true),
        ("shard", shards[0].addr(), false),
    ];
    for (role, addr, charges) in roles {
        for version in [1u16, 6, 99] {
            let mut stream = std::net::TcpStream::connect(addr).unwrap();
            let hello = Frame::Hello(Hello {
                analyst: "sneaky".into(),
            });
            stream.write_all(&stamped(&hello, version)).unwrap();
            match read_frame(&mut stream) {
                Ok(Frame::Error(e)) => {
                    assert_eq!(e.code, ErrorCode::UnsupportedVersion, "{role} v{version}");
                    assert_eq!(e.index, 7, "{role}: the server's version");
                    assert!(
                        e.message.contains(&version.to_string()),
                        "{role}: {}",
                        e.message
                    );
                }
                other => panic!("{role} v{version}: expected a typed version error, got {other:?}"),
            }
            // The server closed after the unsyncable stream.
            assert!(matches!(
                read_frame(&mut stream),
                Err(NetError::Disconnected)
            ));
        }
        if charges {
            assert_eq!(sneaky_spend(addr), (0.0, 0), "{role}: nothing charged");
        }
    }

    coordinator.shutdown();
    for server in shards {
        server.shutdown();
    }
    for engine in engines {
        engine.shutdown();
    }
    live.shutdown();
    analyst.shutdown();
    engine.shutdown();
}

/// Connecting to a dead port and binding an unbindable address both fail
/// with displayable errors (the CLI turns these into one-line exits).
#[test]
fn connect_and_bind_failures_are_clean() {
    // Grab an ephemeral port, then free it: connecting is very likely to
    // be refused.
    let port = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().port()
    };
    match RemoteFederation::connect(&format!("127.0.0.1:{port}")) {
        Err(NetError::Connect { addr, .. }) => assert!(addr.contains(&port.to_string())),
        other => panic!("expected a connect error, got {other:?}"),
    }

    let engine = FederationEngine::start(federation(1.0));
    match FederationServer::bind("256.0.0.1:1", engine.handle(), ServeOptions::unlimited()) {
        Err(NetError::Bind { .. }) => {}
        other => panic!("expected a bind error, got {other:?}"),
    }
    // Invalid serve budgets are rejected at bind time.
    match FederationServer::bind(
        "127.0.0.1:0",
        engine.handle(),
        ServeOptions::with_budget(-1.0, 1e-2),
    ) {
        Err(NetError::BadServeConfig(_)) => {}
        other => panic!("expected a config error, got {other:?}"),
    }
    engine.shutdown();
}

// ---------------------------------------------------------------------------
// Sharded deployment: coordinator federating shard-mode servers.
// ---------------------------------------------------------------------------

/// The acceptance bar of sharding, over real sockets: a coordinator
/// federating TWO engine shards answers the seeded mixed plans — and a
/// repeated scalar query — byte-identically to one in-process engine
/// holding the same four providers. Sharding moves execution, never
/// arithmetic, and the analyst protocol is exactly the one engine-backed
/// servers speak.
#[test]
fn two_remote_shards_serve_plans_byte_identical_to_one_engine() {
    let (engines, shard_servers) = spawn_shard_grid(2);
    let coordinator = spawn_coordinator(&shard_servers, ServeOptions::unlimited());

    let mut client = RemoteFederation::connect(coordinator.addr()).unwrap();
    assert_eq!(client.schema(), &plan_schema());
    assert_eq!(client.n_providers(), 4);
    let remote_plans: Vec<_> = mixed_plans()
        .iter()
        .map(|plan| client.run_plan(plan).unwrap())
        .collect();
    // The first mixed plan's content again: its second occurrence.
    let remote_scalar = remote_query(&mut client, &count_query(100, 800)).unwrap();

    let (local_plans, local_scalar) = plan_federation(1.0).with_engine(|engine| {
        let plans: Vec<_> = mixed_plans()
            .iter()
            .map(|plan| engine.run_plan(plan).unwrap())
            .collect();
        (plans, engine.run_plan(&mixed_plans()[0]).unwrap())
    });

    for (r, l) in remote_plans.iter().zip(&local_plans) {
        assert_eq!(r.result, l.result, "released result");
        assert_eq!(r.cost, l.cost, "charged cost");
    }
    assert_eq!(remote_scalar.result, local_scalar.result, "released scalar");
    assert_eq!(remote_scalar.cost, local_scalar.cost);

    drop(client);
    coordinator.shutdown();
    for server in shard_servers {
        server.shutdown();
    }
    for engine in engines {
        engine.shutdown();
    }
}

/// A shard dying between coordinator start-up and a plan surfaces as the
/// typed `shard-unavailable` error frame — never a hangup — and the
/// fail-closed contract holds over the wire: the whole plan budget was
/// charged before the scatter, and the charge is kept.
#[test]
fn a_dead_shard_is_typed_shard_unavailable_and_the_charge_is_kept() {
    let (engines, mut shard_servers) = spawn_shard_grid(2);
    let coordinator = spawn_coordinator(&shard_servers, ServeOptions::with_budget(20.0, 1e-1));
    // Kill shard 1 after the coordinator cached its bounds: every
    // fragment sent its way now hits a refused connection.
    shard_servers.pop().unwrap().shutdown();

    let plan = mixed_plans().swap_remove(0);
    // What the plan charges when it succeeds (costs are data-independent).
    let expected = plan_federation(1.0).with_engine(|engine| engine.run_plan(&plan).unwrap().cost);

    let mut client = RemoteFederation::connect(coordinator.addr()).unwrap();
    match client.run_plan(&plan) {
        Err(NetError::Remote { code, message }) => {
            assert_eq!(code, ErrorCode::ShardUnavailable);
            assert!(message.contains("shard-unavailable"), "{message}");
        }
        other => panic!("expected a typed shard fault, got {other:?}"),
    }
    // Fail-closed: the whole charge stays on the analyst's ledger, and
    // the connection survives to report it.
    let status = client.budget_status().unwrap();
    assert_eq!(status.spent_eps, expected.eps, "whole plan cost kept");
    // The ledger counts charges, and the failed plan WAS charged — the
    // status frame agrees with the fail-closed story.
    assert_eq!(status.queries_answered, 1);

    drop(client);
    coordinator.shutdown();
    for server in shard_servers {
        server.shutdown();
    }
    for engine in engines {
        engine.shutdown();
    }
}

/// Warm plans leave idle connections in the coordinator's shard pools;
/// restarting a shard on the same address leaves every one of them stale.
/// The next plan still succeeds, byte-identical to the in-process engine:
/// the fault on a stale connection empties the pool, and the retry
/// reaches the restarted shard on a fresh connection. Each plan kind is
/// run right after its own restart, so both the scatter's retried begin
/// and the extreme fragment's second try meet a stale pool.
#[test]
fn a_restarted_shard_is_reached_on_a_fresh_connection() {
    let (mut engines, mut shard_servers) = spawn_shard_grid(2);
    let coordinator = spawn_coordinator(&shard_servers, ServeOptions::unlimited());
    let addr = shard_servers[1].addr().to_owned();
    let plans = mixed_plans();

    let mut client = RemoteFederation::connect(coordinator.addr()).unwrap();
    let mut remote: Vec<_> = plans.iter().map(|p| client.run_plan(p).unwrap()).collect();
    let mut restarted: Option<FederationServer> = None;
    for plan in &plans {
        // Shut the shard down and bind a new one with the same data and
        // config on the same address.
        match restarted.take() {
            Some(server) => server.shutdown(),
            None => shard_servers.pop().unwrap().shutdown(),
        }
        engines.pop().unwrap().shutdown();
        let engine = FederationEngine::start(shard_federations(2).pop().unwrap());
        restarted = Some(FederationServer::bind_shard(&addr, engine.handle()).unwrap());
        engines.push(engine);
        remote.push(client.run_plan(plan).unwrap());
    }

    let local: Vec<_> = plan_federation(1.0).with_engine(|engine| {
        plans
            .iter()
            .chain(&plans)
            .map(|plan| engine.run_plan(plan).unwrap())
            .collect()
    });
    assert_eq!(remote.len(), local.len());
    for (r, l) in remote.iter().zip(&local) {
        assert_eq!(r.result, l.result, "released result");
        assert_eq!(r.cost, l.cost, "charged cost");
    }

    drop(client);
    coordinator.shutdown();
    if let Some(server) = restarted {
        server.shutdown();
    }
    for server in shard_servers {
        server.shutdown();
    }
    for engine in engines {
        engine.shutdown();
    }
}

/// A shard whose engine shut down after warm plans — its server still
/// accepting, its pooled connections still open — fails the next plan
/// with the typed `shard-unavailable` error, on the pooled connection
/// and on the retry's fresh one alike, and the plan's charge is kept.
#[test]
fn a_shard_engine_shut_down_after_warm_plans_is_typed_and_the_charge_is_kept() {
    let (mut engines, shard_servers) = spawn_shard_grid(2);
    let coordinator = spawn_coordinator(&shard_servers, ServeOptions::with_budget(50.0, 0.5));
    let plans = mixed_plans();

    let mut client = RemoteFederation::connect(coordinator.addr()).unwrap();
    for plan in &plans {
        client.run_plan(plan).unwrap();
    }
    let before = client.budget_status().unwrap();
    engines.pop().unwrap().shutdown();

    let plan = &plans[0];
    let expected = plan_federation(1.0).with_engine(|engine| engine.run_plan(plan).unwrap().cost);
    match client.run_plan(plan) {
        Err(NetError::Remote { code, message }) => {
            assert_eq!(code, ErrorCode::ShardUnavailable);
            assert!(message.contains("shard-unavailable"), "{message}");
        }
        other => panic!("expected a typed shard fault, got {other:?}"),
    }
    // Fail-closed: the failed plan's whole charge stays on the ledger.
    let after = client.budget_status().unwrap();
    assert!(
        (after.spent_eps - before.spent_eps - expected.eps).abs() < 1e-9,
        "whole plan cost kept: {} -> {}",
        before.spent_eps,
        after.spent_eps
    );
    assert_eq!(after.queries_answered, before.queries_answered + 1);

    drop(client);
    coordinator.shutdown();
    for server in shard_servers {
        server.shutdown();
    }
    for engine in engines {
        engine.shutdown();
    }
}

/// Analyst-facing servers refuse every coordinator→shard fragment frame
/// with a pointed typed error: serving fragments to arbitrary analysts
/// would hand out budget-unchecked partials and per-fragment occurrence
/// control (a differencing lever). The refusal is per-frame — the
/// connection keeps serving analyst frames.
#[test]
fn analyst_servers_refuse_fragment_frames() {
    use fedaqp_net::wire::{read_frame, write_frame, Frame, Hello};

    let engine = FederationEngine::start(federation(1.0));
    let server = LoopbackServer::analyst(engine.handle(), ServeOptions::unlimited()).unwrap();
    let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();

    write_frame(
        &mut stream,
        &Frame::Hello(Hello {
            analyst: "rogue-coordinator".into(),
        }),
    )
    .unwrap();
    assert!(matches!(
        read_frame(&mut stream).unwrap(),
        Frame::HelloAck(_)
    ));

    for frame in [Frame::ShardBoundsRequest, Frame::FragmentSummariesRequest] {
        write_frame(&mut stream, &frame).unwrap();
        match read_frame(&mut stream).unwrap() {
            Frame::Error(e) => {
                assert_eq!(e.code, ErrorCode::BadRequest);
                assert!(e.message.contains("shard-mode"), "{}", e.message);
            }
            other => panic!("expected a typed refusal, got {other:?}"),
        }
    }
    write_frame(&mut stream, &Frame::BudgetRequest).unwrap();
    assert!(matches!(
        read_frame(&mut stream).unwrap(),
        Frame::BudgetStatus(_)
    ));

    drop(stream);
    server.shutdown();
    engine.shutdown();
}

/// Shard-mode servers are the mirror image: a stale-version Hello is
/// refused at the handshake with the typed version error, and after a
/// current handshake, analyst frames get a typed redirect to the
/// coordinator — querying a shard directly would bypass the
/// coordinator's single budget ledger.
#[test]
fn shard_servers_refuse_old_hellos_and_analyst_frames() {
    let engine = FederationEngine::start(federation(1.0));
    let server = LoopbackServer::shard(engine.handle()).unwrap();

    // (a) A Hello from an older protocol version is refused, typed.
    let mut old = std::net::TcpStream::connect(server.addr()).unwrap();
    let hello = Frame::Hello(Hello {
        analyst: "old-coordinator".into(),
    });
    old.write_all(&stamped(&hello, 4)).unwrap();
    match read_frame(&mut old).unwrap() {
        Frame::Error(e) => {
            assert_eq!(e.code, ErrorCode::UnsupportedVersion);
            assert!(e.message.contains("version 7"), "{}", e.message);
        }
        other => panic!("expected a typed handshake refusal, got {other:?}"),
    }

    // (b) A current connection speaking analyst frames is redirected.
    let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
    write_frame(
        &mut stream,
        &Frame::Hello(Hello {
            analyst: "direct-analyst".into(),
        }),
    )
    .unwrap();
    assert!(matches!(
        read_frame(&mut stream).unwrap(),
        Frame::HelloAck(_)
    ));
    write_frame(&mut stream, &scalar_plan_frame()).unwrap();
    match read_frame(&mut stream).unwrap() {
        Frame::Error(e) => {
            assert_eq!(e.code, ErrorCode::BadRequest);
            assert!(e.message.contains("coordinator"), "{}", e.message);
        }
        other => panic!("expected a typed redirect, got {other:?}"),
    }
    // (c) Fragment-lifecycle frames with no fragment in flight are typed
    // too, and the connection survives all three refusals.
    write_frame(&mut stream, &Frame::FragmentPartialRequest).unwrap();
    match read_frame(&mut stream).unwrap() {
        Frame::Error(e) => {
            assert_eq!(e.code, ErrorCode::BadRequest);
            assert!(e.message.contains("no fragment"), "{}", e.message);
        }
        other => panic!("expected a typed lifecycle error, got {other:?}"),
    }
    write_frame(&mut stream, &Frame::ShardBoundsRequest).unwrap();
    assert!(matches!(
        read_frame(&mut stream).unwrap(),
        Frame::ShardBounds(_)
    ));

    drop(old);
    drop(stream);
    server.shutdown();
    engine.shutdown();
}

/// A shard rejecting an allocation aborts the fragment, so a partial
/// request pipelined right behind the allocation gets a typed error
/// instead of waiting forever on workers no allocation will reach — and
/// the connection serves the next fragment.
#[test]
fn a_rejected_pipelined_allocation_aborts_the_fragment() {
    use fedaqp_net::wire::{
        encode_frame, read_frame, write_frame, FragmentAllocationFrame, FragmentRequest, Frame,
        Hello,
    };
    use std::io::Write;

    let engine = FederationEngine::start(federation(1.0));
    let budget = engine.handle().default_budget().unwrap();
    let server = LoopbackServer::shard(engine.handle()).unwrap();
    let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
    // A regression would hang this test, not fail it; bound the wait.
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .unwrap();
    write_frame(
        &mut stream,
        &Frame::Hello(Hello {
            analyst: "coordinator".into(),
        }),
    )
    .unwrap();
    assert!(matches!(
        read_frame(&mut stream).unwrap(),
        Frame::HelloAck(_)
    ));

    let fragment = Frame::Fragment(FragmentRequest {
        query: count_query(100, 800),
        sampling_rate: 0.2,
        eps_o: budget.eps_o,
        eps_s: budget.eps_s,
        eps_e: budget.eps_e,
        delta: budget.delta,
        occurrence: 0,
    });
    for round in 0..2 {
        write_frame(&mut stream, &fragment).unwrap();
        assert!(matches!(
            read_frame(&mut stream).unwrap(),
            Frame::FragmentQueued
        ));
        write_frame(&mut stream, &Frame::FragmentSummariesRequest).unwrap();
        assert!(matches!(
            read_frame(&mut stream).unwrap(),
            Frame::FragmentSummaries(_)
        ));
        // Three allocations for four providers, with the partial request
        // in the same write.
        let mut pipelined = encode_frame(&Frame::FragmentAllocation(FragmentAllocationFrame {
            allocations: vec![1, 1, 1],
        }))
        .unwrap();
        pipelined.extend(encode_frame(&Frame::FragmentPartialRequest).unwrap());
        stream.write_all(&pipelined).unwrap();
        match read_frame(&mut stream).unwrap() {
            Frame::Error(e) => assert!(e.message.contains("allocation"), "{}", e.message),
            other => panic!("round {round}: expected a typed rejection, got {other:?}"),
        }
        match read_frame(&mut stream).unwrap() {
            Frame::Error(e) => assert!(e.message.contains("no fragment"), "{}", e.message),
            other => panic!("round {round}: expected a typed lifecycle error, got {other:?}"),
        }
    }

    drop(stream);
    server.shutdown();
    engine.shutdown();
}

/// The metrics admin frame, end to end against both analyst-facing
/// listeners: after a served workload, `RemoteFederation::metrics()`
/// returns *live* counters — queries answered, frames received,
/// connections accepted — from the engine-backed server and the
/// coordinator alike. The snapshot is one shared process-global registry,
/// so both roles expose the same catalog.
#[test]
fn metrics_frame_returns_live_counters_from_serve_and_coordinate() {
    use fedaqp_net::wire::WireMetric;

    let get = |metrics: &[WireMetric], name: &str| -> Option<f64> {
        metrics.iter().find(|m| m.name == name).map(|m| m.value)
    };
    // Cells are interned on first use, so a name may legitimately be
    // absent before the instrumented path ran — treat that as zero.
    let find = |metrics: &[WireMetric], name: &str| -> f64 {
        get(metrics, name).unwrap_or_else(|| panic!("{name} missing from snapshot"))
    };

    // ---- Engine-backed analyst server. ----
    let engine = FederationEngine::start(federation(1.0));
    let server = LoopbackServer::analyst(engine.handle(), ServeOptions::unlimited()).unwrap();
    let mut client = RemoteFederation::connect(server.addr()).unwrap();
    let before = get(&client.metrics().unwrap(), "fedaqp_server_queries_total").unwrap_or(0.0);
    remote_query(&mut client, &count_query(100, 800)).unwrap();
    let after = client.metrics().unwrap();
    assert!(
        find(&after, "fedaqp_server_queries_total") >= before + 1.0,
        "query counter must advance across a served query"
    );
    assert!(find(&after, "fedaqp_server_connections_total") >= 1.0);
    assert!(find(&after, "fedaqp_server_frames_total") >= 1.0);
    assert!(find(&after, "fedaqp_engine_queries_total") >= 1.0);
    assert!(
        find(&after, "fedaqp_engine_phase_summary_seconds_count") >= 1.0,
        "phase histograms must be fed by served queries"
    );
    // The per-kind frame family is live too.
    assert!(find(&after, "fedaqp_server_frames_total.plan") >= 1.0);
    drop(client);
    server.shutdown();
    engine.shutdown();

    // ---- Coordinator over two remote shards. ----
    let (engines, shard_servers) = spawn_shard_grid(2);
    let coordinator = spawn_coordinator(&shard_servers, ServeOptions::with_budget(50.0, 0.5));
    let mut client = RemoteFederation::connect_as(coordinator.addr(), "alice").unwrap();
    let before_shard = get(&client.metrics().unwrap(), "fedaqp_shard_queries_total").unwrap_or(0.0);
    remote_query(&mut client, &count_query(100, 800)).unwrap();
    let after = client.metrics().unwrap();
    assert!(
        find(&after, "fedaqp_shard_queries_total") >= before_shard + 1.0,
        "the coordinator's scatter counter must advance"
    );
    assert!(find(&after, "fedaqp_shard_scatter_seconds_count") >= 1.0);
    assert!(find(&after, "fedaqp_shard_gather_seconds_count") >= 1.0);
    // The budget directory feeds the per-analyst ξ gauge family.
    let xi = find(&after, "fedaqp_server_xi_spent.alice");
    assert!(xi > 0.0, "ξ spend gauge must reflect the charged query");
    drop(client);
    coordinator.shutdown();
    for server in shard_servers {
        server.shutdown();
    }
    for engine in engines {
        engine.shutdown();
    }
}

// ---------------------------------------------------------------------------
// Online plans (server push) and live federations (streaming ingest).
// ---------------------------------------------------------------------------

fn online_plan(rounds: usize) -> QueryPlan {
    QueryPlan::Online {
        query: count_query(100, 800),
        sampling_rate: 0.2,
        epsilon: 1.0,
        delta: 1e-3,
        rounds,
    }
}

/// The acceptance bar of the live-federation work, wire edition: an
/// online plan pushed over a real socket is byte-identical — every
/// snapshot, the cost, and the final value — to the same plan compiled
/// in-process, and to the serial `run_online` wrapper. The wire carries
/// snapshots, never arithmetic.
#[test]
fn remote_online_plans_are_byte_identical_to_in_process() {
    let engine = FederationEngine::start(plan_federation(1.0));
    let server = LoopbackServer::analyst(engine.handle(), ServeOptions::unlimited()).unwrap();
    let addr = server.addr().to_string();

    let mut client = RemoteFederation::connect(&addr).unwrap();
    let mut pushed = Vec::new();
    let remote = client
        .submit_plan(&online_plan(4))
        .unwrap()
        .wait_streaming(|s| pushed.push(*s))
        .unwrap();

    // The push hook saw every round, in order, as it resolved.
    assert_eq!(pushed.len(), 4);
    for (i, s) in pushed.iter().enumerate() {
        assert_eq!(s.round, i as u64 + 1);
        assert_eq!(s.rounds, 4);
    }

    let in_process = plan_federation(1.0)
        .with_engine(|engine| engine.run_plan(&online_plan(4)))
        .unwrap();
    assert_eq!(remote.result, in_process.result, "released snapshots");
    assert_eq!(remote.cost, in_process.cost, "charged cost");

    // The serial wrapper over a third identical federation agrees bit
    // for bit, round for round.
    let serial = fedaqp_core::run_online(
        &mut plan_federation(1.0),
        &count_query(100, 800),
        0.2,
        1.0,
        1e-3,
        4,
    )
    .unwrap();
    assert_eq!(serial.snapshots.len(), pushed.len());
    for (w, s) in pushed.iter().zip(&serial.snapshots) {
        assert_eq!(w.round as usize, s.round);
        assert_eq!(
            w.value.to_bits(),
            s.value.to_bits(),
            "round {} value",
            s.round
        );
        assert_eq!(w.sample_fraction.to_bits(), s.sample_fraction.to_bits());
        assert_eq!(w.clusters_scanned as usize, s.clusters_scanned);
    }
    assert_eq!(remote.cost, serial.cost);

    // A single-round online plan degenerates to the one-shot scalar: the
    // lone snapshot is byte-identical to the `Scalar` plan's answer.
    let one_round = client.run_plan(&online_plan(1)).unwrap();
    let scalar = plan_federation(1.0)
        .with_engine(|engine| {
            engine.run_plan(&QueryPlan::Scalar {
                query: count_query(100, 800),
                sampling_rate: 0.2,
                epsilon: 1.0,
                delta: 1e-3,
            })
        })
        .unwrap();
    assert_eq!(
        one_round.value().unwrap().to_bits(),
        scalar.value().unwrap().to_bits(),
        "rounds=1 must equal the one-shot scalar answer"
    );
    assert_eq!(one_round.cost, scalar.cost);

    drop(client);
    server.shutdown();
    engine.shutdown();
}

/// A live server answers queries, accepts ingest batches (bumping the
/// data epoch), and keeps answering — including online plans — after the
/// federation has grown. Before any ingest (epoch 0) its answers are
/// byte-identical to a frozen federation built from the same inputs.
#[test]
fn live_servers_serve_ingest_and_queries_across_epochs() {
    use fedaqp_core::{LiveFederation, RefreshPolicy};

    let live = LiveFederation::new(federation(1.0), RefreshPolicy::default());
    let server = LoopbackServer::live(live, ServeOptions::with_budget(50.0, 0.5)).unwrap();
    let mut client = RemoteFederation::connect_as(server.addr(), "alice").unwrap();
    assert_eq!(client.schema(), &schema());
    assert_eq!(client.session_budget(), Some((50.0, 0.5)));

    // Epoch 0: the live server is byte-identical to a frozen federation.
    let remote = remote_query(&mut client, &count_query(100, 800)).unwrap();
    let frozen = federation(1.0)
        .with_engine(|engine| {
            engine
                .submit(&count_query(100, 800), 0.2)
                .and_then(|p| p.wait())
        })
        .unwrap();
    assert_eq!(
        remote.value().unwrap().to_bits(),
        frozen.value.to_bits(),
        "epoch 0 must answer exactly like a frozen federation"
    );

    // Ingest a batch into provider 0: acknowledged atomically, epoch bumps.
    let rows: Vec<Row> = (0..50)
        .map(|i| Row::cell(vec![(i * 11) % 1000, i % 100], 2))
        .collect();
    let ack = client.ingest(0, &rows).unwrap();
    assert_eq!(ack.accepted, 50);
    assert_eq!(ack.epoch, 1);
    assert!(!ack.refreshed, "50 rows stay under the staleness floor");

    // Out-of-range provider ids are refused with a typed error; the
    // connection (and the ledger) survive.
    match client.ingest(99, &rows) {
        Err(NetError::Remote { code, message }) => {
            assert_eq!(code, ErrorCode::BadRequest);
            assert!(message.contains("provider"), "{message}");
        }
        other => panic!("expected a typed refusal, got {other:?}"),
    }

    // Epoch 1: queries, plans, and online pushes all still answer.
    let grown = remote_query(&mut client, &count_query(100, 800)).unwrap();
    assert!(grown.value().unwrap().is_finite());
    let mut rounds_seen = 0;
    let online = client
        .submit_plan(&online_plan(3))
        .unwrap()
        .wait_streaming(|_| rounds_seen += 1)
        .unwrap();
    assert_eq!(rounds_seen, 3);
    assert!(online.value().unwrap().is_finite());

    // The per-analyst ledger is durable across the whole live session:
    // three charged requests so far, each ε = 1.
    let status = client.budget_status().unwrap();
    assert!(
        status.spent_eps > 2.9,
        "three ε=1 releases charged, got {}",
        status.spent_eps
    );
    assert!(status.queries_answered >= 3);

    drop(client);
    server.shutdown();
}

/// Ingest frames sent to a frozen analyst server get a typed refusal,
/// not a hangup — only live-mode servers mutate their federation.
#[test]
fn frozen_servers_refuse_ingest_with_a_typed_error() {
    let engine = FederationEngine::start(federation(1.0));
    let server = LoopbackServer::analyst(engine.handle(), ServeOptions::unlimited()).unwrap();
    let mut client = RemoteFederation::connect(server.addr()).unwrap();

    match client.ingest(0, &[Row::cell(vec![1, 2], 1)]) {
        Err(NetError::Remote { code, message }) => {
            assert_eq!(code, ErrorCode::BadRequest);
            assert!(message.contains("live-mode"), "{message}");
        }
        other => panic!("expected a typed refusal, got {other:?}"),
    }
    // The connection still answers queries.
    assert!(remote_query(&mut client, &count_query(100, 800)).is_ok());

    drop(client);
    server.shutdown();
    engine.shutdown();
}
