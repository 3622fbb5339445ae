//! Coordinator→shard connection reuse, pinned by the servers' own
//! connection counter, and the shard servers' frame counting.
//!
//! This file is a test binary of its own, so the process-global telemetry
//! registry counts only the connections and frames its single test opens
//! and sends.

use fedaqp_model::{DerivedStatistic, Extreme, QueryPlan};
use fedaqp_net::{RemoteFederation, ServeOptions};

mod common;
use common::*;

/// Plan `i` of a seeded mixed sequence: scalar COUNT, VAR, GROUP BY and
/// MIN/MAX in turn, over shifting ranges.
fn plan(i: usize) -> QueryPlan {
    let lo = (i * 37 % 400) as i64;
    match i % 4 {
        0 => QueryPlan::Scalar {
            query: count_query(lo, lo + 500),
            sampling_rate: 0.2,
            epsilon: 1.0,
            delta: 1e-3,
        },
        1 => QueryPlan::Derived {
            query: count_query(lo, lo + 500),
            statistic: DerivedStatistic::Variance,
            sampling_rate: 0.2,
            epsilon: 1.0,
            delta: 1e-3,
        },
        2 => QueryPlan::GroupBy {
            base: count_query(lo, lo + 500),
            statistic: None,
            group_dim: 1,
            threshold: 0.0,
            sampling_rate: 0.2,
            epsilon: 2.5,
            delta: 1e-3,
        },
        _ => QueryPlan::Extreme {
            dim: 0,
            extreme: if i % 8 == 3 {
                Extreme::Min
            } else {
                Extreme::Max
            },
            epsilon: 5.0,
        },
    }
}

fn connections_opened() -> u64 {
    fedaqp_obs::global()
        .counter(fedaqp_obs::names::SERVER_CONNECTIONS)
        .get()
}

/// `(all frames, fragment frames)` received by every server in the
/// process so far.
fn frames_received() -> (u64, u64) {
    let registry = fedaqp_obs::global();
    let total = registry.counter(fedaqp_obs::names::SERVER_FRAMES).get();
    let fragments = registry
        .counter(&format!("{}.fragment", fedaqp_obs::names::SERVER_FRAMES))
        .get();
    (total, fragments)
}

/// Once one round of every plan kind has warmed a 2-shard grid, the
/// coordinator's shard pools hold as many connections as a plan ever
/// needs at once, so dozens more sequential plans open no connection at
/// all — not to the shards, not to the coordinator.
#[test]
fn a_warm_grid_serves_sequential_plans_without_new_connections() {
    let (engines, shard_servers) = spawn_shard_grid(2);
    let coordinator = spawn_coordinator(&shard_servers, ServeOptions::unlimited());
    let mut client = RemoteFederation::connect(coordinator.addr()).unwrap();
    for i in 0..8 {
        client.run_plan(&plan(i)).unwrap();
    }

    let warm = connections_opened();
    let (frames_before, fragments_before) = frames_received();
    for i in 8..60 {
        client.run_plan(&plan(i)).unwrap();
    }
    assert_eq!(
        connections_opened(),
        warm,
        "52 sequential plans on a warm grid opened connections"
    );
    // Shard servers count the frames they serve: every plan sends at
    // least one fragment frame to each of the two shards, and the
    // coordinator counts the 52 plan frames on top.
    let (frames_after, fragments_after) = frames_received();
    let fragments = fragments_after - fragments_before;
    assert!(fragments >= 2 * 52, "{fragments} fragment frames counted");
    assert!(
        frames_after - frames_before >= fragments + 52,
        "{} frames counted in all",
        frames_after - frames_before
    );

    drop(client);
    coordinator.shutdown();
    for server in shard_servers {
        server.shutdown();
    }
    for engine in engines {
        engine.shutdown();
    }
}
