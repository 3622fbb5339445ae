//! Fixtures shared by the socket test binaries: the plan-test
//! federation, its seeded mixed plans, and a loopback shard grid with a
//! coordinator in front of it.
// Each test binary compiles this module and uses a subset of it.
#![allow(dead_code)]

use fedaqp_core::{Federation, FederationConfig, FederationEngine, PlanAnswer};
use fedaqp_model::{
    Aggregate, DerivedStatistic, Dimension, Domain, Extreme, QueryPlan, Range, RangeQuery, Row,
    Schema,
};
use fedaqp_net::wire::{encode_frame, Frame};
use fedaqp_net::{LoopbackServer, NetError, RemoteFederation, RemoteShard, ServeOptions};

pub fn count_query(lo: i64, hi: i64) -> RangeQuery {
    RangeQuery::new(Aggregate::Count, vec![Range::new(0, lo, hi).unwrap()]).unwrap()
}

/// One scalar query at sampling rate 0.2 and the server's default
/// `(ε, δ)`: the scalar plan a remote analyst sends.
pub fn remote_query(
    client: &mut RemoteFederation,
    query: &RangeQuery,
) -> Result<PlanAnswer, NetError> {
    let plan = client.scalar_plan(query, 0.2);
    client.run_plan(&plan)
}

/// `frame`'s encoding with its header stamped at `version`.
pub fn stamped(frame: &Frame, version: u16) -> Vec<u8> {
    let mut bytes = encode_frame(frame).unwrap();
    bytes[4..6].copy_from_slice(&version.to_le_bytes());
    bytes
}

/// Schema with a small categorical dimension for plan tests.
pub fn plan_schema() -> Schema {
    Schema::new(vec![
        Dimension::new("x", Domain::new(0, 999).unwrap()),
        Dimension::new("cat", Domain::new(0, 4).unwrap()),
    ])
    .unwrap()
}

/// The seeded per-provider data the plan tests run over.
pub fn plan_partitions() -> Vec<Vec<Row>> {
    (0..4)
        .map(|p| {
            (0..2000)
                .map(|i| {
                    let v = (i * 7 + p * 13) % 1000;
                    Row::cell(vec![v as i64, ((i + p) % 5) as i64], 1 + (i % 3) as u64)
                })
                .collect()
        })
        .collect()
}

pub fn plan_config(epsilon: f64) -> FederationConfig {
    let mut cfg = FederationConfig::paper_default(50);
    cfg.cost_model = fedaqp_smc::CostModel::zero();
    cfg.n_min = 3;
    cfg.epsilon = epsilon;
    cfg
}

/// A federation with a small categorical dimension for plan tests.
pub fn plan_federation(epsilon: f64) -> Federation {
    Federation::build(plan_config(epsilon), plan_schema(), plan_partitions()).unwrap()
}

/// The seeded mixed workload: one plan of every kind.
pub fn mixed_plans() -> Vec<QueryPlan> {
    vec![
        QueryPlan::Scalar {
            query: count_query(100, 800),
            sampling_rate: 0.2,
            epsilon: 1.0,
            delta: 1e-3,
        },
        QueryPlan::Derived {
            query: count_query(0, 900),
            statistic: DerivedStatistic::Average,
            sampling_rate: 0.2,
            epsilon: 1.0,
            delta: 1e-3,
        },
        QueryPlan::GroupBy {
            base: count_query(0, 999),
            statistic: None,
            group_dim: 1,
            threshold: 0.0,
            sampling_rate: 0.2,
            epsilon: 2.5,
            delta: 1e-3,
        },
        QueryPlan::Extreme {
            dim: 0,
            extreme: Extreme::Max,
            epsilon: 5.0,
        },
    ]
}

/// Splits the plan-test federation into `n_shards` contiguous engine
/// shards, each configured with its global provider-lane offset.
pub fn shard_federations(n_shards: usize) -> Vec<Federation> {
    let cfg = plan_config(1.0);
    let mut partitions = plan_partitions().into_iter();
    let (base, extra) = (cfg.n_providers / n_shards, cfg.n_providers % n_shards);
    let mut offset = 0usize;
    let mut shards = Vec::with_capacity(n_shards);
    for s in 0..n_shards {
        let k = base + usize::from(s < extra);
        let mut shard_cfg = cfg.clone();
        shard_cfg.n_providers = k;
        shard_cfg.provider_lane_base = cfg.provider_lane_base + offset as u64;
        let shard_partitions: Vec<Vec<Row>> = partitions.by_ref().take(k).collect();
        shards.push(Federation::build(shard_cfg, plan_schema(), shard_partitions).unwrap());
        offset += k;
    }
    shards
}

/// Builds the plan-test federation as `n_shards` engine shards, each
/// behind its own shard-mode loopback server. Returns the engines (kept
/// alive for shutdown) alongside their servers.
pub fn spawn_shard_grid(n_shards: usize) -> (Vec<FederationEngine>, Vec<LoopbackServer>) {
    shard_federations(n_shards)
        .into_iter()
        .map(|federation| {
            let engine = FederationEngine::start(federation);
            let server = LoopbackServer::shard(engine.handle()).unwrap();
            (engine, server)
        })
        .unzip()
}

/// Connects a coordinator to the given shard servers and serves it to
/// analysts on its own loopback port.
pub fn spawn_coordinator(servers: &[LoopbackServer], options: ServeOptions) -> LoopbackServer {
    let shards: Vec<Box<dyn fedaqp_core::ShardBackend>> = servers
        .iter()
        .map(|s| {
            Box::new(RemoteShard::connect(s.addr()).unwrap()) as Box<dyn fedaqp_core::ShardBackend>
        })
        .collect();
    let federation =
        fedaqp_core::ShardedFederation::from_backends(plan_config(1.0), plan_schema(), shards)
            .unwrap();
    LoopbackServer::coordinator(federation, options).unwrap()
}
