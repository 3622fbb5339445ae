//! `grid-plans`: two analyst connections with a finite (ξ, ψ) grant talk
//! to a coordinator in front of two shard servers on loopback — the
//! `serve --shard 0/2`, `serve --shard 1/2` + `coordinate` deployment —
//! and run a mix of scalar, VAR, GROUP BY and MIN/MAX plans over narrow
//! age bands on 300k Adult rows. Every provider answers exactly
//! (N^Q < N_min) and each plan scans little, so the time goes to the wire
//! codec, server frames, shard scatter/gather, plan compilation and
//! engine dispatch; EM never runs.

use std::time::Instant;

use fedaqp_core::{Federation, FederationEngine, QueryPlan, ShardBackend, ShardedFederation};
use fedaqp_model::{Aggregate, DerivedStatistic, Extreme, Range, RangeQuery, Row};
use fedaqp_net::{LoopbackServer, RemoteFederation, RemoteShard, ServeOptions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::common::*;
use crate::stats::{median, Samples};
use crate::trace::Tracer;

const ROWS: u64 = 300_000;
const SHARDS: usize = 2;
const ANALYSTS: usize = 2;
/// Plans the analysts cycle through; their 1200 scalar plans are also
/// the `rel_error_p50` answers.
const POOL: usize = 3_000;
/// Distinct plans served sequentially and compared byte for byte with
/// the in-process unsharded engine before the timed loop.
const PREFIX: usize = 20;
const WARMUP: usize = 5;
/// Per-analyst grant: finite, and large enough that nothing is refused.
const XI: f64 = 1e9;
const PSI: f64 = 0.5;
/// Per-plan δ, small enough that ψ covers every plan of a run.
const PLAN_DELTA: f64 = 1e-9;
const STREAM_ROWS: u64 = 192 * BATCH_ROWS as u64;

/// The running deployment: shard engines and servers, the coordinator
/// and its front server, and the analyst connections.
struct Grid {
    engines: Vec<FederationEngine>,
    shards: Vec<LoopbackServer>,
    coordinator: ShardedFederation,
    front: LoopbackServer,
    conns: Vec<RemoteFederation>,
}

impl Grid {
    fn start(data: &Data, partitions: Vec<Vec<Row>>) -> Check<Grid> {
        let cfg = &data.cfg;
        let mut engines = Vec::with_capacity(SHARDS);
        let mut shards = Vec::with_capacity(SHARDS);
        let per_shard = PROVIDERS / SHARDS;
        let mut partitions = partitions.into_iter();
        for s in 0..SHARDS {
            // The coordinator's own split: contiguous providers, lane offsets.
            let mut shard_cfg = cfg.clone();
            shard_cfg.n_providers = per_shard;
            shard_cfg.provider_lane_base = cfg.provider_lane_base + (s * per_shard) as u64;
            let slice: Vec<_> = partitions.by_ref().take(per_shard).collect();
            let fed = Federation::build(shard_cfg, data.schema.clone(), slice)
                .map_err(|e| e.to_string())?;
            let engine = FederationEngine::start(fed);
            shards.push(LoopbackServer::shard(engine.handle()).map_err(|e| e.to_string())?);
            engines.push(engine);
        }
        let backends = shards
            .iter()
            .map(|s| {
                RemoteShard::connect(s.addr())
                    .map(|r| Box::new(r) as Box<dyn ShardBackend>)
                    .map_err(|e| e.to_string())
            })
            .collect::<Check<Vec<_>>>()?;
        let coordinator =
            ShardedFederation::from_backends(cfg.clone(), data.schema.clone(), backends)
                .map_err(|e| e.to_string())?;
        let front =
            LoopbackServer::coordinator(coordinator.clone(), ServeOptions::with_budget(XI, PSI))
                .map_err(|e| e.to_string())?;
        let conns = (0..ANALYSTS)
            .map(|a| {
                RemoteFederation::connect_as(front.addr(), &format!("analyst-{a}"))
                    .map_err(|e| e.to_string())
            })
            .collect::<Check<Vec<_>>>()?;
        Ok(Grid {
            engines,
            shards,
            coordinator,
            front,
            conns,
        })
    }

    fn stop(self) {
        drop(self.conns);
        self.front.shutdown();
        self.coordinator.shutdown();
        for shard in self.shards {
            shard.shutdown();
        }
        for engine in self.engines {
            drop(engine.shutdown());
        }
    }
}

/// The plan mix: two scalar plans (COUNT, SUM), one VAR, one GROUP BY of
/// 6–8 groups and one MIN/MAX in every five, each over a 1–2 year age
/// band (plus a wide education range for the range plans).
fn plans(n: usize, epsilon: f64, seed: u64) -> Vec<QueryPlan> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6121D);
    (0..n)
        .map(|i| {
            let lo = rng.gen_range(17..=89i64);
            let age = Range::new(0, lo, lo + rng.gen_range(0..=1i64)).expect("age band");
            let width = rng.gen_range(8..=16i64);
            let start = rng.gen_range(1..=17 - width);
            let edu = Range::new(2, start, start + width - 1).expect("education range");
            let query = |agg| RangeQuery::new(agg, vec![age, edu]).expect("query");
            match i % 5 {
                0 | 1 => QueryPlan::Scalar {
                    query: query(if i % 5 == 0 {
                        Aggregate::Count
                    } else {
                        Aggregate::Sum
                    }),
                    sampling_rate: SAMPLING_RATE,
                    epsilon,
                    delta: PLAN_DELTA,
                },
                2 => QueryPlan::Derived {
                    query: query(Aggregate::Count),
                    statistic: DerivedStatistic::Variance,
                    sampling_rate: SAMPLING_RATE,
                    epsilon,
                    delta: PLAN_DELTA,
                },
                3 => QueryPlan::GroupBy {
                    base: RangeQuery::new(Aggregate::Count, vec![age]).expect("query"),
                    statistic: None,
                    // workclass (8), marital_status (7), relationship (6).
                    group_dim: [1, 3, 5][(i / 5) % 3],
                    threshold: 0.0,
                    sampling_rate: SAMPLING_RATE,
                    epsilon,
                    delta: PLAN_DELTA,
                },
                _ => QueryPlan::Extreme {
                    dim: rng.gen_range(0..9usize),
                    extreme: if rng.gen_bool(0.5) {
                        Extreme::Min
                    } else {
                        Extreme::Max
                    },
                    epsilon,
                },
            }
        })
        .collect()
}

#[derive(Default)]
struct Lane {
    latency: Samples,
    plans: usize,
    attempted: u64,
    failed: u64,
}

pub fn run(args: &Args) -> Check<Report> {
    let data = Data::adult(ROWS, STREAM_ROWS, args.seed);
    let mut report = Report::default();
    let pool = plans(POOL, data.cfg.epsilon, args.seed);
    let mut prefix: Vec<&QueryPlan> = Vec::with_capacity(PREFIX);
    for plan in &pool {
        if prefix.len() < PREFIX && !prefix.contains(&plan) {
            prefix.push(plan);
        }
    }
    let scalars: Vec<&QueryPlan> = pool
        .iter()
        .filter(|p| matches!(p, QueryPlan::Scalar { .. }))
        .collect();

    let rss_before = rss_mb();
    let t = Instant::now();
    let mut grid = Grid::start(&data, data.partitions.clone())?;
    let mut setup = vec![t.elapsed().as_secs_f64()];
    let rss_after = rss_mb();
    // Warm-up: the prefix, served one by one on a fresh deployment, then
    // a few plans on the other connection.
    let served = prefix
        .iter()
        .map(|plan| {
            grid.conns[0]
                .run_plan(plan)
                .map_err(|e| format!("served {plan:?}: {e}"))
        })
        .collect::<Check<Vec<_>>>()?;
    for conn in grid.conns.iter_mut().skip(1) {
        for plan in pool.iter().take(WARMUP) {
            check_answer(plan, &conn.run_plan(plan).map_err(|e| e.to_string())?)?;
        }
    }

    // The unsharded in-process federation: oracle, plain scan and the
    // reference the served answers must equal.
    let reference = data.build(data.partitions.clone());
    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch);
    // The wire-ingest phase runs on a federation of its own, half before
    // and half after the timed loop, so it samples the run's whole span.
    let batches = data.batches();
    let (early_batches, late_batches) = batches.split_at(batches.len() / 2);
    let mut ingest = IngestPhase::start(
        data.build(data.partitions.clone()),
        &batches,
        args.trace.then_some(&mut tracer),
    )?;
    ingest.send(early_batches, args.trace.then_some(&mut tracer))?;
    let outcome = reference.with_engine(|h| -> Check<_> {
        properties(&mut report, h, reference.providers(), &data.cfg, &pool);
        // Serial ≡ remote ≡ sharded on a fresh deployment.
        for (plan, served) in prefix.iter().zip(&served) {
            let local = h.run_plan(plan).map_err(|e| e.to_string())?;
            check_answer(plan, served)?;
            check_answer(plan, &local)?;
            if !identical(served, &local) {
                return Err(format!(
                    "served answer {:?} differs from the in-process engine's {:?} for {plan:?}",
                    served.result, local.result
                ));
            }
        }
        // The in-process scalar answers and plain scans, half before and
        // half after the timed loop so they sample the run's whole span.
        let mut plain = Samples::default();
        let mut rel = Vec::with_capacity(scalars.len());
        let (early, late) = scalars.split_at(scalars.len() / 2);
        answer_pairs(h, &reference, early.iter().copied(), &mut plain, &mut rel)?;

        // One analyst's closed loop over its share of the pool.
        let coordinator = &grid.coordinator;
        let analyst = |a: usize,
                       conn: &mut RemoteFederation,
                       seconds: f64,
                       mut tr: Option<&mut Tracer>|
         -> Check<Lane> {
            let mut lane = Lane::default();
            let handle = h.clone();
            let t = Instant::now();
            let mut k = 0usize;
            while t.elapsed().as_secs_f64() < seconds {
                let index = (a + ANALYSTS * k) % POOL;
                let plan = &pool[index];
                k += 1;
                lane.attempted += 1;
                let start = Instant::now();
                let answer = match conn.run_plan(plan) {
                    Ok(answer) => answer,
                    Err(_) => {
                        lane.failed += 1;
                        continue;
                    }
                };
                lane.latency.push(ms(start.elapsed()));
                lane.plans += 1;
                check_answer(plan, &answer)?;
                let Some(tr) = tr.as_deref_mut() else {
                    continue;
                };
                tr.set_plan((index + POOL * k) as u64);
                tr.span("plan", |tr| -> Check<()> {
                    let served = tr.span("server.remote", |_| conn.run_plan(plan));
                    let remote_ns = tr.last_ns();
                    let sharded = tr.span("shard.run_plan", |_| coordinator.run_plan(plan));
                    let sharded_ns = tr.last_ns();
                    let local = tr.span("engine.run_plan", |_| handle.run_plan(plan));
                    let local_ns = tr.last_ns();
                    check_answer(plan, &served.map_err(|e| e.to_string())?)?;
                    for answer in [sharded, local] {
                        check_answer(plan, &answer.map_err(|e| e.to_string())?)?;
                    }
                    explain_probe(tr, &handle, plan);
                    wire_plan_probe(tr, plan, &answer)?;
                    let mut rng = StdRng::seed_from_u64(args.seed ^ k as u64);
                    let critical = tr.span("replay", |tr| {
                        replay_plan(
                            tr,
                            reference.providers(),
                            &data.cfg,
                            reference.schema(),
                            plan,
                            &mut rng,
                        )
                    });
                    if let QueryPlan::Scalar { query, .. } = plan {
                        plain_probe(tr, reference.providers(), query);
                    }
                    tr.count("server_ns", remote_ns as f64 - sharded_ns as f64);
                    tr.count("server_plans", 1.0);
                    tr.count("scatter_ns", sharded_ns as f64 - local_ns as f64);
                    tr.count("scatter_plans", 1.0);
                    tr.count("dispatch_ns", local_ns as f64 - critical as f64);
                    tr.count("dispatch_plans", 1.0);
                    Ok(())
                })?;
            }
            Ok(lane)
        };
        let segment = |conns: &mut [RemoteFederation],
                       seconds: f64,
                       traced: bool|
         -> Check<(f64, Vec<Lane>, Vec<Tracer>)> {
            let t = Instant::now();
            let results: Vec<Check<(Lane, Tracer)>> = std::thread::scope(|scope| {
                let workers: Vec<_> = conns
                    .iter_mut()
                    .enumerate()
                    .map(|(a, conn)| {
                        let analyst = &analyst;
                        scope.spawn(move || {
                            let mut tr = Tracer::new(epoch);
                            let lane = analyst(a, conn, seconds, traced.then_some(&mut tr))?;
                            Ok((lane, tr))
                        })
                    })
                    .collect();
                workers
                    .into_iter()
                    .map(|w| w.join().expect("analyst thread panicked"))
                    .collect()
            });
            let wall = t.elapsed().as_secs_f64();
            let (lanes, tracers) = results
                .into_iter()
                .collect::<Check<Vec<_>>>()?
                .into_iter()
                .unzip();
            Ok((wall, lanes, tracers))
        };
        let seconds = if args.trace {
            args.seconds / 2.0
        } else {
            args.seconds
        };
        let untraced = segment(&mut grid.conns, seconds, false)?;
        let traced = if args.trace {
            let traced = segment(&mut grid.conns, seconds, true)?;
            meta_probe(&mut tracer, reference.providers());
            Some(traced)
        } else {
            None
        };
        answer_pairs(h, &reference, late.iter().copied(), &mut plain, &mut rel)?;
        Ok((plain, rel, untraced, traced))
    })?;
    let (plain, rel, (wall, lanes, _), traced) = outcome;
    grid.stop();

    let mut latency = Samples::default();
    let mut plans_done = 0;
    for lane in &lanes {
        latency.extend(lane.latency.clone());
        plans_done += lane.plans;
        report.attempted += lane.attempted;
        report.failed += lane.failed;
    }
    let mut traced_run = None;
    if let Some((traced_wall, traced_lanes, tracers)) = traced {
        for lane in &traced_lanes {
            report.attempted += lane.attempted;
            report.failed += lane.failed;
        }
        for tr in tracers {
            tracer.absorb(tr);
        }
        traced_run = Some((
            traced_wall,
            traced_lanes.iter().map(|l| l.plans).sum::<usize>(),
        ));
    }
    ingest.send(late_batches, args.trace.then_some(&mut tracer))?;
    let ingest = ingest.finish();
    // Served prefix and warm-up plans, scalar answers with their plain
    // scans, and ingest batches, beside the timed loop's plans.
    report.attempted +=
        ingest.batches + (PREFIX + WARMUP * (ANALYSTS - 1) + 2 * scalars.len()) as u64;
    more_setups(args, &mut setup, || {
        let t = Instant::now();
        let grid = Grid::start(&data, data.partitions.clone())?;
        let elapsed = t.elapsed().as_secs_f64();
        grid.stop();
        Ok(elapsed)
    })?;
    report.failed += ingest.failed;
    report.note(format!(
        "property: refreshes_fired={} ingest_batches={} prefix_checked={}",
        ingest.refreshes,
        ingest.batches,
        prefix.len()
    ));
    if let Some((traced_wall, traced_plans)) = traced_run {
        tracer.count("refreshes", ingest.refreshes as f64);
        layer_metrics(&mut report, &tracer);
        report.metric(
            "scan.private_over_plain",
            plain.percentile(50.0) / latency.percentile(50.0),
            "ratio",
        );
        let per_plan = |wall: f64, n: usize| wall / n.max(1) as f64;
        report.metric(
            "trace_overhead_frac",
            per_plan(traced_wall, traced_plans) / per_plan(wall, plans_done) - 1.0,
            "ratio",
        );
        report.trace = Some(tracer);
    } else {
        report.metric("setup_s", median(&setup), "s");
        report.metric("plans_per_s", plans_done as f64 / wall, "1/s");
        report.percentiles(
            "latency",
            &latency,
            "latency_p50_ms",
            Some("latency_p90_ms"),
        );
        report.percentiles("plain", &plain, "plain_p50_ms", None);
        report.metric("rel_error_p50", median(&rel), "ratio");
        report.note(format!("rel_error: n={}", rel.len()));
        report.metric("ingest_rows_per_s", ingest.rows_per_s(), "rows/s");
        report.metric("rss_mb", rss_after - rss_before, "MiB");
    }
    Ok(report)
}
