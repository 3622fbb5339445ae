//! `live-ingest`: a live server over 300k Adult rows with two
//! connections. One streams Adult-like ingest batches at a fixed offered
//! rate, with the refresh policy pinned on row staleness so the full
//! Algorithm 1 recompute fires several times per run; the other runs
//! wide scalar plans meanwhile. Appends and refreshes take the write lock
//! while queries hold the read lock, so only this workload shows a change
//! that speeds scans but slows appends or lengthens the write lock.

use std::sync::RwLock;
use std::time::{Duration, Instant};

use fedaqp_core::{LiveFederation, PlanAnswer, QueryPlan};
use fedaqp_net::{LoopbackServer, RemoteFederation, ServeOptions};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::common::*;
use crate::stats::{median, Samples};
use crate::trace::Tracer;

const ROWS: u64 = 300_000;
/// Distinct queries; the analyst cycles through them and each is also
/// one `rel_error_p50` answer.
const POOL: usize = 1_200;
/// Distinct plans served before the first ingest and compared byte for
/// byte with the in-process engine.
const PREFIX: usize = 20;
/// Offered ingest rate: batches are sent on this schedule (or as soon as
/// the previous acknowledgement arrives, when that is later), so the
/// table grows by the same amount in every run of the same length. A
/// 30-s run about doubles the table; at 40k rows/s it grew six-fold and
/// the latency median moved by ±20% between runs.
const INGEST_ROWS_PER_S: f64 = 10_000.0;
/// A full metadata recompute after this many stale rows (≈ every 2 s).
const REFRESH_ROWS: usize = 20_000;
/// Distinct stream rows; the stream repeats when a run needs more.
const STREAM_ROWS: u64 = 200_000;

fn lock_err<T>(_: T) -> String {
    "shadow federation lock poisoned".into()
}

/// One timed stretch of the two connections.
struct Segment {
    wall: f64,
    latency: Samples,
    plans_attempted: u64,
    ingest: IngestStats,
    /// Index of the next stream batch, where a following segment resumes.
    next_batch: usize,
    tracer: Tracer,
}

pub fn run(args: &Args) -> Check<Report> {
    let data = Data::adult(ROWS, STREAM_ROWS, args.seed);
    let batches = data.batches();
    let mut report = Report::default();
    let (eps, delta) = (data.cfg.epsilon, data.cfg.delta);
    let start = || -> Check<(LoopbackServer, RemoteFederation, RemoteFederation)> {
        let live = LiveFederation::new(
            data.build(data.partitions.clone()),
            row_policy(REFRESH_ROWS),
        );
        let server = LoopbackServer::live(live, ServeOptions::unlimited())
            .map_err(|e| format!("bind live server: {e}"))?;
        let connect =
            |name| RemoteFederation::connect_as(server.addr(), name).map_err(|e| e.to_string());
        let (analyst, ingester) = (connect("analyst")?, connect("ingest")?);
        Ok((server, analyst, ingester))
    };
    let rss_before = rss_mb();
    let t = Instant::now();
    let (server, mut analyst, mut ingester) = start()?;
    let mut setup = vec![t.elapsed().as_secs_f64()];
    let rss_after = rss_mb();
    // The in-process oracle over the same base partitions: the answers
    // the served prefix must equal, the plain scan and the exact values.
    let reference = data.build(data.partitions.clone());
    let queries = wide_queries(&reference, POOL, args.seed);
    let plans: Vec<QueryPlan> = queries.iter().map(|q| scalar(q, eps, delta)).collect();
    let outcome = reference.with_engine(|h| -> Check<_> {
        properties(&mut report, h, reference.providers(), &data.cfg, &plans);
        let prefix: Vec<PlanAnswer> = plans[..PREFIX]
            .iter()
            .map(|p| h.run_plan(p).map_err(|e| e.to_string()))
            .collect::<Check<_>>()?;
        for (plan, local) in plans.iter().zip(&prefix) {
            let served = analyst.run_plan(plan).map_err(|e| e.to_string())?;
            check_answer(plan, &served)?;
            check_answer(plan, local)?;
            if !identical(&served, local) {
                return Err(format!(
                    "served answer {:?} differs from the in-process engine's {:?}",
                    served.result, local.result
                ));
            }
        }
        // In-process answers and plain scans, half before and half after the
        // timed loop so they sample the run's whole span.
        let mut plain = Samples::default();
        let mut rel = Vec::with_capacity(POOL);
        answer_pairs(h, &reference, &plans[..POOL / 2], &mut plain, &mut rel)?;

        // The traced run mirrors the server's data in-process: same base
        // partitions, same batches, a refresh whenever the server reports one.
        let epoch = Instant::now();
        let mut tracer = Tracer::new(epoch);
        let shadow = args.trace.then(|| {
            let fed = data.build(data.partitions.clone());
            append_probe(&mut tracer, &fed.providers()[0], batches[0].1);
            meta_probe(&mut tracer, fed.providers());
            RwLock::new(LiveFederation::new(fed, row_policy(usize::MAX)))
        });

        let segment = |analyst: &mut RemoteFederation,
                       ingester: &mut RemoteFederation,
                       seconds: f64,
                       first_batch: usize,
                       traced: bool|
         -> Check<Segment> {
            let deadline = Instant::now() + Duration::from_secs_f64(seconds);
            let t = Instant::now();
            let (queries, ingest) = std::thread::scope(|scope| {
                let query_thread = scope.spawn(|| -> Check<(Samples, u64, Tracer)> {
                    let mut tr = Tracer::new(epoch);
                    let (mut latency, mut k) = (Samples::default(), 0usize);
                    while Instant::now() < deadline {
                        let plan = &plans[k % POOL];
                        k += 1;
                        let start = Instant::now();
                        // A failed plan has no latency sample; it counts
                        // as attempted only.
                        let Ok(answer) = analyst.run_plan(plan) else {
                            continue;
                        };
                        latency.push(ms(start.elapsed()));
                        check_answer(plan, &answer)?;
                        let Some(shadow) = shadow.as_ref().filter(|_| traced) else {
                            continue;
                        };
                        tr.set_plan(k as u64);
                        tr.span("plan", |tr| -> Check<()> {
                            let served = tr.span("server.remote", |_| analyst.run_plan(plan));
                            let remote_ns = tr.last_ns();
                            check_answer(plan, &served.map_err(|e| e.to_string())?)?;
                            let guard = shadow.read().map_err(lock_err)?;
                            let fed = guard.federation();
                            let local = tr
                                .span("engine.run_plan", |_| fed.with_engine(|h| h.run_plan(plan)));
                            let local_ns = tr.last_ns();
                            check_answer(plan, &local.map_err(|e| e.to_string())?)?;
                            fed.with_engine(|h| explain_probe(tr, h, plan));
                            wire_plan_probe(tr, plan, &answer)?;
                            let mut rng = StdRng::seed_from_u64(args.seed ^ k as u64);
                            let critical = tr.span("replay", |tr| {
                                replay_plan(
                                    tr,
                                    fed.providers(),
                                    &data.cfg,
                                    fed.schema(),
                                    plan,
                                    &mut rng,
                                )
                            });
                            if let QueryPlan::Scalar { query, .. } = plan {
                                plain_probe(tr, fed.providers(), query);
                            }
                            tr.count("server_ns", remote_ns as f64 - local_ns as f64);
                            tr.count("server_plans", 1.0);
                            tr.count("dispatch_ns", local_ns as f64 - critical as f64);
                            tr.count("dispatch_plans", 1.0);
                            Ok(())
                        })?;
                    }
                    Ok((latency, k as u64, tr))
                });
                let ingest_thread = scope.spawn(|| -> Check<(IngestStats, usize, Tracer)> {
                    let mut tr = Tracer::new(epoch);
                    let mut stats = IngestStats::default();
                    let mut i = 0usize;
                    let start = Instant::now();
                    while Instant::now() < deadline {
                        let due = start
                            + Duration::from_secs_f64((i * BATCH_ROWS) as f64 / INGEST_ROWS_PER_S);
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(
                                wait.min(deadline.saturating_duration_since(Instant::now())),
                            );
                            continue;
                        }
                        let (p, rows) = batches[(first_batch + i) % batches.len()];
                        i += 1;
                        let Some(shadow) = shadow.as_ref().filter(|_| traced) else {
                            stats.send(ingester, p, rows, None)?;
                            continue;
                        };
                        tr.set_plan(i as u64);
                        tr.span("ingest", |tr| -> Check<()> {
                            wire_ingest_probe(tr, p, rows);
                            tr.count("remote_rows", rows.len() as f64);
                            let refreshed = stats.send(ingester, p, rows, Some(tr))?;
                            let mut guard = shadow.write().map_err(lock_err)?;
                            let report = tr
                                .span("stream.ingest", |_| guard.ingest(p as usize, rows.to_vec()));
                            tr.count("stream_rows", rows.len() as f64);
                            if report.map_err(|e| e.to_string())?.accepted != rows.len() as u64 {
                                return Err("in-process ingest dropped rows".into());
                            }
                            if refreshed {
                                tr.span("stream.refresh", |_| guard.refresh());
                            }
                            Ok(())
                        })?;
                    }
                    Ok((stats, first_batch + i, tr))
                });
                (
                    query_thread.join().expect("query thread panicked"),
                    ingest_thread.join().expect("ingest thread panicked"),
                )
            });
            let wall = t.elapsed().as_secs_f64();
            let (latency, plans_attempted, mut tracer) = queries?;
            let (ingest, next_batch, ingest_tracer) = ingest?;
            tracer.absorb(ingest_tracer);
            Ok(Segment {
                wall,
                latency,
                plans_attempted,
                ingest,
                next_batch,
                tracer,
            })
        };
        let seconds = if args.trace {
            args.seconds / 2.0
        } else {
            args.seconds
        };
        let untraced = segment(&mut analyst, &mut ingester, seconds, 0, false)?;
        let mut traced = None;
        if let Some(shadow) = &shadow {
            // The shadow must hold every batch the server holds.
            let mut guard = shadow.write().map_err(lock_err)?;
            for &(p, rows) in batches.iter().cycle().take(untraced.next_batch) {
                guard
                    .ingest(p as usize, rows.to_vec())
                    .map_err(|e| e.to_string())?;
            }
            guard.refresh();
            drop(guard);
            traced = Some(segment(
                &mut analyst,
                &mut ingester,
                seconds,
                untraced.next_batch,
                true,
            )?);
        }
        answer_pairs(h, &reference, &plans[POOL / 2..], &mut plain, &mut rel)?;
        Ok((plain, rel, untraced, traced, tracer))
    })?;
    drop(analyst);
    drop(ingester);
    server.shutdown();
    more_setups(args, &mut setup, || {
        let t = Instant::now();
        let (server, analyst, ingester) = start()?;
        let elapsed = t.elapsed().as_secs_f64();
        drop((analyst, ingester));
        server.shutdown();
        Ok(elapsed)
    })?;

    let (plain, rel, untraced, traced, mut tracer) = outcome;
    let Segment {
        wall,
        latency,
        plans_attempted,
        ingest,
        ..
    } = untraced;
    // Served prefix, in-process answers with their plain scans, ingest
    // batches and the timed loop's plans.
    report.attempted = plans_attempted + ingest.batches + (PREFIX + 2 * POOL) as u64;
    report.failed = ingest.failed + (plans_attempted - latency.len() as u64);
    let mut refreshes = ingest.refreshes;
    if let Some(traced) = traced {
        report.attempted += traced.plans_attempted + traced.ingest.batches;
        report.failed +=
            traced.ingest.failed + (traced.plans_attempted - traced.latency.len() as u64);
        refreshes += traced.ingest.refreshes;
        tracer.absorb(traced.tracer);
        tracer.count("refreshes", traced.ingest.refreshes as f64);
        layer_metrics(&mut report, &tracer);
        report.metric(
            "scan.private_over_plain",
            plain.percentile(50.0) / latency.percentile(50.0),
            "ratio",
        );
        let per_plan = |wall: f64, n: usize| wall / n.max(1) as f64;
        report.metric(
            "trace_overhead_frac",
            per_plan(traced.wall, traced.latency.len()) / per_plan(wall, latency.len()) - 1.0,
            "ratio",
        );
        report.trace = Some(tracer);
    } else {
        report.metric("setup_s", median(&setup), "s");
        report.metric("plans_per_s", latency.len() as f64 / wall, "1/s");
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
    report.note(format!(
        "property: refreshes_fired={refreshes} ingest_batches={} prefix_checked={PREFIX}",
        ingest.batches
    ));
    Ok(report)
}
