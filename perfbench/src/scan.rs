//! `scan-heavy`: one in-process analyst runs wide 2-dim COUNT/SUM scalar
//! plans on a 1.2M-row Adult federation, and the plain federated scan of
//! the same queries. Every provider takes the EM path, so the time goes
//! to the cluster scan and EM sampling: the paper's compute-bound
//! private-versus-plain measurement.

use std::time::Instant;

use fedaqp_core::PendingPlain;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::common::*;
use crate::stats::{median, Samples};
use crate::trace::Tracer;

const ROWS: u64 = 1_200_000;
/// Distinct queries the analyst cycles through.
const POOL: usize = 1_000;
/// Answers behind `rel_error_p50`: the first this many plans, whatever
/// the run length.
const REL_ANSWERS: usize = 1_000;
const WARMUP: usize = 10;
/// Ingest after the query loop: 96 batches, one refresh half-way.
const STREAM_ROWS: u64 = 96 * BATCH_ROWS as u64;

#[derive(Default)]
struct LoopState {
    private: Samples,
    plain: Samples,
    rel: Vec<f64>,
    attempted: u64,
    failed: u64,
}

pub fn run(args: &Args) -> Check<Report> {
    let data = Data::adult(ROWS, STREAM_ROWS, args.seed);
    let mut report = Report::default();
    let rss_before = rss_mb();
    let probe = probe_plan(&data.cfg);
    let set_up = |fed: &fedaqp_core::Federation| {
        fed.with_engine(|h| h.validate_plan(&probe))
            .map_err(|e| e.to_string())
    };
    let mut setup = Vec::new();
    let t = Instant::now();
    let fed = data.build(data.partitions.clone());
    let (eps, delta) = (data.cfg.epsilon, data.cfg.delta);
    let mut tracer = Tracer::new(Instant::now());
    let outcome = fed.with_engine(|h| -> Check<_> {
        h.validate_plan(&probe).map_err(|e| e.to_string())?;
        setup.push(t.elapsed().as_secs_f64());
        let rss_after = rss_mb();
        let queries = wide_queries(&fed, POOL, args.seed);
        let plans: Vec<_> = queries.iter().map(|q| scalar(q, eps, delta)).collect();
        properties(&mut report, h, fed.providers(), &data.cfg, &plans);

        let mut st = LoopState::default();
        // One iteration: the private plan, then the plain scan of its query.
        let step = |i: usize, st: &mut LoopState, tr: Option<&mut Tracer>| -> Check<()> {
            let (query, plan) = (&queries[i % POOL], &plans[i % POOL]);
            st.attempted += 2;
            let t = Instant::now();
            let answer = h.run_plan(plan);
            st.private.push(ms(t.elapsed()));
            let t = Instant::now();
            let exact = h.submit_plain(query).and_then(PendingPlain::wait);
            st.plain.push(ms(t.elapsed()));
            let (answer, exact) = match (answer, exact) {
                (Ok(a), Ok(e)) => (a, e.value),
                (a, e) => {
                    st.failed += u64::from(a.is_err()) + u64::from(e.is_err());
                    return Ok(());
                }
            };
            check_answer(plan, &answer)?;
            if st.rel.len() < REL_ANSWERS {
                st.rel
                    .push(rel_error(answer.value().expect("scalar value"), exact));
            }
            if let Some(tr) = tr {
                tr.set_plan(i as u64);
                tr.span("plan", |tr| -> Check<()> {
                    let replayed = tr.span("engine.run_plan", |_| h.run_plan(plan));
                    let run_ns = tr.last_ns();
                    check_answer(plan, &replayed.map_err(|e| e.to_string())?)?;
                    explain_probe(tr, h, plan);
                    let mut rng = StdRng::seed_from_u64(args.seed ^ i as u64);
                    let critical = tr.span("replay", |tr| {
                        replay_plan(tr, fed.providers(), &data.cfg, fed.schema(), plan, &mut rng)
                    });
                    tr.count("dispatch_ns", run_ns as f64 - critical as f64);
                    tr.count("dispatch_plans", 1.0);
                    plain_probe(tr, fed.providers(), query);
                    Ok(())
                })?;
            }
            Ok(())
        };
        // Warm-up, which also checks the plain scan against the oracle
        // outside the timed region.
        for (i, query) in queries.iter().enumerate().take(WARMUP) {
            let exact = h.submit_plain(query).and_then(PendingPlain::wait);
            if exact.map(|e| e.value).ok() != Some(fed.exact(query)) {
                return Err("plain scan differs from the exact answer".into());
            }
            step(i, &mut LoopState::default(), None)?;
        }
        let seconds = if args.trace {
            args.seconds / 2.0
        } else {
            args.seconds
        };
        let mut i = WARMUP;
        let t = Instant::now();
        while t.elapsed().as_secs_f64() < seconds || (!args.trace && i - WARMUP < REL_ANSWERS) {
            step(i, &mut st, None)?;
            i += 1;
        }
        let untraced = (t.elapsed().as_secs_f64(), i - WARMUP);
        let mut traced = (0.0, 0);
        if args.trace {
            let mut traced_state = LoopState::default();
            let t = Instant::now();
            let start = i;
            while t.elapsed().as_secs_f64() < seconds {
                step(i, &mut traced_state, Some(&mut tracer))?;
                i += 1;
            }
            traced = (t.elapsed().as_secs_f64(), i - start);
            st.attempted += traced_state.attempted;
            st.failed += traced_state.failed;
            meta_probe(&mut tracer, fed.providers());
        }
        Ok((st, rss_after, untraced, traced))
    })?;
    let (st, rss_after, untraced, traced) = outcome;
    let batches = data.batches();
    let mut ingest = IngestPhase::start(fed, &batches, args.trace.then_some(&mut tracer))?;
    ingest.send(&batches, args.trace.then_some(&mut tracer))?;
    let ingest = ingest.finish();
    more_setups(args, &mut setup, || {
        let t = Instant::now();
        set_up(&data.build(data.partitions.clone()))?;
        Ok(t.elapsed().as_secs_f64())
    })?;
    report.attempted = st.attempted + ingest.batches;
    report.failed = st.failed + ingest.failed;
    report.note(format!(
        "property: refreshes_fired={} ingest_batches={}",
        ingest.refreshes, ingest.batches
    ));
    let plans_done = untraced.1 as f64;
    if args.trace {
        tracer.count("refreshes", ingest.refreshes as f64);
        layer_metrics(&mut report, &tracer);
        report.metric(
            "scan.private_over_plain",
            st.plain.percentile(50.0) / st.private.percentile(50.0),
            "ratio",
        );
        let per_plan = |(wall, n): (f64, usize)| wall / n.max(1) as f64;
        report.metric(
            "trace_overhead_frac",
            per_plan(traced) / per_plan(untraced) - 1.0,
            "ratio",
        );
        report.trace = Some(tracer);
    } else {
        report.metric("setup_s", median(&setup), "s");
        report.metric("plans_per_s", plans_done / untraced.0, "1/s");
        report.percentiles(
            "latency",
            &st.private,
            "latency_p50_ms",
            Some("latency_p90_ms"),
        );
        report.percentiles("plain", &st.plain, "plain_p50_ms", None);
        report.metric("rel_error_p50", median(&st.rel), "ratio");
        report.note(format!("rel_error: n={}", st.rel.len()));
        report.metric("ingest_rows_per_s", ingest.rows_per_s(), "rows/s");
        report.metric("rss_mb", rss_after - rss_before, "MiB");
    }
    Ok(report)
}
