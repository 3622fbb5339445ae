//! What the three workloads share: generated inputs, answer checks, the
//! traced stage replay, wire and storage probes, and the report.

use std::time::{Duration, Instant};

use fedaqp_core::sensitivity::{
    delta_r_for, smooth_estimator_sensitivity, ClusterSensitivityInput, SensitivityContext,
};
use fedaqp_core::{
    Aggregator, DataProvider, EngineHandle, Federation, FederationConfig, LiveFederation,
    PlanAnswer, PlanResult, QueryPlan, RefreshPolicy,
};
use fedaqp_data::{
    partition_rows, AdultConfig, AdultSynth, PartitionMode, WorkloadConfig, WorkloadGenerator,
};
use fedaqp_dp::{laplace_noise, QueryBudget, SmoothSensitivity};
use fedaqp_model::{Aggregate, DerivedStatistic, Range, RangeQuery, Row, Schema};
use fedaqp_net::wire::{
    encode_frame, read_frame, IngestRequest, PlanAnswerFrame, PlanRequest, WireGroup,
    WirePlanResult, WireRow,
};
use fedaqp_net::{Frame, LoopbackServer, RemoteFederation, ServeOptions};
use fedaqp_sampling::em::{delta_p, em_sample};
use fedaqp_sampling::{hh_estimate, hh_variance, HansenHurwitz};
use fedaqp_smc::CostModel;
use fedaqp_storage::ProviderMeta;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::stats::Samples;
use crate::trace::{self_time_by_name, Tracer};

/// The paper's Adult sampling rate (§6.2).
pub const SAMPLING_RATE: f64 = 0.20;
/// Providers in every federation.
pub const PROVIDERS: usize = 4;
/// Set-ups per untraced run; `setup_s` is their median. The first one
/// is the deployment the run measures; the others follow the run, so
/// the set-up samples are spread over it.
pub const SETUP_REPS: usize = 7;
/// Rows per ingest batch: the wire's cap.
pub const BATCH_ROWS: usize = fedaqp_net::wire::MAX_INGEST_ROWS;

/// A wrong answer: the run fails without printing a result.
pub type Check<T> = Result<T, String>;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a workload measured.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)`, printed and emitted in this order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Diagnostic lines printed before the result.
    pub notes: Vec<String>,
    /// The merged spans of a traced run.
    pub trace: Option<Tracer>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Records the p50 of `samples` as `p50`, and its p90 as `p90` when
    /// given, printing the sample count and p99 beside them.
    pub fn percentiles(
        &mut self,
        label: &str,
        samples: &Samples,
        p50: &'static str,
        p90: Option<&'static str>,
    ) {
        self.metric(p50, samples.percentile(50.0), "ms");
        if let Some(p90) = p90 {
            self.metric(p90, samples.percentile(90.0), "ms");
        }
        self.note(format!(
            "{label}: n={} p50={:.4} ms p90={:.4} ms p99={:.4} ms (p99 is a diagnostic)",
            samples.len(),
            samples.percentile(50.0),
            samples.percentile(90.0),
            samples.percentile(99.0)
        ));
    }
}

/// Generated inputs: partitions, configuration and an ingest stream.
pub struct Data {
    pub schema: Schema,
    pub cfg: FederationConfig,
    pub partitions: Vec<Vec<Row>>,
    pub stream: Vec<Row>,
}

impl Data {
    /// Adult-like rows split evenly over [`PROVIDERS`] providers, with
    /// clusters of 1% of a provider's cells (≈100 clusters each) and no
    /// simulated network, plus `stream_rows` fresh rows for ingest.
    pub fn adult(rows: u64, stream_rows: u64, seed: u64) -> Data {
        let dataset = AdultSynth::generate(AdultConfig {
            n_rows: rows,
            seed: seed ^ 0xAD,
        })
        .expect("adult generation");
        let per_provider = dataset.cells.len().div_ceil(PROVIDERS);
        let capacity = ((per_provider as f64 * 0.01).round() as usize).max(32);
        let mut cfg = FederationConfig::paper_default(capacity);
        cfg.seed = seed;
        cfg.cost_model = CostModel::zero();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5117);
        let partitions = partition_rows(&mut rng, dataset.cells, PROVIDERS, &PartitionMode::Equal)
            .expect("partitioning");
        let stream = AdultSynth::generate(AdultConfig {
            n_rows: stream_rows,
            seed: seed ^ 0x57,
        })
        .expect("stream generation")
        .cells;
        Data {
            schema: dataset.schema,
            cfg,
            partitions,
            stream,
        }
    }

    pub fn build(&self, partitions: Vec<Vec<Row>>) -> Federation {
        Federation::build(self.cfg.clone(), self.schema.clone(), partitions)
            .expect("federation build")
    }

    /// The stream cut into batches, round-robin over the providers.
    pub fn batches(&self) -> Vec<(u32, &[Row])> {
        self.stream
            .chunks(BATCH_ROWS)
            .enumerate()
            .map(|(i, rows)| ((i % PROVIDERS) as u32, rows))
            .collect()
    }
}

/// `n` wide 2-dim queries, alternating COUNT and SUM. Each covers enough
/// clusters that every provider takes the EM path, and matches at least
/// 5% of the table by the metadata's estimate (the paper evaluates
/// "significantly large" queries; tiny answers turn fixed DP noise into
/// unbounded relative errors).
pub fn wide_queries(fed: &Federation, n: usize, seed: u64) -> Vec<RangeQuery> {
    let generator = |agg, salt| {
        WorkloadGenerator::new(
            fed.schema().clone(),
            WorkloadConfig::new(2, agg),
            seed ^ salt,
        )
        .expect("workload config")
    };
    let total: usize = fed.providers().iter().map(|p| p.store().total_rows()).sum();
    let estimated_rows = |q: &RangeQuery| -> f64 {
        fed.providers()
            .iter()
            .map(|p| p.prepare(q).sum_r * p.meta().agreed_s() as f64)
            .sum()
    };
    let keep =
        |q: &RangeQuery| fed.triggers_approximation(q) && estimated_rows(q) >= 0.05 * total as f64;
    let mut count = generator(Aggregate::Count, 0xC0);
    let mut sum = generator(Aggregate::Sum, 0x50);
    let mut out = count.take_filtered(n / 2, keep);
    out.extend(sum.take_filtered(n - n / 2, keep));
    // Interleave the two aggregates so every prefix mixes them.
    let (c, s) = out.split_at(n / 2);
    c.iter()
        .zip(s)
        .flat_map(|(a, b)| [a.clone(), b.clone()])
        .collect()
}

/// A private scalar plan at the paper's sampling rate and `(ε, δ)`.
pub fn scalar(query: &RangeQuery, epsilon: f64, delta: f64) -> QueryPlan {
    QueryPlan::Scalar {
        query: query.clone(),
        sampling_rate: SAMPLING_RATE,
        epsilon,
        delta,
    }
}

/// A plan every deployment accepts, for timing set-up up to the first
/// accepted request without running (and charging) anything.
pub fn probe_plan(cfg: &FederationConfig) -> QueryPlan {
    let query = RangeQuery::new(
        Aggregate::Count,
        vec![Range::new(0, 17, 90).expect("range")],
    )
    .expect("query");
    scalar(&query, cfg.epsilon, cfg.delta)
}

/// Resident memory of this process in MiB (`VmRSS`), read after handing
/// the allocator's free pages back to the system: otherwise memory freed
/// earlier (by data generation, say) and reused by a set-up would hide
/// what the set-up holds.
pub fn rss_mb() -> f64 {
    release_free_pages();
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmRSS:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn release_free_pages() {
    extern "C" {
        fn malloc_trim(pad: usize) -> std::os::raw::c_int;
    }
    // SAFETY: glibc's `malloc_trim` takes no pointers; it only returns
    // free heap pages to the kernel and may be called from any thread at
    // any time.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn release_free_pages() {}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Checks one answer: every released number finite and the charged cost
/// exactly the plan's declared cost.
pub fn check_answer(plan: &QueryPlan, answer: &PlanAnswer) -> Check<()> {
    let (eps, delta) = plan.total_cost();
    if answer.cost.eps.to_bits() != eps.to_bits() || answer.cost.delta.to_bits() != delta.to_bits()
    {
        return Err(format!(
            "charged ({}, {}) but the plan declares ({eps}, {delta}): {plan:?}",
            answer.cost.eps, answer.cost.delta
        ));
    }
    let finite = result_bits(&answer.result)
        .into_iter()
        .all(|b| f64::from_bits(b).is_finite());
    if !finite {
        return Err(format!("non-finite answer {:?} to {plan:?}", answer.result));
    }
    Ok(())
}

/// Every released number of a result, as bits (keys as `f64` too).
fn result_bits(result: &PlanResult) -> Vec<u64> {
    let opt = |ci: &Option<f64>| ci.map_or(0, f64::to_bits);
    match result {
        PlanResult::Value {
            value,
            ci_halfwidth,
        } => vec![value.to_bits(), opt(ci_halfwidth)],
        PlanResult::Snapshots { snapshots } => snapshots
            .iter()
            .flat_map(|s| [s.value.to_bits(), opt(&s.ci_halfwidth)])
            .collect(),
        PlanResult::Groups { groups, suppressed } => groups
            .iter()
            .flat_map(|g| {
                [
                    (g.key as f64).to_bits(),
                    g.value.to_bits(),
                    opt(&g.ci_halfwidth),
                ]
            })
            .chain([(*suppressed as f64).to_bits()])
            .collect(),
        PlanResult::Extreme { value } => vec![(*value as f64).to_bits()],
    }
}

/// Whether two answers release byte-identical results at the same cost.
pub fn identical(a: &PlanAnswer, b: &PlanAnswer) -> bool {
    std::mem::discriminant(&a.result) == std::mem::discriminant(&b.result)
        && result_bits(&a.result) == result_bits(&b.result)
        && a.cost.eps.to_bits() == b.cost.eps.to_bits()
        && a.cost.delta.to_bits() == b.cost.delta.to_bits()
}

/// Runs each scalar plan in-process and times the plain federated scan
/// of its query, recording the latency and the answer's relative error.
/// The scan is `Federation::run_plain`, serial in this thread: on a
/// table this small the pooled scan is short enough that thread wake-up
/// jitter, not the scan, decides its spread.
pub fn answer_pairs<'a>(
    handle: &EngineHandle,
    fed: &Federation,
    plans: impl IntoIterator<Item = &'a QueryPlan>,
    plain: &mut Samples,
    rel: &mut Vec<f64>,
) -> Check<()> {
    for plan in plans {
        let QueryPlan::Scalar { query, .. } = plan else {
            continue;
        };
        let answer = handle.run_plan(plan).map_err(|e| e.to_string())?;
        check_answer(plan, &answer)?;
        let t = Instant::now();
        let exact = fed.run_plain(query).map_err(|e| e.to_string())?;
        plain.push(ms(t.elapsed()));
        rel.push(rel_error(
            answer.value().expect("scalar value"),
            exact.value,
        ));
    }
    Ok(())
}

/// |released − exact| ÷ exact.
pub fn rel_error(released: f64, exact: u64) -> f64 {
    (released - exact as f64).abs() / exact.max(1) as f64
}

/// The range sub-queries a plan compiles into, each with its budget —
/// the same split the engine makes. A VAR's second moment re-reads the
/// COUNT's release, so it is not replayed; extremes have none.
pub fn sub_queries(
    plan: &QueryPlan,
    cfg: &FederationConfig,
    schema: &Schema,
) -> Vec<(RangeQuery, QueryBudget)> {
    let hp = cfg.hyperparams;
    let split = |e: f64, d: f64| QueryBudget::split(e, d, hp).expect("valid budget");
    let derived = |q: &RangeQuery, st: DerivedStatistic, e: f64, d: f64| {
        let n = st.sub_queries() as f64;
        let b = split(e / n, d / n);
        [Aggregate::Count, Aggregate::Sum]
            .into_iter()
            .map(|agg| (RangeQuery::new(agg, q.ranges().to_vec()).expect("query"), b))
            .collect::<Vec<_>>()
    };
    match plan {
        QueryPlan::Scalar {
            query,
            epsilon,
            delta,
            ..
        } => vec![(query.clone(), split(*epsilon, *delta))],
        QueryPlan::Derived {
            query,
            statistic,
            epsilon,
            delta,
            ..
        } => derived(query, *statistic, *epsilon, *delta),
        QueryPlan::GroupBy {
            base,
            statistic,
            group_dim,
            epsilon,
            delta,
            ..
        } => {
            let keys: Vec<i64> = schema
                .dimension(*group_dim)
                .expect("group dim")
                .domain()
                .iter()
                .collect();
            let k = keys.len() as f64;
            keys.into_iter()
                .flat_map(|key| {
                    let mut ranges = base.ranges().to_vec();
                    ranges.push(Range::new(*group_dim, key, key).expect("group range"));
                    let q = RangeQuery::new(base.aggregate(), ranges).expect("group query");
                    match statistic {
                        Some(st) => derived(&q, *st, epsilon / k, delta / k),
                        None => vec![(q, split(epsilon / k, delta / k))],
                    }
                })
                .collect()
        }
        QueryPlan::Online { .. } | QueryPlan::Extreme { .. } => Vec::new(),
    }
}

/// Replays every stage of `plan` on `providers`, one span per call, and
/// returns the critical path in ns: per sub-query, the slowest provider
/// of each stage, summed over stages and sub-queries.
pub fn replay_plan(
    tr: &mut Tracer,
    providers: &[DataProvider],
    cfg: &FederationConfig,
    schema: &Schema,
    plan: &QueryPlan,
    rng: &mut StdRng,
) -> u64 {
    let aggregator = Aggregator::new(cfg.seed, CostModel::zero());
    let sr = plan.sampling_rate().unwrap_or(SAMPLING_RATE);
    let mut critical = 0u64;
    for (query, budget) in sub_queries(plan, cfg, schema) {
        tr.span("subquery", |tr| {
            let mut stage1 = vec![0u64; providers.len()];
            let preps: Vec<_> = providers
                .iter()
                .enumerate()
                .map(|(i, p)| {
                    let prep = tr.span("storage.covering", |_| p.prepare(&query));
                    stage1[i] += tr.last_ns();
                    tr.count("covering", prep.n_q() as f64);
                    tr.count("clusters", p.meta().n_clusters() as f64);
                    prep
                })
                .collect();
            let summaries: Vec<_> = providers
                .iter()
                .zip(&preps)
                .enumerate()
                .map(|(i, (p, prep))| {
                    let s = tr.span("dp.summary", |_| {
                        p.summary_with_rng(&query, prep, budget.eps_o, rng)
                    });
                    stage1[i] += tr.last_ns();
                    s.expect("summary")
                })
                .collect();
            critical += stage1.into_iter().max().unwrap_or(0);
            let alloc = tr
                .span("allocation.solve", |_| aggregator.allocate(&summaries, sr))
                .expect("allocation");
            critical += tr.last_ns();
            let mut slowest = 0u64;
            let outcomes: Vec<_> = providers
                .iter()
                .zip(&preps)
                .zip(&alloc)
                .map(|((p, prep), &a)| {
                    let out = tr.span("provider.execute", |_| {
                        p.execute_with_rng(&query, prep, a, &budget, true, rng)
                    });
                    slowest = slowest.max(tr.last_ns());
                    tr.count("provider_queries", 1.0);
                    if prep.n_q() < p.n_min() {
                        tr.count("exact_path", 1.0);
                    }
                    out.expect("execute")
                })
                .collect();
            critical += slowest;
            tr.span("aggregator.finalize", |_| {
                aggregator.finalize_local(&outcomes)
            })
            .expect("finalize");
            critical += tr.last_ns();
            tr.span("decompose", |tr| {
                for ((p, prep), &a) in providers.iter().zip(&preps).zip(&alloc) {
                    decompose_execute(tr, p, cfg, &query, prep, a, &budget, rng);
                }
            });
        });
    }
    tr.count("plans", 1.0);
    critical
}

/// The approximate path of `DataProvider::execute_with_rng`, one public
/// call per span, so EM, the cluster scan, Hansen–Hurwitz, smooth
/// sensitivity and the release are timed apart. The exact path scans the
/// covering clusters and releases with Laplace noise.
#[allow(clippy::too_many_arguments)]
fn decompose_execute(
    tr: &mut Tracer,
    p: &DataProvider,
    cfg: &FederationConfig,
    query: &RangeQuery,
    prep: &fedaqp_core::provider::PreparedQuery,
    allocation: u64,
    budget: &QueryBudget,
    rng: &mut StdRng,
) {
    let store = p.store();
    let n_q = prep.n_q();
    let scan = |tr: &mut Tracer, positions: &[usize]| {
        let clusters: Vec<_> = positions
            .iter()
            .map(|&pos| store.cluster(prep.covering[pos]).expect("covering id"))
            .collect();
        let values: Vec<u64> = tr.span("storage.scan", |_| {
            clusters.iter().map(|c| c.evaluate(query)).collect()
        });
        let matched: usize = tr.span("storage.match", |_| {
            clusters
                .iter()
                .map(|c| c.matching_rows(query.ranges()))
                .sum()
        });
        tr.count(
            "rows_scanned",
            clusters.iter().map(|c| c.len()).sum::<usize>() as f64,
        );
        tr.count("rows_matched", matched as f64);
        values
    };
    if n_q < p.n_min() {
        let all: Vec<usize> = (0..n_q).collect();
        let value: u64 = scan(tr, &all).into_iter().sum();
        let sensitivity = match query.aggregate() {
            Aggregate::Count => 1.0,
            Aggregate::Sum => cfg.sum_measure_cap as f64,
        };
        let scale = sensitivity / (budget.eps_s + budget.eps_e);
        let released = tr.span("dp.release", |_| value as f64 + laplace_noise(rng, scale));
        std::hint::black_box(released);
        return;
    }
    let s = (allocation.max(1) as usize).min(n_q);
    let sample = tr
        .span("sampling.em", |_| {
            em_sample(rng, &prep.proportions, s, budget.eps_s, delta_p(p.n_min()))
        })
        .expect("em sample");
    let mut distinct = sample.chosen.clone();
    distinct.sort_unstable();
    distinct.dedup();
    tr.count("draws", sample.chosen.len() as f64);
    tr.count("distinct", distinct.len() as f64);
    let values = scan(tr, &distinct);
    let value_of = |pos: usize| values[distinct.binary_search(&pos).expect("drawn")] as f64;
    let dr = delta_r_for(
        cfg.sensitivity_regime,
        p.meta().agreed_s(),
        store.schema().arity(),
        query.dimensionality(),
    );
    let p_floor = sample.min_draw_probability().expect("draw probabilities");
    let ctx = SensitivityContext::new(
        prep.sum_r,
        dr,
        p.meta().agreed_s(),
        p_floor,
        cfg.estimator_calibration,
    );
    let (draws, inputs): (Vec<_>, Vec<_>) = sample
        .chosen
        .iter()
        .map(|&pos| {
            let prob = ctx.divisor(sample.pps[pos], sample.em_probabilities[pos]);
            let q_c = value_of(pos);
            (
                HansenHurwitz {
                    value: q_c,
                    probability: prob,
                },
                ClusterSensitivityInput {
                    q_c,
                    r: prep.proportions[pos],
                    p: prob,
                },
            )
        })
        .unzip();
    let estimate = tr.span("sampling.hh", |_| {
        let estimate = hh_estimate(&draws).expect("estimate");
        std::hint::black_box(hh_variance(&draws, estimate));
        estimate
    });
    let smooth = SmoothSensitivity::new(budget.eps_e, budget.delta).expect("smooth");
    let ls = tr.span("sensitivity.smooth", |_| {
        smooth_estimator_sensitivity(&smooth, &inputs, &ctx)
    });
    let released = tr.span("dp.release", |_| smooth.release(rng, estimate, ls));
    std::hint::black_box(released);
}

/// Times the plain federated scan of `query` provider by provider.
pub fn plain_probe(tr: &mut Tracer, providers: &[DataProvider], query: &RangeQuery) -> u64 {
    let mut total = 0;
    for p in providers {
        total += tr.span("storage.plain", |_| p.store().evaluate_full(query));
        tr.count("plain_rows", p.store().total_rows() as f64);
    }
    total
}

/// Times Algorithm 1 metadata construction on every provider.
pub fn meta_probe(tr: &mut Tracer, providers: &[DataProvider]) {
    for p in providers {
        let meta = tr.span("storage.meta_build", |_| {
            ProviderMeta::build(p.store(), p.meta().agreed_s())
        });
        std::hint::black_box(meta);
        tr.count("meta_bytes", p.meta_space().total_bytes as f64);
        tr.count("meta_providers", 1.0);
    }
}

/// Times appends into a copy of provider 0's store and metadata.
pub fn append_probe(tr: &mut Tracer, provider: &DataProvider, rows: &[Row]) {
    let mut store = provider.store().clone();
    let mut meta = provider.meta().clone();
    let arity = store.schema().arity();
    tr.span("storage.append", |_| {
        for row in rows {
            let at = store.append_row(row.clone()).expect("schema-valid row");
            meta.append_row(at.cluster, at.new_cluster, row, arity);
        }
    });
    tr.count("append_rows", rows.len() as f64);
}

/// The analyst-visible reply frame of a plan answer.
fn reply_frame(answer: &PlanAnswer) -> Frame {
    let result = match &answer.result {
        PlanResult::Value {
            value,
            ci_halfwidth,
        } => WirePlanResult::Value {
            value: *value,
            ci_halfwidth: *ci_halfwidth,
        },
        PlanResult::Groups { groups, suppressed } => WirePlanResult::Groups {
            groups: groups
                .iter()
                .map(|g| WireGroup {
                    key: g.key,
                    value: g.value,
                    ci_halfwidth: g.ci_halfwidth,
                })
                .collect(),
            suppressed: *suppressed,
        },
        PlanResult::Extreme { value } => WirePlanResult::Extreme { value: *value },
        PlanResult::Snapshots { .. } => unreachable!("no online plans in the benchmark"),
    };
    let us = |d: Duration| d.as_micros() as u64;
    Frame::PlanAnswer(PlanAnswerFrame {
        index: 0,
        eps: answer.cost.eps,
        delta: answer.cost.delta,
        result,
        summary_us: us(answer.timings.summary),
        allocation_us: us(answer.timings.allocation),
        execution_us: us(answer.timings.execution),
        release_us: us(answer.timings.release),
        network_us: us(answer.timings.network),
    })
}

/// Encodes and decodes a plan's request and reply frames.
pub fn wire_plan_probe(tr: &mut Tracer, plan: &QueryPlan, answer: &PlanAnswer) -> Check<()> {
    let frames = [
        Frame::Plan(PlanRequest { plan: plan.clone() }),
        reply_frame(answer),
    ];
    let bytes: Vec<Vec<u8>> = tr.span("wire.encode", |_| {
        frames
            .iter()
            .map(|f| encode_frame(f).expect("encodable frame"))
            .collect()
    });
    let decoded: Vec<Frame> = tr.span("wire.decode", |_| {
        bytes
            .iter()
            .map(|b| read_frame(&mut b.as_slice()).expect("decodable frame"))
            .collect()
    });
    if decoded.as_slice() != frames.as_slice() {
        return Err(format!("wire round trip changed a frame of {plan:?}"));
    }
    tr.count(
        "wire_bytes",
        bytes.iter().map(Vec::len).sum::<usize>() as f64,
    );
    tr.count("wire_plans", 1.0);
    Ok(())
}

/// Encodes and decodes an ingest batch's frame.
pub fn wire_ingest_probe(tr: &mut Tracer, provider: u32, rows: &[Row]) {
    tr.span("wire.ingest", |_| {
        let frame = Frame::Ingest(IngestRequest {
            provider,
            rows: rows
                .iter()
                .map(|r| WireRow {
                    values: r.values().to_vec(),
                    measure: r.measure(),
                })
                .collect(),
        });
        let bytes = encode_frame(&frame).expect("encodable ingest");
        read_frame(&mut bytes.as_slice()).expect("decodable ingest")
    });
    tr.count("wire_ingest_rows", rows.len() as f64);
}

/// Ingest results: rows acknowledged over summed ack time.
#[derive(Debug, Default)]
pub struct IngestStats {
    pub batches: u64,
    pub failed: u64,
    pub rows: u64,
    pub busy: Duration,
    pub refreshes: u64,
}

impl IngestStats {
    pub fn rows_per_s(&self) -> f64 {
        self.rows as f64 / self.busy.as_secs_f64().max(1e-9)
    }

    /// Sends one batch and checks the acknowledgement.
    pub fn send(
        &mut self,
        conn: &mut RemoteFederation,
        provider: u32,
        rows: &[Row],
        tr: Option<&mut Tracer>,
    ) -> Check<bool> {
        self.batches += 1;
        let t = Instant::now();
        let ack = match tr {
            Some(tr) => tr.span("stream.remote_ingest", |_| conn.ingest(provider, rows)),
            None => conn.ingest(provider, rows),
        };
        self.busy += t.elapsed();
        match ack {
            Ok(ack) if ack.accepted == rows.len() as u64 => {
                self.rows += ack.accepted;
                self.refreshes += u64::from(ack.refreshed);
                Ok(ack.refreshed)
            }
            Ok(ack) => Err(format!(
                "ingest accepted {} of {} rows",
                ack.accepted,
                rows.len()
            )),
            Err(e) => {
                eprintln!("ingest failed: {e}");
                self.failed += 1;
                Ok(false)
            }
        }
    }
}

/// Staleness policy pinned on rows so refreshes fire at fixed points.
pub fn row_policy(max_stale_rows: usize) -> RefreshPolicy {
    RefreshPolicy {
        max_stale_rows,
        max_stale_age: Duration::MAX,
    }
}

/// The wire-ingest phase of the workloads without a live server: `fed`
/// goes live behind a loopback server and takes the stream's batches over
/// the wire, with one refresh half-way. A traced run first ingests a few
/// batches in-process and refreshes once, so the remote acknowledgement
/// can be compared with the in-process append.
pub struct IngestPhase {
    server: LoopbackServer,
    conn: RemoteFederation,
    stats: IngestStats,
}

impl IngestPhase {
    pub fn start(
        fed: Federation,
        batches: &[(u32, &[Row])],
        tr: Option<&mut Tracer>,
    ) -> Check<IngestPhase> {
        let mut fed = fed;
        if let Some(tr) = tr {
            let mut live = LiveFederation::new(fed, row_policy(usize::MAX));
            let probe = &batches[..batches.len().min(4)];
            append_probe(tr, &live.federation().providers()[0], probe[0].1);
            for &(p, rows) in probe {
                let report = tr.span("stream.ingest", |_| live.ingest(p as usize, rows.to_vec()));
                tr.count("stream_rows", rows.len() as f64);
                if report.map_err(|e| e.to_string())?.accepted != rows.len() as u64 {
                    return Err("in-process ingest dropped rows".into());
                }
            }
            tr.span("stream.refresh", |_| live.refresh());
            fed = live.into_inner();
        }
        let half = batches.iter().map(|(_, r)| r.len()).sum::<usize>() / 2;
        let server = LoopbackServer::live(
            LiveFederation::new(fed, row_policy(half)),
            ServeOptions::unlimited(),
        )
        .map_err(|e| format!("bind live server: {e}"))?;
        let conn = RemoteFederation::connect_as(server.addr(), "ingest")
            .map_err(|e| format!("connect: {e}"))?;
        Ok(IngestPhase {
            server,
            conn,
            stats: IngestStats::default(),
        })
    }

    pub fn send(&mut self, batches: &[(u32, &[Row])], mut tr: Option<&mut Tracer>) -> Check<()> {
        for &(p, rows) in batches {
            if let Some(tr) = tr.as_deref_mut() {
                wire_ingest_probe(tr, p, rows);
                tr.count("remote_rows", rows.len() as f64);
            }
            self.stats
                .send(&mut self.conn, p, rows, tr.as_deref_mut())?;
        }
        Ok(())
    }

    pub fn finish(self) -> IngestStats {
        drop(self.conn);
        self.server.shutdown();
        self.stats
    }
}

/// Times `reps - 1` more set-ups (each torn down again) after the
/// measured one, unless the run is traced.
pub fn more_setups(
    args: &Args,
    setup: &mut Vec<f64>,
    mut once: impl FnMut() -> Check<f64>,
) -> Check<()> {
    if !args.trace {
        for _ in 1..SETUP_REPS {
            setup.push(once()?);
        }
    }
    Ok(())
}

/// Shares of the inputs that later optimizations depend on, computed
/// from public metadata outside any timed region.
pub fn properties(
    report: &mut Report,
    handle: &EngineHandle,
    providers: &[DataProvider],
    cfg: &FederationConfig,
    plans: &[QueryPlan],
) {
    let (mut em, mut exact, mut empty, mut covering, mut clusters) = (0u64, 0u64, 0u64, 0u64, 0u64);
    let (mut pruned, mut slots, mut subs) = (0u64, 0u64, 0u64);
    for plan in plans {
        let explanation = handle.explain_plan(plan).expect("explainable plan");
        pruned += explanation.pruned_total();
        subs += explanation.sub_queries.len() as u64;
        slots += explanation.sub_queries.len() as u64 * providers.len() as u64;
        for (query, _) in sub_queries(plan, cfg, handle.schema()) {
            for p in providers {
                let n_q = p.prepare(&query).n_q();
                covering += n_q as u64;
                clusters += p.meta().n_clusters() as u64;
                match n_q {
                    0 => empty += 1,
                    n if n < p.n_min() => exact += 1,
                    _ => em += 1,
                }
            }
        }
    }
    let frac = |a: u64, b: u64| a as f64 / b.max(1) as f64;
    let queried = em + exact + empty;
    report.note(format!(
        "property: plans={} em_path_frac={:.4} exact_path_frac={:.4} empty_frac={:.4} covering_frac={:.4} pruned_slot_frac={:.4} subqueries_per_plan={:.3}",
        plans.len(),
        frac(em, queried),
        frac(exact, queried),
        frac(empty, queried),
        frac(covering, clusters),
        frac(pruned, slots),
        frac(subs, plans.len() as u64),
    ));
}

/// Per-layer metrics from a merged trace. Layers the workload does not
/// run read 0.
pub fn layer_metrics(report: &mut Report, tr: &Tracer) {
    let by_name = self_time_by_name(tr.spans());
    let ns = |name: &str| by_name.get(name).map_or(0.0, |&(ns, _)| ns as f64);
    let calls = |name: &str| by_name.get(name).map_or(0.0, |&(_, n)| n as f64);
    let per = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let c = |name: &str| tr.counter(name);
    let plans = c("plans");
    let us_per_call = |name: &str| per(ns(name), calls(name)) / 1e3;
    let rows = c("rows_scanned");
    let stream_ns_row = per(ns("stream.ingest"), c("stream_rows"));
    let metrics: Vec<(&'static str, f64, &'static str)> = vec![
        ("storage.covering_us", us_per_call("storage.covering"), "us"),
        (
            "storage.covering_frac",
            per(c("covering"), c("clusters")),
            "ratio",
        ),
        (
            "storage.scan_ns_per_row",
            per(ns("storage.scan"), rows),
            "ns/row",
        ),
        ("storage.rows_scanned_per_plan", per(rows, plans), "rows"),
        ("storage.match_frac", per(c("rows_matched"), rows), "ratio"),
        (
            "storage.plain_ns_per_row",
            per(ns("storage.plain"), c("plain_rows")),
            "ns/row",
        ),
        (
            "storage.append_ns_per_row",
            per(ns("storage.append"), c("append_rows")),
            "ns/row",
        ),
        (
            "storage.meta_build_ms",
            us_per_call("storage.meta_build") / 1e3,
            "ms",
        ),
        (
            "storage.meta_bytes",
            per(c("meta_bytes"), c("meta_providers")),
            "bytes",
        ),
        ("sampling.em_us", us_per_call("sampling.em"), "us"),
        ("sampling.draws_per_plan", per(c("draws"), plans), "count"),
        (
            "sampling.distinct_frac",
            per(c("distinct"), c("draws")),
            "ratio",
        ),
        ("sampling.hh_us", us_per_call("sampling.hh"), "us"),
        ("provider.execute_us", us_per_call("provider.execute"), "us"),
        (
            "provider.exact_path_frac",
            per(c("exact_path"), c("provider_queries")),
            "ratio",
        ),
        ("dp.summary_us", us_per_call("dp.summary"), "us"),
        ("dp.release_us", us_per_call("dp.release"), "us"),
        (
            "sensitivity.smooth_us",
            us_per_call("sensitivity.smooth"),
            "us",
        ),
        ("allocation.solve_us", us_per_call("allocation.solve"), "us"),
        (
            "aggregator.finalize_us",
            us_per_call("aggregator.finalize"),
            "us",
        ),
        (
            "optimizer.explain_us",
            us_per_call("optimizer.explain"),
            "us",
        ),
        (
            "optimizer.pruned_frac",
            per(c("pruned_slots"), c("slots")),
            "ratio",
        ),
        (
            "plan.subqueries_per_plan",
            per(c("subqueries"), c("explained")),
            "count",
        ),
        (
            "engine.dispatch_us",
            per(c("dispatch_ns"), c("dispatch_plans")) / 1e3,
            "us",
        ),
        (
            "shard.scatter_gather_us",
            per(c("scatter_ns"), c("scatter_plans")) / 1e3,
            "us",
        ),
        (
            "wire.encode_us",
            per(ns("wire.encode"), c("wire_plans")) / 1e3,
            "us",
        ),
        (
            "wire.decode_us",
            per(ns("wire.decode"), c("wire_plans")) / 1e3,
            "us",
        ),
        (
            "wire.bytes_per_plan",
            per(c("wire_bytes"), c("wire_plans")),
            "bytes",
        ),
        (
            "wire.ingest_ns_per_row",
            per(ns("wire.ingest"), c("wire_ingest_rows")),
            "ns/row",
        ),
        (
            "server.overhead_us",
            per(c("server_ns"), c("server_plans")) / 1e3,
            "us",
        ),
        ("stream.ingest_ns_per_row", stream_ns_row, "ns/row"),
        (
            "stream.ack_overhead_ns_per_row",
            per(ns("stream.remote_ingest"), c("remote_rows")) - stream_ns_row,
            "ns/row",
        ),
        (
            "stream.refresh_ms",
            us_per_call("stream.refresh") / 1e3,
            "ms",
        ),
        ("stream.refreshes", c("refreshes"), "count"),
    ];
    for (name, value, unit) in metrics {
        report.metric(name, value, unit);
    }
}

/// Explains `plan` inside a span and counts the optimizer's decisions.
pub fn explain_probe(tr: &mut Tracer, handle: &EngineHandle, plan: &QueryPlan) {
    let explanation = tr
        .span("optimizer.explain", |_| handle.explain_plan(plan))
        .expect("explainable plan");
    let subs = explanation.sub_queries.len() as f64;
    tr.count("subqueries", subs);
    tr.count("explained", 1.0);
    tr.count("pruned_slots", explanation.pruned_total() as f64);
    tr.count("slots", subs * explanation.n_providers as f64);
}
