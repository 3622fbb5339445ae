//! The remote-analyst client: an [`EngineHandle`]-shaped API over TCP.
//!
//! [`RemoteFederation`] mirrors the engine's submit/wait surface
//! ([`RemoteFederation::submit`] → [`PendingRemote::wait`], plus
//! [`RemoteFederation::run_batch`]), so analyst code written against a
//! local [`fedaqp_core::EngineHandle`] ports to a remote endpoint by
//! swapping the handle for a connection. The client is blocking and owns
//! one socket; queries pipelined on one connection are answered strictly
//! in submission order, which is what makes the wait side trivially
//! correlatable without request ids.
//!
//! [`EngineHandle`]: fedaqp_core::EngineHandle

use std::net::TcpStream;
use std::time::Duration;

use fedaqp_core::{
    EstimatorCalibration, PhaseTimings, PlanAnswer, PlanExplanation, PlanGroup, PlanResult,
    PlanSnapshot, QueryBatch, QueryPlan,
};
use fedaqp_dp::PrivacyCost;
use fedaqp_model::{Dimension, Domain, RangeQuery, Row, Schema};

use crate::wire::{
    calibration_from_code, read_frame, write_frame_at, Answer, BatchRequest, BudgetStatus,
    ErrorCode, ExplainRequest, Frame, Hello, IngestAckFrame, IngestRequest, OnlinePlanRequest,
    PlanAnswerFrame, PlanRequest, QueryRequest, WireMetric, WirePlanResult, WireRow, VERSION,
};
use crate::{NetError, Result};

/// The answer to one remote query — the released projection of
/// [`fedaqp_core::EngineAnswer`] (no raw estimates, no sensitivities).
#[derive(Debug, Clone)]
pub struct RemoteAnswer {
    /// The DP-released answer.
    pub value: f64,
    /// The `(ε, δ)` charged for this query.
    pub cost: PrivacyCost,
    /// Per-phase latency breakdown as measured at the server (network is
    /// the *simulated* WAN component, not this socket's transit).
    pub timings: PhaseTimings,
    /// Total clusters scanned across providers.
    pub clusters_scanned: usize,
    /// Total covering-set size across providers.
    pub covering_total: usize,
    /// How many providers took the approximate path.
    pub approximated_providers: usize,
    /// The per-provider sample-size allocations.
    pub allocations: Vec<u64>,
    /// 95% sampling confidence half-width, when estimable.
    pub ci_halfwidth: Option<f64>,
}

impl RemoteAnswer {
    fn from_wire(answer: Answer) -> Self {
        Self {
            value: answer.value,
            cost: PrivacyCost {
                eps: answer.eps,
                delta: answer.delta,
            },
            timings: PhaseTimings {
                summary: Duration::from_micros(answer.summary_us),
                allocation: Duration::from_micros(answer.allocation_us),
                execution: Duration::from_micros(answer.execution_us),
                release: Duration::from_micros(answer.release_us),
                network: Duration::from_micros(answer.network_us),
            },
            clusters_scanned: answer.clusters_scanned as usize,
            covering_total: answer.covering_total as usize,
            approximated_providers: answer.approximated_providers as usize,
            allocations: answer.allocations,
            ci_halfwidth: answer.ci_halfwidth,
        }
    }
}

/// A blocking connection to a [`crate::FederationServer`].
#[derive(Debug)]
pub struct RemoteFederation {
    stream: TcpStream,
    schema: Schema,
    n_providers: usize,
    epsilon: f64,
    delta: f64,
    calibration: EstimatorCalibration,
    session_budget: Option<(f64, f64)>,
    /// The protocol version negotiated at the handshake:
    /// `min(`[`VERSION`]`, server's advertised maximum)`. Plan submission
    /// needs ≥ 2.
    version: u16,
    /// Replies the server still owes for submitted-but-unwaited queries.
    /// Every new request first drains these, so dropping a
    /// [`PendingRemote`] without waiting can never desynchronize the
    /// stream (the next reply would otherwise be attributed to the wrong
    /// query).
    outstanding: usize,
}

/// Any per-request reply frame the server can owe.
enum Reply {
    Answer(Answer),
    Plan(PlanAnswerFrame),
    Explain(PlanExplanation),
}

fn plan_answer_from_wire(frame: PlanAnswerFrame) -> PlanAnswer {
    let result = match frame.result {
        WirePlanResult::Value {
            value,
            ci_halfwidth,
        } => PlanResult::Value {
            value,
            ci_halfwidth,
        },
        WirePlanResult::Groups { groups, suppressed } => PlanResult::Groups {
            groups: groups
                .into_iter()
                .map(|g| PlanGroup {
                    key: g.key,
                    value: g.value,
                    ci_halfwidth: g.ci_halfwidth,
                })
                .collect(),
            suppressed,
        },
        WirePlanResult::Extreme { value } => PlanResult::Extreme { value },
    };
    PlanAnswer {
        result,
        cost: PrivacyCost {
            eps: frame.eps,
            delta: frame.delta,
        },
        timings: PhaseTimings {
            summary: Duration::from_micros(frame.summary_us),
            allocation: Duration::from_micros(frame.allocation_us),
            execution: Duration::from_micros(frame.execution_us),
            release: Duration::from_micros(frame.release_us),
            network: Duration::from_micros(frame.network_us),
        },
    }
}

impl RemoteFederation {
    /// Connects anonymously (all anonymous connections share one budget
    /// ledger on a budget-capped server — declare an identity with
    /// [`Self::connect_as`] to get your own).
    pub fn connect(addr: &str) -> Result<Self> {
        Self::connect_as(addr, "anonymous")
    }

    /// Connects and declares an analyst identity (the server's budget
    /// ledger key).
    ///
    /// The Hello frame is stamped with this build's [`VERSION`]; the
    /// connection then speaks `min(VERSION, server maximum)` as
    /// advertised in the handshake reply. A *future* server that cannot
    /// speak our version answers with a typed negotiation error, surfaced
    /// as [`NetError::UnsupportedVersion`] carrying both versions.
    ///
    /// Compatibility is asymmetric by design: a v1 client works against a
    /// v2 server verbatim (the server answers at the client's version),
    /// but a server built *before* the negotiation mechanism existed
    /// rejects a v2-stamped Hello outright with a generic `bad-request`
    /// error — it cannot advertise a maximum it does not know about.
    pub fn connect_as(addr: &str, analyst: &str) -> Result<Self> {
        let mut stream = TcpStream::connect(addr).map_err(|e| NetError::Connect {
            addr: addr.to_owned(),
            message: e.to_string(),
        })?;
        stream.set_nodelay(true).ok();
        write_frame_at(
            &mut stream,
            &Frame::Hello(Hello {
                analyst: analyst.to_owned(),
            }),
            VERSION,
        )?;
        let ack = match read_frame(&mut stream)? {
            Frame::HelloAck(ack) => ack,
            Frame::Error(e) if e.code == ErrorCode::UnsupportedVersion => {
                // The error frame's index carries the server's maximum
                // version (see the wire-module docs).
                return Err(NetError::UnsupportedVersion {
                    requested: VERSION,
                    supported: e.index as u16,
                });
            }
            Frame::Error(e) => {
                return Err(NetError::Remote {
                    code: e.code,
                    message: e.message,
                })
            }
            _ => return Err(NetError::Handshake("expected HelloAck")),
        };
        let dimensions: Vec<Dimension> = ack
            .dimensions
            .iter()
            .map(|d| {
                Domain::new(d.min, d.max)
                    .map(|domain| Dimension::new(d.name.clone(), domain))
                    .map_err(|_| NetError::Malformed("inverted schema domain"))
            })
            .collect::<Result<_>>()?;
        let schema = Schema::new(dimensions).map_err(|_| NetError::Malformed("invalid schema"))?;
        Ok(Self {
            stream,
            schema,
            n_providers: ack.n_providers as usize,
            epsilon: ack.epsilon,
            delta: ack.delta,
            calibration: calibration_from_code(ack.calibration)?,
            session_budget: ack.session_budget,
            version: VERSION.min(ack.max_version),
            outstanding: 0,
        })
    }

    /// The wire-protocol version this connection negotiated.
    pub fn protocol_version(&self) -> u16 {
        self.version
    }

    /// The served federation's public table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of data providers behind the served federation.
    pub fn n_providers(&self) -> usize {
        self.n_providers
    }

    /// The server's default per-query ε.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The server's default per-query δ.
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// The server's Hansen–Hurwitz calibration.
    pub fn calibration(&self) -> EstimatorCalibration {
        self.calibration
    }

    /// The per-analyst session budget `(ξ, ψ)` the server enforces, if
    /// any.
    pub fn session_budget(&self) -> Option<(f64, f64)> {
        self.session_budget
    }

    /// Reads and discards replies for requests whose pending handle was
    /// dropped without a wait, so the next reply read belongs to the next
    /// request. Answers drained this way are lost (their budget, if any,
    /// was spent server-side when the request was submitted).
    fn drain_outstanding(&mut self) -> Result<()> {
        while self.outstanding > 0 {
            self.outstanding -= 1;
            // A typed per-request Error frame is a valid (discarded)
            // reply; only connection-level failures propagate.
            match self.read_reply_any() {
                Ok(_) | Err(NetError::Remote { .. }) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Sends one request at the negotiated version, after draining the
    /// replies still owed. A frame kind newer than the connection fails
    /// with [`NetError::UnsupportedVersion`] carrying both versions,
    /// before anything is written.
    fn send(&mut self, frame: &Frame) -> Result<()> {
        let needed = frame.min_version();
        if self.version < needed {
            return Err(NetError::UnsupportedVersion {
                requested: needed,
                supported: self.version,
            });
        }
        self.drain_outstanding()?;
        write_frame_at(&mut self.stream, frame, self.version)
    }

    /// Sends one query without waiting for its answer — the remote mirror
    /// of `EngineHandle::submit`. Pipelining is allowed: waits resolve in
    /// submission order, and the reply of a pending query that is dropped
    /// un-waited is discarded on the next request.
    pub fn submit(&mut self, query: &RangeQuery, sampling_rate: f64) -> Result<PendingRemote<'_>> {
        self.send(&Frame::Query(QueryRequest {
            query: query.clone(),
            sampling_rate,
        }))?;
        self.outstanding += 1;
        Ok(PendingRemote { conn: self })
    }

    /// Answers one private query (submit + wait).
    pub fn query(&mut self, query: &RangeQuery, sampling_rate: f64) -> Result<RemoteAnswer> {
        self.submit(query, sampling_rate)?.wait()
    }

    /// Sends one [`QueryPlan`] without waiting for its answer — the
    /// remote mirror of `EngineHandle::submit_plan`. The server charges
    /// the plan's whole `(ε, δ)` atomically (validate-before-charge) and
    /// fans its sub-queries out across the engine worker pool.
    ///
    /// Needs a v2 connection; against an older server this fails with
    /// [`NetError::UnsupportedVersion`] carrying both versions.
    pub fn submit_plan(&mut self, plan: &QueryPlan) -> Result<PendingRemotePlan<'_>> {
        self.send(&Frame::Plan(PlanRequest { plan: plan.clone() }))?;
        self.outstanding += 1;
        Ok(PendingRemotePlan { conn: self })
    }

    /// Answers one plan (submit + wait).
    pub fn run_plan(&mut self, plan: &QueryPlan) -> Result<PlanAnswer> {
        self.submit_plan(plan)?.wait()
    }

    /// Asks the server what its optimizer would decide about `plan`
    /// without running it — the remote mirror of
    /// `EngineHandle::explain_plan`. Nothing executes and no budget is
    /// charged, on either side.
    ///
    /// Needs a v3 connection; against an older server this fails with
    /// [`NetError::UnsupportedVersion`] carrying both versions.
    pub fn explain_plan(&mut self, plan: &QueryPlan) -> Result<PlanExplanation> {
        self.send(&Frame::Explain(ExplainRequest { plan: plan.clone() }))?;
        match self.read_reply_any()? {
            Reply::Explain(explanation) => Ok(explanation),
            _ => Err(NetError::Malformed("expected ExplainAnswer")),
        }
    }

    /// Sends a whole batch in one frame and collects the per-query
    /// results in submission order. The outer error is connection-level;
    /// inner errors are per-query (e.g. a typed budget rejection).
    pub fn run_batch(&mut self, batch: &QueryBatch) -> Result<Vec<Result<RemoteAnswer>>> {
        let specs: Vec<QueryRequest> = batch
            .specs()
            .iter()
            .map(|spec| QueryRequest {
                query: spec.query.clone(),
                sampling_rate: spec.sampling_rate,
            })
            .collect();
        self.send(&Frame::Batch(BatchRequest { specs }))?;
        let mut results = Vec::with_capacity(batch.len());
        for _ in 0..batch.len() {
            match self.read_reply() {
                Ok(answer) => results.push(Ok(answer)),
                // A typed per-query rejection: record it and keep reading.
                Err(e @ NetError::Remote { .. }) => results.push(Err(e)),
                // A connection-level failure: the remaining replies can
                // never arrive.
                Err(e) => return Err(e),
            }
        }
        Ok(results)
    }

    /// Asks the server for this analyst's session ledger.
    pub fn budget_status(&mut self) -> Result<BudgetStatus> {
        self.send(&Frame::BudgetRequest)?;
        match read_frame(&mut self.stream)? {
            Frame::BudgetStatus(status) => Ok(status),
            Frame::Error(e) => Err(NetError::Remote {
                code: e.code,
                message: e.message,
            }),
            _ => Err(NetError::Malformed("expected BudgetStatus")),
        }
    }

    /// Fetches the server's telemetry snapshot: flat `(name, value)`
    /// samples from its metrics registry — counters, gauges, and expanded
    /// histogram aggregates, all public-data-only by the `fedaqp-obs`
    /// provenance boundary.
    ///
    /// Needs a v5 connection; against an older server this fails with
    /// [`NetError::UnsupportedVersion`] carrying both versions.
    pub fn metrics(&mut self) -> Result<Vec<WireMetric>> {
        self.send(&Frame::Metrics)?;
        match read_frame(&mut self.stream)? {
            Frame::MetricsAnswer(answer) => Ok(answer.metrics),
            Frame::Error(e) => Err(NetError::Remote {
                code: e.code,
                message: e.message,
            }),
            _ => Err(NetError::Malformed("expected MetricsAnswer")),
        }
    }

    /// Runs one online-aggregation plan, invoking `on_snapshot` with every
    /// server-pushed progressive release *as it arrives* — the remote
    /// mirror of `PendingPlan::wait_streaming` over an engine. The server
    /// validates and atomically charges the plan's whole `(ε, δ)` before
    /// the first round dispatches, then pushes one snapshot frame per
    /// round and closes the conversation with an `OnlineDone`.
    ///
    /// The returned [`PlanAnswer`] carries [`PlanResult::Snapshots`] —
    /// the snapshots handed to the hook, in round order — so on a frozen
    /// federation it compares byte-identical against the same plan run
    /// through a local engine.
    ///
    /// Needs a v6 connection; against an older server this fails with
    /// [`NetError::UnsupportedVersion`] carrying both versions.
    pub fn run_online_plan(
        &mut self,
        query: &RangeQuery,
        sampling_rate: f64,
        epsilon: f64,
        delta: f64,
        rounds: u32,
        mut on_snapshot: impl FnMut(&PlanSnapshot),
    ) -> Result<PlanAnswer> {
        self.send(&Frame::OnlinePlan(OnlinePlanRequest {
            query: query.clone(),
            sampling_rate,
            epsilon,
            delta,
            rounds,
        }))?;
        let mut snapshots = Vec::new();
        loop {
            match read_frame(&mut self.stream)? {
                Frame::OnlineSnapshot(frame) => {
                    let snapshot = PlanSnapshot {
                        round: frame.round as u64,
                        rounds: frame.rounds as u64,
                        sample_fraction: frame.sample_fraction,
                        value: frame.value,
                        ci_halfwidth: frame.ci_halfwidth,
                        clusters_scanned: frame.clusters_scanned,
                    };
                    on_snapshot(&snapshot);
                    snapshots.push(snapshot);
                }
                Frame::OnlineDone(done) => {
                    return Ok(PlanAnswer {
                        result: PlanResult::Snapshots { snapshots },
                        cost: PrivacyCost {
                            eps: done.eps,
                            delta: done.delta,
                        },
                        timings: PhaseTimings {
                            summary: Duration::from_micros(done.summary_us),
                            allocation: Duration::from_micros(done.allocation_us),
                            execution: Duration::from_micros(done.execution_us),
                            release: Duration::from_micros(done.release_us),
                            network: Duration::from_micros(done.network_us),
                        },
                    });
                }
                // A typed error closes the conversation — mid-stream it
                // means an engine failure after the (kept, fail-closed)
                // charge; before any snapshot it is an ordinary rejection.
                Frame::Error(e) => {
                    return Err(NetError::Remote {
                        code: e.code,
                        message: e.message,
                    })
                }
                _ => return Err(NetError::Malformed("expected OnlineSnapshot or OnlineDone")),
            }
        }
    }

    /// Feeds a batch of rows to a live server's provider `provider` —
    /// accepted atomically (all rows or none), acknowledged with the
    /// federation's new epoch and whether the batch triggered a full
    /// metadata recompute. Non-live servers refuse with a typed error.
    ///
    /// Needs a v6 connection; against an older server this fails with
    /// [`NetError::UnsupportedVersion`] carrying both versions.
    pub fn ingest(&mut self, provider: u32, rows: &[Row]) -> Result<IngestAckFrame> {
        self.send(&Frame::Ingest(IngestRequest {
            provider,
            rows: rows
                .iter()
                .map(|r| WireRow {
                    values: r.values().to_vec(),
                    measure: r.measure(),
                })
                .collect(),
        }))?;
        match read_frame(&mut self.stream)? {
            Frame::IngestAck(ack) => Ok(ack),
            Frame::Error(e) => Err(NetError::Remote {
                code: e.code,
                message: e.message,
            }),
            _ => Err(NetError::Malformed("expected IngestAck")),
        }
    }

    /// Reads whatever per-request reply the server owes next.
    fn read_reply_any(&mut self) -> Result<Reply> {
        match read_frame(&mut self.stream)? {
            Frame::Answer(answer) => Ok(Reply::Answer(answer)),
            Frame::PlanAnswer(answer) => Ok(Reply::Plan(answer)),
            Frame::ExplainAnswer(answer) => Ok(Reply::Explain(answer.explanation)),
            Frame::Error(e) => Err(NetError::Remote {
                code: e.code,
                message: e.message,
            }),
            _ => Err(NetError::Malformed("expected Answer or Error")),
        }
    }

    fn read_reply(&mut self) -> Result<RemoteAnswer> {
        match self.read_reply_any()? {
            Reply::Answer(answer) => Ok(RemoteAnswer::from_wire(answer)),
            _ => Err(NetError::Malformed("expected Answer, got another reply")),
        }
    }

    fn read_plan_reply(&mut self) -> Result<PlanAnswer> {
        match self.read_reply_any()? {
            Reply::Plan(answer) => Ok(plan_answer_from_wire(answer)),
            _ => Err(NetError::Malformed(
                "expected PlanAnswer, got another reply",
            )),
        }
    }
}

/// A query in flight on the remote connection — the network mirror of
/// [`fedaqp_core::PendingAnswer`].
#[derive(Debug)]
pub struct PendingRemote<'a> {
    conn: &'a mut RemoteFederation,
}

impl PendingRemote<'_> {
    /// Blocks until the server's reply for this query arrives.
    pub fn wait(self) -> Result<RemoteAnswer> {
        self.conn.outstanding -= 1;
        self.conn.read_reply()
    }
}

/// A plan in flight on the remote connection — the network mirror of
/// [`fedaqp_core::PendingPlan`].
#[derive(Debug)]
pub struct PendingRemotePlan<'a> {
    conn: &'a mut RemoteFederation,
}

impl PendingRemotePlan<'_> {
    /// Blocks until the server's reply for this plan arrives.
    pub fn wait(self) -> Result<PlanAnswer> {
        self.conn.outstanding -= 1;
        self.conn.read_plan_reply()
    }
}
