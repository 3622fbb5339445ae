//! The TCP federation server: the engine's network face, in one of four
//! roles.
//!
//! **Analyst server over an engine** ([`FederationServer::bind`]) wraps
//! an [`EngineHandle`] — the analyst-facing handle of the concurrent
//! worker pool — and serves it over real sockets, thread-per-connection:
//! the accept loop runs on one background thread and every connection
//! gets its own, so N remote analysts drive the engine exactly like N
//! in-process analyst threads do. All protocol state (budget ledgers,
//! in-flight jobs) lives in thread-safe structures the engine already
//! provides; the server adds no locking of its own beyond the listener.
//!
//! **Analyst server over a coordinator**
//! ([`FederationServer::bind_coordinator`]) serves the identical analyst
//! protocol from a [`ShardedFederation`] that scatters each sub-query to
//! downstream shard servers. Analysts cannot tell the difference — same
//! frames, same typed errors, and (by the coordinator's determinism
//! contract) byte-identical answers to the 1-shard deployment.
//!
//! **Live server** ([`FederationServer::bind_live`]) serves the same
//! analyst protocol from a [`LiveFederation`] behind one reader–writer
//! lock, plus the wire-v6 live surface: `Ingest` frames append rows to a
//! provider under the write lock (answered with an `IngestAck` carrying
//! the accepted count, the new epoch, and whether the staleness policy
//! triggered a metadata refresh), and `OnlinePlan` frames stream each
//! round's [`PlanSnapshot`] back as a server-push `OnlineSnapshot` frame
//! the moment it resolves, closed by `OnlineDone`. Queries hold the read
//! lock for their whole lifetime, so every answer conditions on exactly
//! one epoch. The frozen modes refuse `Ingest` with a typed error, and
//! pre-v6 clients get a typed bad-request before any charge.
//!
//! **Shard server** ([`FederationServer::bind_shard`]) serves only the
//! v4 fragment frames to an upstream coordinator — one fragment at a
//! time per connection, fragment after fragment on connections the
//! coordinator keeps and reuses — with *no* budget directory: fragments
//! arrive already charged at the coordinator, the single ξ authority (see
//! `docs/privacy-model.md`). The two analyst modes symmetrically refuse
//! fragment frames — serving a fragment to an arbitrary analyst would
//! bypass the budget ledger and hand out occurrence-differencing oracles.
//!
//! Budget enforcement: with [`ServeOptions::with_budget`], every
//! connection is wrapped in a [`ConcurrentSession`] whose ledger comes
//! from a [`BudgetDirectory`] keyed by the analyst identity declared in
//! the `Hello` frame. Reconnecting or opening parallel connections can
//! therefore never reset or multiply an analyst's `(ξ, ψ)` — racing
//! charges hit one atomic [`fedaqp_dp::SharedAccountant`]. An exhausted
//! budget surfaces as a typed [`ErrorCode::BudgetExhausted`] error
//! frame; the connection stays open. A whole [`QueryPlan`] is validated
//! and charged atomically up front the same way.
//!
//! What never crosses the wire: providers' raw (pre-noise) estimates and
//! smooth sensitivities. Those fields exist on [`EngineAnswer`] as
//! simulation-boundary diagnostics; the answer projection deliberately
//! drops them so a remote analyst sees only DP-released values. Transport
//! security (TLS, authn) is out of scope — see the README threat model.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::thread::JoinHandle;

use fedaqp_core::{
    ConcurrentSession, CoreError, EngineAnswer, EngineHandle, FederationConfig, LiveFederation,
    PendingAnswer, PendingFragment, PendingPlan, PlanAnswer, PlanExplanation, PlanResult,
    PlanSnapshot, QueryPlan, SessionPlan, ShardedAnswer, ShardedFederation, ShardedPendingAnswer,
    ShardedSession,
};
use fedaqp_dp::{BudgetDirectory, DpError, PrivacyCost, QueryBudget, SharedAccountant};
use fedaqp_model::{Row, Schema};
use fedaqp_obs as obs;

use crate::wire::{
    calibration_code, read_frame_versioned, write_frame_at, Answer, BudgetStatus, ErrorCode,
    ErrorFrame, ExplainAnswerFrame, ExtremePartialFrame, FragmentPartialFrame,
    FragmentSummariesFrame, Frame, HelloAck, IngestAckFrame, MetricsAnswerFrame, OnlineDoneFrame,
    OnlinePlanRequest, OnlineSnapshotFrame, PlanAnswerFrame, QueryRequest, ShardBoundsFrame,
    WireDimension, WireGroup, WireMetric, WirePartialRow, WirePlanResult, WireProviderBounds,
    WireSummary, VERSION,
};
use crate::{NetError, Result};

/// Longest error message shipped in an [`ErrorFrame`].
const MAX_ERROR_MESSAGE: usize = 1024;

/// How a server treats its analysts' budgets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeOptions {
    /// Per-analyst session budget `(ξ, ψ)`; `None` serves without a
    /// session cap (each query still pays its own `(ε, δ)`).
    pub per_analyst: Option<(f64, f64)>,
}

impl ServeOptions {
    /// No session cap: any analyst may keep querying.
    pub fn unlimited() -> Self {
        Self { per_analyst: None }
    }

    /// Every analyst is granted a total `(xi, psi)` across all of their
    /// connections, enforced through one shared ledger per identity.
    pub fn with_budget(xi: f64, psi: f64) -> Self {
        Self {
            per_analyst: Some((xi, psi)),
        }
    }
}

/// The analyst-facing engine behind a server: one in-process worker
/// pool, or a sharded coordinator scattering to downstream shards. The
/// analyst protocol is identical either way — that is the point.
#[derive(Clone)]
enum AnalystBackend {
    Engine(EngineHandle),
    Coordinator(ShardedFederation),
}

impl AnalystBackend {
    fn config(&self) -> &FederationConfig {
        match self {
            AnalystBackend::Engine(h) => h.config(),
            AnalystBackend::Coordinator(f) => f.config(),
        }
    }

    fn schema(&self) -> &Schema {
        match self {
            AnalystBackend::Engine(h) => h.schema(),
            AnalystBackend::Coordinator(f) => f.schema(),
        }
    }

    fn explain_plan(&self, plan: &QueryPlan) -> fedaqp_core::Result<PlanExplanation> {
        match self {
            AnalystBackend::Engine(h) => h.explain_plan(plan),
            AnalystBackend::Coordinator(f) => f.explain_plan(plan),
        }
    }
}

/// One analyst's budget session, matching its backend's flavor.
enum AnalystSession {
    Engine(ConcurrentSession),
    Sharded(ShardedSession),
}

/// An in-flight scalar query on either backend.
enum PendingQuery {
    Engine(PendingAnswer),
    Sharded(ShardedPendingAnswer),
}

impl PendingQuery {
    /// Blocks for the answer and projects it onto the wire at `index`.
    fn wait(self, index: u32) -> fedaqp_core::Result<Frame> {
        match self {
            PendingQuery::Engine(p) => p.wait().map(|a| answer_frame(index, &a)),
            PendingQuery::Sharded(p) => p.wait().map(|a| sharded_answer_frame(index, &a)),
        }
    }
}

/// An in-flight plan on either backend (both wait to a [`PlanAnswer`]).
enum PendingPlanEither {
    Engine(PendingPlan),
    Sharded(PendingPlan<ShardedFederation>),
}

impl PendingPlanEither {
    fn wait(self) -> fedaqp_core::Result<PlanAnswer> {
        match self {
            PendingPlanEither::Engine(p) => p.wait(),
            PendingPlanEither::Sharded(p) => p.wait(),
        }
    }

    /// [`Self::wait`] with the per-snapshot hook of an online plan — the
    /// server's push loop writes one frame per invocation.
    fn wait_streaming(
        self,
        on_snapshot: impl FnMut(&PlanSnapshot),
    ) -> fedaqp_core::Result<PlanAnswer> {
        match self {
            PendingPlanEither::Engine(p) => p.wait_streaming(on_snapshot),
            PendingPlanEither::Sharded(p) => p.wait_streaming(on_snapshot),
        }
    }
}

/// What a bound server serves: analysts (over either backend) or an
/// upstream coordinator (fragment frames only).
#[derive(Clone)]
enum ServerMode {
    Analyst {
        backend: AnalystBackend,
        directory: Option<Arc<BudgetDirectory>>,
    },
    /// Live federation: the analyst protocol plus the v6 streaming-ingest
    /// path, over a [`LiveFederation`] behind a reader–writer lock.
    /// Queries hold the read side for their whole lifetime — pinning one
    /// epoch, data version, and seed — while an accepted `Ingest` batch
    /// takes the write side between queries, so no query ever observes a
    /// half-applied batch.
    Live {
        live: Arc<RwLock<LiveFederation>>,
        directory: Option<Arc<BudgetDirectory>>,
    },
    Shard(EngineHandle),
}

/// A running federation server.
///
/// Dropping the value does *not* stop the accept loop — call
/// [`FederationServer::shutdown`] (tests, embedding) or block on
/// [`FederationServer::join`] (a serve binary).
#[derive(Debug)]
pub struct FederationServer {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: JoinHandle<()>,
}

impl FederationServer {
    /// Binds `addr` (e.g. `"127.0.0.1:4751"`, or port `0` for an
    /// ephemeral port) and starts accepting analyst connections against
    /// `handle`'s engine.
    pub fn bind(addr: &str, handle: EngineHandle, options: ServeOptions) -> Result<Self> {
        Self::bind_analyst(addr, AnalystBackend::Engine(handle), options)
    }

    /// Binds `addr` and serves the analyst protocol from a sharded
    /// coordinator. Upstream this is indistinguishable from
    /// [`Self::bind`]; downstream every sub-query scatters to the
    /// coordinator's shards.
    pub fn bind_coordinator(
        addr: &str,
        federation: ShardedFederation,
        options: ServeOptions,
    ) -> Result<Self> {
        Self::bind_analyst(addr, AnalystBackend::Coordinator(federation), options)
    }

    /// Binds `addr` in live mode: the analyst protocol of [`Self::bind`]
    /// plus the v6 streaming-ingest path. Each query runs on a scoped
    /// engine under the lock's read side (one consistent epoch per query);
    /// an accepted [`Frame::Ingest`] batch takes the write side, appends
    /// rows with incremental metadata maintenance, and re-salts the noise
    /// seed (see [`LiveFederation`]). Non-live servers refuse `Ingest`
    /// frames with a typed error.
    pub fn bind_live(addr: &str, live: LiveFederation, options: ServeOptions) -> Result<Self> {
        let directory = match options.per_analyst {
            Some((xi, psi)) => Some(Arc::new(
                BudgetDirectory::new(xi, psi)
                    .map_err(|e| NetError::BadServeConfig(e.to_string()))?,
            )),
            None => None,
        };
        Self::bind_mode(
            addr,
            ServerMode::Live {
                live: Arc::new(RwLock::new(live)),
                directory,
            },
        )
    }

    /// Binds `addr` in shard mode: the server answers only v4 fragment
    /// frames (plus the handshake), one fragment at a time per
    /// connection — a coordinator reuses its connections across
    /// fragments and pipelines requests within one — and never opens a
    /// budget session: the upstream coordinator is the single ξ authority
    /// and charges before it scatters.
    pub fn bind_shard(addr: &str, handle: EngineHandle) -> Result<Self> {
        Self::bind_mode(addr, ServerMode::Shard(handle))
    }

    fn bind_analyst(addr: &str, backend: AnalystBackend, options: ServeOptions) -> Result<Self> {
        let directory = match options.per_analyst {
            Some((xi, psi)) => Some(Arc::new(
                BudgetDirectory::new(xi, psi)
                    .map_err(|e| NetError::BadServeConfig(e.to_string()))?,
            )),
            None => None,
        };
        Self::bind_mode(addr, ServerMode::Analyst { backend, directory })
    }

    fn bind_mode(addr: &str, mode: ServerMode) -> Result<Self> {
        let listener = TcpListener::bind(addr).map_err(|e| NetError::Bind {
            addr: addr.to_owned(),
            message: e.to_string(),
        })?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || accept_loop(listener, mode, stop))
        };
        Ok(Self {
            local_addr,
            stop,
            accept,
        })
    }

    /// The address the server actually listens on (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Blocks until the accept loop exits (it only does on
    /// [`Self::shutdown`] from another owner, so this is "serve forever"
    /// for a server binary).
    pub fn join(self) {
        let _ = self.accept.join();
    }

    /// Stops accepting new connections and joins the accept thread.
    /// Connections already open keep being served until their analysts
    /// disconnect (or the engine behind them shuts down).
    pub fn shutdown(self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        let _ = self.accept.join();
    }
}

fn accept_loop(listener: TcpListener, mode: ServerMode, stop: Arc<AtomicBool>) {
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let mode = mode.clone();
        std::thread::spawn(move || {
            // Connection failures are the peer's problem to observe; the
            // server just moves on to other connections.
            let _ = match mode {
                ServerMode::Analyst { backend, directory } => {
                    serve_connection(stream, backend, directory)
                }
                ServerMode::Live { live, directory } => {
                    serve_live_connection(stream, live, directory)
                }
                ServerMode::Shard(handle) => serve_shard_connection(stream, handle),
            };
        });
    }
}

/// Builds the typed reply to a frame whose header declared a version this
/// server does not speak. The `index` field carries the server's maximum
/// version (documented on [`ErrorCode::UnsupportedVersion`]) so the client
/// can surface both sides of the failed negotiation.
fn unsupported_version_reply(requested: u16) -> Frame {
    Frame::Error(ErrorFrame {
        index: VERSION as u32,
        code: ErrorCode::UnsupportedVersion,
        message: format!(
            "server speaks wire-protocol versions {}..={}, frame declared {}",
            crate::wire::MIN_VERSION,
            VERSION,
            requested
        ),
    })
}

/// One analyst connection, served to completion.
///
/// The connection speaks the version negotiated at the handshake:
/// `min(client's Hello header version, VERSION)`. Every reply is encoded
/// at that version, so a v1 client sees byte-identical v1 frames while a
/// v2 client may additionally submit plans and a v3 client may ask for
/// plan explanations.
fn serve_connection(
    mut stream: TcpStream,
    backend: AnalystBackend,
    directory: Option<Arc<BudgetDirectory>>,
) -> Result<()> {
    obs::counter_add(obs::names::SERVER_CONNECTIONS, 1);
    // Frames are small and latency-sensitive; never batch them.
    stream.set_nodelay(true).ok();

    // ---- Handshake: exactly one Hello, answered with HelloAck. ----
    let (hello, version) = match read_frame_versioned(&mut stream) {
        Ok((Frame::Hello(h), v)) => (h, v.min(VERSION)),
        Ok(_) => {
            let _ = write_frame_at(
                &mut stream,
                &error_reply(0, ErrorCode::BadRequest, "expected a Hello frame"),
                VERSION,
            );
            return Err(NetError::Handshake("expected Hello"));
        }
        Err(NetError::Disconnected) => return Ok(()),
        Err(e) => {
            // An unknown header version gets the typed negotiation error
            // (at v1, the most interoperable encoding) before the close —
            // never a bare hangup.
            let reply = match &e {
                NetError::UnsupportedVersion { requested, .. } => {
                    unsupported_version_reply(*requested)
                }
                _ => error_reply(0, ErrorCode::BadRequest, &e.to_string()),
            };
            let _ = write_frame_at(&mut stream, &reply, crate::wire::MIN_VERSION);
            return Err(e);
        }
    };
    let session = match &directory {
        Some(dir) => {
            let accountant = dir.accountant(&hello.analyst);
            let opened = match &backend {
                AnalystBackend::Engine(h) => ConcurrentSession::open_with_accountant(
                    h.clone(),
                    accountant,
                    SessionPlan::PayAsYouGo,
                )
                .map(AnalystSession::Engine),
                AnalystBackend::Coordinator(f) => ShardedSession::open_with_accountant(
                    f.clone(),
                    accountant,
                    SessionPlan::PayAsYouGo,
                )
                .map(AnalystSession::Sharded),
            };
            Some(opened.map_err(|e| {
                let _ = write_frame_at(
                    &mut stream,
                    &error_reply(0, ErrorCode::Internal, &e.to_string()),
                    version,
                );
                NetError::Handshake("session open failed")
            })?)
        }
        None => None,
    };
    write_frame_at(
        &mut stream,
        &Frame::HelloAck(hello_ack(backend.config(), backend.schema(), &directory)),
        version,
    )?;

    // ---- Request loop. ----
    let mut answered: u64 = 0;
    loop {
        match read_frame_versioned(&mut stream).map(|(frame, _)| frame) {
            Ok(Frame::Query(spec)) => {
                count_frame("query");
                let reply = match submit(&backend, session.as_ref(), &spec).and_then(|p| p.wait(0))
                {
                    Ok(frame) => {
                        answered += 1;
                        obs::counter_add(obs::names::SERVER_QUERIES, 1);
                        frame
                    }
                    Err(e) => core_error_reply(0, &e),
                };
                record_xi_spent(&hello.analyst, session.as_ref());
                write_frame_at(&mut stream, &reply, version)?;
            }
            Ok(Frame::Batch(batch)) => {
                count_frame("batch");
                // Submit everything before waiting on anything: the worker
                // pool pipelines the whole batch exactly as it does for an
                // in-process `run_batch`.
                let pending: Vec<_> = batch
                    .specs
                    .iter()
                    .map(|spec| submit(&backend, session.as_ref(), spec))
                    .collect();
                for (i, p) in pending.into_iter().enumerate() {
                    let reply = match p.and_then(|p| p.wait(i as u32)) {
                        Ok(frame) => {
                            answered += 1;
                            obs::counter_add(obs::names::SERVER_QUERIES, 1);
                            frame
                        }
                        Err(e) => core_error_reply(i as u32, &e),
                    };
                    write_frame_at(&mut stream, &reply, version)?;
                }
                record_xi_spent(&hello.analyst, session.as_ref());
            }
            Ok(Frame::Plan(request)) => {
                count_frame("plan");
                // Plan frames decode only from a v2 *frame header*, but the
                // reply must be encodable at the version negotiated at the
                // handshake — a v1-negotiated connection smuggling a v2
                // plan frame gets a typed rejection BEFORE any budget is
                // charged or any sub-query dispatched (the reply encoding
                // would otherwise fail and hang up after the charge).
                if version < 2 {
                    write_frame_at(
                        &mut stream,
                        &error_reply(
                            0,
                            ErrorCode::BadRequest,
                            "plan frames need a v2-negotiated connection (reconnect with a v2 Hello)",
                        ),
                        version,
                    )?;
                    continue;
                }
                // Every sub-query is submitted (and the whole plan charged)
                // before the wait — the per-group fan-out pipelines on the
                // worker pool exactly as in-process plans do.
                let reply = match submit_plan(&backend, session.as_ref(), &request.plan)
                    .and_then(PendingPlanEither::wait)
                {
                    Ok(answer) => {
                        answered += 1;
                        obs::counter_add(obs::names::SERVER_QUERIES, 1);
                        plan_answer_frame(0, &answer)
                    }
                    Err(e) => core_error_reply(0, &e),
                };
                record_xi_spent(&hello.analyst, session.as_ref());
                write_frame_at(&mut stream, &reply, version)?;
            }
            Ok(Frame::Explain(request)) => {
                count_frame("explain");
                // Same guard as plans: the reply frame exists only from
                // v3, so a connection negotiated below that gets a typed
                // rejection instead of an encode failure.
                if version < 3 {
                    write_frame_at(
                        &mut stream,
                        &error_reply(
                            0,
                            ErrorCode::BadRequest,
                            "explain frames need a v3-negotiated connection (reconnect with a v3 Hello)",
                        ),
                        version,
                    )?;
                    continue;
                }
                // Explaining runs nothing and charges no budget — the
                // explanation is a pure function of the plan and the
                // public offline metadata, so it bypasses the session
                // ledger entirely (and `answered` stays put).
                let reply = match backend.explain_plan(&request.plan) {
                    Ok(explanation) => Frame::ExplainAnswer(ExplainAnswerFrame {
                        index: 0,
                        explanation,
                    }),
                    Err(e) => core_error_reply(0, &e),
                };
                write_frame_at(&mut stream, &reply, version)?;
            }
            Ok(Frame::BudgetRequest) => {
                count_frame("budget");
                write_frame_at(
                    &mut stream,
                    &Frame::BudgetStatus(budget_status(
                        session_charges(session.as_ref()),
                        answered,
                    )),
                    version,
                )?;
            }
            Ok(Frame::Metrics) => {
                count_frame("metrics");
                // Same guard as plans/explains: the reply frame exists
                // only from v5, so a connection negotiated below that
                // gets a typed rejection instead of an encode failure.
                if version < 5 {
                    write_frame_at(
                        &mut stream,
                        &error_reply(
                            0,
                            ErrorCode::BadRequest,
                            "metrics frames need a v5-negotiated connection (reconnect with a v5 Hello)",
                        ),
                        version,
                    )?;
                    continue;
                }
                // The snapshot is public by construction: every sample in
                // the registry passed the `ObsValue` provenance boundary
                // (durations, counts, public metadata, released spend).
                write_frame_at(&mut stream, &metrics_answer_frame(), version)?;
            }
            Ok(Frame::OnlinePlan(request)) => {
                count_frame("online");
                // Same guard as plans/explains/metrics: every push frame
                // of the online conversation exists only from v6, so the
                // typed rejection lands BEFORE any budget is charged.
                if version < 6 {
                    write_frame_at(
                        &mut stream,
                        &error_reply(
                            0,
                            ErrorCode::BadRequest,
                            "online-plan frames need a v6-negotiated connection (reconnect with a v6 Hello)",
                        ),
                        version,
                    )?;
                    continue;
                }
                // The whole plan's (ε, δ) is validated and charged
                // atomically before the first round dispatches
                // (fail-closed); snapshots then push as rounds resolve.
                match submit_plan(&backend, session.as_ref(), &online_plan(&request)) {
                    Ok(pending) => {
                        if stream_online_answer(&mut stream, version, pending)? {
                            answered += 1;
                            obs::counter_add(obs::names::SERVER_QUERIES, 1);
                        }
                    }
                    Err(e) => write_frame_at(&mut stream, &core_error_reply(0, &e), version)?,
                }
                record_xi_spent(&hello.analyst, session.as_ref());
            }
            Ok(Frame::Ingest(_)) => {
                count_frame("ingest");
                // This server's federation is frozen — its metadata,
                // epochs, and seed never move. Accepting rows here would
                // silently drop them from every answer; refuse typed.
                write_frame_at(
                    &mut stream,
                    &error_reply(
                        0,
                        ErrorCode::BadRequest,
                        "ingest frames are served only by a live-mode server",
                    ),
                    version,
                )?;
            }
            Ok(
                Frame::Fragment(_)
                | Frame::FragmentSummariesRequest
                | Frame::FragmentAllocation(_)
                | Frame::FragmentPartialRequest
                | Frame::FragmentAbort
                | Frame::ExtremeFragment(_)
                | Frame::ShardBoundsRequest,
            ) => {
                count_frame("other");
                // Fragment frames bypass the analyst budget ledger (they
                // arrive pre-charged from a coordinator) and let a caller
                // pick occurrence indices — an occurrence-differencing
                // oracle. An analyst server therefore refuses them flat;
                // only a shard-mode server serves fragments.
                write_frame_at(
                    &mut stream,
                    &error_reply(
                        0,
                        ErrorCode::BadRequest,
                        "fragment frames are served only by a shard-mode server",
                    ),
                    version,
                )?;
            }
            Ok(_) => {
                count_frame("other");
                // Hello again, or a server-to-client frame: protocol
                // misuse, answered but not fatal.
                write_frame_at(
                    &mut stream,
                    &error_reply(0, ErrorCode::BadRequest, "unexpected frame kind"),
                    version,
                )?;
            }
            Err(NetError::Disconnected) => return Ok(()),
            Err(e) => {
                // A malformed frame leaves the stream unsynchronized;
                // report (typed, including version mismatches) and close.
                let reply = match &e {
                    NetError::UnsupportedVersion { requested, .. } => {
                        unsupported_version_reply(*requested)
                    }
                    _ => error_reply(0, ErrorCode::BadRequest, &e.to_string()),
                };
                let _ = write_frame_at(&mut stream, &reply, version);
                return Err(e);
            }
        }
    }
}

/// One coordinator connection in shard mode, served to completion.
///
/// The connection carries at most one fragment lifecycle at a time —
/// `Fragment` (summaries ⇒ allocation ⇒ partial) or the single-round
/// `ExtremeFragment` / `ShardBoundsRequest` — and any number of them one
/// after another. Frames are answered strictly in order, so a client may
/// pipeline a lifecycle's requests. Dropping the connection
/// mid-fragment aborts it ([`PendingFragment`]'s drop unparks the
/// workers), so a vanished coordinator never wedges the shard. No budget
/// directory exists in this mode by construction: the upstream
/// coordinator charged the whole plan before scattering.
fn serve_shard_connection(mut stream: TcpStream, handle: EngineHandle) -> Result<()> {
    obs::counter_add(obs::names::SERVER_CONNECTIONS, 1);
    stream.set_nodelay(true).ok();
    let version = match read_frame_versioned(&mut stream) {
        Ok((Frame::Hello(_), v)) => v.min(VERSION),
        Ok(_) => {
            let _ = write_frame_at(
                &mut stream,
                &error_reply(0, ErrorCode::BadRequest, "expected a Hello frame"),
                VERSION,
            );
            return Err(NetError::Handshake("expected Hello"));
        }
        Err(NetError::Disconnected) => return Ok(()),
        Err(e) => {
            let reply = match &e {
                NetError::UnsupportedVersion { requested, .. } => {
                    unsupported_version_reply(*requested)
                }
                _ => error_reply(0, ErrorCode::BadRequest, &e.to_string()),
            };
            let _ = write_frame_at(&mut stream, &reply, crate::wire::MIN_VERSION);
            return Err(e);
        }
    };
    // Every frame this mode serves exists only from v4; an older client
    // could never speak to it, so refuse the handshake with a typed
    // error instead of failing every later frame.
    if version < 4 {
        let _ = write_frame_at(
            &mut stream,
            &error_reply(
                0,
                ErrorCode::BadRequest,
                "shard-mode connections need a v4 Hello",
            ),
            version,
        );
        return Err(NetError::Handshake("shard mode needs v4"));
    }
    write_frame_at(
        &mut stream,
        &Frame::HelloAck(hello_ack(handle.config(), handle.schema(), &None)),
        version,
    )?;

    let mut fragment: Option<PendingFragment> = None;
    loop {
        let reply = match read_frame_versioned(&mut stream).map(|(frame, _)| frame) {
            Ok(Frame::Fragment(req)) => {
                if fragment.is_some() {
                    error_reply(
                        0,
                        ErrorCode::BadRequest,
                        "one shard connection carries one fragment at a time",
                    )
                } else {
                    let budget = QueryBudget {
                        eps_o: req.eps_o,
                        eps_s: req.eps_s,
                        eps_e: req.eps_e,
                        delta: req.delta,
                    };
                    match handle.submit_fragment(
                        &req.query,
                        req.sampling_rate,
                        &budget,
                        req.occurrence,
                    ) {
                        Ok(pending) => {
                            fragment = Some(pending);
                            Frame::FragmentQueued
                        }
                        Err(e) => core_error_reply(0, &e),
                    }
                }
            }
            Ok(Frame::FragmentSummariesRequest) => match &fragment {
                Some(pending) => match pending.summaries() {
                    Ok((summaries, summary_time)) => {
                        Frame::FragmentSummaries(FragmentSummariesFrame {
                            summaries: summaries
                                .iter()
                                .map(|s| WireSummary {
                                    noisy_n_q: s.noisy_n_q,
                                    noisy_avg_r: s.noisy_avg_r,
                                })
                                .collect(),
                            summary_us: summary_time.as_micros() as u64,
                        })
                    }
                    Err(e) => core_error_reply(0, &e),
                },
                None => no_fragment_reply(),
            },
            Ok(Frame::FragmentAllocation(frame)) => match &fragment {
                Some(pending) => match pending.provide_allocation(frame.allocations) {
                    Ok(()) => Frame::FragmentAllocated,
                    Err(e) => {
                        // A rejected allocation never reaches the parked
                        // workers, so the fragment cannot complete: abort
                        // it now, or a partial request pipelined behind
                        // the allocation would wait on it forever.
                        fragment = None;
                        core_error_reply(0, &e)
                    }
                },
                None => no_fragment_reply(),
            },
            Ok(Frame::FragmentPartialRequest) => match &fragment {
                Some(pending) => match pending.partial() {
                    Ok(partial) => {
                        let frame = Frame::FragmentPartial(FragmentPartialFrame {
                            rows: partial
                                .rows
                                .iter()
                                .map(|r| WirePartialRow {
                                    released: r.released,
                                    variance: r.variance,
                                    approximated: r.approximated,
                                    clusters_scanned: r.clusters_scanned,
                                    n_covering: r.n_covering,
                                })
                                .collect(),
                            execution_us: partial.execution.as_micros() as u64,
                        });
                        // The partial completes the lifecycle; the
                        // connection is free for the next fragment.
                        fragment = None;
                        frame
                    }
                    Err(e) => core_error_reply(0, &e),
                },
                None => no_fragment_reply(),
            },
            Ok(Frame::FragmentAbort) => {
                // Dropping the pending fragment unparks its workers.
                fragment = None;
                Frame::FragmentAborted
            }
            Ok(Frame::ExtremeFragment(req)) => {
                match handle
                    .submit_extreme_fragment(
                        req.dim as usize,
                        req.extreme,
                        req.epsilon,
                        req.occurrence,
                    )
                    .and_then(fedaqp_core::PendingExtreme::wait)
                {
                    Ok(answer) => Frame::ExtremePartial(ExtremePartialFrame {
                        value: answer.value,
                        execution_us: answer.execution.as_micros() as u64,
                    }),
                    Err(e) => core_error_reply(0, &e),
                }
            }
            Ok(Frame::ShardBoundsRequest) => Frame::ShardBounds(ShardBoundsFrame {
                providers: handle
                    .meta_snapshot()
                    .providers()
                    .iter()
                    .map(|b| WireProviderBounds {
                        dims: b.dims().to_vec(),
                        n_clusters: b.n_clusters() as u64,
                    })
                    .collect(),
            }),
            Ok(_) => error_reply(
                0,
                ErrorCode::BadRequest,
                "analyst frames are not served in shard mode (connect to the coordinator)",
            ),
            Err(NetError::Disconnected) => return Ok(()),
            Err(e) => {
                let reply = match &e {
                    NetError::UnsupportedVersion { requested, .. } => {
                        unsupported_version_reply(*requested)
                    }
                    _ => error_reply(0, ErrorCode::BadRequest, &e.to_string()),
                };
                let _ = write_frame_at(&mut stream, &reply, version);
                return Err(e);
            }
        };
        write_frame_at(&mut stream, &reply, version)?;
    }
}

/// The typed reply to a lifecycle frame with no fragment in flight.
fn no_fragment_reply() -> Frame {
    error_reply(
        0,
        ErrorCode::BadRequest,
        "no fragment in flight on this connection",
    )
}

/// The [`QueryPlan`] an [`OnlinePlanRequest`] compiles to — the same
/// variant the in-process `run_online` wrapper builds, which is what keeps
/// remote snapshots byte-identical to serial ones on a frozen federation.
fn online_plan(request: &OnlinePlanRequest) -> QueryPlan {
    QueryPlan::Online {
        query: request.query.clone(),
        sampling_rate: request.sampling_rate,
        epsilon: request.epsilon,
        delta: request.delta,
        rounds: request.rounds as usize,
    }
}

/// Drives an in-flight online plan to completion, pushing one
/// [`Frame::OnlineSnapshot`] per resolved round and closing the
/// conversation with a [`Frame::OnlineDone`] (success, returns `true`) or
/// a typed error frame (an engine failure mid-stream, returns `false` —
/// the budget stays spent either way, fail-closed). Transport failures
/// propagate as [`NetError`] and tear the connection down.
fn stream_online_answer(
    stream: &mut TcpStream,
    version: u16,
    pending: PendingPlanEither,
) -> Result<bool> {
    let mut write_err: Option<NetError> = None;
    let outcome = pending.wait_streaming(|snapshot| {
        if write_err.is_some() {
            return;
        }
        let frame = Frame::OnlineSnapshot(OnlineSnapshotFrame {
            index: 0,
            round: snapshot.round as u32,
            rounds: snapshot.rounds as u32,
            sample_fraction: snapshot.sample_fraction,
            value: snapshot.value,
            ci_halfwidth: snapshot.ci_halfwidth,
            clusters_scanned: snapshot.clusters_scanned,
        });
        if let Err(e) = write_frame_at(stream, &frame, version) {
            write_err = Some(e);
        }
    });
    if let Some(e) = write_err {
        return Err(e);
    }
    match outcome {
        Ok(answer) => {
            write_frame_at(
                stream,
                &Frame::OnlineDone(OnlineDoneFrame {
                    index: 0,
                    eps: answer.cost.eps,
                    delta: answer.cost.delta,
                    value: answer.value().unwrap_or(f64::NAN),
                    summary_us: answer.timings.summary.as_micros() as u64,
                    allocation_us: answer.timings.allocation.as_micros() as u64,
                    execution_us: answer.timings.execution.as_micros() as u64,
                    release_us: answer.timings.release.as_micros() as u64,
                    network_us: answer.timings.network.as_micros() as u64,
                }),
                version,
            )?;
            Ok(true)
        }
        Err(e) => {
            write_frame_at(stream, &core_error_reply(0, &e), version)?;
            Ok(false)
        }
    }
}

/// Read access to the live federation. Lock poisoning is survivable here:
/// the lock guards no invariant a panicked query could have broken (a
/// query only *reads*; ingest applies its batch atomically before any
/// unlock), so a poisoned lock is served rather than cascading the panic
/// across every connection thread.
fn read_live(live: &RwLock<LiveFederation>) -> RwLockReadGuard<'_, LiveFederation> {
    live.read()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Write access to the live federation (see [`read_live`] on poisoning).
fn write_live(live: &RwLock<LiveFederation>) -> RwLockWriteGuard<'_, LiveFederation> {
    live.write()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Submits one scalar query on a live connection's scoped engine. With a
/// budget ledger, a transient [`ConcurrentSession`] over the analyst's
/// durable [`SharedAccountant`] enforces exactly the charge-then-submit
/// discipline of the frozen path — the session object is per-request, the
/// ledger it charges is not.
fn live_submit(
    engine: &EngineHandle,
    accountant: Option<&SharedAccountant>,
    spec: &QueryRequest,
) -> fedaqp_core::Result<PendingAnswer> {
    match accountant {
        Some(acc) => ConcurrentSession::open_with_accountant(
            engine.clone(),
            acc.clone(),
            SessionPlan::PayAsYouGo,
        )?
        .submit(&spec.query, spec.sampling_rate),
        None => engine.submit(&spec.query, spec.sampling_rate),
    }
}

/// Submits one plan on a live connection's scoped engine (see
/// [`live_submit`] on the transient-session pattern): validate, charge the
/// whole declared cost atomically, then dispatch.
fn live_submit_plan(
    engine: &EngineHandle,
    accountant: Option<&SharedAccountant>,
    plan: &QueryPlan,
) -> fedaqp_core::Result<PendingPlan> {
    match accountant {
        Some(acc) => ConcurrentSession::open_with_accountant(
            engine.clone(),
            acc.clone(),
            SessionPlan::PayAsYouGo,
        )?
        .submit_plan(plan),
        None => engine.submit_plan(plan),
    }
}

/// [`record_xi_spent`] for live connections, whose ledger is the analyst's
/// [`SharedAccountant`] directly (sessions there are per-request).
fn record_xi_ledger(analyst: &str, accountant: Option<&SharedAccountant>) {
    if !obs::enabled() {
        return;
    }
    let Some(acc) = accountant else { return };
    obs::gauge_set(
        &format!("{}.{analyst}", obs::names::SERVER_XI_SPENT),
        obs::ObsValue::from_released(acc.spent().eps),
    );
}

/// One analyst connection against a live federation, served to completion.
///
/// The analyst protocol is [`serve_connection`]'s, with two differences:
/// every query runs on a scoped engine under the federation lock's read
/// side (pinning one epoch — a concurrently accepted ingest batch is
/// observed by the *next* query, never mid-flight), and the v6
/// [`Frame::Ingest`] path is served instead of refused. On a federation
/// that never ingests, answers are byte-identical to [`serve_connection`]
/// over the same providers and seed — the scoped engine runs the same
/// worker-pool code.
fn serve_live_connection(
    mut stream: TcpStream,
    live: Arc<RwLock<LiveFederation>>,
    directory: Option<Arc<BudgetDirectory>>,
) -> Result<()> {
    obs::counter_add(obs::names::SERVER_CONNECTIONS, 1);
    stream.set_nodelay(true).ok();

    // ---- Handshake: exactly one Hello, answered with HelloAck. ----
    let (hello, version) = match read_frame_versioned(&mut stream) {
        Ok((Frame::Hello(h), v)) => (h, v.min(VERSION)),
        Ok(_) => {
            let _ = write_frame_at(
                &mut stream,
                &error_reply(0, ErrorCode::BadRequest, "expected a Hello frame"),
                VERSION,
            );
            return Err(NetError::Handshake("expected Hello"));
        }
        Err(NetError::Disconnected) => return Ok(()),
        Err(e) => {
            let reply = match &e {
                NetError::UnsupportedVersion { requested, .. } => {
                    unsupported_version_reply(*requested)
                }
                _ => error_reply(0, ErrorCode::BadRequest, &e.to_string()),
            };
            let _ = write_frame_at(&mut stream, &reply, crate::wire::MIN_VERSION);
            return Err(e);
        }
    };
    // One durable ledger per analyst identity; the per-request sessions
    // opened over it all charge this same atomic accountant.
    let accountant = directory.as_ref().map(|dir| dir.accountant(&hello.analyst));
    {
        let fed = read_live(&live);
        write_frame_at(
            &mut stream,
            &Frame::HelloAck(hello_ack(
                fed.federation().config(),
                fed.federation().schema(),
                &directory,
            )),
            version,
        )?;
    }

    // ---- Request loop. ----
    let mut answered: u64 = 0;
    loop {
        match read_frame_versioned(&mut stream).map(|(frame, _)| frame) {
            Ok(Frame::Query(spec)) => {
                count_frame("query");
                let fed = read_live(&live);
                let reply = match fed.federation().with_engine(|e| {
                    live_submit(e, accountant.as_ref(), &spec).and_then(|p| p.wait())
                }) {
                    Ok(answer) => {
                        answered += 1;
                        obs::counter_add(obs::names::SERVER_QUERIES, 1);
                        answer_frame(0, &answer)
                    }
                    Err(e) => core_error_reply(0, &e),
                };
                drop(fed);
                record_xi_ledger(&hello.analyst, accountant.as_ref());
                write_frame_at(&mut stream, &reply, version)?;
            }
            Ok(Frame::Batch(batch)) => {
                count_frame("batch");
                // The whole batch runs under one read guard — one epoch,
                // one seed — and submits everything before waiting on
                // anything, pipelining across the pool as the frozen
                // server's batches do.
                let fed = read_live(&live);
                let replies: Vec<Frame> = fed.federation().with_engine(|engine| {
                    let pending: Vec<_> = batch
                        .specs
                        .iter()
                        .map(|spec| live_submit(engine, accountant.as_ref(), spec))
                        .collect();
                    pending
                        .into_iter()
                        .enumerate()
                        .map(|(i, p)| match p.and_then(|p| p.wait()) {
                            Ok(answer) => {
                                answered += 1;
                                obs::counter_add(obs::names::SERVER_QUERIES, 1);
                                answer_frame(i as u32, &answer)
                            }
                            Err(e) => core_error_reply(i as u32, &e),
                        })
                        .collect()
                });
                drop(fed);
                record_xi_ledger(&hello.analyst, accountant.as_ref());
                for reply in &replies {
                    write_frame_at(&mut stream, reply, version)?;
                }
            }
            Ok(Frame::Plan(request)) => {
                count_frame("plan");
                if version < 2 {
                    write_frame_at(
                        &mut stream,
                        &error_reply(
                            0,
                            ErrorCode::BadRequest,
                            "plan frames need a v2-negotiated connection (reconnect with a v2 Hello)",
                        ),
                        version,
                    )?;
                    continue;
                }
                let fed = read_live(&live);
                let reply = match fed.federation().with_engine(|e| {
                    live_submit_plan(e, accountant.as_ref(), &request.plan)
                        .and_then(PendingPlan::wait)
                }) {
                    Ok(answer) => {
                        answered += 1;
                        obs::counter_add(obs::names::SERVER_QUERIES, 1);
                        plan_answer_frame(0, &answer)
                    }
                    Err(e) => core_error_reply(0, &e),
                };
                drop(fed);
                record_xi_ledger(&hello.analyst, accountant.as_ref());
                write_frame_at(&mut stream, &reply, version)?;
            }
            Ok(Frame::Explain(request)) => {
                count_frame("explain");
                if version < 3 {
                    write_frame_at(
                        &mut stream,
                        &error_reply(
                            0,
                            ErrorCode::BadRequest,
                            "explain frames need a v3-negotiated connection (reconnect with a v3 Hello)",
                        ),
                        version,
                    )?;
                    continue;
                }
                // Free as on the frozen path — but computed against the
                // *current* epoch's public metadata.
                let fed = read_live(&live);
                let reply = match fed
                    .federation()
                    .with_engine(|e| e.explain_plan(&request.plan))
                {
                    Ok(explanation) => Frame::ExplainAnswer(ExplainAnswerFrame {
                        index: 0,
                        explanation,
                    }),
                    Err(e) => core_error_reply(0, &e),
                };
                drop(fed);
                write_frame_at(&mut stream, &reply, version)?;
            }
            Ok(Frame::BudgetRequest) => {
                count_frame("budget");
                let charged = accountant
                    .as_ref()
                    .map(|a| (a.total(), a.spent(), a.queries_answered()));
                write_frame_at(
                    &mut stream,
                    &Frame::BudgetStatus(budget_status(charged, answered)),
                    version,
                )?;
            }
            Ok(Frame::Metrics) => {
                count_frame("metrics");
                if version < 5 {
                    write_frame_at(
                        &mut stream,
                        &error_reply(
                            0,
                            ErrorCode::BadRequest,
                            "metrics frames need a v5-negotiated connection (reconnect with a v5 Hello)",
                        ),
                        version,
                    )?;
                    continue;
                }
                write_frame_at(&mut stream, &metrics_answer_frame(), version)?;
            }
            Ok(Frame::OnlinePlan(request)) => {
                count_frame("online");
                if version < 6 {
                    write_frame_at(
                        &mut stream,
                        &error_reply(
                            0,
                            ErrorCode::BadRequest,
                            "online-plan frames need a v6-negotiated connection (reconnect with a v6 Hello)",
                        ),
                        version,
                    )?;
                    continue;
                }
                // The read guard spans the whole push loop: every snapshot
                // of one online plan is computed against one epoch. An
                // ingest racing this plan lands after the OnlineDone.
                let fed = read_live(&live);
                let pushed = fed.federation().with_engine(|engine| {
                    match live_submit_plan(engine, accountant.as_ref(), &online_plan(&request)) {
                        Ok(pending) => stream_online_answer(
                            &mut stream,
                            version,
                            PendingPlanEither::Engine(pending),
                        ),
                        Err(e) => {
                            write_frame_at(&mut stream, &core_error_reply(0, &e), version)?;
                            Ok(false)
                        }
                    }
                });
                drop(fed);
                record_xi_ledger(&hello.analyst, accountant.as_ref());
                if pushed? {
                    answered += 1;
                    obs::counter_add(obs::names::SERVER_QUERIES, 1);
                }
            }
            Ok(Frame::Ingest(request)) => {
                count_frame("ingest");
                if version < 6 {
                    write_frame_at(
                        &mut stream,
                        &error_reply(
                            0,
                            ErrorCode::BadRequest,
                            "ingest frames need a v6-negotiated connection (reconnect with a v6 Hello)",
                        ),
                        version,
                    )?;
                    continue;
                }
                let rows: Vec<Row> = request
                    .rows
                    .iter()
                    .map(|r| Row::cell(r.values.clone(), r.measure))
                    .collect();
                // Write side of the lock: waits out in-flight queries,
                // applies the batch atomically (append + incremental
                // metadata + epoch bump + seed re-salt), and releases
                // before the ack is written.
                let reply = match write_live(&live).ingest(request.provider as usize, rows) {
                    Ok(report) => Frame::IngestAck(IngestAckFrame {
                        accepted: report.accepted,
                        epoch: report.epoch,
                        refreshed: report.refreshed,
                    }),
                    Err(e) => core_error_reply(0, &e),
                };
                write_frame_at(&mut stream, &reply, version)?;
            }
            Ok(
                Frame::Fragment(_)
                | Frame::FragmentSummariesRequest
                | Frame::FragmentAllocation(_)
                | Frame::FragmentPartialRequest
                | Frame::FragmentAbort
                | Frame::ExtremeFragment(_)
                | Frame::ShardBoundsRequest,
            ) => {
                count_frame("other");
                // Same refusal (and rationale) as the frozen analyst
                // server: fragments bypass the budget ledger.
                write_frame_at(
                    &mut stream,
                    &error_reply(
                        0,
                        ErrorCode::BadRequest,
                        "fragment frames are served only by a shard-mode server",
                    ),
                    version,
                )?;
            }
            Ok(_) => {
                count_frame("other");
                write_frame_at(
                    &mut stream,
                    &error_reply(0, ErrorCode::BadRequest, "unexpected frame kind"),
                    version,
                )?;
            }
            Err(NetError::Disconnected) => return Ok(()),
            Err(e) => {
                let reply = match &e {
                    NetError::UnsupportedVersion { requested, .. } => {
                        unsupported_version_reply(*requested)
                    }
                    _ => error_reply(0, ErrorCode::BadRequest, &e.to_string()),
                };
                let _ = write_frame_at(&mut stream, &reply, version);
                return Err(e);
            }
        }
    }
}

fn hello_ack(
    config: &FederationConfig,
    schema: &Schema,
    directory: &Option<Arc<BudgetDirectory>>,
) -> HelloAck {
    HelloAck {
        dimensions: schema
            .dimensions()
            .iter()
            .map(|d| WireDimension {
                name: d.name().to_owned(),
                min: d.domain().min(),
                max: d.domain().max(),
            })
            .collect(),
        n_providers: config.n_providers as u32,
        epsilon: config.epsilon,
        delta: config.delta,
        calibration: calibration_code(config.estimator_calibration),
        session_budget: directory.as_ref().map(|dir| {
            let per = dir.per_analyst();
            (per.eps, per.delta)
        }),
        max_version: VERSION,
    }
}

fn submit(
    backend: &AnalystBackend,
    session: Option<&AnalystSession>,
    spec: &QueryRequest,
) -> fedaqp_core::Result<PendingQuery> {
    match (backend, session) {
        (_, Some(AnalystSession::Engine(s))) => s
            .submit(&spec.query, spec.sampling_rate)
            .map(PendingQuery::Engine),
        (_, Some(AnalystSession::Sharded(s))) => s
            .submit(&spec.query, spec.sampling_rate)
            .map(PendingQuery::Sharded),
        (AnalystBackend::Engine(h), None) => h
            .submit(&spec.query, spec.sampling_rate)
            .map(PendingQuery::Engine),
        (AnalystBackend::Coordinator(f), None) => {
            let budget = f.default_budget()?;
            f.submit_with_budget(&spec.query, spec.sampling_rate, &budget)
                .map(PendingQuery::Sharded)
        }
    }
}

/// Submits a whole plan: with a session, the plan's entire declared
/// `(ε, δ)` is validated and charged atomically before any sub-query is
/// dispatched (validate-before-charge, whole-plan ξ accounting).
fn submit_plan(
    backend: &AnalystBackend,
    session: Option<&AnalystSession>,
    plan: &QueryPlan,
) -> fedaqp_core::Result<PendingPlanEither> {
    match (backend, session) {
        (_, Some(AnalystSession::Engine(s))) => s.submit_plan(plan).map(PendingPlanEither::Engine),
        (_, Some(AnalystSession::Sharded(s))) => {
            s.submit_plan(plan).map(PendingPlanEither::Sharded)
        }
        (AnalystBackend::Engine(h), None) => h.submit_plan(plan).map(PendingPlanEither::Engine),
        (AnalystBackend::Coordinator(f), None) => {
            f.submit_plan(plan).map(PendingPlanEither::Sharded)
        }
    }
}

/// Projects an [`EngineAnswer`] onto the wire, dropping the
/// simulation-boundary diagnostics (`raw_estimate`, `smooth_ls`) that
/// must never reach an analyst.
fn answer_frame(index: u32, answer: &EngineAnswer) -> Frame {
    Frame::Answer(Answer {
        index,
        value: answer.value,
        eps: answer.cost.eps,
        delta: answer.cost.delta,
        ci_halfwidth: answer.ci_halfwidth,
        clusters_scanned: answer.clusters_scanned as u64,
        covering_total: answer.covering_total as u64,
        approximated_providers: answer.approximated_providers as u32,
        allocations: answer.allocations.clone(),
        summary_us: answer.timings.summary.as_micros() as u64,
        allocation_us: answer.timings.allocation.as_micros() as u64,
        execution_us: answer.timings.execution.as_micros() as u64,
        release_us: answer.timings.release.as_micros() as u64,
        network_us: answer.timings.network.as_micros() as u64,
    })
}

/// Projects a [`ShardedAnswer`] onto the wire. The coordinator's answer
/// already contains only analyst-visible fields (the simulation-boundary
/// diagnostics never left the shards), so this is a straight copy — the
/// frame is field-for-field the one [`answer_frame`] builds, keeping the
/// analyst protocol identical across deployments.
fn sharded_answer_frame(index: u32, answer: &ShardedAnswer) -> Frame {
    Frame::Answer(Answer {
        index,
        value: answer.value,
        eps: answer.cost.eps,
        delta: answer.cost.delta,
        ci_halfwidth: answer.ci_halfwidth,
        clusters_scanned: answer.clusters_scanned as u64,
        covering_total: answer.covering_total as u64,
        approximated_providers: answer.approximated_providers as u32,
        allocations: answer.allocations.clone(),
        summary_us: answer.timings.summary.as_micros() as u64,
        allocation_us: answer.timings.allocation.as_micros() as u64,
        execution_us: answer.timings.execution.as_micros() as u64,
        release_us: answer.timings.release.as_micros() as u64,
        network_us: answer.timings.network.as_micros() as u64,
    })
}

/// Projects a [`PlanAnswer`] onto the wire. Like [`answer_frame`], only
/// DP-released data crosses: suppressed groups contribute a count, never
/// their noisy values.
fn plan_answer_frame(index: u32, answer: &PlanAnswer) -> Frame {
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
        // Online plans answer through the dedicated v6 push conversation
        // (snapshot frames closed by an `OnlineDone`), never through a
        // `PlanAnswer` — and the `Plan` frame cannot even carry a
        // `QueryPlan::Online`, so no wire request reaches this arm.
        PlanResult::Snapshots { .. } => {
            return error_reply(
                index,
                ErrorCode::Internal,
                "online plans answer with snapshot frames",
            )
        }
    };
    Frame::PlanAnswer(PlanAnswerFrame {
        index,
        eps: answer.cost.eps,
        delta: answer.cost.delta,
        result,
        summary_us: answer.timings.summary.as_micros() as u64,
        allocation_us: answer.timings.allocation.as_micros() as u64,
        execution_us: answer.timings.execution.as_micros() as u64,
        release_us: answer.timings.release.as_micros() as u64,
        network_us: answer.timings.network.as_micros() as u64,
    })
}

/// Counts one request frame, both in the total and under its per-kind
/// labeled family (`fedaqp_server_frames_total.{kind}`). The label is a
/// static protocol kind, never request content.
fn count_frame(kind: &'static str) {
    if obs::enabled() {
        obs::counter_add(obs::names::SERVER_FRAMES, 1);
        obs::counter_add(&format!("{}.{kind}", obs::names::SERVER_FRAMES), 1);
    }
}

/// Publishes the analyst's cumulative ξ spend under
/// `fedaqp_server_xi_spent.{identity}`. The spend is *released* budget
/// accounting — the analyst already observes it through `BudgetStatus`
/// frames — so exposing it in telemetry leaks nothing new.
fn record_xi_spent(analyst: &str, session: Option<&AnalystSession>) {
    if !obs::enabled() {
        return;
    }
    let spent = match session {
        Some(AnalystSession::Engine(s)) => s.spent(),
        Some(AnalystSession::Sharded(s)) => s.spent(),
        None => return,
    };
    obs::gauge_set(
        &format!("{}.{analyst}", obs::names::SERVER_XI_SPENT),
        obs::ObsValue::from_released(spent.eps),
    );
}

/// The server's telemetry snapshot as a wire frame. Flat `(name, value)`
/// samples straight from the global registry — every one of which passed
/// the [`fedaqp_obs::ObsValue`] provenance boundary.
fn metrics_answer_frame() -> Frame {
    Frame::MetricsAnswer(MetricsAnswerFrame {
        metrics: obs::global()
            .snapshot()
            .into_iter()
            .map(|s| WireMetric {
                name: s.name,
                value: s.value,
            })
            .collect(),
    })
}

fn error_reply(index: u32, code: ErrorCode, message: &str) -> Frame {
    obs::counter_add(obs::names::SERVER_ERRORS, 1);
    let mut message = message.to_owned();
    if message.len() > MAX_ERROR_MESSAGE {
        // Truncate on a char boundary to stay valid UTF-8.
        let cut = (0..=MAX_ERROR_MESSAGE)
            .rev()
            .find(|&i| message.is_char_boundary(i))
            .unwrap_or(0);
        message.truncate(cut);
    }
    Frame::Error(ErrorFrame {
        index,
        code,
        message,
    })
}

/// Maps an engine/protocol failure onto the typed wire error vocabulary.
fn core_error_reply(index: u32, error: &CoreError) -> Frame {
    let code = match error {
        CoreError::Dp(DpError::BudgetExhausted { .. }) => ErrorCode::BudgetExhausted,
        CoreError::Model(_) | CoreError::GroupDomainTooLarge { .. } => ErrorCode::InvalidQuery,
        CoreError::InvalidSamplingRate(_) => ErrorCode::InvalidSamplingRate,
        CoreError::BadConfig(_) => ErrorCode::BadRequest,
        CoreError::ShardUnavailable { .. } => ErrorCode::ShardUnavailable,
        _ => ErrorCode::Internal,
    };
    error_reply(index, code, &error.to_string())
}

/// The `(total, spent, queries answered)` of a session's ledger, when the
/// connection has one.
fn session_charges(session: Option<&AnalystSession>) -> Option<(PrivacyCost, PrivacyCost, u64)> {
    match session {
        Some(AnalystSession::Engine(s)) => {
            Some((s.accountant().total(), s.spent(), s.queries_answered()))
        }
        Some(AnalystSession::Sharded(s)) => {
            Some((s.accountant().total(), s.spent(), s.queries_answered()))
        }
        None => None,
    }
}

fn budget_status(charged: Option<(PrivacyCost, PrivacyCost, u64)>, answered: u64) -> BudgetStatus {
    match charged {
        Some((total, spent, queries_answered)) => BudgetStatus {
            limited: true,
            total_eps: total.eps,
            total_delta: total.delta,
            spent_eps: spent.eps,
            spent_delta: spent.delta,
            queries_answered,
        },
        None => BudgetStatus {
            limited: false,
            total_eps: f64::INFINITY,
            total_delta: 1.0,
            spent_eps: 0.0,
            spent_delta: 0.0,
            queries_answered: answered,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedaqp_model::ModelError;

    #[test]
    fn core_errors_map_to_typed_codes() {
        let cases = [
            (
                CoreError::Dp(DpError::BudgetExhausted {
                    requested_eps: 1.0,
                    remaining_eps: 0.0,
                    requested_delta: 0.0,
                    remaining_delta: 0.0,
                }),
                ErrorCode::BudgetExhausted,
            ),
            (
                CoreError::Model(ModelError::NoRanges),
                ErrorCode::InvalidQuery,
            ),
            (
                CoreError::InvalidSamplingRate(1.5),
                ErrorCode::InvalidSamplingRate,
            ),
            (CoreError::BadConfig("x"), ErrorCode::BadRequest),
            (
                CoreError::GroupDomainTooLarge {
                    size: 1_000_000_000,
                    cap: 4096,
                },
                ErrorCode::InvalidQuery,
            ),
            (
                CoreError::ShardUnavailable {
                    shard: 1,
                    reason: "connection refused",
                },
                ErrorCode::ShardUnavailable,
            ),
            (CoreError::NoProviders, ErrorCode::Internal),
        ];
        for (error, expected) in cases {
            match core_error_reply(7, &error) {
                Frame::Error(e) => {
                    assert_eq!(e.code, expected);
                    assert_eq!(e.index, 7);
                    assert!(!e.message.is_empty());
                }
                other => panic!("expected an error frame, got {other:?}"),
            }
        }
    }

    #[test]
    fn long_error_messages_are_truncated_to_the_wire_cap() {
        let long = "é".repeat(2 * MAX_ERROR_MESSAGE);
        match error_reply(0, ErrorCode::Internal, &long) {
            Frame::Error(e) => {
                assert!(e.message.len() <= MAX_ERROR_MESSAGE);
                // Still encodable.
                assert!(crate::wire::encode_frame(&Frame::Error(e)).is_ok());
            }
            other => panic!("expected an error frame, got {other:?}"),
        }
    }

    #[test]
    fn unlimited_budget_status_is_uncapped() {
        let status = budget_status(None, 5);
        assert!(!status.limited);
        assert!(status.total_eps.is_infinite());
        assert_eq!(status.queries_answered, 5);
    }
}
