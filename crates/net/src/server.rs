//! The TCP federation server: the engine's network face, in one of four
//! roles.
//!
//! **Analyst server over an engine** ([`FederationServer::bind`]) serves
//! an [`EngineHandle`] — the analyst-facing handle of the concurrent
//! worker pool — over real sockets, thread-per-connection: the accept
//! loop runs on one background thread and every connection gets its own,
//! so N remote analysts drive the engine exactly like N in-process
//! analyst threads do. All protocol state (budget ledgers, in-flight
//! jobs) lives in thread-safe structures the engine already provides; the
//! server adds no locking of its own beyond the listener.
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
//! lock, plus the `Ingest` frame: a batch of rows appended to a
//! provider under the write lock, answered with an `IngestAck` carrying
//! the accepted count, the new epoch, and whether the staleness policy
//! triggered a metadata refresh. Every other request runs on a scoped
//! engine under the read lock for its whole lifetime, so every answer
//! conditions on exactly one epoch. The frozen roles refuse `Ingest` with
//! a typed error.
//!
//! The three analyst roles share one request handler, generic over
//! [`PlanBackend`]: the engine handle, the coordinator, or a live
//! federation's scoped engine. Refusals, ledger reads and telemetry are
//! answered before a request reaches it, so they never start an engine
//! or charge anything. Every analyst request is a `Plan` (or an `Explain`
//! of one); a plan that is a [`QueryPlan::Online`] streams each round's
//! [`fedaqp_core::PlanSnapshot`] back as a server-push `OnlineSnapshot`
//! frame the moment it resolves, closed by `OnlineDone`.
//!
//! **Shard server** ([`FederationServer::bind_shard`]) serves only the
//! fragment frames to an upstream coordinator — one fragment at a
//! time per connection, fragment after fragment on connections the
//! coordinator keeps and reuses — with *no* budget directory: fragments
//! arrive already charged at the coordinator, the single ξ authority (see
//! `docs/privacy-model.md`). The analyst roles symmetrically refuse
//! fragment frames — serving a fragment to an arbitrary analyst would
//! bypass the budget ledger and hand out occurrence-differencing oracles.
//!
//! Every role shares the handshake (one `Hello`, answered by a `HelloAck`
//! or a typed refusal) and the frame read path (every frame counted,
//! malformed input — a header of another protocol version included —
//! answered typed before the close).
//!
//! Budget enforcement: with [`ServeOptions::with_budget`], every request
//! is charged through a [`ConcurrentSession`] over the analyst's ledger
//! from a [`BudgetDirectory`], keyed by the identity declared in the
//! `Hello` frame. Reconnecting or opening parallel connections can
//! therefore never reset or multiply an analyst's `(ξ, ψ)` — racing
//! charges hit one atomic [`SharedAccountant`]. An exhausted budget
//! surfaces as a typed [`ErrorCode::BudgetExhausted`] error frame; the
//! connection stays open. A whole [`QueryPlan`] is validated and charged
//! atomically up front.
//!
//! What never crosses the wire: providers' raw (pre-noise) estimates and
//! smooth sensitivities. The backends release a
//! [`fedaqp_core::SubOutcome`], which does not carry them, so a remote
//! analyst sees only DP-released values.
//! Transport security (TLS, authn) is out of scope — see the README
//! threat model.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::thread::JoinHandle;

use fedaqp_core::{
    ConcurrentSession, CoreError, EngineHandle, FederationConfig, LiveFederation, PendingFragment,
    PendingPlan, PlanAnswer, PlanBackend, PlanResult, QueryPlan, SessionPlan, ShardedFederation,
};
use fedaqp_dp::{BudgetDirectory, DpError, QueryBudget, SharedAccountant};
use fedaqp_model::{Row, Schema};
use fedaqp_obs as obs;

use crate::wire::{
    read_frame, write_frame, BudgetStatus, ErrorCode, ErrorFrame, ExplainAnswerFrame,
    ExtremePartialFrame, FragmentPartialFrame, FragmentSummariesFrame, Frame, HelloAck,
    IngestAckFrame, IngestRequest, MetricsAnswerFrame, OnlineDoneFrame, OnlineSnapshotFrame,
    PlanAnswerFrame, ShardBoundsFrame, WireDimension, WireGroup, WireMetric, WirePartialRow,
    WirePlanResult, WireProviderBounds, WireSummary, VERSION,
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

/// What a bound server serves.
#[derive(Clone)]
enum ServerMode {
    /// The analyst protocol over an in-process worker pool.
    Engine(EngineHandle),
    /// The analyst protocol over a coordinator scattering to shards.
    Coordinator(ShardedFederation),
    /// The analyst protocol plus streaming ingest, over a live federation
    /// behind a reader–writer lock. Requests hold the read side for their
    /// whole lifetime — pinning one epoch, data version, and seed — while
    /// an accepted `Ingest` batch takes the write side between requests,
    /// so no request ever observes a half-applied batch.
    Live(Arc<RwLock<LiveFederation>>),
    /// Fragment frames only, for an upstream coordinator.
    Shard(EngineHandle),
}

/// What every connection of one server shares.
#[derive(Clone)]
struct Service {
    mode: ServerMode,
    /// Per-analyst ledgers, when the server caps budgets.
    directory: Option<Arc<BudgetDirectory>>,
    /// The handshake reply. Nothing in it changes while the server runs
    /// (ingest appends rows, never dimensions or providers), so it is
    /// built once, at bind time.
    hello: Arc<HelloAck>,
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
        let hello = hello_ack(handle.config(), handle.schema(), options);
        Self::bind_mode(addr, ServerMode::Engine(handle), hello, options)
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
        let hello = hello_ack(federation.config(), federation.schema(), options);
        Self::bind_mode(addr, ServerMode::Coordinator(federation), hello, options)
    }

    /// Binds `addr` in live mode: the analyst protocol of [`Self::bind`]
    /// plus the streaming-ingest path. Each request runs on a scoped
    /// engine under the lock's read side (one consistent epoch per
    /// request); an accepted [`Frame::Ingest`] batch takes the write side,
    /// appends rows with incremental metadata maintenance, and re-salts
    /// the noise seed (see [`LiveFederation`]). Non-live servers refuse
    /// `Ingest` frames with a typed error.
    pub fn bind_live(addr: &str, live: LiveFederation, options: ServeOptions) -> Result<Self> {
        let federation = live.federation();
        let hello = hello_ack(federation.config(), federation.schema(), options);
        let mode = ServerMode::Live(Arc::new(RwLock::new(live)));
        Self::bind_mode(addr, mode, hello, options)
    }

    /// Binds `addr` in shard mode: the server answers only fragment
    /// frames (plus the handshake), one fragment at a time per
    /// connection — a coordinator reuses its connections across
    /// fragments and pipelines requests within one — and never opens a
    /// budget session: the upstream coordinator is the single ξ authority
    /// and charges before it scatters.
    pub fn bind_shard(addr: &str, handle: EngineHandle) -> Result<Self> {
        let options = ServeOptions::unlimited();
        let hello = hello_ack(handle.config(), handle.schema(), options);
        Self::bind_mode(addr, ServerMode::Shard(handle), hello, options)
    }

    fn bind_mode(
        addr: &str,
        mode: ServerMode,
        hello: HelloAck,
        options: ServeOptions,
    ) -> Result<Self> {
        let directory = match options.per_analyst {
            Some((xi, psi)) => Some(Arc::new(
                BudgetDirectory::new(xi, psi)
                    .map_err(|e| NetError::BadServeConfig(e.to_string()))?,
            )),
            None => None,
        };
        let service = Service {
            mode,
            directory,
            hello: Arc::new(hello),
        };
        let listener = TcpListener::bind(addr).map_err(|e| NetError::Bind {
            addr: addr.to_owned(),
            message: e.to_string(),
        })?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || accept_loop(listener, service, stop))
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

fn accept_loop(listener: TcpListener, service: Service, stop: Arc<AtomicBool>) {
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let service = service.clone();
        // Connection failures are the peer's problem to observe; the
        // server just moves on to other connections.
        std::thread::spawn(move || serve_connection(stream, &service));
    }
}

/// One connection, served to completion. This is the one place that
/// tells the roles apart.
fn serve_connection(stream: TcpStream, service: &Service) -> Result<()> {
    obs::counter_add(obs::names::SERVER_CONNECTIONS, 1);
    // Frames are small and latency-sensitive; never batch them.
    stream.set_nodelay(true).ok();
    let Some(mut conn) = Connection::handshake(stream, service)? else {
        return Ok(());
    };
    match &service.mode {
        ServerMode::Engine(handle) => {
            conn.serve_analyst(false, |conn, frame| handle_request(handle, conn, frame))
        }
        ServerMode::Coordinator(federation) => {
            conn.serve_analyst(false, |conn, frame| handle_request(federation, conn, frame))
        }
        ServerMode::Live(live) => conn.serve_analyst(true, |conn, frame| match frame {
            Frame::Ingest(request) => ingest(live, conn, request),
            // The read guard spans the whole request — every snapshot of
            // an online plan is computed against one epoch.
            frame => read_live(live)
                .federation()
                .with_engine(|engine| handle_request(engine, conn, frame)),
        }),
        ServerMode::Shard(handle) => serve_fragments(handle, &mut conn),
    }
}

/// One connection after its handshake.
struct Connection {
    stream: TcpStream,
    /// The identity the `Hello` declared.
    analyst: String,
    /// The analyst's durable ledger, when the server caps budgets.
    ledger: Option<SharedAccountant>,
    /// Requests answered on this connection (what an uncapped
    /// `BudgetStatus` reports).
    answered: u64,
}

impl Connection {
    /// Reads exactly one `Hello` and answers it with the `HelloAck`, or
    /// with a typed refusal before the close. `None` when the peer left
    /// without a word.
    fn handshake(mut stream: TcpStream, service: &Service) -> Result<Option<Self>> {
        let hello = match read_frame(&mut stream) {
            Ok(Frame::Hello(hello)) => hello,
            Ok(_) => {
                let _ = write_frame(
                    &mut stream,
                    &error_reply(0, ErrorCode::BadRequest, "expected a Hello frame"),
                );
                return Err(NetError::Handshake("expected Hello"));
            }
            Err(NetError::Disconnected) => return Ok(None),
            Err(e) => {
                // A header of another protocol version gets the typed
                // version error before the close — never a bare hangup.
                let _ = write_frame(&mut stream, &read_error_reply(&e));
                return Err(e);
            }
        };
        write_frame(
            &mut stream,
            &Frame::HelloAck(HelloAck::clone(&service.hello)),
        )?;
        Ok(Some(Self {
            stream,
            ledger: service
                .directory
                .as_ref()
                .map(|dir| dir.accountant(&hello.analyst)),
            analyst: hello.analyst,
            answered: 0,
        }))
    }

    /// Writes one reply.
    fn send(&mut self, frame: &Frame) -> Result<()> {
        write_frame(&mut self.stream, frame)
    }

    /// Reads and counts the next request. `None` on a clean disconnect;
    /// a malformed frame leaves the stream unsynchronized, so it is
    /// answered (typed, including version mismatches) and ends the
    /// connection.
    fn next(&mut self) -> Result<Option<Frame>> {
        match read_frame(&mut self.stream) {
            Ok(frame) => {
                count_frame(request_kind(&frame));
                Ok(Some(frame))
            }
            Err(NetError::Disconnected) => Ok(None),
            Err(e) => {
                let _ = self.send(&read_error_reply(&e));
                Err(e)
            }
        }
    }

    /// Serves analyst requests until the peer disconnects. Refusals,
    /// ledger reads and telemetry are answered here; every other request
    /// goes to `dispatch`.
    fn serve_analyst(
        &mut self,
        ingests: bool,
        mut dispatch: impl FnMut(&mut Self, Frame) -> Result<()>,
    ) -> Result<()> {
        while let Some(frame) = self.next()? {
            if let Some(refusal) = refusal(&frame, ingests) {
                self.send(&refusal)?;
                continue;
            }
            match frame {
                Frame::BudgetRequest => {
                    let status = budget_status(self.ledger.as_ref(), self.answered);
                    self.send(&Frame::BudgetStatus(status))?;
                }
                // The snapshot is public by construction: every sample in
                // the registry passed the `ObsValue` provenance boundary
                // (durations, counts, public metadata, released spend).
                Frame::Metrics => self.send(&metrics_answer_frame())?,
                frame => dispatch(self, frame)?,
            }
        }
        Ok(())
    }

    /// The reply to one released request: its answer frame, counted as
    /// answered, or its typed error.
    fn released(&mut self, reply: fedaqp_core::Result<Frame>) -> Frame {
        match reply {
            Ok(frame) => {
                self.answered += 1;
                obs::counter_add(obs::names::SERVER_QUERIES, 1);
                frame
            }
            Err(e) => core_error_reply(0, &e),
        }
    }

    /// Publishes the analyst's cumulative ξ spend under
    /// `fedaqp_server_xi_spent.{identity}`. The spend is *released*
    /// budget accounting — the analyst already observes it through
    /// `BudgetStatus` frames — so exposing it in telemetry leaks nothing
    /// new.
    fn record_xi_spent(&self) {
        if !obs::enabled() {
            return;
        }
        let Some(ledger) = &self.ledger else { return };
        obs::gauge_set(
            &format!("{}.{}", obs::names::SERVER_XI_SPENT, self.analyst),
            obs::ObsValue::from_released(ledger.spent().eps),
        );
    }
}

/// The static kind label of a request frame: its per-kind telemetry
/// family (`fedaqp_server_frames_total.{kind}`). Never request content.
fn request_kind(frame: &Frame) -> &'static str {
    match frame {
        Frame::Plan(_) => "plan",
        Frame::Explain(_) => "explain",
        Frame::BudgetRequest => "budget",
        Frame::Metrics => "metrics",
        Frame::Ingest(_) => "ingest",
        Frame::Fragment(_)
        | Frame::FragmentSummariesRequest
        | Frame::FragmentAllocation(_)
        | Frame::FragmentPartialRequest
        | Frame::FragmentAbort
        | Frame::ExtremeFragment(_)
        | Frame::ShardBoundsRequest => "fragment",
        _ => "other",
    }
}

/// The typed refusal an analyst role answers `frame` with before any
/// engine runs or anything is charged, if it refuses it.
fn refusal(frame: &Frame, ingests: bool) -> Option<Frame> {
    let message = match request_kind(frame) {
        // Fragment frames bypass the analyst budget ledger (they arrive
        // pre-charged from a coordinator) and let a caller pick
        // occurrence indices — an occurrence-differencing oracle.
        "fragment" => "fragment frames are served only by a shard-mode server",
        // A frozen federation's metadata, epochs, and seed never move:
        // accepting rows would silently drop them from every answer.
        "ingest" if !ingests => "ingest frames are served only by a live-mode server",
        // Hello again, or a server-to-client frame: protocol misuse,
        // answered but not fatal.
        "other" => "unexpected frame kind",
        _ => return None,
    };
    Some(error_reply(0, ErrorCode::BadRequest, message))
}

/// Answers one analyst request on any backend: the engine, the
/// coordinator, or a live federation's scoped engine. With a budget
/// ledger, every charge goes through a [`ConcurrentSession`] over the
/// analyst's durable accountant — the session is opened per request, the
/// ledger it charges is not, so connections and reconnects all draw on
/// one `(ξ, ψ)`.
fn handle_request<B: PlanBackend>(backend: &B, conn: &mut Connection, frame: Frame) -> Result<()> {
    let opened = conn.ledger.clone().map(|ledger| {
        ConcurrentSession::open_with_accountant(backend.clone(), ledger, SessionPlan::PayAsYouGo)
    });
    let session = match opened.transpose() {
        Ok(session) => session,
        Err(e) => return conn.send(&core_error_reply(0, &e)),
    };
    let session = session.as_ref();
    match frame {
        Frame::Plan(request) => {
            // Every sub-query is submitted (and the whole plan charged)
            // before the wait — the per-group fan-out pipelines exactly
            // as in-process plans do, and an online plan's snapshots push
            // as its rounds resolve.
            let answer = match submit_plan(backend, session, &request.plan) {
                Ok(pending) => push_snapshots(conn, pending)?,
                Err(e) => Err(e),
            };
            let reply = conn.released(answer.map(|answer| plan_answer_frame(&answer)));
            conn.record_xi_spent();
            conn.send(&reply)
        }
        Frame::Explain(request) => {
            // Explaining runs nothing and charges no budget: the
            // explanation is a pure function of the plan and the public
            // offline metadata (on a live server, the current epoch's).
            let reply = match backend.explain_plan(&request.plan) {
                Ok(explanation) => Frame::ExplainAnswer(ExplainAnswerFrame {
                    index: 0,
                    explanation,
                }),
                Err(e) => core_error_reply(0, &e),
            };
            conn.send(&reply)
        }
        // Every other kind was answered before dispatch (`refusal`,
        // ledger reads, telemetry, live ingest).
        _ => conn.send(&error_reply(
            0,
            ErrorCode::BadRequest,
            "unexpected frame kind",
        )),
    }
}

/// Submits a whole plan: with a session, the plan's entire declared
/// `(ε, δ)` is validated and charged atomically before any sub-query is
/// dispatched (validate-before-charge, whole-plan ξ accounting).
fn submit_plan<B: PlanBackend>(
    backend: &B,
    session: Option<&ConcurrentSession<B>>,
    plan: &QueryPlan,
) -> fedaqp_core::Result<PendingPlan<B>> {
    match session {
        Some(session) => session.submit_plan(plan),
        None => backend.submit_plan(plan),
    }
}

/// Appends one ingest batch to a live federation and acknowledges it.
/// The write side of the lock waits out in-flight requests, applies the
/// batch atomically (append + incremental metadata + epoch bump + seed
/// re-salt), and is released before the ack is written.
fn ingest(
    live: &RwLock<LiveFederation>,
    conn: &mut Connection,
    request: IngestRequest,
) -> Result<()> {
    let rows: Vec<Row> = request
        .rows
        .into_iter()
        .map(|r| Row::cell(r.values, r.measure))
        .collect();
    let reply = match write_live(live).ingest(request.provider as usize, rows) {
        Ok(report) => Frame::IngestAck(IngestAckFrame {
            accepted: report.accepted,
            epoch: report.epoch,
            refreshed: report.refreshed,
        }),
        Err(e) => core_error_reply(0, &e),
    };
    conn.send(&reply)
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
fn serve_fragments(handle: &EngineHandle, conn: &mut Connection) -> Result<()> {
    let mut fragment: Option<PendingFragment> = None;
    while let Some(frame) = conn.next()? {
        let reply = match frame {
            Frame::Fragment(req) => {
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
            Frame::FragmentSummariesRequest => match &fragment {
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
            Frame::FragmentAllocation(frame) => match &fragment {
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
            Frame::FragmentPartialRequest => match &fragment {
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
            Frame::FragmentAbort => {
                // Dropping the pending fragment unparks its workers.
                fragment = None;
                Frame::FragmentAborted
            }
            Frame::ExtremeFragment(req) => {
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
            Frame::ShardBoundsRequest => Frame::ShardBounds(ShardBoundsFrame {
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
            _ => error_reply(
                0,
                ErrorCode::BadRequest,
                "analyst frames are not served in shard mode (connect to the coordinator)",
            ),
        };
        conn.send(&reply)?;
    }
    Ok(())
}

/// The typed reply to a lifecycle frame with no fragment in flight.
fn no_fragment_reply() -> Frame {
    error_reply(
        0,
        ErrorCode::BadRequest,
        "no fragment in flight on this connection",
    )
}

/// Waits out an in-flight plan, pushing one [`Frame::OnlineSnapshot`] per
/// round of an online plan as it resolves (other plans push nothing). The
/// caller closes the conversation with the plan's answer frame, or with a
/// typed error when the backend failed mid-stream (the budget stays spent
/// either way, fail-closed). Transport failures propagate as
/// [`NetError`] and tear the connection down.
fn push_snapshots<B: PlanBackend>(
    conn: &mut Connection,
    pending: PendingPlan<B>,
) -> Result<fedaqp_core::Result<PlanAnswer>> {
    let mut write_err: Option<NetError> = None;
    let answer = pending.wait_streaming(|snapshot| {
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
        if let Err(e) = conn.send(&frame) {
            write_err = Some(e);
        }
    });
    match write_err {
        Some(e) => Err(e),
        None => Ok(answer),
    }
}

/// Builds the typed reply to a frame that could not be read: the version
/// error for a header version this server does not speak (its `index`
/// carries the server's version, as documented on
/// [`ErrorCode::UnsupportedVersion`]), a bad request otherwise.
fn read_error_reply(error: &NetError) -> Frame {
    match error {
        NetError::UnsupportedVersion { requested, .. } => Frame::Error(ErrorFrame {
            index: VERSION as u32,
            code: ErrorCode::UnsupportedVersion,
            message: format!(
                "server speaks wire-protocol version {VERSION}, frame declared {requested}"
            ),
        }),
        _ => error_reply(0, ErrorCode::BadRequest, &error.to_string()),
    }
}

fn hello_ack(config: &FederationConfig, schema: &Schema, options: ServeOptions) -> HelloAck {
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
        calibration: config.estimator_calibration,
        session_budget: options.per_analyst,
    }
}

/// Projects a [`PlanAnswer`] onto the wire: a [`Frame::PlanAnswer`], or
/// the [`Frame::OnlineDone`] that closes an online plan's snapshot
/// stream. Only DP-released data crosses: suppressed groups contribute a
/// count, never their noisy values.
fn plan_answer_frame(answer: &PlanAnswer) -> Frame {
    let us = |d: std::time::Duration| d.as_micros() as u64;
    let t = &answer.timings;
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
        PlanResult::Snapshots { .. } => {
            return Frame::OnlineDone(OnlineDoneFrame {
                index: 0,
                eps: answer.cost.eps,
                delta: answer.cost.delta,
                value: answer.value().unwrap_or(f64::NAN),
                summary_us: us(t.summary),
                allocation_us: us(t.allocation),
                execution_us: us(t.execution),
                release_us: us(t.release),
                network_us: us(t.network),
            })
        }
    };
    Frame::PlanAnswer(PlanAnswerFrame {
        index: 0,
        eps: answer.cost.eps,
        delta: answer.cost.delta,
        result,
        summary_us: us(t.summary),
        allocation_us: us(t.allocation),
        execution_us: us(t.execution),
        release_us: us(t.release),
        network_us: us(t.network),
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

/// The ledger report for a connection: the analyst's ledger, or an
/// uncapped report counting this connection's answered requests.
fn budget_status(ledger: Option<&SharedAccountant>, answered: u64) -> BudgetStatus {
    match ledger {
        Some(ledger) => {
            let (total, spent) = (ledger.total(), ledger.spent());
            BudgetStatus {
                limited: true,
                total_eps: total.eps,
                total_delta: total.delta,
                spent_eps: spent.eps,
                spent_delta: spent.delta,
                queries_answered: ledger.queries_answered(),
            }
        }
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
