//! The remote-shard client: a [`ShardBackend`] over TCP.
//!
//! [`RemoteShard`] lets a [`fedaqp_core::ShardedFederation`] coordinator
//! federate engines running behind [`crate::FederationServer::bind_shard`]
//! servers. Construction fetches the shard's provider count and public
//! pruning bounds once (they are offline metadata — immutable for the
//! server's lifetime).
//!
//! Connections are reused: each `RemoteShard` keeps a private idle pool
//! of handshaken connections. A fragment takes one (or opens one when the
//! pool is empty), carries its whole lifecycle on it, and puts it back
//! only after a clean partial — when the server holds no fragment for it
//! and no reply is unread. A connection carries one fragment at a time,
//! so one slow or dying fragment can never desynchronize a sibling's
//! stream, and the pool never holds more connections than the peak number
//! of simultaneous fragments. Aborted fragments, errors and unexpected
//! frames close their connection, which maps exactly onto the
//! fragment-abort semantics the engine already has (the server's
//! [`fedaqp_core::PendingFragment`] aborts on drop).
//!
//! Within a fragment, requests are pipelined: replies come back in
//! order, so the summaries request leaves right after `FragmentQueued`,
//! and the allocation and partial request leave back to back. A fragment
//! therefore costs three round trips on a warm connection instead of a
//! connect, a handshake and four round trips.
//!
//! Every failure inside the fragment lifecycle surfaces as
//! [`CoreError::ShardUnavailable`] — the typed fault the coordinator's
//! fail-closed contract is built on (`shard: 0` here; the coordinator
//! rewrites it to the failing shard's index). Setup failures in
//! [`RemoteShard::connect`] stay in the richer [`NetError`] vocabulary,
//! because at construction time there is a human reading the message.
//! A fault on any connection also closes the shard's idle connections:
//! a restarted shard leaves all of them stale, and the coordinator's
//! single scatter retry must then reach the shard on a fresh one.
//!
//! Determinism note: nothing in this client touches randomness, and no
//! seed ever crosses the wire — the shard derives its noise from its own
//! configured seed plus the coordinator-assigned occurrence index in the
//! fragment frames.

use std::io::Write;
use std::net::TcpStream;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use fedaqp_core::{
    CoreError, ExtremeFragmentSpec, FragmentHandle, FragmentPartial, FragmentSpec, PartialRow,
    ProviderBounds, ProviderSummary, ShardBackend,
};
use fedaqp_model::Value;
use fedaqp_smc::CostModel;

use crate::wire::{
    encode_frame, read_frame, write_frame, ExtremeFragmentRequest, FragmentAllocationFrame,
    FragmentRequest, Frame, Hello,
};
use crate::{NetError, Result};

/// Simulated shard→coordinator uplink contention, for experiments: all
/// shards sharing one ingress serialize their data-bearing replies
/// through `lock` and sleep the [`CostModel`]'s transfer time for the
/// reply's encoded size. Real deployments leave this off — the real
/// socket *is* the uplink.
#[derive(Debug, Clone)]
struct Uplink {
    cost_model: CostModel,
    lock: Arc<Mutex<()>>,
}

impl Uplink {
    /// Charges the simulated uplink for one reply frame.
    fn charge(&self, frame: &Frame) {
        let bytes = encode_frame(frame).map(|b| b.len() as u64).unwrap_or(0);
        let _ingress = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
        std::thread::sleep(self.cost_model.round_time(bytes));
    }
}

/// A downstream engine shard reached over TCP — the wire implementation
/// of [`ShardBackend`], for [`fedaqp_core::ShardedFederation::from_backends`].
#[derive(Debug, Clone)]
pub struct RemoteShard {
    addr: String,
    bounds: Vec<ProviderBounds>,
    uplink: Option<Uplink>,
    pool: Arc<Pool>,
}

impl RemoteShard {
    /// Connects to a shard-mode server at `addr` and fetches its provider
    /// bounds. The connection used for the fetch is dropped, so the idle
    /// pool starts empty; fragments open connections as they need them.
    pub fn connect(addr: &str) -> Result<Self> {
        let mut conn = ShardConn::open(addr)?;
        conn.send(&[Frame::ShardBoundsRequest])?;
        let providers = match conn.recv()? {
            Frame::ShardBounds(frame) => frame.providers,
            _ => return Err(NetError::Malformed("expected ShardBounds")),
        };
        let bounds = providers
            .into_iter()
            .map(|b| ProviderBounds::new(b.dims, b.n_clusters as usize))
            .collect();
        Ok(Self {
            addr: addr.to_owned(),
            bounds,
            uplink: None,
            pool: Arc::default(),
        })
    }

    /// Enables simulated uplink contention: experiments
    /// give each shard its own `ingress` lock to model per-shard WAN
    /// uplinks (sharding then multiplies the grid's aggregate reply
    /// bandwidth — the scaling the shard benchmark gates), or share one
    /// lock across the grid to model a single coordinator NIC.
    pub fn with_uplink(mut self, cost_model: CostModel, ingress: Arc<Mutex<()>>) -> Self {
        self.uplink = Some(Uplink {
            cost_model,
            lock: ingress,
        });
        self
    }

    /// The shard server's address.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Opens a fresh, handshaken connection to the shard.
    fn open(&self) -> fedaqp_core::Result<ShardConn> {
        ShardConn::open(&self.addr).map_err(|e| unavailable(&e))
    }
}

impl ShardBackend for RemoteShard {
    fn n_providers(&self) -> usize {
        self.bounds.len()
    }

    fn bounds(&self) -> Vec<ProviderBounds> {
        self.bounds.clone()
    }

    fn begin(&self, spec: &FragmentSpec) -> fedaqp_core::Result<Box<dyn FragmentHandle>> {
        let conn = match self.pool.take() {
            Some(conn) => conn,
            None => self.open()?,
        };
        let mut fragment = RemoteFragment {
            conn: Some(conn),
            pool: Arc::clone(&self.pool),
            uplink: self.uplink.clone(),
        };
        fragment.send(&[Frame::Fragment(FragmentRequest {
            query: spec.query.clone(),
            sampling_rate: spec.sampling_rate,
            eps_o: spec.budget.eps_o,
            eps_s: spec.budget.eps_s,
            eps_e: spec.budget.eps_e,
            delta: spec.budget.delta,
            occurrence: spec.occurrence,
        })])?;
        // The fragment must be queued on the shard before `begin` returns
        // (the coordinator's scatter lock orders fragments across shards),
        // so this one reply is awaited here; the summaries request then
        // leaves at once and its reply is read by `summaries`.
        match fragment.recv()? {
            Frame::FragmentQueued => {}
            _ => {
                return Err(fragment.fault(unexpected(
                    "shard answered the fragment with an unexpected frame",
                )))
            }
        }
        fragment.send(&[Frame::FragmentSummariesRequest])?;
        Ok(Box::new(fragment))
    }

    fn extreme(&self, spec: &ExtremeFragmentSpec) -> fedaqp_core::Result<(Value, Duration)> {
        let request = [Frame::ExtremeFragment(ExtremeFragmentRequest {
            dim: spec.dim as u32,
            extreme: spec.extreme,
            epsilon: spec.epsilon,
            occurrence: spec.occurrence,
        })];
        // An idle connection can go stale while pooled (the shard
        // restarted), and extremes get no scatter-level retry, so a
        // pooled connection that fails gets one second try on a fresh
        // connection — the one try a fragment without a pool would get.
        let exchange = |mut conn: ShardConn| -> Result<(ShardConn, Frame)> {
            let reply = conn.request(&request)?;
            Ok((conn, reply))
        };
        let (conn, reply) = match self.pool.take().map(exchange) {
            Some(Ok(done)) => done,
            pooled => {
                if pooled.is_some() {
                    self.pool.clear();
                }
                exchange(self.open()?).map_err(|e| {
                    self.pool.clear();
                    unavailable(&e)
                })?
            }
        };
        match reply {
            Frame::ExtremePartial(partial) => {
                if let Some(uplink) = &self.uplink {
                    uplink.charge(&Frame::ExtremePartial(partial));
                }
                self.pool.put(conn);
                Ok((partial.value, Duration::from_micros(partial.execution_us)))
            }
            _ => {
                self.pool.clear();
                Err(unexpected(
                    "shard answered the extreme fragment with an unexpected frame",
                ))
            }
        }
    }
}

/// A shard's idle, handshaken connections, none with a fragment in
/// flight or a reply unread.
#[derive(Debug, Default)]
struct Pool {
    idle: Mutex<Vec<ShardConn>>,
}

impl Pool {
    fn lock(&self) -> MutexGuard<'_, Vec<ShardConn>> {
        self.idle.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn take(&self) -> Option<ShardConn> {
        self.lock().pop()
    }

    fn put(&self, conn: ShardConn) {
        self.lock().push(conn);
    }

    /// Closes every idle connection.
    fn clear(&self) {
        self.lock().clear();
    }
}

/// One fragment lifecycle on a connection of its own for its duration.
struct RemoteFragment {
    /// `None` once the connection went back to the pool.
    conn: Option<ShardConn>,
    pool: Arc<Pool>,
    uplink: Option<Uplink>,
}

impl RemoteFragment {
    fn conn(&mut self) -> &mut ShardConn {
        self.conn
            .as_mut()
            .expect("a completed fragment is never driven again")
    }

    fn send(&mut self, frames: &[Frame]) -> fedaqp_core::Result<()> {
        let sent = self.conn().send(frames);
        sent.map_err(|e| self.fault(unavailable(&e)))
    }

    fn recv(&mut self) -> fedaqp_core::Result<Frame> {
        let received = self.conn().recv();
        received.map_err(|e| self.fault(unavailable(&e)))
    }

    /// Records a fault on this fragment's connection: the shard's idle
    /// connections are suspect too. The connection itself closes when the
    /// fragment drops.
    fn fault(&self, error: CoreError) -> CoreError {
        self.pool.clear();
        error
    }
}

impl FragmentHandle for RemoteFragment {
    fn summaries(&mut self) -> fedaqp_core::Result<(Vec<ProviderSummary>, Duration)> {
        // `begin` already sent the request.
        match self.recv()? {
            Frame::FragmentSummaries(frame) => {
                if let Some(uplink) = &self.uplink {
                    uplink.charge(&Frame::FragmentSummaries(frame.clone()));
                }
                let summaries = frame
                    .summaries
                    .iter()
                    .enumerate()
                    // Local provider ids; the coordinator remaps them to
                    // the shard's global offset.
                    .map(|(i, s)| ProviderSummary {
                        provider: i,
                        noisy_n_q: s.noisy_n_q,
                        noisy_avg_r: s.noisy_avg_r,
                    })
                    .collect();
                Ok((summaries, Duration::from_micros(frame.summary_us)))
            }
            _ => Err(self.fault(unexpected(
                "shard answered the summaries request with an unexpected frame",
            ))),
        }
    }

    fn allocate(&mut self, allocations: &[u64]) -> fedaqp_core::Result<()> {
        // The partial request rides along; both replies are read by
        // `partial`, so a rejected allocation surfaces there.
        self.send(&[
            Frame::FragmentAllocation(FragmentAllocationFrame {
                allocations: allocations.to_vec(),
            }),
            Frame::FragmentPartialRequest,
        ])
    }

    fn partial(&mut self) -> fedaqp_core::Result<FragmentPartial> {
        match self.recv()? {
            Frame::FragmentAllocated => {}
            _ => {
                return Err(self.fault(unexpected(
                    "shard answered the allocation with an unexpected frame",
                )))
            }
        }
        match self.recv()? {
            Frame::FragmentPartial(frame) => {
                if let Some(uplink) = &self.uplink {
                    uplink.charge(&Frame::FragmentPartial(frame.clone()));
                }
                // The partial completes the lifecycle: the connection
                // holds no fragment and no unread reply.
                if let Some(conn) = self.conn.take() {
                    self.pool.put(conn);
                }
                Ok(FragmentPartial {
                    rows: frame
                        .rows
                        .iter()
                        .map(|r| PartialRow {
                            released: r.released,
                            variance: r.variance,
                            approximated: r.approximated,
                            clusters_scanned: r.clusters_scanned,
                            n_covering: r.n_covering,
                        })
                        .collect(),
                    execution: Duration::from_micros(frame.execution_us),
                })
            }
            _ => Err(self.fault(unexpected(
                "shard answered the partial request with an unexpected frame",
            ))),
        }
    }
}

impl Drop for RemoteFragment {
    fn drop(&mut self) {
        // An incomplete fragment still owns its connection: abort it
        // best-effort and close the connection. If the frame never
        // arrives, the closing socket aborts it anyway (the server's
        // `PendingFragment` unparks its workers on drop).
        if let Some(mut conn) = self.conn.take() {
            let _ = conn.send(&[Frame::FragmentAbort]);
        }
    }
}

/// Maps a connection-level failure onto the coordinator's typed fault.
/// The reasons are static by [`CoreError`]'s design; the full story is in
/// the shard server's log, not in what a failing shard tells an analyst.
fn unavailable(error: &NetError) -> CoreError {
    let reason = match error {
        NetError::Connect { .. } => "connection refused",
        NetError::Disconnected => "shard dropped the connection",
        NetError::Io(_) => "shard connection failed",
        NetError::Remote { .. } => "shard rejected the request",
        NetError::UnsupportedVersion { .. } => "shard speaks an incompatible protocol version",
        _ => "shard protocol error",
    };
    CoreError::ShardUnavailable { shard: 0, reason }
}

/// The typed fault for a well-formed reply of the wrong kind.
fn unexpected(reason: &'static str) -> CoreError {
    CoreError::ShardUnavailable { shard: 0, reason }
}

/// A blocking, handshaken connection to a shard-mode server.
#[derive(Debug)]
struct ShardConn {
    stream: TcpStream,
}

impl ShardConn {
    fn open(addr: &str) -> Result<Self> {
        let mut stream = TcpStream::connect(addr).map_err(|e| NetError::Connect {
            addr: addr.to_owned(),
            message: e.to_string(),
        })?;
        stream.set_nodelay(true).ok();
        write_frame(
            &mut stream,
            &Frame::Hello(Hello {
                analyst: "coordinator".to_owned(),
            }),
        )?;
        let mut conn = Self { stream };
        match conn.recv()? {
            Frame::HelloAck(_) => Ok(conn),
            _ => Err(NetError::Handshake("expected HelloAck")),
        }
    }

    /// Writes `frames` back to back in one write; the server answers
    /// them in order.
    fn send(&mut self, frames: &[Frame]) -> Result<()> {
        let mut bytes = Vec::new();
        for frame in frames {
            bytes.extend(encode_frame(frame)?);
        }
        self.stream.write_all(&bytes)?;
        Ok(())
    }

    /// Reads the next reply, turning a typed error frame into
    /// [`NetError::Remote`].
    fn recv(&mut self) -> Result<Frame> {
        match read_frame(&mut self.stream)? {
            Frame::Error(e) => Err(NetError::Remote {
                code: e.code,
                message: e.message,
            }),
            frame => Ok(frame),
        }
    }

    /// One request and its reply.
    fn request(&mut self, frames: &[Frame]) -> Result<Frame> {
        self.send(frames)?;
        self.recv()
    }
}
