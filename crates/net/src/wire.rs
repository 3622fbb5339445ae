//! The versioned, length-prefixed binary wire protocol.
//!
//! Every message on a federation connection is one *frame*:
//!
//! ```text
//! magic   u32  = 0x4651_4E50  ("FQNP")
//! version u16  (1, 2, 3, 4, 5 or 6; see below)
//! kind    u8
//! len     u32  (payload bytes; hard-capped at MAX_PAYLOAD)
//! payload [len bytes]
//! ```
//!
//! All integers are little-endian, matching `fedaqp_storage::codec`. The
//! codec is hand-rolled in the same defensive style: every declared count
//! is bounded by [`fedaqp_storage::declared_len_fits`] before it is
//! trusted, truncation anywhere fails loudly, and a payload that decodes
//! without consuming every byte is rejected (`trailing bytes`) — a frame
//! either round-trips exactly or it is an error.
//!
//! **Versioning.** The codec speaks every version in
//! `MIN_VERSION..=VERSION`. A client stamps its frames with the highest
//! version it supports; the server answers at
//! `min(client version, VERSION)` and advertises its own maximum in
//! [`HelloAck::max_version`] (a field that only exists on the wire from
//! v2 — a v1 `HelloAck` payload is byte-identical to what a v1 server
//! sent). v2 adds the plan frames ([`Frame::Plan`] / [`Frame::PlanAnswer`]);
//! v3 adds the explain frames ([`Frame::Explain`] /
//! [`Frame::ExplainAnswer`]); v4 adds the *shard fragment* frames a
//! scatter–gather coordinator speaks to a downstream shard server (see
//! below); v5 adds the metrics admin frames ([`Frame::Metrics`] /
//! [`Frame::MetricsAnswer`]) — a public-data-only telemetry snapshot
//! served by both analyst and coordinator listeners; v6 adds the live
//! federation frames: the server-push progressive answers
//! ([`Frame::OnlinePlan`] ⇒ a stream of [`Frame::OnlineSnapshot`] closed
//! by one [`Frame::OnlineDone`]) and the streaming-ingest path
//! ([`Frame::Ingest`] ⇒ [`Frame::IngestAck`]). Each version leaves
//! every earlier frame kind byte-identical, so v1 through v5 clients
//! work against a v6 server verbatim. A header with a version outside the supported range
//! fails with [`NetError::UnsupportedVersion`] *before* any payload is
//! read — servers answer it with a typed
//! [`ErrorCode::UnsupportedVersion`] frame (whose `index` field carries
//! the server's maximum version) instead of hanging up bare. (Servers
//! built *before* this negotiation existed reject a v2 Hello with a
//! generic error instead; compatibility is guaranteed in the
//! v1-client-to-v2-server direction.)
//!
//! Conversation shape (client ⇒ server unless noted):
//!
//! * [`Frame::Hello`] opens a connection; the server replies with
//!   [`Frame::HelloAck`] (schema, defaults, session budget) or a typed
//!   [`Frame::Error`].
//! * [`Frame::Query`] / [`Frame::Batch`] submit work; the server replies
//!   with one [`Frame::Answer`] or [`Frame::Error`] per query, in
//!   submission order.
//! * [`Frame::Plan`] (v2) submits one [`QueryPlan`]; the server replies
//!   with one [`Frame::PlanAnswer`] or [`Frame::Error`].
//! * [`Frame::Explain`] (v3) asks what the optimizer would decide about a
//!   [`QueryPlan`] *without running it*; the server replies with one
//!   [`Frame::ExplainAnswer`] (carrying a [`PlanExplanation`]) or
//!   [`Frame::Error`]. Explaining charges no budget — the explanation is
//!   computed from the plan and public offline metadata only.
//! * [`Frame::BudgetRequest`] asks for the session ledger; the server
//!   replies with [`Frame::BudgetStatus`].
//! * [`Frame::Metrics`] (v5) asks for the server's telemetry snapshot;
//!   the server replies with one [`Frame::MetricsAnswer`] carrying flat
//!   `(name, value)` samples. Every sample passed the `fedaqp-obs`
//!   `ObsValue` provenance boundary — durations,
//!   counts, public metadata, and already-released budget spend only;
//!   raw estimates and sensitivities are unrepresentable (pinned by the
//!   adversarial frame-hygiene scan).
//! * [`Frame::OnlinePlan`] (v6) submits one progressive (online
//!   aggregation) plan; the server validates, charges the *whole*
//!   `(ε, δ)` atomically up front (fail-closed), then pushes one
//!   [`Frame::OnlineSnapshot`] per round **as each round completes** and
//!   closes the stream with one [`Frame::OnlineDone`] (or a
//!   [`Frame::Error`]). Every snapshot value is a DP release under the
//!   plan's per-round `(ε/k, δ/k)` — nothing pre-noise is pushed.
//! * [`Frame::Ingest`] (v6) appends a batch of rows to one provider of a
//!   server started in *live mode*; the server replies with
//!   [`Frame::IngestAck`] (rows accepted, new data epoch, whether the
//!   staleness policy triggered a full metadata recompute). Non-live
//!   servers refuse ingest with a typed error.
//!
//! **Shard fragment frames (v4, coordinator ⇒ shard).** A server started
//! in *shard mode* serves a scatter–gather coordinator instead of
//! analysts. A connection carries one fragment at a time through its
//! lifecycle, and is reused for fragment after fragment; replies come
//! back in request order, so a client may pipeline a lifecycle's requests
//! (the summaries request right behind the queued acknowledgement, the
//! partial request right behind the allocation). The lifecycle:
//! [`Frame::Fragment`] ⇒ [`Frame::FragmentQueued`];
//! [`Frame::FragmentSummariesRequest`] ⇒ [`Frame::FragmentSummaries`]
//! (per-provider DP summaries, local provider order);
//! [`Frame::FragmentAllocation`] (the coordinator's globally solved
//! slice) ⇒ [`Frame::FragmentAllocated`];
//! [`Frame::FragmentPartialRequest`] ⇒ [`Frame::FragmentPartial`] (the
//! mergeable per-provider releases). [`Frame::FragmentAbort`] ⇒
//! [`Frame::FragmentAborted`] tears a begun fragment down.
//! [`Frame::ExtremeFragment`] ⇒ [`Frame::ExtremePartial`] runs a MIN/MAX
//! fragment in one round trip, and [`Frame::ShardBoundsRequest`] ⇒
//! [`Frame::ShardBounds`] publishes the shard's offline pruning metadata
//! at coordinator construction. A shard-mode server accepts *only*
//! fragment frames (analyst frames are refused — a party that can mix
//! both against one shard could difference the occurrence ledger), and
//! an analyst-mode server refuses fragment frames (they carry an
//! explicit, pre-charged budget, so accepting them from analysts would
//! bypass the session ledger). Seeds never cross the wire: operators
//! configure every shard with the deployment seed out of band.
//!
//! What is *not* on the wire is as deliberate as what is: a provider's raw
//! (pre-noise) estimate and smooth sensitivities are simulation-boundary
//! diagnostics and never leave the server (see the README threat-model
//! note) — and a plan answer carries only the released groups/values, never
//! the suppressed groups' noisy values.

use std::io::{Read, Write};
use std::ops::RangeInclusive;

use bytes::{Buf, BufMut, BytesMut};
use fedaqp_core::{EstimatorCalibration, OptimizerConfig, PlanExplanation, SubQueryExplanation};
use fedaqp_model::{Aggregate, DerivedStatistic, Extreme, QueryPlan, Range, RangeQuery};
use fedaqp_storage::declared_len_fits;

use crate::{NetError, Result};

/// Frame magic ("FQNP").
pub const MAGIC: u32 = 0x4651_4E50;
/// Highest wire-protocol version this build speaks (and the version the
/// client stamps its frames with).
pub const VERSION: u16 = 6;
/// Lowest wire-protocol version this build still accepts.
pub const MIN_VERSION: u16 = 1;
/// Hard cap on a frame payload. Nothing legitimate comes close (the
/// largest frame is a maximal batch at well under 200 KiB); anything
/// larger is a hostile or corrupt length prefix.
pub const MAX_PAYLOAD: u32 = 1 << 20;
/// Frame header size: magic + version + kind + payload length.
pub const HEADER_BYTES: usize = 4 + 2 + 1 + 4;

/// Caps on declared collection sizes inside payloads. All are generous
/// for real deployments while keeping worst-case decode work tiny.
const MAX_STRING: usize = 1024;
const MAX_BATCH: usize = 4096;
/// Rows one `Ingest` frame may carry (the `MAX_BATCH` collection cap,
/// exported so clients can chunk larger batches themselves).
pub const MAX_INGEST_ROWS: usize = MAX_BATCH;
const MAX_DIMS: usize = 1024;
const MAX_RANGES: usize = 1024;
const MAX_ALLOCATIONS: usize = 4096;
/// Cap on groups in a plan answer — matches the engine's default
/// group-domain cap (`FederationConfig::max_group_domain`).
const MAX_GROUPS: usize = 4096;
/// Cap on sub-queries in an explanation: a maximal group-by with a
/// derived statistic fans out to three sub-queries per key plus the
/// shared base probe.
const MAX_SUBQUERIES: usize = 3 * MAX_GROUPS + 1;
/// Cap on samples in a metrics answer (static catalog + labeled families
/// stay far below this).
const MAX_METRICS: usize = 4096;

const KIND_HELLO: u8 = 1;
const KIND_HELLO_ACK: u8 = 2;
const KIND_QUERY: u8 = 3;
const KIND_BATCH: u8 = 4;
const KIND_ANSWER: u8 = 5;
const KIND_ERROR: u8 = 6;
const KIND_BUDGET_REQUEST: u8 = 7;
const KIND_BUDGET_STATUS: u8 = 8;
const KIND_PLAN: u8 = 9;
const KIND_PLAN_ANSWER: u8 = 10;
const KIND_EXPLAIN: u8 = 11;
const KIND_EXPLAIN_ANSWER: u8 = 12;
const KIND_FRAGMENT: u8 = 13;
const KIND_FRAGMENT_QUEUED: u8 = 14;
const KIND_FRAGMENT_SUMMARIES_REQUEST: u8 = 15;
const KIND_FRAGMENT_SUMMARIES: u8 = 16;
const KIND_FRAGMENT_ALLOCATION: u8 = 17;
const KIND_FRAGMENT_ALLOCATED: u8 = 18;
const KIND_FRAGMENT_PARTIAL_REQUEST: u8 = 19;
const KIND_FRAGMENT_PARTIAL: u8 = 20;
const KIND_FRAGMENT_ABORT: u8 = 21;
const KIND_FRAGMENT_ABORTED: u8 = 22;
const KIND_EXTREME_FRAGMENT: u8 = 23;
const KIND_EXTREME_PARTIAL: u8 = 24;
const KIND_SHARD_BOUNDS_REQUEST: u8 = 25;
const KIND_SHARD_BOUNDS: u8 = 26;
const KIND_METRICS: u8 = 27;
const KIND_METRICS_ANSWER: u8 = 28;
const KIND_ONLINE_PLAN: u8 = 29;
const KIND_ONLINE_SNAPSHOT: u8 = 30;
const KIND_ONLINE_DONE: u8 = 31;
const KIND_INGEST: u8 = 32;
const KIND_INGEST_ACK: u8 = 33;

/// A connection-opening frame: the analyst declares an identity the
/// server keys budget ledgers by.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hello {
    /// The analyst's identity (budget-ledger key on the server).
    pub analyst: String,
}

/// One schema dimension as published to remote analysts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireDimension {
    /// Dimension name.
    pub name: String,
    /// Domain minimum.
    pub min: i64,
    /// Domain maximum.
    pub max: i64,
}

/// The server's handshake reply: everything a remote analyst needs to
/// form queries without local data access.
#[derive(Debug, Clone, PartialEq)]
pub struct HelloAck {
    /// The public table schema.
    pub dimensions: Vec<WireDimension>,
    /// Number of data providers behind the federation.
    pub n_providers: u32,
    /// Default per-query ε.
    pub epsilon: f64,
    /// Default per-query δ.
    pub delta: f64,
    /// The server's Hansen–Hurwitz calibration (see
    /// [`calibration_code`]).
    pub calibration: u8,
    /// The per-analyst session budget `(ξ, ψ)`; `None` when the server
    /// imposes no session cap.
    pub session_budget: Option<(f64, f64)>,
    /// The highest wire-protocol version the server speaks. Only on the
    /// wire from v2 — decoding a v1 `HelloAck` sets it to 1, which is
    /// exactly what a v1 server supports.
    pub max_version: u16,
}

/// One private range-aggregate query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRequest {
    /// The range query.
    pub query: RangeQuery,
    /// The sampling rate `sr ∈ (0, 1)` (validated server-side).
    pub sampling_rate: f64,
}

/// An ordered set of queries; the server answers each in order.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchRequest {
    /// The queries, in submission order.
    pub specs: Vec<QueryRequest>,
}

/// The released answer to one query.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    /// Position within the submitted batch (0 for a lone query).
    pub index: u32,
    /// The DP-released value.
    pub value: f64,
    /// ε charged.
    pub eps: f64,
    /// δ charged.
    pub delta: f64,
    /// 95% sampling confidence half-width, when estimable.
    pub ci_halfwidth: Option<f64>,
    /// Total clusters scanned across providers.
    pub clusters_scanned: u64,
    /// Total covering-set size across providers.
    pub covering_total: u64,
    /// Providers that took the approximate path.
    pub approximated_providers: u32,
    /// Per-provider sample-size allocations.
    pub allocations: Vec<u64>,
    /// Summary-phase time, microseconds.
    pub summary_us: u64,
    /// Allocation-phase time, microseconds.
    pub allocation_us: u64,
    /// Execution-phase time, microseconds.
    pub execution_us: u64,
    /// Release-phase time, microseconds.
    pub release_us: u64,
    /// Simulated network time, microseconds.
    pub network_us: u64,
}

/// Typed error classes a server reports per query or per connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The analyst's session `(ξ, ψ)` cannot afford the query.
    BudgetExhausted,
    /// The query itself is invalid (unknown dimension, empty range, …).
    InvalidQuery,
    /// The sampling rate is outside `(0, 1)`.
    InvalidSamplingRate,
    /// The request was malformed or arrived out of protocol order.
    BadRequest,
    /// The server failed internally.
    Internal,
    /// The client's frame header declared a wire-protocol version the
    /// server does not speak. The error frame's `index` field carries the
    /// server's maximum supported version so the client can surface both
    /// sides of the failed negotiation.
    UnsupportedVersion,
    /// A downstream engine shard refused a connection or dropped
    /// mid-plan (v4; reported by a coordinator to its analysts). The
    /// plan's already-charged budget stays charged — fail-closed.
    ShardUnavailable,
}

impl ErrorCode {
    fn to_u8(self) -> u8 {
        match self {
            ErrorCode::BudgetExhausted => 1,
            ErrorCode::InvalidQuery => 2,
            ErrorCode::InvalidSamplingRate => 3,
            ErrorCode::BadRequest => 4,
            ErrorCode::Internal => 5,
            ErrorCode::UnsupportedVersion => 6,
            ErrorCode::ShardUnavailable => 7,
        }
    }

    fn from_u8(code: u8) -> Result<Self> {
        match code {
            1 => Ok(ErrorCode::BudgetExhausted),
            2 => Ok(ErrorCode::InvalidQuery),
            3 => Ok(ErrorCode::InvalidSamplingRate),
            4 => Ok(ErrorCode::BadRequest),
            5 => Ok(ErrorCode::Internal),
            6 => Ok(ErrorCode::UnsupportedVersion),
            7 => Ok(ErrorCode::ShardUnavailable),
            _ => Err(NetError::Malformed("unknown error code")),
        }
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            ErrorCode::BudgetExhausted => "budget-exhausted",
            ErrorCode::InvalidQuery => "invalid-query",
            ErrorCode::InvalidSamplingRate => "invalid-sampling-rate",
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::Internal => "internal",
            ErrorCode::UnsupportedVersion => "unsupported-version",
            ErrorCode::ShardUnavailable => "shard-unavailable",
        };
        f.write_str(name)
    }
}

/// A typed error for one query (or the whole connection).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorFrame {
    /// Position within the submitted batch (0 for connection-level).
    pub index: u32,
    /// The typed error class.
    pub code: ErrorCode,
    /// Human-readable detail (capped at 1 KiB on the wire).
    pub message: String,
}

/// The session ledger as reported to the analyst.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetStatus {
    /// Whether the server caps this analyst's session at all.
    pub limited: bool,
    /// Total ξ granted (∞ when unlimited).
    pub total_eps: f64,
    /// Total ψ granted.
    pub total_delta: f64,
    /// ε spent so far.
    pub spent_eps: f64,
    /// δ spent so far.
    pub spent_delta: f64,
    /// Queries successfully charged so far.
    pub queries_answered: u64,
}

/// One released group on the wire.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireGroup {
    /// The group key.
    pub key: i64,
    /// The noisy aggregate (or derived statistic) for the group.
    pub value: f64,
    /// 95% sampling confidence half-width, when estimable.
    pub ci_halfwidth: Option<f64>,
}

/// The shape-specific part of a [`PlanAnswerFrame`] — the wire projection
/// of `fedaqp_core::PlanResult`.
#[derive(Debug, Clone, PartialEq)]
pub enum WirePlanResult {
    /// A scalar or derived-statistic release.
    Value {
        /// The DP-released value.
        value: f64,
        /// 95% sampling confidence half-width, when estimable.
        ci_halfwidth: Option<f64>,
    },
    /// A GROUP-BY release, ascending by key.
    Groups {
        /// Released groups (count capped at the group-domain cap).
        groups: Vec<WireGroup>,
        /// Groups suppressed by the significance threshold.
        suppressed: u64,
    },
    /// A private MIN/MAX selection.
    Extreme {
        /// The selected domain value.
        value: i64,
    },
}

/// One plan submission (client → server, v2).
#[derive(Debug, Clone, PartialEq)]
pub struct PlanRequest {
    /// The plan, complete with sampling rate and `(ε, δ)` spend.
    pub plan: QueryPlan,
}

/// The released answer to one plan (server → client, v2).
#[derive(Debug, Clone, PartialEq)]
pub struct PlanAnswerFrame {
    /// Position within the submitted stream (0 for a lone plan).
    pub index: u32,
    /// ε charged for the whole plan.
    pub eps: f64,
    /// δ charged for the whole plan.
    pub delta: f64,
    /// The released result.
    pub result: WirePlanResult,
    /// Summary-phase time (max over concurrent sub-queries), microseconds.
    pub summary_us: u64,
    /// Allocation-phase time, microseconds.
    pub allocation_us: u64,
    /// Execution-phase time, microseconds.
    pub execution_us: u64,
    /// Release-phase time, microseconds.
    pub release_us: u64,
    /// Simulated network time (overlapped transit), microseconds.
    pub network_us: u64,
}

/// One fragment submission (coordinator → shard, v4): everything a shard
/// needs to run its slice of one private sub-query. The budget arrives
/// pre-split (the coordinator already validated and charged it), and the
/// occurrence index comes from the coordinator's ledger — the shard's own
/// ledger is never consulted for fragments.
#[derive(Debug, Clone, PartialEq)]
pub struct FragmentRequest {
    /// The range query.
    pub query: RangeQuery,
    /// Sampling rate `sr ∈ (0, 1)`.
    pub sampling_rate: f64,
    /// Allocation-phase budget `ε_O`.
    pub eps_o: f64,
    /// Sampling-phase budget `ε_S`.
    pub eps_s: f64,
    /// Estimation-phase budget `ε_E`.
    pub eps_e: f64,
    /// Failure probability `δ`.
    pub delta: f64,
    /// Coordinator-assigned occurrence index for the noise derivation.
    pub occurrence: u64,
}

/// One provider's DP summary inside a [`FragmentSummariesFrame`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireSummary {
    /// Noisy covering-set size `Ñ^Q` (Eq. 5).
    pub noisy_n_q: f64,
    /// Noisy average cluster proportion `Avg(R̂)~`.
    pub noisy_avg_r: f64,
}

/// The shard's step-2 summaries (shard → coordinator, v4), in local
/// provider order.
#[derive(Debug, Clone, PartialEq)]
pub struct FragmentSummariesFrame {
    /// One summary per local provider.
    pub summaries: Vec<WireSummary>,
    /// Wall time of the shard's slowest provider's summary, microseconds.
    pub summary_us: u64,
}

/// The coordinator's globally solved allocation slice for this shard
/// (coordinator → shard, v4), in local provider order.
#[derive(Debug, Clone, PartialEq)]
pub struct FragmentAllocationFrame {
    /// Per-provider sample sizes `s_i`.
    pub allocations: Vec<u64>,
}

/// One provider's row of a fragment partial — the wire projection of
/// `fedaqp_core::PartialRow`. Only the *released* value crosses the
/// wire; raw estimates and smooth sensitivities stay on the shard.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WirePartialRow {
    /// The provider's locally noised release.
    pub released: f64,
    /// Hansen–Hurwitz variance, when estimable (public CI accounting).
    pub variance: Option<f64>,
    /// Whether the provider approximated.
    pub approximated: bool,
    /// Clusters scanned.
    pub clusters_scanned: u64,
    /// Covering-set size `N^Q`.
    pub n_covering: u64,
}

/// The shard's mergeable partial (shard → coordinator, v4), in local
/// provider order.
#[derive(Debug, Clone, PartialEq)]
pub struct FragmentPartialFrame {
    /// One row per local provider.
    pub rows: Vec<WirePartialRow>,
    /// Wall time of the shard's slowest provider, microseconds.
    pub execution_us: u64,
}

/// One MIN/MAX fragment (coordinator → shard, v4); the shard answers
/// with an [`ExtremePartialFrame`] in the same round trip.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExtremeFragmentRequest {
    /// The selected dimension.
    pub dim: u32,
    /// MIN or MAX.
    pub extreme: Extreme,
    /// Per-provider EM budget.
    pub epsilon: f64,
    /// Coordinator-assigned occurrence index.
    pub occurrence: u64,
}

/// The shard-local MIN/MAX selection (shard → coordinator, v4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExtremePartialFrame {
    /// The shard's combined selection over its providers.
    pub value: i64,
    /// Wall time of the shard's slowest provider, microseconds.
    pub execution_us: u64,
}

/// One provider's public pruning bounds inside a [`ShardBoundsFrame`].
#[derive(Debug, Clone, PartialEq)]
pub struct WireProviderBounds {
    /// Per-dimension `(min, max)` over the provider's data; `None` for a
    /// dimension without metadata (never prunable on it).
    pub dims: Vec<Option<(i64, i64)>>,
    /// The provider's cluster count (the optimizer's cost unit).
    pub n_clusters: u64,
}

/// The shard's offline pruning metadata (shard → coordinator, v4), in
/// local provider order — what the coordinator concatenates into the
/// global snapshot at construction.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardBoundsFrame {
    /// One bounds entry per local provider.
    pub providers: Vec<WireProviderBounds>,
}

/// One metric sample inside a [`MetricsAnswerFrame`]: a flat name/value
/// pair from the server's `fedaqp-obs` registry snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct WireMetric {
    /// Metric name (static catalog entry or a labeled family member).
    pub name: String,
    /// The sample value. On the serving side every value entered the
    /// registry through the `ObsValue` provenance boundary: durations,
    /// counts, public metadata, and already-released budget spend only.
    pub value: f64,
}

/// The server's telemetry snapshot (server → client, v5).
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsAnswerFrame {
    /// Flat samples, sorted by name.
    pub metrics: Vec<WireMetric>,
}

/// One progressive (online aggregation) plan submission (client → server,
/// v6). The server answers with `rounds` [`OnlineSnapshotFrame`]s pushed
/// as each round completes, closed by one [`OnlineDoneFrame`].
#[derive(Debug, Clone, PartialEq)]
pub struct OnlinePlanRequest {
    /// The range query to refine progressively.
    pub query: RangeQuery,
    /// Final-round sampling rate `sr ∈ (0, 1)`.
    pub sampling_rate: f64,
    /// Total ε across all rounds (each round spends `ε/rounds`).
    pub epsilon: f64,
    /// Total δ across all rounds.
    pub delta: f64,
    /// Number of progressive releases.
    pub rounds: u32,
}

/// One server-pushed progressive release (server → client, v6). Only the
/// DP-released running estimate and public work counters cross the wire.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlineSnapshotFrame {
    /// Position within the submitted stream (0 for a lone plan).
    pub index: u32,
    /// Round number (1-based).
    pub round: u32,
    /// Total rounds in the plan.
    pub rounds: u32,
    /// Fraction of the final sample this round used (`round/rounds`).
    pub sample_fraction: f64,
    /// The DP-released running estimate.
    pub value: f64,
    /// 95% sampling confidence half-width, when estimable.
    pub ci_halfwidth: Option<f64>,
    /// Clusters scanned across providers up to this snapshot.
    pub clusters_scanned: u64,
}

/// The close of an online-plan stream (server → client, v6): the total
/// charge and the final released value, plus the plan's phase timings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlineDoneFrame {
    /// Position within the submitted stream (0 for a lone plan).
    pub index: u32,
    /// ε charged for the whole plan (all rounds).
    pub eps: f64,
    /// δ charged for the whole plan.
    pub delta: f64,
    /// The final snapshot's released value, repeated for convenience.
    pub value: f64,
    /// Summary-phase time (max over rounds), microseconds.
    pub summary_us: u64,
    /// Allocation-phase time, microseconds.
    pub allocation_us: u64,
    /// Execution-phase time, microseconds.
    pub execution_us: u64,
    /// Release-phase time, microseconds.
    pub release_us: u64,
    /// Simulated network time, microseconds.
    pub network_us: u64,
}

/// One row of an ingest batch: dimension values plus the cell measure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireRow {
    /// Per-dimension values, schema order.
    pub values: Vec<i64>,
    /// The cell measure (1 for a raw tabular row).
    pub measure: u64,
}

/// One streaming-ingest batch (client → server, v6): rows to append to
/// one provider of a live federation. The batch is atomic server-side.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IngestRequest {
    /// The target provider (federation-local id).
    pub provider: u32,
    /// The rows to append.
    pub rows: Vec<WireRow>,
}

/// The server's ingest receipt (server → client, v6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestAckFrame {
    /// Rows appended (the whole batch, or zero).
    pub accepted: u64,
    /// The federation's data epoch after the ingest.
    pub epoch: u64,
    /// Whether the staleness policy triggered a full metadata recompute.
    pub refreshed: bool,
}

/// One explain request (client → server, v3): what would the optimizer
/// decide about this plan? Nothing runs and no budget is charged.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplainRequest {
    /// The plan to explain, complete with sampling rate and `(ε, δ)`.
    pub plan: QueryPlan,
}

/// The explanation of one plan (server → client, v3).
#[derive(Debug, Clone, PartialEq)]
pub struct ExplainAnswerFrame {
    /// Position within the submitted stream (0 for a lone request).
    pub index: u32,
    /// The optimizer's structured decisions for the plan.
    pub explanation: PlanExplanation,
}

/// Every message of the wire protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Connection opening (client → server).
    Hello(Hello),
    /// Handshake reply (server → client).
    HelloAck(HelloAck),
    /// One query (client → server).
    Query(QueryRequest),
    /// A batch of queries (client → server).
    Batch(BatchRequest),
    /// One answer (server → client).
    Answer(Answer),
    /// A typed error (server → client).
    Error(ErrorFrame),
    /// Ledger inquiry (client → server; empty payload).
    BudgetRequest,
    /// Ledger report (server → client).
    BudgetStatus(BudgetStatus),
    /// One plan submission (client → server; v2).
    Plan(PlanRequest),
    /// One plan answer (server → client; v2).
    PlanAnswer(PlanAnswerFrame),
    /// One explain request (client → server; v3).
    Explain(ExplainRequest),
    /// One explain answer (server → client; v3).
    ExplainAnswer(ExplainAnswerFrame),
    /// One fragment submission (coordinator → shard; v4).
    Fragment(FragmentRequest),
    /// Fragment accepted and queued (shard → coordinator; v4).
    FragmentQueued,
    /// Ask for the fragment's summaries (coordinator → shard; v4).
    FragmentSummariesRequest,
    /// The fragment's per-provider summaries (shard → coordinator; v4).
    FragmentSummaries(FragmentSummariesFrame),
    /// The globally solved allocation slice (coordinator → shard; v4).
    FragmentAllocation(FragmentAllocationFrame),
    /// Allocation delivered to the workers (shard → coordinator; v4).
    FragmentAllocated,
    /// Ask for the fragment's partial (coordinator → shard; v4).
    FragmentPartialRequest,
    /// The fragment's mergeable partial (shard → coordinator; v4).
    FragmentPartial(FragmentPartialFrame),
    /// Abort a begun fragment (coordinator → shard; v4).
    FragmentAbort,
    /// Fragment torn down (shard → coordinator; v4).
    FragmentAborted,
    /// One MIN/MAX fragment (coordinator → shard; v4).
    ExtremeFragment(ExtremeFragmentRequest),
    /// The shard-local MIN/MAX selection (shard → coordinator; v4).
    ExtremePartial(ExtremePartialFrame),
    /// Ask for the shard's pruning metadata (coordinator → shard; v4).
    ShardBoundsRequest,
    /// The shard's pruning metadata (shard → coordinator; v4).
    ShardBounds(ShardBoundsFrame),
    /// Telemetry snapshot inquiry (client → server; v5; empty payload).
    Metrics,
    /// The server's telemetry snapshot (server → client; v5).
    MetricsAnswer(MetricsAnswerFrame),
    /// One progressive-plan submission (client → server; v6).
    OnlinePlan(OnlinePlanRequest),
    /// One server-pushed progressive release (server → client; v6).
    OnlineSnapshot(OnlineSnapshotFrame),
    /// The close of an online-plan stream (server → client; v6).
    OnlineDone(OnlineDoneFrame),
    /// One streaming-ingest batch (client → server; v6).
    Ingest(IngestRequest),
    /// The server's ingest receipt (server → client; v6).
    IngestAck(IngestAckFrame),
}

impl Frame {
    /// The frame's kind byte on the wire.
    fn kind(&self) -> u8 {
        match self {
            Frame::Hello(_) => KIND_HELLO,
            Frame::HelloAck(_) => KIND_HELLO_ACK,
            Frame::Query(_) => KIND_QUERY,
            Frame::Batch(_) => KIND_BATCH,
            Frame::Answer(_) => KIND_ANSWER,
            Frame::Error(_) => KIND_ERROR,
            Frame::BudgetRequest => KIND_BUDGET_REQUEST,
            Frame::BudgetStatus(_) => KIND_BUDGET_STATUS,
            Frame::Plan(_) => KIND_PLAN,
            Frame::PlanAnswer(_) => KIND_PLAN_ANSWER,
            Frame::Explain(_) => KIND_EXPLAIN,
            Frame::ExplainAnswer(_) => KIND_EXPLAIN_ANSWER,
            Frame::Fragment(_) => KIND_FRAGMENT,
            Frame::FragmentQueued => KIND_FRAGMENT_QUEUED,
            Frame::FragmentSummariesRequest => KIND_FRAGMENT_SUMMARIES_REQUEST,
            Frame::FragmentSummaries(_) => KIND_FRAGMENT_SUMMARIES,
            Frame::FragmentAllocation(_) => KIND_FRAGMENT_ALLOCATION,
            Frame::FragmentAllocated => KIND_FRAGMENT_ALLOCATED,
            Frame::FragmentPartialRequest => KIND_FRAGMENT_PARTIAL_REQUEST,
            Frame::FragmentPartial(_) => KIND_FRAGMENT_PARTIAL,
            Frame::FragmentAbort => KIND_FRAGMENT_ABORT,
            Frame::FragmentAborted => KIND_FRAGMENT_ABORTED,
            Frame::ExtremeFragment(_) => KIND_EXTREME_FRAGMENT,
            Frame::ExtremePartial(_) => KIND_EXTREME_PARTIAL,
            Frame::ShardBoundsRequest => KIND_SHARD_BOUNDS_REQUEST,
            Frame::ShardBounds(_) => KIND_SHARD_BOUNDS,
            Frame::Metrics => KIND_METRICS,
            Frame::MetricsAnswer(_) => KIND_METRICS_ANSWER,
            Frame::OnlinePlan(_) => KIND_ONLINE_PLAN,
            Frame::OnlineSnapshot(_) => KIND_ONLINE_SNAPSHOT,
            Frame::OnlineDone(_) => KIND_ONLINE_DONE,
            Frame::Ingest(_) => KIND_INGEST,
            Frame::IngestAck(_) => KIND_INGEST_ACK,
        }
    }

    /// The oldest protocol version that carries this frame kind — the
    /// one declaration of it, a table in this module. The codec refuses
    /// the kind below it, the server refuses such a request before
    /// anything is charged, and the client refuses to send it.
    pub fn min_version(&self) -> u16 {
        kind_floor(self.kind()).map_or(MIN_VERSION, |(version, _)| version)
    }
}

/// Every frame kind newer than v1: the kind range, the protocol version
/// that introduced it, and the codec's error for an older stream. This is
/// the one declaration of each kind's minimum version.
const KIND_FLOORS: [(RangeInclusive<u8>, u16, &str); 5] = [
    (
        KIND_PLAN..=KIND_PLAN_ANSWER,
        2,
        "plan frames need protocol v2",
    ),
    (
        KIND_EXPLAIN..=KIND_EXPLAIN_ANSWER,
        3,
        "explain frames need protocol v3",
    ),
    (
        KIND_FRAGMENT..=KIND_SHARD_BOUNDS,
        4,
        "fragment frames need protocol v4",
    ),
    (
        KIND_METRICS..=KIND_METRICS_ANSWER,
        5,
        "metrics frames need protocol v5",
    ),
    (
        KIND_ONLINE_PLAN..=KIND_INGEST_ACK,
        6,
        "live-federation frames need protocol v6",
    ),
];

/// The minimum version of `kind` and the codec's error below it, when the
/// kind is newer than v1.
fn kind_floor(kind: u8) -> Option<(u16, &'static str)> {
    KIND_FLOORS
        .iter()
        .find(|(kinds, ..)| kinds.contains(&kind))
        .map(|&(_, version, error)| (version, error))
}

/// Refuses a frame of `kind` on a stream negotiated below its version.
fn check_version(kind: u8, version: u16) -> Result<()> {
    match kind_floor(kind) {
        Some((min, error)) if version < min => Err(NetError::Malformed(error)),
        _ => Ok(()),
    }
}

/// Wire code of an [`EstimatorCalibration`] (`0` = EM, `1` = PPS).
pub fn calibration_code(calibration: EstimatorCalibration) -> u8 {
    match calibration {
        EstimatorCalibration::EmCalibrated => 0,
        EstimatorCalibration::PpsEq3 => 1,
    }
}

/// Inverse of [`calibration_code`].
pub fn calibration_from_code(code: u8) -> Result<EstimatorCalibration> {
    match code {
        0 => Ok(EstimatorCalibration::EmCalibrated),
        1 => Ok(EstimatorCalibration::PpsEq3),
        _ => Err(NetError::Malformed("unknown calibration code")),
    }
}

// ---------------------------------------------------------------- encode

fn put_string(buf: &mut BytesMut, text: &str) -> Result<()> {
    if text.len() > MAX_STRING {
        return Err(NetError::Malformed("string exceeds wire cap"));
    }
    buf.put_u16_le(text.len() as u16);
    buf.extend_from_slice(text.as_bytes());
    Ok(())
}

fn put_opt_f64(buf: &mut BytesMut, v: Option<f64>) {
    match v {
        Some(x) => {
            buf.put_u8(1);
            buf.put_f64_le(x);
        }
        None => buf.put_u8(0),
    }
}

fn put_range_query(buf: &mut BytesMut, query: &RangeQuery) -> Result<()> {
    let ranges = query.ranges();
    if ranges.len() > MAX_RANGES {
        return Err(NetError::Malformed("too many query ranges"));
    }
    buf.put_u8(match query.aggregate() {
        Aggregate::Count => 0,
        Aggregate::Sum => 1,
    });
    buf.put_u16_le(ranges.len() as u16);
    for r in ranges {
        buf.put_u32_le(r.dim as u32);
        buf.put_i64_le(r.lo);
        buf.put_i64_le(r.hi);
    }
    Ok(())
}

fn put_query(buf: &mut BytesMut, spec: &QueryRequest) -> Result<()> {
    buf.put_f64_le(spec.sampling_rate);
    put_range_query(buf, &spec.query)
}

fn statistic_code(statistic: DerivedStatistic) -> u8 {
    match statistic {
        DerivedStatistic::Average => 0,
        DerivedStatistic::Variance => 1,
        DerivedStatistic::StdDev => 2,
    }
}

fn statistic_from_code(code: u8) -> Result<DerivedStatistic> {
    match code {
        0 => Ok(DerivedStatistic::Average),
        1 => Ok(DerivedStatistic::Variance),
        2 => Ok(DerivedStatistic::StdDev),
        _ => Err(NetError::Malformed("unknown derived-statistic code")),
    }
}

fn put_plan(buf: &mut BytesMut, plan: &QueryPlan) -> Result<()> {
    match plan {
        QueryPlan::Scalar {
            query,
            sampling_rate,
            epsilon,
            delta,
        } => {
            buf.put_u8(0);
            buf.put_f64_le(*sampling_rate);
            buf.put_f64_le(*epsilon);
            buf.put_f64_le(*delta);
            put_range_query(buf, query)?;
        }
        QueryPlan::Derived {
            query,
            statistic,
            sampling_rate,
            epsilon,
            delta,
        } => {
            buf.put_u8(1);
            buf.put_u8(statistic_code(*statistic));
            buf.put_f64_le(*sampling_rate);
            buf.put_f64_le(*epsilon);
            buf.put_f64_le(*delta);
            put_range_query(buf, query)?;
        }
        QueryPlan::GroupBy {
            base,
            statistic,
            group_dim,
            threshold,
            sampling_rate,
            epsilon,
            delta,
        } => {
            buf.put_u8(2);
            buf.put_u32_le(*group_dim as u32);
            match statistic {
                Some(s) => {
                    buf.put_u8(1);
                    buf.put_u8(statistic_code(*s));
                }
                None => buf.put_u8(0),
            }
            buf.put_f64_le(*threshold);
            buf.put_f64_le(*sampling_rate);
            buf.put_f64_le(*epsilon);
            buf.put_f64_le(*delta);
            put_range_query(buf, base)?;
        }
        QueryPlan::Extreme {
            dim,
            extreme,
            epsilon,
        } => {
            buf.put_u8(3);
            buf.put_u32_le(*dim as u32);
            buf.put_u8(match extreme {
                Extreme::Min => 0,
                Extreme::Max => 1,
            });
            buf.put_f64_le(*epsilon);
        }
        // Online plans are never smuggled through the request/response
        // Plan frames: their streaming answer shape needs the dedicated
        // v6 conversation (OnlinePlan ⇒ OnlineSnapshot* ⇒ OnlineDone).
        QueryPlan::Online { .. } => {
            return Err(NetError::Malformed("online plans use the OnlinePlan frame"))
        }
    }
    Ok(())
}

fn put_plan_answer(buf: &mut BytesMut, frame: &PlanAnswerFrame) -> Result<()> {
    buf.put_u32_le(frame.index);
    buf.put_f64_le(frame.eps);
    buf.put_f64_le(frame.delta);
    match &frame.result {
        WirePlanResult::Value {
            value,
            ci_halfwidth,
        } => {
            buf.put_u8(0);
            buf.put_f64_le(*value);
            put_opt_f64(buf, *ci_halfwidth);
        }
        WirePlanResult::Groups { groups, suppressed } => {
            if groups.len() > MAX_GROUPS {
                return Err(NetError::Malformed("too many plan groups"));
            }
            buf.put_u8(1);
            buf.put_u32_le(groups.len() as u32);
            for g in groups {
                buf.put_i64_le(g.key);
                buf.put_f64_le(g.value);
                put_opt_f64(buf, g.ci_halfwidth);
            }
            buf.put_u64_le(*suppressed);
        }
        WirePlanResult::Extreme { value } => {
            buf.put_u8(2);
            buf.put_i64_le(*value);
        }
    }
    buf.put_u64_le(frame.summary_us);
    buf.put_u64_le(frame.allocation_us);
    buf.put_u64_le(frame.execution_us);
    buf.put_u64_le(frame.release_us);
    buf.put_u64_le(frame.network_us);
    Ok(())
}

fn put_explanation(buf: &mut BytesMut, expl: &PlanExplanation) -> Result<()> {
    put_string(buf, &expl.plan_kind)?;
    buf.put_u64_le(expl.n_providers);
    buf.put_u8(u8::from(expl.optimizer.prune_providers));
    buf.put_u8(u8::from(expl.optimizer.dedup_subqueries));
    buf.put_u8(u8::from(expl.optimizer.reorder_subqueries));
    buf.put_f64_le(expl.eps);
    buf.put_f64_le(expl.delta);
    if expl.sub_queries.len() > MAX_SUBQUERIES {
        return Err(NetError::Malformed("too many explained sub-queries"));
    }
    buf.put_u32_le(expl.sub_queries.len() as u32);
    for s in &expl.sub_queries {
        put_string(buf, &s.label)?;
        if s.pruned_providers.len() > MAX_ALLOCATIONS {
            return Err(NetError::Malformed("too many pruned providers"));
        }
        buf.put_u32_le(s.pruned_providers.len() as u32);
        for &p in &s.pruned_providers {
            buf.put_u64_le(p);
        }
        buf.put_u64_le(s.estimated_cost);
        match s.reuses {
            Some(i) => {
                buf.put_u8(1);
                buf.put_u64_le(i);
            }
            None => buf.put_u8(0),
        }
        buf.put_u64_le(s.order);
    }
    Ok(())
}

fn encode_payload(frame: &Frame, version: u16) -> Result<(u8, BytesMut)> {
    let kind = frame.kind();
    check_version(kind, version)?;
    let mut buf = BytesMut::with_capacity(64);
    match frame {
        Frame::BudgetRequest
        | Frame::FragmentQueued
        | Frame::FragmentSummariesRequest
        | Frame::FragmentAllocated
        | Frame::FragmentPartialRequest
        | Frame::FragmentAbort
        | Frame::FragmentAborted
        | Frame::ShardBoundsRequest
        | Frame::Metrics => {}
        Frame::Hello(h) => {
            put_string(&mut buf, &h.analyst)?;
        }
        Frame::HelloAck(a) => {
            if a.dimensions.len() > MAX_DIMS {
                return Err(NetError::Malformed("too many schema dimensions"));
            }
            buf.put_u16_le(a.dimensions.len() as u16);
            for d in &a.dimensions {
                put_string(&mut buf, &d.name)?;
                buf.put_i64_le(d.min);
                buf.put_i64_le(d.max);
            }
            buf.put_u32_le(a.n_providers);
            buf.put_f64_le(a.epsilon);
            buf.put_f64_le(a.delta);
            buf.put_u8(a.calibration);
            match a.session_budget {
                Some((xi, psi)) => {
                    buf.put_u8(1);
                    buf.put_f64_le(xi);
                    buf.put_f64_le(psi);
                }
                None => buf.put_u8(0),
            }
            // The version advertisement exists on the wire only from v2;
            // a v1 HelloAck payload is unchanged from what v1 servers sent.
            if version >= 2 {
                buf.put_u16_le(a.max_version);
            }
        }
        Frame::Query(q) => {
            put_query(&mut buf, q)?;
        }
        Frame::Batch(b) => {
            if b.specs.len() > MAX_BATCH {
                return Err(NetError::Malformed("batch exceeds wire cap"));
            }
            buf.put_u32_le(b.specs.len() as u32);
            for spec in &b.specs {
                put_query(&mut buf, spec)?;
            }
        }
        Frame::Answer(a) => {
            if a.allocations.len() > MAX_ALLOCATIONS {
                return Err(NetError::Malformed("too many allocations"));
            }
            buf.put_u32_le(a.index);
            buf.put_f64_le(a.value);
            buf.put_f64_le(a.eps);
            buf.put_f64_le(a.delta);
            put_opt_f64(&mut buf, a.ci_halfwidth);
            buf.put_u64_le(a.clusters_scanned);
            buf.put_u64_le(a.covering_total);
            buf.put_u32_le(a.approximated_providers);
            buf.put_u32_le(a.allocations.len() as u32);
            for &s in &a.allocations {
                buf.put_u64_le(s);
            }
            buf.put_u64_le(a.summary_us);
            buf.put_u64_le(a.allocation_us);
            buf.put_u64_le(a.execution_us);
            buf.put_u64_le(a.release_us);
            buf.put_u64_le(a.network_us);
        }
        Frame::Error(e) => {
            buf.put_u32_le(e.index);
            buf.put_u8(e.code.to_u8());
            put_string(&mut buf, &e.message)?;
        }
        Frame::BudgetStatus(s) => {
            buf.put_u8(u8::from(s.limited));
            buf.put_f64_le(s.total_eps);
            buf.put_f64_le(s.total_delta);
            buf.put_f64_le(s.spent_eps);
            buf.put_f64_le(s.spent_delta);
            buf.put_u64_le(s.queries_answered);
        }
        Frame::Plan(p) => {
            put_plan(&mut buf, &p.plan)?;
        }
        Frame::PlanAnswer(a) => {
            put_plan_answer(&mut buf, a)?;
        }
        Frame::Explain(e) => {
            put_plan(&mut buf, &e.plan)?;
        }
        Frame::ExplainAnswer(a) => {
            buf.put_u32_le(a.index);
            put_explanation(&mut buf, &a.explanation)?;
        }
        Frame::Fragment(r) => {
            buf.put_f64_le(r.sampling_rate);
            buf.put_f64_le(r.eps_o);
            buf.put_f64_le(r.eps_s);
            buf.put_f64_le(r.eps_e);
            buf.put_f64_le(r.delta);
            buf.put_u64_le(r.occurrence);
            put_range_query(&mut buf, &r.query)?;
        }
        Frame::FragmentSummaries(s) => {
            if s.summaries.len() > MAX_ALLOCATIONS {
                return Err(NetError::Malformed("too many fragment summaries"));
            }
            buf.put_u32_le(s.summaries.len() as u32);
            for summary in &s.summaries {
                buf.put_f64_le(summary.noisy_n_q);
                buf.put_f64_le(summary.noisy_avg_r);
            }
            buf.put_u64_le(s.summary_us);
        }
        Frame::FragmentAllocation(a) => {
            if a.allocations.len() > MAX_ALLOCATIONS {
                return Err(NetError::Malformed("too many allocations"));
            }
            buf.put_u32_le(a.allocations.len() as u32);
            for &s in &a.allocations {
                buf.put_u64_le(s);
            }
        }
        Frame::FragmentPartial(p) => {
            if p.rows.len() > MAX_ALLOCATIONS {
                return Err(NetError::Malformed("too many partial rows"));
            }
            buf.put_u32_le(p.rows.len() as u32);
            for row in &p.rows {
                buf.put_f64_le(row.released);
                put_opt_f64(&mut buf, row.variance);
                buf.put_u8(u8::from(row.approximated));
                buf.put_u64_le(row.clusters_scanned);
                buf.put_u64_le(row.n_covering);
            }
            buf.put_u64_le(p.execution_us);
        }
        Frame::ExtremeFragment(r) => {
            buf.put_u32_le(r.dim);
            buf.put_u8(match r.extreme {
                Extreme::Min => 0,
                Extreme::Max => 1,
            });
            buf.put_f64_le(r.epsilon);
            buf.put_u64_le(r.occurrence);
        }
        Frame::ExtremePartial(p) => {
            buf.put_i64_le(p.value);
            buf.put_u64_le(p.execution_us);
        }
        Frame::ShardBounds(b) => {
            if b.providers.len() > MAX_ALLOCATIONS {
                return Err(NetError::Malformed("too many provider bounds"));
            }
            buf.put_u32_le(b.providers.len() as u32);
            for provider in &b.providers {
                if provider.dims.len() > MAX_DIMS {
                    return Err(NetError::Malformed("too many bound dimensions"));
                }
                buf.put_u16_le(provider.dims.len() as u16);
                for dim in &provider.dims {
                    match dim {
                        Some((lo, hi)) => {
                            buf.put_u8(1);
                            buf.put_i64_le(*lo);
                            buf.put_i64_le(*hi);
                        }
                        None => buf.put_u8(0),
                    }
                }
                buf.put_u64_le(provider.n_clusters);
            }
        }
        Frame::MetricsAnswer(m) => {
            if m.metrics.len() > MAX_METRICS {
                return Err(NetError::Malformed("too many metric samples"));
            }
            buf.put_u32_le(m.metrics.len() as u32);
            for sample in &m.metrics {
                put_string(&mut buf, &sample.name)?;
                buf.put_f64_le(sample.value);
            }
        }
        Frame::OnlinePlan(p) => {
            buf.put_f64_le(p.sampling_rate);
            buf.put_f64_le(p.epsilon);
            buf.put_f64_le(p.delta);
            buf.put_u32_le(p.rounds);
            put_range_query(&mut buf, &p.query)?;
        }
        Frame::OnlineSnapshot(s) => {
            buf.put_u32_le(s.index);
            buf.put_u32_le(s.round);
            buf.put_u32_le(s.rounds);
            buf.put_f64_le(s.sample_fraction);
            buf.put_f64_le(s.value);
            put_opt_f64(&mut buf, s.ci_halfwidth);
            buf.put_u64_le(s.clusters_scanned);
        }
        Frame::OnlineDone(d) => {
            buf.put_u32_le(d.index);
            buf.put_f64_le(d.eps);
            buf.put_f64_le(d.delta);
            buf.put_f64_le(d.value);
            buf.put_u64_le(d.summary_us);
            buf.put_u64_le(d.allocation_us);
            buf.put_u64_le(d.execution_us);
            buf.put_u64_le(d.release_us);
            buf.put_u64_le(d.network_us);
        }
        Frame::Ingest(r) => {
            if r.rows.len() > MAX_BATCH {
                return Err(NetError::Malformed("ingest batch exceeds wire cap"));
            }
            buf.put_u32_le(r.provider);
            buf.put_u32_le(r.rows.len() as u32);
            for row in &r.rows {
                if row.values.len() > MAX_DIMS {
                    return Err(NetError::Malformed("too many ingest row values"));
                }
                buf.put_u16_le(row.values.len() as u16);
                for &v in &row.values {
                    buf.put_i64_le(v);
                }
                buf.put_u64_le(row.measure);
            }
        }
        Frame::IngestAck(a) => {
            buf.put_u64_le(a.accepted);
            buf.put_u64_le(a.epoch);
            buf.put_u8(u8::from(a.refreshed));
        }
    }
    if buf.len() > MAX_PAYLOAD as usize {
        return Err(NetError::Malformed("payload exceeds frame cap"));
    }
    Ok((kind, buf))
}

/// Encodes one frame (header + payload) at an explicit protocol version —
/// what a server uses to answer a client at the client's own version.
pub fn encode_frame_at(frame: &Frame, version: u16) -> Result<Vec<u8>> {
    if !(MIN_VERSION..=VERSION).contains(&version) {
        return Err(NetError::UnsupportedVersion {
            requested: version,
            supported: VERSION,
        });
    }
    let (kind, payload) = encode_payload(frame, version)?;
    let mut out = Vec::with_capacity(HEADER_BYTES + payload.len());
    out.put_u32_le(MAGIC);
    out.put_u16_le(version);
    out.put_u8(kind);
    out.put_u32_le(payload.len() as u32);
    out.extend_from_slice(&payload);
    Ok(out)
}

/// Encodes one frame at the newest protocol version.
pub fn encode_frame(frame: &Frame) -> Result<Vec<u8>> {
    encode_frame_at(frame, VERSION)
}

// ---------------------------------------------------------------- decode

fn need(data: &[u8], bytes: usize, what: &'static str) -> Result<()> {
    if data.len() < bytes {
        return Err(NetError::Malformed(what));
    }
    Ok(())
}

fn get_string(data: &mut &[u8]) -> Result<String> {
    need(data, 2, "string length truncated")?;
    let len = data.get_u16_le() as usize;
    if len > MAX_STRING || !declared_len_fits(len, 1, data.remaining()) {
        return Err(NetError::Malformed("string length out of range"));
    }
    let mut bytes = vec![0u8; len];
    data.copy_to_slice(&mut bytes);
    String::from_utf8(bytes).map_err(|_| NetError::Malformed("string is not utf-8"))
}

fn get_opt_f64(data: &mut &[u8]) -> Result<Option<f64>> {
    need(data, 1, "option tag truncated")?;
    match data.get_u8() {
        0 => Ok(None),
        1 => {
            need(data, 8, "optional float truncated")?;
            Ok(Some(data.get_f64_le()))
        }
        _ => Err(NetError::Malformed("bad option tag")),
    }
}

fn get_range_query(data: &mut &[u8]) -> Result<RangeQuery> {
    need(data, 1 + 2, "query header truncated")?;
    let agg = match data.get_u8() {
        0 => Aggregate::Count,
        1 => Aggregate::Sum,
        _ => return Err(NetError::Malformed("unknown aggregate")),
    };
    let n_ranges = data.get_u16_le() as usize;
    if n_ranges > MAX_RANGES || !declared_len_fits(n_ranges, 4 + 8 + 8, data.remaining()) {
        return Err(NetError::Malformed("declared range count too large"));
    }
    let mut ranges = Vec::with_capacity(n_ranges);
    for _ in 0..n_ranges {
        let dim = data.get_u32_le() as usize;
        let lo = data.get_i64_le();
        let hi = data.get_i64_le();
        ranges.push(Range::new(dim, lo, hi).map_err(|_| NetError::Malformed("empty range"))?);
    }
    RangeQuery::new(agg, ranges).map_err(|_| NetError::Malformed("invalid range set"))
}

fn get_query(data: &mut &[u8]) -> Result<QueryRequest> {
    need(data, 8, "query header truncated")?;
    let sampling_rate = data.get_f64_le();
    let query = get_range_query(data)?;
    Ok(QueryRequest {
        query,
        sampling_rate,
    })
}

fn get_plan(data: &mut &[u8]) -> Result<QueryPlan> {
    need(data, 1, "plan tag truncated")?;
    let plan = match data.get_u8() {
        0 => {
            need(data, 3 * 8, "plan parameters truncated")?;
            let sampling_rate = data.get_f64_le();
            let epsilon = data.get_f64_le();
            let delta = data.get_f64_le();
            QueryPlan::Scalar {
                query: get_range_query(data)?,
                sampling_rate,
                epsilon,
                delta,
            }
        }
        1 => {
            need(data, 1 + 3 * 8, "plan parameters truncated")?;
            let statistic = statistic_from_code(data.get_u8())?;
            let sampling_rate = data.get_f64_le();
            let epsilon = data.get_f64_le();
            let delta = data.get_f64_le();
            QueryPlan::Derived {
                query: get_range_query(data)?,
                statistic,
                sampling_rate,
                epsilon,
                delta,
            }
        }
        2 => {
            need(data, 4 + 1, "group-by plan header truncated")?;
            let group_dim = data.get_u32_le() as usize;
            let statistic = match data.get_u8() {
                0 => None,
                1 => {
                    need(data, 1, "statistic code truncated")?;
                    Some(statistic_from_code(data.get_u8())?)
                }
                _ => return Err(NetError::Malformed("bad statistic tag")),
            };
            need(data, 4 * 8, "plan parameters truncated")?;
            let threshold = data.get_f64_le();
            let sampling_rate = data.get_f64_le();
            let epsilon = data.get_f64_le();
            let delta = data.get_f64_le();
            QueryPlan::GroupBy {
                base: get_range_query(data)?,
                statistic,
                group_dim,
                threshold,
                sampling_rate,
                epsilon,
                delta,
            }
        }
        3 => {
            need(data, 4 + 1 + 8, "extreme plan truncated")?;
            let dim = data.get_u32_le() as usize;
            let extreme = match data.get_u8() {
                0 => Extreme::Min,
                1 => Extreme::Max,
                _ => return Err(NetError::Malformed("unknown extreme code")),
            };
            QueryPlan::Extreme {
                dim,
                extreme,
                epsilon: data.get_f64_le(),
            }
        }
        _ => return Err(NetError::Malformed("unknown plan tag")),
    };
    Ok(plan)
}

fn get_plan_answer(data: &mut &[u8]) -> Result<PlanAnswerFrame> {
    need(data, 4 + 8 + 8 + 1, "plan answer header truncated")?;
    let index = data.get_u32_le();
    let eps = data.get_f64_le();
    let delta = data.get_f64_le();
    let result = match data.get_u8() {
        0 => {
            need(data, 8, "plan value truncated")?;
            let value = data.get_f64_le();
            WirePlanResult::Value {
                value,
                ci_halfwidth: get_opt_f64(data)?,
            }
        }
        1 => {
            need(data, 4, "group count truncated")?;
            let n = data.get_u32_le() as usize;
            // Each group costs at least key + value + option tag.
            if n > MAX_GROUPS || !declared_len_fits(n, 8 + 8 + 1, data.remaining()) {
                return Err(NetError::Malformed("declared group count too large"));
            }
            let mut groups = Vec::with_capacity(n);
            for _ in 0..n {
                need(data, 8 + 8, "group entry truncated")?;
                let key = data.get_i64_le();
                let value = data.get_f64_le();
                groups.push(WireGroup {
                    key,
                    value,
                    ci_halfwidth: get_opt_f64(data)?,
                });
            }
            need(data, 8, "suppressed count truncated")?;
            WirePlanResult::Groups {
                groups,
                suppressed: data.get_u64_le(),
            }
        }
        2 => {
            need(data, 8, "extreme value truncated")?;
            WirePlanResult::Extreme {
                value: data.get_i64_le(),
            }
        }
        _ => return Err(NetError::Malformed("unknown plan result tag")),
    };
    need(data, 5 * 8, "plan answer timings truncated")?;
    Ok(PlanAnswerFrame {
        index,
        eps,
        delta,
        result,
        summary_us: data.get_u64_le(),
        allocation_us: data.get_u64_le(),
        execution_us: data.get_u64_le(),
        release_us: data.get_u64_le(),
        network_us: data.get_u64_le(),
    })
}

fn get_bool(data: &mut &[u8], what: &'static str) -> Result<bool> {
    need(data, 1, what)?;
    match data.get_u8() {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(NetError::Malformed("bad boolean tag")),
    }
}

fn get_explanation(data: &mut &[u8]) -> Result<PlanExplanation> {
    let plan_kind = get_string(data)?;
    need(data, 8, "provider count truncated")?;
    let n_providers = data.get_u64_le();
    let optimizer = OptimizerConfig {
        prune_providers: get_bool(data, "optimizer flags truncated")?,
        dedup_subqueries: get_bool(data, "optimizer flags truncated")?,
        reorder_subqueries: get_bool(data, "optimizer flags truncated")?,
    };
    need(data, 8 + 8 + 4, "explanation header truncated")?;
    let eps = data.get_f64_le();
    let delta = data.get_f64_le();
    let n_subs = data.get_u32_le() as usize;
    // Each sub-query costs at least label len + pruned count + cost +
    // reuse tag + order.
    if n_subs > MAX_SUBQUERIES || !declared_len_fits(n_subs, 2 + 4 + 8 + 1 + 8, data.remaining()) {
        return Err(NetError::Malformed("declared sub-query count too large"));
    }
    let mut sub_queries = Vec::with_capacity(n_subs);
    for _ in 0..n_subs {
        let label = get_string(data)?;
        need(data, 4, "pruned count truncated")?;
        let n_pruned = data.get_u32_le() as usize;
        if n_pruned > MAX_ALLOCATIONS || !declared_len_fits(n_pruned, 8, data.remaining()) {
            return Err(NetError::Malformed("declared pruned count too large"));
        }
        let mut pruned_providers = Vec::with_capacity(n_pruned);
        for _ in 0..n_pruned {
            pruned_providers.push(data.get_u64_le());
        }
        need(data, 8 + 1, "sub-query tail truncated")?;
        let estimated_cost = data.get_u64_le();
        let reuses = match data.get_u8() {
            0 => None,
            1 => {
                need(data, 8, "reuse index truncated")?;
                Some(data.get_u64_le())
            }
            _ => return Err(NetError::Malformed("bad reuse tag")),
        };
        need(data, 8, "sub-query order truncated")?;
        sub_queries.push(SubQueryExplanation {
            label,
            pruned_providers,
            estimated_cost,
            reuses,
            order: data.get_u64_le(),
        });
    }
    Ok(PlanExplanation {
        plan_kind,
        n_providers,
        optimizer,
        eps,
        delta,
        sub_queries,
    })
}

fn decode_payload(kind: u8, mut data: &[u8], version: u16) -> Result<Frame> {
    check_version(kind, version)?;
    let frame = match kind {
        KIND_HELLO => Frame::Hello(Hello {
            analyst: get_string(&mut data)?,
        }),
        KIND_HELLO_ACK => {
            need(data, 2, "dimension count truncated")?;
            let n_dims = data.get_u16_le() as usize;
            if n_dims > MAX_DIMS || !declared_len_fits(n_dims, 2 + 8 + 8, data.remaining()) {
                return Err(NetError::Malformed("declared dimension count too large"));
            }
            let mut dimensions = Vec::with_capacity(n_dims);
            for _ in 0..n_dims {
                let name = get_string(&mut data)?;
                need(data, 16, "dimension domain truncated")?;
                let min = data.get_i64_le();
                let max = data.get_i64_le();
                dimensions.push(WireDimension { name, min, max });
            }
            need(data, 4 + 8 + 8 + 1 + 1, "hello-ack tail truncated")?;
            let n_providers = data.get_u32_le();
            let epsilon = data.get_f64_le();
            let delta = data.get_f64_le();
            let calibration = data.get_u8();
            let session_budget = match data.get_u8() {
                0 => None,
                1 => {
                    need(data, 16, "session budget truncated")?;
                    Some((data.get_f64_le(), data.get_f64_le()))
                }
                _ => return Err(NetError::Malformed("bad budget tag")),
            };
            let max_version = if version >= 2 {
                need(data, 2, "version advertisement truncated")?;
                data.get_u16_le()
            } else {
                // A v1 HelloAck has no advertisement: v1 *is* the max a
                // v1-speaking server supports.
                1
            };
            Frame::HelloAck(HelloAck {
                dimensions,
                n_providers,
                epsilon,
                delta,
                calibration,
                session_budget,
                max_version,
            })
        }
        KIND_QUERY => Frame::Query(get_query(&mut data)?),
        KIND_BATCH => {
            need(data, 4, "batch count truncated")?;
            let n = data.get_u32_le() as usize;
            // Each query costs at least its 11-byte header.
            if n > MAX_BATCH || !declared_len_fits(n, 8 + 1 + 2, data.remaining()) {
                return Err(NetError::Malformed("declared batch size too large"));
            }
            let mut specs = Vec::with_capacity(n);
            for _ in 0..n {
                specs.push(get_query(&mut data)?);
            }
            Frame::Batch(BatchRequest { specs })
        }
        KIND_ANSWER => {
            need(data, 4 + 8 + 8 + 8, "answer header truncated")?;
            let index = data.get_u32_le();
            let value = data.get_f64_le();
            let eps = data.get_f64_le();
            let delta = data.get_f64_le();
            let ci_halfwidth = get_opt_f64(&mut data)?;
            need(data, 8 + 8 + 4 + 4, "answer counters truncated")?;
            let clusters_scanned = data.get_u64_le();
            let covering_total = data.get_u64_le();
            let approximated_providers = data.get_u32_le();
            let n_alloc = data.get_u32_le() as usize;
            if n_alloc > MAX_ALLOCATIONS || !declared_len_fits(n_alloc, 8, data.remaining()) {
                return Err(NetError::Malformed("declared allocation count too large"));
            }
            let mut allocations = Vec::with_capacity(n_alloc);
            for _ in 0..n_alloc {
                allocations.push(data.get_u64_le());
            }
            need(data, 5 * 8, "answer timings truncated")?;
            Frame::Answer(Answer {
                index,
                value,
                eps,
                delta,
                ci_halfwidth,
                clusters_scanned,
                covering_total,
                approximated_providers,
                allocations,
                summary_us: data.get_u64_le(),
                allocation_us: data.get_u64_le(),
                execution_us: data.get_u64_le(),
                release_us: data.get_u64_le(),
                network_us: data.get_u64_le(),
            })
        }
        KIND_ERROR => {
            need(data, 4 + 1, "error header truncated")?;
            let index = data.get_u32_le();
            let code = ErrorCode::from_u8(data.get_u8())?;
            let message = get_string(&mut data)?;
            Frame::Error(ErrorFrame {
                index,
                code,
                message,
            })
        }
        KIND_PLAN => Frame::Plan(PlanRequest {
            plan: get_plan(&mut data)?,
        }),
        KIND_PLAN_ANSWER => Frame::PlanAnswer(get_plan_answer(&mut data)?),
        KIND_EXPLAIN => Frame::Explain(ExplainRequest {
            plan: get_plan(&mut data)?,
        }),
        KIND_EXPLAIN_ANSWER => {
            need(data, 4, "explain answer header truncated")?;
            let index = data.get_u32_le();
            Frame::ExplainAnswer(ExplainAnswerFrame {
                index,
                explanation: get_explanation(&mut data)?,
            })
        }
        KIND_FRAGMENT => {
            need(data, 5 * 8 + 8, "fragment header truncated")?;
            let sampling_rate = data.get_f64_le();
            let eps_o = data.get_f64_le();
            let eps_s = data.get_f64_le();
            let eps_e = data.get_f64_le();
            let delta = data.get_f64_le();
            let occurrence = data.get_u64_le();
            Frame::Fragment(FragmentRequest {
                query: get_range_query(&mut data)?,
                sampling_rate,
                eps_o,
                eps_s,
                eps_e,
                delta,
                occurrence,
            })
        }
        KIND_FRAGMENT_QUEUED => Frame::FragmentQueued,
        KIND_FRAGMENT_SUMMARIES_REQUEST => Frame::FragmentSummariesRequest,
        KIND_FRAGMENT_SUMMARIES => {
            need(data, 4, "summary count truncated")?;
            let n = data.get_u32_le() as usize;
            if n > MAX_ALLOCATIONS || !declared_len_fits(n, 8 + 8, data.remaining()) {
                return Err(NetError::Malformed("declared summary count too large"));
            }
            let mut summaries = Vec::with_capacity(n);
            for _ in 0..n {
                summaries.push(WireSummary {
                    noisy_n_q: data.get_f64_le(),
                    noisy_avg_r: data.get_f64_le(),
                });
            }
            need(data, 8, "summary timing truncated")?;
            Frame::FragmentSummaries(FragmentSummariesFrame {
                summaries,
                summary_us: data.get_u64_le(),
            })
        }
        KIND_FRAGMENT_ALLOCATION => {
            need(data, 4, "allocation count truncated")?;
            let n = data.get_u32_le() as usize;
            if n > MAX_ALLOCATIONS || !declared_len_fits(n, 8, data.remaining()) {
                return Err(NetError::Malformed("declared allocation count too large"));
            }
            let mut allocations = Vec::with_capacity(n);
            for _ in 0..n {
                allocations.push(data.get_u64_le());
            }
            Frame::FragmentAllocation(FragmentAllocationFrame { allocations })
        }
        KIND_FRAGMENT_ALLOCATED => Frame::FragmentAllocated,
        KIND_FRAGMENT_PARTIAL_REQUEST => Frame::FragmentPartialRequest,
        KIND_FRAGMENT_PARTIAL => {
            need(data, 4, "partial row count truncated")?;
            let n = data.get_u32_le() as usize;
            // Each row costs at least released + option tag + flag +
            // two counters.
            if n > MAX_ALLOCATIONS || !declared_len_fits(n, 8 + 1 + 1 + 8 + 8, data.remaining()) {
                return Err(NetError::Malformed("declared partial row count too large"));
            }
            let mut rows = Vec::with_capacity(n);
            for _ in 0..n {
                need(data, 8, "partial row truncated")?;
                let released = data.get_f64_le();
                let variance = get_opt_f64(&mut data)?;
                let approximated = get_bool(&mut data, "partial row flag truncated")?;
                need(data, 8 + 8, "partial row counters truncated")?;
                rows.push(WirePartialRow {
                    released,
                    variance,
                    approximated,
                    clusters_scanned: data.get_u64_le(),
                    n_covering: data.get_u64_le(),
                });
            }
            need(data, 8, "partial timing truncated")?;
            Frame::FragmentPartial(FragmentPartialFrame {
                rows,
                execution_us: data.get_u64_le(),
            })
        }
        KIND_FRAGMENT_ABORT => Frame::FragmentAbort,
        KIND_FRAGMENT_ABORTED => Frame::FragmentAborted,
        KIND_EXTREME_FRAGMENT => {
            need(data, 4 + 1 + 8 + 8, "extreme fragment truncated")?;
            let dim = data.get_u32_le();
            let extreme = match data.get_u8() {
                0 => Extreme::Min,
                1 => Extreme::Max,
                _ => return Err(NetError::Malformed("unknown extreme code")),
            };
            Frame::ExtremeFragment(ExtremeFragmentRequest {
                dim,
                extreme,
                epsilon: data.get_f64_le(),
                occurrence: data.get_u64_le(),
            })
        }
        KIND_EXTREME_PARTIAL => {
            need(data, 8 + 8, "extreme partial truncated")?;
            Frame::ExtremePartial(ExtremePartialFrame {
                value: data.get_i64_le(),
                execution_us: data.get_u64_le(),
            })
        }
        KIND_SHARD_BOUNDS_REQUEST => Frame::ShardBoundsRequest,
        KIND_SHARD_BOUNDS => {
            need(data, 4, "bounds count truncated")?;
            let n = data.get_u32_le() as usize;
            // Each provider costs at least a dim count + cluster count.
            if n > MAX_ALLOCATIONS || !declared_len_fits(n, 2 + 8, data.remaining()) {
                return Err(NetError::Malformed("declared bounds count too large"));
            }
            let mut providers = Vec::with_capacity(n);
            for _ in 0..n {
                need(data, 2, "bound dimension count truncated")?;
                let n_dims = data.get_u16_le() as usize;
                if n_dims > MAX_DIMS || !declared_len_fits(n_dims, 1, data.remaining()) {
                    return Err(NetError::Malformed(
                        "declared bound dimension count too large",
                    ));
                }
                let mut dims = Vec::with_capacity(n_dims);
                for _ in 0..n_dims {
                    need(data, 1, "bound tag truncated")?;
                    dims.push(match data.get_u8() {
                        0 => None,
                        1 => {
                            need(data, 16, "bound range truncated")?;
                            Some((data.get_i64_le(), data.get_i64_le()))
                        }
                        _ => return Err(NetError::Malformed("bad bound tag")),
                    });
                }
                need(data, 8, "cluster count truncated")?;
                providers.push(WireProviderBounds {
                    dims,
                    n_clusters: data.get_u64_le(),
                });
            }
            Frame::ShardBounds(ShardBoundsFrame { providers })
        }
        KIND_METRICS => Frame::Metrics,
        KIND_METRICS_ANSWER => {
            need(data, 4, "metric count truncated")?;
            let n = data.get_u32_le() as usize;
            // Each sample costs at least a name length + value.
            if n > MAX_METRICS || !declared_len_fits(n, 2 + 8, data.remaining()) {
                return Err(NetError::Malformed("declared metric count too large"));
            }
            let mut metrics = Vec::with_capacity(n);
            for _ in 0..n {
                let name = get_string(&mut data)?;
                need(data, 8, "metric value truncated")?;
                metrics.push(WireMetric {
                    name,
                    value: data.get_f64_le(),
                });
            }
            Frame::MetricsAnswer(MetricsAnswerFrame { metrics })
        }
        KIND_ONLINE_PLAN => {
            need(data, 3 * 8 + 4, "online plan header truncated")?;
            let sampling_rate = data.get_f64_le();
            let epsilon = data.get_f64_le();
            let delta = data.get_f64_le();
            let rounds = data.get_u32_le();
            Frame::OnlinePlan(OnlinePlanRequest {
                query: get_range_query(&mut data)?,
                sampling_rate,
                epsilon,
                delta,
                rounds,
            })
        }
        KIND_ONLINE_SNAPSHOT => {
            need(data, 3 * 4 + 2 * 8, "online snapshot truncated")?;
            let index = data.get_u32_le();
            let round = data.get_u32_le();
            let rounds = data.get_u32_le();
            let sample_fraction = data.get_f64_le();
            let value = data.get_f64_le();
            let ci_halfwidth = get_opt_f64(&mut data)?;
            need(data, 8, "online snapshot counters truncated")?;
            Frame::OnlineSnapshot(OnlineSnapshotFrame {
                index,
                round,
                rounds,
                sample_fraction,
                value,
                ci_halfwidth,
                clusters_scanned: data.get_u64_le(),
            })
        }
        KIND_ONLINE_DONE => {
            need(data, 4 + 3 * 8 + 5 * 8, "online done truncated")?;
            Frame::OnlineDone(OnlineDoneFrame {
                index: data.get_u32_le(),
                eps: data.get_f64_le(),
                delta: data.get_f64_le(),
                value: data.get_f64_le(),
                summary_us: data.get_u64_le(),
                allocation_us: data.get_u64_le(),
                execution_us: data.get_u64_le(),
                release_us: data.get_u64_le(),
                network_us: data.get_u64_le(),
            })
        }
        KIND_INGEST => {
            need(data, 4 + 4, "ingest header truncated")?;
            let provider = data.get_u32_le();
            let n = data.get_u32_le() as usize;
            // Each row costs at least a value count + measure.
            if n > MAX_BATCH || !declared_len_fits(n, 2 + 8, data.remaining()) {
                return Err(NetError::Malformed("declared ingest batch too large"));
            }
            let mut rows = Vec::with_capacity(n);
            for _ in 0..n {
                need(data, 2, "ingest row header truncated")?;
                let n_values = data.get_u16_le() as usize;
                if n_values > MAX_DIMS || !declared_len_fits(n_values, 8, data.remaining()) {
                    return Err(NetError::Malformed("declared ingest row too large"));
                }
                let mut values = Vec::with_capacity(n_values);
                for _ in 0..n_values {
                    values.push(data.get_i64_le());
                }
                need(data, 8, "ingest row measure truncated")?;
                rows.push(WireRow {
                    values,
                    measure: data.get_u64_le(),
                });
            }
            Frame::Ingest(IngestRequest { provider, rows })
        }
        KIND_INGEST_ACK => {
            need(data, 8 + 8, "ingest ack truncated")?;
            let accepted = data.get_u64_le();
            let epoch = data.get_u64_le();
            Frame::IngestAck(IngestAckFrame {
                accepted,
                epoch,
                refreshed: get_bool(&mut data, "ingest ack flag truncated")?,
            })
        }
        KIND_BUDGET_REQUEST => Frame::BudgetRequest,
        KIND_BUDGET_STATUS => {
            need(data, 1 + 4 * 8 + 8, "budget status truncated")?;
            let limited = match data.get_u8() {
                0 => false,
                1 => true,
                _ => return Err(NetError::Malformed("bad limited tag")),
            };
            Frame::BudgetStatus(BudgetStatus {
                limited,
                total_eps: data.get_f64_le(),
                total_delta: data.get_f64_le(),
                spent_eps: data.get_f64_le(),
                spent_delta: data.get_f64_le(),
                queries_answered: data.get_u64_le(),
            })
        }
        other => return Err(NetError::UnknownKind(other)),
    };
    if data.has_remaining() {
        return Err(NetError::Malformed("trailing bytes in frame"));
    }
    Ok(frame)
}

// ------------------------------------------------------------------- io

fn eof_to_disconnect(e: std::io::Error) -> NetError {
    match e.kind() {
        // A clean close, or a peer that closed with bytes still unread
        // (the OS then resets instead of FIN-closing): both mean "the
        // other side is gone", which callers handle as one condition.
        std::io::ErrorKind::UnexpectedEof
        | std::io::ErrorKind::ConnectionReset
        | std::io::ErrorKind::ConnectionAborted => NetError::Disconnected,
        _ => NetError::Io(e),
    }
}

/// Writes one frame at an explicit protocol version, flushing it.
pub fn write_frame_at<W: Write>(writer: &mut W, frame: &Frame, version: u16) -> Result<()> {
    let bytes = encode_frame_at(frame, version)?;
    writer.write_all(&bytes)?;
    writer.flush()?;
    Ok(())
}

/// Writes one frame at the newest protocol version, flushing it.
pub fn write_frame<W: Write>(writer: &mut W, frame: &Frame) -> Result<()> {
    write_frame_at(writer, frame, VERSION)
}

/// Reads one frame from a socket (or any [`Read`]), returning it together
/// with the header's protocol version — what a server uses to answer each
/// client at the client's own version.
///
/// A clean connection close surfaces as [`NetError::Disconnected`]; a
/// header with a bad magic, a version outside
/// `MIN_VERSION..=VERSION`, an unknown kind, or a payload above
/// [`MAX_PAYLOAD`] fails *before* any payload is read.
pub fn read_frame_versioned<R: Read>(reader: &mut R) -> Result<(Frame, u16)> {
    let mut header = [0u8; HEADER_BYTES];
    reader.read_exact(&mut header).map_err(eof_to_disconnect)?;
    let mut h: &[u8] = &header;
    if h.get_u32_le() != MAGIC {
        return Err(NetError::Malformed("bad frame magic"));
    }
    let version = h.get_u16_le();
    if !(MIN_VERSION..=VERSION).contains(&version) {
        return Err(NetError::UnsupportedVersion {
            requested: version,
            supported: VERSION,
        });
    }
    let kind = h.get_u8();
    let len = h.get_u32_le();
    if len > MAX_PAYLOAD {
        return Err(NetError::FrameTooLarge {
            declared: len,
            max: MAX_PAYLOAD,
        });
    }
    let mut payload = vec![0u8; len as usize];
    reader.read_exact(&mut payload).map_err(eof_to_disconnect)?;
    decode_payload(kind, &payload, version).map(|frame| (frame, version))
}

/// Reads one frame, discarding the header's version.
pub fn read_frame<R: Read>(reader: &mut R) -> Result<Frame> {
    read_frame_versioned(reader).map(|(frame, _)| frame)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn query(lo: i64, hi: i64) -> RangeQuery {
        RangeQuery::new(Aggregate::Count, vec![Range::new(0, lo, hi).unwrap()]).unwrap()
    }

    fn sample_answer() -> Frame {
        Frame::Answer(Answer {
            index: 3,
            value: 123.5,
            eps: 1.0,
            delta: 1e-3,
            ci_halfwidth: Some(4.25),
            clusters_scanned: 17,
            covering_total: 40,
            approximated_providers: 4,
            allocations: vec![3, 4, 5, 6],
            summary_us: 100,
            allocation_us: 20,
            execution_us: 900,
            release_us: 5,
            network_us: 100_000,
        })
    }

    fn all_frames() -> Vec<Frame> {
        vec![
            Frame::Hello(Hello {
                analyst: "alice".into(),
            }),
            Frame::HelloAck(HelloAck {
                dimensions: vec![
                    WireDimension {
                        name: "age".into(),
                        min: 17,
                        max: 90,
                    },
                    WireDimension {
                        name: "hours".into(),
                        min: 1,
                        max: 99,
                    },
                ],
                n_providers: 4,
                epsilon: 1.0,
                delta: 1e-3,
                calibration: 0,
                session_budget: Some((10.0, 1e-2)),
                max_version: VERSION,
            }),
            Frame::Query(QueryRequest {
                query: query(10, 60),
                sampling_rate: 0.2,
            }),
            Frame::Batch(BatchRequest {
                specs: (0..5)
                    .map(|i| QueryRequest {
                        query: query(i, 60 + i),
                        sampling_rate: 0.1 + 0.01 * i as f64,
                    })
                    .collect(),
            }),
            sample_answer(),
            Frame::Error(ErrorFrame {
                index: 2,
                code: ErrorCode::BudgetExhausted,
                message: "requested (ε=1) but only (ε=0.2) remains".into(),
            }),
            Frame::BudgetRequest,
            Frame::BudgetStatus(BudgetStatus {
                limited: true,
                total_eps: 10.0,
                total_delta: 1e-2,
                spent_eps: 3.0,
                spent_delta: 3e-3,
                queries_answered: 3,
            }),
            Frame::Plan(PlanRequest {
                plan: QueryPlan::GroupBy {
                    base: query(10, 60),
                    statistic: Some(DerivedStatistic::Average),
                    group_dim: 3,
                    threshold: 12.5,
                    sampling_rate: 0.2,
                    epsilon: 4.0,
                    delta: 1e-3,
                },
            }),
            Frame::Plan(PlanRequest {
                plan: QueryPlan::Extreme {
                    dim: 1,
                    extreme: Extreme::Max,
                    epsilon: 0.5,
                },
            }),
            Frame::PlanAnswer(PlanAnswerFrame {
                index: 2,
                eps: 4.0,
                delta: 1e-3,
                result: WirePlanResult::Groups {
                    groups: vec![
                        WireGroup {
                            key: 0,
                            value: 812.5,
                            ci_halfwidth: Some(3.25),
                        },
                        WireGroup {
                            key: 2,
                            value: 41.0,
                            ci_halfwidth: None,
                        },
                    ],
                    suppressed: 3,
                },
                summary_us: 120,
                allocation_us: 30,
                execution_us: 1100,
                release_us: 9,
                network_us: 100_500,
            }),
            Frame::Explain(ExplainRequest {
                plan: QueryPlan::Derived {
                    query: query(10, 60),
                    statistic: DerivedStatistic::Variance,
                    sampling_rate: 0.2,
                    epsilon: 3.0,
                    delta: 1e-3,
                },
            }),
            Frame::ExplainAnswer(ExplainAnswerFrame {
                index: 4,
                explanation: sample_explanation(),
            }),
            Frame::Fragment(FragmentRequest {
                query: query(10, 60),
                sampling_rate: 0.2,
                eps_o: 0.3,
                eps_s: 0.3,
                eps_e: 0.4,
                delta: 1e-3,
                occurrence: 7,
            }),
            Frame::FragmentQueued,
            Frame::FragmentSummariesRequest,
            Frame::FragmentSummaries(FragmentSummariesFrame {
                summaries: vec![
                    WireSummary {
                        noisy_n_q: 812.5,
                        noisy_avg_r: 0.41,
                    },
                    WireSummary {
                        noisy_n_q: 17.25,
                        noisy_avg_r: 0.03,
                    },
                ],
                summary_us: 130,
            }),
            Frame::FragmentAllocation(FragmentAllocationFrame {
                allocations: vec![3, 9],
            }),
            Frame::FragmentAllocated,
            Frame::FragmentPartialRequest,
            Frame::FragmentPartial(FragmentPartialFrame {
                rows: vec![
                    WirePartialRow {
                        released: 812.5,
                        variance: Some(14.5),
                        approximated: true,
                        clusters_scanned: 9,
                        n_covering: 40,
                    },
                    WirePartialRow {
                        released: -3.25,
                        variance: None,
                        approximated: false,
                        clusters_scanned: 2,
                        n_covering: 2,
                    },
                ],
                execution_us: 1400,
            }),
            Frame::FragmentAbort,
            Frame::FragmentAborted,
            Frame::ExtremeFragment(ExtremeFragmentRequest {
                dim: 1,
                extreme: Extreme::Max,
                epsilon: 0.5,
                occurrence: 2,
            }),
            Frame::ExtremePartial(ExtremePartialFrame {
                value: 97,
                execution_us: 300,
            }),
            Frame::ShardBoundsRequest,
            Frame::ShardBounds(ShardBoundsFrame {
                providers: vec![
                    WireProviderBounds {
                        dims: vec![Some((0, 249)), None],
                        n_clusters: 12,
                    },
                    WireProviderBounds {
                        dims: vec![Some((250, 499)), Some((0, 4))],
                        n_clusters: 12,
                    },
                ],
            }),
            Frame::Metrics,
            Frame::MetricsAnswer(MetricsAnswerFrame {
                metrics: vec![
                    WireMetric {
                        name: "fedaqp_server_connections_total".into(),
                        value: 3.0,
                    },
                    WireMetric {
                        name: "fedaqp_server_xi_spent.alice".into(),
                        value: 1.25,
                    },
                ],
            }),
            Frame::OnlinePlan(OnlinePlanRequest {
                query: query(10, 60),
                sampling_rate: 0.3,
                epsilon: 4.0,
                delta: 1e-3,
                rounds: 5,
            }),
            Frame::OnlineSnapshot(OnlineSnapshotFrame {
                index: 1,
                round: 2,
                rounds: 5,
                sample_fraction: 0.4,
                value: 812.5,
                ci_halfwidth: Some(3.25),
                clusters_scanned: 17,
            }),
            Frame::OnlineSnapshot(OnlineSnapshotFrame {
                index: 0,
                round: 5,
                rounds: 5,
                sample_fraction: 1.0,
                value: -41.0,
                ci_halfwidth: None,
                clusters_scanned: 90,
            }),
            Frame::OnlineDone(OnlineDoneFrame {
                index: 1,
                eps: 4.0,
                delta: 1e-3,
                value: 812.5,
                summary_us: 120,
                allocation_us: 30,
                execution_us: 1100,
                release_us: 9,
                network_us: 100_500,
            }),
            Frame::Ingest(IngestRequest {
                provider: 2,
                rows: vec![
                    WireRow {
                        values: vec![17, -4],
                        measure: 1,
                    },
                    WireRow {
                        values: vec![90, 3],
                        measure: 12,
                    },
                ],
            }),
            Frame::IngestAck(IngestAckFrame {
                accepted: 2,
                epoch: 7,
                refreshed: true,
            }),
        ]
    }

    fn is_v4_frame(frame: &Frame) -> bool {
        matches!(
            frame,
            Frame::Fragment(_)
                | Frame::FragmentQueued
                | Frame::FragmentSummariesRequest
                | Frame::FragmentSummaries(_)
                | Frame::FragmentAllocation(_)
                | Frame::FragmentAllocated
                | Frame::FragmentPartialRequest
                | Frame::FragmentPartial(_)
                | Frame::FragmentAbort
                | Frame::FragmentAborted
                | Frame::ExtremeFragment(_)
                | Frame::ExtremePartial(_)
                | Frame::ShardBoundsRequest
                | Frame::ShardBounds(_)
        )
    }

    fn is_v5_frame(frame: &Frame) -> bool {
        matches!(frame, Frame::Metrics | Frame::MetricsAnswer(_))
    }

    fn is_v6_frame(frame: &Frame) -> bool {
        matches!(
            frame,
            Frame::OnlinePlan(_)
                | Frame::OnlineSnapshot(_)
                | Frame::OnlineDone(_)
                | Frame::Ingest(_)
                | Frame::IngestAck(_)
        )
    }

    fn sample_explanation() -> PlanExplanation {
        PlanExplanation {
            plan_kind: "derived".into(),
            n_providers: 4,
            optimizer: OptimizerConfig {
                prune_providers: true,
                dedup_subqueries: true,
                reorder_subqueries: false,
            },
            eps: 3.0,
            delta: 1e-3,
            sub_queries: vec![
                SubQueryExplanation {
                    label: "count".into(),
                    pruned_providers: vec![1, 3],
                    estimated_cost: 12,
                    reuses: None,
                    order: 0,
                },
                SubQueryExplanation {
                    label: "second-moment".into(),
                    pruned_providers: vec![],
                    estimated_cost: 12,
                    reuses: Some(0),
                    order: 1,
                },
            ],
        }
    }

    fn round_trip(frame: &Frame) -> Frame {
        let bytes = encode_frame(frame).unwrap();
        let mut slice: &[u8] = &bytes;
        let decoded = read_frame(&mut slice).unwrap();
        assert!(!slice.has_remaining(), "frame left bytes unread");
        decoded
    }

    #[test]
    fn every_frame_kind_round_trips() {
        for frame in all_frames() {
            assert_eq!(round_trip(&frame), frame);
        }
    }

    #[test]
    fn none_ci_and_unlimited_budget_round_trip() {
        let mut answer = sample_answer();
        if let Frame::Answer(a) = &mut answer {
            a.ci_halfwidth = None;
            a.allocations.clear();
        }
        assert_eq!(round_trip(&answer), answer);
        let ack = Frame::HelloAck(HelloAck {
            dimensions: vec![],
            n_providers: 1,
            epsilon: 0.5,
            delta: 0.0,
            calibration: 1,
            session_budget: None,
            max_version: VERSION,
        });
        assert_eq!(round_trip(&ack), ack);
        let status = Frame::BudgetStatus(BudgetStatus {
            limited: false,
            total_eps: f64::INFINITY,
            total_delta: 1.0,
            spent_eps: 0.0,
            spent_delta: 0.0,
            queries_answered: 9,
        });
        assert_eq!(round_trip(&status), status);
    }

    #[test]
    fn truncation_anywhere_is_an_error() {
        for frame in all_frames() {
            let bytes = encode_frame(&frame).unwrap();
            for cut in 0..bytes.len() {
                let mut slice = &bytes[..cut];
                assert!(
                    read_frame(&mut slice).is_err(),
                    "prefix of {cut} bytes decoded"
                );
            }
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        for frame in all_frames() {
            // Grow the payload by one byte and patch the declared length:
            // the decoder must reject the leftover byte, not ignore it.
            let mut bytes = encode_frame(&frame).unwrap();
            bytes.push(0);
            let len = (bytes.len() - HEADER_BYTES) as u32;
            bytes[7..11].copy_from_slice(&len.to_le_bytes());
            let mut slice: &[u8] = &bytes;
            assert!(matches!(
                read_frame(&mut slice),
                Err(NetError::Malformed("trailing bytes in frame"))
            ));
        }
    }

    #[test]
    fn header_validation() {
        let good = encode_frame(&Frame::BudgetRequest).unwrap();

        let mut bad_magic = good.clone();
        bad_magic[0] ^= 0xFF;
        assert!(matches!(
            read_frame(&mut &bad_magic[..]),
            Err(NetError::Malformed("bad frame magic"))
        ));

        let mut bad_version = good.clone();
        bad_version[4] = 99;
        assert!(matches!(
            read_frame(&mut &bad_version[..]),
            Err(NetError::UnsupportedVersion {
                requested: 99,
                supported: VERSION,
            })
        ));

        let mut bad_kind = good.clone();
        bad_kind[6] = 200;
        assert!(matches!(
            read_frame(&mut &bad_kind[..]),
            Err(NetError::UnknownKind(200))
        ));

        let mut oversized = good;
        oversized[7..11].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        assert!(matches!(
            read_frame(&mut &oversized[..]),
            Err(NetError::FrameTooLarge { .. })
        ));

        assert!(matches!(
            read_frame(&mut &b""[..]),
            Err(NetError::Disconnected)
        ));
    }

    #[test]
    fn absurd_declared_counts_are_rejected() {
        // A batch claiming 2^31 queries over an 8-byte body.
        let mut bytes = Vec::new();
        bytes.put_u32_le(MAGIC);
        bytes.put_u16_le(VERSION);
        bytes.put_u8(KIND_BATCH);
        bytes.put_u32_le(12);
        bytes.put_u32_le(1 << 31);
        bytes.put_u64_le(0);
        assert!(matches!(
            read_frame(&mut &bytes[..]),
            Err(NetError::Malformed("declared batch size too large"))
        ));

        // An answer claiming u32::MAX allocations.
        let frame = match sample_answer() {
            Frame::Answer(mut a) => {
                a.allocations.clear();
                Frame::Answer(a)
            }
            _ => unreachable!(),
        };
        let mut bytes = encode_frame(&frame).unwrap();
        // The allocation count sits after index+value+eps+delta+ci(9)+2*u64+u32.
        let at = HEADER_BYTES + 4 + 8 + 8 + 8 + 9 + 8 + 8 + 4;
        bytes[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_frame(&mut &bytes[..]),
            Err(NetError::Malformed("declared allocation count too large"))
        ));
    }

    #[test]
    fn rejects_bad_query_payloads() {
        // lo > hi.
        let mut bytes = Vec::new();
        bytes.put_f64_le(0.2);
        bytes.put_u8(0);
        bytes.put_u16_le(1);
        bytes.put_u32_le(0);
        bytes.put_i64_le(10);
        bytes.put_i64_le(5);
        assert!(decode_payload(KIND_QUERY, &bytes, VERSION).is_err());

        // Duplicate dimension.
        let mut bytes = Vec::new();
        bytes.put_f64_le(0.2);
        bytes.put_u8(0);
        bytes.put_u16_le(2);
        for _ in 0..2 {
            bytes.put_u32_le(3);
            bytes.put_i64_le(0);
            bytes.put_i64_le(5);
        }
        assert!(decode_payload(KIND_QUERY, &bytes, VERSION).is_err());

        // Unknown aggregate.
        let mut bytes = Vec::new();
        bytes.put_f64_le(0.2);
        bytes.put_u8(9);
        bytes.put_u16_le(0);
        assert!(decode_payload(KIND_QUERY, &bytes, VERSION).is_err());
    }

    #[test]
    fn strings_are_capped_and_utf8_checked() {
        let long = "x".repeat(MAX_STRING + 1);
        assert!(encode_frame(&Frame::Hello(Hello { analyst: long })).is_err());

        let mut bytes = Vec::new();
        bytes.put_u16_le(2);
        bytes.extend_from_slice(&[0xFF, 0xFE]);
        assert!(matches!(
            decode_payload(KIND_HELLO, &bytes, VERSION),
            Err(NetError::Malformed("string is not utf-8"))
        ));
    }

    #[test]
    fn v1_frames_round_trip_at_v1_unchanged() {
        // Every v1 frame kind must encode/decode at version 1 byte-for-
        // byte as before — this is what keeps v1 clients working against
        // newer servers.
        for frame in all_frames() {
            if matches!(
                frame,
                Frame::Plan(_) | Frame::PlanAnswer(_) | Frame::Explain(_) | Frame::ExplainAnswer(_)
            ) || is_v4_frame(&frame)
                || is_v5_frame(&frame)
                || is_v6_frame(&frame)
            {
                continue;
            }
            let expected = match &frame {
                // The version advertisement is not on a v1 wire; a v1
                // decode reports max_version = 1.
                Frame::HelloAck(a) => Frame::HelloAck(HelloAck {
                    max_version: 1,
                    ..a.clone()
                }),
                other => other.clone(),
            };
            let bytes = encode_frame_at(&frame, 1).unwrap();
            assert_eq!(bytes[4], 1, "header version");
            let mut slice: &[u8] = &bytes;
            let (decoded, version) = read_frame_versioned(&mut slice).unwrap();
            assert!(!slice.has_remaining());
            assert_eq!(version, 1);
            assert_eq!(decoded, expected);
        }
    }

    #[test]
    fn every_frame_kind_declares_its_minimum_version_once() {
        // An explicit oracle for the floor table: the frames each version
        // introduced, spelled out frame by frame.
        let introduced = |frame: &Frame| match frame {
            Frame::Plan(_) | Frame::PlanAnswer(_) => 2,
            Frame::Explain(_) | Frame::ExplainAnswer(_) => 3,
            f if is_v4_frame(f) => 4,
            f if is_v5_frame(f) => 5,
            f if is_v6_frame(f) => 6,
            _ => MIN_VERSION,
        };
        for frame in all_frames() {
            assert_eq!(frame.min_version(), introduced(&frame), "{frame:?}");
            // The codec reads the same table in both directions.
            for version in MIN_VERSION..=VERSION {
                let encoded = encode_frame_at(&frame, version);
                assert_eq!(
                    encoded.is_ok(),
                    version >= frame.min_version(),
                    "{frame:?} at v{version}"
                );
                if let Ok(bytes) = encoded {
                    let (_, decoded_at) = read_frame_versioned(&mut &bytes[..]).unwrap();
                    assert_eq!(decoded_at, version);
                }
            }
        }
    }

    #[test]
    fn plan_frames_are_v2_only() {
        let plan = Frame::Plan(PlanRequest {
            plan: QueryPlan::Extreme {
                dim: 0,
                extreme: Extreme::Min,
                epsilon: 1.0,
            },
        });
        assert!(matches!(
            encode_frame_at(&plan, 1),
            Err(NetError::Malformed("plan frames need protocol v2"))
        ));
        // A v1 header smuggling a plan kind is rejected at decode.
        let mut bytes = encode_frame(&plan).unwrap();
        bytes[4..6].copy_from_slice(&1u16.to_le_bytes());
        assert!(matches!(
            read_frame(&mut &bytes[..]),
            Err(NetError::Malformed("plan frames need protocol v2"))
        ));
        // Out-of-range encode versions are typed errors.
        assert!(matches!(
            encode_frame_at(&plan, 9),
            Err(NetError::UnsupportedVersion {
                requested: 9,
                supported: VERSION,
            })
        ));
    }

    #[test]
    fn v2_frames_round_trip_at_v2_unchanged() {
        // Every v2 frame kind must encode/decode at version 2 exactly as
        // a v2 build did — this is what keeps v2 clients working against
        // newer servers.
        for frame in all_frames() {
            if matches!(frame, Frame::Explain(_) | Frame::ExplainAnswer(_))
                || is_v4_frame(&frame)
                || is_v5_frame(&frame)
                || is_v6_frame(&frame)
            {
                continue;
            }
            let bytes = encode_frame_at(&frame, 2).unwrap();
            assert_eq!(bytes[4], 2, "header version");
            let mut slice: &[u8] = &bytes;
            let (decoded, version) = read_frame_versioned(&mut slice).unwrap();
            assert!(!slice.has_remaining());
            assert_eq!(version, 2);
            assert_eq!(decoded, frame);
        }
    }

    #[test]
    fn explain_frames_are_v3_only() {
        let explain = Frame::Explain(ExplainRequest {
            plan: QueryPlan::Extreme {
                dim: 0,
                extreme: Extreme::Min,
                epsilon: 1.0,
            },
        });
        let answer = Frame::ExplainAnswer(ExplainAnswerFrame {
            index: 0,
            explanation: sample_explanation(),
        });
        for frame in [&explain, &answer] {
            for version in [1, 2] {
                assert!(matches!(
                    encode_frame_at(frame, version),
                    Err(NetError::Malformed("explain frames need protocol v3"))
                ));
            }
            // A v2 header smuggling an explain kind is rejected at decode.
            let mut bytes = encode_frame(frame).unwrap();
            bytes[4..6].copy_from_slice(&2u16.to_le_bytes());
            assert!(matches!(
                read_frame(&mut &bytes[..]),
                Err(NetError::Malformed("explain frames need protocol v3"))
            ));
        }
    }

    #[test]
    fn v3_frames_round_trip_at_v3_unchanged() {
        // Every v3 frame kind must encode/decode at version 3 exactly as
        // a v3 build did — this is what keeps v3 analysts working against
        // newer servers.
        for frame in all_frames() {
            if is_v4_frame(&frame) || is_v5_frame(&frame) || is_v6_frame(&frame) {
                continue;
            }
            let bytes = encode_frame_at(&frame, 3).unwrap();
            assert_eq!(bytes[4], 3, "header version");
            let mut slice: &[u8] = &bytes;
            let (decoded, version) = read_frame_versioned(&mut slice).unwrap();
            assert!(!slice.has_remaining());
            assert_eq!(version, 3);
            assert_eq!(decoded, frame);
        }
    }

    #[test]
    fn v4_frames_round_trip_at_v4_unchanged() {
        // Every v4 frame kind must encode/decode at version 4 exactly as
        // a v4 build did — this is what keeps v4 coordinators and shard
        // servers working against the v5 binaries.
        for frame in all_frames() {
            if is_v5_frame(&frame) || is_v6_frame(&frame) {
                continue;
            }
            let bytes = encode_frame_at(&frame, 4).unwrap();
            assert_eq!(bytes[4], 4, "header version");
            let mut slice: &[u8] = &bytes;
            let (decoded, version) = read_frame_versioned(&mut slice).unwrap();
            assert!(!slice.has_remaining());
            assert_eq!(version, 4);
            assert_eq!(decoded, frame);
        }
    }

    #[test]
    fn v5_frames_round_trip_at_v5_unchanged() {
        // Every v5 frame kind must encode/decode at version 5 exactly as
        // a v5 build did — this is what keeps v5 analysts working against
        // the v6 binaries.
        for frame in all_frames() {
            if is_v6_frame(&frame) {
                continue;
            }
            let bytes = encode_frame_at(&frame, 5).unwrap();
            assert_eq!(bytes[4], 5, "header version");
            let mut slice: &[u8] = &bytes;
            let (decoded, version) = read_frame_versioned(&mut slice).unwrap();
            assert!(!slice.has_remaining());
            assert_eq!(version, 5);
            assert_eq!(decoded, frame);
        }
    }

    #[test]
    fn online_frames_are_v6_only() {
        for frame in all_frames().iter().filter(|f| is_v6_frame(f)) {
            for version in [1, 2, 3, 4, 5] {
                assert!(
                    matches!(
                        encode_frame_at(frame, version),
                        Err(NetError::Malformed(
                            "live-federation frames need protocol v6"
                        ))
                    ),
                    "{frame:?} encoded at v{version}"
                );
                // A pre-v6 header smuggling a live-federation kind is
                // rejected at decode.
                let mut bytes = encode_frame(frame).unwrap();
                bytes[4..6].copy_from_slice(&version.to_le_bytes());
                assert!(matches!(
                    read_frame(&mut &bytes[..]),
                    Err(NetError::Malformed(
                        "live-federation frames need protocol v6"
                    ))
                ));
            }
        }
    }

    #[test]
    fn online_plans_never_ride_the_plan_frame() {
        // The generic Plan/Explain frames refuse QueryPlan::Online — its
        // streaming answer needs the dedicated v6 conversation.
        let plan = QueryPlan::Online {
            query: query(10, 60),
            sampling_rate: 0.3,
            epsilon: 4.0,
            delta: 1e-3,
            rounds: 5,
        };
        for frame in [
            Frame::Plan(PlanRequest { plan: plan.clone() }),
            Frame::Explain(ExplainRequest { plan }),
        ] {
            assert!(matches!(
                encode_frame(&frame),
                Err(NetError::Malformed("online plans use the OnlinePlan frame"))
            ));
        }
    }

    #[test]
    fn absurd_ingest_counts_are_rejected() {
        // An ingest claiming u32::MAX rows over a tiny body.
        let mut bytes = Vec::new();
        bytes.put_u32_le(MAGIC);
        bytes.put_u16_le(VERSION);
        bytes.put_u8(KIND_INGEST);
        bytes.put_u32_le(4 + 4 + 8);
        bytes.put_u32_le(0); // provider
        bytes.put_u32_le(u32::MAX);
        bytes.put_u64_le(0);
        assert!(matches!(
            read_frame(&mut &bytes[..]),
            Err(NetError::Malformed("declared ingest batch too large"))
        ));

        // One row claiming u16::MAX values over a tiny body.
        let mut bytes = Vec::new();
        bytes.put_u32_le(MAGIC);
        bytes.put_u16_le(VERSION);
        bytes.put_u8(KIND_INGEST);
        bytes.put_u32_le(4 + 4 + 2 + 8);
        bytes.put_u32_le(0); // provider
        bytes.put_u32_le(1);
        bytes.put_u16_le(u16::MAX);
        bytes.put_u64_le(0);
        assert!(matches!(
            read_frame(&mut &bytes[..]),
            Err(NetError::Malformed("declared ingest row too large"))
        ));
    }

    #[test]
    fn metrics_frames_are_v5_only() {
        for frame in all_frames().iter().filter(|f| is_v5_frame(f)) {
            for version in [1, 2, 3, 4] {
                assert!(
                    matches!(
                        encode_frame_at(frame, version),
                        Err(NetError::Malformed("metrics frames need protocol v5"))
                    ),
                    "{frame:?} encoded at v{version}"
                );
                // A pre-v5 header smuggling a metrics kind is rejected
                // at decode.
                let mut bytes = encode_frame(frame).unwrap();
                bytes[4..6].copy_from_slice(&version.to_le_bytes());
                assert!(matches!(
                    read_frame(&mut &bytes[..]),
                    Err(NetError::Malformed("metrics frames need protocol v5"))
                ));
            }
        }
    }

    #[test]
    fn absurd_metric_counts_are_rejected() {
        // A metrics answer claiming u32::MAX samples over a tiny body.
        let mut bytes = Vec::new();
        bytes.put_u32_le(MAGIC);
        bytes.put_u16_le(VERSION);
        bytes.put_u8(KIND_METRICS_ANSWER);
        bytes.put_u32_le(4 + 8);
        bytes.put_u32_le(u32::MAX);
        bytes.put_u64_le(0);
        assert!(matches!(
            read_frame(&mut &bytes[..]),
            Err(NetError::Malformed("declared metric count too large"))
        ));
    }

    #[test]
    fn fragment_frames_are_v4_only() {
        for frame in all_frames().iter().filter(|f| is_v4_frame(f)) {
            for version in [1, 2, 3] {
                assert!(
                    matches!(
                        encode_frame_at(frame, version),
                        Err(NetError::Malformed("fragment frames need protocol v4"))
                    ),
                    "{frame:?} encoded at v{version}"
                );
                // A pre-v4 header smuggling a fragment kind is rejected
                // at decode.
                let mut bytes = encode_frame(frame).unwrap();
                bytes[4..6].copy_from_slice(&version.to_le_bytes());
                assert!(matches!(
                    read_frame(&mut &bytes[..]),
                    Err(NetError::Malformed("fragment frames need protocol v4"))
                ));
            }
        }
    }

    #[test]
    fn absurd_fragment_counts_are_rejected() {
        // A partial claiming u32::MAX rows over a tiny body.
        let mut bytes = Vec::new();
        bytes.put_u32_le(MAGIC);
        bytes.put_u16_le(VERSION);
        bytes.put_u8(KIND_FRAGMENT_PARTIAL);
        bytes.put_u32_le(4 + 8);
        bytes.put_u32_le(u32::MAX);
        bytes.put_u64_le(0);
        assert!(matches!(
            read_frame(&mut &bytes[..]),
            Err(NetError::Malformed("declared partial row count too large"))
        ));

        // Shard bounds claiming u32::MAX providers.
        let mut bytes = Vec::new();
        bytes.put_u32_le(MAGIC);
        bytes.put_u16_le(VERSION);
        bytes.put_u8(KIND_SHARD_BOUNDS);
        bytes.put_u32_le(4 + 8);
        bytes.put_u32_le(u32::MAX);
        bytes.put_u64_le(0);
        assert!(matches!(
            read_frame(&mut &bytes[..]),
            Err(NetError::Malformed("declared bounds count too large"))
        ));
    }

    #[test]
    fn absurd_subquery_counts_are_rejected() {
        // An explain answer claiming u32::MAX sub-queries over a tiny body.
        let mut bytes = Vec::new();
        bytes.put_u32_le(MAGIC);
        bytes.put_u16_le(VERSION);
        bytes.put_u8(KIND_EXPLAIN_ANSWER);
        bytes.put_u32_le(4 + 2 + 8 + 3 + 8 + 8 + 4);
        bytes.put_u32_le(0); // index
        bytes.put_u16_le(0); // plan kind: ""
        bytes.put_u64_le(4); // n_providers
        bytes.put_u8(1);
        bytes.put_u8(1);
        bytes.put_u8(1);
        bytes.put_f64_le(1.0); // eps
        bytes.put_f64_le(0.0); // delta
        bytes.put_u32_le(u32::MAX);
        assert!(matches!(
            read_frame(&mut &bytes[..]),
            Err(NetError::Malformed("declared sub-query count too large"))
        ));
    }

    #[test]
    fn absurd_group_counts_are_rejected() {
        // A plan answer claiming u32::MAX groups over a tiny body.
        let mut bytes = Vec::new();
        bytes.put_u32_le(MAGIC);
        bytes.put_u16_le(VERSION);
        bytes.put_u8(KIND_PLAN_ANSWER);
        bytes.put_u32_le(4 + 8 + 8 + 1 + 4 + 8);
        bytes.put_u32_le(0); // index
        bytes.put_f64_le(1.0); // eps
        bytes.put_f64_le(0.0); // delta
        bytes.put_u8(1); // groups tag
        bytes.put_u32_le(u32::MAX);
        bytes.put_u64_le(0);
        assert!(matches!(
            read_frame(&mut &bytes[..]),
            Err(NetError::Malformed("declared group count too large"))
        ));
    }

    #[test]
    fn calibration_codes_round_trip() {
        for cal in [
            EstimatorCalibration::EmCalibrated,
            EstimatorCalibration::PpsEq3,
        ] {
            assert_eq!(calibration_from_code(calibration_code(cal)).unwrap(), cal);
        }
        assert!(calibration_from_code(9).is_err());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Lowercase ASCII strings of up to 24 bytes (the vendored proptest
    /// shim has no regex strategies).
    fn arb_name() -> impl Strategy<Value = String> {
        proptest::collection::vec(97u8..123, 0..24)
            .prop_map(|bytes| String::from_utf8(bytes).expect("ascii"))
    }

    fn arb_opt_f64() -> impl Strategy<Value = Option<f64>> {
        (any::<bool>(), 0.0f64..1e6).prop_map(|(some, v)| some.then_some(v))
    }

    fn arb_query() -> impl Strategy<Value = QueryRequest> {
        (
            prop_oneof![Just(Aggregate::Count), Just(Aggregate::Sum)],
            proptest::collection::vec((0u32..64, -1000i64..1000, 0i64..1000), 1..6),
            0.001f64..0.999,
        )
            .prop_map(|(agg, raw, sampling_rate)| {
                // Distinct dims via an offset walk; widths non-negative.
                let ranges: Vec<Range> = raw
                    .iter()
                    .enumerate()
                    .map(|(i, &(dim, lo, width))| {
                        Range::new(dim as usize + i * 64, lo, lo + width).unwrap()
                    })
                    .collect();
                QueryRequest {
                    query: RangeQuery::new(agg, ranges).unwrap(),
                    sampling_rate,
                }
            })
    }

    fn arb_frame() -> BoxedStrategy<Frame> {
        let hello = arb_name()
            .prop_map(|analyst| Frame::Hello(Hello { analyst }))
            .boxed();
        let ack = (
            proptest::collection::vec((arb_name(), -5000i64..5000, 0i64..5000), 0..6),
            1u32..64,
            (0.001f64..100.0, 0.0f64..0.1),
            0u8..2,
            (any::<bool>(), 0.001f64..100.0, 0.0f64..0.1),
            1u16..8,
        )
            .prop_map(
                |(dims, n_providers, (epsilon, delta), calibration, (capped, xi, psi), max_v)| {
                    Frame::HelloAck(HelloAck {
                        dimensions: dims
                            .into_iter()
                            .map(|(name, min, width)| WireDimension {
                                name,
                                min,
                                max: min + width,
                            })
                            .collect(),
                        n_providers,
                        epsilon,
                        delta,
                        calibration,
                        session_budget: capped.then_some((xi, psi)),
                        max_version: max_v,
                    })
                },
            )
            .boxed();
        let query = arb_query().prop_map(Frame::Query).boxed();
        let batch = proptest::collection::vec(arb_query(), 0..8)
            .prop_map(|specs| Frame::Batch(BatchRequest { specs }))
            .boxed();
        let answer = (
            (any::<u32>(), any::<f64>(), 0.0f64..10.0, 0.0f64..0.1),
            arb_opt_f64(),
            (any::<u64>(), any::<u64>(), any::<u32>()),
            proptest::collection::vec(any::<u64>(), 0..8),
            (
                any::<u64>(),
                any::<u64>(),
                any::<u64>(),
                any::<u64>(),
                any::<u64>(),
            ),
        )
            .prop_map(
                |(
                    (index, value, eps, delta),
                    ci_halfwidth,
                    (clusters_scanned, covering_total, approximated_providers),
                    allocations,
                    (summary_us, allocation_us, execution_us, release_us, network_us),
                )| {
                    Frame::Answer(Answer {
                        index,
                        value,
                        eps,
                        delta,
                        ci_halfwidth,
                        clusters_scanned,
                        covering_total,
                        approximated_providers,
                        allocations,
                        summary_us,
                        allocation_us,
                        execution_us,
                        release_us,
                        network_us,
                    })
                },
            )
            .boxed();
        let error = (
            any::<u32>(),
            prop_oneof![
                Just(ErrorCode::BudgetExhausted),
                Just(ErrorCode::InvalidQuery),
                Just(ErrorCode::InvalidSamplingRate),
                Just(ErrorCode::BadRequest),
                Just(ErrorCode::Internal),
            ],
            arb_name(),
        )
            .prop_map(|(index, code, message)| {
                Frame::Error(ErrorFrame {
                    index,
                    code,
                    message,
                })
            })
            .boxed();
        let arb_statistic = || {
            prop_oneof![
                Just(DerivedStatistic::Average),
                Just(DerivedStatistic::Variance),
                Just(DerivedStatistic::StdDev),
            ]
        };
        let plan = (
            arb_query(),
            (0.001f64..100.0, 0.0f64..0.1, 0.0f64..500.0),
            0u32..256,
            (any::<bool>(), arb_statistic()),
            prop_oneof![Just(Extreme::Min), Just(Extreme::Max)],
            0u8..4,
        )
            .prop_map(
                |(spec, (epsilon, delta, threshold), dim, (grouped_stat, stat), extreme, shape)| {
                    let statistic = grouped_stat.then_some(stat);
                    let plan = match shape {
                        0 => QueryPlan::Scalar {
                            query: spec.query,
                            sampling_rate: spec.sampling_rate,
                            epsilon,
                            delta,
                        },
                        1 => QueryPlan::Derived {
                            query: spec.query,
                            statistic: stat,
                            sampling_rate: spec.sampling_rate,
                            epsilon,
                            delta,
                        },
                        2 => QueryPlan::GroupBy {
                            base: spec.query,
                            statistic,
                            group_dim: dim as usize,
                            threshold,
                            sampling_rate: spec.sampling_rate,
                            epsilon,
                            delta,
                        },
                        _ => QueryPlan::Extreme {
                            dim: dim as usize,
                            extreme,
                            epsilon,
                        },
                    };
                    Frame::Plan(PlanRequest { plan })
                },
            )
            .boxed();
        let plan_answer = (
            (any::<u32>(), 0.0f64..100.0, 0.0f64..0.1),
            0u8..3,
            (any::<f64>(), arb_opt_f64(), -5000i64..5000),
            proptest::collection::vec((-5000i64..5000, 0.0f64..1e6, arb_opt_f64()), 0..6),
            any::<u64>(),
            (
                any::<u64>(),
                any::<u64>(),
                any::<u64>(),
                any::<u64>(),
                any::<u64>(),
            ),
        )
            .prop_map(
                |(
                    (index, eps, delta),
                    shape,
                    (value, ci_halfwidth, extreme_value),
                    raw_groups,
                    suppressed,
                    (summary_us, allocation_us, execution_us, release_us, network_us),
                )| {
                    let result = match shape {
                        0 => WirePlanResult::Value {
                            value,
                            ci_halfwidth,
                        },
                        1 => WirePlanResult::Groups {
                            groups: raw_groups
                                .into_iter()
                                .map(|(key, value, ci_halfwidth)| WireGroup {
                                    key,
                                    value,
                                    ci_halfwidth,
                                })
                                .collect(),
                            suppressed,
                        },
                        _ => WirePlanResult::Extreme {
                            value: extreme_value,
                        },
                    };
                    Frame::PlanAnswer(PlanAnswerFrame {
                        index,
                        eps,
                        delta,
                        result,
                        summary_us,
                        allocation_us,
                        execution_us,
                        release_us,
                        network_us,
                    })
                },
            )
            .boxed();
        let explain = (
            arb_query(),
            (0.001f64..100.0, 0.0f64..0.1),
            prop_oneof![Just(Extreme::Min), Just(Extreme::Max)],
            0u32..256,
            any::<bool>(),
        )
            .prop_map(|(spec, (epsilon, delta), extreme, dim, scalar)| {
                let plan = if scalar {
                    QueryPlan::Scalar {
                        query: spec.query,
                        sampling_rate: spec.sampling_rate,
                        epsilon,
                        delta,
                    }
                } else {
                    QueryPlan::Extreme {
                        dim: dim as usize,
                        extreme,
                        epsilon,
                    }
                };
                Frame::Explain(ExplainRequest { plan })
            })
            .boxed();
        let explain_answer = (
            (any::<u32>(), arb_name(), 0u64..64),
            (any::<bool>(), any::<bool>(), any::<bool>()),
            (0.0f64..100.0, 0.0f64..0.1),
            proptest::collection::vec(
                (
                    arb_name(),
                    proptest::collection::vec(any::<u64>(), 0..6),
                    any::<u64>(),
                    (any::<bool>(), any::<u64>()),
                    any::<u64>(),
                ),
                0..6,
            ),
        )
            .prop_map(
                |((index, plan_kind, n_providers), (prune, dedup, reorder), (eps, delta), subs)| {
                    Frame::ExplainAnswer(ExplainAnswerFrame {
                        index,
                        explanation: PlanExplanation {
                            plan_kind,
                            n_providers,
                            optimizer: OptimizerConfig {
                                prune_providers: prune,
                                dedup_subqueries: dedup,
                                reorder_subqueries: reorder,
                            },
                            eps,
                            delta,
                            sub_queries: subs
                                .into_iter()
                                .map(|(label, pruned_providers, cost, (reused, at), order)| {
                                    SubQueryExplanation {
                                        label,
                                        pruned_providers,
                                        estimated_cost: cost,
                                        reuses: reused.then_some(at),
                                        order,
                                    }
                                })
                                .collect(),
                        },
                    })
                },
            )
            .boxed();
        let budget_req = Just(Frame::BudgetRequest).boxed();
        let budget_status = (
            any::<bool>(),
            (0.0f64..1000.0, 0.0f64..1.0, 0.0f64..1000.0, 0.0f64..1.0),
            any::<u64>(),
        )
            .prop_map(
                |(limited, (total_eps, total_delta, spent_eps, spent_delta), queries)| {
                    Frame::BudgetStatus(BudgetStatus {
                        limited,
                        total_eps,
                        total_delta,
                        spent_eps,
                        spent_delta,
                        queries_answered: queries,
                    })
                },
            )
            .boxed();
        let fragment = (
            arb_query(),
            (0.001f64..10.0, 0.001f64..10.0, 0.001f64..10.0, 0.0f64..0.1),
            any::<u64>(),
        )
            .prop_map(|(spec, (eps_o, eps_s, eps_e, delta), occurrence)| {
                Frame::Fragment(FragmentRequest {
                    query: spec.query,
                    sampling_rate: spec.sampling_rate,
                    eps_o,
                    eps_s,
                    eps_e,
                    delta,
                    occurrence,
                })
            })
            .boxed();
        let fragment_summaries = (
            proptest::collection::vec((any::<f64>(), any::<f64>()), 0..8),
            any::<u64>(),
        )
            .prop_map(|(raw, summary_us)| {
                Frame::FragmentSummaries(FragmentSummariesFrame {
                    summaries: raw
                        .into_iter()
                        .map(|(noisy_n_q, noisy_avg_r)| WireSummary {
                            noisy_n_q,
                            noisy_avg_r,
                        })
                        .collect(),
                    summary_us,
                })
            })
            .boxed();
        let fragment_allocation = proptest::collection::vec(any::<u64>(), 0..8)
            .prop_map(|allocations| {
                Frame::FragmentAllocation(FragmentAllocationFrame { allocations })
            })
            .boxed();
        let fragment_partial = (
            proptest::collection::vec(
                (
                    any::<f64>(),
                    arb_opt_f64(),
                    any::<bool>(),
                    any::<u64>(),
                    any::<u64>(),
                ),
                0..8,
            ),
            any::<u64>(),
        )
            .prop_map(|(raw, execution_us)| {
                Frame::FragmentPartial(FragmentPartialFrame {
                    rows: raw
                        .into_iter()
                        .map(
                            |(released, variance, approximated, clusters_scanned, n_covering)| {
                                WirePartialRow {
                                    released,
                                    variance,
                                    approximated,
                                    clusters_scanned,
                                    n_covering,
                                }
                            },
                        )
                        .collect(),
                    execution_us,
                })
            })
            .boxed();
        let extreme_fragment = (
            0u32..256,
            prop_oneof![Just(Extreme::Min), Just(Extreme::Max)],
            0.001f64..100.0,
            any::<u64>(),
        )
            .prop_map(|(dim, extreme, epsilon, occurrence)| {
                Frame::ExtremeFragment(ExtremeFragmentRequest {
                    dim,
                    extreme,
                    epsilon,
                    occurrence,
                })
            })
            .boxed();
        let extreme_partial = (any::<i64>(), any::<u64>())
            .prop_map(|(value, execution_us)| {
                Frame::ExtremePartial(ExtremePartialFrame {
                    value,
                    execution_us,
                })
            })
            .boxed();
        let shard_bounds = proptest::collection::vec(
            (
                proptest::collection::vec((any::<bool>(), -5000i64..5000, 0i64..5000), 0..4),
                any::<u64>(),
            ),
            0..6,
        )
        .prop_map(|raw| {
            Frame::ShardBounds(ShardBoundsFrame {
                providers: raw
                    .into_iter()
                    .map(|(dims, n_clusters)| WireProviderBounds {
                        dims: dims
                            .into_iter()
                            .map(|(some, lo, width)| some.then_some((lo, lo + width)))
                            .collect(),
                        n_clusters,
                    })
                    .collect(),
            })
        })
        .boxed();
        let fragment_signals = prop_oneof![
            Just(Frame::FragmentQueued),
            Just(Frame::FragmentSummariesRequest),
            Just(Frame::FragmentAllocated),
            Just(Frame::FragmentPartialRequest),
            Just(Frame::FragmentAbort),
            Just(Frame::FragmentAborted),
            Just(Frame::ShardBoundsRequest),
        ]
        .boxed();
        let online_plan = (arb_query(), (0.001f64..100.0, 0.0f64..0.1), 1u32..64)
            .prop_map(|(spec, (epsilon, delta), rounds)| {
                Frame::OnlinePlan(OnlinePlanRequest {
                    query: spec.query,
                    sampling_rate: spec.sampling_rate,
                    epsilon,
                    delta,
                    rounds,
                })
            })
            .boxed();
        let online_snapshot = (
            (any::<u32>(), 1u32..64, 1u32..64),
            (0.0f64..1.0, any::<f64>()),
            arb_opt_f64(),
            any::<u64>(),
        )
            .prop_map(
                |((index, round, rounds), (sample_fraction, value), ci_halfwidth, scanned)| {
                    Frame::OnlineSnapshot(OnlineSnapshotFrame {
                        index,
                        round,
                        rounds,
                        sample_fraction,
                        value,
                        ci_halfwidth,
                        clusters_scanned: scanned,
                    })
                },
            )
            .boxed();
        let online_done = (
            (any::<u32>(), 0.0f64..100.0, 0.0f64..0.1, any::<f64>()),
            (
                any::<u64>(),
                any::<u64>(),
                any::<u64>(),
                any::<u64>(),
                any::<u64>(),
            ),
        )
            .prop_map(
                |(
                    (index, eps, delta, value),
                    (summary_us, allocation_us, execution_us, release_us, network_us),
                )| {
                    Frame::OnlineDone(OnlineDoneFrame {
                        index,
                        eps,
                        delta,
                        value,
                        summary_us,
                        allocation_us,
                        execution_us,
                        release_us,
                        network_us,
                    })
                },
            )
            .boxed();
        let ingest = (
            any::<u32>(),
            proptest::collection::vec(
                (
                    proptest::collection::vec(any::<i64>(), 0..4),
                    1u64..1_000_000,
                ),
                0..8,
            ),
        )
            .prop_map(|(provider, raw)| {
                Frame::Ingest(IngestRequest {
                    provider,
                    rows: raw
                        .into_iter()
                        .map(|(values, measure)| WireRow { values, measure })
                        .collect(),
                })
            })
            .boxed();
        let ingest_ack = (any::<u64>(), any::<u64>(), any::<bool>())
            .prop_map(|(accepted, epoch, refreshed)| {
                Frame::IngestAck(IngestAckFrame {
                    accepted,
                    epoch,
                    refreshed,
                })
            })
            .boxed();
        let metrics = Just(Frame::Metrics).boxed();
        let metrics_answer = proptest::collection::vec((arb_name(), -1e9f64..1e9), 0..8)
            .prop_map(|raw| {
                Frame::MetricsAnswer(MetricsAnswerFrame {
                    metrics: raw
                        .into_iter()
                        .map(|(name, value)| WireMetric { name, value })
                        .collect(),
                })
            })
            .boxed();
        prop_oneof![
            hello,
            ack,
            query,
            batch,
            answer,
            error,
            budget_req,
            budget_status,
            plan,
            plan_answer,
            explain,
            explain_answer,
            fragment,
            fragment_summaries,
            fragment_allocation,
            fragment_partial,
            extreme_fragment,
            extreme_partial,
            shard_bounds,
            fragment_signals,
            metrics,
            metrics_answer,
            online_plan,
            online_snapshot,
            online_done,
            ingest,
            ingest_ack
        ]
        .boxed()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every frame the protocol can express round-trips bit-exactly,
        /// and the decode consumes the whole frame.
        #[test]
        fn arbitrary_frames_round_trip(frame in arb_frame()) {
            let bytes = encode_frame(&frame).unwrap();
            let mut slice: &[u8] = &bytes;
            let decoded = read_frame(&mut slice).unwrap();
            prop_assert!(!slice.has_remaining());
            prop_assert_eq!(decoded, frame);
        }

        /// No byte-flip in the header survives validation silently: the
        /// result is either an error or (for a payload-length byte) a
        /// stalled read, never a silently different frame kind.
        #[test]
        fn header_bit_flips_never_panic(frame in arb_frame(), byte in 0usize..HEADER_BYTES, bit in 0u8..8) {
            let mut bytes = encode_frame(&frame).unwrap();
            bytes[byte] ^= 1 << bit;
            let mut slice: &[u8] = &bytes;
            let _ = read_frame(&mut slice); // must not panic
        }
    }
}
