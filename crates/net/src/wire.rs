//! The length-prefixed binary wire protocol, each frame declared once.
//!
//! Every message on a federation connection is one *frame*:
//!
//! ```text
//! magic   u32  = 0x4651_4E50  ("FQNP")
//! version u16  (7)
//! kind    u8
//! len     u32  (payload bytes; hard-capped at MAX_PAYLOAD)
//! payload [len bytes]
//! ```
//!
//! **Declared once.** Every frame kind is one entry of the `frames!` table
//! below: its kind byte, its payload struct with the fields in wire order,
//! and the cap on every list or string field (`rows: Vec<WireRow>
//! [MAX_INGEST_ROWS]`). The macro generates the [`Frame`] variant, the
//! payload struct, the kind lookup, the encoder and the decoder from that
//! one entry, so a frame encodes and decodes by construction. Field
//! values go through one small trait: integers are little-endian and
//! fixed-width (matching `fedaqp_storage::codec`), `f64` travels as its
//! bits, `usize` as `u64`, `bool` and `Option` as strict `0`/`1` tags,
//! enums as a one-byte tag, and lists and strings as a `u32` count before
//! their items.
//!
//! The defensive checks therefore live in one place for every frame:
//! truncation anywhere fails loudly; a declared count over its field's
//! cap, or over what the remaining bytes could hold
//! ([`fedaqp_storage::declared_len_fits`]), is rejected with
//! [`NetError::CountOutOfRange`] naming the field, before anything is
//! allocated; unknown tags are rejected; and a payload that decodes
//! without consuming every byte is rejected (`trailing bytes`). The
//! encoding is canonical: every frame that decodes re-encodes to exactly
//! the bytes it was read from.
//!
//! **One version.** The protocol has one version, [`VERSION`]. A header
//! with any other version fails with [`NetError::UnsupportedVersion`]
//! *before* any payload is read, and servers answer it with a typed
//! [`ErrorCode::UnsupportedVersion`] frame (whose `index` field carries
//! [`VERSION`]) instead of hanging up bare.
//!
//! Conversation shape (client ⇒ server unless noted):
//!
//! * [`Frame::Hello`] opens a connection; the server replies with
//!   [`Frame::HelloAck`] (schema, defaults, session budget) or a typed
//!   [`Frame::Error`].
//! * [`Frame::Plan`] submits one [`QueryPlan`] — the only analyst request
//!   shape. The server validates the plan, charges its whole `(ε, δ)`
//!   atomically, and replies with one [`Frame::PlanAnswer`] or
//!   [`Frame::Error`]. A [`QueryPlan::Online`] plan is answered instead
//!   with one server-pushed [`Frame::OnlineSnapshot`] per round, sent **as
//!   each round completes**, closed by one [`Frame::OnlineDone`] (or a
//!   [`Frame::Error`]). Every snapshot value is a DP release under the
//!   plan's per-round `(ε/k, δ/k)` — nothing pre-noise is pushed.
//! * [`Frame::Explain`] asks what the optimizer would decide about a
//!   [`QueryPlan`] *without running it*; the server replies with one
//!   [`Frame::ExplainAnswer`] (carrying a [`PlanExplanation`]) or
//!   [`Frame::Error`]. Explaining charges no budget — the explanation is
//!   computed from the plan and public offline metadata only.
//! * [`Frame::BudgetRequest`] asks for the session ledger; the server
//!   replies with [`Frame::BudgetStatus`].
//! * [`Frame::Metrics`] asks for the server's telemetry snapshot; the
//!   server replies with one [`Frame::MetricsAnswer`] carrying flat
//!   `(name, value)` samples. Every sample passed the `fedaqp-obs`
//!   `ObsValue` provenance boundary — durations, counts, public metadata,
//!   and already-released budget spend only; raw estimates and
//!   sensitivities are unrepresentable (pinned by the adversarial
//!   frame-hygiene scan).
//! * [`Frame::Ingest`] appends a batch of rows to one provider of a server
//!   started in *live mode*; the server replies with [`Frame::IngestAck`]
//!   (rows accepted, new data epoch, whether the staleness policy
//!   triggered a full metadata recompute). Non-live servers refuse ingest
//!   with a typed error.
//!
//! **Shard fragment frames (coordinator ⇒ shard).** A server started in
//! *shard mode* serves a scatter–gather coordinator instead of analysts.
//! A connection carries one fragment at a time through its lifecycle, and
//! is reused for fragment after fragment; replies come back in request
//! order, so a client may pipeline a lifecycle's requests (the summaries
//! request right behind the queued acknowledgement, the partial request
//! right behind the allocation). The lifecycle: [`Frame::Fragment`] ⇒
//! [`Frame::FragmentQueued`]; [`Frame::FragmentSummariesRequest`] ⇒
//! [`Frame::FragmentSummaries`] (per-provider DP summaries, local provider
//! order); [`Frame::FragmentAllocation`] (the coordinator's globally
//! solved slice) ⇒ [`Frame::FragmentAllocated`];
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

use fedaqp_core::{EstimatorCalibration, OptimizerConfig, PlanExplanation, SubQueryExplanation};
use fedaqp_model::{Aggregate, DerivedStatistic, Extreme, QueryPlan, Range, RangeQuery};
use fedaqp_storage::declared_len_fits;

use crate::{NetError, Result};

/// Frame magic ("FQNP").
pub const MAGIC: u32 = 0x4651_4E50;
/// The wire-protocol version: the only one this build speaks.
pub const VERSION: u16 = 7;
/// Hard cap on a frame payload. Nothing legitimate comes close (the
/// largest frame is a maximal ingest batch at well under 1 MiB); anything
/// larger is a hostile or corrupt length prefix.
pub const MAX_PAYLOAD: u32 = 1 << 20;
/// Frame header size: magic + version + kind + payload length.
pub const HEADER_BYTES: usize = 4 + 2 + 1 + 4;

/// Rows one `Ingest` frame may carry (exported so clients can chunk
/// larger batches themselves).
pub const MAX_INGEST_ROWS: usize = 4096;
/// Caps on the other list and string fields. All are generous for real
/// deployments while keeping worst-case decode work tiny.
const MAX_STRING: usize = 1024;
const MAX_DIMS: usize = 1024;
const MAX_RANGES: usize = 1024;
const MAX_PROVIDERS: usize = 4096;
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

// ----------------------------------------------------------------- values

/// A value with one canonical wire encoding.
trait Wire: Sized {
    /// The fewest bytes any value encodes to: what a declared count of
    /// these values is checked against before anything is allocated.
    const MIN_BYTES: usize;
    fn put(&self, buf: &mut Vec<u8>) -> Result<()>;
    fn get(data: &mut &[u8]) -> Result<Self>;
}

/// Splits the next `N` bytes off `data`.
fn take<const N: usize>(data: &mut &[u8]) -> Result<[u8; N]> {
    if data.len() < N {
        return Err(NetError::Malformed("frame truncated"));
    }
    let (head, rest) = data.split_at(N);
    *data = rest;
    Ok(head.try_into().expect("split at N bytes"))
}

macro_rules! wire_le {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            const MIN_BYTES: usize = std::mem::size_of::<$t>();
            fn put(&self, buf: &mut Vec<u8>) -> Result<()> {
                buf.extend_from_slice(&self.to_le_bytes());
                Ok(())
            }
            fn get(data: &mut &[u8]) -> Result<Self> {
                Ok(<$t>::from_le_bytes(take(data)?))
            }
        }
    )*};
}

wire_le!(u8, u16, u32, u64, i64, f64);

impl Wire for usize {
    const MIN_BYTES: usize = 8;
    fn put(&self, buf: &mut Vec<u8>) -> Result<()> {
        (*self as u64).put(buf)
    }
    fn get(data: &mut &[u8]) -> Result<Self> {
        usize::try_from(u64::get(data)?).map_err(|_| NetError::Malformed("index exceeds usize"))
    }
}

impl Wire for bool {
    const MIN_BYTES: usize = 1;
    fn put(&self, buf: &mut Vec<u8>) -> Result<()> {
        u8::from(*self).put(buf)
    }
    fn get(data: &mut &[u8]) -> Result<Self> {
        match u8::get(data)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(NetError::Malformed("bad boolean or option tag")),
        }
    }
}

impl<T: Wire> Wire for Option<T> {
    const MIN_BYTES: usize = 1;
    fn put(&self, buf: &mut Vec<u8>) -> Result<()> {
        self.is_some().put(buf)?;
        match self {
            Some(value) => value.put(buf),
            None => Ok(()),
        }
    }
    fn get(data: &mut &[u8]) -> Result<Self> {
        match bool::get(data)? {
            true => T::get(data).map(Some),
            false => Ok(None),
        }
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    const MIN_BYTES: usize = A::MIN_BYTES + B::MIN_BYTES;
    fn put(&self, buf: &mut Vec<u8>) -> Result<()> {
        self.0.put(buf)?;
        self.1.put(buf)
    }
    fn get(data: &mut &[u8]) -> Result<Self> {
        Ok((A::get(data)?, B::get(data)?))
    }
}

/// Writes a list or string field's count, refusing one over its cap.
fn put_count(count: usize, cap: usize, field: &'static str, buf: &mut Vec<u8>) -> Result<()> {
    if count > cap {
        return Err(NetError::CountOutOfRange { field, count, cap });
    }
    (count as u32).put(buf)
}

/// A variable-length field — a list or a string — encoded as a `u32`
/// count before its items. Such a field has no [`Wire`] encoding of its
/// own: every declaration of one names its cap.
trait Capped: Sized {
    /// The fewest bytes one item encodes to.
    const ITEM_BYTES: usize;
    fn count(&self) -> usize;
    fn put_items(&self, buf: &mut Vec<u8>) -> Result<()>;
    /// Decodes `count` items; the count is already checked to fit.
    fn get_items(count: usize, data: &mut &[u8]) -> Result<Self>;

    fn put_capped(&self, cap: usize, field: &'static str, buf: &mut Vec<u8>) -> Result<()> {
        put_count(self.count(), cap, field, buf)?;
        self.put_items(buf)
    }

    fn get_capped(data: &mut &[u8], cap: usize, field: &'static str) -> Result<Self> {
        let count = u32::get(data)? as usize;
        if count > cap || !declared_len_fits(count, Self::ITEM_BYTES, data.len()) {
            return Err(NetError::CountOutOfRange { field, count, cap });
        }
        Self::get_items(count, data)
    }
}

impl<T: Wire> Capped for Vec<T> {
    const ITEM_BYTES: usize = T::MIN_BYTES;
    fn count(&self) -> usize {
        self.len()
    }
    fn put_items(&self, buf: &mut Vec<u8>) -> Result<()> {
        self.iter().try_for_each(|item| item.put(buf))
    }
    fn get_items(count: usize, data: &mut &[u8]) -> Result<Self> {
        let mut items = Vec::with_capacity(count);
        for _ in 0..count {
            items.push(T::get(data)?);
        }
        Ok(items)
    }
}

impl Capped for String {
    const ITEM_BYTES: usize = 1;
    fn count(&self) -> usize {
        self.len()
    }
    fn put_items(&self, buf: &mut Vec<u8>) -> Result<()> {
        buf.extend_from_slice(self.as_bytes());
        Ok(())
    }
    fn get_items(count: usize, data: &mut &[u8]) -> Result<Self> {
        let (bytes, rest) = data.split_at(count);
        *data = rest;
        String::from_utf8(bytes.to_vec()).map_err(|_| NetError::Malformed("string is not utf-8"))
    }
}

/// One field's encoding: through [`Wire`], or through [`Capped`] when the
/// field declares a cap.
macro_rules! field {
    (min $ty:ty, $cap:expr) => {
        4
    };
    (min $ty:ty) => {
        <$ty as Wire>::MIN_BYTES
    };
    (put $buf:ident, $value:expr, $ty:ty, $name:expr, $cap:expr) => {
        <$ty as Capped>::put_capped($value, $cap, $name, $buf)?
    };
    (put $buf:ident, $value:expr, $ty:ty, $name:expr) => {
        <$ty as Wire>::put($value, $buf)?
    };
    (get $data:ident, $ty:ty, $name:expr, $cap:expr) => {
        <$ty as Capped>::get_capped($data, $cap, $name)?
    };
    (get $data:ident, $ty:ty, $name:expr) => {
        <$ty as Wire>::get($data)?
    };
}

/// A record's encoding: its fields in declaration order. The `impl` form
/// encodes a struct declared elsewhere; the other form also declares it.
macro_rules! wire_struct {
    (impl $T:ident { $($f:ident: $ty:ty $([$cap:expr])?),* $(,)? }) => {
        impl Wire for $T {
            const MIN_BYTES: usize = 0 $(+ field!(min $ty $(, $cap)?))*;
            fn put(&self, buf: &mut Vec<u8>) -> Result<()> {
                $(field!(put buf, &self.$f, $ty, concat!(stringify!($T), ".", stringify!($f)) $(, $cap)?);)*
                Ok(())
            }
            fn get(data: &mut &[u8]) -> Result<Self> {
                Ok(Self {
                    $($f: field!(get data, $ty, concat!(stringify!($T), ".", stringify!($f)) $(, $cap)?),)*
                })
            }
        }
    };
    (
        $(#[$attr:meta])*
        pub struct $T:ident {
            $($(#[$fattr:meta])* pub $f:ident: $ty:ty $([$cap:expr])?),* $(,)?
        }
    ) => {
        $(#[$attr])*
        pub struct $T {
            $($(#[$fattr])* pub $f: $ty,)*
        }
        wire_struct!(impl $T { $($f: $ty $([$cap])?),* });
    };
}

/// An enum's encoding: a one-byte tag, then the variant's fields in
/// declaration order.
macro_rules! wire_enum {
    ($T:ident { $($tag:literal => $V:ident $({ $($f:ident: $ty:ty $([$cap:expr])?),* $(,)? })?),* $(,)? }) => {
        impl Wire for $T {
            const MIN_BYTES: usize = 1;
            fn put(&self, buf: &mut Vec<u8>) -> Result<()> {
                match self {
                    $($T::$V $({ $($f),* })? => {
                        buf.push($tag);
                        $($(field!(put buf, $f, $ty, concat!(stringify!($T), "::", stringify!($V), ".", stringify!($f)) $(, $cap)?);)*)?
                    })*
                }
                Ok(())
            }
            fn get(data: &mut &[u8]) -> Result<Self> {
                Ok(match u8::get(data)? {
                    $($tag => $T::$V $({
                        $($f: field!(get data, $ty, concat!(stringify!($T), "::", stringify!($V), ".", stringify!($f)) $(, $cap)?)),*
                    })?,)*
                    _ => return Err(NetError::Malformed(concat!("unknown ", stringify!($T), " tag"))),
                })
            }
        }
    };
}

wire_enum!(Aggregate { 0 => Count, 1 => Sum });
wire_enum!(Extreme { 0 => Min, 1 => Max });
wire_enum!(DerivedStatistic { 0 => Average, 1 => Variance, 2 => StdDev });
wire_enum!(EstimatorCalibration { 0 => EmCalibrated, 1 => PpsEq3 });
wire_enum!(ErrorCode {
    1 => BudgetExhausted,
    2 => InvalidQuery,
    3 => InvalidSamplingRate,
    4 => BadRequest,
    5 => Internal,
    6 => UnsupportedVersion,
    7 => ShardUnavailable,
});

wire_enum!(QueryPlan {
    0 => Scalar { query: RangeQuery, sampling_rate: f64, epsilon: f64, delta: f64 },
    1 => Derived {
        query: RangeQuery,
        statistic: DerivedStatistic,
        sampling_rate: f64,
        epsilon: f64,
        delta: f64,
    },
    2 => GroupBy {
        base: RangeQuery,
        statistic: Option<DerivedStatistic>,
        group_dim: usize,
        threshold: f64,
        sampling_rate: f64,
        epsilon: f64,
        delta: f64,
    },
    3 => Extreme { dim: usize, extreme: Extreme, epsilon: f64 },
    4 => Online { query: RangeQuery, sampling_rate: f64, epsilon: f64, delta: f64, rounds: usize },
});

wire_enum!(WirePlanResult {
    0 => Value { value: f64, ci_halfwidth: Option<f64> },
    1 => Groups { groups: Vec<WireGroup> [MAX_GROUPS], suppressed: u64 },
    2 => Extreme { value: i64 },
});

wire_struct!(impl OptimizerConfig {
    prune_providers: bool,
    dedup_subqueries: bool,
    reorder_subqueries: bool,
});

wire_struct!(impl SubQueryExplanation {
    label: String [MAX_STRING],
    pruned_providers: Vec<u64> [MAX_PROVIDERS],
    estimated_cost: u64,
    reuses: Option<u64>,
    order: u64,
});

wire_struct!(impl PlanExplanation {
    plan_kind: String [MAX_STRING],
    n_providers: u64,
    optimizer: OptimizerConfig,
    eps: f64,
    delta: f64,
    sub_queries: Vec<SubQueryExplanation> [MAX_SUBQUERIES],
});

impl Wire for Range {
    const MIN_BYTES: usize = 3 * 8;
    fn put(&self, buf: &mut Vec<u8>) -> Result<()> {
        self.dim.put(buf)?;
        self.lo.put(buf)?;
        self.hi.put(buf)
    }
    fn get(data: &mut &[u8]) -> Result<Self> {
        let (dim, lo, hi) = (usize::get(data)?, i64::get(data)?, i64::get(data)?);
        Range::new(dim, lo, hi).map_err(|_| NetError::Malformed("empty range"))
    }
}

impl Wire for RangeQuery {
    const MIN_BYTES: usize = 1 + 4;
    fn put(&self, buf: &mut Vec<u8>) -> Result<()> {
        self.aggregate().put(buf)?;
        // `RangeQuery::ranges` is sorted by dimension: the canonical order.
        let ranges = self.ranges();
        put_count(ranges.len(), MAX_RANGES, "RangeQuery.ranges", buf)?;
        ranges.iter().try_for_each(|range| range.put(buf))
    }
    fn get(data: &mut &[u8]) -> Result<Self> {
        let aggregate = Aggregate::get(data)?;
        let ranges: Vec<Range> = Capped::get_capped(data, MAX_RANGES, "RangeQuery.ranges")?;
        // Sorted, distinct dimensions only: anything else would decode to
        // a query that re-encodes differently.
        if ranges.windows(2).any(|pair| pair[0].dim >= pair[1].dim) {
            return Err(NetError::Malformed("query ranges out of dimension order"));
        }
        RangeQuery::new(aggregate, ranges).map_err(|_| NetError::Malformed("invalid range set"))
    }
}

// ----------------------------------------------------------------- frames

/// Typed error classes a server reports per request or per connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The analyst's session `(ξ, ψ)` cannot afford the plan.
    BudgetExhausted,
    /// The plan itself is invalid (unknown dimension, empty range, …).
    InvalidQuery,
    /// The sampling rate is outside `(0, 1)`.
    InvalidSamplingRate,
    /// The request was malformed or arrived out of protocol order.
    BadRequest,
    /// The server failed internally.
    Internal,
    /// The client's frame header declared a wire-protocol version other
    /// than [`VERSION`]. The error frame's `index` field carries the
    /// server's version so the client can surface both sides.
    UnsupportedVersion,
    /// A downstream engine shard refused a connection or dropped
    /// mid-plan (reported by a coordinator to its analysts). The plan's
    /// already-charged budget stays charged — fail-closed.
    ShardUnavailable,
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

wire_struct! {
    /// One schema dimension as published to remote analysts.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct WireDimension {
        /// Dimension name.
        pub name: String [MAX_STRING],
        /// Domain minimum.
        pub min: i64,
        /// Domain maximum.
        pub max: i64,
    }
}

wire_struct! {
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
}

wire_struct! {
    /// One metric sample inside a [`MetricsAnswerFrame`]: a flat name/value
    /// pair from the server's `fedaqp-obs` registry snapshot.
    #[derive(Debug, Clone, PartialEq)]
    pub struct WireMetric {
        /// Metric name (static catalog entry or a labeled family member).
        pub name: String [MAX_STRING],
        /// The sample value. On the serving side every value entered the
        /// registry through the `ObsValue` provenance boundary: durations,
        /// counts, public metadata, and already-released budget spend only.
        pub value: f64,
    }
}

wire_struct! {
    /// One row of an ingest batch: dimension values plus the cell measure.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct WireRow {
        /// Per-dimension values, schema order.
        pub values: Vec<i64> [MAX_DIMS],
        /// The cell measure (1 for a raw tabular row).
        pub measure: u64,
    }
}

wire_struct! {
    /// One provider's DP summary inside a [`FragmentSummariesFrame`].
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct WireSummary {
        /// Noisy covering-set size `Ñ^Q` (Eq. 5).
        pub noisy_n_q: f64,
        /// Noisy average cluster proportion `Avg(R̂)~`.
        pub noisy_avg_r: f64,
    }
}

wire_struct! {
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
}

wire_struct! {
    /// One provider's public pruning bounds inside a [`ShardBoundsFrame`].
    #[derive(Debug, Clone, PartialEq)]
    pub struct WireProviderBounds {
        /// Per-dimension `(min, max)` over the provider's data; `None` for a
        /// dimension without metadata (never prunable on it).
        pub dims: Vec<Option<(i64, i64)>> [MAX_DIMS],
        /// The provider's cluster count (the optimizer's cost unit).
        pub n_clusters: u64,
    }
}

/// The frame table: one entry per frame kind — its kind byte, its
/// [`Frame`] variant, and its payload struct with the fields in wire
/// order and the cap of every list and string field.
macro_rules! frames {
    (@any $P:ident) => { _ };
    (@bind $x:ident $P:ident) => { $x };
    ($(
        $(#[$doc:meta])*
        $kind:literal => $V:ident $(($(#[$attr:meta])* pub struct $P:ident { $($body:tt)* }))?
    ),* $(,)?) => {
        $($(wire_struct! { $(#[$attr])* pub struct $P { $($body)* } })?)*

        /// Every message of the wire protocol.
        #[derive(Debug, Clone, PartialEq)]
        pub enum Frame {
            $($(#[$doc])* $V $(($P))?,)*
        }

        impl Frame {
            /// The frame's kind byte on the wire.
            fn kind(&self) -> u8 {
                match self {
                    $(Frame::$V $((frames!(@any $P)))? => $kind,)*
                }
            }

            fn put_payload(&self, buf: &mut Vec<u8>) -> Result<()> {
                match self {
                    $(Frame::$V $((frames!(@bind payload $P)))? => {
                        $(<$P as Wire>::put(payload, buf)?;)?
                    })*
                }
                Ok(())
            }

            fn get_payload(kind: u8, data: &mut &[u8]) -> Result<Self> {
                Ok(match kind {
                    $($kind => Frame::$V $((<$P as Wire>::get(data)?))?,)*
                    other => return Err(NetError::UnknownKind(other)),
                })
            }
        }
    };
}

frames! {
    /// Connection opening (client → server).
    1 => Hello(
        /// A connection-opening frame: the analyst declares an identity the
        /// server keys budget ledgers by.
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub struct Hello {
            /// The analyst's identity (budget-ledger key on the server).
            pub analyst: String [MAX_STRING],
        }
    ),
    /// Handshake reply (server → client).
    2 => HelloAck(
        /// The server's handshake reply: everything a remote analyst needs
        /// to form plans without local data access.
        #[derive(Debug, Clone, PartialEq)]
        pub struct HelloAck {
            /// The public table schema.
            pub dimensions: Vec<WireDimension> [MAX_DIMS],
            /// Number of data providers behind the federation.
            pub n_providers: u32,
            /// Default per-plan ε.
            pub epsilon: f64,
            /// Default per-plan δ.
            pub delta: f64,
            /// The server's Hansen–Hurwitz calibration.
            pub calibration: EstimatorCalibration,
            /// The per-analyst session budget `(ξ, ψ)`; `None` when the
            /// server imposes no session cap.
            pub session_budget: Option<(f64, f64)>,
        }
    ),
    /// A typed error (server → client).
    3 => Error(
        /// A typed error for one request (or the whole connection).
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub struct ErrorFrame {
            /// 0, except on an [`ErrorCode::UnsupportedVersion`] error,
            /// where it carries the server's [`VERSION`].
            pub index: u32,
            /// The typed error class.
            pub code: ErrorCode,
            /// Human-readable detail (capped at 1 KiB on the wire).
            pub message: String [MAX_STRING],
        }
    ),
    /// Ledger inquiry (client → server; empty payload).
    4 => BudgetRequest,
    /// Ledger report (server → client).
    5 => BudgetStatus(
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
            /// Plans successfully charged so far.
            pub queries_answered: u64,
        }
    ),
    /// One plan submission (client → server).
    6 => Plan(
        /// One plan submission.
        #[derive(Debug, Clone, PartialEq)]
        pub struct PlanRequest {
            /// The plan, complete with sampling rate and `(ε, δ)` spend.
            pub plan: QueryPlan,
        }
    ),
    /// One plan answer (server → client).
    7 => PlanAnswer(
        /// The released answer to one non-online plan.
        #[derive(Debug, Clone, PartialEq)]
        pub struct PlanAnswerFrame {
            /// Always 0: one answer per plan frame.
            pub index: u32,
            /// ε charged for the whole plan.
            pub eps: f64,
            /// δ charged for the whole plan.
            pub delta: f64,
            /// The released result.
            pub result: WirePlanResult,
            /// Summary-phase time (max over concurrent sub-queries),
            /// microseconds.
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
    ),
    /// One explain request (client → server).
    8 => Explain(
        /// One explain request: what would the optimizer decide about this
        /// plan? Nothing runs and no budget is charged.
        #[derive(Debug, Clone, PartialEq)]
        pub struct ExplainRequest {
            /// The plan to explain, complete with sampling rate and `(ε, δ)`.
            pub plan: QueryPlan,
        }
    ),
    /// One explain answer (server → client).
    9 => ExplainAnswer(
        /// The explanation of one plan.
        #[derive(Debug, Clone, PartialEq)]
        pub struct ExplainAnswerFrame {
            /// Always 0: one answer per explain frame.
            pub index: u32,
            /// The optimizer's structured decisions for the plan.
            pub explanation: PlanExplanation,
        }
    ),
    /// Telemetry snapshot inquiry (client → server; empty payload).
    10 => Metrics,
    /// The server's telemetry snapshot (server → client).
    11 => MetricsAnswer(
        /// The server's telemetry snapshot.
        #[derive(Debug, Clone, PartialEq)]
        pub struct MetricsAnswerFrame {
            /// Flat samples, sorted by name.
            pub metrics: Vec<WireMetric> [MAX_METRICS],
        }
    ),
    /// One server-pushed progressive release of an online plan (server →
    /// client).
    12 => OnlineSnapshot(
        /// One server-pushed progressive release. Only the DP-released
        /// running estimate and public work counters cross the wire.
        #[derive(Debug, Clone, Copy, PartialEq)]
        pub struct OnlineSnapshotFrame {
            /// Always 0: one stream per plan frame.
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
    ),
    /// The close of an online plan's snapshot stream (server → client).
    13 => OnlineDone(
        /// The close of an online plan's stream: the total charge and the
        /// final released value, plus the plan's phase timings.
        #[derive(Debug, Clone, Copy, PartialEq)]
        pub struct OnlineDoneFrame {
            /// Always 0: one stream per plan frame.
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
    ),
    /// One streaming-ingest batch (client → server).
    14 => Ingest(
        /// One streaming-ingest batch: rows to append to one provider of a
        /// live federation. The batch is atomic server-side.
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub struct IngestRequest {
            /// The target provider (federation-local id).
            pub provider: u32,
            /// The rows to append.
            pub rows: Vec<WireRow> [MAX_INGEST_ROWS],
        }
    ),
    /// The server's ingest receipt (server → client).
    15 => IngestAck(
        /// The server's ingest receipt.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub struct IngestAckFrame {
            /// Rows appended (the whole batch, or zero).
            pub accepted: u64,
            /// The federation's data epoch after the ingest.
            pub epoch: u64,
            /// Whether the staleness policy triggered a full metadata
            /// recompute.
            pub refreshed: bool,
        }
    ),
    /// One fragment submission (coordinator → shard).
    16 => Fragment(
        /// One fragment submission: everything a shard needs to run its
        /// slice of one private sub-query. The budget arrives pre-split
        /// (the coordinator already validated and charged it), and the
        /// occurrence index comes from the coordinator's ledger — the
        /// shard's own ledger is never consulted for fragments.
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
            /// Coordinator-assigned occurrence index for the noise
            /// derivation.
            pub occurrence: u64,
        }
    ),
    /// Fragment accepted and queued (shard → coordinator).
    17 => FragmentQueued,
    /// Ask for the fragment's summaries (coordinator → shard).
    18 => FragmentSummariesRequest,
    /// The fragment's per-provider summaries (shard → coordinator).
    19 => FragmentSummaries(
        /// The shard's step-2 summaries, in local provider order.
        #[derive(Debug, Clone, PartialEq)]
        pub struct FragmentSummariesFrame {
            /// One summary per local provider.
            pub summaries: Vec<WireSummary> [MAX_PROVIDERS],
            /// Wall time of the shard's slowest provider's summary,
            /// microseconds.
            pub summary_us: u64,
        }
    ),
    /// The globally solved allocation slice (coordinator → shard).
    20 => FragmentAllocation(
        /// The coordinator's globally solved allocation slice for this
        /// shard, in local provider order.
        #[derive(Debug, Clone, PartialEq)]
        pub struct FragmentAllocationFrame {
            /// Per-provider sample sizes `s_i`.
            pub allocations: Vec<u64> [MAX_PROVIDERS],
        }
    ),
    /// Allocation delivered to the workers (shard → coordinator).
    21 => FragmentAllocated,
    /// Ask for the fragment's partial (coordinator → shard).
    22 => FragmentPartialRequest,
    /// The fragment's mergeable partial (shard → coordinator).
    23 => FragmentPartial(
        /// The shard's mergeable partial, in local provider order.
        #[derive(Debug, Clone, PartialEq)]
        pub struct FragmentPartialFrame {
            /// One row per local provider.
            pub rows: Vec<WirePartialRow> [MAX_PROVIDERS],
            /// Wall time of the shard's slowest provider, microseconds.
            pub execution_us: u64,
        }
    ),
    /// Abort a begun fragment (coordinator → shard).
    24 => FragmentAbort,
    /// Fragment torn down (shard → coordinator).
    25 => FragmentAborted,
    /// One MIN/MAX fragment (coordinator → shard).
    26 => ExtremeFragment(
        /// One MIN/MAX fragment; the shard answers with an
        /// [`ExtremePartialFrame`] in the same round trip.
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
    ),
    /// The shard-local MIN/MAX selection (shard → coordinator).
    27 => ExtremePartial(
        /// The shard-local MIN/MAX selection.
        #[derive(Debug, Clone, Copy, PartialEq)]
        pub struct ExtremePartialFrame {
            /// The shard's combined selection over its providers.
            pub value: i64,
            /// Wall time of the shard's slowest provider, microseconds.
            pub execution_us: u64,
        }
    ),
    /// Ask for the shard's pruning metadata (coordinator → shard).
    28 => ShardBoundsRequest,
    /// The shard's pruning metadata (shard → coordinator).
    29 => ShardBounds(
        /// The shard's offline pruning metadata, in local provider order —
        /// what the coordinator concatenates into the global snapshot at
        /// construction.
        #[derive(Debug, Clone, PartialEq)]
        pub struct ShardBoundsFrame {
            /// One bounds entry per local provider.
            pub providers: Vec<WireProviderBounds> [MAX_PROVIDERS],
        }
    ),
}

// --------------------------------------------------------------- framing

/// Encodes one frame: header and payload.
pub fn encode_frame(frame: &Frame) -> Result<Vec<u8>> {
    let mut out = Vec::with_capacity(64);
    MAGIC.put(&mut out)?;
    VERSION.put(&mut out)?;
    frame.kind().put(&mut out)?;
    // The payload length is patched in once the payload is written.
    0u32.put(&mut out)?;
    frame.put_payload(&mut out)?;
    let len = out.len() - HEADER_BYTES;
    if len > MAX_PAYLOAD as usize {
        return Err(NetError::Malformed("payload exceeds frame cap"));
    }
    out[HEADER_BYTES - 4..HEADER_BYTES].copy_from_slice(&(len as u32).to_le_bytes());
    Ok(out)
}

/// Decodes one payload of `kind`, which must consume every byte.
fn decode_payload(kind: u8, mut data: &[u8]) -> Result<Frame> {
    let frame = Frame::get_payload(kind, &mut data)?;
    if !data.is_empty() {
        return Err(NetError::Malformed("trailing bytes in frame"));
    }
    Ok(frame)
}

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

/// Writes one frame, flushing it.
pub fn write_frame<W: Write>(writer: &mut W, frame: &Frame) -> Result<()> {
    writer.write_all(&encode_frame(frame)?)?;
    writer.flush()?;
    Ok(())
}

/// Reads one frame from a socket (or any [`Read`]).
///
/// A clean connection close surfaces as [`NetError::Disconnected`]; a
/// header with a bad magic, a version other than [`VERSION`], or a payload
/// above [`MAX_PAYLOAD`] fails *before* any payload is read.
pub fn read_frame<R: Read>(reader: &mut R) -> Result<Frame> {
    let mut header = [0u8; HEADER_BYTES];
    reader.read_exact(&mut header).map_err(eof_to_disconnect)?;
    let mut h: &[u8] = &header;
    if u32::get(&mut h)? != MAGIC {
        return Err(NetError::Malformed("bad frame magic"));
    }
    let version = u16::get(&mut h)?;
    if version != VERSION {
        return Err(NetError::UnsupportedVersion {
            requested: version,
            supported: VERSION,
        });
    }
    let kind = u8::get(&mut h)?;
    let len = u32::get(&mut h)?;
    if len > MAX_PAYLOAD {
        return Err(NetError::FrameTooLarge {
            declared: len,
            max: MAX_PAYLOAD,
        });
    }
    let mut payload = vec![0u8; len as usize];
    reader.read_exact(&mut payload).map_err(eof_to_disconnect)?;
    decode_payload(kind, &payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn query(lo: i64, hi: i64) -> RangeQuery {
        RangeQuery::new(Aggregate::Count, vec![Range::new(0, lo, hi).unwrap()]).unwrap()
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

    /// One or more samples of every frame kind.
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
                calibration: EstimatorCalibration::PpsEq3,
                session_budget: Some((10.0, 1e-2)),
            }),
            Frame::Error(ErrorFrame {
                index: 0,
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
                plan: QueryPlan::Scalar {
                    query: query(10, 60),
                    sampling_rate: 0.2,
                    epsilon: 1.0,
                    delta: 1e-3,
                },
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
            Frame::Plan(PlanRequest {
                plan: QueryPlan::Online {
                    query: query(10, 60),
                    sampling_rate: 0.3,
                    epsilon: 4.0,
                    delta: 1e-3,
                    rounds: 5,
                },
            }),
            Frame::PlanAnswer(PlanAnswerFrame {
                index: 0,
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
                index: 0,
                explanation: sample_explanation(),
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
            Frame::OnlineSnapshot(OnlineSnapshotFrame {
                index: 0,
                round: 2,
                rounds: 5,
                sample_fraction: 0.4,
                value: 812.5,
                ci_halfwidth: Some(3.25),
                clusters_scanned: 17,
            }),
            Frame::OnlineDone(OnlineDoneFrame {
                index: 0,
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
        ]
    }

    fn round_trip(frame: &Frame) -> Frame {
        let bytes = encode_frame(frame).unwrap();
        let mut slice: &[u8] = &bytes;
        let decoded = read_frame(&mut slice).unwrap();
        assert!(slice.is_empty(), "frame left bytes unread");
        decoded
    }

    /// A frame with a hand-written payload under a valid header.
    fn raw_frame(kind: u8, payload: &[u8]) -> Vec<u8> {
        let mut bytes = Vec::new();
        MAGIC.put(&mut bytes).unwrap();
        VERSION.put(&mut bytes).unwrap();
        kind.put(&mut bytes).unwrap();
        (payload.len() as u32).put(&mut bytes).unwrap();
        bytes.extend_from_slice(payload);
        bytes
    }

    /// Asserts that `bytes` is refused for a declared count on `field`.
    fn assert_count_refused(bytes: &[u8], field: &str) {
        match read_frame(&mut &bytes[..]) {
            Err(NetError::CountOutOfRange { field: f, .. }) => assert_eq!(f, field),
            other => panic!("expected a count error on {field}, got {other:?}"),
        }
    }

    #[test]
    fn every_frame_kind_round_trips() {
        for frame in all_frames() {
            assert_eq!(round_trip(&frame), frame);
        }
    }

    #[test]
    fn every_frame_kind_declares_its_kind_byte_once() {
        // One kind byte per variant, and the samples cover a dense table
        // of kinds from 1.
        let mut variants = std::collections::BTreeMap::new();
        for frame in all_frames() {
            let variant = std::mem::discriminant(&frame);
            let first = *variants.entry(frame.kind()).or_insert(variant);
            assert_eq!(first, variant, "kind {} is shared: {frame:?}", frame.kind());
        }
        let kinds: Vec<u8> = variants.into_keys().collect();
        assert_eq!(kinds, (1..=29).collect::<Vec<u8>>());
        // The byte past the table is unknown.
        assert!(matches!(
            read_frame(&mut &raw_frame(30, &[])[..]),
            Err(NetError::UnknownKind(30))
        ));
    }

    #[test]
    fn none_ci_and_unlimited_budget_round_trip() {
        let answer = Frame::PlanAnswer(PlanAnswerFrame {
            index: 0,
            eps: 1.0,
            delta: 1e-3,
            result: WirePlanResult::Value {
                value: -3.5,
                ci_halfwidth: None,
            },
            summary_us: 1,
            allocation_us: 2,
            execution_us: 3,
            release_us: 4,
            network_us: 5,
        });
        assert_eq!(round_trip(&answer), answer);
        let ack = Frame::HelloAck(HelloAck {
            dimensions: vec![],
            n_providers: 1,
            epsilon: 0.5,
            delta: 0.0,
            calibration: EstimatorCalibration::EmCalibrated,
            session_budget: None,
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
    fn online_plans_ride_the_plan_frame() {
        // An online plan is an ordinary plan on the wire; only its answer
        // shape (a snapshot stream) differs.
        let plan = QueryPlan::Online {
            query: query(10, 60),
            sampling_rate: 0.3,
            epsilon: 4.0,
            delta: 1e-3,
            rounds: 5,
        };
        for frame in [
            Frame::Plan(PlanRequest { plan: plan.clone() }),
            Frame::Explain(ExplainRequest { plan: plan.clone() }),
        ] {
            assert_eq!(round_trip(&frame), frame);
        }
    }

    #[test]
    fn truncation_anywhere_is_an_error() {
        for frame in all_frames() {
            let bytes = encode_frame(&frame).unwrap();
            for cut in 0..bytes.len() {
                let mut slice = &bytes[..cut];
                assert!(
                    read_frame(&mut slice).is_err(),
                    "prefix of {cut} bytes of {frame:?} decoded"
                );
            }
            // A payload cut short under a header patched to match is
            // refused too: the decoder runs out of bytes mid-field.
            for cut in HEADER_BYTES..bytes.len() {
                let payload = &bytes[HEADER_BYTES..cut];
                assert!(
                    read_frame(&mut &raw_frame(frame.kind(), payload)[..]).is_err(),
                    "{} payload bytes of {frame:?} decoded",
                    payload.len()
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

        // Every version but the one, older ones included, is refused.
        for version in [1, 6, 8, 99] {
            let mut bad_version = good.clone();
            bad_version[4..6].copy_from_slice(&u16::to_le_bytes(version));
            match read_frame(&mut &bad_version[..]) {
                Err(NetError::UnsupportedVersion {
                    requested,
                    supported: VERSION,
                }) => assert_eq!(requested, version),
                other => panic!("v{version}: expected a version error, got {other:?}"),
            }
        }

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
        // A hello whose analyst string claims 2^31 bytes over a 4-byte body.
        let mut payload = Vec::new();
        (1u32 << 31).put(&mut payload).unwrap();
        payload.extend_from_slice(b"evil");
        assert_count_refused(&raw_frame(1, &payload), "Hello.analyst");

        // A hello-ack claiming one dimension more than its cap.
        let mut payload = Vec::new();
        (MAX_DIMS as u32 + 1).put(&mut payload).unwrap();
        payload.resize(payload.len() + 64 * 1024, 0);
        assert_count_refused(&raw_frame(2, &payload), "HelloAck.dimensions");

        // Over-cap lists are refused on the way out too, naming the field.
        let wide = Frame::FragmentAllocation(FragmentAllocationFrame {
            allocations: vec![0; MAX_PROVIDERS + 1],
        });
        assert!(matches!(
            encode_frame(&wide),
            Err(NetError::CountOutOfRange {
                field: "FragmentAllocationFrame.allocations",
                ..
            })
        ));
        let long = "x".repeat(MAX_STRING + 1);
        assert!(matches!(
            encode_frame(&Frame::Hello(Hello { analyst: long })),
            Err(NetError::CountOutOfRange {
                field: "Hello.analyst",
                ..
            })
        ));
    }

    #[test]
    fn absurd_ingest_counts_are_rejected() {
        // An ingest claiming u32::MAX rows over a tiny body.
        let mut payload = Vec::new();
        0u32.put(&mut payload).unwrap(); // provider
        u32::MAX.put(&mut payload).unwrap();
        0u64.put(&mut payload).unwrap();
        assert_count_refused(&raw_frame(14, &payload), "IngestRequest.rows");

        // One row claiming u16::MAX values over a tiny body.
        let mut payload = Vec::new();
        0u32.put(&mut payload).unwrap(); // provider
        1u32.put(&mut payload).unwrap();
        u32::from(u16::MAX).put(&mut payload).unwrap();
        0u64.put(&mut payload).unwrap();
        assert_count_refused(&raw_frame(14, &payload), "WireRow.values");

        // A batch one row over the cap is refused before it is sent.
        let rows = vec![
            WireRow {
                values: vec![],
                measure: 1,
            };
            MAX_INGEST_ROWS + 1
        ];
        assert!(matches!(
            encode_frame(&Frame::Ingest(IngestRequest { provider: 0, rows })),
            Err(NetError::CountOutOfRange {
                field: "IngestRequest.rows",
                ..
            })
        ));
    }

    #[test]
    fn absurd_metric_counts_are_rejected() {
        // A metrics answer claiming u32::MAX samples over a tiny body.
        let mut payload = Vec::new();
        u32::MAX.put(&mut payload).unwrap();
        0u64.put(&mut payload).unwrap();
        assert_count_refused(&raw_frame(11, &payload), "MetricsAnswerFrame.metrics");
    }

    #[test]
    fn absurd_fragment_counts_are_rejected() {
        // A partial claiming u32::MAX rows over a tiny body.
        let mut payload = Vec::new();
        u32::MAX.put(&mut payload).unwrap();
        0u64.put(&mut payload).unwrap();
        assert_count_refused(&raw_frame(23, &payload), "FragmentPartialFrame.rows");

        // Shard bounds claiming u32::MAX providers.
        assert_count_refused(&raw_frame(29, &payload), "ShardBoundsFrame.providers");
    }

    #[test]
    fn absurd_subquery_counts_are_rejected() {
        // An explain answer claiming u32::MAX sub-queries over a tiny body.
        let mut payload = Vec::new();
        0u32.put(&mut payload).unwrap(); // index
        0u32.put(&mut payload).unwrap(); // plan kind: ""
        4u64.put(&mut payload).unwrap(); // n_providers
        payload.extend_from_slice(&[1, 1, 1]); // optimizer flags
        1.0f64.put(&mut payload).unwrap(); // eps
        0.0f64.put(&mut payload).unwrap(); // delta
        u32::MAX.put(&mut payload).unwrap();
        assert_count_refused(&raw_frame(9, &payload), "PlanExplanation.sub_queries");
    }

    #[test]
    fn absurd_group_counts_are_rejected() {
        // A plan answer claiming u32::MAX groups over a tiny body.
        let mut payload = Vec::new();
        0u32.put(&mut payload).unwrap(); // index
        1.0f64.put(&mut payload).unwrap(); // eps
        0.0f64.put(&mut payload).unwrap(); // delta
        payload.push(1); // groups tag
        u32::MAX.put(&mut payload).unwrap();
        0u64.put(&mut payload).unwrap();
        assert_count_refused(&raw_frame(7, &payload), "WirePlanResult::Groups.groups");
    }

    /// A scalar plan payload over hand-written ranges.
    fn scalar_plan_payload(aggregate: u8, ranges: &[(u64, i64, i64)]) -> Vec<u8> {
        let mut payload = vec![0]; // Scalar tag
        payload.push(aggregate);
        (ranges.len() as u32).put(&mut payload).unwrap();
        for &(dim, lo, hi) in ranges {
            dim.put(&mut payload).unwrap();
            lo.put(&mut payload).unwrap();
            hi.put(&mut payload).unwrap();
        }
        for param in [0.2f64, 1.0, 1e-3] {
            param.put(&mut payload).unwrap();
        }
        payload
    }

    #[test]
    fn rejects_bad_query_payloads() {
        let good = scalar_plan_payload(0, &[(0, 5, 10), (3, 0, 5)]);
        assert!(decode_payload(6, &good).is_ok());
        let bad = [
            ("lo > hi", scalar_plan_payload(0, &[(0, 10, 5)])),
            (
                "duplicate dimension",
                scalar_plan_payload(0, &[(3, 0, 5), (3, 0, 5)]),
            ),
            (
                "unsorted dimensions",
                scalar_plan_payload(0, &[(3, 0, 5), (0, 5, 10)]),
            ),
            ("no ranges", scalar_plan_payload(0, &[])),
            ("unknown aggregate", scalar_plan_payload(9, &[(0, 5, 10)])),
        ];
        for (what, payload) in bad {
            assert!(decode_payload(6, &payload).is_err(), "{what} decoded");
        }
    }

    #[test]
    fn strings_are_capped_and_utf8_checked() {
        let mut payload = Vec::new();
        2u32.put(&mut payload).unwrap();
        payload.extend_from_slice(&[0xFF, 0xFE]);
        assert!(matches!(
            decode_payload(1, &payload),
            Err(NetError::Malformed("string is not utf-8"))
        ));
        let mut payload = Vec::new();
        (MAX_STRING as u32 + 1).put(&mut payload).unwrap();
        payload.resize(payload.len() + MAX_STRING + 1, b'x');
        assert!(matches!(
            decode_payload(1, &payload),
            Err(NetError::CountOutOfRange {
                field: "Hello.analyst",
                ..
            })
        ));
    }

    #[test]
    fn calibration_codes_round_trip() {
        for calibration in [
            EstimatorCalibration::EmCalibrated,
            EstimatorCalibration::PpsEq3,
        ] {
            let mut buf = Vec::new();
            calibration.put(&mut buf).unwrap();
            assert_eq!(
                EstimatorCalibration::get(&mut &buf[..]).unwrap(),
                calibration
            );
        }
        assert!(EstimatorCalibration::get(&mut &[9u8][..]).is_err());
    }

    /// One random corruption of an encoded frame.
    fn mutate(rng: &mut rand::rngs::StdRng, bytes: &mut Vec<u8>) {
        use rand::Rng;
        if bytes.is_empty() {
            return;
        }
        let at = rng.gen_range(0..bytes.len());
        match rng.gen_range(0..5) {
            // Bit flip.
            0 => bytes[at] ^= 1 << rng.gen_range(0..8u32),
            // Byte overwrite.
            1 => bytes[at] = rng.gen_range(0..=255u8),
            // Truncation.
            2 => bytes.truncate(at),
            // Extension, with the declared length patched half the time.
            3 => {
                for _ in 0..rng.gen_range(1..16) {
                    bytes.push(rng.gen_range(0..=255u8));
                }
                if rng.gen_bool(0.5) && bytes.len() >= HEADER_BYTES {
                    let len = (bytes.len() - HEADER_BYTES) as u32;
                    bytes[7..11].copy_from_slice(&len.to_le_bytes());
                }
            }
            // An inflated declared count somewhere in the payload.
            _ => {
                if bytes.len() >= HEADER_BYTES + 4 {
                    let at = rng.gen_range(HEADER_BYTES..=bytes.len() - 4);
                    let counts = [u32::MAX, 1 << 31, 4097, 1025, rng.gen()];
                    let count = counts[rng.gen_range(0..counts.len())];
                    bytes[at..at + 4].copy_from_slice(&count.to_le_bytes());
                }
            }
        }
    }

    /// A seeded byte-mutation fuzzer over `read_frame`: starting from one
    /// encoding of every frame kind, apply bit flips, byte overwrites,
    /// truncations, extensions and inflated declared counts. The decoder
    /// never panics, and every frame it accepts re-encodes to exactly the
    /// bytes it consumed — the encoding is canonical by construction.
    #[test]
    fn seeded_mutations_never_panic_and_decode_canonically() {
        use rand::{Rng, SeedableRng};

        let mut rng = rand::rngs::StdRng::seed_from_u64(0x00F0_22ED);
        let seeds: Vec<Vec<u8>> = all_frames()
            .iter()
            .map(|f| encode_frame(f).unwrap())
            .collect();
        let (mut accepted, mut refused) = (0u32, 0u32);
        for _ in 0..20_000 {
            let mut bytes = seeds[rng.gen_range(0..seeds.len())].clone();
            for _ in 0..rng.gen_range(1..4) {
                mutate(&mut rng, &mut bytes);
            }
            let decoded = std::panic::catch_unwind(|| {
                let mut slice: &[u8] = &bytes;
                read_frame(&mut slice).map(|frame| (frame, bytes.len() - slice.len()))
            })
            .unwrap_or_else(|_| panic!("decoder panicked on {bytes:02x?}"));
            match decoded {
                Ok((frame, consumed)) => {
                    accepted += 1;
                    assert_eq!(
                        encode_frame(&frame).unwrap(),
                        &bytes[..consumed],
                        "non-canonical decode of {frame:?}"
                    );
                }
                Err(_) => refused += 1,
            }
        }
        // Both outcomes are exercised: the mutations neither all miss nor
        // all break the frame.
        assert!(accepted > 1000 && refused > 1000, "{accepted} / {refused}");
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

    /// A range query with its sampling rate.
    fn arb_query() -> impl Strategy<Value = (RangeQuery, f64)> {
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
                (RangeQuery::new(agg, ranges).unwrap(), sampling_rate)
            })
    }

    fn arb_plan() -> impl Strategy<Value = QueryPlan> {
        let arb_statistic = || {
            prop_oneof![
                Just(DerivedStatistic::Average),
                Just(DerivedStatistic::Variance),
                Just(DerivedStatistic::StdDev),
            ]
        };
        (
            arb_query(),
            (0.001f64..100.0, 0.0f64..0.1, 0.0f64..500.0),
            0u32..256,
            (any::<bool>(), arb_statistic()),
            prop_oneof![Just(Extreme::Min), Just(Extreme::Max)],
            0u8..5,
        )
            .prop_map(
                |(
                    (query, sampling_rate),
                    (epsilon, delta, threshold),
                    dim,
                    (grouped_stat, stat),
                    extreme,
                    shape,
                )| match shape {
                    0 => QueryPlan::Scalar {
                        query,
                        sampling_rate,
                        epsilon,
                        delta,
                    },
                    1 => QueryPlan::Derived {
                        query,
                        statistic: stat,
                        sampling_rate,
                        epsilon,
                        delta,
                    },
                    2 => QueryPlan::GroupBy {
                        base: query,
                        statistic: grouped_stat.then_some(stat),
                        group_dim: dim as usize,
                        threshold,
                        sampling_rate,
                        epsilon,
                        delta,
                    },
                    3 => QueryPlan::Online {
                        query,
                        sampling_rate,
                        epsilon,
                        delta,
                        rounds: 1 + dim as usize,
                    },
                    _ => QueryPlan::Extreme {
                        dim: dim as usize,
                        extreme,
                        epsilon,
                    },
                },
            )
    }

    fn arb_frame() -> BoxedStrategy<Frame> {
        let hello = arb_name()
            .prop_map(|analyst| Frame::Hello(Hello { analyst }))
            .boxed();
        let ack = (
            proptest::collection::vec((arb_name(), -5000i64..5000, 0i64..5000), 0..6),
            1u32..64,
            (0.001f64..100.0, 0.0f64..0.1),
            any::<bool>(),
            (any::<bool>(), 0.001f64..100.0, 0.0f64..0.1),
        )
            .prop_map(
                |(dims, n_providers, (epsilon, delta), pps, (capped, xi, psi))| {
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
                        calibration: if pps {
                            EstimatorCalibration::PpsEq3
                        } else {
                            EstimatorCalibration::EmCalibrated
                        },
                        session_budget: capped.then_some((xi, psi)),
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
                Just(ErrorCode::UnsupportedVersion),
                Just(ErrorCode::ShardUnavailable),
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
        let plan = arb_plan()
            .prop_map(|plan| Frame::Plan(PlanRequest { plan }))
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
        let explain = arb_plan()
            .prop_map(|plan| Frame::Explain(ExplainRequest { plan }))
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
            .prop_map(
                |((query, sampling_rate), (eps_o, eps_s, eps_e, delta), occurrence)| {
                    Frame::Fragment(FragmentRequest {
                        query,
                        sampling_rate,
                        eps_o,
                        eps_s,
                        eps_e,
                        delta,
                        occurrence,
                    })
                },
            )
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
        let signals = prop_oneof![
            Just(Frame::BudgetRequest),
            Just(Frame::Metrics),
            Just(Frame::FragmentQueued),
            Just(Frame::FragmentSummariesRequest),
            Just(Frame::FragmentAllocated),
            Just(Frame::FragmentPartialRequest),
            Just(Frame::FragmentAbort),
            Just(Frame::FragmentAborted),
            Just(Frame::ShardBoundsRequest),
        ]
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
            error,
            budget_status,
            plan,
            plan_answer,
            explain,
            explain_answer,
            metrics_answer,
            online_snapshot,
            online_done,
            ingest,
            ingest_ack,
            fragment,
            fragment_summaries,
            fragment_allocation,
            fragment_partial,
            extreme_fragment,
            extreme_partial,
            shard_bounds,
            signals
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
            prop_assert!(slice.is_empty());
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
