//! `netclust-obs`: a dependency-free observability subsystem.
//!
//! The workspace's hot paths (fused ingest, compiled LPM lookups, hot table
//! swaps, self-correction) need stage-level visibility without paying for it
//! when nobody is looking. This crate provides:
//!
//! - [`Obs`]: a cloneable handle that is either **enabled** (backed by a
//!   shared registry) or **disabled** (every operation inlines
//!   to nothing — no allocation, no clock read, no atomic).
//! - [`Counter`]: monotonic counters over cache-line-padded sharded atomics,
//!   so concurrent chunk workers never contend on one line.
//! - [`Gauge`]: a single last-write-wins value (e.g. swap staleness).
//! - [`Histogram`]: log2-bucketed value histograms with exact bucket bounds.
//! - Spans: monotonic-clock timers with parent/child nesting — nested guards
//!   produce `parent/child` paths in the report.
//! - [`Snapshot`]: a point-in-time copy of everything, rendered as
//!   deterministic JSON (sorted keys). In *deterministic* mode all
//!   clock-derived fields are zeroed so the report is byte-identical across
//!   runs; pure counts (which are data-derived) are kept.
//! - [`ErrorCounts`]: the shared error-accounting shape used by
//!   `IngestReport` / `SwapReport` / `ParseReport` across the workspace.
//!
//! Handles are resolved by name from the registry once (a short mutex hold)
//! and then update lock-free; the only mutex on a measured path is at span
//! close, which callers hold at stage/chunk granularity, never per record.

#![forbid(unsafe_code)]
#![deny(clippy::iter_over_hash_type, clippy::disallowed_methods)]
#![warn(missing_docs)]

mod clock;
mod counts;
mod metric;
mod registry;
mod report;
mod span;

pub use counts::ErrorCounts;
pub use metric::{bucket_bounds, bucket_index, Counter, Gauge, Histogram, BUCKETS};
pub use registry::{global, Obs};
pub use report::{escape, HistogramSnapshot, Snapshot, SpanSnapshot};
pub use span::SpanGuard;
