//! Monotonic clock access, quarantined to one module.
//!
//! All wall-time reads in the workspace's instrumentation flow through
//! [`now`]/[`Ticks`], and every clock-derived field is zeroed when a
//! snapshot is taken in deterministic mode (see `report.rs`), so the
//! nondeterminism never escapes into a deterministic artifact.

#![allow(
    clippy::disallowed_types,
    reason = "measurement-only monotonic clock; all derived fields are zeroed in deterministic snapshots."
)]

use std::time::Instant;

/// An opaque monotonic timestamp.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Ticks(Instant);

/// Read the monotonic clock.
pub(crate) fn now() -> Ticks {
    Ticks(Instant::now())
}

impl Ticks {
    /// Nanoseconds elapsed since this timestamp was taken, saturating at
    /// `u64::MAX` (~584 years — unreachable in practice).
    pub(crate) fn elapsed_ns(self) -> u64 {
        let d = self.0.elapsed();
        u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
    }
}
