//! Counters, gauges and log2 histograms.
//!
//! Counter cells are sharded across cache-line-padded atomics: each thread
//! is assigned a shard round-robin on first use, so concurrent chunk workers
//! bump disjoint cache lines and the true total is only assembled at
//! snapshot time. Disabled handles carry `None` and every operation is a
//! predictable-branch no-op.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Number of counter shards. Matched to the workspace's typical worker
/// counts; more shards only cost snapshot-time summing.
const SHARDS: usize = 16;

/// Number of log2 histogram buckets: `{0}` plus one per power of two.
pub const BUCKETS: usize = 65;

#[repr(align(64))]
#[derive(Debug)]
struct PaddedU64(AtomicU64);

static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static MY_SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn shard_index() -> usize {
    MY_SHARD.with(|s| {
        let v = s.get();
        if v != usize::MAX {
            v
        } else {
            // ordering: round-robin shard assignment; only uniqueness of
            // the ticket matters, nothing is published through it.
            let v = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS;
            s.set(v);
            v
        }
    })
}

#[derive(Debug)]
pub(crate) struct CounterCell {
    shards: [PaddedU64; SHARDS],
}

impl CounterCell {
    pub(crate) fn new() -> Self {
        Self {
            shards: std::array::from_fn(|_| PaddedU64(AtomicU64::new(0))),
        }
    }

    fn add(&self, n: u64) {
        if let Some(shard) = self.shards.get(shard_index()) {
            // ordering: statistical counter; snapshot readers tolerate a
            // momentarily stale shard, losing no increment.
            shard.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    pub(crate) fn sum(&self) -> u64 {
        self.shards
            .iter()
            // ordering: observability snapshot; per-shard staleness is
            // acceptable and each shard value is independently atomic.
            .map(|s| s.0.load(Ordering::Relaxed))
            .fold(0u64, u64::saturating_add)
    }
}

/// A monotonic counter handle. Cheap to clone; `add` is lock-free.
///
/// A handle resolved from a disabled [`Obs`](crate::Obs) is a no-op.
#[derive(Clone, Debug, Default)]
pub struct Counter {
    pub(crate) cell: Option<Arc<CounterCell>>,
}

impl Counter {
    /// A permanently disabled counter (what `Obs::disabled()` hands out).
    pub fn disabled() -> Self {
        Self { cell: None }
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.cell {
            cell.add(n);
        }
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current total across all shards (snapshot-consistency only under
    /// quiescence; fine for tests and reports).
    pub fn get(&self) -> u64 {
        self.cell.as_ref().map_or(0, |c| c.sum())
    }
}

/// A last-write-wins instantaneous value (e.g. swap staleness).
#[derive(Clone, Debug, Default)]
pub struct Gauge {
    pub(crate) cell: Option<Arc<AtomicU64>>,
}

impl Gauge {
    /// A permanently disabled gauge.
    pub fn disabled() -> Self {
        Self { cell: None }
    }

    /// Overwrite the value.
    #[inline]
    pub fn set(&self, v: u64) {
        if let Some(cell) = &self.cell {
            // analyze:allow(atomic-ordering-audit) gauge value is pure
            // telemetry read by snapshots; no reader derives a
            // happens-before edge from it, staleness is acceptable.
            cell.store(v, Ordering::Relaxed);
        }
    }

    /// Current value (0 when disabled).
    pub fn get(&self) -> u64 {
        // ordering: telemetry read; staleness is acceptable.
        self.cell.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// Bucket index for a value: bucket 0 holds exactly `{0}`, bucket `k >= 1`
/// holds `[2^(k-1), 2^k - 1]`.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive `(lo, hi)` bounds of bucket `index`; every recorded value `v`
/// satisfies `lo <= v && v <= hi` for its own bucket. Indices past the last
/// bucket clamp to it.
pub fn bucket_bounds(index: usize) -> (u64, u64) {
    if index == 0 {
        return (0, 0);
    }
    #[allow(clippy::cast_possible_truncation, reason = "clamped to BUCKETS-1 = 64, fits u32.")]
    let i = index.min(BUCKETS - 1) as u32;
    let lo = 1u64 << (i - 1);
    let hi = if i == 64 { u64::MAX } else { (1u64 << i) - 1 };
    (lo, hi)
}

#[derive(Debug)]
pub(crate) struct HistogramCell {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl HistogramCell {
    pub(crate) fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    fn record(&self, v: u64) {
        // ordering: histogram cells are statistical; bucket, count and
        // sum need not be mutually consistent at read time.
        if let Some(b) = self.buckets.get(bucket_index(v)) {
            b.fetch_add(1, Ordering::Relaxed);
        }
        // ordering: same statistical semantics for count and sum.
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    pub(crate) fn read(&self) -> (u64, u64, Vec<u64>) {
        let buckets = self
            .buckets
            .iter()
            // ordering: snapshot read of statistical cells; see `record`.
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        (
            // ordering: same snapshot semantics as the bucket reads.
            self.count.load(Ordering::Relaxed),
            self.sum.load(Ordering::Relaxed),
            buckets,
        )
    }
}

/// A log2-bucketed value histogram handle.
#[derive(Clone, Debug, Default)]
pub struct Histogram {
    pub(crate) cell: Option<Arc<HistogramCell>>,
}

impl Histogram {
    /// A permanently disabled histogram.
    pub fn disabled() -> Self {
        Self { cell: None }
    }

    /// Record one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        if let Some(cell) = &self.cell {
            cell.record(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_bounds(0), (0, 0));
        assert_eq!(bucket_bounds(1), (1, 1));
        assert_eq!(bucket_bounds(2), (2, 3));
        assert_eq!(bucket_bounds(64), (1u64 << 63, u64::MAX));
    }

    #[test]
    fn disabled_handles_are_inert() {
        let c = Counter::disabled();
        c.add(5);
        c.inc();
        assert_eq!(c.get(), 0);
        let g = Gauge::disabled();
        g.set(7);
        assert_eq!(g.get(), 0);
        let h = Histogram::disabled();
        h.record(9);
        assert!(h.cell.is_none());
    }

    #[test]
    fn sharded_counter_sums_across_threads() {
        let cell = Arc::new(CounterCell::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let c = Counter {
                cell: Some(Arc::clone(&cell)),
            };
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    c.inc();
                }
            }));
        }
        for h in handles {
            let _ = h.join();
        }
        assert_eq!(cell.sum(), 8000);
    }
}
