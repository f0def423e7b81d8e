//! Counters, gauges and log-linear histograms.
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

/// Sub-buckets a power of two is split into, as bits: 8, each an eighth
/// of its power of two wide, so a bucket's midpoint is within 6.25 % of
/// every value in it.
const SUB_BITS: u32 = 3;

/// Sub-buckets a power of two is split into.
const SUB: usize = 1 << SUB_BITS;

/// Number of histogram buckets: one for each value below 8, then 8 for
/// each power of two from 2^3 to 2^63.
pub const BUCKETS: usize = SUB + (64 - SUB_BITS as usize) * SUB;

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
            // ordering: pure telemetry read by snapshots; no reader derives
            // a happens-before edge from it and staleness is acceptable, so
            // tests/source_contracts.rs waives this relaxed publish.
            cell.store(v, Ordering::Relaxed);
        }
    }

    /// Current value (0 when disabled).
    pub fn get(&self) -> u64 {
        // ordering: telemetry read; staleness is acceptable.
        self.cell.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// Bucket index for a value: a value below 8 has a bucket of its own; in
/// `[2^k, 2^(k+1) - 1]`, `k >= 3`, eight buckets of `2^(k-3)` values each
/// follow one another.
#[inline]
#[allow(clippy::cast_possible_truncation, reason = "v < SUB, and the sub-bucket is 3 bits.")]
pub fn bucket_index(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let k = 63 - v.leading_zeros();
    let sub = (v >> (k - SUB_BITS)) as usize & (SUB - 1);
    SUB + (k - SUB_BITS) as usize * SUB + sub
}

/// Inclusive `(lo, hi)` bounds of bucket `index`; every recorded value `v`
/// satisfies `lo <= v && v <= hi` for its own bucket. Indices past the last
/// bucket clamp to it.
pub fn bucket_bounds(index: usize) -> (u64, u64) {
    let i = index.min(BUCKETS - 1);
    if i < SUB {
        return (i as u64, i as u64);
    }
    #[allow(clippy::cast_possible_truncation, reason = "(BUCKETS - SUB) / SUB = 61, fits u32.")]
    let k = ((i - SUB) / SUB) as u32 + SUB_BITS;
    let width = 1u64 << (k - SUB_BITS);
    let lo = (1u64 << k) + ((i - SUB) % SUB) as u64 * width;
    (lo, lo + (width - 1))
}

/// Inclusive bounds of the power of two `v` lies in: `{0}`, then
/// `[2^k, 2^(k+1) - 1]` — the bucket a deterministic snapshot folds `v`'s
/// sub-bucket into.
pub(crate) fn octave_bounds(v: u64) -> (u64, u64) {
    match v.checked_ilog2() {
        None => (0, 0),
        Some(k) => {
            let lo = 1u64 << k;
            (lo, lo + (lo - 1))
        }
    }
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

/// A log-linear value histogram handle: eight buckets a power of two.
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
        assert_eq!(bucket_index(7), 7);
        assert_eq!(bucket_index(8), 8);
        assert_eq!(bucket_index(15), 15);
        assert_eq!(bucket_index(16), 16);
        assert_eq!(bucket_index(17), 16);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_bounds(0), (0, 0));
        assert_eq!(bucket_bounds(7), (7, 7));
        assert_eq!(bucket_bounds(16), (16, 17));
        assert_eq!(bucket_bounds(BUCKETS - 1), (15 << 60, u64::MAX));
        assert_eq!(octave_bounds(0), (0, 0));
        assert_eq!(octave_bounds(5), (4, 7));
        assert_eq!(octave_bounds(u64::MAX), (1u64 << 63, u64::MAX));
    }

    /// A 5 ms hold and an 8 ms one land in different buckets, and every
    /// bucket from 8 on is at most an eighth of its lower bound wide: a
    /// median read as a bucket's midpoint is within 6.25 %.
    #[test]
    fn a_bucket_resolves_an_eighth_of_its_power_of_two() {
        assert_ne!(bucket_index(5_000), bucket_index(8_000));
        for i in SUB..BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert!(hi - lo < lo.div_ceil(8), "bucket {i}: {lo}..={hi}");
        }
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
