//! Deterministic seeded BGP update streams.
//!
//! Real routing feeds are dominated by small announce/withdraw batches
//! touching a handful of prefixes, punctuated by *session resets* that
//! re-advertise large table chunks at once (see PAPERS.md on routing-table
//! dynamics). [`DeltaStream`] models exactly that shape as an infinite,
//! seed-deterministic iterator of timestamped [`DeltaBatch`]es, so the
//! incremental patch layer (`rtable::apply_delta`) and the publish
//! seam in `core::stream` are drivable in tests, benches and the CLI's
//! `--bgp-feed synth:…` replay mode without any live feed.
//!
//! The stream tracks its own live/withdrawn prefix pools so the emitted
//! churn is *coherent*: withdrawals always name live prefixes, most
//! announcements are flap re-announcements of recently withdrawn ones,
//! and a configurable trickle of genuinely new prefixes keeps the table
//! growing slowly — the paper's observed BGP-dynamics regime. Every draw
//! is a stateless `(seed, stream-label)` derivation, so two streams with
//! the same seed and config emit identical batches in any order of
//! construction.

#![deny(clippy::iter_over_hash_type, clippy::disallowed_methods)]

use std::collections::BTreeSet;

use netclust_netgen::{uniform_index, uniform_u64, unit_f64};
use netclust_prefix::Ipv4Net;
use netclust_rtable::TableDelta;

/// One timestamped batch of routing updates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaBatch {
    /// Stream tick the batch was emitted at (0-based).
    pub tick: u64,
    /// Virtual timestamp in seconds (`tick × tick_seconds`).
    pub timestamp: u64,
    /// The updates, in application order.
    pub deltas: Vec<TableDelta>,
    /// `true` when this batch is a session-reset burst (a peer session
    /// bounce re-advertising a table chunk).
    pub session_reset: bool,
}

impl DeltaBatch {
    /// Number of updates in the batch.
    pub fn len(&self) -> usize {
        self.deltas.len()
    }

    /// `true` when the batch carries no updates (a quiet tick).
    pub fn is_empty(&self) -> bool {
        self.deltas.is_empty()
    }
}

/// Shape parameters for a [`DeltaStream`].
#[derive(Debug, Clone)]
pub struct DeltaStreamConfig {
    /// Mean updates per tick (batch sizes are drawn uniformly from
    /// `0..=2×mean`, so this is also the expected value).
    pub mean_batch_size: usize,
    /// Fraction of updates that withdraw a live prefix.
    pub withdraw_fraction: f64,
    /// Fraction of updates that re-announce a live prefix with changed
    /// attributes ([`netclust_rtable::DeltaKind::Replace`]).
    pub replace_fraction: f64,
    /// Probability that a flapped (previously withdrawn) prefix is chosen
    /// for an announcement before a brand-new prefix is synthesized.
    pub flap_bias: f64,
    /// Expected ticks between session resets (0 disables resets).
    pub reset_period: u64,
    /// Prefixes re-advertised per session-reset burst.
    pub reset_burst: usize,
    /// Seconds of virtual time per tick.
    pub tick_seconds: u64,
}

impl Default for DeltaStreamConfig {
    fn default() -> Self {
        DeltaStreamConfig {
            mean_batch_size: 8,
            withdraw_fraction: 0.35,
            replace_fraction: 0.15,
            flap_bias: 0.8,
            reset_period: 500,
            reset_burst: 200,
            tick_seconds: 30,
        }
    }
}

/// Stream labels (first element of every draw's stream slice) so the
/// per-purpose draws are independent.
const S_BATCH: u64 = 0x00DE_17A1;
const S_KIND: u64 = 0x00DE_17A2;
const S_PICK: u64 = 0x00DE_17A3;
const S_FLAP: u64 = 0x00DE_17A4;
const S_FRESH: u64 = 0x00DE_17A5;
const S_RESET: u64 = 0x00DE_17A6;

/// An infinite, deterministic stream of BGP update batches over an
/// evolving prefix set.
///
/// ```
/// use netclust_bgpsim::{DeltaStream, DeltaStreamConfig};
///
/// let mut a = DeltaStream::synthetic(42, 1_000, DeltaStreamConfig::default());
/// let mut b = DeltaStream::synthetic(42, 1_000, DeltaStreamConfig::default());
/// let batch = a.next().unwrap();
/// assert_eq!(batch, b.next().unwrap(), "same seed, same stream");
/// assert_eq!(batch.tick, 0);
/// ```
#[derive(Debug, Clone)]
pub struct DeltaStream {
    seed: u64,
    cfg: DeltaStreamConfig,
    /// Prefixes currently announced (order evolves deterministically via
    /// swap-remove; never iterated for output beyond indexed draws).
    live: Vec<Ipv4Net>,
    /// Membership mirror of `live`, so fresh-prefix collisions and flap
    /// races cannot put duplicates into the live pool (which would
    /// desynchronize the stream from the table it drives).
    live_set: BTreeSet<Ipv4Net>,
    /// Recently withdrawn prefixes available for flap re-announcement.
    withdrawn: Vec<Ipv4Net>,
    /// Next tick to emit.
    tick: u64,
    /// Monotonic counter salting fresh-prefix synthesis.
    fresh: u64,
}

impl DeltaStream {
    /// A stream over an explicit starting prefix set (deduplicated; e.g.
    /// the compiled table's live set, so withdrawals always hit real
    /// entries).
    pub fn new(seed: u64, live: Vec<Ipv4Net>, cfg: DeltaStreamConfig) -> Self {
        let live_set: BTreeSet<Ipv4Net> = live.into_iter().collect();
        let live: Vec<Ipv4Net> = live_set.iter().copied().collect();
        DeltaStream {
            seed,
            cfg,
            live,
            live_set,
            withdrawn: Vec::new(),
            tick: 0,
            fresh: 0,
        }
    }

    /// A self-contained stream seeded with `n_live` synthetic prefixes in
    /// the BGP prefix-length mix (55% /24, 30% /16–/23, 10% /25–/28,
    /// 5% /8–/15 — Figure 1's distribution).
    pub fn synthetic(seed: u64, n_live: usize, cfg: DeltaStreamConfig) -> Self {
        let mut live = Vec::with_capacity(n_live);
        for i in 0..n_live as u64 {
            live.push(synth_prefix(seed, S_FRESH, i));
        }
        live.sort();
        live.dedup();
        DeltaStream::new(seed, live, cfg)
    }

    /// The starting live set (sorted copy) — handy for compiling the
    /// table the stream will patch.
    pub fn live_prefixes(&self) -> Vec<Ipv4Net> {
        let mut v = self.live.clone();
        v.sort();
        v
    }

    /// Emits the next batch. Never returns `None` (the stream is
    /// infinite); exposed through [`Iterator`] for `take`/`zip` ergonomics.
    pub fn next_batch(&mut self) -> DeltaBatch {
        let t = self.tick;
        self.tick += 1;
        let reset = self.cfg.reset_period > 0
            && unit_f64(self.seed, &[S_RESET, t]) < 1.0 / self.cfg.reset_period as f64;
        let mut deltas = Vec::new();
        if reset {
            // A session bounce re-advertises a contiguous chunk of the
            // live table: replaces at the patch layer (no slot churn),
            // but a burst the swap seam must absorb at once.
            let n = self.cfg.reset_burst.min(self.live.len());
            if n > 0 {
                let start = uniform_index(self.seed, &[S_RESET, t, 1], self.live.len());
                for k in 0..n {
                    let p = self.live[(start + k) % self.live.len()];
                    deltas.push(TableDelta::replace(p));
                }
            }
        } else {
            let size = uniform_index(self.seed, &[S_BATCH, t], 2 * self.cfg.mean_batch_size + 1);
            for k in 0..size as u64 {
                if let Some(d) = self.draw_delta(t, k) {
                    deltas.push(d);
                }
            }
        }
        DeltaBatch {
            tick: t,
            timestamp: t * self.cfg.tick_seconds,
            deltas,
            session_reset: reset,
        }
    }

    /// One update draw: withdraw, replace, or (flap/fresh) announce.
    /// Returns `None` when the draw cannot be honoured coherently (e.g.
    /// a fresh prefix collides with a live one) — the batch just runs one
    /// update short.
    fn draw_delta(&mut self, t: u64, k: u64) -> Option<TableDelta> {
        let r = unit_f64(self.seed, &[S_KIND, t, k]);
        if r < self.cfg.withdraw_fraction && !self.live.is_empty() {
            let i = uniform_index(self.seed, &[S_PICK, t, k], self.live.len());
            let p = self.live.swap_remove(i);
            self.live_set.remove(&p);
            self.withdrawn.push(p);
            Some(TableDelta::withdraw(p))
        } else if r < self.cfg.withdraw_fraction + self.cfg.replace_fraction
            && !self.live.is_empty()
        {
            let i = uniform_index(self.seed, &[S_PICK, t, k], self.live.len());
            Some(TableDelta::replace(self.live[i]))
        } else {
            let flap = !self.withdrawn.is_empty()
                && unit_f64(self.seed, &[S_FLAP, t, k]) < self.cfg.flap_bias;
            let p = if flap {
                let i = uniform_index(self.seed, &[S_FLAP, t, k, 1], self.withdrawn.len());
                self.withdrawn.swap_remove(i)
            } else {
                self.fresh += 1;
                synth_prefix(self.seed, S_FRESH ^ 0xF2E5, self.fresh)
            };
            if !self.live_set.insert(p) {
                return None;
            }
            self.live.push(p);
            Some(TableDelta::announce(p))
        }
    }
}

impl Iterator for DeltaStream {
    type Item = DeltaBatch;

    fn next(&mut self) -> Option<DeltaBatch> {
        Some(self.next_batch())
    }
}

/// A synthetic prefix in the BGP length mix, deterministic per
/// `(seed, label, i)`.
#[allow(clippy::cast_possible_truncation, reason = "draws bounded below 8 (or 4) fit u8.")]
fn synth_prefix(seed: u64, label: u64, i: u64) -> Ipv4Net {
    let r = unit_f64(seed, &[label, i, 0]);
    let len = if r < 0.55 {
        24
    } else if r < 0.85 {
        16 + (uniform_u64(seed, &[label, i, 1], 8) as u8)
    } else if r < 0.95 {
        25 + (uniform_u64(seed, &[label, i, 2], 4) as u8)
    } else {
        8 + (uniform_u64(seed, &[label, i, 3], 8) as u8)
    };
    let addr = derive_addr(seed, label, i) & (u32::MAX << (32 - u32::from(len)));
    Ipv4Net::new(addr, len).unwrap_or(Ipv4Net::DEFAULT)
}

/// 32 address bits from the derivation chain.
#[allow(
    clippy::cast_possible_truncation,
    reason = "taking the low 32 bits of a mixed 64-bit draw is the intended projection."
)]
fn derive_addr(seed: u64, label: u64, i: u64) -> u32 {
    (uniform_u64(seed, &[label, i, 4], 1 << 32)) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use netclust_rtable::{CompiledTable, DeltaKind};
    use std::collections::BTreeSet;

    #[test]
    fn same_seed_same_stream() {
        let cfg = DeltaStreamConfig::default();
        let a: Vec<DeltaBatch> = DeltaStream::synthetic(7, 500, cfg.clone())
            .take(50)
            .collect();
        let b: Vec<DeltaBatch> = DeltaStream::synthetic(7, 500, cfg).take(50).collect();
        assert_eq!(a, b);
        assert!(a.iter().map(|x| x.len()).sum::<usize>() > 0);
    }

    #[test]
    fn different_seeds_diverge() {
        let cfg = DeltaStreamConfig::default();
        let a: Vec<DeltaBatch> = DeltaStream::synthetic(7, 500, cfg.clone())
            .take(20)
            .collect();
        let b: Vec<DeltaBatch> = DeltaStream::synthetic(8, 500, cfg).take(20).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn timestamps_advance_by_tick_seconds() {
        let cfg = DeltaStreamConfig {
            tick_seconds: 30,
            ..DeltaStreamConfig::default()
        };
        let batches: Vec<DeltaBatch> = DeltaStream::synthetic(1, 100, cfg).take(10).collect();
        for (i, b) in batches.iter().enumerate() {
            assert_eq!(b.tick, i as u64);
            assert_eq!(b.timestamp, i as u64 * 30);
        }
    }

    #[test]
    fn churn_is_coherent_with_live_set() {
        // Withdrawals must always name a currently live prefix; replaces
        // must name live prefixes; flap announces must re-use withdrawn
        // ones.
        let mut stream = DeltaStream::synthetic(3, 2_000, DeltaStreamConfig::default());
        let mut live: BTreeSet<Ipv4Net> = stream.live_prefixes().into_iter().collect();
        for batch in (&mut stream).take(200) {
            for d in &batch.deltas {
                match d.kind {
                    DeltaKind::Withdraw => {
                        assert!(live.remove(&d.prefix), "withdraw of non-live {}", d.prefix);
                    }
                    DeltaKind::Replace => {
                        assert!(live.contains(&d.prefix), "replace of non-live {}", d.prefix);
                    }
                    DeltaKind::Announce => {
                        live.insert(d.prefix);
                    }
                }
            }
        }
        assert_eq!(live.len(), stream.live_prefixes().len());
    }

    #[test]
    fn session_resets_emit_replace_bursts() {
        let cfg = DeltaStreamConfig {
            reset_period: 10, // frequent, so 300 ticks surely hit some
            reset_burst: 50,
            ..DeltaStreamConfig::default()
        };
        let batches: Vec<DeltaBatch> = DeltaStream::synthetic(11, 1_000, cfg).take(300).collect();
        let resets: Vec<&DeltaBatch> = batches.iter().filter(|b| b.session_reset).collect();
        assert!(
            !resets.is_empty(),
            "expected at least one reset in 300 ticks"
        );
        for b in &resets {
            assert_eq!(b.len(), 50);
            assert!(b.deltas.iter().all(|d| d.kind == DeltaKind::Replace));
        }
    }

    #[test]
    fn resets_can_be_disabled() {
        let cfg = DeltaStreamConfig {
            reset_period: 0,
            ..DeltaStreamConfig::default()
        };
        let batches: Vec<DeltaBatch> = DeltaStream::synthetic(5, 200, cfg).take(500).collect();
        assert!(batches.iter().all(|b| !b.session_reset));
    }

    #[test]
    fn stream_drives_table_patching_consistently() {
        // End-to-end: apply 100 batches to a compiled table and check the
        // table's live set tracks the stream's.
        let mut stream = DeltaStream::synthetic(9, 800, DeltaStreamConfig::default());
        let mut table = CompiledTable::tiered(&stream.live_prefixes(), &[]);
        for batch in (&mut stream).take(100) {
            table.apply_delta(&batch.deltas);
        }
        let mut expect = stream.live_prefixes();
        expect.dedup();
        assert_eq!(table.live_prefixes(), expect);
    }

    #[test]
    fn synthetic_mix_favors_slash24() {
        let stream = DeltaStream::synthetic(2, 10_000, DeltaStreamConfig::default());
        let live = stream.live_prefixes();
        let n24 = live.iter().filter(|p| p.len() == 24).count();
        let total = live.len();
        let frac = n24 as f64 / total as f64;
        assert!((0.45..0.65).contains(&frac), "/24 fraction {frac}");
    }
}
