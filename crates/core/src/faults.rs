//! Seed-driven deterministic failpoint registry.
//!
//! The streaming pipeline has three seams where messy reality leaks in:
//! routing-table swaps (§3.4's churn), self-correction probes (§3.5's
//! unresponsive routers), and log ingest (torn files, I/O errors). Tests
//! need to exercise those failures *reproducibly* — no wall clocks, no
//! ambient randomness. A [`FaultPlan`] names failpoints and arms each with
//! a firing probability; a [`FaultInjector`] evaluates them with a draw
//! that is a pure function of `(seed, failpoint name, evaluation count)`,
//! so a given seed replays the exact same fault schedule every run and a
//! seed sweep explores distinct schedules.
//!
//! Production code paths accept an injector and ask
//! [`FaultInjector::should_fire`] at each seam; the disabled injector
//! answers `false` for free, so the hot paths cost nothing when no plan is
//! armed.

use std::collections::BTreeMap;

use netclust_obs::Obs;
use netclust_prefix::unit_f64;

/// Well-known failpoint names wired through the pipeline.
pub mod failpoints {
    /// Compiling a candidate routing table during a hot swap dies
    /// (allocation failure, corrupt input surviving parse).
    pub const SWAP_COMPILE: &str = "swap.compile";
    /// A chunk of the input log fails mid-read (I/O error on a page of an
    /// `mmap`'d file, torn NFS read).
    pub const INGEST_CHUNK_IO: &str = "ingest.chunk_io";
    /// Patching a candidate table generation dies mid-apply (allocation
    /// failure, corrupt delta surviving validation); the half-patched
    /// candidate must be discarded with the old generation left serving.
    pub const TABLE_PATCH: &str = "table.patch";
    /// A write-ahead journal append dies mid-write (disk full, process
    /// kill between `write` calls): the frame is torn on disk and the
    /// process must treat the append as failed. Recovery truncates the
    /// torn tail and replays everything before it.
    pub const PERSIST_JOURNAL_WRITE: &str = "persist.journal.write";
    /// The atomic snapshot rename dies between writing the temp file and
    /// publishing it: the previous snapshot generation must keep serving
    /// recovery, with the orphaned temp file ignored.
    pub const PERSIST_SNAPSHOT_RENAME: &str = "persist.snapshot.rename";
    /// An `fsync` on the journal or snapshot fails (I/O error, yanked
    /// volume): durability of recent appends is unknown and the process
    /// must treat the store as wedged rather than acknowledge the batch.
    pub const PERSIST_FSYNC: &str = "persist.fsync";
    /// Accepting a daemon connection dies (`accept` returns EMFILE /
    /// ECONNABORTED under pressure): the serve loop must log, shed the
    /// connection, and keep accepting — never exit.
    pub const SERVE_ACCEPT: &str = "serve.accept";
    /// Reading an HTTP request off an accepted connection dies mid-parse
    /// (client reset, torn read): the worker must answer 400 or close,
    /// recycle the connection, and keep the pool healthy.
    pub const SERVE_REQUEST_PARSE: &str = "serve.request.parse";

    /// Every registered failpoint, in declaration order — the registry
    /// surface fault sweeps iterate so new points cannot dodge the
    /// standard harness.
    pub const ALL: &[&str] = &[
        SWAP_COMPILE,
        INGEST_CHUNK_IO,
        TABLE_PATCH,
        PERSIST_JOURNAL_WRITE,
        PERSIST_SNAPSHOT_RENAME,
        PERSIST_FSYNC,
        SERVE_ACCEPT,
        SERVE_REQUEST_PARSE,
    ];

    /// The registry as a function, for callers that iterate rather than
    /// index (fault sweeps, the static-analysis coverage rule).
    pub fn all() -> &'static [&'static str] {
        ALL
    }
}

/// FNV-1a over the failpoint name: folds the registry key into the seed
/// stream so distinct failpoints draw independently.
fn point_tag(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in name.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A named set of armed failpoints with firing probabilities, plus the
/// seed every draw derives from.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    points: BTreeMap<String, f64>,
}

impl FaultPlan {
    /// A plan with no armed failpoints (nothing ever fires).
    #[deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing
    )]
    pub fn disabled() -> Self {
        FaultPlan::default()
    }

    /// An empty plan drawing from `seed`; arm failpoints with
    /// [`with`](Self::with).
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            points: BTreeMap::new(),
        }
    }

    /// Arms `point` to fire with probability `p` per evaluation
    /// (clamped to `[0, 1]`).
    pub fn with(mut self, point: &str, p: f64) -> Self {
        self.points.insert(point.to_string(), p.clamp(0.0, 1.0));
        self
    }

    /// The seed the plan draws from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The armed probability of `point` (0 when not armed).
    pub fn probability(&self, point: &str) -> f64 {
        self.points.get(point).copied().unwrap_or(0.0)
    }

    /// `true` when `point` can ever fire under this plan.
    pub fn is_armed(&self, point: &str) -> bool {
        self.probability(point) > 0.0
    }

    /// A fresh injector evaluating this plan from its first draw.
    pub fn injector(&self) -> FaultInjector {
        FaultInjector {
            plan: self.clone(),
            counts: BTreeMap::new(),
            obs: Obs::disabled(),
        }
    }

    /// [`injector`](Self::injector) that also reports trip counts to `obs`
    /// as `faults.fired.<point>` counters. Observation never perturbs the
    /// draw schedule — a seed replays identically with or without it.
    pub fn injector_with_obs(&self, obs: &Obs) -> FaultInjector {
        let mut inj = self.injector();
        inj.obs = obs.clone();
        inj
    }
}

/// A stateful evaluator of a [`FaultPlan`]: each failpoint keeps an
/// evaluation counter, and draw *n* for a point is the pure function
/// `unit_f64(seed, [tag(point), n])` — reproducible, order-independent
/// across points, and fresh on every evaluation.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    /// Per-point `(evaluations, fired)` counters.
    counts: BTreeMap<String, (u64, u64)>,
    /// Trip-count reporting (disabled by default; see
    /// [`FaultPlan::injector_with_obs`]).
    obs: Obs,
}

impl FaultInjector {
    /// An injector that never fires (and never allocates counters).
    pub fn disabled() -> Self {
        FaultPlan::disabled().injector()
    }

    /// `true` when `point` can ever fire.
    pub fn is_armed(&self, point: &str) -> bool {
        self.plan.is_armed(point)
    }

    /// Evaluates `point` once: draws deterministically from the plan seed
    /// and this point's evaluation counter, records the outcome, and
    /// returns whether the fault fires.
    pub fn should_fire(&mut self, point: &str) -> bool {
        let p = self.plan.probability(point);
        if p <= 0.0 {
            return false;
        }
        let entry = self.counts.entry(point.to_string()).or_insert((0, 0));
        let n = entry.0;
        entry.0 += 1;
        let fire = p >= 1.0 || unit_f64(self.plan.seed, &[point_tag(point), n]) < p;
        if fire {
            entry.1 += 1;
            if self.obs.is_enabled() {
                // Faults are rare by construction; resolving the counter
                // through the registry on each trip is fine here.
                self.obs.counter(&format!("faults.fired.{point}")).inc();
            }
        }
        fire
    }

    /// Evaluates `point` against explicit draw keys instead of the
    /// evaluation counter: the draw is the pure function
    /// `unit_f64(seed, [tag(point), keys...])`, independent of how many
    /// times — or on which thread — any point was evaluated before.
    ///
    /// This is what the parallel ingest path uses, keyed by
    /// `(chunk index, attempt)`: a plan trips the same chunks on the same
    /// attempts whether chunks are scanned serially or stolen by N
    /// workers in any order, so fault schedules survive re-scheduling.
    /// Counters and obs reporting behave exactly as in
    /// [`should_fire`](Self::should_fire).
    pub fn should_fire_keyed(&mut self, point: &str, keys: &[u64]) -> bool {
        let p = self.plan.probability(point);
        if p <= 0.0 {
            return false;
        }
        let entry = self.counts.entry(point.to_string()).or_insert((0, 0));
        entry.0 += 1;
        let fire = p >= 1.0 || {
            let mut stream = Vec::with_capacity(keys.len() + 1);
            stream.push(point_tag(point));
            stream.extend_from_slice(keys);
            unit_f64(self.plan.seed, &stream) < p
        };
        if fire {
            entry.1 += 1;
            if self.obs.is_enabled() {
                self.obs.counter(&format!("faults.fired.{point}")).inc();
            }
        }
        fire
    }

    /// Folds another injector's evaluation/fired counters into this one —
    /// the parallel ingest path hands each worker a clone (keyed draws
    /// make clones agree on the schedule) and absorbs their tallies after
    /// the scope joins.
    pub fn absorb(&mut self, other: &FaultInjector) {
        for (point, &(evals, fired)) in &other.counts {
            let entry = self.counts.entry(point.clone()).or_insert((0, 0));
            entry.0 += evals;
            entry.1 += fired;
        }
    }

    /// Times `point` actually fired.
    pub fn fired(&self, point: &str) -> u64 {
        self.counts.get(point).map(|c| c.1).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Times `point` has been evaluated.
    fn evaluations(inj: &FaultInjector, point: &str) -> u64 {
        inj.counts.get(point).map_or(0, |c| c.0)
    }

    #[test]
    fn disabled_injector_never_fires() {
        let mut inj = FaultInjector::disabled();
        for _ in 0..100 {
            assert!(!inj.should_fire(failpoints::SWAP_COMPILE));
        }
        assert_eq!(evaluations(&inj, failpoints::SWAP_COMPILE), 0);
        assert!(!inj.is_armed(failpoints::SWAP_COMPILE));
    }

    #[test]
    fn schedule_is_reproducible_from_seed() {
        let plan = FaultPlan::new(42).with(failpoints::INGEST_CHUNK_IO, 0.3);
        let sample = |plan: &FaultPlan| -> Vec<bool> {
            let mut inj = plan.injector();
            (0..200)
                .map(|_| inj.should_fire(failpoints::INGEST_CHUNK_IO))
                .collect()
        };
        assert_eq!(sample(&plan), sample(&plan));
        let other = FaultPlan::new(43).with(failpoints::INGEST_CHUNK_IO, 0.3);
        assert_ne!(sample(&plan), sample(&other));
    }

    #[test]
    fn firing_rate_tracks_probability() {
        let plan = FaultPlan::new(7).with("x", 0.25);
        let mut inj = plan.injector();
        for _ in 0..2000 {
            inj.should_fire("x");
        }
        assert_eq!(evaluations(&inj, "x"), 2000);
        let rate = inj.fired("x") as f64 / 2000.0;
        assert!((0.2..0.3).contains(&rate), "rate {rate}");
    }

    #[test]
    fn points_draw_independently() {
        let plan = FaultPlan::new(7).with("a", 0.5).with("b", 0.5);
        let mut inj = plan.injector();
        let a: Vec<bool> = (0..64).map(|_| inj.should_fire("a")).collect();
        let b: Vec<bool> = (0..64).map(|_| inj.should_fire("b")).collect();
        assert_ne!(a, b);
        // Interleaving evaluations does not change a point's schedule.
        let mut inj2 = plan.injector();
        let mut a2 = Vec::new();
        for _ in 0..64 {
            a2.push(inj2.should_fire("a"));
            inj2.should_fire("b");
        }
        assert_eq!(a, a2);
    }

    #[test]
    fn keyed_draws_are_schedule_independent() {
        let plan = FaultPlan::new(42).with(failpoints::INGEST_CHUNK_IO, 0.3);
        // Forward, reverse and interleaved-with-other-points evaluation
        // orders all agree per key — the draw depends only on the key.
        let keys: Vec<[u64; 2]> = (0..32).map(|c| [c, 0]).collect();
        let mut fwd = plan.injector();
        let forward: Vec<bool> = keys
            .iter()
            .map(|k| fwd.should_fire_keyed(failpoints::INGEST_CHUNK_IO, k))
            .collect();
        let mut rev = plan.injector();
        let mut reverse: Vec<bool> = keys
            .iter()
            .rev()
            .map(|k| {
                rev.should_fire("unrelated");
                rev.should_fire_keyed(failpoints::INGEST_CHUNK_IO, k)
            })
            .collect();
        reverse.reverse();
        assert_eq!(forward, reverse);
        assert_eq!(evaluations(&rev, failpoints::INGEST_CHUNK_IO), 32);
        // Distinct attempts on one chunk draw independently of each other
        // and of other chunks.
        let mut inj = plan.injector();
        let attempts: Vec<bool> = (0..64)
            .map(|a| inj.should_fire_keyed(failpoints::INGEST_CHUNK_IO, &[7, a]))
            .collect();
        assert!(attempts.iter().any(|&f| f) && attempts.iter().any(|&f| !f));
    }

    #[test]
    fn absorb_merges_worker_tallies() {
        let plan = FaultPlan::new(9).with("x", 0.5);
        let mut main = plan.injector();
        let mut w1 = plan.injector();
        let mut w2 = plan.injector();
        let mut fired = 0u64;
        for c in 0..10u64 {
            let inj = if c % 2 == 0 { &mut w1 } else { &mut w2 };
            if inj.should_fire_keyed("x", &[c, 0]) {
                fired += 1;
            }
        }
        main.absorb(&w1);
        main.absorb(&w2);
        assert_eq!(evaluations(&main, "x"), 10);
        assert_eq!(main.fired("x"), fired);
    }

    #[test]
    fn certainties_and_clamping() {
        let plan = FaultPlan::new(1).with("always", 1.0).with("over", 7.5);
        let mut inj = plan.injector();
        assert!(inj.should_fire("always"));
        assert!(inj.should_fire("over"));
        assert_eq!(plan.probability("over"), 1.0);
    }

    #[test]
    fn failpoint_registry_is_exactly_the_wired_set() {
        // The documented registry, in declaration order. Growing the set
        // is fine — update this table alongside the consts and `ALL`.
        let expected = [
            "swap.compile",
            "ingest.chunk_io",
            "table.patch",
            "persist.journal.write",
            "persist.snapshot.rename",
            "persist.fsync",
            "serve.accept",
            "serve.request.parse",
        ];
        assert_eq!(failpoints::all(), &expected);
        assert_eq!(failpoints::all(), failpoints::ALL);
        let mut dedup: Vec<&str> = failpoints::all().to_vec();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), failpoints::all().len(), "duplicate names");
    }
}
