//! Seed-driven deterministic failpoint registry.
//!
//! A failpoint sits on a system call that really fails: the journal
//! write, the snapshot rename and `fsync` of the state store, and the
//! daemon's `accept` and request read. Code that cannot fail (compiling or
//! patching a table, scanning a chunk of a buffer already read) has no
//! failpoint; routing churn and noisy dumps (§3.4) are met by the stream's
//! swap gates instead. Tests need to exercise the OS failures
//! *reproducibly* — no wall clocks, no ambient randomness. A [`FaultPlan`]
//! names failpoints and arms each with a firing probability; a
//! [`FaultInjector`] evaluates them with a draw that is a pure function of
//! `(seed, failpoint name, evaluation count)`, so a given seed replays the
//! exact same fault schedule every run and a seed sweep explores distinct
//! schedules. `netclustd --fault` arms any of them.
//!
//! Production code paths accept an injector and ask
//! [`FaultInjector::should_fire`] at each seam; the disabled injector
//! answers `false` for free, so the hot paths cost nothing when no plan is
//! armed.

use std::collections::BTreeMap;

use netclust_prefix::unit_f64;

/// Well-known failpoint names wired through the pipeline.
pub mod failpoints {
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
        PERSIST_JOURNAL_WRITE,
        PERSIST_SNAPSHOT_RENAME,
        PERSIST_FSYNC,
        SERVE_ACCEPT,
        SERVE_REQUEST_PARSE,
    ];
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

    /// Arms `point` to fire with probability `p` per evaluation: a
    /// number from 0 to 1, which `netclustd --fault` checks.
    pub fn with(mut self, point: &str, p: f64) -> Self {
        self.points.insert(point.to_string(), p);
        self
    }

    /// The armed probability of `point` (0 when not armed).
    pub fn probability(&self, point: &str) -> f64 {
        self.points.get(point).copied().unwrap_or(0.0)
    }

    /// A fresh injector evaluating this plan from its first draw.
    pub fn injector(&self) -> FaultInjector {
        FaultInjector {
            plan: self.clone(),
            counts: BTreeMap::new(),
        }
    }
}

/// A stateful evaluator of a [`FaultPlan`]: each failpoint keeps an
/// evaluation counter, and draw *n* for a point is the pure function
/// `unit_f64(seed, [tag(point), n])` — reproducible, order-independent
/// across points, and fresh on every evaluation.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    /// Per-point evaluation counters.
    counts: BTreeMap<String, u64>,
}

impl FaultInjector {
    /// An injector that never fires (and never allocates counters).
    pub fn disabled() -> Self {
        FaultPlan::disabled().injector()
    }

    /// Evaluates `point` once: draws deterministically from the plan seed
    /// and this point's evaluation counter, advances the counter, and
    /// returns whether the fault fires.
    pub fn should_fire(&mut self, point: &str) -> bool {
        let p = self.plan.probability(point);
        if p <= 0.0 {
            return false;
        }
        let n = self.counts.entry(point.to_string()).or_insert(0);
        let draw = *n;
        *n += 1;
        p >= 1.0 || unit_f64(self.plan.seed, &[point_tag(point), draw]) < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Times `point` has been evaluated.
    fn evaluations(inj: &FaultInjector, point: &str) -> u64 {
        inj.counts.get(point).copied().unwrap_or(0)
    }

    #[test]
    fn disabled_injector_never_fires() {
        let mut inj = FaultInjector::disabled();
        for _ in 0..100 {
            assert!(!inj.should_fire(failpoints::SERVE_ACCEPT));
        }
        assert_eq!(evaluations(&inj, failpoints::SERVE_ACCEPT), 0);
    }

    #[test]
    fn schedule_is_reproducible_from_seed() {
        let plan = FaultPlan::new(42).with(failpoints::PERSIST_FSYNC, 0.3);
        let sample = |plan: &FaultPlan| -> Vec<bool> {
            let mut inj = plan.injector();
            (0..200)
                .map(|_| inj.should_fire(failpoints::PERSIST_FSYNC))
                .collect()
        };
        assert_eq!(sample(&plan), sample(&plan));
        let other = FaultPlan::new(43).with(failpoints::PERSIST_FSYNC, 0.3);
        assert_ne!(sample(&plan), sample(&other));
    }

    #[test]
    fn firing_rate_tracks_probability() {
        let plan = FaultPlan::new(7).with("x", 0.25);
        let mut inj = plan.injector();
        let fired = (0..2000).filter(|_| inj.should_fire("x")).count();
        assert_eq!(evaluations(&inj, "x"), 2000);
        let rate = fired as f64 / 2000.0;
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
    fn certainties() {
        let plan = FaultPlan::new(1).with("always", 1.0).with("never", 0.0);
        let mut inj = plan.injector();
        for _ in 0..64 {
            assert!(inj.should_fire("always"));
            assert!(!inj.should_fire("never"));
        }
        assert_eq!(evaluations(&inj, "always"), 64);
        assert_eq!(evaluations(&inj, "never"), 0);
    }

    #[test]
    fn failpoint_registry_is_exactly_the_wired_set() {
        // The documented registry, in declaration order. Growing the set
        // is fine — update this table alongside the consts and `ALL`.
        let expected = [
            "persist.journal.write",
            "persist.snapshot.rename",
            "persist.fsync",
            "serve.accept",
            "serve.request.parse",
        ];
        assert_eq!(failpoints::ALL, &expected);
        let mut dedup: Vec<&str> = failpoints::ALL.to_vec();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), failpoints::ALL.len(), "duplicate names");
    }
}
