//! Deterministic probe fault model and retry policy.
//!
//! Real deployments of the paper's validation tools see unresponsive
//! routers, load-balanced paths, and transient DNS failures; the clean
//! simulation in [`crate::Traceroute`]/[`crate::Nslookup`] models none of
//! that. This module supplies the missing noise, *deterministically*:
//! every loss decision is a pure function of `(seed, address, ttl,
//! attempt)`, so a faulted run is bit-for-bit reproducible from its seed
//! and a retry of the same probe re-rolls only the attempt index.
//!
//! [`RetryPolicy`] is the paired recovery strategy: a bounded number of
//! retries with exponentially growing, capped backoff, matching what the
//! paper's unattended probing scripts would need in production.

use netclust_netgen::unit_f64;

/// Stream tags keeping hop / destination / DNS loss draws independent.
const STREAM_HOP: u64 = 0x4f50_0001;
const STREAM_DEST: u64 = 0x4f50_0002;
const STREAM_DNS: u64 = 0x4f50_0003;

/// Seed-driven probabilities of probe-level failures.
///
/// All probabilities are per *attempt*: a retry re-rolls the decision, so
/// transient failures can clear while a genuinely silent target (firewall)
/// stays silent regardless of the model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeFaultModel {
    /// Seed every loss decision derives from.
    pub seed: u64,
    /// Probability a responding router hop drops one probe.
    pub hop_loss: f64,
    /// Probability a responding destination drops one probe.
    pub dest_loss: f64,
    /// Probability one DNS query transiently fails.
    pub lookup_loss: f64,
}

impl ProbeFaultModel {
    /// A model injecting no faults at all (the noise-free simulation).
    pub fn lossless() -> Self {
        ProbeFaultModel {
            seed: 0,
            hop_loss: 0.0,
            dest_loss: 0.0,
            lookup_loss: 0.0,
        }
    }

    /// A model with the given seed and all loss rates zero; set rates with
    /// the builder methods.
    pub fn new(seed: u64) -> Self {
        ProbeFaultModel {
            seed,
            ..Self::lossless()
        }
    }

    /// Sets the per-attempt router-hop loss probability.
    pub fn hop_loss(mut self, p: f64) -> Self {
        self.hop_loss = p;
        self
    }

    /// Sets the per-attempt destination loss probability.
    pub fn dest_loss(mut self, p: f64) -> Self {
        self.dest_loss = p;
        self
    }

    /// Sets the per-attempt DNS transient-failure probability.
    pub fn lookup_loss(mut self, p: f64) -> Self {
        self.lookup_loss = p;
        self
    }

    /// `true` when a probe toward `addr` at `ttl` (attempt `attempt`) is
    /// lost at a router hop.
    pub fn hop_lost(&self, addr: u32, ttl: u32, attempt: u32) -> bool {
        self.hop_loss > 0.0
            && unit_f64(
                self.seed,
                &[STREAM_HOP, addr as u64, ttl as u64, attempt as u64],
            ) < self.hop_loss
    }

    /// `true` when the destination `addr` drops attempt `attempt`.
    pub fn dest_lost(&self, addr: u32, attempt: u32) -> bool {
        self.dest_loss > 0.0
            && unit_f64(self.seed, &[STREAM_DEST, addr as u64, attempt as u64]) < self.dest_loss
    }

    /// `true` when DNS query attempt `attempt` for `addr` transiently fails.
    pub fn lookup_lost(&self, addr: u32, attempt: u32) -> bool {
        self.lookup_loss > 0.0
            && unit_f64(self.seed, &[STREAM_DNS, addr as u64, attempt as u64]) < self.lookup_loss
    }
}

/// Retry-with-capped-backoff policy for lossy probes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Retries after the first attempt (0 = single shot).
    pub max_retries: u32,
    /// Backoff before the first retry, in milliseconds.
    pub base_backoff_ms: f64,
    /// Ceiling the exponential backoff saturates at.
    pub max_backoff_ms: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 2,
            base_backoff_ms: 500.0,
            max_backoff_ms: 4000.0,
        }
    }
}

impl RetryPolicy {
    /// Backoff charged before retry number `retry` (0-based): exponential
    /// doubling from the base, saturating at the cap.
    pub fn backoff_ms(&self, retry: u32) -> f64 {
        // Clamped to 30, well inside i32.
        let factor = 2f64.powi(retry.min(30) as i32);
        (self.base_backoff_ms * factor).min(self.max_backoff_ms)
    }

    /// Total attempts (first try + retries).
    pub fn attempts(&self) -> u32 {
        self.max_retries + 1
    }
}

/// Placeholder name for a router hop that never answered: the partial-path
/// signatures of §3.5's self-correction treat it as a wildcard.
pub const UNRESPONSIVE_HOP: &str = "*";

/// Whether two `>`-joined path signatures are compatible: same number of
/// components and every pair of components equal or wildcarded
/// ([`UNRESPONSIVE_HOP`]). Signatures of different lengths are *not*
/// compatible — a loss-truncated path names the wrong routers, not unknown
/// ones.
pub fn sigs_compatible(a: &str, b: &str) -> bool {
    let (mut ia, mut ib) = (a.split('>'), b.split('>'));
    loop {
        match (ia.next(), ib.next()) {
            (None, None) => return true,
            (Some(x), Some(y)) => {
                if x != y && x != UNRESPONSIVE_HOP && y != UNRESPONSIVE_HOP {
                    return false;
                }
            }
            _ => return false,
        }
    }
}

/// Number of concrete (non-wildcard) components in a signature — used to
/// pick the most informative representative of a compatible set.
pub fn sig_specificity(sig: &str) -> usize {
    sig.split('>').filter(|c| *c != UNRESPONSIVE_HOP).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic_and_rate_shaped() {
        let m = ProbeFaultModel::new(7).hop_loss(0.3);
        let mut lost = 0usize;
        for addr in 0..2000u32 {
            let a = m.hop_lost(addr, 5, 0);
            assert_eq!(a, m.hop_lost(addr, 5, 0));
            if a {
                lost += 1;
            }
        }
        let frac = lost as f64 / 2000.0;
        assert!((0.25..0.35).contains(&frac), "loss fraction {frac}");
        // A retry re-rolls: some lost first attempts succeed on attempt 1.
        let retried_ok = (0..2000u32)
            .filter(|&a| m.hop_lost(a, 5, 0) && !m.hop_lost(a, 5, 1))
            .count();
        assert!(retried_ok > 0);
        // Different seeds give different draws.
        let other = ProbeFaultModel::new(8).hop_loss(0.3);
        assert!((0..200u32).any(|a| m.hop_lost(a, 5, 0) != other.hop_lost(a, 5, 0)));
    }

    #[test]
    fn zero_rates_never_fire() {
        let m = ProbeFaultModel::lossless();
        for addr in 0..100u32 {
            assert!(!m.hop_lost(addr, 1, 0));
            assert!(!m.dest_lost(addr, 0));
            assert!(!m.lookup_lost(addr, 0));
        }
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff_ms(0), 500.0);
        assert_eq!(p.backoff_ms(1), 1000.0);
        assert_eq!(p.backoff_ms(2), 2000.0);
        assert_eq!(p.backoff_ms(3), 4000.0);
        assert_eq!(p.backoff_ms(10), 4000.0);
        assert_eq!(p.attempts(), 3);
    }

    #[test]
    fn signature_compatibility() {
        assert!(sigs_compatible("a>b", "a>b"));
        assert!(sigs_compatible("*>b", "a>b"));
        assert!(sigs_compatible("a>*", "*>b"));
        assert!(!sigs_compatible("a>b", "a>c"));
        assert!(!sigs_compatible("a>b", "b"));
        assert!(!sigs_compatible("", "a"));
        assert_eq!(sig_specificity("a>*>c"), 2);
        assert_eq!(sig_specificity("*>*"), 0);
    }
}
