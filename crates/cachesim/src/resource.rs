//! Server-side resource modification model.
//!
//! Cache validation only matters if resources actually change. The model
//! gives each URL a deterministic modification period (heavy-tailed, with
//! an immutable fraction — images rarely change, scoreboards change
//! constantly); the *version* of a resource at time `t` is the number of
//! modifications so far. A cached copy is out of date when the server's
//! version exceeds the copy's.

use netclust_netgen::{uniform_u64, unit_f64};

/// Deterministic per-URL modification schedule.
#[derive(Debug, Clone, Copy)]
pub struct ResourceModel {
    seed: u64,
    /// Fraction of resources that never change.
    immutable_fraction: f64,
    /// Minimum modification period, seconds.
    min_period_s: u32,
    /// Maximum modification period, seconds.
    max_period_s: u32,
}

impl ResourceModel {
    /// Creates a model. Periods are log-uniform in
    /// `[min_period_s, max_period_s]`.
    pub fn new(seed: u64, immutable_fraction: f64, min_period_s: u32, max_period_s: u32) -> Self {
        assert!(min_period_s > 0 && min_period_s <= max_period_s);
        ResourceModel {
            seed,
            immutable_fraction,
            min_period_s,
            max_period_s,
        }
    }

    /// The paper-era default: 20 % immutable; the rest modified every
    /// 30 minutes to ~4 days.
    pub fn default_web(seed: u64) -> Self {
        Self::new(seed, 0.20, 1_800, 4 * 86_400)
    }

    /// A model where nothing ever changes (validations always succeed).
    pub fn immutable() -> Self {
        Self::new(0, 1.0, 1, 1)
    }

    /// The modification period of `url`, or `None` if immutable.
    pub fn period(&self, url: u32) -> Option<u32> {
        if unit_f64(self.seed, &[0x4E5, url as u64]) < self.immutable_fraction {
            return None;
        }
        // Log-uniform period.
        let lo = (self.min_period_s as f64).ln();
        let hi = (self.max_period_s as f64).ln();
        let u = unit_f64(self.seed, &[0x4E6, url as u64]);
        #[allow(
            clippy::cast_possible_truncation,
            reason = "the log-uniform draw lies within [min_period_s, max_period_s], both u32."
        )]
        Some((lo + u * (hi - lo)).exp() as u32)
    }

    /// The server-side version of `url` at time `t` (0 for immutable
    /// resources, stepping by 1 every period with a per-URL phase).
    pub fn version(&self, url: u32, t: u32) -> u64 {
        match self.period(url) {
            None => 0,
            Some(p) => {
                #[allow(clippy::cast_possible_truncation, reason = "phase < p, and p is u32.")]
                let phase = uniform_u64(self.seed, &[0x4E7, url as u64], p as u64) as u32;
                ((t as u64) + phase as u64) / p as u64
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn versions_are_monotone_and_step_by_period() {
        let m = ResourceModel::new(7, 0.0, 100, 100);
        let mut last = m.version(1, 0);
        for t in (0..10_000).step_by(10) {
            let v = m.version(1, t);
            assert!(v >= last);
            last = v;
        }
        // Over 10,000 s with period 100 s: about 100 modifications.
        assert!((95..=105).contains(&(m.version(1, 10_000) - m.version(1, 0))));
    }

    #[test]
    fn immutable_resources_never_change() {
        let m = ResourceModel::immutable();
        for url in 0..50 {
            assert_eq!(m.period(url), None);
            assert_eq!(m.version(url, 0), 0);
            assert_eq!(m.version(url, 1_000_000), 0);
        }
    }

    #[test]
    fn immutable_fraction_is_respected() {
        let m = ResourceModel::new(9, 0.3, 60, 86_400);
        let immutable = (0..2000).filter(|&u| m.period(u).is_none()).count();
        let frac = immutable as f64 / 2000.0;
        assert!((0.25..0.35).contains(&frac), "{frac}");
    }

    #[test]
    fn periods_span_configured_range() {
        let m = ResourceModel::new(5, 0.0, 1_800, 4 * 86_400);
        let periods: Vec<u32> = (0..500).filter_map(|u| m.period(u)).collect();
        assert!(periods.iter().all(|&p| (1_800..=4 * 86_400).contains(&p)));
        let short = periods.iter().filter(|&&p| p < 10_000).count();
        let long = periods.iter().filter(|&&p| p > 100_000).count();
        assert!(short > 0 && long > 0, "log-uniform should cover both ends");
    }

    #[test]
    fn deterministic() {
        let a = ResourceModel::default_web(3);
        let b = ResourceModel::default_web(3);
        for url in 0..100 {
            assert_eq!(a.period(url), b.period(url));
            assert_eq!(a.version(url, 12345), b.version(url, 12345));
        }
    }
}
