//! Prefix-length statistics (Figure 1 of the paper).
//!
//! Figure 1 plots the distribution of prefix lengths in a routing-table
//! snapshot (≈50 % are `/24`; among the rest, short prefixes outnumber long
//! ones due to CIDR allocation and route aggregation) and its stability over
//! several days. [`PrefixLengthHistogram`] computes exactly that view.

use netclust_prefix::Ipv4Net;

/// Histogram of prefix lengths `0..=32` over a set of prefixes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrefixLengthHistogram {
    counts: [usize; 33],
    total: usize,
}

impl PrefixLengthHistogram {
    /// Builds the histogram from any prefix iterator.
    pub fn from_prefixes<I>(prefixes: I) -> Self
    where
        I: IntoIterator<Item = Ipv4Net>,
    {
        let mut counts = [0usize; 33];
        let mut total = 0usize;
        for net in prefixes {
            counts[net.len() as usize] += 1;
            total += 1;
        }
        PrefixLengthHistogram { counts, total }
    }

    /// Count of prefixes with length `len` (0 for `len > 32`).
    pub fn count(&self, len: u8) -> usize {
        self.counts.get(len as usize).copied().unwrap_or(0)
    }

    /// Total number of prefixes.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Fraction of prefixes with length `len` (`0.0` on an empty set).
    pub fn fraction(&self, len: u8) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.count(len) as f64 / self.total as f64
        }
    }

    /// Fraction of prefixes strictly shorter than `len`.
    pub fn fraction_shorter_than(&self, len: u8) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let n: usize = self.counts[..(len as usize).min(33)].iter().sum();
        n as f64 / self.total as f64
    }

    /// Fraction of prefixes strictly longer than `len`.
    pub fn fraction_longer_than(&self, len: u8) -> f64 {
        if self.total == 0 || len >= 32 {
            return 0.0;
        }
        let n: usize = self.counts[(len as usize + 1)..].iter().sum();
        n as f64 / self.total as f64
    }

    /// Iterates `(length, count)` for lengths that occur at least once.
    pub fn nonzero(&self) -> impl Iterator<Item = (u8, usize)> + '_ {
        // One count per length 0..=32, so the lengths can be counted in u8.
        (0u8..)
            .zip(&self.counts)
            .filter(|(_, &c)| c > 0)
            .map(|(l, &c)| (l, c))
    }

    /// The most common prefix length, or `None` on an empty set.
    pub fn mode(&self) -> Option<u8> {
        self.nonzero().max_by_key(|&(_, c)| c).map(|(l, _)| l)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netclust_testkit::nets;

    #[test]
    fn counts_and_fractions() {
        let h = PrefixLengthHistogram::from_prefixes(nets(&[
            "10.0.0.0/8",
            "10.1.0.0/16",
            "10.1.2.0/24",
            "10.1.3.0/24",
        ]));
        assert_eq!(h.total(), 4);
        assert_eq!(h.count(24), 2);
        assert_eq!(h.count(8), 1);
        assert_eq!(h.count(32), 0);
        assert!((h.fraction(24) - 0.5).abs() < 1e-12);
        assert!((h.fraction_shorter_than(24) - 0.5).abs() < 1e-12);
        assert_eq!(h.fraction_longer_than(24), 0.0);
        assert_eq!(h.mode(), Some(24));
    }

    #[test]
    fn empty_histogram() {
        let h = PrefixLengthHistogram::from_prefixes(std::iter::empty());
        assert_eq!(h.total(), 0);
        assert_eq!(h.fraction(24), 0.0);
        assert_eq!(h.mode(), None);
        assert_eq!(h.nonzero().count(), 0);
    }

    #[test]
    fn shorter_longer_partition() {
        let h = PrefixLengthHistogram::from_prefixes(nets(&[
            "10.0.0.0/16",
            "10.1.0.0/20",
            "10.1.16.0/24",
            "10.1.17.0/28",
        ]));
        let below = h.fraction_shorter_than(24);
        let at = h.fraction(24);
        let above = h.fraction_longer_than(24);
        assert!((below + at + above - 1.0).abs() < 1e-12);
        assert!((below - 0.5).abs() < 1e-12);
        assert!((above - 0.25).abs() < 1e-12);
    }

    #[test]
    fn nonzero_skips_empty_lengths() {
        let h = PrefixLengthHistogram::from_prefixes(nets(&["0.0.0.0/0", "1.0.0.0/32"]));
        let nz: Vec<_> = h.nonzero().collect();
        assert_eq!(nz, vec![(0, 1), (32, 1)]);
    }
}
