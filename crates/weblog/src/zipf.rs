//! Zipf-like sampling.
//!
//! Web request popularity is famously Zipf-like (the paper cites Breslau et
//! al. [7] and observes "such Zipf-like distributions are common in a
//! variety of Web measurements"). [`ZipfSampler`] draws ranks `0..n` with
//! probability proportional to `1 / (rank+1)^alpha` via an inverted CDF.

use rand::Rng;

/// Samples ranks `0..n` with `P(rank = k) ∝ 1/(k+1)^alpha`.
///
/// Construction is `O(n)`; each draw is a binary search, `O(log n)`.
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    /// Cumulative (unnormalized) weights; `cdf[k]` is the sum through rank k.
    cdf: Vec<f64>,
}

impl ZipfSampler {
    /// Builds a sampler over `n` ranks with exponent `alpha`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `alpha` is not finite.
    pub fn new(n: usize, alpha: f64) -> Self {
        assert!(n > 0, "ZipfSampler needs at least one rank");
        assert!(alpha.is_finite(), "alpha must be finite");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(alpha);
            cdf.push(acc);
        }
        ZipfSampler { cdf }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// `false`; the sampler always has at least one rank.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Draws a rank in `0..n`.
    pub fn sample(&self, rng: &mut impl Rng) -> usize {
        let total = *self.cdf.last().expect("non-empty");
        let u = rng.gen_range(0.0..total);
        // First index with cdf[i] > u.
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }

    /// The probability of rank `k` (for tests and analytics).
    pub fn prob(&self, k: usize) -> f64 {
        let total = *self.cdf.last().expect("non-empty");
        let prev = if k == 0 { 0.0 } else { self.cdf[k - 1] };
        (self.cdf[k] - prev) / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn probabilities_sum_to_one_and_decay() {
        let z = ZipfSampler::new(100, 0.9);
        let total: f64 = (0..100).map(|k| z.prob(k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(z.prob(0) > z.prob(1));
        assert!(z.prob(1) > z.prob(50));
    }

    #[test]
    fn empirical_rank_frequencies_follow_zipf() {
        let z = ZipfSampler::new(1000, 1.0);
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = vec![0u64; 1000];
        let n = 200_000;
        for _ in 0..n {
            counts[z.sample(&mut rng)] += 1;
        }
        // Rank 0 should get ≈ p0 = 1/H_1000 ≈ 0.1336 of draws.
        let p0 = counts[0] as f64 / n as f64;
        assert!((0.11..0.16).contains(&p0), "p0 = {p0}");
        // Top 10 % of ranks take the majority of draws.
        let top: u64 = counts[..100].iter().sum();
        assert!(
            top as f64 / n as f64 > 0.6,
            "top share {}",
            top as f64 / n as f64
        );
    }

    #[test]
    fn alpha_zero_is_uniform() {
        let z = ZipfSampler::new(10, 0.0);
        for k in 0..10 {
            assert!((z.prob(k) - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn single_rank() {
        let z = ZipfSampler::new(1, 1.0);
        let mut rng = StdRng::seed_from_u64(2);
        assert_eq!(z.sample(&mut rng), 0);
        assert!(!z.is_empty());
        assert_eq!(z.len(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_panic() {
        let _ = ZipfSampler::new(0, 1.0);
    }
}
