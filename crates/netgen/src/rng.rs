//! Deterministic RNG derivation.
//!
//! Every randomized quantity in the synthetic universe is derived from the
//! universe seed plus a *stream label*, so queries are stateless and
//! reproducible: asking for the DNS name of an address twice, or generating
//! day 7's AADS snapshot before day 3's, always yields identical results.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

pub use netclust_prefix::{derive_seed, unit_f64};

/// A seeded [`StdRng`] for the given stream.
pub fn stream_rng(seed: u64, stream: &[u64]) -> StdRng {
    StdRng::seed_from_u64(derive_seed(seed, stream))
}

/// A stateless uniform draw in `0..n` (`n > 0`).
pub fn uniform_u64(seed: u64, stream: &[u64], n: u64) -> u64 {
    debug_assert!(n > 0);
    // Multiply-shift reduction avoids modulo bias for small n.
    ((derive_seed(seed, stream) as u128 * n as u128) >> 64) as u64
}

/// A stateless uniform index into a collection of `len` (`len > 0`).
#[allow(clippy::cast_possible_truncation, reason = "the draw is below `len`, a usize.")]
pub fn uniform_index(seed: u64, stream: &[u64], len: usize) -> usize {
    uniform_u64(seed, stream, len as u64) as usize
}

/// A discrete bounded Pareto draw in `[min, cap]`:
/// `P(X >= x) ∝ x^-alpha`. Used for heavy-tailed cluster sizes and
/// per-client request counts.
#[allow(clippy::cast_possible_truncation, reason = "clamped to [min, cap] right after.")]
pub fn pareto_u64(rng: &mut impl Rng, alpha: f64, min: u64, cap: u64) -> u64 {
    debug_assert!(alpha > 0.0 && min >= 1 && cap >= min);
    if cap == min {
        return min;
    }
    // Inverse-CDF for the continuous bounded Pareto, then floor.
    let u: f64 = rng.gen_range(0.0..1.0);
    let l = (min as f64).powf(-alpha);
    let h = (cap as f64 + 1.0).powf(-alpha);
    let x = (l - u * (l - h)).powf(-1.0 / alpha);
    (x as u64).clamp(min, cap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn derivation_is_deterministic() {
        assert_eq!(derive_seed(42, &[1, 2, 3]), derive_seed(42, &[1, 2, 3]));
        let mut a = stream_rng(42, &[7]);
        let mut b = stream_rng(42, &[7]);
        assert_eq!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn uniform_u64_bounds() {
        for i in 0..1000u64 {
            let v = uniform_u64(3, &[i], 10);
            assert!(v < 10);
        }
        // All residues reachable.
        let seen: std::collections::BTreeSet<u64> =
            (0..1000u64).map(|i| uniform_u64(3, &[i], 10)).collect();
        assert_eq!(seen.len(), 10);
    }

    #[test]
    fn pareto_bounds_and_tail() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut max_seen = 0;
        let mut sum = 0u64;
        let n = 50_000;
        for _ in 0..n {
            let x = pareto_u64(&mut rng, 1.25, 1, 1500);
            assert!((1..=1500).contains(&x));
            max_seen = max_seen.max(x);
            sum += x;
        }
        // Heavy tail: some large values occur, but the mean stays small.
        assert!(max_seen > 300, "max {max_seen}");
        let mean = sum as f64 / n as f64;
        assert!((1.5..20.0).contains(&mean), "mean {mean}");
    }

    #[test]
    fn pareto_degenerate_range() {
        let mut rng = StdRng::seed_from_u64(4);
        assert_eq!(pareto_u64(&mut rng, 1.0, 5, 5), 5);
    }
}
