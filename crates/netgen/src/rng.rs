//! Deterministic RNG derivation.
//!
//! Every randomized quantity in the synthetic universe is derived from the
//! universe seed plus a *stream label*, so queries are stateless and
//! reproducible: asking for the DNS name of an address twice, or generating
//! day 7's AADS snapshot before day 3's, always yields identical results.

use rand::rngs::StdRng;
use rand::SeedableRng;

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
}
