//! Deterministic RNG derivation.
//!
//! Every randomized quantity in the synthetic universe is derived from the
//! universe seed plus a *stream label*, so queries are stateless and
//! reproducible: asking for the DNS name of an address twice, or generating
//! day 7's AADS snapshot before day 3's, always yields identical results.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// SplitMix64 finalizer — a strong 64-bit mixing function.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Combines a seed with stream labels into a single derived seed.
pub fn derive_seed(seed: u64, stream: &[u64]) -> u64 {
    let mut acc = mix(seed ^ 0x6A09_E667_F3BC_C908);
    for &s in stream {
        acc = mix(acc ^ s);
    }
    acc
}

/// A seeded [`StdRng`] for the given stream.
pub fn stream_rng(seed: u64, stream: &[u64]) -> StdRng {
    StdRng::seed_from_u64(derive_seed(seed, stream))
}

/// A uniform `f64` in `[0, 1)` derived statelessly from a stream — for
/// one-shot probabilistic decisions (e.g. "is this host resolvable?").
pub fn unit_f64(seed: u64, stream: &[u64]) -> f64 {
    // 53 random mantissa bits.
    (derive_seed(seed, stream) >> 11) as f64 / (1u64 << 53) as f64
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
    fn streams_are_independent() {
        assert_ne!(derive_seed(42, &[1]), derive_seed(42, &[2]));
        assert_ne!(derive_seed(42, &[1, 2]), derive_seed(42, &[2, 1]));
        assert_ne!(derive_seed(1, &[5]), derive_seed(2, &[5]));
    }

    #[test]
    fn unit_f64_in_range_and_spread() {
        let mut lo = 0usize;
        for i in 0..1000u64 {
            let v = unit_f64(9, &[i]);
            assert!((0.0..1.0).contains(&v));
            if v < 0.5 {
                lo += 1;
            }
        }
        // Crude uniformity check: roughly half below 0.5.
        assert!((300..700).contains(&lo), "lo = {lo}");
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
