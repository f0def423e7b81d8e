//! Stateless seed derivation: one SplitMix64 mixer shared by every seeded
//! draw in the workspace — the synthetic Internet's streams and the fault
//! injector's per-site decisions alike — so a seed means the same thing
//! everywhere.

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

/// A uniform `f64` in `[0, 1)` derived statelessly from a stream — for
/// one-shot probabilistic decisions (e.g. "is this host resolvable?").
pub fn unit_f64(seed: u64, stream: &[u64]) -> f64 {
    // 53 random mantissa bits.
    (derive_seed(seed, stream) >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
