//! Offline shim for the subset of the `rand` crate API that netclust uses.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors a tiny, dependency-free implementation with the same module
//! layout and trait names: [`Rng`] (`gen`, `gen_range`, `gen_bool`),
//! [`SeedableRng`] (`seed_from_u64`), [`rngs::StdRng`], and
//! [`seq::SliceRandom`] (`shuffle`, `choose`).
//!
//! The generator is xoshiro256++ seeded through SplitMix64 — not the
//! ChaCha12 of upstream `StdRng`, so streams differ from upstream, but all
//! netclust results only require *internal* determinism (same seed → same
//! world), which this provides bit-for-bit on every platform.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::ops::{Range, RangeInclusive};

/// A random number generator core: a source of uniform `u64`s.
pub trait RngCore {
    /// The next uniform 64-bit value.
    fn next_u64(&mut self) -> u64;

    /// The next uniform 32-bit value.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// User-facing random value generation, blanket-implemented for every
/// [`RngCore`].
pub trait Rng: RngCore {
    /// A uniform value of type `T` (integers over their full domain,
    /// `f64` in `[0, 1)`, `bool` fair).
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// A uniform value in `range` (half-open or inclusive integer ranges,
    /// half-open float ranges).
    ///
    /// # Panics
    ///
    /// Panics when the range is empty.
    fn gen_range<T: SampleUniform, R2: SampleRange<T>>(&mut self, range: R2) -> T
    where
        Self: Sized,
    {
        range.sample_from(self)
    }

    /// `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!((0.0..=1.0).contains(&p), "gen_bool p out of range: {p}");
        f64::sample(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Construction of reproducible generators from seeds.
pub trait SeedableRng: Sized {
    /// Builds a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types drawable uniformly from their "standard" distribution.
pub trait Standard {
    /// Draws one value.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 random mantissa bits → uniform in [0, 1).
        (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

impl Standard for f32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 / (1u32 << 24) as f32
    }
}

/// Types `gen_range` can produce, with their uniform-sampling logic.
/// Mirrors upstream rand's trait of the same name; the blanket
/// [`SampleRange`] impls below let `Range<T>: SampleRange<?T>` unify
/// structurally, so integer-literal inference works as upstream.
pub trait SampleUniform: PartialOrd + Copy {
    /// A uniform draw from `[lo, hi)`.
    fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self;
    /// A uniform draw from `[lo, hi]`.
    fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self;
}

/// Ranges that can be sampled uniformly, producing values of type `T`.
pub trait SampleRange<T> {
    /// Draws one value from the range.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        assert!(self.start < self.end, "gen_range on empty range");
        T::sample_half_open(rng, self.start, self.end)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "gen_range on empty range");
        T::sample_inclusive(rng, lo, hi)
    }
}

/// Unbiased draw in `0..n` via multiply-shift with rejection.
#[inline]
fn uniform_below<R: RngCore + ?Sized>(rng: &mut R, n: u64) -> u64 {
    debug_assert!(n > 0);
    // Lemire's method: rejection keeps the draw exactly uniform.
    loop {
        let x = rng.next_u64();
        let m = (x as u128) * (n as u128);
        let lo = m as u64;
        if lo >= n {
            return (m >> 64) as u64;
        }
        let threshold = n.wrapping_neg() % n;
        if lo >= threshold {
            return (m >> 64) as u64;
        }
    }
}

macro_rules! impl_sample_uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, lo: $t, hi: $t) -> $t {
                let span = (hi as i128 - lo as i128) as u64;
                (lo as i128 + uniform_below(rng, span) as i128) as $t
            }
            fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, lo: $t, hi: $t) -> $t {
                let span = (hi as i128 - lo as i128) as u128 + 1;
                if span > u64::MAX as u128 {
                    // Full-domain u64/i64 inclusive range.
                    return rng.next_u64() as $t;
                }
                (lo as i128 + uniform_below(rng, span as u64) as i128) as $t
            }
        }
    )*};
}
impl_sample_uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleUniform for f64 {
    fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, lo: f64, hi: f64) -> f64 {
        let v = lo + f64::sample(rng) * (hi - lo);
        // Floating rounding may land exactly on `hi`; fold back inside.
        if v >= hi {
            lo
        } else {
            v
        }
    }
    fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, lo: f64, hi: f64) -> f64 {
        lo + f64::sample(rng) * (hi - lo)
    }
}

/// Generator implementations.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard generator: xoshiro256++ (Blackman/Vigna),
    /// seeded through SplitMix64. Fast, 256-bit state, passes BigCrush.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    #[inline]
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            let s = [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ];
            StdRng { s }
        }
    }

    impl RngCore for StdRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
            let result = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }
}

/// Slice sampling and shuffling.
pub mod seq {
    use super::{Rng, RngCore};

    /// Random operations on slices.
    pub trait SliceRandom {
        /// The element type.
        type Item;

        /// Uniform Fisher–Yates shuffle in place.
        fn shuffle<R: RngCore>(&mut self, rng: &mut R);

        /// A uniformly chosen element, or `None` for an empty slice.
        fn choose<R: RngCore>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: RngCore>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.gen_range(0..=i);
                self.swap(i, j);
            }
        }

        fn choose<R: RngCore>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[rng.gen_range(0..self.len())])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_streams() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
        let mut c = StdRng::seed_from_u64(8);
        assert_ne!(a.gen::<u64>(), c.gen::<u64>());
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let v = rng.gen_range(10u32..20);
            assert!((10..20).contains(&v));
            let w = rng.gen_range(0u8..=32);
            assert!(w <= 32);
            let f = rng.gen_range(0.0f64..1.0);
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn range_covers_all_residues() {
        let mut rng = StdRng::seed_from_u64(2);
        let seen: std::collections::BTreeSet<u32> =
            (0..1000).map(|_| rng.gen_range(0u32..10)).collect();
        assert_eq!(seen.len(), 10);
    }

    #[test]
    fn gen_bool_probability() {
        let mut rng = StdRng::seed_from_u64(3);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((2_200..2_800).contains(&hits), "hits = {hits}");
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut v: Vec<u32> = (0..100).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, (0..100).collect::<Vec<_>>(), "astronomically unlikely");
    }

    #[test]
    fn choose_uniformish() {
        let mut rng = StdRng::seed_from_u64(5);
        let v = [1u32, 2, 3, 4];
        for _ in 0..100 {
            assert!(v.contains(v.choose(&mut rng).unwrap()));
        }
        let empty: [u32; 0] = [];
        assert!(empty.choose(&mut rng).is_none());
    }

    #[test]
    fn float_full_unit_interval_spread() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut lo = 0;
        for _ in 0..10_000 {
            if rng.gen::<f64>() < 0.5 {
                lo += 1;
            }
        }
        assert!((4_500..5_500).contains(&lo), "lo = {lo}");
    }
}
