//! Dependency-free FxHash-style hasher for the hot aggregation maps.
//!
//! The clustering and ingest paths hash millions of small keys — `u32`
//! client addresses and short path slices. `std`'s default SipHash is
//! DoS-resistant but pays for it per call; these maps hold transient
//! per-run aggregates keyed by data we are about to sort anyway, so the
//! classic rotate-xor-multiply scheme (rustc's `FxHasher`) is the right
//! trade. Vendored because the build environment is offline.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use std::collections::HashMap;
#[cfg(test)]
use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier from the Firefox/rustc Fx hash: a 64-bit odd constant with
/// well-mixed bits (derived from the golden ratio).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Rotate-xor-multiply hasher over input words.
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let (chunks, rem) = bytes.as_chunks::<8>();
        for c in chunks {
            self.add(u64::from_le_bytes(*c));
        }
        if !rem.is_empty() {
            let mut tail = [0u8; 8];
            #[allow(clippy::indexing_slicing, reason = "rem is shorter than one 8-byte chunk.")]
            tail[..rem.len()].copy_from_slice(rem);
            // Fold the length in so "a" and "a\0" keys differ.
            self.add(u64::from_le_bytes(tail) ^ (rem.len() as u64) << 56);
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    /// hashbrown picks the bucket from the low bits and the control byte
    /// from the top seven; the low *k* bits of a product depend only on the
    /// low *k* bits of the word, so the raw hash would send addresses that
    /// differ only in their high bits down one probe chain. The rotation
    /// (rustc-hash 2's) puts the product's well-mixed high bits there.
    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

/// `HashMap` with the Fx hasher.
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// `HashSet` with the Fx hasher.
#[cfg(test)]
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_round_trips() {
        let mut m: FxHashMap<u32, u64> = FxHashMap::default();
        for i in 0..10_000u32 {
            m.insert(i.wrapping_mul(0x9E37_79B9), i as u64);
        }
        assert_eq!(m.len(), 10_000);
        for i in 0..10_000u32 {
            assert_eq!(m.get(&i.wrapping_mul(0x9E37_79B9)), Some(&(i as u64)));
        }
    }

    #[test]
    fn slice_keys_distinguish_length() {
        let mut s: FxHashSet<&[u8]> = FxHashSet::default();
        assert!(s.insert(b"a".as_slice()));
        assert!(s.insert(b"a\0".as_slice()));
        assert!(s.insert(b"".as_slice()));
        assert!(!s.insert(b"a".as_slice()));
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn hashes_spread() {
        // Not a statistical test — just catch a hash that leaves the bits
        // the table uses (low: bucket, top 7: control byte) unmixed for
        // keys that differ only in their high bits, as client addresses
        // under one /16-aligned stride do.
        let (mut buckets, mut tags) = (FxHashSet::default(), FxHashSet::default());
        for i in 0..4096u32 {
            let mut h = FxHasher::default();
            h.write_u32(i << 16);
            buckets.insert(h.finish() & 0xFFF);
            tags.insert(h.finish() >> 57);
        }
        assert!(buckets.len() > 2048, "{} of 4096 buckets", buckets.len());
        assert!(tags.len() > 96, "{} of 128 control bytes", tags.len());
    }
}
