//! Property tests for log2 histogram bucketing.

use netclust_obs::{bucket_bounds, bucket_index, Obs, BUCKETS};
use proptest::prelude::*;

proptest! {
    /// Bucketing round-trips: a value lands in a bucket whose inclusive
    /// bounds contain it, i.e. `bucket_lo(v) <= v < bucket_hi(v) + 1`.
    #[test]
    fn bucket_round_trips(v in any::<u64>()) {
        let idx = bucket_index(v);
        prop_assert!(idx < BUCKETS);
        let (lo, hi) = bucket_bounds(idx);
        prop_assert!(lo <= v, "lo {lo} > v {v}");
        prop_assert!(v <= hi, "v {v} > hi {hi}");
        // The bounds themselves map back to the same bucket.
        prop_assert_eq!(bucket_index(lo), idx);
        prop_assert_eq!(bucket_index(hi), idx);
    }

    /// Buckets tile the u64 range with no gaps or overlaps: each bucket's
    /// `hi + 1` is the next bucket's `lo`.
    #[test]
    fn buckets_are_contiguous(idx in 0usize..BUCKETS - 1) {
        let (_, hi) = bucket_bounds(idx);
        let (next_lo, next_hi) = bucket_bounds(idx + 1);
        prop_assert_eq!(hi + 1, next_lo);
        prop_assert!(next_hi >= next_lo);
    }

    /// Recording through the public handle lands the observation in the
    /// snapshot bucket that `bucket_bounds` predicts, and a deterministic
    /// snapshot folds it into its power of two.
    #[test]
    fn recorded_value_lands_in_predicted_bucket(v in any::<u64>()) {
        let obs = Obs::enabled();
        obs.histogram("h").record(v);
        let snap = obs.snapshot(false);
        let h = snap.histograms.get("h").expect("histogram present");
        prop_assert_eq!(h.count, 1);
        prop_assert_eq!(h.sum, v);
        let (lo, hi) = bucket_bounds(bucket_index(v));
        prop_assert_eq!(h.buckets.as_slice(), &[(lo, hi, 1)]);
        let folded = obs.snapshot(true);
        let octave = v.checked_ilog2().map_or((0, 0), |k| (1 << k, (1 << k) + ((1 << k) - 1)));
        prop_assert_eq!(folded.histograms["h"].buckets.as_slice(), &[(octave.0, octave.1, 1)]);
    }

    /// Values in one power of two, in different sub-buckets, fold into one
    /// deterministic bucket that counts them all.
    #[test]
    fn a_deterministic_snapshot_sums_a_power_of_two(k in 3u32..63, subs in proptest::collection::vec(0u64..8, 1..20)) {
        let obs = Obs::enabled();
        for &sub in &subs {
            obs.histogram("h").record((1u64 << k) + sub * (1u64 << (k - 3)));
        }
        let folded = obs.snapshot(true);
        let want = [(1u64 << k, (1u64 << k) + ((1u64 << k) - 1), subs.len() as u64)];
        prop_assert_eq!(folded.histograms["h"].buckets.as_slice(), &want);
    }
}
