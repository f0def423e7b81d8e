//! The harness's arithmetic: medians, the percentile picker, run-to-run
//! spread, and the watermark matching behind freshness and reload
//! visibility.

/// Median of `values` (mean of the middle pair for an even count).
/// `NaN` when empty, so a phase that produced no sample is visible.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0–100) of an ascending slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of 99.9 / 99 / 95 / 90 / 75 that still has at least ten
/// samples beyond it, or `None` when even the 75th has not.
pub fn highest_supported_percentile(samples: usize) -> Option<f64> {
    // Per mille, so that 100 samples beyond the 90th is exactly ten.
    [999usize, 990, 950, 900, 750]
        .into_iter()
        .find(|per_mille| samples * (1000 - per_mille) >= 10 * 1000)
        .map(|per_mille| per_mille as f64 / 10.0)
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method), so the spread printed here is the one the
/// driver computes.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1), at(2), at(3)))
}

/// Distance between the first and third quartile as a share of the median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q2, q3) = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// One reading of a monotone counter: when the reply was read, and the
/// value it carried.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Watermark {
    pub at_s: f64,
    pub value: u64,
}

/// For each event `(time, needed value)`: the delay until the first
/// watermark read at or after `time` whose value covers `needed`. Events
/// no watermark ever covers are counted, not timed. Both inputs ascend in
/// time and `needed` ascends too, so one forward scan pairs them.
pub fn match_watermarks(events: &[(f64, u64)], marks: &[Watermark]) -> (Vec<f64>, usize) {
    let mut delays = Vec::with_capacity(events.len());
    let mut uncovered = 0;
    let mut j = 0;
    for &(at, needed) in events {
        while j < marks.len() && (marks[j].at_s < at || marks[j].value < needed) {
            j += 1;
        }
        match marks.get(j) {
            Some(m) => delays.push(m.at_s - at),
            None => uncovered += 1,
        }
    }
    (delays, uncovered)
}

/// Open-loop pacing: request `i` of a `rate`-per-second schedule is due at
/// `i / rate`; lateness is how long after that the generator sent it.
pub struct Schedule {
    pub rate: f64,
    pub late_s: Vec<f64>,
}

impl Schedule {
    pub fn new(rate: f64) -> Self {
        Schedule {
            rate,
            late_s: Vec::new(),
        }
    }

    pub fn due_s(&self, i: u64) -> f64 {
        i as f64 / self.rate
    }

    /// Records that request `i` left at `sent_s`; never negative, since a
    /// request is not sent before it is due.
    pub fn sent(&mut self, i: u64, sent_s: f64) {
        self.late_s.push((sent_s - self.due_s(i)).max(0.0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentile_picker_wants_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(39), None);
        assert_eq!(highest_supported_percentile(40), Some(75.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(95.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(9_999), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50.0);
        assert_eq!(percentile_sorted(&v, 99.0), 99.0);
        assert_eq!(percentile_sorted(&v, 100.0), 100.0);
        assert_eq!(percentile_sorted(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn quartiles_agree_with_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        assert_eq!(spread(&v), Some(1.0));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), Some((10.0, 20.0, 40.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn watermarks_pair_with_the_first_reading_that_covers_them() {
        let marks = [
            Watermark {
                at_s: 1.0,
                value: 100,
            },
            Watermark {
                at_s: 2.0,
                value: 100,
            },
            Watermark {
                at_s: 3.0,
                value: 150,
            },
            Watermark {
                at_s: 4.0,
                value: 200,
            },
        ];
        // Appended at 0.5 → covered by the reading at 1.0; the append at
        // 1.5 needs 150, first seen at 3.0; 2.5 → 200 at 4.0; 250 never.
        let events = [(0.5, 100), (1.5, 150), (2.5, 200), (3.5, 250)];
        let (delays, uncovered) = match_watermarks(&events, &marks);
        assert_eq!(delays, vec![0.5, 1.5, 1.5]);
        assert_eq!(uncovered, 1);
        // A reading taken before the event never counts, even if its
        // value already covers it.
        let (delays, _) = match_watermarks(&[(1.2, 100)], &marks);
        assert_eq!(delays, vec![2.0 - 1.2]);
    }

    #[test]
    fn schedule_lateness_is_measured_from_the_due_time() {
        let mut s = Schedule::new(2_000.0);
        assert_eq!(s.due_s(4_000), 2.0);
        s.sent(0, 0.0);
        s.sent(2, 0.0015);
        s.sent(4, 0.0019); // early relative to rounding: clamps to zero
        assert_eq!(s.late_s[0], 0.0);
        assert!((s.late_s[1] - 0.0005).abs() < 1e-12);
        assert_eq!(s.late_s[2], 0.0);
    }
}
