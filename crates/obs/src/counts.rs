//! The shared error-accounting shape.
//!
//! `IngestReport`, `SwapReport` and `ParseReport` all answer the same two
//! questions — how many records were seen, how many were malformed — but
//! before this type existed each carried its own ad-hoc fields and the CLI
//! printed three different shapes. `ErrorCounts` lives here (rather than in
//! `netclust-core`) because `netclust-rtable` is a dependency of core and
//! needs the type too; both crates re-export it from their roots.

/// Records seen vs records rejected, for any parsing/ingest stage.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ErrorCounts {
    /// Total records inspected (well-formed and malformed alike).
    pub records: u64,
    /// Records rejected as malformed/quarantined.
    pub malformed: u64,
}

impl ErrorCounts {
    /// A count with `records` seen and `malformed` rejected.
    pub fn new(records: u64, malformed: u64) -> Self {
        Self { records, malformed }
    }

    /// Fraction of records that were malformed; `0.0` when nothing was seen.
    pub fn ratio(&self) -> f64 {
        if self.records == 0 {
            0.0
        } else {
            self.malformed as f64 / self.records as f64
        }
    }

    /// True when no record was rejected.
    pub fn is_clean(&self) -> bool {
        self.malformed == 0
    }

    /// Fold another stage's counts into this one.
    pub fn merge(&mut self, other: ErrorCounts) {
        self.records = self.records.saturating_add(other.records);
        self.malformed = self.malformed.saturating_add(other.malformed);
    }
}

impl std::fmt::Display for ErrorCounts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} malformed / {} records ({:.4}%)",
            self.malformed,
            self.records,
            self.ratio() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_handles_empty() {
        assert_eq!(ErrorCounts::default().ratio(), 0.0);
        assert!(ErrorCounts::default().is_clean());
    }

    #[test]
    fn merge_accumulates() {
        let mut a = ErrorCounts::new(10, 1);
        a.merge(ErrorCounts::new(5, 2));
        assert_eq!(a, ErrorCounts::new(15, 3));
        assert!(!a.is_clean());
        assert!((a.ratio() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn display_is_stable() {
        let c = ErrorCounts::new(200, 1);
        assert_eq!(c.to_string(), "1 malformed / 200 records (0.5000%)");
    }
}
