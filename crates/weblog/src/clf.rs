//! Common Log Format (CLF) vocabulary shared by the parser and the log
//! writers: the typed parse error every malformed line gets, and the CLF
//! date format.
//!
//! ```text
//! 12.65.147.94 - - [13/Feb/1998:07:21:35 +0000] "GET /a.html HTTP/1.0" 200 5120 "-" "Mozilla/4.0"
//! ```
//!
//! The one parser is [`clf_bytes`](crate::clf_bytes). The synthetic log's
//! writer and its in-memory reader live beside the generator, in
//! `netclust-netgen`.

pub(crate) const MONTHS: [&str; 12] = [
    "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
];

/// What went wrong on a CLF line. Carrying a `Copy` enum instead of a
/// `String` keeps the error path allocation-free: real logs contain noise
/// on the hot ingest path, and every malformed line is reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs, reason = "the variants are their Display messages.")]
pub enum ClfErrorKind {
    MissingFields,
    BadClientAddress,
    MissingTimestamp,
    MissingTimestampClose,
    BadTimestamp,
    MissingRequestLine,
    UnterminatedRequestLine,
    RequestLineLacksPath,
    BadStatus,
    MissingBytes,
    BadBytes,
}

impl ClfErrorKind {
    /// The human-readable reason (the former `ClfError::reason` text).
    pub fn message(self) -> &'static str {
        match self {
            ClfErrorKind::MissingFields => "missing fields",
            ClfErrorKind::BadClientAddress => "bad client address",
            ClfErrorKind::MissingTimestamp => "missing timestamp",
            ClfErrorKind::MissingTimestampClose => "missing timestamp close",
            ClfErrorKind::BadTimestamp => "bad timestamp",
            ClfErrorKind::MissingRequestLine => "missing request line",
            ClfErrorKind::UnterminatedRequestLine => "unterminated request line",
            ClfErrorKind::RequestLineLacksPath => "request line lacks path",
            ClfErrorKind::BadStatus => "bad status",
            ClfErrorKind::MissingBytes => "missing bytes",
            ClfErrorKind::BadBytes => "bad bytes",
        }
    }
}

impl std::fmt::Display for ClfErrorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.message())
    }
}

/// Errors produced when parsing CLF lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClfError {
    /// 0-based line number.
    pub line: usize,
    /// What went wrong.
    pub kind: ClfErrorKind,
}

impl ClfError {
    /// The human-readable reason (the former `reason` field text).
    pub fn reason(&self) -> &'static str {
        self.kind.message()
    }
}

impl std::fmt::Display for ClfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CLF parse error on line {}: {}", self.line, self.kind)
    }
}

impl std::error::Error for ClfError {}

/// Civil date from days since the Unix epoch.
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = (z - era * 146_097) as u64;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe as i64 + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    #[allow(
        clippy::cast_possible_truncation,
        reason = "day-of-year arithmetic: doy < 366 and mp < 12, so both results fit u32 (Howard Hinnant's civil algorithm)."
    )]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    #[allow(clippy::cast_possible_truncation, reason = "mp < 12, so m <= 13 fits u32.")]
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (if m <= 2 { y + 1 } else { y }, m, d)
}

/// Formats a Unix timestamp as a CLF date `[13/Feb/1998:07:21:35 +0000]`
/// (without the brackets).
pub fn format_clf_time(epoch: u64) -> String {
    let days = (epoch / 86_400) as i64;
    let secs = epoch % 86_400;
    let (y, m, d) = civil_from_days(days);
    format!(
        "{:02}/{}/{:04}:{:02}:{:02}:{:02} +0000",
        d,
        MONTHS[(m - 1) as usize],
        y,
        secs / 3600,
        (secs / 60) % 60,
        secs % 60
    )
}
