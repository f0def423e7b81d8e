//! Common Log Format (CLF) serialization and parsing.
//!
//! The paper's pipeline starts from ordinary Web server logs; this module
//! lets `netclust` both emit its synthetic logs in the standard Apache
//! format and ingest real ones:
//!
//! ```text
//! 12.65.147.94 - - [13/Feb/1998:07:21:35 +0000] "GET /a.html HTTP/1.0" 200 5120 "-" "Mozilla/4.0"
//! ```
//!
//! The trailing referer/User-Agent fields ("combined" format) are optional
//! on input and always emitted on output (the User-Agent feeds the paper's
//! proxy heuristic of §4.1.2).

use std::fmt::Write as _;
use std::net::Ipv4Addr;

use crate::record::{Log, LogTruth, Request, UrlMeta};

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
    EmptyRequestLine,
    RequestLineLacksPath,
    MissingStatus,
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
            ClfErrorKind::EmptyRequestLine => "empty request line",
            ClfErrorKind::RequestLineLacksPath => "request line lacks path",
            ClfErrorKind::MissingStatus => "missing status",
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

/// Days since the Unix epoch for a civil date (Howard Hinnant's algorithm).
#[deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]
pub(crate) fn days_from_civil(y: i64, m: u32, d: u32) -> i64 {
    let y = if m <= 2 { y - 1 } else { y };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = (y - era * 400) as u64;
    let mp = (m + 9) % 12;
    let doy = (153 * mp + 2) / 5 + d - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy as u64;
    era * 146_097 + doe as i64 - 719_468
}

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

/// Parses a CLF date (the part between brackets) to Unix epoch seconds.
/// Only `+0000` offsets are accepted (the generator always emits UTC).
pub fn parse_clf_time(s: &str) -> Option<u64> {
    // dd/Mon/yyyy:HH:MM:SS +0000
    let (date, rest) = s.split_once(':')?;
    let mut dmy = date.split('/');
    let d: u32 = dmy.next()?.parse().ok()?;
    let mon = dmy.next()?;
    let y: i64 = dmy.next()?.parse().ok()?;
    let m = u32::try_from(MONTHS.iter().position(|&x| x == mon)?).ok()? + 1;
    let (time, zone) = rest.split_once(' ')?;
    if zone != "+0000" {
        return None;
    }
    let mut hms = time.split(':');
    let h: u64 = hms.next()?.parse().ok()?;
    let mi: u64 = hms.next()?.parse().ok()?;
    let sec: u64 = hms.next()?.parse().ok()?;
    if d == 0 || d > 31 || h > 23 || mi > 59 || sec > 60 {
        return None;
    }
    let days = days_from_civil(y, m, d);
    u64::try_from(days * 86_400 + (h * 3600 + mi * 60 + sec) as i64).ok()
}

/// Serializes one request as a combined-format CLF line.
pub fn format_line(log: &Log, req: &Request) -> String {
    let mut out = String::with_capacity(96);
    let _ = write!(
        out,
        "{} - - [{}] \"GET {} HTTP/1.0\" {} {} \"-\" \"{}\"",
        req.client_addr(),
        format_clf_time(log.start_time + req.time as u64),
        log.urls[req.url as usize].path,
        req.status,
        req.bytes,
        log.user_agents[req.ua as usize],
    );
    out
}

/// Serializes a whole log to CLF, one line per request.
pub fn to_clf(log: &Log) -> String {
    let mut out = String::with_capacity(log.requests.len() * 96);
    for req in &log.requests {
        out.push_str(&format_line(log, req));
        out.push('\n');
    }
    out
}

/// One parsed CLF line before interning.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ParsedLine {
    addr: Ipv4Addr,
    epoch: u64,
    path: String,
    status: u16,
    bytes: u32,
    ua: String,
}

fn parse_line(line: &str, lineno: usize) -> Result<ParsedLine, ClfError> {
    let err = |kind: ClfErrorKind| ClfError { line: lineno, kind };
    let mut rest = line.trim();
    let sp = rest
        .find(' ')
        .ok_or_else(|| err(ClfErrorKind::MissingFields))?;
    let addr: Ipv4Addr = rest[..sp]
        .parse()
        .map_err(|_| err(ClfErrorKind::BadClientAddress))?;
    rest = &rest[sp + 1..];
    let open = rest
        .find('[')
        .ok_or_else(|| err(ClfErrorKind::MissingTimestamp))?;
    // The close bracket is searched *after* the open one, so a stray `]`
    // earlier on the line cannot invert the slice.
    let close = rest[open + 1..]
        .find(']')
        .map(|i| i + open + 1)
        .ok_or_else(|| err(ClfErrorKind::MissingTimestampClose))?;
    let epoch =
        parse_clf_time(&rest[open + 1..close]).ok_or_else(|| err(ClfErrorKind::BadTimestamp))?;
    rest = rest[close + 1..].trim_start();
    if !rest.starts_with('"') {
        return Err(err(ClfErrorKind::MissingRequestLine));
    }
    let req_end = rest[1..]
        .find('"')
        .ok_or_else(|| err(ClfErrorKind::UnterminatedRequestLine))?
        + 1;
    let request_line = &rest[1..req_end];
    let mut parts = request_line.split(' ');
    let _method = parts
        .next()
        .ok_or_else(|| err(ClfErrorKind::EmptyRequestLine))?;
    let path = parts
        .next()
        .ok_or_else(|| err(ClfErrorKind::RequestLineLacksPath))?
        .to_string();
    rest = rest[req_end + 1..].trim_start();
    let mut fields = rest.split(' ');
    let status: u16 = fields
        .next()
        .ok_or_else(|| err(ClfErrorKind::MissingStatus))?
        .parse()
        .map_err(|_| err(ClfErrorKind::BadStatus))?;
    let bytes_str = fields
        .next()
        .ok_or_else(|| err(ClfErrorKind::MissingBytes))?;
    let bytes: u32 = if bytes_str == "-" {
        0
    } else {
        bytes_str.parse().map_err(|_| err(ClfErrorKind::BadBytes))?
    };
    // Optional combined-format tail: "referer" "user-agent".
    let tail = fields.collect::<Vec<_>>().join(" ");
    let ua = tail.rsplit('"').nth(1).unwrap_or("-").to_string();
    Ok(ParsedLine {
        addr,
        epoch,
        path,
        status,
        bytes,
        ua,
    })
}

/// Parses a CLF document into a [`Log`]. URLs and User-Agents are interned;
/// requests are sorted by time. Returns the log and the (0-based) line
/// numbers that failed to parse — real logs contain noise, and the paper's
/// pipeline runs unattended.
pub fn from_clf(name: &str, text: &str) -> (Log, Vec<ClfError>) {
    use std::collections::HashMap;
    let mut urls: Vec<UrlMeta> = Vec::new();
    let mut url_index: HashMap<String, u32> = HashMap::new();
    let mut uas: Vec<String> = Vec::new();
    let mut ua_index: HashMap<String, u16> = HashMap::new();
    let mut parsed: Vec<ParsedLine> = Vec::new();
    let mut errors = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match parse_line(line, i) {
            Ok(p) => parsed.push(p),
            Err(e) => errors.push(e),
        }
    }
    parsed.sort_by_key(|p| p.epoch);
    let start_time = parsed.first().map(|p| p.epoch).unwrap_or(0);
    let end = parsed.last().map(|p| p.epoch).unwrap_or(0);
    let mut requests = Vec::with_capacity(parsed.len());
    for p in parsed {
        #[allow(
            clippy::cast_possible_truncation,
            reason = "Request.url is u32 by format; 2^32 distinct URLs cannot be interned from an addressable log."
        )]
        let url = *url_index.entry(p.path.clone()).or_insert_with(|| {
            urls.push(UrlMeta {
                path: p.path.clone(),
                size: p.bytes,
            });
            (urls.len() - 1) as u32
        });
        // Track the largest observed size as the canonical resource size.
        if p.bytes > urls[url as usize].size {
            urls[url as usize].size = p.bytes;
        }
        #[allow(
            clippy::cast_possible_truncation,
            reason = "Request.ua is u16 by format, matching the byte parser's interner."
        )]
        let ua = *ua_index.entry(p.ua.clone()).or_insert_with(|| {
            uas.push(p.ua.clone());
            (uas.len() - 1) as u16
        });
        requests.push(Request {
            #[allow(clippy::cast_possible_truncation, reason = "time is an offset from the log's own start; Request.time is u32 by format.")]
            time: (p.epoch - start_time) as u32,
            client: u32::from(p.addr),
            url,
            bytes: p.bytes,
            status: p.status,
            ua,
        });
    }
    let log = Log {
        name: name.to_string(),
        requests,
        urls,
        user_agents: if uas.is_empty() {
            vec!["-".to_string()]
        } else {
            uas
        },
        start_time,
        #[allow(
            clippy::cast_possible_truncation,
            reason = "log span in seconds; Log.duration_s is u32 by format (~136 years)."
        )]
        duration_s: (end - start_time) as u32,
        truth: LogTruth::default(),
    };
    (log, errors)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_roundtrip() {
        // 13/Feb/1998 00:00:00 UTC = 887328000.
        assert_eq!(format_clf_time(887_328_000), "13/Feb/1998:00:00:00 +0000");
        assert_eq!(
            parse_clf_time("13/Feb/1998:00:00:00 +0000"),
            Some(887_328_000)
        );
        for &t in &[0u64, 887_328_000, 1_000_000_000, 4_102_444_799] {
            assert_eq!(parse_clf_time(&format_clf_time(t)), Some(t), "t = {t}");
        }
    }

    #[test]
    fn time_rejects_garbage() {
        assert_eq!(parse_clf_time("13/Feb/1998:00:00:00 +0100"), None);
        assert_eq!(parse_clf_time("32/Feb/1998:00:00:00 +0000"), None);
        assert_eq!(parse_clf_time("13/Xxx/1998:00:00:00 +0000"), None);
        assert_eq!(parse_clf_time("nonsense"), None);
    }

    #[test]
    fn line_roundtrip() {
        let log = Log {
            name: "t".into(),
            requests: vec![Request {
                time: 5,
                client: u32::from(Ipv4Addr::new(12, 65, 147, 94)),
                url: 0,
                bytes: 5120,
                status: 200,
                ua: 0,
            }],
            urls: vec![UrlMeta {
                path: "/a.html".into(),
                size: 5120,
            }],
            user_agents: vec!["Mozilla/4.0 (X11; Linux)".into()],
            start_time: 887_328_000,
            duration_s: 10,
            truth: LogTruth::default(),
        };
        let line = format_line(&log, &log.requests[0]);
        assert_eq!(
            line,
            "12.65.147.94 - - [13/Feb/1998:00:00:05 +0000] \"GET /a.html HTTP/1.0\" 200 5120 \"-\" \"Mozilla/4.0 (X11; Linux)\""
        );
        let (parsed, errs) = from_clf("t", &line);
        assert!(errs.is_empty());
        assert_eq!(parsed.requests.len(), 1);
        let r = parsed.requests[0];
        assert_eq!(r.client_addr().to_string(), "12.65.147.94");
        assert_eq!(r.bytes, 5120);
        assert_eq!(r.status, 200);
        assert_eq!(parsed.urls[r.url as usize].path, "/a.html");
        assert_eq!(
            parsed.user_agents[r.ua as usize],
            "Mozilla/4.0 (X11; Linux)"
        );
    }

    #[test]
    fn plain_clf_without_ua_parses() {
        let text = "1.2.3.4 - - [13/Feb/1998:07:00:00 +0000] \"GET /x HTTP/1.0\" 200 100\n\
                    1.2.3.5 - - [13/Feb/1998:07:00:01 +0000] \"GET /x HTTP/1.0\" 304 -\n";
        let (log, errs) = from_clf("plain", text);
        assert!(errs.is_empty(), "{errs:?}");
        assert_eq!(log.requests.len(), 2);
        assert_eq!(log.requests[1].bytes, 0);
        assert_eq!(log.requests[1].status, 304);
        assert_eq!(log.user_agents[log.requests[0].ua as usize], "-");
        assert!(log.check().is_ok());
    }

    #[test]
    fn noise_is_reported_not_fatal() {
        let text = "garbage\n\
                    1.2.3.4 - - [13/Feb/1998:07:00:00 +0000] \"GET /x HTTP/1.0\" 200 100\n\
                    999.1.1.1 - - [13/Feb/1998:07:00:00 +0000] \"GET /x HTTP/1.0\" 200 100\n";
        let (log, errs) = from_clf("noisy", text);
        assert_eq!(log.requests.len(), 1);
        assert_eq!(errs.len(), 2);
        assert_eq!(errs[0].line, 0);
        assert_eq!(errs[1].line, 2);
    }

    #[test]
    fn out_of_order_lines_are_sorted() {
        let text = "1.2.3.4 - - [13/Feb/1998:08:00:00 +0000] \"GET /b HTTP/1.0\" 200 2\n\
                    1.2.3.4 - - [13/Feb/1998:07:00:00 +0000] \"GET /a HTTP/1.0\" 200 1\n";
        let (log, errs) = from_clf("ooo", text);
        assert!(errs.is_empty());
        assert_eq!(log.requests[0].bytes, 1);
        assert_eq!(log.requests[1].time, 3600);
        assert_eq!(log.duration_s, 3600);
        assert!(log.check().is_ok());
    }

    #[test]
    fn whole_log_roundtrip() {
        let text = "1.2.3.4 - - [13/Feb/1998:07:00:00 +0000] \"GET /a HTTP/1.0\" 200 10 \"-\" \"UA-1\"\n\
                    5.6.7.8 - - [13/Feb/1998:07:30:00 +0000] \"GET /b HTTP/1.0\" 200 20 \"-\" \"UA-2\"\n";
        let (log, _) = from_clf("rt", text);
        let emitted = to_clf(&log);
        let (log2, errs2) = from_clf("rt", &emitted);
        assert!(errs2.is_empty());
        assert_eq!(log.requests, log2.requests);
    }
}
