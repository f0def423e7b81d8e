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
//! proxy heuristic of §4.1.2). The one parser is [`clf_bytes`];
//! [`from_clf`] builds a [`Log`] from its records.

use std::collections::HashMap;
use std::fmt::Write as _;

use crate::clf_bytes::{self, RawRecord};
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

/// Serializes one request as a combined-format CLF line.
fn format_line(log: &Log, req: &Request) -> String {
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

/// Parses a CLF document into a [`Log`]. URLs and User-Agents are interned
/// in order of first appearance; requests are sorted by time (ties keep
/// input order). Returns the log and the (0-based) line numbers that
/// failed to parse — real logs contain noise, and the paper's pipeline
/// runs unattended. The per-line scan is [`clf_bytes::records`], so the
/// bytes need not be UTF-8: paths and User-Agents are decoded lossily
/// when they are interned. `Request::time` is a `u32` offset from the
/// first request, so a request more than `u32::MAX` seconds (~136 years)
/// after it is clamped to that offset.
// Waived in tests/source_contracts.rs (`pub-fn-caller`): the `Log` route
// that crates/core/tests/ingest_par.rs holds every pipeline to.
pub fn from_clf(name: &str, data: &[u8]) -> (Log, Vec<ClfError>) {
    let mut parsed: Vec<RawRecord<'_>> = Vec::new();
    let mut errors = Vec::new();
    for item in clf_bytes::records(data, 0) {
        match item {
            Ok((_, r)) => parsed.push(r),
            Err(e) => errors.push(e),
        }
    }
    parsed.sort_by_key(|p| p.epoch);
    let start_time = parsed.first().map(|p| p.epoch).unwrap_or(0);
    let end = parsed.last().map(|p| p.epoch).unwrap_or(0);

    let mut urls: Vec<UrlMeta> = Vec::new();
    let mut url_index: HashMap<&[u8], u32> = HashMap::new();
    let mut uas: Vec<String> = Vec::new();
    let mut ua_index: HashMap<&[u8], u32> = HashMap::new();
    let mut requests = Vec::with_capacity(parsed.len());
    for p in &parsed {
        #[allow(
            clippy::cast_possible_truncation,
            reason = "Request.url is u32 by format; 2^32 distinct URLs cannot be interned from an addressable log."
        )]
        let url = *url_index.entry(p.path).or_insert_with(|| {
            urls.push(UrlMeta {
                path: String::from_utf8_lossy(p.path).into_owned(),
                size: p.bytes,
            });
            (urls.len() - 1) as u32
        });
        // Track the largest observed size as the canonical resource size.
        if let Some(meta) = urls.get_mut(url as usize) {
            if p.bytes > meta.size {
                meta.size = p.bytes;
            }
        }
        #[allow(
            clippy::cast_possible_truncation,
            reason = "Request.ua is u32 by format, as Request.url is: the same bound."
        )]
        let ua = *ua_index.entry(p.ua).or_insert_with(|| {
            uas.push(String::from_utf8_lossy(p.ua).into_owned());
            (uas.len() - 1) as u32
        });
        requests.push(Request {
            time: u32::try_from(p.epoch - start_time).unwrap_or(u32::MAX),
            client: p.addr,
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
        duration_s: u32::try_from(end - start_time).unwrap_or(u32::MAX),
        truth: LogTruth::default(),
    };
    (log, errors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::UaId;
    use std::net::Ipv4Addr;

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
        let (parsed, errs) = from_clf("t", line.as_bytes());
        assert!(errs.is_empty());
        assert_eq!(parsed.requests.len(), 1);
        let r = parsed.requests[0];
        assert_eq!(r.client_addr().to_string(), "12.65.147.94");
        assert_eq!(r.bytes, 5120);
        assert_eq!(r.status, 200);
        assert_eq!(parsed.start_time, 887_328_005);
        assert_eq!(parsed.urls[r.url as usize].path, "/a.html");
        assert_eq!(
            parsed.user_agents[r.ua as usize],
            "Mozilla/4.0 (X11; Linux)"
        );
    }

    #[test]
    fn plain_clf_without_ua_parses() {
        let text = b"1.2.3.4 - - [13/Feb/1998:07:00:00 +0000] \"GET /x HTTP/1.0\" 200 100\n\
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
        let text = b"garbage\n\
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
        let text = b"1.2.3.4 - - [13/Feb/1998:08:00:00 +0000] \"GET /b HTTP/1.0\" 200 2\n\
                    1.2.3.4 - - [13/Feb/1998:07:00:00 +0000] \"GET /a HTTP/1.0\" 200 1\n";
        let (log, errs) = from_clf("ooo", text);
        assert!(errs.is_empty());
        assert_eq!(log.requests[0].bytes, 1);
        assert_eq!(log.requests[1].time, 3600);
        assert_eq!(log.duration_s, 3600);
        assert!(log.check().is_ok());
    }

    #[test]
    fn offsets_past_u32_clamp_instead_of_wrapping() {
        let text = b"1.2.3.4 - - [31/Dec/9999:00:00:00 +0000] \"GET /b HTTP/1.0\" 200 2\n\
                    1.2.3.4 - - [13/Feb/1998:07:00:00 +0000] \"GET /a HTTP/1.0\" 200 1\n\
                    1.2.3.4 - - [13/Feb/2100:07:00:00 +0000] \"GET /a HTTP/1.0\" 200 1\n";
        let (log, errs) = from_clf("far", text);
        assert!(errs.is_empty());
        let times: Vec<u32> = log.requests.iter().map(|r| r.time).collect();
        assert_eq!(times, [0, 3_218_832_000, u32::MAX]);
        assert_eq!(log.duration_s, u32::MAX);
        assert!(log.check().is_ok());
    }

    #[test]
    fn whole_log_roundtrip() {
        let text = b"1.2.3.4 - - [13/Feb/1998:07:00:00 +0000] \"GET /a HTTP/1.0\" 200 10 \"-\" \"UA-1\"\n\
                    5.6.7.8 - - [13/Feb/1998:07:30:00 +0000] \"GET /b HTTP/1.0\" 200 20 \"-\" \"UA-2\"\n";
        let (log, _) = from_clf("rt", text);
        let emitted = to_clf(&log);
        let (log2, errs2) = from_clf("rt", emitted.as_bytes());
        assert!(errs2.is_empty());
        assert_eq!(log.requests, log2.requests);
    }

    /// Interning takes first-appearance order after the time sort, keeps
    /// the largest size seen per path, and decodes non-UTF-8 bytes
    /// lossily instead of rejecting the line.
    #[test]
    fn interning_order_sizes_and_lossy_bytes() {
        let text = b"1.2.3.4 - - [13/Feb/1998:08:00:00 +0000] \"GET /b HTTP/1.0\" 200 2 \"-\" \"UA-1\"\n\
                    1.2.3.4 - - [13/Feb/1998:07:00:00 +0000] \"GET /a HTTP/1.0\" 304 -\n\
                    bogus line\n\
                    5.6.7.8 - - [13/Feb/1998:07:30:00 +0000] \"GET /b HTTP/1.0\" 200 20 \"-\" \"UA-\xff\"\n";
        let (log, errs) = from_clf("t", text);
        // Sorted: 07:00 /a, 07:30 /b, 08:00 /b.
        assert_eq!(
            errs,
            [ClfError {
                line: 2,
                kind: ClfErrorKind::BadClientAddress
            }]
        );
        let paths: Vec<(&str, u32)> = log.urls.iter().map(|u| (&*u.path, u.size)).collect();
        assert_eq!(paths, [("/a", 0), ("/b", 20)]);
        assert_eq!(log.user_agents, ["-", "UA-\u{FFFD}", "UA-1"]);
        let uas: Vec<u32> = log.requests.iter().map(|r| r.ua).collect();
        assert_eq!(uas, [0, 1, 2]);
        assert_eq!((log.start_time, log.duration_s), (887_353_200, 3600));
        assert!(log.check().is_ok());
    }

    /// More distinct User-Agents than a 16-bit id holds (a large real log
    /// has them): each keeps an id of its own.
    #[test]
    fn seventy_thousand_user_agents_keep_distinct_ids() {
        const N: usize = 70_000;
        let mut text = String::new();
        for i in 0..N {
            let _ = writeln!(
                text,
                "1.2.3.4 - - [13/Feb/1998:07:00:00 +0000] \"GET /x HTTP/1.0\" 200 1 \"-\" \"ua-{i}\""
            );
        }
        let (log, errs) = from_clf("uas", text.as_bytes());
        assert!(errs.is_empty());
        assert_eq!(log.user_agents.len(), N);
        assert!(log.check().is_ok());
        let ids: std::collections::BTreeSet<UaId> = log.requests.iter().map(|r| r.ua).collect();
        assert_eq!(ids.len(), N);
        // Equal times keep input order, so request i is line i.
        for (i, r) in log.requests.iter().enumerate() {
            assert_eq!(log.user_agents[r.ua as usize], format!("ua-{i}"));
        }
    }
}
