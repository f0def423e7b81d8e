//! The in-memory server log the generator draws and the studies read:
//! requests, URL metadata and per-log ground truth about embedded
//! anomalies, written to Common Log Format by [`to_clf`] and read back by
//! [`from_clf`]. The product never builds one: it clusters CLF bytes
//! through `netclust_weblog::clf_bytes`, the one parser [`from_clf`] also
//! runs on.
//!
//! ```text
//! 12.65.147.94 - - [13/Feb/1998:07:21:35 +0000] "GET /a.html HTTP/1.0" 200 5120 "-" "Mozilla/4.0"
//! ```
//!
//! The trailing referer/User-Agent fields ("combined" format) are optional
//! on input and always emitted on output (the User-Agent feeds the paper's
//! proxy heuristic of §4.1.2).

use std::collections::{BTreeSet, HashMap};
use std::fmt::Write as _;
use std::net::Ipv4Addr;

use netclust_weblog::clf::{format_clf_time, ClfError};
use netclust_weblog::clf_bytes::{self, RawRecord};

/// Identifier of a URL within a log (index into [`Log::urls`]).
pub type UrlId = u32;

/// Identifier of an interned User-Agent string (index into
/// [`Log::user_agents`]).
pub type UaId = u32;

/// One logged HTTP request.
///
/// Addresses and times are stored compactly (`u32`): a log of tens of
/// millions of requests stays cache-friendly during clustering and cache
/// simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Seconds since the log's `start_time`.
    pub time: u32,
    /// Client IPv4 address, host order.
    pub client: u32,
    /// Requested resource.
    pub url: UrlId,
    /// Response size in bytes.
    pub bytes: u32,
    /// HTTP status code.
    pub status: u16,
    /// Interned User-Agent.
    pub ua: UaId,
}

impl Request {
    /// Client address as [`Ipv4Addr`].
    pub fn client_addr(&self) -> Ipv4Addr {
        Ipv4Addr::from(self.client)
    }
}

/// Metadata of one resource.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UrlMeta {
    /// Request path, e.g. `/results/day3/speed-skating.html`.
    pub path: String,
    /// Canonical response size in bytes.
    pub size: u32,
}

/// Ground truth recorded by the generator about anomalous clients —
/// used to score spider/proxy *detection*, never by the detectors.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LogTruth {
    /// Addresses of generated spider clients.
    pub spiders: Vec<Ipv4Addr>,
    /// Addresses of generated proxy clients.
    pub proxies: Vec<Ipv4Addr>,
}

/// A consistency violation found by [`Log::check`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogError {
    /// `Request::url` indexes past the URL table.
    UrlOutOfRange {
        /// Offending request index.
        request: usize,
        /// The out-of-range URL id.
        url: UrlId,
    },
    /// `Request::ua` indexes past the User-Agent table.
    UaOutOfRange {
        /// Offending request index.
        request: usize,
        /// The out-of-range User-Agent id.
        ua: UaId,
    },
    /// A request time exceeds the log duration.
    TimePastDuration {
        /// Offending request index.
        request: usize,
        /// The out-of-range time offset.
        time: u32,
    },
    /// Request times are not sorted ascending.
    TimesUnsorted {
        /// Index of the first request observed out of order.
        request: usize,
    },
}

impl std::fmt::Display for LogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LogError::UrlOutOfRange { request, url } => {
                write!(f, "request {request}: url {url} out of range")
            }
            LogError::UaOutOfRange { request, ua } => {
                write!(f, "request {request}: ua {ua} out of range")
            }
            LogError::TimePastDuration { request, time } => {
                write!(f, "request {request}: time {time} past duration")
            }
            LogError::TimesUnsorted { request } => {
                write!(f, "request {request}: times not sorted")
            }
        }
    }
}

impl std::error::Error for LogError {}

/// A complete server log.
#[derive(Debug, Clone)]
pub struct Log {
    /// Log name, e.g. `"nagano"`.
    pub name: String,
    /// Requests sorted by `time`.
    pub requests: Vec<Request>,
    /// URL table; `Request::url` indexes it.
    pub urls: Vec<UrlMeta>,
    /// Interned User-Agent strings; `Request::ua` indexes it.
    pub user_agents: Vec<String>,
    /// Unix epoch seconds of the first moment of the log.
    pub start_time: u64,
    /// Total covered duration in seconds.
    pub duration_s: u32,
    /// Generator ground truth (empty for parsed real logs).
    pub truth: LogTruth,
}

impl Log {
    /// A log named `"prop"` of one request per `(client, url, time)`
    /// triple, sorted by time (ties keep their order): URL `u` is `/u`,
    /// 256 of them, and a request of it is `100 + u` bytes, one
    /// User-Agent, `u16::MAX` seconds long. The property tests' log.
    pub fn from_triples(triples: &[(u32, u8, u16)]) -> Log {
        let mut requests: Vec<Request> = (triples.iter())
            .map(|&(client, url, time)| Request {
                time: u32::from(time),
                client,
                url: u32::from(url),
                bytes: 100 + u32::from(url),
                status: 200,
                ua: 0,
            })
            .collect();
        requests.sort_by_key(|r| r.time);
        Log {
            name: "prop".into(),
            requests,
            urls: (0..=255)
                .map(|i| UrlMeta {
                    path: format!("/{i}"),
                    size: 100 + i,
                })
                .collect(),
            user_agents: vec!["UA".into()],
            start_time: 0,
            duration_s: u32::from(u16::MAX),
            truth: LogTruth::default(),
        }
    }

    /// Number of distinct clients.
    pub fn client_count(&self) -> usize {
        self.requests
            .iter()
            .map(|r| r.client)
            .collect::<BTreeSet<_>>()
            .len()
    }

    /// Each request as the `(client, bytes, url)` triple the batch
    /// clustering (`netclust_core::Clustering::build`) reads.
    pub fn hits(&self) -> impl Iterator<Item = (u32, u32, UrlId)> + '_ {
        self.requests.iter().map(|r| (r.client, r.bytes, r.url))
    }

    /// Validates internal consistency (indices in range, times sorted and
    /// within duration). Used by tests and after parsing external data.
    pub fn check(&self) -> Result<(), LogError> {
        let mut last = 0u32;
        for (i, r) in self.requests.iter().enumerate() {
            if r.url as usize >= self.urls.len() {
                return Err(LogError::UrlOutOfRange {
                    request: i,
                    url: r.url,
                });
            }
            if r.ua as usize >= self.user_agents.len() {
                return Err(LogError::UaOutOfRange {
                    request: i,
                    ua: r.ua,
                });
            }
            if r.time > self.duration_s {
                return Err(LogError::TimePastDuration {
                    request: i,
                    time: r.time,
                });
            }
            if r.time < last {
                return Err(LogError::TimesUnsorted { request: i });
            }
            last = r.time;
        }
        Ok(())
    }
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
    use netclust_weblog::clf::ClfErrorKind;

    /// Clients 1, 2, 1, 3 at times 0, 10, 50, 99 fetch /a, /b, /a, /b.
    fn tiny_log() -> Log {
        let urls = [("/a", 100), ("/b", 200)].map(|(path, size)| UrlMeta {
            path: path.into(),
            size,
        });
        let requests =
            [(0, 1, 0), (10, 2, 1), (50, 1, 0), (99, 3, 1)].map(|(time, client, url)| Request {
                time,
                client,
                url,
                bytes: urls[url as usize].size,
                status: 200,
                ua: 0,
            });
        Log {
            name: "tiny".into(),
            requests: requests.to_vec(),
            urls: urls.to_vec(),
            user_agents: vec!["Mozilla/4.0".into()],
            start_time: 887_328_000,
            duration_s: 100,
            truth: LogTruth::default(),
        }
    }

    #[test]
    fn counts() {
        let log = tiny_log();
        assert_eq!(log.client_count(), 3);
        assert!(log.check().is_ok());
    }

    #[test]
    fn check_catches_bad_logs() {
        let mut log = tiny_log();
        log.requests[1].url = 9;
        assert_eq!(
            log.check().unwrap_err(),
            LogError::UrlOutOfRange { request: 1, url: 9 }
        );
        let mut log = tiny_log();
        log.requests[0].time = 60; // unsorted
        assert_eq!(
            log.check().unwrap_err(),
            LogError::TimesUnsorted { request: 1 }
        );
        let mut log = tiny_log();
        log.requests[3].time = 101;
        assert_eq!(
            log.check().unwrap_err(),
            LogError::TimePastDuration {
                request: 3,
                time: 101
            }
        );
        let mut log = tiny_log();
        log.requests[0].ua = 4;
        assert_eq!(
            log.check().unwrap_err(),
            LogError::UaOutOfRange { request: 0, ua: 4 }
        );
        assert!(log.check().unwrap_err().to_string().contains("ua 4"));
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
