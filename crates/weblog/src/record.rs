//! The web-server log model: requests, URL metadata, and per-log ground
//! truth about embedded anomalies.

use std::collections::BTreeSet;
use std::net::Ipv4Addr;

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
    /// Number of distinct clients.
    pub fn client_count(&self) -> usize {
        self.requests
            .iter()
            .map(|r| r.client)
            .collect::<BTreeSet<_>>()
            .len()
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
