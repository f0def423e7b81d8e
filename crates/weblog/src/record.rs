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
    /// The distinct client addresses, sorted.
    pub fn unique_clients(&self) -> Vec<Ipv4Addr> {
        let set: BTreeSet<u32> = self.requests.iter().map(|r| r.client).collect();
        set.into_iter().map(Ipv4Addr::from).collect()
    }

    /// Number of distinct clients.
    pub fn client_count(&self) -> usize {
        self.requests
            .iter()
            .map(|r| r.client)
            .collect::<BTreeSet<_>>()
            .len()
    }

    /// Number of distinct URLs actually accessed (≤ `urls.len()`).
    pub fn accessed_url_count(&self) -> usize {
        self.requests
            .iter()
            .map(|r| r.url)
            .collect::<BTreeSet<_>>()
            .len()
    }

    /// Splits the log into `n` equal time sessions (§3.6's 6-hour
    /// partitions). Requests at the boundary go to the later session; all
    /// sessions share the URL and UA tables.
    pub fn sessions(&self, n: u32) -> Vec<Log> {
        assert!(n >= 1, "need at least one session");
        let span = (self.duration_s / n).max(1);
        let mut parts: Vec<Vec<Request>> = vec![Vec::new(); n as usize];
        for r in &self.requests {
            let idx = (r.time / span).min(n - 1);
            // Rebase times onto the session's own clock.
            parts[idx as usize].push(Request {
                time: r.time - idx * span,
                ..*r
            });
        }
        parts
            .into_iter()
            .enumerate()
            .map(|(i, requests)| Log {
                name: format!("{}.s{}", self.name, i),
                requests,
                urls: self.urls.clone(),
                user_agents: self.user_agents.clone(),
                start_time: self.start_time + (i as u64) * span as u64,
                // The last session absorbs the division remainder.
                duration_s: if i + 1 == n as usize {
                    self.duration_s.saturating_sub((n - 1) * span)
                } else {
                    span
                },
                truth: self.truth.clone(),
            })
            .collect()
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

    fn tiny_log() -> Log {
        let urls = vec![
            UrlMeta {
                path: "/a".into(),
                size: 100,
            },
            UrlMeta {
                path: "/b".into(),
                size: 200,
            },
        ];
        let reqs = vec![
            Request {
                time: 0,
                client: 1,
                url: 0,
                bytes: 100,
                status: 200,
                ua: 0,
            },
            Request {
                time: 10,
                client: 2,
                url: 1,
                bytes: 200,
                status: 200,
                ua: 0,
            },
            Request {
                time: 50,
                client: 1,
                url: 0,
                bytes: 100,
                status: 200,
                ua: 0,
            },
            Request {
                time: 99,
                client: 3,
                url: 1,
                bytes: 200,
                status: 200,
                ua: 0,
            },
        ];
        Log {
            name: "tiny".into(),
            requests: reqs,
            urls,
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
        assert_eq!(log.accessed_url_count(), 2);
        assert_eq!(
            log.unique_clients(),
            vec![
                Ipv4Addr::from(1u32),
                Ipv4Addr::from(2u32),
                Ipv4Addr::from(3u32)
            ]
        );
        assert!(log.check().is_ok());
    }

    #[test]
    fn sessions_partition_requests() {
        let log = tiny_log();
        let sessions = log.sessions(4);
        assert_eq!(sessions.len(), 4);
        let total: usize = sessions.iter().map(|s| s.requests.len()).sum();
        assert_eq!(total, log.requests.len());
        assert_eq!(sessions[0].requests.len(), 2); // t=0, t=10
        assert_eq!(sessions[2].requests.len(), 1); // t=50
        assert_eq!(sessions[3].requests.len(), 1); // t=99
        assert!(sessions[1].requests.is_empty());
        assert_eq!(sessions[2].name, "tiny.s2");
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
