//! Time-partitioned session analysis (§3.6).
//!
//! The paper splits the Nagano log into four 6-hour sessions, clusters
//! each, and finds the per-cluster request/URL patterns stable across
//! sessions — evidence that "simulations on a sample of server logs might
//! suffice". [`session_report`] reproduces that analysis for any log and
//! assigner.

#![deny(clippy::iter_over_hash_type, clippy::disallowed_methods)]

use std::collections::HashMap;

use netclust_core::Clustering;
use netclust_netgen::{Log, Request};
use netclust_prefix::Ipv4Net;

use crate::anomaly::correlation;

/// Per-session clustering summary.
#[derive(Debug, Clone)]
pub struct SessionStats {
    /// Session label.
    pub name: String,
    /// Requests in the session.
    pub requests: u64,
    /// Clusters identified in the session.
    pub clusters: usize,
    /// Distinct clients.
    pub clients: usize,
    /// Requests per cluster prefix (for cross-session comparison).
    pub requests_by_prefix: HashMap<Ipv4Net, u64>,
}

/// Cross-session stability report.
#[derive(Debug, Clone)]
pub struct SessionReport {
    /// One entry per session.
    pub sessions: Vec<SessionStats>,
    /// Pearson correlations of per-cluster request volumes between each
    /// pair of consecutive sessions, over the union of prefixes.
    pub consecutive_correlations: Vec<f64>,
}

/// Clusters each of `n` equal time-slices of `log` with `assign` and
/// measures cross-session stability.
pub fn session_report<F>(log: &Log, n: u32, assign: F) -> SessionReport
where
    F: Fn(std::net::Ipv4Addr) -> Option<Ipv4Net> + Copy + Sync,
{
    let sessions: Vec<SessionStats> = split_sessions(log, n)
        .iter()
        .map(|s| {
            let clustering = Clustering::build(s.hits(), "session", assign);
            let requests_by_prefix = clustering
                .clusters
                .iter()
                .map(|c| (c.prefix, c.requests))
                .collect();
            SessionStats {
                name: s.name.clone(),
                requests: s.requests.len() as u64,
                clusters: clustering.len(),
                clients: clustering.client_count(),
                requests_by_prefix,
            }
        })
        .collect();

    let consecutive_correlations = sessions
        .windows(2)
        .map(|pair| {
            #[allow(
                clippy::disallowed_methods,
                reason = "keys are collected, sorted, and deduped before any use."
            )]
            let mut prefixes: Vec<Ipv4Net> = pair[0]
                .requests_by_prefix
                .keys()
                .chain(pair[1].requests_by_prefix.keys())
                .copied()
                .collect();
            prefixes.sort();
            prefixes.dedup();
            let a: Vec<u64> = prefixes
                .iter()
                .map(|p| pair[0].requests_by_prefix.get(p).copied().unwrap_or(0))
                .collect();
            let b: Vec<u64> = prefixes
                .iter()
                .map(|p| pair[1].requests_by_prefix.get(p).copied().unwrap_or(0))
                .collect();
            correlation(&a, &b)
        })
        .collect();

    SessionReport {
        sessions,
        consecutive_correlations,
    }
}

/// Splits `log` into `n` equal time sessions (§3.6's 6-hour partitions).
/// Requests at the boundary go to the later session; all sessions share
/// the URL and UA tables.
pub fn split_sessions(log: &Log, n: u32) -> Vec<Log> {
    assert!(n >= 1, "need at least one session");
    let span = (log.duration_s / n).max(1);
    let mut parts: Vec<Vec<Request>> = vec![Vec::new(); n as usize];
    for r in &log.requests {
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
            name: format!("{}.s{}", log.name, i),
            requests,
            urls: log.urls.clone(),
            user_agents: log.user_agents.clone(),
            start_time: log.start_time + (i as u64) * span as u64,
            // The last session absorbs the division remainder.
            duration_s: if i + 1 == n as usize {
                log.duration_s.saturating_sub((n - 1) * span)
            } else {
                span
            },
            truth: log.truth.clone(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use netclust_netgen::{generate, LogSpec, Universe, UniverseConfig};

    #[test]
    fn sessions_are_stable_for_stationary_workloads() {
        let u = Universe::generate(UniverseConfig::small(7));
        let mut spec = LogSpec::tiny("sess", 31);
        spec.total_requests = 40_000;
        let log = generate(&u, &spec);
        let merged = netclust_netgen::standard_merged(&u, 0);
        let report = session_report(&log, 4, |a| merged.lookup(a).map(|(n, _)| n));
        assert_eq!(report.sessions.len(), 4);
        assert_eq!(report.consecutive_correlations.len(), 3);
        let total: u64 = report.sessions.iter().map(|s| s.requests).sum();
        assert_eq!(total, log.requests.len() as u64);
        // Busy clusters stay busy across sessions: strong correlation.
        for (i, &c) in report.consecutive_correlations.iter().enumerate() {
            assert!(
                c > 0.5,
                "correlation {c} between sessions {i} and {}",
                i + 1
            );
        }
        // Diurnal profile: sessions differ in volume (afternoon > night).
        let volumes: Vec<u64> = report.sessions.iter().map(|s| s.requests).collect();
        assert!(volumes.iter().max() > volumes.iter().min());
    }

    #[test]
    fn single_session_is_whole_log() {
        let u = Universe::generate(UniverseConfig::small(7));
        let log = generate(&u, &LogSpec::tiny("one", 5));
        let merged = netclust_netgen::standard_merged(&u, 0);
        let report = session_report(&log, 1, |a| merged.lookup(a).map(|(n, _)| n));
        assert_eq!(report.sessions.len(), 1);
        assert!(report.consecutive_correlations.is_empty());
        assert_eq!(report.sessions[0].requests, log.requests.len() as u64);
    }
}
