//! Cluster metrics and distributions (Figures 3–7 of the paper).
//!
//! The paper characterizes a clustering through three per-cluster
//! quantities — number of clients, number of requests, number of unique
//! URLs — viewed as cumulative distributions (Figure 3) and as rank plots
//! sorted in reverse order of clients (Figure 4) or requests (Figure 5).
//! [`Distributions`] computes all of it once per clustering.

#![deny(clippy::iter_over_hash_type, clippy::disallowed_methods)]

use std::collections::BTreeSet;
use std::net::Ipv4Addr;

use netclust_core::Clustering;
use netclust_netgen::Log;

/// The distinct client addresses of `log`, sorted.
pub fn unique_clients(log: &Log) -> Vec<Ipv4Addr> {
    let set: BTreeSet<u32> = log.requests.iter().map(|r| r.client).collect();
    set.into_iter().map(Ipv4Addr::from).collect()
}

/// Number of distinct URLs `log` actually accessed (≤ `urls.len()`).
pub fn accessed_url_count(log: &Log) -> usize {
    let set: BTreeSet<u32> = log.requests.iter().map(|r| r.url).collect();
    set.len()
}

/// Summary statistics over a series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Smallest value.
    pub min: u64,
    /// Largest value.
    pub max: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population variance.
    pub variance: f64,
    /// Sum of all values.
    pub total: u64,
}

impl Summary {
    /// Computes a summary; `None` on an empty series.
    pub fn of(values: &[u64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let total: u64 = values.iter().sum();
        let n = values.len() as f64;
        let mean = total as f64 / n;
        let variance = values
            .iter()
            .map(|&v| (v as f64 - mean).powi(2))
            .sum::<f64>()
            / n;
        Some(Summary {
            min: *values.iter().min().expect("non-empty"),
            max: *values.iter().max().expect("non-empty"),
            mean,
            variance,
            total,
        })
    }
}

/// Cumulative distribution of a series: for each distinct value `x`, the
/// fraction of elements ≤ `x`. This is what Figure 3 plots.
pub fn cdf(values: &[u64]) -> Vec<(u64, f64)> {
    if values.is_empty() {
        return Vec::new();
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let n = sorted.len() as f64;
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < sorted.len() {
        let x = sorted[i];
        let mut j = i;
        while j < sorted.len() && sorted[j] == x {
            j += 1;
        }
        out.push((x, j as f64 / n));
        i = j;
    }
    out
}

/// Evaluates a CDF (as produced by [`cdf`]) at `x`.
pub fn cdf_at(points: &[(u64, f64)], x: u64) -> f64 {
    match points.binary_search_by_key(&x, |&(v, _)| v) {
        Ok(i) => points[i].1,
        Err(0) => 0.0,
        Err(i) => points[i - 1].1,
    }
}

/// Per-cluster series plus the two orderings the paper plots.
#[derive(Debug, Clone)]
pub struct Distributions {
    /// Clients per cluster, indexed like `Clustering::clusters`.
    pub clients: Vec<u64>,
    /// Requests per cluster.
    pub requests: Vec<u64>,
    /// Unique URLs per cluster.
    pub urls: Vec<u64>,
    /// Cluster indices in reverse (descending) order of clients (Figure 4's
    /// x axis; ties broken by requests then index for determinism).
    pub by_clients: Vec<usize>,
    /// Cluster indices in reverse order of requests (Figure 5's x axis).
    pub by_requests: Vec<usize>,
}

impl Distributions {
    /// Computes every series for a clustering.
    pub fn of(clustering: &Clustering) -> Self {
        let clients: Vec<u64> = clustering
            .clusters
            .iter()
            .map(|c| c.client_count() as u64)
            .collect();
        let requests: Vec<u64> = clustering.clusters.iter().map(|c| c.requests).collect();
        let urls: Vec<u64> = clustering
            .clusters
            .iter()
            .map(|c| c.unique_urls as u64)
            .collect();
        let mut by_clients: Vec<usize> = (0..clients.len()).collect();
        by_clients.sort_by(|&a, &b| {
            clients[b]
                .cmp(&clients[a])
                .then(requests[b].cmp(&requests[a]))
                .then(a.cmp(&b))
        });
        let mut by_requests: Vec<usize> = (0..requests.len()).collect();
        by_requests.sort_by(|&a, &b| {
            requests[b]
                .cmp(&requests[a])
                .then(clients[b].cmp(&clients[a]))
                .then(a.cmp(&b))
        });
        Distributions {
            clients,
            requests,
            urls,
            by_clients,
            by_requests,
        }
    }

    /// A series reordered by an ordering: `series_in(&d.requests,
    /// &d.by_clients)` is Figure 4(b)'s y values.
    pub fn series_in(series: &[u64], order: &[usize]) -> Vec<u64> {
        order.iter().map(|&i| series[i]).collect()
    }

    /// Fraction of clusters whose client count is below `x` — e.g. the
    /// paper's "more than 95 % of client clusters contain less than 100
    /// clients".
    pub fn fraction_clusters_with_clients_below(&self, x: u64) -> f64 {
        if self.clients.is_empty() {
            return 0.0;
        }
        self.clients.iter().filter(|&&c| c < x).count() as f64 / self.clients.len() as f64
    }

    /// Fraction of clusters issuing fewer than `x` requests — e.g. "around
    /// 90 % of the client clusters issued less than 1,000 requests".
    pub fn fraction_clusters_with_requests_below(&self, x: u64) -> f64 {
        if self.requests.is_empty() {
            return 0.0;
        }
        self.requests.iter().filter(|&&r| r < x).count() as f64 / self.requests.len() as f64
    }

    /// A tail-heaviness index: the request share of the busiest 1 % of
    /// clusters (Figure 3(b) is "more heavy-tailed" than 3(a)).
    pub fn top_percent_share(series: &[u64], percent: f64) -> f64 {
        if series.is_empty() {
            return 0.0;
        }
        let mut sorted = series.to_vec();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        #[allow(clippy::cast_possible_truncation, reason = "clamped to 1..=len right here.")]
        let k = ((sorted.len() as f64 * percent / 100.0).ceil() as usize).clamp(1, sorted.len());
        let top: u64 = sorted[..k].iter().sum();
        let all: u64 = sorted.iter().sum();
        if all == 0 {
            0.0
        } else {
            top as f64 / all as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netclust_core::Assigner;
    use netclust_netgen::{Log, LogTruth, Request, UrlMeta};
    use netclust_prefix::Ipv4Net;

    fn log_with(clients_per_24: &[(u8, usize, u64)]) -> Log {
        // (third_octet, clients, requests_per_client)
        let mut requests = Vec::new();
        for &(octet, n, per) in clients_per_24 {
            for c in 0..n {
                let addr = u32::from_be_bytes([10, 0, octet, (c + 1) as u8]);
                for j in 0..per {
                    requests.push(Request {
                        time: j as u32,
                        client: addr,
                        url: (c % 4) as u32,
                        bytes: 10,
                        status: 200,
                        ua: 0,
                    });
                }
            }
        }
        requests.sort_by_key(|r| r.time);
        Log {
            name: "m".into(),
            requests,
            urls: (0..4)
                .map(|i| UrlMeta {
                    path: format!("/{i}"),
                    size: 10,
                })
                .collect(),
            user_agents: vec!["UA".into()],
            start_time: 0,
            duration_s: 1000,
            truth: LogTruth::default(),
        }
    }

    #[test]
    fn summary_basics() {
        let s = Summary::of(&[1, 2, 3, 4]).unwrap();
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 4);
        assert_eq!(s.total, 10);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert!((s.variance - 1.25).abs() < 1e-12);
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn cdf_shape() {
        let points = cdf(&[1, 1, 2, 5]);
        assert_eq!(points, vec![(1, 0.5), (2, 0.75), (5, 1.0)]);
        assert_eq!(cdf_at(&points, 0), 0.0);
        assert_eq!(cdf_at(&points, 1), 0.5);
        assert_eq!(cdf_at(&points, 3), 0.75);
        assert_eq!(cdf_at(&points, 99), 1.0);
        assert!(cdf(&[]).is_empty());
    }

    #[test]
    fn orderings_are_descending() {
        let log = log_with(&[(1, 3, 10), (2, 10, 1), (3, 1, 100)]);
        let clustering = Clustering::by(log.hits(), Assigner::Simple24);
        let d = Distributions::of(&clustering);
        // by_clients: 10-client cluster first.
        assert_eq!(d.clients[d.by_clients[0]], 10);
        assert_eq!(d.clients[d.by_clients[2]], 1);
        // by_requests: the 100-request cluster first.
        assert_eq!(d.requests[d.by_requests[0]], 100);
        let reordered = Distributions::series_in(&d.requests, &d.by_requests);
        assert!(reordered.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn fractions() {
        let log = log_with(&[(1, 3, 10), (2, 10, 1), (3, 1, 100)]);
        let clustering = Clustering::by(log.hits(), Assigner::Simple24);
        let d = Distributions::of(&clustering);
        assert!((d.fraction_clusters_with_clients_below(10) - 2.0 / 3.0).abs() < 1e-12);
        assert!((d.fraction_clusters_with_requests_below(100) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(d.fraction_clusters_with_clients_below(1), 0.0);
    }

    #[test]
    fn top_percent_share_heavy_tail() {
        // One dominant value: top 1 % (= 1 element of 4) takes most.
        let share = Distributions::top_percent_share(&[1000, 1, 1, 1], 1.0);
        assert!((share - 1000.0 / 1003.0).abs() < 1e-12);
        assert_eq!(Distributions::top_percent_share(&[], 1.0), 0.0);
        assert_eq!(Distributions::top_percent_share(&[0, 0], 50.0), 0.0);
    }

    #[test]
    fn same_x_position_refers_to_same_cluster() {
        // The paper stresses Figures 4(a)-(c) share x positions: check the
        // orderings produce consistent parallel series.
        let log = log_with(&[(1, 5, 7), (2, 2, 50)]);
        let clustering = Clustering::by(log.hits(), Assigner::Simple24);
        let d = Distributions::of(&clustering);
        let i = d.by_clients[0];
        assert_eq!(d.clients[i], 5);
        assert_eq!(d.requests[i], 35);
        // urls for that cluster: clients 0..5 access urls 0..4 → 4 unique.
        assert_eq!(d.urls[i], 4);
        let _net: Ipv4Net = clustering.clusters[i].prefix;
    }
}
