//! Busy-cluster thresholding (§4.1.3, Table 5).
//!
//! After removing spiders and proxies, the paper keeps only *busy* client
//! clusters: the smallest set of top clusters (by request count) whose
//! requests add up to at least a target fraction (70 %) of all requests in
//! the log. Table 5 reports the resulting threshold and the client/request
//! ranges of the kept and filtered clusters.

use crate::cluster::Cluster;

/// Outcome of thresholding one clustering.
#[derive(Debug, Clone, PartialEq)]
pub struct ThresholdReport {
    /// Total clusters before thresholding.
    pub total_clusters: usize,
    /// Requests-per-cluster of the smallest kept cluster (Table 5's
    /// "Threshold" row).
    pub threshold: u64,
    /// Indices (into the clusters thresholded) of busy clusters,
    /// descending by requests.
    pub busy: Vec<usize>,
    /// Clients across busy clusters.
    pub busy_clients: u64,
    /// Requests across busy clusters.
    pub busy_requests: u64,
    /// Request range (min, max) among busy clusters.
    pub busy_request_range: (u64, u64),
    /// Client-count range among busy clusters.
    pub busy_client_range: (u64, u64),
    /// Request range among filtered (less-busy) clusters.
    pub lessbusy_request_range: (u64, u64),
    /// Client-count range among filtered clusters.
    pub lessbusy_client_range: (u64, u64),
}

/// Selects busy clusters covering `fraction` of the requests of
/// `clusters`, a clustering's.
///
/// # Panics
///
/// Panics unless `0.0 < fraction <= 1.0`.
pub fn threshold_busy(clusters: &[Cluster], fraction: f64) -> ThresholdReport {
    assert!(
        fraction > 0.0 && fraction <= 1.0,
        "fraction must be in (0, 1]"
    );
    let mut order: Vec<usize> = (0..clusters.len()).collect();
    order.sort_by(|&a, &b| {
        clusters[b]
            .requests
            .cmp(&clusters[a].requests)
            .then(a.cmp(&b))
    });
    let clustered_total: u64 = clusters.iter().map(|c| c.requests).sum();
    #[allow(clippy::cast_possible_truncation, reason = "a float-to-int `as` saturates.")]
    let target = (clustered_total as f64 * fraction).ceil() as u64;

    let mut busy = Vec::new();
    let mut acc = 0u64;
    for &idx in &order {
        if acc >= target {
            break;
        }
        acc += clusters[idx].requests;
        busy.push(idx);
    }

    let range = |indices: &[usize], f: &dyn Fn(usize) -> u64| -> (u64, u64) {
        let mut lo = u64::MAX;
        let mut hi = 0u64;
        for &i in indices {
            let v = f(i);
            lo = lo.min(v);
            hi = hi.max(v);
        }
        if lo == u64::MAX {
            (0, 0)
        } else {
            (lo, hi)
        }
    };
    let lessbusy: Vec<usize> = order[busy.len()..].to_vec();
    let req = |i: usize| clusters[i].requests;
    let cli = |i: usize| clusters[i].client_count() as u64;
    let busy_clients: u64 = busy.iter().map(|&i| cli(i)).sum();

    ThresholdReport {
        total_clusters: clusters.len(),
        threshold: busy.last().map(|&i| req(i)).unwrap_or(0),
        busy_requests: acc,
        busy_request_range: range(&busy, &req),
        busy_client_range: range(&busy, &cli),
        lessbusy_request_range: range(&lessbusy, &req),
        lessbusy_client_range: range(&lessbusy, &cli),
        busy_clients,
        busy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Assigner, Clustering};

    /// Clusters with requests 1000, 500, 300, 100, 50 (five /24s), as
    /// `(client, bytes, url)` hits.
    fn log() -> Vec<(u32, u32, u32)> {
        let volumes = [1000u64, 500, 300, 100, 50];
        let mut hits = Vec::new();
        for (i, &n) in volumes.iter().enumerate() {
            // Two clients per cluster, splitting the volume 70/30.
            for (c, share) in [(1u8, 7u64), (2, 3)] {
                let addr = u32::from_be_bytes([10, 0, i as u8, c]);
                hits.extend(std::iter::repeat_n((addr, 1, 0), (n * share / 10) as usize));
            }
        }
        hits
    }

    #[test]
    fn seventy_percent_rule() {
        let clustering = Clustering::by(log(), Assigner::Simple24);
        let report = threshold_busy(&clustering.clusters, 0.7);
        // Total 1950; 70 % = 1365; clusters 1000 + 500 = 1500 suffice.
        assert_eq!(report.busy.len(), 2);
        assert_eq!(report.busy_requests, 1500);
        assert_eq!(report.threshold, 500);
        assert_eq!(report.busy_request_range, (500, 1000));
        assert_eq!(report.busy_client_range, (2, 2));
        assert_eq!(report.busy_clients, 4);
        assert_eq!(report.lessbusy_request_range, (50, 300));
        assert_eq!(report.total_clusters, 5);
    }

    #[test]
    fn full_fraction_keeps_everything() {
        let clustering = Clustering::by(log(), Assigner::Simple24);
        let report = threshold_busy(&clustering.clusters, 1.0);
        assert_eq!(report.busy.len(), 5);
        assert_eq!(report.threshold, 50);
        assert_eq!(report.lessbusy_request_range, (0, 0));
    }

    #[test]
    fn busy_order_is_descending() {
        let clustering = Clustering::by(log(), Assigner::Simple24);
        let report = threshold_busy(&clustering.clusters, 0.9);
        let reqs: Vec<u64> = report
            .busy
            .iter()
            .map(|&i| clustering.clusters[i].requests)
            .collect();
        assert!(reqs.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn bad_fraction_panics() {
        let clustering = Clustering::by(log(), Assigner::Simple24);
        let _ = threshold_busy(&clustering.clusters, 0.0);
    }

    #[test]
    fn empty_clustering() {
        let clustering = Clustering::by([], Assigner::Simple24);
        let report = threshold_busy(&clustering.clusters, 0.7);
        assert!(report.busy.is_empty());
        assert_eq!(report.threshold, 0);
    }
}
