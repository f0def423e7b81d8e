//! Trace-driven Web-caching simulation with per-cluster proxies (§4.1.5).
//!
//! One proxy is placed in front of each client cluster; every request is
//! routed through its client's proxy (unclustered clients go straight to
//! the origin). The simulation reports per-proxy statistics plus the
//! server-side totals the paper plots:
//!
//! * **Figure 11** — total hit ratio / byte-hit ratio observed at the
//!   server while sweeping the per-proxy cache size (100 KB–100 MB),
//! * **Figure 12** — per-proxy request volume, bytes, hit ratio and
//!   byte-hit ratio of the top clusters, with infinite caches.

use std::collections::HashMap;

use netclust_core::Clustering;
use netclust_netgen::Log;

use crate::pcv::{PcvProxy, ProxyStats, DEFAULT_TTL_S};
use crate::resource::ResourceModel;

/// Simulation parameters.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Per-proxy cache capacity in bytes (`u64::MAX` = infinite).
    pub cache_bytes: u64,
    /// PCV freshness lifetime in seconds.
    pub ttl_s: u32,
    /// Resource modification model.
    pub model: ResourceModel,
    /// Drop requests to URLs accessed fewer than this many times in the
    /// whole log (the paper ignores resources accessed < 10 times,
    /// footnote 9). `0` keeps everything.
    pub min_url_accesses: u64,
}

impl SimConfig {
    /// Paper defaults: 1-hour TTL, default-web modification model, and the
    /// footnote-9 filter.
    pub fn paper(cache_bytes: u64) -> Self {
        SimConfig {
            cache_bytes,
            ttl_s: DEFAULT_TTL_S,
            model: ResourceModel::default_web(0xFEED),
            min_url_accesses: 10,
        }
    }
}

/// Result of one simulation run.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Per-proxy stats, parallel to `Clustering::clusters`.
    pub proxies: Vec<ProxyStats>,
    /// Requests that bypassed all proxies (unclustered clients).
    pub direct_requests: u64,
    /// Bytes fetched by unclustered clients.
    pub direct_bytes: u64,
    /// Requests simulated after the URL-popularity filter.
    pub simulated_requests: u64,
}

impl SimResult {
    /// Total hit ratio observed at the server: the fraction of simulated
    /// requests served by local proxies (direct requests count as misses).
    pub fn server_hit_ratio(&self) -> f64 {
        let served: u64 = self.proxies.iter().map(|p| p.hits + p.validated_hits).sum();
        if self.simulated_requests == 0 {
            0.0
        } else {
            served as f64 / self.simulated_requests as f64
        }
    }

    /// Total byte-hit ratio observed at the server.
    pub fn server_byte_hit_ratio(&self) -> f64 {
        let hit: u64 = self.proxies.iter().map(|p| p.bytes_hit).sum();
        let miss: u64 = self.proxies.iter().map(|p| p.bytes_miss).sum::<u64>() + self.direct_bytes;
        let total = hit + miss;
        if total == 0 {
            0.0
        } else {
            hit as f64 / total as f64
        }
    }
}

/// Runs the simulation of `log` against `clustering`.
pub fn simulate(log: &Log, clustering: &Clustering, config: &SimConfig) -> SimResult {
    // Footnote-9 filter: URL access counts.
    let keep: Option<Vec<bool>> = if config.min_url_accesses > 1 {
        let mut counts = vec![0u64; log.urls.len()];
        for r in &log.requests {
            counts[r.url as usize] += 1;
        }
        Some(
            counts
                .iter()
                .map(|&c| c >= config.min_url_accesses)
                .collect(),
        )
    } else {
        None
    };

    // Client → proxy (cluster index) routing table.
    let mut route: HashMap<u32, u32> = HashMap::new();
    for (idx, cluster) in clustering.clusters.iter().enumerate() {
        for client in clustering.members(cluster) {
            #[allow(
                clippy::cast_possible_truncation,
                reason = "cluster indices are u32 by design."
            )]
            route.insert(u32::from(client.addr), idx as u32);
        }
    }

    let mut proxies: Vec<PcvProxy> = (0..clustering.clusters.len())
        .map(|_| PcvProxy::new(config.cache_bytes, config.ttl_s, config.model))
        .collect();
    let mut direct_requests = 0u64;
    let mut direct_bytes = 0u64;
    let mut simulated = 0u64;

    for r in &log.requests {
        if let Some(keep) = &keep {
            if !keep[r.url as usize] {
                continue;
            }
        }
        simulated += 1;
        match route.get(&r.client) {
            Some(&idx) => {
                proxies[idx as usize].request(r.url, r.bytes, r.time);
            }
            None => {
                direct_requests += 1;
                direct_bytes += r.bytes as u64;
            }
        }
    }

    SimResult {
        proxies: proxies.iter().map(|p| p.stats()).collect(),
        direct_requests,
        direct_bytes,
        simulated_requests: simulated,
    }
}

/// Sweeps per-proxy cache sizes and returns `(bytes, hit ratio, byte-hit
/// ratio)` per point — Figure 11's curves.
pub fn sweep_cache_sizes(
    log: &Log,
    clustering: &Clustering,
    sizes: &[u64],
    base: &SimConfig,
) -> Vec<(u64, f64, f64)> {
    sizes
        .iter()
        .map(|&bytes| {
            let result = simulate(
                log,
                clustering,
                &SimConfig {
                    cache_bytes: bytes,
                    ..*base
                },
            );
            (
                bytes,
                result.server_hit_ratio(),
                result.server_byte_hit_ratio(),
            )
        })
        .collect()
}

/// The paper's Figure 11 sweep points: 100 KB to 100 MB, log-spaced.
pub fn fig11_sizes() -> Vec<u64> {
    vec![
        100 << 10,
        300 << 10,
        1 << 20,
        3 << 20,
        10 << 20,
        30 << 20,
        100 << 20,
    ]
}

/// Per-proxy report rows for the top `n` clusters by requests — Figure 12.
/// Returns `(cluster index, requests, kilobytes, hit ratio, byte-hit
/// ratio)` rows in reverse order of requests.
pub fn top_proxy_report(
    clustering: &Clustering,
    result: &SimResult,
    n: usize,
) -> Vec<(usize, u64, u64, f64, f64)> {
    let mut order: Vec<usize> = (0..result.proxies.len()).collect();
    order.sort_by(|&a, &b| {
        result.proxies[b]
            .requests
            .cmp(&result.proxies[a].requests)
            .then(a.cmp(&b))
    });
    order
        .into_iter()
        .take(n)
        .map(|i| {
            let p = &result.proxies[i];
            let _cluster: &netclust_core::Cluster = &clustering.clusters[i];
            (
                i,
                p.requests,
                (p.bytes_hit + p.bytes_miss) >> 10,
                p.hit_ratio(),
                p.byte_hit_ratio(),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use netclust_core::Assigner;
    use netclust_netgen::{generate, LogSpec, Universe, UniverseConfig};

    fn setup() -> (Log, Clustering) {
        let u = Universe::generate(UniverseConfig::small(7));
        let mut spec = LogSpec::tiny("cs", 77);
        spec.total_requests = 40_000;
        spec.num_urls = 300;
        let log = generate(&u, &spec);
        let merged = netclust_netgen::standard_merged(&u, 0);
        let clustering = Clustering::by(log.hits(), Assigner::NetworkAware(&merged.compile()));
        (log, clustering)
    }

    fn config(bytes: u64) -> SimConfig {
        SimConfig {
            cache_bytes: bytes,
            ttl_s: DEFAULT_TTL_S,
            model: ResourceModel::immutable(),
            min_url_accesses: 0,
        }
    }

    #[test]
    fn accounting_adds_up() {
        let (log, clustering) = setup();
        let result = simulate(&log, &clustering, &config(u64::MAX));
        let proxied: u64 = result.proxies.iter().map(|p| p.requests).sum();
        assert_eq!(proxied + result.direct_requests, log.requests.len() as u64);
        assert_eq!(result.simulated_requests, log.requests.len() as u64);
        // Bytes conservation.
        let bytes: u64 = result
            .proxies
            .iter()
            .map(|p| p.bytes_hit + p.bytes_miss)
            .sum::<u64>()
            + result.direct_bytes;
        let log_bytes: u64 = log.requests.iter().map(|r| u64::from(r.bytes)).sum();
        assert_eq!(bytes, log_bytes);
    }

    #[test]
    fn bigger_caches_hit_more() {
        let (log, clustering) = setup();
        let points = sweep_cache_sizes(
            &log,
            &clustering,
            &[10 << 10, 1 << 20, 100 << 20],
            &config(0),
        );
        assert!(
            points.windows(2).all(|w| w[1].1 >= w[0].1 - 1e-9),
            "{points:?}"
        );
        assert!(points.windows(2).all(|w| w[1].2 >= w[0].2 - 1e-9));
        // An effectively infinite cache gets a solid hit ratio on a
        // Zipf workload.
        assert!(points[2].1 > 0.4, "hit ratio {}", points[2].1);
    }

    #[test]
    fn infinite_cache_dominates_finite() {
        let (log, clustering) = setup();
        let finite = simulate(&log, &clustering, &config(50 << 10));
        let infinite = simulate(&log, &clustering, &config(u64::MAX));
        assert!(infinite.server_hit_ratio() >= finite.server_hit_ratio());
        assert!(infinite.server_byte_hit_ratio() >= finite.server_byte_hit_ratio());
    }

    #[test]
    fn url_filter_reduces_simulated_requests() {
        let (log, clustering) = setup();
        let mut cfg = config(u64::MAX);
        // 40,000 requests over 300 Zipf URLs leave every URL above 10
        // accesses; use a threshold that actually bites in this test.
        cfg.min_url_accesses = 200;
        let result = simulate(&log, &clustering, &cfg);
        assert!(result.simulated_requests < log.requests.len() as u64);
        assert!(result.simulated_requests > 0);
    }

    #[test]
    fn top_proxy_report_is_sorted_and_consistent() {
        let (log, clustering) = setup();
        let result = simulate(&log, &clustering, &config(u64::MAX));
        let rows = top_proxy_report(&clustering, &result, 10);
        assert!(rows.len() <= 10);
        assert!(rows.windows(2).all(|w| w[0].1 >= w[1].1));
        for (idx, requests, _, hit, byte_hit) in &rows {
            assert_eq!(result.proxies[*idx].requests, *requests);
            assert!((0.0..=1.0).contains(hit));
            assert!((0.0..=1.0).contains(byte_hit));
        }
    }

    #[test]
    fn clustering_granularity_matters() {
        // The headline of Figure 11: coarser (network-aware) clusters
        // share caches better than /24 fragments at equal capacity.
        let (log, aware) = setup();
        let simple = Clustering::by(log.hits(), Assigner::Simple24);
        let cfg = config(u64::MAX);
        let aware_result = simulate(&log, &aware, &cfg);
        let simple_result = simulate(&log, &simple, &cfg);
        assert!(
            aware_result.server_hit_ratio() > simple_result.server_hit_ratio(),
            "aware {} vs simple {}",
            aware_result.server_hit_ratio(),
            simple_result.server_hit_ratio()
        );
    }

    #[test]
    fn validation_traffic_appears_with_mutable_resources() {
        let (log, clustering) = setup();
        let cfg = SimConfig {
            cache_bytes: u64::MAX,
            ttl_s: 600,
            model: ResourceModel::default_web(1),
            min_url_accesses: 0,
        };
        let result = simulate(&log, &clustering, &cfg);
        let validated: u64 = result.proxies.iter().map(|p| p.validated_hits).sum();
        let piggybacked: u64 = result.proxies.iter().map(|p| p.piggybacked).sum();
        assert!(validated > 0, "IMS rounds expected");
        assert!(piggybacked > 0, "piggybacked validations expected");
    }

    #[test]
    fn fig11_sizes_span_paper_range() {
        let sizes = fig11_sizes();
        assert_eq!(sizes[0], 100 << 10);
        assert_eq!(*sizes.last().unwrap(), 100 << 20);
        assert!(sizes.windows(2).all(|w| w[0] < w[1]));
    }
}
