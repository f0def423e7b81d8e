//! Spider and proxy identification (§4.1.1–4.1.2, Figures 9 and 10).
//!
//! The paper distinguishes three client kinds seen by a server: *visible
//! clients*, *hidden clients* behind proxies, and *spiders*. Detection
//! combines four signals:
//!
//! * volume — spiders and proxies issue very many requests,
//! * request-arrival shape — a proxy mimics the whole log's (diurnal)
//!   pattern, a spider's burst does not (Figure 9),
//! * the request distribution inside the cluster — a spider dwarfs its
//!   cluster-mates (Figure 10; the Sun spider issues 99.79 % of its
//!   cluster's requests),
//! * User-Agent diversity — one host relaying many browsers is likely a
//!   proxy.

use std::collections::{HashMap, HashSet};
use std::net::Ipv4Addr;

use netclust_core::{ClientClass, Cluster, Clustering, VerdictPolicy};
use netclust_netgen::{Log, Request, UaId};
use netclust_prefix::Ipv4Net;

/// Detection thresholds. Defaults follow the paper's qualitative rules.
#[derive(Debug, Clone, Copy)]
pub struct AnomalyConfig {
    /// Minimum requests before a client is even considered.
    pub min_requests: u64,
    /// Minimum share of its cluster's requests ("almost all the requests
    /// are issued by the spider").
    pub min_cluster_share: f64,
    /// Arrival-correlation (with the whole log's hourly histogram) below
    /// which a heavy client is a spider, at or above which a proxy.
    pub correlation_split: f64,
    /// Burst share (fraction of the client's requests inside its busiest
    /// quarter of hours) above which a heavy client is a spider even when
    /// its burst happens to overlap the diurnal peak. Normal diurnal
    /// traffic concentrates ≈40–50 % there; a crawler burst ≈100 %.
    pub max_burst_share: f64,
    /// Distinct User-Agents above which a heavy client is proxy-like.
    pub min_proxy_uas: usize,
}

impl Default for AnomalyConfig {
    fn default() -> Self {
        // The volume/share thresholds are the structural verdict's: one
        // source for both.
        let VerdictPolicy {
            min_requests,
            min_cluster_share,
        } = VerdictPolicy::default();
        AnomalyConfig {
            min_requests,
            min_cluster_share,
            correlation_split: 0.5,
            max_burst_share: 0.9,
            min_proxy_uas: 4,
        }
    }
}

/// Fraction of requests falling in the busiest quarter of a histogram's
/// bins (1.0 for a degenerate single-bin histogram).
pub fn burst_share(hist: &[u64]) -> f64 {
    let total: u64 = hist.iter().sum();
    if total == 0 || hist.len() <= 1 {
        return 1.0;
    }
    let mut sorted = hist.to_vec();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    let k = (sorted.len().div_ceil(4)).max(1);
    sorted[..k].iter().sum::<u64>() as f64 / total as f64
}

/// One flagged client.
#[derive(Debug, Clone, PartialEq)]
pub struct Detection {
    /// The client.
    pub addr: Ipv4Addr,
    /// Spider or suspected proxy.
    pub class: ClientClass,
    /// Requests it issued.
    pub requests: u64,
    /// Share of its cluster's requests.
    pub cluster_share: f64,
    /// Pearson correlation of its hourly arrivals with the whole log's.
    pub arrival_correlation: f64,
    /// Share of its requests in its busiest quarter of hours.
    pub burst_share: f64,
    /// Distinct URLs it accessed.
    pub unique_urls: usize,
    /// Distinct User-Agent strings it sent.
    pub unique_uas: usize,
}

/// Hourly request histogram over a log subset — the series Figure 9 plots.
/// `filter` selects the requests to count (e.g. one client, one cluster,
/// or everything).
pub fn hourly_histogram<F>(log: &Log, filter: F) -> Vec<u64>
where
    F: Fn(&Request) -> bool,
{
    let hours = (log.duration_s.div_ceil(3600)).max(1) as usize;
    let mut hist = vec![0u64; hours];
    for r in log.requests.iter().filter(|r| filter(r)) {
        hist[(r.time / 3600) as usize] += 1;
    }
    hist
}

/// Pearson correlation between two equal-length series. Returns 0.0 when
/// either series is constant (no shape to compare).
pub fn correlation(a: &[u64], b: &[u64]) -> f64 {
    assert_eq!(a.len(), b.len(), "series must align");
    let n = a.len() as f64;
    if n == 0.0 {
        return 0.0;
    }
    let ma = a.iter().sum::<u64>() as f64 / n;
    let mb = b.iter().sum::<u64>() as f64 / n;
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for (&x, &y) in a.iter().zip(b) {
        let dx = x as f64 - ma;
        let dy = y as f64 - mb;
        cov += dx * dy;
        va += dx * dx;
        vb += dy * dy;
    }
    if va == 0.0 || vb == 0.0 {
        0.0
    } else {
        cov / (va * vb).sqrt()
    }
}

/// The cluster of `clustering` that holds `addr` among its members: the
/// longest of its prefixes that covers `addr` and lists it. Every prefix
/// a clustering by the paper's methods (or by self-correction) makes
/// covers its members, so a cover's members are the only place to look.
pub fn cluster_of(clustering: &Clustering, addr: Ipv4Addr) -> Option<&Cluster> {
    let clusters = &clustering.clusters;
    (0..=32).rev().find_map(|len| {
        let net = Ipv4Net::from_addr(addr, len).ok()?;
        let i = clusters.binary_search_by_key(&net, |c| c.prefix).ok()?;
        let cluster = clusters.get(i)?;
        let members = clustering.members(cluster);
        members.binary_search_by_key(&addr, |c| c.addr).ok()?;
        Some(cluster)
    })
}

/// The per-client request distribution within one cluster, descending —
/// Figure 10's series.
pub fn cluster_request_distribution(clustering: &Clustering, prefix_of: Ipv4Addr) -> Vec<u64> {
    match cluster_of(clustering, prefix_of) {
        Some(cluster) => {
            let mut v: Vec<u64> = clustering
                .members(cluster)
                .iter()
                .map(|c| c.requests)
                .collect();
            v.sort_unstable_by(|a, b| b.cmp(a));
            v
        }
        None => Vec::new(),
    }
}

/// Scans a clustered log for spiders and suspected proxies.
pub fn detect(log: &Log, clustering: &Clustering, config: &AnomalyConfig) -> Vec<Detection> {
    // Candidates: heavy clients.
    let mut per_client: HashMap<u32, u64> = HashMap::new();
    for r in &log.requests {
        *per_client.entry(r.client).or_default() += 1;
    }
    let candidates: Vec<u32> = per_client
        .iter()
        .filter(|(_, &n)| n >= config.min_requests)
        .map(|(&c, _)| c)
        .collect();
    if candidates.is_empty() {
        return Vec::new();
    }
    let candidate_set: HashSet<u32> = candidates.iter().copied().collect();

    // Whole-log arrival shape.
    let log_hist = hourly_histogram(log, |_| true);

    // Per-candidate detail in one pass.
    struct Detail {
        hist: Vec<u64>,
        urls: HashSet<u32>,
        uas: HashSet<UaId>,
    }
    let hours = log_hist.len();
    let mut details: HashMap<u32, Detail> = candidates
        .iter()
        .map(|&c| {
            (
                c,
                Detail {
                    hist: vec![0; hours],
                    urls: HashSet::new(),
                    uas: HashSet::new(),
                },
            )
        })
        .collect();
    for r in &log.requests {
        if candidate_set.contains(&r.client) {
            let d = details.get_mut(&r.client).expect("candidate");
            d.hist[(r.time / 3600) as usize] += 1;
            d.urls.insert(r.url);
            d.uas.insert(r.ua);
        }
    }

    let mut out = Vec::new();
    for &client in &candidates {
        let addr = Ipv4Addr::from(client);
        let requests = per_client[&client];
        let cluster_share = cluster_of(clustering, addr)
            .map(|cl| {
                if cl.requests == 0 {
                    0.0
                } else {
                    requests as f64 / cl.requests as f64
                }
            })
            .unwrap_or(1.0);
        if cluster_share < config.min_cluster_share {
            continue;
        }
        let d = &details[&client];
        let arrival_correlation = correlation(&d.hist, &log_hist);
        let burst = burst_share(&d.hist);
        let class =
            if arrival_correlation < config.correlation_split || burst > config.max_burst_share {
                ClientClass::Spider
            } else if d.uas.len() >= config.min_proxy_uas {
                ClientClass::SuspectedProxy
            } else {
                // Heavy, diurnal, single-UA: an enthusiastic normal client.
                continue;
            };
        out.push(Detection {
            addr,
            class,
            requests,
            cluster_share,
            arrival_correlation,
            burst_share: burst,
            unique_urls: d.urls.len(),
            unique_uas: d.uas.len(),
        });
    }
    out.sort_by_key(|d| std::cmp::Reverse(d.requests));
    out
}

/// Removes all requests by the given clients — the paper eliminates spiders
/// (and optionally proxies) before the caching simulation (§4.1.1).
pub fn strip_clients(log: &Log, clients: &[Ipv4Addr]) -> Log {
    let drop: HashSet<u32> = clients.iter().map(|&a| u32::from(a)).collect();
    let mut out = log.clone();
    out.requests.retain(|r| !drop.contains(&r.client));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use netclust_core::Assigner;
    use netclust_netgen::{generate, LogSpec, ProxySpec, SpiderSpec, Universe, UniverseConfig};

    fn setup() -> (Universe, Log) {
        let u = Universe::generate(UniverseConfig::small(7));
        let mut spec = LogSpec::tiny("a", 5);
        spec.total_requests = 60_000;
        spec.target_clients = 400;
        spec.spiders = vec![SpiderSpec {
            requests: 12_000,
            unique_urls: 400,
            companions: 6,
        }];
        spec.proxies = vec![ProxySpec {
            requests: 9_000,
            companions: 1,
        }];
        let log = generate(&u, &spec);
        (u, log)
    }

    #[test]
    fn burst_share_shapes() {
        // All mass in one of 24 bins → 1.0.
        let mut burst = vec![0u64; 24];
        burst[10] = 100;
        assert!((burst_share(&burst) - 1.0).abs() < 1e-12);
        // Uniform over 24 bins → 6/24 = 0.25.
        let uniform = vec![10u64; 24];
        assert!((burst_share(&uniform) - 0.25).abs() < 1e-12);
        // Degenerate inputs.
        assert_eq!(burst_share(&[]), 1.0);
        assert_eq!(burst_share(&[0, 0, 0]), 1.0);
        assert_eq!(burst_share(&[7]), 1.0);
    }

    #[test]
    fn correlation_basics() {
        assert!((correlation(&[1, 2, 3], &[2, 4, 6]) - 1.0).abs() < 1e-12);
        assert!((correlation(&[1, 2, 3], &[3, 2, 1]) + 1.0).abs() < 1e-12);
        assert_eq!(correlation(&[5, 5, 5], &[1, 2, 3]), 0.0);
        assert_eq!(correlation(&[], &[]), 0.0);
    }

    #[test]
    fn detects_planted_spider_and_proxy() {
        let (u, log) = setup();
        let merged = netclust_netgen::standard_merged(&u, 0);
        let clustering = Clustering::by(log.hits(), Assigner::NetworkAware(&merged.compile()));
        let config = AnomalyConfig {
            min_requests: 3_000,
            ..Default::default()
        };
        let detections = detect(&log, &clustering, &config);
        let spiders: Vec<_> = detections
            .iter()
            .filter(|d| d.class == ClientClass::Spider)
            .collect();
        let proxies: Vec<_> = detections
            .iter()
            .filter(|d| d.class == ClientClass::SuspectedProxy)
            .collect();
        assert_eq!(spiders.len(), 1, "{detections:?}");
        assert_eq!(spiders[0].addr, log.truth.spiders[0]);
        assert!(
            spiders[0].cluster_share > 0.8,
            "{}",
            spiders[0].cluster_share
        );
        assert_eq!(proxies.len(), 1, "{detections:?}");
        assert_eq!(proxies[0].addr, log.truth.proxies[0]);
        assert!(proxies[0].unique_uas >= 4);
        // The proxy mimics the log's arrival shape; the spider does not.
        assert!(proxies[0].arrival_correlation > spiders[0].arrival_correlation);
    }

    #[test]
    fn no_false_positives_without_anomalies() {
        let u = Universe::generate(UniverseConfig::small(7));
        let spec = LogSpec::tiny("clean", 9);
        let log = generate(&u, &spec);
        let clustering = Clustering::by(log.hits(), Assigner::Simple24);
        let detections = detect(&log, &clustering, &AnomalyConfig::default());
        assert!(detections.is_empty(), "{detections:?}");
    }

    #[test]
    fn fig9_and_fig10_series() {
        let (u, log) = setup();
        let merged = netclust_netgen::standard_merged(&u, 0);
        let clustering = Clustering::by(log.hits(), Assigner::NetworkAware(&merged.compile()));
        let spider = log.truth.spiders[0];
        let spider_u32 = u32::from(spider);
        // Fig 9(c): spider histogram is a burst — at most 7 nonzero hours.
        let spider_hist = hourly_histogram(&log, |r| r.client == spider_u32);
        let nonzero = spider_hist.iter().filter(|&&x| x > 0).count();
        assert!(nonzero <= 7, "spider hours {nonzero}");
        // Whole-log histogram covers many hours.
        let log_hist = hourly_histogram(&log, |_| true);
        assert!(log_hist.iter().filter(|&&x| x > 0).count() > 12);
        // Fig 10: the spider's cluster distribution is dominated by rank 0.
        let dist = cluster_request_distribution(&clustering, spider);
        assert!(dist.len() >= 2);
        assert_eq!(dist[0], 12_000);
        // The spider dominates its cluster (the Sun spider issued 99.79 %;
        // companions here are ordinary heavy-tailed clients).
        let total: u64 = dist.iter().sum();
        assert!(
            dist[0] as f64 / total as f64 > 0.75,
            "share {}",
            dist[0] as f64 / total as f64
        );
    }

    #[test]
    fn strip_clients_removes_only_them() {
        let (_, log) = setup();
        let spider = log.truth.spiders[0];
        let stripped = strip_clients(&log, &[spider]);
        assert!(stripped
            .requests
            .iter()
            .all(|r| r.client != u32::from(spider)));
        assert_eq!(
            stripped.requests.len(),
            log.requests.len()
                - log
                    .requests
                    .iter()
                    .filter(|r| r.client == u32::from(spider))
                    .count()
        );
    }
}
