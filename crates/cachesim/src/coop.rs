//! Cooperative proxy clusters (§4.1.4, second placement approach).
//!
//! "Alternatively, we can place a proxy in front of each client cluster
//! and further group proxies into proxy clusters ... All proxies belonging
//! to the same AS and located geographically nearby will be grouped
//! together to form a proxy cluster" — proxies in a group *co-operate*:
//! a local miss is first looked up at the sibling proxies before going to
//! the origin. [`simulate_cooperative`] implements exactly that two-level
//! scheme; comparing against [`crate::simulate`] quantifies the benefit
//! of cooperation.

use std::collections::HashMap;

use netclust_core::Clustering;
use netclust_netgen::Log;

use crate::lru::{Entry, LruCache};
use crate::resource::ResourceModel;
use crate::sim::SimConfig;

/// Aggregate counters for a cooperative run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoopStats {
    /// Requests replayed through proxies.
    pub requests: u64,
    /// Served fresh from the client's own proxy.
    pub local_hits: u64,
    /// Local miss served by a sibling proxy in the same group.
    pub sibling_hits: u64,
    /// Fetched from the origin server.
    pub origin_fetches: u64,
    /// Bytes served locally / by siblings / by the origin.
    pub bytes_local: u64,
    /// Bytes served by sibling proxies.
    pub bytes_sibling: u64,
    /// Bytes fetched from the origin.
    pub bytes_origin: u64,
}

impl CoopStats {
    /// Requests kept off the origin (local + sibling) over all requests.
    pub fn total_hit_ratio(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            (self.local_hits + self.sibling_hits) as f64 / self.requests as f64
        }
    }

    /// Requests served by the client's own proxy only.
    pub fn local_hit_ratio(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.local_hits as f64 / self.requests as f64
        }
    }
}

/// Replays `log` through per-cluster proxies that cooperate within
/// `groups`: `groups[i]` lists the cluster indices forming proxy cluster
/// `i` (e.g. the members of a `netclust_experiments::NetworkCluster`). Cluster
/// indices absent from every group act standalone. Freshness uses the
/// same TTL semantics as the main simulator, simplified to whole-object
/// staleness (a stale copy counts as a miss at that proxy).
#[allow(
    clippy::cast_possible_truncation,
    reason = "cluster indices are u32 by design; group count <= cluster count < 2^32."
)]
pub fn simulate_cooperative(
    log: &Log,
    clustering: &Clustering,
    groups: &[Vec<usize>],
    config: &SimConfig,
) -> CoopStats {
    // cluster index -> group id (dense; standalone clusters get their own).
    let mut group_of: Vec<u32> = vec![u32::MAX; clustering.clusters.len()];
    for (gid, members) in groups.iter().enumerate() {
        for &m in members {
            group_of[m] = gid as u32;
        }
    }
    let mut next = groups.len() as u32;
    for g in group_of.iter_mut() {
        if *g == u32::MAX {
            *g = next;
            next += 1;
        }
    }
    // Siblings per group.
    let mut members_of: Vec<Vec<u32>> = vec![Vec::new(); next as usize];
    for (idx, &g) in group_of.iter().enumerate() {
        members_of[g as usize].push(idx as u32);
    }

    // Routing and caches.
    let mut route: HashMap<u32, u32> = HashMap::new();
    for (idx, cluster) in clustering.clusters.iter().enumerate() {
        for client in clustering.members(cluster) {
            route.insert(u32::from(client.addr), idx as u32);
        }
    }
    let mut caches: Vec<LruCache> = (0..clustering.clusters.len())
        .map(|_| LruCache::new(config.cache_bytes))
        .collect();
    let model: ResourceModel = config.model;
    let ttl = config.ttl_s;

    let fresh = |entry: &Entry, url: u32, now: u32| -> bool {
        now.saturating_sub(entry.validated_at) <= ttl && model.version(url, now) == entry.version
    };

    let mut stats = CoopStats::default();
    for r in &log.requests {
        let Some(&local) = route.get(&r.client) else {
            continue; // unclustered clients bypass the proxy tier
        };
        stats.requests += 1;
        // 1. Local proxy.
        if let Some(entry) = caches[local as usize].get(r.url) {
            if fresh(&entry, r.url, r.time) {
                stats.local_hits += 1;
                stats.bytes_local += entry.size as u64;
                continue;
            }
            caches[local as usize].remove(r.url);
        }
        // 2. Sibling proxies in the same group.
        let gid = group_of[local as usize];
        let mut sibling_hit = false;
        for &sib in &members_of[gid as usize] {
            if sib == local {
                continue;
            }
            if let Some(entry) = caches[sib as usize].peek(r.url) {
                if fresh(&entry, r.url, r.time) {
                    // Served by the sibling; the local proxy keeps a copy
                    // (cooperative fill), freshly validated as of now.
                    stats.sibling_hits += 1;
                    stats.bytes_sibling += entry.size as u64;
                    caches[local as usize].insert(
                        r.url,
                        Entry {
                            validated_at: r.time,
                            ..entry
                        },
                    );
                    sibling_hit = true;
                    break;
                }
            }
        }
        if sibling_hit {
            continue;
        }
        // 3. Origin fetch.
        stats.origin_fetches += 1;
        stats.bytes_origin += r.bytes as u64;
        caches[local as usize].insert(
            r.url,
            Entry {
                size: r.bytes,
                cached_at: r.time,
                validated_at: r.time,
                version: model.version(r.url, r.time),
            },
        );
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::simulate;
    use netclust_core::Assigner;
    use netclust_netgen::{generate, standard_merged, LogSpec, Universe, UniverseConfig};

    fn setup() -> (Log, Clustering) {
        let u = Universe::generate(UniverseConfig::small(7));
        let mut spec = LogSpec::tiny("coop", 31);
        spec.total_requests = 20_000;
        spec.num_urls = 400;
        let log = generate(&u, &spec);
        let merged = standard_merged(&u, 0);
        (
            log.clone(),
            Clustering::by(log.hits(), Assigner::NetworkAware(&merged.compile())),
        )
    }

    fn config() -> SimConfig {
        SimConfig {
            cache_bytes: u64::MAX,
            ttl_s: 3_600,
            model: ResourceModel::immutable(),
            min_url_accesses: 0,
        }
    }

    #[test]
    fn cooperation_beats_standalone() {
        let (log, clustering) = setup();
        // One big group: all proxies cooperate.
        let all: Vec<usize> = (0..clustering.clusters.len()).collect();
        let coop = simulate_cooperative(&log, &clustering, &[all], &config());
        let solo = simulate_cooperative(&log, &clustering, &[], &config());
        assert!(
            coop.sibling_hits > 0,
            "cooperation should produce sibling hits"
        );
        assert_eq!(solo.sibling_hits, 0, "standalone proxies have no siblings");
        assert!(coop.total_hit_ratio() > solo.total_hit_ratio());
        assert!(coop.origin_fetches < solo.origin_fetches);
        // Local behaviour is not worsened by cooperation (fills only add).
        assert!(coop.local_hit_ratio() >= solo.local_hit_ratio() - 1e-9);
    }

    #[test]
    fn standalone_matches_main_simulator_on_immutable_resources() {
        let (log, clustering) = setup();
        // A TTL longer than the log means neither simulator ever sees a
        // stale copy, so "hit" semantics coincide exactly.
        let mut cfg = config();
        cfg.ttl_s = log.duration_s + 1;
        let coop = simulate_cooperative(&log, &clustering, &[], &cfg);
        let main = simulate(&log, &clustering, &cfg);
        let main_hits: u64 = main.proxies.iter().map(|p| p.hits).sum();
        assert_eq!(coop.local_hits, main_hits);
        assert_eq!(
            main.proxies.iter().map(|p| p.validated_hits).sum::<u64>(),
            0
        );
        assert_eq!(
            coop.requests,
            main.proxies.iter().map(|p| p.requests).sum::<u64>()
        );
    }

    #[test]
    fn request_accounting_is_complete() {
        let (log, clustering) = setup();
        let groups: Vec<Vec<usize>> = (0..clustering.clusters.len())
            .collect::<Vec<usize>>()
            .chunks(5)
            .map(|c| c.to_vec())
            .collect();
        let stats = simulate_cooperative(&log, &clustering, &groups, &config());
        assert_eq!(
            stats.local_hits + stats.sibling_hits + stats.origin_fetches,
            stats.requests
        );
        let unclustered = clustering.unclustered();
        assert_eq!(
            stats.bytes_local + stats.bytes_sibling + stats.bytes_origin,
            // All clustered requests' bytes: those of every client the
            // clustering does not list as unclustered.
            log.requests
                .iter()
                .filter(
                    |r| (unclustered.binary_search_by_key(&r.client_addr(), |c| c.addr)).is_err()
                )
                .map(|r| r.bytes as u64)
                .sum::<u64>()
        );
    }

    #[test]
    fn ttl_expiry_counts_as_miss() {
        let (log, clustering) = setup();
        let mut cfg = config();
        cfg.ttl_s = 1; // everything stale immediately
        let stats = simulate_cooperative(&log, &clustering, &[], &cfg);
        // Nearly every request goes to the origin (same-second repeats may
        // still hit).
        assert!(
            stats.origin_fetches as f64 > stats.requests as f64 * 0.8,
            "{stats:?}"
        );
    }
}
