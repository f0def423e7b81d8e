//! Second-level clustering: grouping client clusters into *network
//! clusters* (§3.6).
//!
//! "After identifying client clusters based on the BGP routing table
//! information, we can further cluster nearby client clusters into network
//! clusters. We use traceroute to do the higher level clustering" — run
//! traceroute on `r ≥ 1` random clients per cluster and suffix-match the
//! path *toward* each destination network (i.e. excluding the final
//! organization-gateway hop, so clusters behind the same upstream group
//! together). Useful for selective content distribution, proxy placement
//! and load balancing.

#![deny(clippy::iter_over_hash_type, clippy::disallowed_methods)]

use netclust_core::Clustering;
use netclust_netgen::{stream_rng, Universe};
use netclust_probe::Traceroute;
use rand::seq::SliceRandom;
use std::collections::HashMap;

/// A group of client clusters sharing upstream network infrastructure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetworkCluster {
    /// The shared upstream path suffix (router names, joined).
    pub key: String,
    /// Indices into `Clustering::clusters`.
    pub members: Vec<usize>,
    /// Total requests across member clusters.
    pub requests: u64,
    /// Total clients across member clusters.
    pub clients: u64,
}

/// Groups client clusters by the upstream path suffix of `r` sampled
/// clients each. `suffix_len` hops are compared after dropping the final
/// (organization-local) hop; the paper's choice corresponds to
/// `suffix_len = 2`. Clusters whose samples disagree are grouped by their
/// majority suffix.
pub fn network_clusters(
    universe: &Universe,
    clustering: &Clustering,
    r: usize,
    suffix_len: usize,
    seed: u64,
) -> Vec<NetworkCluster> {
    let mut tracer = Traceroute::optimized(universe);
    let mut rng = stream_rng(seed, &[0x2E7]);
    let mut groups: HashMap<String, NetworkCluster> = HashMap::new();
    for (idx, cluster) in clustering.clusters.iter().enumerate() {
        // A memberless cluster has nothing to traceroute; skipping it keeps
        // the empty suffix key from minting a bogus "" network cluster.
        if clustering.members(cluster).is_empty() {
            continue;
        }
        let mut sample: Vec<std::net::Ipv4Addr> =
            clustering.members(cluster).iter().map(|c| c.addr).collect();
        sample.shuffle(&mut rng);
        sample.truncate(r.max(1));
        // Majority vote over sampled upstream suffixes.
        let mut votes: HashMap<String, usize> = HashMap::new();
        for addr in sample {
            let outcome = tracer.trace(addr);
            let hops = outcome.hops();
            // Drop the final org-gateway hop; suffix-match what remains.
            let upstream = &hops[..hops.len().saturating_sub(1)];
            let start = upstream.len().saturating_sub(suffix_len);
            let key: String = upstream[start..]
                .iter()
                .map(|h| h.name.as_str())
                .collect::<Vec<_>>()
                .join(">");
            *votes.entry(key).or_default() += 1;
        }
        // max_by with a total (count, key) tie-break: iteration order
        // cannot change the winner.
        let key = votes
            .into_iter()
            .max_by(|a, b| a.1.cmp(&b.1).then(a.0.cmp(&b.0)))
            .map(|(k, _)| k)
            .unwrap_or_default();
        let entry = groups.entry(key.clone()).or_insert(NetworkCluster {
            key,
            members: Vec::new(),
            requests: 0,
            clients: 0,
        });
        entry.members.push(idx);
        entry.requests += cluster.requests;
        entry.clients += cluster.client_count() as u64;
    }
    #[allow(clippy::disallowed_methods, reason = "sorted under a total order on the next line.")]
    let mut out: Vec<NetworkCluster> = groups.into_values().collect();
    out.sort_by(|a, b| b.requests.cmp(&a.requests).then(a.key.cmp(&b.key)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use netclust_core::Assigner;
    use netclust_netgen::{generate, LogSpec, UniverseConfig};

    #[test]
    fn groups_clusters_by_upstream() {
        let u = Universe::generate(UniverseConfig::small(7));
        let log = generate(&u, &LogSpec::tiny("nc", 23));
        let merged = netclust_netgen::standard_merged(&u, 0);
        let clustering = Clustering::by(log.hits(), Assigner::NetworkAware(&merged.compile()));
        let nets = network_clusters(&u, &clustering, 2, 2, 0xAB);
        // Grouping is a partition of the clusters.
        let total: usize = nets.iter().map(|n| n.members.len()).sum();
        assert_eq!(total, clustering.clusters.len());
        // Second-level clustering is strictly coarser (or equal).
        assert!(nets.len() <= clustering.clusters.len());
        // Orgs of one AS share a border router, so some group must hold
        // several clusters.
        assert!(
            nets.iter().any(|n| n.members.len() > 1),
            "expected at least one multi-cluster group"
        );
        // Sorted by requests descending.
        assert!(nets.windows(2).all(|w| w[0].requests >= w[1].requests));
        // Aggregates add up.
        let req_total: u64 = nets.iter().map(|n| n.requests).sum();
        let expect: u64 = clustering.clusters.iter().map(|c| c.requests).sum();
        assert_eq!(req_total, expect);
    }

    #[test]
    fn same_as_clusters_share_group() {
        let u = Universe::generate(UniverseConfig::small(9));
        let log = generate(&u, &LogSpec::tiny("nc2", 29));
        let merged = netclust_netgen::standard_merged(&u, 0);
        let clustering = Clustering::by(log.hits(), Assigner::NetworkAware(&merged.compile()));
        let nets = network_clusters(&u, &clustering, 1, 2, 0xCD);
        // For every group with >1 member, all pure members' orgs must share
        // an AS (their upstream border router is per-AS).
        for group in nets.iter().filter(|g| g.members.len() > 1) {
            let ases: std::collections::BTreeSet<u32> = group
                .members
                .iter()
                .filter_map(|&i| u.owner(clustering.members(&clustering.clusters[i])[0].addr))
                .map(|org| u.org(org).as_id)
                .collect();
            assert_eq!(ases.len(), 1, "group {} spans ASes {ases:?}", group.key);
        }
    }

    #[test]
    fn empty_clusters_are_skipped() {
        let u = Universe::generate(UniverseConfig::small(7));
        let log = generate(&u, &LogSpec::tiny("nc", 23));
        let merged = netclust_netgen::standard_merged(&u, 0);
        let mut clustering = Clustering::by(log.hits(), Assigner::NetworkAware(&merged.compile()));
        let baseline = network_clusters(&u, &clustering, 2, 2, 0xAB);
        // Splice in a memberless cluster; it must neither join a group nor
        // mint a bogus ""-keyed network cluster.
        clustering.clusters.push(netclust_core::Cluster {
            prefix: "203.0.113.0/24".parse().unwrap(),
            start: 0,
            clients: 0,
            requests: 0,
            bytes: 0,
            unique_urls: 0,
        });
        let nets = network_clusters(&u, &clustering, 2, 2, 0xAB);
        assert!(nets.iter().all(|n| !n.key.is_empty()));
        let members: usize = nets.iter().map(|n| n.members.len()).sum();
        assert_eq!(members, clustering.clusters.len() - 1);
        assert_eq!(nets.len(), baseline.len());
    }

    #[test]
    fn deterministic() {
        let u = Universe::generate(UniverseConfig::small(7));
        let log = generate(&u, &LogSpec::tiny("nc", 23));
        let merged = netclust_netgen::standard_merged(&u, 0);
        let clustering = Clustering::by(log.hits(), Assigner::NetworkAware(&merged.compile()));
        let a = network_clusters(&u, &clustering, 2, 2, 1);
        let b = network_clusters(&u, &clustering, 2, 2, 1);
        assert_eq!(a, b);
    }
}
