//! Client cluster identification (§3.2).
//!
//! Clustering takes the client addresses of a server log and a *cluster
//! assigner* — a function from address to identifying prefix — and produces
//! per-cluster aggregates. Three [`Assigner`]s reproduce the paper's methods:
//!
//! * **network-aware** (the contribution): longest-prefix match against the
//!   merged BGP/registry table ([`Clustering::network_aware`]),
//! * **simple**: fixed `/24` grouping ([`Clustering::simple24`]),
//! * **classful**: Class A/B/C boundaries ([`Clustering::classful`]).
//!
//! Clients whose address matches no table entry are *unclustered* — the
//! paper reports ≈0.1 % of clients — and kept separately for the
//! self-correction stage to absorb (§3.5).

#![deny(clippy::iter_over_hash_type, clippy::disallowed_methods)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use std::net::Ipv4Addr;

use netclust_obs::Obs;
use netclust_prefix::{classful_network, Ipv4Net};
use netclust_rtable::{CompiledMerged, MergedTable, DEFAULT_PREFETCH_DISTANCE};
use netclust_weblog::Log;

use crate::fx::FxHashMap;
use crate::kernel::{self, Shard};

/// How an address gets its identifying prefix: the paper's three methods,
/// each with the label its [`Clustering`] carries.
#[derive(Clone, Copy)]
pub enum Assigner<'t> {
    /// Longest-prefix match against a compiled merged table.
    NetworkAware(&'t CompiledMerged),
    /// The simple approach of §2: shared first 24 bits.
    Simple24,
    /// The classful baseline of §2: Class A/B/C network boundaries
    /// (multicast/reserved space is unclusterable).
    Classful,
}

impl Assigner<'_> {
    /// The method label of a clustering made this way.
    pub fn label(&self) -> &'static str {
        match self {
            Assigner::NetworkAware(_) => "network-aware",
            Assigner::Simple24 => "simple-24",
            Assigner::Classful => "classful",
        }
    }

    /// The identifying prefix of `addr`, `None` when it is unclusterable.
    pub fn net_for(&self, addr: u32) -> Option<Ipv4Net> {
        match self {
            Assigner::NetworkAware(table) => table.net_for_u32(addr),
            // 24 <= 32, so this is always `Some`.
            Assigner::Simple24 => Ipv4Net::new(addr, 24).ok(),
            Assigner::Classful => classful_network(Ipv4Addr::from(addr)),
        }
    }

    /// [`net_for`](Self::net_for) over a slice, a table's in one sweep.
    pub(crate) fn net_for_slice(&self, addrs: &[u32], out: &mut [Option<Ipv4Net>]) {
        if let Assigner::NetworkAware(table) = self {
            return table.net_for_slice(addrs, out, DEFAULT_PREFETCH_DISTANCE);
        }
        for (&addr, slot) in addrs.iter().zip(out) {
            *slot = self.net_for(addr);
        }
    }
}

/// Per-client aggregates inside a cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientStats {
    /// The client address.
    pub addr: Ipv4Addr,
    /// Requests this client issued.
    pub requests: u64,
    /// Total response bytes it received.
    pub bytes: u64,
}

/// One identified client cluster.
#[derive(Debug, Clone)]
pub struct Cluster {
    /// The identifying prefix (the shared longest match).
    pub prefix: Ipv4Net,
    /// Member clients, sorted by address.
    pub clients: Vec<ClientStats>,
    /// Total requests issued from within the cluster.
    pub requests: u64,
    /// Total response bytes.
    pub bytes: u64,
    /// Distinct URLs accessed from within the cluster.
    pub unique_urls: u32,
}

impl Cluster {
    /// Number of clients.
    pub fn client_count(&self) -> usize {
        self.clients.len()
    }
}

/// The result of clustering one log with one method.
#[derive(Debug, Clone)]
pub struct Clustering {
    /// Method label (for reports).
    pub method: String,
    /// Identified clusters, sorted by prefix.
    pub clusters: Vec<Cluster>,
    /// Clients that matched no prefix, with their stats.
    pub unclustered: Vec<ClientStats>,
    /// Total requests in the log (clustered + unclustered).
    pub total_requests: u64,
    /// Client address → index into `clusters`.
    index: FxHashMap<u32, u32>,
}

impl Clustering {
    /// Clusters `log` with an arbitrary assigner. The assigner returns the
    /// identifying prefix for an address, or `None` when the address is
    /// unclusterable.
    ///
    /// One pass over the requests on the calling thread fills a single
    /// shard of the clustering kernel; clusters come out sorted by prefix,
    /// clients and unclustered sorted by address. (Logs too large for that
    /// are raw files: [`IngestPipeline`](crate::IngestPipeline) drives the
    /// same kernel from several scan workers without building a `Log`.)
    pub fn build<F>(log: &Log, method: impl Into<String>, assign: F) -> Self
    where
        F: Fn(Ipv4Addr) -> Option<Ipv4Net> + Sync,
    {
        let mut shard = Shard::new(1);
        let mut n_urls = 0usize;
        for r in &log.requests {
            let id = shard.add(r.client, r.bytes as u64);
            shard.pairs.push((id, r.url));
            n_urls = n_urls.max(r.url as usize + 1);
        }
        kernel::finish(
            method,
            &[shard],
            1,
            &|addrs: &[u32], out: &mut [Option<Ipv4Net>]| {
                for (&addr, slot) in addrs.iter().zip(out) {
                    *slot = assign(Ipv4Addr::from(addr));
                }
            },
            (n_urls, &[]),
            &Obs::disabled(),
        )
    }

    /// Materializes the final structure from address-sorted per-client
    /// stats and their prefix assignments (`clients[i]` pairs with
    /// `assignments[i]`): clusters sorted by prefix, member/unclustered
    /// lists in client order, `unique_urls` left at 0 for the caller to
    /// fill.
    pub(crate) fn from_assignments(
        method: impl Into<String>,
        clients: Vec<ClientStats>,
        assignments: Vec<Option<Ipv4Net>>,
        total_requests: u64,
    ) -> Self {
        debug_assert_eq!(clients.len(), assignments.len());
        let mut by_prefix: FxHashMap<Ipv4Net, Vec<ClientStats>> = FxHashMap::default();
        let mut unclustered = Vec::new();
        for (stats, prefix) in clients.iter().zip(&assignments) {
            match prefix {
                Some(prefix) => by_prefix.entry(*prefix).or_default().push(*stats),
                None => unclustered.push(*stats),
            }
        }
        // `clients` arrives address-sorted, so per-cluster member lists and
        // `unclustered` inherit that order without re-sorting.

        // Materialize clusters, sorted by prefix.
        #[allow(clippy::disallowed_methods, reason = "keys are collected and sorted before use.")]
        let mut prefixes: Vec<Ipv4Net> = by_prefix.keys().copied().collect();
        prefixes.sort();
        let mut clusters = Vec::with_capacity(prefixes.len());
        let mut index = FxHashMap::with_capacity_and_hasher(clients.len(), Default::default());
        for prefix in prefixes {
            #[allow(
                clippy::expect_used,
                reason = "`prefix` was drawn from `by_prefix.keys()` just above, so the entry must exist."
            )]
            let clients = by_prefix.remove(&prefix).expect("key exists");
            let requests = clients.iter().map(|c| c.requests).sum();
            let bytes = clients.iter().map(|c| c.bytes).sum();
            #[allow(
                clippy::cast_possible_truncation,
                reason = "cluster ids are u32 by design; one cluster per routing prefix bounds the count well below 2^32."
            )]
            let idx = clusters.len() as u32;
            for c in &clients {
                index.insert(u32::from(c.addr), idx);
            }
            clusters.push(Cluster {
                prefix,
                clients,
                requests,
                bytes,
                unique_urls: 0,
            });
        }

        Clustering {
            method: method.into(),
            clusters,
            unclustered,
            total_requests,
            index,
        }
    }

    /// Clusters a bare address/requests/bytes list — no log needed. Used
    /// for §3.6's *server clustering* of the destinations in a proxy log
    /// (unique URL counts are not available and stay 0).
    pub fn from_counts<F>(
        counts: &[(Ipv4Addr, u64, u64)],
        method: impl Into<String>,
        assign: F,
    ) -> Self
    where
        F: Fn(Ipv4Addr) -> Option<Ipv4Net>,
    {
        let mut clients: Vec<ClientStats> = counts
            .iter()
            .map(|&(addr, requests, bytes)| ClientStats {
                addr,
                requests,
                bytes,
            })
            .collect();
        clients.sort_by_key(|c| c.addr);
        let assignments = clients.iter().map(|c| assign(c.addr)).collect();
        let total_requests = clients.iter().map(|c| c.requests).sum();
        Self::from_assignments(method, clients, assignments, total_requests)
    }

    /// The paper's network-aware method: LPM against the merged table.
    ///
    /// The table is compiled first (see [`CompiledMerged`]), so
    /// per-address matching is one to three cache-resident array loads
    /// instead of a trie walk. Callers clustering many logs against
    /// one table should compile once and use
    /// [`network_aware_compiled`](Self::network_aware_compiled).
    pub fn network_aware(log: &Log, table: &MergedTable) -> Self {
        Self::network_aware_compiled(log, &table.compile())
    }

    /// [`network_aware`](Self::network_aware) against an already-compiled
    /// table.
    pub fn network_aware_compiled(log: &Log, table: &CompiledMerged) -> Self {
        Self::by(log, Assigner::NetworkAware(table))
    }

    /// The simple approach of §2: shared first 24 bits.
    pub fn simple24(log: &Log) -> Self {
        Self::by(log, Assigner::Simple24)
    }

    /// The classful baseline of §2: Class A/B/C network boundaries
    /// (multicast/reserved space is unclusterable).
    pub fn classful(log: &Log) -> Self {
        Self::by(log, Assigner::Classful)
    }

    /// Clusters `log` by one of the paper's three methods, labelled with it.
    pub fn by(log: &Log, how: Assigner<'_>) -> Self {
        Self::build(log, how.label(), |addr| how.net_for(u32::from(addr)))
    }

    /// Number of identified clusters (excluding unclustered singletons).
    pub fn len(&self) -> usize {
        self.clusters.len()
    }

    /// `true` when no clusters were identified.
    pub fn is_empty(&self) -> bool {
        self.clusters.is_empty()
    }

    /// The cluster containing `addr`, if it was clustered.
    pub fn cluster_of(&self, addr: Ipv4Addr) -> Option<&Cluster> {
        self.clusters.get(self.cluster_index(addr)?)
    }

    /// Index into [`clusters`](Self::clusters) of the cluster containing
    /// `addr`, if it was clustered.
    pub fn cluster_index(&self, addr: Ipv4Addr) -> Option<usize> {
        self.index.get(&u32::from(addr)).map(|&i| i as usize)
    }

    /// Total clients (clustered + unclustered).
    pub fn client_count(&self) -> usize {
        self.index.len() + self.unclustered.len()
    }

    /// Fraction of clients that were clustered — the paper's headline
    /// 99.9 % coverage metric.
    pub fn coverage(&self) -> f64 {
        let total = self.client_count();
        if total == 0 {
            return 0.0;
        }
        self.index.len() as f64 / total as f64
    }

    /// Largest cluster by client count, if any.
    pub fn largest_by_clients(&self) -> Option<&Cluster> {
        self.clusters.iter().max_by_key(|c| c.client_count())
    }

    /// Busiest cluster by request count, if any.
    pub fn busiest(&self) -> Option<&Cluster> {
        self.clusters.iter().max_by_key(|c| c.requests)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netclust_rtable::{RoutingTable, TableKind};
    use netclust_weblog::{LogTruth, Request, UrlMeta};

    /// A hand-built log: 4 clients in 12.65.128.0/19, 2 in 24.48.2.0/23,
    /// 1 unclusterable.
    fn sample_log() -> Log {
        let clients = [
            "12.65.147.94",
            "12.65.147.149",
            "12.65.146.207",
            "12.65.144.247",
            "24.48.3.87",
            "24.48.2.166",
            "99.1.1.1",
        ];
        let mut requests = Vec::new();
        for (i, c) in clients.iter().enumerate() {
            let addr: Ipv4Addr = c.parse().unwrap();
            // Client i issues i+1 requests to URL i % 3.
            for j in 0..=i {
                requests.push(Request {
                    time: (i * 10 + j) as u32,
                    client: u32::from(addr),
                    url: (i % 3) as u32,
                    bytes: 100,
                    status: 200,
                    ua: 0,
                });
            }
        }
        requests.sort_by_key(|r| r.time);
        Log {
            name: "sample".into(),
            requests,
            urls: (0..3)
                .map(|i| UrlMeta {
                    path: format!("/{i}"),
                    size: 100,
                })
                .collect(),
            user_agents: vec!["UA".into()],
            start_time: 0,
            duration_s: 100,
            truth: LogTruth::default(),
        }
    }

    fn merged() -> MergedTable {
        let bgp = RoutingTable::new(
            "T",
            "d0",
            TableKind::Bgp,
            vec![
                "12.65.128.0/19".parse().unwrap(),
                "24.48.2.0/23".parse().unwrap(),
            ],
        );
        MergedTable::merge([&bgp])
    }

    #[test]
    fn paper_worked_example() {
        let log = sample_log();
        let clustering = Clustering::network_aware(&log, &merged());
        assert_eq!(clustering.len(), 2);
        let c0 = &clustering.clusters[0];
        assert_eq!(c0.prefix.to_string(), "12.65.128.0/19");
        assert_eq!(c0.client_count(), 4);
        let c1 = &clustering.clusters[1];
        assert_eq!(c1.prefix.to_string(), "24.48.2.0/23");
        assert_eq!(c1.client_count(), 2);
        assert_eq!(clustering.unclustered.len(), 1);
        assert_eq!(clustering.unclustered[0].addr.to_string(), "99.1.1.1");
        // Coverage: 6 of 7 clients.
        assert!((clustering.coverage() - 6.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn aggregates_are_consistent() {
        let log = sample_log();
        let clustering = Clustering::network_aware(&log, &merged());
        let total: u64 = clustering.clusters.iter().map(|c| c.requests).sum::<u64>()
            + clustering
                .unclustered
                .iter()
                .map(|c| c.requests)
                .sum::<u64>();
        assert_eq!(total, log.requests.len() as u64);
        assert_eq!(clustering.total_requests, log.requests.len() as u64);
        // Clients 1..=4 issue 1+2+3+4 = 10 requests in the first cluster.
        assert_eq!(clustering.clusters[0].requests, 10);
        assert_eq!(clustering.clusters[0].bytes, 1000);
        assert_eq!(clustering.client_count(), 7);
    }

    #[test]
    fn unique_urls_per_cluster() {
        let log = sample_log();
        let clustering = Clustering::network_aware(&log, &merged());
        // First cluster: clients 0-3 access urls {0, 1, 2, 0} → 3 unique.
        assert_eq!(clustering.clusters[0].unique_urls, 3);
        // Second cluster: clients 4,5 access urls {1, 2} → 2 unique.
        assert_eq!(clustering.clusters[1].unique_urls, 2);
    }

    #[test]
    fn simple24_splits_differently() {
        let log = sample_log();
        let simple = Clustering::simple24(&log);
        // 12.65.147.x, 12.65.146.x, 12.65.144.x → three /24s;
        // 24.48.3.x vs 24.48.2.x → two /24s; 99.1.1.1 → its own.
        assert_eq!(simple.len(), 6);
        assert!(simple.unclustered.is_empty());
        let aware = Clustering::network_aware(&log, &merged());
        assert!(simple.len() > aware.len());
    }

    #[test]
    fn classful_merges_by_class() {
        let log = sample_log();
        let classful = Clustering::classful(&log);
        // 12.x → Class A 12.0.0.0/8; 24.x → 24.0.0.0/8; 99.x → 99.0.0.0/8.
        assert_eq!(classful.len(), 3);
        assert_eq!(classful.clusters[0].prefix.to_string(), "12.0.0.0/8");
        assert_eq!(classful.clusters[0].client_count(), 4);
    }

    #[test]
    fn cluster_of_lookup() {
        let log = sample_log();
        let clustering = Clustering::network_aware(&log, &merged());
        let c = clustering
            .cluster_of("12.65.147.94".parse().unwrap())
            .unwrap();
        assert_eq!(c.prefix.to_string(), "12.65.128.0/19");
        assert!(clustering.cluster_of("99.1.1.1".parse().unwrap()).is_none());
        assert!(clustering.cluster_of("8.8.8.8".parse().unwrap()).is_none());
    }

    #[test]
    fn largest_and_busiest() {
        let log = sample_log();
        let clustering = Clustering::network_aware(&log, &merged());
        assert_eq!(clustering.largest_by_clients().unwrap().client_count(), 4);
        assert_eq!(clustering.busiest().unwrap().requests, 11); // clients 5,6: 5+6
    }

    #[test]
    fn from_counts_matches_build() {
        // Server clustering: addresses with request counts, no log.
        let counts: Vec<(Ipv4Addr, u64, u64)> = vec![
            ("12.65.147.94".parse().unwrap(), 10, 1000),
            ("12.65.146.207".parse().unwrap(), 5, 500),
            ("24.48.3.87".parse().unwrap(), 7, 700),
            ("99.1.1.1".parse().unwrap(), 1, 100),
        ];
        let table = merged();
        let clustering =
            Clustering::from_counts(&counts, "servers", |a| table.lookup(a).map(|(n, _)| n));
        assert_eq!(clustering.len(), 2);
        assert_eq!(clustering.clusters[0].requests, 15);
        assert_eq!(clustering.clusters[0].bytes, 1500);
        assert_eq!(clustering.unclustered.len(), 1);
        assert_eq!(clustering.total_requests, 23);
        assert_eq!(clustering.clusters[0].unique_urls, 0);
        assert!(clustering
            .cluster_of("24.48.3.87".parse().unwrap())
            .is_some());
    }

    #[test]
    fn empty_log() {
        let log = Log {
            name: "empty".into(),
            requests: vec![],
            urls: vec![],
            user_agents: vec!["UA".into()],
            start_time: 0,
            duration_s: 0,
            truth: LogTruth::default(),
        };
        let clustering = Clustering::simple24(&log);
        assert!(clustering.is_empty());
        assert_eq!(clustering.coverage(), 0.0);
        assert!(clustering.largest_by_clients().is_none());
    }
}
