//! Client cluster identification (§3.2).
//!
//! Clustering takes the client addresses of a server log and a *cluster
//! assigner* — a function from address to identifying prefix — and produces
//! per-cluster aggregates. Three [`Assigner`]s reproduce the paper's methods:
//!
//! * **network-aware** (the contribution): longest-prefix match against the
//!   compiled merged BGP/registry table ([`Assigner::NetworkAware`]),
//! * **simple**: fixed `/24` grouping ([`Assigner::Simple24`]),
//! * **classful**: Class A/B/C boundaries ([`Assigner::Classful`]).
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
use netclust_rtable::{CompiledTable, DEFAULT_PREFETCH_DISTANCE};

use crate::kernel::{self, Shard};

/// How an address gets its identifying prefix: the paper's three methods,
/// each with the label its [`Clustering`] carries.
#[derive(Clone, Copy)]
pub enum Assigner<'t> {
    /// Longest-prefix match against a compiled merged table.
    NetworkAware(&'t CompiledTable),
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
            Assigner::NetworkAware(table) => table.lookup(addr),
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

/// One identified client cluster: its aggregates, and where its members
/// lie in its clustering's member run ([`Clustering::members`]).
#[derive(Debug, Clone, Default)]
pub struct Cluster {
    /// The identifying prefix (the shared longest match).
    pub prefix: Ipv4Net,
    /// Where its members start in the member run.
    pub start: u32,
    /// Number of member clients.
    pub clients: u32,
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
        self.clients as usize
    }
}

/// The result of clustering one log with one method.
#[derive(Debug, Clone)]
pub struct Clustering {
    /// Method label (for reports).
    pub method: String,
    /// Identified clusters, sorted by prefix.
    pub clusters: Vec<Cluster>,
    /// Total requests in the log (clustered + unclustered).
    pub total_requests: u64,
    /// Every client, grouped: each cluster's members in cluster order,
    /// each run in address order, then the unclustered in address order.
    pub(crate) members: Vec<ClientStats>,
    /// How many of `members` are clustered.
    pub(crate) clustered: usize,
}

impl Clustering {
    /// Clusters `hits`, one `(client, bytes, url)` triple per request
    /// (client in host order, url a dense id), with an arbitrary
    /// assigner. The assigner returns the identifying prefix for an
    /// address, or `None` when the address is unclusterable.
    ///
    /// One pass over the hits on the calling thread fills a single shard
    /// of the clustering kernel; clusters come out sorted by prefix,
    /// members and unclustered sorted by address. (A log too large for
    /// that is a raw file: [`IngestPipeline`](crate::IngestPipeline)
    /// drives the same kernel from several scan workers over its bytes.)
    // Waived in tests/source_contracts.rs (`pub-fn-caller`): the studies
    // cluster by assigners of their own through it (sessions,
    // self-correction, ongoing work), and `by` is waived itself; the
    // product's binaries cluster bytes through `IngestPipeline`.
    pub fn build<F>(
        hits: impl IntoIterator<Item = (u32, u32, u32)>,
        method: impl Into<String>,
        assign: F,
    ) -> Self
    where
        F: Fn(Ipv4Addr) -> Option<Ipv4Net> + Sync,
    {
        let mut shard = Shard::new();
        let mut n_urls = 0usize;
        for (client, bytes, url) in hits {
            let id = shard.add(client, u64::from(bytes));
            shard.pairs.push((id, url));
            n_urls = n_urls.max(url as usize + 1);
        }
        kernel::finish(
            method,
            &mut [shard],
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

    /// Clusters `hits` by one of the paper's three methods, labelled with
    /// it.
    // Waived in tests/source_contracts.rs (`pub-fn-caller`): the in-memory
    // entry of the studies, the tests and the examples; the product's
    // binaries cluster bytes through `IngestPipeline`.
    pub fn by(hits: impl IntoIterator<Item = (u32, u32, u32)>, how: Assigner<'_>) -> Self {
        Self::build(hits, how.label(), |addr| how.net_for(u32::from(addr)))
    }

    /// Number of identified clusters (excluding unclustered singletons).
    pub fn len(&self) -> usize {
        self.clusters.len()
    }

    /// `true` when no clusters were identified.
    pub fn is_empty(&self) -> bool {
        self.clusters.is_empty()
    }

    /// The members of `cluster`, one of [`clusters`](Self::clusters), in
    /// address order (none for a cluster of no client).
    pub fn members(&self, cluster: &Cluster) -> &[ClientStats] {
        let start = cluster.start as usize;
        (self.members.get(start..start + cluster.client_count())).unwrap_or_default()
    }

    /// Clients that matched no prefix, with their stats, in address order.
    pub fn unclustered(&self) -> &[ClientStats] {
        self.members.get(self.clustered..).unwrap_or_default()
    }

    /// Total clients (clustered + unclustered).
    pub fn client_count(&self) -> usize {
        self.members.len()
    }

    /// Fraction of clients that were clustered — the paper's headline
    /// 99.9 % coverage metric.
    pub fn coverage(&self) -> f64 {
        let total = self.client_count();
        if total == 0 {
            return 0.0;
        }
        self.clustered as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netclust_rtable::{MergedTable, RoutingTable, TableKind};

    /// A hand-built log's `(client, bytes, url)` hits: 4 clients in
    /// 12.65.128.0/19, 2 in 24.48.2.0/23, 1 unclusterable.
    fn sample_log() -> Vec<(u32, u32, u32)> {
        let clients = [
            "12.65.147.94",
            "12.65.147.149",
            "12.65.146.207",
            "12.65.144.247",
            "24.48.3.87",
            "24.48.2.166",
            "99.1.1.1",
        ];
        let mut hits = Vec::new();
        for (i, c) in clients.iter().enumerate() {
            let addr: Ipv4Addr = c.parse().unwrap();
            // Client i issues i+1 requests to URL i % 3.
            hits.extend(std::iter::repeat_n(
                (u32::from(addr), 100, (i % 3) as u32),
                i + 1,
            ));
        }
        hits
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
        let clustering = Clustering::by(sample_log(), Assigner::NetworkAware(&merged().compile()));
        assert_eq!(clustering.len(), 2);
        let c0 = &clustering.clusters[0];
        assert_eq!(c0.prefix.to_string(), "12.65.128.0/19");
        assert_eq!(c0.client_count(), 4);
        let c1 = &clustering.clusters[1];
        assert_eq!(c1.prefix.to_string(), "24.48.2.0/23");
        assert_eq!(c1.client_count(), 2);
        assert_eq!(clustering.unclustered().len(), 1);
        assert_eq!(clustering.unclustered()[0].addr.to_string(), "99.1.1.1");
        // Coverage: 6 of 7 clients.
        assert!((clustering.coverage() - 6.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn aggregates_are_consistent() {
        let log = sample_log();
        let clustering = Clustering::by(
            log.iter().copied(),
            Assigner::NetworkAware(&merged().compile()),
        );
        let total: u64 = clustering.clusters.iter().map(|c| c.requests).sum::<u64>()
            + clustering
                .unclustered()
                .iter()
                .map(|c| c.requests)
                .sum::<u64>();
        assert_eq!(total, log.len() as u64);
        assert_eq!(clustering.total_requests, log.len() as u64);
        // Clients 1..=4 issue 1+2+3+4 = 10 requests in the first cluster.
        assert_eq!(clustering.clusters[0].requests, 10);
        assert_eq!(clustering.clusters[0].bytes, 1000);
        assert_eq!(clustering.client_count(), 7);
    }

    #[test]
    fn unique_urls_per_cluster() {
        let clustering = Clustering::by(sample_log(), Assigner::NetworkAware(&merged().compile()));
        // First cluster: clients 0-3 access urls {0, 1, 2, 0} → 3 unique.
        assert_eq!(clustering.clusters[0].unique_urls, 3);
        // Second cluster: clients 4,5 access urls {1, 2} → 2 unique.
        assert_eq!(clustering.clusters[1].unique_urls, 2);
    }

    #[test]
    fn simple24_splits_differently() {
        let simple = Clustering::by(sample_log(), Assigner::Simple24);
        // 12.65.147.x, 12.65.146.x, 12.65.144.x → three /24s;
        // 24.48.3.x vs 24.48.2.x → two /24s; 99.1.1.1 → its own.
        assert_eq!(simple.len(), 6);
        assert!(simple.unclustered().is_empty());
        let aware = Clustering::by(sample_log(), Assigner::NetworkAware(&merged().compile()));
        assert!(simple.len() > aware.len());
    }

    #[test]
    fn classful_merges_by_class() {
        let classful = Clustering::by(sample_log(), Assigner::Classful);
        // 12.x → Class A 12.0.0.0/8; 24.x → 24.0.0.0/8; 99.x → 99.0.0.0/8.
        assert_eq!(classful.len(), 3);
        assert_eq!(classful.clusters[0].prefix.to_string(), "12.0.0.0/8");
        assert_eq!(classful.clusters[0].client_count(), 4);
    }

    #[test]
    fn members_are_slices_of_one_grouped_run() {
        let clustering = Clustering::by(sample_log(), Assigner::NetworkAware(&merged().compile()));
        let addrs = |members: &[ClientStats]| -> Vec<String> {
            members.iter().map(|c| c.addr.to_string()).collect()
        };
        let [c0, c1] = &clustering.clusters[..] else {
            panic!("two clusters")
        };
        assert_eq!(
            addrs(clustering.members(c0)),
            [
                "12.65.144.247",
                "12.65.146.207",
                "12.65.147.94",
                "12.65.147.149"
            ]
        );
        assert_eq!(addrs(clustering.members(c1)), ["24.48.2.166", "24.48.3.87"]);
        assert_eq!((c0.start, c1.start), (0, 4));
        // Client 4 (24.48.3.87) issued 5 requests, client 5 (24.48.2.166) 6.
        let requests: Vec<u64> = clustering.members(c1).iter().map(|c| c.requests).collect();
        assert_eq!(requests, [6, 5]);
        assert_eq!(addrs(clustering.unclustered()), ["99.1.1.1"]);
        // A cluster of no client has no members, wherever it says they start.
        let memberless = Cluster {
            start: 99,
            clients: 0,
            ..c0.clone()
        };
        assert!(clustering.members(&memberless).is_empty());
    }

    #[test]
    fn nested_prefixes_regroup_the_address_order() {
        // 10.1.0.0/16 inside 10.0.0.0/8: the /8's members straddle the
        // /16's in address order, and an unclustered client sits between.
        let table = MergedTable::merge([&RoutingTable::new(
            "T",
            "d0",
            TableKind::Bgp,
            vec![
                "10.0.0.0/8".parse().unwrap(),
                "10.1.0.0/16".parse().unwrap(),
            ],
        )])
        .compile();
        let mut log = sample_log();
        for (r, addr) in log.iter_mut().zip([
            "10.0.0.1", "10.1.0.1", "10.1.0.1", "10.2.0.1", "10.2.0.1", "10.2.0.1", "9.9.9.9",
            "10.1.0.2", "11.0.0.1",
        ]) {
            r.0 = u32::from(addr.parse::<Ipv4Addr>().unwrap());
        }
        log.truncate(9);
        let clustering = Clustering::by(log, Assigner::NetworkAware(&table));
        let groups: Vec<(String, Vec<String>)> = (clustering.clusters.iter())
            .map(|c| {
                let members = clustering.members(c).iter().map(|m| m.addr.to_string());
                (c.prefix.to_string(), members.collect())
            })
            .collect();
        assert_eq!(
            groups,
            [
                (
                    "10.0.0.0/8".into(),
                    vec!["10.0.0.1".into(), "10.2.0.1".into()]
                ),
                (
                    "10.1.0.0/16".into(),
                    vec!["10.1.0.1".into(), "10.1.0.2".into()]
                ),
            ]
        );
        let unclustered: Vec<String> = (clustering.unclustered().iter())
            .map(|c| c.addr.to_string())
            .collect();
        assert_eq!(unclustered, ["9.9.9.9", "11.0.0.1"]);
        assert_eq!(clustering.clusters[0].requests, 4);
        assert_eq!(clustering.clusters[1].requests, 3);
        assert_eq!(clustering.client_count(), 6);
    }

    #[test]
    fn largest_and_busiest() {
        let clustering = Clustering::by(sample_log(), Assigner::NetworkAware(&merged().compile()));
        let largest = clustering.clusters.iter().map(|c| c.client_count()).max();
        assert_eq!(largest, Some(4));
        assert_eq!(clustering.top(1)[0].requests, 11); // clients 5,6: 5+6
    }

    #[test]
    fn empty_log() {
        let clustering = Clustering::by([], Assigner::Simple24);
        assert!(clustering.is_empty());
        assert_eq!(clustering.coverage(), 0.0);
    }
}
