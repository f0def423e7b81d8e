//! Client cluster identification (§3.2).
//!
//! Clustering takes the client addresses of a server log and a *cluster
//! assigner* — a function from address to identifying prefix — and produces
//! per-cluster aggregates. Three assigners reproduce the paper's methods:
//!
//! * **network-aware** (the contribution): longest-prefix match against the
//!   merged BGP/registry table ([`Clustering::network_aware`]),
//! * **simple**: fixed `/24` grouping ([`Clustering::simple24`]),
//! * **classful**: Class A/B/C boundaries ([`Clustering::classful`]).
//!
//! Clients whose address matches no table entry are *unclustered* — the
//! paper reports ≈0.1 % of clients — and kept separately for the
//! self-correction stage to absorb (§3.5).

use std::net::Ipv4Addr;

use crate::fx::FxHashMap;

use netclust_prefix::{classful_network, Ipv4Net};
use netclust_rtable::{CompiledMerged, MergedTable};
use netclust_weblog::{Log, Request};
use rayon::prelude::*;

/// Below this many log requests the serial path is used outright: thread
/// spawn plus shard-merge overhead exceeds the work itself.
const PARALLEL_MIN_REQUESTS: usize = 1 << 15;

/// Per-thread chunk granularity for request-sharded aggregation (the
/// sizing floor for [`should_shard`]).
pub(crate) const REQUEST_CHUNK: usize = 1 << 14;

/// Chunk size giving exactly one contiguous chunk per pool worker. The
/// span-scheduling pool hands each worker one contiguous span of the
/// chunk list, so finer chunks buy no extra parallelism — they only add
/// per-chunk collect/merge overhead (the `parallel_forced` regression).
fn span_chunk(len: usize) -> usize {
    len.div_ceil(rayon::current_num_threads().max(1)).max(1)
}

/// Number of address-range partitions for parallel shard merging given a
/// worker count — a power of two so the partition of a client is its top
/// address bits. One partition when there is nothing to merge in
/// parallel: partition bookkeeping is pure overhead on one worker.
pub(crate) fn merge_partitions_for(threads: usize) -> usize {
    if threads <= 1 {
        1
    } else {
        (threads * 2).next_power_of_two().clamp(4, 64)
    }
}

/// `true` when a log of `requests` requests should take the sharded
/// path: more than one worker thread, and enough work that every thread
/// gets several chunks — below that, shard bookkeeping costs more than
/// it buys and serial wins.
pub(crate) fn should_shard(requests: usize) -> bool {
    let threads = rayon::current_num_threads();
    threads > 1 && requests >= PARALLEL_MIN_REQUESTS.max(threads * REQUEST_CHUNK / 2)
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

    /// The member issuing the most requests, with its request share of the
    /// cluster (0.0 for an empty cluster). Drives spider/proxy heuristics.
    pub fn dominant_client(&self) -> Option<(Ipv4Addr, f64)> {
        let top = self.clients.iter().max_by_key(|c| c.requests)?;
        let share = if self.requests == 0 {
            0.0
        } else {
            top.requests as f64 / self.requests as f64
        };
        Some((top.addr, share))
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
    /// Large logs are sharded across threads
    /// ([`build_parallel`](Self::build_parallel)); small ones run serially.
    /// Both paths produce identical results — clusters sorted by prefix,
    /// clients and unclustered sorted by address — independent of thread
    /// count and scheduling.
    pub fn build<F>(log: &Log, method: impl Into<String>, assign: F) -> Self
    where
        F: Fn(Ipv4Addr) -> Option<Ipv4Net> + Sync,
    {
        if should_shard(log.requests.len()) {
            Self::build_sharded(log, method, assign)
        } else {
            Self::build_serial(log, method, assign)
        }
    }

    /// Single-threaded [`build`](Self::build). Exposed so callers (and the
    /// determinism tests) can pin the execution strategy.
    pub fn build_serial<F>(log: &Log, method: impl Into<String>, assign: F) -> Self
    where
        F: Fn(Ipv4Addr) -> Option<Ipv4Net>,
    {
        let clients = aggregate_serial(log);
        let assignments: Vec<Option<Ipv4Net>> = clients.iter().map(|c| assign(c.addr)).collect();
        Self::assemble(log, method, clients, assignments, false)
    }

    /// Multi-threaded [`build`](Self::build). On a single-threaded pool
    /// this delegates to [`build_serial`](Self::build_serial) — sharding
    /// there is pure overhead and can only lose — so `build_parallel` is
    /// never slower than the serial path. Use
    /// [`build_sharded`](Self::build_sharded) to force sharding.
    pub fn build_parallel<F>(log: &Log, method: impl Into<String>, assign: F) -> Self
    where
        F: Fn(Ipv4Addr) -> Option<Ipv4Net> + Sync,
    {
        if rayon::current_num_threads() <= 1 {
            Self::build_serial(log, method, assign)
        } else {
            Self::build_sharded(log, method, assign)
        }
    }

    /// Sharded [`build`](Self::build): requests are aggregated per client
    /// in per-chunk shards merged at the end, and cluster assignment fans
    /// out across threads — unconditionally, regardless of pool size (the
    /// determinism tests and benches pin the strategy this way). Final
    /// ordering is deterministic (see [`build`](Self::build)).
    pub fn build_sharded<F>(log: &Log, method: impl Into<String>, assign: F) -> Self
    where
        F: Fn(Ipv4Addr) -> Option<Ipv4Net> + Sync,
    {
        let clients = aggregate_parallel(log);
        let chunk = span_chunk(clients.len());
        // One span means one worker: skip the pool dispatch and the
        // intermediate per-chunk vectors — they are pure overhead.
        let assignments: Vec<Option<Ipv4Net>> = if chunk >= clients.len() {
            clients.iter().map(|c| assign(c.addr)).collect()
        } else {
            clients
                .par_chunks(chunk)
                .map(|chunk| chunk.iter().map(|c| assign(c.addr)).collect::<Vec<_>>())
                .collect::<Vec<_>>()
                .into_iter()
                .flatten()
                .collect()
        };
        Self::assemble(log, method, clients, assignments, true)
    }

    /// Shared tail of every build path: groups pre-aggregated,
    /// address-sorted clients by their assigned prefix and materializes the
    /// final sorted structure. `clients[i]` pairs with `assignments[i]`.
    fn assemble(
        log: &Log,
        method: impl Into<String>,
        clients: Vec<ClientStats>,
        assignments: Vec<Option<Ipv4Net>>,
        parallel: bool,
    ) -> Self {
        let mut out =
            Self::from_assignments(method, clients, assignments, log.requests.len() as u64);
        out.fill_unique_urls(log, parallel);
        out
    }

    /// Materializes the final structure from address-sorted per-client
    /// stats and their prefix assignments (`clients[i]` pairs with
    /// `assignments[i]`): clusters sorted by prefix, member/unclustered
    /// lists in client order, `unique_urls` left at 0 for the caller to
    /// fill. This is the shared tail of the log build paths and the fused
    /// ingest pipeline.
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
        // analyze:allow(determinism) keys are collected and sorted before use.
        let mut prefixes: Vec<Ipv4Net> = by_prefix.keys().copied().collect();
        prefixes.sort();
        let mut clusters = Vec::with_capacity(prefixes.len());
        let mut index = FxHashMap::with_capacity_and_hasher(clients.len(), Default::default());
        for prefix in prefixes {
            // analyze:allow(hot-path-transitive) `prefix` was drawn from
            // `by_prefix.keys()` just above, so the entry must exist.
            let clients = by_prefix.remove(&prefix).expect("key exists");
            let requests = clients.iter().map(|c| c.requests).sum();
            let bytes = clients.iter().map(|c| c.bytes).sum();
            // analyze:allow(cast-truncation) cluster ids are u32 by design;
            // one cluster per routing prefix bounds the count well below 2^32.
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

    /// Fills per-cluster `unique_urls` via sort-dedup over (cluster, url)
    /// pairs — bounded memory even for multi-million-request logs.
    fn fill_unique_urls(&mut self, log: &Log, parallel: bool) {
        let index = &self.index;
        // A single span would put the whole scan on one worker anyway;
        // take the serial branch and skip the pool round-trip.
        let parallel = parallel && span_chunk(log.requests.len()) < log.requests.len();
        let mut pairs: Vec<(u32, u32)> = if parallel {
            log.requests
                .par_chunks(span_chunk(log.requests.len()))
                .map(|chunk| {
                    chunk
                        .iter()
                        .filter_map(|r| index.get(&r.client).map(|&idx| (idx, r.url)))
                        .collect::<Vec<_>>()
                })
                .collect::<Vec<_>>()
                .into_iter()
                .flatten()
                .collect()
        } else {
            log.requests
                .iter()
                .filter_map(|r| index.get(&r.client).map(|&idx| (idx, r.url)))
                .collect()
        };
        pairs.sort_unstable();
        pairs.dedup();
        for (idx, _) in pairs {
            self.clusters[idx as usize].unique_urls += 1;
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
        let mut by_prefix: FxHashMap<Ipv4Net, Vec<ClientStats>> = FxHashMap::default();
        let mut unclustered = Vec::new();
        let mut total_requests = 0u64;
        for &(addr, requests, bytes) in counts {
            total_requests += requests;
            let stats = ClientStats {
                addr,
                requests,
                bytes,
            };
            match assign(addr) {
                Some(prefix) => by_prefix.entry(prefix).or_default().push(stats),
                None => unclustered.push(stats),
            }
        }
        unclustered.sort_by_key(|c| c.addr);
        // analyze:allow(determinism) keys are collected and sorted before use.
        let mut prefixes: Vec<Ipv4Net> = by_prefix.keys().copied().collect();
        prefixes.sort();
        let mut clusters = Vec::with_capacity(prefixes.len());
        let mut index = FxHashMap::default();
        for prefix in prefixes {
            let mut clients = by_prefix.remove(&prefix).expect("key exists");
            clients.sort_by_key(|c| c.addr);
            let requests = clients.iter().map(|c| c.requests).sum();
            let bytes = clients.iter().map(|c| c.bytes).sum();
            // analyze:allow(cast-truncation) cluster ids are u32 by design;
            // one cluster per routing prefix bounds the count well below 2^32.
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
    /// table: per-client aggregation shards across threads, then clients
    /// are assigned in batch LPM sweeps over the flat table.
    pub fn network_aware_compiled(log: &Log, table: &CompiledMerged) -> Self {
        let parallel = should_shard(log.requests.len());
        let clients = if parallel {
            aggregate_parallel(log)
        } else {
            aggregate_serial(log)
        };
        let addrs: Vec<u32> = clients.iter().map(|c| u32::from(c.addr)).collect();
        let assignments: Vec<Option<Ipv4Net>> = if parallel {
            addrs
                .par_chunks(span_chunk(addrs.len()))
                .map(|chunk| table.net_for_batch(chunk))
                .collect::<Vec<_>>()
                .into_iter()
                .flatten()
                .collect()
        } else {
            table.net_for_batch(&addrs)
        };
        Self::assemble(log, "network-aware", clients, assignments, parallel)
    }

    /// The simple approach of §2: shared first 24 bits.
    pub fn simple24(log: &Log) -> Self {
        Self::build(log, "simple-24", |addr| {
            Some(Ipv4Net::from_addr(addr, 24).expect("24 is a valid length"))
        })
    }

    /// The classful baseline of §2: Class A/B/C network boundaries
    /// (multicast/reserved space is unclusterable).
    pub fn classful(log: &Log) -> Self {
        Self::build(log, "classful", classful_network)
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
        self.cluster_index(addr).map(|i| &self.clusters[i])
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

/// Per-client aggregation, single-threaded: one hash-map pass over the
/// requests, collected sorted by client address.
fn aggregate_serial(log: &Log) -> Vec<ClientStats> {
    let mut per_client: FxHashMap<u32, (u64, u64)> = FxHashMap::default();
    for r in &log.requests {
        let e = per_client.entry(r.client).or_insert((0, 0));
        e.0 += 1;
        e.1 += r.bytes as u64;
    }
    finish_aggregation(per_client)
}

/// Per-client aggregation, sharded two ways: request chunks aggregate in
/// parallel into per-chunk maps split by client address range, then one
/// worker per address range merges its slice of every chunk. Summation is
/// order-independent and ranges concatenate in address order, so the
/// result is identical to [`aggregate_serial`].
///
/// Shard count and chunk granularity adapt to the pool and the input:
/// exactly one chunk per worker (the span-scheduling pool hands each
/// worker one contiguous span, so more chunks only add merge work) and
/// [`merge_partitions_for`] partitions. On one worker this collapses to a
/// single chunk and a single partition, where the merge pass is skipped
/// outright — the forced path then does the same work as the serial one
/// instead of paying shard bookkeeping it cannot amortize.
fn aggregate_parallel(log: &Log) -> Vec<ClientStats> {
    let threads = rayon::current_num_threads().max(1);
    let chunk = log.requests.len().div_ceil(threads).max(1);
    aggregate_sharded(log, merge_partitions_for(threads), chunk)
}

/// [`aggregate_parallel`] with an explicit partition count and chunk
/// size, so tests can exercise the multi-shard merge machinery that
/// adaptive sizing would collapse on a small pool.
pub(crate) fn aggregate_sharded(log: &Log, n_parts: usize, chunk: usize) -> Vec<ClientStats> {
    debug_assert!(n_parts.is_power_of_two());
    let shift = 32 - n_parts.trailing_zeros();
    let scan = |chunk: &[Request]| {
        let mut local: Vec<FxHashMap<u32, (u64, u64)>> = vec![FxHashMap::default(); n_parts];
        for r in chunk {
            // u64 shift: a single-partition plan passes shift == 32.
            let e = local[((r.client as u64) >> shift) as usize]
                .entry(r.client)
                .or_insert((0, 0));
            e.0 += 1;
            e.1 += r.bytes as u64;
        }
        local
    };
    // One chunk: scan inline — the pool dispatch buys nothing.
    let mut shards: Vec<Vec<FxHashMap<u32, (u64, u64)>>> = if chunk >= log.requests.len() {
        vec![scan(&log.requests)]
    } else {
        log.requests.par_chunks(chunk).map(scan).collect()
    };
    if shards.len() == 1 {
        // One chunk: its partition maps are already the global maps, and
        // partition runs concatenate in address order. No re-hash merge.
        let local = shards.pop().expect("one shard");
        return local.into_iter().flat_map(finish_aggregation).collect();
    }
    let parts: Vec<usize> = (0..n_parts).collect();
    let merged: Vec<Vec<ClientStats>> = parts
        .par_iter()
        .map(|&p| {
            let mut per_client: FxHashMap<u32, (u64, u64)> = FxHashMap::default();
            for shard in &shards {
                for (&client, &(requests, bytes)) in &shard[p] {
                    let e = per_client.entry(client).or_insert((0, 0));
                    e.0 += requests;
                    e.1 += bytes;
                }
            }
            finish_aggregation(per_client)
        })
        .collect();
    // Partition p holds exactly the clients whose top bits equal p, so the
    // per-partition sorted runs concatenate into global address order.
    merged.into_iter().flatten().collect()
}

pub(crate) fn finish_aggregation(per_client: FxHashMap<u32, (u64, u64)>) -> Vec<ClientStats> {
    // analyze:allow(determinism) map drained to a vec and sorted below.
    let mut clients: Vec<ClientStats> = per_client
        .into_iter()
        .map(|(client, (requests, bytes))| ClientStats {
            addr: Ipv4Addr::from(client),
            requests,
            bytes,
        })
        .collect();
    clients.sort_by_key(|c| c.addr);
    clients
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
    fn dominant_client() {
        let log = sample_log();
        let clustering = Clustering::network_aware(&log, &merged());
        // In cluster 0 client 3 (12.65.144.247) issues 4 of 10 requests.
        let (addr, share) = clustering.clusters[0].dominant_client().unwrap();
        assert_eq!(addr.to_string(), "12.65.144.247");
        assert!((share - 0.4).abs() < 1e-12);
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
    fn parallel_build_is_deterministic() {
        use netclust_netgen::{standard_merged, Universe, UniverseConfig};
        use netclust_weblog::{generate, LogSpec};

        let u = Universe::generate(UniverseConfig::small(11));
        let mut spec = LogSpec::tiny("det", 17);
        // Enough requests that the auto path would shard, with collisions
        // across chunk boundaries.
        spec.total_requests = 40_000;
        spec.target_clients = 300;
        let log = generate(&u, &spec);
        let merged = standard_merged(&u, 0);
        let compiled = merged.compile();

        let assign = |a: Ipv4Addr| compiled.net_for_u32(u32::from(a));
        let serial = Clustering::build_serial(&log, "m", assign);
        // Force sharding so the parallel machinery is exercised even on a
        // single-threaded pool (where build_parallel delegates to serial).
        let parallel = Clustering::build_sharded(&log, "m", assign);

        // Byte-identical orderings: same clusters in the same order, each
        // with identical member lists, and the same unclustered list.
        assert_eq!(serial.clusters.len(), parallel.clusters.len());
        for (s, p) in serial.clusters.iter().zip(&parallel.clusters) {
            assert_eq!(s.prefix, p.prefix);
            assert_eq!(s.clients, p.clients);
            assert_eq!(s.requests, p.requests);
            assert_eq!(s.bytes, p.bytes);
            assert_eq!(s.unique_urls, p.unique_urls);
        }
        assert_eq!(serial.unclustered, parallel.unclustered);
        assert_eq!(serial.total_requests, parallel.total_requests);

        // The auto-dispatching entry points agree with both.
        let auto = Clustering::build(&log, "m", assign);
        assert_eq!(auto.unclustered, serial.unclustered);
        assert_eq!(auto.clusters.len(), serial.clusters.len());
        let par = Clustering::build_parallel(&log, "m", assign);
        assert_eq!(par.unclustered, serial.unclustered);
        assert_eq!(par.clusters.len(), serial.clusters.len());
        let aware = Clustering::network_aware_compiled(&log, &compiled);
        assert_eq!(aware.clusters.len(), serial.clusters.len());
        for (a, s) in aware.clusters.iter().zip(&serial.clusters) {
            assert_eq!(a.prefix, s.prefix);
            assert_eq!(a.clients, s.clients);
        }
    }

    #[test]
    fn sharded_aggregation_matches_serial_across_plans() {
        use netclust_netgen::{Universe, UniverseConfig};
        use netclust_weblog::{generate, LogSpec};

        let u = Universe::generate(UniverseConfig::small(5));
        let mut spec = LogSpec::tiny("agg", 29);
        spec.total_requests = 10_000;
        spec.target_clients = 400;
        let log = generate(&u, &spec);
        let serial = aggregate_serial(&log);
        // Explicit plans force the multi-chunk, multi-partition merge even
        // on a single-worker pool, where adaptive sizing collapses it.
        for (n_parts, chunk) in [(1, usize::MAX), (4, 1 << 10), (16, 997), (64, 64)] {
            let sharded = aggregate_sharded(&log, n_parts, chunk.min(log.requests.len()));
            assert_eq!(sharded, serial, "n_parts={n_parts} chunk={chunk}");
        }
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
