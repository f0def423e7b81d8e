//! The clustering kernel: per-client sums → merge → prefix assignment →
//! [`Clustering`] → per-cluster unique URLs.
//!
//! Every route from requests to a [`Clustering`] drives this module: it
//! feeds requests into one or more [`Shard`]s ([`Shard::add`]) and hands
//! them to [`finish`]. [`Clustering::build`] fills one shard from a `Log`
//! on the calling thread; `IngestPipeline` fills one shard per scan
//! worker from raw CLF bytes. The result depends only on the multiset of
//! requests, never on how they were split across shards: client sums
//! commute, partition runs concatenate in address order, and unique-URL
//! counts are invariant under url-id relabeling.

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

use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault};
use std::net::Ipv4Addr;

use netclust_obs::Obs;
use netclust_prefix::Ipv4Net;
use netclust_rtable::Handle;

use crate::cluster::{ClientStats, Clustering};
use crate::fx::{FxHashMap, FxHasher};
use crate::ingest::for_spans;

/// Number of address-range partitions a shard splits its clients into
/// given a worker count — a power of two so the partition of a client is
/// its top address bits. One partition when there is nothing to merge in
/// parallel: partition bookkeeping is pure overhead on one worker.
pub(crate) fn merge_partitions_for(threads: usize) -> usize {
    if threads <= 1 {
        1
    } else {
        (threads * 2).next_power_of_two().clamp(4, 64)
    }
}

/// One client of a [`Shard`]: its address, its sums, and what the driver
/// keeps beside them — nothing for the batch drivers, the handle of the
/// table entry the address matched for the stream. One record, so a shard
/// grows one vector.
pub(crate) struct Client<T = ()> {
    pub(crate) addr: u32,
    pub(crate) requests: u64,
    pub(crate) bytes: u64,
    pub(crate) memo: T,
}

// A stream client costs what a batch client (`Client<()>`) does: its
// match's `u32` handle (`Handle::NONE` when no prefix covers it) sits in
// the padding after the address.
const _: () = assert!(std::mem::size_of::<Client<Handle>>() == 24);

/// One accumulator: clients interned to dense ids through small address →
/// id maps (partitioned by address range; one partition for a lone shard)
/// with one [`Client`] record each in a dense-indexed vector — the map
/// entry stays 8 bytes so the randomly-probed table fits cache — plus the
/// (dense client id, url id) pair of every request whose URL is counted.
/// `S` hashes the addresses: Fx for a run's transient shards, std's keyed
/// hasher for the daemon's long-lived one.
pub(crate) struct Shard<T = (), S = BuildHasherDefault<FxHasher>> {
    parts: Vec<HashMap<u32, u32, S>>,
    shift: u32,
    /// One record per client, indexed by the id [`add`](Self::add) returns.
    pub(crate) clients: Vec<Client<T>>,
    /// `(client id from `[`add`](Self::add)`, url id)`, one per counted
    /// request; url ids are shard-local unless [`finish`] is told otherwise.
    pub(crate) pairs: Vec<(u32, u32)>,
}

impl<T, S: BuildHasher + Default> Shard<T, S> {
    /// An empty shard over `n_parts` address partitions (a power of two;
    /// every shard of one run uses the same count).
    pub(crate) fn new(n_parts: usize) -> Self {
        debug_assert!(n_parts.is_power_of_two());
        Shard {
            parts: (0..n_parts).map(|_| HashMap::default()).collect(),
            shift: 32 - n_parts.trailing_zeros(),
            clients: Vec::new(),
            pairs: Vec::new(),
        }
    }

    // u64 shift: an unpartitioned shard has shift == 32.
    #[allow(clippy::cast_possible_truncation, reason = "addr >> shift < n_parts, a usize.")]
    fn part(&self, addr: u32) -> usize {
        ((addr as u64) >> self.shift) as usize
    }

    /// Counts `requests` requests totalling `bytes` from `addr` and returns
    /// the client's dense shard-local id; a client not seen before gets
    /// `memo()` beside its sums.
    #[inline]
    #[allow(clippy::cast_possible_truncation, reason = "dense client ids are u32 by design.")]
    pub(crate) fn add_many(
        &mut self,
        addr: u32,
        requests: u64,
        bytes: u64,
        memo: impl FnOnce() -> T,
    ) -> u32 {
        let part = self.part(addr);
        let clients = &mut self.clients;
        #[allow(clippy::indexing_slicing, reason = "part = addr >> shift < n_parts.")]
        let id = *self.parts[part].entry(addr).or_insert_with(|| {
            let id = clients.len() as u32;
            clients.push(Client {
                addr,
                requests: 0,
                bytes: 0,
                memo: memo(),
            });
            id
        });
        #[allow(clippy::indexing_slicing, reason = "id was handed out from clients.len().")]
        let c = &mut self.clients[id as usize];
        c.requests += requests;
        c.bytes += bytes;
        id
    }

    /// The record of `addr`, if it was ever added.
    pub(crate) fn get(&self, addr: u32) -> Option<&Client<T>> {
        let id = *self.parts.get(self.part(addr))?.get(&addr)?;
        self.clients.get(id as usize)
    }

    /// Bytes the client records fill: records × record size. Written, so
    /// resident; the vector's spare capacity is not touched and not
    /// counted.
    pub(crate) fn record_bytes(&self) -> usize {
        self.clients.len() * std::mem::size_of::<Client<T>>()
    }

    /// Bytes the address → id maps hold: each map's buckets (a power of
    /// two that its capacity is 7/8 of) × an 8-byte entry and a control
    /// byte. An estimate: std does not publish its hash table's layout, so
    /// this follows the one it has today.
    pub(crate) fn map_bytes(&self) -> usize {
        let buckets = |cap: usize| match cap {
            0 => 0,
            cap => (cap * 8).div_ceil(7).next_power_of_two(),
        };
        let entry = std::mem::size_of::<(u32, u32)>() + 1;
        (self.parts.iter())
            .map(|m| buckets(m.capacity()) * entry)
            .sum()
    }
}

impl Shard {
    /// Counts one request of `bytes` from `addr` and returns the client's
    /// dense shard-local id.
    #[inline]
    pub(crate) fn add(&mut self, addr: u32, bytes: u64) -> u32 {
        self.add_many(addr, 1, bytes, || ())
    }
}

/// Turns filled shards into a [`Clustering`] labelled `method`.
///
/// * **merge** — clients merge per address partition and the sorted
///   per-partition runs concatenate into global address order;
/// * **assign** — `assign(addrs, out)` fills `out[i]` with the identifying
///   prefix of `addrs[i]` (`None` = unclusterable); it is called on up to
///   `threads` disjoint spans concurrently;
/// * **assemble** — [`Clustering::from_assignments`];
/// * **unique URLs** — `urls` is `(n_urls, trans)`: distinct (cluster,
///   url) pairs are counted over a global url id space of size `n_urls`,
///   shard `s`'s local id `u` meaning global id `trans[s][u]`; an empty
///   `trans` says ids are already global.
///
/// `obs` receives the `aggregate` / `lpm` stage spans.
pub(crate) fn finish(
    method: impl Into<String>,
    shards: &[Shard],
    threads: usize,
    assign: &(impl Fn(&[u32], &mut [Option<Ipv4Net>]) + Sync),
    urls: (usize, &[Vec<u32>]),
    obs: &Obs,
) -> Clustering {
    let aggregate = obs.span("aggregate");
    let clients = merge_clients(shards, threads);
    drop(aggregate);

    let lpm = obs.span("lpm");
    let addrs: Vec<u32> = clients.iter().map(|c| u32::from(c.addr)).collect();
    let mut assignments: Vec<Option<Ipv4Net>> = vec![None; addrs.len()];
    #[allow(clippy::indexing_slicing, reason = "spans tile `assignments`, as long as `addrs`.")]
    for_spans(&mut assignments, threads, &|start, span| {
        assign(&addrs[start..start + span.len()], span);
    });
    drop(lpm);

    let _assemble = obs.span("aggregate");
    let total_requests: u64 = clients.iter().map(|c| c.requests).sum();
    let mut clustering = Clustering::from_assignments(method, clients, assignments, total_requests);
    let limits = (BITMAP_MAX_BITS, BITMAP_WINDOW_BITS);
    count_unique_urls(&mut clustering, shards, urls, threads, limits);
    clustering
}

/// Per-client sums across shards, sorted by address. With one shard its
/// records already are the sums; otherwise one worker per address
/// partition merges its slice of every shard — sums commute — and the
/// sorted runs concatenate into global address order (partition p holds
/// exactly the clients whose top bits equal p).
fn merge_clients(shards: &[Shard], threads: usize) -> Vec<ClientStats> {
    if let [only] = shards {
        return sorted_clients(only.clients.iter().map(|c| (c.addr, (c.requests, c.bytes))));
    }
    let n_parts = shards.first().map_or(0, |s| s.parts.len());
    let mut merged: Vec<Vec<ClientStats>> = Vec::new();
    merged.resize_with(n_parts, Vec::new);
    for_spans(&mut merged, threads, &|start, span| {
        for (off, slot) in span.iter_mut().enumerate() {
            let p = start + off;
            let mut per_client: FxHashMap<u32, (u64, u64)> = FxHashMap::default();
            for s in shards {
                #[allow(clippy::indexing_slicing, reason = "p < n_parts == s.parts.len().")]
                #[allow(
                    clippy::iter_over_hash_type,
                    reason = "sums commute; map drained to a vec and sorted below."
                )]
                for (&client, &id) in &s.parts[p] {
                    #[allow(
                        clippy::indexing_slicing,
                        reason = "id was handed out from clients.len()."
                    )]
                    let c = &s.clients[id as usize];
                    let e = per_client.entry(client).or_insert((0, 0));
                    e.0 += c.requests;
                    e.1 += c.bytes;
                }
            }
            *slot = sorted_clients(per_client);
        }
    });
    merged.into_iter().flatten().collect()
}

fn sorted_clients(sums: impl IntoIterator<Item = (u32, (u64, u64))>) -> Vec<ClientStats> {
    let mut clients: Vec<ClientStats> = sums
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

/// Bitmap dedup ceiling: above this many (cluster × url) bits the
/// unique-URL count falls back to sort-dedup (32 MiB of bitmap).
const BITMAP_MAX_BITS: u64 = 1 << 28;

/// Bitmap window size: 2²¹ bits = 256 KiB, small enough to stay
/// cache-resident while a bucket's keys scatter into it.
const BITMAP_WINDOW_BITS: u64 = 1 << 21;

/// Fills per-cluster `unique_urls`: shard-local client ids map to cluster
/// indices, url ids to global ones (equal ids ⇔ equal URLs, so counts are
/// invariant under the relabeling), and distinct (cluster, url) keys are
/// counted — in a bitmap when `clusters × urls` is small enough, else by
/// sort-dedup of packed keys. `(max_bits, window_bits)` are
/// ([`BITMAP_MAX_BITS`], [`BITMAP_WINDOW_BITS`]) outside tests, which
/// shrink them to reach every strategy on small inputs.
#[allow(clippy::cast_possible_truncation, reason = "cluster count < 2^32 (u32 ids by design).")]
fn count_unique_urls(
    clustering: &mut Clustering,
    shards: &[Shard],
    (n_urls, trans): (usize, &[Vec<u32>]),
    threads: usize,
    (max_bits, window_bits): (u64, u64),
) {
    let mut cluster_of: Vec<Vec<u32>> = vec![Vec::new(); shards.len()];
    for_spans(&mut cluster_of, threads, &|start, span| {
        for (slot, s) in span.iter_mut().zip(shards.iter().skip(start)) {
            *slot = (s.clients.iter())
                .map(|c| {
                    clustering
                        .cluster_index(Ipv4Addr::from(c.addr))
                        .map_or(u32::MAX, |i| i as u32)
                })
                .collect();
        }
    });
    // (cluster index, global url id) per pair; pairs of unclustered
    // clients drop out here.
    let keys = (shards.iter().zip(&cluster_of).enumerate()).flat_map(|(s, (shard, of))| {
        let tr = trans.get(s);
        shard.pairs.iter().filter_map(move |&(dense, url)| {
            #[allow(clippy::indexing_slicing, reason = "dense ids index clients == cluster_of[s].")]
            let idx = of[dense as usize];
            #[allow(
                clippy::indexing_slicing,
                reason = "url < shard s's url count == trans[s].len()."
            )]
            let url = tr.map_or(url, |tr| tr[url as usize]);
            (idx != u32::MAX).then_some((idx as u64, url as u64))
        })
    });
    let n_bits = clustering.clusters.len() as u64 * n_urls as u64;
    if n_bits > 0 && n_bits <= max_bits {
        let keys = keys.map(|(idx, url)| idx * n_urls as u64 + url);
        count_unique_bitmap(clustering, keys, n_urls, window_bits);
    } else {
        let mut packed = Vec::with_capacity(shards.iter().map(|s| s.pairs.len()).sum());
        packed.extend(keys.map(|(idx, url)| (idx << 32) | url));
        count_unique_sorted(clustering, packed);
    }
}

/// Counts distinct (cluster, url) pairs into `unique_urls` by sorting
/// packed `cluster << 32 | url` keys.
#[allow(
    clippy::indexing_slicing,
    reason = "key's high half is a valid cluster index by construction."
)]
fn count_unique_sorted(clustering: &mut Clustering, mut packed: Vec<u64>) {
    packed.sort_unstable();
    packed.dedup();
    for key in packed {
        clustering.clusters[(key >> 32) as usize].unique_urls += 1;
    }
}

/// Counts distinct `cluster × n_urls + url` keys into `unique_urls` via
/// one bit per (cluster, url).
///
/// Setting bits straight into a `clusters × urls` bitmap costs one cache
/// miss per pair once the bitmap outgrows the cache. Instead, keys first
/// scatter into per-window buckets (sequential appends), then each
/// window's bits are set and popcount-walked inside one cache-resident
/// slice that is reused across windows.
#[allow(clippy::cast_possible_truncation, reason = "n_bits <= max_bits (2^28) on this path.")]
fn count_unique_bitmap(
    clustering: &mut Clustering,
    keys: impl Iterator<Item = u64>,
    n_urls: usize,
    window_bits: u64,
) {
    let n_bits = clustering.clusters.len() as u64 * n_urls as u64;
    if n_bits <= window_bits {
        let mut bits = vec![0u64; (n_bits as usize).div_ceil(64)];
        #[allow(clippy::indexing_slicing, reason = "key < n_bits and bits holds n_bits bits.")]
        for key in keys {
            bits[(key >> 6) as usize] |= 1 << (key & 63);
        }
        tally_window(clustering, &bits, 0, n_urls);
        return;
    }
    let n_windows = n_bits.div_ceil(window_bits) as usize;
    let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); n_windows];
    for key in keys {
        #[allow(
            clippy::indexing_slicing,
            clippy::cast_possible_truncation,
            reason = "key < n_bits so the bucket index < n_windows, and key % window_bits < 2^21 fits u32."
        )]
        buckets[(key / window_bits) as usize].push((key % window_bits) as u32);
    }
    let mut window = vec![0u64; (window_bits as usize) / 64];
    for (w, keys) in buckets.iter().enumerate() {
        if keys.is_empty() {
            continue;
        }
        window.fill(0);
        #[allow(
            clippy::indexing_slicing,
            reason = "k < window_bits and window holds window_bits bits."
        )]
        for &k in keys {
            window[(k >> 6) as usize] |= 1 << (k & 63);
        }
        tally_window(clustering, &window, w as u64 * window_bits, n_urls);
    }
}

/// Adds each set bit of `bits` (bit `i` = global key `base + i`) to its
/// cluster's `unique_urls`.
#[allow(
    clippy::indexing_slicing,
    clippy::cast_possible_truncation,
    reason = "key < clusters.len() * n_urls."
)]
fn tally_window(clustering: &mut Clustering, bits: &[u64], base: u64, n_urls: usize) {
    for (w, &word) in bits.iter().enumerate() {
        let mut word = word;
        while word != 0 {
            let key = base + (w as u64) * 64 + word.trailing_zeros() as u64;
            clustering.clusters[(key / n_urls as u64) as usize].unique_urls += 1;
            word &= word - 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unique_url_strategies_agree() {
        // Two shards sharing clients: a0, a1 in 10.0.0.0/24, b in
        // 10.0.1.0/24, c unclusterable. 40 urls, so the key space
        // (clusters × 40 bits) crosses a 64-bit window boundary mid-cluster
        // — n_urls doesn't divide 64, exactly the seam worth covering.
        // Shard 0's url ids are global; shard 1 numbers them backwards.
        let (a0, a1, b, c) = (0x0A00_0001, 0x0A00_0002, 0x0A00_0101, 0x0B00_0001);
        let shard_of = |requests: &[(u32, u32)]| {
            let mut shard = Shard::new(4);
            for &(addr, url) in requests {
                let id = shard.add(addr, 10);
                shard.pairs.push((id, url));
            }
            shard
        };
        let shards = [
            shard_of(&[(a0, 0), (a0, 1), (b, 39), (b, 39), (c, 5)]),
            shard_of(&[(a1, 38), (a1, 0), (a0, 39), (b, 39), (c, 7)]),
        ];
        let trans: [Vec<u32>; 2] = [(0..40).collect(), (0..40).rev().collect()];
        let assign = |addrs: &[u32], out: &mut [Option<Ipv4Net>]| {
            for (&addr, slot) in addrs.iter().zip(out) {
                *slot = Ipv4Net::new(addr, 24).ok().filter(|_| addr >> 24 == 10);
            }
        };
        let obs = Obs::disabled();
        let base = finish("t", &shards, 2, &assign, (40, &trans), &obs);
        assert_eq!(base.clusters.len(), 2);
        assert_eq!(base.clusters[0].requests, 5);
        assert_eq!(base.unclustered[0].requests, 2);
        // (max_bits, window_bits): sort-dedup, one-window bitmap, and the
        // bucketed multi-window bitmap must count alike.
        for limits in [(0, 0), (u64::MAX, 64), (u64::MAX, 128), (u64::MAX, 1 << 21)] {
            let mut counted = base.clone();
            counted.clusters.iter_mut().for_each(|c| c.unique_urls = 0);
            count_unique_urls(&mut counted, &shards, (40, &trans), 2, limits);
            // Cluster 0: {0, 1} ∪ {1, 39, 0}; cluster 1: {39} ∪ {0}.
            let unique: Vec<u32> = counted.clusters.iter().map(|c| c.unique_urls).collect();
            assert_eq!(unique, [3, 2], "limits={limits:?}");
        }
    }
}
