//! The clustering kernel: per-client sums → merge → prefix assignment →
//! [`Clustering`] → per-cluster unique URLs.
//!
//! Every route from requests to a [`Clustering`] drives this module: it
//! feeds requests into one or more [`Shard`]s ([`Shard::add`]) and hands
//! them to [`finish`]. [`Clustering::build`] fills one shard from
//! `(client, bytes, url)` triples on the calling thread; `IngestPipeline`
//! fills one shard per scan worker from raw CLF bytes. The result depends
//! only on the multiset of requests, never on how they were split across
//! shards: client sums commute, address ranges concatenate in address
//! order, and unique-URL counts are invariant under url-id relabeling.

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
use netclust_prefix::Ipv4Net;

use crate::clients::Clients;
use crate::cluster::{ClientStats, Cluster, Clustering};
use crate::ingest::for_spans;

/// One client by value: its address, its sums, and what its holder keeps
/// beside them — its first-seen dense id in a batch [`Shard`], nothing in
/// the stream. [`Clients`] holds it in 16 bytes, 12 with no memo, and
/// hands it out with its sums widened; the batch run's merged run is a
/// vector of these.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Client<T> {
    pub(crate) addr: u32,
    pub(crate) requests: u64,
    pub(crate) bytes: u64,
    pub(crate) memo: T,
}

// A `u32` id sits in the padding after the address.
const _: () = assert!(std::mem::size_of::<Client<u32>>() == 24);

/// A batch run's accumulator: the one client store ([`Clients`]), each
/// record's memo the dense id its client was first seen under, plus the
/// (dense client id, url id) pair of every request whose URL is counted.
pub(crate) struct Shard {
    pub(crate) clients: Clients<u32>,
    /// `(client id from `[`add`](Self::add)`, url id)`, one per counted
    /// request; url ids are shard-local unless [`finish`] is told otherwise.
    pub(crate) pairs: Vec<(u32, u32)>,
}

impl Shard {
    /// An empty shard.
    pub(crate) fn new() -> Self {
        Shard {
            clients: Clients::new(),
            pairs: Vec::new(),
        }
    }

    /// Counts one request of `bytes` from `addr` and returns the client's
    /// dense shard-local id.
    #[inline]
    #[allow(clippy::cast_possible_truncation, reason = "dense client ids are u32 by design.")]
    pub(crate) fn add(&mut self, addr: u32, bytes: u64) -> u32 {
        let next = self.clients.len() as u32;
        self.clients.add(addr, 1, bytes, || next).0
    }
}

/// A record's memo when no cluster holds it.
const UNCLUSTERED: u32 = u32::MAX;

/// Records a worker hands its assigner at a time.
const BLOCK: usize = 4096;

/// Turns filled shards into a [`Clustering`] labelled `method`.
///
/// * **merge** — clients merge per address range and the sorted
///   ranges concatenate into one run in global address order;
/// * **assign** — [`label`]: each record's memo becomes its cluster's
///   index, and the clusters' sums are taken;
/// * **unique URLs** — `urls` is `(n_urls, trans)`: distinct (cluster,
///   url) pairs are counted over a global url id space of size `n_urls`,
///   shard `s`'s local id `u` meaning global id `trans[s][u]`; an empty
///   `trans` says ids are already global;
/// * **regroup** — the run, sorted by (cluster, address), is the
///   clustering's member run: cluster ids rise with prefixes, and the
///   unclustered ([`UNCLUSTERED`]) come last.
///
/// `obs` receives the `aggregate` / `lpm` stage spans.
pub(crate) fn finish(
    method: impl Into<String>,
    shards: &mut [Shard],
    threads: usize,
    assign: &(impl Fn(&[u32], &mut [Option<Ipv4Net>]) + Sync),
    urls: (usize, &[Vec<u32>]),
    obs: &Obs,
) -> Clustering {
    let aggregate = obs.span("aggregate");
    let mut run = merge_clients(shards, threads);
    drop(aggregate);

    let lpm = obs.span("lpm");
    let mut clusters = label(&mut run, threads, assign);
    drop(lpm);

    let _assemble = obs.span("aggregate");
    let limits = (BITMAP_MAX_BITS, BITMAP_WINDOW_BITS);
    count_unique_urls(&mut clusters, &run, shards, urls, threads, limits);
    let total_requests = run.iter().map(|c| c.requests).sum();
    run.sort_unstable_by_key(|c| (c.memo, c.addr));
    let mut clustered = 0;
    for k in &mut clusters {
        k.start = clustered;
        clustered += k.clients;
    }
    // The same 24 bytes a record: `collect` reuses the run's allocation.
    let members = (run.into_iter())
        .map(|c| ClientStats {
            addr: Ipv4Addr::from(c.addr),
            requests: c.requests,
            bytes: c.bytes,
        })
        .collect();
    Clustering {
        method: method.into(),
        clusters,
        total_requests,
        members,
        clustered: clustered as usize,
    }
}

/// Per-client sums across shards, sorted by address. One shard's records
/// already are the sums, walked in address order. Several are each
/// settled into a sorted run; then the address space is cut into ranges
/// (a few per worker, so that a crowded range evens out), and one worker
/// per range counts the distinct clients of that range of every run. The
/// run is sized once from those counts, and each range merges — sums
/// commute — into its own slice of it, in global address order. It
/// becomes the member run.
fn merge_clients(shards: &mut [Shard], threads: usize) -> Vec<Client<u32>> {
    if let [only] = shards {
        let mut run = Vec::with_capacity(only.clients.len());
        run.extend(only.clients.in_order());
        return run;
    }
    for_spans(shards, threads, &|_, span| {
        for s in span {
            s.clients.settle();
        }
    });
    let shards = &*shards;
    let n_parts = (threads * 2).next_power_of_two().clamp(4, 64);
    let mut counts = vec![0usize; n_parts];
    for_spans(&mut counts, threads, &|start, span| {
        for (p, count) in (start..).zip(span) {
            merge_range(shards, n_parts, p, |_| *count += 1);
        }
    });
    let empty = Client {
        addr: 0,
        requests: 0,
        bytes: 0,
        memo: UNCLUSTERED,
    };
    let mut run = vec![empty; counts.iter().sum()];
    let mut parts: Vec<&mut [Client<u32>]> = Vec::with_capacity(n_parts);
    let mut rest = run.as_mut_slice();
    for &count in &counts {
        let count = count.min(rest.len());
        let (part, after) = std::mem::take(&mut rest).split_at_mut(count);
        parts.push(part);
        rest = after;
    }
    for_spans(&mut parts, threads, &|start, span| {
        for (p, part) in (start..).zip(span) {
            let mut out = part.iter_mut();
            merge_range(shards, n_parts, p, |sum| {
                if let Some(slot) = out.next() {
                    *slot = sum;
                }
            });
        }
    });
    run
}

/// Hands `each` the sum of every client in address range `p` of `parts`
/// equal ranges, across the settled runs of `shards`, in address order.
#[allow(clippy::cast_possible_truncation, reason = "a range's bounds are below 2^32.")]
fn merge_range(shards: &[Shard], parts: usize, p: usize, mut each: impl FnMut(Client<u32>)) {
    let width = (1u64 << 32) / parts as u64;
    let lo = p as u64 * width;
    let (lo, hi) = (lo as u32, (lo + width - 1) as u32);
    let mut runs: Vec<_> = (shards.iter())
        .map(|s| {
            let c = &s.clients;
            c.range(lo, hi).filter_map(move |pos| c.at(pos)).peekable()
        })
        .collect();
    loop {
        let heads = runs.iter_mut().filter_map(|r| r.peek().map(|c| c.addr));
        let Some(addr) = heads.min() else { break };
        let mut sum = Client {
            addr,
            requests: 0,
            bytes: 0,
            memo: UNCLUSTERED,
        };
        for r in &mut runs {
            if let Some(c) = r.next_if(|c| c.addr == addr) {
                sum.requests += c.requests;
                sum.bytes += c.bytes;
            }
        }
        each(sum);
    }
}

/// Looks every record of `run` up through `assign` (`out[i]` is the
/// identifying prefix of `addrs[i]`, `None` = unclusterable), on blocks of
/// [`BLOCK`] records from up to `threads` spans, and returns the clusters,
/// sorted by prefix, with their client counts and sums; each record's memo
/// is left its cluster's index, [`UNCLUSTERED`] for none. Until then a
/// span lists the prefix of each stretch of its records that share one,
/// and a memo names its stretch there.
#[allow(clippy::cast_possible_truncation, reason = "stretch and cluster ids are u32 by design.")]
fn label(
    run: &mut [Client<u32>],
    threads: usize,
    assign: &(impl Fn(&[u32], &mut [Option<Ipv4Net>]) + Sync),
) -> Vec<Cluster> {
    let span = run.len().div_ceil(threads.max(1)).max(1);
    let mut parts: Vec<_> = run.chunks_mut(span).map(|s| (s, Vec::new())).collect();
    for_spans(&mut parts, threads, &|_, parts| {
        let (mut addrs, mut nets) = (Vec::with_capacity(BLOCK), vec![None; BLOCK]);
        for (records, stretches) in parts {
            for block in records.chunks_mut(BLOCK) {
                addrs.clear();
                addrs.extend(block.iter().map(|c| c.addr));
                let nets = nets.get_mut(..block.len()).unwrap_or_default();
                assign(&addrs, nets);
                for (c, &net) in block.iter_mut().zip(&*nets) {
                    if let Some(net) = net.filter(|net| stretches.last() != Some(net)) {
                        stretches.push(net);
                    }
                    c.memo = net.map_or(UNCLUSTERED, |_| stretches.len() as u32 - 1);
                }
            }
        }
    });
    let mut prefixes: Vec<Ipv4Net> = parts.iter().flat_map(|(_, s)| s).copied().collect();
    prefixes.sort_unstable();
    prefixes.dedup();
    let mut clusters: Vec<Cluster> = (prefixes.iter())
        .map(|&prefix| Cluster {
            prefix,
            ..Cluster::default()
        })
        .collect();
    for (records, stretches) in parts {
        let ids: Vec<u32> = (stretches.iter())
            .map(|p| prefixes.binary_search(p).map_or(UNCLUSTERED, |i| i as u32))
            .collect();
        for c in records.iter_mut() {
            c.memo = ids.get(c.memo as usize).copied().unwrap_or(UNCLUSTERED);
            if let Some(k) = clusters.get_mut(c.memo as usize) {
                k.clients += 1;
                k.requests += c.requests;
                k.bytes += c.bytes;
            }
        }
    }
    clusters
}

/// Bitmap dedup ceiling: above this many (cluster × url) bits the
/// unique-URL count falls back to sort-dedup (32 MiB of bitmap).
const BITMAP_MAX_BITS: u64 = 1 << 28;

/// Bitmap window size: 2²¹ bits = 256 KiB, small enough to stay
/// cache-resident while a bucket's keys scatter into it.
const BITMAP_WINDOW_BITS: u64 = 1 << 21;

/// Fills per-cluster `unique_urls`: each shard's dense client ids map to
/// cluster indices by a walk of its records beside `run` (both are in
/// address order, and `run` holds every shard's clients, each memo its
/// cluster's index), url ids to global ones (equal ids ⇔ equal URLs, so
/// counts are invariant under the relabeling), and distinct (cluster,
/// url) keys are counted — in a bitmap when `clusters × urls` is small
/// enough, else by sort-dedup of packed keys. `(max_bits, window_bits)`
/// are ([`BITMAP_MAX_BITS`], [`BITMAP_WINDOW_BITS`]) outside tests, which
/// shrink them to reach every strategy on small inputs.
fn count_unique_urls(
    clusters: &mut [Cluster],
    run: &[Client<u32>],
    shards: &[Shard],
    (n_urls, trans): (usize, &[Vec<u32>]),
    threads: usize,
    (max_bits, window_bits): (u64, u64),
) {
    let mut cluster_of: Vec<Vec<u32>> = vec![Vec::new(); shards.len()];
    for_spans(&mut cluster_of, threads, &|start, span| {
        for (of, s) in span.iter_mut().zip(shards.iter().skip(start)) {
            of.resize(s.clients.len(), UNCLUSTERED);
            let mut merged = run.iter();
            for c in s.clients.in_order() {
                if let Some(slot) = of.get_mut(c.memo as usize) {
                    let found = merged.find(|m| m.addr == c.addr);
                    *slot = found.map_or(UNCLUSTERED, |m| m.memo);
                }
            }
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
            (idx != UNCLUSTERED).then_some((idx as u64, url as u64))
        })
    });
    let n_bits = clusters.len() as u64 * n_urls as u64;
    if n_bits > 0 && n_bits <= max_bits {
        let keys = keys.map(|(idx, url)| idx * n_urls as u64 + url);
        count_unique_bitmap(clusters, keys, n_urls, window_bits);
    } else {
        let mut packed = Vec::with_capacity(shards.iter().map(|s| s.pairs.len()).sum());
        packed.extend(keys.map(|(idx, url)| (idx << 32) | url));
        count_unique_sorted(clusters, packed);
    }
}

/// Counts distinct (cluster, url) pairs into `unique_urls` by sorting
/// packed `cluster << 32 | url` keys.
#[allow(
    clippy::indexing_slicing,
    reason = "key's high half is a valid cluster index by construction."
)]
fn count_unique_sorted(clusters: &mut [Cluster], mut packed: Vec<u64>) {
    packed.sort_unstable();
    packed.dedup();
    for key in packed {
        clusters[(key >> 32) as usize].unique_urls += 1;
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
    clusters: &mut [Cluster],
    keys: impl Iterator<Item = u64>,
    n_urls: usize,
    window_bits: u64,
) {
    let n_bits = clusters.len() as u64 * n_urls as u64;
    if n_bits <= window_bits {
        let mut bits = vec![0u64; (n_bits as usize).div_ceil(64)];
        #[allow(clippy::indexing_slicing, reason = "key < n_bits and bits holds n_bits bits.")]
        for key in keys {
            bits[(key >> 6) as usize] |= 1 << (key & 63);
        }
        tally_window(clusters, &bits, 0, n_urls);
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
        tally_window(clusters, &window, w as u64 * window_bits, n_urls);
    }
}

/// Adds each set bit of `bits` (bit `i` = global key `base + i`) to its
/// cluster's `unique_urls`.
#[allow(
    clippy::indexing_slicing,
    clippy::cast_possible_truncation,
    reason = "key < clusters.len() * n_urls."
)]
fn tally_window(clusters: &mut [Cluster], bits: &[u64], base: u64, n_urls: usize) {
    for (w, &word) in bits.iter().enumerate() {
        let mut word = word;
        while word != 0 {
            let key = base + (w as u64) * 64 + word.trailing_zeros() as u64;
            clusters[(key / n_urls as u64) as usize].unique_urls += 1;
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
            let mut shard = Shard::new();
            for &(addr, url) in requests {
                let id = shard.add(addr, 10);
                shard.pairs.push((id, url));
            }
            shard
        };
        let mut shards = [
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
        let clustering = finish("t", &mut shards, 2, &assign, (40, &trans), &obs);
        assert_eq!(clustering.clusters.len(), 2);
        assert_eq!(clustering.clusters[0].requests, 5);
        assert_eq!(clustering.unclustered()[0].requests, 2);
        let unique: Vec<u32> = clustering.clusters.iter().map(|c| c.unique_urls).collect();
        assert_eq!(unique, [3, 2]);
        // (max_bits, window_bits): sort-dedup, one-window bitmap, and the
        // bucketed multi-window bitmap must count alike, over the run in
        // address order that `finish` counts beside.
        let mut run = merge_clients(&mut shards, 2);
        let clusters = label(&mut run, 2, &assign);
        for limits in [(0, 0), (u64::MAX, 64), (u64::MAX, 128), (u64::MAX, 1 << 21)] {
            let mut counted = clusters.clone();
            count_unique_urls(&mut counted, &run, &shards, (40, &trans), 2, limits);
            // Cluster 0: {0, 1} ∪ {1, 39, 0}; cluster 1: {39} ∪ {0}.
            let unique: Vec<u32> = counted.iter().map(|c| c.unique_urls).collect();
            assert_eq!(unique, [3, 2], "limits={limits:?}");
        }
    }
}
