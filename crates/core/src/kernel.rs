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

/// One client: its address, its sums, and what its holder keeps beside
/// them — nothing in a batch [`Shard`], the handle of the table entry the
/// address matched in the stream's store (`clients::Clients`). One record,
/// so a store grows one vector.
#[derive(Debug, Clone, Copy)]
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

/// A batch run's accumulator: clients interned to dense ids through small
/// address → id indexes (partitioned by address range; one partition for
/// a lone shard) with one [`Client`] record each in a dense-indexed
/// vector, plus the (dense client id, url id) pair of every request whose
/// URL is counted. An index holds ids only, 4 bytes a slot ([`Index`]);
/// the address it is keyed by stays in the record, hashed by Fx: a run's
/// shards live as long as the run.
pub(crate) struct Shard {
    parts: Vec<Index>,
    shift: u32,
    /// One record per client, indexed by the id [`add`](Self::add) returns.
    pub(crate) clients: Vec<Client>,
    /// `(client id from `[`add`](Self::add)`, url id)`, one per counted
    /// request; url ids are shard-local unless [`finish`] is told otherwise.
    pub(crate) pairs: Vec<(u32, u32)>,
}

/// A slot no client holds. A slot's id field is never all ones (see
/// [`Index::id_bits`]), so no slot in use can equal it.
const EMPTY: u32 = u32::MAX;

/// Slots of a partition's first allocation.
const MIN_SLOTS: usize = 8;

/// One partition's address → id index: open addressing with linear
/// probing over `u32` slots, each `tag << id_bits | id`. A probe starts
/// at the hash's top bits; the tag is the hash's low bits, as many as the
/// id leaves free, so a probe reads a record only when the tag matches,
/// and the record's address decides. Grown by doubling at 7/8 load.
#[derive(Default)]
struct Index {
    /// A power of two long (or empty, before the first client).
    slots: Vec<u32>,
    /// Slots in use.
    len: usize,
    /// Width of a slot's id field: wide enough that every id the shard has
    /// handed out (shard-wide, so not only this partition's) is below
    /// all ones in it. Widened, and every slot re-tagged, as ids grow.
    id_bits: u32,
}

/// `x << n`, 0 when `n` is the width.
fn shl(x: u32, n: u32) -> u32 {
    x.checked_shl(n).unwrap_or(0)
}

/// The low `bits` bits set.
fn low_mask(bits: u32) -> u32 {
    u32::MAX.checked_shr(32 - bits).unwrap_or(0)
}

impl Index {
    /// The slot a probe for `hash` starts at.
    #[allow(clippy::cast_possible_truncation, reason = "hash >> (64 - slot bits) < slots.len().")]
    fn home(&self, hash: u64) -> usize {
        (hash >> (64 - self.slots.len().trailing_zeros())) as usize
    }

    /// `hash`'s tag in place above the id field.
    #[allow(clippy::cast_possible_truncation, reason = "the tag is the hash's low bits.")]
    fn tag(&self, hash: u64) -> u32 {
        shl(hash as u32, self.id_bits)
    }

    /// The id of `addr` (hashing to `hash`), or the empty slot where it
    /// would go.
    #[inline]
    fn find(&self, hash: u64, addr: u32, clients: &[Client]) -> Result<u32, usize> {
        let Some(mask) = self.slots.len().checked_sub(1) else {
            return Err(0);
        };
        let (id_mask, tag) = (low_mask(self.id_bits), self.tag(hash));
        let mut pos = self.home(hash);
        loop {
            #[allow(clippy::indexing_slicing, reason = "pos is masked to slots.len() - 1.")]
            let slot = self.slots[pos];
            if slot == EMPTY {
                return Err(pos);
            }
            let id = slot & id_mask;
            if slot & !id_mask == tag && clients.get(id as usize).is_some_and(|c| c.addr == addr) {
                return Ok(id);
            }
            pos = (pos + 1) & mask;
        }
    }

    /// Makes room for one more client, whose id is `id`: widens the id
    /// field when `id` would not fit below its all-ones value, and doubles
    /// the slots at 7/8 load. `true` if the slots moved.
    fn make_room(&mut self, id: u32, hasher: &impl BuildHasher, clients: &[Client]) -> bool {
        self.widen(32 - id.saturating_add(1).leading_zeros());
        let grow = (self.len + 1) * 8 > self.slots.len() * 7;
        if grow {
            self.resize((self.slots.len() * 2).max(MIN_SLOTS), hasher, clients);
        }
        grow
    }

    /// Widens the id field to `id_bits`, if that is wider, re-tagging every
    /// slot in place.
    fn widen(&mut self, id_bits: u32) {
        if id_bits <= self.id_bits {
            return;
        }
        let (old, old_mask) = (self.id_bits, low_mask(self.id_bits));
        for slot in self.slots.iter_mut().filter(|s| **s != EMPTY) {
            // The tag is the hash's low bits, so the narrower tag is the
            // old one shifted up: its top bits fall off.
            *slot = shl(*slot >> old, id_bits) | (*slot & old_mask);
        }
        self.id_bits = id_bits;
    }

    /// Moves every slot into `n` fresh ones (a power of two), each placed
    /// by its record's address — read in id order when this index holds
    /// every record, a sequential pass instead of a random read a slot.
    fn resize(&mut self, n: usize, hasher: &impl BuildHasher, clients: &[Client]) {
        let old = std::mem::replace(&mut self.slots, vec![EMPTY; n]);
        if self.len == clients.len() {
            #[allow(
                clippy::cast_possible_truncation,
                reason = "dense client ids are u32 by design."
            )]
            for (id, c) in clients.iter().enumerate() {
                let hash = hasher.hash_one(c.addr);
                self.place(hash, self.tag(hash) | id as u32);
            }
        } else {
            let id_mask = low_mask(self.id_bits);
            for slot in old.into_iter().filter(|&s| s != EMPTY) {
                let addr = clients.get((slot & id_mask) as usize).map_or(0, |c| c.addr);
                self.place(hasher.hash_one(addr), slot);
            }
        }
    }

    /// Stores `slot` in the first empty slot from `hash`'s home on.
    fn place(&mut self, hash: u64, slot: u32) {
        let mask = self.slots.len() - 1;
        let mut pos = self.home(hash);
        #[allow(clippy::indexing_slicing, reason = "pos is masked to slots.len() - 1.")]
        while self.slots[pos] != EMPTY {
            pos = (pos + 1) & mask;
        }
        #[allow(clippy::indexing_slicing, reason = "the loop above left pos in range.")]
        {
            self.slots[pos] = slot;
        }
    }

    /// Records `id` for an address hashing to `hash` at `pos`, an empty
    /// slot [`find`](Self::find) returned.
    fn put(&mut self, pos: usize, hash: u64, id: u32) {
        let slot = self.tag(hash) | id;
        if let Some(s) = self.slots.get_mut(pos) {
            *s = slot;
            self.len += 1;
        }
    }

    /// The ids this index holds, in slot order.
    fn ids(&self) -> impl Iterator<Item = u32> + '_ {
        let id_mask = low_mask(self.id_bits);
        (self.slots.iter())
            .filter(|&&s| s != EMPTY)
            .map(move |&s| s & id_mask)
    }
}

/// The hasher a [`Shard`]'s indexes place addresses by.
type Fx = BuildHasherDefault<FxHasher>;

impl Shard {
    /// An empty shard over `n_parts` address partitions (a power of two;
    /// every shard of one run uses the same count).
    pub(crate) fn new(n_parts: usize) -> Self {
        debug_assert!(n_parts.is_power_of_two());
        Shard {
            parts: (0..n_parts).map(|_| Index::default()).collect(),
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

    /// Counts one request of `bytes` from `addr` and returns the client's
    /// dense shard-local id.
    #[inline]
    pub(crate) fn add(&mut self, addr: u32, bytes: u64) -> u32 {
        self.add_hashed(&Fx::default(), addr, 1, bytes)
    }

    /// [`add`](Self::add) of `requests` requests, with addresses placed by
    /// `hasher`: every call on one shard passes the same one (tests pass
    /// one too weak to tell addresses apart).
    #[inline]
    #[allow(clippy::cast_possible_truncation, reason = "dense client ids are u32 by design.")]
    fn add_hashed(
        &mut self,
        hasher: &impl BuildHasher,
        addr: u32,
        requests: u64,
        bytes: u64,
    ) -> u32 {
        let hash = hasher.hash_one(addr);
        let part = self.part(addr);
        #[allow(clippy::indexing_slicing, reason = "part = addr >> shift < n_parts.")]
        let index = &mut self.parts[part];
        let id = match index.find(hash, addr, &self.clients) {
            Ok(id) => id,
            Err(mut pos) => {
                let id = self.clients.len() as u32;
                if index.make_room(id, hasher, &self.clients) {
                    pos = index.find(hash, addr, &self.clients).err().unwrap_or(pos);
                }
                index.put(pos, hash, id);
                self.clients.push(Client {
                    addr,
                    requests: 0,
                    bytes: 0,
                    memo: (),
                });
                id
            }
        };
        #[allow(clippy::indexing_slicing, reason = "id was handed out from clients.len().")]
        let c = &mut self.clients[id as usize];
        c.requests += requests;
        c.bytes += bytes;
        id
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
                for id in s.parts[p].ids() {
                    #[allow(
                        clippy::indexing_slicing,
                        reason = "id was handed out from clients.len()."
                    )]
                    let c = &s.clients[id as usize];
                    let e = per_client.entry(c.addr).or_insert((0, 0));
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
    use std::collections::BTreeMap;
    use std::hash::Hasher;

    use proptest::prelude::*;

    impl Shard {
        /// The record of `addr` placed by `hasher`, if it was ever added.
        fn get(&self, hasher: &impl BuildHasher, addr: u32) -> Option<&Client> {
            let index = self.parts.get(self.part(addr))?;
            let id = index
                .find(hasher.hash_one(addr), addr, &self.clients)
                .ok()?;
            self.clients.get(id as usize)
        }

        /// Sizes a one-partition shard's index for `n` more clients, as
        /// large as adding them would grow it and with ids as wide, so that
        /// adding them moves no slot.
        fn reserve(&mut self, hasher: &impl BuildHasher, n: usize) {
            assert_eq!(self.parts.len(), 1, "a partition's share of n is unknown");
            let ids = self.clients.len() + n;
            for index in &mut self.parts {
                index.widen((usize::BITS - ids.leading_zeros()).min(32));
                let mut slots = index.slots.len().max(MIN_SLOTS);
                while (index.len + n) * 8 > slots * 7 {
                    slots *= 2;
                }
                if slots > index.slots.len() {
                    index.resize(slots, hasher, &self.clients);
                }
            }
        }

        /// Bytes the indexes' slots hold.
        fn map_bytes(&self) -> usize {
            self.parts.iter().map(|p| p.slots.len() * 4).sum()
        }

        /// The longest probe any client's lookup makes under `hasher`:
        /// slots read from its home slot to its own, inclusive.
        fn longest_probe(&self, hasher: &impl BuildHasher) -> usize {
            let mut longest = 0;
            for index in &self.parts {
                let (mask, id_mask) = (index.slots.len().wrapping_sub(1), low_mask(index.id_bits));
                for (pos, &slot) in index.slots.iter().enumerate() {
                    if slot != EMPTY {
                        let addr = self.clients[(slot & id_mask) as usize].addr;
                        let home = index.home(hasher.hash_one(addr));
                        longest = longest.max(pos.wrapping_sub(home) & mask);
                    }
                }
            }
            longest + 1
        }

        /// Each partition's (slots, id bits): what changes at a growth or
        /// a re-tag.
        fn layout(&self) -> Vec<(usize, u32)> {
            (self.parts.iter())
                .map(|p| (p.slots.len(), p.id_bits))
                .collect()
        }
    }

    /// Four bits of entropy: sixteen hashes in all, so distinct addresses
    /// share a home slot and a tag, and probe chains run long.
    #[derive(Default)]
    struct Weak(u64);

    impl Hasher for Weak {
        fn write(&mut self, bytes: &[u8]) {
            bytes.iter().for_each(|&b| self.0 = self.0 << 8 | b as u64);
        }

        fn finish(&self) -> u64 {
            (self.0 & 0xF).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        }
    }

    /// Addresses spread over the whole space (so over every partition),
    /// `k` → a distinct one for each `k`; the ops draw from the first 1 024
    /// and lookups of absent ones from the next 1 024.
    fn spread(k: u32) -> u32 {
        k.wrapping_mul(0x9E37_79B1)
    }

    /// Drives a shard of `n_parts` partitions, its addresses placed by
    /// `S`, and a `BTreeMap` side by side through `ops` (address key,
    /// requests, bytes), reserving room for the second half's new clients
    /// halfway when `reserve` says so: ids are dense and first-seen, and at
    /// every growth or re-tag and at the end each client's record (the one
    /// its id names) holds its sums and no absent address is found.
    fn matches_the_oracle<S: BuildHasher + Default>(
        n_parts: usize,
        ops: &[(u32, u8, u16)],
        reserve: bool,
    ) -> Result<(), String> {
        let hasher = S::default();
        let mut shard = Shard::new(n_parts);
        let mut oracle: BTreeMap<u32, (u32, u64, u64)> = BTreeMap::new();
        let check = |shard: &Shard, oracle: &BTreeMap<u32, (u32, u64, u64)>| {
            prop_assert_eq!(shard.clients.len(), oracle.len());
            for (&addr, &(id, requests, bytes)) in oracle {
                let c = shard.get(&hasher, addr).ok_or(format!("{addr:#x} lost"))?;
                let by_id = &shard.clients[id as usize];
                prop_assert_eq!((c.addr, by_id.addr), (addr, addr));
                prop_assert_eq!((c.requests, c.bytes), (requests, bytes));
            }
            for k in 1024..2048 {
                prop_assert!(
                    shard.get(&hasher, spread(k)).is_none(),
                    "absent {:#x} found",
                    spread(k)
                );
            }
            Ok(())
        };
        let mut layout = shard.layout();
        for (i, &(key, requests, bytes)) in ops.iter().enumerate() {
            if reserve && i == ops.len() / 2 {
                shard.reserve(&hasher, ops.len() - i);
            }
            let addr = spread(key % 1024);
            let next = oracle.len() as u32;
            let want = oracle.entry(addr).or_insert((next, 0, 0));
            want.1 += u64::from(requests);
            want.2 += u64::from(bytes);
            let id = shard.add_hashed(&hasher, addr, requests.into(), bytes.into());
            prop_assert_eq!(id, want.0, "{:#x}", addr);
            if shard.layout() != layout {
                layout = shard.layout();
                check(&shard, &oracle)?;
            }
        }
        check(&shard, &oracle)
    }

    fn arb_ops() -> impl Strategy<Value = Vec<(u32, u8, u16)>> {
        proptest::collection::vec((any::<u32>(), any::<u8>(), any::<u16>()), 1..1200)
    }

    proptest! {
        /// The index against a `BTreeMap`, on one partition and on four
        /// (whose ids are shard-wide, so a partition re-tags for ids it
        /// never holds), under Fx and under a hasher too weak to separate
        /// addresses by their tags.
        #[test]
        fn the_index_matches_an_oracle(ops in arb_ops()) {
            matches_the_oracle::<BuildHasherDefault<FxHasher>>(1, &ops, false)?;
            matches_the_oracle::<BuildHasherDefault<FxHasher>>(1, &ops, true)?;
            matches_the_oracle::<BuildHasherDefault<FxHasher>>(4, &ops, false)?;
            let few = &ops[..ops.len().min(400)];
            matches_the_oracle::<BuildHasherDefault<Weak>>(1, few, false)?;
            matches_the_oracle::<BuildHasherDefault<Weak>>(1, few, true)?;
            matches_the_oracle::<BuildHasherDefault<Weak>>(4, few, false)?;
        }
    }

    #[test]
    fn addresses_that_differ_only_above_bit_16_keep_probes_short() {
        // DESIGN §10: under a hash whose table bits ignore an address's
        // high half, these 65 536 clients share one probe chain.
        let mut shard = Shard::new(1);
        for a in 0..=u32::from(u16::MAX) {
            shard.add(a << 16 | 0x0101, 1);
        }
        let (probe, bytes) = (shard.longest_probe(&Fx::default()), shard.map_bytes());
        println!("fx: longest probe {probe} slots of {}", bytes / 4);
        assert_eq!(bytes, 4 << 17, "65 536 clients at 7/8 load");
        // A shared chain reads 65 536 slots; 16 fit one cache line.
        assert!(probe <= 128, "a probe of {probe} slots");
    }

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
