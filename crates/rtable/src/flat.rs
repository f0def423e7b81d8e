//! The compiled longest-prefix-match table: a DIR-16 root over
//! popcount-compressed nodes, one layout for both source tiers.
//!
//! §3.2.1 of the paper answers a client with its longest BGP match, and
//! with its longest registry-dump match only when no BGP prefix covers it.
//! That rule partitions the address space into answer classes, and a
//! leaf-pushed layout encodes any partition: [`CompiledTable`] paints the
//! registry tier first and the BGP tier over it, so every position holds
//! its final answer and one walk serves both tiers. The three arrays are
//! small enough to stay in cache:
//!
//! * `root`: one `u32` per /16 (2^16 entries, 256 KiB). An entry is
//!   either a *leaf slot* (`handle + 1`, `0` = no match) or, with
//!   [`NODE_FLAG`] set, the id of a node.
//! * two node stores, each node covering the next 8 address bits with
//!   its 256 positions stored as runs of equal values (again leaf slots
//!   or child node entries), in the smaller of two classes that holds
//!   its runs: a 32-byte [`Node32`] (2–6 runs) lists the bytes where its
//!   runs start and holds the values inline, and the run of byte `b` is
//!   the number of start bytes at or below `b`; a 64-byte [`Node`] (7 or
//!   more) marks the starts in a 256-bit bitmap whose per-word popcount
//!   prefixes turn "which run is byte `b` in" into one `popcnt`, and
//!   keeps its values in `spill`. Each store is aligned to its node size,
//!   so a node never straddles a cache line. Both classes serve address
//!   bits 15..8 and bits 7..0, so a lookup is the root load plus at most
//!   two [`step`](CompiledTable::step)s.
//! * `spill`: run values of the 64-byte nodes.
//!
//! Matches are returned as [`Handle`]s — dense `Copy` indices into one
//! prefix arena — so batch lookups move no heap data and results can be
//! compared, hashed, and resolved to an [`Ipv4Net`] later. The arena holds
//! the registry tier first, so a handle's tier is a comparison with the
//! registry tier's length ([`CompiledTable::source`]).
//!
//! Build cost is one sort of the prefixes by /16 chunk plus one 256-entry
//! paint-and-encode per node; the input is the [`MergedTable`]'s two sorted
//! lists, and no trie is built. Routing updates patch the layout chunk by
//! chunk: see [`CompiledTable::apply_delta`] in `patch.rs`.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use std::fmt;

use netclust_obs::{Counter, Obs};
use netclust_prefix::Ipv4Net;

use crate::table::{MatchSource, MergedTable};

/// Lookup accounting (`lpm.*`). Disabled (no-op) by default;
/// [`CompiledTable::attach_obs`] resolves live handles. Counting happens
/// at call/batch granularity so the inner `lookup_handle` loop stays pure.
/// Every counter is a function of the lookups' tiers: a BGP miss is a
/// registry fallback, and a registry miss is a final miss.
#[derive(Clone, Debug, Default)]
struct TableObs {
    lookups: Counter,
    misses: Counter,
    fallbacks: Counter,
    bgp_lookups: Counter,
    bgp_misses: Counter,
    dump_lookups: Counter,
    dump_misses: Counter,
}

impl TableObs {
    fn resolve(obs: &Obs) -> Self {
        Self {
            lookups: obs.counter("lpm.lookups"),
            misses: obs.counter("lpm.misses"),
            fallbacks: obs.counter("lpm.dump_fallbacks"),
            bgp_lookups: obs.counter("lpm.bgp.lookups"),
            bgp_misses: obs.counter("lpm.bgp.misses"),
            dump_lookups: obs.counter("lpm.dump.lookups"),
            dump_misses: obs.counter("lpm.dump.misses"),
        }
    }

    /// Counts `n` lookups, of which `fallbacks` found no BGP prefix and
    /// `misses` no prefix at all.
    #[inline]
    fn count(&self, n: u64, fallbacks: u64, misses: u64) {
        self.lookups.add(n);
        self.bgp_lookups.add(n);
        if fallbacks > 0 {
            self.fallbacks.add(fallbacks);
            self.bgp_misses.add(fallbacks);
            self.dump_lookups.add(fallbacks);
        }
        if misses > 0 {
            self.misses.add(misses);
            self.dump_misses.add(misses);
        }
    }
}

/// Set on a root entry or run value that names a node instead of
/// encoding a match directly: the bit below it names the node's class
/// ([`LARGE_FLAG`]), the low bits its index in that class's store.
pub(crate) const NODE_FLAG: u32 = 1 << 31;

/// Set on a node entry that names a 64-byte [`Node`], clear on one that
/// names a [`Node32`].
const LARGE_FLAG: u32 = 1 << 30;

/// A node entry's index bits.
const INDEX_MASK: u32 = LARGE_FLAG - 1;

/// Runs a [`Node32`] holds; a node with more is a 64-byte [`Node`].
const PACKED_RUNS: usize = 6;

/// Root entries of a materialized table: one per /16.
pub(crate) const ROOT_LEN: usize = 1 << 16;

/// Accepted by [`CompiledTable::net_for_slice`] and ignored: the table is
/// cache-resident, so there is no DRAM round trip for a software prefetch
/// to hide (see DESIGN.md §9 for the measurement). The constant and the
/// parameter stay because `benchmark/benches/layers.rs` passes them and
/// `benchmark/` is frozen until the PR that may edit it.
pub const DEFAULT_PREFETCH_DISTANCE: usize = 16;

/// A dense, `Copy` reference to a prefix in a [`CompiledTable`]'s arena.
///
/// `Handle::NONE` means "no match". Valid handles index
/// [`CompiledTable::prefixes`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Handle(u32);

impl Handle {
    /// The "no match" sentinel.
    pub const NONE: Handle = Handle(u32::MAX);

    /// `true` when this handle refers to a prefix.
    #[inline]
    pub fn is_some(self) -> bool {
        self.0 != u32::MAX
    }

    /// `true` for the no-match sentinel.
    #[inline]
    pub fn is_none(self) -> bool {
        self.0 == u32::MAX
    }

    /// The arena index, or `None` for the sentinel.
    #[inline]
    pub fn index(self) -> Option<usize> {
        if self.is_some() {
            Some(self.0 as usize)
        } else {
            None
        }
    }

    /// Decodes the slot encoding used inside the tables: `0` is a miss,
    /// any other value is `handle + 1`.
    #[inline]
    fn from_slot(slot: u32) -> Handle {
        if slot == 0 {
            Handle::NONE
        } else {
            Handle(slot - 1)
        }
    }
}

/// A node of 2 to 6 runs: 32 bytes, its start bytes and run count in
/// the first eight. Byte `b`'s run is the number of start bytes at or
/// below `b`; a node of fewer than six runs repeats its last start and
/// its last value to the end, so the padding resolves like the run it
/// repeats.
#[derive(Clone, Copy)]
#[repr(C, align(32))]
pub(crate) struct Node32 {
    /// Where runs 1 to 5 start (run 0 starts at byte 0).
    starts: [u8; PACKED_RUNS - 1],
    /// Number of runs.
    runs: u8,
    /// The run values.
    vals: [u32; PACKED_RUNS],
}

impl Node32 {
    /// The node of runs starting at byte 0 and at each of `starts`, with
    /// `vals` (one more than `starts`, at most six).
    fn new(starts: &[u8], vals: &[u32]) -> Self {
        let (last_start, last_val) = (starts.last(), vals.last());
        Node32 {
            starts: std::array::from_fn(|i| *starts.get(i).or(last_start).unwrap_or(&0)),
            runs: u8::try_from(vals.len()).unwrap_or(u8::MAX),
            vals: std::array::from_fn(|i| *vals.get(i).or(last_val).unwrap_or(&0)),
        }
    }

    /// The run values.
    fn values(&self) -> &[u32] {
        self.vals.get(..usize::from(self.runs)).unwrap_or(&[])
    }

    /// The value at position `byte` (at most 255).
    #[inline]
    fn value(&self, byte: u32) -> u32 {
        let run = self
            .starts
            .iter()
            .filter(|&&s| u32::from(s) <= byte)
            .count();
        self.vals.get(run).copied().unwrap_or(0)
    }
}

/// A node of 7 runs or more: a 256-bit map of where runs start, with its
/// run values in `spill`. One cache line.
#[derive(Clone, Copy)]
#[repr(C, align(64))]
pub(crate) struct Node {
    /// Bit `b` of the 256-bit map is set when a run starts at byte `b`;
    /// bit 0 is always set.
    starts: [u64; 4],
    /// Runs starting in the words before word `w` (`rank[0]` is 0), so
    /// byte `b`'s run is `rank[b / 64] + popcount(starts[b / 64] up to b) - 1`.
    rank: [u8; 4],
    /// Offset of this node's run values in `CompiledTable::spill`.
    spill: u32,
}

impl Node {
    /// The node of runs starting at byte 0 and at each of `starts`, its
    /// values at `spill`.
    fn new(starts: &[u8], spill: u32) -> Self {
        let mut node = Node {
            starts: [1, 0, 0, 0],
            rank: [0; 4],
            spill,
        };
        for &b in starts {
            if let Some(word) = node.starts.get_mut(usize::from(b >> 6)) {
                *word |= 1 << (b & 63);
            }
        }
        let mut before = 0;
        for (rank, word) in node.rank.iter_mut().zip(node.starts) {
            // At most 192 runs start before the last word.
            *rank = u8::try_from(before).unwrap_or(u8::MAX);
            before += word.count_ones();
        }
        node
    }

    /// Number of runs (= stored values).
    fn runs(&self) -> usize {
        self.starts.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The run values.
    fn values<'a>(&self, spill: &'a [u32]) -> &'a [u32] {
        let at = self.spill as usize;
        spill.get(at..at + self.runs()).unwrap_or(&[])
    }

    /// The value at position `byte` (only the low 8 bits are used).
    #[inline]
    fn value(&self, byte: u32, spill: &[u32]) -> u32 {
        let w = (byte >> 6) as usize & 3;
        let (Some(&word), Some(&rank)) = (self.starts.get(w), self.rank.get(w)) else {
            return 0;
        };
        let upto = word & (u64::MAX >> (63 - (byte & 63)));
        // Bit 0 of word 0 is set on every encoded node, so the count is
        // at least 1; a zeroed node degrades to "no match".
        let run = (usize::from(rank) + upto.count_ones() as usize).wrapping_sub(1);
        let cell = spill.get((self.spill as usize).wrapping_add(run));
        cell.copied().unwrap_or(0)
    }
}

/// The store of one node class: ids index `nodes`; freed ids are listed
/// in `free` and reused before `nodes` grows, except that a freed last
/// node is dropped, so a chunk rebuilt in place leaves the store as long
/// as a fresh compile would.
#[derive(Clone)]
pub(crate) struct Pool<T> {
    pub(crate) nodes: Vec<T>,
    pub(crate) free: Vec<u32>,
}

impl<T> Pool<T> {
    const fn new() -> Self {
        Pool {
            nodes: Vec::new(),
            free: Vec::new(),
        }
    }

    fn get(&self, id: u32) -> Option<&T> {
        self.nodes.get(id as usize)
    }

    fn alloc(&mut self, node: T) -> u32 {
        if let Some(id) = self.free.pop() {
            if let Some(freed) = self.nodes.get_mut(id as usize) {
                *freed = node;
            }
            return id;
        }
        debug_assert!(
            self.nodes.len() <= INDEX_MASK as usize,
            "node index fits 30 bits"
        );
        let id = u32::try_from(self.nodes.len()).unwrap_or(0);
        self.nodes.push(node);
        id
    }

    fn free(&mut self, id: u32) {
        if id as usize + 1 == self.nodes.len() {
            self.nodes.pop();
        } else {
            self.free.push(id);
        }
    }

    fn clear(&mut self) {
        self.nodes.clear();
        self.free.clear();
    }

    /// Nodes some entry names.
    fn live(&self) -> usize {
        self.nodes.len() - self.free.len()
    }

    /// The store's bytes, free list included.
    fn bytes(&self) -> usize {
        self.nodes.len() * std::mem::size_of::<T>() + self.free.len() * 4
    }
}

/// Sort key of a prefix longer than /16 inside its /16 chunk, with its
/// slot in the low 32 bits: chunks ascend; within a chunk the /17–/24
/// prefixes come first by ascending length, then the longer ones grouped
/// by their third address byte, again by ascending length. Painting in
/// this order lets longer prefixes overwrite shorter ones, and equal
/// prefixes resolve to the larger slot.
pub(crate) fn chunk_key(net: Ipv4Net, slot: u32) -> u64 {
    let addr = net.addr_u32();
    let len = u64::from(net.len());
    let sub = if net.len() <= 24 {
        len
    } else {
        0x8000 | u64::from((addr >> 8) & 0xFF) << 6 | len
    };
    u64::from(addr >> 16) << 48 | sub << 32 | u64::from(slot)
}

/// The slot in the low half of a [`chunk_key`].
fn key_slot(key: u64) -> u32 {
    u32::try_from(key & 0xFFFF_FFFF).unwrap_or(0)
}

/// Sorts `tier` and moves its distinct prefixes to the front, in order;
/// returns how many there are.
fn sort_unique(tier: &mut [Ipv4Net]) -> usize {
    tier.sort_unstable();
    let mut kept = 0usize;
    for read in 0..tier.len() {
        if tier.get(read) != kept.checked_sub(1).and_then(|last| tier.get(last)) {
            tier.swap(kept, read);
            kept += 1;
        }
    }
    kept
}

/// Number of runs of equal values in 256 positions.
fn runs(vals: &[u32; 256]) -> usize {
    vals.chunk_by(|a, b| a == b).count()
}

/// One tier's answers over a /16 chunk, before encoding: the slot at each
/// value of the third address byte, and for every /24 holding a longer
/// prefix the slot at each value of the fourth.
struct Paint {
    mid: [u32; 256],
    /// `(third byte, positions)`, ascending by third byte.
    lows: Vec<(usize, [u32; 256])>,
}

impl Paint {
    /// The answers at each fourth byte under third byte `third`.
    fn low(&self, third: usize) -> [u32; 256] {
        match self.lows.binary_search_by_key(&third, |(t, _)| *t) {
            Ok(at) => self.lows.get(at).map_or([0; 256], |(_, low)| *low),
            Err(_) => [self.mid.get(third).copied().unwrap_or(0); 256],
        }
    }

    /// Run values the chunk would store were this tier the whole table:
    /// what a patch reports, so the figure is the BGP tier's however much
    /// registry space shows through it.
    fn cells(&self) -> usize {
        let mut mid = self.mid;
        let mut cells = 0;
        // No prefix longer than /24 fills its /24, so every low array has
        // two runs or more and is a node: an entry unlike any other.
        for (id, (third, low)) in (0u32..).zip(&self.lows) {
            cells += runs(low);
            if let Some(e) = mid.get_mut(*third) {
                *e = NODE_FLAG | id;
            }
        }
        let n = runs(&mid);
        cells + if n > 1 { n } else { 0 }
    }
}

/// A longest-prefix-match table compiled to the DIR-16 + compressed-node
/// layout, holding the BGP tier and, below it, the registry-dump tier.
/// Built from a [`MergedTable`] (see [`MergedTable::compile`]) or from the
/// two tiers' prefix lists (see [`CompiledTable::tiered`]).
///
/// ```
/// use netclust_rtable::CompiledTable;
///
/// let table = CompiledTable::tiered(&[
///     "12.0.0.0/8".parse().unwrap(),
///     "12.65.128.0/19".parse().unwrap(),
/// ], &[]);
///
/// let net = table.lookup(u32::from_be_bytes([12, 65, 147, 94])).unwrap();
/// assert_eq!(net.to_string(), "12.65.128.0/19");
/// assert!(table.lookup(u32::from_be_bytes([99, 1, 1, 1])).is_none());
/// ```
#[derive(Clone)]
pub struct CompiledTable {
    /// One entry per /16; empty when the table was compiled from no
    /// prefixes (every lookup misses without touching memory).
    pub(crate) root: Vec<u32>,
    /// Nodes of 2–6 runs.
    pub(crate) small: Pool<Node32>,
    /// Nodes of 7 runs or more.
    pub(crate) large: Pool<Node>,
    /// Run values of the `large` nodes. Append-only between compactions:
    /// a freed node's range is counted in `dead_cells`, not reused.
    pub(crate) spill: Vec<u32>,
    /// `spill` cells that belonged to freed nodes.
    pub(crate) dead_cells: usize,
    /// Dense prefix arena; [`Handle`]s index into this. The first
    /// `dump_len` entries are the registry tier, sorted and never patched;
    /// the rest are the BGP tier. After in-place patching the BGP part may
    /// contain dead (withdrawn) entries that no slot references; see
    /// [`live_prefixes`](Self::live_prefixes).
    pub(crate) prefixes: Vec<Ipv4Net>,
    /// Arena entries of the registry tier: handles below it are registry
    /// matches.
    pub(crate) dump_len: u32,
    /// Incremental-update bookkeeping (the live BGP map, free handles);
    /// built by the first [`apply_delta`](Self::apply_delta) call.
    pub(crate) patch: Option<Box<crate::patch::PatchState>>,
    /// Lookup accounting (no-op unless attached).
    obs: TableObs,
}

impl CompiledTable {
    /// Compiles both tiers: `bgp` in any order, over `dump` in any order,
    /// which a BGP match always wins against; duplicates collapse. This is
    /// [`MergedTable::compile`]; a snapshot's per-tier lists are
    /// recompiled through it too.
    pub fn tiered(bgp: &[Ipv4Net], dump: &[Ipv4Net]) -> Self {
        // Each tier is sorted and deduplicated where it lies in the arena,
        // so the build holds one list: a patch binary-searches the
        // registry tier and bulk-builds its live map from the BGP tier.
        let mut arena = Vec::with_capacity(bgp.len() + dump.len());
        arena.extend_from_slice(dump);
        let dump_len = sort_unique(&mut arena);
        arena.truncate(dump_len);
        arena.extend_from_slice(bgp);
        let bgp_len = sort_unique(arena.get_mut(dump_len..).unwrap_or_default());
        arena.truncate(dump_len + bgp_len);
        Self::build(arena, u32::try_from(dump_len).unwrap_or(NODE_FLAG - 1))
    }

    /// Compiles `prefixes`, of which the first `dump_len` are the registry
    /// tier.
    fn build(prefixes: Vec<Ipv4Net>, dump_len: u32) -> Self {
        let mut table = CompiledTable {
            root: Vec::new(),
            small: Pool::new(),
            large: Pool::new(),
            spill: Vec::new(),
            dead_cells: 0,
            prefixes,
            dump_len,
            patch: None,
            obs: TableObs::default(),
        };
        debug_assert!(
            u32::try_from(table.prefixes.len()).is_ok_and(|n| n < NODE_FLAG - 1),
            "every slot (handle + 1) must stay below NODE_FLAG"
        );
        if !table.prefixes.is_empty() {
            // Slots are u32 by design; the arena bound is asserted above.
            let handles = 0..u32::try_from(table.prefixes.len()).unwrap_or(NODE_FLAG - 1);
            table.rebuild(handles);
        }
        table
    }

    /// The registry tier's part of the arena: sorted, static.
    pub(crate) fn dump_arena(&self) -> &[Ipv4Net] {
        self.prefixes
            .get(..self.dump_len as usize)
            .unwrap_or_default()
    }

    /// The BGP tier's part of the arena: strictly increasing as compiled;
    /// after a patch, in no order and with dead entries.
    pub(crate) fn bgp_arena(&self) -> &[Ipv4Net] {
        self.prefixes
            .get(self.dump_len as usize..)
            .unwrap_or_default()
    }

    /// `true` when `slot` (a handle + 1) names a registry prefix.
    #[inline]
    pub(crate) fn is_dump_slot(&self, slot: u32) -> bool {
        slot.wrapping_sub(1) < self.dump_len
    }

    /// Rebuilds `root`, the node stores and `spill` from scratch for the arena
    /// entries named by `live` (the compile step, and the patch layer's
    /// bulk and compaction path). The arena itself is left alone.
    pub(crate) fn rebuild(&mut self, live: impl Iterator<Item = u32>) {
        self.root.clear();
        self.root.resize(ROOT_LEN, 0);
        self.small.clear();
        self.large.clear();
        self.spill.clear();
        self.dead_cells = 0;

        // (tier, length, handle) of the ≤/16 prefixes; chunk keys of the
        // rest.
        let mut short: Vec<(bool, u8, u32)> = Vec::new();
        let mut long: Vec<u64> = Vec::with_capacity(live.size_hint().0);
        for h in live {
            let Some(net) = self.prefixes.get(h as usize) else {
                continue;
            };
            if net.len() <= 16 {
                short.push((h >= self.dump_len, net.len(), h));
            } else {
                long.push(chunk_key(*net, h + 1));
            }
        }
        // The registry tier first, then BGP over it; each by ascending
        // length, so longer prefixes overwrite shorter ones.
        short.sort_unstable();
        for (_, len, h) in short {
            let Some(net) = self.prefixes.get(h as usize) else {
                continue;
            };
            let first = (net.addr_u32() >> 16) as usize;
            let count = 1usize << (16 - len);
            if let Some(run) = self.root.get_mut(first..first + count) {
                run.fill(h + 1);
            }
        }
        long.sort_unstable();
        for chunk in long.chunk_by(|a, b| a >> 48 == b >> 48) {
            let idx = chunk.first().map_or(0, |k| (k >> 48) as usize);
            let cover = self.root.get(idx).copied().unwrap_or(0);
            let entry = self.build_chunk(cover, chunk, &mut 0);
            if let Some(e) = self.root.get_mut(idx) {
                *e = entry;
            }
        }
    }

    /// Builds the nodes of one /16 chunk and returns its root entry.
    /// `cover` is the slot of the chunk's ≤/16 answer (BGP, else
    /// registry); `items` are the [`chunk_key`]s of the chunk's longer
    /// prefixes of both tiers, sorted. `cells` is advanced by the run
    /// values the BGP tier's layout alone would store (see
    /// [`PatchReport::cell_writes`](crate::PatchReport::cell_writes)).
    pub(crate) fn build_chunk(&mut self, cover: u32, items: &[u64], cells: &mut usize) -> u32 {
        let bgp_cover = if self.is_dump_slot(cover) { 0 } else { cover };
        let dump_items = items.iter().any(|&k| self.is_dump_slot(key_slot(k)));
        let top = self.paint(
            bgp_cover,
            items.iter().filter(|&&k| !self.is_dump_slot(key_slot(k))),
        );
        if bgp_cover != 0 || (cover == 0 && !dump_items) {
            // No registry answer shows through: the layout is BGP's alone.
            return self.encode(&top, None, cells);
        }
        let under = self.paint(
            cover,
            items.iter().filter(|&&k| self.is_dump_slot(key_slot(k))),
        );
        *cells += top.cells();
        self.encode(&top, Some(&under), &mut 0)
    }

    /// One tier's answers over a chunk: `items` (one tier's chunk keys, in
    /// order) painted over `cover`.
    fn paint<'a>(&self, cover: u32, items: impl Iterator<Item = &'a u64>) -> Paint {
        let mut paint = Paint {
            mid: [cover; 256],
            lows: Vec::new(),
        };
        for &key in items {
            let Some(net) = self.net_of_key(key) else {
                continue;
            };
            let addr = net.addr_u32();
            if net.len() <= 24 {
                let lo = ((addr >> 8) & 0xFF) as usize;
                let count = 1usize << (24 - net.len());
                if let Some(run) = paint.mid.get_mut(lo..lo + count) {
                    run.fill(key_slot(key));
                }
                continue;
            }
            // All /17–/24 prefixes sorted ahead of this one, so the
            // position for its third byte already holds the answer its
            // /24's longer prefixes are painted over.
            let third = ((addr >> 8) & 0xFF) as usize;
            if paint.lows.last().map(|(t, _)| *t) != Some(third) {
                let under = paint.mid.get(third).copied().unwrap_or(cover);
                paint.lows.push((third, [under; 256]));
            }
            let lo = (addr & 0xFF) as usize;
            let count = 1usize << (32 - net.len());
            let low = paint
                .lows
                .last_mut()
                .and_then(|(_, l)| l.get_mut(lo..lo + count));
            if let Some(run) = low {
                run.fill(key_slot(key));
            }
        }
        paint
    }

    /// Stores a chunk — `top`'s answers, and `under`'s where `top` has
    /// none — and returns its root entry: the low nodes in ascending /24
    /// order, then the mid node over them.
    fn encode(&mut self, top: &Paint, under: Option<&Paint>, cells: &mut usize) -> u32 {
        let mut mid = top.mid;
        let mut thirds: Vec<usize> = top.lows.iter().map(|(t, _)| *t).collect();
        if let Some(under) = under {
            for (m, &u) in mid.iter_mut().zip(&under.mid) {
                *m = if *m != 0 { *m } else { u };
            }
            thirds.extend(under.lows.iter().map(|(t, _)| *t));
            thirds.sort_unstable();
            thirds.dedup();
        }
        for third in thirds {
            let mut low = top.low(third);
            if let Some(under) = under {
                for (v, b) in low.iter_mut().zip(under.low(third)) {
                    *v = if *v != 0 { *v } else { b };
                }
            }
            let entry = self.entry_for(&low, cells);
            if let Some(e) = mid.get_mut(third) {
                *e = entry;
            }
        }
        self.entry_for(&mid, cells)
    }

    /// The arena prefix behind a [`chunk_key`].
    fn net_of_key(&self, key: u64) -> Option<Ipv4Net> {
        let slot = key_slot(key) as usize;
        self.prefixes.get(slot.wrapping_sub(1)).copied()
    }

    /// Stores 256 positions as a node of the smaller class that holds
    /// their runs and returns the entry naming it — or the value itself
    /// when all positions agree, which is how a chunk whose long prefixes
    /// were all withdrawn turns back into a leaf.
    fn entry_for(&mut self, vals: &[u32; 256], cells: &mut usize) -> u32 {
        // Where each run starts, and its value.
        let mut starts = [0u8; 256];
        let mut runs = [0u32; 256];
        let (mut n, mut prev) = (0usize, None);
        for (b, &v) in vals.iter().enumerate() {
            if prev != Some(v) {
                prev = Some(v);
                if let (Some(s), Some(r)) = (starts.get_mut(n), runs.get_mut(n)) {
                    (*s, *r) = (u8::try_from(b).unwrap_or(u8::MAX), v);
                }
                n += 1;
            }
        }
        let (Some(starts), Some(values)) = (starts.get(1..n), runs.get(..n)) else {
            return 0;
        };
        if let [only] = values {
            return *only;
        }
        *cells += n;
        if n <= PACKED_RUNS {
            return NODE_FLAG | self.small.alloc(Node32::new(starts, values));
        }
        // The spill offset is a u32; 2^32 cells would be a 16 GiB table.
        let at = u32::try_from(self.spill.len()).unwrap_or(u32::MAX);
        self.spill.extend_from_slice(values);
        NODE_FLAG | LARGE_FLAG | self.large.alloc(Node::new(starts, at))
    }

    /// Returns the node behind `entry` (if it names one) and every node
    /// below it to their stores, counting spilled cells as dead.
    pub(crate) fn free_tree(&mut self, entry: u32) {
        let mut pending = vec![entry];
        while let Some(entry) = pending.pop() {
            if entry & NODE_FLAG == 0 {
                continue;
            }
            let id = entry & INDEX_MASK;
            if entry & LARGE_FLAG == 0 {
                if let Some(node) = self.small.get(id) {
                    pending.extend_from_slice(node.values());
                    self.small.free(id);
                }
            } else if let Some(node) = self.large.get(id) {
                let values = node.values(&self.spill);
                self.dead_cells += values.len();
                pending.extend_from_slice(values);
                self.large.free(id);
            }
        }
    }

    /// Wires the lookup counters to `obs`: `lpm.lookups`, `lpm.misses`
    /// (no prefix of either tier), `lpm.dump_fallbacks` (no BGP prefix),
    /// and per tier `lpm.bgp.*` / `lpm.dump.*`, where the registry tier
    /// counts the fallbacks as its lookups. Counting is per scalar call or
    /// per batch; [`lookup_handle`](Self::lookup_handle) itself stays
    /// uninstrumented so the innermost loop is identical in both modes.
    pub fn attach_obs(&mut self, obs: &Obs) {
        self.obs = TableObs::resolve(obs);
    }

    /// One level of the lookup: the value of node `entry` at the low byte
    /// of `bits`.
    #[inline]
    fn step(&self, entry: u32, bits: u32) -> u32 {
        // Entries only ever name nodes this table allocated; a miss on a
        // corrupt id degrades to "no match".
        let (id, byte) = (entry & INDEX_MASK, bits & 0xFF);
        if entry & LARGE_FLAG == 0 {
            self.small.get(id).map_or(0, |n| n.value(byte))
        } else {
            self.large.get(id).map_or(0, |n| n.value(byte, &self.spill))
        }
    }

    /// Longest-prefix match returning a dense [`Handle`]: the root load
    /// for addresses whose /16 holds nothing longer than /16, one node
    /// step more for /17–/24, two for longer prefixes.
    #[inline]
    pub fn lookup_handle(&self, addr: u32) -> Handle {
        // `root` is empty or 2^16 entries, so the `get` doubles as the
        // empty-table miss.
        let Some(&(mut entry)) = self.root.get((addr >> 16) as usize) else {
            return Handle::NONE;
        };
        if entry & NODE_FLAG != 0 {
            entry = self.step(entry, addr >> 8);
            if entry & NODE_FLAG != 0 {
                entry = self.step(entry, addr);
            }
        }
        Handle::from_slot(entry)
    }

    /// `true` when `handle` is no BGP match: a registry match or a miss.
    #[inline]
    fn falls_back(&self, handle: Handle) -> bool {
        // NONE wraps to slot 0.
        handle.0.wrapping_add(1) <= self.dump_len
    }

    /// The cluster prefix for `addr`: its longest BGP match, else its
    /// longest registry match. Counted (see [`attach_obs`](Self::attach_obs)).
    #[inline]
    pub fn lookup(&self, addr: u32) -> Option<Ipv4Net> {
        self.resolve(self.match_handle(addr))
    }

    /// [`lookup`](Self::lookup) stopped at the handle: counted like it,
    /// for a caller that keys its own state by handle.
    #[inline]
    pub fn match_handle(&self, addr: u32) -> Handle {
        let h = self.lookup_handle(addr);
        self.obs
            .count(1, u64::from(self.falls_back(h)), u64::from(h.is_none()));
        h
    }

    /// The prefix a handle refers to, or `None` for [`Handle::NONE`] (or a
    /// handle from a different table that falls outside this arena).
    #[inline]
    pub fn resolve(&self, handle: Handle) -> Option<Ipv4Net> {
        handle.index().and_then(|i| self.prefixes.get(i)).copied()
    }

    /// The handle a match that ends on exactly `prefix` yields: its live
    /// BGP entry's, else its registry entry's, else `None` — which a
    /// lookup of the prefix's address cannot tell when a longer prefix
    /// starts there.
    pub fn handle_of(&self, prefix: Ipv4Net) -> Option<Handle> {
        let bgp = match &self.patch {
            Some(state) => state.live.get(&prefix).copied(),
            None => (self.bgp_arena().binary_search(&prefix).ok())
                .and_then(|i| u32::try_from(i).ok())
                .map(|i| self.dump_len + i),
        };
        let dump = || self.dump_arena().binary_search(&prefix).ok();
        bgp.or_else(|| dump().and_then(|i| u32::try_from(i).ok()))
            .map(Handle)
    }

    /// Which tier a handle's prefix came from, or `None` for
    /// [`Handle::NONE`] (or a handle outside this arena).
    #[inline]
    pub fn source(&self, handle: Handle) -> Option<MatchSource> {
        self.resolve(handle)?;
        Some(if self.falls_back(handle) {
            MatchSource::NetworkDump
        } else {
            MatchSource::Bgp
        })
    }

    /// Batch form of [`match_handle`](Self::match_handle), counted once
    /// for the batch. The stream's table swaps re-resolve every client
    /// with it; the ingest kernel calls [`net_for_slice`](Self::net_for_slice).
    pub fn match_handles(&self, addrs: &[u32]) -> Vec<Handle> {
        let (mut fallbacks, mut misses) = (0u64, 0u64);
        let handles = (addrs.iter())
            .map(|&addr| {
                let h = self.lookup_handle(addr);
                fallbacks += u64::from(self.falls_back(h));
                misses += u64::from(h.is_none());
                h
            })
            .collect();
        self.obs.count(addrs.len() as u64, fallbacks, misses);
        handles
    }

    /// Batch form of [`lookup`](Self::lookup):
    /// fills `out[i]` with the cluster for `addrs[i]` (no allocation at
    /// all — the parallel ingest merge hands each worker-sized span of one
    /// pre-sized assignment vector straight to this). `_distance` was the
    /// software-prefetch lookahead of the DIR-24-8 layout and is ignored;
    /// it stays for the frozen benchmark harness's call (see
    /// [`DEFAULT_PREFETCH_DISTANCE`]).
    ///
    /// # Panics
    ///
    /// Panics when `out` is shorter than `addrs`.
    pub fn net_for_slice(&self, addrs: &[u32], out: &mut [Option<Ipv4Net>], _distance: usize) {
        assert!(out.len() >= addrs.len(), "output buffer too short");
        let mut fallbacks = 0u64;
        let mut misses = 0u64;
        for (&addr, slot) in addrs.iter().zip(out.iter_mut()) {
            let h = self.lookup_handle(addr);
            fallbacks += u64::from(self.falls_back(h));
            misses += u64::from(h.is_none());
            *slot = self.resolve(h);
        }
        // Counting is batched so the per-address loop above is untouched.
        self.obs.count(addrs.len() as u64, fallbacks, misses);
    }

    /// The dense prefix arena; [`Handle`]s index into this slice. On a
    /// table patched in place ([`apply_delta`](Self::apply_delta)) the
    /// arena may contain dead entries no slot references any more; use
    /// [`live_prefixes`](Self::live_prefixes) for the current prefix
    /// set.
    pub fn prefixes(&self) -> &[Ipv4Net] {
        &self.prefixes
    }

    /// The registry tier, sorted. Patches never change it.
    pub fn dump_prefixes(&self) -> &[Ipv4Net] {
        self.dump_arena()
    }

    /// The BGP tier's current live prefix set, sorted: its arena part
    /// minus withdrawn entries. Equals that part on a freshly compiled
    /// table. On a table from [`tiered`](Self::tiered) with no registry
    /// tier that is every prefix.
    pub fn live_prefixes(&self) -> Vec<Ipv4Net> {
        self.live_iter().collect()
    }

    /// [`live_prefixes`](Self::live_prefixes) without the vector: the
    /// arena itself while it is unpatched (the compile sorted it), the
    /// patch layer's live map in order once the table is patched.
    pub fn live_iter(&self) -> LivePrefixes<'_> {
        LivePrefixes(match &self.patch {
            Some(state) => Live::Map(state.live.keys()),
            None => Live::Arena(self.bgp_arena().iter()),
        })
    }

    /// Number of live prefixes, both tiers, each counted once per tier
    /// (the compile collapsed duplicates): the arena length before any
    /// patch, the registry tier and the live map after.
    pub fn len(&self) -> usize {
        match &self.patch {
            Some(state) => self.dump_arena().len() + state.live.len(),
            None => self.prefixes.len(),
        }
    }

    /// `true` when no prefixes are live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of live nodes. A function of the live prefix set alone: a
    /// patched table has as many as a fresh compile of the same set.
    pub fn nodes(&self) -> usize {
        self.node_classes().iter().sum()
    }

    /// Live nodes of each class: 32-byte (2–6 runs) and 64-byte (7 runs
    /// or more, values spilled).
    pub fn node_classes(&self) -> [usize; 2] {
        [self.small.live(), self.large.live()]
    }

    /// `spill` cells no node references any more (garbage the next
    /// compaction drops; see [`apply_delta`](Self::apply_delta)).
    pub fn dead_cells(&self) -> usize {
        self.dead_cells
    }

    /// Lookup-side memory footprint in bytes: every array a lookup or a
    /// patch of the layout touches, free list and dead cells included.
    /// The live map the first [`apply_delta`](Self::apply_delta) builds
    /// is not counted; [`patch_state_bytes`](Self::patch_state_bytes) is.
    pub fn memory_bytes(&self) -> usize {
        self.root.len() * 4
            + self.small.bytes()
            + self.large.bytes()
            + self.spill.len() * 4
            + self.prefixes.len() * std::mem::size_of::<Ipv4Net>()
    }

    /// What the patch layer holds beside the layout, 0 before the first
    /// [`apply_delta`](Self::apply_delta): its live map's nodes,
    /// estimated from its entries, and its free handles.
    pub fn patch_state_bytes(&self) -> usize {
        self.patch.as_ref().map_or(0, |state| state.heap_bytes())
    }
}

impl fmt::Debug for CompiledTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompiledTable")
            .field("prefixes", &self.prefixes.len())
            .field("dump_len", &self.dump_len)
            .field("nodes", &self.nodes())
            .field("node_classes", &self.node_classes())
            .field("memory_bytes", &self.memory_bytes())
            .finish()
    }
}

/// The live BGP prefixes of a [`CompiledTable`] in ascending order, from
/// [`CompiledTable::live_iter`].
pub struct LivePrefixes<'a>(Live<'a>);

enum Live<'a> {
    Arena(std::slice::Iter<'a, Ipv4Net>),
    Map(std::collections::btree_map::Keys<'a, Ipv4Net, u32>),
}

impl Iterator for LivePrefixes<'_> {
    type Item = Ipv4Net;

    fn next(&mut self) -> Option<Ipv4Net> {
        match &mut self.0 {
            Live::Arena(arena) => arena.next().copied(),
            Live::Map(keys) => keys.next().copied(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = match &self.0 {
            Live::Arena(arena) => arena.len(),
            Live::Map(keys) => keys.len(),
        };
        (left, Some(left))
    }
}

impl ExactSizeIterator for LivePrefixes<'_> {}

impl MergedTable {
    /// Compiles both tiers into one [`CompiledTable`] for array-indexed
    /// lookups, straight from their sorted lists. Recompile after mutating
    /// the source tables.
    pub fn compile(&self) -> CompiledTable {
        CompiledTable::tiered(self.bgp_prefixes(), self.dump_prefixes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{RoutingTable, TableKind};
    use crate::trie::PrefixTrie;
    use netclust_testkit::{net, nets};
    use std::net::Ipv4Addr;

    fn a(s: &str) -> u32 {
        s.parse::<Ipv4Addr>().unwrap().into()
    }

    #[test]
    fn empty_table_allocates_nothing_and_misses() {
        let t = CompiledTable::tiered(&[], &[]);
        assert!(t.is_empty());
        assert_eq!(t.memory_bytes(), 0);
        assert_eq!(t.lookup_handle(a("1.2.3.4")), Handle::NONE);
        assert!(t.lookup(a("1.2.3.4")).is_none());
    }

    #[test]
    fn short_prefixes_single_load() {
        let t = CompiledTable::tiered(&[net("12.0.0.0/8"), net("12.65.128.0/19")], &[]);
        assert_eq!(t.lookup(a("12.65.147.94")), Some(net("12.65.128.0/19")));
        assert_eq!(t.lookup(a("12.1.1.1")), Some(net("12.0.0.0/8")));
        assert!(t.lookup(a("99.1.1.1")).is_none());
        // The /19 makes its /16 a one-node chunk; the /8's other 255 root
        // entries stay leaves.
        assert_eq!(t.nodes(), 1);
    }

    #[test]
    fn long_prefixes_take_a_second_node_step() {
        let t = CompiledTable::tiered(
            &[
                net("24.48.2.0/24"),
                net("24.48.2.128/25"),
                net("24.48.2.192/32"),
            ],
            &[],
        );
        assert_eq!(t.lookup(a("24.48.2.1")), Some(net("24.48.2.0/24")));
        assert_eq!(t.lookup(a("24.48.2.129")), Some(net("24.48.2.128/25")));
        assert_eq!(t.lookup(a("24.48.2.192")), Some(net("24.48.2.192/32")));
        assert_eq!(t.lookup(a("24.48.2.255")), Some(net("24.48.2.128/25")));
        assert!(t.lookup(a("24.48.3.1")).is_none());
        assert_eq!(t.nodes(), 2, "one node per level under 24.48/16");
    }

    #[test]
    fn long_prefix_without_short_cover() {
        // A /26 with no enclosing ≤/24: bytes outside it must miss.
        let t = CompiledTable::tiered(&[net("10.0.0.64/26")], &[]);
        assert_eq!(t.lookup(a("10.0.0.100")), Some(net("10.0.0.64/26")));
        assert!(t.lookup(a("10.0.0.1")).is_none());
        assert!(t.lookup(a("10.0.0.128")).is_none());
    }

    #[test]
    fn default_route_covers_everything() {
        let t = CompiledTable::tiered(&[Ipv4Net::DEFAULT, net("18.0.0.0/8")], &[]);
        assert_eq!(t.lookup(a("18.1.2.3")), Some(net("18.0.0.0/8")));
        assert_eq!(t.lookup(a("200.1.2.3")), Some(Ipv4Net::DEFAULT));
    }

    #[test]
    fn handle_matches_scalar() {
        let t = CompiledTable::tiered(&[net("12.0.0.0/8"), net("24.48.2.0/23")], &[]);
        for ip in ["12.1.2.3", "24.48.3.87"] {
            assert_eq!(t.resolve(t.lookup_handle(a(ip))), t.lookup(a(ip)), "{ip}");
        }
        assert!(t.lookup_handle(a("99.9.9.9")).is_none());
    }

    #[test]
    fn every_run_boundary_resolves_like_the_trie() {
        // A chunk whose mid node spills (7 runs or more) over
        // a /12 cover, with >/24 prefixes at both ends of a /24.
        let specs = [
            "24.48.0.0/12",
            "24.48.1.0/24",
            "24.48.3.0/24",
            "24.48.5.0/24",
            "24.48.64.0/18",
            "24.48.255.0/24",
            "24.48.2.0/25",
            "24.48.2.255/32",
            "24.48.3.0/32",
        ];
        let t = CompiledTable::tiered(&nets(&specs), &[]);
        assert!(!t.spill.is_empty(), "the mid node's runs are spilled");
        let trie: PrefixTrie<()> = nets(&specs).into_iter().map(|n| (n, ())).collect();
        for probe in a("24.47.255.0")..=a("24.49.1.0") {
            let expect = trie.longest_match_u32(probe).map(|(n, _)| n);
            assert_eq!(t.lookup(probe), expect, "probe {probe:#x}");
        }
    }

    #[test]
    fn net_for_slice_matches_batch() {
        let bgp = RoutingTable::new("B", "d0", TableKind::Bgp, vec![net("12.0.0.0/8")]);
        let dump = RoutingTable::new("N", "d0", TableKind::NetworkDump, vec![net("24.48.2.0/23")]);
        let compiled = MergedTable::merge([&bgp, &dump]).compile();
        let addrs: Vec<u32> = ["12.1.2.3", "24.48.3.87", "99.9.9.9", "24.48.2.166"]
            .iter()
            .map(|s| a(s))
            .collect();
        let handles = compiled.match_handles(&addrs);
        let expect: Vec<_> = handles.iter().map(|&h| compiled.resolve(h)).collect();
        let mut out = vec![None; addrs.len()];
        compiled.net_for_slice(&addrs, &mut out, DEFAULT_PREFETCH_DISTANCE);
        assert_eq!(out, expect);
        // Writing into a span of a larger buffer leaves the tail alone.
        let mut wide = vec![Some(net("6.0.0.0/8")); addrs.len() + 3];
        compiled.net_for_slice(&addrs, &mut wide[..addrs.len()], 1);
        assert_eq!(&wide[..addrs.len()], &expect[..]);
        assert_eq!(wide[addrs.len()], Some(net("6.0.0.0/8")));
    }

    #[test]
    fn handle_resolves_to_arena_prefix() {
        let t = CompiledTable::tiered(&[net("10.0.0.0/8")], &[]);
        let h = t.lookup_handle(a("10.1.2.3"));
        assert!(h.is_some());
        assert_eq!(t.prefixes()[h.index().unwrap()], net("10.0.0.0/8"));
        assert_eq!(t.source(h), Some(MatchSource::Bgp));
        assert_eq!(t.source(Handle::NONE), None);
    }

    /// `handle_of` names the entry a match ending on the prefix yields,
    /// compiled from any order and patched, where a lookup of the prefix's
    /// address may land on a longer prefix.
    #[test]
    fn handle_of_names_the_entry_a_match_on_the_prefix_ends_on() {
        let bgp = RoutingTable::new(
            "B",
            "d0",
            TableKind::Bgp,
            vec![net("10.0.0.0/16"), net("10.0.0.0/8")],
        );
        let dump = RoutingTable::new(
            "N",
            "d0",
            TableKind::NetworkDump,
            vec![net("10.0.0.0/8"), net("10.1.0.0/16")],
        );
        let mut t = MergedTable::merge([&bgp, &dump]).compile();
        let of = |t: &CompiledTable, p: &str| t.handle_of(net(p)).unwrap();
        // The BGP /8 shadows the registry's equal one; 10.0.0.1 reaches
        // the /16 at the /8's address, 10.2.0.1 the /8.
        assert_eq!(of(&t, "10.0.0.0/8"), t.lookup_handle(a("10.2.0.1")));
        assert_eq!(of(&t, "10.0.0.0/16"), t.lookup_handle(a("10.0.0.1")));
        // Under the BGP /8 the registry /16 is no address's match, but it
        // has its entry.
        let h = of(&t, "10.1.0.0/16");
        assert_eq!(t.resolve(h), Some(net("10.1.0.0/16")));
        assert_eq!(t.source(h), Some(MatchSource::NetworkDump));
        assert_eq!(t.handle_of(net("11.0.0.0/8")), None);
        // Patched: the withdrawn /8 uncovers the registry's, an announce
        // gets a handle of its own.
        t.apply_delta(&[
            crate::TableDelta::withdraw(net("10.0.0.0/8")),
            crate::TableDelta::announce(net("10.3.0.0/16")),
        ]);
        assert_eq!(of(&t, "10.0.0.0/8"), t.lookup_handle(a("10.2.0.1")));
        assert_eq!(
            t.source(of(&t, "10.0.0.0/8")),
            Some(MatchSource::NetworkDump)
        );
        assert_eq!(of(&t, "10.3.0.0/16"), t.lookup_handle(a("10.3.0.1")));
        assert_eq!(of(&t, "10.1.0.0/16"), t.lookup_handle(a("10.1.0.1")));
        // Unsorted, with a duplicate: the compile keeps one entry, in
        // order, and that is the one painted.
        let t = CompiledTable::tiered(
            &[net("10.0.0.0/16"), net("9.0.0.0/8"), net("10.0.0.0/16")],
            &[],
        );
        assert_eq!(t.prefixes(), [net("9.0.0.0/8"), net("10.0.0.0/16")]);
        assert_eq!(of(&t, "10.0.0.0/16"), t.lookup_handle(a("10.0.0.1")));
        assert_eq!(of(&t, "10.0.0.0/16").index(), Some(1));
    }

    /// The two shapes `live_iter` walks — the arena, which the compile
    /// sorted and deduplicated whatever order it was given, and a patched
    /// table's live map — list the live set ascending, and say how many
    /// are left as they go.
    #[test]
    fn live_iter_lists_the_live_set_in_order_from_the_arena_or_the_map() {
        use crate::patch::TableDelta;
        let ordered = [net("10.0.0.0/8"), net("10.0.0.0/24"), net("12.0.0.0/8")];
        let in_order = CompiledTable::tiered(&ordered, &[]);
        assert!(matches!(in_order.live_iter().0, Live::Arena(_)));
        let shuffled = [ordered[2], ordered[0], ordered[1], ordered[0]];
        let out_of_order = CompiledTable::tiered(&shuffled, &[]);
        assert!(matches!(out_of_order.live_iter().0, Live::Arena(_)));
        let mut patched = CompiledTable::tiered(&ordered, &[]);
        patched.apply_delta(&[
            TableDelta::withdraw(ordered[1]),
            TableDelta::announce(net("11.0.0.0/8")),
        ]);
        assert!(matches!(patched.live_iter().0, Live::Map(_)));
        let after_patch = [ordered[0], net("11.0.0.0/8"), ordered[2]];
        for (table, want) in [
            (&in_order, &ordered[..]),
            (&out_of_order, &ordered[..]),
            (&patched, &after_patch[..]),
        ] {
            let mut live = table.live_iter();
            for (i, &p) in want.iter().enumerate() {
                assert_eq!(live.len(), want.len() - i);
                assert_eq!(live.next(), Some(p));
            }
            assert_eq!((live.len(), live.next()), (0, None));
            assert_eq!(table.live_prefixes(), want);
        }
    }

    #[test]
    fn memory_accounting_counts_every_array() {
        // Root + one mid node + one low node (3 and 2 runs: 32 bytes
        // each) + the arena.
        let t = CompiledTable::tiered(&[net("24.48.2.0/24"), net("24.48.2.128/25")], &[]);
        assert_eq!(t.nodes(), 2);
        assert!(t.spill.is_empty());
        let expect = ROOT_LEN * 4 + 2 * 32 + 2 * std::mem::size_of::<Ipv4Net>();
        assert_eq!(t.memory_bytes(), expect);
        assert!(t.patch.is_none(), "no live map before a patch");

        // A spilled node adds its run values. Freed nodes and dead cells
        // stay counted: they are memory the table holds until it compacts.
        let mut t = CompiledTable::tiered(
            &(0..8u32)
                .map(|i| Ipv4Net::new(0x1830_0000 | (i << 9), 24).unwrap())
                .collect::<Vec<_>>(),
            &[],
        );
        assert_eq!(t.nodes(), 1);
        assert_eq!(t.spill.len(), 16, "8 /24s over a miss: 16 runs");
        let fixed = ROOT_LEN * 4 + 8 * std::mem::size_of::<Ipv4Net>();
        assert_eq!(t.memory_bytes(), fixed + 64 + 16 * 4);
        for p in t.prefixes().to_vec() {
            t.apply_delta(&[crate::TableDelta::withdraw(p)]);
        }
        // The one chunk's node was its store's last each time it was
        // freed, so no store kept it.
        assert_eq!(t.nodes(), 0);
        assert_eq!((t.small.free.len(), t.large.free.len()), (0, 0));
        assert_eq!(t.dead_cells(), t.spill.len(), "every spilled range is dead");
        assert_eq!(t.memory_bytes(), fixed + t.spill.len() * 4);
        assert!(t.patch.is_some());
    }

    #[test]
    fn one_slot_width_holds_any_number_of_long_prefixes() {
        // More >/24 prefixes than a 16-bit slot could address — the case
        // the DIR-24-8 layout needed a second, wider group format for.
        let n = (u16::MAX as usize) + 16;
        let mut prefixes = vec![net("0.0.0.0/0")];
        prefixes.extend((0..n as u32).map(|i| Ipv4Net::new(i << 8, 25).unwrap()));
        let t = CompiledTable::tiered(&prefixes, &[]);
        // One low node per /24 holding a /25, one mid node per /16 above.
        assert_eq!(t.nodes(), n + n.div_ceil(256));

        let mut trie = PrefixTrie::new();
        for &p in &prefixes {
            trie.insert(p, ());
        }
        for probe in [
            a("0.0.0.1"),
            a("0.0.0.200"),
            a("0.1.2.3"),
            a("1.0.3.3"),
            a("200.1.2.3"),
            u32::from(Ipv4Addr::from((n as u32 - 1) << 8)),
            u32::from(Ipv4Addr::from((n as u32) << 8)),
        ] {
            let expect = trie.longest_match_u32(probe).map(|(p, _)| p);
            assert_eq!(t.lookup(probe), expect, "{probe:#x}");
        }
    }

    /// Runs a build with nesting at every level and a full /16 lookup
    /// sweep in a debug build, executing every `debug_assert!` invariant
    /// in `build` and `entry_for` (slot and node-id bounds).
    #[cfg(debug_assertions)]
    #[test]
    fn debug_invariants_hold_across_build_and_sweep() {
        let specs = [
            "10.0.0.0/8",
            "10.1.0.0/16",
            "10.1.2.0/24",
            "10.1.2.128/25",
            "10.1.2.192/26",
            "10.1.3.128/25",
            "10.1.4.128/25",
            "10.1.2.192/26", // duplicate: same nodes, one arena entry
        ];
        let t = CompiledTable::tiered(&nets(&specs), &[]);
        assert_eq!(t.nodes(), 4); // 10.1/16, then 10.1.2.x, 10.1.3.x, 10.1.4.x
        assert_eq!(t.len(), specs.len() - 1);
        let mut trie = PrefixTrie::new();
        for n in nets(&specs) {
            trie.insert(n, ());
        }
        for lo in 0..=0xFFFFu32 {
            let probe = (10 << 24) | (1 << 16) | lo;
            let expect = trie.longest_match_u32(probe).map(|(n, _)| n);
            assert_eq!(t.lookup(probe), expect, "probe {probe:#x}");
        }
        // Foreign/corrupt handles degrade to "no match", never a panic.
        assert_eq!(t.resolve(Handle(1_000_000)), None);
        assert_eq!(t.resolve(Handle::NONE), None);
    }

    proptest::proptest! {
        /// Every class that holds an array's runs answers each of its 256
        /// positions as the array does, and so does the node `entry_for`
        /// picks, read through `step`.
        #[test]
        fn every_class_answers_each_position_like_the_array(
            cuts in proptest::collection::btree_set(1u8..=255, 1..20),
            picks in proptest::collection::vec(1u32..1 << 20, 20),
        ) {
            // Run i starts at byte 0 or at the i-th cut; neighbours differ.
            let starts: Vec<u8> = cuts.into_iter().collect();
            let mut values: Vec<u32> = Vec::new();
            for &pick in picks.iter().take(starts.len() + 1) {
                let same = values.last() == Some(&pick);
                values.push(pick + u32::from(same));
            }
            let mut array = [0u32; 256];
            for (b, v) in array.iter_mut().enumerate() {
                let run = starts.iter().filter(|&&s| usize::from(s) <= b).count();
                *v = values[run];
            }
            let n = values.len();
            let large = Node::new(&starts, 0);
            for b in 0..=255u32 {
                let want = array[b as usize];
                if n <= PACKED_RUNS {
                    proptest::prop_assert_eq!(Node32::new(&starts, &values).value(b), want);
                }
                proptest::prop_assert_eq!(large.value(b, &values), want);
            }
            let mut t = CompiledTable::tiered(&[], &[]);
            let entry = t.entry_for(&array, &mut 0);
            let large = entry & LARGE_FLAG != 0;
            proptest::prop_assert_eq!((large, t.nodes()), (n > PACKED_RUNS, 1));
            for b in 0..=255u32 {
                proptest::prop_assert_eq!(t.step(entry, b), array[b as usize]);
            }
        }
    }

    #[test]
    fn attached_counters_track_lookups_and_misses() {
        let obs = Obs::enabled();
        let bgp = RoutingTable::new("B", "d0", TableKind::Bgp, vec![net("12.0.0.0/8")]);
        let dump = RoutingTable::new("N", "d0", TableKind::NetworkDump, vec![net("24.48.2.0/23")]);
        let mut compiled = MergedTable::merge([&bgp, &dump]).compile();
        compiled.attach_obs(&obs);

        // Batch: one BGP hit, one dump fallback hit, one full miss.
        let addrs: Vec<u32> = ["12.1.2.3", "24.48.3.87", "99.9.9.9"]
            .iter()
            .map(|s| a(s))
            .collect();
        assert_eq!(compiled.match_handles(&addrs).len(), 3);
        // Scalar: one more full miss, and a BGP hit that stops at its handle.
        assert_eq!(compiled.lookup(a("99.9.9.9")), None);
        let h = compiled.match_handle(a("12.9.9.9"));
        assert_eq!(compiled.resolve(h), Some(net("12.0.0.0/8")));

        let snap = obs.snapshot(true);
        assert_eq!(snap.counters.get("lpm.lookups"), Some(&5));
        assert_eq!(snap.counters.get("lpm.misses"), Some(&2));
        assert_eq!(snap.counters.get("lpm.dump_fallbacks"), Some(&3));
        assert_eq!(snap.counters.get("lpm.bgp.lookups"), Some(&5));
        assert_eq!(snap.counters.get("lpm.bgp.misses"), Some(&3));
        assert_eq!(snap.counters.get("lpm.dump.lookups"), Some(&3));
        assert_eq!(snap.counters.get("lpm.dump.misses"), Some(&2));
    }
}
