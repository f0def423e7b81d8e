//! A compiled longest-prefix-match table: a DIR-16 root over
//! popcount-compressed nodes.
//!
//! The [`PrefixTrie`] is the *build-side* structure: cheap inserts and
//! removals, but every lookup walks up to 32 pointer-chasing node hops.
//! For the clustering hot path — millions of client addresses matched
//! against a frozen table — [`CompiledTable`] flattens the same prefix
//! set into three arrays small enough to stay in cache:
//!
//! * `root`: one `u32` per /16 (2^16 entries, 256 KiB). An entry is
//!   either a *leaf slot* (`handle + 1`, `0` = no match) or, with
//!   [`NODE_FLAG`] set, the id of a node.
//! * `nodes`: 64-byte [`Node`]s, each covering the next 8 address bits.
//!   The node's 256 positions are stored run-length compressed: a 256-bit
//!   bitmap marks where a run of equal values starts, per-word popcount
//!   prefixes turn "which run is byte `b` in" into one `popcnt`, and the
//!   run values (again leaf slots or child node ids) sit inline (up to
//!   [`INLINE_RUNS`]) or in `spill`. The same node type serves address
//!   bits 15..8 and bits 7..0, so a lookup is the root load plus at most
//!   two identical [`step`](CompiledTable::step)s.
//! * `spill`: run values of nodes with more runs than fit inline.
//!
//! Nodes are *leaf-pushed*: every position carries its final answer (the
//! longest match at that depth, covering shorter prefixes included), so
//! no lookup ever backtracks or consults a fallback.
//!
//! Matches are returned as [`Handle`]s — dense `Copy` indices into a
//! prefix arena — so batch lookups move no heap data and results can be
//! compared, hashed, and resolved to an [`Ipv4Net`] later.
//!
//! Build cost is one sort of the prefixes by /16 chunk plus one 256-entry
//! paint-and-encode per node. Routing updates patch the layout chunk by
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
use std::net::Ipv4Addr;

use netclust_obs::{Counter, Obs};
use netclust_prefix::Ipv4Net;

use crate::table::{MatchSource, MergedTable};
use crate::trie::{PrefixTrie, PrefixTrieIter};

/// Lookup/miss counters for one compiled tier. Disabled (no-op) by default;
/// [`CompiledTable::attach_obs`] resolves live handles. Counting happens at
/// call/batch granularity so the inner `lookup_handle` loop stays pure.
#[derive(Clone, Debug, Default)]
struct TableObs {
    lookups: Counter,
    misses: Counter,
}

impl TableObs {
    fn resolve(obs: &Obs, prefix: &str) -> Self {
        Self {
            lookups: obs.counter(&format!("{prefix}.lookups")),
            misses: obs.counter(&format!("{prefix}.misses")),
        }
    }
}

/// Set on a root entry or run value that names a node (low 31 bits = node
/// id) instead of encoding a match directly.
pub(crate) const NODE_FLAG: u32 = 1 << 31;

/// Root entries of a materialized table: one per /16.
pub(crate) const ROOT_LEN: usize = 1 << 16;

/// Run values a node stores in its own cache line; longer run arrays live
/// in `spill`.
const INLINE_RUNS: usize = 6;

/// `Node::spill` value of a node whose runs are inline.
const NO_SPILL: u32 = u32::MAX;

/// Accepted by [`CompiledMerged::net_for_slice`] and ignored: the table is
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

/// 256 leaf-pushed positions (one per value of the next address byte),
/// stored as runs of equal values. One cache line.
#[derive(Clone, Copy)]
#[repr(C, align(64))]
pub(crate) struct Node {
    /// Bit `b` of the 256-bit map is set when a run starts at byte `b`;
    /// bit 0 is always set.
    starts: [u64; 4],
    /// Runs starting in the words before word `w` (`rank[0]` is 0), so
    /// byte `b`'s run is `rank[b / 64] + popcount(starts[b / 64] up to b) - 1`.
    rank: [u8; 4],
    /// Offset of this node's run values in `CompiledTable::spill`, or
    /// [`NO_SPILL`] when they are `inline`.
    spill: u32,
    /// The run values when there are at most [`INLINE_RUNS`] of them.
    inline: [u32; INLINE_RUNS],
}

impl Node {
    /// Encodes 256 positions, writing the run values to `runs` and
    /// returning the node (still without storage for them) and their
    /// count.
    fn encode(vals: &[u32; 256], runs: &mut [u32; 256]) -> (Node, usize) {
        let mut node = Node {
            starts: [0; 4],
            rank: [0; 4],
            spill: NO_SPILL,
            inline: [0; INLINE_RUNS],
        };
        let mut n = 0usize;
        let mut prev = None;
        let words = node.starts.iter_mut().zip(node.rank.iter_mut());
        for ((word, rank), bytes) in words.zip(vals.chunks(64)) {
            // At most 192 runs start before the last word.
            *rank = u8::try_from(n).unwrap_or(u8::MAX);
            for (b, &v) in bytes.iter().enumerate() {
                if prev != Some(v) {
                    prev = Some(v);
                    *word |= 1 << b;
                    if let Some(r) = runs.get_mut(n) {
                        *r = v;
                    }
                    n += 1;
                }
            }
        }
        (node, n)
    }

    /// Number of runs (= stored values).
    fn runs(&self) -> usize {
        self.starts.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The run values, wherever they are stored.
    fn values<'a>(&'a self, spill: &'a [u32]) -> &'a [u32] {
        let n = self.runs();
        let stored = if self.spill == NO_SPILL {
            self.inline.get(..n)
        } else {
            let at = self.spill as usize;
            spill.get(at..at + n)
        };
        stored.unwrap_or(&[])
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
        let cell = if self.spill == NO_SPILL {
            self.inline.get(run)
        } else {
            spill.get((self.spill as usize).wrapping_add(run))
        };
        cell.copied().unwrap_or(0)
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

/// A longest-prefix-match table compiled to the DIR-16 + compressed-node
/// layout. Built from a [`PrefixTrie`] (see [`PrefixTrie::compile`]) or
/// any prefix list (see [`CompiledTable::from_prefixes`]).
///
/// ```
/// use netclust_rtable::{CompiledTable, PrefixTrie};
///
/// let mut trie = PrefixTrie::new();
/// trie.insert("12.0.0.0/8".parse().unwrap(), ());
/// trie.insert("12.65.128.0/19".parse().unwrap(), ());
/// let table = trie.compile();
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
    /// Node storage; ids index into this. Freed ids are in `free_nodes`.
    pub(crate) nodes: Vec<Node>,
    /// Run values of nodes with more than [`INLINE_RUNS`] runs.
    /// Append-only between compactions: a freed node's range is counted
    /// in `dead_cells`, not reused.
    pub(crate) spill: Vec<u32>,
    /// Ids of nodes no entry references any more, reused before `nodes`
    /// grows.
    pub(crate) free_nodes: Vec<u32>,
    /// `spill` cells that belonged to freed nodes.
    pub(crate) dead_cells: usize,
    /// Dense prefix arena; [`Handle`]s index into this. After in-place
    /// patching the arena may contain dead (withdrawn) entries that no
    /// slot references; see [`live_prefixes`](Self::live_prefixes).
    pub(crate) prefixes: Vec<Ipv4Net>,
    /// `prefixes` was compiled strictly increasing, so until a patch the
    /// arena is its own live set in order (a [`MergedTable`] tier is).
    sorted: bool,
    /// Incremental-update bookkeeping (shadow trie, free handles); built
    /// by the first [`apply_delta`](Self::apply_delta) call.
    pub(crate) patch: Option<Box<crate::patch::PatchState>>,
    /// Lookup/miss accounting (no-op unless attached).
    obs: TableObs,
}

impl CompiledTable {
    /// Compiles a prefix list. Order does not matter; duplicates keep one
    /// arena entry each (the last occurrence wins the match, but equal
    /// prefixes are indistinguishable as [`Ipv4Net`]s anyway).
    pub fn from_prefixes(prefixes: impl IntoIterator<Item = Ipv4Net>) -> Self {
        let mut table = CompiledTable {
            root: Vec::new(),
            nodes: Vec::new(),
            spill: Vec::new(),
            free_nodes: Vec::new(),
            dead_cells: 0,
            prefixes: prefixes.into_iter().collect(),
            sorted: false,
            patch: None,
            obs: TableObs::default(),
        };
        table.sorted = table.prefixes.is_sorted_by(|a, b| a < b);
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

    /// Rebuilds `root`, `nodes` and `spill` from scratch for the arena
    /// entries named by `live` (the compile step, and the patch layer's
    /// bulk and compaction path). The arena itself is left alone.
    pub(crate) fn rebuild(&mut self, live: impl Iterator<Item = u32>) {
        self.root.clear();
        self.root.resize(ROOT_LEN, 0);
        self.nodes.clear();
        self.spill.clear();
        self.free_nodes.clear();
        self.dead_cells = 0;

        // (length, handle) of the ≤/16 prefixes; chunk keys of the rest.
        let mut short: Vec<(u8, u32)> = Vec::new();
        let mut long: Vec<u64> = Vec::with_capacity(live.size_hint().0);
        for h in live {
            let Some(net) = self.prefixes.get(h as usize) else {
                continue;
            };
            if net.len() <= 16 {
                short.push((net.len(), h));
            } else {
                long.push(chunk_key(*net, h + 1));
            }
        }
        // Ascending length, so longer prefixes overwrite shorter ones.
        short.sort_unstable();
        for (len, h) in short {
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
    /// `cover` is the slot of the longest ≤/16 match over the chunk;
    /// `items` are the [`chunk_key`]s of the chunk's longer prefixes,
    /// sorted. `cells` is advanced by the number of run values written.
    pub(crate) fn build_chunk(&mut self, cover: u32, items: &[u64], cells: &mut usize) -> u32 {
        let mut mid = [cover; 256];
        let mut items = items.iter().peekable();
        while let Some(&key) = items.next() {
            let Some(net) = self.net_of_key(key) else {
                continue;
            };
            if net.len() <= 24 {
                let lo = ((net.addr_u32() >> 8) & 0xFF) as usize;
                let count = 1usize << (24 - net.len());
                if let Some(run) = mid.get_mut(lo..lo + count) {
                    run.fill(key_slot(key));
                }
                continue;
            }
            // All /17–/24 prefixes sorted ahead of this one, so the
            // position for its third byte already holds the leaf the
            // >/24 prefixes of that /24 are painted over.
            let third = ((net.addr_u32() >> 8) & 0xFF) as usize;
            let mut low = [mid.get(third).copied().unwrap_or(cover); 256];
            let mut next = Some((key, net));
            while let Some((key, net)) = next {
                let lo = (net.addr_u32() & 0xFF) as usize;
                let count = 1usize << (32 - net.len());
                if let Some(run) = low.get_mut(lo..lo + count) {
                    run.fill(key_slot(key));
                }
                // Same /24: the keys agree above the length bits.
                next = items
                    .next_if(|&&k| k >> 38 == key >> 38)
                    .and_then(|&k| self.net_of_key(k).map(|n| (k, n)));
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

    /// Stores 256 positions as a node and returns the entry naming it — or
    /// the value itself when all positions agree, which is how a chunk
    /// whose long prefixes were all withdrawn turns back into a leaf.
    fn entry_for(&mut self, vals: &[u32; 256], cells: &mut usize) -> u32 {
        let mut runs = [0u32; 256];
        let (mut node, n) = Node::encode(vals, &mut runs);
        let Some(values) = runs.get(..n) else {
            return 0;
        };
        if let [only] = values {
            return *only;
        }
        *cells += n;
        match node.inline.get_mut(..n) {
            Some(inline) => inline.copy_from_slice(values),
            None => {
                // The spill offset must stay distinguishable from NO_SPILL;
                // 2^32 cells would be a 16 GiB table.
                node.spill = u32::try_from(self.spill.len()).unwrap_or(NO_SPILL - 1);
                self.spill.extend_from_slice(values);
            }
        }
        let id = match self.free_nodes.pop() {
            Some(id) => {
                if let Some(freed) = self.nodes.get_mut(id as usize) {
                    *freed = node;
                }
                id
            }
            None => {
                debug_assert!(
                    self.nodes.len() < NODE_FLAG as usize,
                    "node id fits 31 bits"
                );
                let id = u32::try_from(self.nodes.len()).unwrap_or(0);
                self.nodes.push(node);
                id
            }
        };
        NODE_FLAG | id
    }

    /// Returns the node behind `entry` (if it names one) and every node
    /// below it to the free list, counting their spilled cells as dead.
    pub(crate) fn free_tree(&mut self, entry: u32) {
        let mut pending = vec![entry];
        while let Some(entry) = pending.pop() {
            if entry & NODE_FLAG == 0 {
                continue;
            }
            let id = entry & !NODE_FLAG;
            let Some(node) = self.nodes.get(id as usize) else {
                continue;
            };
            if node.spill != NO_SPILL {
                self.dead_cells += node.runs();
            }
            pending.extend_from_slice(node.values(&self.spill));
            self.free_nodes.push(id);
        }
    }

    /// Wires this table's lookup/miss counters (`{prefix}.lookups`,
    /// `{prefix}.misses`) to `obs`. Counting is per scalar call or per
    /// batch; [`lookup_handle`](Self::lookup_handle) itself stays
    /// uninstrumented so the innermost loop is identical in both modes.
    pub fn attach_obs(&mut self, obs: &Obs, prefix: &str) {
        self.obs = TableObs::resolve(obs, prefix);
    }

    /// One level of the lookup: the value of node `entry` at the low byte
    /// of `bits`.
    #[inline]
    fn step(&self, entry: u32, bits: u32) -> u32 {
        // Entries only ever name nodes this table allocated; a miss on a
        // corrupt id degrades to "no match".
        match self.nodes.get((entry & !NODE_FLAG) as usize) {
            Some(node) => node.value(bits & 0xFF, &self.spill),
            None => 0,
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

    /// Longest-prefix match resolving straight to the matched prefix.
    #[inline]
    pub fn lookup(&self, addr: u32) -> Option<Ipv4Net> {
        let net = self.resolve(self.lookup_handle(addr));
        self.obs.lookups.inc();
        if net.is_none() {
            self.obs.misses.inc();
        }
        net
    }

    /// The prefix a handle refers to, or `None` for [`Handle::NONE`] (or a
    /// handle from a different table that falls outside this arena).
    #[inline]
    pub fn resolve(&self, handle: Handle) -> Option<Ipv4Net> {
        handle.index().and_then(|i| self.prefixes.get(i)).copied()
    }

    /// The dense prefix arena; [`Handle`]s index into this slice. On a
    /// table patched in place ([`apply_delta`](Self::apply_delta)) the
    /// arena may contain dead entries no slot references any more; use
    /// [`live_prefixes`](Self::live_prefixes) for the current prefix
    /// set.
    pub fn prefixes(&self) -> &[Ipv4Net] {
        &self.prefixes
    }

    /// The current live prefix set, sorted: the arena minus withdrawn
    /// entries. Equals [`prefixes`](Self::prefixes) (sorted, deduplicated)
    /// on a freshly compiled table.
    pub fn live_prefixes(&self) -> Vec<Ipv4Net> {
        self.live_iter().collect()
    }

    /// [`live_prefixes`](Self::live_prefixes) without the vector: the
    /// arena itself while it is unpatched and was compiled in order, the
    /// patch layer's shadow trie in order once the table is patched. Only
    /// an unpatched arena compiled out of order is copied, to be sorted.
    pub fn live_iter(&self) -> LivePrefixes<'_> {
        LivePrefixes(match &self.patch {
            Some(state) => Live::Trie(state.trie.iter(), state.trie.len()),
            None if self.sorted => Live::Arena(self.prefixes.iter()),
            None => {
                let mut copy = self.prefixes.clone();
                copy.sort_unstable();
                copy.dedup();
                Live::Copied(copy.into_iter())
            }
        })
    }

    /// Number of live prefixes. Before any patch this is the arena length
    /// (duplicates included, matching what was compiled in); after the
    /// patch layer initializes it is the deduplicated live count.
    pub fn len(&self) -> usize {
        match &self.patch {
            Some(state) => state.trie.len(),
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
        self.nodes.len() - self.free_nodes.len()
    }

    /// `spill` cells no node references any more (garbage the next
    /// compaction drops; see [`apply_delta`](Self::apply_delta)).
    pub fn dead_cells(&self) -> usize {
        self.dead_cells
    }

    /// Lookup-side memory footprint in bytes: every array a lookup or a
    /// patch of the layout touches, free list and dead cells included.
    /// The lazily built shadow trie is
    /// [`patch_state_bytes`](Self::patch_state_bytes).
    pub fn memory_bytes(&self) -> usize {
        self.root.len() * 4
            + self.nodes.len() * std::mem::size_of::<Node>()
            + self.spill.len() * 4
            + self.free_nodes.len() * 4
            + self.prefixes.len() * std::mem::size_of::<Ipv4Net>()
    }

    /// Bytes held by the patch layer's shadow state (live-set trie and
    /// free handles): 0 until the first
    /// [`apply_delta`](Self::apply_delta).
    pub fn patch_state_bytes(&self) -> usize {
        self.patch.as_ref().map_or(0, |s| s.memory_bytes())
    }
}

impl fmt::Debug for CompiledTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompiledTable")
            .field("prefixes", &self.prefixes.len())
            .field("nodes", &self.nodes())
            .field("memory_bytes", &self.memory_bytes())
            .finish()
    }
}

/// The live prefixes of a [`CompiledTable`] in ascending order, from
/// [`CompiledTable::live_iter`].
pub struct LivePrefixes<'a>(Live<'a>);

enum Live<'a> {
    Arena(std::slice::Iter<'a, Ipv4Net>),
    /// The shadow trie's in-order walk and how many prefixes it has left.
    Trie(PrefixTrieIter<'a, u32>, usize),
    Copied(std::vec::IntoIter<Ipv4Net>),
}

impl Iterator for LivePrefixes<'_> {
    type Item = Ipv4Net;

    fn next(&mut self) -> Option<Ipv4Net> {
        match &mut self.0 {
            Live::Arena(arena) => arena.next().copied(),
            Live::Trie(walk, left) => {
                let (net, _) = walk.next()?;
                *left = left.saturating_sub(1);
                Some(net)
            }
            Live::Copied(copy) => copy.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = match &self.0 {
            Live::Arena(arena) => arena.len(),
            Live::Trie(_, left) => *left,
            Live::Copied(copy) => copy.len(),
        };
        (left, Some(left))
    }
}

impl ExactSizeIterator for LivePrefixes<'_> {}

impl<V> PrefixTrie<V> {
    /// Freezes this trie's current prefix set into a [`CompiledTable`].
    /// Values are not carried over — compiled lookups return the matched
    /// prefix (or a [`Handle`] to it), which is what the clustering hot
    /// path consumes.
    pub fn compile(&self) -> CompiledTable {
        CompiledTable::from_prefixes(self.prefixes())
    }
}

/// The compiled form of a [`MergedTable`]: both source tiers frozen to
/// flat tables, preserving the BGP-primary / registry-fallback semantics
/// of [`MergedTable::lookup`].
#[derive(Clone)]
pub struct CompiledMerged {
    bgp: CompiledTable,
    dump: CompiledTable,
    obs: MergedObs,
}

/// Merged-level lookup accounting: total lookups, final misses (neither
/// tier matched) and registry fallbacks (BGP missed, dump consulted).
#[derive(Clone, Debug, Default)]
struct MergedObs {
    lookups: Counter,
    misses: Counter,
    fallbacks: Counter,
}

impl CompiledMerged {
    /// Wires merged-level counters (`lpm.lookups`, `lpm.misses`,
    /// `lpm.dump_fallbacks`) and per-tier counters (`lpm.bgp.*`,
    /// `lpm.dump.*`) to `obs`.
    pub fn attach_obs(&mut self, obs: &Obs) {
        self.bgp.attach_obs(obs, "lpm.bgp");
        self.dump.attach_obs(obs, "lpm.dump");
        self.obs = MergedObs {
            lookups: obs.counter("lpm.lookups"),
            misses: obs.counter("lpm.misses"),
            fallbacks: obs.counter("lpm.dump_fallbacks"),
        };
    }

    /// The compiled BGP (primary) tier.
    pub fn bgp(&self) -> &CompiledTable {
        &self.bgp
    }

    /// The compiled registry-dump (fallback) tier.
    pub fn dump(&self) -> &CompiledTable {
        &self.dump
    }

    /// Mutable access to the BGP tier for the patch layer (BGP deltas only
    /// ever touch the primary tier; the registry dump is static).
    pub(crate) fn bgp_tier_mut(&mut self) -> &mut CompiledTable {
        &mut self.bgp
    }

    /// Longest-prefix match with source attribution: BGP tier first, then
    /// registry fallback — identical semantics to [`MergedTable::lookup_u32`].
    #[inline]
    pub fn lookup_u32(&self, addr: u32) -> Option<(Ipv4Net, MatchSource)> {
        if let Some(net) = self.bgp.lookup(addr) {
            Some((net, MatchSource::Bgp))
        } else {
            self.dump
                .lookup(addr)
                .map(|net| (net, MatchSource::NetworkDump))
        }
    }

    /// [`lookup_u32`](Self::lookup_u32) on an [`Ipv4Addr`].
    #[inline]
    pub fn lookup(&self, addr: Ipv4Addr) -> Option<(Ipv4Net, MatchSource)> {
        self.lookup_u32(u32::from(addr))
    }

    /// The matched cluster prefix for `addr`, ignoring source attribution
    /// (the clustering hot path).
    #[inline]
    pub fn net_for_u32(&self, addr: u32) -> Option<Ipv4Net> {
        self.obs.lookups.inc();
        let net = self.bgp.lookup(addr).or_else(|| {
            self.obs.fallbacks.inc();
            self.dump.lookup(addr)
        });
        if net.is_none() {
            self.obs.misses.inc();
        }
        net
    }

    /// Batch form of [`net_for_u32`](Self::net_for_u32): one handle sweep
    /// over the BGP tier, with per-miss registry fallback. The stream's
    /// table swaps and snapshot restore re-resolve every client with it;
    /// the ingest kernel calls [`net_for_slice`](Self::net_for_slice).
    pub fn net_for_batch(&self, addrs: &[u32]) -> Vec<Option<Ipv4Net>> {
        let mut out = vec![None; addrs.len()];
        self.net_for_slice(addrs, &mut out, DEFAULT_PREFETCH_DISTANCE);
        out
    }

    /// Slice-writing form of [`net_for_batch`](Self::net_for_batch):
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
            let h = self.bgp.lookup_handle(addr);
            let net = self.bgp.resolve(h).or_else(|| {
                fallbacks += 1;
                self.dump.lookup(addr)
            });
            if net.is_none() {
                misses += 1;
            }
            *slot = net;
        }
        // Counting is batched so the per-address loop above is untouched:
        // three counter adds per chunk-sized batch, not per address.
        self.obs.lookups.add(addrs.len() as u64);
        self.obs.fallbacks.add(fallbacks);
        self.obs.misses.add(misses);
        self.bgp.obs.lookups.add(addrs.len() as u64);
        self.bgp.obs.misses.add(fallbacks);
    }

    /// Combined memory footprint of both tiers in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.bgp.memory_bytes() + self.dump.memory_bytes()
    }

    /// Live nodes in both tiers.
    pub fn nodes(&self) -> usize {
        self.bgp.nodes() + self.dump.nodes()
    }

    /// Dead spill cells in both tiers.
    pub fn dead_cells(&self) -> usize {
        self.bgp.dead_cells() + self.dump.dead_cells()
    }
}

impl fmt::Debug for CompiledMerged {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompiledMerged")
            .field("bgp", &self.bgp)
            .field("dump", &self.dump)
            .finish()
    }
}

impl MergedTable {
    /// Freezes both tiers into a [`CompiledMerged`] for array-indexed
    /// lookups. Recompile after mutating the source tables.
    pub fn compile(&self) -> CompiledMerged {
        CompiledMerged {
            bgp: CompiledTable::from_prefixes(self.bgp_prefixes()),
            dump: CompiledTable::from_prefixes(self.dump_prefixes()),
            obs: MergedObs::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{RoutingTable, TableKind};

    fn net(s: &str) -> Ipv4Net {
        s.parse().unwrap()
    }

    fn a(s: &str) -> u32 {
        s.parse::<Ipv4Addr>().unwrap().into()
    }

    #[test]
    fn empty_table_allocates_nothing_and_misses() {
        let t = CompiledTable::from_prefixes([]);
        assert!(t.is_empty());
        assert_eq!(t.memory_bytes(), 0);
        assert_eq!(t.lookup_handle(a("1.2.3.4")), Handle::NONE);
        assert!(t.lookup(a("1.2.3.4")).is_none());
    }

    #[test]
    fn short_prefixes_single_load() {
        let t = CompiledTable::from_prefixes([net("12.0.0.0/8"), net("12.65.128.0/19")]);
        assert_eq!(t.lookup(a("12.65.147.94")), Some(net("12.65.128.0/19")));
        assert_eq!(t.lookup(a("12.1.1.1")), Some(net("12.0.0.0/8")));
        assert!(t.lookup(a("99.1.1.1")).is_none());
        // The /19 makes its /16 a one-node chunk; the /8's other 255 root
        // entries stay leaves.
        assert_eq!(t.nodes(), 1);
    }

    #[test]
    fn long_prefixes_take_a_second_node_step() {
        let t = CompiledTable::from_prefixes([
            net("24.48.2.0/24"),
            net("24.48.2.128/25"),
            net("24.48.2.192/32"),
        ]);
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
        let t = CompiledTable::from_prefixes([net("10.0.0.64/26")]);
        assert_eq!(t.lookup(a("10.0.0.100")), Some(net("10.0.0.64/26")));
        assert!(t.lookup(a("10.0.0.1")).is_none());
        assert!(t.lookup(a("10.0.0.128")).is_none());
    }

    #[test]
    fn default_route_covers_everything() {
        let t = CompiledTable::from_prefixes([Ipv4Net::DEFAULT, net("18.0.0.0/8")]);
        assert_eq!(t.lookup(a("18.1.2.3")), Some(net("18.0.0.0/8")));
        assert_eq!(t.lookup(a("200.1.2.3")), Some(Ipv4Net::DEFAULT));
    }

    #[test]
    fn matches_trie_on_paper_example() {
        let mut trie = PrefixTrie::new();
        trie.insert(net("12.65.128.0/19"), ());
        trie.insert(net("24.48.2.0/23"), ());
        let t = trie.compile();
        for ip in [
            "12.65.147.94",
            "12.65.144.247",
            "24.48.3.87",
            "24.48.2.166",
            "1.1.1.1",
        ] {
            let expect = trie.longest_match_u32(a(ip)).map(|(n, _)| n);
            assert_eq!(t.lookup(a(ip)), expect, "{ip}");
        }
    }

    #[test]
    fn handle_matches_scalar() {
        let t = CompiledTable::from_prefixes([net("12.0.0.0/8"), net("24.48.2.0/23")]);
        for ip in ["12.1.2.3", "24.48.3.87"] {
            assert_eq!(t.resolve(t.lookup_handle(a(ip))), t.lookup(a(ip)), "{ip}");
        }
        assert!(t.lookup_handle(a("99.9.9.9")).is_none());
    }

    #[test]
    fn every_run_boundary_resolves_like_the_trie() {
        // A chunk whose mid node spills (more than INLINE_RUNS runs) over
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
        let t = CompiledTable::from_prefixes(crate::testutil::nets(&specs));
        assert!(!t.spill.is_empty(), "the mid node's runs are spilled");
        let trie: PrefixTrie<()> = crate::testutil::nets(&specs)
            .into_iter()
            .map(|n| (n, ()))
            .collect();
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
        let expect = compiled.net_for_batch(&addrs);
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
    fn compiled_merged_preserves_tier_semantics() {
        let bgp = RoutingTable::new("B", "d0", TableKind::Bgp, vec![net("12.0.0.0/8")]);
        let dump = RoutingTable::new(
            "N",
            "d0",
            TableKind::NetworkDump,
            vec![net("12.65.128.0/19")],
        );
        let merged = MergedTable::merge([&bgp, &dump]);
        let compiled = merged.compile();
        // BGP wins even when the dump prefix is longer.
        for ip in ["12.65.147.94", "12.1.1.1", "99.1.1.1"] {
            assert_eq!(compiled.lookup_u32(a(ip)), merged.lookup_u32(a(ip)), "{ip}");
        }
        assert_eq!(
            compiled.net_for_u32(a("12.65.147.94")),
            Some(net("12.0.0.0/8"))
        );
    }

    #[test]
    fn handle_resolves_to_arena_prefix() {
        let t = CompiledTable::from_prefixes([net("10.0.0.0/8")]);
        let h = t.lookup_handle(a("10.1.2.3"));
        assert!(h.is_some());
        assert_eq!(t.prefixes()[h.index().unwrap()], net("10.0.0.0/8"));
    }

    #[test]
    fn arena_keeps_input_order() {
        let t = CompiledTable::from_prefixes([
            net("12.0.0.0/8"),
            net("24.48.2.128/25"),
            net("10.0.0.0/24"),
            net("24.48.2.192/32"),
        ]);
        // One slot width for every length: nothing reorders the arena.
        let lens: Vec<u8> = t.prefixes().iter().map(|p| p.len()).collect();
        assert_eq!(lens, vec![8, 25, 24, 32]);
        // Handles still resolve to the right prefix.
        assert_eq!(t.lookup(a("24.48.2.192")), Some(net("24.48.2.192/32")));
        assert_eq!(t.lookup(a("24.48.2.129")), Some(net("24.48.2.128/25")));
        assert_eq!(t.lookup(a("12.9.9.9")), Some(net("12.0.0.0/8")));
        assert_eq!(t.lookup(a("10.0.0.7")), Some(net("10.0.0.0/24")));
    }

    #[test]
    fn duplicate_prefixes_keep_arena_entries_and_one_chunk() {
        let t = CompiledTable::from_prefixes([
            net("10.0.0.64/26"),
            net("10.0.0.64/26"),
            net("10.0.0.0/24"),
        ]);
        assert_eq!(t.len(), 3, "duplicates keep arena entries");
        assert_eq!(t.nodes(), 2);
        // The later copy wins the match.
        assert_eq!(t.lookup_handle(a("10.0.0.100")).index(), Some(1));
        assert_eq!(t.lookup(a("10.0.0.100")), Some(net("10.0.0.64/26")));
        assert_eq!(t.lookup(a("10.0.0.1")), Some(net("10.0.0.0/24")));
    }

    /// The three shapes `live_iter` walks — an arena in order, one out of
    /// order or with a duplicate, and a patched table's shadow trie — list
    /// the live set ascending, and say how many are left as they go.
    #[test]
    fn live_iter_lists_the_live_set_in_order_with_or_without_a_copy() {
        use crate::patch::TableDelta;
        let ordered = [net("10.0.0.0/8"), net("10.0.0.0/24"), net("12.0.0.0/8")];
        let in_order = CompiledTable::from_prefixes(ordered);
        assert!(matches!(in_order.live_iter().0, Live::Arena(_)));
        let shuffled = [ordered[2], ordered[0], ordered[1], ordered[0]];
        let out_of_order = CompiledTable::from_prefixes(shuffled);
        assert!(matches!(out_of_order.live_iter().0, Live::Copied(_)));
        let mut patched = CompiledTable::from_prefixes(ordered);
        patched.apply_delta(&[
            TableDelta::withdraw(ordered[1]),
            TableDelta::announce(net("11.0.0.0/8")),
        ]);
        assert!(matches!(patched.live_iter().0, Live::Trie(..)));
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
        // Root + one mid node + one low node (both inline) + the arena.
        let t = CompiledTable::from_prefixes([net("24.48.2.0/24"), net("24.48.2.128/25")]);
        assert_eq!(t.nodes(), 2);
        assert!(t.spill.is_empty());
        let expect = ROOT_LEN * 4 + 2 * 64 + 2 * std::mem::size_of::<Ipv4Net>();
        assert_eq!(t.memory_bytes(), expect);
        assert_eq!(t.patch_state_bytes(), 0, "no shadow trie before a patch");

        // A spilled node adds its run values. Freed nodes and dead cells
        // stay counted: they are memory the table holds until it compacts.
        let mut t = CompiledTable::from_prefixes(
            (0..8u32).map(|i| Ipv4Net::new(0x1830_0000 | (i << 9), 24).unwrap()),
        );
        assert_eq!(t.nodes(), 1);
        assert_eq!(t.spill.len(), 16, "8 /24s over a miss: 16 runs");
        let fixed = ROOT_LEN * 4 + 64 + 8 * std::mem::size_of::<Ipv4Net>();
        assert_eq!(t.memory_bytes(), fixed + 16 * 4);
        for p in t.prefixes().to_vec() {
            t.apply_delta(&[crate::TableDelta::withdraw(p)]);
        }
        assert_eq!(t.nodes(), 0);
        assert_eq!(t.free_nodes.len(), 1, "each rebuild reused the freed node");
        assert_eq!(t.dead_cells(), t.spill.len(), "every spilled range is dead");
        assert_eq!(t.memory_bytes(), fixed + t.spill.len() * 4 + 4);
        assert!(t.patch_state_bytes() > 0);
    }

    #[test]
    fn one_slot_width_holds_any_number_of_long_prefixes() {
        // More >/24 prefixes than a 16-bit slot could address — the case
        // the DIR-24-8 layout needed a second, wider group format for.
        let n = (u16::MAX as usize) + 16;
        let mut prefixes = vec![net("0.0.0.0/0")];
        prefixes.extend((0..n as u32).map(|i| Ipv4Net::new(i << 8, 25).unwrap()));
        let t = CompiledTable::from_prefixes(prefixes.iter().copied());
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
    /// in `from_prefixes` and `entry_for` (slot and node-id bounds).
    #[cfg(debug_assertions)]
    #[test]
    fn debug_invariants_hold_across_build_and_sweep() {
        use crate::testutil;
        let specs = [
            "10.0.0.0/8",
            "10.1.0.0/16",
            "10.1.2.0/24",
            "10.1.2.128/25",
            "10.1.2.192/26",
            "10.1.3.128/25",
            "10.1.4.128/25",
            "10.1.2.192/26", // duplicate: same nodes, extra arena entry
        ];
        let t = CompiledTable::from_prefixes(testutil::nets(&specs));
        assert_eq!(t.nodes(), 4); // 10.1/16, then 10.1.2.x, 10.1.3.x, 10.1.4.x
        let mut trie = PrefixTrie::new();
        for n in testutil::nets(&specs) {
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
        assert_eq!(compiled.net_for_batch(&addrs).len(), 3);
        // Scalar: one more full miss.
        assert_eq!(compiled.net_for_u32(a("99.9.9.9")), None);

        let snap = obs.snapshot(true);
        assert_eq!(snap.counters.get("lpm.lookups"), Some(&4));
        assert_eq!(snap.counters.get("lpm.misses"), Some(&2));
        assert_eq!(snap.counters.get("lpm.dump_fallbacks"), Some(&3));
        assert_eq!(snap.counters.get("lpm.bgp.lookups"), Some(&4));
        assert_eq!(snap.counters.get("lpm.bgp.misses"), Some(&3));
    }
}
