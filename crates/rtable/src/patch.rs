//! Chunk-scoped patching of compiled tables from BGP deltas.
//!
//! Real BGP feeds are dominated by small update batches touching a handful
//! of prefixes (see PAPERS.md on routing-table dynamics), so a
//! [`CompiledTable`] absorbs a delta by rebuilding only the part of the
//! layout the prefix can reach, never the table.
//!
//! Deltas are BGP updates; the registry tier is static. Both tiers are
//! kept in order: the registry tier as the sorted head of the arena, the
//! BGP tier as a [`BTreeMap`] (live prefix → arena handle) built from the
//! arena's sorted tail by the first patch. Each is read the same three
//! ways — a chunk's longer prefixes as a range, a chunk's ≤/16 cover as
//! exact probes longest first, the whole tier in order — and the
//! compressed layout is a function of both, chunk by chunk:
//!
//! * **A prefix longer than `/16`** lives in exactly one /16 chunk. The
//!   chunk's nodes are freed and rebuilt from both tiers' ranges of
//!   prefixes longer than /16 in it, painted over the chunk's ≤/16
//!   answer — the same `build_chunk` the compiler runs, so a patched
//!   chunk is identical to a compiled one.
//! * **A prefix of `/16` or shorter** covers whole root entries. For each
//!   one it owns (no longer ≤/16 BGP prefix sits between), a leaf entry is
//!   rewritten with the new answer and a node chunk is rebuilt over it
//!   (nodes are leaf-pushed, so the cover is baked into their runs). A
//!   withdraw that leaves no BGP cover uncovers registry space: the
//!   entry takes the registry's ≤/16 answer, and a chunk the registry
//!   holds longer prefixes in is repainted from the static list (as an
//!   announce over such a chunk collapses it back to a leaf).
//! * **Bulk** — a batch of at least `RECOMPILE_PERCENT` % of the live
//!   prefixes, and at least `RECOMPILE_MIN_DELTAS`, updates the live map
//!   only and rebuilds the whole layout once ([`PatchReport::recompiled`]).
//! * **Compaction** — freed nodes are reused, but the run arrays of
//!   spilled nodes are append-only: a rebuilt chunk leaves its old ranges
//!   behind as dead cells. When dead cells outnumber live ones (and are
//!   worth a rebuild at all, [`COMPACT_MIN_DEAD_CELLS`]) the layout is
//!   rebuilt from the live map ([`PatchReport::compacted`]), so a patched
//!   table stays within a constant factor of a fresh compile.
//!
//! The first `apply_delta` call builds the live map from the arena in
//! O(#prefixes); subsequent patches are proportional to the chunks the
//! delta reaches.
//! What a patch *reports* (`slot_writes`, `groups_rebuilt`, `recompiled`)
//! depends only on the live BGP set and the batch, never on the table's
//! patch history or on the registry tier under it — `core::stream`
//! persists those counters and a resumed process must reproduce them. The
//! proptest suite enforces that a patched table is lookup-equivalent to a
//! from-scratch compile of the same prefix set (`tests/patch_prop.rs`).

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;

use netclust_prefix::Ipv4Net;

use crate::flat::{chunk_key, CompiledTable, NODE_FLAG, ROOT_LEN};
use crate::table::longest_in;

/// Dead spill cells below which compaction is not worth a layout rebuild
/// (16 KiB of garbage), however few live cells there are.
const COMPACT_MIN_DEAD_CELLS: usize = 1 << 12;

/// What a routing update does to one prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeltaKind {
    /// The prefix becomes (or stays) reachable.
    Announce,
    /// The prefix is no longer reachable.
    Withdraw,
    /// A re-announcement with changed attributes (AS path, next hop).
    /// The compiled table stores bare prefixes, so this patches like an
    /// announce, but the kind is kept distinct for churn accounting.
    Replace,
}

/// One prefix-level routing update, the shared currency between
/// `rtable::diff`, `bgpsim::DeltaStream` and [`CompiledTable::apply_delta`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TableDelta {
    /// The affected prefix.
    pub prefix: Ipv4Net,
    /// What happened to it.
    pub kind: DeltaKind,
}

impl TableDelta {
    /// An announce delta.
    pub fn announce(prefix: Ipv4Net) -> Self {
        TableDelta {
            prefix,
            kind: DeltaKind::Announce,
        }
    }

    /// A withdraw delta.
    pub fn withdraw(prefix: Ipv4Net) -> Self {
        TableDelta {
            prefix,
            kind: DeltaKind::Withdraw,
        }
    }

    /// An attribute-change re-announcement.
    pub fn replace(prefix: Ipv4Net) -> Self {
        TableDelta {
            prefix,
            kind: DeltaKind::Replace,
        }
    }
}

/// Why a line is not an `announce|withdraw|replace PREFIX` update.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaParseError {
    /// The second field is missing or not a CIDR prefix; holds the line.
    BadPrefix(String),
    /// The first field is none of the three verbs; holds it.
    UnknownUpdate(String),
}

impl fmt::Display for DeltaParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaParseError::BadPrefix(line) => write!(f, "bad prefix in {line:?}"),
            DeltaParseError::UnknownUpdate(verb) => {
                write!(f, "unknown update {verb:?} (announce|withdraw|replace)")
            }
        }
    }
}

impl std::error::Error for DeltaParseError {}

/// The text form of one update, `announce|withdraw|replace PREFIX`: a line
/// of the CLI's `--bgp-feed` files and of the daemon's `/v1/reload` body.
impl FromStr for TableDelta {
    type Err = DeltaParseError;

    fn from_str(line: &str) -> Result<Self, Self::Err> {
        let mut parts = line.split_whitespace();
        let verb = parts.next().unwrap_or_default();
        let prefix: Ipv4Net = (parts.next())
            .and_then(|p| p.parse().ok())
            .ok_or_else(|| DeltaParseError::BadPrefix(line.trim().to_string()))?;
        match verb {
            "announce" => Ok(TableDelta::announce(prefix)),
            "withdraw" => Ok(TableDelta::withdraw(prefix)),
            "replace" => Ok(TableDelta::replace(prefix)),
            other => Err(DeltaParseError::UnknownUpdate(other.to_string())),
        }
    }
}

/// Parses a feed of update lines — a `--bgp-feed` file, a `/v1/reload`
/// body — into its batches: a blank line ends a batch, `#` comments are
/// skipped. The error carries the 1-based number of the line it is for.
pub fn parse_feed(text: &str) -> Result<Vec<Vec<TableDelta>>, (usize, DeltaParseError)> {
    let mut batches = Vec::new();
    let mut current = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() {
            if !current.is_empty() {
                batches.push(std::mem::take(&mut current));
            }
        } else if !line.starts_with('#') {
            current.push(line.parse().map_err(|e| (lineno + 1, e))?);
        }
    }
    if !current.is_empty() {
        batches.push(current);
    }
    Ok(batches)
}

/// A batch that touches this share (in percent) of the live prefix set
/// rebuilds the whole layout once instead of chunk by chunk: rebuilding
/// chunk after chunk then costs more than one sequential rebuild of all
/// of them.
const RECOMPILE_PERCENT: usize = 5;

/// The floor of the recompile threshold, so small tables still patch
/// small batches in place.
const RECOMPILE_MIN_DELTAS: usize = 64;

/// What one [`CompiledTable::apply_delta`] call did, for observability
/// and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PatchReport {
    /// Prefixes newly added to the live set.
    pub announced: usize,
    /// Prefixes removed from the live set.
    pub withdrawn: usize,
    /// Re-announcements of already-live prefixes (attribute churn).
    pub replaced: usize,
    /// Deltas with no table effect (duplicate announce, withdraw of an
    /// absent prefix).
    pub noops: usize,
    /// Root entries stored: leaves rewritten with a new cover, and the
    /// entry of every rebuilt chunk.
    pub root_writes: usize,
    /// Run values the BGP tier's nodes hold in the chunks rebuilt for it:
    /// what a layout of that tier alone would write, however much registry
    /// space the same chunks show through.
    pub cell_writes: usize,
    /// /16 chunks rebuilt for BGP prefixes longer than /16 in them (a
    /// chunk repainted only for the registry tier under a changed cover
    /// is one root write).
    pub groups_rebuilt: usize,
    /// `true` when the batch crossed the policy's density threshold and
    /// the layout was rebuilt once instead of chunk by chunk.
    pub recompiled: bool,
    /// `true` when the call ended by compacting the layout (dead spill
    /// cells outnumbered live ones). Unlike every other field this
    /// depends on the table's patch history, not only on the live set.
    pub compacted: bool,
    /// `true` when this call built the patch state (first patch on a
    /// freshly compiled table).
    pub initialized: bool,
}

impl PatchReport {
    /// Total direct writes (root entries and node cells).
    pub fn slot_writes(&self) -> usize {
        self.root_writes + self.cell_writes
    }

    /// Folds another report into this one (batch accounting across
    /// repeated calls). The flags are sticky.
    pub fn merge(&mut self, other: &PatchReport) {
        self.announced += other.announced;
        self.withdrawn += other.withdrawn;
        self.replaced += other.replaced;
        self.noops += other.noops;
        self.root_writes += other.root_writes;
        self.cell_writes += other.cell_writes;
        self.groups_rebuilt += other.groups_rebuilt;
        self.recompiled |= other.recompiled;
        self.compacted |= other.compacted;
        self.initialized |= other.initialized;
    }
}

/// Bookkeeping for patching: the live BGP prefix set with its arena
/// handles, and the arena slots withdrawals vacated.
#[derive(Clone)]
pub(crate) struct PatchState {
    /// Live BGP prefix → arena handle, in (address, length) order. The
    /// source of truth every chunk rebuild reads for that tier.
    pub(crate) live: BTreeMap<Ipv4Net, u32>,
    /// Dead arena slots, reused before the arena grows.
    free_handles: Vec<u32>,
}

/// Entries a node of std's `BTreeMap` holds at most.
const MAP_NODE_ENTRIES: usize = 11;

/// Bytes of a node of the live map holding [`MAP_NODE_ENTRIES`]: a leaf's
/// parent pointer, entries and two `u16` counts, and the twelve edges an
/// internal node adds spread over the dozen nodes below it.
const MAP_NODE_BYTES: usize = std::mem::size_of::<usize>() * 2
    + MAP_NODE_ENTRIES * std::mem::size_of::<(Ipv4Net, u32)>()
    + 2 * std::mem::size_of::<u16>();

impl PatchState {
    /// Bytes it holds on the heap: the live map's nodes, as if each were
    /// full (a bulk build fills them; later inserts may leave some half
    /// full), the free handles, and the box itself.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.live.len().div_ceil(MAP_NODE_ENTRIES) * MAP_NODE_BYTES
            + self.free_handles.capacity() * std::mem::size_of::<u32>()
            + std::mem::size_of::<Self>()
    }
}

impl CompiledTable {
    /// Applies a batch of routing deltas, rebuilding only the chunks each
    /// delta reaches — or the whole layout once, when the batch holds at
    /// least `RECOMPILE_PERCENT` % of the live prefixes and at least
    /// `RECOMPILE_MIN_DELTAS`. Deltas apply in order; later entries
    /// win. After the call the table is lookup-equivalent to a
    /// from-scratch compile of the delta'd prefix set.
    pub fn apply_delta(&mut self, deltas: &[TableDelta]) -> PatchReport {
        let mut report = PatchReport::default();
        let mut state = match self.patch.take() {
            Some(s) => s,
            None => {
                report.initialized = true;
                self.build_patch_state()
            }
        };
        if self.root.is_empty() {
            // Compiled from no prefixes: materialize the all-miss root.
            self.root.resize(ROOT_LEN, 0);
        }
        let threshold = state.live.len() * RECOMPILE_PERCENT / 100;
        report.recompiled = deltas.len() >= threshold.max(RECOMPILE_MIN_DELTAS);
        for d in deltas {
            if !self.update_live_set(&mut state, d, &mut report) || report.recompiled {
                continue;
            }
            if d.prefix.len() > 16 {
                let idx = d.prefix.addr_u32() >> 16;
                report.cell_writes += self.rebuild_chunk(&state, idx);
                report.root_writes += 1;
                report.groups_rebuilt += 1;
            } else {
                let announce = d.kind != DeltaKind::Withdraw;
                self.refresh_root(&state, d.prefix, announce, &mut report);
            }
        }
        report.compacted = !report.recompiled
            && self.dead_cells >= COMPACT_MIN_DEAD_CELLS
            && self.dead_cells > self.spill.len() - self.dead_cells;
        if report.recompiled || report.compacted {
            let bgp = state.live.values().copied();
            self.rebuild((0..self.dump_len).chain(bgp));
        }
        self.patch = Some(state);
        report
    }

    /// Builds the patch state from the BGP part of the arena, which the
    /// compile left strictly increasing: a bulk build of the live map.
    fn build_patch_state(&self) -> Box<PatchState> {
        let bgp = (self.dump_len..).zip(self.bgp_arena());
        Box::new(PatchState {
            live: bgp.map(|(h, net)| (*net, h)).collect(),
            free_handles: Vec::new(),
        })
    }

    /// Applies one delta to the live map and the arena. Returns `true`
    /// when the live set changed (the layout then needs refreshing where
    /// the prefix reaches).
    fn update_live_set(
        &mut self,
        state: &mut PatchState,
        delta: &TableDelta,
        report: &mut PatchReport,
    ) -> bool {
        let net = delta.prefix;
        if delta.kind == DeltaKind::Withdraw {
            let Some(dead) = state.live.remove(&net) else {
                report.noops += 1;
                return false;
            };
            state.free_handles.push(dead);
            report.withdrawn += 1;
            return true;
        }
        if state.live.contains_key(&net) {
            // Re-announcement of a live prefix: the layout already
            // resolves to it.
            if delta.kind == DeltaKind::Replace {
                report.replaced += 1;
            } else {
                report.noops += 1;
            }
            return false;
        }
        let h = match state.free_handles.pop() {
            Some(h) => {
                if let Some(dead) = self.prefixes.get_mut(h as usize) {
                    *dead = net;
                }
                h
            }
            None => {
                // A slot (handle + 1) must stay below NODE_FLAG; an arena
                // of 2^31 prefixes cannot be reached from IPv4's 2^33 - 1.
                debug_assert!(self.prefixes.len() < (NODE_FLAG - 1) as usize);
                let h = u32::try_from(self.prefixes.len()).unwrap_or(0);
                self.prefixes.push(net);
                h
            }
        };
        state.live.insert(net, h);
        // A replace of an absent prefix is a plain announce: the
        // distinction only matters when the prefix was already live.
        report.announced += 1;
        true
    }

    /// The slot and length of the longest live ≤/16 BGP prefix covering
    /// /16 chunk `idx` (`(0, -1)` when there is none, so plain `<` orders
    /// "no match" below every real prefix).
    fn cover(state: &PatchState, idx: u32) -> (u32, i32) {
        let probe = |net: Ipv4Net| state.live.get(&net).map(|&h| (h + 1, i32::from(net.len())));
        longest_in(idx << 16, 16, probe).unwrap_or((0, -1))
    }

    /// The live BGP prefixes longer than /16 in chunk `idx`, with their
    /// handles: a range of the live map. In (address, length) order the
    /// chunk's /17 at its first address comes right after its ≤/16
    /// prefixes, and every other prefix in the chunk is longer than /16.
    fn bgp_long(state: &PatchState, idx: u32) -> impl Iterator<Item = (Ipv4Net, u32)> + '_ {
        let first = Ipv4Net::new(idx << 16, 17).unwrap_or(Ipv4Net::DEFAULT);
        let chunk = state.live.range(first..);
        chunk
            .take_while(move |(net, _)| net.addr_u32() >> 16 == idx)
            .map(|(net, &h)| (*net, h))
    }

    /// The registry prefixes longer than /16 in chunk `idx`, with their
    /// handles: a range of the sorted registry arena.
    fn dump_long(&self, idx: u32) -> impl Iterator<Item = (Ipv4Net, u32)> + '_ {
        let dump = self.dump_arena();
        let lo = dump.partition_point(|n| n.addr_u32() >> 16 < idx);
        let hi = dump.partition_point(|n| n.addr_u32() >> 16 <= idx);
        let first = u32::try_from(lo).unwrap_or(u32::MAX);
        (first..)
            .zip(dump.get(lo..hi).unwrap_or_default())
            .filter_map(|(h, net)| (net.len() > 16).then_some((*net, h)))
    }

    /// The slot of the longest registry prefix of /16 or shorter covering
    /// chunk `idx`, or 0.
    fn dump_cover(&self, idx: u32) -> u32 {
        let dump = self.dump_arena();
        let h = longest_in(idx << 16, 16, |net| dump.binary_search(&net).ok());
        h.and_then(|h| u32::try_from(h + 1).ok()).unwrap_or(0)
    }

    /// After a ≤/16 prefix was announced or withdrawn: brings every root
    /// entry it owns — those no longer ≤/16 BGP prefix covers — up to
    /// date. Entries under a longer cover cannot see the change.
    fn refresh_root(
        &mut self,
        state: &PatchState,
        net: Ipv4Net,
        announce: bool,
        report: &mut PatchReport,
    ) {
        let first = net.addr_u32() >> 16;
        let len = i32::from(net.len());
        for idx in first..first + (1u32 << (16 - net.len())) {
            let (slot, cover_len) = Self::cover(state, idx);
            let owned = if announce {
                cover_len == len
            } else {
                cover_len < len
            };
            let Some(&entry) = self.root.get(idx as usize).filter(|_| owned) else {
                continue;
            };
            // The report counts what the BGP tier's layout alone does: a
            // chunk rebuild where it holds a node, a leaf write elsewhere.
            let bgp_node = Self::bgp_long(state, idx).next().is_some();
            report.root_writes += 1;
            if !bgp_node
                && entry & NODE_FLAG == 0
                && (slot != 0 || self.dump_long(idx).next().is_none())
            {
                // A leaf before and after: the new BGP cover, or the
                // registry's answer it uncovered.
                let leaf = if slot != 0 {
                    slot
                } else {
                    self.dump_cover(idx)
                };
                if let Some(e) = self.root.get_mut(idx as usize) {
                    *e = leaf;
                }
                continue;
            }
            let cells = self.rebuild_chunk(state, idx);
            if bgp_node {
                report.cell_writes += cells;
                report.groups_rebuilt += 1;
            }
        }
    }

    /// Frees /16 chunk `idx`'s nodes and repaints it: the live BGP
    /// prefixes longer than /16 in it (a range of the live map) over the
    /// registry's (a range of the static list), under the chunk's ≤/16
    /// answer. The entry is a leaf when nothing longer than /16 shows
    /// there. Returns the run values the BGP tier's layout alone holds in
    /// the chunk.
    fn rebuild_chunk(&mut self, state: &PatchState, idx: u32) -> usize {
        let Some(&old) = self.root.get(idx as usize) else {
            return 0;
        };
        self.free_tree(old);
        let (slot, _) = Self::cover(state, idx);
        let cover = if slot != 0 {
            slot
        } else {
            self.dump_cover(idx)
        };
        let bgp = Self::bgp_long(state, idx).map(|(net, h)| chunk_key(net, h + 1));
        let mut items: Vec<u64> = bgp.collect();
        items.extend(self.dump_long(idx).map(|(net, h)| chunk_key(net, h + 1)));
        items.sort_unstable();
        let mut cells = 0;
        let entry = self.build_chunk(cover, &items, &mut cells);
        if let Some(e) = self.root.get_mut(idx as usize) {
            *e = entry;
        }
        cells
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netclust_testkit::{net, nets};

    fn a(s: &str) -> u32 {
        s.parse::<std::net::Ipv4Addr>().unwrap().into()
    }

    /// The update-line grammar, and the texts the CLI and the daemon's 400
    /// bodies carry; a bad prefix is reported before an unknown verb.
    #[test]
    fn update_lines_parse_or_say_why() {
        let p = net("10.1.0.0/16");
        assert_eq!("announce 10.1.0.0/16".parse(), Ok(TableDelta::announce(p)));
        assert_eq!(
            " withdraw\t10.1.0.0/16 ".parse(),
            Ok(TableDelta::withdraw(p))
        );
        assert_eq!(
            "replace 10.1.0.0/16 as-path".parse(),
            Ok(TableDelta::replace(p))
        );
        let why = |line: &str| line.parse::<TableDelta>().unwrap_err().to_string();
        assert_eq!(why("announce"), "bad prefix in \"announce\"");
        assert_eq!(why(" flap 10.1/16 "), "bad prefix in \"flap 10.1/16\"");
        assert_eq!(
            why("flap 10.1.0.0/16"),
            "unknown update \"flap\" (announce|withdraw|replace)"
        );

        let feed = "# t0\nannounce 10.1.0.0/16\n \n\nwithdraw 10.1.0.0/16\n#\nreplace 10.1.0.0/16";
        let batches = vec![
            vec![TableDelta::announce(p)],
            vec![TableDelta::withdraw(p), TableDelta::replace(p)],
        ];
        assert_eq!(parse_feed(feed), Ok(batches));
        assert_eq!(parse_feed("# nothing\n\n"), Ok(vec![]));
        let err = parse_feed("\n# c\nannounce 10.1.0.0/16\nflap 10.1.0.0/16\n").unwrap_err();
        assert_eq!(err, (4, DeltaParseError::UnknownUpdate("flap".into())));
    }

    /// Reference check: the patched table must agree with a from-scratch
    /// compile of `expect` on every probe.
    fn assert_equivalent(t: &CompiledTable, expect: &[Ipv4Net], probes: &[u32]) {
        let fresh = CompiledTable::tiered(expect, &[]);
        for &p in probes {
            assert_eq!(t.lookup(p), fresh.lookup(p), "probe {:#010x}", p);
        }
        let mut want: Vec<Ipv4Net> = expect.to_vec();
        want.sort();
        want.dedup();
        assert_eq!(t.live_prefixes(), want);
        assert_eq!(t.len(), want.len());
    }

    /// Dense probe set around the fixtures' address ranges.
    fn probes() -> Vec<u32> {
        let mut v = Vec::new();
        for hi in [10u32, 12, 18, 24, 99] {
            for mid in [0u32, 1, 48, 65, 128] {
                for lo in 0..=255u32 {
                    v.push((hi << 24) | (mid << 16) | (2 << 8) | lo);
                }
                v.push((hi << 24) | (mid << 16) | (147 << 8) | 94);
            }
        }
        v
    }

    #[test]
    fn announce_below_16_rebuilds_its_one_chunk() {
        let mut t = CompiledTable::tiered(&nets(&["12.0.0.0/8"]), &[]);
        let r = t.apply_delta(&[TableDelta::announce(net("12.65.128.0/19"))]);
        assert!(!r.recompiled);
        assert!(r.initialized);
        assert_eq!(r.announced, 1);
        // The /16 turns from a leaf into one node: /8, /19, /8.
        assert_eq!((r.groups_rebuilt, r.cell_writes, r.root_writes), (1, 3, 1));
        assert_eq!(t.nodes(), 1);
        assert_equivalent(&t, &nets(&["12.0.0.0/8", "12.65.128.0/19"]), &probes());
    }

    #[test]
    fn announce_does_not_clobber_longer_matches() {
        let mut t = CompiledTable::tiered(&nets(&["12.65.128.0/19"]), &[]);
        let r = t.apply_delta(&[TableDelta::announce(net("12.0.0.0/8"))]);
        assert!(!r.recompiled);
        // 255 leaf root entries take the /8; the /19's chunk is rebuilt
        // over it, and the /19's run must survive inside.
        assert_eq!((r.root_writes, r.groups_rebuilt), (256, 1));
        assert_equivalent(&t, &nets(&["12.0.0.0/8", "12.65.128.0/19"]), &probes());
    }

    #[test]
    fn withdraw_short_backfills_from_remaining_set() {
        let mut t = CompiledTable::tiered(
            &nets(&["12.0.0.0/8", "12.65.0.0/16", "12.65.128.0/19"]),
            &[],
        );
        let r = t.apply_delta(&[TableDelta::withdraw(net("12.65.0.0/16"))]);
        assert!(!r.recompiled);
        assert_eq!(r.withdrawn, 1);
        assert_equivalent(&t, &nets(&["12.0.0.0/8", "12.65.128.0/19"]), &probes());
    }

    #[test]
    fn withdraw_does_not_touch_longer_owners() {
        // Withdrawing the /16 must leave the /19's slots intact even
        // though its range covers them.
        let mut t = CompiledTable::tiered(&nets(&["12.65.0.0/16", "12.65.128.0/19"]), &[]);
        t.apply_delta(&[TableDelta::withdraw(net("12.65.0.0/16"))]);
        assert_equivalent(&t, &nets(&["12.65.128.0/19"]), &probes());
    }

    #[test]
    fn announce_long_adds_a_low_node_over_the_24() {
        let mut t = CompiledTable::tiered(&nets(&["24.48.2.0/24"]), &[]);
        assert_eq!(t.nodes(), 1);
        let r = t.apply_delta(&[TableDelta::announce(net("24.48.2.128/25"))]);
        assert!(!r.recompiled);
        assert_eq!(r.groups_rebuilt, 1);
        assert_eq!(t.nodes(), 2);
        assert_equivalent(&t, &nets(&["24.48.2.0/24", "24.48.2.128/25"]), &probes());
    }

    #[test]
    fn withdraw_long_frees_its_node_for_reuse() {
        // 24.48/16's low and mid node, then 24.49/16's mid node: three
        // 32-byte nodes in build order.
        let base = ["24.48.2.0/24", "24.48.2.128/25", "24.49.2.0/24"];
        let mut t = CompiledTable::tiered(&nets(&base), &[]);
        assert_eq!((t.nodes(), t.small.nodes.len()), (3, 3));
        let r = t.apply_delta(&[TableDelta::withdraw(net("24.48.2.128/25"))]);
        assert!(!r.recompiled);
        // Both of the chunk's nodes were freed; its new mid node took one.
        assert_eq!((t.nodes(), t.small.free.len()), (2, 1));
        assert_equivalent(&t, &nets(&["24.48.2.0/24", "24.49.2.0/24"]), &probes());
        // The other freed node is reused by the next long announce.
        let r2 = t.apply_delta(&[TableDelta::announce(net("24.48.2.192/26"))]);
        assert!(!r2.recompiled);
        assert_eq!((t.nodes(), t.small.nodes.len()), (3, 3));
        let after = ["24.48.2.0/24", "24.48.2.192/26", "24.49.2.0/24"];
        assert_equivalent(&t, &nets(&after), &probes());
    }

    #[test]
    fn a_rebuilt_last_chunk_leaves_its_stores_as_long_as_a_fresh_compile() {
        // One /24 grown past six runs and back: the low node moves from
        // store to store, and each freed node was its store's last. The
        // arena keeps withdrawn entries, so it is left out.
        let layout =
            |t: &CompiledTable| t.memory_bytes() - t.dead_cells() * 4 - t.prefixes().len() * 8;
        let block = 0x0A0A_0A00u32;
        let mut t = CompiledTable::tiered(&nets(&["10.10.10.0/24"]), &[]);
        let longs: Vec<Ipv4Net> = (0..8u32)
            .map(|i| Ipv4Net::new(block | i << 5, 28).unwrap())
            .collect();
        let mut live = vec![net("10.10.10.0/24")];
        for (i, &p) in longs.iter().chain(longs.iter().rev()).enumerate() {
            let announce = i < longs.len();
            t.apply_delta(&[if announce {
                live.push(p);
                TableDelta::announce(p)
            } else {
                live.retain(|&q| q != p);
                TableDelta::withdraw(p)
            }]);
            let fresh = CompiledTable::tiered(&live, &[]);
            assert_eq!(layout(&t), layout(&fresh), "after {} deltas", i + 1);
            assert!(t.small.free.is_empty());
            assert_equivalent(&t, &live, &probes());
        }
    }

    #[test]
    fn chunk_rebuild_does_not_leak_into_sibling_chunks() {
        // Two chunks with structurally identical >/24 coverage; patching
        // one must not leak into the other.
        let mut t = CompiledTable::tiered(&nets(&["10.0.2.128/25", "10.1.2.128/25"]), &[]);
        let r = t.apply_delta(&[TableDelta::withdraw(net("10.0.2.128/25"))]);
        assert!(!r.recompiled);
        assert_equivalent(&t, &nets(&["10.1.2.128/25"]), &probes());
    }

    #[test]
    fn cover_update_does_not_leak_into_sibling_chunks() {
        // A /24 announced under one chunk's /25 repaints that chunk only;
        // the structurally identical sibling keeps missing.
        let mut t = CompiledTable::tiered(&nets(&["10.0.2.128/25", "10.1.2.128/25"]), &[]);
        let r = t.apply_delta(&[TableDelta::announce(net("10.0.2.0/24"))]);
        assert!(!r.recompiled);
        assert_equivalent(
            &t,
            &nets(&["10.0.2.128/25", "10.1.2.128/25", "10.0.2.0/24"]),
            &probes(),
        );
    }

    #[test]
    fn withdraw_to_empty_and_reannounce() {
        let mut t = CompiledTable::tiered(&nets(&["12.0.0.0/8", "24.48.2.128/25"]), &[]);
        let r = t.apply_delta(&[
            TableDelta::withdraw(net("12.0.0.0/8")),
            TableDelta::withdraw(net("24.48.2.128/25")),
        ]);
        assert!(!r.recompiled);
        assert!(t.is_empty());
        assert_eq!(t.nodes(), 0, "an emptied chunk is a leaf again");
        assert!(t.lookup(a("12.1.1.1")).is_none());
        assert!(t.lookup(a("24.48.2.129")).is_none());
        let r2 = t.apply_delta(&[TableDelta::announce(net("24.48.2.128/25"))]);
        assert!(!r2.recompiled);
        assert_equivalent(&t, &nets(&["24.48.2.128/25"]), &probes());
    }

    #[test]
    fn duplicate_announce_and_absent_withdraw_are_noops() {
        let mut t = CompiledTable::tiered(&nets(&["12.0.0.0/8"]), &[]);
        let r = t.apply_delta(&[
            TableDelta::announce(net("12.0.0.0/8")),
            TableDelta::withdraw(net("99.0.0.0/8")),
        ]);
        assert!(!r.recompiled);
        assert_eq!(r.noops, 2);
        assert_eq!(r.slot_writes(), 0);
        assert_equivalent(&t, &nets(&["12.0.0.0/8"]), &probes());
    }

    #[test]
    fn replace_of_live_prefix_counts_as_replaced() {
        let mut t = CompiledTable::tiered(&nets(&["12.0.0.0/8"]), &[]);
        let r = t.apply_delta(&[TableDelta::replace(net("12.0.0.0/8"))]);
        assert_eq!(r.replaced, 1);
        assert_eq!(r.noops, 0);
        let r2 = t.apply_delta(&[TableDelta::replace(net("18.0.0.0/8"))]);
        assert_eq!(r2.announced, 1, "replace of an absent prefix announces");
        assert_equivalent(&t, &nets(&["12.0.0.0/8", "18.0.0.0/8"]), &probes());
    }

    #[test]
    fn dense_batch_falls_back_to_recompile() {
        let mut t = CompiledTable::tiered(&nets(&["12.0.0.0/8"]), &[]);
        let deltas: Vec<TableDelta> = (0..128u32)
            .map(|i| TableDelta::announce(Ipv4Net::new(i << 16, 16).unwrap()))
            .collect();
        let r = t.apply_delta(&deltas);
        assert!(r.recompiled, "128 deltas cross the threshold");
        assert_eq!(r.announced, 128);
        let mut expect = nets(&["12.0.0.0/8"]);
        expect.extend((0..128u32).map(|i| Ipv4Net::new(i << 16, 16).unwrap()));
        assert_equivalent(&t, &expect, &probes());
        // The recompiled table keeps patching incrementally afterwards.
        let r2 = t.apply_delta(&[TableDelta::withdraw(net("12.0.0.0/8"))]);
        assert!(!r2.recompiled);
        assert!(!r2.initialized, "state survives the recompile");
    }

    #[test]
    fn empty_compile_materializes_its_root_then_patches() {
        let mut t = CompiledTable::tiered(&[], &[]);
        let r = t.apply_delta(&[TableDelta::announce(net("12.0.0.0/8"))]);
        assert!(!r.recompiled);
        assert_eq!(r.root_writes, 256);
        assert_equivalent(&t, &nets(&["12.0.0.0/8"]), &probes());
        let r2 = t.apply_delta(&[TableDelta::announce(net("18.0.0.0/8"))]);
        assert!(!r2.recompiled);
        assert_equivalent(&t, &nets(&["12.0.0.0/8", "18.0.0.0/8"]), &probes());
    }

    #[test]
    fn arena_tombstones_are_reused() {
        let mut t = CompiledTable::tiered(&nets(&["12.0.0.0/8", "24.48.2.128/25"]), &[]);
        let before = t.prefixes().len();
        t.apply_delta(&[TableDelta::withdraw(net("24.48.2.128/25"))]);
        t.apply_delta(&[TableDelta::announce(net("24.48.3.128/25"))]);
        assert_eq!(t.prefixes().len(), before, "tombstone reused, no growth");
        assert_equivalent(&t, &nets(&["12.0.0.0/8", "24.48.3.128/25"]), &probes());
    }

    #[test]
    fn merged_delta_applies_to_bgp_tier() {
        use crate::table::{MergedTable, RoutingTable, TableKind};
        let bgp = RoutingTable::new("B", "d0", TableKind::Bgp, nets(&["12.0.0.0/8"]));
        let dump = RoutingTable::new("N", "d0", TableKind::NetworkDump, nets(&["24.48.2.0/23"]));
        let mut compiled = MergedTable::merge([&bgp, &dump]).compile();
        let r = compiled.apply_delta(&[TableDelta::announce(net("24.48.0.0/16"))]);
        assert!(!r.recompiled);
        // BGP tier now wins over the dump's longer /23.
        assert_eq!(compiled.lookup(a("24.48.3.87")), Some(net("24.48.0.0/16")));
        assert_eq!(compiled.dump_prefixes().len(), 1, "fallback tier untouched");
    }

    #[test]
    fn patched_table_clone_is_independent() {
        let mut t = CompiledTable::tiered(&nets(&["12.0.0.0/8"]), &[]);
        t.apply_delta(&[TableDelta::announce(net("18.0.0.0/8"))]);
        let mut copy = t.clone();
        copy.apply_delta(&[TableDelta::withdraw(net("12.0.0.0/8"))]);
        assert_eq!(t.lookup(a("12.1.1.1")), Some(net("12.0.0.0/8")));
        assert!(copy.lookup(a("12.1.1.1")).is_none());
    }

    #[test]
    fn dead_cells_outnumbering_live_ones_compact_the_layout() {
        // One chunk whose mid node always spills: 8 /24s two apart, then
        // the first one flapped. Every rebuild strands the old run array.
        let base: Vec<Ipv4Net> = (0..8u32)
            .map(|i| Ipv4Net::new(0x1830_0000 | (i << 9), 24).unwrap())
            .collect();
        let mut t = CompiledTable::tiered(&base, &[]);
        let flap = [
            TableDelta::withdraw(net("24.48.0.0/24")),
            TableDelta::announce(net("24.48.0.0/24")),
        ];
        let mut compactions = 0;
        for _ in 0..COMPACT_MIN_DEAD_CELLS {
            let before = t.dead_cells();
            let r = t.apply_delta(&flap);
            assert!(!r.recompiled, "compaction is not the bulk path");
            if r.compacted {
                compactions += 1;
                assert_eq!(t.dead_cells(), 0);
                let fresh = CompiledTable::tiered(&base, &[]);
                assert_eq!(t.memory_bytes(), fresh.memory_bytes());
            } else {
                assert!(t.dead_cells() > before);
            }
            assert!(t.spill.len() < 2 * COMPACT_MIN_DEAD_CELLS + 64);
        }
        assert!(compactions >= 10, "{compactions}");
        assert_equivalent(&t, &base, &probes());
    }

    #[test]
    fn report_merge_accumulates_and_is_sticky() {
        let mut a = PatchReport {
            announced: 1,
            root_writes: 4,
            ..PatchReport::default()
        };
        let b = PatchReport {
            withdrawn: 2,
            recompiled: true,
            ..PatchReport::default()
        };
        a.merge(&b);
        assert_eq!(a.announced, 1);
        assert_eq!(a.withdrawn, 2);
        assert!(a.recompiled);
        assert_eq!(a.slot_writes(), 4);
    }
}
