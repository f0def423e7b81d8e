//! Routing-table substrate: radix-trie longest-prefix match, snapshot
//! modelling, multi-table merging, and BGP-dynamics analysis.
//!
//! This crate implements the paper's §3.1 (prefix extraction and table
//! merging) and §3.4 (effect of BGP dynamics) machinery:
//!
//! * [`PrefixTrie`] — arena-allocated binary trie with longest-prefix match,
//! * [`CompiledTable`] / [`CompiledMerged`] — the trie frozen into a
//!   cache-resident DIR-16 root + popcount-compressed nodes for one to
//!   three array loads per lookup on the clustering hot path,
//! * [`RoutingTable`] / [`MergedTable`] — named snapshots and the unified
//!   two-tier (BGP primary / registry-dump secondary) lookup table,
//! * [`PrefixLengthHistogram`] — Figure 1's prefix-length distribution,
//! * [`SnapshotDiff`], [`dynamic_prefix_set`], [`maximum_effect`] — the
//!   dynamics measures behind Table 4,
//! * [`TableDelta`] / [`CompiledTable::apply_delta`] — incremental
//!   chunk-by-chunk patching of the compiled layout from BGP update
//!   streams.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod diff;
mod flat;
mod patch;
mod stats;
mod table;
#[cfg(test)]
mod testutil;
mod trie;

pub use diff::{
    decode_deltas, dynamic_prefix_set, encode_deltas, maximum_effect, DeltaCodecError,
    SnapshotDiff, DELTA_WIRE_BYTES,
};
pub use flat::{CompiledMerged, CompiledTable, Handle, LivePrefixes, DEFAULT_PREFETCH_DISTANCE};
pub use patch::{parse_feed, DeltaKind, DeltaParseError, PatchPolicy, PatchReport, TableDelta};
// The shared error-accounting shape (`ParseReport::counts()` returns it);
// defined in `netclust-obs`, re-exported here so rtable users need no
// extra import.
pub use netclust_obs::ErrorCounts;
pub use stats::PrefixLengthHistogram;
pub use table::{
    load_tables, MatchSource, MergedTable, ParseReport, RouteAttrs, RoutingTable, TableKind,
};
pub use trie::{PrefixTrie, PrefixTrieIter};
