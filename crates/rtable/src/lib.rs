//! Routing-table substrate: snapshot modelling, multi-table merging, the
//! compiled longest-prefix-match table, and live patching from BGP update
//! streams.
//!
//! This crate implements the paper's §3.1 machinery (prefix extraction and
//! table merging); the §3.4 dynamics measures and Figure 1's prefix-length
//! histogram that study it live in `netclust-experiments`:
//!
//! * [`load_tables`] / [`MergedTable`] — table files read into their union,
//!   a sorted prefix list per tier (BGP primary / registry-dump secondary),
//! * [`CompiledTable`] — both tiers in one cache-resident DIR-16 root +
//!   popcount-compressed nodes: one to three array loads per lookup,
//! * [`PrefixTrie`] — arena-allocated binary trie with longest-prefix
//!   match (the obvious reference the tests and the benchmark's oracle
//!   hold the compiled table to),
//! * [`TableDelta`] / [`CompiledTable::apply_delta`] — incremental
//!   chunk-by-chunk patching of the compiled layout from BGP update
//!   streams.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod diff;
mod flat;
mod patch;
mod table;
mod trie;

pub use diff::{decode_deltas, encode_deltas, DeltaCodecError, DELTA_WIRE_BYTES};
pub use flat::{CompiledTable, Handle, LivePrefixes, DEFAULT_PREFETCH_DISTANCE};
pub use patch::{parse_feed, DeltaKind, DeltaParseError, PatchReport, TableDelta};
// The shared error-accounting shape (`ParseReport::counts()` returns it);
// defined in `netclust-obs`, re-exported here so rtable users need no
// extra import.
pub use netclust_obs::ErrorCounts;
pub use table::{load_tables, MatchSource, MergedTable, ParseReport, RoutingTable, TableKind};
pub use trie::PrefixTrie;
