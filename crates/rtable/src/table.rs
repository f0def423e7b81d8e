//! Routing-table snapshots and the merged prefix/netmask table.
//!
//! §3.1 of the paper assembles prefixes from two kinds of sources:
//!
//! * **BGP routing/forwarding table snapshots** (AADS, MAE-EAST, MAE-WEST,
//!   PACBELL, PAIX, AT&T, CANET, CERFNET, OREGON, SINGAREN, VBNS) — the
//!   *primary* source, and
//! * **IP network dumps** from registries (ARIN, NLANR) — a *secondary*
//!   source, consulted only when no BGP prefix matches, because registry
//!   entries are allocation-granularity and often coarser than what is
//!   actually routed.
//!
//! [`load_tables`] reads table files into a [`MergedTable`], the union used
//! for clustering, keeping the primary/secondary distinction;
//! [`RoutingTable`] models one snapshot in memory, the studies' way in.

use std::fmt;
use std::io;
use std::net::Ipv4Addr;
use std::path::Path;

use netclust_obs::ErrorCounts;
use netclust_prefix::{parse_table_entry, Ipv4Net};

/// Per-line accounting of one snapshot parse: how much of the dump was
/// usable, and exactly which lines were not.
///
/// BGP snapshots are scraped from live routers and registries; the paper's
/// pipeline runs unattended over them, so noise must be *measured* rather
/// than silently dropped — the noise ratio is what a hot table swap
/// validates against its budget (§3.4 churn plus torn dumps).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ParseReport {
    /// Total input lines, blank and comment lines included.
    pub total_lines: usize,
    /// Lines that yielded a prefix (before deduplication).
    pub parsed: usize,
    /// Blank or `#`-comment lines (never counted as noise).
    pub skipped: usize,
    /// Malformed lines: 0-based line number and the offending text.
    pub bad: Vec<(usize, String)>,
}

impl ParseReport {
    /// The workspace-wide error-accounting shape: content lines seen
    /// (blank/comment lines excluded — they are never noise) vs malformed
    /// lines. This is what the CLI and obs layer print for every stage.
    pub fn counts(&self) -> crate::ErrorCounts {
        let content = self.total_lines.saturating_sub(self.skipped);
        crate::ErrorCounts::new(content as u64, self.bad.len() as u64)
    }
}

/// Whether a snapshot is a routed (BGP) view or a registry allocation dump;
/// in this order, the tiers of a [`MergedTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TableKind {
    /// BGP routing or forwarding table snapshot — primary prefix source.
    Bgp,
    /// Registry IP network dump (ARIN/NLANR-style) — secondary source.
    NetworkDump,
}

/// A single named routing-table snapshot: a set of prefixes plus metadata.
#[derive(Debug, Clone)]
pub struct RoutingTable {
    /// Source name, e.g. `"MAE-WEST"`.
    pub name: String,
    /// Snapshot label, e.g. `"1999-07-03"` or a day index.
    pub date: String,
    /// Source kind (BGP vs registry dump).
    pub kind: TableKind,
    /// Sorted, deduplicated prefixes.
    prefixes: Vec<Ipv4Net>,
}

impl RoutingTable {
    /// Builds a snapshot from an unordered prefix list (sorted and deduped).
    pub fn new(
        name: impl Into<String>,
        date: impl Into<String>,
        kind: TableKind,
        mut prefixes: Vec<Ipv4Net>,
    ) -> Self {
        prefixes.sort();
        prefixes.dedup();
        RoutingTable {
            name: name.into(),
            date: date.into(),
            kind,
            prefixes,
        }
    }

    /// Parses a snapshot from raw dump-file lines in any of the three
    /// formats of §3.1.2. Unparsable lines are counted but not fatal.
    ///
    /// Returns the table and the number of skipped lines. See
    /// [`parse_report`](Self::parse_report) for full per-line accounting.
    pub fn parse(
        name: impl Into<String>,
        date: impl Into<String>,
        kind: TableKind,
        lines: &str,
    ) -> (Self, usize) {
        let (table, report) = Self::parse_report(name, date, kind, lines);
        (table, report.bad.len())
    }

    /// [`parse`](Self::parse) with a full [`ParseReport`] instead of a
    /// bare noise count: every malformed line is recorded with its line
    /// number, and blank/comment lines are tallied separately so the
    /// noise ratio reflects content lines only.
    pub fn parse_report(
        name: impl Into<String>,
        date: impl Into<String>,
        kind: TableKind,
        lines: &str,
    ) -> (Self, ParseReport) {
        let mut prefixes = Vec::new();
        let report = read_entries(lines, &mut prefixes);
        (Self::new(name, date, kind, prefixes), report)
    }

    /// The sorted prefix list.
    pub fn prefixes(&self) -> &[Ipv4Net] {
        &self.prefixes
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.prefixes.len()
    }

    /// `true` when the snapshot has no entries.
    pub fn is_empty(&self) -> bool {
        self.prefixes.is_empty()
    }
}

/// The one line grammar of table files: a line is blank, a `#` comment or
/// an entry whose first column is a prefix (a next hop or an AS path may
/// follow). Pushes each prefix onto `into`; the report accounts every line.
fn read_entries(lines: &str, into: &mut Vec<Ipv4Net>) -> ParseReport {
    let mut report = ParseReport::default();
    for (idx, raw) in lines.lines().enumerate() {
        report.total_lines += 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            report.skipped += 1;
            continue;
        }
        let token = line.split_whitespace().next().unwrap_or("");
        match parse_table_entry(token) {
            Ok(net) => {
                into.push(net);
                report.parsed += 1;
            }
            Err(_) => report.bad.push((idx, line.to_string())),
        }
    }
    report
}

/// Reads the files of both tiers, `bgp` then `dumps`, into one
/// [`MergedTable`]: each file's prefixes go straight into its tier, sorted
/// once, and each file is a source named by its path with its parse noise
/// ([`ParseReport::counts`]), what a swap gate budgets against and the CLI
/// notes. A byte that is not UTF-8 spoils only its line (read as U+FFFD).
/// An unreadable file is the `io::Error` with the path in its message.
pub fn load_tables<P: AsRef<Path>>(bgp: &[P], dumps: &[P]) -> io::Result<MergedTable> {
    let mut tiers = [Vec::new(), Vec::new()];
    let mut sources = Vec::with_capacity(bgp.len() + dumps.len());
    for (tier, paths) in tiers.iter_mut().zip([bgp, dumps]) {
        for path in paths {
            let path = path.as_ref().to_string_lossy();
            let bytes = std::fs::read(&*path)
                .map_err(|e| io::Error::new(e.kind(), format!("cannot read table {path}: {e}")))?;
            let report = read_entries(&String::from_utf8_lossy(&bytes), tier);
            sources.push((path.into_owned(), report.counts()));
        }
    }
    Ok(MergedTable::settle(tiers, sources))
}

/// Longest first: `probe` on each prefix of `max_len` bits down to /0 that
/// contains `addr`, until one answers. With an exact lookup of a tier as
/// the probe (a binary search of a sorted list, a map's `get`), that is
/// the tier's longest match of at most `max_len` bits.
pub(crate) fn longest_in<T>(
    addr: u32,
    max_len: u8,
    probe: impl FnMut(Ipv4Net) -> Option<T>,
) -> Option<T> {
    (0..=max_len)
        .rev()
        .filter_map(|len| Ipv4Net::new(addr, len).ok())
        .find_map(probe)
}

/// Which source tier a merged-table match came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MatchSource {
    /// Matched a prefix present in at least one BGP snapshot.
    Bgp,
    /// No BGP prefix matched; fell back to a registry network dump.
    NetworkDump,
}

/// The unified prefix/netmask table built from many snapshots (§3.1.2's
/// "single, large table"), preserving the primary/secondary source split:
/// each tier is the union of its snapshots, one sorted, deduplicated list,
/// and each source is named with its parse noise.
///
/// Longest-prefix matching first consults the BGP tier; only addresses with
/// no routed match fall back to the registry tier. The paper reports this
/// fallback lifts client coverage from ~99% to ~99.9% while keeping
/// allocation-granularity prefixes from overriding routed ones. Serving
/// compiles both into one layout ([`compile`](Self::compile)).
pub struct MergedTable {
    bgp: Vec<Ipv4Net>,
    dump: Vec<Ipv4Net>,
    sources: Vec<(String, ErrorCounts)>,
}

impl MergedTable {
    /// Merges a collection of snapshots into one table, each a clean
    /// source.
    pub fn merge<'a, I>(tables: I) -> Self
    where
        I: IntoIterator<Item = &'a RoutingTable>,
    {
        let mut tiers = [Vec::new(), Vec::new()];
        let mut sources = Vec::new();
        for table in tables {
            sources.push((table.name.clone(), ErrorCounts::default()));
            tiers[table.kind as usize].extend_from_slice(table.prefixes());
        }
        Self::settle(tiers, sources)
    }

    /// The last step of every build: each of the tiers, in [`TableKind`]
    /// order, sorted, deduplicated and shrunk to its length, once.
    fn settle(mut tiers: [Vec<Ipv4Net>; 2], sources: Vec<(String, ErrorCounts)>) -> Self {
        for tier in &mut tiers {
            tier.sort_unstable();
            tier.dedup();
            tier.shrink_to_fit();
        }
        let [bgp, dump] = tiers;
        MergedTable { bgp, dump, sources }
    }

    /// Number of unique prefixes in the BGP tier.
    pub fn bgp_len(&self) -> usize {
        self.bgp.len()
    }

    /// Number of unique prefixes in the registry tier.
    pub fn dump_len(&self) -> usize {
        self.dump.len()
    }

    /// Total unique prefixes across both tiers (a prefix present in both
    /// tiers counts once per tier, mirroring the paper's entry count).
    pub fn len(&self) -> usize {
        self.bgp.len() + self.dump.len()
    }

    /// `true` when both tiers are empty.
    pub fn is_empty(&self) -> bool {
        self.bgp.is_empty() && self.dump.is_empty()
    }

    /// The merged sources in order, each named and paired with its parse
    /// noise (clean for a snapshot built in memory).
    pub fn sources(&self) -> &[(String, ErrorCounts)] {
        &self.sources
    }

    /// The parse noise of every source, summed: what a swap gate budgets
    /// against.
    pub fn noise(&self) -> ErrorCounts {
        let mut sum = ErrorCounts::default();
        self.sources.iter().for_each(|(_, c)| sum.merge(*c));
        sum
    }

    /// Longest-prefix match with source attribution: BGP tier first, then
    /// registry fallback. Returns `None` for unclusterable addresses.
    pub fn lookup(&self, addr: Ipv4Addr) -> Option<(Ipv4Net, MatchSource)> {
        self.lookup_u32(u32::from(addr))
    }

    /// [`lookup`](Self::lookup) on a raw `u32` address: a binary search of
    /// each sorted list per prefix length. The serving path compiles instead;
    /// this one is the reference the compiled table is checked against.
    pub fn lookup_u32(&self, addr: u32) -> Option<(Ipv4Net, MatchSource)> {
        let longest = |tier: &[Ipv4Net]| {
            longest_in(addr, 32, |net| {
                tier.binary_search(&net).is_ok().then_some(net)
            })
        };
        match longest(&self.bgp) {
            Some(net) => Some((net, MatchSource::Bgp)),
            None => longest(&self.dump).map(|net| (net, MatchSource::NetworkDump)),
        }
    }

    /// All prefixes of the BGP tier, sorted.
    pub fn bgp_prefixes(&self) -> &[Ipv4Net] {
        &self.bgp
    }

    /// All prefixes of the registry tier, sorted.
    pub fn dump_prefixes(&self) -> &[Ipv4Net] {
        &self.dump
    }
}

impl fmt::Debug for MergedTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MergedTable")
            .field("bgp_len", &self.bgp.len())
            .field("dump_len", &self.dump.len())
            .field("sources", &self.sources)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netclust_testkit::{addr, net};

    #[test]
    fn table_sorts_and_dedupes() {
        let t = RoutingTable::new(
            "X",
            "d0",
            TableKind::Bgp,
            vec![net("18.0.0.0/8"), net("6.0.0.0/8"), net("18.0.0.0/8")],
        );
        assert_eq!(t.len(), 2);
        assert_eq!(t.prefixes(), [net("6.0.0.0/8"), net("18.0.0.0/8")]);
    }

    #[test]
    fn parse_counts_noise() {
        let (t, bad) = RoutingTable::parse(
            "Y",
            "d0",
            TableKind::Bgp,
            "12.0.48.0/20\nnot-a-prefix\n6.0.0.0/8\n",
        );
        assert_eq!(t.len(), 2);
        assert_eq!(bad, 1);
    }

    #[test]
    fn parse_report_accounts_every_line() {
        let (t, report) = RoutingTable::parse_report(
            "Y",
            "d0",
            TableKind::Bgp,
            "# scraped 1999-07-03\n\n12.0.48.0/20 hop1 7018\nnot-a-prefix\n6.0.0.0/8\n999.1.2.3/8\n",
        );
        assert_eq!(t.len(), 2);
        assert_eq!(report.total_lines, 6);
        assert_eq!(report.skipped, 2, "comment + blank");
        assert_eq!(report.parsed, 2);
        assert_eq!(
            report.bad,
            vec![
                (3, "not-a-prefix".to_string()),
                (5, "999.1.2.3/8".to_string())
            ]
        );
        assert_eq!(
            report.counts(),
            ErrorCounts::new(4, 2),
            "comments are not noise"
        );
        // Empty and all-comment inputs are clean with zero noise.
        let (_, empty) = RoutingTable::parse_report("Y", "d0", TableKind::Bgp, "# c\n\n");
        assert_eq!(empty.counts().ratio(), 0.0);
        assert!(empty.counts().is_clean());
    }

    #[test]
    fn merge_prefers_bgp_over_dump() {
        // Registry dump knows the allocation 12.0.0.0/8; BGP knows the
        // routed subnet 12.65.128.0/19. The routed prefix must win.
        let bgp = RoutingTable::new("B", "d0", TableKind::Bgp, vec![net("12.65.128.0/19")]);
        let dump = RoutingTable::new(
            "ARIN",
            "d0",
            TableKind::NetworkDump,
            vec![net("12.0.0.0/8")],
        );
        let merged = MergedTable::merge([&bgp, &dump]);
        let (m, src) = merged.lookup(addr("12.65.147.94")).unwrap();
        assert_eq!(m, net("12.65.128.0/19"));
        assert_eq!(src, MatchSource::Bgp);
        // An address only the dump covers falls back.
        let (m, src) = merged.lookup(addr("12.1.1.1")).unwrap();
        assert_eq!(m, net("12.0.0.0/8"));
        assert_eq!(src, MatchSource::NetworkDump);
        // An address neither covers is unclusterable.
        assert!(merged.lookup(addr("99.1.1.1")).is_none());
    }

    #[test]
    fn bgp_tier_wins_even_when_dump_is_longer() {
        // Secondary source must never override a routed match, even with a
        // longer prefix (the paper's §3.1.1 rationale).
        let bgp = RoutingTable::new("B", "d0", TableKind::Bgp, vec![net("12.0.0.0/8")]);
        let dump = RoutingTable::new(
            "N",
            "d0",
            TableKind::NetworkDump,
            vec![net("12.65.128.0/19")],
        );
        let merged = MergedTable::merge([&bgp, &dump]);
        let (m, src) = merged.lookup(addr("12.65.147.94")).unwrap();
        assert_eq!(m, net("12.0.0.0/8"));
        assert_eq!(src, MatchSource::Bgp);
    }

    #[test]
    fn merge_unions_multiple_bgp_views() {
        let t1 = RoutingTable::new("A", "d0", TableKind::Bgp, vec![net("12.65.128.0/19")]);
        let t2 = RoutingTable::new("B", "d0", TableKind::Bgp, vec![net("24.48.2.0/23")]);
        let merged = MergedTable::merge([&t1, &t2]);
        assert_eq!(merged.bgp_len(), 2);
        assert!(merged.lookup(addr("12.65.147.94")).is_some());
        assert!(merged.lookup(addr("24.48.3.87")).is_some());
        let clean = ErrorCounts::default();
        assert_eq!(
            merged.sources(),
            [("A".to_string(), clean), ("B".to_string(), clean)]
        );
        assert_eq!(merged.noise(), clean);
    }

    #[test]
    fn overlapping_views_dedupe() {
        let t1 = RoutingTable::new("A", "d0", TableKind::Bgp, vec![net("12.65.128.0/19")]);
        let t2 = RoutingTable::new("B", "d0", TableKind::Bgp, vec![net("12.65.128.0/19")]);
        let merged = MergedTable::merge([&t1, &t2]);
        assert_eq!(merged.bgp_len(), 1);
    }
}
