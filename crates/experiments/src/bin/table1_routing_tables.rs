//! Table 1: the collection of routing tables — 12 BGP vantage points plus
//! 2 registry network dumps, with entry counts.
//!
//! Paper reference: sizes range from CANET's 1.7 K to ARIN's 300 K; the
//! union holds 391,497 unique prefix/netmask entries. Our synthetic
//! vantage visibilities are calibrated to the same relative sizes.

use netclust_experiments::{paper_universe, print_table};
use netclust_netgen::standard_collection;
use netclust_rtable::{MergedTable, TableKind};

fn main() {
    let universe = paper_universe();
    let tables = standard_collection(&universe, 0, 0);

    let rows: Vec<Vec<String>> = tables
        .iter()
        .map(|t| {
            vec![
                t.name.clone(),
                t.date.clone(),
                t.len().to_string(),
                match t.kind {
                    TableKind::Bgp => "BGP routing table snapshot".to_string(),
                    TableKind::NetworkDump => "IP network dump".to_string(),
                },
            ]
        })
        .collect();
    print_table(
        "Table 1: our collection of routing tables",
        &["name", "date", "entries", "comments"],
        &rows,
    );

    let merged = MergedTable::merge(tables.iter());
    println!(
        "\nunion: {} unique prefixes ({} BGP tier + {} registry tier) from {} sources",
        merged.len(),
        merged.bgp_len(),
        merged.dump_len(),
        merged.source_names().len(),
    );
    let largest = tables
        .iter()
        .filter(|t| t.kind == TableKind::Bgp)
        .map(|t| t.len())
        .max()
        .unwrap();
    println!(
        "largest single BGP table: {largest} entries; union adds {} more routed prefixes",
        merged.bgp_len().saturating_sub(largest),
    );
    println!("paper: 14 sources, 391,497 unique entries; no single table is complete");
}
