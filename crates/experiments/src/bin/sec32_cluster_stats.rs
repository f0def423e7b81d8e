//! §3.2.2: headline clustering statistics on the Nagano log, plus the
//! table-union ablation behind the 99 % → 99.9 % coverage claim.
//!
//! Paper reference (full scale): 11,665,713 requests from 59,582 clients
//! over 33,875 URLs group into 9,853 clusters; cluster sizes span 1–1,343
//! clients, 1–339,632 requests, 1–8,095 unique URLs; >99.9 % of clients
//! are clusterable with the full table union, ~99 % with BGP tables alone.

use netclust_core::{Assigner, Clustering};
use netclust_experiments::{
    accessed_url_count, nagano_env, pct, print_table, scale, unique_clients,
};
use netclust_netgen::{registry_dump, standard_vantages};
use netclust_rtable::MergedTable;

fn main() {
    println!("scale factor: {}", scale());
    let (universe, log, merged) = nagano_env();

    let clustering = Clustering::by(log.hits(), Assigner::NetworkAware(&merged.compile()));
    let sizes: Vec<u64> = clustering
        .clusters
        .iter()
        .map(|c| c.client_count() as u64)
        .collect();
    let reqs: Vec<u64> = clustering.clusters.iter().map(|c| c.requests).collect();
    let urls: Vec<u64> = clustering
        .clusters
        .iter()
        .map(|c| c.unique_urls as u64)
        .collect();
    let minmax = |v: &[u64]| {
        (
            v.iter().min().copied().unwrap_or(0),
            v.iter().max().copied().unwrap_or(0),
        )
    };

    println!("\n== §3.2.2 cluster statistics (nagano) ==");
    println!("requests            : {}", log.requests.len());
    println!("clients             : {}", clustering.client_count());
    println!("unique URLs accessed: {}", accessed_url_count(&log));
    println!("client clusters     : {}", clustering.len());
    println!(
        "coverage            : {} clustered ({} unclustered clients)",
        pct(clustering.coverage()),
        clustering.unclustered().len()
    );
    let (lo, hi) = minmax(&sizes);
    println!("cluster size range  : {lo} - {hi} clients");
    let (lo, hi) = minmax(&reqs);
    println!("cluster reqs range  : {lo} - {hi} requests");
    let (lo, hi) = minmax(&urls);
    println!("cluster URLs range  : {lo} - {hi} unique URLs");
    println!("paper (scale 1.0)   : 9,853 clusters; 1-1,343 clients; 1-339,632 requests; 1-8,095 URLs; 99.9% coverage");

    // Ablation: coverage as tables are merged one at a time (BGP first,
    // registry dumps last) — the paper's 99% -> 99.9% claim.
    let specs = standard_vantages();
    let mut tables = Vec::new();
    let mut rows = Vec::new();
    let clients = unique_clients(&log);
    for spec in &specs {
        tables.push(netclust_netgen::snapshot(&universe, spec, 0, 0));
        let merged_k = MergedTable::merge(tables.iter());
        let covered = clients
            .iter()
            .filter(|&&a| merged_k.lookup(a).is_some())
            .count();
        rows.push(vec![
            format!("+{}", spec.name),
            merged_k.bgp_len().to_string(),
            pct(covered as f64 / clients.len() as f64),
        ]);
    }
    for (name, coverage) in [("ARIN", 0.97), ("NLANR", 0.62)] {
        tables.push(registry_dump(&universe, name, coverage));
        let merged_k = MergedTable::merge(tables.iter());
        let covered = clients
            .iter()
            .filter(|&&a| merged_k.lookup(a).is_some())
            .count();
        rows.push(vec![
            format!("+{name} (dump)"),
            (merged_k.bgp_len() + merged_k.dump_len()).to_string(),
            pct(covered as f64 / clients.len() as f64),
        ]);
    }
    print_table(
        "Ablation: client coverage as tables are merged",
        &["table added", "union size", "clients clustered"],
        &rows,
    );
    println!("paper: BGP tables alone ~99%; adding registry dumps -> 99.9%");
}
