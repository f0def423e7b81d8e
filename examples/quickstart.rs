//! Quickstart: cluster the clients of a Web server log with BGP routing
//! information, end to end.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! The example walks the paper's §3 pipeline on a small synthetic setup:
//! build routing tables, merge them, cluster a log by longest-prefix
//! match, compare against the naive /24 grouping, and validate a sample.

use netclust::core::{Assigner, Clustering};
use netclust::netgen::{generate, standard_merged, LogSpec, Universe, UniverseConfig};
use netclust_experiments::{validate, SamplePlan};

fn main() {
    // 1. A synthetic Internet stands in for the real one: ASes, orgs,
    //    address allocations, DNS, router paths. Seeded → reproducible.
    let universe = Universe::generate(UniverseConfig {
        seed: 42,
        ..UniverseConfig::default()
    });
    println!(
        "universe: {} ASes, {} orgs, {} active hosts",
        universe.ases().len(),
        universe.orgs().len(),
        universe.total_active_hosts()
    );

    // 2. Collect routing tables from 12 BGP vantage points + 2 registry
    //    dumps and merge them into one two-tier lookup table.
    let merged = standard_merged(&universe, 0);
    println!(
        "merged table: {} BGP prefixes + {} registry prefixes",
        merged.bgp_len(),
        merged.dump_len()
    );

    // 3. A day's worth of Web server log.
    let mut spec = LogSpec::tiny("quickstart", 7);
    spec.total_requests = 50_000;
    spec.target_clients = 1_500;
    let log = generate(&universe, &spec);
    println!(
        "log: {} requests from {} clients",
        log.requests.len(),
        log.client_count()
    );

    // 4. Network-aware clustering: longest-prefix match per client.
    let clustering = Clustering::by(log.hits(), Assigner::NetworkAware(&merged.compile()));
    println!(
        "network-aware: {} clusters, {:.2}% of clients clustered",
        clustering.len(),
        clustering.coverage() * 100.0
    );
    let largest = clustering
        .clusters
        .iter()
        .max_by_key(|c| c.client_count())
        .expect("non-empty log");
    println!(
        "largest cluster: {} with {} clients, {} requests, {} unique URLs",
        largest.prefix,
        largest.client_count(),
        largest.requests,
        largest.unique_urls
    );

    // 5. The simple /24 baseline fragments administrative domains.
    let simple = Clustering::by(log.hits(), Assigner::Simple24);
    println!(
        "simple /24:    {} clusters ({:.1}x more than network-aware)",
        simple.len(),
        simple.len() as f64 / clustering.len().max(1) as f64
    );

    // 6. Validate a sample of clusters with nslookup + traceroute.
    let report = validate(&universe, &clustering, &SamplePlan::default());
    println!(
        "validation: nslookup pass {:.1}% | traceroute pass {:.1}% | simple(/24 rule) {:.1}%",
        report.nslookup_pass_rate() * 100.0,
        report.traceroute_pass_rate() * 100.0,
        report.simple_pass_rate() * 100.0
    );
}
