//! CDN / proxy placement study: where should a content provider put its
//! caches?
//!
//! ```sh
//! cargo run --release --example cdn_placement
//! ```
//!
//! The paper's motivating application (§1, §4.1.4): identify the busy
//! client clusters responsible for most traffic, place one proxy in front
//! of each, group proxies by shared upstream into proxy clusters, and
//! quantify the benefit with the trace-driven cache simulation.

use netclust::core::{threshold_busy, Assigner, Clustering};
use netclust::netgen::{generate, standard_merged, LogSpec, Universe, UniverseConfig};
use netclust_cachesim::{simulate, SimConfig};
use netclust_experiments::network_clusters;

fn main() {
    let universe = Universe::generate(UniverseConfig {
        seed: 11,
        ..UniverseConfig::default()
    });
    let merged = standard_merged(&universe, 0);
    let mut spec = LogSpec::tiny("cdn", 3);
    spec.total_requests = 120_000;
    spec.target_clients = 2_500;
    let log = generate(&universe, &spec);

    // Step 1: cluster clients and keep the busy clusters that cover 70 %
    // of all requests.
    let clustering = Clustering::by(log.hits(), Assigner::NetworkAware(&merged.compile()));
    let busy = threshold_busy(&clustering.clusters, 0.7);
    println!(
        "{} clusters; {} busy ones cover 70% of {} requests (threshold {} reqs/cluster)",
        clustering.len(),
        busy.busy.len(),
        log.requests.len(),
        busy.threshold
    );

    // Step 2: one proxy per cluster — how much traffic never reaches the
    // origin?
    let result = simulate(&log, &clustering, &SimConfig::paper(16 << 20));
    println!(
        "with 16MB proxies: server sees only {:.1}% of requests ({:.1}% of bytes)",
        (1.0 - result.server_hit_ratio()) * 100.0,
        (1.0 - result.server_byte_hit_ratio()) * 100.0
    );

    // Step 3: group clusters by shared upstream infrastructure — each
    // group is a natural CDN point-of-presence.
    let pops = network_clusters(&universe, &clustering, 2, 2, 99);
    println!("\ntop CDN placement candidates (network clusters):");
    for (rank, pop) in pops.iter().take(8).enumerate() {
        println!(
            "  #{:<2} {:>8} requests, {:>4} clusters, {:>5} clients  behind {}",
            rank + 1,
            pop.requests,
            pop.members.len(),
            pop.clients,
            pop.key
        );
    }
    let covered: u64 = pops.iter().take(8).map(|p| p.requests).sum();
    println!(
        "8 PoPs would front {:.1}% of all requests",
        100.0 * covered as f64 / log.requests.len() as f64
    );
}
