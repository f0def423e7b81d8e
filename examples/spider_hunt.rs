//! Spider and proxy hunting in a server log (§4.1.2).
//!
//! ```sh
//! cargo run --release --example spider_hunt
//! ```
//!
//! Generates a log with a planted crawler and a planted forwarding proxy,
//! then finds them from access patterns alone: request volume, dominance
//! within their cluster, arrival-shape correlation with the whole log,
//! burstiness, and User-Agent diversity. Finally it strips the spider and
//! shows how the busy-cluster ranking changes.

use netclust::core::{threshold_busy, Assigner, ClientClass, Clustering};
use netclust::netgen::{
    generate, standard_merged, LogSpec, ProxySpec, SpiderSpec, Universe, UniverseConfig,
};
use netclust_experiments::{detect, hourly_histogram, strip_clients, AnomalyConfig};

fn main() {
    let universe = Universe::generate(UniverseConfig {
        seed: 5,
        ..UniverseConfig::default()
    });
    let merged = standard_merged(&universe, 0);
    let mut spec = LogSpec::tiny("hunt", 13);
    spec.total_requests = 150_000;
    spec.target_clients = 2_000;
    spec.spiders = vec![SpiderSpec {
        requests: 30_000,
        unique_urls: 450,
        companions: 12,
    }];
    spec.proxies = vec![ProxySpec {
        requests: 20_000,
        companions: 1,
    }];
    let log = generate(&universe, &spec);
    let clustering = Clustering::by(log.hits(), Assigner::NetworkAware(&merged.compile()));

    let config = AnomalyConfig {
        min_requests: 5_000,
        ..Default::default()
    };
    let detections = detect(&log, &clustering, &config);
    println!("flagged {} suspicious clients:", detections.len());
    for d in &detections {
        println!(
            "  {:15} {:?}: {} reqs, {:.1}% of cluster, corr {:.2}, burst {:.2}, {} URLs, {} UAs",
            d.addr.to_string(),
            d.class,
            d.requests,
            d.cluster_share * 100.0,
            d.arrival_correlation,
            d.burst_share,
            d.unique_urls,
            d.unique_uas
        );
    }
    println!(
        "planted: spider {:?}, proxy {:?}",
        log.truth.spiders, log.truth.proxies
    );

    // Show the tell-tale arrival shapes (compressed sparkline).
    let spark = |hist: &[u64]| -> String {
        let max = hist.iter().copied().max().unwrap_or(1).max(1);
        hist.iter()
            .map(|&v| {
                let levels = [' ', '.', ':', '|', '#'];
                levels[(v * 4 / max) as usize]
            })
            .collect()
    };
    let whole = hourly_histogram(&log, |_| true);
    println!("\nwhole log : {}", spark(&whole));
    for d in &detections {
        let client = u32::from(d.addr);
        let hist = hourly_histogram(&log, |r| r.client == client);
        println!("{:10}: {}", format!("{:?}", d.class), spark(&hist));
    }

    // Strip spiders before capacity planning: rankings change.
    let spiders: Vec<_> = detections
        .iter()
        .filter(|d| d.class == ClientClass::Spider)
        .map(|d| d.addr)
        .collect();
    let before = threshold_busy(&clustering.clusters, 0.7);
    let cleaned = strip_clients(&log, &spiders);
    let after = threshold_busy(
        &Clustering::by(cleaned.hits(), Assigner::NetworkAware(&merged.compile())).clusters,
        0.7,
    );
    println!(
        "\nbusy clusters before stripping spiders: {} (threshold {}), after: {} (threshold {})",
        before.busy.len(),
        before.threshold,
        after.busy.len(),
        after.threshold
    );
    println!(
        "clients in the same cluster as a spider would not benefit from a shared proxy (§4.1.1)"
    );
}
