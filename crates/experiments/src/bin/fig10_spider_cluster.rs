//! Figure 10: the per-client request distribution inside the Sun log's
//! spider cluster — and the spider/proxy detector's verdicts.
//!
//! Paper reference (full scale): the spider issues 692,453 requests —
//! 99.79 % of its 27-host cluster — and covers 4,426 of 116,274 URLs. The
//! Sun proxy cluster has two clients issuing 2,699 and 323,867 requests.

use netclust_core::{Assigner, ClientClass, Clustering};
use netclust_experiments::{
    cluster_request_distribution, detect, paper_universe, pct, print_table, scaled, AnomalyConfig,
};
use netclust_netgen::{generate, standard_merged, LogSpec};

fn main() {
    let universe = paper_universe();
    let merged = standard_merged(&universe, 0);
    let log = generate(&universe, &scaled(LogSpec::sun(1)));
    let clustering = Clustering::by(log.hits(), Assigner::NetworkAware(&merged.compile()));

    let spider = log.truth.spiders[0];
    let dist = cluster_request_distribution(&clustering, spider);
    let total: u64 = dist.iter().sum();
    let rows: Vec<Vec<String>> = dist
        .iter()
        .enumerate()
        .take(27)
        .map(|(rank, &r)| {
            vec![
                (rank + 1).to_string(),
                r.to_string(),
                pct(r as f64 / total as f64),
            ]
        })
        .collect();
    print_table(
        "Figure 10: request distribution inside the spider cluster (sun)",
        &["client rank", "requests", "share"],
        &rows,
    );
    println!(
        "cluster: {} clients, {} requests; top client's share {} (paper: 99.79%)",
        dist.len(),
        total,
        pct(dist[0] as f64 / total as f64)
    );

    // Detector verdicts against ground truth.
    #[allow(
        clippy::cast_possible_truncation,
        reason = "a scaled count; a float-to-int `as` saturates."
    )]
    let min_requests = (20_000.0 * netclust_experiments::scale()) as u64;
    let config = AnomalyConfig {
        min_requests: min_requests.max(500),
        ..Default::default()
    };
    let detections = detect(&log, &clustering, &config);
    let rows: Vec<Vec<String>> = detections
        .iter()
        .map(|d| {
            vec![
                d.addr.to_string(),
                format!("{:?}", d.class),
                d.requests.to_string(),
                pct(d.cluster_share),
                format!("{:.3}", d.arrival_correlation),
                pct(d.burst_share),
                d.unique_urls.to_string(),
                d.unique_uas.to_string(),
            ]
        })
        .collect();
    print_table(
        "Detector verdicts (sun)",
        &[
            "client",
            "class",
            "requests",
            "cluster share",
            "corr",
            "burst",
            "URLs",
            "UAs",
        ],
        &rows,
    );
    let found_spider = detections
        .iter()
        .any(|d| d.class == ClientClass::Spider && d.addr == spider);
    let found_proxy = detections
        .iter()
        .any(|d| d.class == ClientClass::SuspectedProxy && d.addr == log.truth.proxies[0]);
    println!(
        "ground truth: spider {spider} {}, proxy {} {}",
        if found_spider { "DETECTED" } else { "MISSED" },
        log.truth.proxies[0],
        if found_proxy { "DETECTED" } else { "MISSED" }
    );
    println!("paper: spiders found via burstiness + dominance; proxies via UA diversity + diurnal mimicry");
}
