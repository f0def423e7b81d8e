//! Table 5: thresholding busy client clusters on the Nagano log —
//! network-aware vs simple approach, after spider/proxy elimination.
//!
//! Paper reference (full scale): network-aware keeps 717 of 9,853 clusters
//! (32,691 clients, 8,167,590 requests, threshold 2,744 requests, busy
//! sizes 1–1,343 clients); simple keeps 3,242 of 23,523 (threshold 696,
//! busy sizes 4–63 clients).

use netclust_core::{threshold_busy, Assigner, Clustering};
use netclust_experiments::{detect, nagano_env, print_table, strip_clients, AnomalyConfig};

fn main() {
    let (_u, log, merged) = nagano_env();

    // Eliminate detected spiders/proxies first (§4.1.3 step order).
    let clustering0 = Clustering::by(log.hits(), Assigner::NetworkAware(&merged.compile()));
    let detections = detect(&log, &clustering0, &AnomalyConfig::default());
    let anomalous: Vec<std::net::Ipv4Addr> = detections.iter().map(|d| d.addr).collect();
    let log = strip_clients(&log, &anomalous);
    println!(
        "eliminated {} anomalous clients before thresholding",
        anomalous.len()
    );

    let aware = Clustering::by(log.hits(), Assigner::NetworkAware(&merged.compile()));
    let simple = Clustering::by(log.hits(), Assigner::Simple24);

    let mut rows = Vec::new();
    for clustering in [&aware, &simple] {
        let t = threshold_busy(&clustering.clusters, 0.7);
        rows.push(vec![
            clustering.method.clone(),
            t.total_clusters.to_string(),
            t.threshold.to_string(),
            format!(
                "{} ({} clients, {} reqs)",
                t.busy.len(),
                t.busy_clients,
                t.busy_requests
            ),
            format!(
                "{} - {} ({} - {} clients)",
                t.busy_request_range.0,
                t.busy_request_range.1,
                t.busy_client_range.0,
                t.busy_client_range.1
            ),
            format!(
                "{} - {} ({} - {} clients)",
                t.lessbusy_request_range.0,
                t.lessbusy_request_range.1,
                t.lessbusy_client_range.0,
                t.lessbusy_client_range.1
            ),
        ]);
    }
    print_table(
        "Table 5: thresholding client clusters (70% of requests) on nagano",
        &[
            "approach",
            "total clusters",
            "threshold (reqs)",
            "busy clusters",
            "busy range (reqs/clients)",
            "less-busy range",
        ],
        &rows,
    );
    let ta = threshold_busy(&aware.clusters, 0.7);
    let ts = threshold_busy(&simple.clusters, 0.7);
    println!(
        "\nbusy-cluster ratio simple/aware: {:.2} (paper: 3242/717 = 4.52)",
        ts.busy.len() as f64 / ta.busy.len().max(1) as f64
    );
    println!("paper: simple needs far more, far smaller busy clusters for the same 70% of traffic");
}
