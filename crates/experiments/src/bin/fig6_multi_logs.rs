//! Figure 6: cross-log comparison of cluster distributions for the
//! Apache, EW3, Nagano and Sun logs — clients and requests per cluster, in
//! reverse order of clients ((a),(b)) and of requests ((c),(d)).
//!
//! Paper reference: every observation made on the Nagano log (heavy tails,
//! busy small clusters, suspected spiders/proxies) holds on all four logs.

use netclust_core::{Assigner, Clustering};
use netclust_experiments::{paper_universe, pct, print_table, scaled, Distributions};
use netclust_netgen::{generate, standard_merged, LogSpec};

fn main() {
    let universe = paper_universe();
    let merged = standard_merged(&universe, 0);

    let mut rows = Vec::new();
    for spec in LogSpec::paper_presets(1) {
        let log = generate(&universe, &scaled(spec));
        let clustering = Clustering::by(log.hits(), Assigner::NetworkAware(&merged.compile()));
        let d = Distributions::of(&clustering);
        let top = |order: &[usize], series: &[u64], k: usize| -> String {
            order
                .iter()
                .take(k)
                .map(|&i| series[i].to_string())
                .collect::<Vec<_>>()
                .join(",")
        };
        rows.push(vec![
            log.name.clone(),
            clustering.len().to_string(),
            clustering.client_count().to_string(),
            log.requests.len().to_string(),
            pct(clustering.coverage()),
            top(&d.by_clients, &d.clients, 3),
            top(&d.by_requests, &d.requests, 3),
            pct(Distributions::top_percent_share(&d.requests, 1.0)),
        ]);
    }
    print_table(
        "Figure 6: cluster distributions across four logs (summary series)",
        &[
            "log",
            "clusters",
            "clients",
            "requests",
            "coverage",
            "top3 by clients",
            "top3 by requests",
            "top-1% req share",
        ],
        &rows,
    );
    println!("\npaper: all four logs show the same shapes; spiders/proxies visible in (b)/(d)");
}
