//! Figure 3: cumulative distributions over Nagano client clusters —
//! (a) number of clients per cluster, (b) number of requests per cluster.
//!
//! Paper reference: >95 % of clusters have <100 clients; ~90 % issue
//! <1,000 requests; the request distribution is more heavy-tailed than the
//! client distribution (suspected proxies/spiders live in that tail).

use netclust_core::{Assigner, Clustering};
use netclust_experiments::{cdf, cdf_at, nagano_env, pct, print_table, Distributions};

fn main() {
    let (_u, log, merged) = nagano_env();
    let clustering = Clustering::by(log.hits(), Assigner::NetworkAware(&merged.compile()));
    let d = Distributions::of(&clustering);

    for (title, series, marks) in [
        (
            "Figure 3(a): CDF of clients per cluster",
            &d.clients,
            vec![1u64, 2, 5, 10, 20, 50, 100, 500, 2000],
        ),
        (
            "Figure 3(b): CDF of requests per cluster",
            &d.requests,
            vec![1, 10, 100, 1_000, 10_000, 100_000],
        ),
    ] {
        let points = cdf(series);
        let rows: Vec<Vec<String>> = marks
            .iter()
            .map(|&x| vec![x.to_string(), pct(cdf_at(&points, x))])
            .collect();
        print_table(title, &["x", "fraction of clusters <= x"], &rows);
    }

    println!(
        "\nfraction of clusters with <100 clients: {} (paper: >95%)",
        pct(d.fraction_clusters_with_clients_below(100))
    );
    println!(
        "fraction of clusters with <1000 requests: {} (paper: ~90%)",
        pct(d.fraction_clusters_with_requests_below(1_000))
    );
    println!(
        "top-1% share: clients {} vs requests {} (paper: requests more heavy-tailed)",
        pct(Distributions::top_percent_share(&d.clients, 1.0)),
        pct(Distributions::top_percent_share(&d.requests, 1.0)),
    );
}
