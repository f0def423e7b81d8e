//! Figure 4: Nagano cluster distributions in reverse order of number of
//! clients — (a) clients, (b) requests, (c) unique URLs per cluster.
//! Points at the same rank refer to the same cluster.
//!
//! Paper reference: larger clusters usually issue more requests and touch
//! more URLs, but a few relatively small clusters issue ~1 % of all
//! requests and touch ~20 % of all URLs — the spider/proxy signature.

use netclust_core::{Assigner, Clustering};
use netclust_experiments::{
    accessed_url_count, downsample, nagano_env, print_table, Distributions,
};

fn main() {
    let (_u, log, merged) = nagano_env();
    let clustering = Clustering::by(log.hits(), Assigner::NetworkAware(&merged.compile()));
    let d = Distributions::of(&clustering);

    let clients = Distributions::series_in(&d.clients, &d.by_clients);
    let requests = Distributions::series_in(&d.requests, &d.by_clients);
    let urls = Distributions::series_in(&d.urls, &d.by_clients);

    let rows: Vec<Vec<String>> = downsample(&clients, 24)
        .into_iter()
        .map(|(rank, c)| {
            vec![
                (rank + 1).to_string(),
                c.to_string(),
                requests[rank].to_string(),
                urls[rank].to_string(),
            ]
        })
        .collect();
    print_table(
        "Figure 4: clusters in reverse order of #clients (downsampled ranks)",
        &["rank", "(a) clients", "(b) requests", "(c) unique URLs"],
        &rows,
    );

    // Paper's observation: some small clusters issue a disproportionate
    // share of requests / URLs.
    let total_requests: u64 = d.requests.iter().sum();
    let total_urls = accessed_url_count(&log) as f64;
    let small_heavy = d
        .by_clients
        .iter()
        .rev()
        .take(d.by_clients.len() / 2) // the smaller half
        .map(|&i| (d.clients[i], d.requests[i], d.urls[i]))
        .max_by_key(|&(_, r, _)| r);
    if let Some((c, r, u)) = small_heavy {
        println!(
            "\nheaviest small cluster: {c} clients, {r} requests ({:.2}% of all), {u} URLs ({:.1}% of accessed)",
            100.0 * r as f64 / total_requests as f64,
            100.0 * u as f64 / total_urls,
        );
    }
    println!("paper: small clusters can reach ~1% of requests and ~20% of URLs");
}
