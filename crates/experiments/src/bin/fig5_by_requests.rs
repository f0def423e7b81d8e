//! Figure 5: the same Nagano series as Figure 4, re-sorted in reverse
//! order of number of requests — (a) requests, (b) clients, (c) URLs.
//!
//! Paper reference: busy clusters usually hold many clients and touch many
//! URLs, but some busy clusters have very few clients (and may touch few
//! URLs) — again the spider/proxy signal.

use netclust_core::{Assigner, Clustering};
use netclust_experiments::{downsample, nagano_env, print_table, Distributions};

fn main() {
    let (_u, log, merged) = nagano_env();
    let clustering = Clustering::by(log.hits(), Assigner::NetworkAware(&merged.compile()));
    let d = Distributions::of(&clustering);

    let requests = Distributions::series_in(&d.requests, &d.by_requests);
    let clients = Distributions::series_in(&d.clients, &d.by_requests);
    let urls = Distributions::series_in(&d.urls, &d.by_requests);

    let rows: Vec<Vec<String>> = downsample(&requests, 24)
        .into_iter()
        .map(|(rank, r)| {
            vec![
                (rank + 1).to_string(),
                r.to_string(),
                clients[rank].to_string(),
                urls[rank].to_string(),
            ]
        })
        .collect();
    print_table(
        "Figure 5: clusters in reverse order of #requests (downsampled ranks)",
        &["rank", "(a) requests", "(b) clients", "(c) unique URLs"],
        &rows,
    );

    // Busy single-client clusters (the Nagano proxy cluster issued 77,311
    // requests from one client at full scale).
    let busy_small: Vec<(u64, u64)> = d
        .by_requests
        .iter()
        .take(20)
        .map(|&i| (d.requests[i], d.clients[i]))
        .filter(|&(_, c)| c <= 2)
        .collect();
    println!("\nbusy clusters with <=2 clients among the top 20: {busy_small:?}");
    println!("proxy ground truth: {:?}", log.truth.proxies);
    println!("paper: some busy clusters have very few clients — suspected proxies");
}
