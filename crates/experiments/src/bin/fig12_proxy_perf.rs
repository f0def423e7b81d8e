//! Figure 12: per-proxy cache performance of the top 100 Nagano client
//! clusters with infinite caches — (a) requests and (b) kilobytes per
//! cluster, (c) hit ratio and (d) byte-hit ratio at each proxy, all in
//! reverse order of requests, for both clustering approaches.
//!
//! Paper reference: the two approaches disagree sharply on per-proxy load
//! and hit ratios — the simple approach "fails to properly evaluate the
//! potential benefit of proxy caching".

use netclust_cachesim::{simulate, top_proxy_report, SimConfig};
use netclust_core::{Assigner, Clustering};
use netclust_experiments::{
    detect, downsample, nagano_env, pct, print_table, strip_clients, AnomalyConfig,
};

fn main() {
    let (_u, log, merged) = nagano_env();
    let pre = Clustering::by(log.hits(), Assigner::NetworkAware(&merged.compile()));
    let anomalous: Vec<std::net::Ipv4Addr> = detect(&log, &pre, &AnomalyConfig::default())
        .iter()
        .map(|d| d.addr)
        .collect();
    let log = strip_clients(&log, &anomalous);

    let aware = Clustering::by(log.hits(), Assigner::NetworkAware(&merged.compile()));
    let simple = Clustering::by(log.hits(), Assigner::Simple24);
    let config = SimConfig::paper(u64::MAX); // infinite caches

    for clustering in [&aware, &simple] {
        let result = simulate(&log, clustering, &config);
        let rows_all = top_proxy_report(clustering, &result, 100);
        let rows: Vec<Vec<String>> = downsample(&rows_all, 20)
            .into_iter()
            .map(|(rank, (_, requests, kb, hit, byte_hit))| {
                vec![
                    (rank + 1).to_string(),
                    requests.to_string(),
                    kb.to_string(),
                    pct(hit),
                    pct(byte_hit),
                ]
            })
            .collect();
        print_table(
            &format!(
                "Figure 12 [{}]: top-100 proxies, infinite cache (downsampled ranks)",
                clustering.method
            ),
            &[
                "rank",
                "(a) requests",
                "(b) KB",
                "(c) hit ratio",
                "(d) byte-hit ratio",
            ],
            &rows,
        );
        let top: Vec<_> = rows_all.iter().take(100).collect();
        let mean_hit = top.iter().map(|r| r.3).sum::<f64>() / top.len().max(1) as f64;
        let mean_req = top.iter().map(|r| r.1).sum::<u64>() / top.len().max(1) as u64;
        println!(
            "[{}] top-100 proxies: mean requests {}, mean hit ratio {}",
            clustering.method,
            mean_req,
            pct(mean_hit)
        );
    }
    println!("\npaper: per-proxy request volumes and hit ratios differ greatly between approaches");
}
