//! Figure 9: request-arrival histograms in the Sun log — (a) the whole
//! log, (b) a cluster containing a proxy, (c) a cluster containing a
//! spider.
//!
//! Paper reference: the proxy's spikes line up with the log's daily
//! spikes; the spider shows a burst with no resemblance to the diurnal
//! pattern.

use netclust_core::{Assigner, Clustering};
use netclust_experiments::{
    cluster_of, correlation, hourly_histogram, paper_universe, print_table, scaled,
};
use netclust_netgen::{generate, standard_merged, LogSpec};

#[allow(clippy::cast_possible_truncation, reason = "a bar of at most 24 columns.")]
fn bars(hist: &[u64], cols: usize) -> Vec<String> {
    // Compress the histogram to `cols` buckets of '#' bars.
    let chunk = hist.len().div_ceil(cols).max(1);
    let sums: Vec<u64> = hist.chunks(chunk).map(|c| c.iter().sum()).collect();
    let max = sums.iter().copied().max().unwrap_or(1).max(1);
    sums.iter()
        .map(|&s| "#".repeat((s * 24 / max) as usize))
        .collect()
}

fn main() {
    let universe = paper_universe();
    let merged = standard_merged(&universe, 0);
    let log = generate(&universe, &scaled(LogSpec::sun(1)));
    let clustering = Clustering::by(log.hits(), Assigner::NetworkAware(&merged.compile()));

    let whole = hourly_histogram(&log, |_| true);
    let proxy = u32::from(log.truth.proxies[0]);
    let spider = u32::from(log.truth.spiders[0]);
    let proxy_cluster = cluster_of(&clustering, log.truth.proxies[0]).expect("proxy clustered");
    let spider_cluster = cluster_of(&clustering, log.truth.spiders[0]).expect("spider clustered");
    let proxy_members: std::collections::HashSet<u32> = clustering
        .members(proxy_cluster)
        .iter()
        .map(|c| u32::from(c.addr))
        .collect();
    let spider_members: std::collections::HashSet<u32> = clustering
        .members(spider_cluster)
        .iter()
        .map(|c| u32::from(c.addr))
        .collect();
    let proxy_hist = hourly_histogram(&log, |r| proxy_members.contains(&r.client));
    let spider_hist = hourly_histogram(&log, |r| spider_members.contains(&r.client));

    let wb = bars(&whole, 28);
    let pb = bars(&proxy_hist, 28);
    let sb = bars(&spider_hist, 28);
    let rows: Vec<Vec<String>> = (0..wb.len())
        .map(|i| {
            vec![
                format!("t{}", i),
                wb[i].clone(),
                pb[i].clone(),
                sb[i].clone(),
            ]
        })
        .collect();
    print_table(
        "Figure 9: request histograms (sun) — whole log vs proxy cluster vs spider cluster",
        &[
            "bucket",
            "(a) entire log",
            "(b) proxy cluster",
            "(c) spider cluster",
        ],
        &rows,
    );

    println!(
        "\narrival correlation with whole log: proxy cluster {:.3}, spider cluster {:.3}",
        correlation(&proxy_hist, &whole),
        correlation(&spider_hist, &whole),
    );
    println!(
        "proxy client requests: {}, spider client requests: {}",
        log.requests.iter().filter(|r| r.client == proxy).count(),
        log.requests.iter().filter(|r| r.client == spider).count(),
    );
    println!("paper: proxy spikes match the daily spikes of the log; the spider's burst does not");
}
