//! Figure 11: Web-server performance vs proxy cache size on the Nagano
//! log — (a) total hit ratio and (b) total byte-hit ratio observed at the
//! server, for the network-aware and simple clusterings.
//!
//! Paper reference: both ratios rise with cache size; the simple approach
//! under-estimates both by ≈10 % once per-proxy caches exceed ~700 KB;
//! network-aware hit ratios reach 60–75 % on the Nagano event log.

use netclust_cachesim::{fig11_sizes, sweep_cache_sizes, SimConfig};
use netclust_core::{Assigner, Clustering};
use netclust_experiments::{detect, nagano_env, pct, print_table, strip_clients, AnomalyConfig};

fn main() {
    let (_u, log, merged) = nagano_env();

    // Eliminate spiders/proxies, as the paper does before simulation.
    let pre = Clustering::by(log.hits(), Assigner::NetworkAware(&merged.compile()));
    let anomalous: Vec<std::net::Ipv4Addr> = detect(&log, &pre, &AnomalyConfig::default())
        .iter()
        .map(|d| d.addr)
        .collect();
    let log = strip_clients(&log, &anomalous);

    let aware = Clustering::by(log.hits(), Assigner::NetworkAware(&merged.compile()));
    let simple = Clustering::by(log.hits(), Assigner::Simple24);
    let config = SimConfig::paper(0);
    let sizes = fig11_sizes();

    let aware_pts = sweep_cache_sizes(&log, &aware, &sizes, &config);
    let simple_pts = sweep_cache_sizes(&log, &simple, &sizes, &config);

    let fmt_size = |b: u64| {
        if b >= 1 << 20 {
            format!("{}MB", b >> 20)
        } else {
            format!("{}KB", b >> 10)
        }
    };
    let rows: Vec<Vec<String>> = sizes
        .iter()
        .enumerate()
        .map(|(i, &b)| {
            vec![
                fmt_size(b),
                pct(aware_pts[i].1),
                pct(simple_pts[i].1),
                pct(aware_pts[i].2),
                pct(simple_pts[i].2),
                format!("{:+.1}pp", (aware_pts[i].1 - simple_pts[i].1) * 100.0),
            ]
        })
        .collect();
    print_table(
        "Figure 11: server hit/byte-hit ratio vs per-proxy cache size (nagano)",
        &[
            "cache",
            "(a) hit aware",
            "hit simple",
            "(b) byte-hit aware",
            "byte-hit simple",
            "aware-simple gap",
        ],
        &rows,
    );
    println!("\n(ttl = 1h, LRU, PCV; requests to URLs accessed <10 times ignored)");
    println!("paper: simple under-estimates both ratios by ~10% beyond ~700KB; aware reaches 60-75% hit ratio");
}
