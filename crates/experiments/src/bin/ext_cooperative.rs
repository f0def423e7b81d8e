//! Extension: cooperative proxy clusters (§4.1.4's second placement
//! approach). Proxies grouped by shared upstream (the second-level
//! network clusters of §3.6) serve each other's misses; we quantify the
//! extra traffic kept off the origin versus standalone proxies.

use netclust_cachesim::{simulate_cooperative, ResourceModel, SimConfig};
use netclust_core::{Assigner, Clustering};
use netclust_experiments::{nagano_env, network_clusters, pct, print_table};

fn main() {
    let (universe, log, merged) = nagano_env();
    let clustering = Clustering::by(log.hits(), Assigner::NetworkAware(&merged.compile()));

    // Proxy clusters = second-level network clusters (per upstream/AS).
    let nets = network_clusters(&universe, &clustering, 2, 2, 0xC00F);
    let groups: Vec<Vec<usize>> = nets.iter().map(|n| n.members.clone()).collect();
    println!(
        "{} proxies grouped into {} proxy clusters ({} with >1 member)",
        clustering.len(),
        groups.len(),
        groups.iter().filter(|g| g.len() > 1).count()
    );

    let mut rows = Vec::new();
    for cache_mb in [1u64, 4, 16] {
        let cfg = SimConfig {
            cache_bytes: cache_mb << 20,
            ttl_s: 3_600,
            model: ResourceModel::default_web(0xFEED),
            min_url_accesses: 10,
        };
        let solo = simulate_cooperative(&log, &clustering, &[], &cfg);
        let coop = simulate_cooperative(&log, &clustering, &groups, &cfg);
        rows.push(vec![
            format!("{cache_mb}MB"),
            pct(solo.total_hit_ratio()),
            pct(coop.local_hit_ratio()),
            pct(coop.sibling_hits as f64 / coop.requests.max(1) as f64),
            pct(coop.total_hit_ratio()),
            format!(
                "{:.1}%",
                100.0 * (1.0 - coop.origin_fetches as f64 / solo.origin_fetches.max(1) as f64)
            ),
        ]);
    }
    print_table(
        "Extension: cooperative proxy clusters (nagano)",
        &[
            "cache",
            "standalone hit",
            "coop local hit",
            "coop sibling hit",
            "coop total hit",
            "origin traffic cut",
        ],
        &rows,
    );
    println!("\ncooperation helps most at small caches (siblings extend effective capacity)");
    println!("and for shared-upstream groups with overlapping interests");
}
