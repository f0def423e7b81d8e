//! §3.5: self-correction and adaptation on the Nagano log.
//!
//! Unclustered clients (~0.1 %) are absorbed or become new clusters;
//! same-signature clusters merge (too-small repair); mixed clusters split
//! (too-large repair). Ground-truth org purity improves accordingly.

use netclust_core::{Assigner, Clustering};
use netclust_experiments::{nagano_env, org_purity, pct, self_correct, CorrectionConfig};

fn main() {
    let (universe, log, merged) = nagano_env();
    let clustering = Clustering::by(log.hits(), Assigner::NetworkAware(&merged.compile()));

    println!("== §3.5 self-correction (nagano) ==");
    println!(
        "before: {} clusters, {} unclustered clients, coverage {}",
        clustering.len(),
        clustering.unclustered().len(),
        pct(clustering.coverage())
    );
    println!(
        "before: org purity {}",
        pct(org_purity(&universe, &clustering))
    );

    for r in [1usize, 3, 8] {
        let report = self_correct(
            &universe,
            &log,
            &clustering,
            &CorrectionConfig {
                samples_per_cluster: r,
                seed: 0xC0,
                ..CorrectionConfig::default()
            },
        );
        println!("\n-- samples per cluster r = {r} --");
        println!("clusters after      : {}", report.clustering.len());
        println!(
            "coverage after      : {}",
            pct(report.clustering.coverage())
        );
        println!(
            "org purity after    : {}",
            pct(org_purity(&universe, &report.clustering))
        );
        println!("absorbed unclustered: {}", report.absorbed);
        println!("new singleton groups: {}", report.new_from_unclustered);
        println!("clusters merged away: {}", report.merged_away);
        println!("clusters split      : {}", report.split);
        println!(
            "probes spent        : {} ({} traces)",
            report.probe_stats.probes, report.probe_stats.traces
        );
    }
    println!(
        "\npaper: periodic traceroute sampling fixes unidentified clients and raises accuracy;"
    );
    println!("       larger r catches more mixed clusters at higher probe cost");
}
