//! Ablation: statistical vantage sampling vs structural BGP propagation.
//!
//! The paper consumes real BGP snapshots; our default substitute samples
//! route visibility per site statistically. This ablation swaps in the
//! `netclust-bgpsim` alternative — a three-tier Gao-Rexford AS topology
//! with valley-free per-prefix propagation and day-scale link failures —
//! and verifies the downstream results (coverage, validation pass rates,
//! union-over-single-table benefit) are insensitive to which substitution
//! is used, i.e. the reproduction does not hinge on the statistical model.

use netclust_bgpsim::{PropagationModel, Topology};
use netclust_core::{Assigner, Clustering};
use netclust_experiments::{nagano_env, pct, print_table, validate, SamplePlan};
use netclust_netgen::registry_dump;
use netclust_rtable::MergedTable;

fn main() {
    let (universe, log, statistical_merged) = nagano_env();

    // Build propagated tables: 12 vantage ASes spread across tiers, feed
    // quality mirroring Table 1's size spread.
    let topology = Topology::generate(&universe, 0xB6);
    let model = PropagationModel::new(&universe, topology, 0xB6);
    let topo = model.topology();
    let mut by_tier: Vec<Vec<u32>> = vec![Vec::new(); 4];
    #[allow(clippy::cast_possible_truncation, reason = "AS ids are u32 by design.")]
    for a in 0..topo.len() as u32 {
        by_tier[topo.tier[a as usize] as usize].push(a);
    }
    let feeds = [
        ("AADS", 1, 0.23),
        ("AT&T-BGP", 1, 0.97),
        ("AT&T-Forw", 1, 0.87),
        ("CANET", 3, 0.023),
        ("CERFNET", 2, 0.67),
        ("MAE-EAST", 2, 0.62),
        ("MAE-WEST", 2, 0.41),
        ("OREGON", 1, 0.94),
        ("PACBELL", 2, 0.34),
        ("PAIX", 3, 0.14),
        ("SINGAREN", 2, 0.91),
        ("VBNS", 3, 0.025),
    ];
    let vantages: Vec<(String, u32, f64)> = feeds
        .iter()
        .enumerate()
        .map(|(i, &(name, tier, vis))| {
            let pool = &by_tier[tier];
            (name.to_string(), pool[i % pool.len()], vis)
        })
        .collect();
    let mut tables = model.vantage_tables(&vantages, 0, 0);
    tables.push(registry_dump(&universe, "ARIN", 0.97));
    tables.push(registry_dump(&universe, "NLANR", 0.62));
    let propagated_merged = MergedTable::merge(tables.iter());

    let rows: Vec<Vec<String>> = tables
        .iter()
        .map(|t| vec![t.name.clone(), t.len().to_string()])
        .collect();
    print_table("Propagated vantage tables", &["vantage", "entries"], &rows);
    println!(
        "union: {} BGP + {} registry prefixes",
        propagated_merged.bgp_len(),
        propagated_merged.dump_len()
    );

    // Downstream comparison.
    let mut rows = Vec::new();
    for (label, merged) in [
        ("statistical", &statistical_merged),
        ("propagated", &propagated_merged),
    ] {
        let clustering = Clustering::by(log.hits(), Assigner::NetworkAware(&merged.compile()));
        let report = validate(&universe, &clustering, &SamplePlan::default());
        rows.push(vec![
            label.to_string(),
            clustering.len().to_string(),
            pct(clustering.coverage()),
            pct(report.nslookup_pass_rate()),
            pct(report.traceroute_pass_rate()),
            pct(report.truth_pass_rate()),
        ]);
    }
    print_table(
        "Clustering under the two BGP substitutions (nagano)",
        &[
            "table model",
            "clusters",
            "coverage",
            "nslookup pass",
            "traceroute pass",
            "truth pass",
        ],
        &rows,
    );
    println!("\nexpected: both models give ~99.9% coverage and >90% validation pass —");
    println!("the reproduction's conclusions do not depend on the visibility model");
}
