//! Figure 7 (and the §3.3 comparison text): network-aware vs simple
//! cluster distributions on the Nagano log.
//!
//! Paper reference (full scale): network-aware yields 9,853 clusters vs
//! 23,523 for the simple approach; the largest network-aware cluster holds
//! 1,343 hosts (134,963 requests, 1.15 % of the log) vs 63 hosts (9,662
//! requests, 0.08 %) for simple; simple clusters cap at 256 clients by
//! construction and have smaller mean and variance.

use netclust_core::{Assigner, Clustering};
use netclust_experiments::{downsample, nagano_env, print_table, Distributions, Summary};

fn main() {
    let (_u, log, merged) = nagano_env();
    let aware = Clustering::by(log.hits(), Assigner::NetworkAware(&merged.compile()));
    let simple = Clustering::by(log.hits(), Assigner::Simple24);
    let classful = Clustering::by(log.hits(), Assigner::Classful);

    let mut rows = Vec::new();
    for clustering in [&aware, &simple, &classful] {
        let d = Distributions::of(clustering);
        let sizes = Summary::of(&d.clients).unwrap();
        let reqs = Summary::of(&d.requests).unwrap();
        let largest = clustering
            .clusters
            .iter()
            .max_by_key(|c| c.client_count())
            .unwrap();
        rows.push(vec![
            clustering.method.clone(),
            clustering.len().to_string(),
            format!("{:.2}", sizes.mean),
            format!("{:.1}", sizes.variance.sqrt()),
            largest.client_count().to_string(),
            largest.requests.to_string(),
            format!(
                "{:.2}%",
                100.0 * largest.requests as f64 / log.requests.len() as f64
            ),
            format!("{:.1}", reqs.mean),
        ]);
    }
    print_table(
        "Figure 7 summary: network-aware vs simple (vs classful) on nagano",
        &[
            "method",
            "clusters",
            "mean clients",
            "sd clients",
            "largest (clients)",
            "its requests",
            "req share",
            "mean requests",
        ],
        &rows,
    );

    // The rank series themselves (downsampled), network-aware (dotted in
    // the paper) vs simple (solid).
    let da = Distributions::of(&aware);
    let ds = Distributions::of(&simple);
    let a_clients = Distributions::series_in(&da.clients, &da.by_clients);
    let s_clients = Distributions::series_in(&ds.clients, &ds.by_clients);
    let a_reqs = Distributions::series_in(&da.requests, &da.by_requests);
    let s_reqs = Distributions::series_in(&ds.requests, &ds.by_requests);
    #[allow(
        clippy::cast_possible_truncation,
        reason = "a rank inside the series: frac < 1, and `min` caps it."
    )]
    let rows: Vec<Vec<String>> = downsample(&a_clients, 16)
        .into_iter()
        .map(|(rank, v)| {
            let frac = rank as f64 / a_clients.len().max(1) as f64;
            let s_rank = ((frac * s_clients.len() as f64) as usize).min(s_clients.len() - 1);
            vec![
                format!("{:.0}%", frac * 100.0),
                v.to_string(),
                s_clients[s_rank].to_string(),
                a_reqs[((frac * a_reqs.len() as f64) as usize).min(a_reqs.len() - 1)].to_string(),
                s_reqs[s_rank.min(s_reqs.len() - 1)].to_string(),
            ]
        })
        .collect();
    print_table(
        "Figure 7 series at matching rank percentiles",
        &[
            "rank pct",
            "(a) aware clients",
            "simple clients",
            "(c) aware requests",
            "simple requests",
        ],
        &rows,
    );
    println!("\npaper: simple produces ~2.4x more clusters, capped at 256 clients, with smaller means/variance");
}
