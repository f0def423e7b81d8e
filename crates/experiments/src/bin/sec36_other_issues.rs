//! §3.6: the three side studies — time-partitioned sessions, server
//! clustering from a proxy log, and second-level (network) clustering.
//!
//! Paper reference: four 6-hour Nagano sessions show the same per-cluster
//! patterns; in an 11-day ISP proxy trace 69,192 server addresses cluster
//! with only ~0.2 % unclusterable and ~4 % of server clusters draw 70 % of
//! the 12.4 M requests; client clusters group further into network
//! clusters via traceroute path suffixes.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use netclust_core::{threshold_busy, Assigner, Cluster, Clustering};
use netclust_experiments::{nagano_env, network_clusters, pct, print_table, scale, session_report};
use netclust_netgen::{pareto_u64, stream_rng};
use netclust_prefix::Ipv4Net;
use netclust_rtable::MergedTable;
use rand::Rng;

/// Clusters a bare (address, requests, bytes) list — no log needed: the
/// server clustering of the destinations in a proxy log, each entry one
/// server (an address listed twice counts twice). Unique URL counts are
/// not available and stay 0. Returns the clusters, sorted by prefix, and
/// how many entries no prefix covers.
fn server_clusters(counts: &[(Ipv4Addr, u64, u64)], merged: &MergedTable) -> (Vec<Cluster>, usize) {
    let mut by_prefix: BTreeMap<Ipv4Net, Cluster> = BTreeMap::new();
    let mut unclustered = 0;
    for &(addr, requests, bytes) in counts {
        let Some((prefix, _)) = merged.lookup(addr) else {
            unclustered += 1;
            continue;
        };
        let cluster = by_prefix.entry(prefix).or_insert(Cluster {
            prefix,
            start: 0,
            clients: 0,
            requests: 0,
            bytes: 0,
            unique_urls: 0,
        });
        cluster.clients += 1;
        cluster.requests += requests;
        cluster.bytes += bytes;
    }
    (by_prefix.into_values().collect(), unclustered)
}

fn main() {
    let (universe, log, merged) = nagano_env();

    // --- Time partitioning ------------------------------------------------
    let report = session_report(&log, 4, |a| merged.lookup(a).map(|(n, _)| n));
    let rows: Vec<Vec<String>> = report
        .sessions
        .iter()
        .map(|s| {
            vec![
                s.name.clone(),
                s.requests.to_string(),
                s.clusters.to_string(),
                s.clients.to_string(),
            ]
        })
        .collect();
    print_table(
        "§3.6 four 6-hour sessions (nagano)",
        &["session", "requests", "clusters", "clients"],
        &rows,
    );
    println!(
        "consecutive-session request correlations: {:?} (paper: patterns persist across sessions)",
        report
            .consecutive_correlations
            .iter()
            .map(|c| format!("{c:.3}"))
            .collect::<Vec<_>>()
    );

    // --- Server clustering from a proxy log --------------------------------
    // Synthesize an ISP proxy trace: servers drawn from universe orgs with
    // heavy-tailed request counts.
    let mut rng = stream_rng(77, &[0x3E2]);
    #[allow(
        clippy::cast_possible_truncation,
        reason = "a scaled count; a float-to-int `as` saturates."
    )]
    let n_servers = (69_192.0 * scale()) as usize;
    let mut counts = Vec::with_capacity(n_servers);
    let orgs = universe.orgs();
    while counts.len() < n_servers {
        let org = &orgs[rng.gen_range(0..orgs.len())];
        let idx = rng.gen_range(0..org.active_hosts.max(1));
        if let Some(addr) = org.host_addr(idx) {
            let requests = pareto_u64(&mut rng, 1.1, 1, 200_000);
            counts.push((addr, requests, requests * 8_000));
        }
    }
    // A sliver of servers outside any registered allocation.
    let extra = (counts.len() / 500).max(1);
    for i in 0..extra {
        #[allow(
            clippy::cast_possible_truncation,
            reason = "i % 250 < 250, and the sliver is far too small for i / 250 to reach 256."
        )]
        let addr = Ipv4Addr::new(9, 9, (i / 250) as u8, (i % 250) as u8 + 1);
        counts.push((addr, 1, 8_000));
    }
    let (servers, unclustered) = server_clusters(&counts, &merged);
    println!("\n== §3.6 server clustering from a proxy log ==");
    println!("unique server addresses : {}", counts.len());
    println!("server clusters         : {}", servers.len());
    println!(
        "unclusterable            : {} ({}) (paper: ~0.2%)",
        unclustered,
        pct(unclustered as f64 / counts.len() as f64)
    );
    let busy = threshold_busy(&servers, 0.7);
    println!(
        "busy server clusters     : {} of {} ({}) draw 70% of requests (paper: ~4%)",
        busy.busy.len(),
        servers.len(),
        pct(busy.busy.len() as f64 / servers.len() as f64),
    );

    // --- Second-level clustering -------------------------------------------
    let clustering = Clustering::by(log.hits(), Assigner::NetworkAware(&merged.compile()));
    let nets = network_clusters(&universe, &clustering, 2, 2, 0xF00D);
    println!("\n== §3.6 second-level (network) clustering ==");
    println!("client clusters   : {}", clustering.len());
    println!("network clusters  : {}", nets.len());
    let multi = nets.iter().filter(|n| n.members.len() > 1).count();
    println!("multi-member groups: {multi}");
    let top: Vec<String> = nets
        .iter()
        .take(5)
        .map(|n| {
            format!(
                "{} members / {} reqs via {}",
                n.members.len(),
                n.requests,
                n.key
            )
        })
        .collect();
    println!("top groups by requests:");
    for line in top {
        println!("  {line}");
    }
    // Consistency check parameter sensitivity: r = 1 vs r = 3.
    let nets_r1 = network_clusters(&universe, &clustering, 1, 2, 0xF00D);
    println!(
        "group count with r=1: {} vs r=2: {} (sampling barely matters: {} stable)",
        nets_r1.len(),
        nets.len(),
        pct(1.0 - (nets_r1.len() as f64 - nets.len() as f64).abs() / nets.len().max(1) as f64)
    );
}
