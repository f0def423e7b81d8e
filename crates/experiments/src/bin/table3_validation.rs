//! Table 3: client-cluster validation of the Apache, Nagano and Sun logs
//! via DNS nslookup and optimized traceroute over 1 % cluster samples.
//!
//! Paper reference (full scale): Nagano samples 111 clusters / 307
//! clients; nslookup resolves ~50 % of clients and fails 5 clusters
//! (95.4 % pass); traceroute resolves everyone and fails 12; only 57 of
//! 111 sampled clusters are /24s, so the simple approach passes just
//! 48.6 %. The optimized traceroute saves ~90 % of probes and ~80 % of
//! waiting time versus the classic tool.

use netclust_core::{Assigner, Clustering};
use netclust_experiments::{
    paper_universe, pct, print_table, scaled, validate, SamplePlan, ValidationReport,
};
use netclust_netgen::{generate, standard_merged, LogSpec};
use netclust_probe::{TraceOutcome, Traceroute};

fn main() {
    let universe = paper_universe();
    let merged = standard_merged(&universe, 0);
    // The paper samples 1% of full-scale cluster populations (111 clusters
    // for Nagano). At NETCLUST_SCALE < 1 we match the paper's sample *size*
    // rather than its fraction, so the mis-identification estimate carries
    // comparable statistical weight.
    let plan = SamplePlan {
        fraction: 0.01 / netclust_experiments::scale().min(1.0),
        min_clusters: 100,
        ..SamplePlan::default()
    };

    let mut reports: Vec<(String, ValidationReport)> = Vec::new();
    for spec in [LogSpec::apache(1), LogSpec::nagano(1), LogSpec::sun(1)] {
        let log = generate(&universe, &scaled(spec));
        let clustering = Clustering::by(log.hits(), Assigner::NetworkAware(&merged.compile()));
        let report = validate(&universe, &clustering, &plan);
        reports.push((log.name.clone(), report));
    }

    let row = |label: &str, f: &dyn Fn(&ValidationReport) -> String| -> Vec<String> {
        let mut r = vec![label.to_string()];
        r.extend(reports.iter().map(|(_, rep)| f(rep)));
        r
    };
    let headers: Vec<&str> = std::iter::once("server log")
        .chain(reports.iter().map(|(n, _)| n.as_str()))
        .collect();
    let rows = vec![
        row("total client clusters", &|r| r.total_clusters.to_string()),
        row("sampled client clusters", &|r| {
            r.sampled_clusters.to_string()
        }),
        row("sampled clients", &|r| r.sampled_clients.to_string()),
        row("prefix length range", &|r| {
            format!("{} - {}", r.prefix_len_range.0, r.prefix_len_range.1)
        }),
        row("clusters of prefix length 24", &|r| {
            r.len24_clusters.to_string()
        }),
        row("[nslookup] reachable clients", &|r| {
            r.nslookup.reachable_clients.to_string()
        }),
        row("[nslookup] mis-identified clusters", &|r| {
            r.nslookup.misidentified.to_string()
        }),
        row("[nslookup] mis-identified non-US", &|r| {
            r.nslookup.misidentified_non_us.to_string()
        }),
        row("[nslookup] pass rate", &|r| pct(r.nslookup_pass_rate())),
        row("[traceroute] reachable clients", &|r| {
            r.traceroute.reachable_clients.to_string()
        }),
        row("[traceroute] mis-identified clusters", &|r| {
            r.traceroute.misidentified.to_string()
        }),
        row("[traceroute] mis-identified non-US", &|r| {
            r.traceroute.misidentified_non_us.to_string()
        }),
        row("[traceroute] pass rate", &|r| pct(r.traceroute_pass_rate())),
        row("[ground truth] mis-identified", &|r| {
            r.truth_misidentified.to_string()
        }),
        row("simple approach pass rate (/24 rule)", &|r| {
            pct(r.simple_pass_rate())
        }),
    ];
    print_table("Table 3: client cluster validation", &headers, &rows);
    println!("\npaper: network-aware passes >90% (both tests); simple approach ~50%; nslookup resolves ~50% of clients");

    // Optimized vs classic traceroute cost (§3.3's savings claims),
    // measured over the Nagano sample's clients.
    let log = generate(&universe, &scaled(LogSpec::nagano(1)));
    let clustering = Clustering::by(log.hits(), Assigner::NetworkAware(&merged.compile()));
    let clients: Vec<std::net::Ipv4Addr> = clustering
        .clusters
        .iter()
        .step_by(100.max(clustering.len() / 300))
        .flat_map(|c| clustering.members(c).iter().take(3).map(|cl| cl.addr))
        .collect();
    let mut classic = Traceroute::classic(&universe);
    let mut optimized = Traceroute::optimized(&universe);
    let mut reached = 0usize;
    for &addr in &clients {
        classic.trace(addr);
        if matches!(optimized.trace(addr), TraceOutcome::Reached { .. }) {
            reached += 1;
        }
    }
    let (c, o) = (classic.stats(), optimized.stats());
    println!(
        "\n== Optimized traceroute savings ({} targets) ==",
        clients.len()
    );
    println!(
        "classic  : {} probes, {:.1} s waiting",
        c.probes,
        c.time_ms / 1000.0
    );
    println!(
        "optimized: {} probes, {:.1} s waiting",
        o.probes,
        o.time_ms / 1000.0
    );
    println!(
        "savings  : {} of probes, {} of time (paper: ~90% probes, ~80% time)",
        pct(1.0 - o.probes as f64 / c.probes as f64),
        pct(1.0 - o.time_ms / c.time_ms),
    );
    println!(
        "destination reachable in one probe: {} (paper: ~50%)",
        pct(reached as f64 / clients.len() as f64)
    );
}
