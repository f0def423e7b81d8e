//! Cluster validation by sampling (§3.3, Table 3).
//!
//! The paper samples 1 % of identified clusters and applies two tests:
//!
//! * **nslookup**: resolve every sampled client; the cluster passes when
//!   all resolved names share a non-trivial suffix (last 3 components for
//!   names of ≥4 components, else last 2). Only ~50 % of clients resolve.
//! * **optimized traceroute**: resolve each client to a name or, failing
//!   that, to the last two router hops toward it; the cluster passes when
//!   names agree among named clients and path suffixes agree among
//!   path-only clients. Every client yields *something*, so coverage is
//!   100 %.
//!
//! Because the synthetic universe knows true administrative ownership, we
//! also score each sampled cluster against ground truth — the quantity the
//! live experiments could only approximate.

use std::collections::BTreeSet;
use std::net::Ipv4Addr;

use netclust_core::Clustering;
use netclust_netgen::{stream_rng, Universe};
use netclust_probe::{name_suffix, Nslookup, ProbeStats, TraceOutcome, Traceroute};
use rand::seq::SliceRandom;

/// How a sample is drawn.
#[derive(Debug, Clone, Copy)]
pub struct SamplePlan {
    /// Fraction of clusters to sample (the paper uses 0.01).
    pub fraction: f64,
    /// Lower bound on sampled clusters (for small logs/tests).
    pub min_clusters: usize,
    /// Cap on clients examined per cluster (the paper's sampled clusters
    /// average ~3–7 clients).
    pub max_clients_per_cluster: usize,
    /// Sampling seed.
    pub seed: u64,
}

impl Default for SamplePlan {
    fn default() -> Self {
        SamplePlan {
            fraction: 0.01,
            min_clusters: 10,
            max_clients_per_cluster: 25,
            seed: 0x5A,
        }
    }
}

/// Validation verdict counters for one test (one Table 3 section).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TestCounts {
    /// Clients that yielded usable information (a name, or for traceroute
    /// a name or path).
    pub reachable_clients: usize,
    /// Sampled clusters failing the suffix test.
    pub misidentified: usize,
    /// Of those, clusters whose members' names carry a two-letter country
    /// TLD (the paper's "non-US" rows — national gateways dominate them).
    pub misidentified_non_us: usize,
}

/// Full validation report (one Table 3 column).
#[derive(Debug, Clone)]
pub struct ValidationReport {
    /// Total clusters in the clustering.
    pub total_clusters: usize,
    /// Clusters sampled.
    pub sampled_clusters: usize,
    /// Clients examined.
    pub sampled_clients: usize,
    /// Min and max prefix length among sampled clusters.
    pub prefix_len_range: (u8, u8),
    /// Sampled clusters whose identifying prefix is exactly /24 — the
    /// criterion under which the *simple* approach can be correct (§3.3:
    /// "only 57 of the total 111 ... have prefix length of 24").
    pub len24_clusters: usize,
    /// nslookup-based test counters.
    pub nslookup: TestCounts,
    /// traceroute-based test counters.
    pub traceroute: TestCounts,
    /// Ground-truth counters (clusters mixing >1 org).
    pub truth_misidentified: usize,
    /// Probe accounting for the optimized traceroute run.
    pub probe_stats: ProbeStats,
}

impl ValidationReport {
    /// Pass rate of the nslookup test among sampled clusters.
    pub fn nslookup_pass_rate(&self) -> f64 {
        pass_rate(self.sampled_clusters, self.nslookup.misidentified)
    }

    /// Pass rate of the traceroute test among sampled clusters.
    pub fn traceroute_pass_rate(&self) -> f64 {
        pass_rate(self.sampled_clusters, self.traceroute.misidentified)
    }

    /// The simple approach's pass rate under the /24 criterion.
    pub fn simple_pass_rate(&self) -> f64 {
        if self.sampled_clusters == 0 {
            0.0
        } else {
            self.len24_clusters as f64 / self.sampled_clusters as f64
        }
    }

    /// Ground-truth pass rate.
    pub fn truth_pass_rate(&self) -> f64 {
        pass_rate(self.sampled_clusters, self.truth_misidentified)
    }
}

fn pass_rate(total: usize, failed: usize) -> f64 {
    if total == 0 {
        0.0
    } else {
        1.0 - failed as f64 / total as f64
    }
}

/// `true` when a name's TLD is a two-letter country code.
fn is_non_us(name: &str) -> bool {
    name.rsplit('.')
        .next()
        .map(|tld| tld.len() == 2)
        .unwrap_or(false)
}

/// Runs both validation tests over a sampled subset of `clustering`.
pub fn validate(
    universe: &Universe,
    clustering: &Clustering,
    plan: &SamplePlan,
) -> ValidationReport {
    let mut rng = stream_rng(plan.seed, &[0x7A11D]);
    let mut order: Vec<usize> = (0..clustering.clusters.len()).collect();
    order.shuffle(&mut rng);
    #[allow(clippy::cast_possible_truncation, reason = "capped at the cluster count below.")]
    let n_sample = ((clustering.clusters.len() as f64 * plan.fraction).round() as usize)
        .max(plan.min_clusters)
        .min(clustering.clusters.len());
    order.truncate(n_sample);

    let mut nslookup = Nslookup::new(universe);
    let mut tracer = Traceroute::optimized(universe);
    let mut report = ValidationReport {
        total_clusters: clustering.clusters.len(),
        sampled_clusters: n_sample,
        sampled_clients: 0,
        prefix_len_range: (32, 0),
        len24_clusters: 0,
        nslookup: TestCounts::default(),
        traceroute: TestCounts::default(),
        truth_misidentified: 0,
        probe_stats: ProbeStats::default(),
    };

    for &idx in &order {
        let cluster = &clustering.clusters[idx];
        let len = cluster.prefix.len();
        report.prefix_len_range.0 = report.prefix_len_range.0.min(len);
        report.prefix_len_range.1 = report.prefix_len_range.1.max(len);
        if len == 24 {
            report.len24_clusters += 1;
        }
        let clients: Vec<Ipv4Addr> = clustering
            .members(cluster)
            .iter()
            .take(plan.max_clients_per_cluster)
            .map(|c| c.addr)
            .collect();
        report.sampled_clients += clients.len();

        // --- nslookup test -------------------------------------------------
        let names: Vec<String> = clients
            .iter()
            .filter_map(|&a| nslookup.resolve(a))
            .collect();
        report.nslookup.reachable_clients += names.len();
        let ns_fail = !suffixes_agree(names.iter().map(String::as_str));
        if ns_fail {
            report.nslookup.misidentified += 1;
            if names.iter().any(|n| is_non_us(n)) {
                report.nslookup.misidentified_non_us += 1;
            }
        }

        // --- traceroute test ------------------------------------------------
        let mut tr_names: Vec<String> = Vec::new();
        let mut tr_paths: Vec<String> = Vec::new();
        let mut any_non_us = false;
        for &addr in &clients {
            let outcome = tracer.trace(addr);
            match &outcome {
                TraceOutcome::Reached {
                    name: Some(name), ..
                } => {
                    any_non_us |= is_non_us(name);
                    tr_names.push(name.clone());
                }
                TraceOutcome::Reached { name: None, .. } | TraceOutcome::PathOnly { .. } => {
                    tr_paths.push(outcome.path_suffix(2).join(">"));
                }
                TraceOutcome::Unroutable => {}
            }
        }
        report.traceroute.reachable_clients += tr_names.len() + tr_paths.len();
        let name_ok = suffixes_agree(tr_names.iter().map(String::as_str));
        let path_set: BTreeSet<&String> = tr_paths.iter().collect();
        let path_ok = path_set.len() <= 1;
        if !(name_ok && path_ok) {
            report.traceroute.misidentified += 1;
            if any_non_us {
                report.traceroute.misidentified_non_us += 1;
            }
        }

        // --- ground truth -----------------------------------------------------
        // A cluster is truly correct when all members share one
        // administrative entity (customers in delegated ISP space are
        // distinct entities even though the routed org is the ISP).
        let entities: BTreeSet<Option<u64>> =
            clients.iter().map(|&a| universe.admin_key(a)).collect();
        if entities.len() > 1 {
            report.truth_misidentified += 1;
        }
    }
    report.probe_stats = tracer.stats();
    report
}

/// `true` when all names share one non-trivial suffix (vacuously true for
/// zero or one name — a cluster is "labelled incorrect if there is even one
/// client that does not share the same suffix with others").
fn suffixes_agree<'a, I>(names: I) -> bool
where
    I: IntoIterator<Item = &'a str>,
{
    let mut iter = names.into_iter();
    let Some(first) = iter.next() else {
        return true;
    };
    let suffix = name_suffix(first);
    iter.all(|n| name_suffix(n) == suffix)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netclust_core::Assigner;
    use netclust_netgen::{generate, LogSpec, UniverseConfig};

    fn setup() -> (Universe, Clustering) {
        let u = Universe::generate(UniverseConfig::small(7));
        let spec = LogSpec::tiny("v", 21);
        let log = generate(&u, &spec);
        let merged = netclust_netgen::standard_merged(&u, 0);
        let clustering = Clustering::by(log.hits(), Assigner::NetworkAware(&merged.compile()));
        (u, clustering)
    }

    #[test]
    fn suffix_agreement_rules() {
        assert!(suffixes_agree(std::iter::empty()));
        assert!(suffixes_agree(["a.b.com"]));
        assert!(suffixes_agree(["a.b.com", "c.b.com"]));
        assert!(!suffixes_agree(["a.b.com", "a.c.com"]));
    }

    #[test]
    fn non_us_detection() {
        assert!(is_non_us("h1.cs.eastlake2.ac.za"));
        assert!(!is_non_us("host-1.acme7.com"));
        assert!(!is_non_us("client-3.fastlink2.net"));
    }

    #[test]
    fn validation_reports_consistent_counts() {
        let (u, clustering) = setup();
        let plan = SamplePlan {
            fraction: 0.5,
            min_clusters: 10,
            ..Default::default()
        };
        let report = validate(&u, &clustering, &plan);
        assert!(report.sampled_clusters >= 10);
        assert!(report.sampled_clusters <= report.total_clusters);
        assert!(report.sampled_clients >= report.sampled_clusters);
        // nslookup reaches roughly half the clients.
        let ratio = report.nslookup.reachable_clients as f64 / report.sampled_clients as f64;
        assert!((0.25..0.8).contains(&ratio), "nslookup ratio {ratio}");
        // traceroute reaches everyone.
        assert_eq!(report.traceroute.reachable_clients, report.sampled_clients);
        assert!(report.probe_stats.traces as usize == report.sampled_clients);
        // Mis-identification counts cannot exceed samples.
        assert!(report.nslookup.misidentified <= report.sampled_clusters);
        assert!(report.traceroute.misidentified <= report.sampled_clusters);
        assert!(report.nslookup.misidentified_non_us <= report.nslookup.misidentified);
    }

    #[test]
    fn network_aware_mostly_passes() {
        let (u, clustering) = setup();
        let plan = SamplePlan {
            fraction: 1.0,
            min_clusters: 10,
            ..Default::default()
        };
        let report = validate(&u, &clustering, &plan);
        // The paper's headline: >90 % pass. The small test universe is
        // noisier; insist on >80 %.
        assert!(
            report.nslookup_pass_rate() > 0.8,
            "{}",
            report.nslookup_pass_rate()
        );
        assert!(
            report.traceroute_pass_rate() > 0.8,
            "{}",
            report.traceroute_pass_rate()
        );
        assert!(
            report.truth_pass_rate() > 0.8,
            "{}",
            report.truth_pass_rate()
        );
    }

    #[test]
    fn sampling_is_deterministic() {
        let (u, clustering) = setup();
        let plan = SamplePlan::default();
        let a = validate(&u, &clustering, &plan);
        let b = validate(&u, &clustering, &plan);
        assert_eq!(a.sampled_clients, b.sampled_clients);
        assert_eq!(a.nslookup.misidentified, b.nslookup.misidentified);
        assert_eq!(a.traceroute.misidentified, b.traceroute.misidentified);
    }

    #[test]
    fn len24_counter_counts_24s() {
        let (u, clustering) = setup();
        let plan = SamplePlan {
            fraction: 1.0,
            min_clusters: 1,
            ..Default::default()
        };
        let report = validate(&u, &clustering, &plan);
        let expect = clustering
            .clusters
            .iter()
            .filter(|c| c.prefix.len() == 24)
            .count();
        assert_eq!(report.len24_clusters, expect);
        assert!(report.prefix_len_range.0 <= report.prefix_len_range.1);
        // Simple pass rate is the /24 fraction.
        let frac = expect as f64 / clustering.clusters.len() as f64;
        assert!((report.simple_pass_rate() - frac).abs() < 1e-12);
    }
}
