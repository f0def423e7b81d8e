//! Reproducibility: every layer of the system is a pure function of its
//! seeds. Two independent reconstructions of the whole world must agree
//! bit-for-bit on everything the experiments report.

use netclust::core::{Assigner, Clustering};
use netclust::netgen::{
    generate, snapshot, standard_merged, LogSpec, Universe, UniverseConfig, VantageSpec,
};
use netclust_experiments::{validate, SamplePlan};

fn build() -> (Universe, netclust::netgen::Log) {
    let universe = Universe::generate(UniverseConfig {
        seed: 7777,
        num_ases: 80,
        ..UniverseConfig::default()
    });
    let mut spec = LogSpec::tiny("det", 3);
    spec.total_requests = 20_000;
    spec.target_clients = 600;
    let log = generate(&universe, &spec);
    (universe, log)
}

#[test]
fn world_and_log_are_bit_reproducible() {
    let (u1, log1) = build();
    let (u2, log2) = build();
    assert_eq!(u1.orgs().len(), u2.orgs().len());
    for (a, b) in u1.orgs().iter().zip(u2.orgs()) {
        assert_eq!(a.network, b.network);
        assert_eq!(a.domain, b.domain);
        assert_eq!(a.active_hosts, b.active_hosts);
    }
    assert_eq!(log1.requests, log2.requests);
    assert_eq!(log1.truth, log2.truth);
}

#[test]
fn snapshots_are_order_independent() {
    let (u, _) = build();
    let spec = VantageSpec::new("OREGON", 0.94, 0.03);
    // Query day 7 before day 3 — results must match the in-order query.
    let d7_first = snapshot(&u, &spec, 7, 0);
    let _d3 = snapshot(&u, &spec, 3, 0);
    let d7_again = snapshot(&u, &spec, 7, 0);
    assert_eq!(d7_first.prefixes(), d7_again.prefixes());
}

#[test]
fn clustering_and_validation_are_reproducible() {
    let (u, log) = build();
    let merged1 = standard_merged(&u, 0);
    let merged2 = standard_merged(&u, 0);
    let c1 = Clustering::by(log.hits(), Assigner::NetworkAware(&merged1.compile()));
    let c2 = Clustering::by(log.hits(), Assigner::NetworkAware(&merged2.compile()));
    assert_eq!(c1.len(), c2.len());
    for (a, b) in c1.clusters.iter().zip(&c2.clusters) {
        assert_eq!(a.prefix, b.prefix);
        assert_eq!(c1.members(a), c2.members(b));
        assert_eq!(a.requests, b.requests);
        assert_eq!(a.unique_urls, b.unique_urls);
    }
    let plan = SamplePlan::default();
    let r1 = validate(&u, &c1, &plan);
    let r2 = validate(&u, &c2, &plan);
    assert_eq!(r1.nslookup.misidentified, r2.nslookup.misidentified);
    assert_eq!(r1.traceroute.misidentified, r2.traceroute.misidentified);
    assert_eq!(r1.sampled_clients, r2.sampled_clients);
}

#[test]
fn different_seeds_differ() {
    let u1 = Universe::generate(UniverseConfig {
        seed: 1,
        num_ases: 60,
        ..UniverseConfig::default()
    });
    let u2 = Universe::generate(UniverseConfig {
        seed: 2,
        num_ases: 60,
        ..UniverseConfig::default()
    });
    let nets1: Vec<_> = u1.orgs().iter().map(|o| o.network).take(50).collect();
    let nets2: Vec<_> = u2.orgs().iter().map(|o| o.network).take(50).collect();
    assert_ne!(nets1, nets2);
}
