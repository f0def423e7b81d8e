//! End-to-end integration test of the full paper pipeline:
//! universe → routing tables → server log → clustering → validation →
//! self-correction → anomaly elimination → thresholding → cache simulation.

use netclust::core::{threshold_busy, Assigner, Clustering};
use netclust::netgen::{
    generate, standard_merged, LogSpec, ProxySpec, SpiderSpec, Universe, UniverseConfig,
};
use netclust_cachesim::{simulate, sweep_cache_sizes, SimConfig};
use netclust_experiments::{
    detect, org_purity, self_correct, strip_clients, validate, AnomalyConfig, CorrectionConfig,
    SamplePlan,
};

fn universe() -> Universe {
    Universe::generate(UniverseConfig {
        seed: 0xE2E,
        num_ases: 120,
        ..UniverseConfig::default()
    })
}

#[test]
fn full_pipeline_reproduces_paper_shapes() {
    let universe = universe();
    let merged = standard_merged(&universe, 0);

    // A log with one spider and one proxy planted.
    let mut spec = LogSpec::tiny("e2e", 99);
    spec.total_requests = 80_000;
    spec.target_clients = 1_200;
    spec.spiders = vec![SpiderSpec {
        requests: 15_000,
        unique_urls: 300,
        companions: 8,
    }];
    spec.proxies = vec![ProxySpec {
        requests: 10_000,
        companions: 1,
    }];
    let log = generate(&universe, &spec);
    log.check().expect("generated log is well-formed");

    // §3.2: clustering coverage ~99.9%.
    let clustering = Clustering::by(log.hits(), Assigner::NetworkAware(&merged.compile()));
    assert!(
        clustering.coverage() > 0.99,
        "coverage {}",
        clustering.coverage()
    );
    assert!(
        clustering.len() < clustering.client_count(),
        "clusters < clients"
    );

    // §2 vs §3: the simple approach fragments orgs.
    let simple = Clustering::by(log.hits(), Assigner::Simple24);
    assert!(
        simple.len() > clustering.len(),
        "{} vs {}",
        simple.len(),
        clustering.len()
    );

    // §3.3: validation passes for most clusters, traceroute reaches all.
    let report = validate(
        &universe,
        &clustering,
        &SamplePlan {
            fraction: 0.3,
            ..Default::default()
        },
    );
    assert!(
        report.nslookup_pass_rate() > 0.85,
        "{}",
        report.nslookup_pass_rate()
    );
    assert!(
        report.traceroute_pass_rate() > 0.85,
        "{}",
        report.traceroute_pass_rate()
    );
    assert_eq!(report.traceroute.reachable_clients, report.sampled_clients);
    // The /24 rule passes at most ~60% (Fig 1: only half the prefixes are /24).
    assert!(
        report.simple_pass_rate() < 0.75,
        "{}",
        report.simple_pass_rate()
    );

    // §3.5: self-correction keeps every client and improves purity.
    let correction = self_correct(&universe, &log, &clustering, &CorrectionConfig::default());
    assert_eq!(
        correction.clustering.client_count(),
        clustering.client_count()
    );
    assert!(correction.clustering.unclustered().is_empty());
    assert!(org_purity(&universe, &correction.clustering) >= org_purity(&universe, &clustering));

    // §4.1.2: the planted anomalies are found...
    let detections = detect(
        &log,
        &clustering,
        &AnomalyConfig {
            min_requests: 4_000,
            ..Default::default()
        },
    );
    let found: Vec<_> = detections.iter().map(|d| d.addr).collect();
    assert!(
        found.contains(&log.truth.spiders[0]),
        "spider missed: {detections:?}"
    );
    assert!(
        found.contains(&log.truth.proxies[0]),
        "proxy missed: {detections:?}"
    );

    // ...and stripped before thresholding (§4.1.3).
    let cleaned = strip_clients(&log, &found);
    let cleaned_clustering =
        Clustering::by(cleaned.hits(), Assigner::NetworkAware(&merged.compile()));
    let thresh = threshold_busy(&cleaned_clustering.clusters, 0.7);
    assert!(!thresh.busy.is_empty());
    assert!(thresh.busy.len() < cleaned_clustering.len());
    let busy_requests: u64 = thresh.busy_requests;
    let total: u64 = cleaned_clustering.clusters.iter().map(|c| c.requests).sum();
    assert!(busy_requests as f64 >= total as f64 * 0.7);
    // Busy clusters are maximal: dropping the smallest would fall below 70%.
    assert!(busy_requests - thresh.threshold < (total as f64 * 0.7).ceil() as u64);

    // §4.1.5: caching — aware beats simple at equal (large) capacity.
    let cfg = SimConfig::paper(u64::MAX);
    let aware_result = simulate(&cleaned, &cleaned_clustering, &cfg);
    let simple_result = simulate(
        &cleaned,
        &Clustering::by(cleaned.hits(), Assigner::Simple24),
        &cfg,
    );
    assert!(
        aware_result.server_hit_ratio() >= simple_result.server_hit_ratio(),
        "aware {} vs simple {}",
        aware_result.server_hit_ratio(),
        simple_result.server_hit_ratio()
    );
    // Hit ratio grows with cache size.
    let sweep = sweep_cache_sizes(
        &cleaned,
        &cleaned_clustering,
        &[64 << 10, 1 << 20, 64 << 20],
        &SimConfig::paper(0),
    );
    assert!(sweep[0].1 <= sweep[1].1 + 1e-9);
    assert!(sweep[1].1 <= sweep[2].1 + 1e-9);
}

#[test]
fn unclustered_clients_exist_and_self_correction_absorbs_them() {
    // A universe with a high unregistered fraction guarantees some
    // unclusterable clients (the paper's ~0.1%).
    let universe = Universe::generate(UniverseConfig {
        seed: 0xABC,
        num_ases: 120,
        unregistered_fraction: 0.03,
        ..UniverseConfig::default()
    });
    let merged = standard_merged(&universe, 0);
    let mut spec = LogSpec::tiny("uncl", 5);
    spec.target_clients = 1_500;
    spec.total_requests = 30_000;
    let log = generate(&universe, &spec);
    let clustering = Clustering::by(log.hits(), Assigner::NetworkAware(&merged.compile()));
    assert!(
        !clustering.unclustered().is_empty(),
        "expected some unclusterable clients with 3% unregistered orgs"
    );
    assert!(clustering.coverage() > 0.9);
    let correction = self_correct(&universe, &log, &clustering, &CorrectionConfig::default());
    assert!(correction.clustering.unclustered().is_empty());
    assert_eq!(
        correction.absorbed + correction.new_from_unclustered,
        clustering.unclustered().len()
    );
}
