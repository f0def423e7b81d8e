//! Interoperability through the Common Log Format: a synthetic log that is
//! serialized to CLF and re-parsed must produce the same clustering and
//! caching results — so the pipeline works identically on real logs.

use netclust::core::{Assigner, Clustering};
use netclust::netgen::{
    from_clf, generate, standard_merged, to_clf, Log, LogSpec, Universe, UniverseConfig,
};
use netclust_cachesim::{simulate, SimConfig};

#[test]
fn clf_roundtrip_preserves_analysis_results() {
    let universe = Universe::generate(UniverseConfig {
        seed: 31,
        num_ases: 80,
        ..UniverseConfig::default()
    });
    let merged = standard_merged(&universe, 0);
    let mut spec = LogSpec::tiny("interop", 17);
    spec.total_requests = 15_000;
    spec.target_clients = 500;
    let original = generate(&universe, &spec);

    let text = to_clf(&original);
    let (parsed, errors) = from_clf("interop", text.as_bytes());
    assert!(errors.is_empty(), "{errors:?}");
    parsed.check().expect("parsed log is well-formed");
    assert_eq!(parsed.requests.len(), original.requests.len());
    assert_eq!(parsed.client_count(), original.client_count());
    let bytes = |log: &Log| log.requests.iter().map(|r| u64::from(r.bytes)).sum::<u64>();
    assert_eq!(bytes(&parsed), bytes(&original));

    // Clustering is identical cluster-for-cluster.
    let c_orig = Clustering::by(original.hits(), Assigner::NetworkAware(&merged.compile()));
    let c_parsed = Clustering::by(parsed.hits(), Assigner::NetworkAware(&merged.compile()));
    assert_eq!(c_orig.len(), c_parsed.len());
    for (a, b) in c_orig.clusters.iter().zip(&c_parsed.clusters) {
        assert_eq!(a.prefix, b.prefix);
        assert_eq!(a.client_count(), b.client_count());
        assert_eq!(a.requests, b.requests);
        assert_eq!(a.unique_urls, b.unique_urls);
    }

    // Cache simulation agrees too (same timestamps, sizes, order). The
    // resource-modification model keys off URL ids, which parsing remaps
    // (first-appearance order), so use the immutable model for an exact
    // comparison.
    let cfg = SimConfig {
        model: netclust_cachesim::ResourceModel::immutable(),
        ..SimConfig::paper(1 << 20)
    };
    let r_orig = simulate(&original, &c_orig, &cfg);
    let r_parsed = simulate(&parsed, &c_parsed, &cfg);
    assert!((r_orig.server_hit_ratio() - r_parsed.server_hit_ratio()).abs() < 1e-12);
    assert!((r_orig.server_byte_hit_ratio() - r_parsed.server_byte_hit_ratio()).abs() < 1e-12);
}

#[test]
fn handcrafted_clf_runs_through_the_pipeline() {
    // A miniature "real" log written by hand in plain CLF (no User-Agent).
    let text = "\
12.65.147.94 - - [13/Feb/1998:10:00:00 +0000] \"GET /index.html HTTP/1.0\" 200 2048\n\
12.65.147.149 - - [13/Feb/1998:10:00:05 +0000] \"GET /index.html HTTP/1.0\" 200 2048\n\
12.65.146.207 - - [13/Feb/1998:10:00:09 +0000] \"GET /results.html HTTP/1.0\" 200 4096\n\
24.48.3.87 - - [13/Feb/1998:10:01:00 +0000] \"GET /index.html HTTP/1.0\" 200 2048\n\
24.48.2.166 - - [13/Feb/1998:10:01:30 +0000] \"GET /medals.html HTTP/1.0\" 200 1024\n";
    let (log, errors) = from_clf("mini", text.as_bytes());
    assert!(errors.is_empty());

    // Cluster with a hand-built table holding the paper's two prefixes.
    use netclust::rtable::{MergedTable, RoutingTable, TableKind};
    let table = RoutingTable::new(
        "T",
        "d0",
        TableKind::Bgp,
        vec![
            "12.65.128.0/19".parse().unwrap(),
            "24.48.2.0/23".parse().unwrap(),
        ],
    );
    let merged = MergedTable::merge([&table]);
    let clustering = Clustering::by(log.hits(), Assigner::NetworkAware(&merged.compile()));
    assert_eq!(clustering.len(), 2);
    assert_eq!(clustering.clusters[0].client_count(), 3);
    assert_eq!(clustering.clusters[1].client_count(), 2);
    assert_eq!(clustering.clusters[0].unique_urls, 2);
}
