//! Equivalence of the fused zero-copy ingest pipeline with the `Log`
//! route (`netclust_netgen::from_clf`, then `Clustering::by`), on the committed synthetic
//! corpus under `results/` (a generated CLF log with hand-planted
//! malformed lines, plus one BGP and one registry table dump).

use netclust_core::{Assigner, Clustering, IngestPipeline};
use netclust_netgen::from_clf;
use netclust_rtable::{MergedTable, RoutingTable, TableKind};
use netclust_weblog::clf::ClfErrorKind;

const LOG: &str = include_str!(concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../results/ingest_sample.clf"
));
const BGP: &str = include_str!(concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../results/ingest_sample.bgp"
));
const DUMP: &str = include_str!(concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../results/ingest_sample.dump"
));

fn merged() -> MergedTable {
    let (bgp, bad_bgp) = RoutingTable::parse("oregon", "d0", TableKind::Bgp, BGP);
    let (dump, bad_dump) = RoutingTable::parse("arin", "d0", TableKind::NetworkDump, DUMP);
    assert_eq!(bad_bgp, 0);
    assert_eq!(bad_dump, 0);
    MergedTable::merge([&bgp, &dump])
}

fn assert_clusterings_equal(got: &Clustering, expect: &Clustering, context: &str) {
    assert_eq!(got.method, expect.method, "{context}");
    assert_eq!(got.total_requests, expect.total_requests, "{context}");
    assert_eq!(got.clusters.len(), expect.clusters.len(), "{context}");
    for (g, e) in got.clusters.iter().zip(&expect.clusters) {
        assert_eq!(g.prefix, e.prefix, "{context}");
        assert_eq!(got.members(g), expect.members(e), "{context} {}", e.prefix);
        assert_eq!(g.requests, e.requests, "{context} {}", e.prefix);
        assert_eq!(g.bytes, e.bytes, "{context} {}", e.prefix);
        assert_eq!(g.unique_urls, e.unique_urls, "{context} {}", e.prefix);
    }
    assert_eq!(got.unclustered(), expect.unclustered(), "{context}");
}

#[test]
fn fused_pipeline_matches_log_route() {
    let table = merged().compile();
    let (log, log_errors) = from_clf("sample", LOG.as_bytes());
    let expect = Clustering::by(log.hits(), Assigner::NetworkAware(&table));
    // The planted malformed lines, pinned by line and kind.
    let planted: Vec<(usize, ClfErrorKind)> = log_errors.iter().map(|e| (e.line, e.kind)).collect();
    assert_eq!(
        planted,
        [
            (98, ClfErrorKind::MissingBytes),
            (310, ClfErrorKind::BadClientAddress),
            (666, ClfErrorKind::BadClientAddress),
            (810, ClfErrorKind::BadTimestamp),
            (1097, ClfErrorKind::UnterminatedRequestLine),
            (1336, ClfErrorKind::BadStatus),
        ]
    );

    // The fused pipeline, across chunk sizes spanning one-line-per-chunk
    // to single-chunk.
    for chunk_bytes in [64usize, 4096, 1 << 20] {
        let report = IngestPipeline::by(Assigner::NetworkAware(&table))
            .chunk_bytes(chunk_bytes)
            .run(LOG.as_bytes());
        assert_clusterings_equal(
            &report.clustering,
            &expect,
            &format!("fused chunk_bytes={chunk_bytes}"),
        );
        assert_eq!(report.errors, log_errors);
        assert_eq!(report.counts.records, LOG.lines().count() as u64);
        assert_eq!(report.counts.malformed, log_errors.len() as u64);
        assert_eq!(report.bytes, LOG.len());
    }
}

#[test]
fn corpus_exercises_real_clustering() {
    let table = merged().compile();
    let report = IngestPipeline::by(Assigner::NetworkAware(&table)).run(LOG.as_bytes());
    // The corpus is meaningful: many clusters, high coverage, URL stats.
    assert!(report.clustering.len() > 20, "{}", report.clustering.len());
    assert!(report.clustering.coverage() > 0.9);
    assert!(report
        .clustering
        .clusters
        .iter()
        .any(|c| c.unique_urls > 1 && c.client_count() > 1));
}
