//! End-to-end observability contract over the committed ingest corpus:
//! a shared registry observed across pipeline runs only ever grows
//! (mid-stream snapshots are prefixes of later ones), deterministic
//! snapshots are byte-identical across identical runs, and instrumented
//! runs produce the exact same clustering as unobserved ones.

use netclust_core::{Assigner, IngestPipeline};
use netclust_obs::{Obs, Snapshot};
use netclust_rtable::{MergedTable, RoutingTable, TableKind};

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
    let (bgp, _) = RoutingTable::parse("oregon", "d0", TableKind::Bgp, BGP);
    let (dump, _) = RoutingTable::parse("arin", "d0", TableKind::NetworkDump, DUMP);
    MergedTable::merge([&bgp, &dump])
}

/// Monotone-prefix check: every counter/histogram/span in `early` exists
/// in `later` with counts at least as large, and gauge keys carry over.
/// Clock-derived span fields are ignored.
fn is_prefix_of(early: &Snapshot, later: &Snapshot) -> bool {
    let counters_ok =
        (early.counters.iter()).all(|(k, v)| later.counters.get(k).is_some_and(|lv| lv >= v));
    let gauges_ok = early.gauges.keys().all(|k| later.gauges.contains_key(k));
    let hists_ok = early.histograms.iter().all(|(k, h)| {
        later.histograms.get(k).is_some_and(|lh| {
            lh.count >= h.count
                && lh.sum >= h.sum
                && h.buckets.iter().all(|(lo, _, n)| {
                    let same = lh.buckets.iter().find(|(llo, _, _)| llo == lo);
                    same.is_some_and(|(_, _, ln)| ln >= n)
                })
        })
    });
    let spans_ok =
        (early.spans.iter()).all(|(k, s)| later.spans.get(k).is_some_and(|ls| ls.count >= s.count));
    counters_ok && gauges_ok && hists_ok && spans_ok
}

#[test]
fn mid_stream_snapshot_is_prefix_of_final_report() {
    // The pipeline is observed through a long-lived registry; snapshots
    // taken between runs stand in for snapshots taken mid-`run` by a
    // concurrent scraper: every later report must extend every earlier
    // one (counters only grow, no key ever disappears).
    let obs = Obs::enabled();
    let mut table = merged().compile();
    table.attach_obs(&obs);

    let empty = obs.snapshot(true);
    let mut snaps = vec![empty];
    for _ in 0..3 {
        IngestPipeline::by(Assigner::NetworkAware(&table))
            .obs(obs.clone())
            .run(LOG.as_bytes());
        snaps.push(obs.snapshot(true));
    }
    for pair in snaps.windows(2) {
        assert!(
            is_prefix_of(&pair[0], &pair[1]),
            "snapshot stopped being a prefix:\n{}\nvs\n{}",
            pair[0].to_json(),
            pair[1].to_json()
        );
    }
    // Prefix is transitive down the whole chain, including from empty.
    assert!(is_prefix_of(&snaps[0], snaps.last().unwrap()));

    // And the relation is a real check, not a tautology: a later snapshot
    // is NOT a prefix of an earlier one once counters moved.
    assert!(!is_prefix_of(&snaps[3], &snaps[1]));
}

#[test]
fn deterministic_snapshots_are_byte_identical_across_runs() {
    let run = || {
        let obs = Obs::enabled();
        let mut table = merged().compile();
        table.attach_obs(&obs);
        let report = IngestPipeline::by(Assigner::NetworkAware(&table))
            .obs(obs.clone())
            .run(LOG.as_bytes());
        (obs.snapshot(true).to_json(), report)
    };
    let (a, report_a) = run();
    let (b, report_b) = run();
    assert_eq!(a, b, "deterministic OBS.json differed between runs");
    assert_eq!(report_a.counts, report_b.counts);

    // The deterministic snapshot still carries the data-derived facts.
    assert!(a.contains("\"ingest.lines\""));
    assert!(a.contains("\"ingest.chunk_bytes\""));
    assert!(a.contains("\"ingest.run\""));
    assert!(a.contains("\"lpm.lookups\""));

    // ...with every clock-derived span field zeroed.
    let obs = Obs::enabled();
    let mut table = merged().compile();
    table.attach_obs(&obs);
    IngestPipeline::by(Assigner::NetworkAware(&table))
        .obs(obs.clone())
        .run(LOG.as_bytes());
    let snap = obs.snapshot(true);
    for (path, sp) in &snap.spans {
        assert_eq!((sp.total_ns, sp.min_ns, sp.max_ns), (0, 0, 0), "{path}");
        assert!(sp.count > 0, "{path}");
    }

    // No metric or span name holds a control character, so the form
    // `netclust_obs::escape` renders one in cannot reach OBS.json bytes.
    let mut names = (snap.counters.keys())
        .chain(snap.gauges.keys())
        .chain(snap.histograms.keys())
        .chain(snap.spans.keys());
    assert!(names.all(|n| !n.chars().any(char::is_control)));
}

#[test]
fn observation_is_passive() {
    // An instrumented run must produce the identical report to a bare one.
    let table = merged().compile();
    let bare = IngestPipeline::by(Assigner::NetworkAware(&table)).run(LOG.as_bytes());

    let obs = Obs::enabled();
    let mut observed_table = merged().compile();
    observed_table.attach_obs(&obs);
    let observed = IngestPipeline::by(Assigner::NetworkAware(&observed_table))
        .obs(obs.clone())
        .run(LOG.as_bytes());

    assert_eq!(bare.counts, observed.counts);
    assert_eq!(bare.errors, observed.errors);
    assert_eq!(
        bare.clustering.total_requests,
        observed.clustering.total_requests
    );
    assert_eq!(bare.clustering.len(), observed.clustering.len());

    // The registry agrees with the report on the data-derived totals.
    let snap = obs.snapshot(true);
    assert_eq!(
        snap.counters.get("ingest.lines").copied(),
        Some(observed.counts.records)
    );
    assert_eq!(
        snap.counters.get("ingest.malformed").copied(),
        Some(observed.counts.malformed)
    );
    assert_eq!(
        snap.counters.get("ingest.bytes").copied(),
        Some(LOG.len() as u64)
    );
}
