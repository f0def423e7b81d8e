//! Robustness sweep across a fixed set of seeds: every hardened seam of
//! the streaming pipeline must degrade, recover, or fail *cleanly* — and
//! do so identically on every run, because every schedule is a pure
//! function of the seed.
//!
//! The seams under test:
//!
//! 1. **Persistence** — the five failpoints sit on system calls that
//!    really fail; the state store's three, armed at once, never lose or
//!    reorder a journaled batch.
//! 2. **Table swaps** — a candidate the swap gates turn away (too few
//!    entries, a noisy dump, collapsed coverage) leaves the old table
//!    serving with stats unchanged and the rejection recorded.
//! 3. **Self-correction probes** — injected hop/destination loss is
//!    absorbed by retry + quorum matching; correction still reaches full
//!    coverage and conserves clients.
//! 4. **Ingest** — quarantined lines are counted, never clustered, and
//!    never dilute coverage.

use std::collections::BTreeMap;

use netclust_testkit::{noisy_table_files, TempDir};

use netclust::core::{
    failpoints, Assigner, Clustering, FaultPlan, FsyncPolicy, IngestPipeline, IngestReport,
    JournalBatch, StateStore, StreamingClustering, SwapRejection,
};
use netclust::netgen::{generate, standard_merged, to_clf, LogSpec, Universe, UniverseConfig};
use netclust::prefix::{unit_f64, Ipv4Net};
use netclust::rtable::{load_tables, MergedTable, RoutingTable, TableDelta, TableKind};
use netclust::serve::ServeConfig;
use netclust_experiments::{self_correct, CorrectionConfig};
use netclust_probe::ProbeFaultModel;

/// The fixed seed sweep (also run by CI's fault smoke step): eight seeds
/// chosen once, never derived from time or environment.
const SEEDS: [u64; 8] = [1, 2, 3, 5, 8, 13, 0xBEEF, 0xFA17];

fn setup() -> (Universe, netclust::netgen::Log) {
    let u = Universe::generate(UniverseConfig::small(7));
    let mut spec = LogSpec::tiny("faults", 23);
    spec.total_requests = 6_000;
    spec.target_clients = 250;
    let log = generate(&u, &spec);
    (u, log)
}

#[test]
fn failpoint_registry_covers_every_hardened_seam() {
    // Sweeps iterate `failpoints::ALL`; a seam missing from the registry
    // dodges every standard harness. Pin the full set: one failpoint per
    // system call that really fails.
    let seams = [
        failpoints::PERSIST_JOURNAL_WRITE,
        failpoints::PERSIST_SNAPSHOT_RENAME,
        failpoints::PERSIST_FSYNC,
        failpoints::SERVE_ACCEPT,
        failpoints::SERVE_REQUEST_PARSE,
    ];
    assert_eq!(failpoints::ALL, seams);
    // And the product can arm every one: `netclustd --fault POINT=PROB`.
    for &point in failpoints::ALL {
        let args: Vec<String> = ["--table", "t.bgp", "--fault", &format!("{point}=0.5")]
            .map(String::from)
            .into();
        let parsed = ServeConfig::from_args(&args);
        assert!(
            parsed.is_ok(),
            "netclustd --fault refuses {point}: {parsed:?}"
        );
    }
}

#[test]
fn persist_faults_never_lose_or_reorder_journaled_batches_across_seeds() {
    // Store-level sweep, decoupled from the stream: with every persist
    // crash point armed at once, a bounded crash-restart loop must end
    // with the journal holding exactly the batches whose append reported
    // success — in order, bit-exact, nothing invented past a torn tail.
    let (u, _log) = setup();
    let base = StreamingClustering::builder(standard_merged(&u, 0))
        .build()
        .export_state();
    let batches: Vec<JournalBatch> = (0..20u32)
        .map(|i| JournalBatch {
            feed_index: i as u64,
            session_reset: i % 7 == 0,
            deltas: vec![
                TableDelta::announce(Ipv4Net::new((10 << 24) | (i << 8), 24).unwrap()),
                TableDelta::withdraw(Ipv4Net::new((11 << 24) | (i << 8), 24).unwrap()),
            ],
        })
        .collect();
    for &seed in &SEEDS {
        let dir = TempDir::new(&format!("netclust-faults-persist-{seed}"));
        let mut faults = Some(
            FaultPlan::new(seed)
                .with(failpoints::PERSIST_JOURNAL_WRITE, 0.2)
                .with(failpoints::PERSIST_SNAPSHOT_RENAME, 0.2)
                .with(failpoints::PERSIST_FSYNC, 0.2)
                .injector(),
        );
        let mut pos = 0usize;
        let mut restarts = 0u32;
        while pos < batches.len() {
            restarts += 1;
            assert!(restarts < 300, "seed={seed}: livelock");
            let mut store = if restarts == 1 {
                let mut s = StateStore::create(&dir, FsyncPolicy::EveryBatch).expect("create");
                s.checkpoint(&base).expect("base checkpoint");
                s.with_faults(faults.take().unwrap())
            } else {
                let (s, _state, report) =
                    StateStore::recover(&dir, FsyncPolicy::EveryBatch).expect("recover");
                // The journal is a superset of the acknowledged appends: a
                // crashed fsync can leave a durable frame the writer never
                // saw confirmed (torn writes are truncated away instead).
                // What survives must still be a bit-exact prefix, and the
                // writer resumes from it — this is why append carries the
                // feed index.
                assert!(report.batches.len() >= pos, "seed={seed}");
                assert_eq!(
                    report.batches[..],
                    batches[..report.batches.len()],
                    "seed={seed}"
                );
                pos = report.batches.len();
                s.with_faults(faults.take().unwrap())
            };
            while pos < batches.len() {
                match store.append_batch(&batches[pos]) {
                    Ok(()) => pos += 1,
                    Err(_) => break,
                }
            }
            faults = Some(store.take_faults());
        }
        let (_store, _state, report) =
            StateStore::recover(&dir, FsyncPolicy::EveryBatch).expect("final recover");
        assert_eq!(report.batches, batches, "seed={seed}");
        assert!(report.tail.is_none(), "seed={seed}");
    }
}

#[test]
fn swap_faults_leave_old_table_serving_across_seeds() {
    let (u, log) = setup();
    let foreign = RoutingTable::new(
        "foreign",
        "d0",
        TableKind::Bgp,
        vec!["203.0.113.0/24".parse().unwrap()],
    );
    let dir = TempDir::new("netclust-faults-swap");
    let (mut rejected_total, mut accepted_total) = (0u64, 0u64);
    for &seed in &SEEDS {
        let mut stream = StreamingClustering::builder(standard_merged(&u, 0)).build();
        stream.push_clf(to_clf(&log).as_bytes());
        let before = stream.top_k(usize::MAX);
        let mut rejected = 0u64;
        let mut accepted = 0u64;
        let mut since_accept = 0u64;
        let mut serving_day = 0u32;
        for day in 1..=7 {
            // A seeded pick: a good candidate, or one that a gate of the
            // default `SwapPolicy` turns away, with the rejection it gets.
            let (table, gate) = match (unit_f64(seed, &[u64::from(day)]) * 4.0) as u32 {
                0 => (
                    MergedTable::merge(std::iter::empty()),
                    Some(SwapRejection::TooFewEntries {
                        entries: 0,
                        floor: 1,
                    }),
                ),
                // Table files with half their lines malformed: over the
                // 5 % budget.
                1 => {
                    let good = standard_merged(&u, day);
                    let (bgp, dump) =
                        noisy_table_files(&dir, good.bgp_prefixes(), good.dump_prefixes(), 100, 50);
                    let noisy = load_tables(&[bgp], &[dump]).expect("table files");
                    assert_eq!(noisy.noise().ratio(), 0.5);
                    (
                        noisy,
                        Some(SwapRejection::NoiseOverBudget {
                            ratio: 0.5,
                            budget: 0.05,
                        }),
                    )
                }
                // Covers none of the clients the stream has seen.
                2 => (
                    MergedTable::merge([&foreign]),
                    Some(SwapRejection::CoverageCollapse {
                        before: 0.0,
                        after: 0.0,
                        floor: 0.0,
                    }),
                ),
                _ => (standard_merged(&u, day), None),
            };
            let report = stream.try_swap(table);
            let kind = |r: &Option<SwapRejection>| r.as_ref().map(std::mem::discriminant);
            assert_eq!(
                kind(&report.rejection),
                kind(&gate),
                "seed={seed} day={day}"
            );
            if report.accepted {
                accepted += 1;
                since_accept = 0;
                serving_day = day;
            } else {
                rejected += 1;
                since_accept += 1;
                assert_eq!(stream.last_rejection(), report.rejection, "seed={seed}");
            }
        }
        let stats = stream.swap_stats();
        assert_eq!(stats.accepted, accepted, "seed={seed}");
        assert_eq!(stats.rejected, rejected, "seed={seed}");
        assert_eq!(stats.stale_age, since_accept, "seed={seed}");
        (rejected_total, accepted_total) = (rejected_total + rejected, accepted_total + accepted);
        // Whatever the seed offered, the stream still serves a consistent
        // view over every request it consumed.
        assert_eq!(stream.total_requests(), log.requests.len() as u64);
        if accepted == 0 {
            // Never swapped: the original table's view must be untouched.
            assert_eq!(stream.top_k(usize::MAX), before, "seed={seed}");
        } else {
            // The view must equal a batch rebuild against the table that
            // survived the last accepted swap.
            let batch = Clustering::by(
                log.hits(),
                Assigner::NetworkAware(&standard_merged(&u, serving_day).compile()),
            );
            assert_eq!(stream.len(), batch.len(), "seed={seed}");
            let view: BTreeMap<Ipv4Net, u64> = (stream.top_k(usize::MAX).into_iter())
                .map(|(prefix, s)| (prefix, s.requests))
                .collect();
            for cluster in &batch.clusters {
                let requests = view.get(&cluster.prefix).expect("cluster present");
                assert_eq!(*requests, cluster.requests, "seed={seed}");
            }
        }
    }
    // The sweep reaches both outcomes.
    assert!(rejected_total > 0 && accepted_total > 0);
}

#[test]
fn self_correction_converges_across_seeds() {
    let (u, log) = setup();
    let merged = standard_merged(&u, 0);
    let clustering = Clustering::by(log.hits(), Assigner::NetworkAware(&merged.compile()));
    let clean = self_correct(&u, &log, &clustering, &CorrectionConfig::default());
    let clean_len = clean.clustering.len() as f64;
    for &seed in &SEEDS {
        let config = CorrectionConfig {
            faults: Some(ProbeFaultModel::new(seed).hop_loss(0.15).dest_loss(0.05)),
            quorum: 0.6,
            ..CorrectionConfig::default()
        };
        let lossy = self_correct(&u, &log, &clustering, &config);
        assert!(lossy.clustering.unclustered().is_empty(), "seed={seed}");
        assert_eq!(
            lossy.clustering.client_count(),
            clustering.client_count(),
            "seed={seed}"
        );
        let lossy_len = lossy.clustering.len() as f64;
        assert!(
            (lossy_len - clean_len).abs() / clean_len <= 0.20,
            "seed={seed}: cluster count diverged clean {clean_len} lossy {lossy_len}"
        );
        // Determinism: replaying the seed reproduces the exact outcome.
        let replay = self_correct(&u, &log, &clustering, &config);
        assert_eq!(
            replay.clustering.len(),
            lossy.clustering.len(),
            "seed={seed}"
        );
        assert_eq!(replay.probe_stats.retries, lossy.probe_stats.retries);
        assert_eq!(replay.unknown_signatures, lossy.unknown_signatures);
    }
}

#[test]
fn quarantined_lines_do_not_dilute_coverage_under_faults() {
    // Regression: the coverage denominator must count only *parsed*
    // requests. Quarantined (malformed) lines — here torn lines planted at
    // seeded places — belong in `counts.malformed`, not in coverage as
    // clustered misses.
    let (u, log) = setup();
    let merged = standard_merged(&u, 0);
    let compiled = merged.compile();
    let text = to_clf(&log);
    let clean = IngestPipeline::by(Assigner::NetworkAware(&compiled)).run(text.as_bytes());
    for &seed in &SEEDS {
        let mut corrupt = String::new();
        for (i, line) in text.lines().enumerate() {
            if unit_f64(seed, &[i as u64]) < 0.02 {
                corrupt.push_str("### torn line ###\n");
            }
            corrupt.push_str(line);
            corrupt.push('\n');
        }
        let report = IngestPipeline::by(Assigner::NetworkAware(&compiled))
            .chunk_bytes(1 << 14)
            .threads(2)
            .run(corrupt.as_bytes());
        assert!(report.counts.malformed > 0, "seed={seed}");
        assert_eq!(
            report.counts.records,
            clean.counts.records + report.counts.malformed,
            "seed={seed}"
        );
        // Same parsed requests as the uncorrupted run, so coverage is
        // identical: the quarantined lines changed nothing.
        assert_eq!(
            report.clustering.total_requests, clean.clustering.total_requests,
            "seed={seed}"
        );
        assert!(
            (coverage(&report) - coverage(&clean)).abs() < 1e-12,
            "seed={seed}: quarantined lines diluted coverage \
             ({} vs clean {})",
            coverage(&report),
            coverage(&clean)
        );
        // And the denominator really is parsed requests, not raw lines.
        assert_eq!(
            report.clustering.total_requests,
            report.counts.records - report.counts.malformed,
            "seed={seed}"
        );
    }
}

/// Fraction of a run's parsed requests assigned to a cluster.
fn coverage(report: &IngestReport) -> f64 {
    let unclustered: u64 = (report.clustering.unclustered().iter())
        .map(|c| c.requests)
        .sum();
    1.0 - unclustered as f64 / report.clustering.total_requests as f64
}
