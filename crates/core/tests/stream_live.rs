//! Live-update integration tests for the streaming clustering: an 8-seed
//! sweep of patch batches the [`SwapPolicy`] gates turn away, proving
//! every rejected candidate leaves the old generation serving untouched, and
//! multi-threaded reader tests proving [`StreamHandle`] lookups proceed —
//! never observing a torn table, however many handles are live — while the
//! owner publishes delta batches, and after the owner is gone.

use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;

use netclust_bgpsim::{DeltaStream, DeltaStreamConfig};
use netclust_core::{ClusterQuery, StreamHandle, StreamingClustering, SwapPolicy, SwapRejection};
use netclust_netgen::{generate, standard_merged, to_clf, LogSpec, Universe, UniverseConfig};
use netclust_prefix::{unit_f64, Ipv4Net};
use netclust_rtable::{MergedTable, RoutingTable, TableDelta, TableKind};

/// The universe and its generated log's CLF text.
fn setup() -> (Universe, String) {
    let u = Universe::generate(UniverseConfig::small(7));
    let mut spec = LogSpec::tiny("live", 13);
    spec.total_requests = 6_000;
    spec.target_clients = 250;
    let clf = to_clf(&generate(&u, &spec));
    (u, clf)
}

/// Deterministic probe addresses without ambient randomness: an LCG walk
/// plus the boundary addresses of every prefix in `nets`.
fn probes(nets: &[Ipv4Net]) -> Vec<u32> {
    let mut v = Vec::with_capacity(nets.len() * 2 + 64);
    let mut x = 0x2545_F491u32;
    for _ in 0..64 {
        x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
        v.push(x);
    }
    for n in nets {
        v.push(n.addr_u32());
        v.push(n.addr_u32() | !n.netmask_u32());
    }
    v
}

/// 8-seed sweep: drive a gated stream and an ungated mirror with the same
/// accepted batches. The stream's entry floor sits one above the dump
/// tier, and on a seeded 30 % of steps it is first sent a batch
/// withdrawing every live BGP prefix: each such batch must be rejected and
/// leave version, view, and lookups untouched, and the survivor lineage
/// must equal the mirror's exactly.
#[test]
fn gate_sweep_rollback_leaves_old_generation_intact() {
    const SEEDS: [u64; 8] = [1, 2, 3, 5, 8, 13, 0xBEEF, 0xFA17];
    let (u, clf) = setup();
    let floor = standard_merged(&u, 0).dump_prefixes().len() + 1;
    for &seed in &SEEDS {
        let mut stream = StreamingClustering::builder(standard_merged(&u, 0))
            .swap_policy(SwapPolicy {
                min_entries: floor,
                ..SwapPolicy::default()
            })
            .build();
        let mut mirror = StreamingClustering::builder(standard_merged(&u, 0)).build();
        assert!(stream.push_clf(clf.as_bytes()).is_empty());
        assert!(mirror.push_clf(clf.as_bytes()).is_empty());
        let mut feed = DeltaStream::new(
            seed,
            standard_merged(&u, 0).bgp_prefixes().to_vec(),
            DeltaStreamConfig::default(),
        );
        let mut accepted_batches: Vec<Vec<TableDelta>> = Vec::new();
        let mut poisoned = 0u64;
        for step in 0..60 {
            let mut batches = Vec::new();
            if unit_f64(seed, &[step]) < 0.3 {
                let live = stream.export_state().bgp_prefixes;
                batches.push((true, live.into_iter().map(TableDelta::withdraw).collect()));
            }
            batches.push((false, feed.next_batch().deltas));
            for (poison, deltas) in batches {
                let version_before = stream.table_version();
                let view_before = stream.top_k(usize::MAX);
                let coverage_before = stream.coverage();
                let report = stream.apply_deltas(&deltas);
                if report.accepted {
                    assert!(!poison, "seed {seed}: a batch under the floor was accepted");
                    if !deltas.is_empty() {
                        accepted_batches.push(deltas);
                    }
                } else {
                    // Rollback: the rejected candidate was discarded
                    // without touching the serving generation.
                    assert_eq!(stream.table_version(), version_before, "seed {seed}");
                    assert_eq!(stream.top_k(usize::MAX), view_before, "seed {seed}");
                    assert!((stream.coverage() - coverage_before).abs() < 1e-12);
                    if poison {
                        poisoned += 1;
                        assert!(
                            matches!(
                                report.rejection,
                                Some(SwapRejection::TooFewEntries { entries, .. })
                                    if entries < floor
                            ),
                            "seed {seed}: {:?}",
                            report.rejection
                        );
                    }
                }
            }
        }
        // 60 draws at p=0.3 make a sweep without a poisoned batch
        // astronomically unlikely — a zero here means the draw came unwired.
        assert!(poisoned >= 1, "seed {seed}: no batch was poisoned");
        assert!(stream.patch_stats().rejected >= poisoned);

        // The ungated mirror accepts the same lineage and converges to
        // the identical view and serving table.
        for deltas in &accepted_batches {
            let r = mirror.apply_deltas(deltas);
            assert!(r.accepted, "seed {seed}: mirror rejected {:?}", r.rejection);
        }
        assert_eq!(
            stream.table_version(),
            mirror.table_version(),
            "seed {seed}"
        );
        assert_eq!(
            stream.top_k(usize::MAX),
            mirror.top_k(usize::MAX),
            "seed {seed}"
        );
        assert!((stream.coverage() - mirror.coverage()).abs() < 1e-12);
        let (h, hm) = (stream.handle(), mirror.handle());
        for addr in probes(standard_merged(&u, 0).bgp_prefixes()) {
            assert_eq!(h.net_for_u32(addr), hm.net_for_u32(addr), "seed {seed}");
        }
    }
}

/// A stream over a churn pool the returned feed mutates freely, plus a
/// canary prefix the feed never touches: any lookup that sees a torn or
/// half-patched table would misresolve the canary probe (the third item) or
/// return a non-covering prefix.
fn canary_stream() -> (StreamingClustering, DeltaStream, u32) {
    let canary: Ipv4Net = "203.0.113.0/24".parse().unwrap();
    let feed = DeltaStream::synthetic(
        0xFEED,
        2_000,
        DeltaStreamConfig {
            mean_batch_size: 4,
            reset_period: 0,
            ..DeltaStreamConfig::default()
        },
    );
    let mut prefixes = feed.live_prefixes();
    prefixes.push(canary);
    let bgp = RoutingTable::new("live", "d0", TableKind::Bgp, prefixes);
    let mut stream = StreamingClustering::builder(MergedTable::merge([&bgp])).build();
    // All clients live under the canary, so churn in the pool can never
    // collapse coverage and every batch passes the gates.
    let mut clf = String::new();
    for host in 1..=20u32 {
        clf.push_str(&format!(
            "203.0.113.{host} - - [13/Feb/1998:07:00:00 +0000] \"GET /x HTTP/1.0\" 200 100\n"
        ));
    }
    assert!(stream.push_clf(clf.as_bytes()).is_empty());
    assert_eq!(stream.coverage(), 1.0);
    (stream, feed, canary.addr_u32() | 0x4D)
}

/// The canary always resolves to a prefix covering it (the canary itself,
/// or a longer match the feed announced).
fn assert_canary(h: &StreamHandle, canary_probe: u32) {
    let net = h
        .net_for_u32(canary_probe)
        .expect("canary probe must always resolve");
    assert!(net.contains_u32(canary_probe), "torn read: {net}");
}

/// Acceptance criterion: reader threads keep resolving lookups — no torn
/// reads, versions monotone — while the owner applies 1,000 patch batches.
#[test]
fn readers_proceed_while_writer_applies_1k_batches() {
    let (mut stream, mut feed, canary_probe) = canary_stream();
    let stop = Arc::new(AtomicBool::new(false));
    let mut readers = Vec::new();
    for _ in 0..3 {
        let h = stream.handle();
        let stop = Arc::clone(&stop);
        readers.push(thread::spawn(move || {
            let mut iterations = 0u64;
            let mut last_version = 0u64;
            while !stop.load(Ordering::Relaxed) {
                assert_canary(&h, canary_probe);
                // Versions observed through the handle never go backwards.
                let v = h.version();
                assert!(v >= last_version, "version regressed {last_version}->{v}");
                last_version = v;
                // Churn-pool probes either miss or resolve to a covering
                // prefix — a torn table would violate containment.
                let addr = 0x0A00_0000u32.wrapping_add((iterations as u32).wrapping_mul(8_191));
                if let Some(net) = h.net_for_u32(addr) {
                    assert!(net.contains_u32(addr), "torn read: {net} for {addr:#x}");
                }
                iterations += 1;
            }
            (iterations, last_version)
        }));
    }

    let mut accepted = 0u64;
    for _ in 0..1_000 {
        let batch = feed.next_batch();
        let report = stream.apply_deltas(&batch.deltas);
        assert!(report.accepted, "rejected: {:?}", report.rejection);
        if !batch.deltas.is_empty() {
            accepted += 1;
        }
    }
    stop.store(true, Ordering::Relaxed);
    let mut total_reads = 0u64;
    for r in readers {
        let (iterations, last_version) = r.join().expect("reader thread panicked");
        total_reads += iterations;
        assert!(last_version <= stream.table_version());
    }
    assert!(total_reads > 0, "readers never made progress");
    assert_eq!(stream.table_version(), accepted);
    assert_eq!(stream.patch_stats().accepted, accepted);

    // The canary survives the entire run in the serving table.
    let h = stream.handle();
    assert!(h.net_for_u32(canary_probe).is_some());
}

/// Any number of handles may be live at once: 100 clones spread over 8
/// threads all resolve the canary while the owner applies batches. The
/// owner keeps publishing until every thread has reported a full pass over
/// its handles that began after the first publish, so each pass overlaps
/// the writer by construction, not by luck of the scheduler.
#[test]
fn a_hundred_live_handles_read_while_the_owner_patches() {
    const THREADS: usize = 8;
    let (mut stream, mut feed, canary_probe) = canary_stream();
    let first = stream.handle();
    let handles: Vec<StreamHandle> = (0..100).map(|_| first.clone()).collect();
    let stop = AtomicBool::new(false);
    let (passed, passes) = mpsc::channel();
    thread::scope(|s| {
        for share in handles.chunks(handles.len().div_ceil(THREADS)) {
            let (stop, passed) = (&stop, passed.clone());
            s.spawn(move || {
                let mut reported = false;
                while !stop.load(Ordering::Relaxed) {
                    let began_after_publish = share[0].version() > 0;
                    for h in share {
                        assert_canary(h, canary_probe);
                    }
                    if began_after_publish && !reported {
                        passed.send(()).expect("owner waits for every report");
                        reported = true;
                    }
                }
            });
        }
        let mut reports = 0;
        while reports < THREADS {
            let report = stream.apply_deltas(&feed.next_batch().deltas);
            assert!(report.accepted, "rejected: {:?}", report.rejection);
            reports += passes.try_iter().count();
        }
        stop.store(true, Ordering::Relaxed);
    });
    for h in &handles {
        assert_eq!(h.version(), stream.table_version());
    }
}

/// A handle owns a reference to what it reads: with the stream gone it
/// keeps answering from the last generation published.
#[test]
fn a_handle_outlives_its_stream() {
    let (mut stream, mut feed, canary_probe) = canary_stream();
    let handle = stream.handle();
    for _ in 0..5 {
        assert!(stream.apply_deltas(&feed.next_batch().deltas).accepted);
    }
    let version = stream.table_version();
    let expect = stream.lookup(Ipv4Addr::from(canary_probe)).cluster;
    drop(stream);
    assert_eq!(handle.version(), version);
    assert_eq!(handle.net_for_u32(canary_probe), expect);
    assert_eq!(handle.clone().net_for_u32(canary_probe), expect);
}
