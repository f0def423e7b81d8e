//! Crash-recovery sweep over the durability layer: every `persist.*`
//! crash point, fired repeatedly across the fixed seed set, must leave
//! state that recovers to *exactly* what an uncrashed process computes —
//! and torn or bit-flipped journal tails must truncate cleanly, never
//! panic, never replay garbage.
//!
//! Two levels are exercised:
//!
//! 1. **Library**: a simulated process loop around [`StateStore`] where an
//!    injected fault means "the process died at that syscall"; the injector
//!    is carried across restarts so the fault schedule is one deterministic
//!    sequence per seed.
//! 2. **Process**: the real `netclust` binary killed mid-journal via
//!    `--crash-after-batch`, restarted with `--resume`, compared
//!    byte-for-byte against an uninterrupted run.

use std::path::{Path, PathBuf};
use std::process::Command;

use netclust_testkit::TempDir;

use netclust::bgpsim::{DeltaBatch, DeltaStream, DeltaStreamConfig};
use netclust::core::persist::codec::{decode_header, FORMAT_VERSION, HEADER_BYTES};
use netclust::core::{
    failpoints, FaultInjector, FaultPlan, FsyncPolicy, JournalBatch, PersistError, StateStore,
    StreamState, StreamingClustering, SwapPolicy,
};
use netclust::netgen::{generate, standard_merged, to_clf, LogSpec, Universe, UniverseConfig};
use netclust::obs::Obs;

/// The fixed seed sweep shared with `tests/faults.rs` and CI.
const SEEDS: [u64; 8] = [1, 2, 3, 5, 8, 13, 0xBEEF, 0xFA17];

/// Small compaction threshold so mid-feed checkpoints (and with them the
/// `persist.snapshot.rename` seam) actually fire during a 30-batch feed.
const COMPACT: u64 = 1024;

fn setup() -> (Universe, Vec<u8>, Vec<DeltaBatch>) {
    let u = Universe::generate(UniverseConfig::small(7));
    let mut spec = LogSpec::tiny("persist", 23);
    spec.total_requests = 5_000;
    spec.target_clients = 200;
    let log = generate(&u, &spec);
    let clf = to_clf(&log).into_bytes();
    let merged = standard_merged(&u, 0);
    let stream = DeltaStream::new(
        42,
        merged.bgp_prefixes().to_vec(),
        DeltaStreamConfig::default(),
    );
    let batches: Vec<DeltaBatch> = stream.take(30).collect();
    (u, clf, batches)
}

/// The uncrashed process: fresh stream, full feed, no persistence at all.
fn reference_run(u: &Universe, clf: &[u8], batches: &[DeltaBatch]) -> StreamState {
    let mut stream = StreamingClustering::builder(standard_merged(u, 0)).build();
    stream.push_clf(clf);
    for b in batches {
        stream.apply_deltas(&b.deltas);
    }
    stream.export_state()
}

/// The simulated process died mid-syscall; restart it.
struct Crashed;

/// One simulated process lifetime: create-or-recover, journal + apply the
/// remaining feed, checkpoint at the compaction threshold and at the end.
/// Any injected persistence fault is a crash — the injector is handed back
/// through `faults` so the next lifetime continues the same schedule.
fn run_once(
    dir: &Path,
    fresh: bool,
    faults: &mut Option<FaultInjector>,
    u: &Universe,
    clf: &[u8],
    batches: &[DeltaBatch],
) -> Result<StreamState, Crashed> {
    let (mut store, mut stream, pos) = if fresh {
        // The base generation is written before faults arm: a real
        // deployment that cannot even write its first snapshot has nothing
        // to recover and simply starts over.
        let mut store = StateStore::create(dir, FsyncPolicy::EveryBatch)
            .expect("create store")
            .compact_threshold(COMPACT);
        let mut stream = StreamingClustering::builder(standard_merged(u, 0)).build();
        stream.push_clf(clf);
        store
            .checkpoint(&stream.export_state())
            .expect("base checkpoint");
        store = store.with_faults(faults.take().expect("injector available"));
        (store, stream, 0usize)
    } else {
        let (store, state, report) =
            StateStore::recover(dir, FsyncPolicy::EveryBatch).expect("recover after crash");
        let store = store
            .compact_threshold(COMPACT)
            .with_faults(faults.take().expect("injector available"));
        let mut stream =
            StreamingClustering::restore(&state, SwapPolicy::default(), Obs::disabled())
                .expect("restore recovered state");
        let mut pos = state.feed_pos as usize;
        for b in &report.batches {
            stream.apply_deltas(&b.deltas);
            pos = (b.feed_index + 1) as usize;
        }
        (store, stream, pos)
    };
    for (i, b) in batches.iter().enumerate().skip(pos) {
        if store
            .append_batch(&JournalBatch {
                feed_index: i as u64,
                session_reset: b.session_reset,
                deltas: b.deltas.clone(),
            })
            .is_err()
        {
            *faults = Some(store.take_faults());
            return Err(Crashed);
        }
        stream.apply_deltas(&b.deltas);
        if store.wants_compaction() {
            let mut state = stream.export_state();
            state.feed_pos = (i + 1) as u64;
            if store.checkpoint(&state).is_err() {
                *faults = Some(store.take_faults());
                return Err(Crashed);
            }
        }
    }
    let mut state = stream.export_state();
    state.feed_pos = batches.len() as u64;
    if store.checkpoint(&state).is_err() {
        *faults = Some(store.take_faults());
        return Err(Crashed);
    }
    *faults = Some(store.take_faults());
    // A restored stream carries its snapshot's cursor; the reference run,
    // which never persisted, has none.
    let mut end = stream.export_state();
    end.feed_pos = 0;
    Ok(end)
}

#[test]
fn crash_point_sweep_recovers_to_reference() {
    let (u, clf, batches) = setup();
    let reference = reference_run(&u, &clf, &batches);
    let points = [
        failpoints::PERSIST_JOURNAL_WRITE,
        failpoints::PERSIST_SNAPSHOT_RENAME,
        failpoints::PERSIST_FSYNC,
    ];
    for point in points {
        for &seed in &SEEDS {
            let dir = TempDir::new(&format!(
                "netclust-persist-test-sweep-{}-{seed}",
                point.replace('.', "-")
            ));
            let mut faults = Some(FaultPlan::new(seed).with(point, 0.25).injector());
            let mut restarts = 0u32;
            let final_state = loop {
                match run_once(&dir, restarts == 0, &mut faults, &u, &clf, &batches) {
                    Ok(state) => break state,
                    Err(Crashed) => {
                        restarts += 1;
                        assert!(restarts < 200, "point={point} seed={seed}: livelock");
                    }
                }
            };
            assert_eq!(
                final_state, reference,
                "point={point} seed={seed} restarts={restarts}: \
                 recovered state diverged from the uncrashed process"
            );
            // The persisted copy agrees too: one more recovery sees the
            // final snapshot, an empty journal, and the same state.
            let (_store, persisted, report) =
                StateStore::recover(&dir, FsyncPolicy::EveryBatch).expect("final recover");
            assert!(report.batches.is_empty(), "point={point} seed={seed}");
            assert_eq!(persisted.feed_pos, batches.len() as u64);
            let mut norm = persisted.clone();
            norm.feed_pos = 0;
            assert_eq!(norm, reference, "point={point} seed={seed}");
        }
    }
}

/// Builds a store with a base snapshot and five journaled batches, then
/// returns the journal path and its pristine bytes.
fn journal_fixture(
    dir: &Path,
    u: &Universe,
    clf: &[u8],
    batches: &[DeltaBatch],
) -> (PathBuf, Vec<u8>) {
    let mut store = StateStore::create(dir, FsyncPolicy::EveryBatch).expect("create");
    let mut stream = StreamingClustering::builder(standard_merged(u, 0)).build();
    stream.push_clf(clf);
    store.checkpoint(&stream.export_state()).expect("base");
    for (i, b) in batches.iter().take(5).enumerate() {
        store
            .append_batch(&JournalBatch {
                feed_index: i as u64,
                session_reset: b.session_reset,
                deltas: b.deltas.clone(),
            })
            .expect("append");
    }
    let path = store.journal_path(store.generation());
    let bytes = std::fs::read(&path).expect("read journal");
    (path, bytes)
}

#[test]
fn torn_journal_tail_truncates_to_valid_prefix() {
    let (u, clf, batches) = setup();
    let dir = TempDir::new("netclust-persist-test-torn-tail");
    let (path, pristine) = journal_fixture(&dir, &u, &clf, &batches);
    assert!(pristine.len() > HEADER_BYTES);
    for cut in 0..pristine.len() {
        std::fs::write(&path, &pristine[..cut]).expect("write truncated journal");
        let (_store, _state, report) =
            StateStore::recover(&dir, FsyncPolicy::EveryBatch).expect("recover");
        // Whatever survived must be a strict prefix of what was journaled,
        // in order, with nothing invented.
        for (i, b) in report.batches.iter().enumerate() {
            assert_eq!(b.feed_index, i as u64, "cut={cut}");
            assert_eq!(b.deltas, batches[i].deltas, "cut={cut}");
        }
        // Every cut loses at least one byte of the last frame, so all five
        // batches can never be claimed from a truncated file.
        assert!(report.batches.len() < 5, "cut={cut}");
        // The recovery truncated the file back to the last whole frame:
        // recovering again reports the same batches and no further tail.
        let (_s2, _st2, again) =
            StateStore::recover(&dir, FsyncPolicy::EveryBatch).expect("recover twice");
        assert_eq!(again.batches.len(), report.batches.len(), "cut={cut}");
        assert!(again.tail.is_none(), "cut={cut}: tail survived truncation");
    }
}

#[test]
fn bit_flipped_journal_replays_only_the_valid_prefix() {
    let (u, clf, batches) = setup();
    let dir = TempDir::new("netclust-persist-test-bit-flip");
    let (path, pristine) = journal_fixture(&dir, &u, &clf, &batches);
    for byte in 0..pristine.len() {
        let mut bad = pristine.clone();
        bad[byte] ^= 1 << (byte % 8);
        std::fs::write(&path, &bad).expect("write corrupt journal");
        let (_store, _state, report) =
            StateStore::recover(&dir, FsyncPolicy::EveryBatch).expect("recover");
        // A flip inside the file header drops the whole journal; a flip in
        // frame i stops replay before frame i. Every replayed batch must
        // be bit-exact — corruption is never partially applied.
        for (i, b) in report.batches.iter().enumerate() {
            assert_eq!(b.feed_index, i as u64, "byte={byte}");
            assert_eq!(b.deltas, batches[i].deltas, "byte={byte}");
            assert_eq!(b.session_reset, batches[i].session_reset, "byte={byte}");
        }
        assert!(
            report.batches.len() < 5,
            "byte={byte}: flip went undetected"
        );
        // Restore the pristine bytes for the next position (recovery may
        // have truncated the file).
        std::fs::write(&path, &pristine).expect("restore journal");
    }
}

/// The two policies that do not fsync every append, one body over both:
/// every append succeeds, the journal is fsynced exactly as often as the
/// policy says, a crash loses at most the unsynced tail and recovers a
/// bit-exact prefix, and after `sync()` nothing at all is at risk.
#[test]
fn relaxed_fsync_policies_sync_on_schedule_and_recover_prefix_exact() {
    const APPENDS: usize = 10;
    let (u, clf, batches) = setup();
    for spelling in ["every_n:3", "os"] {
        let policy: FsyncPolicy = spelling.parse().expect(spelling);
        // fsyncs the policy owes over the run, and the batches they cover.
        let (due, covered) = match policy {
            FsyncPolicy::EveryN(n) => (APPENDS as u64 / n, APPENDS / n as usize * n as usize),
            FsyncPolicy::Os => (0, 0),
            FsyncPolicy::EveryBatch => unreachable!("covered by every other test"),
        };
        let dir = TempDir::new(&format!(
            "netclust-persist-test-fsync-{}",
            spelling.replace(':', "-")
        ));
        let obs = Obs::enabled();
        let fsyncs = || obs.snapshot(true).counters["persist.fsyncs"];
        let mut store = StateStore::create(&dir, policy).expect("create").obs(&obs);
        let mut stream = StreamingClustering::builder(standard_merged(&u, 0)).build();
        stream.push_clf(&clf);
        store.checkpoint(&stream.export_state()).expect("base");
        let path = store.journal_path(store.generation());

        // Journal length at the last point the policy made durable.
        let (base, mut durable_len, mut durable_batches) = (fsyncs(), 0, 0);
        for (i, b) in batches.iter().take(APPENDS).enumerate() {
            let before = fsyncs();
            store
                .append_batch(&JournalBatch {
                    feed_index: i as u64,
                    session_reset: b.session_reset,
                    deltas: b.deltas.clone(),
                })
                .unwrap_or_else(|e| panic!("{spelling}: append {i}: {e}"));
            if fsyncs() > before {
                durable_len = std::fs::metadata(&path).expect("journal").len();
                durable_batches = i + 1;
            }
        }
        assert_eq!(
            fsyncs() - base,
            due,
            "{spelling}: fsyncs over {APPENDS} appends"
        );
        assert_eq!(durable_batches, covered, "{spelling}: batches fsynced");

        // The crash: everything past the last fsync may be gone, wholly or
        // in part. Whatever is left recovers to a bit-exact prefix that
        // includes every batch the policy had made durable.
        let full = std::fs::read(&path).expect("read journal");
        for keep in [
            durable_len,
            (durable_len + full.len() as u64) / 2,
            full.len() as u64 - 1,
        ] {
            std::fs::write(&path, &full[..keep as usize]).expect("lose the tail");
            let (_store, _state, report) = StateStore::recover(&dir, policy).expect("recover");
            assert!(
                report.batches.len() >= durable_batches,
                "{spelling} keep={keep}"
            );
            assert!(report.batches.len() < APPENDS, "{spelling} keep={keep}");
            for (i, b) in report.batches.iter().enumerate() {
                assert_eq!(b.feed_index, i as u64, "{spelling} keep={keep}");
                assert_eq!(b.deltas, batches[i].deltas, "{spelling} keep={keep}");
            }
            std::fs::write(&path, &full).expect("restore journal");
        }

        // The clean exit: `sync()` is one more fsync, and then every
        // append is recovered.
        store.sync().expect("sync");
        assert_eq!(fsyncs() - base, due + 1, "{spelling}: sync() fsyncs once");
        drop(store);
        let (_store, _state, report) = StateStore::recover(&dir, policy).expect("recover");
        assert_eq!(report.batches.len(), APPENDS, "{spelling}");
        assert!(report.tail.is_none(), "{spelling}");
    }
}

#[test]
fn corrupt_newest_snapshot_falls_back_one_generation() {
    let (u, clf, batches) = setup();
    let dir = TempDir::new("netclust-persist-test-snap-fallback");
    let mut store = StateStore::create(&dir, FsyncPolicy::EveryBatch).expect("create");
    let mut stream = StreamingClustering::builder(standard_merged(&u, 0)).build();
    stream.push_clf(&clf);
    store
        .checkpoint(&stream.export_state())
        .expect("generation 1");
    for (i, b) in batches.iter().take(3).enumerate() {
        store
            .append_batch(&JournalBatch {
                feed_index: i as u64,
                session_reset: b.session_reset,
                deltas: b.deltas.clone(),
            })
            .expect("append");
        stream.apply_deltas(&b.deltas);
    }
    let mut mid = stream.export_state();
    mid.feed_pos = 3;
    store.checkpoint(&mid).expect("generation 2");
    let newest = store.snapshot_path(store.generation());
    drop(store);

    // Flip one payload bit in the newest snapshot: recovery must skip it
    // and land on generation 1 plus its three journaled batches — which
    // replay to exactly the generation-2 state.
    let mut bytes = std::fs::read(&newest).expect("read snapshot");
    let at = bytes.len() - 1;
    bytes[at] ^= 0x10;
    std::fs::write(&newest, &bytes).expect("corrupt snapshot");
    let (_store, state, report) =
        StateStore::recover(&dir, FsyncPolicy::EveryBatch).expect("fall back");
    assert_eq!(report.generations_skipped, 1);
    assert_eq!(state.feed_pos, 0, "fell back to the base snapshot");
    assert_eq!(report.batches.len(), 3);
    let mut replayed = StreamingClustering::restore(&state, SwapPolicy::default(), Obs::disabled())
        .expect("restore generation 1");
    for b in &report.batches {
        replayed.apply_deltas(&b.deltas);
    }
    let mut got = replayed.export_state();
    got.feed_pos = 3;
    assert_eq!(got, mid, "replayed fallback diverged from generation 2");

    // With every snapshot corrupt the state is unrecoverable — a typed
    // error naming the directory, not a panic.
    let base = {
        let names: Vec<_> = std::fs::read_dir(&dir)
            .expect("list dir")
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "snap"))
            .collect();
        names
    };
    for snap in &base {
        let mut bytes = std::fs::read(snap).expect("read snapshot");
        // A different bit than above, so the already-corrupt newest
        // snapshot is not accidentally repaired.
        let at = bytes.len() - 1;
        bytes[at] ^= 0x01;
        std::fs::write(snap, &bytes).expect("corrupt snapshot");
    }
    match StateStore::recover(&dir, FsyncPolicy::EveryBatch) {
        Err(PersistError::Unrecoverable { .. }) => {}
        other => panic!("expected Unrecoverable, got {other:?}"),
    }
}

/// A checkpoint that fails after its snapshot was renamed into place has
/// already moved recovery to the new generation. An append to the old
/// generation's journal would then be acknowledged and never replayed, so
/// the store refuses appends until a checkpoint succeeds: a batch is
/// either refused or recovered.
#[test]
fn a_checkpoint_failing_past_its_rename_refuses_appends_until_the_next() {
    let (u, clf, batches) = setup();
    let dir = TempDir::new("netclust-persist-test-post-rename");
    // `Os`: appends draw no fsync, so every draw below is a checkpoint's.
    let mut store = StateStore::create(&dir, FsyncPolicy::Os).expect("create");
    let mut stream = StreamingClustering::builder(standard_merged(&u, 0)).build();
    stream.push_clf(&clf);
    store
        .checkpoint(&stream.export_state())
        .expect("generation 1");

    // A schedule whose first fsync (the snapshot temp file) passes and
    // whose second, the first one after the rename, fails.
    let fsync = failpoints::PERSIST_FSYNC;
    let plan = (1..)
        .map(|seed| FaultPlan::new(seed).with(fsync, 0.5))
        .find(|plan| {
            let mut probe = plan.injector();
            !probe.should_fire(fsync) && probe.should_fire(fsync)
        })
        .expect("a seed with that schedule");
    store = store.with_faults(plan.injector());
    let failed = store.checkpoint(&stream.export_state());
    assert!(
        matches!(failed, Err(PersistError::InjectedFault { point }) if point == fsync),
        "{failed:?}"
    );
    assert!(store.snapshot_path(2).exists(), "the rename happened");

    let batch = JournalBatch {
        feed_index: 0,
        session_reset: false,
        deltas: batches[0].deltas.clone(),
    };
    let appended = store.append_batch(&batch);
    let (_, _, report) = StateStore::recover(&dir, FsyncPolicy::Os).expect("recover");
    assert_eq!(report.generation, 2);
    assert!(
        appended.is_err() || report.batches.contains(&batch),
        "an acknowledged append was lost"
    );
    assert!(
        matches!(appended, Err(PersistError::Poisoned)),
        "{appended:?}"
    );

    // A checkpoint that succeeds rotates to a fresh journal and lifts it.
    store.take_faults();
    assert_eq!(store.checkpoint(&stream.export_state()).expect("retry"), 2);
    store
        .append_batch(&batch)
        .expect("appends are accepted again");
    drop(store);
    let (_, _, report) = StateStore::recover(&dir, FsyncPolicy::Os).expect("recover");
    assert_eq!(report.batches, [batch]);
}

/// The committed state dir in `tests/data/v{version}-state/state`, written
/// in format version 1 (fixed-width client rows and prefixes) or 2 (delta
/// varints, a prefix as an address gap and a length byte) by
/// `netclust cluster --log access.log --table t.bgp --dump t.dump
/// --deterministic --bgp-feed feed.txt --state-dir state
/// --crash-after-batch 3` run in `tests/data/v1-state`, whose inputs both
/// share: the base snapshot and a journal of the feed's first three
/// batches. Copied into a fresh `name` directory, since recovering writes
/// to it. Returns the inputs' directory and the copy.
fn old_state_dir(version: u16, name: &str) -> (PathBuf, TempDir) {
    let data = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data");
    let state = data.join(format!("v{version}-state/state"));
    let dir = TempDir::new(&format!("netclust-persist-test-{name}"));
    for file in ["snapshot-000001.snap", "journal-000001.wal"] {
        std::fs::copy(state.join(file), dir.join(file)).expect("copy fixture");
    }
    (data.join("v1-state"), dir)
}

fn state_files(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("list state dir")
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .collect();
    names.sort();
    names
}

/// Old state dirs still recover, from either older version: the
/// snapshot and its journal replay to what this build computes from the
/// same inputs, the next checkpoint writes the current format in a
/// smaller file, a second recovery reads back the same state and
/// re-checkpoints it byte for byte, and the old files are pruned once
/// `KEEP` (two) newer generations exist. Both old snapshots, and this
/// build's of the state they hold, decode to one state.
#[test]
fn a_version_one_state_dir_recovers_and_is_rewritten_in_the_current_form() {
    let mut bases = Vec::new();
    for version in [1, 2] {
        let (inputs, dir) = old_state_dir(version, &format!("v{version}"));
        let (mut store, state, report) =
            StateStore::recover(&dir, FsyncPolicy::EveryBatch).expect("an old dir recovers");
        assert_eq!((report.generation, report.batches.len()), (1, 3));
        assert!(report.tail.is_none());
        assert_eq!((state.per_client.len(), state.total_requests), (11, 13));
        assert_eq!(state.per_client.first().map(|r| r.0), Some(1), "0.0.0.1");
        assert_eq!(state.per_client.last().map(|r| r.0), Some(u32::MAX - 1));
        let mut recovered =
            StreamingClustering::restore(&state, SwapPolicy::default(), Obs::disabled())
                .expect("restore the old snapshot");
        for b in &report.batches {
            recovered.apply_deltas(&b.deltas);
        }

        // The same inputs through this build: tables, log, three batches.
        let tables =
            netclust::rtable::load_tables(&[inputs.join("t.bgp")], &[inputs.join("t.dump")])
                .expect("tables");
        let merged = netclust::rtable::MergedTable::merge(tables.iter().map(|(t, _)| t));
        let mut fresh = StreamingClustering::builder(merged).build();
        fresh.push_clf(&std::fs::read(inputs.join("access.log")).expect("log"));
        let feed = std::fs::read_to_string(inputs.join("feed.txt")).expect("feed");
        for deltas in netclust::rtable::parse_feed(&feed)
            .expect("feed parses")
            .iter()
            .take(3)
        {
            fresh.apply_deltas(deltas);
        }
        let mut want = recovered.export_state();
        assert_eq!(want, fresh.export_state(), "v{version} recovery diverged");
        // The recovered stream writes one file by either route.
        let snapshot =
            |name: &str, write: &dyn Fn(&mut StateStore) -> Result<u64, PersistError>| {
                let into = TempDir::new(&format!("netclust-persist-test-v{version}-{name}"));
                let mut store = StateStore::create(&into, FsyncPolicy::Os).expect("create store");
                let generation = write(&mut store).expect("checkpoint");
                std::fs::read(store.snapshot_path(generation)).expect("snapshot file")
            };
        assert_eq!(
            snapshot("encode", &|store| store
                .checkpoint_encoded(|to| recovered.encode_state(to))),
            snapshot("export", &|store| store.checkpoint(&want)),
        );

        // The next checkpoint writes the current format, smaller.
        want.feed_pos = 3;
        want.feed = state.feed;
        assert_eq!(store.checkpoint(&want).expect("checkpoint"), 2);
        let old = std::fs::read(store.snapshot_path(1)).expect("old snapshot");
        let new = std::fs::read(store.snapshot_path(2)).expect("new snapshot");
        assert_eq!(decode_header(&old).expect("old header").version, version);
        assert_eq!(
            decode_header(&new).expect("new header").version,
            FORMAT_VERSION
        );
        assert!(
            new.len() < old.len(),
            "v{version}: {} >= {} bytes",
            new.len(),
            old.len()
        );
        drop(store);

        let (mut store, again, report) =
            StateStore::recover(&dir, FsyncPolicy::EveryBatch).expect("recover the rewritten dir");
        assert_eq!((report.generation, report.batches.len()), (2, 0));
        assert_eq!(again, want);
        assert_eq!(
            std::fs::read(store.snapshot_path(2)).expect("new snapshot"),
            new
        );

        // Two generations are kept: the old pair goes with the second
        // checkpoint past it.
        assert!(state_files(&dir).contains(&"snapshot-000001.snap".to_string()));
        assert_eq!(store.checkpoint(&again).expect("checkpoint"), 3);
        assert_eq!(
            std::fs::read(store.snapshot_path(3)).expect("re-checkpointed"),
            new,
            "the recovered state re-checkpoints byte-identically"
        );
        assert_eq!(
            state_files(&dir),
            [
                "journal-000002.wal",
                "journal-000003.wal",
                "snapshot-000002.snap",
                "snapshot-000003.snap"
            ]
        );
        bases.push(state);
    }

    // One base state in every version: the two old snapshots, and this
    // build's snapshot of it read back.
    assert_eq!(bases[0], bases[1], "the v1 and v2 snapshots differ");
    let into = TempDir::new("netclust-persist-test-v3-base");
    let mut store = StateStore::create(&into, FsyncPolicy::Os).expect("create store");
    store.checkpoint(&bases[1]).expect("checkpoint");
    drop(store);
    let (_, v3, _) = StateStore::recover(&into, FsyncPolicy::Os).expect("recover v3");
    assert_eq!(v3, bases[1]);
}

// ---------------------------------------------------------------------------
// Process level: the real binary, really killed.
// ---------------------------------------------------------------------------

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_netclust")
}

/// The daemon's snapshot path — rows encoded from the live stream in the
/// order it holds them, sorted where they lie — writes the file the
/// export-then-checkpoint path writes, byte for byte.
#[test]
fn a_snapshot_encoded_from_the_stream_is_the_exported_one() {
    let (u, clf, batches) = setup();
    let mut stream = StreamingClustering::builder(standard_merged(&u, 0)).build();
    stream.push_clf(&clf);
    for b in &batches {
        stream.apply_deltas(&b.deltas);
    }
    let exported = stream.export_state();
    assert!(
        exported.per_client.len() > 100,
        "a snapshot with rows to order"
    );

    let file = |name: &str, write: &dyn Fn(&mut StateStore) -> Result<u64, PersistError>| {
        let dir = TempDir::new(&format!("netclust-persist-test-{name}"));
        let mut store = StateStore::create(&dir, FsyncPolicy::Os).expect("create store");
        let generation = write(&mut store).expect("checkpoint");
        let bytes = std::fs::read(store.snapshot_path(generation)).expect("snapshot file");
        (dir, bytes)
    };
    let (_export_dir, by_export) = file("by-export", &|store| store.checkpoint(&exported));
    let (dir, by_encode) = file("by-encode", &|store| {
        store.checkpoint_encoded(|to| stream.encode_state(to))
    });
    assert_eq!(by_encode, by_export);

    // And it is that state: the file recovers to the export.
    let (_, recovered, _) = StateStore::recover(&dir, FsyncPolicy::Os).expect("recover");
    assert_eq!(recovered, exported);
}

#[test]
fn process_kill_and_restart_matches_uninterrupted_run() {
    let dir = TempDir::new("netclust-persist-test-process");
    let out = Command::new(bin())
        .args(["synth", "--out"])
        .arg(&dir)
        .args(["--seed", "11", "--requests", "8000", "--clients", "300"])
        .output()
        .expect("run synth");
    assert!(
        out.status.success(),
        "synth: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let tables: Vec<String> = std::fs::read_dir(&dir)
        .expect("list dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".bgp"))
        .collect();
    let table_list = tables.join(",");
    let log = dir.join("access.log");
    let base_args = |state: &Path| {
        let mut v: Vec<String> = vec![
            "cluster".into(),
            "--log".into(),
            log.to_string_lossy().into_owned(),
            "--table".into(),
            table_list.clone(),
            "--top".into(),
            "3".into(),
            "--deterministic".into(),
            "--bgp-feed".into(),
            "synth:42:25".into(),
            "--state-dir".into(),
            state.to_string_lossy().into_owned(),
        ];
        v.push("--fsync".into());
        v.push("every_batch".into());
        v
    };

    // Uninterrupted reference.
    let ref_state = dir.join("state-ref");
    let reference = Command::new(bin())
        .args(base_args(&ref_state))
        .output()
        .expect("reference run");
    assert!(
        reference.status.success(),
        "reference: {}",
        String::from_utf8_lossy(&reference.stderr)
    );

    // Crash twice — once at batch 7 of the fresh run, once at batch 5 of
    // the first resume — then let the third process finish the feed.
    let crash_state = dir.join("state-crash");
    let first = Command::new(bin())
        .args(base_args(&crash_state))
        .args(["--crash-after-batch", "7"])
        .output()
        .expect("crashing run");
    assert!(!first.status.success(), "first run should have died");
    let second = Command::new(bin())
        .args(base_args(&crash_state))
        .args(["--resume", "--crash-after-batch", "5"])
        .output()
        .expect("second crashing run");
    assert!(!second.status.success(), "second run should have died");
    let last = Command::new(bin())
        .args(base_args(&crash_state))
        .arg("--resume")
        .output()
        .expect("final resume");
    assert!(
        last.status.success(),
        "final resume: {}",
        String::from_utf8_lossy(&last.stderr)
    );

    // stdout byte-for-byte: the twice-crashed pipeline reports exactly what
    // the uninterrupted one did.
    assert_eq!(
        String::from_utf8_lossy(&reference.stdout),
        String::from_utf8_lossy(&last.stdout),
        "resumed stdout diverged from the uninterrupted run"
    );

    // And the final snapshots are byte-identical.
    let newest = |state: &Path| {
        let mut snaps: Vec<PathBuf> = std::fs::read_dir(state)
            .expect("list state dir")
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "snap"))
            .collect();
        snaps.sort();
        snaps.pop().expect("snapshot present")
    };
    let want = std::fs::read(newest(&ref_state)).expect("read reference snapshot");
    let got = std::fs::read(newest(&crash_state)).expect("read recovered snapshot");
    assert_eq!(want, got, "final snapshot bytes diverged");
}

/// The binary across the format changes: `--resume` from the version-1
/// state dir finishes the feed and prints what an uninterrupted run of
/// this build prints, and leaves the same final snapshot byte for byte.
#[test]
fn netclust_resumes_a_version_one_state_dir_byte_identically() {
    resumes_byte_identically(1);
}

/// The same from the version-2 state dir.
#[test]
fn netclust_resumes_a_version_two_state_dir_byte_identically() {
    resumes_byte_identically(2);
}

fn resumes_byte_identically(version: u16) {
    let (inputs, crashed) = old_state_dir(version, &format!("v{version}-cli"));
    let run = |state: &Path, resume: bool| {
        let mut cmd = Command::new(bin());
        cmd.current_dir(&inputs).args([
            "cluster",
            "--log",
            "access.log",
            "--table",
            "t.bgp",
            "--dump",
            "t.dump",
            "--deterministic",
            "--bgp-feed",
            "feed.txt",
            "--state-dir",
        ]);
        cmd.arg(state);
        if resume {
            cmd.arg("--resume");
        }
        let out = cmd.output().expect("run netclust");
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(out.status.success(), "resume={resume}: {stderr}");
        (out.stdout, stderr)
    };
    let reference_dir = TempDir::new(&format!("netclust-persist-test-v{version}-cli-ref"));
    let reference = reference_dir.join("state");
    let (want, _) = run(&reference, false);
    let (got, stderr) = run(&crashed, true);
    assert!(
        stderr.contains("generation 1: 3 journaled batches"),
        "{stderr}"
    );
    assert_eq!(
        String::from_utf8_lossy(&got),
        String::from_utf8_lossy(&want)
    );
    let newest = |dir: &Path| {
        let name = state_files(dir).into_iter().rfind(|n| n.ends_with(".snap"));
        std::fs::read(dir.join(name.expect("a snapshot"))).expect("read snapshot")
    };
    assert_eq!(
        newest(&crashed),
        newest(&reference),
        "final snapshots differ"
    );
}
