//! Cursor/state atomicity of a followed stream.
//!
//! A driver that tails a file applies bytes and advances a resume cursor;
//! a checkpointer on another thread exports snapshots. Resuming from any
//! snapshot — restore it, feed the log from the snapshot's own `feed_pos`
//! — must reproduce the uninterrupted stream exactly: a snapshot whose
//! counts include a slice its cursor does not cover double-counts that
//! slice on resume, and the reverse loses it.
//!
//! The dangerous instant is the one right after the applier lets go of
//! the stream lock, so the test *forces* an export there after every
//! slice (a channel handshake, not a sleep). With the cursor inside the
//! stream ([`StreamingClustering::push_clf_at`]) nothing is observable at
//! that instant but a consistent pair. The protocol this replaced — apply
//! under the lock, publish the cursor to a side atomic after dropping it
//! — is run through the same harness as a control, and must be caught.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::RwLock;
use std::thread;

use netclust_core::{StreamState, StreamingClustering, SwapPolicy};
use netclust_netgen::{generate, standard_merged, to_clf, LogSpec, Universe, UniverseConfig};
use netclust_obs::Obs;

const SEEDS: [u64; 8] = [1, 2, 3, 5, 8, 13, 0xBEEF, 0xFA17];

fn setup() -> (Universe, Vec<u8>) {
    let u = Universe::generate(UniverseConfig::small(7));
    let mut spec = LogSpec::tiny("cursor", 13);
    spec.total_requests = 4_000;
    spec.target_clients = 250;
    let log = generate(&u, &spec);
    (u, to_clf(&log).into_bytes())
}

fn fresh(u: &Universe) -> StreamingClustering {
    StreamingClustering::builder(standard_merged(u, 0)).build()
}

/// Line-aligned end offsets of about a dozen random slices covering `log`.
fn cuts(log: &[u8], seed: u64) -> Vec<usize> {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut ends = Vec::new();
    let mut at = 0usize;
    while at < log.len() {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let want = at + 1 + (x >> 33) as usize % (log.len() / 6);
        at = match log.get(want.min(log.len())..) {
            Some(rest) => match rest.iter().position(|&b| b == b'\n') {
                Some(nl) => want + nl + 1,
                None => log.len(),
            },
            None => log.len(),
        };
        ends.push(at);
    }
    ends
}

/// What a `--resume` boot does with a snapshot: restore it and feed the
/// rest of the log from the snapshot's own cursor.
fn resumed(snapshot: &StreamState, log: &[u8]) -> StreamState {
    let mut stream = StreamingClustering::restore(snapshot, SwapPolicy::default(), Obs::disabled())
        .expect("a snapshot of a live stream restores");
    let from = usize::try_from(snapshot.feed_pos).expect("cursor fits usize");
    stream.push_clf_at(&log[from..], log.len() as u64);
    stream.export_state()
}

/// Runs `apply(slice, end_offset, pause)` for every slice on one thread
/// while another exports a snapshot each time the applier calls `pause`
/// (and only then — the applier waits for the export to finish). Returns
/// every snapshot taken.
fn snapshots_at_every_pause(
    log: &[u8],
    ends: &[usize],
    apply: impl Fn(&[u8], u64, &dyn Fn()) + Send,
    export: impl Fn() -> StreamState + Send,
) -> Vec<StreamState> {
    let (paused_tx, paused_rx) = mpsc::channel::<()>();
    let (resumed_tx, resumed_rx) = mpsc::channel::<()>();
    thread::scope(|scope| {
        let exporter = scope.spawn(move || {
            let mut taken = Vec::new();
            for () in paused_rx {
                taken.push(export());
                resumed_tx.send(()).expect("applier is waiting");
            }
            taken
        });
        scope.spawn(move || {
            let pause = || {
                paused_tx.send(()).expect("exporter is listening");
                resumed_rx.recv().expect("exporter answers");
            };
            let mut from = 0usize;
            for &end in ends {
                apply(&log[from..end], end as u64, &pause);
                from = end;
            }
        });
        exporter.join().expect("exporter thread")
    })
}

#[test]
fn every_snapshot_resumes_to_the_uninterrupted_stream() {
    let (u, log) = setup();
    let reference = {
        let mut stream = fresh(&u);
        stream.push_clf_at(&log, log.len() as u64);
        stream.export_state()
    };
    for &seed in &SEEDS {
        let ends = cuts(&log, seed);
        let shared = RwLock::new(fresh(&u));
        let snapshots = snapshots_at_every_pause(
            &log,
            &ends,
            |slice, end, pause| {
                shared.write().expect("stream lock").push_clf_at(slice, end);
                // Lock released, nothing else done yet: the window the
                // exporter is forced into.
                pause();
            },
            || shared.read().expect("stream lock").export_state(),
        );
        assert_eq!(snapshots.len(), ends.len(), "seed={seed}");
        for (i, snapshot) in snapshots.iter().enumerate() {
            assert_eq!(snapshot.feed_pos, ends[i] as u64, "seed={seed} slice={i}");
            assert_eq!(
                resumed(snapshot, &log),
                reference,
                "seed={seed}: resuming from the snapshot after slice {i} diverged"
            );
        }
    }
}

/// The control: the replaced protocol keeps the cursor beside the stream
/// and publishes it after dropping the lock. The same forced export lands
/// between the two, and the harness must see the double count.
#[test]
fn a_cursor_published_after_the_lock_is_caught() {
    let (u, log) = setup();
    let reference = {
        let mut stream = fresh(&u);
        stream.push_clf_at(&log, log.len() as u64);
        stream.export_state()
    };
    let ends = cuts(&log, SEEDS[0]);
    let shared = RwLock::new(fresh(&u));
    let cursor = AtomicU64::new(0);
    let snapshots = snapshots_at_every_pause(
        &log,
        &ends,
        |slice, end, pause| {
            shared.write().expect("stream lock").push_clf(slice);
            pause();
            cursor.store(end, Ordering::SeqCst);
        },
        || {
            let mut snapshot = shared.read().expect("stream lock").export_state();
            snapshot.feed_pos = cursor.load(Ordering::SeqCst);
            snapshot
        },
    );
    let diverged = snapshots
        .iter()
        .filter(|snapshot| {
            let mut state = resumed(snapshot, &log);
            state.feed_pos = reference.feed_pos;
            state != reference
        })
        .count();
    assert_eq!(
        diverged,
        snapshots.len(),
        "every export between apply and cursor store double-counts its slice"
    );
}

/// Free-running: no handshake, the exporter snapshots as fast as it can
/// while slices land. Whatever the scheduler does (and whatever TSan makes
/// of it), each snapshot resumes exactly.
#[test]
fn free_running_exports_stay_consistent() {
    let (u, log) = setup();
    let reference = {
        let mut stream = fresh(&u);
        stream.push_clf_at(&log, log.len() as u64);
        stream.export_state()
    };
    let ends = cuts(&log, SEEDS[7]);
    let shared = RwLock::new(fresh(&u));
    let done = AtomicBool::new(false);
    let snapshots = thread::scope(|scope| {
        let exporter = scope.spawn(|| {
            let mut taken = Vec::new();
            while !done.load(Ordering::SeqCst) {
                taken.push(shared.read().expect("stream lock").export_state());
            }
            taken.push(shared.read().expect("stream lock").export_state());
            taken
        });
        let mut from = 0usize;
        for &end in &ends {
            shared
                .write()
                .expect("stream lock")
                .push_clf_at(&log[from..end], end as u64);
            from = end;
            thread::yield_now();
        }
        done.store(true, Ordering::SeqCst);
        exporter.join().expect("exporter thread")
    });
    // Consecutive identical snapshots add nothing; check each distinct one.
    let mut checked = 0u64;
    let mut last = None;
    for snapshot in &snapshots {
        if last == Some(snapshot.feed_pos) {
            continue;
        }
        last = Some(snapshot.feed_pos);
        checked += 1;
        assert_eq!(
            resumed(snapshot, &log),
            reference,
            "cursor {}",
            snapshot.feed_pos
        );
    }
    assert!(checked >= 1);
}
