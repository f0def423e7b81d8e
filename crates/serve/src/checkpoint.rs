//! Persistence, behind the ingest path (DESIGN.md §17).
//!
//! The log follower applies and publishes; it never exports state, writes
//! a file, or fsyncs. Making the view durable is this module's job, and
//! every use of the state store goes through it:
//!
//! * [`Checkpointer`] + `run` — one `netclustd-checkpoint` thread, at
//!   most one snapshot in flight. The follower reports what it applied
//!   ([`Checkpointer::note_applied`]) and whether the log is quiet
//!   ([`Checkpointer::consider`]); the thread snapshots when
//!   1. unsnapshotted log bytes reach `--checkpoint-bytes`,
//!   2. bytes are pending and the log has been quiet for a full poll
//!      interval, or
//!   3. the last snapshot or journal append failed: the store may refuse
//!      appends (`PersistError::Poisoned`, a reload's 503) until a snapshot
//!      succeeds, however quiet the log,
//!
//!   and (the duty bound) never starts a snapshot sooner after the
//!   previous one than the previous one took, nor sooner than
//!   `RETRY_AFTER` after a failed one, so persistence costs at most half
//!   a core however large the state or slow or broken the disk. Triggers
//!   that arrive while a snapshot is pending or in flight coalesce into
//!   the next one.
//! * `checkpoint_now` — the same snapshot, synchronously: after an
//!   accepted full-table swap, and (`final_checkpoint`) at shutdown.
//! * `apply_journaled` — the write-ahead step of a delta reload.
//!
//! Nothing is lost without a snapshot — a resumed daemon re-reads the log
//! from the last snapshot's cursor. Snapshots bound how much it re-reads,
//! and how exposed that replay is to the log being rotated away meanwhile.
//!
//! **Cursor invariant.** The log cursor is a field of the stream
//! (`StreamingClustering::feed_pos`), advanced by the call that applies
//! the bytes and exported by `export_state` — so a snapshot's `feed_pos`
//! is read under the same lock as the counts it describes, whichever
//! thread takes it.
//!
//! **Lock order** is store → stream everywhere: the checkpointer takes the
//! store mutex then the stream read lock (dropped before any disk I/O);
//! `apply_journaled` takes the store mutex then the stream write lock.
//! The mailbox's own lock is innermost: it may be taken under the store
//! mutex, and nothing else is taken while it is held.

#![allow(
    clippy::disallowed_types,
    reason = "the clock only paces *when* a snapshot is taken (the duty bound), never what it contains; the one clock-derived metric is skipped under --deterministic."
)]

use std::fmt;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use netclust_core::{JournalBatch, PatchBatchReport, PersistError, StateStore};
use netclust_rtable::TableDelta;

use crate::router::AppState;

/// Crash-safe persistence: the state store and the follower ↔
/// checkpointer mailbox. Present in [`AppState`] when `--state-dir` is
/// set.
#[derive(Debug)]
pub struct Checkpointer {
    /// The mutex serializes journal appends and checkpoints; only this
    /// module locks it, always before the stream.
    store: Mutex<StateStore>,
    /// `--checkpoint-bytes`: trigger 1's threshold.
    threshold: u64,
    /// Log bytes applied to the stream that no durable snapshot covers.
    /// Added to under the stream write lock and sampled under the read
    /// lock that exports the snapshot, so the sample is exactly what that
    /// snapshot covers.
    dirty: AtomicU64,
    /// Trigger 3: set by a failed snapshot or journal append, cleared by a
    /// snapshot that succeeds.
    failed: AtomicBool,
    ctl: Mutex<Ctl>,
    wake: Condvar,
}

/// The least time between a failed snapshot and the next attempt.
const RETRY_AFTER: Duration = Duration::from_millis(20);

#[derive(Debug, Default)]
struct Ctl {
    /// The follower's last report: no byte applied for a full poll
    /// interval.
    quiet: bool,
    /// The thread has claimed a trigger: it is waiting out the duty bound
    /// or writing. Further triggers coalesce.
    busy: bool,
    stop: bool,
}

impl Checkpointer {
    /// Persists into `store`, with trigger 1 at `threshold` unsnapshotted
    /// bytes.
    pub fn new(threshold: u64, store: StateStore) -> Self {
        Checkpointer {
            store: Mutex::new(store),
            threshold,
            dirty: AtomicU64::new(0),
            failed: AtomicBool::new(false),
            ctl: Mutex::new(Ctl::default()),
            wake: Condvar::new(),
        }
    }

    /// Unsnapshotted log bytes (the `serve.checkpoint.dirty_bytes` gauge).
    pub fn dirty_bytes(&self) -> u64 {
        // ordering: a statistic — it only feeds the trigger rule and a
        // gauge; the stream lock orders the one read that must be exact.
        self.dirty.load(Ordering::Relaxed)
    }

    /// Records `bytes` just applied. The caller must still hold the stream
    /// write lock it applied them under; see the `dirty` field.
    pub fn note_applied(&self, bytes: u64) {
        // ordering: the stream RwLock orders this against the exporter's
        // load; the counter itself publishes nothing.
        self.dirty.fetch_add(bytes, Ordering::Relaxed);
    }

    fn ctl(&self) -> std::sync::MutexGuard<'_, Ctl> {
        // Every update leaves `Ctl` valid, so a panicked holder cannot
        // have torn it.
        self.ctl.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn due(&self, ctl: &Ctl) -> bool {
        let dirty = self.dirty_bytes();
        // ordering: pairs with the `Release` stores of `failed`, which are
        // made from other threads than this rule's.
        dirty >= self.threshold || (ctl.quiet && dirty > 0) || self.failed.load(Ordering::Acquire)
    }

    /// Records a failed snapshot or journal append (trigger 3) and wakes
    /// the thread, which may be waiting with no other trigger to come.
    fn note_failure(&self) {
        // ordering: read by the checkpointer thread in `due`.
        self.failed.store(true, Ordering::Release);
        let ctl = self.ctl();
        if !ctl.busy {
            self.wake.notify_one();
        }
    }

    /// The follower's report after every turn: `quiet` once the log has
    /// produced nothing for a full poll interval. Wakes the checkpointer
    /// when a trigger holds; returns `true` when that trigger coalesced
    /// into a snapshot already pending or in flight.
    pub fn consider(&self, quiet: bool) -> bool {
        let mut ctl = self.ctl();
        ctl.quiet = quiet;
        if !self.due(&ctl) {
            return false;
        }
        if ctl.busy {
            return true;
        }
        self.wake.notify_one();
        false
    }

    /// Asks the thread to exit; an in-flight snapshot completes first.
    pub fn stop(&self) {
        self.ctl().stop = true;
        self.wake.notify_one();
    }

    /// Blocks until a trigger holds and the duty bound allows a start;
    /// `false` on stop. A trigger that stops holding while waiting (a
    /// synchronous checkpoint covered the bytes, or the log woke up below
    /// the threshold) is dropped, not served.
    fn wait_for_work(&self, not_before: Instant) -> bool {
        let mut ctl = self.ctl();
        loop {
            if ctl.stop {
                return false;
            }
            ctl.busy = self.due(&ctl);
            let wait = not_before.saturating_duration_since(Instant::now());
            ctl = match (ctl.busy, wait.is_zero()) {
                (true, true) => return true,
                (true, false) => {
                    let (guard, _) = self
                        .wake
                        .wait_timeout(ctl, wait)
                        .unwrap_or_else(|p| p.into_inner());
                    guard
                }
                (false, _) => self.wake.wait(ctl).unwrap_or_else(|p| p.into_inner()),
            };
        }
    }
}

/// The `netclustd-checkpoint` thread body. Returns when
/// [`Checkpointer::stop`] is called.
pub(crate) fn run(state: &AppState) {
    let Some(cp) = &state.checkpointer else {
        return;
    };
    let mut not_before = Instant::now();
    while cp.wait_for_work(not_before) {
        let started = Instant::now();
        // A failure is counted in `checkpoint_now` and raises trigger 3,
        // so the retry is the next pass of this loop, under the same duty
        // bound and never at once.
        let failed = checkpoint_now(state).is_err();
        let took = started.elapsed();
        not_before = Instant::now() + if failed { took.max(RETRY_AFTER) } else { took };
    }
}

/// Snapshots the stream — counts and log cursor exported together under
/// one read lock — into the state store, if one is configured.
#[deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]
pub(crate) fn checkpoint_now(state: &AppState) -> Result<(), String> {
    let Some(cp) = &state.checkpointer else {
        return Ok(());
    };
    snapshot(state, cp).inspect_err(|_| {
        state.metrics.checkpoint_errors.inc();
        cp.note_failure();
    })
}

fn snapshot(state: &AppState, cp: &Checkpointer) -> Result<(), String> {
    let mut store = cp
        .store
        .lock()
        .map_err(|_| "store lock poisoned".to_string())?;
    let started = Instant::now();
    // Only the row coding happens under the read lock, one walk over the
    // clients in address order coding each row straight into the
    // snapshot's file as it holds it; the file is made before, and the
    // prefix lists, the checksum and every disk flush come after, with
    // the follower free.
    let mut sampled = None;
    store
        .checkpoint_encoded(|to| {
            let stream =
                (state.stream.read()).map_err(|_| io::Error::other("state lock poisoned"))?;
            let locked = Instant::now();
            let encoded = stream.encode_state(to);
            sampled = Some((cp.dirty_bytes(), locked.elapsed()));
            encoded
        })
        .map_err(|e| format!("checkpoint failed: {e}"))?;
    let (covered, held) = sampled.unwrap_or_default();
    // ordering: statistic, as in `note_applied`; only this function
    // subtracts, serialized by the store mutex, and never more than it
    // sampled — the counter cannot underflow.
    cp.dirty.fetch_sub(covered, Ordering::Relaxed);
    // ordering: as in `Checkpointer::note_failure`. Cleared under the
    // store mutex, so a failure this snapshot did not cover is raised after
    // it, not lost.
    cp.failed.store(false, Ordering::Release);
    state.metrics.checkpoints.inc();
    if !state.deterministic {
        // Clock-derived: kept out of byte-stable `--deterministic` metrics.
        let ms = u64::try_from(started.elapsed().as_millis()).unwrap_or(u64::MAX);
        state.metrics.checkpoint_ms.record(ms);
        let us = u64::try_from(held.as_micros()).unwrap_or(u64::MAX);
        state.metrics.checkpoint_hold_us.record(us);
    }
    Ok(())
}

/// The shutdown checkpoint: a final snapshot, then the journal fsynced.
/// Call with the follower and the checkpointer thread already joined.
pub(crate) fn final_checkpoint(state: &AppState) -> Result<(), String> {
    checkpoint_now(state)?;
    let Some(cp) = &state.checkpointer else {
        return Ok(());
    };
    let mut store = cp
        .store
        .lock()
        .map_err(|_| "store lock poisoned".to_string())?;
    store.sync().map_err(|e| format!("final sync: {e}"))
}

/// Why [`apply_journaled`] did not apply a batch.
#[derive(Debug)]
pub(crate) enum ApplyError {
    /// A lock was poisoned by a panicked holder.
    Poisoned(&'static str),
    /// The journal append failed; the batch was **not** applied.
    Journal(PersistError),
}

impl fmt::Display for ApplyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApplyError::Poisoned(what) => write!(f, "{what} lock poisoned"),
            ApplyError::Journal(e) => write!(f, "journal append failed: {e}"),
        }
    }
}

/// Applies one delta batch under the write-ahead rule: journaled (when a
/// store is configured) *before* it is applied, both under the store
/// mutex, so a crash between the two replays the batch on recovery
/// instead of losing it and no snapshot can fall between them.
#[deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]
pub(crate) fn apply_journaled(
    state: &AppState,
    deltas: &[TableDelta],
) -> Result<PatchBatchReport, ApplyError> {
    let mut store = match &state.checkpointer {
        Some(cp) => Some((
            cp,
            cp.store.lock().map_err(|_| ApplyError::Poisoned("store"))?,
        )),
        None => None,
    };
    if let Some((cp, store)) = &mut store {
        let batch = JournalBatch {
            // ordering: monotone batch counter; the store mutex held
            // across append+apply already orders journal writes.
            feed_index: state.feed_index.fetch_add(1, Ordering::Relaxed),
            session_reset: false,
            deltas: deltas.to_vec(),
        };
        // A refused append wants a snapshot: one lifts a poisoned store
        // and rotates past a journal whose durability is in doubt.
        store
            .append_batch(&batch)
            .inspect_err(|_| cp.note_failure())
            .map_err(ApplyError::Journal)?;
    }
    let mut stream = state
        .stream
        .write()
        .map_err(|_| ApplyError::Poisoned("state"))?;
    Ok(stream.apply_deltas(deltas))
}

#[cfg(test)]
mod tests {
    use super::*;
    use netclust_core::FsyncPolicy;
    use netclust_testkit::TempDir;

    /// A checkpointer over an empty store in a fresh temp dir, and the
    /// dir's guard.
    fn mailbox(name: &str, threshold: u64) -> (Checkpointer, TempDir) {
        let dir = TempDir::new(&format!("netclustd-cp-{name}"));
        let store = StateStore::create(dir.join("state"), FsyncPolicy::Os).expect("store");
        (Checkpointer::new(threshold, store), dir)
    }

    #[test]
    fn the_two_triggers() {
        let (cp, _dir) = mailbox("triggers", 100);
        assert!(!cp.consider(true), "quiet with nothing pending is not work");
        assert!(!cp.due(&cp.ctl()));
        cp.note_applied(99);
        cp.consider(false);
        assert!(!cp.due(&cp.ctl()), "busy log, under the threshold");
        cp.consider(true);
        assert!(cp.due(&cp.ctl()), "pending bytes and a quiet log");
        cp.note_applied(1);
        cp.consider(false);
        assert!(cp.due(&cp.ctl()), "threshold reached, quiet or not");
    }

    #[test]
    fn a_failure_is_a_trigger_with_nothing_pending() {
        let (cp, _dir) = mailbox("failure", 100);
        assert!(!cp.due(&cp.ctl()));
        cp.note_failure();
        assert!(cp.due(&cp.ctl()), "a failure wants a snapshot");
        assert!(cp.wait_for_work(Instant::now()));
        // Only a snapshot that succeeds clears it.
        cp.failed.store(false, Ordering::Release);
        assert!(!cp.due(&cp.ctl()));
    }

    #[test]
    fn triggers_coalesce_while_one_is_claimed() {
        let (cp, _dir) = mailbox("coalesce", 1);
        cp.note_applied(5);
        assert!(!cp.consider(false), "first trigger wakes the thread");
        // The thread claims it and finds the duty bound already met.
        assert!(cp.wait_for_work(Instant::now()));
        assert!(
            cp.consider(false),
            "a trigger during the snapshot coalesces"
        );
    }

    #[test]
    fn the_duty_bound_delays_the_start_and_stop_ends_the_wait() {
        let (cp, _dir) = mailbox("duty", 1);
        cp.note_applied(5);
        let asked = Instant::now();
        let hold = Duration::from_millis(40);
        assert!(cp.wait_for_work(asked + hold));
        assert!(asked.elapsed() >= hold);

        // Nothing pending: the thread sleeps until stop wakes it.
        let (idle, _dir) = mailbox("idle", 1);
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| idle.wait_for_work(Instant::now()));
            idle.stop();
            assert!(!waiter.join().expect("waiter"), "stop means no more work");
        });
    }
}
