//! Crash-safe persistence: checksummed snapshots plus a write-ahead delta
//! journal (DESIGN.md §16).
//!
//! A [`StateStore`] owns one state directory and rotates *generations*:
//! generation `g` is the pair `snapshot-{g:06}.snap` (one checksummed
//! [`StreamState`] frame) and `journal-{g:06}.wal` (an append-only log of
//! [`JournalBatch`] frames applied *since* that snapshot). The protocol:
//!
//! * **Snapshots are atomic**: written to a `.tmp` sibling, fsynced, then
//!   `rename(2)`d into place — a crash leaves either the old generation or
//!   the new one, never a half-written snapshot. A fresh journal with only
//!   its file header follows; a crash in the gap is benign (a snapshot
//!   with no journal recovers as "snapshot + zero batches", which is
//!   exactly the state the snapshot captured).
//! * **Journal appends are ordered before apply**: the caller appends a
//!   batch, then applies it in memory, so a crash at any point leaves the
//!   journal a (possibly torn) *superset* of the applied work and replay
//!   deterministically re-derives the in-memory state.
//! * **Recovery never panics**: it scans generations newest-first, skips
//!   snapshots that fail their checksum, replays the paired journal up to
//!   the first torn/corrupt frame, truncates the tail, and reports what it
//!   did in a typed [`RecoveryReport`]. Only a directory with no valid
//!   snapshot at all is [`PersistError::Unrecoverable`].
//!
//! Crash points are injectable through `core::faults`
//! ([`failpoints::PERSIST_JOURNAL_WRITE`] tears a frame in half,
//! [`failpoints::PERSIST_SNAPSHOT_RENAME`] strands the `.tmp`,
//! [`failpoints::PERSIST_FSYNC`] fails without syncing), so the recovery
//! path is exercised by the same multi-seed sweeps as the rest of the
//! pipeline.

#![deny(clippy::iter_over_hash_type, clippy::disallowed_methods)]

pub mod codec;
mod state;

pub use state::{
    decode_batch, decode_state, encode_batch, encode_state, EncodedState, FeedProgress,
    JournalBatch, StateDecodeError, StreamState,
};

use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write as _};
use std::os::unix::fs::FileExt as _;
use std::path::{Path, PathBuf};

use netclust_obs::{Counter, Obs};

use crate::faults::{failpoints, FaultInjector};
use crate::stream::RestoreError;
use codec::{
    decode_frame, decode_header, encode_frame, encode_header, frame_prefix, FrameCrc, FrameError,
    FILE_JOURNAL, FILE_SNAPSHOT, FRAME_OVERHEAD, HEADER_BYTES, REC_BATCH, REC_STATE,
};
use state::{decode_state_version, CODE_CHUNK};

/// Where a snapshot file's payload starts: after the file header and the
/// frame's `u32` length and record kind byte.
const PAYLOAD_AT: u64 = (HEADER_BYTES + 5) as u64;

/// The temp file of a snapshot being written, as the code that produces
/// its payload sees it: positions are the payload's. Only
/// [`StateStore::checkpoint_encoded`] hands one out.
pub struct SnapshotFile<'a> {
    file: &'a File,
}

impl SnapshotFile<'_> {
    /// Writes `bytes` at payload position `at`.
    pub(crate) fn write_at(&self, bytes: &[u8], at: usize) -> io::Result<()> {
        self.file.write_all_at(bytes, PAYLOAD_AT + at as u64)
    }

    /// The frame checksum of the first `len` payload bytes, as written.
    fn crc(&self, len: usize) -> io::Result<u32> {
        let mut crc = FrameCrc::new(REC_STATE);
        let (mut buf, mut at) = ([0u8; CODE_CHUNK], 0);
        while at < len {
            let chunk = buf.get_mut(..CODE_CHUNK.min(len - at)).unwrap_or_default();
            self.file.read_exact_at(chunk, PAYLOAD_AT + at as u64)?;
            crc.update(chunk);
            at += chunk.len();
        }
        Ok(crc.finish())
    }
}

/// Default journal-size threshold (bytes) past which
/// [`StateStore::wants_compaction`] suggests a snapshot-then-truncate
/// rotation.
pub const DEFAULT_COMPACT_THRESHOLD: u64 = 4 << 20;

/// Generations retained after a checkpoint.
const KEEP: u64 = 2;

/// When to fsync journal appends.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// fsync after every appended batch (strongest durability, slowest).
    #[default]
    EveryBatch,
    /// fsync after every `n` appended batches.
    EveryN(u64),
    /// Never fsync explicitly; the OS writes back on its own schedule.
    /// Crash durability is then bounded by the kernel's dirty-page timer.
    Os,
}

/// A [`FsyncPolicy`] spelling that did not parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FsyncParseError {
    /// The rejected spelling.
    pub found: String,
}

impl fmt::Display for FsyncParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let grammar = FsyncPolicy::GRAMMAR;
        write!(f, "bad fsync policy {:?}: expected {grammar}", self.found)
    }
}

impl std::error::Error for FsyncParseError {}

impl FsyncPolicy {
    /// The spellings [`FromStr`](std::str::FromStr) accepts — the one copy
    /// the parse error, `--help` and the README all print.
    pub const GRAMMAR: &'static str = "every_batch | every_n:<N> | os";
}

impl std::str::FromStr for FsyncPolicy {
    type Err = FsyncParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "every_batch" => Ok(FsyncPolicy::EveryBatch),
            "os" => Ok(FsyncPolicy::Os),
            _ => match s.strip_prefix("every_n:").and_then(|n| n.parse().ok()) {
                Some(n) if n > 0 => Ok(FsyncPolicy::EveryN(n)),
                _ => Err(FsyncParseError {
                    found: s.to_string(),
                }),
            },
        }
    }
}

/// Why a persistence operation failed.
#[derive(Debug)]
pub enum PersistError {
    /// A filesystem operation failed.
    Io {
        /// What the store was doing.
        op: &'static str,
        /// The file or directory involved.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// An armed failpoint fired (simulated crash); the on-disk state is
    /// whatever the real crash would have left.
    InjectedFault {
        /// The failpoint that fired.
        point: &'static str,
    },
    /// An earlier append failed, so the journal tail is torn, or a
    /// checkpoint failed after its snapshot was renamed into place, so
    /// recovery would not replay the open journal: either way further
    /// appends would be lost. A [`StateStore::checkpoint`] that succeeds
    /// rotates to a fresh journal and clears this.
    Poisoned,
    /// [`StateStore::append_batch`] before the first
    /// [`checkpoint`](StateStore::checkpoint): no journal generation is
    /// open yet.
    MissingJournal,
    /// A persisted file failed checksum or structural validation.
    Corrupt {
        /// The file.
        path: PathBuf,
        /// What was wrong.
        cause: FrameError,
    },
    /// No generation in the directory has a valid snapshot; the state
    /// cannot be reconstructed (CLI exit code 4).
    Unrecoverable {
        /// The state directory scanned.
        dir: PathBuf,
        /// Snapshot files inspected.
        scanned: u64,
    },
    /// A recovered snapshot decoded cleanly but its integrity invariants
    /// do not hold (stored totals disagree with recomputed ones).
    StateMismatch(RestoreError),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io { op, path, source } => {
                write!(f, "{op} {}: {source}", path.display())
            }
            PersistError::InjectedFault { point } => {
                write!(f, "injected fault at {point}")
            }
            PersistError::Poisoned => write!(
                f,
                "journal poisoned by an earlier failed append or checkpoint; checkpoint to rotate"
            ),
            PersistError::MissingJournal => {
                write!(f, "append before the first checkpoint: no journal is open")
            }
            PersistError::Corrupt { path, cause } => {
                write!(f, "{}: {cause}", path.display())
            }
            PersistError::Unrecoverable { dir, scanned } => write!(
                f,
                "no valid snapshot in {} ({scanned} scanned): state is unrecoverable",
                dir.display()
            ),
            PersistError::StateMismatch(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io { source, .. } => Some(source),
            PersistError::Corrupt { cause, .. } => Some(cause),
            PersistError::StateMismatch(cause) => Some(cause),
            _ => None,
        }
    }
}

impl From<RestoreError> for PersistError {
    fn from(e: RestoreError) -> Self {
        PersistError::StateMismatch(e)
    }
}

/// What recovery found and did.
#[derive(Debug)]
pub struct RecoveryReport {
    /// The generation recovered from.
    pub generation: u64,
    /// Newer generations skipped because their snapshot was invalid.
    pub generations_skipped: u64,
    /// Size of the snapshot file loaded.
    pub snapshot_bytes: u64,
    /// Valid journal bytes retained (header included).
    pub journal_bytes: u64,
    /// Torn/corrupt tail bytes truncated off the journal.
    pub truncated_bytes: u64,
    /// Why the journal scan stopped before a clean end-of-file, when it
    /// did (`None` = the whole journal was valid).
    pub tail: Option<FrameError>,
    /// The journaled batches, in append order, to replay through
    /// `StreamingClustering::apply_deltas`.
    pub batches: Vec<JournalBatch>,
}

/// Resolved `persist.*` counters; inert without
/// [`StateStore::obs`]. Counters only — no spans — so a crashed-and-
/// recovered run and an uninterrupted one differ *only* under the
/// `persist.` namespace in an observability dump.
#[derive(Debug, Clone, Default)]
struct PersistObs {
    snapshot_writes: Counter,
    snapshot_bytes: Counter,
    journal_appends: Counter,
    journal_bytes: Counter,
    append_errors: Counter,
    fsyncs: Counter,
}

impl PersistObs {
    fn resolve(obs: &Obs) -> Self {
        PersistObs {
            snapshot_writes: obs.counter("persist.snapshot.writes"),
            snapshot_bytes: obs.counter("persist.snapshot.bytes"),
            journal_appends: obs.counter("persist.journal.appends"),
            journal_bytes: obs.counter("persist.journal.bytes"),
            append_errors: obs.counter("persist.journal.append_errors"),
            fsyncs: obs.counter("persist.fsyncs"),
        }
    }
}

/// A durable state directory: rotating checksummed snapshots plus the
/// write-ahead journal of the current generation. See the module docs for
/// the crash-safety protocol.
#[derive(Debug)]
pub struct StateStore {
    dir: PathBuf,
    /// Current generation (0 = no checkpoint yet).
    seq: u64,
    fsync: FsyncPolicy,
    compact_threshold: u64,
    /// Open append handle for `journal-{seq}.wal`.
    journal: Option<File>,
    journal_len: u64,
    appends_since_sync: u64,
    poisoned: bool,
    faults: FaultInjector,
    metrics: PersistObs,
}

fn io_err(op: &'static str, path: &Path, source: std::io::Error) -> PersistError {
    PersistError::Io {
        op,
        path: path.to_path_buf(),
        source,
    }
}

impl StateStore {
    /// Opens `dir` as a **fresh** store, deleting any persisted state from
    /// previous runs (`snapshot-*.snap`, `journal-*.wal`, orphan `*.tmp`).
    /// Use [`recover`](Self::recover) to resume instead.
    pub fn create(dir: impl AsRef<Path>, fsync: FsyncPolicy) -> Result<Self, PersistError> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir).map_err(|e| io_err("create state dir", &dir, e))?;
        for entry in fs::read_dir(&dir).map_err(|e| io_err("scan state dir", &dir, e))? {
            let entry = entry.map_err(|e| io_err("scan state dir", &dir, e))?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            let stale = (name.starts_with("snapshot-") && name.ends_with(".snap"))
                || (name.starts_with("journal-") && name.ends_with(".wal"))
                || name.ends_with(".tmp");
            if stale {
                fs::remove_file(&path).map_err(|e| io_err("remove stale file", &path, e))?;
            }
        }
        Ok(StateStore {
            dir,
            seq: 0,
            fsync,
            compact_threshold: DEFAULT_COMPACT_THRESHOLD,
            journal: None,
            journal_len: 0,
            appends_since_sync: 0,
            poisoned: false,
            faults: FaultInjector::disabled(),
            metrics: PersistObs::default(),
        })
    }

    /// Sets the journal-size threshold for
    /// [`wants_compaction`](Self::wants_compaction).
    // Waived in tests/source_contracts.rs (`pub-fn-caller`): the
    // compaction tests of tests/persist_recovery.rs set a small one.
    pub fn compact_threshold(mut self, bytes: u64) -> Self {
        self.compact_threshold = bytes.max(1);
        self
    }

    /// Resolves `persist.*` counters against `obs`.
    pub fn obs(mut self, obs: &Obs) -> Self {
        self.metrics = PersistObs::resolve(obs);
        self
    }

    /// Arms a fault injector on the store's `persist.*` failpoints.
    pub fn with_faults(mut self, faults: FaultInjector) -> Self {
        self.faults = faults;
        self
    }

    /// Takes the armed injector back (draw counts included), leaving the
    /// store fault-free — how the kill-and-restart harness carries one
    /// flaky-disk model across simulated process lifetimes.
    // Waived in tests/source_contracts.rs (`pub-fn-caller`): only the
    // kill-and-restart tests hand an injector from one store to the next.
    pub fn take_faults(&mut self) -> FaultInjector {
        std::mem::replace(&mut self.faults, FaultInjector::disabled())
    }

    /// The state directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Current generation number (0 before the first checkpoint).
    pub fn generation(&self) -> u64 {
        self.seq
    }

    /// `true` once the journal has outgrown the compaction threshold and
    /// the caller should [`checkpoint`](Self::checkpoint) to truncate it.
    pub fn wants_compaction(&self) -> bool {
        self.journal_len >= self.compact_threshold
    }

    /// Path of generation `seq`'s snapshot.
    pub fn snapshot_path(&self, seq: u64) -> PathBuf {
        self.dir.join(format!("snapshot-{seq:06}.snap"))
    }

    /// Path of generation `seq`'s journal.
    pub fn journal_path(&self, seq: u64) -> PathBuf {
        self.dir.join(format!("journal-{seq:06}.wal"))
    }

    fn fsync_file(&mut self, file: &File, path: &Path) -> Result<(), PersistError> {
        if self.faults.should_fire(failpoints::PERSIST_FSYNC) {
            return Err(PersistError::InjectedFault {
                point: failpoints::PERSIST_FSYNC,
            });
        }
        file.sync_all().map_err(|e| io_err("fsync", path, e))?;
        self.metrics.fsyncs.inc();
        Ok(())
    }

    /// Writes a new snapshot generation atomically and rotates to a fresh
    /// journal: temp write → fsync → rename → directory fsync, then a new
    /// `journal-{g}.wal` holding only its header. Returns the new
    /// generation number. Old generations beyond the retention count are
    /// pruned. On error the store stays on the previous generation; a
    /// stranded `snapshot-{g}.snap` without a journal recovers as that
    /// snapshot plus zero batches, which is exactly the state it captured.
    /// An error after the rename also poisons the store until a checkpoint
    /// succeeds: recovery now starts from the new snapshot, so an append
    /// to the previous generation's journal would be acknowledged and then
    /// never replayed.
    pub fn checkpoint(&mut self, state: &StreamState) -> Result<u64, PersistError> {
        let payload = encode_state(state);
        self.write_snapshot(|to| to.write_at(&payload, 0).map(|()| payload.len()))
    }

    /// [`checkpoint`](Self::checkpoint) of a state that `encode` codes
    /// where it lives (`StreamingClustering::encode_state`), straight into
    /// the snapshot's temp file: the client rows as `encode` walks them,
    /// through a bounded stack buffer. A caller encoding under a lock
    /// takes it inside `encode`, so it is held for that one walk; the
    /// rest of the payload — the prefix lists coded from the table
    /// generation the state holds, then let go — the checksum and every
    /// fsync come after it.
    pub fn checkpoint_encoded(
        &mut self,
        encode: impl FnOnce(&SnapshotFile<'_>) -> io::Result<EncodedState>,
    ) -> Result<u64, PersistError> {
        self.write_snapshot(|to| encode(to)?.finish(to))
    }

    /// The steps of [`checkpoint`](Self::checkpoint) around a payload that
    /// `write` puts into the temp file, at payload positions, returning
    /// its length: the file header and the frame's prefix are written
    /// after it, and its checksum read back from the file, a
    /// [`CODE_CHUNK`] at a time.
    fn write_snapshot(
        &mut self,
        write: impl FnOnce(&SnapshotFile<'_>) -> io::Result<usize>,
    ) -> Result<u64, PersistError> {
        let next = self.seq + 1;
        let tmp = self.dir.join(format!("snapshot-{next:06}.tmp"));
        let snap = self.snapshot_path(next);
        // Read as well as written: the checksum is read back.
        let file = (OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true))
        .open(&tmp)
        .map_err(|e| io_err("create snapshot temp", &tmp, e))?;
        let to = SnapshotFile { file: &file };
        let payload_len = write(&to)
            .and_then(|len| {
                file.write_all_at(&encode_header(FILE_SNAPSHOT), 0)?;
                file.write_all_at(&frame_prefix(REC_STATE, len), HEADER_BYTES as u64)?;
                let crc = to.crc(len)?;
                to.write_at(&crc.to_le_bytes(), len)?;
                Ok(len)
            })
            .map_err(|e| io_err("write snapshot", &tmp, e))?;
        self.fsync_file(&file, &tmp)?;
        drop(file);
        // The injectable crash between the durable temp file and the
        // rename: recovery must land on the previous generation and the
        // orphan `.tmp` must be inert.
        if self.faults.should_fire(failpoints::PERSIST_SNAPSHOT_RENAME) {
            return Err(PersistError::InjectedFault {
                point: failpoints::PERSIST_SNAPSHOT_RENAME,
            });
        }
        fs::rename(&tmp, &snap).map_err(|e| io_err("rename snapshot", &snap, e))?;
        let journal = self
            .start_journal(next)
            .inspect_err(|_| self.poisoned = true)?;

        self.seq = next;
        self.journal = Some(journal);
        self.journal_len = HEADER_BYTES as u64;
        self.appends_since_sync = 0;
        self.poisoned = false;
        self.metrics.snapshot_writes.inc();
        self.metrics
            .snapshot_bytes
            .add((HEADER_BYTES + FRAME_OVERHEAD + payload_len) as u64);
        self.prune();
        Ok(next)
    }

    /// The durable half of a checkpoint after its rename: the rename made
    /// durable by a directory fsync, then generation `next`'s journal
    /// holding only its header, fsynced.
    fn start_journal(&mut self, next: u64) -> Result<File, PersistError> {
        let dir = File::open(&self.dir).map_err(|e| io_err("open state dir", &self.dir, e))?;
        let dir_path = self.dir.clone();
        self.fsync_file(&dir, &dir_path)?;
        let jpath = self.journal_path(next);
        let mut journal = File::create(&jpath).map_err(|e| io_err("create journal", &jpath, e))?;
        journal
            .write_all(&encode_header(FILE_JOURNAL))
            .map_err(|e| io_err("write journal header", &jpath, e))?;
        self.fsync_file(&journal, &jpath)?;
        Ok(journal)
    }

    /// Removes generations older than the retention window. Best-effort:
    /// a prune failure never fails the checkpoint that triggered it.
    fn prune(&self) {
        let Some(oldest_kept) = self.seq.checked_sub(KEEP - 1) else {
            return;
        };
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return;
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            let seq = name
                .strip_prefix("snapshot-")
                .and_then(|r| r.strip_suffix(".snap"))
                .or_else(|| {
                    name.strip_prefix("journal-")
                        .and_then(|r| r.strip_suffix(".wal"))
                })
                .and_then(|digits| digits.parse::<u64>().ok());
            if seq.is_some_and(|s| s < oldest_kept) {
                let _ = fs::remove_file(entry.path());
            }
        }
    }

    /// Appends one batch frame to the journal, fsyncing per the store's
    /// [`FsyncPolicy`]. Call *before* applying the batch in memory: the
    /// journal must be a superset of the applied work for replay to
    /// reconstruct it. A write failure tears the frame on disk and
    /// poisons the store: until the next checkpoint, appends (which would
    /// sit unreachable past the tear) return [`PersistError::Poisoned`].
    pub fn append_batch(&mut self, batch: &JournalBatch) -> Result<(), PersistError> {
        if self.poisoned {
            return Err(PersistError::Poisoned);
        }
        let Some(mut journal) = self.journal.take() else {
            return Err(PersistError::MissingJournal);
        };
        let result = self.append_inner(&mut journal, batch);
        self.journal = Some(journal);
        if matches!(
            result,
            Err(PersistError::InjectedFault {
                point: failpoints::PERSIST_JOURNAL_WRITE
            }) | Err(PersistError::Io { .. })
        ) {
            self.poisoned = true;
            self.metrics.append_errors.inc();
        }
        result
    }

    fn append_inner(
        &mut self,
        journal: &mut File,
        batch: &JournalBatch,
    ) -> Result<(), PersistError> {
        let jpath = self.journal_path(self.seq);
        let mut frame = Vec::new();
        encode_frame(&mut frame, REC_BATCH, &encode_batch(batch));
        // The injectable torn write: half the frame lands on disk — a
        // realistic mid-write crash — and recovery must stop exactly at
        // the snapshot-plus-prior-batches boundary.
        if self.faults.should_fire(failpoints::PERSIST_JOURNAL_WRITE) {
            let half = frame.len() / 2;
            let torn = frame.get(..half).unwrap_or(&frame);
            let _ = journal.write_all(torn);
            let _ = journal.flush();
            self.journal_len += half as u64;
            return Err(PersistError::InjectedFault {
                point: failpoints::PERSIST_JOURNAL_WRITE,
            });
        }
        journal
            .write_all(&frame)
            .map_err(|e| io_err("append journal frame", &jpath, e))?;
        self.journal_len += frame.len() as u64;
        self.metrics.journal_appends.inc();
        self.metrics.journal_bytes.add(frame.len() as u64);
        match self.fsync {
            FsyncPolicy::EveryBatch => self.fsync_file(journal, &jpath)?,
            FsyncPolicy::EveryN(n) => {
                self.appends_since_sync += 1;
                if self.appends_since_sync >= n {
                    self.fsync_file(journal, &jpath)?;
                    self.appends_since_sync = 0;
                }
            }
            FsyncPolicy::Os => {}
        }
        Ok(())
    }

    /// Explicitly fsyncs the journal (end-of-run flush under
    /// [`FsyncPolicy::Os`] / [`FsyncPolicy::EveryN`]).
    pub fn sync(&mut self) -> Result<(), PersistError> {
        let Some(journal) = self.journal.take() else {
            return Ok(());
        };
        let jpath = self.journal_path(self.seq);
        let result = self.fsync_file(&journal, &jpath);
        self.journal = Some(journal);
        self.appends_since_sync = 0;
        result
    }

    /// Reopens `dir`, loading the newest valid snapshot and replaying its
    /// journal through the first torn or corrupt frame (the tail past it
    /// is truncated off). Returns the store positioned on that generation
    /// with the journal open for further appends, the decoded state, and a
    /// [`RecoveryReport`] of everything it found. Never panics on
    /// arbitrary file contents; a directory with no valid snapshot is
    /// [`PersistError::Unrecoverable`].
    pub fn recover(
        dir: impl AsRef<Path>,
        fsync: FsyncPolicy,
    ) -> Result<(Self, StreamState, RecoveryReport), PersistError> {
        let dir = dir.as_ref().to_path_buf();
        let mut seqs: Vec<u64> = Vec::new();
        for entry in fs::read_dir(&dir).map_err(|e| io_err("scan state dir", &dir, e))? {
            let entry = entry.map_err(|e| io_err("scan state dir", &dir, e))?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if let Some(seq) = name
                .strip_prefix("snapshot-")
                .and_then(|r| r.strip_suffix(".snap"))
                .and_then(|digits| digits.parse::<u64>().ok())
            {
                seqs.push(seq);
            }
        }
        seqs.sort_unstable();

        let mut scanned = 0u64;
        let mut chosen: Option<(u64, StreamState, u64)> = None;
        for &seq in seqs.iter().rev() {
            scanned += 1;
            let path = dir.join(format!("snapshot-{seq:06}.snap"));
            match read_snapshot(&path) {
                Ok((state, bytes)) => {
                    chosen = Some((seq, state, bytes));
                    break;
                }
                // An invalid snapshot (torn temp promoted by a buggy tool,
                // bit rot, version skew): skip to the older generation.
                Err(_) => continue,
            }
        }
        let Some((seq, state, snapshot_bytes)) = chosen else {
            return Err(PersistError::Unrecoverable { dir, scanned });
        };

        let jpath = dir.join(format!("journal-{seq:06}.wal"));
        let (batches, journal_bytes, truncated_bytes, tail) = recover_journal(&jpath)?;

        let journal = OpenOptions::new()
            .append(true)
            .open(&jpath)
            .map_err(|e| io_err("reopen journal", &jpath, e))?;
        let store = StateStore {
            dir,
            seq,
            fsync,
            compact_threshold: DEFAULT_COMPACT_THRESHOLD,
            journal: Some(journal),
            journal_len: journal_bytes,
            appends_since_sync: 0,
            poisoned: false,
            faults: FaultInjector::disabled(),
            metrics: PersistObs::default(),
        };
        let report = RecoveryReport {
            generation: seq,
            generations_skipped: scanned - 1,
            snapshot_bytes,
            journal_bytes,
            truncated_bytes,
            tail,
            batches,
        };
        Ok((store, state, report))
    }
}

/// Reads and fully validates one snapshot file: header, the single
/// checksummed `REC_STATE` frame, structural decode in the layout of the
/// header's format version, and no trailing bytes.
fn read_snapshot(path: &Path) -> Result<(StreamState, u64), PersistError> {
    let bytes = fs::read(path).map_err(|e| io_err("read snapshot", path, e))?;
    let corrupt = |cause: FrameError| PersistError::Corrupt {
        path: path.to_path_buf(),
        cause,
    };
    let header = decode_header(&bytes).map_err(corrupt)?;
    if header.kind != FILE_SNAPSHOT {
        return Err(corrupt(FrameError::BadFileKind { found: header.kind }));
    }
    let body = bytes.get(HEADER_BYTES..).unwrap_or(&[]);
    let frame = decode_frame(body, HEADER_BYTES as u64)
        .map_err(corrupt)?
        .ok_or(corrupt(FrameError::TornFrame {
            offset: HEADER_BYTES as u64,
            need: 1,
            have: 0,
        }))?;
    if frame.kind != REC_STATE {
        return Err(corrupt(FrameError::BadRecordKind {
            offset: HEADER_BYTES as u64,
            found: frame.kind,
        }));
    }
    if frame.span != body.len() {
        return Err(corrupt(FrameError::Malformed {
            offset: (HEADER_BYTES + frame.span) as u64,
            what: "trailing bytes after snapshot frame",
        }));
    }
    let state = decode_state_version(frame.payload, header.version).map_err(|e| {
        corrupt(FrameError::Malformed {
            offset: HEADER_BYTES as u64,
            what: e.what,
        })
    })?;
    Ok((state, bytes.len() as u64))
}

/// Scans a journal file, decoding batches until the first torn or corrupt
/// frame, then truncates the file to the last valid boundary. A missing
/// journal (crash between snapshot rename and journal creation) recovers
/// as empty; a journal with an unreadable header is reset to just a
/// header.
fn recover_journal(
    path: &Path,
) -> Result<(Vec<JournalBatch>, u64, u64, Option<FrameError>), PersistError> {
    let bytes = match fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            let mut f = File::create(path).map_err(|e| io_err("create journal", path, e))?;
            f.write_all(&encode_header(FILE_JOURNAL))
                .map_err(|e| io_err("write journal header", path, e))?;
            return Ok((Vec::new(), HEADER_BYTES as u64, 0, None));
        }
        Err(e) => return Err(io_err("read journal", path, e)),
    };

    let mut batches = Vec::new();
    let mut tail: Option<FrameError> = None;
    // Journals are laid out alike in every version read.
    let mut valid_end = match decode_header(&bytes) {
        Ok(header) if header.kind == FILE_JOURNAL => HEADER_BYTES as u64,
        Ok(header) => {
            tail = Some(FrameError::BadFileKind { found: header.kind });
            0
        }
        Err(cause) => {
            tail = Some(cause);
            0
        }
    };
    if tail.is_none() {
        let mut offset = HEADER_BYTES;
        loop {
            let rest = bytes.get(offset..).unwrap_or(&[]);
            match decode_frame(rest, offset as u64) {
                Ok(None) => break,
                Ok(Some(frame)) => match decode_batch(frame.payload) {
                    Ok(batch) => {
                        batches.push(batch);
                        offset += frame.span;
                        valid_end = offset as u64;
                    }
                    Err(e) => {
                        tail = Some(FrameError::Malformed {
                            offset: offset as u64,
                            what: e.what,
                        });
                        break;
                    }
                },
                Err(cause) => {
                    tail = Some(cause);
                    break;
                }
            }
        }
    }

    let truncated = bytes.len() as u64 - valid_end;
    if truncated > 0 || valid_end == 0 {
        let file = OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| io_err("truncate journal", path, e))?;
        file.set_len(valid_end)
            .map_err(|e| io_err("truncate journal", path, e))?;
        if valid_end == 0 {
            // The header itself was unreadable: rebuild an empty journal.
            let mut f = OpenOptions::new()
                .write(true)
                .open(path)
                .map_err(|e| io_err("rewrite journal header", path, e))?;
            f.write_all(&encode_header(FILE_JOURNAL))
                .map_err(|e| io_err("rewrite journal header", path, e))?;
            return Ok((Vec::new(), HEADER_BYTES as u64, truncated, tail));
        }
    }
    Ok((batches, valid_end, truncated, tail))
}
