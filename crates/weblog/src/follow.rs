//! Poll-based tailing of a rotating access log.
//!
//! [`LogFollower`] is the daemon's input edge: it watches one log path,
//! returns only *complete* lines (a torn trailing line is carried until
//! its newline arrives), and survives the two rotation styles production
//! log managers use — rename-and-recreate (`mv access.log access.log.1 &&
//! touch access.log`) and copy-truncate. No inotify, no threads, no
//! dependencies: the caller polls on its own schedule, which is what a
//! deterministic daemon wants anyway.
//!
//! The follower's [`offset`](LogFollower::offset) is always the byte
//! position *after the last complete line handed out*, which makes it the
//! natural checkpoint cursor: persist it, and
//! [`resume_at`](LogFollower::resume_at) continues exactly where ingest
//! stopped with no line replayed and none lost (absent a rotation during
//! the downtime, which resets to the new file's start like any other
//! rotation).

use std::fs::{self, File};
use std::io::{self, ErrorKind, Read, Seek, SeekFrom};
use std::path::PathBuf;

/// Upper bound on bytes consumed per [`LogFollower::poll`] call, so one
/// poll against a huge backlog cannot stall the daemon's control loop.
/// The remainder is returned by subsequent polls. Also the longest
/// unterminated line the follower holds on to: past it the line is dropped.
pub const MAX_POLL_BYTES: u64 = 4 << 20;

/// What a freshly reserved chunk holds beyond the bytes its poll may read:
/// given back ([`LogFollower::recycle`]), it then also fits a poll that
/// carries a longer partial line than the one it was sized for.
const CARRY_ROOM: usize = 4 << 10;

/// Tails one (possibly rotating) log file; see the module docs.
#[derive(Debug)]
pub struct LogFollower {
    path: PathBuf,
    /// Bytes consumed from the current file, including any carried
    /// partial line.
    read_pos: u64,
    /// Trailing bytes after the last newline, held until completed.
    carry: Vec<u8>,
    /// Bytes of an over-long line discarded so far; its tail is still being
    /// skipped while this is non-zero.
    dropped: u64,
    /// Length of the file at the last poll's `stat` (0 while it is absent).
    file_len: u64,
    /// Identity of the file last read, for rename-rotation detection.
    file_id: Option<u64>,
    /// The last chunk handed out, given back ([`recycle`](Self::recycle))
    /// for the next poll to read into. Every poll takes it, so a follower
    /// whose log has gone quiet holds no buffer.
    spare: Vec<u8>,
}

impl LogFollower {
    /// Follows `path` from the beginning of the file.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        Self::resume_at(path, 0)
    }

    /// Follows `path` from a checkpointed [`offset`](Self::offset) —
    /// the resume half of the daemon's crash-recovery contract. An
    /// `offset` pointing mid-line (which a checkpoint taken from this
    /// type never produces) would misparse one line, nothing worse.
    pub fn resume_at(path: impl Into<PathBuf>, offset: u64) -> Self {
        LogFollower {
            path: path.into(),
            read_pos: offset,
            carry: Vec::new(),
            dropped: 0,
            file_len: 0,
            file_id: None,
            spare: Vec::new(),
        }
    }

    /// Gives back a chunk [`poll`](Self::poll) returned, once its lines
    /// are applied: while a backlog lasts the next poll reads into it
    /// instead of into 4 MiB of fresh pages. Optional — a chunk that is
    /// kept or dropped costs the next poll one allocation.
    pub fn recycle(&mut self, chunk: Vec<u8>) {
        self.spare = chunk;
    }

    /// Byte offset just past the last complete line returned: the value
    /// to checkpoint for [`resume_at`](Self::resume_at). Line-aligned even
    /// while an over-long line is being skipped (it points at its start).
    pub fn offset(&self) -> u64 {
        self.read_pos - self.carry.len() as u64 - self.dropped
    }

    /// How long the file was when the last [`poll`](Self::poll) looked;
    /// minus [`offset`](Self::offset), how far behind the follower is.
    pub fn file_len(&self) -> u64 {
        self.file_len
    }

    /// Reads whatever complete lines have appeared since the last poll.
    ///
    /// Returns `Ok(None)` when there is nothing new (including the file
    /// not existing yet — a rotation window). Returns `Ok(Some(bytes))`
    /// with a buffer that always ends in `\n` and contains only whole
    /// lines. Detects rotation by file identity change or truncation and
    /// restarts from the new file's beginning, dropping any carried
    /// partial line (it belonged to the rotated-away file).
    ///
    /// A line still unterminated after [`MAX_POLL_BYTES`] is dropped rather
    /// than carried without bound: the poll that gives up on it returns
    /// `InvalidData`, and later polls discard up to its newline.
    pub fn poll(&mut self) -> io::Result<Option<Vec<u8>>> {
        let mut spare = std::mem::take(&mut self.spare);
        self.file_len = 0;
        // Length and identity come from the handle that is read below, so
        // a rotation cannot slip between looking and reading.
        let file = match File::open(&self.path) {
            Ok(f) => f,
            Err(e) if e.kind() == ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        let meta = file.metadata()?;
        self.file_len = meta.len();
        let id = file_identity(&meta);
        let renamed = match (self.file_id, id) {
            (Some(old), Some(new)) => old != new,
            _ => false,
        };
        if renamed || meta.len() < self.read_pos {
            // Rename-and-recreate or copy-truncate: start over on the
            // fresh file. The old file's unterminated tail is gone.
            self.read_pos = 0;
            self.carry.clear();
            self.dropped = 0;
        }
        self.file_id = id;
        if meta.len() <= self.read_pos {
            return Ok(None);
        }

        // One buffer for the call: the carried partial line, then room
        // for everything this poll may read — the chunk the caller gave
        // back if that is big enough, else reserved once.
        let want = (meta.len() - self.read_pos).min(MAX_POLL_BYTES);
        let room = usize::try_from(want).unwrap_or(usize::MAX);
        let mut buf = std::mem::take(&mut self.carry);
        let carried = buf.len();
        if buf.capacity() - carried < room {
            if spare.capacity() >= carried.saturating_add(room) {
                spare.clear();
                spare.extend_from_slice(&buf);
                buf = spare;
            } else {
                buf.reserve_exact(room.saturating_add(CARRY_ROOM));
            }
        }
        let read = (&file)
            .seek(SeekFrom::Start(self.read_pos))
            .and_then(|_| (&file).take(want).read_to_end(&mut buf));
        if read.is_err() {
            // The next poll reads these bytes again.
            buf.truncate(carried);
        }
        let fresh = buf.len() - carried;
        if fresh == 0 {
            self.carry = buf;
            return read.map(|_| None);
        }
        self.read_pos += fresh as u64;

        if self.dropped > 0 {
            // The rest of a dropped line (nothing is carried while one is
            // being skipped): discard through its newline.
            match buf.iter().position(|&b| b == b'\n') {
                Some(nl) => {
                    buf.drain(..=nl);
                    self.dropped = 0;
                }
                None => {
                    self.dropped += buf.len() as u64;
                    return Ok(None);
                }
            }
        }
        match buf.iter().rposition(|&b| b == b'\n') {
            Some(last_nl) => {
                self.carry = buf.split_off(last_nl + 1);
                Ok(Some(buf))
            }
            None if buf.len() as u64 > MAX_POLL_BYTES => {
                self.dropped = buf.len() as u64;
                let why = format!("unterminated line over {MAX_POLL_BYTES} bytes dropped");
                Err(io::Error::new(ErrorKind::InvalidData, why))
            }
            None => {
                // Still mid-line: hold everything until the newline lands.
                self.carry = buf;
                Ok(None)
            }
        }
    }
}

#[cfg(unix)]
fn file_identity(meta: &fs::Metadata) -> Option<u64> {
    use std::os::unix::fs::MetadataExt;
    Some(meta.ino())
}

#[cfg(not(unix))]
fn file_identity(_meta: &fs::Metadata) -> Option<u64> {
    // Without a stable identity, rotation is still caught by the
    // length-shrink check in `poll`.
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs::OpenOptions;
    use std::io::Write as _;
    use std::path::Path;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("netclust-follow-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    fn append(path: &Path, bytes: &[u8]) {
        let mut f = OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .expect("open for append");
        f.write_all(bytes).expect("append");
    }

    #[test]
    fn delivers_complete_lines_and_carries_torn_ones() {
        let dir = tmpdir("torn");
        let log = dir.join("access.log");
        let mut fw = LogFollower::new(&log);
        assert_eq!(fw.poll().expect("absent file is not an error"), None);

        append(&log, b"one\ntwo\npartial");
        assert_eq!(fw.poll().expect("read"), Some(b"one\ntwo\n".to_vec()));
        assert_eq!(fw.offset(), 8);
        assert_eq!(fw.poll().expect("read"), None, "torn line is held");

        append(&log, b" line\nthree\n");
        assert_eq!(
            fw.poll().expect("read"),
            Some(b"partial line\nthree\n".to_vec())
        );
        assert_eq!(fw.offset(), 27);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rename_rotation_restarts_on_the_new_file() {
        let dir = tmpdir("rename");
        let log = dir.join("access.log");
        let mut fw = LogFollower::new(&log);
        append(&log, b"old-1\nold-2\n");
        assert_eq!(fw.poll().expect("read"), Some(b"old-1\nold-2\n".to_vec()));

        fs::rename(&log, dir.join("access.log.1")).expect("rotate");
        assert_eq!(fw.poll().expect("gone is quiet"), None);
        append(&log, b"new-1\n");
        assert_eq!(fw.poll().expect("read"), Some(b"new-1\n".to_vec()));
        assert_eq!(fw.offset(), 6, "offset is into the new file");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncation_rotation_restarts_from_zero() {
        let dir = tmpdir("trunc");
        let log = dir.join("access.log");
        let mut fw = LogFollower::new(&log);
        append(&log, b"aaaa\nbbbb\ncccc\n");
        assert!(fw.poll().expect("read").is_some());

        // copytruncate: same inode, length collapses.
        fs::write(&log, b"dd\n").expect("truncate+write");
        assert_eq!(fw.poll().expect("read"), Some(b"dd\n".to_vec()));
        assert_eq!(fw.offset(), 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_at_checkpoint_replays_nothing() {
        let dir = tmpdir("resume");
        let log = dir.join("access.log");
        append(&log, b"first\nsecond\n");
        let mut fw = LogFollower::new(&log);
        assert!(fw.poll().expect("read").is_some());
        let checkpoint = fw.offset();

        append(&log, b"third\n");
        let mut resumed = LogFollower::resume_at(&log, checkpoint);
        assert_eq!(resumed.poll().expect("read"), Some(b"third\n".to_vec()));
        assert_eq!(resumed.poll().expect("read"), None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_endless_line_is_dropped_not_carried_without_bound() {
        let dir = tmpdir("endless");
        let log = dir.join("access.log");
        append(&log, b"first\n");
        append(&log, &vec![b'x'; MAX_POLL_BYTES as usize + (1 << 20)]);
        let mut fw = LogFollower::new(&log);
        assert_eq!(fw.poll().expect("read"), Some(b"first\n".to_vec()));
        assert_eq!(fw.carry.len() as u64, MAX_POLL_BYTES - 6, "under the cap");
        let err = fw.poll().expect_err("past the cap: dropped, and said so");
        assert_eq!(err.kind(), ErrorKind::InvalidData);
        assert!(fw.carry.is_empty(), "nothing of the line is kept");
        assert_eq!(fw.offset(), 6, "cursor stays at the line's start");

        append(&log, b"still the same line");
        assert_eq!(fw.poll().expect("skipping"), None);
        assert_eq!(fw.offset(), 6);
        append(&log, b"\ngood\ntorn");
        assert_eq!(fw.poll().expect("read"), Some(b"good\n".to_vec()));
        assert_eq!(fw.offset(), fw.file_len() - 4, "just past the good line");
        let _ = fs::remove_dir_all(&dir);
    }

    /// Chunks given back are read into again, and what comes out is what
    /// comes out without: whole lines, in order, nothing of an old chunk.
    #[test]
    fn recycled_chunks_are_reused_and_deliver_the_same_lines() {
        let dir = tmpdir("recycle");
        let log = dir.join("access.log");
        // Lines of every length up to 300 bytes: the carried tail differs
        // from poll to poll. Three polls' worth.
        let mut blob = Vec::new();
        for i in 0.. {
            if blob.len() as u64 > 2 * MAX_POLL_BYTES + 1024 {
                break;
            }
            blob.extend(std::iter::repeat_n(b'a' + (i % 26) as u8, i % 300));
            blob.push(b'\n');
        }
        append(&log, &blob);
        let mut fw = LogFollower::new(&log);
        let (mut got, mut chunks, mut reused) = (Vec::new(), 0, 0);
        let mut last_buffer = std::ptr::null();
        while let Some(chunk) = fw.poll().expect("read") {
            assert_eq!(chunk.last(), Some(&b'\n'));
            got.extend_from_slice(&chunk);
            chunks += 1;
            reused += usize::from(chunk.as_ptr() == last_buffer);
            last_buffer = chunk.as_ptr();
            fw.recycle(chunk);
        }
        assert_eq!(got, blob);
        assert_eq!((chunks, reused), (3, 2), "every chunk after the first");
        assert_eq!(fw.spare.capacity(), 0, "a quiet follower holds no chunk");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn large_backlog_is_chunked_not_swallowed() {
        let dir = tmpdir("backlog");
        let log = dir.join("access.log");
        // Two polls' worth of 64-byte lines.
        let line = [b'x'; 63];
        let mut blob = Vec::new();
        while (blob.len() as u64) < MAX_POLL_BYTES + 1024 {
            blob.extend_from_slice(&line);
            blob.push(b'\n');
        }
        append(&log, &blob);
        let mut fw = LogFollower::new(&log);
        let mut got = Vec::new();
        while let Some(chunk) = fw.poll().expect("read") {
            assert_eq!(chunk.last(), Some(&b'\n'));
            got.extend_from_slice(&chunk);
        }
        assert_eq!(got, blob, "chunked polls reassemble the whole backlog");
        let _ = fs::remove_dir_all(&dir);
    }
}
