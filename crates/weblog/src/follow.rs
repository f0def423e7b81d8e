//! Tailing a rotating access log, woken by the log's own changes.
//!
//! [`LogFollower`] is the daemon's input edge: it watches one log path,
//! returns only *complete* lines (a torn trailing line is carried until
//! its newline arrives), and survives the two rotation styles production
//! log managers use — rename-and-recreate (`mv access.log access.log.1 &&
//! touch access.log`) and copy-truncate. The file is held open between
//! polls, so a rename rotation first hands out the lines appended to the
//! old file since the last poll, then moves on to the new one.
//!
//! [`poll`](LogFollower::poll) never blocks; the caller decides when to
//! look. [`wait`](LogFollower::wait) waits for the next change in one
//! `poll(2)` on a [`Watch`] of the log's *directory* (and of its target's,
//! for a symlink) and the caller's stop [`Waker`]. Where no watch can be
//! armed — no directory yet, a dangling link, inotify limits, another OS —
//! or no notices come (NFS, FUSE), the timeout is the freshness.
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
use std::os::unix::fs::MetadataExt;
use std::path::PathBuf;
use std::time::Duration;

use netclust_sys::{Wake, Waker, Watch};

/// Most bytes one [`LogFollower::poll`] reads; a backlog is handed out in
/// polls of this size. The daemon applies each poll under one hold of its
/// stream's write lock, so this also bounds how long a catch-up keeps a
/// reader waiting (a fraction of a millisecond of parsing), and what a
/// backlog costs in memory beyond the carried line.
pub const APPLY_SLICE: u64 = 64 << 10;

/// The longest unterminated line the follower holds on to, over as many
/// polls as it takes to arrive: past it the line is dropped.
pub const MAX_LINE_BYTES: u64 = 4 << 20;

/// What a freshly reserved chunk holds beyond the bytes its poll may read:
/// given back ([`LogFollower::recycle`]), it then also fits a poll that
/// carries a longer partial line than the one it was sized for.
const CARRY_ROOM: usize = 4 << 10;

/// Tails one (possibly rotating) log file; see the module docs.
#[derive(Debug)]
pub struct LogFollower {
    path: PathBuf,
    /// The file being read, opened by the first poll that finds the path
    /// and held until a rename rotation has been read to its end.
    file: Option<File>,
    /// Bytes consumed from the current file, including any carried
    /// partial line.
    read_pos: u64,
    /// Trailing bytes after the last newline, held until completed.
    carry: Vec<u8>,
    /// Bytes of an over-long line discarded so far; its tail is still being
    /// skipped while this is non-zero.
    dropped: u64,
    /// Length of the held file at the last poll (0 while there is none).
    file_len: u64,
    /// Inode of the held file, for rename-rotation detection.
    file_id: Option<u64>,
    /// The last chunk handed out, given back ([`recycle`](Self::recycle))
    /// for the next poll to read into. Every poll takes it, so a follower
    /// whose log has gone quiet holds no buffer.
    spare: Vec<u8>,
    /// The change notice [`wait`](Self::wait) sleeps on: armed by the
    /// first wait, dropped when it is spent.
    watch: Option<Watch>,
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
            file: None,
            read_pos: offset,
            carry: Vec::new(),
            dropped: 0,
            file_len: 0,
            file_id: None,
            spare: Vec::new(),
            watch: None,
        }
    }

    /// Gives back a chunk [`poll`](Self::poll) returned, once its lines
    /// are applied: while a backlog lasts the next poll reads into it
    /// instead of into fresh pages. Optional — a chunk that is kept or
    /// dropped costs the next poll one allocation.
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

    /// `true` when the last [`poll`](Self::poll) left bytes of the file
    /// unread: a backlog longer than one poll, or a line still arriving in
    /// slices. The next poll has work without waiting for a change.
    pub fn has_unread(&self) -> bool {
        self.read_pos < self.file_len
    }

    /// `true` while [`wait`](Self::wait) has a change notice armed, i.e.
    /// wakes at the log's next change rather than at its timeout.
    pub fn is_watching(&self) -> bool {
        self.watch.is_some()
    }

    /// Reads whatever complete lines have appeared since the last poll.
    ///
    /// Returns `Ok(None)` when there is nothing new (including the file
    /// not existing yet — a rotation window). Returns `Ok(Some(bytes))`
    /// with a buffer that always ends in `\n` and contains only whole
    /// lines: those that end within the next [`APPLY_SLICE`] bytes, after
    /// the partial line carried from the last poll. Rotation is a new file
    /// at the path (rename-and-recreate: the held file is read to its end
    /// first, then the new one from its beginning) or the held file
    /// shrinking (copy-truncate: read again from its beginning). Either
    /// way a carried partial line is dropped: it belonged to the
    /// rotated-away contents.
    ///
    /// A line still unterminated after [`MAX_LINE_BYTES`] is dropped rather
    /// than carried without bound: the poll that gives up on it returns
    /// `InvalidData`, and later polls discard up to its newline.
    pub fn poll(&mut self) -> io::Result<Option<Vec<u8>>> {
        let mut spare = std::mem::take(&mut self.spare);
        if self.file.is_some() {
            // Whatever the path names now, the held file is read to its
            // end first; only then is a rename looked for.
            if let Some(lines) = self.read_held(&mut spare)? {
                return Ok(Some(lines));
            }
            if !self.renamed()? {
                return Ok(None);
            }
            // The old file is read out: start over on the new one.
            self.file = None;
            self.read_pos = 0;
            self.carry.clear();
            self.dropped = 0;
        }
        self.file_len = 0;
        let file = match File::open(&self.path) {
            Ok(f) => f,
            Err(e) if e.kind() == ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        self.file_id = Some(file.metadata()?.ino());
        self.file = Some(file);
        self.read_held(&mut spare)
    }

    /// `true` when the path names a file other than the held one. A path
    /// that names nothing is not a rotation yet: the writer may still be
    /// appending to the renamed file until it opens the new one.
    fn renamed(&self) -> io::Result<bool> {
        match fs::metadata(&self.path) {
            Ok(meta) => Ok(self.file_id.is_some_and(|held| held != meta.ino())),
            Err(e) if e.kind() == ErrorKind::NotFound => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// The poll proper, on the held file: whole lines from `read_pos` on.
    fn read_held(&mut self, spare: &mut Vec<u8>) -> io::Result<Option<Vec<u8>>> {
        let Some(file) = &self.file else {
            return Ok(None);
        };
        // The length comes from the handle that is read below, so a
        // truncation cannot slip between looking and reading.
        let len = file.metadata()?.len();
        self.file_len = len;
        if len < self.read_pos {
            // Copy-truncate: start over on the shrunk file. Its old
            // unterminated tail is gone.
            self.read_pos = 0;
            self.carry.clear();
            self.dropped = 0;
        }
        if len <= self.read_pos {
            return Ok(None);
        }

        // One buffer for the call: the carried partial line, then room
        // for everything this poll may read — the chunk the caller gave
        // back if that is big enough, else reserved once (a line carried
        // over many polls grows it by doubling).
        let want = (len - self.read_pos).min(APPLY_SLICE);
        let room = usize::try_from(want).unwrap_or(usize::MAX);
        let mut buf = std::mem::take(&mut self.carry);
        let carried = buf.len();
        if buf.capacity() - carried < room {
            if spare.capacity() >= carried.saturating_add(room) {
                spare.clear();
                spare.extend_from_slice(&buf);
                buf = std::mem::take(spare);
            } else {
                buf.reserve(room.saturating_add(CARRY_ROOM));
            }
        }
        let read = (&*file)
            .seek(SeekFrom::Start(self.read_pos))
            .and_then(|_| (&*file).take(want).read_to_end(&mut buf));
        if read.is_err() {
            // The next poll reads these bytes again.
            buf.truncate(carried);
        }
        let fresh = buf.len() - carried;
        if fresh == 0 {
            // The file ended before its length said: nothing is unread.
            self.file_len = self.file_len.min(self.read_pos);
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
            None if buf.len() as u64 > MAX_LINE_BYTES => {
                self.dropped = buf.len() as u64;
                let why = format!("unterminated line over {MAX_LINE_BYTES} bytes dropped");
                Err(io::Error::new(ErrorKind::InvalidData, why))
            }
            None => {
                // Still mid-line: hold everything until the newline lands.
                self.carry = buf;
                Ok(None)
            }
        }
    }

    /// After a [`poll`](Self::poll) that returned nothing: waits until the
    /// log changes ([`Wake::Ready`]; see [`Watch::wait`]), `stop` is woken or
    /// `timeout` passes. A wait that arms the watch returns at once, so the
    /// poll after it sees what changed before the arming; a spent watch ends
    /// the wait. With no watch armable the wait is on `stop` alone.
    pub fn wait(&mut self, timeout: Duration, stop: &Waker) -> Wake {
        if self.watch.is_none() {
            self.watch = Watch::arm(&self.path);
            if self.watch.is_some() {
                return Wake::Ready;
            }
        }
        let Some(watch) = &mut self.watch else {
            return stop.wait(Some(timeout));
        };
        watch.wait(stop, timeout).unwrap_or_else(|| {
            self.watch = None;
            Wake::Ready
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs::OpenOptions;
    use std::io::Write as _;
    use std::path::Path;
    use std::time::Instant;

    use netclust_testkit::TempDir;

    fn append(path: &Path, bytes: &[u8]) {
        let mut f = OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .expect("open for append");
        f.write_all(bytes).expect("append");
    }

    /// Everything the follower has to hand out now, polled until `None`.
    fn drain(fw: &mut LogFollower) -> Vec<u8> {
        let mut got = Vec::new();
        while let Some(chunk) = fw.poll().expect("read") {
            got.extend_from_slice(&chunk);
        }
        got
    }

    #[test]
    fn delivers_complete_lines_and_carries_torn_ones() {
        let dir = TempDir::new("netclust-follow-torn");
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
    }

    #[test]
    fn rename_rotation_restarts_on_the_new_file() {
        let dir = TempDir::new("netclust-follow-rename");
        let log = dir.join("access.log");
        let mut fw = LogFollower::new(&log);
        append(&log, b"old-1\nold-2\n");
        assert_eq!(fw.poll().expect("read"), Some(b"old-1\nold-2\n".to_vec()));

        fs::rename(&log, dir.join("access.log.1")).expect("rotate");
        assert_eq!(fw.poll().expect("gone is quiet"), None);
        append(&log, b"new-1\n");
        assert_eq!(fw.poll().expect("read"), Some(b"new-1\n".to_vec()));
        assert_eq!(fw.offset(), 6, "offset is into the new file");
    }

    /// Lines appended after the last poll and before the rename are read
    /// from the held file before the new file is opened; the old file's
    /// unterminated tail is dropped as before.
    #[test]
    fn a_rename_rotation_hands_out_the_old_files_unread_tail_first() {
        let dir = TempDir::new("netclust-follow-tail");
        let log = dir.join("access.log");
        let mut fw = LogFollower::new(&log);
        append(&log, b"old-1\n");
        assert_eq!(fw.poll().expect("read"), Some(b"old-1\n".to_vec()));
        append(&log, b"old-2\ntorn");
        fs::rename(&log, dir.join("access.log.1")).expect("rotate");
        append(&log, b"new-1\n");
        assert_eq!(drain(&mut fw), b"old-2\nnew-1\n");
        assert_eq!(fw.offset(), 6, "offset is into the new file");

        // The writer keeps the renamed file until it reopens: while the
        // path names nothing, the held file is still followed.
        fs::rename(&log, dir.join("access.log.2")).expect("rotate again");
        append(&dir.join("access.log.2"), b"late\n");
        assert_eq!(drain(&mut fw), b"late\n");
        append(&log, b"newer\n");
        assert_eq!(drain(&mut fw), b"newer\n");
    }

    #[test]
    fn truncation_rotation_restarts_from_zero() {
        let dir = TempDir::new("netclust-follow-trunc");
        let log = dir.join("access.log");
        let mut fw = LogFollower::new(&log);
        append(&log, b"aaaa\nbbbb\ncccc\n");
        assert!(fw.poll().expect("read").is_some());

        // copytruncate: same inode, length collapses.
        fs::write(&log, b"dd\n").expect("truncate+write");
        assert_eq!(fw.poll().expect("read"), Some(b"dd\n".to_vec()));
        assert_eq!(fw.offset(), 3);
    }

    #[test]
    fn resume_at_checkpoint_replays_nothing() {
        let dir = TempDir::new("netclust-follow-resume");
        let log = dir.join("access.log");
        append(&log, b"first\nsecond\n");
        let mut fw = LogFollower::new(&log);
        assert!(fw.poll().expect("read").is_some());
        let checkpoint = fw.offset();

        append(&log, b"third\n");
        let mut resumed = LogFollower::resume_at(&log, checkpoint);
        assert_eq!(resumed.poll().expect("read"), Some(b"third\n".to_vec()));
        assert_eq!(resumed.poll().expect("read"), None);
    }

    /// A line past the cap is dropped once, said once, and skipped through
    /// its newline over as many polls as its tail takes; the cursor stays
    /// at its start throughout.
    #[test]
    fn an_endless_line_is_dropped_not_carried_without_bound() {
        let dir = TempDir::new("netclust-follow-endless");
        let log = dir.join("access.log");
        append(&log, b"first\n");
        append(&log, &vec![b'x'; MAX_LINE_BYTES as usize + (1 << 20)]);
        let mut fw = LogFollower::new(&log);
        assert_eq!(fw.poll().expect("read"), Some(b"first\n".to_vec()));
        let mut errors = 0;
        for _ in 0..(MAX_LINE_BYTES / APPLY_SLICE) * 2 {
            match fw.poll() {
                Ok(got) => assert_eq!(got, None, "nothing of the line is handed out"),
                Err(err) => {
                    assert_eq!(err.kind(), ErrorKind::InvalidData);
                    assert!(fw.carry.is_empty(), "nothing of the line is kept");
                    errors += 1;
                }
            }
            assert!(
                fw.carry.len() as u64 <= MAX_LINE_BYTES,
                "carried past the cap"
            );
            assert_eq!(fw.offset(), 6, "cursor stays at the line's start");
        }
        assert_eq!(errors, 1, "dropped, and said so, once");
        assert!(
            fw.dropped > MAX_LINE_BYTES,
            "the whole line is being skipped"
        );

        append(&log, b"still the same line");
        assert_eq!(fw.poll().expect("skipping"), None);
        assert_eq!(fw.offset(), 6);
        append(&log, b"\ngood\ntorn");
        assert_eq!(fw.poll().expect("read"), Some(b"good\n".to_vec()));
        assert_eq!(fw.offset(), fw.file_len() - 4, "just past the good line");
    }

    /// A line longer than a poll but under the cap is carried across the
    /// polls it spans and handed out once, whole; the cursor never points
    /// into it.
    #[test]
    fn a_line_longer_than_a_poll_arrives_whole_and_once() {
        let dir = TempDir::new("netclust-follow-long-line");
        let log = dir.join("access.log");
        let mut long = vec![b'L'; 1 << 20];
        long.push(b'\n');
        append(&log, b"before\n");
        append(&log, &long);
        append(&log, b"after\n");
        let end = fs::metadata(&log).expect("stat").len();
        let starts = [0, 7, 7 + long.len() as u64, end];
        let mut fw = LogFollower::new(&log);
        let (mut got, mut polls) = (Vec::new(), 0);
        while fw.offset() < end && polls < 100 {
            match fw.poll().expect("no error") {
                Some(chunk) => got.push(chunk),
                None => assert!(fw.has_unread(), "a poll mid-line says there is more"),
            }
            polls += 1;
            assert!(
                starts.contains(&fw.offset()),
                "offset {} in a line",
                fw.offset()
            );
        }
        assert!(
            polls as u64 > long.len() as u64 / APPLY_SLICE,
            "{polls} polls"
        );
        assert!(!fw.has_unread());
        let whole: Vec<&[u8]> = got.iter().map(Vec::as_slice).collect();
        assert_eq!(whole, [&b"before\n"[..], &[&long[..], b"after\n"].concat()]);
    }

    /// Numbered lines, `n` of them from `first` on, tagged `tag`.
    fn numbered(tag: &str, first: usize, n: usize) -> Vec<u8> {
        (first..first + n)
            .flat_map(|i| format!("{tag}-{i:08}-{}\n", "y".repeat(i % 97)).into_bytes())
            .collect()
    }

    /// A rename rotation in the middle of a backlog several polls long: the
    /// rest of the old file, then the new one, every line once, in order.
    #[test]
    fn a_rename_mid_backlog_loses_and_repeats_no_line() {
        let dir = TempDir::new("netclust-follow-rename-backlog");
        let log = dir.join("access.log");
        let old = numbered("old", 0, 4_000);
        assert!(old.len() as u64 > 3 * APPLY_SLICE);
        append(&log, &old);
        let mut fw = LogFollower::new(&log);
        let mut got = fw.poll().expect("read").expect("a first slice");
        assert!((got.len() as u64) < APPLY_SLICE + 64);
        fs::rename(&log, dir.join("access.log.1")).expect("rotate");
        let new = numbered("new", 0, 2_000);
        append(&log, &new);
        got.extend_from_slice(&drain(&mut fw));
        assert_eq!(got, [old, new.clone()].concat());
        assert_eq!(fw.offset(), new.len() as u64);
    }

    /// A copy-truncate in the middle of a backlog: what was handed out is a
    /// whole-line prefix of the old contents ending at the cursor (so the
    /// copy's unread part starts there), and the new contents follow whole,
    /// once; nothing of the old file is handed out again.
    #[test]
    fn a_copy_truncate_mid_backlog_repeats_no_line() {
        let dir = TempDir::new("netclust-follow-truncate-backlog");
        let log = dir.join("access.log");
        let old = numbered("old", 0, 3_000);
        append(&log, &old);
        let mut fw = LogFollower::new(&log);
        let mut before = Vec::new();
        for _ in 0..2 {
            before.extend_from_slice(&fw.poll().expect("read").expect("a slice"));
        }
        let cut = fw.offset();
        assert_eq!(before, old[..cut as usize], "a whole-line prefix");
        fs::copy(&log, dir.join("access.log.1")).expect("copy");
        fs::write(&log, b"").expect("truncate");
        let new = numbered("new", 0, 500);
        assert!(
            (new.len() as u64) < cut,
            "the truncation shows as a shorter file"
        );
        append(&log, &new);
        assert_eq!(drain(&mut fw), new);
        assert_eq!(fw.offset(), new.len() as u64);
    }

    /// A cursor checkpointed between two polls of a backlog resumes at the
    /// next line: the two followers together hand out the file once.
    #[test]
    fn resume_at_mid_backlog_continues_exactly() {
        let dir = TempDir::new("netclust-follow-resume-backlog");
        let log = dir.join("access.log");
        let lines = numbered("line", 0, 8_000);
        append(&log, &lines);
        let mut fw = LogFollower::new(&log);
        let mut got = Vec::new();
        for _ in 0..3 {
            got.extend_from_slice(&fw.poll().expect("read").expect("a slice"));
        }
        let checkpoint = fw.offset();
        assert!(checkpoint < lines.len() as u64 / 2, "mid-backlog");
        let mut resumed = LogFollower::resume_at(&log, checkpoint);
        got.extend_from_slice(&drain(&mut resumed));
        assert_eq!(got, lines);
    }

    /// Chunks given back are read into again, and what comes out is what
    /// comes out without: whole lines, in order, nothing of an old chunk.
    #[test]
    fn recycled_chunks_are_reused_and_deliver_the_same_lines() {
        let dir = TempDir::new("netclust-follow-recycle");
        let log = dir.join("access.log");
        // Lines of every length up to 300 bytes: the carried tail differs
        // from poll to poll. Three polls' worth.
        let mut blob = Vec::new();
        for i in 0.. {
            if blob.len() as u64 > 2 * APPLY_SLICE + 1024 {
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
    }

    #[test]
    fn large_backlog_is_chunked_not_swallowed() {
        let dir = TempDir::new("netclust-follow-backlog");
        let log = dir.join("access.log");
        // Two polls' worth of 64-byte lines.
        let line = [b'x'; 63];
        let mut blob = Vec::new();
        while (blob.len() as u64) < APPLY_SLICE + 1024 {
            blob.extend_from_slice(&line);
            blob.push(b'\n');
        }
        append(&log, &blob);
        let mut fw = LogFollower::new(&log);
        assert_eq!(drain(&mut fw), blob, "chunked polls reassemble the backlog");
    }

    /// A stop waker nothing wakes.
    fn idle() -> Waker {
        Waker::new().expect("waker")
    }

    /// Arms `fw`'s watch (consuming notices left from earlier changes),
    /// then runs `change` about 50 ms into `fw.wait(timeout, ..)`: how long
    /// after `change` returned the wait ended, and what it said. The watch
    /// is armed first, so the change is queued for the wait even if the
    /// wait has not begun by then.
    #[cfg(target_os = "linux")]
    fn wait_across(
        fw: &mut LogFollower,
        timeout: Duration,
        change: impl FnOnce() + Send,
    ) -> (Duration, Wake) {
        let stop = idle();
        while fw.wait(Duration::ZERO, &stop) == Wake::Ready {}
        assert!(fw.is_watching());
        std::thread::scope(|scope| {
            let changer = scope.spawn(|| {
                std::thread::sleep(Duration::from_millis(50));
                change();
                Instant::now()
            });
            let woke = fw.wait(timeout, &stop);
            let returned = Instant::now();
            let changed = changer.join().expect("changer");
            (returned.saturating_duration_since(changed), woke)
        })
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn an_append_ends_a_long_wait() {
        let dir = TempDir::new("netclust-follow-wake-append");
        let log = dir.join("access.log");
        append(&log, b"one\n");
        let mut fw = LogFollower::new(&log);
        assert_eq!(drain(&mut fw), b"one\n");
        let (after, woke) =
            wait_across(&mut fw, Duration::from_secs(10), || append(&log, b"two\n"));
        assert!(woke == Wake::Ready && fw.is_watching());
        assert!(after < Duration::from_millis(100), "woke {after:?} late");
        assert_eq!(drain(&mut fw), b"two\n");
    }

    /// The notices about a symlinked log name its target, in the target's
    /// directory: that is watched too, so an append through the link ends
    /// a wait as one to a plain file does. Swapping the link to a target
    /// elsewhere spends the watch, and the next one follows the new target.
    #[cfg(target_os = "linux")]
    #[test]
    fn a_symlinked_log_is_watched_where_its_target_is() {
        let dir = TempDir::new("netclust-follow-wake-symlink");
        let (links, logs) = (dir.join("a"), dir.join("b"));
        fs::create_dir_all(&links).expect("mkdir a");
        fs::create_dir_all(&logs).expect("mkdir b");
        let link = links.join("access.log");
        append(&logs.join("real.log"), b"one\n");
        std::os::unix::fs::symlink(logs.join("real.log"), &link).expect("symlink");
        let mut fw = LogFollower::new(&link);
        assert_eq!(drain(&mut fw), b"one\n");
        let (after, woke) =
            wait_across(&mut fw, Duration::from_secs(10), || append(&link, b"two\n"));
        assert!(woke == Wake::Ready && fw.is_watching());
        assert!(after < Duration::from_millis(100), "woke {after:?} late");
        assert_eq!(drain(&mut fw), b"two\n");

        let (after, woke) = wait_across(&mut fw, Duration::from_secs(10), || {
            fs::create_dir_all(dir.join("c")).expect("mkdir c");
            append(&dir.join("c").join("next.log"), b"");
            fs::remove_file(&link).expect("unlink");
            std::os::unix::fs::symlink(dir.join("c").join("next.log"), &link).expect("relink");
        });
        assert!(woke == Wake::Ready, "symlink swap");
        assert!(after < Duration::from_millis(100), "woke {after:?} late");
        assert_eq!(drain(&mut fw), b"");
        let (after, woke) = wait_across(&mut fw, Duration::from_secs(10), || {
            append(&link, b"three\n")
        });
        assert!(woke == Wake::Ready && fw.is_watching());
        assert!(after < Duration::from_millis(100), "woke {after:?} late");
        assert_eq!(drain(&mut fw), b"three\n");
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn both_rotations_end_a_long_wait() {
        let dir = TempDir::new("netclust-follow-wake-rotate");
        let log = dir.join("access.log");
        append(&log, b"one\n");
        let mut fw = LogFollower::new(&log);
        assert_eq!(drain(&mut fw), b"one\n");

        let (after, woke) = wait_across(&mut fw, Duration::from_secs(10), || {
            fs::rename(&log, dir.join("access.log.1")).expect("rename");
            append(&log, b"two\n");
        });
        assert!(woke == Wake::Ready, "rename-and-recreate");
        assert!(after < Duration::from_millis(100), "woke {after:?} late");
        assert_eq!(drain(&mut fw), b"two\n");

        let (after, woke) = wait_across(&mut fw, Duration::from_secs(10), || {
            fs::write(&log, b"3\n").expect("copy-truncate");
        });
        assert!(woke == Wake::Ready, "copy-truncate");
        assert!(after < Duration::from_millis(100), "woke {after:?} late");
        assert_eq!(drain(&mut fw), b"3\n");
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_sibling_write_does_not_end_a_wait() {
        let dir = TempDir::new("netclust-follow-wake-sibling");
        let log = dir.join("access.log");
        append(&log, b"one\n");
        let mut fw = LogFollower::new(&log);
        assert_eq!(drain(&mut fw), b"one\n");
        let timeout = Duration::from_millis(300);
        let started = Instant::now();
        let (_, woke) = wait_across(&mut fw, timeout, || {
            append(&dir.join("error.log"), b"noise\n");
            fs::rename(dir.join("error.log"), dir.join("error.log.1")).expect("rename");
        });
        assert!(woke == Wake::TimedOut && fw.is_watching());
        assert!(started.elapsed() >= timeout, "ended early");
    }

    /// No directory, no watch: the wait is the timeout. Once directory and
    /// file exist, the next wait arms a watch and an append ends it.
    #[test]
    fn a_follower_of_a_missing_directory_waits_out_its_timeout() {
        let dir = TempDir::new("netclust-follow-wake-late");
        let log = dir.join("not-yet").join("access.log");
        let mut fw = LogFollower::new(&log);
        let timeout = Duration::from_millis(100);
        let started = Instant::now();
        assert_eq!(fw.wait(timeout, &idle()), Wake::TimedOut);
        assert!(started.elapsed() >= timeout);
        assert!(!fw.is_watching());

        fs::create_dir(dir.join("not-yet")).expect("mkdir");
        append(&log, b"");
        assert_eq!(fw.poll().expect("empty"), None);
        #[cfg(target_os = "linux")]
        {
            let (after, woke) =
                wait_across(&mut fw, Duration::from_secs(10), || append(&log, b"one\n"));
            assert!(woke == Wake::Ready && fw.is_watching());
            assert!(after < Duration::from_millis(100), "woke {after:?} late");
            assert_eq!(drain(&mut fw), b"one\n");
        }
    }

    /// A change between the last poll and the arming of the watch is not
    /// missed: the wait that arms it returns at once.
    #[cfg(target_os = "linux")]
    #[test]
    fn a_change_before_the_watch_is_armed_ends_the_first_wait() {
        let dir = TempDir::new("netclust-follow-wake-early");
        let log = dir.join("access.log");
        let mut fw = LogFollower::new(&log);
        assert_eq!(fw.poll().expect("absent"), None);
        append(&log, b"one\n");
        let started = Instant::now();
        assert_eq!(fw.wait(Duration::from_secs(10), &idle()), Wake::Ready);
        assert!(started.elapsed() < Duration::from_secs(1));
        assert_eq!(drain(&mut fw), b"one\n");
    }

    /// A stop ends a long wait at once, watched or not, and every wait
    /// after it.
    #[test]
    fn a_stop_ends_a_long_wait_watched_or_not() {
        let dir = TempDir::new("netclust-follow-wake-stop");
        let log = dir.join("access.log");
        append(&log, b"one\n");
        let mut watched = LogFollower::new(&log);
        assert_eq!(drain(&mut watched), b"one\n");
        let mut unwatched = LogFollower::new(dir.join("not-yet").join("access.log"));
        let stop = idle();
        while watched.wait(Duration::ZERO, &stop) == Wake::Ready {}
        let long = Duration::from_secs(10);
        let started = Instant::now();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                std::thread::sleep(Duration::from_millis(50));
                stop.wake();
            });
            assert_eq!(watched.wait(long, &stop), Wake::Stopped);
        });
        assert_eq!(unwatched.wait(long, &stop), Wake::Stopped);
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "{:?}",
            started.elapsed()
        );
        assert!(!unwatched.is_watching());
    }
}
