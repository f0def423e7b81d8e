//! Chunked, zero-copy access to log files for parallel ingest.
//!
//! Two pieces:
//!
//! * [`split_lines`] / [`cut_lines`] cut a byte buffer into roughly equal
//!   chunks that always end on line boundaries, reading only the bytes
//!   around each cut — so parallel workers can parse independent chunks, and
//!   concatenating per-chunk outputs in chunk order reproduces the serial
//!   result exactly. Chunks carry no line numbers: a worker numbers its
//!   chunk's lines from 0 and the caller offsets them by the line counts
//!   of the chunks before it, once those are known.
//! * [`LogData`] holds a log file's bytes either as a private read-only
//!   `mmap` (Unix, 64-bit — no copy, the page cache is the buffer) or as
//!   an owned heap buffer (fallback everywhere else, and for empty
//!   files). Either way, [`LogData::bytes`] is one contiguous `&[u8]` the
//!   zero-copy parser can borrow from, and [`LogData::release`] hands the
//!   pages of a scanned piece back to the kernel so a mapped log never
//!   has to be resident all at once.
//!
//! The `mmap` binding is a handful of `extern "C"` declarations rather
//! than a `libc` dependency: the workspace is offline and the only
//! platform this targets is the 64-bit Unix the toolchain itself runs on.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use std::fs::File;
use std::io;
use std::path::Path;

/// One line-aligned piece of a larger buffer.
#[derive(Debug, Clone, Copy)]
pub struct Chunk<'a> {
    /// The chunk's bytes; ends with `\n` except possibly the last chunk.
    pub data: &'a [u8],
}

/// Splits `data` into chunks of at most about `max_bytes` (always at
/// least one full line), cut on `\n` boundaries. Every byte lands in
/// exactly one chunk, in order. Empty input produces no chunks.
pub fn split_lines(data: &[u8], max_bytes: usize) -> Vec<Chunk<'_>> {
    cut_lines(data, max_bytes).collect()
}

/// [`split_lines`] one chunk at a time. Finding a cut reads only the
/// line straddling the `max_bytes` mark — about a page of a mapped file —
/// but the kernel maps the whole page-cache folio under a touched page,
/// which can be megabytes: a caller that must not let the cutting itself
/// make a mapped file resident [`release`](LogData::release)s each chunk
/// as it is cut.
pub fn cut_lines(data: &[u8], max_bytes: usize) -> impl Iterator<Item = Chunk<'_>> {
    let max_bytes = max_bytes.max(1);
    let mut start = 0usize;
    std::iter::from_fn(move || {
        if start >= data.len() {
            return None;
        }
        let tentative = (start + max_bytes).min(data.len());
        // Extend to the end of the current line (inclusive newline). The
        // search starts one byte early so a chunk already ending in `\n`
        // is not extended by a line.
        let search_from = tentative - 1;
        #[allow(clippy::indexing_slicing, reason = "search_from = tentative - 1 < data.len().")]
        let end = match data[search_from..].iter().position(|&b| b == b'\n') {
            Some(i) => search_from + i + 1,
            None => data.len(),
        };
        #[allow(clippy::indexing_slicing, reason = "start < end <= data.len().")]
        let chunk = Chunk {
            data: &data[start..end],
        };
        start = end;
        Some(chunk)
    })
}

/// A log file's contents: memory-mapped when the platform allows,
/// otherwise read into an owned buffer. Dereferences to one contiguous
/// byte slice either way.
pub struct LogData {
    inner: Inner,
}

enum Inner {
    #[cfg(all(unix, target_pointer_width = "64"))]
    Mapped(mapped::Map),
    Owned(Vec<u8>),
}

impl LogData {
    /// Opens `path`, preferring a read-only private `mmap`; falls back to
    /// a buffered read when mapping is unsupported or fails (e.g. empty
    /// files, special files, non-Unix platforms).
    pub fn open(path: impl AsRef<Path>) -> io::Result<LogData> {
        let path = path.as_ref();
        #[cfg(all(unix, target_pointer_width = "64"))]
        {
            if let Ok(file) = File::open(path) {
                if let Some(map) = mapped::Map::new(&file) {
                    return Ok(LogData {
                        inner: Inner::Mapped(map),
                    });
                }
            }
        }
        Self::read(path)
    }

    /// Reads `path` into an owned buffer, never mapping.
    pub fn read(path: impl AsRef<Path>) -> io::Result<LogData> {
        Ok(LogData {
            inner: Inner::Owned(std::fs::read(path)?),
        })
    }

    /// Wraps an in-memory buffer (tests, synthetic corpora).
    pub fn from_vec(data: Vec<u8>) -> LogData {
        LogData {
            inner: Inner::Owned(data),
        }
    }

    /// `true` when the contents are memory-mapped rather than copied.
    pub fn is_mapped(&self) -> bool {
        match &self.inner {
            #[cfg(all(unix, target_pointer_width = "64"))]
            Inner::Mapped(_) => true,
            Inner::Owned(_) => false,
        }
    }

    /// The file contents as one contiguous slice.
    pub fn bytes(&self) -> &[u8] {
        match &self.inner {
            #[cfg(all(unix, target_pointer_width = "64"))]
            Inner::Mapped(m) => m.bytes(),
            Inner::Owned(v) => v,
        }
    }

    /// Tells the kernel that `piece` — a scanned sub-slice of
    /// [`bytes`](Self::bytes) — need not stay resident, and returns how
    /// many bytes were released. For a mapping this drops the whole pages
    /// inside `piece` from the resident set (pages `piece` only partly
    /// covers are shared with a neighbouring piece and left alone). The
    /// bytes stay readable: the mapping is read-only, private and never
    /// written, so it holds no copies of its own, only references to the
    /// page cache — a released page that is read again re-faults with the
    /// same file bytes, and slices borrowed from it stay valid.
    /// An owned buffer — whose pages the kernel could only give back
    /// zeroed — and a `piece` from anywhere else are left untouched: 0.
    pub fn release(&self, piece: &[u8]) -> usize {
        match &self.inner {
            #[cfg(all(unix, target_pointer_width = "64"))]
            Inner::Mapped(m) => m.release(piece),
            Inner::Owned(_) => 0,
        }
    }
}

impl std::ops::Deref for LogData {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.bytes()
    }
}

#[cfg(all(unix, target_pointer_width = "64"))]
mod mapped {
    use std::ffi::c_void;
    use std::fs::File;
    use std::os::unix::io::AsRawFd;

    // Minimal mmap binding (64-bit Unix: `off_t` is `i64`). Values are
    // identical across Linux and the BSDs for these flags and the advice.
    // SAFETY: the signatures are the C library's on every 64-bit Unix;
    // `sysconf` reads a system constant and is sound to call with any name.
    unsafe extern "C" {
        fn mmap(
            addr: *mut c_void,
            length: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, length: usize) -> i32;
        fn madvise(addr: *mut c_void, length: usize, advice: i32) -> i32;
        safe fn sysconf(name: i32) -> i64;
    }

    const PROT_READ: i32 = 1;
    const MAP_PRIVATE: i32 = 2;
    const MADV_DONTNEED: i32 = 4;
    /// `_SC_PAGESIZE`: unlike the constants above it differs by system (30
    /// on Linux, 29 on macOS). Where it is neither, `release` gets a value
    /// it rejects or an address `madvise` refuses, and releases nothing.
    const SC_PAGESIZE: i32 = if cfg!(target_os = "linux") { 30 } else { 29 };

    /// An owned read-only private mapping, unmapped on drop.
    pub struct Map {
        ptr: *const u8,
        len: usize,
    }

    // SAFETY: the mapping is `PROT_READ` + `MAP_PRIVATE` and uniquely
    // owned by `Map` (unmapped exactly once, on drop), exposing only
    // `&[u8]` views — moving it across threads races nothing.
    unsafe impl Send for Map {}
    // SAFETY: as above — all access through `&Map` is to immutable,
    // read-only mapped memory.
    unsafe impl Sync for Map {}

    impl Map {
        /// Maps the whole of `file` read-only; `None` when the file is
        /// empty (mmap rejects zero-length mappings) or the kernel
        /// refuses.
        pub fn new(file: &File) -> Option<Map> {
            let len = file.metadata().ok()?.len();
            if len == 0 || len > usize::MAX as u64 {
                return None;
            }
            #[allow(clippy::cast_possible_truncation, reason = "len <= usize::MAX checked above.")]
            let len = len as usize;
            // SAFETY: a fresh private read-only mapping of a file we hold
            // open; the kernel validates fd/length and returns MAP_FAILED
            // (-1) on any error.
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr as isize == -1 || ptr.is_null() {
                return None;
            }
            Some(Map {
                ptr: ptr as *const u8,
                len,
            })
        }

        pub fn bytes(&self) -> &[u8] {
            // SAFETY: ptr/len describe a live PROT_READ mapping owned by
            // self; it stays valid until drop.
            unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
        }

        /// [`LogData::release`](super::LogData::release) for a mapping:
        /// 0 when `piece` is not part of it, covers no whole page, or the
        /// kernel declines.
        pub fn release(&self, piece: &[u8]) -> usize {
            let base = self.ptr as usize;
            let start = piece.as_ptr() as usize;
            let end = start + piece.len();
            let Ok(page) = usize::try_from(sysconf(SC_PAGESIZE)) else {
                return 0;
            };
            if start < base || end > base + self.len || !page.is_power_of_two() {
                return 0;
            }
            // The mapping starts on a page boundary, so absolute alignment
            // is alignment within the file.
            let first = start.next_multiple_of(page);
            let last = end & !(page - 1);
            if first >= last {
                return 0;
            }
            // SAFETY: `first..last` lies inside the live mapping `self` owns
            // (bounds checked above), and dropping pages of a PROT_READ +
            // MAP_PRIVATE file mapping changes no byte a reader can see.
            let rc = unsafe { madvise(first as *mut c_void, last - first, MADV_DONTNEED) };
            if rc == 0 {
                last - first
            } else {
                0
            }
        }
    }

    impl Drop for Map {
        fn drop(&mut self) {
            // SAFETY: unmapping the exact region mmap returned.
            unsafe {
                munmap(self.ptr as *mut c_void, self.len);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_cover_input_in_order() {
        let mut text = String::new();
        for i in 0..500 {
            text.push_str(&format!("line number {i} with some padding\n"));
        }
        for max in [1usize, 7, 64, 1000, 1 << 20] {
            let chunks = split_lines(text.as_bytes(), max);
            let mut rebuilt = Vec::new();
            for c in &chunks {
                rebuilt.extend_from_slice(c.data);
                // Every chunk except possibly the last ends at a newline.
                assert_eq!(*c.data.last().unwrap(), b'\n');
            }
            assert_eq!(rebuilt, text.as_bytes(), "max={max}");
        }
    }

    #[test]
    fn no_newline_at_eof() {
        let text = b"abc\ndef";
        let chunks = split_lines(text, 4);
        assert_eq!(chunks.len(), 2);
        assert_eq!(chunks[0].data, b"abc\n");
        assert_eq!(chunks[1].data, b"def");
        assert!(split_lines(b"", 16).is_empty());
        // An unterminated final line never merges into the previous
        // chunk's tail, however small the chunks.
        for max in 1..=4 {
            let last = *split_lines(text, max).last().unwrap();
            assert_eq!(last.data, b"def", "max={max}");
        }
    }

    #[test]
    fn logdata_maps_and_reads() {
        let dir = std::env::temp_dir().join(format!("netclust-chunk-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.log");
        let content = b"1.2.3.4 - - [13/Feb/1998:07:00:00 +0000] \"GET /x HTTP/1.0\" 200 100\n";
        std::fs::write(&path, content).unwrap();
        let mapped = LogData::open(&path).unwrap();
        assert_eq!(mapped.bytes(), content);
        let read = LogData::read(&path).unwrap();
        assert_eq!(read.bytes(), content);
        assert!(!read.is_mapped());
        #[cfg(all(unix, target_pointer_width = "64"))]
        assert!(mapped.is_mapped());
        // Empty files fall back to the owned buffer.
        let empty = dir.join("empty.log");
        std::fs::write(&empty, b"").unwrap();
        let e = LogData::open(&empty).unwrap();
        assert!(e.bytes().is_empty());
        assert!(!e.is_mapped());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn release_keeps_every_byte_readable() {
        let dir = std::env::temp_dir().join(format!("netclust-release-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("big.log");
        let content: Vec<u8> = (0..1_000_000u32).map(|i| (i % 251) as u8).collect();
        std::fs::write(&path, &content).unwrap();

        let mapped = LogData::open(&path).unwrap();
        // An unaligned middle piece: only its whole pages are released.
        let released = mapped.release(&mapped[100..900_000]);
        assert!(
            released < 900_000 - 100 && released.is_multiple_of(4096),
            "{released}"
        );
        #[cfg(target_os = "linux")]
        assert!(mapped.is_mapped() && released > 0);
        assert_eq!(mapped.bytes(), &content[..]);
        // Too small to cover a page, and not part of the mapping at all.
        assert_eq!(mapped.release(&mapped[10..20]), 0);
        assert_eq!(mapped.release(&content[..]), 0);
        assert_eq!(mapped.bytes(), &content[..]);

        // An owned buffer must never reach the kernel: DONTNEED on
        // anonymous memory would hand back zeroes.
        let owned = LogData::from_vec(content.clone());
        assert_eq!(owned.release(&owned[..]), 0);
        assert_eq!(owned.bytes(), &content[..]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
