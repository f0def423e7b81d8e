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
//!   `mmap` (64-bit — no copy, the page cache is the buffer) or as an
//!   owned heap buffer (the fallback, and for empty files). Either way,
//!   [`LogData::bytes`] is one contiguous `&[u8]` the zero-copy parser can
//!   borrow from, and [`LogData::release`] hands the pages of a scanned
//!   piece back to the kernel so a mapped log never has to be resident all
//!   at once.
//!
//! The mapping itself is [`netclust_sys::Mapping`], the workspace's one
//! OS seam.

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

use netclust_sys::Mapping;

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
pub struct LogData(Inner);

enum Inner {
    Mapped(Mapping),
    Owned(Vec<u8>),
}

impl LogData {
    /// Opens `path`, preferring a read-only private `mmap`; falls back to
    /// a buffered read when mapping is unsupported or fails (e.g. empty
    /// files, special files, 32-bit targets).
    pub fn open(path: impl AsRef<Path>) -> io::Result<LogData> {
        let path = path.as_ref();
        match File::open(path).ok().as_ref().and_then(Mapping::new) {
            Some(map) => Ok(LogData(Inner::Mapped(map))),
            None => Ok(Self::from_vec(std::fs::read(path)?)),
        }
    }

    /// Wraps an in-memory buffer (tests, synthetic corpora).
    pub fn from_vec(data: Vec<u8>) -> LogData {
        LogData(Inner::Owned(data))
    }

    /// `true` when the contents are memory-mapped rather than copied.
    // Waived in tests/source_contracts.rs (`pub-fn-caller`): the ingest
    // memory-budget test checks the log was mapped, not read.
    pub fn is_mapped(&self) -> bool {
        matches!(self.0, Inner::Mapped(_))
    }

    /// The file contents as one contiguous slice.
    pub fn bytes(&self) -> &[u8] {
        match &self.0 {
            Inner::Mapped(m) => m.bytes(),
            Inner::Owned(v) => v,
        }
    }

    /// Tells the kernel that `piece` — a scanned sub-slice of
    /// [`bytes`](Self::bytes) — need not stay resident, and returns how
    /// many bytes were released: the whole pages inside `piece` of a
    /// mapping ([`Mapping::release`]; they stay readable, and slices
    /// borrowed from them valid). An owned buffer — whose pages the kernel
    /// could only give back zeroed — and a `piece` from anywhere else are
    /// left untouched: 0.
    pub fn release(&self, piece: &[u8]) -> usize {
        match &self.0 {
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
        let dir = netclust_testkit::TempDir::new("netclust-chunk");
        let path = dir.join("sample.log");
        let content = b"1.2.3.4 - - [13/Feb/1998:07:00:00 +0000] \"GET /x HTTP/1.0\" 200 100\n";
        std::fs::write(&path, content).unwrap();
        let mapped = LogData::open(&path).unwrap();
        assert_eq!(mapped.bytes(), content);
        let read = LogData::from_vec(std::fs::read(&path).unwrap());
        assert_eq!(read.bytes(), content);
        assert!(!read.is_mapped());
        #[cfg(target_pointer_width = "64")]
        assert!(mapped.is_mapped());
        // Empty files fall back to the owned buffer.
        let empty = dir.join("empty.log");
        std::fs::write(&empty, b"").unwrap();
        let e = LogData::open(&empty).unwrap();
        assert!(e.bytes().is_empty());
        assert!(!e.is_mapped());
    }

    #[test]
    fn release_keeps_every_byte_readable() {
        let dir = netclust_testkit::TempDir::new("netclust-release");
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
    }
}
