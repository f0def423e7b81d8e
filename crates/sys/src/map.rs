//! A read-only private `mmap` of a whole file. `Mapping::release` runs
//! once per scanned chunk of the ingest hot path: hot-file lint set.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use std::ffi::c_void;
use std::fs::File;
use std::os::fd::AsRawFd;
use std::ptr::null_mut;

// SAFETY: the C library's signatures on every 64-bit Unix (`off_t` is
// `i64`; the flag and advice values below are the same on Linux and the
// BSDs); `sysconf` reads a system constant and is sound with any name.
unsafe extern "C" {
    fn mmap(addr: *mut c_void, len: usize, prot: i32, flags: i32, fd: i32, off: i64)
        -> *mut c_void;
    fn munmap(addr: *mut c_void, len: usize) -> i32;
    fn madvise(addr: *mut c_void, len: usize, advice: i32) -> i32;
    safe fn sysconf(name: i32) -> i64;
}

const PROT_READ: i32 = 1;
const MAP_PRIVATE: i32 = 2;
const MADV_DONTNEED: i32 = 4;
/// `_SC_PAGESIZE`: 30 on Linux, 29 on macOS. Where it is neither, `release`
/// gets a value it rejects or an address `madvise` refuses: it releases
/// nothing.
const SC_PAGESIZE: i32 = if cfg!(target_os = "linux") { 30 } else { 29 };

/// An owned read-only private mapping of a file, unmapped on drop.
#[derive(Debug)]
pub struct Mapping {
    ptr: *const u8,
    len: usize,
}

// SAFETY: the mapping is `PROT_READ` + `MAP_PRIVATE` and uniquely owned by
// `Mapping` (unmapped exactly once, on drop), exposing only `&[u8]` views —
// moving it across threads races nothing.
unsafe impl Send for Mapping {}
// SAFETY: as above — all access through `&Mapping` is to immutable,
// read-only mapped memory.
unsafe impl Sync for Mapping {}

impl Mapping {
    /// Maps the whole of `file` read-only; `None` when it is empty (mmap
    /// rejects zero-length mappings), the kernel refuses, or the target is
    /// not 64-bit (where `off_t` may be narrower than declared).
    pub fn new(file: &File) -> Option<Mapping> {
        let len = usize::try_from(file.metadata().ok()?.len()).ok()?;
        if len == 0 || !cfg!(target_pointer_width = "64") {
            return None;
        }
        // SAFETY: a fresh private read-only mapping of a file we hold open;
        // the kernel validates fd/length and returns MAP_FAILED (-1) on any
        // error.
        let ptr = unsafe { mmap(null_mut(), len, PROT_READ, MAP_PRIVATE, file.as_raw_fd(), 0) };
        if ptr as isize == -1 || ptr.is_null() {
            return None;
        }
        Some(Mapping {
            ptr: ptr as *const u8,
            len,
        })
    }

    /// The mapped bytes.
    pub fn bytes(&self) -> &[u8] {
        // SAFETY: ptr/len describe a live PROT_READ mapping owned by self;
        // it stays valid until drop.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }

    /// Drops the whole pages inside `piece` — a sub-slice of
    /// [`bytes`](Self::bytes) — from the resident set; how many bytes that
    /// was: 0 when `piece` is not part of the mapping, covers no whole page,
    /// or the kernel declines. The bytes stay readable: the mapping is
    /// read-only, private and never written, so a released page that is
    /// read again re-faults with the same file bytes.
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
        // The mapping starts on a page boundary, so absolute alignment is
        // alignment within the file.
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

impl Drop for Mapping {
    fn drop(&mut self) {
        // SAFETY: unmapping the exact region mmap returned.
        unsafe { munmap(self.ptr as *mut c_void, self.len) };
    }
}
