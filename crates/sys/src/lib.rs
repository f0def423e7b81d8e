//! `netclust-sys`: every call netclust makes into the C library, behind a
//! safe API — the one crate without `#![forbid(unsafe_code)]`, and the one
//! with `extern "C"` blocks and platform branches (DESIGN.md §12). Unix.
//!
//! [`Mapping`] is a read-only `mmap`; [`Waker`] the stop that ends every
//! `poll(2)` wait of `netclustd` ([`Waker::wait_for`]), and [`stop_signals`]
//! the one SIGINT/SIGTERM wake; [`Watch`] an inotify watch of a log's
//! directory; [`pin_mmap_threshold`] `mallopt` for `netclustd`'s `main`.

#![warn(missing_docs)]

#[cfg(not(unix))]
compile_error!("netclust-sys binds the Unix C library; no other platform is supported");

mod map;
mod wait;
mod watch;

pub use map::Mapping;
pub use wait::{stop_signals, Wake, Waker};
pub use watch::Watch;

/// Keeps glibc's mmap threshold at its initial 128 KiB, so a freed
/// snapshot buffer or backlog chunk goes back to the kernel instead of to
/// the arena of the thread that asked (DESIGN.md §17). Call it before the
/// first thread starts. A no-op off glibc.
pub fn pin_mmap_threshold() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        // SAFETY: glibc's signature; two integers by value.
        unsafe extern "C" {
            safe fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_MMAP_THRESHOLD: i32 = -3;
        mallopt(M_MMAP_THRESHOLD, 128 << 10);
    }
}
