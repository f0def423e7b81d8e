//! `netclustd` — the long-running network-aware clustering daemon.
//!
//! Boots a [`netclust_serve::Daemon`] from command-line flags, then parks
//! until SIGTERM/SIGINT flips the shutdown flag, at which point it winds
//! the service down gracefully: stop accepting, drain in-flight requests,
//! join the log follower, then the checkpointer (an in-flight snapshot
//! completes), write the final checkpoint.

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use netclust_core::FlagError;
use netclust_serve::config::FLAGS;
use netclust_serve::{Daemon, ServeConfig};

/// Flipped by the signal handler; the main thread polls it.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
mod sys {
    use super::SHUTDOWN;
    use std::sync::atomic::Ordering;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
        #[cfg(all(target_os = "linux", target_env = "gnu"))]
        fn mallopt(param: i32, value: i32) -> i32;
    }

    extern "C" fn on_signal(_signum: i32) {
        // Only an atomic store — async-signal-safe by construction.
        // ordering: single shutdown flag, no data published through it;
        // SeqCst keeps the signal handshake trivially correct.
        SHUTDOWN.store(true, Ordering::SeqCst);
    }

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    pub(super) fn install_signals() {
        // SAFETY: `signal` is the libc function std already links; the
        // handler is an `extern "C" fn` that performs a single atomic
        // store and touches nothing else.
        unsafe {
            signal(SIGINT, on_signal as *const () as usize);
            signal(SIGTERM, on_signal as *const () as usize);
        }
    }

    /// Keeps glibc's mmap threshold where it starts, 128 KiB. Left alone
    /// it rises to the size of every larger block freed (up to 32 MiB), and
    /// from then on a snapshot buffer or a backlog chunk is carved from
    /// the arena of the thread that asked — which keeps it after `free`,
    /// one high-water mark per thread. Setting the threshold, to any
    /// value, switches that adjustment off: such a block is mapped for its
    /// lifetime and goes back to the kernel when it ends (DESIGN.md §17).
    /// `main` calls this before it starts a thread; a refusal (return 0)
    /// leaves the default behaviour, which is correct, only larger.
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    pub(super) fn pin_mmap_threshold() {
        const M_MMAP_THRESHOLD: i32 = -3;
        // SAFETY: `mallopt` is the glibc function std's allocator already
        // links; it takes two integers by value and sets a tunable of
        // malloc's own, under malloc's own lock.
        unsafe {
            mallopt(M_MMAP_THRESHOLD, 128 << 10);
        }
    }

    #[cfg(not(all(target_os = "linux", target_env = "gnu")))]
    pub(super) fn pin_mmap_threshold() {}
}

#[cfg(not(unix))]
mod sys {
    /// No signal wiring off unix; ctrl-c kills the process directly.
    pub(super) fn install_signals() {}

    pub(super) fn pin_mmap_threshold() {}
}

fn main() -> ExitCode {
    sys::pin_mmap_threshold();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match ServeConfig::from_args(&args) {
        Ok(config) => config,
        Err(FlagError::Help) => {
            print!("{}", FLAGS.render_help());
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("netclustd: {msg}\n\n{}", FLAGS.render_help());
            return ExitCode::from(2);
        }
    };

    sys::install_signals();

    let daemon = match Daemon::start(config) {
        Ok(daemon) => daemon,
        Err(e) => {
            eprintln!("netclustd: startup failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!("netclustd: listening on {}", daemon.local_addr());

    // ordering: shutdown flag only — no data rides on it; SeqCst matches
    // the signal-handler store.
    while !SHUTDOWN.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(50));
    }

    eprintln!("netclustd: shutting down");
    match daemon.shutdown() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("netclustd: shutdown error: {e}");
            ExitCode::FAILURE
        }
    }
}
