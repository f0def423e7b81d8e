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

use netclust_serve::{Daemon, ServeConfig};

/// Flipped by the signal handler; the main thread polls it.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

const USAGE: &str = "\
netclustd: network-aware clustering daemon

usage: netclustd --table FILE[,FILE..] [options]

serving table (at least one required):
  --table FILE[,..]       BGP routing-table files
  --dump FILE[,..]        network-dump table files

service:
  --listen ADDR           host:port to bind (default 127.0.0.1:0)
  --port-file FILE        write the bound address here once listening
  --http-threads N        HTTP worker pool size (default 4)
  --top N                 default n for /v1/clusters/top (default 10)

log tailing:
  --log FILE              access log (CLF) to tail
  --poll-ms MS            follower poll interval (default 200): a logged
                          line is served within about one interval; no
                          snapshot is ever written on that path

persistence:
  --state-dir DIR         snapshot + journal directory
  --resume                recover from --state-dir instead of starting fresh
  --checkpoint-bytes N    snapshot in the background once N log bytes are
                          applied but not yet snapshotted (default 4 MiB),
                          or as soon as the log has been quiet for one poll
                          interval; never more often than half the time.
                          Bounds how much log a --resume re-reads
  --fsync POLICY          every-batch | every=N | os (default every-batch)

run knobs:
  --deterministic         byte-stable /metrics and JSON output

fault injection (tests):
  --fault POINT=PROB      arm a registered failpoint
  --fault-seed N          deterministic injection seed (default 1)
";

#[cfg(unix)]
mod sig {
    use super::SHUTDOWN;
    use std::sync::atomic::Ordering;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        // Only an atomic store — async-signal-safe by construction.
        // ordering: single shutdown flag, no data published through it;
        // SeqCst keeps the signal handshake trivially correct.
        SHUTDOWN.store(true, Ordering::SeqCst);
    }

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    pub(super) fn install() {
        // SAFETY: `signal` is the libc function std already links; the
        // handler is an `extern "C" fn` that performs a single atomic
        // store and touches nothing else.
        unsafe {
            signal(SIGINT, on_signal as *const () as usize);
            signal(SIGTERM, on_signal as *const () as usize);
        }
    }
}

#[cfg(not(unix))]
mod sig {
    /// No signal wiring off unix; ctrl-c kills the process directly.
    pub(super) fn install() {}
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }

    let config = match ServeConfig::from_args(&args) {
        Ok(config) => config,
        Err(msg) => {
            eprintln!("netclustd: {msg}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    sig::install();

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
