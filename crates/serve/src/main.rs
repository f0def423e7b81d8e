//! `netclustd` — the long-running network-aware clustering daemon.
//!
//! Boots a [`netclust_serve::Daemon`] from command-line flags, blocks on
//! the process's stop waker ([`netclust_sys::stop_signals`]) until SIGTERM
//! or SIGINT (during boot too) wakes it, then shuts the daemon down
//! gracefully ([`netclust_serve::Daemon::shutdown`]).

#![forbid(unsafe_code)]

use std::process::ExitCode;

use netclust_core::FlagError;
use netclust_serve::config::FLAGS;
use netclust_serve::{Daemon, ServeConfig};

fn main() -> ExitCode {
    netclust_sys::pin_mmap_threshold();
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

    let stop = match netclust_sys::stop_signals() {
        Ok(stop) => stop,
        Err(e) => {
            eprintln!("netclustd: cannot install signal handlers: {e}");
            return ExitCode::FAILURE;
        }
    };

    let daemon = match Daemon::start(config) {
        Ok(daemon) => daemon,
        Err(e) => {
            eprintln!("netclustd: startup failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!("netclustd: listening on {}", daemon.local_addr());

    stop.wait(None);

    eprintln!("netclustd: shutting down");
    match daemon.shutdown() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("netclustd: shutdown error: {e}");
            ExitCode::FAILURE
        }
    }
}
