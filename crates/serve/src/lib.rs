//! `netclustd` — the long-running clustering service.
//!
//! This crate turns the one-shot clustering pipeline into a daemon, the
//! shape the paper's own self-correction and BGP-dynamics sections argue
//! for: clustering as a *continuously running oracle* rather than an
//! offline report. The daemon
//!
//! * tails a rotating access log ([`netclust_weblog::follow`]) and feeds
//!   complete lines through the byte-slice CLF parser into a live
//!   [`netclust_core::StreamingClustering`],
//! * keeps that view durable through the PR 8 state store (checksummed
//!   snapshots + write-ahead journal, `--state-dir` / `--resume`),
//! * answers the unified [`netclust_core::ClusterQuery`] surface over a
//!   hand-rolled HTTP/1.1 + JSON API on `std::net` with a fixed number
//!   of worker threads — no async runtime, no dependencies, matching the
//!   workspace's vendored-shim discipline.
//!
//! Endpoints: `GET /v1/cluster?ip=`, `GET /v1/clusters/top?n=`,
//! `GET /v1/verdict?ip=`, `GET /metrics`, `GET /healthz`, and
//! `POST /v1/reload` (full-table swap through the validated
//! `try_swap` gate, or incremental `announce|withdraw|replace` deltas
//! through `apply_deltas`).
//!
//! Module map: [`http`] parses and frames HTTP/1.1; [`router`] is the
//! hot-path dispatcher from parsed request to response; [`json`] renders
//! the deterministic response bodies the router and reload path share;
//! [`config`] is the [`ServeConfig`] builder the CLI flags parse into;
//! [`daemon`] owns the listener, the HTTP workers that share it, the
//! follower and the stop (every wait a `poll(2)` that a
//! [`netclust_sys::Waker`] ends); [`checkpoint`] owns everything that touches
//! the state store — the background checkpointer thread, the synchronous
//! checkpoints, and the journal-before-apply step of a delta reload.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod config;
pub mod daemon;
pub mod http;
pub mod json;
pub mod router;

pub use config::ServeConfig;
pub use daemon::{Daemon, ServeError};
pub use router::AppState;
