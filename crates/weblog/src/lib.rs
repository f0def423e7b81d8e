//! Web-server log substrate: the log model, Common Log Format I/O,
//! line-aligned chunking and the live log follower. The synthetic workload
//! generator calibrated to the paper's four evaluation logs lives in
//! `netclust-netgen` (`generate`, `LogSpec`), beside the synthetic
//! Internet it draws clients from.
//!
//! * [`Log`] / [`Request`] — compact in-memory representation,
//! * [`clf`] — Apache Common Log Format serialization, and
//!   [`clf::from_clf`], which builds a [`Log`] from CLF bytes,
//! * [`clf_bytes`] — the one CLF parser, zero-copy over byte slices
//!   ([`clf_bytes::RawRecord`] borrows from the input buffer), behind
//!   `from_clf`, the batch ingest and the log follower alike,
//! * [`chunk`] — line-aligned chunk splitting for parallel parsing and
//!   mmap-backed file access ([`chunk::LogData`]),
//! * [`ZipfSampler`] — Zipf-like rank draws. Only the generators use it
//!   (`netclust-netgen`, and the benchmark harness, which imports it from
//!   here); it is the one reason `rand` is in this crate's dependencies.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chunk;
pub mod clf;
pub mod clf_bytes;
pub mod follow;
mod record;
mod zipf;

pub use record::{Log, LogTruth, Request, UaId, UrlId, UrlMeta};
pub use zipf::ZipfSampler;
