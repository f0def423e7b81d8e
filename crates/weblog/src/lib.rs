//! Web-server log substrate of the product: the Common Log Format parser,
//! line-aligned chunking and the live log follower. The product clusters
//! CLF bytes and never holds a log in memory; the in-memory log model, its
//! CLF writer and reader, and the synthetic workload generator calibrated
//! to the paper's four evaluation logs live in `netclust-netgen`, beside
//! the synthetic Internet it draws clients from.
//!
//! * [`clf_bytes`] — the one CLF parser, zero-copy over byte slices
//!   ([`clf_bytes::RawRecord`] borrows from the input buffer), behind the
//!   batch ingest and the log follower alike,
//! * [`clf`] — its typed error ([`clf::ClfError`]) and the CLF date format
//!   ([`clf::format_clf_time`]),
//! * [`chunk`] — line-aligned chunk splitting for parallel parsing and
//!   mmap-backed file access ([`chunk::LogData`]),
//! * [`follow`] — the rotation-aware tail the daemon feeds its stream from,
//! * [`ZipfSampler`] — Zipf-like rank draws. Only the generators use it
//!   (`netclust-netgen`, and the benchmark harness, which imports it from
//!   here); it is the one reason `rand` is in this crate's dependencies.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chunk;
pub mod clf;
pub mod clf_bytes;
pub mod follow;
mod zipf;

pub use zipf::ZipfSampler;
