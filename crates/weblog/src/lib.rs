//! Web-server log substrate: the log model, Common Log Format I/O, and a
//! synthetic workload generator calibrated to the paper's four evaluation
//! logs (Nagano, Apache, EW3, Sun).
//!
//! * [`Log`] / [`Request`] — compact in-memory representation,
//! * [`clf`] — Apache Common Log Format serialization, and
//!   [`clf::from_clf`], which builds a [`Log`] from CLF bytes,
//! * [`clf_bytes`] — the one CLF parser, zero-copy over byte slices
//!   ([`clf_bytes::RawRecord`] borrows from the input buffer), behind
//!   `from_clf`, the batch ingest and the log follower alike,
//! * [`chunk`] — line-aligned chunk splitting for parallel parsing and
//!   mmap-backed file access ([`chunk::LogData`]),
//! * [`LogSpec`] — generation parameters with paper presets
//!   ([`LogSpec::nagano`] etc.) and proportional [`LogSpec::scale`],
//! * [`generate`] — deterministic generation over a
//!   [`netclust_netgen::Universe`], embedding spiders and proxies whose
//!   ground truth is recorded in [`LogTruth`],
//! * [`ZipfSampler`] / [`pareto_u64`] — the heavy-tail machinery.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chunk;
pub mod clf;
pub mod clf_bytes;
pub mod follow;
mod gen;
mod record;
mod spec;
mod zipf;

pub use gen::{generate, try_generate, UniverseTooSmall};
pub use record::{Log, LogTruth, Request, UaId, UrlId, UrlMeta};
pub use spec::{LogSpec, ProxySpec, SpiderSpec};
pub use zipf::{pareto_u64, ZipfSampler};
