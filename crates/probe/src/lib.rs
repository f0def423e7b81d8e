//! Probe tools: simulated `nslookup` and traceroute over a synthetic
//! universe, with full probe/time cost accounting.
//!
//! These replace the live-Internet measurements the paper's validation
//! stage (§3.3) performs:
//!
//! * [`Nslookup`] — reverse DNS with the paper's ≈50 % resolvability, plus
//!   the non-trivial [`name_suffix`] rule used for suffix matching,
//! * [`Traceroute`] — both the classic algorithm and the paper's optimized
//!   variant (single probe per TTL, initial `ttl = Max_ttl`), whose probe
//!   and waiting-time savings (≈90 % / ≈80 %) are measurable via
//!   [`ProbeStats`],
//! * [`ProbeFaultModel`] / [`RetryPolicy`] — a deterministic, seed-driven
//!   loss model (unresponsive hops, transient destination/DNS failures)
//!   with retry-and-capped-backoff recovery, so the lossy reality the
//!   paper's §3.5 alludes to is reproducible in tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod faults;
mod nslookup;
mod traceroute;

pub use faults::{
    sig_specificity, sigs_compatible, ProbeFaultModel, RetryPolicy, UNRESPONSIVE_HOP,
};
pub use nslookup::{name_suffix, suffixes_match, Nslookup, NSLOOKUP_MS};
pub use traceroute::{
    ProbeStats, TraceOutcome, Traceroute, CLASSIC_PROBES_PER_TTL, MAX_TTL, PROBE_TIMEOUT_MS,
};
