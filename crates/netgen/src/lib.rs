//! Deterministic synthetic Internet generator.
//!
//! The paper's pipeline consumes three external resources we cannot ship:
//! real BGP routing-table snapshots from 12 sites, registry network dumps
//! (ARIN/NLANR), and the live Internet (for nslookup/traceroute
//! validation). This crate builds a seeded, reproducible substitute:
//!
//! * a [`Universe`] of autonomous systems and organizations with disjoint
//!   address allocations (ground truth for "common administrative
//!   control"), DNS names and router-level paths,
//! * [`vantage`] — per-site BGP snapshots with partial visibility, route
//!   aggregation, intra-day flutter and day-scale churn, plus registry
//!   dumps, calibrated to the paper's Table 1 and Figure 1,
//! * knobs ([`UniverseConfig`]) for every mis-identification source the
//!   paper discusses: aggregated-only orgs, national gateways,
//!   more-specific announcements, unresolvable hosts, and unregistered
//!   allocations,
//! * [`generate`] — server logs drawn over a [`Universe`] from a
//!   [`LogSpec`] (paper presets [`LogSpec::nagano`] etc., proportional
//!   [`LogSpec::scale`]), embedding spiders and proxies whose ground truth
//!   is recorded in the log's [`LogTruth`],
//! * [`log`] — the in-memory [`Log`] the generator makes and the studies
//!   read, written as Common Log Format by [`to_clf`] (what `netclust
//!   synth` writes) and read back by [`from_clf`]. The product clusters
//!   the CLF bytes themselves; no product crate names a [`Log`].
//!
//! Everything is a pure function of the seed: generating day 7's snapshot
//! before day 3's, or querying DNS names in any order, gives identical
//! results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alloc;
mod config;
mod gen;
pub mod log;
mod names;
mod net;
mod org;
mod rng;
mod spec;
mod universe;
pub mod vantage;

pub use config::UniverseConfig;
pub use gen::{generate, try_generate, UniverseTooSmall};
pub use log::{from_clf, to_clf, Log, LogError, LogTruth, Request, UaId, UrlId, UrlMeta};
pub use net::{common_supernet, host_route};
pub use org::{AnnouncePolicy, AutonomousSystem, Org, OrgId, OrgKind};
pub use rng::{derive_seed, pareto_u64, stream_rng, uniform_index, uniform_u64, unit_f64};
pub use spec::{LogSpec, ProxySpec, SpiderSpec};
pub use universe::{Announcement, Hop, Universe};
pub use vantage::{
    registry_dump, snapshot, snapshot_with_attrs, standard_collection, standard_merged,
    standard_vantages, RouteAttrs, VantageSpec, TICKS_PER_DAY,
};
