//! AS-level BGP route propagation simulator.
//!
//! `netclust-netgen`'s vantage snapshots model route visibility
//! *statistically* (each site sees each route with a calibrated
//! probability). This crate models it *structurally*: a three-tier
//! provider/customer/peer [`Topology`] over the universe's autonomous
//! systems, valley-free Gao-Rexford propagation per prefix
//! ([`PropagationModel::propagate`]), day-scale link failures, and
//! materialized per-vantage routing tables
//! ([`PropagationModel::vantage_tables`]).
//!
//! The two models are interchangeable inputs to the clustering pipeline;
//! the `ablation_bgp_propagation` experiment compares them. Structural
//! propagation reproduces effects sampling cannot: single-homed stubs
//! going dark when their transit link fails, multihomed ASes rerouting,
//! and visibility correlated across prefixes of the same origin.
//!
//! [`DeltaStream`] adds the *time* axis: a deterministic, seeded stream of
//! timestamped announce/withdraw/replace batches (with flap bias and
//! session-reset bursts) that drives the incremental patch layer in
//! `netclust-rtable` (`CompiledTable::apply_delta`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod delta;
mod propagate;
mod topology;

pub use delta::{DeltaBatch, DeltaStream, DeltaStreamConfig};
pub use propagate::{PropagationModel, RouteClass, RouteEntry};
pub use topology::{Relation, Topology};
