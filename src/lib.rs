//! netclust — network-aware clustering of web clients.
//!
//! Facade crate re-exporting the product crates and the two simulators the
//! `netclust` CLI drives (`synth`, `--bgp-feed synth:`). See the README for
//! an overview and `netclust_core` for the clustering pipeline itself; the
//! paper's studies of it are `netclust-experiments` and `netclust-cachesim`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use netclust_bgpsim as bgpsim;
pub use netclust_core as core;
pub use netclust_netgen as netgen;
pub use netclust_obs as obs;
pub use netclust_prefix as prefix;
pub use netclust_rtable as rtable;
pub use netclust_serve as serve;
pub use netclust_weblog as weblog;
