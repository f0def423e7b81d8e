//! netclust — network-aware clustering of web clients.
//!
//! Facade crate re-exporting the full `netclust` workspace. See the README
//! for an overview and `netclust_core` for the clustering pipeline itself.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use netclust_bgpsim as bgpsim;
pub use netclust_cachesim as cachesim;
pub use netclust_core as core;
pub use netclust_netgen as netgen;
pub use netclust_obs as obs;
pub use netclust_prefix as prefix;
pub use netclust_probe as probe;
pub use netclust_rtable as rtable;
pub use netclust_serve as serve;
pub use netclust_weblog as weblog;
