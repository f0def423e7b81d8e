//! netclust — network-aware clustering of web clients.
//!
//! Facade crate re-exporting the product crates and the two simulators the
//! `netclust` CLI drives (`synth`, `--bgp-feed synth:`). See the README for
//! an overview and `netclust_core` for the clustering pipeline itself; the
//! paper's studies of it are `netclust-experiments` and `netclust-cachesim`.
//!
//! Cluster any log against any prefix table (the README's minimal API
//! usage, which `tests/cli.rs` holds equal to this block):
//!
//! ```no_run
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use netclust::core::RunConfig;
//! use netclust::rtable::load_tables;
//! use netclust::weblog::chunk::LogData;
//!
//! // Map a real Apache log, read a BGP table dump, then cluster.
//! let data = LogData::open("access.log")?;
//! let merged = load_tables(&["bgp.txt"], &[])?;
//! let report = RunConfig::new().pipeline(&merged.compile()).run_log(&data)?;
//! for cluster in report.clustering.clusters.iter().take(10) {
//!     println!("{}: {} clients, {} requests", cluster.prefix, cluster.client_count(), cluster.requests);
//! }
//! # Ok(())
//! # }
//! ```

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
