//! Trace-driven Web proxy cache simulator.
//!
//! Implements the caching study of §4.1.5: a proxy in front of every
//! client cluster, each running a byte-capacity [`LruCache`] with
//! [Piggyback Cache Validation](PcvProxy) (fixed TTL + If-Modified-Since +
//! piggybacked validation batches), over a deterministic
//! [`ResourceModel`] of server-side modifications.
//!
//! [`simulate`] replays a log through the proxies of a clustering;
//! [`sweep_cache_sizes`] produces Figure 11's server-side curves and
//! [`top_proxy_report`] Figure 12's per-proxy rows.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod coop;
mod lru;
mod pcv;
mod resource;
mod sim;

pub use coop::{simulate_cooperative, CoopStats};
pub use lru::{Entry, LruCache};
pub use pcv::{PcvProxy, ProxyStats, Served, DEFAULT_TTL_S, PIGGYBACK_BATCH};
pub use resource::ResourceModel;
pub use sim::{fig11_sizes, simulate, sweep_cache_sizes, top_proxy_report, SimConfig, SimResult};
