//! Network-aware clustering of Web clients — the paper's contribution.
//!
//! This crate is the product of *On Network-Aware Clustering of Web
//! Clients* (Krishnamurthy & Wang, SIGCOMM 2000): longest-prefix match of
//! each client against a merged BGP/registry table (§3.1–3.2), and what
//! it takes to serve that answer live:
//!
//! * [`Clustering`] — longest-prefix-match clustering against a merged
//!   BGP/registry table, plus the simple `/24` and classful baselines (§2,
//!   §3.2): one [`Assigner`] each; [`Clustering::by`] clusters plain
//!   `(client, bytes, url)` triples, which is how the studies cluster
//!   their in-memory logs,
//! * [`IngestPipeline`] — fused zero-copy ingest from raw CLF bytes
//!   (memory-mapped files included) straight to a [`Clustering`], by any
//!   of the three,
//! * [`threshold_busy`] — busy-cluster selection (§4.1.3, Table 5),
//! * [`query`] — the one typed query surface (lookup, top-N, the
//!   structural spider/proxy verdict) the CLI and `netclustd` answer,
//! * [`StreamingClustering`] — live clustering with in-place table
//!   patches,
//! * [`persist`] — crash-safe persistence of the streaming state:
//!   checksummed snapshots plus a write-ahead delta journal,
//! * [`RunConfig`] / [`flags`] — the shared flag parser, and
//!   [`FaultPlan`] — seeded fault injection at the hardened seams.
//!
//! The paper's offline studies of that function — validation (§3.3),
//! BGP dynamics (§3.4), self-correction (§3.5), second-level clusters and
//! sessions (§3.6), the Figure 3–7 distributions and spider/proxy
//! detection (§4.1.2) — live in `netclust-experiments`, and the Web-caching
//! simulation (§4.1.5) in `netclust-cachesim`; none of them is linked
//! into this crate or the daemon. Nor is a log model: the product reads
//! CLF bytes, and the in-memory log the studies cluster lives in
//! `netclust-netgen` beside the generator that makes it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clients;
mod cluster;
mod config;
mod faults;
mod fx;
mod ingest;
mod kernel;
pub mod persist;
pub mod query;
mod stream;
mod threshold;

pub use cluster::{Assigner, ClientStats, Cluster, Clustering};
pub use config::{flags, Constraint, Flag, FlagError, FlagTable, Parsed, RunConfig};
pub use faults::{failpoints, FaultInjector, FaultPlan};
pub use ingest::{ErrorRate, IngestError, IngestPipeline, IngestReport, QuarantinedLine};
pub use persist::{
    EncodedState, FeedProgress, FsyncPolicy, JournalBatch, PersistError, RecoveryReport,
    SnapshotFile, StateStore, StreamState,
};
pub use query::{
    ClientClass, ClusterAnswer, ClusterQuery, ClusterRow, VerdictAnswer, VerdictPolicy,
};
pub use stream::{
    PatchBatchReport, PatchStats, RestoreError, StreamHandle, StreamMemory, StreamStats,
    StreamWork, StreamingBuilder, StreamingClustering, SwapPolicy, SwapRejection, SwapReport,
    SwapStats,
};
// The shared error-accounting shape carried by `IngestReport`, consumed by
// `StreamingClustering::try_swap`, and produced by rtable's `ParseReport`;
// defined in `netclust-obs`, re-exported so core users need no extra import.
pub use netclust_obs::ErrorCounts;
pub use threshold::{threshold_busy, ThresholdReport};
