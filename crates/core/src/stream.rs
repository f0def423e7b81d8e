//! Real-time (streaming) cluster identification (§4).
//!
//! "The real-time client clustering information ... gives the service
//! provider a global view of where their customers are located and how
//! their demands change from time to time." [`StreamingClustering`]
//! consumes requests one at a time, maintains per-cluster aggregates
//! incrementally, and supports swapping in a fresh routing table
//! ([`StreamingClustering::try_swap`]) so the view adapts to routing
//! dynamics without replaying the past — the paper's "real-time cluster
//! identifying ... using real-time routing information".
//!
//! Table swaps are *validated*: BGP snapshots are scraped from noisy
//! sources and churn day to day (§3.4), so a candidate table is
//! sanity-checked (non-empty, parse noise under budget, coverage of the
//! currently-known clients not collapsing) and compiled off to the side
//! before it replaces the serving table. A rejected candidate leaves the
//! old table serving — degraded but correct — with the rejection and the
//! stale-table age recorded in [`SwapStats`].
//!
//! Between full swaps, live BGP churn lands **incrementally**:
//! [`StreamingClustering::apply_deltas`] patches a copy of the serving
//! table in place (`CompiledTable::apply_delta`), re-resolves only the
//! clients a batch can affect, and publishes the patched generation as an
//! `Arc` — readers ([`StreamHandle`]) clone the pointer and look up in a
//! whole generation, never a torn one, and the superseded generation is
//! recycled (caught up by the one batch it lacks) instead of recompiled or
//! recloned. The same
//! [`SwapPolicy`] entry/coverage gates are evaluated per patch batch, so a
//! desynchronized feed degrades the stream no further than a bad snapshot
//! would.

#![deny(clippy::iter_over_hash_type, clippy::disallowed_methods)]

use std::collections::BTreeMap;
use std::fmt;
use std::io;
use std::net::Ipv4Addr;
use std::sync::{Arc, OnceLock, PoisonError, RwLock};

use netclust_obs::{Counter, ErrorCounts, Gauge, Histogram, Obs};
use netclust_prefix::Ipv4Net;
use netclust_rtable::{CompiledTable, DeltaKind, Handle, MergedTable, PatchReport, TableDelta};
use netclust_weblog::clf::ClfError;
use netclust_weblog::clf_bytes;

use crate::clients::{Clients, Sums};
use crate::kernel::Client;
use crate::persist::{EncodedState, FeedProgress, SnapshotFile, StreamState};
use crate::query::{keep_top, ClusterAnswer, ClusterQuery, ClusterRow};

/// Resolved swap/patch-path observability handles (`stream.swap.*`,
/// `stream.patch.*`, and the serving table's cost as
/// `lpm.table_bytes`/`lpm.nodes`/`lpm.dead_cells`); inert when the stream
/// was built without [`StreamingBuilder::obs`].
#[derive(Debug, Clone, Default)]
struct StreamObs {
    attempts: Counter,
    accepted: Counter,
    rejected: Counter,
    stale_age: Gauge,
    patch_batches: Counter,
    patch_rejected: Counter,
    patch_slot_writes: Counter,
    patch_group_rebuilds: Counter,
    patch_recompiles: Counter,
    patch_batch_deltas: Histogram,
    table_bytes: Gauge,
    table_nodes: Gauge,
    table_dead_cells: Gauge,
}

impl StreamObs {
    fn resolve(obs: &Obs) -> Self {
        StreamObs {
            attempts: obs.counter("stream.swap.attempts"),
            accepted: obs.counter("stream.swap.accepted"),
            rejected: obs.counter("stream.swap.rejected"),
            stale_age: obs.gauge("stream.swap.stale_age"),
            patch_batches: obs.counter("stream.patch.batches"),
            patch_rejected: obs.counter("stream.patch.rejected"),
            patch_slot_writes: obs.counter("stream.patch.slot_writes"),
            patch_group_rebuilds: obs.counter("stream.patch.group_rebuilds"),
            patch_recompiles: obs.counter("stream.patch.recompiles"),
            patch_batch_deltas: obs.histogram("stream.patch.batch_deltas"),
            table_bytes: obs.gauge("lpm.table_bytes"),
            table_nodes: obs.gauge("lpm.nodes"),
            table_dead_cells: obs.gauge("lpm.dead_cells"),
        }
    }

    /// Records what the generation about to serve costs. Bytes and dead
    /// cells depend on how the table got here (patched, recycled or
    /// freshly compiled), not only on its prefix set.
    fn table_cost(&self, table: &CompiledTable) {
        self.table_bytes.set(table.memory_bytes() as u64);
        self.table_nodes.set(table.nodes() as u64);
        self.table_dead_cells.set(table.dead_cells() as u64);
    }
}

/// One published generation of the serving table, tagged with its patch
/// lineage version (what [`StreamHandle::version`] reports). Never changed
/// once published.
#[derive(Debug, Clone)]
pub(crate) struct LiveTable {
    pub(crate) table: CompiledTable,
    version: u64,
    /// Bytes a snapshot codes this generation's prefix lists to, counted
    /// by its first snapshot; [`StreamingClustering::publish`] starts each
    /// generation without it.
    pub(crate) coded_lists: OnceLock<usize>,
}

/// A lookup handle over the serving table, for reader threads concurrent
/// with [`StreamingClustering::apply_deltas`] /
/// [`try_swap`](StreamingClustering::try_swap) on the owner. Every call
/// clones the published `Arc` under a lock held for that clone alone and
/// answers from the generation it got: never a torn table, and a reader
/// that stalls mid-lookup delays nothing but the freeing of that one
/// generation. Any number of handles may be live, and a handle that
/// outlives its stream keeps answering from the last generation published.
#[derive(Debug, Clone)]
pub struct StreamHandle {
    published: Arc<RwLock<Arc<LiveTable>>>,
}

impl StreamHandle {
    fn current(&self) -> Arc<LiveTable> {
        // A poisoned cell still holds a whole generation: the lock only
        // ever guards one pointer clone or store.
        Arc::clone(
            &self
                .published
                .read()
                .unwrap_or_else(PoisonError::into_inner),
        )
    }

    /// Longest-prefix cluster for the raw big-endian address `addr` under
    /// the current generation.
    pub fn net_for_u32(&self, addr: u32) -> Option<Ipv4Net> {
        self.current().table.lookup(addr)
    }

    /// Patch-lineage version of the generation currently serving (bumps on
    /// every accepted patch batch or full swap).
    pub fn version(&self) -> u64 {
        self.current().version
    }
}

/// Incremental per-cluster aggregates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Distinct clients seen.
    pub clients: u64,
    /// Requests seen.
    pub requests: u64,
    /// Bytes served.
    pub bytes: u64,
}

/// What [`StreamingClustering::memory`] reports: bytes each growing store
/// fills, as its elements × element size.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamMemory {
    /// The client records, 12 bytes each, and the exact sums of the few
    /// whose counts outgrew them.
    pub client_records: usize,
    /// What finds a client record by its address: the root of 2^16 + 1
    /// offsets, 4 bytes each, and the arrival tail's index, 2 bytes a slot.
    pub address_map: usize,
    /// The per-cluster aggregates: a 4-byte index entry per table handle,
    /// a 16-byte slot per cluster, and the exact sums of the few whose
    /// counts outgrew them.
    pub aggregates: usize,
    /// The patch layer's live map, of the serving generation and of the
    /// superseded one kept to patch next, once a patch batch built it.
    pub patch_state: usize,
}

/// Thresholds a candidate routing table must clear before it replaces the
/// serving one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwapPolicy {
    /// Minimum prefix count across both tiers (an empty or near-empty
    /// snapshot is a scrape failure, not a routing change).
    pub min_entries: usize,
    /// Maximum tolerated parse-noise ratio of the candidate's source dump
    /// (see `netclust_rtable::ParseReport::counts`).
    pub max_noise_ratio: f64,
    /// The candidate's request-weighted coverage of the currently-known
    /// clients must be at least this fraction of the serving table's
    /// coverage (1.0 = no regression allowed, 0.0 = never reject).
    pub min_coverage_retention: f64,
}

impl Default for SwapPolicy {
    fn default() -> Self {
        SwapPolicy {
            min_entries: 1,
            max_noise_ratio: 0.05,
            min_coverage_retention: 0.8,
        }
    }
}

/// Why a candidate table was turned away.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SwapRejection {
    /// The candidate had fewer prefixes than the policy floor.
    TooFewEntries {
        /// Prefixes in the candidate.
        entries: usize,
        /// The policy's minimum.
        floor: usize,
    },
    /// The candidate's source dump was noisier than the budget allows.
    NoiseOverBudget {
        /// Observed malformed-line ratio.
        ratio: f64,
        /// The policy's budget.
        budget: f64,
    },
    /// The candidate would drop coverage of the known clients too far.
    CoverageCollapse {
        /// Serving table's request-weighted coverage.
        before: f64,
        /// Candidate's request-weighted coverage.
        after: f64,
        /// Minimum acceptable `after` given the policy.
        floor: f64,
    },
}

/// Outcome of one [`StreamingClustering::try_swap`] attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwapReport {
    /// Whether the candidate was installed.
    pub accepted: bool,
    /// The reason it was not (when `accepted` is false).
    pub rejection: Option<SwapRejection>,
    /// Prefix count of the candidate.
    pub candidate_entries: usize,
    /// Request-weighted coverage before the attempt.
    pub coverage_before: f64,
    /// Coverage after the attempt (the candidate's when accepted, the
    /// serving table's when rejected).
    pub coverage_after: f64,
}

/// Cumulative swap accounting, including the degraded-mode age counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SwapStats {
    /// Candidates installed.
    pub accepted: u64,
    /// Candidates rejected.
    pub rejected: u64,
    /// Rejections since the serving table was last replaced — how many
    /// refresh cycles stale the serving table is (0 = fresh). Non-zero
    /// means the stream is serving in degraded mode on an old table.
    pub stale_age: u64,
}

/// Outcome of one [`StreamingClustering::apply_deltas`] batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PatchBatchReport {
    /// Whether the patched generation was published.
    pub accepted: bool,
    /// Why it was not (when `accepted` is false).
    pub rejection: Option<SwapRejection>,
    /// The table-layer patch accounting (slot writes, group rebuilds,
    /// recompile fallback). Populated even on rejection — the patch is
    /// applied off to the side before the gates run.
    pub patch: PatchReport,
    /// Live prefix count of the candidate generation (both tiers).
    pub candidate_entries: usize,
    /// Clients whose cluster assignment the batch changed (0 on rejection).
    pub reassigned_clients: usize,
    /// Request-weighted coverage before the batch.
    pub coverage_before: f64,
    /// Coverage after (the candidate's when accepted, the serving table's
    /// when rejected).
    pub coverage_after: f64,
}

/// Work the stream's client store has done, counted in client records
/// (what [`StreamingClustering::ledger`] reports).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamWork {
    /// Records patch batches read: those inside each batch's deltas'
    /// prefixes, and the arrival tail's.
    pub patch_visited: u64,
    /// Records merges of the arrival tail into the sorted run moved or
    /// placed.
    pub merge_moved: u64,
}

/// Cumulative [`apply_deltas`](StreamingClustering::apply_deltas)
/// accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PatchStats {
    /// Batches attempted.
    pub batches: u64,
    /// Batches published.
    pub accepted: u64,
    /// Batches rejected by the swap gates.
    pub rejected: u64,
    /// Direct slot writes across accepted and rejected batches.
    pub slot_writes: u64,
    /// Scoped overflow-group rebuilds.
    pub group_rebuilds: u64,
    /// Full-recompile fallbacks.
    pub recompiles: u64,
}

/// Consuming builder for [`StreamingClustering`], mirroring
/// [`IngestPipeline`](crate::IngestPipeline)'s `chunk_bytes(..)`-style
/// configuration surface: chain options, then [`build`](Self::build).
///
/// ```
/// # use netclust_core::{StreamingClustering, SwapPolicy};
/// # use netclust_netgen::{standard_merged, Universe, UniverseConfig};
/// # let u = Universe::generate(UniverseConfig::small(7));
/// let stream = StreamingClustering::builder(standard_merged(&u, 0))
///     .swap_policy(SwapPolicy::default())
///     .build();
/// # assert!(stream.is_empty());
/// ```
pub struct StreamingBuilder {
    table: MergedTable,
    policy: SwapPolicy,
    obs: Obs,
}

impl StreamingBuilder {
    /// Sets the validation thresholds every [`try_swap`]
    /// (`StreamingClustering::try_swap`) attempt is checked against
    /// (default: [`SwapPolicy::default`]).
    ///
    /// [`try_swap`]: StreamingClustering::try_swap
    // Waived in tests/source_contracts.rs (`pub-fn-caller`): the only way
    // a test sets a policy on a fresh stream; the swap-gate sweep in
    // crates/core/tests/stream_live.rs reads it.
    pub fn swap_policy(mut self, policy: SwapPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Attaches an observability registry: LPM lookup/miss counters on the
    /// compiled table (`lpm.*`) and swap accounting (`stream.swap.*`).
    /// Costs nothing when `obs` is disabled.
    pub fn obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Compiles the table and builds the (empty) streaming clustering.
    pub fn build(self) -> StreamingClustering {
        StreamingClustering::new(self.table.compile(), 0, self.policy, self.obs)
    }
}

/// A recovered [`StreamState`] decoded cleanly but its integrity
/// invariants do not hold: a stored total disagrees with the value
/// recomputed from the per-client rows, so the snapshot was written by a
/// buggy or hostile producer and must not be served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RestoreError {
    /// Which invariant failed.
    pub what: &'static str,
    /// The value the snapshot claims.
    pub stored: u64,
    /// The value recomputed from the snapshot's own rows.
    pub recomputed: u64,
}

impl fmt::Display for RestoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "restored state mismatch: {} stored {} but recomputed {}",
            self.what, self.stored, self.recomputed
        )
    }
}

impl std::error::Error for RestoreError {}

/// What a client contributes to whichever cluster holds it.
fn totals<T>(client: &Client<T>) -> StreamStats {
    StreamStats {
        clients: 1,
        requests: client.requests,
        bytes: client.bytes,
    }
}

/// One cluster's aggregates, beside the handle of its table entry: its
/// sums as a client record keeps them, `u32`s with a wide escape.
#[derive(Debug, Clone, Copy)]
struct Slot {
    handle: Handle,
    /// At most the stream's client count, whose ids are `u32`.
    clients: u32,
    sums: Sums,
}

const _: () = assert!(std::mem::size_of::<Slot>() == 16);

/// A [`Tally::slot_of`] entry for a handle no client matches.
const NO_SLOT: u32 = u32::MAX;

/// Where client totals are credited: a slot per cluster with a client,
/// found through the serving table's handle of its prefix, plus the
/// requests of clients no prefix covers. The slots are dense, so a
/// cluster costs its 16-byte slot, and every handle of the table a 4-byte
/// index entry (DESIGN.md §17 has the layout it was measured against).
#[derive(Debug, Default)]
struct Tally {
    /// Per handle of the serving table: its slot in `live`, or [`NO_SLOT`].
    slot_of: Vec<u32>,
    /// One slot per cluster with at least one client, in no order.
    live: Vec<Slot>,
    /// The exact sums of the slots whose counts outgrew `u32`, by handle
    /// index: a slot's move leaves its entry where it is.
    wide: BTreeMap<usize, (u64, u64)>,
    unclustered_requests: u64,
}

impl Tally {
    /// An empty tally with an index entry for each of a table's `handles`
    /// (sized once: a restore feeds clients in address order, so their
    /// handles would otherwise grow the index one at a time).
    fn with_handles(handles: usize) -> Self {
        Tally {
            slot_of: vec![NO_SLOT; handles],
            ..Tally::default()
        }
    }

    /// The aggregates of the cluster `handle` names, if it has a client.
    fn get(&self, handle: Handle) -> Option<StreamStats> {
        let slot = *self.slot_of.get(handle.index()?)?;
        self.live.get(slot as usize).map(|s| self.stats(s))
    }

    /// A slot's aggregates, its exact sums read from `wide` if they are
    /// there.
    fn stats(&self, slot: &Slot) -> StreamStats {
        let (requests, bytes) =
            (slot.handle.index()).map_or((0, 0), |h| slot.sums.get(&h, &self.wide));
        StreamStats {
            clients: u64::from(slot.clients),
            requests,
            bytes,
        }
    }

    /// Credits `amount` to the cluster `handle` names, or its requests to
    /// the unclustered count when it names none.
    #[allow(
        clippy::cast_possible_truncation,
        reason = "slots and a cluster's clients are at most the stream's clients, whose ids are u32."
    )]
    fn credit(&mut self, handle: Handle, amount: StreamStats) {
        let Some(h) = handle.index() else {
            self.unclustered_requests += amount.requests;
            return;
        };
        if h >= self.slot_of.len() {
            // A handle a patch appended to the arena.
            self.slot_of.reserve_exact(h + 1 - self.slot_of.len());
            self.slot_of.resize(h + 1, NO_SLOT);
        }
        let at = &mut self.slot_of[h];
        if *at == NO_SLOT {
            *at = self.live.len() as u32;
            self.live.push(Slot {
                handle,
                clients: 0,
                sums: Sums::default(),
            });
        }
        let slot = &mut self.live[*at as usize];
        slot.clients += amount.clients as u32;
        (slot.sums).add(h, &mut self.wide, amount.requests, amount.bytes);
    }

    /// Inverse of [`credit`](Self::credit), exactly: `amount` was credited
    /// to `handle` before. A cluster whose last client leaves gives its
    /// slot up, and its wide sums' entry.
    #[allow(clippy::cast_possible_truncation, reason = "as in credit: slots and clients fit u32.")]
    fn debit(&mut self, handle: Handle, amount: StreamStats) {
        let Some(h) = handle.index() else {
            self.unclustered_requests -= amount.requests;
            return;
        };
        let at = self.slot_of[h] as usize;
        let slot = &mut self.live[at];
        slot.clients -= amount.clients as u32;
        (slot.sums).sub(h, &mut self.wide, amount.requests, amount.bytes);
        if slot.clients == 0 {
            debug_assert_eq!(slot.sums.get(&h, &self.wide), (0, 0));
            slot.sums.free(&h, &mut self.wide);
            self.slot_of[h] = NO_SLOT;
            self.live.swap_remove(at);
            if let Some(moved) = self.live.get(at).and_then(|s| s.handle.index()) {
                self.slot_of[moved] = at as u32;
            }
        }
    }

    /// Bytes the index, the slots and the wide sums fill: entries ×
    /// element size.
    fn bytes(&self) -> usize {
        self.slot_of.len() * std::mem::size_of::<u32>()
            + self.live.len() * std::mem::size_of::<Slot>()
            + self.wide.len() * std::mem::size_of::<(usize, (u64, u64))>()
    }
}

/// An incrementally-maintained clustering over a request stream.
///
/// The routing table is compiled once at construction
/// ([`CompiledTable`]), so the per-request hot path does one to three
/// array lookups; [`try_swap`](Self::try_swap) validates and recompiles,
/// and [`apply_deltas`](Self::apply_deltas) patches incrementally. Either
/// publishes a whole new generation, so [`handle`](Self::handle) lookups on
/// other threads proceed through both.
///
/// Construct with [`builder`](Self::builder):
/// `StreamingClustering::builder(table).swap_policy(..).obs(..).build()`.
pub struct StreamingClustering {
    /// The serving generation; the owner reads it by plain reference.
    live: Arc<LiveTable>,
    /// What [`handle`](Self::handle) hands out: always the same generation
    /// as `live`, locked only to clone or store the pointer.
    published: Arc<RwLock<Arc<LiveTable>>>,
    /// The generation `live` superseded and the one accepted batch it
    /// lacks: the next patch batch catches it up and patches it instead of
    /// cloning `live`, unless a reader still holds it.
    spare: Option<(Arc<LiveTable>, Vec<TableDelta>)>,
    /// Per-cluster aggregates and the unclustered request count.
    tally: Tally,
    /// Every client seen, in address order but for a bounded arrival tail
    /// — one search per log line — with its cumulative sums, kept so a
    /// table swap can rebuild the view without replaying the stream. A
    /// client's cluster is no part of its record: the serving table's
    /// longest match of its address names the handle that indexes
    /// `tally`.
    seen: Clients,
    /// Records patch batches have read.
    patch_visited: u64,
    total_requests: u64,
    /// Raw-CLF ingest accounting: lines consumed by
    /// [`push_clf`](Self::push_clf) vs lines quarantined as malformed.
    clf_counts: ErrorCounts,
    /// The feed driver's resume cursor (see [`feed_pos`](Self::feed_pos)):
    /// advanced by the same `&mut self` call that applies the input it
    /// covers, so no reader can observe one without the other.
    feed_pos: u64,
    /// Swap acceptance/rejection accounting.
    swap_stats: SwapStats,
    /// Patch-batch accounting.
    patch_stats: PatchStats,
    /// The most recent rejection, for operators polling stats.
    last_rejection: Option<SwapRejection>,
    /// Thresholds applied by [`try_swap`](Self::try_swap).
    policy: SwapPolicy,
    /// Registry swapped-in tables resolve their LPM counters against.
    obs: Obs,
    /// Resolved swap-path counters/gauge.
    metrics: StreamObs,
}

impl StreamingClustering {
    /// Starts building a streaming clustering over `table`; finish with
    /// [`StreamingBuilder::build`].
    pub fn builder(table: MergedTable) -> StreamingBuilder {
        StreamingBuilder {
            table,
            policy: SwapPolicy::default(),
            obs: Obs::disabled(),
        }
    }

    /// An empty stream serving `table` as generation `version`.
    fn new(mut table: CompiledTable, version: u64, policy: SwapPolicy, obs: Obs) -> Self {
        table.attach_obs(&obs);
        let metrics = StreamObs::resolve(&obs);
        metrics.table_cost(&table);
        let tally = Tally::with_handles(table.prefixes().len());
        let live = Arc::new(LiveTable {
            table,
            version,
            coded_lists: OnceLock::new(),
        });
        StreamingClustering {
            published: Arc::new(RwLock::new(Arc::clone(&live))),
            live,
            spare: None,
            tally,
            seen: Clients::new(),
            patch_visited: 0,
            total_requests: 0,
            clf_counts: ErrorCounts::default(),
            feed_pos: 0,
            swap_stats: SwapStats::default(),
            patch_stats: PatchStats::default(),
            last_rejection: None,
            policy,
            obs,
            metrics,
        }
    }

    /// A lookup handle for reader threads: sees every accepted swap and
    /// patch batch, waits for the owner no longer than one pointer store,
    /// never observes a torn table.
    pub fn handle(&self) -> StreamHandle {
        StreamHandle {
            published: Arc::clone(&self.published),
        }
    }

    /// Feeds a buffer of raw Common Log Format bytes through the
    /// zero-copy parser — no log is built in memory and nothing is
    /// interned.
    /// Malformed lines are skipped and returned (line numbers are
    /// 0-based within `data`, matching the batch parsers).
    pub fn push_clf(&mut self, data: &[u8]) -> Vec<ClfError> {
        let mut errors = Vec::new();
        let mut lines = 0u64;
        for item in clf_bytes::records(data, 0) {
            lines += 1;
            match item {
                Ok((_, r)) => self.push_raw(r.addr, r.bytes as u64),
                Err(e) => errors.push(e),
            }
        }
        self.clf_counts
            .merge(ErrorCounts::new(lines, errors.len() as u64));
        errors
    }

    /// [`push_clf`](Self::push_clf) for a driver that tails a file:
    /// applies `data` and moves the resume cursor to `end_offset` (the
    /// byte position just past `data` in the driver's input) in one
    /// `&mut self` call. Whoever can see the lines can see the cursor that
    /// covers them, so a snapshot exported under any lock that excludes
    /// this call resumes with no line replayed and none lost.
    pub fn push_clf_at(&mut self, data: &[u8], end_offset: u64) -> Vec<ClfError> {
        let errors = self.push_clf(data);
        self.feed_pos = end_offset;
        errors
    }

    /// The resume cursor: where the feed driver continues after a
    /// restart. Set by [`push_clf_at`](Self::push_clf_at), carried through
    /// [`export_state`](Self::export_state) / [`restore`](Self::restore);
    /// 0 for a stream no cursor-aware driver has fed.
    pub fn feed_pos(&self) -> u64 {
        self.feed_pos
    }

    /// Cumulative [`push_clf`](Self::push_clf) accounting: every raw line
    /// consumed vs the lines quarantined as malformed. Quarantined lines
    /// never become requests, so they are reported here and excluded from
    /// [`coverage`](Self::coverage)'s denominator.
    pub fn clf_counts(&self) -> ErrorCounts {
        self.clf_counts
    }

    /// Credits one request of `bytes` to `client`'s cluster under the
    /// serving table: a counted match the first time the stream sees the
    /// client, the same walk uncounted after that.
    fn push_raw(&mut self, client: u32, bytes: u64) {
        self.total_requests += 1;
        let (_, first) = self.seen.add(client, 1, bytes, || ());
        let table = &self.live.table;
        let handle = if first {
            table.match_handle(client)
        } else {
            table.lookup_handle(client)
        };
        let amount = StreamStats {
            clients: u64::from(first),
            requests: 1,
            bytes,
        };
        self.tally.credit(handle, amount);
    }

    /// Number of clusters with at least one request.
    pub fn len(&self) -> usize {
        self.tally.live.len()
    }

    /// `true` before any clustered request arrives.
    pub fn is_empty(&self) -> bool {
        self.tally.live.is_empty()
    }

    /// Total requests consumed.
    pub fn total_requests(&self) -> u64 {
        self.total_requests
    }

    /// Distinct client addresses seen.
    pub fn client_count(&self) -> usize {
        self.seen.len()
    }

    /// Requests from clients that matched no table entry at the time they
    /// arrived.
    pub fn unclustered_requests(&self) -> u64 {
        self.tally.unclustered_requests
    }

    #[cfg(test)]
    pub(crate) fn push_raw_for_tests(&mut self, client: u32, bytes: u64) {
        self.push_raw(client, bytes);
    }

    /// Fraction of *parsed* requests that were clusterable. Lines
    /// quarantined by [`push_clf`](Self::push_clf) never became requests
    /// and are excluded from the denominator — they are accounted in
    /// [`clf_counts`](Self::clf_counts), not as clustered misses — so log
    /// corruption cannot dilute coverage.
    pub fn coverage(&self) -> f64 {
        if self.total_requests == 0 {
            0.0
        } else {
            1.0 - self.tally.unclustered_requests as f64 / self.total_requests as f64
        }
    }

    /// The current top-`k` clusters by request count (ties broken by
    /// prefix for determinism): a selection over the dense slots that
    /// resolves a slot's prefix only to break a tie and for the `k` kept.
    pub fn top_k(&self, k: usize) -> Vec<(Ipv4Net, StreamStats)> {
        let (table, tally) = (&self.live.table, &self.tally);
        let top = keep_top(tally.live.iter(), k, |a, b| {
            (tally.stats(b).requests.cmp(&tally.stats(a).requests))
                .then_with(|| table.resolve(a.handle).cmp(&table.resolve(b.handle)))
        });
        (top.into_iter())
            .filter_map(|slot| Some((table.resolve(slot.handle)?, tally.stats(slot))))
            .collect()
    }

    /// What the stream's growing stores fill, each its elements × element
    /// size (read from the stores, not from the allocator).
    pub fn memory(&self) -> StreamMemory {
        StreamMemory {
            client_records: self.seen.record_bytes(),
            address_map: self.seen.index_bytes(),
            aggregates: self.tally.bytes(),
            patch_state: self.live.table.patch_state_bytes()
                + (self.spare.as_ref()).map_or(0, |(spare, _)| spare.table.patch_state_bytes()),
        }
    }

    /// What the client store has done, in records: the work ledger's
    /// counts.
    // Waived in tests/source_contracts.rs (`pub-fn-caller`): the work
    // ledger's rows in tests/client_store.rs read it.
    pub fn ledger(&self) -> StreamWork {
        StreamWork {
            patch_visited: self.patch_visited,
            merge_moved: self.seen.moved(),
        }
    }

    /// Swap accounting: accepted/rejected counts and the stale-table age.
    pub fn swap_stats(&self) -> SwapStats {
        self.swap_stats
    }

    /// Patch-batch accounting: batches, acceptance, and the table-layer
    /// write mix.
    pub fn patch_stats(&self) -> PatchStats {
        self.patch_stats
    }

    /// Patch-lineage version of the serving generation (bumps on every
    /// accepted patch batch or full swap).
    pub fn table_version(&self) -> u64 {
        self.live.version
    }

    /// The most recent swap rejection, if any.
    pub fn last_rejection(&self) -> Option<SwapRejection> {
        self.last_rejection
    }

    /// Validated two-phase table swap: the candidate is sanity-checked and
    /// compiled *off to the side*; only a candidate with enough entries
    /// that parsed cleanly enough and keeps covering the clients the
    /// stream has already seen replaces the serving table. On rejection the old table
    /// keeps serving untouched and the stale-age counter grows.
    ///
    /// `noise` is the candidate's source parse-noise accounting
    /// ([`ErrorCounts::default`] for programmatically built tables; see
    /// `netclust_rtable::ParseReport::counts`). The thresholds come from
    /// the policy configured at build time
    /// ([`StreamingBuilder::swap_policy`]).
    pub fn try_swap(&mut self, table: MergedTable, noise: ErrorCounts) -> SwapReport {
        self.metrics.attempts.inc();
        let noise_ratio = noise.ratio();
        let candidate_entries = table.len();
        let coverage_before = self.coverage();
        let reject = |this: &mut Self, why: SwapRejection| {
            this.swap_stats.rejected += 1;
            this.swap_stats.stale_age += 1;
            this.last_rejection = Some(why);
            this.metrics.rejected.inc();
            this.metrics.stale_age.set(this.swap_stats.stale_age);
            SwapReport {
                accepted: false,
                rejection: Some(why),
                candidate_entries,
                coverage_before,
                coverage_after: coverage_before,
            }
        };

        if candidate_entries < self.policy.min_entries {
            return reject(
                self,
                SwapRejection::TooFewEntries {
                    entries: candidate_entries,
                    floor: self.policy.min_entries,
                },
            );
        }
        if noise_ratio > self.policy.max_noise_ratio {
            return reject(
                self,
                SwapRejection::NoiseOverBudget {
                    ratio: noise_ratio,
                    budget: self.policy.max_noise_ratio,
                },
            );
        }
        // Compile off to the side; the serving table stays untouched until
        // the coverage gate below passes.
        let mut compiled = table.compile();
        compiled.attach_obs(&self.obs);

        // Re-resolve every known client against the candidate with one
        // batch LPM sweep in address order, rebuild the aggregates from the
        // retained totals — no stream replay needed — and check
        // request-weighted coverage retention before committing.
        self.seen.settle();
        let addrs: Vec<u32> = self.seen.in_order().map(|c| c.addr).collect();
        let handles = compiled.match_handles(&addrs);
        let mut tally = Tally::with_handles(compiled.prefixes().len());
        for (client, &handle) in self.seen.in_order().zip(&handles) {
            tally.credit(handle, totals(&client));
        }
        if self.total_requests > 0 {
            let clustered = self.total_requests - tally.unclustered_requests;
            let coverage_after = clustered as f64 / self.total_requests as f64;
            let floor = coverage_before * self.policy.min_coverage_retention;
            if coverage_after < floor {
                return reject(
                    self,
                    SwapRejection::CoverageCollapse {
                        before: coverage_before,
                        after: coverage_after,
                        floor,
                    },
                );
            }
        }

        // Commit. A full swap supersedes the patch lineage: no batch
        // catches a pre-swap generation up, so the spare goes with it.
        self.publish(LiveTable {
            table: compiled,
            version: self.live.version + 1,
            coded_lists: OnceLock::new(),
        });
        self.spare = None;
        self.tally = tally;
        self.swap_stats.accepted += 1;
        self.swap_stats.stale_age = 0;
        self.last_rejection = None;
        self.metrics.accepted.inc();
        self.metrics.stale_age.set(0);
        SwapReport {
            accepted: true,
            rejection: None,
            candidate_entries,
            coverage_before,
            coverage_after: self.coverage(),
        }
    }

    /// Applies one batch of per-prefix routing deltas incrementally: a
    /// *copy* of the serving table (the superseded generation when no
    /// reader still holds it, caught up by the one batch it lacks) is
    /// patched in place (`CompiledTable::apply_delta`), only the clients
    /// the batch can affect are re-resolved, and the [`SwapPolicy`]
    /// entry/coverage gates run before the patched generation is
    /// published. Rejection discards the candidate; the old generation
    /// keeps serving, and concurrent [`handle`](Self::handle) lookups wait
    /// for neither outcome.
    pub fn apply_deltas(&mut self, deltas: &[TableDelta]) -> PatchBatchReport {
        let _span = self.obs.span("stream.patch");
        let coverage_before = self.coverage();
        if deltas.is_empty() {
            return PatchBatchReport {
                accepted: true,
                rejection: None,
                patch: PatchReport::default(),
                candidate_entries: self.live.table.len(),
                reassigned_clients: 0,
                coverage_before,
                coverage_after: coverage_before,
            };
        }
        self.patch_stats.batches += 1;
        self.metrics.patch_batches.inc();
        self.metrics.patch_batch_deltas.record(deltas.len() as u64);

        // Build the candidate off to the side: recycle the superseded
        // generation when the owner holds the only reference to it,
        // otherwise clone the serving generation.
        let recycled = self.spare.take().and_then(|(stale, missed)| {
            let mut stale = Arc::try_unwrap(stale).ok()?;
            stale.table.apply_delta(&missed);
            Some(stale)
        });
        let mut candidate = recycled.unwrap_or_else(|| LiveTable::clone(&self.live));
        let patch = candidate.table.apply_delta(deltas);
        self.patch_stats.slot_writes += patch.slot_writes() as u64;
        self.patch_stats.group_rebuilds += patch.groups_rebuilt as u64;
        if patch.recompiled {
            self.patch_stats.recompiles += 1;
            self.metrics.patch_recompiles.inc();
        }
        self.metrics
            .patch_slot_writes
            .add(patch.slot_writes() as u64);
        self.metrics
            .patch_group_rebuilds
            .add(patch.groups_rebuilt as u64);

        let candidate_entries = candidate.table.len();
        let reject = |this: &mut Self, why: SwapRejection| {
            this.patch_stats.rejected += 1;
            this.last_rejection = Some(why);
            this.metrics.patch_rejected.inc();
            PatchBatchReport {
                accepted: false,
                rejection: Some(why),
                patch,
                candidate_entries,
                reassigned_clients: 0,
                coverage_before,
                coverage_after: coverage_before,
            }
        };

        // A rejected candidate is dropped on the floor; the serving
        // generation was never touched.
        if candidate_entries < self.policy.min_entries {
            return reject(
                self,
                SwapRejection::TooFewEntries {
                    entries: candidate_entries,
                    floor: self.policy.min_entries,
                },
            );
        }

        // Re-resolve only the clients the batch can affect: those assigned
        // to a withdrawn prefix and those any other delta's prefix covers
        // (a longer match may capture them; a replace of a prefix that is
        // not live is an announce). Both lie inside a delta's prefix, one
        // address range, so the batch reads the run's records in the union
        // of those ranges and the arrival tail's, no others. Everyone else
        // keeps their assignment — that containment argument is what makes
        // a patch batch O(affected) instead of O(clients) — and their
        // handle, which a patch never moves (DESIGN.md §15), so the patched
        // table finds the slot they were credited to. A freed handle may
        // come back for another prefix, so the aggregates move on a change
        // of handle and a reassignment is a change of prefix. A record's
        // old handle is the serving table's match, read before the publish.
        let (serving, patched) = (&self.live.table, &candidate.table);
        // The serving handles of the withdrawn prefixes, sorted.
        let mut withdrawn: Vec<usize> = (deltas.iter())
            .filter(|d| d.kind == DeltaKind::Withdraw)
            .filter_map(|d| serving.handle_of(d.prefix)?.index())
            .collect();
        withdrawn.sort_unstable();
        let announced: Vec<Ipv4Net> = deltas
            .iter()
            .filter(|d| d.kind != DeltaKind::Withdraw)
            .map(|d| d.prefix)
            .collect();
        let mut ranges: Vec<(u32, u32)> = (deltas.iter())
            .map(|d| {
                let span = u32::MAX.checked_shr(u32::from(d.prefix.len())).unwrap_or(0);
                (d.prefix.addr_u32(), d.prefix.addr_u32() | span)
            })
            .collect();
        ranges.sort_unstable_by_key(|&(lo, hi)| (lo, std::cmp::Reverse(hi)));
        // Prefixes nest or are disjoint, and a range sorts after the ones
        // holding it: a range inside the one before it is already walked.
        ranges.dedup_by(|inner, outer| inner.1 <= outer.1);
        let seen = &self.seen;
        let positions = (ranges.iter())
            .flat_map(|&(lo, hi)| seen.range(lo, hi))
            .chain(seen.tail_positions());
        let mut visited = 0u64;
        // (position, serving handle, patched handle) of each client whose
        // aggregates move.
        let mut moves: Vec<(usize, Handle, Handle)> = Vec::new();
        let mut reassigned_clients = 0;
        // Wide enough for any sum of u64 counts with either sign.
        let mut unclustered_delta = 0i128;
        for pos in positions {
            let Some(record) = seen.at(pos) else {
                continue;
            };
            visited += 1;
            // A tail record outside every delta's prefix is not hit, and
            // costs no table walk.
            if !(ranges.iter()).any(|&(lo, hi)| (lo..=hi).contains(&record.addr)) {
                continue;
            }
            let old = serving.lookup_handle(record.addr);
            let hit = (old.index()).is_some_and(|h| withdrawn.binary_search(&h).is_ok())
                || announced.iter().any(|p| p.contains_u32(record.addr));
            if !hit {
                continue;
            }
            let net = serving.resolve(old);
            let handle = patched.match_handle(record.addr);
            let new_net = patched.resolve(handle);
            reassigned_clients += usize::from(new_net != net);
            if handle == old {
                continue;
            }
            if net.is_none() {
                unclustered_delta -= i128::from(record.requests);
            }
            if new_net.is_none() {
                unclustered_delta += i128::from(record.requests);
            }
            moves.push((pos, old, handle));
        }
        self.patch_visited += visited;
        let coverage_after = if self.total_requests == 0 {
            0.0
        } else {
            let unclustered = i128::from(self.tally.unclustered_requests) + unclustered_delta;
            1.0 - unclustered.max(0) as f64 / self.total_requests as f64
        };
        if self.total_requests > 0 {
            let floor = coverage_before * self.policy.min_coverage_retention;
            if coverage_after < floor {
                return reject(
                    self,
                    SwapRejection::CoverageCollapse {
                        before: coverage_before,
                        after: coverage_after,
                        floor,
                    },
                );
            }
        }

        // Commit: publish the generation, keep the superseded one with the
        // batch it lacks, and move the affected clients' aggregates between
        // clusters.
        candidate.version = self.live.version + 1;
        let superseded = self.publish(candidate);
        self.spare = Some((superseded, deltas.to_vec()));
        for (pos, old, handle) in moves {
            let Some(client) = self.seen.at(pos) else {
                continue;
            };
            self.tally.debit(old, totals(&client));
            self.tally.credit(handle, totals(&client));
        }
        self.patch_stats.accepted += 1;
        self.last_rejection = None;
        PatchBatchReport {
            accepted: true,
            rejection: None,
            patch,
            candidate_entries,
            reassigned_clients,
            coverage_before,
            coverage_after: self.coverage(),
        }
    }

    /// Makes `next` the serving generation, for the owner and for every
    /// [`handle`](Self::handle); returns the one it superseded. A patched
    /// copy of an older generation drops the older one's list size.
    fn publish(&mut self, mut next: LiveTable) -> Arc<LiveTable> {
        self.metrics.table_cost(&next.table);
        next.coded_lists = OnceLock::new();
        let next = Arc::new(next);
        *self
            .published
            .write()
            .unwrap_or_else(PoisonError::into_inner) = Arc::clone(&next);
        std::mem::replace(&mut self.live, next)
    }

    /// Exports everything the durability layer persists: the serving
    /// table's live prefix sets, the retained per-client totals, every
    /// cumulative counter, and the resume cursor as of the same instant
    /// ([`feed_pos`](Self::feed_pos)). `feed` is left zeroed for the feed
    /// driver to fill in. [`restore`](Self::restore) is the inverse.
    pub fn export_state(&self) -> StreamState {
        let mut state = self.export_head();
        state.bgp_prefixes = self.live.table.live_prefixes();
        state.dump_prefixes = self.live.table.dump_prefixes().to_vec();
        state.per_client = Vec::with_capacity(self.seen.len());
        state.per_client.extend(self.client_rows());
        state
    }

    /// What `StateStore::checkpoint(&self.export_state())` would write,
    /// for `StateStore::checkpoint_encoded`: the client rows coded into
    /// the snapshot's file `to` as it holds them — each row's address gap
    /// and its counts' varints — by one walk over the records in address
    /// order, through a bounded stack buffer, and the serving generation
    /// held for the prefix lists, which the store codes from the table as
    /// it holds them when `self` is no longer needed. A caller encoding
    /// under a lock drops it when this returns, so writers wait for that
    /// one walk, no more, and no heap grows with the clients.
    pub fn encode_state(&self, to: &SnapshotFile<'_>) -> io::Result<EncodedState> {
        let (head, rows) = (self.export_head(), self.client_rows());
        EncodedState::new(to, &head, Arc::clone(&self.live), rows)
    }

    /// The retained `(address, requests, bytes)` totals, in address order.
    fn client_rows(&self) -> impl Iterator<Item = (u32, u64, u64)> + '_ {
        (self.seen.in_order()).map(|c| (c.addr, c.requests, c.bytes))
    }

    /// [`export_state`](Self::export_state) without the prefix lists and
    /// the client rows.
    fn export_head(&self) -> StreamState {
        StreamState {
            table_version: self.live.version,
            feed_pos: self.feed_pos,
            bgp_prefixes: Vec::new(),
            dump_prefixes: Vec::new(),
            per_client: Vec::new(),
            total_requests: self.total_requests,
            unclustered_requests: self.tally.unclustered_requests,
            clf_counts: self.clf_counts,
            swap_stats: self.swap_stats,
            patch_stats: self.patch_stats,
            last_rejection: self.last_rejection,
            feed: FeedProgress::default(),
        }
    }

    /// Rebuilds a stream from a persisted [`StreamState`]: compiles the
    /// two routing tiers straight from their live prefix lists (the same
    /// constructor [`MergedTable::compile`] runs, so the layout is the one
    /// a fresh build of those sets gets), resolves every retained client
    /// under the recompiled table and credits its totals — appended to the
    /// store as they come, in address order — and cross-checks the
    /// snapshot's stored totals against the recomputed ones. Rows out of
    /// address order or a disagreement mean a corrupt-but-checksummed
    /// snapshot and are a typed [`RestoreError`], never a panic.
    ///
    /// The journal's delta batches are *not* applied here; replay them
    /// through [`apply_deltas`](Self::apply_deltas) afterwards, which also
    /// reproduces the patch accounting the crashed process accumulated
    /// after its last snapshot.
    pub fn restore(
        state: &StreamState,
        policy: SwapPolicy,
        obs: Obs,
    ) -> Result<Self, RestoreError> {
        let table = CompiledTable::tiered(&state.bgp_prefixes, &state.dump_prefixes);
        let mut stream = Self::new(table, state.table_version, policy, obs);
        let rows = &state.per_client;
        // A decoded snapshot's rows are in address order, no address twice:
        // the decoder refuses any others.
        if let Some(w) = rows
            .windows(2)
            .find(|w| w.first().map(|r| r.0) >= w.get(1).map(|r| r.0))
        {
            return Err(RestoreError {
                what: "client address (at least the row before's + 1)",
                stored: w.get(1).map_or(0, |r| u64::from(r.0)),
                recomputed: w.first().map_or(0, |r| u64::from(r.0) + 1),
            });
        }
        let (live, tally) = (&stream.live, &mut stream.tally);
        let run = (rows.iter()).map(|&(addr, requests, bytes)| {
            let client = Client {
                addr,
                requests,
                bytes,
                memo: (),
            };
            tally.credit(live.table.match_handle(addr), totals(&client));
            client
        });
        stream.seen = Clients::from_sorted(run);
        stream.total_requests = rows.iter().map(|r| r.1).sum();
        if stream.total_requests != state.total_requests {
            return Err(RestoreError {
                what: "total_requests",
                stored: state.total_requests,
                recomputed: stream.total_requests,
            });
        }
        if stream.tally.unclustered_requests != state.unclustered_requests {
            return Err(RestoreError {
                what: "unclustered_requests",
                stored: state.unclustered_requests,
                recomputed: stream.tally.unclustered_requests,
            });
        }
        stream.clf_counts = state.clf_counts;
        stream.feed_pos = state.feed_pos;
        stream.swap_stats = state.swap_stats;
        stream.patch_stats = state.patch_stats;
        stream.last_rejection = state.last_rejection;
        Ok(stream)
    }
}

impl ClusterQuery for StreamingClustering {
    /// `addr`'s cluster under the serving table — its longest-prefix
    /// match, counted for an address the stream has not seen (a seen
    /// client's was counted when it arrived) — with its aggregates and the
    /// client's own totals, for one search of the client store, one table
    /// walk and one index.
    fn lookup(&self, addr: Ipv4Addr) -> ClusterAnswer {
        let (client, table) = (u32::from(addr), &self.live.table);
        let (handle, client_requests, client_bytes) = match self.seen.get(client) {
            Some(record) => (table.lookup_handle(client), record.requests, record.bytes),
            None => (table.match_handle(client), 0, 0),
        };
        let stats = self.tally.get(handle).unwrap_or_default();
        ClusterAnswer {
            addr,
            cluster: table.resolve(handle),
            cluster_clients: stats.clients,
            cluster_requests: stats.requests,
            cluster_bytes: stats.bytes,
            client_requests,
            client_bytes,
        }
    }

    fn top(&self, n: usize) -> Vec<ClusterRow> {
        self.top_k(n)
            .into_iter()
            .map(|(prefix, s)| ClusterRow {
                prefix,
                clients: s.clients,
                requests: s.requests,
                bytes: s.bytes,
                unique_urls: None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Assigner, Clustering};
    use crate::query::ClusterQuery;
    use netclust_netgen::{generate, standard_merged, LogSpec, Universe, UniverseConfig};
    use netclust_rtable::{RoutingTable, TableKind};
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn setup() -> (Universe, netclust_netgen::Log) {
        let u = Universe::generate(UniverseConfig::small(7));
        let mut spec = LogSpec::tiny("st", 13);
        spec.total_requests = 8_000;
        spec.target_clients = 300;
        let log = generate(&u, &spec);
        (u, log)
    }

    /// A cluster's aggregates as a top-N over every cluster lists them.
    fn stats(stream: &StreamingClustering, prefix: Ipv4Net) -> Option<StreamStats> {
        (stream.top_k(usize::MAX).into_iter()).find_map(|(p, s)| (p == prefix).then_some(s))
    }

    /// The cluster `addr` maps to, as `/v1/cluster` answers it.
    fn cluster_of(stream: &StreamingClustering, addr: Ipv4Addr) -> Option<Ipv4Net> {
        stream.lookup(addr).cluster
    }

    #[test]
    fn streaming_matches_batch() {
        let (u, log) = setup();
        let merged = standard_merged(&u, 0);
        let batch = Clustering::by(log.hits(), Assigner::NetworkAware(&merged.compile()));
        let mut stream = StreamingClustering::builder(standard_merged(&u, 0)).build();
        for r in &log.requests {
            stream.push_raw(r.client, r.bytes.into());
        }
        assert_eq!(stream.len(), batch.len());
        assert_eq!(stream.total_requests(), log.requests.len() as u64);
        for cluster in &batch.clusters {
            let s = stats(&stream, cluster.prefix).expect("cluster present");
            assert_eq!(s.requests, cluster.requests, "{}", cluster.prefix);
            assert_eq!(s.clients, cluster.client_count() as u64);
            assert_eq!(s.bytes, cluster.bytes);
        }
        // Coverage agrees (request-weighted vs client-weighted differ, so
        // compare against the request tally directly).
        let unclustered_reqs: u64 = batch.unclustered().iter().map(|c| c.requests).sum();
        let expect = 1.0 - unclustered_reqs as f64 / log.requests.len() as f64;
        assert!((stream.coverage() - expect).abs() < 1e-12);
    }

    #[test]
    fn push_clf_matches_push() {
        let (u, log) = setup();
        let mut by_request = StreamingClustering::builder(standard_merged(&u, 0)).build();
        for r in &log.requests {
            by_request.push_raw(r.client, r.bytes.into());
        }
        let mut by_bytes = StreamingClustering::builder(standard_merged(&u, 0)).build();
        let text = netclust_netgen::to_clf(&log);
        let errors = by_bytes.push_clf(text.as_bytes());
        assert!(errors.is_empty());
        assert_eq!(by_bytes.total_requests(), by_request.total_requests());
        assert_eq!(by_bytes.len(), by_request.len());
        assert_eq!(by_bytes.top_k(usize::MAX), by_request.top_k(usize::MAX));
        assert!((by_bytes.coverage() - by_request.coverage()).abs() < 1e-12);
        // Malformed lines are surfaced, well-formed ones still land.
        let mut s = StreamingClustering::builder(standard_merged(&u, 0)).build();
        let errs = s.push_clf(
            b"bogus\n1.2.3.4 - - [13/Feb/1998:07:00:00 +0000] \"GET /x HTTP/1.0\" 200 10\n",
        );
        assert_eq!(errs.len(), 1);
        assert_eq!(errs[0].line, 0);
        assert_eq!(s.total_requests(), 1);
        // Quarantined lines land in clf_counts, not in coverage's
        // denominator: the one parsed request is clustered or not on its
        // own terms.
        assert_eq!(s.clf_counts(), ErrorCounts::new(2, 1));
    }

    #[test]
    fn top_k_tracks_busiest() {
        let (u, log) = setup();
        let mut stream = StreamingClustering::builder(standard_merged(&u, 0)).build();
        for r in &log.requests {
            stream.push_raw(r.client, r.bytes.into());
        }
        let top = stream.top_k(5);
        assert_eq!(top.len(), 5.min(stream.len()));
        assert!(top.windows(2).all(|w| w[0].1.requests >= w[1].1.requests));
        // The top cluster matches the batch busiest.
        let merged = standard_merged(&u, 0);
        let batch = Clustering::by(log.hits(), Assigner::NetworkAware(&merged.compile()));
        assert_eq!(top[0].1.requests, batch.top(1)[0].requests);
    }

    #[test]
    fn table_swap_rebuilds_consistently() {
        let (u, log) = setup();
        let mut stream = StreamingClustering::builder(standard_merged(&u, 0)).build();
        for r in &log.requests {
            stream.push_raw(r.client, r.bytes.into());
        }
        let before_total = stream.total_requests();
        // Swap to day 7's table: the view must equal a batch clustering
        // against that table.
        let report = stream.try_swap(standard_merged(&u, 7), ErrorCounts::default());
        assert!(report.accepted, "rejected: {:?}", report.rejection);
        assert_eq!(stream.total_requests(), before_total);
        assert_eq!(stream.swap_stats().accepted, 1);
        let batch = Clustering::by(
            log.hits(),
            Assigner::NetworkAware(&standard_merged(&u, 7).compile()),
        );
        assert_eq!(stream.len(), batch.len());
        for cluster in &batch.clusters {
            let s = stats(&stream, cluster.prefix).expect("present after swap");
            assert_eq!(s.requests, cluster.requests);
        }
    }

    #[test]
    fn rejected_swap_leaves_view_untouched() {
        let (u, log) = setup();
        let mut stream = StreamingClustering::builder(standard_merged(&u, 0)).build();
        for r in &log.requests {
            stream.push_raw(r.client, r.bytes.into());
        }
        let before = stream.top_k(usize::MAX);
        let coverage = stream.coverage();

        // Empty candidate: a scrape failure, not a routing change.
        let empty = MergedTable::merge(std::iter::empty());
        let report = stream.try_swap(empty, ErrorCounts::default());
        assert!(!report.accepted);
        assert!(matches!(
            report.rejection,
            Some(SwapRejection::TooFewEntries {
                entries: 0,
                floor: 1
            })
        ));

        // Over-noisy source dump (1 malformed line in 2 = 50 % noise).
        let report = stream.try_swap(standard_merged(&u, 7), ErrorCounts::new(2, 1));
        assert!(matches!(
            report.rejection,
            Some(SwapRejection::NoiseOverBudget { .. })
        ));

        // Coverage collapse: a table that covers nothing the stream saw.
        let bogus = netclust_rtable::RoutingTable::new(
            "bogus",
            "d0",
            netclust_rtable::TableKind::Bgp,
            vec!["203.0.113.0/24".parse().unwrap()],
        );
        let report = stream.try_swap(MergedTable::merge([&bogus]), ErrorCounts::default());
        assert!(matches!(
            report.rejection,
            Some(SwapRejection::CoverageCollapse { .. })
        ));

        // After three rejections: view identical, degraded-mode age = 3.
        assert_eq!(stream.top_k(usize::MAX), before);
        assert!((stream.coverage() - coverage).abs() < 1e-12);
        let stats = stream.swap_stats();
        assert_eq!(stats.accepted, 0);
        assert_eq!(stats.rejected, 3);
        assert_eq!(stats.stale_age, 3);
        assert_eq!(stream.last_rejection(), report.rejection);

        // A good candidate then clears degraded mode (1 % noise is under
        // the default 5 % budget).
        let ok = stream.try_swap(standard_merged(&u, 7), ErrorCounts::new(100, 1));
        assert!(ok.accepted);
        assert_eq!(stream.swap_stats().stale_age, 0);
        assert_eq!(stream.last_rejection(), None);
    }

    #[test]
    fn swap_metrics_reach_the_registry() {
        let (u, log) = setup();
        let obs = Obs::enabled();
        let mut stream = StreamingClustering::builder(standard_merged(&u, 0))
            .obs(obs.clone())
            .build();
        for r in &log.requests {
            stream.push_raw(r.client, r.bytes.into());
        }
        let empty = MergedTable::merge(std::iter::empty());
        stream.try_swap(empty, ErrorCounts::default());
        stream.try_swap(standard_merged(&u, 7), ErrorCounts::default());
        let snap = obs.snapshot(true);
        assert_eq!(snap.counters.get("stream.swap.attempts"), Some(&2));
        assert_eq!(snap.counters.get("stream.swap.accepted"), Some(&1));
        assert_eq!(snap.counters.get("stream.swap.rejected"), Some(&1));
        assert_eq!(snap.gauges.get("stream.swap.stale_age"), Some(&0));
        // The serving table resolved its LPM counters against the same
        // registry: pushes and the swap validation sweep were counted.
        assert!(snap.counters.get("lpm.lookups").copied().unwrap_or(0) > 0);
    }

    /// The streaming view after any sequence of patches/swaps must equal a
    /// from-scratch re-resolution of every retained client against the
    /// serving table — the incremental aggregate moves cannot drift.
    fn assert_view_consistent(stream: &StreamingClustering) {
        let table = &stream.live.table;
        let mut tally = Tally::default();
        for record in stream.seen.in_order() {
            tally.credit(table.lookup_handle(record.addr), totals(&record));
        }
        assert_eq!(
            stream.tally.unclustered_requests,
            tally.unclustered_requests
        );
        // Slots are in no order: compare them by handle, and every index
        // entry against the slot it names. A slot's sums once wide stay
        // wide, so compare the sums, not how they are held.
        let by_handle = |t: &Tally| {
            let mut slots: Vec<_> = (t.live.iter())
                .map(|s| (s.handle.index(), t.stats(s)))
                .collect();
            slots.sort_unstable_by_key(|s| s.0);
            slots
        };
        assert_eq!(by_handle(&stream.tally), by_handle(&tally));
        for (h, &at) in stream.tally.slot_of.iter().enumerate() {
            let slot = stream.tally.live.get(at as usize);
            assert_eq!(
                slot.and_then(|s| s.handle.index()),
                (at != NO_SLOT).then_some(h)
            );
        }
        // A wide entry belongs to a slot in use.
        for &h in stream.tally.wide.keys() {
            assert_ne!(stream.tally.slot_of.get(h), Some(&NO_SLOT), "{h}");
            assert!(h < stream.tally.slot_of.len());
        }
    }

    #[test]
    fn patch_batches_track_live_routing_changes() {
        let (u, log) = setup();
        let mut stream = StreamingClustering::builder(standard_merged(&u, 0)).build();
        for r in &log.requests {
            stream.push_raw(r.client, r.bytes.into());
        }
        assert_view_consistent(&stream);
        let before_total = stream.total_requests();
        let handle = stream.handle();

        // Withdraw the busiest cluster's prefix: its clients must remap to
        // a covering prefix or become unclustered, everyone else untouched.
        let (busiest, busy_stats) = stream.top_k(1)[0];
        let report = stream.apply_deltas(&[TableDelta::withdraw(busiest)]);
        assert!(report.accepted, "rejected: {:?}", report.rejection);
        assert!(!report.patch.recompiled);
        assert!(report.reassigned_clients as u64 >= busy_stats.clients);
        assert_eq!(stats(&stream, busiest), None);
        assert_view_consistent(&stream);

        // Re-announce it: the clients move back.
        let report = stream.apply_deltas(&[TableDelta::announce(busiest)]);
        assert!(report.accepted);
        assert_eq!(
            stats(&stream, busiest),
            Some(busy_stats),
            "announce must restore the withdrawn cluster exactly"
        );
        assert_eq!(stream.total_requests(), before_total);
        assert_view_consistent(&stream);

        // A handle minted before the batches tracked both publishes.
        assert_eq!(stream.table_version(), 2);
        assert_eq!(handle.version(), 2);
        let stats = stream.patch_stats();
        assert_eq!(stats.batches, 2);
        assert_eq!(stats.accepted, 2);
        assert!(stats.slot_writes > 0);
    }

    /// `rtable::patch` installs a `replace` of a prefix that is not live as
    /// an announce; the clients it covers must move with the table, and a
    /// restart (which re-resolves everyone) must not change the answers.
    #[test]
    fn replace_of_an_absent_prefix_reassigns_the_clients_it_covers() {
        let net = |s: &str| s.parse::<Ipv4Net>().expect("prefix");
        let bgp = RoutingTable::new("B", "d0", TableKind::Bgp, vec![net("10.0.0.0/8")]);
        let mut stream = StreamingClustering::builder(MergedTable::merge([&bgp])).build();
        let (seen, unseen) = (Ipv4Addr::new(10, 1, 2, 3), Ipv4Addr::new(10, 1, 2, 4));
        stream.push_raw(u32::from(seen), 100);
        let report = stream.apply_deltas(&[TableDelta::replace(net("10.1.0.0/16"))]);
        assert!(report.accepted, "rejected: {:?}", report.rejection);
        assert_eq!(report.reassigned_clients, 1);
        assert_eq!(cluster_of(&stream, unseen), Some(net("10.1.0.0/16")));
        assert_eq!(cluster_of(&stream, seen), Some(net("10.1.0.0/16")));
        assert_eq!(stats(&stream, net("10.0.0.0/8")), None);
        assert_view_consistent(&stream);
        let restarted = StreamingClustering::restore(
            &stream.export_state(),
            SwapPolicy::default(),
            Obs::disabled(),
        )
        .expect("a fresh export restores");
        assert_eq!(restarted.top_k(usize::MAX), stream.top_k(usize::MAX));
    }

    #[test]
    fn patch_equals_full_swap_of_same_prefix_set() {
        // Patching prefixes in and out must serve the same lookups as a
        // stream rebuilt over the final table (swap path), client for
        // client.
        let (u, log) = setup();
        let mut patched = StreamingClustering::builder(standard_merged(&u, 0)).build();
        let mut swapped = StreamingClustering::builder(standard_merged(&u, 0))
            .swap_policy(SwapPolicy {
                min_entries: 0,
                max_noise_ratio: 1.0,
                min_coverage_retention: 0.0,
            })
            .build();
        for r in &log.requests {
            patched.push_raw(r.client, r.bytes.into());
            swapped.push_raw(r.client, r.bytes.into());
        }
        let victims: Vec<Ipv4Net> = patched.top_k(3).iter().map(|&(p, _)| p).collect();
        let deltas: Vec<TableDelta> = victims.iter().map(|&p| TableDelta::withdraw(p)).collect();
        let report = patched.apply_deltas(&deltas);
        assert!(report.accepted, "rejected: {:?}", report.rejection);

        // Build the equivalent full table: day-0 BGP tier minus the
        // victims, compiled from scratch through the swap path.
        let merged = standard_merged(&u, 0);
        let keep: Vec<Ipv4Net> = merged
            .bgp_prefixes()
            .iter()
            .copied()
            .filter(|p| !victims.contains(p))
            .collect();
        let bgp = RoutingTable::new("patched-equiv", "d0", TableKind::Bgp, keep);
        let dump = RoutingTable::new(
            "dump-equiv",
            "d0",
            TableKind::NetworkDump,
            merged.dump_prefixes().to_vec(),
        );
        let report = swapped.try_swap(MergedTable::merge([&bgp, &dump]), ErrorCounts::default());
        assert!(report.accepted, "rejected: {:?}", report.rejection);
        assert_eq!(patched.top_k(usize::MAX), swapped.top_k(usize::MAX));
        assert!((patched.coverage() - swapped.coverage()).abs() < 1e-12);
        assert_view_consistent(&patched);
    }

    #[test]
    fn patch_coverage_gate_rejects_and_preserves_serving_table() {
        // Two BGP prefixes, no dump tier to fall back to: withdrawing the
        // busy one would strand nearly every client, so the retention gate
        // must fire (with enough entries left that the entry floor does
        // not trip first).
        let bgp = netclust_rtable::RoutingTable::new(
            "only",
            "d0",
            netclust_rtable::TableKind::Bgp,
            vec![
                "10.0.0.0/8".parse().unwrap(),
                "192.168.0.0/16".parse().unwrap(),
            ],
        );
        let mut stream = StreamingClustering::builder(MergedTable::merge([&bgp]))
            .swap_policy(SwapPolicy {
                min_coverage_retention: 1.0, // no regression allowed
                ..SwapPolicy::default()
            })
            .build();
        for host in 0..50u32 {
            stream.push_raw(0x0A00_0000 + host, 100);
        }
        stream.push_raw(0xC0A8_0001, 100);
        assert_eq!(stream.coverage(), 1.0);
        let before = stream.top_k(usize::MAX);
        let version = stream.table_version();
        let deltas = vec![TableDelta::withdraw("10.0.0.0/8".parse().unwrap())];
        let report = stream.apply_deltas(&deltas);
        assert!(!report.accepted);
        assert!(matches!(
            report.rejection,
            Some(SwapRejection::CoverageCollapse { .. })
        ));
        assert!(report.coverage_after <= report.coverage_before);
        // Old generation intact: view, version, and lookups unchanged.
        assert_eq!(stream.top_k(usize::MAX), before);
        assert_eq!(stream.table_version(), version);
        assert_eq!(stream.patch_stats().rejected, 1);
        assert_eq!(stream.last_rejection(), report.rejection);
        assert_view_consistent(&stream);
    }

    /// A reader stalled on the superseded generation keeps it whole; the
    /// owner's next batch clones the serving table instead of recycling,
    /// and the batch after that recycles again.
    #[test]
    fn a_stalled_reader_keeps_its_generation_and_costs_one_clone() {
        let (u, log) = setup();
        let mut stream = StreamingClustering::builder(standard_merged(&u, 0)).build();
        for r in &log.requests {
            stream.push_raw(r.client, r.bytes.into());
        }
        let victims: Vec<Ipv4Net> = stream.top_k(3).iter().map(|&(p, _)| p).collect();
        let probe = victims[0].addr_u32();
        let stalled = stream.handle().current();
        for (i, &victim) in victims.iter().enumerate() {
            let report = stream.apply_deltas(&[TableDelta::withdraw(victim)]);
            assert!(report.accepted, "rejected: {:?}", report.rejection);
            // After the first batch the spare is the generation the reader
            // holds; after the second it is one nobody else does.
            let (spare, _) = stream
                .spare
                .as_ref()
                .expect("an accepted batch leaves a spare");
            assert_eq!(Arc::ptr_eq(spare, &stalled), i == 0);
            assert_eq!(Arc::strong_count(spare), if i == 0 { 2 } else { 1 });
            assert_view_consistent(&stream);
        }
        assert_eq!(stalled.version, 0);
        assert_eq!(stalled.table.lookup(probe), Some(victims[0]));
        assert_ne!(cluster_of(&stream, Ipv4Addr::from(probe)), Some(victims[0]));
    }

    #[test]
    fn entry_floor_discards_the_patched_candidate() {
        let (u, log) = setup();
        let merged = standard_merged(&u, 0);
        let entries = merged.len();
        let mut stream = StreamingClustering::builder(merged)
            .swap_policy(SwapPolicy {
                min_entries: entries,
                ..SwapPolicy::default()
            })
            .build();
        for r in &log.requests {
            stream.push_raw(r.client, r.bytes.into());
        }
        let before = stream.top_k(usize::MAX);
        let (target, _) = before[0];
        // A lone withdrawal leaves the patched candidate one entry short.
        let report = stream.apply_deltas(&[TableDelta::withdraw(target)]);
        assert!(!report.accepted);
        assert_eq!(
            report.rejection,
            Some(SwapRejection::TooFewEntries {
                entries: entries - 1,
                floor: entries,
            })
        );
        // Old generation serves untouched.
        assert_eq!(stream.top_k(usize::MAX), before);
        assert!(stats(&stream, target).is_some());
        assert_eq!(stream.patch_stats().rejected, 1);
        assert_view_consistent(&stream);
        // The same withdrawal with an announcement that keeps the floor
        // applies.
        let spare = "203.0.113.0/24".parse().unwrap();
        let report =
            stream.apply_deltas(&[TableDelta::announce(spare), TableDelta::withdraw(target)]);
        assert!(report.accepted, "{:?}", report.rejection);
        assert_eq!(stats(&stream, target), None);
        assert_view_consistent(&stream);
    }

    #[test]
    fn patch_metrics_reach_the_registry() {
        let (u, log) = setup();
        let obs = Obs::enabled();
        let mut stream = StreamingClustering::builder(standard_merged(&u, 0))
            .obs(obs.clone())
            .build();
        for r in &log.requests {
            stream.push_raw(r.client, r.bytes.into());
        }
        let (busiest, _) = stream.top_k(1)[0];
        stream.apply_deltas(&[TableDelta::withdraw(busiest)]);
        stream.apply_deltas(&[TableDelta::announce(busiest)]);
        let snap = obs.snapshot(true);
        assert_eq!(snap.counters.get("stream.patch.batches"), Some(&2));
        assert!(
            snap.counters
                .get("stream.patch.slot_writes")
                .copied()
                .unwrap_or(0)
                > 0
        );
        assert!(snap.histograms.contains_key("stream.patch.batch_deltas"));
        // What the serving table costs, as of the generation just published.
        let table = &stream.live.table;
        let (bytes, nodes) = (table.memory_bytes() as u64, table.nodes() as u64);
        assert!(bytes > 0 && nodes > 0);
        assert_eq!(snap.gauges.get("lpm.table_bytes"), Some(&bytes));
        assert_eq!(snap.gauges.get("lpm.nodes"), Some(&nodes));
        assert!(snap.gauges.contains_key("lpm.dead_cells"));
    }

    /// The DIR-24-8 layout held >/24 handles in 16 bits, so a >/24
    /// announce whose arena slot landed at 65 534 or beyond recompiled the
    /// whole table — on a resume, inside journal replay, before the first
    /// answer. One slot width now: neither a table of that many >/24
    /// prefixes nor one that many prefixes deep has a cliff.
    #[test]
    fn replaying_a_long_announce_into_a_big_table_never_recompiles() {
        for len in [25u8, 24] {
            replay_long_announce_over(len);
        }
    }

    fn replay_long_announce_over(len: u8) {
        let n = u32::from(u16::MAX) + 16;
        let mut prefixes: Vec<Ipv4Net> = (0..n)
            .map(|i| Ipv4Net::new(0x2000_0000 | (i << 8), len).expect("len"))
            .collect();
        prefixes.push(Ipv4Net::new(0x2000_0700, 25).expect("/25"));
        let bgp = RoutingTable::new("B", "d0", TableKind::Bgp, prefixes);
        let mut before = StreamingClustering::builder(MergedTable::merge([&bgp])).build();
        let client = 0x2000_0000 | (n << 8) | 0x81;
        before.push_raw(client, 100);
        assert_eq!(cluster_of(&before, Ipv4Addr::from(client)), None);

        // The crash: state snapshotted, then one batch journaled.
        let state = before.export_state();
        let journaled = [
            TableDelta::announce(Ipv4Net::new(client, 26).expect("/26")),
            TableDelta::withdraw(Ipv4Net::new(0x2000_0700, 25).expect("/25")),
        ];

        let obs = Obs::enabled();
        let mut resumed = StreamingClustering::restore(&state, SwapPolicy::default(), obs.clone())
            .expect("restore");
        let report = resumed.apply_deltas(&journaled);
        assert!(report.accepted && !report.patch.recompiled);
        assert_eq!(
            cluster_of(&resumed, Ipv4Addr::from(client)),
            Some(Ipv4Net::new(client, 26).expect("/26"))
        );
        assert_eq!(resumed.patch_stats().recompiles, 0);
        let snap = obs.snapshot(true);
        assert_eq!(snap.counters.get("stream.patch.batches"), Some(&1));
        assert_eq!(
            snap.counters
                .get("stream.patch.recompiles")
                .copied()
                .unwrap_or(0),
            0
        );
    }

    #[test]
    fn rows_out_of_address_order_are_refused() {
        let (u, log) = setup();
        let mut stream = StreamingClustering::builder(standard_merged(&u, 0)).build();
        for r in &log.requests {
            stream.push_raw(r.client, r.bytes.into());
        }
        let mut state = stream.export_state();
        let restored = StreamingClustering::restore(&state, SwapPolicy::default(), Obs::disabled());
        assert!(restored.is_ok());
        state.per_client.swap(3, 4);
        let (ahead, behind) = (state.per_client[3].0, state.per_client[4].0);
        let e = StreamingClustering::restore(&state, SwapPolicy::default(), Obs::disabled())
            .err()
            .expect("rows out of order");
        assert_eq!(
            (e.stored, e.recomputed),
            (u64::from(behind), u64::from(ahead) + 1)
        );
        state.per_client.swap(3, 4);
        state.per_client[4].0 = state.per_client[3].0;
        assert!(
            StreamingClustering::restore(&state, SwapPolicy::default(), Obs::disabled()).is_err()
        );
    }

    #[test]
    fn incremental_queries_mid_stream() {
        let (u, log) = setup();
        let mut stream = StreamingClustering::builder(standard_merged(&u, 0)).build();
        assert!(stream.is_empty());
        assert_eq!(stream.coverage(), 0.0);
        let half = log.requests.len() / 2;
        for r in &log.requests[..half] {
            stream.push_raw(r.client, r.bytes.into());
        }
        let mid = stream.top_k(3);
        assert!(!mid.is_empty());
        for r in &log.requests[half..] {
            stream.push_raw(r.client, r.bytes.into());
        }
        let end = stream.top_k(3);
        assert!(end[0].1.requests >= mid[0].1.requests);
        // cluster_of answers for seen clients.
        let client = log.requests[0].client_addr();
        assert_eq!(
            cluster_of(&stream, client).is_some(),
            standard_merged(&u, 0).lookup(client).is_some()
        );
    }

    /// Prefixes the wide-sum property's tables are drawn from: nested, so a
    /// withdraw moves clients to a shorter prefix and an announce takes
    /// them back.
    const WIDE_NETS: [&str; 6] = [
        "10.0.0.0/8",
        "10.1.0.0/16",
        "10.2.0.0/16",
        "10.3.0.0/16",
        "10.1.2.0/24",
        "10.2.128.0/17",
    ];

    /// The property's clients: under every prefix, under the /8 alone, and
    /// under none.
    const WIDE_CLIENTS: [&str; 9] = [
        "10.1.0.1",
        "10.1.2.3",
        "10.1.2.4",
        "10.2.0.5",
        "10.2.200.1",
        "10.3.0.9",
        "10.4.0.1",
        "10.5.5.5",
        "11.0.0.1",
    ];

    #[derive(Debug, Clone)]
    enum WideOp {
        /// One request of the bytes from the client.
        Push(usize, u64),
        /// Announce (`true`) or withdraw each prefix, one delta a prefix.
        Patch(Vec<(usize, bool)>),
        /// A full swap to the prefixes the mask picks.
        Swap(u8),
        /// Encode the state, decode it and restore a stream from it.
        Restore,
    }

    fn wide_net(i: usize) -> Ipv4Net {
        WIDE_NETS[i].parse().expect("a prefix")
    }

    fn wide_client(i: usize) -> u32 {
        u32::from(WIDE_CLIENTS[i].parse::<Ipv4Addr>().expect("an address"))
    }

    /// A permissive policy: every batch and swap is published, so the
    /// oracle follows each one.
    fn any_table() -> SwapPolicy {
        SwapPolicy {
            min_entries: 0,
            max_noise_ratio: 1.0,
            min_coverage_retention: 0.0,
        }
    }

    fn table_of(live: &BTreeSet<Ipv4Net>) -> MergedTable {
        let bgp = RoutingTable::new("B", "d0", TableKind::Bgp, live.iter().copied().collect());
        MergedTable::merge([&bgp])
    }

    /// The stream against an oracle of `u64` sums after one op: each
    /// cluster's sums (clients, requests, bytes) over the longest live
    /// match of every client, the unclustered requests, the top three in
    /// order, and `lookup` of every client and of an unseen address under
    /// each prefix.
    fn check_wide(
        stream: &StreamingClustering,
        clients: &BTreeMap<u32, (u64, u64)>,
        live: &BTreeSet<Ipv4Net>,
        op: &WideOp,
    ) -> Result<(), String> {
        let lpm = |addr: u32| {
            (live.iter().filter(|p| p.contains_u32(addr)))
                .max_by_key(|p| p.len())
                .copied()
        };
        let mut want: BTreeMap<Ipv4Net, (u64, u64, u64)> = BTreeMap::new();
        let mut unclustered = 0;
        for (&addr, &(requests, bytes)) in clients {
            match lpm(addr) {
                Some(net) => {
                    let sums = want.entry(net).or_default();
                    *sums = (sums.0 + 1, sums.1 + requests, sums.2 + bytes);
                }
                None => unclustered += requests,
            }
        }
        let stats = |s: StreamStats| (s.clients, s.requests, s.bytes);
        let got: BTreeMap<Ipv4Net, (u64, u64, u64)> = (stream.top_k(usize::MAX).into_iter())
            .map(|(net, s)| (net, stats(s)))
            .collect();
        prop_assert_eq!(&got, &want, "after {:?}", op);
        prop_assert_eq!(stream.unclustered_requests(), unclustered);
        let mut ranked: Vec<(Ipv4Net, (u64, u64, u64))> = want.clone().into_iter().collect();
        ranked.sort_by(|a, b| b.1 .1.cmp(&a.1 .1).then(a.0.cmp(&b.0)));
        ranked.truncate(3);
        let top: Vec<_> = (stream.top_k(3).into_iter())
            .map(|(n, s)| (n, stats(s)))
            .collect();
        prop_assert_eq!(top, ranked);
        let unseen = live.iter().map(|p| p.addr_u32() | 0x7F);
        for addr in clients.keys().copied().chain(unseen) {
            let answer = stream.lookup(Ipv4Addr::from(addr));
            let net = lpm(addr);
            let cluster = net.and_then(|n| want.get(&n)).copied().unwrap_or_default();
            let own = clients.get(&addr).copied().unwrap_or_default();
            prop_assert_eq!(answer.cluster, net, "{}", Ipv4Addr::from(addr));
            prop_assert_eq!(
                (
                    answer.cluster_clients,
                    answer.cluster_requests,
                    answer.cluster_bytes
                ),
                cluster
            );
            prop_assert_eq!((answer.client_requests, answer.client_bytes), own);
        }
        assert_view_consistent(stream);
        Ok(())
    }

    /// Applies `op` to the stream, the clients' sums and the live set.
    fn apply_wide(
        stream: &mut StreamingClustering,
        clients: &mut BTreeMap<u32, (u64, u64)>,
        live: &mut BTreeSet<Ipv4Net>,
        op: &WideOp,
    ) {
        match op {
            &WideOp::Push(client, bytes) => {
                let addr = wide_client(client);
                stream.push_raw(addr, bytes);
                let sums = clients.entry(addr).or_default();
                *sums = (sums.0 + 1, sums.1 + bytes);
            }
            WideOp::Patch(deltas) => {
                let mut batch: Vec<TableDelta> = Vec::new();
                for &(i, announce) in deltas {
                    let net = wide_net(i);
                    if batch.iter().any(|d| d.prefix == net) {
                        continue;
                    }
                    batch.push(if announce {
                        live.insert(net);
                        TableDelta::announce(net)
                    } else {
                        live.remove(&net);
                        TableDelta::withdraw(net)
                    });
                }
                let report = stream.apply_deltas(&batch);
                assert!(report.accepted, "{:?}", report.rejection);
            }
            &WideOp::Swap(mask) => {
                *live = (0..WIDE_NETS.len())
                    .filter(|i| mask >> i & 1 == 1)
                    .map(wide_net)
                    .collect();
                let report = stream.try_swap(table_of(live), ErrorCounts::default());
                assert!(report.accepted, "{:?}", report.rejection);
            }
            WideOp::Restore => {
                let bytes = crate::persist::encode_state(&stream.export_state());
                let state = crate::persist::decode_state(&bytes).expect("a state it wrote");
                *stream = StreamingClustering::restore(&state, any_table(), Obs::disabled())
                    .expect("a state it exported");
            }
        }
    }

    /// A byte count that is small, or a jump of 2^30 to 2^33 that takes a
    /// sum across `u32::MAX` in one to four requests.
    fn arb_bytes() -> impl Strategy<Value = u64> {
        prop_oneof![0..4u64, (1u64 << 30)..(1u64 << 33)]
    }

    fn arb_wide_op() -> impl Strategy<Value = WideOp> {
        let clients = 0..WIDE_CLIENTS.len();
        let deltas = proptest::collection::vec((0..WIDE_NETS.len(), any::<bool>()), 1..4);
        prop_oneof![
            (clients.clone(), arb_bytes()).prop_map(|(c, b)| WideOp::Push(c, b)),
            (clients, arb_bytes()).prop_map(|(c, b)| WideOp::Push(c, b)),
            deltas.prop_map(WideOp::Patch),
            any::<u8>().prop_map(WideOp::Swap),
            Just(WideOp::Restore),
        ]
    }

    proptest! {
        /// Cluster sums across `u32::MAX` against an oracle of `u64` sums.
        /// Every case opens with the same script: two clusters made wide
        /// around a narrow one, so withdrawing the first frees a wide slot
        /// and `swap_remove` moves the wide last slot into its place; its
        /// client moves into the covering /8, which its bytes make wide,
        /// and back out on the announce; then a full swap and an encode →
        /// restore round trip. Generated pushes, patch batches, swaps and
        /// round trips follow. Every op is checked: per-cluster sums,
        /// `top_k` and `lookup`.
        #[test]
        fn cluster_sums_cross_u32_max(
            big in (1u64 << 32)..(1u64 << 33),
            ops in proptest::collection::vec(arb_wide_op(), 1..40),
        ) {
            let mut live: BTreeSet<Ipv4Net> = (0..WIDE_NETS.len()).map(wide_net).collect();
            let mut stream = StreamingClustering::builder(table_of(&live))
                .swap_policy(any_table())
                .build();
            let mut clients = BTreeMap::new();
            let script = [
                WideOp::Push(0, big),
                WideOp::Push(5, 1),
                WideOp::Push(3, big),
                WideOp::Patch(vec![(1, false)]),
                WideOp::Patch(vec![(1, true)]),
                WideOp::Swap(0x3F),
                WideOp::Restore,
            ];
            for op in script.iter().chain(&ops) {
                apply_wide(&mut stream, &mut clients, &mut live, op);
                check_wide(&stream, &clients, &live, op)?;
            }
        }
    }
}
