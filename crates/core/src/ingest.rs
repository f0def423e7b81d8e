//! Fused zero-copy log ingest: bytes in, clusters out.
//!
//! The in-memory route from a Common Log Format file to a [`Clustering`]
//! materializes an intermediate log — every path and user agent an
//! interned allocation, every line a request record — before the
//! clustering pass re-aggregates it all per client. For the multi-million line logs
//! of the paper's evaluation that intermediate costs more than the
//! clustering itself.
//!
//! [`IngestPipeline`] fuses the stages instead:
//!
//! 1. the input buffer (ideally an `mmap`'d file, see
//!    [`chunk::LogData`]) is cut into line-aligned chunks
//!    ([`chunk::cut_lines`]) without being read,
//! 2. N independent per-shard pipelines — scoped `std::thread` workers,
//!    one shard each (one worker scans on the calling thread) — steal
//!    chunks off a shared atomic index and scan them with the zero-copy
//!    byte parser ([`clf_bytes::records_no_ua`]) straight into
//!    shard-local accumulators: a clustering-kernel shard of dense client
//!    ids, dense url ids, no log in memory, no per-line allocation (paths
//!    intern as borrowed `&[u8]` slices of the input); a chunk of a
//!    mapped file is given back to the kernel as soon as it is scanned
//!    ([`IngestPipeline::run_log`]), so the log is never resident whole,
//! 3. the clustering kernel — the same one `Clustering::build` drives
//!    from a study's in-memory triples — merges the shards into canonical
//!    global order (per-partition client sums concatenate in address
//!    order, shard url ids translate through one global intern), assigns
//!    clusters by the pipeline's [`Assigner`] (batch longest-prefix match
//!    over the compiled table, or a baseline's rule), and assembles a
//!    [`Clustering`] byte-identical to the `netclust_netgen::from_clf` →
//!    [`Clustering::by`] route the tests hold it to.
//!
//! Determinism holds by construction, not by scheduling: client sums
//! commute, partition runs concatenate in address order, parse errors
//! are numbered within their chunk and offset by the line counts of the
//! chunks before it once every chunk is scanned (one sort then restores
//! line order), and unique-URL counts are invariant under url-id
//! relabeling. The report
//! is therefore byte-identical across thread counts and across
//! work-stealing schedules — [`threads(1)`](IngestPipeline::threads) is
//! the reference the parallel bench asserts against. Nothing recorded
//! depends on the schedule either, so work stealing is the only one.
//!
//! ## Hardening
//!
//! Real access logs are torn, truncated, and occasionally garbage. The
//! pipeline therefore supports:
//!
//! * **error budgets** — [`IngestPipeline::max_error_rate`] turns "skip
//!   malformed lines forever" into "abort with context past N%"
//!   ([`IngestError::ErrorBudget`]),
//! * **quarantine** — [`IngestReport::quarantine`] resolves every rejected
//!   line to its byte range in the input so operators can extract exactly
//!   what was dropped.
//!
//! There is no chunk-read retry: a chunk is a slice of a buffer already
//! read or mapped, and a mapped page that fails to load is a `SIGBUS`,
//! not an error a retry could see. The scan has no error path at all.

#![deny(clippy::iter_over_hash_type, clippy::disallowed_methods)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};

use netclust_obs::{Counter, ErrorCounts, Histogram, Obs};
use netclust_weblog::chunk::{self, Chunk, LogData};
use netclust_weblog::clf::ClfError;
use netclust_weblog::clf_bytes;

use crate::cluster::{Assigner, Clustering};
use crate::fx::FxHashMap;
use crate::kernel::{self, Shard};

/// Pre-resolved ingest instrumentation. Handles are looked up once when an
/// [`Obs`] is attached ([`IngestPipeline::obs`]) so the hot loops never
/// touch the registry; from a disabled `Obs` every handle is a no-op.
/// Counting is per chunk or per run — never per line.
#[derive(Clone, Debug, Default)]
struct IngestObs {
    chunks: Counter,
    bytes: Counter,
    lines: Counter,
    malformed: Counter,
    clients: Counter,
    released_bytes: Counter,
    chunk_bytes: Histogram,
    chunk_errors: Histogram,
}

impl IngestObs {
    fn resolve(obs: &Obs) -> Self {
        Self {
            chunks: obs.counter("ingest.chunks"),
            bytes: obs.counter("ingest.bytes"),
            lines: obs.counter("ingest.lines"),
            malformed: obs.counter("ingest.malformed"),
            clients: obs.counter("ingest.clients"),
            released_bytes: obs.counter("ingest.released_bytes"),
            chunk_bytes: obs.histogram("ingest.chunk_bytes"),
            chunk_errors: obs.histogram("ingest.chunk_errors"),
        }
    }
}

/// Default chunk size: large enough to amortise per-chunk setup, small
/// enough that a handful of chunks per thread keeps the pool busy.
const DEFAULT_CHUNK_BYTES: usize = 1 << 20;

/// A configured fused ingest pipeline: raw CLF bytes to the [`Clustering`]
/// of one [`Assigner`].
///
/// ```no_run
/// use netclust_core::{Assigner, IngestPipeline};
/// use netclust_weblog::chunk::LogData;
/// # fn demo(table: &netclust_rtable::CompiledTable) -> Result<(), Box<dyn std::error::Error>> {
/// let log = LogData::open("access.log")?;
/// let report = IngestPipeline::by(Assigner::NetworkAware(table)).run_log(&log)?;
/// println!(
///     "{} clusters from {} lines ({} malformed)",
///     report.clustering.len(),
///     report.counts.records,
///     report.counts.malformed
/// );
/// # Ok(())
/// # }
/// ```
pub struct IngestPipeline<'t> {
    how: Assigner<'t>,
    chunk_bytes: usize,
    max_error_rate: Option<ErrorRate>,
    threads: Option<usize>,
    obs: Obs,
    metrics: IngestObs,
}

/// A malformed-line budget ([`IngestPipeline::max_error_rate`]): a
/// fraction from 0 to 1. [`ErrorRate::new`] is its one check, so no setter
/// clamps and a NaN cannot turn the budget off.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorRate(f64);

impl ErrorRate {
    /// `ratio` as a budget; `None` for NaN or anything outside `[0, 1]`.
    pub fn new(ratio: f64) -> Option<ErrorRate> {
        (0.0..=1.0).contains(&ratio).then_some(ErrorRate(ratio))
    }
}

/// Why a budgeted ingest run ([`IngestPipeline::run_log`]) aborted.
#[derive(Debug)]
pub enum IngestError {
    /// The malformed-line ratio blew the configured budget.
    ErrorBudget {
        /// Lines seen vs lines malformed (the workspace-wide shape).
        counts: ErrorCounts,
        /// The configured budget ([`IngestPipeline::max_error_rate`]).
        max_ratio: f64,
        /// The first few parse errors, for context.
        sample: Vec<ClfError>,
    },
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::ErrorBudget {
                counts,
                max_ratio,
                sample,
            } => {
                write!(
                    f,
                    "{} of {} lines malformed ({:.2}% > {:.2}% budget)",
                    counts.malformed,
                    counts.records,
                    counts.ratio() * 100.0,
                    max_ratio * 100.0
                )?;
                if let Some(first) = sample.first() {
                    write!(f, "; first at line {}", first.line)?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for IngestError {}

/// One rejected input line resolved to its byte range (see
/// [`IngestReport::quarantine`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuarantinedLine {
    /// 0-based buffer-global line number.
    pub line: usize,
    /// Byte offset of the line's first byte.
    pub start: usize,
    /// Byte offset one past the line's last content byte (the trailing
    /// newline, when present, is not included).
    pub end: usize,
}

/// What one ingest run produced.
#[derive(Debug)]
pub struct IngestReport {
    /// The clustering of the log's clients by the pipeline's method.
    pub clustering: Clustering,
    /// Malformed lines, in line order, with buffer-global line numbers —
    /// identical to what a serial [`clf_bytes::records`] pass reports.
    pub errors: Vec<ClfError>,
    /// Lines seen vs lines malformed — the workspace-wide error-accounting
    /// shape (`counts.records` is the old `lines` field; `counts.malformed`
    /// always equals `errors.len()`).
    pub counts: ErrorCounts,
    /// Input size in bytes.
    pub bytes: usize,
}

impl IngestReport {
    /// Resolves every malformed line to its byte range in `data` (the
    /// buffer this report was produced from) — the quarantine sink: the
    /// exact rejected bytes, with line numbers, ready to be written out
    /// for offline inspection. One pass, in line order.
    pub fn quarantine(&self, data: &[u8]) -> Vec<QuarantinedLine> {
        let mut out = Vec::with_capacity(self.errors.len());
        let mut wanted = self.errors.iter().map(|e| e.line).peekable();
        let mut line = 0usize;
        let mut pos = 0usize;
        while pos < data.len() {
            let Some(&want) = wanted.peek() else { break };
            #[allow(clippy::indexing_slicing, reason = "pos < data.len() is the loop condition.")]
            let nl = data[pos..].iter().position(|&b| b == b'\n');
            let end = nl.map_or(data.len(), |p| pos + p);
            if line == want {
                out.push(QuarantinedLine {
                    line,
                    start: pos,
                    end,
                });
                wanted.next();
            }
            line += 1;
            pos = end + 1;
        }
        out
    }
}

impl<'t> IngestPipeline<'t> {
    /// A pipeline clustering by `how`, with default chunking.
    pub fn by(how: Assigner<'t>) -> Self {
        IngestPipeline {
            how,
            chunk_bytes: DEFAULT_CHUNK_BYTES,
            max_error_rate: None,
            threads: None,
            obs: Obs::disabled(),
            metrics: IngestObs::default(),
        }
    }

    /// Attaches an observability handle: stage spans (`ingest.run/chunk`,
    /// `parse`, `lpm`, `aggregate`), per-chunk byte/error histograms, and
    /// run counters all record into it. Resolution happens here, once —
    /// with the default [`Obs::disabled`] the instrumentation is inert.
    pub fn obs(mut self, obs: Obs) -> Self {
        self.metrics = IngestObs::resolve(&obs);
        self.obs = obs;
        self
    }

    /// Sets the target chunk size in bytes (chunks always extend to a
    /// line boundary).
    // Waived in tests/source_contracts.rs (`pub-fn-caller`): the chunking
    // tests (core's ingest, ingest_par and prop, tests/faults.rs) cut a
    // log at sizes the default never takes.
    pub fn chunk_bytes(mut self, bytes: usize) -> Self {
        self.chunk_bytes = bytes.max(1);
        self
    }

    /// Sets the malformed-line budget for [`run_log`](Self::run_log): a run whose error ratio exceeds
    /// `budget` aborts with [`IngestError::ErrorBudget`] instead of
    /// silently skipping bad lines forever. Unset by default
    /// (skip-and-report, the classic behaviour).
    pub fn max_error_rate(mut self, budget: ErrorRate) -> Self {
        self.max_error_rate = Some(budget);
        self
    }

    /// Pins the worker count for the sharded scan. Default: the host's
    /// available parallelism. `1` scans on the calling thread; the
    /// report is byte-identical at every setting.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// The worker count one run uses: the pinned
    /// [`threads`](Self::threads) value, or the host's available
    /// parallelism.
    fn effective_threads(&self) -> usize {
        self.threads
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
            .max(1)
    }

    /// Runs the fused pipeline over an in-memory (or memory-mapped) CLF
    /// buffer. Never fails: malformed lines are skipped and reported.
    /// The error budget applies only to [`run_log`](Self::run_log).
    pub fn run(&self, data: &[u8]) -> IngestReport {
        self.run_inner(data, None)
    }

    /// Per-chunk accounting, called once per successful chunk scan on
    /// whichever thread scanned it (counters and histograms are sharded
    /// atomics — safe and contention-free from workers).
    fn record_chunk(&self, c: &Chunk<'_>, chunk_errors: usize, released: usize) {
        self.metrics.chunks.inc();
        self.metrics.released_bytes.add(released as u64);
        self.metrics.chunk_bytes.record(c.data.len() as u64);
        self.metrics.chunk_errors.record(chunk_errors as u64);
    }

    /// Per-run accounting (coordinating thread, after assembly).
    fn record_run(&self, report: &IngestReport) {
        self.metrics.bytes.add(report.bytes as u64);
        self.metrics.lines.add(report.counts.records);
        self.metrics.malformed.add(report.counts.malformed);
        self.metrics
            .clients
            .add(report.clustering.client_count() as u64);
    }

    /// [`run`](Self::run) over a log file's contents, enforcing the
    /// malformed-line budget (when set) on the finished report and handing
    /// each chunk's pages back to the kernel ([`LogData::release`]) as
    /// soon as its scan finishes — the entry for a file too large to want
    /// resident. With a mapped `log` the run's resident set is the
    /// accumulators plus the chunks in flight, whatever the log's length;
    /// with an owned one there is nothing to release. The report is the
    /// same either way, and `log` stays fully readable afterwards
    /// ([`IngestReport::quarantine`] included): the path slices the url
    /// tables borrowed re-fault the same bytes from the page cache when
    /// they are next read.
    pub fn run_log(&self, log: &LogData) -> Result<IngestReport, IngestError> {
        let report = self.run_inner(log, Some(log));
        if let Some(ErrorRate(max_ratio)) = self.max_error_rate {
            if report.counts.records > 0 && report.counts.ratio() > max_ratio {
                return Err(IngestError::ErrorBudget {
                    counts: report.counts,
                    max_ratio,
                    sample: report.errors.into_iter().take(5).collect(),
                });
            }
        }
        Ok(report)
    }

    /// The shared engine behind every entry: chunk, scan into one shard
    /// per worker (releasing scanned chunks of `release`, when given),
    /// number the lines, finish, account.
    fn run_inner(&self, data: &[u8], release: Option<&LogData>) -> IngestReport {
        let _run = self.obs.span("ingest.run");
        let chunks: Vec<Chunk<'_>> = {
            let _s = self.obs.span("chunk");
            // Finding a cut touches one page, but the kernel maps the whole
            // page-cache folio under it (megabytes, where the file is cached
            // in large folios): released as it goes, or the cutting alone
            // could make most of the log resident before any worker starts.
            chunk::cut_lines(data, self.chunk_bytes)
                .inspect(|c| {
                    if let Some(log) = release {
                        log.release(c.data);
                    }
                })
                .collect()
        };
        let workers = self.effective_threads().min(chunks.len()).max(1);
        let mut outs = {
            let _s = self.obs.span("parse");
            self.scan_sharded(&chunks, release, workers)
        };
        let lines = number_lines(&mut outs, chunks.len());
        let report = self.finish(outs, workers, lines, data.len());
        self.record_run(&report);
        report
    }

    /// The sharded scan: `workers` scoped threads, each owning one
    /// [`ChunkOut`] shard, steal chunks off a shared atomic index until
    /// the chunk list drains.
    fn scan_sharded<'a>(
        &self,
        chunks: &[Chunk<'a>],
        release: Option<&LogData>,
        workers: usize,
    ) -> Vec<ChunkOut<'a>> {
        let next = AtomicUsize::new(0);

        let worker = || -> ChunkOut<'a> {
            let _span = self.obs.span("ingest.worker");
            let mut out = ChunkOut::new();
            loop {
                // ordering: pure work-stealing ticket counter; only
                // atomicity matters, no data is published through it.
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= chunks.len() {
                    break;
                }
                #[allow(clippy::indexing_slicing, reason = "i < chunks.len() just checked.")]
                let c = &chunks[i];
                let chunk_errors = out.scan(i, c);
                // The url table keeps slices of released pages; reading
                // one again re-faults the same bytes (`LogData::release`).
                let released = release.map_or(0, |log| log.release(c.data));
                self.record_chunk(c, chunk_errors, released);
            }
            out
        };

        if workers <= 1 {
            return vec![worker()];
        }
        let mut outs = Vec::with_capacity(workers);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers).map(|_| s.spawn(worker)).collect();
            for h in handles {
                #[allow(
                    clippy::expect_used,
                    reason = "propagating a worker panic, not creating one."
                )]
                outs.push(h.join().expect("worker panicked"));
            }
        });
        outs
    }

    /// The deterministic tail of a run: the shards go through the
    /// clustering [`kernel`], so the report is byte-identical no matter
    /// how many workers there were or which one scanned which chunk.
    ///
    /// * **errors** carry buffer-global line numbers by now
    ///   ([`number_lines`]; each malformed line produces exactly one
    ///   error), so one sort restores line order.
    /// * **url ids** of several shards translate through one global
    ///   intern walked in shard order (equal ids ⇔ equal path bytes —
    ///   exactly the in-memory log's URL-interning identity); a lone
    ///   shard's ids are global already.
    fn finish(
        &self,
        outs: Vec<ChunkOut<'_>>,
        threads: usize,
        lines: usize,
        bytes: usize,
    ) -> IngestReport {
        let mut shards = Vec::with_capacity(outs.len());
        let mut url_paths = Vec::with_capacity(outs.len());
        let mut errors = Vec::new();
        for o in outs {
            shards.push(o.shard);
            url_paths.push(o.url_paths);
            errors.extend(o.errors);
        }
        errors.sort_unstable_by_key(|e| e.line);

        let mut n_urls = url_paths.first().map_or(0, Vec::len);
        let mut trans: Vec<Vec<u32>> = Vec::new();
        if shards.len() > 1 {
            let mut global: FxHashMap<&[u8], u32> = FxHashMap::default();
            for paths in &url_paths {
                trans.push(
                    paths
                        .iter()
                        .map(|&p| {
                            #[allow(
                                clippy::cast_possible_truncation,
                                reason = "url ids are u32 by format."
                            )]
                            let next = global.len() as u32;
                            *global.entry(p).or_insert(next)
                        })
                        .collect(),
                );
            }
            n_urls = global.len();
        }
        let clustering = kernel::finish(
            self.how.label(),
            &mut shards,
            threads,
            &|addrs, out| self.how.net_for_slice(addrs, out),
            (n_urls, trans.as_slice()),
            &self.obs,
        );

        let counts = ErrorCounts::new(lines as u64, errors.len() as u64);
        IngestReport {
            clustering,
            errors,
            counts,
            bytes,
        }
    }
}

/// Runs `f(start_index, span)` over near-equal contiguous spans of `out`,
/// one scoped thread per span — the merge-side analogue of the scan's
/// work stealing (span sizes are static because merge work is uniform).
/// Inlines without spawning when one span suffices.
pub(crate) fn for_spans<T: Send, F: Fn(usize, &mut [T]) + Sync>(
    out: &mut [T],
    threads: usize,
    f: &F,
) {
    let workers = threads.min(out.len()).max(1);
    if workers <= 1 {
        f(0, out);
        return;
    }
    let base = out.len() / workers;
    let extra = out.len() % workers;
    std::thread::scope(|s| {
        let mut rest = out;
        let mut start = 0usize;
        for w in 0..workers {
            let take = base + usize::from(w < extra);
            let (span, tail) = rest.split_at_mut(take);
            rest = tail;
            s.spawn(move || f(start, span));
            start += take;
        }
    });
}

/// Makes the scan's chunk-local error line numbers buffer-global and
/// returns the buffer's line count: one prefix sum over the per-chunk
/// line counts the workers recorded, then each chunk's errors move up by
/// the lines before their chunk. Runs after the join, when every count is
/// known — which is what lets chunks be cut without being read.
fn number_lines(outs: &mut [ChunkOut<'_>], n_chunks: usize) -> usize {
    // `before[i]`: lines in chunks `0..i`; the last slot is the total.
    let mut before = vec![0usize; n_chunks + 1];
    for t in outs.iter().flat_map(|o| &o.scanned) {
        if let Some(slot) = before.get_mut(t.chunk + 1) {
            *slot = t.lines;
        }
    }
    let mut total = 0usize;
    for slot in &mut before {
        total += *slot;
        *slot = total;
    }
    for o in outs {
        let mut errors = o.errors.iter_mut();
        for t in &o.scanned {
            let first_line = before.get(t.chunk).copied().unwrap_or(0);
            for e in errors.by_ref().take(t.errors) {
                e.line += first_line;
            }
        }
    }
    total
}

/// What a worker notes per scanned chunk so [`number_lines`] can place
/// the chunk's lines in the buffer afterwards.
struct ScannedChunk {
    /// Index in the chunk list.
    chunk: usize,
    /// Lines in the chunk.
    lines: usize,
    /// How many of the worker's `errors`, in push order, are this chunk's.
    errors: usize,
}

/// One scan worker's output: a kernel [`Shard`] of client sums and
/// (client, url id) pairs, the paths behind those shard-local url ids
/// (interned as borrowed slices of the input), parse errors numbered
/// within their chunk, and the per-chunk notes that make those numbers
/// global.
struct ChunkOut<'a> {
    shard: Shard,
    url_ids: FxHashMap<&'a [u8], u32>,
    url_paths: Vec<&'a [u8]>,
    errors: Vec<ClfError>,
    scanned: Vec<ScannedChunk>,
}

impl<'a> ChunkOut<'a> {
    fn new() -> Self {
        ChunkOut {
            shard: Shard::new(),
            url_ids: FxHashMap::default(),
            url_paths: Vec::new(),
            errors: Vec::new(),
            scanned: Vec::new(),
        }
    }

    /// Accumulates chunk number `index` and returns how many of its lines
    /// were malformed. The User-Agent field is never consumed
    /// downstream, so the scan uses the no-UA record parser (identical
    /// records and errors, minus the per-line UA quote scan).
    fn scan(&mut self, index: usize, c: &Chunk<'a>) -> usize {
        let errors_before = self.errors.len();
        let mut lines = 0;
        for item in clf_bytes::records_no_ua(c.data, 0, &mut lines) {
            match item {
                Ok((_, r)) => {
                    let id = self.shard.add(r.addr, r.bytes as u64);
                    let url_paths = &mut self.url_paths;
                    #[allow(
                        clippy::cast_possible_truncation,
                        reason = "url ids are u32 by format."
                    )]
                    let url = *self.url_ids.entry(r.path).or_insert_with(|| {
                        url_paths.push(r.path);
                        (url_paths.len() - 1) as u32
                    });
                    self.shard.pairs.push((id, url));
                }
                Err(e) => self.errors.push(e),
            }
        }
        let errors = self.errors.len() - errors_before;
        self.scanned.push(ScannedChunk {
            chunk: index,
            // From the parser's own line walk: no second pass over the chunk.
            lines,
            errors,
        });
        errors
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netclust_netgen::from_clf;
    use netclust_rtable::{CompiledTable, MergedTable, RoutingTable, TableKind};

    fn table() -> CompiledTable {
        let bgp = RoutingTable::new(
            "B",
            "d0",
            TableKind::Bgp,
            vec![
                "12.65.128.0/19".parse().unwrap(),
                "24.48.2.0/23".parse().unwrap(),
            ],
        );
        MergedTable::merge([&bgp]).compile()
    }

    const SAMPLE: &str = "\
12.65.147.94 - - [13/Feb/1998:07:00:00 +0000] \"GET /a HTTP/1.0\" 200 120 \"-\" \"UA one\"\n\
not a log line\n\
12.65.144.247 - - [13/Feb/1998:07:00:01 +0000] \"GET /b HTTP/1.0\" 200 80 \"-\" \"UA two\"\n\
24.48.3.87 - - [13/Feb/1998:07:00:02 +0000] \"GET /a HTTP/1.0\" 404 0\n\
12.65.147.94 - - [13/Feb/1998:07:00:03 +0000] \"GET /a HTTP/1.0\" 200 120\n\
99.1.1.1 - - [13/Feb/1998:07:00:04 +0000] \"GET /c HTTP/1.0\" 200 10\n";

    #[test]
    fn matches_log_route() {
        let table = table();
        let (log, log_errors) = from_clf("s", SAMPLE.as_bytes());
        let expect = Clustering::by(log.hits(), Assigner::NetworkAware(&table));

        for chunk_bytes in [1usize, 50, 1 << 20] {
            let report = IngestPipeline::by(Assigner::NetworkAware(&table))
                .chunk_bytes(chunk_bytes)
                .run(SAMPLE.as_bytes());
            let got = &report.clustering;
            assert_eq!(got.method, expect.method);
            assert_eq!(got.total_requests, expect.total_requests);
            assert_eq!(got.clusters.len(), expect.clusters.len());
            for (g, e) in got.clusters.iter().zip(&expect.clusters) {
                assert_eq!(g.prefix, e.prefix, "chunk_bytes={chunk_bytes}");
                assert_eq!(got.members(g), expect.members(e));
                assert_eq!(g.requests, e.requests);
                assert_eq!(g.bytes, e.bytes);
                assert_eq!(g.unique_urls, e.unique_urls);
            }
            assert_eq!(got.unclustered(), expect.unclustered());
            assert_eq!(report.errors, log_errors);
            assert_eq!(report.counts.records, 6);
            assert_eq!(report.bytes, SAMPLE.len());
        }
    }

    #[test]
    fn empty_input() {
        let table = table();
        let report = IngestPipeline::by(Assigner::NetworkAware(&table)).run(b"");
        assert!(report.clustering.is_empty());
        assert!(report.errors.is_empty());
        assert_eq!(report.counts.records, 0);
        assert_eq!(report.bytes, 0);
    }

    #[test]
    fn run_log_round_trip() {
        let dir = netclust_testkit::TempDir::new("netclust-ingest");
        let path = dir.join("access.log");
        std::fs::write(&path, SAMPLE).unwrap();
        let table = table();
        let log = LogData::open(&path).unwrap();
        let from_file = IngestPipeline::by(Assigner::NetworkAware(&table))
            .run_log(&log)
            .unwrap();
        let from_mem = IngestPipeline::by(Assigner::NetworkAware(&table)).run(SAMPLE.as_bytes());
        assert_eq!(from_file.clustering.len(), from_mem.clustering.len());
        assert_eq!(from_file.errors, from_mem.errors);
        assert_eq!(from_file.counts, from_mem.counts);

        // Zero-length file: clean empty report, not a panic.
        let empty_path = dir.join("empty.log");
        std::fs::write(&empty_path, b"").unwrap();
        let empty = IngestPipeline::by(Assigner::NetworkAware(&table))
            .run_log(&LogData::open(&empty_path).unwrap())
            .unwrap();
        assert!(empty.clustering.is_empty());
        assert_eq!(empty.counts.records, 0);
    }

    /// Parse errors are numbered inside their chunk and made global
    /// after the scan: whatever the cut, the list is the serial parser's.
    #[test]
    fn chunk_lines_parse_with_global_numbers() {
        let table = table();
        let text = "garbage one\n\
                    1.2.3.4 - - [13/Feb/1998:07:00:00 +0000] \"GET /x HTTP/1.0\" 200 100\n\
                    \n\
                    garbage two\n\
                    1.2.3.5 - - [13/Feb/1998:07:00:01 +0000] \"GET /y HTTP/1.0\" 200 100\n";
        let serial: Vec<ClfError> = clf_bytes::records(text.as_bytes(), 0)
            .filter_map(Result::err)
            .collect();
        assert_eq!(serial.iter().map(|e| e.line).collect::<Vec<_>>(), [0, 3]);
        for max in [1usize, 16, 40, 4096] {
            for threads in [1usize, 3] {
                let report = IngestPipeline::by(Assigner::NetworkAware(&table))
                    .chunk_bytes(max)
                    .threads(threads)
                    .run(text.as_bytes());
                assert_eq!(report.errors, serial, "max={max} threads={threads}");
                assert_eq!(report.counts, ErrorCounts::new(5, 2), "max={max}");
            }
        }
    }

    /// A malformed, unterminated final line that the chunker puts in its
    /// own chunk keeps its buffer-global line number.
    #[test]
    fn error_line_numbers_cross_last_chunk_boundary() {
        let table = table();
        let text = "1.2.3.4 - - [13/Feb/1998:07:00:00 +0000] \"GET /x HTTP/1.0\" 200 100\n\
                    1.2.3.5 - - [13/Feb/1998:07:00:01 +0000] \"GET /y HTTP/1.0\" 200 100\n\
                    torn final line with no newline";
        for max in [1usize, 8, 70, 1 << 12] {
            let report = IngestPipeline::by(Assigner::NetworkAware(&table))
                .chunk_bytes(max)
                .run(text.as_bytes());
            assert_eq!(report.counts, ErrorCounts::new(3, 1), "max={max}");
            assert_eq!(report.errors[0].line, 2, "max={max}");
            assert_eq!(report.clustering.total_requests, 2, "max={max}");
        }
    }

    #[test]
    fn error_budget_aborts_with_context() {
        let table = table();
        // SAMPLE has 1 malformed line out of 6 (≈16.7%).
        let err = IngestPipeline::by(Assigner::NetworkAware(&table))
            .max_error_rate(ErrorRate::new(0.10).unwrap())
            .run_log(&LogData::from_vec(SAMPLE.into()))
            .unwrap_err();
        let IngestError::ErrorBudget {
            counts,
            max_ratio,
            sample,
        } = err;
        assert_eq!(counts, ErrorCounts::new(6, 1));
        assert_eq!(max_ratio, 0.10);
        assert_eq!(sample.len(), 1);
        assert_eq!(sample[0].line, 1);
        // A budget the noise fits under passes through untouched.
        let ok = IngestPipeline::by(Assigner::NetworkAware(&table))
            .max_error_rate(ErrorRate::new(0.20).unwrap())
            .run_log(&LogData::from_vec(SAMPLE.into()))
            .unwrap();
        assert_eq!(ok.errors.len(), 1);
    }

    #[test]
    fn quarantine_resolves_rejected_byte_ranges() {
        let table = table();
        let report = IngestPipeline::by(Assigner::NetworkAware(&table)).run(SAMPLE.as_bytes());
        let q = report.quarantine(SAMPLE.as_bytes());
        assert_eq!(q.len(), 1);
        assert_eq!(q[0].line, 1);
        assert_eq!(&SAMPLE.as_bytes()[q[0].start..q[0].end], b"not a log line");

        // Final malformed line with no trailing newline, small chunks so
        // it crosses the last chunk boundary: the byte range must still
        // land exactly on the line.
        let tail_garbage = format!("{}trailing junk", SAMPLE);
        let report = IngestPipeline::by(Assigner::NetworkAware(&table))
            .chunk_bytes(32)
            .run(tail_garbage.as_bytes());
        assert_eq!(report.counts.records, 7);
        let q = report.quarantine(tail_garbage.as_bytes());
        assert_eq!(q.len(), 2);
        assert_eq!(q[1].line, 6);
        assert_eq!(
            &tail_garbage.as_bytes()[q[1].start..q[1].end],
            b"trailing junk"
        );
        assert_eq!(q[1].end, tail_garbage.len());
    }

    #[test]
    fn final_line_without_newline_counts_once() {
        let table = table();
        let unterminated = SAMPLE.trim_end_matches('\n');
        for chunk_bytes in [16usize, 64, 1 << 20] {
            let report = IngestPipeline::by(Assigner::NetworkAware(&table))
                .chunk_bytes(chunk_bytes)
                .run(unterminated.as_bytes());
            assert_eq!(report.counts.records, 6, "chunk_bytes={chunk_bytes}");
            assert_eq!(report.errors.len(), 1);
            assert_eq!(
                report.clustering.total_requests, 5,
                "chunk_bytes={chunk_bytes}"
            );
        }
    }
}
