//! `netclust` — command-line interface to network-aware client clustering.
//!
//! ```text
//! netclust synth --out DIR [--seed N] [--requests N] [--clients N]
//!     Generate a demo dataset: CLF access log + routing-table dumps.
//!
//! netclust cluster --log FILE --table FILE[,FILE...] [--dump FILE,...]
//!                  [--top N] [--method aware|simple|classful]
//!                  [--max-error-rate F] [--quarantine FILE]
//!                  [--metrics FILE] [--trace] [--deterministic]
//!                  [--threads N] [--bgp-feed SPEC]
//!                  [--lookup IP[,IP..]] [--verdict IP[,IP..]]
//!     Cluster the clients of a Common Log Format file against BGP
//!     routing-table dumps and print the busiest clusters.
//!
//!     --lookup IP[,..]  print the ClusterQuery JSON answer for each
//!                       address (same body as netclustd /v1/cluster)
//!     --verdict IP[,..] print the structural spider/proxy verdict for
//!                       each address (same body as netclustd /v1/verdict)
//!
//!     --metrics FILE  write an OBS.json observability snapshot (stage
//!                     spans, LPM hit/miss counters, per-chunk histograms)
//!     --trace         print the span table (count/total/min/max ns)
//!     --deterministic zero clock-derived span fields in both outputs and
//!                     pin the static strided chunk schedule so two
//!                     identical runs are byte-identical
//!     --threads N     ingest worker count for --method aware (default:
//!                     all cores); the clustering is identical at any N
//!     --bgp-feed SPEC replay a live BGP update feed against a streaming
//!                     clustering of the same log after the batch run:
//!                     `synth:SEED:TICKS` synthesizes a deterministic
//!                     churn stream over the merged BGP tier; a file path
//!                     replays `announce|withdraw|replace PREFIX` lines
//!                     (blank line = batch boundary, `#` = comment).
//!                     Prints per-feed patch accounting; batch latencies
//!                     are wall-clock and omitted under --deterministic.
//!     --state-dir DIR persist the streaming state across the feed:
//!                     checksummed snapshots + a write-ahead delta journal
//!                     (requires --bgp-feed). A fresh run WIPES previous
//!                     persisted state in DIR.
//!     --resume        recover from the newest valid snapshot in
//!                     --state-dir and replay the journal instead of
//!                     starting the feed over
//!     --fsync P       journal durability: every_batch (default),
//!                     every_n:<N>, or os
//!     --crash-after-batch N
//!                     abort() the process right after the Nth journal
//!                     append of this run (crash-recovery testing)
//! ```
//!
//! Table files accept one prefix per line in any of the three §3.1.2
//! formats (`x.x.x.x/len`, `x.x.x.x/mask`, bare classful address); extra
//! whitespace-separated columns are ignored, so raw `show ip bgp`-style
//! dumps work after column trimming.
//!
//! Exit codes: 0 success, 1 input/runtime failure (the offending file is
//! named on stderr), 2 usage error, 3 malformed-line budget exceeded
//! (`--max-error-rate`), 4 persisted state unrecoverable (no generation in
//! --state-dir has a valid snapshot, or a snapshot failed its integrity
//! cross-check).

use std::fmt;
use std::fs;
use std::num::{NonZeroU64, NonZeroUsize};
use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;

use netclust::bgpsim::{DeltaBatch, DeltaStream, DeltaStreamConfig};
use netclust::core::query::render_top_table;
use netclust::core::{
    threshold_busy, ClusterQuery, Clustering, ErrorCounts, FeedProgress, FsyncPolicy, IngestError,
    JournalBatch, PersistError, RunConfig, StateStore, StreamingClustering, SwapPolicy,
    VerdictPolicy,
};
use netclust::netgen::{standard_collection, Universe, UniverseConfig};
use netclust::obs::Obs;
use netclust::rtable::{MergedTable, RoutingTable, TableDelta, TableKind};
use netclust::weblog::chunk::LogData;
use netclust::weblog::{clf, clf_bytes, generate, LogSpec};

/// Why a command failed, carrying its exit code. Every variant's message
/// names the offending file or flag so failures are actionable from
/// scripts.
#[derive(Debug)]
enum CliError {
    /// Bad invocation: unknown command/method, missing or malformed flag.
    Usage(String),
    /// An input file could not be read, written, or used.
    Input(String),
    /// The `--max-error-rate` budget was exceeded.
    Budget(String),
    /// Persisted state could not be reconstructed: no generation in the
    /// state directory has a valid snapshot, or a snapshot failed its
    /// integrity cross-check on restore.
    Unrecoverable(String),
}

impl CliError {
    fn exit_code(&self) -> ExitCode {
        match self {
            CliError::Input(_) => ExitCode::from(1),
            CliError::Usage(_) => ExitCode::from(2),
            CliError::Budget(_) => ExitCode::from(3),
            CliError::Unrecoverable(_) => ExitCode::from(4),
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "usage: {m}"),
            CliError::Input(m) => write!(f, "{m}"),
            CliError::Budget(m) => write!(f, "{m}"),
            CliError::Unrecoverable(m) => write!(f, "{m}"),
        }
    }
}

/// Maps a persistence-layer failure to its exit-code class: state that
/// cannot be reconstructed is the dedicated exit 4, everything else
/// (filesystem errors, poisoned journal) is an input/runtime failure.
/// Persistence options for `run_bgp_feed`, parsed from `--state-dir`,
/// `--resume`, `--fsync`, and `--crash-after-batch`.
struct PersistOpts {
    dir: String,
    resume: bool,
    fsync: FsyncPolicy,
    crash_after: Option<u64>,
}

fn persist_err(e: PersistError) -> CliError {
    match e {
        PersistError::Unrecoverable { .. } | PersistError::StateMismatch(_) => {
            CliError::Unrecoverable(format!("cluster: {e}"))
        }
        other => CliError::Input(format!("cluster: {other}")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("synth") => cmd_synth(&args[1..]),
        Some("cluster") => cmd_cluster(&args[1..]),
        _ => Err(CliError::Usage(
            "netclust <synth|cluster> [options]   (see --help in source header)".to_string(),
        )),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("netclust: {e}");
            e.exit_code()
        }
    }
}

/// Pulls `--name value` out of an option list.
fn opt<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Parses the value given for `name`; one that does not parse is a usage
/// error naming the flag.
fn parsed<T: FromStr>(cmd: &str, name: &str, value: &str) -> Result<T, CliError>
where
    T::Err: fmt::Display,
{
    value
        .parse()
        .map_err(|e| CliError::Usage(format!("{cmd}: {name} got {value:?}: {e}")))
}

/// [`opt`] and [`parsed`] in one step, for every numeric flag.
fn parsed_opt<T: FromStr>(args: &[String], cmd: &str, name: &str) -> Result<Option<T>, CliError>
where
    T::Err: fmt::Display,
{
    opt(args, name).map(|s| parsed(cmd, name, s)).transpose()
}

fn cmd_synth(args: &[String]) -> Result<(), CliError> {
    let out = opt(args, "--out")
        .ok_or_else(|| CliError::Usage("synth: --out DIR is required".to_string()))?;
    let seed: u64 = parsed_opt(args, "synth", "--seed")?.unwrap_or(42);
    let requests: u64 = parsed_opt(args, "synth", "--requests")?.unwrap_or(100_000);
    let clients: u64 = parsed_opt(args, "synth", "--clients")?.unwrap_or(2_000);

    let out = PathBuf::from(out);
    fs::create_dir_all(&out)
        .map_err(|e| CliError::Input(format!("synth: cannot create {}: {e}", out.display())))?;
    let universe = Universe::generate(UniverseConfig {
        seed,
        ..UniverseConfig::default()
    });
    let mut spec = LogSpec::tiny("synth", seed);
    spec.total_requests = requests;
    spec.target_clients = clients;
    let log = generate(&universe, &spec);
    let log_path = out.join("access.log");
    fs::write(&log_path, clf::to_clf(&log))
        .map_err(|e| CliError::Input(format!("synth: cannot write {}: {e}", log_path.display())))?;
    println!(
        "wrote {} ({} requests, {} clients)",
        log_path.display(),
        log.requests.len(),
        log.client_count()
    );

    for table in standard_collection(&universe, 0, 0) {
        let name = table.name.to_lowercase().replace(['&', '-'], "_");
        let ext = match table.kind {
            TableKind::Bgp => "bgp",
            TableKind::NetworkDump => "dump",
        };
        let path = out.join(format!("{name}.{ext}"));
        let body: String = table.prefixes().iter().map(|p| format!("{p}\n")).collect();
        fs::write(&path, body)
            .map_err(|e| CliError::Input(format!("synth: cannot write {}: {e}", path.display())))?;
        println!("wrote {} ({} prefixes)", path.display(), table.len());
    }
    println!(
        "\ntry: netclust cluster --log {}/access.log --table {}/*.bgp --dump {}/*.dump",
        out.display(),
        out.display(),
        out.display()
    );
    Ok(())
}

fn read_tables(list: &str, kind: TableKind) -> Result<Vec<RoutingTable>, CliError> {
    let mut tables = Vec::new();
    for path in list.split(',').filter(|s| !s.is_empty()) {
        let text = fs::read_to_string(path)
            .map_err(|e| CliError::Input(format!("cluster: cannot read table {path}: {e}")))?;
        let (table, bad) = RoutingTable::parse(path, "file", kind, &text);
        if bad > 0 {
            eprintln!("note: {path}: skipped {bad} unparsable lines");
        }
        tables.push(table);
    }
    Ok(tables)
}

/// Resolves a `--bgp-feed` spec into timestamped batches: `synth:SEED:TICKS`
/// synthesizes a deterministic [`DeltaStream`] over the merged BGP tier;
/// anything else is a feed file of `announce|withdraw|replace PREFIX` lines
/// with blank-line batch boundaries and `#` comments.
fn parse_bgp_feed(spec: &str, merged: &MergedTable) -> Result<Vec<DeltaBatch>, CliError> {
    if let Some(rest) = spec.strip_prefix("synth:") {
        let (seed, ticks) = rest.split_once(':').ok_or_else(|| {
            CliError::Usage(format!(
                "cluster: --bgp-feed synth:SEED:TICKS, got {spec:?}"
            ))
        })?;
        let seed: u64 = parsed("cluster", "--bgp-feed synth:SEED", seed)?;
        let ticks: usize = parsed("cluster", "--bgp-feed synth:SEED:TICKS", ticks)?;
        let stream = DeltaStream::new(seed, merged.bgp_prefixes(), DeltaStreamConfig::default());
        return Ok(stream.take(ticks).collect());
    }
    let text = fs::read_to_string(spec)
        .map_err(|e| CliError::Input(format!("cluster: cannot read bgp feed {spec}: {e}")))?;
    let mut batches: Vec<DeltaBatch> = Vec::new();
    let mut current: Vec<TableDelta> = Vec::new();
    let flush = |current: &mut Vec<TableDelta>, batches: &mut Vec<DeltaBatch>| {
        if !current.is_empty() {
            let tick = batches.len() as u64;
            batches.push(DeltaBatch {
                tick,
                timestamp: tick,
                deltas: std::mem::take(current),
                session_reset: false,
            });
        }
    };
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() {
            flush(&mut current, &mut batches);
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        current.push(
            line.parse()
                .map_err(|e| CliError::Input(format!("{spec}:{}: {e}", lineno + 1)))?,
        );
    }
    flush(&mut current, &mut batches);
    Ok(batches)
}

/// Replays a BGP update feed against a streaming clustering of `data`:
/// every batch is applied through the incremental patch path
/// (`StreamingClustering::apply_deltas`) and the patch accounting is
/// printed. Wall-clock batch latencies are measured only when
/// `deterministic` is off, so `--deterministic` output stays byte-stable.
fn run_bgp_feed(
    spec: &str,
    merged: MergedTable,
    data: &[u8],
    obs: &Obs,
    deterministic: bool,
    persist: Option<PersistOpts>,
) -> Result<(), CliError> {
    let batches = parse_bgp_feed(spec, &merged)?;

    // Durability bootstrap. A fresh run snapshots a base generation BEFORE
    // the first batch so recovery always has a floor to replay from;
    // `--resume` instead reloads the newest valid snapshot, replays the
    // journaled batches, and re-enters the feed loop where the crashed
    // process left off. All recovery chatter goes to stderr so a resumed
    // run's stdout stays byte-identical to an uninterrupted one.
    let mut resets = 0usize;
    let mut deltas_total = 0usize;
    let mut reassigned = 0usize;
    let mut feed_pos = 0usize;
    let coverage_start;
    let mut store: Option<StateStore> = None;
    let mut stream = match &persist {
        Some(p) if p.resume => {
            let (s, state, report) = StateStore::recover(&p.dir, p.fsync).map_err(persist_err)?;
            match &report.tail {
                Some(t) => eprintln!(
                    "resumed {} generation {}: {} journaled batches, torn tail truncated ({t})",
                    p.dir,
                    report.generation,
                    report.batches.len()
                ),
                None => eprintln!(
                    "resumed {} generation {}: {} journaled batches",
                    p.dir,
                    report.generation,
                    report.batches.len()
                ),
            }
            let mut stream =
                StreamingClustering::restore(&state, SwapPolicy::default(), obs.clone())
                    .map_err(|e| persist_err(PersistError::from(e)))?;
            coverage_start = f64::from_bits(state.feed.coverage_start_bits);
            resets = state.feed.resets as usize;
            deltas_total = state.feed.deltas_total as usize;
            reassigned = state.feed.reassigned as usize;
            feed_pos = state.feed_pos as usize;
            for b in &report.batches {
                if b.session_reset {
                    resets += 1;
                }
                deltas_total += b.deltas.len();
                // analyze:allow(wal-ordering) recovery replay: these
                // batches were already journaled before the crash, so
                // applying them here re-derives state, not new writes.
                let r = stream.apply_deltas(&b.deltas);
                reassigned += r.reassigned_clients;
                feed_pos = (b.feed_index + 1) as usize;
            }
            store = Some(s.obs(obs));
            stream
        }
        _ => {
            let mut stream = StreamingClustering::builder(merged)
                .obs(obs.clone())
                .build();
            let skipped = stream.push_clf(data).len();
            if skipped > 0 {
                eprintln!("note: bgp feed replay skipped {skipped} malformed log lines");
            }
            coverage_start = stream.coverage();
            if let Some(p) = &persist {
                let mut s = StateStore::create(&p.dir, p.fsync)
                    .map_err(persist_err)?
                    .obs(obs);
                let mut state = stream.export_state();
                state.feed.coverage_start_bits = coverage_start.to_bits();
                s.checkpoint(&state).map_err(persist_err)?;
                store = Some(s);
            }
            stream
        }
    };

    let feed_progress = |resets: usize, deltas_total: usize, reassigned: usize| FeedProgress {
        coverage_start_bits: coverage_start.to_bits(),
        resets: resets as u64,
        deltas_total: deltas_total as u64,
        reassigned: reassigned as u64,
    };
    let crash_after = persist.as_ref().and_then(|p| p.crash_after);
    let mut appended_this_run = 0u64;
    let mut latencies_ns: Vec<u128> = Vec::new();
    for (index, batch) in batches.iter().enumerate().skip(feed_pos) {
        // Append-then-apply: the journal frame hits the disk (per the fsync
        // policy) before the in-memory table moves, so the journal is always
        // a superset of the applied work and a crash anywhere in between
        // replays cleanly.
        if let Some(s) = store.as_mut() {
            s.append_batch(&JournalBatch {
                feed_index: index as u64,
                session_reset: batch.session_reset,
                deltas: batch.deltas.clone(),
            })
            .map_err(persist_err)?;
            appended_this_run += 1;
            if crash_after == Some(appended_this_run) {
                eprintln!("crash injection: aborting after journal append of batch {index}");
                std::process::abort();
            }
        }
        if batch.session_reset {
            resets += 1;
        }
        deltas_total += batch.deltas.len();
        // analyze:allow(determinism) measurement-only latency timing,
        // disabled entirely under --deterministic.
        let start = (!deterministic).then(std::time::Instant::now);
        let report = stream.apply_deltas(&batch.deltas);
        if let Some(start) = start {
            latencies_ns.push(start.elapsed().as_nanos());
        }
        reassigned += report.reassigned_clients;
        if let Some(s) = store.as_mut() {
            if s.wants_compaction() {
                let mut state = stream.export_state();
                state.feed_pos = (index + 1) as u64;
                state.feed = feed_progress(resets, deltas_total, reassigned);
                s.checkpoint(&state).map_err(persist_err)?;
            }
        }
    }
    if let Some(s) = store.as_mut() {
        // Final checkpoint: the completed feed collapses to one snapshot
        // with an empty journal, so a later `--resume` is a pure reload.
        let mut state = stream.export_state();
        state.feed_pos = batches.len() as u64;
        state.feed = feed_progress(resets, deltas_total, reassigned);
        s.checkpoint(&state).map_err(persist_err)?;
        eprintln!(
            "state saved -> {} (generation {})",
            s.dir().display(),
            s.generation()
        );
    }
    let stats = stream.patch_stats();
    println!(
        "\nbgp feed {spec}: {} batches ({} session resets), {} deltas",
        batches.len(),
        resets,
        deltas_total
    );
    println!(
        "  applied {}: accepted {}, rejected {}, final table version {}",
        stats.batches,
        stats.accepted,
        stats.rejected,
        stream.table_version()
    );
    if let Some(why) = stream.last_rejection() {
        println!("  last rejection: {why:?}");
    }
    println!(
        "  slot writes {}, group rebuilds {}, recompiles {}",
        stats.slot_writes, stats.group_rebuilds, stats.recompiles
    );
    println!(
        "  reassigned {} client assignments, coverage {:.2}% -> {:.2}%",
        reassigned,
        coverage_start * 100.0,
        stream.coverage() * 100.0
    );
    if !latencies_ns.is_empty() {
        latencies_ns.sort_unstable();
        let at = |q: f64| latencies_ns[((latencies_ns.len() - 1) as f64 * q) as usize];
        println!(
            "  patch latency/batch: p50 {}ns, p90 {}ns, max {}ns",
            at(0.5),
            at(0.9),
            latencies_ns[latencies_ns.len() - 1]
        );
    }
    Ok(())
}

fn cmd_cluster(args: &[String]) -> Result<(), CliError> {
    let log_path = opt(args, "--log")
        .ok_or_else(|| CliError::Usage("cluster: --log FILE is required".to_string()))?;
    let method = opt(args, "--method").unwrap_or("aware");
    if !matches!(method, "aware" | "simple" | "classful") {
        return Err(CliError::Usage(format!(
            "cluster: unknown method {method:?} (aware|simple|classful)"
        )));
    }
    let top: usize = parsed_opt(args, "cluster", "--top")?.unwrap_or(20);
    let max_error_rate: Option<f64> = parsed_opt(args, "cluster", "--max-error-rate")?;
    let quarantine_path = opt(args, "--quarantine");
    if method != "aware" && (max_error_rate.is_some() || quarantine_path.is_some()) {
        return Err(CliError::Usage(format!(
            "cluster: --max-error-rate/--quarantine only apply to --method aware, not {method:?}"
        )));
    }
    let metrics_path = opt(args, "--metrics");
    let trace = args.iter().any(|a| a == "--trace");
    let deterministic = args.iter().any(|a| a == "--deterministic");
    if method != "aware" && (metrics_path.is_some() || trace) {
        return Err(CliError::Usage(format!(
            "cluster: --metrics/--trace only apply to --method aware, not {method:?}"
        )));
    }
    let threads = parsed_opt::<NonZeroUsize>(args, "cluster", "--threads")?.map(NonZeroUsize::get);
    if method != "aware" && threads.is_some() {
        return Err(CliError::Usage(format!(
            "cluster: --threads only applies to --method aware, not {method:?}"
        )));
    }
    let bgp_feed = opt(args, "--bgp-feed");
    if method != "aware" && bgp_feed.is_some() {
        return Err(CliError::Usage(format!(
            "cluster: --bgp-feed only applies to --method aware, not {method:?}"
        )));
    }
    let state_dir = opt(args, "--state-dir");
    let resume = args.iter().any(|a| a == "--resume");
    let fsync_opt = opt(args, "--fsync");
    let crash_after =
        parsed_opt::<NonZeroU64>(args, "cluster", "--crash-after-batch")?.map(NonZeroU64::get);
    if state_dir.is_some() && bgp_feed.is_none() {
        return Err(CliError::Usage(
            "cluster: --state-dir requires --bgp-feed".to_string(),
        ));
    }
    if state_dir.is_none() && (resume || fsync_opt.is_some() || crash_after.is_some()) {
        return Err(CliError::Usage(
            "cluster: --resume/--fsync/--crash-after-batch require --state-dir".to_string(),
        ));
    }
    let persist = match state_dir {
        Some(dir) => {
            let fsync = match fsync_opt {
                Some(s) => s
                    .parse::<FsyncPolicy>()
                    .map_err(|e| CliError::Usage(format!("cluster: {e}")))?,
                None => FsyncPolicy::EveryBatch,
            };
            Some(PersistOpts {
                dir: dir.to_string(),
                resume,
                fsync,
                crash_after,
            })
        }
        None => None,
    };
    // Observability is pay-for-what-you-ask: the registry only exists when
    // a metrics sink or span dump was requested.
    let obs = if metrics_path.is_some() || trace {
        Obs::enabled()
    } else {
        Obs::disabled()
    };

    // Memory-map (or read) the log once; both routes parse the raw bytes
    // with the zero-copy parser — no per-line Strings.
    let data = LogData::open(log_path)
        .map_err(|e| CliError::Input(format!("cluster: cannot read log {log_path}: {e}")))?;

    // The merged table is kept when a feed replay follows the batch run.
    let mut feed_table: Option<MergedTable> = None;
    let clustering = match method {
        "simple" | "classful" => {
            let (log, errors) = clf_bytes::from_clf_bytes(log_path, &data);
            let counts = ErrorCounts::new(
                (log.requests.len() + errors.len()) as u64,
                errors.len() as u64,
            );
            if !counts.is_clean() {
                eprintln!("note: {counts}");
            }
            if log.requests.is_empty() {
                return Err(CliError::Input(format!(
                    "cluster: no parsable requests in {log_path}"
                )));
            }
            if method == "simple" {
                Clustering::simple24(&log)
            } else {
                Clustering::classful(&log)
            }
        }
        "aware" => {
            let list = opt(args, "--table").ok_or_else(|| {
                CliError::Usage(
                    "cluster: --table FILE[,FILE...] is required for method 'aware'".to_string(),
                )
            })?;
            let bgp = read_tables(list, TableKind::Bgp)?;
            let dumps = match opt(args, "--dump") {
                Some(list) => read_tables(list, TableKind::NetworkDump)?,
                None => Vec::new(),
            };
            let merged = MergedTable::merge(bgp.iter().chain(dumps.iter()));
            println!(
                "merged table: {} BGP + {} registry prefixes from {} files",
                merged.bgp_len(),
                merged.dump_len(),
                merged.source_names().len()
            );
            // The fused pipeline: chunked zero-copy parse straight into
            // compiled-LPM clustering, skipping the intermediate Log.
            let mut compiled = merged.compile();
            compiled.attach_obs(&obs);
            // `--deterministic` also pins the static strided chunk
            // schedule: per-shard worker counters must not depend on the
            // work-stealing race when two runs are being compared
            // byte for byte. All the shared knobs flow through one
            // RunConfig — the same struct `netclustd` parses its flags
            // into — so the CLI and the daemon cannot drift.
            let mut run = RunConfig::new()
                .deterministic(deterministic)
                .obs(obs.clone());
            if let Some(t) = threads {
                run = run.threads(t);
            }
            if let Some(rate) = max_error_rate {
                run = run.max_error_rate(rate);
            }
            let report = run
                .pipeline(&compiled)
                .try_run(&data)
                .map_err(|e| match e {
                    IngestError::ErrorBudget { .. } => {
                        CliError::Budget(format!("cluster: {log_path}: {e}"))
                    }
                    other => CliError::Input(format!("cluster: {log_path}: {other}")),
                })?;
            if !report.counts.is_clean() {
                eprintln!("note: {}", report.counts);
            }
            if let Some(qpath) = quarantine_path {
                let ranges = report.quarantine(&data);
                let mut body = Vec::new();
                for r in &ranges {
                    body.extend_from_slice(&data[r.start..r.end]);
                    body.push(b'\n');
                }
                fs::write(qpath, body).map_err(|e| {
                    CliError::Input(format!("cluster: cannot write quarantine {qpath}: {e}"))
                })?;
                eprintln!("quarantined {} rejected lines -> {qpath}", ranges.len());
            }
            if report.clustering.total_requests == 0 {
                return Err(CliError::Input(format!(
                    "cluster: no parsable requests in {log_path}"
                )));
            }
            if bgp_feed.is_some() {
                feed_table = Some(merged);
            }
            report.clustering
        }
        _ => unreachable!("method validated above"),
    };

    println!(
        "{}: {} requests, {} clients -> {} clusters ({:.2}% clustered, {} unclustered clients)",
        log_path,
        clustering.total_requests,
        clustering.client_count(),
        clustering.len(),
        clustering.coverage() * 100.0,
        clustering.unclustered.len()
    );
    let busy = threshold_busy(&clustering, 0.7);
    println!(
        "busy clusters covering 70% of requests: {} (threshold {} requests)",
        busy.busy.len(),
        busy.threshold
    );
    // Top-N, point lookups, and verdicts all go through the unified
    // ClusterQuery trait — the same surface `netclustd` serves over HTTP
    // — so the CLI report and the daemon's JSON cannot disagree.
    println!();
    print!("{}", render_top_table(&clustering.top(top)));

    if let Some(list) = opt(args, "--lookup") {
        for raw in list.split(',').filter(|s| !s.is_empty()) {
            let addr: std::net::Ipv4Addr = raw.parse().map_err(|_| {
                CliError::Usage(format!(
                    "cluster: --lookup wants IPv4 addresses, got {raw:?}"
                ))
            })?;
            println!("{}", clustering.lookup(addr).to_json());
        }
    }
    if let Some(list) = opt(args, "--verdict") {
        let policy = VerdictPolicy::default();
        for raw in list.split(',').filter(|s| !s.is_empty()) {
            let addr: std::net::Ipv4Addr = raw.parse().map_err(|_| {
                CliError::Usage(format!(
                    "cluster: --verdict wants IPv4 addresses, got {raw:?}"
                ))
            })?;
            println!("{}", clustering.verdict(addr, &policy).to_json());
        }
    }

    // Live-update replay: re-cluster the same log through the streaming
    // path, then patch the serving table batch by batch from the feed.
    // Runs before the snapshot below so `stream.patch.*` counters land in
    // `--metrics`/`--trace` output.
    if let (Some(spec), Some(merged)) = (bgp_feed, feed_table) {
        run_bgp_feed(spec, merged, &data, &obs, deterministic, persist)?;
    }

    // Observability outputs, captured after the pipeline finished so the
    // snapshot covers every stage.
    if metrics_path.is_some() || trace {
        let snap = obs.snapshot(deterministic);
        if let Some(mpath) = metrics_path {
            fs::write(mpath, snap.to_json()).map_err(|e| {
                CliError::Input(format!("cluster: cannot write metrics {mpath}: {e}"))
            })?;
            eprintln!("wrote metrics -> {mpath}");
        }
        if trace {
            println!(
                "
{:>8} {:>14} {:>12} {:>12}  span",
                "count", "total_ns", "min_ns", "max_ns"
            );
            for (path, sp) in &snap.spans {
                println!(
                    "{:>8} {:>14} {:>12} {:>12}  {path}",
                    sp.count, sp.total_ns, sp.min_ns, sp.max_ns
                );
            }
        }
    }
    Ok(())
}
