//! `netclust` — command-line interface to network-aware client clustering:
//! `netclust synth` writes a demo dataset, `netclust cluster` clusters a
//! log against routing tables. `netclust --help` lists every option of
//! both, generated from the [`SYNTH`] and [`CLUSTER`] tables below.
//!
//! Table files accept one prefix per line in any of the three §3.1.2
//! formats (`x.x.x.x/len`, `x.x.x.x/mask`, bare classful address); extra
//! whitespace-separated columns are ignored, so raw `show ip bgp`-style
//! dumps work after column trimming. A `--bgp-feed` file holds
//! `announce|withdraw|replace PREFIX` lines (blank line = batch boundary,
//! `#` = comment).
//!
//! Exit codes: 0 success, 1 input/runtime failure (the offending file is
//! named on stderr), 2 usage error, 3 malformed-line budget exceeded
//! (`--max-error-rate`), 4 persisted state unrecoverable (no generation in
//! --state-dir has a valid snapshot, or a snapshot failed its integrity
//! cross-check).

#![forbid(unsafe_code)]

use std::fmt;
use std::fs;
use std::io::{self, Write};
use std::net::Ipv4Addr;
use std::num::{NonZeroU64, NonZeroUsize};
use std::path::PathBuf;
use std::process::ExitCode;

use netclust::bgpsim::{DeltaBatch, DeltaStream, DeltaStreamConfig};
use netclust::core::query::render_top_table;
use netclust::core::{
    threshold_busy, Assigner, ErrorRate, FeedProgress, FlagError, FlagTable, FsyncPolicy,
    IngestError, JournalBatch, Parsed, PersistError, RunConfig, StateStore, StreamingClustering,
    SwapPolicy, VerdictPolicy,
};
use netclust::netgen::{
    standard_collection, to_clf, try_generate, LogSpec, Universe, UniverseConfig,
};
use netclust::obs::Obs;
use netclust::rtable::{load_tables, parse_feed, MergedTable, TableDelta, TableKind};
use netclust::weblog::chunk::LogData;

/// Every option of `netclust synth` and `netclust cluster`, one row a
/// line; the shared rows come from `netclust::core::flags`.
#[rustfmt::skip]
mod table {
    use netclust::core::{flags, Constraint::{OnlyWith, Requires}, Flag, FlagTable};
    pub use netclust::core::flags::{DETERMINISTIC, DUMP, FSYNC, LOG, RESUME, STATE_DIR, TABLE};

    pub const OUT: Flag = Flag::new("--out", "DIR", "directory to write the dataset into");
    pub const SEED: Flag = Flag::new("--seed", "N", "seed of the synthetic universe and log").default("42");
    pub const REQUESTS: Flag = Flag::new("--requests", "N", "log lines to generate").default("100000");
    pub const CLIENTS: Flag = Flag::new("--clients", "N", "distinct client addresses").default("2000");

    pub const SYNTH: FlagTable = FlagTable {
        usage: "netclust synth --out DIR [options]\n    \
            Generate a demo dataset: a CLF access log plus routing-table dumps.",
        flags: &[OUT, SEED, REQUESTS, CLIENTS],
        constraints: &[],
    };

    pub const METHOD: Flag = Flag::new("--method", "aware|simple|classful", "cluster by table prefix, /24 or class").default("aware");
    pub const TOP: Flag = flags::TOP.default("20");
    pub const LOOKUP: Flag = Flag::new("--lookup", "IP[,IP..]", "print each address's cluster answer as JSON");
    pub const VERDICT: Flag = Flag::new("--verdict", "IP[,IP..]", "print each address's spider/proxy verdict as JSON");
    pub const MAX_ERROR_RATE: Flag = Flag::new("--max-error-rate", "F", "exit 3 beyond this fraction of malformed lines");
    pub const QUARANTINE: Flag = Flag::new("--quarantine", "FILE", "write the rejected log lines to FILE");
    pub const METRICS: Flag = Flag::new("--metrics", "FILE", "write an OBS.json observability snapshot");
    pub const TRACE: Flag = Flag::new("--trace", "", "print the span table (count/total/min/max ns)");
    pub const THREADS: Flag = Flag::new("--threads", "N", "ingest workers (default all cores; same output)");
    pub const BGP_FEED: Flag = Flag::new("--bgp-feed", "SPEC", "replay BGP updates: synth:SEED:TICKS or a feed file");
    pub const CRASH_AFTER_BATCH: Flag = Flag::new("--crash-after-batch", "N", "abort() after the Nth journal append (drills)");

    pub const CLUSTER: FlagTable = FlagTable {
        usage: "netclust cluster --log FILE --table FILE[,FILE..] [options]\n    \
            Cluster the clients of a Common Log Format file against BGP\n    \
            routing-table dumps and print the busiest clusters.",
        flags: &[LOG, TABLE, DUMP, METHOD, TOP, LOOKUP, VERDICT, MAX_ERROR_RATE, QUARANTINE, METRICS,
                 TRACE, THREADS, DETERMINISTIC, BGP_FEED, STATE_DIR, RESUME, FSYNC, CRASH_AFTER_BATCH],
        constraints: &[
            OnlyWith(&[TABLE, DUMP, BGP_FEED], METHOD, "aware"),
            Requires(&[STATE_DIR], BGP_FEED),
            Requires(&[RESUME, FSYNC, CRASH_AFTER_BATCH], STATE_DIR),
        ],
    };

    /// `netclust` without a sub-command takes only `--help`.
    pub const NETCLUST: FlagTable = FlagTable {
        usage: "netclust <synth|cluster> [options]\n    \
            Network-aware clustering of web clients. Exit codes: 0 success,\n    \
            1 input/runtime failure, 2 usage error, 3 malformed-line budget\n    \
            exceeded, 4 persisted state unrecoverable.",
        flags: &[],
        constraints: &[],
    };
}
use table::*;

/// Why a command failed, carrying its exit code. Every variant's message
/// names the offending file or flag so failures are actionable from
/// scripts.
#[derive(Debug)]
enum CliError {
    /// Bad invocation: unknown command/method, missing or malformed flag.
    /// `run` puts the sub-command's name in front.
    Usage(String),
    /// An input file could not be read, written, or used.
    Input(String),
    /// The `--max-error-rate` budget was exceeded.
    Budget(String),
    /// Persisted state could not be reconstructed: no generation in the
    /// state directory has a valid snapshot, or a snapshot failed its
    /// integrity cross-check on restore.
    Unrecoverable(String),
    /// Standard output could not be written. A reader that went away
    /// (`| head`) is a clean stop: `main` exits 0 and says nothing.
    Stdout(io::Error),
}

impl CliError {
    fn exit_code(&self) -> ExitCode {
        match self {
            CliError::Input(_) | CliError::Stdout(_) => ExitCode::from(1),
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
            CliError::Input(m) | CliError::Budget(m) | CliError::Unrecoverable(m) => f.write_str(m),
            CliError::Stdout(e) => write!(f, "cannot write to stdout: {e}"),
        }
    }
}

/// Only writes to the one stdout handle are `?`-converted; every file
/// error is mapped by hand to an [`Input`](CliError::Input) naming the file.
impl From<io::Error> for CliError {
    fn from(e: io::Error) -> Self {
        CliError::Stdout(e)
    }
}

impl From<FlagError> for CliError {
    fn from(e: FlagError) -> Self {
        CliError::Usage(e.to_string())
    }
}

/// Persistence options for `run_bgp_feed`: the state dir and its three
/// companion flags.
struct PersistOpts {
    dir: String,
    resume: bool,
    fsync: FsyncPolicy,
    crash_after: Option<u64>,
}

/// Maps a persistence-layer failure to its exit-code class: state that
/// cannot be reconstructed is the dedicated exit 4, everything else
/// (filesystem errors, poisoned journal) is an input/runtime failure.
fn persist_err(e: PersistError) -> CliError {
    match e {
        PersistError::Unrecoverable { .. } | PersistError::StateMismatch(_) => {
            CliError::Unrecoverable(format!("cluster: {e}"))
        }
        other => CliError::Input(format!("cluster: {other}")),
    }
}

fn main() -> ExitCode {
    netclust_sys::pin_mmap_threshold();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out = &mut io::stdout().lock();
    let result = match args.first().map(String::as_str) {
        Some("synth") => run("synth", &SYNTH, &args[1..], out, cmd_synth),
        Some("cluster") => run("cluster", &CLUSTER, &args[1..], out, cmd_cluster),
        _ => run("netclust", &NETCLUST, &args, out, |_, _| {
            let usage = "<synth|cluster> [options]   (see --help)";
            Err(CliError::Usage(usage.to_string()))
        }),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Stdout(e)) if e.kind() == io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("netclust: {e}");
            e.exit_code()
        }
    }
}

/// Parses `args` against `table` and runs the command on them; `--help`
/// prints the table (every sub-command's when there is none) instead.
/// `out` is the process's stdout, the one handle everything prints through.
fn run(
    cmd: &str,
    table: &FlagTable,
    args: &[String],
    out: &mut dyn Write,
    body: fn(&Parsed, &mut dyn Write) -> Result<(), CliError>,
) -> Result<(), CliError> {
    let result = match table.parse(args) {
        Ok(parsed) => body(&parsed, out),
        Err(FlagError::Help) => {
            let mut help = table.render_help();
            if table.flags.is_empty() {
                help += &format!("\n{}\n{}", SYNTH.render_help(), CLUSTER.render_help());
            }
            out.write_all(help.as_bytes()).map_err(CliError::from)
        }
        Err(e) => Err(e.into()),
    };
    result.map_err(|e| match e {
        CliError::Usage(m) => CliError::Usage(format!("{cmd}: {m}")),
        other => other,
    })
}

fn cmd_synth(p: &Parsed, out: &mut dyn Write) -> Result<(), CliError> {
    let dir: PathBuf = p.req(&OUT)?;
    let seed: u64 = p.req(&SEED)?;
    let requests: u64 = p.req(&REQUESTS)?;
    let clients: u64 = p.req(&CLIENTS)?;

    let universe = Universe::generate(UniverseConfig {
        seed,
        ..UniverseConfig::default()
    });
    let mut spec = LogSpec::tiny("synth", seed);
    spec.total_requests = requests;
    spec.target_clients = clients;
    // Refused before anything is written: the universe is fixed, the count is not.
    let log = try_generate(&universe, &spec).map_err(|e| CLIENTS.bad(&clients.to_string(), e))?;
    fs::create_dir_all(&dir)
        .map_err(|e| CliError::Input(format!("synth: cannot create {}: {e}", dir.display())))?;
    let log_path = dir.join("access.log");
    fs::write(&log_path, to_clf(&log))
        .map_err(|e| CliError::Input(format!("synth: cannot write {}: {e}", log_path.display())))?;
    writeln!(
        out,
        "wrote {} ({} requests, {} clients)",
        log_path.display(),
        log.requests.len(),
        log.client_count()
    )?;

    for table in standard_collection(&universe, 0, 0) {
        let name = table.name.to_lowercase().replace(['&', '-'], "_");
        let ext = match table.kind {
            TableKind::Bgp => "bgp",
            TableKind::NetworkDump => "dump",
        };
        let path = dir.join(format!("{name}.{ext}"));
        let body: String = table.prefixes().iter().map(|p| format!("{p}\n")).collect();
        fs::write(&path, body)
            .map_err(|e| CliError::Input(format!("synth: cannot write {}: {e}", path.display())))?;
        writeln!(out, "wrote {} ({} prefixes)", path.display(), table.len())?;
    }
    let dir = dir.display();
    writeln!(
        out,
        "\ntry: netclust cluster --log {dir}/access.log --table {dir}/*.bgp --dump {dir}/*.dump"
    )?;
    Ok(())
}

/// Resolves a `--bgp-feed` spec into timestamped batches: `synth:SEED:TICKS`
/// synthesizes a deterministic [`DeltaStream`] over the merged BGP tier;
/// anything else is a feed file of `announce|withdraw|replace PREFIX` lines
/// with blank-line batch boundaries and `#` comments.
fn parse_bgp_feed(spec: &str, merged: &MergedTable) -> Result<Vec<DeltaBatch>, CliError> {
    if let Some(rest) = spec.strip_prefix("synth:") {
        let parts = rest.split_once(':');
        let (Some(seed), Some(ticks)) = (
            parts.and_then(|(seed, _)| seed.parse::<u64>().ok()),
            parts.and_then(|(_, ticks)| ticks.parse::<usize>().ok()),
        ) else {
            return Err(CliError::Usage(format!(
                "{} wants synth:SEED:TICKS, got {spec:?}",
                BGP_FEED.name
            )));
        };
        let stream = DeltaStream::new(
            seed,
            merged.bgp_prefixes().to_vec(),
            DeltaStreamConfig::default(),
        );
        return Ok(stream.take(ticks).collect());
    }
    let text = fs::read_to_string(spec)
        .map_err(|e| CliError::Input(format!("cluster: cannot read bgp feed {spec}: {e}")))?;
    let batches =
        parse_feed(&text).map_err(|(line, e)| CliError::Input(format!("{spec}:{line}: {e}")))?;
    let batch = |(tick, deltas): (usize, Vec<TableDelta>)| DeltaBatch {
        tick: tick as u64,
        timestamp: tick as u64,
        deltas,
        session_reset: false,
    };
    Ok(batches.into_iter().enumerate().map(batch).collect())
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
    out: &mut dyn Write,
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
            // Counts this binary wrote from a usize; one that does not fit
            // back was written on a wider platform than this one.
            let overflow =
                |_| CliError::Unrecoverable("cluster: a snapshot count overflows usize".into());
            let restored = |v: u64| usize::try_from(v).map_err(overflow);
            resets = restored(state.feed.resets)?;
            deltas_total = restored(state.feed.deltas_total)?;
            reassigned = restored(state.feed.reassigned)?;
            feed_pos = restored(state.feed_pos)?;
            for b in &report.batches {
                if b.session_reset {
                    resets += 1;
                }
                deltas_total += b.deltas.len();
                // Recovery replay, waived in tests/source_contracts.rs:
                // these batches were already journaled before the crash,
                // so applying them here re-derives state, not new writes.
                let r = stream.apply_deltas(&b.deltas);
                reassigned += r.reassigned_clients;
                feed_pos = restored(b.feed_index + 1)?;
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
        #[allow(
            clippy::disallowed_types,
            reason = "measurement-only latency timing, disabled entirely under --deterministic."
        )]
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
    writeln!(
        out,
        "\nbgp feed {spec}: {} batches ({} session resets), {} deltas",
        batches.len(),
        resets,
        deltas_total
    )?;
    writeln!(
        out,
        "  applied {}: accepted {}, rejected {}, final table version {}",
        stats.batches,
        stats.accepted,
        stats.rejected,
        stream.table_version()
    )?;
    if let Some(why) = stream.last_rejection() {
        writeln!(out, "  last rejection: {why:?}")?;
    }
    writeln!(
        out,
        "  slot writes {}, group rebuilds {}, recompiles {}",
        stats.slot_writes, stats.group_rebuilds, stats.recompiles
    )?;
    writeln!(
        out,
        "  reassigned {} client assignments, coverage {:.2}% -> {:.2}%",
        reassigned,
        coverage_start * 100.0,
        stream.coverage() * 100.0
    )?;
    if !latencies_ns.is_empty() {
        latencies_ns.sort_unstable();
        #[allow(clippy::cast_possible_truncation, reason = "0 <= q <= 1 keeps the index in range.")]
        let at = |q: f64| latencies_ns[((latencies_ns.len() - 1) as f64 * q) as usize];
        writeln!(
            out,
            "  patch latency/batch: p50 {}ns, p90 {}ns, max {}ns",
            at(0.5),
            at(0.9),
            latencies_ns[latencies_ns.len() - 1]
        )?;
    }
    Ok(())
}

fn cmd_cluster(p: &Parsed, out: &mut dyn Write) -> Result<(), CliError> {
    let log_path: String = p.req(&LOG)?;
    let log_path = log_path.as_str();
    let method = p.get(&METHOD).unwrap_or_default();
    if !matches!(method, "aware" | "simple" | "classful") {
        return Err(CliError::Usage(format!(
            "unknown method {method:?} ({})",
            METHOD.metavar
        )));
    }
    let top: usize = p.req(&TOP)?;
    // NaN or a ratio outside [0, 1] is refused here, never clamped.
    let out_of_range = || {
        let raw = p.get(&MAX_ERROR_RATE).unwrap_or_default();
        MAX_ERROR_RATE.bad(raw, "not a fraction from 0 to 1")
    };
    let max_error_rate = p.opt::<f64>(&MAX_ERROR_RATE)?;
    let max_error_rate = max_error_rate
        .map(|r| ErrorRate::new(r).ok_or_else(out_of_range))
        .transpose()?;
    let quarantine_path = p.get(&QUARANTINE);
    let metrics_path = p.get(&METRICS);
    let trace = p.given(&TRACE);
    let deterministic = p.given(&DETERMINISTIC);
    let threads = p.opt::<NonZeroUsize>(&THREADS)?.map(NonZeroUsize::get);
    let bgp_feed = p.get(&BGP_FEED);
    let lookups: Vec<Ipv4Addr> = p.each(&LOOKUP)?;
    let verdicts: Vec<Ipv4Addr> = p.each(&VERDICT)?;
    let persist = match p.get(&STATE_DIR) {
        Some(dir) => Some(PersistOpts {
            dir: dir.to_string(),
            resume: p.given(&RESUME),
            fsync: p.req(&FSYNC)?,
            crash_after: p
                .opt::<NonZeroU64>(&CRASH_AFTER_BATCH)?
                .map(NonZeroU64::get),
        }),
        None => None,
    };
    // Observability is pay-for-what-you-ask: the registry only exists when
    // a metrics sink or span dump was requested.
    let obs = if metrics_path.is_some() || trace {
        Obs::enabled()
    } else {
        Obs::disabled()
    };

    // Memory-map (or read) the log once.
    let data = LogData::open(log_path)
        .map_err(|e| CliError::Input(format!("cluster: cannot read log {log_path}: {e}")))?;

    // The method picks how an address gets its prefix — only `aware` needs
    // tables — and nothing else: every method runs the one fused pipeline.
    let mut merged: Option<MergedTable> = None;
    let compiled;
    let how = match method {
        "simple" => Assigner::Simple24,
        "classful" => Assigner::Classful,
        _ => {
            p.req::<String>(&TABLE)?; // this method cannot do without one
            let tables = load_tables::<String>(&p.each(&TABLE)?, &p.each(&DUMP)?)
                .map_err(|e| CliError::Input(format!("cluster: {e}")))?;
            for (table, counts) in tables.iter().filter(|(_, counts)| !counts.is_clean()) {
                let (path, bad) = (&table.name, counts.malformed);
                eprintln!("note: {path}: skipped {bad} unparsable lines");
            }
            let table = merged.insert(MergedTable::merge(tables.iter().map(|(table, _)| table)));
            writeln!(
                out,
                "merged table: {} BGP + {} registry prefixes from {} files",
                table.bgp_len(),
                table.dump_len(),
                table.source_names().len()
            )?;
            let mut table = table.compile();
            table.attach_obs(&obs);
            compiled = table;
            Assigner::NetworkAware(&compiled)
        }
    };
    let mut run = RunConfig::new()
        .deterministic(deterministic)
        .obs(obs.clone());
    if let Some(t) = threads {
        run = run.threads(t);
    }
    if let Some(rate) = max_error_rate {
        run = run.max_error_rate(rate);
    }
    // Chunked zero-copy parse straight into the clustering kernel: no
    // intermediate `Log`, scanned pages handed back as it goes.
    let report = run.pipeline_by(how).run_log(&data).map_err(|e| match e {
        IngestError::ErrorBudget { .. } => CliError::Budget(format!("cluster: {log_path}: {e}")),
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
    let clustering = report.clustering;
    if clustering.total_requests == 0 {
        let why = format!("cluster: no parsable requests in {log_path}");
        return Err(CliError::Input(why));
    }

    writeln!(
        out,
        "{}: {} requests, {} clients -> {} clusters ({:.2}% clustered, {} unclustered clients)",
        log_path,
        clustering.total_requests,
        clustering.client_count(),
        clustering.len(),
        clustering.coverage() * 100.0,
        clustering.unclustered().len()
    )?;
    let busy = threshold_busy(&clustering.clusters, 0.7);
    writeln!(
        out,
        "busy clusters covering 70% of requests: {} (threshold {} requests)",
        busy.busy.len(),
        busy.threshold
    )?;
    write!(out, "\n{}", render_top_table(&clustering.top(top)))?;

    // Point answers follow the daemon's rule for every address, seen or
    // not: the method's cluster, its aggregates, the client's totals.
    let policy = VerdictPolicy::default();
    for addr in lookups {
        writeln!(out, "{}", clustering.answer(how, addr).to_json())?;
    }
    for addr in verdicts {
        let verdict = policy.judge(&clustering.answer(how, addr));
        writeln!(out, "{}", verdict.to_json())?;
    }

    // Live-update replay: re-cluster the same log through the streaming
    // path, then patch the serving table batch by batch from the feed.
    // Runs before the snapshot below so `stream.patch.*` counters land in
    // `--metrics`/`--trace` output.
    if let (Some(spec), Some(merged)) = (bgp_feed, merged) {
        run_bgp_feed(spec, merged, &data, &obs, deterministic, persist, out)?;
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
            writeln!(
                out,
                "\n{:>8} {:>14} {:>12} {:>12}  span",
                "count", "total_ns", "min_ns", "max_ns"
            )?;
            for (path, sp) in &snap.spans {
                writeln!(
                    out,
                    "{:>8} {:>14} {:>12} {:>12}  {path}",
                    sp.count, sp.total_ns, sp.min_ns, sp.max_ns
                )?;
            }
        }
    }
    Ok(())
}
