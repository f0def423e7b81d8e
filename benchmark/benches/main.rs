//! `netclust-benchmark`: the repo's end-to-end and per-layer benchmark.
//!
//! ```text
//! netclust-benchmark --workload NAME --seed N --seconds S --trace 0|1
//!                    [--bin-dir DIR] [--out-dir DIR] [--record FILE] [--quick]
//!                    [--keep-inputs]
//!     One run: generate inputs from the seed, drive the release binaries
//!     through batch → boot → quiet → churn → crash → recover, check every
//!     output against the oracle, print one line per metric and, last, one
//!     JSON object. With --trace 1 the same run is followed by the traced
//!     in-process pass and the per-layer metrics are printed instead.
//!
//! netclust-benchmark compare A B [--spec BENCHMARK.json]
//!     Two sets of run records (as --record writes them) against the
//!     bounds in the spec.
//! ```

mod blackbox;
mod compare;
mod gen;
mod httpc;
mod json;
mod layers;
mod oracle;
mod procs;
mod report;
mod stats;
mod trace;

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use blackbox::{Env, Plan};
use gen::{Corpus, Shape};
use oracle::Oracle;
use report::{MetricDef, Reading, Record, END_TO_END, PER_LAYER, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    keep_inputs: bool,
    bin_dir: PathBuf,
    out_dir: PathBuf,
    record: Option<PathBuf>,
}

impl Args {
    /// Where this run's records, trace and scratch files go.
    fn run_dir(&self) -> PathBuf {
        self.out_dir
            .join(self.seed.to_string())
            .join(&self.workload)
    }
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: 11,
        seconds: 40.0,
        trace: false,
        quick: false,
        keep_inputs: false,
        bin_dir: PathBuf::from(".bench_build/release"),
        out_dir: PathBuf::from("benchmark/out"),
        record: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            out.quick = true;
            continue;
        }
        if flag == "--keep-inputs" {
            out.keep_inputs = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: unparsable value {value:?}");
        match flag.as_str() {
            "--workload" => out.workload = value.clone(),
            "--seed" => out.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => out.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--bin-dir" => out.bin_dir = PathBuf::from(value),
            "--out-dir" => out.out_dir = PathBuf::from(value),
            "--record" => out.record = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if !WORKLOADS.contains(&out.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !out.seconds.is_finite() || out.seconds < 1.0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(out)
}

/// The inputs of a workload. `narrow` and `wide` differ in how many
/// clients the same number of lines is spread over, and so in which
/// layers the work lands.
fn shape_of(workload: &str, plan: &Plan, quick: bool) -> Shape {
    let scale = if quick { 10 } else { 1 };
    let (clients, client_alpha) = match workload {
        // Few busy clients: parse-bound ingest, small state.
        "narrow" => (40_000, 1.0),
        // Half as many clients as lines, flatter skew: per-client state,
        // shard merge and LPM over a working set far beyond the caches.
        _ => (500_000, 0.6),
    };
    Shape {
        prefixes: 110_000 / scale,
        boot_lines: 1_000_000 / scale,
        clients: clients / scale,
        client_alpha,
        churn_lines: plan.churn_lines(),
        tail_lines: 100_000 / scale,
        batches: plan.batches(),
        queries: 100_000,
    }
}

/// Set-up: generate the inputs and build the oracle, both in memory. Done
/// three times, so the reported time is a median; the last set is the one
/// used. Putting the files on disk comes after and is not timed: how long
/// 150 MB take to reach the disk is the host's business, and it varied
/// the figure by a third.
fn set_up(args: &Args, shape: &Shape, inputs: &Path) -> Result<(Corpus, Oracle, f64), String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..3 {
        let started = Instant::now();
        let corpus = gen::generate(args.seed, shape, inputs);
        let mut oracle = Oracle::new(&corpus.bgp, &corpus.dump);
        oracle.count(&corpus.reqs[..corpus.boot_lines]);
        times.push(started.elapsed().as_secs_f64());
        last = Some((corpus, oracle));
    }
    let (mut corpus, oracle) = last.ok_or("no set-up ran")?;
    corpus.write().map_err(|e| format!("write inputs: {e}"))?;
    Ok((corpus, oracle, stats::median(&times)))
}

fn readings(
    defs: &[MetricDef],
    lookup: impl Fn(&str) -> (f64, Option<usize>),
) -> Result<Vec<Reading>, String> {
    defs.iter()
        .map(|&def| {
            let (value, samples) = lookup(def.name);
            if value.is_finite() {
                Ok(Reading {
                    def,
                    value,
                    samples,
                })
            } else {
                Err(format!("metric {} produced no sample", def.name))
            }
        })
        .collect()
}

fn run(args: &Args) -> Result<bool, String> {
    if let Some(pid) = procs::other_daemon_running() {
        return Err(format!(
            "another netclustd (pid {pid}) is running; its load would be measured too"
        ));
    }
    for bin in ["netclust", "netclustd"] {
        if !args.bin_dir.join(bin).is_file() {
            return Err(format!("{} not built", args.bin_dir.join(bin).display()));
        }
    }
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let plan = Plan::for_seconds(args.seconds);
    let shape = shape_of(&args.workload, &plan, args.quick);
    let run_dir = args.run_dir();
    let work = run_dir.join("work");
    std::fs::create_dir_all(&run_dir).map_err(|e| format!("{}: {e}", run_dir.display()))?;
    // Absolute, because the daemon is handed these paths.
    let work = std::path::absolute(&work).map_err(|e| format!("{}: {e}", work.display()))?;

    let (corpus, mut oracle, setup_s) = set_up(args, &shape, &work.join("inputs"))?;
    eprintln!(
        "{} seed {}: {} prefixes, {} lines ({:.1} MB) from {} clients, set up in {setup_s:.2} s",
        args.workload,
        args.seed,
        corpus.bgp.len() + corpus.dump.len(),
        corpus.boot_lines,
        corpus.boot_bytes as f64 / 1e6,
        corpus.boot_clients,
    );
    // The traced pass appends to its log, so it works on a copy taken
    // before the black-box phases grow the original.
    let trace_log = work.join("inputs").join("trace.log");
    if args.trace {
        std::fs::copy(&corpus.log_path, &trace_log).map_err(|e| format!("copy log: {e}"))?;
    }

    let env = Env {
        bin_dir: &args.bin_dir,
        work: &work,
        load_threads: nproc,
        corpus: &corpus,
        plan: &plan,
    };
    let mut measured = blackbox::run(&env, &mut oracle)?;
    measured.set("setup_s", setup_s, 3);

    let black_box = |name: &str| match measured.figures.get(name) {
        Some(&(value, samples)) => (value, Some(samples)),
        None => (f64::NAN, None),
    };
    let found = if args.trace {
        let (layers, tracer) = layers::run(
            &corpus,
            &trace_log,
            &work.join("trace-state"),
            plan.journaled_batches,
            &measured,
        )?;
        let path = run_dir.join("trace.json");
        std::fs::write(&path, tracer.to_json(&args.workload, args.seed))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        readings(PER_LAYER, |name| match layers.get(name) {
            Some(v) => (*v, None),
            None => black_box(name),
        })?
    } else {
        readings(END_TO_END, black_box)?
    };

    for (name, (value, _)) in &measured.figures {
        if !found.iter().any(|r| r.def.name == *name) {
            println!(
                "{:<8} {:<34} {:>14.4}  (not reported)",
                args.workload, name, value
            );
        }
    }
    for r in &found {
        println!(
            "{:<8} {:<34} {:>14.4}  {:<6} ({} is better)",
            args.workload,
            r.def.name,
            r.value,
            r.def.unit,
            r.def.better.word()
        );
    }
    for why in &measured.tally.reasons {
        eprintln!("failed: {why}");
    }
    let host = report::host_descriptor(nproc);
    let record = Record {
        workload: &args.workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        quick: args.quick,
        attempted: measured.tally.attempted,
        failed: measured.tally.failed,
        reasons: &measured.tally.reasons,
        readings: &found,
        host: &host,
    };
    let name = if args.trace {
        "result-trace.json"
    } else {
        "result.json"
    };
    std::fs::write(run_dir.join(name), record.to_json() + "\n")
        .map_err(|e| format!("write record: {e}"))?;
    if let Some(path) = &args.record {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        writeln!(f, "{}", record.to_json()).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("{}", record.result_line());
    Ok(measured.tally.failed == 0)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        let spec = args
            .iter()
            .position(|a| a == "--spec")
            .and_then(|i| args.get(i + 1))
            .map_or("BENCHMARK.json", String::as_str);
        return match (args.get(1), args.get(2)) {
            (Some(a), Some(b)) => match compare::main(spec, a, b) {
                Ok(code) => ExitCode::from(code as u8),
                Err(why) => {
                    eprintln!("netclust-benchmark compare: {why}");
                    ExitCode::from(2)
                }
            },
            _ => {
                eprintln!("usage: netclust-benchmark compare A B [--spec BENCHMARK.json]");
                ExitCode::from(2)
            }
        };
    }
    let parsed = match parse_args(&args) {
        Ok(a) => a,
        Err(why) => {
            eprintln!("netclust-benchmark: {why}");
            return ExitCode::from(2);
        }
    };
    let outcome = run(&parsed);
    // The generated inputs and state dirs are large and reproducible from
    // the seed; only the records, traces and daemon logs are kept.
    let work = parsed.run_dir().join("work");
    if !parsed.keep_inputs {
        for dir in ["inputs", "state", "state.saved", "trace-state"] {
            let _ = std::fs::remove_dir_all(work.join(dir));
        }
    }
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("netclust-benchmark: {why}");
            ExitCode::from(2)
        }
    }
}
