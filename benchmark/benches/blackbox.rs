//! The end-to-end run: the release binaries driven as black boxes, one
//! phase after another on one set of generated inputs.
//!
//! `batch` → `boot` → `quiet` (closed loops, no writer) → `churn` (open
//! loop beside appends and reloads) → `crash` (kill -9, log keeps growing)
//! → `recover`. Every reply and every process output is checked against
//! the oracle; anything else than a correct answer is a failed operation.

use std::collections::{BTreeMap, VecDeque};
use std::io::Write as _;
use std::net::{Ipv4Addr, SocketAddr};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use crate::gen::{delta_body, Corpus, Query, QueryKind};
use crate::httpc::{field_u64, get, post, Conn};
use crate::json::Json;
use crate::oracle::{
    check_cli_stdout, cluster_field_is, count_wrong_under_churn, witness_of, Oracle, ServingView,
    VersionedAnswer,
};
use crate::procs::{self, Owned};
use crate::stats::{
    highest_supported_percentile, match_watermarks, median, percentile_sorted, Schedule, Watermark,
};

/// How long each phase runs and how often each process is started.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Untimed `netclust cluster` runs before the timed ones.
    pub cli_warmups: usize,
    pub cli_runs: usize,
    pub boots: usize,
    pub quiet_one_s: f64,
    pub quiet_all_s: f64,
    pub quiet_slices: usize,
    pub churn_s: f64,
    pub journaled_batches: usize,
    pub recover_rounds: usize,
}

/// Open-loop query rate of the churn phase, per second.
pub const CHURN_QUERY_RATE: f64 = 2_000.0;
/// The writer appends this many lines every [`CHURN_TICK`].
pub const CHURN_LINES_PER_TICK: usize = 50;
pub const CHURN_TICK: Duration = Duration::from_millis(5);
/// One delta batch is posted this often during churn.
const RELOAD_EVERY: Duration = Duration::from_secs(2);
/// Every this-many-th point answer under churn is kept for checking.
const CHURN_SAMPLE_EVERY: u64 = 20;

impl Plan {
    /// Splits `seconds` of measuring over the timed phases; process
    /// starts are counted, not timed, so they repeat exactly.
    pub fn for_seconds(seconds: f64) -> Plan {
        Plan {
            // A freshly written log takes about five full reads before the
            // page cache serves it at its steady speed (measured: 540 ms
            // per run falling to 380 ms at the sixth).
            cli_warmups: 5,
            cli_runs: 5,
            boots: 3,
            quiet_one_s: seconds * 0.15,
            quiet_all_s: seconds * 0.10,
            quiet_slices: 7,
            churn_s: seconds * 0.35,
            journaled_batches: 8,
            recover_rounds: 3,
        }
    }

    /// Lines the churn writer can append in `churn_s`.
    pub fn churn_lines(&self) -> usize {
        (self.churn_s / CHURN_TICK.as_secs_f64()) as usize * CHURN_LINES_PER_TICK
    }

    /// Delta batches the run posts: the reloads under churn plus the
    /// journaled ones before the crash.
    pub fn batches(&self) -> usize {
        (self.churn_s / RELOAD_EVERY.as_secs_f64()) as usize + 1 + self.journaled_batches
    }
}

/// Operations tried and failed, with the first few reasons kept.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

impl Tally {
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, why: impl Into<String>) {
        self.attempted += 1;
        self.failed += 1;
        if self.reasons.len() < 8 {
            self.reasons.push(why.into());
        }
    }

    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if ok {
            self.ok();
        } else {
            self.fail(why());
        }
    }

    /// `attempted` operations of one kind, `failed` of them for `why`.
    pub fn add(&mut self, attempted: usize, failed: usize, why: &str) {
        self.attempted += attempted as u64;
        self.failed += failed as u64;
        if failed > 0 && self.reasons.len() < 8 {
            self.reasons.push(format!("{failed} × {why}"));
        }
    }

    fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for r in other.reasons {
            if self.reasons.len() < 8 {
                self.reasons.push(r);
            }
        }
    }
}

/// What the black-box run measured: by metric name, the figure and how
/// many samples stand behind it.
#[derive(Debug, Default)]
pub struct Measured {
    pub figures: BTreeMap<&'static str, (f64, usize)>,
    pub tally: Tally,
}

impl Measured {
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        self.figures.insert(name, (value, samples));
    }

    /// The figure called `name`; `NaN` when the run produced none.
    pub fn get(&self, name: &str) -> f64 {
        self.figures.get(name).map_or(f64::NAN, |f| f.0)
    }
}

/// What every phase of one run works with.
pub struct Env<'a> {
    pub bin_dir: &'a Path,
    /// Scratch directory of this run (inputs, state dirs, port files).
    pub work: &'a Path,
    /// Load threads and connections: `nproc`.
    pub load_threads: usize,
    pub corpus: &'a Corpus,
    pub plan: &'a Plan,
}

/// What one closed-loop client saw: point and top-N latencies in seconds.
struct LoopLog {
    point: Vec<f64>,
    top: Vec<f64>,
    tally: Tally,
}

/// The state a killed daemon left behind.
struct Crashed {
    /// Copy of the state dir as it was at the kill.
    saved: PathBuf,
    /// Lines in the log once the tail was appended.
    lines: u64,
    /// An address whose cluster proves the journal was replayed.
    probe: u32,
}

type Res<T> = Result<T, String>;

fn io<T>(what: &str, r: std::io::Result<T>) -> Res<T> {
    r.map_err(|e| format!("{what}: {e}"))
}

/// The raw samples behind a median, on stderr for whoever reads the run.
fn note(what: &str, samples: &[f64]) {
    let list: Vec<String> = samples.iter().map(|v| format!("{v:.4}")).collect();
    eprintln!("  {what}: {}", list.join(" "));
}

struct Daemon {
    proc: Owned,
    addr: SocketAddr,
    spawned: Instant,
    ready_s: f64,
}

/// Starts `netclustd` on the corpus with a fresh port file and, unless
/// resuming, a fresh state dir; returns once `/healthz` answers 200.
fn start_daemon(env: &Env, tag: &str, resume: bool) -> Res<Daemon> {
    let corpus = env.corpus;
    let state_dir = env.work.join("state");
    let port_file = env.work.join(format!("port-{tag}"));
    let _ = std::fs::remove_file(&port_file);
    if !resume {
        let _ = std::fs::remove_dir_all(&state_dir);
    }
    let log = io(
        "daemon log",
        std::fs::File::create(env.work.join(format!("netclustd-{tag}.log"))),
    )?;
    let mut cmd = Command::new(env.bin_dir.join("netclustd"));
    cmd.arg("--table").arg(&corpus.bgp_path);
    cmd.arg("--dump").arg(&corpus.dump_path);
    cmd.arg("--log").arg(&corpus.log_path);
    cmd.arg("--state-dir").arg(&state_dir);
    cmd.arg("--port-file").arg(&port_file);
    cmd.args(["--poll-ms", "10"]);
    if resume {
        cmd.arg("--resume");
    }
    cmd.stdin(Stdio::null()).stdout(Stdio::null()).stderr(log);
    let spawned = Instant::now();
    let mut proc = io("spawn netclustd", Owned::spawn(&mut cmd))?;
    let deadline = spawned + Duration::from_secs(60);
    let addr = loop {
        if let Some(addr) = std::fs::read_to_string(&port_file)
            .ok()
            .filter(|s| s.ends_with('\n'))
            .and_then(|s| s.trim().parse::<SocketAddr>().ok())
        {
            break addr;
        }
        if !proc.alive() {
            return Err(format!("netclustd ({tag}) exited during boot"));
        }
        if Instant::now() > deadline {
            return Err(format!("netclustd ({tag}) wrote no port file in 60 s"));
        }
        std::thread::sleep(Duration::from_micros(500));
    };
    let mut conn = io("connect", Conn::connect(addr))?;
    let (status, _) = io("first /healthz", conn.round_trip(&get("/healthz")))?;
    if status != 200 {
        return Err(format!("first /healthz answered {status}"));
    }
    Ok(Daemon {
        proc,
        addr,
        spawned,
        ready_s: spawned.elapsed().as_secs_f64(),
    })
}

struct Health {
    total: u64,
    version: u64,
}

fn health(conn: &mut Conn) -> Res<Health> {
    let (status, body) = io("/healthz", conn.round_trip(&get("/healthz")))?;
    match (
        status,
        field_u64(body, "total_requests"),
        field_u64(body, "table_version"),
    ) {
        (200, Some(total), Some(version)) => Ok(Health { total, version }),
        _ => Err(format!("/healthz answered {status} without counters")),
    }
}

/// Polls `/healthz` until the daemon has applied `lines` log lines.
fn wait_caught_up(conn: &mut Conn, lines: u64, limit: Duration) -> Res<Health> {
    let deadline = Instant::now() + limit;
    loop {
        let h = health(conn)?;
        if h.total == lines {
            return Ok(h);
        }
        if h.total > lines {
            return Err(format!(
                "daemon counted {} lines, the log holds {lines}",
                h.total
            ));
        }
        if Instant::now() > deadline {
            return Err(format!("daemon stuck at {} of {lines} lines", h.total));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn checkpoints(conn: &mut Conn) -> Res<u64> {
    let (status, body) = io("/metrics", conn.round_trip(&get("/metrics")))?;
    std::str::from_utf8(body)
        .ok()
        .and_then(Json::parse)
        .and_then(|doc| doc.get("counters")?.get("serve.checkpoints")?.as_u64())
        .filter(|_| status == 200)
        .ok_or_else(|| "/metrics carries no serve.checkpoints counter".to_string())
}

/// Waits until the follower's idle checkpoint has been written: the
/// counter is at least one and has stood still for 150 ms.
fn wait_idle_checkpoint(conn: &mut Conn) -> Res<()> {
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut last = checkpoints(conn)?;
    let mut since = Instant::now();
    loop {
        std::thread::sleep(Duration::from_millis(10));
        let now = checkpoints(conn)?;
        if now != last {
            last = now;
            since = Instant::now();
        } else if now > 0 && since.elapsed() > Duration::from_millis(150) {
            return Ok(());
        }
        if Instant::now() > deadline {
            return Err("no idle checkpoint within 20 s".to_string());
        }
    }
}

fn summarize_latency(
    out: &mut Measured,
    p50: &'static str,
    tail: Option<&'static str>,
    samples_s: &mut [f64],
    scale: f64,
) {
    samples_s.sort_by(f64::total_cmp);
    out.set(
        p50,
        percentile_sorted(samples_s, 50.0) * scale,
        samples_s.len(),
    );
    if let Some(tail) = tail {
        // Named for the 99th; with fewer than 1000 samples the highest
        // percentile that still has ten samples beyond it stands in.
        let p = highest_supported_percentile(samples_s.len()).map(|p| p.min(99.0));
        let value = p.map_or(f64::NAN, |p| percentile_sorted(samples_s, p) * scale);
        out.set(tail, value, samples_s.len());
    }
}

/// `batch`: the one-shot CLI over the whole log, exec → exit.
fn batch(env: &Env, oracle: &Oracle, out: &mut Measured) -> Res<()> {
    let (corpus, plan) = (env.corpus, env.plan);
    let want = oracle.cli_expectation(&corpus.reqs[..corpus.boot_lines], 20);
    let (mut walls, mut rss) = (Vec::new(), Vec::new());
    for run in 0..plan.cli_warmups + plan.cli_runs {
        let mut cmd = Command::new(env.bin_dir.join("netclust"));
        cmd.arg("cluster");
        cmd.arg("--log").arg(&corpus.log_path);
        cmd.arg("--table").arg(&corpus.bgp_path);
        cmd.arg("--dump").arg(&corpus.dump_path);
        cmd.args(["--top", "20"]);
        let done = io("run netclust", procs::run_to_exit(&mut cmd))?;
        let verdict = if done.exit_ok {
            check_cli_stdout(&done.stdout, &want)
        } else {
            Err("exit code not 0".to_string())
        };
        match verdict {
            Ok(()) => out.tally.ok(),
            Err(why) => out.tally.fail(format!("netclust cluster run {run}: {why}")),
        }
        if run >= plan.cli_warmups {
            walls.push(done.wall.as_secs_f64());
            rss.push(done.peak_rss_mb);
        }
    }
    note("netclust cluster wall s", &walls);
    let wall = median(&walls);
    out.set(
        "batch_mb_s",
        corpus.boot_bytes as f64 / 1e6 / wall,
        walls.len(),
    );
    out.set("cli_wall_ms", wall * 1e3, walls.len());
    out.set("cli_rss_mb", median(&rss), rss.len());
    Ok(())
}

/// `boot`: spawn → ready → caught up on the whole log, `plan.boots`
/// times; the last daemon stays up for the serving phases.
fn boot(env: &Env, out: &mut Measured) -> Res<Daemon> {
    let (corpus, plan) = (env.corpus, env.plan);
    let (mut ready, mut catchup) = (Vec::new(), Vec::new());
    let mut kept = None;
    for n in 0..plan.boots {
        let daemon = match start_daemon(env, &format!("boot{n}"), false) {
            Ok(d) => d,
            Err(why) => {
                out.tally.fail(why.clone());
                return Err(why);
            }
        };
        let mut conn = io("connect", Conn::connect(daemon.addr))?;
        wait_caught_up(&mut conn, corpus.boot_lines as u64, Duration::from_secs(60))?;
        catchup.push(corpus.boot_bytes as f64 / 1e6 / daemon.spawned.elapsed().as_secs_f64());
        ready.push(daemon.ready_s);
        out.tally.ok();
        if n + 1 < plan.boots {
            daemon.proc.kill9();
        } else {
            kept = Some(daemon);
        }
    }
    note("boot ready s", &ready);
    note("catch-up MB/s", &catchup);
    out.set("boot_ready_s", median(&ready), ready.len());
    out.set("catchup_mb_s", median(&catchup), catchup.len());
    kept.ok_or_else(|| "no boot was asked for".to_string())
}

fn check_reply(view: &ServingView, q: &Query, status: u16, body: &[u8]) -> bool {
    status == 200
        && match q.kind {
            QueryKind::Cluster => view.check_point(q.addr, false, body),
            QueryKind::Verdict => view.check_point(q.addr, true, body),
            QueryKind::Top => view.check_top(body),
        }
}

/// One closed-loop client: next request only after the previous reply.
fn closed_loop(
    addr: SocketAddr,
    queries: &[Query],
    offset: usize,
    view: &ServingView,
    run_for: Duration,
) -> Res<LoopLog> {
    let mut conn = io("connect", Conn::connect(addr))?;
    let (mut point, mut top, mut tally) = (Vec::new(), Vec::new(), Tally::default());
    let started = Instant::now();
    let mut i = offset;
    while started.elapsed() < run_for {
        let q = &queries[i % queries.len()];
        i += 1;
        let sent = Instant::now();
        let (status, body) = io("query", conn.round_trip(&q.wire))?;
        let took = sent.elapsed().as_secs_f64();
        if check_reply(view, q, status, body) {
            tally.ok();
            match q.kind {
                QueryKind::Top => top.push(took),
                _ => point.push(took),
            }
        } else {
            tally.fail(format!(
                "{:?} {} answered {status}: {}",
                q.kind,
                Ipv4Addr::from(q.addr),
                String::from_utf8_lossy(&body[..body.len().min(200)])
            ));
        }
    }
    Ok(LoopLog { point, top, tally })
}

/// `quiet`: the read path alone, in `plan.quiet_slices` rounds of (one) a
/// single keep-alive connection, then (all) one connection per load
/// thread. Every slice opens fresh connections, so where the scheduler
/// happens to put one worker thread colours one slice, not the run; each
/// figure is the median over slices.
fn quiet(env: &Env, oracle: &Oracle, daemon: &Daemon, out: &mut Measured) -> Res<()> {
    let (corpus, plan) = (env.corpus, env.plan);
    let view = ServingView::new(oracle);
    let slices = plan.quiet_slices;
    let one = Duration::from_secs_f64(plan.quiet_one_s / slices as f64);
    let all = Duration::from_secs_f64(plan.quiet_all_s / slices as f64);
    let addr = daemon.addr;
    let pid = daemon.proc.pid();
    let (mut p50, mut p99, mut top, mut qps, mut cpu_us) = (vec![], vec![], vec![], vec![], vec![]);
    let mut points = 0;
    for n in 0..slices {
        let mut alone = closed_loop(addr, &corpus.queries, n * 104_729, &view, one)?;
        out.tally.absorb(alone.tally);
        alone.point.sort_by(f64::total_cmp);
        points += alone.point.len();
        p50.push(percentile_sorted(&alone.point, 50.0) * 1e6);
        p99.push(percentile_sorted(&alone.point, 99.0) * 1e6);
        top.extend(alone.top);

        let cpu_before = procs::cpu_seconds(pid).ok_or("daemon /proc stat unreadable")?;
        let started = Instant::now();
        let results: Vec<Res<LoopLog>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..env.load_threads)
                .map(|t| {
                    let (queries, view) = (&corpus.queries, &view);
                    let offset = (n * env.load_threads + t) * 7_919;
                    s.spawn(move || closed_loop(addr, queries, offset, view, all))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err("load thread panicked".to_string()))
                })
                .collect()
        });
        let elapsed = started.elapsed().as_secs_f64();
        let cpu = procs::cpu_seconds(pid).ok_or("daemon /proc stat unreadable")? - cpu_before;
        let mut done = 0usize;
        for r in results {
            let log = r?;
            done += log.point.len() + log.top.len();
            out.tally.absorb(log.tally);
        }
        qps.push(done as f64 / elapsed);
        cpu_us.push(cpu * 1e6 / done.max(1) as f64);
    }
    note("query p50 us by slice", &p50);
    note("query p99 us by slice", &p99);
    note("qps by slice", &qps);
    note("daemon cpu us/request by slice", &cpu_us);
    out.set("query_p50_us", median(&p50), points);
    out.set("query_p99_us", median(&p99), points);
    summarize_latency(out, "top_p50_ms", None, &mut top, 1e3);
    out.set("query_qps", median(&qps), qps.len());
    out.set("query_cpu_us", median(&cpu_us), cpu_us.len());
    // Resident set of a daemon that has caught up and served, before any
    // reload has made it hold two tables.
    let rss = procs::peak_rss_mb(pid).ok_or("daemon /proc status unreadable")?;
    out.set("daemon_rss_mb", rss, 1);
    Ok(())
}

/// What the open-loop reader saw.
struct ReaderLog {
    point_s: Vec<f64>,
    schedule: Schedule,
    totals: Vec<Watermark>,
    versions: Vec<Watermark>,
    answers: Vec<VersionedAnswer>,
    tally: Tally,
}

/// Thread A of `churn`: an open loop at [`CHURN_QUERY_RATE`] on one
/// connection — four point lookups, then one `/healthz` as the watermark
/// of applied lines and table version. A request is timed from when it
/// was due, so a stall is charged to every request it delays.
fn open_loop_reader(
    addr: SocketAddr,
    points: &[&Query],
    t0: Instant,
    run_for: Duration,
    base_version: u64,
) -> Res<ReaderLog> {
    let mut conn = io("connect", Conn::connect(addr))?;
    io("nonblocking", conn.set_nonblocking(true))?;
    let healthz = get("/healthz");
    let total = (run_for.as_secs_f64() * CHURN_QUERY_RATE) as u64;
    let mut log = ReaderLog {
        point_s: Vec::with_capacity(total as usize),
        schedule: Schedule::new(CHURN_QUERY_RATE),
        totals: Vec::new(),
        versions: Vec::new(),
        answers: Vec::new(),
        tally: Tally::default(),
    };
    // In flight, oldest first: (request index, version known when sent).
    let mut inflight: VecDeque<(u64, u64)> = VecDeque::new();
    // Sampled answers still waiting for the watermark after their reply.
    let mut open_from = 0usize;
    let mut known_version = base_version;
    let mut next = 0u64;
    let give_up = t0 + run_for + Duration::from_secs(10);
    while next < total || !inflight.is_empty() {
        let now = t0.elapsed().as_secs_f64();
        while next < total && log.schedule.due_s(next) <= now {
            let wire = if next % 5 == 4 {
                &healthz
            } else {
                &points[(next as usize) % points.len()].wire
            };
            match conn.send(wire) {
                Ok(()) => {}
                // The socket buffer is full only if the daemon has not
                // read for a very long time; the request is lost.
                Err(e) => return Err(format!("open-loop send: {e}")),
            }
            log.schedule.sent(next, t0.elapsed().as_secs_f64());
            inflight.push_back((next, known_version));
            next += 1;
        }
        while let Some((status, body)) = io("open-loop read", conn.try_recv())? {
            let at = t0.elapsed().as_secs_f64();
            let (i, version_lo) = inflight.pop_front().ok_or("reply without a request")?;
            if status != 200 {
                log.tally
                    .fail(format!("churn request {i} answered {status}"));
                continue;
            }
            if i % 5 == 4 {
                match (
                    field_u64(body, "total_requests"),
                    field_u64(body, "table_version"),
                ) {
                    (Some(t), Some(v)) => {
                        log.totals.push(Watermark { at_s: at, value: t });
                        log.versions.push(Watermark { at_s: at, value: v });
                        known_version = v;
                        for a in &mut log.answers[open_from..] {
                            a.version_hi = v;
                        }
                        open_from = log.answers.len();
                        log.tally.ok();
                    }
                    _ => log
                        .tally
                        .fail(format!("churn /healthz {i} carries no counters")),
                }
            } else {
                log.point_s.push(at - log.schedule.due_s(i));
                if i % CHURN_SAMPLE_EVERY == 0 {
                    let q = points[(i as usize) % points.len()];
                    log.answers.push(VersionedAnswer {
                        addr: q.addr,
                        cluster: crate::httpc::field_opt_str(body, "cluster")
                            .flatten()
                            .map(|c| String::from_utf8_lossy(c).into_owned()),
                        version_lo,
                        version_hi: u64::MAX,
                    });
                    // Judged against the oracle after the phase.
                } else {
                    log.tally.ok();
                }
            }
        }
        if Instant::now() > give_up {
            for (i, _) in inflight.drain(..) {
                log.tally.fail(format!("churn request {i} never answered"));
            }
            break;
        }
        let wait = if next < total {
            (log.schedule.due_s(next) - t0.elapsed().as_secs_f64()).max(0.0)
        } else {
            0.05
        };
        conn.wait_readable(Duration::from_secs_f64(wait));
    }
    Ok(log)
}

/// `true` when a `POST /v1/reload` reply says the batch was published.
fn reload_accepted(status: u16, body: &[u8]) -> bool {
    status == 200 && body.windows(16).any(|w| w == b"\"accepted\": true")
}

/// What the writer did.
struct WriterLog {
    /// `(when the write returned, lines in the log by then)`.
    appends: Vec<(f64, u64)>,
    /// `(when the POST was written, table version it produces)`.
    posts: Vec<(f64, u64)>,
    late_s: Vec<f64>,
    tally: Tally,
}

/// Thread B of `churn`: on a 5 ms tick appends 50 lines to the log, and
/// every 2 s posts one delta batch on its own connection without waiting
/// for the answer (it is read on later ticks).
fn writer(
    addr: SocketAddr,
    corpus: &Corpus,
    t0: Instant,
    run_for: Duration,
    base_version: u64,
    first_batch: usize,
) -> Res<WriterLog> {
    let mut file = io(
        "open log for append",
        std::fs::OpenOptions::new()
            .append(true)
            .open(&corpus.log_path),
    )?;
    let mut conn = io("connect", Conn::connect(addr))?;
    io("nonblocking", conn.set_nonblocking(true))?;
    let mut log = WriterLog {
        appends: Vec::new(),
        posts: Vec::new(),
        late_s: Vec::new(),
        tally: Tally::default(),
    };
    let ticks = (run_for.as_secs_f64() / CHURN_TICK.as_secs_f64()) as usize;
    let mut unanswered = 0usize;
    let mut next_reload = RELOAD_EVERY / 2;
    let read_replies = |conn: &mut Conn, unanswered: &mut usize, tally: &mut Tally| -> Res<()> {
        while *unanswered > 0 {
            let Some((status, body)) = io("reload reply", conn.try_recv())? else {
                break;
            };
            *unanswered -= 1;
            tally.check(reload_accepted(status, body), || {
                format!(
                    "reload answered {status}: {}",
                    String::from_utf8_lossy(body)
                )
            });
        }
        Ok(())
    };
    for tick in 0..ticks {
        let due = CHURN_TICK * tick as u32;
        if let Some(wait) = due.checked_sub(t0.elapsed()) {
            std::thread::sleep(wait);
        }
        log.late_s.push((t0.elapsed() - due).as_secs_f64());
        let from = tick * CHURN_LINES_PER_TICK;
        io(
            "append",
            file.write_all(corpus.churn.slice(from, from + CHURN_LINES_PER_TICK)),
        )?;
        log.appends.push((
            t0.elapsed().as_secs_f64(),
            (corpus.boot_lines + from + CHURN_LINES_PER_TICK) as u64,
        ));
        if t0.elapsed() >= next_reload {
            next_reload += RELOAD_EVERY;
            let n = log.posts.len();
            let wire = post("/v1/reload", &delta_body(&corpus.batches[first_batch + n]));
            io("post reload", conn.send(&wire))?;
            log.posts
                .push((t0.elapsed().as_secs_f64(), base_version + n as u64 + 1));
            unanswered += 1;
        }
        read_replies(&mut conn, &mut unanswered, &mut log.tally)?;
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while unanswered > 0 && Instant::now() < deadline {
        conn.wait_readable(Duration::from_millis(50));
        read_replies(&mut conn, &mut unanswered, &mut log.tally)?;
    }
    for _ in 0..unanswered {
        log.tally.fail("reload never answered");
    }
    Ok(log)
}

/// `churn`: the same read path with writers beside it. Returns how many
/// lines were appended and batches applied.
fn churn(
    env: &Env,
    oracle: &mut Oracle,
    daemon: &Daemon,
    out: &mut Measured,
) -> Res<(usize, usize)> {
    let (corpus, plan) = (env.corpus, env.plan);
    // Closed again at once: the load is at most one connection per thread.
    let base = health(&mut io("connect", Conn::connect(daemon.addr))?)?;
    let points: Vec<&Query> = corpus
        .queries
        .iter()
        .filter(|q| q.kind == QueryKind::Cluster)
        .collect();
    let run_for = Duration::from_secs_f64(plan.churn_s);
    // The writer stops half a second early so every append can still be
    // seen by a watermark.
    let write_for = run_for.saturating_sub(Duration::from_millis(500));
    let t0 = Instant::now();
    let (reader, written) = std::thread::scope(|s| {
        let a = s.spawn(|| open_loop_reader(daemon.addr, &points, t0, run_for, base.version));
        let b = s.spawn(|| writer(daemon.addr, corpus, t0, write_for, base.version, 0));
        (
            a.join()
                .unwrap_or_else(|_| Err("reader thread panicked".to_string())),
            b.join()
                .unwrap_or_else(|_| Err("writer thread panicked".to_string())),
        )
    });
    let (mut reader, written) = (reader?, written?);
    let appended = written.appends.len() * CHURN_LINES_PER_TICK;
    let applied = written.posts.len();

    let mut probe = io("connect", Conn::connect(daemon.addr))?;
    let fin = wait_caught_up(
        &mut probe,
        (corpus.boot_lines + appended) as u64,
        Duration::from_secs(30),
    )?;
    out.tally
        .check(fin.version == base.version + applied as u64, || {
            format!(
                "table version {} after {applied} batches on {}",
                fin.version, base.version
            )
        });
    for a in &mut reader.answers {
        a.version_hi = a.version_hi.min(fin.version);
    }
    let wrong = count_wrong_under_churn(
        oracle,
        base.version,
        &corpus.batches[..applied],
        &reader.answers,
    );
    out.tally.add(
        reader.answers.len(),
        wrong,
        "point answer under churn matches no table version in its bracket",
    );
    oracle.count(&corpus.reqs[corpus.boot_lines..corpus.boot_lines + appended]);

    let (mut fresh, unseen) = match_watermarks(&written.appends, &reader.totals);
    let (mut reload, unapplied) = match_watermarks(&written.posts, &reader.versions);
    out.tally.add(
        written.appends.len(),
        unseen,
        "append never covered by a /healthz watermark",
    );
    out.tally.add(
        written.posts.len(),
        unapplied,
        "batch never covered by a /healthz watermark",
    );
    out.tally.absorb(reader.tally);
    out.tally.absorb(written.tally);
    summarize_latency(
        out,
        "churn_query_p50_us",
        Some("churn_query_p99_us"),
        &mut reader.point_s,
        1e6,
    );
    summarize_latency(out, "fresh_p50_ms", Some("fresh_p99_ms"), &mut fresh, 1e3);
    note("reload visible s", &reload);
    summarize_latency(out, "reload_p50_ms", None, &mut reload, 1e3);
    let mut gen_late = reader.schedule.late_s;
    let mut writer_late = written.late_s;
    gen_late.sort_by(f64::total_cmp);
    writer_late.sort_by(f64::total_cmp);
    out.set(
        "gen_late_p99_us",
        percentile_sorted(&gen_late, 99.0) * 1e6,
        gen_late.len(),
    );
    out.set(
        "writer_late_p99_us",
        percentile_sorted(&writer_late, 99.0) * 1e6,
        writer_late.len(),
    );
    Ok((appended, applied))
}

/// Copies a flat directory; returns the bytes copied.
fn copy_dir(from: &Path, to: &Path) -> std::io::Result<u64> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to)?;
    let mut bytes = 0;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        bytes += std::fs::copy(entry.path(), to.join(entry.file_name()))?;
    }
    Ok(bytes)
}

/// `crash`: wait for the idle checkpoint, post batches that are journaled
/// but not snapshotted, `kill -9`, let the log grow, save the state dir.
/// Returns the saved dir, the lines now in the log and an address whose
/// cluster proves the journal was replayed.
fn crash(
    env: &Env,
    oracle: &mut Oracle,
    daemon: Daemon,
    (appended, applied): (usize, usize),
    out: &mut Measured,
) -> Res<Crashed> {
    let (corpus, plan) = (env.corpus, env.plan);
    let mut conn = io("connect", Conn::connect(daemon.addr))?;
    wait_idle_checkpoint(&mut conn)?;
    let mut witness = None;
    for batch in &corpus.batches[applied..applied + plan.journaled_batches] {
        let (status, body) = io(
            "post reload",
            conn.round_trip(&post("/v1/reload", &delta_body(batch))),
        )?;
        out.tally.check(reload_accepted(status, body), || {
            format!("journaled reload answered {status}")
        });
        oracle.apply(batch);
        witness = witness_of(oracle, batch).or(witness);
    }
    // A later batch may have withdrawn an earlier witness; keep one that
    // still holds, else fall back to a busy client.
    let probe = witness
        .filter(|&(addr, net)| oracle.lpm(addr) == Some(net))
        .map_or(corpus.queries[1].addr, |(addr, _)| addr);
    // Peak over the daemon's whole life: reloads hold a second table.
    let rss = procs::peak_rss_mb(daemon.proc.pid()).ok_or("daemon /proc status unreadable")?;
    out.set("daemon_peak_rss_mb", rss, 1);
    daemon.proc.kill9();

    // The web server kept logging while the daemon was down.
    let mut file = io(
        "open log",
        std::fs::OpenOptions::new()
            .append(true)
            .open(&corpus.log_path),
    )?;
    io("append tail", file.write_all(&corpus.tail.bytes))?;
    let tail_from = corpus.boot_lines + corpus.churn.count();
    oracle.count(&corpus.reqs[tail_from..]);
    let saved = env.work.join("state.saved");
    let bytes = io("save state dir", copy_dir(&env.work.join("state"), &saved))?;
    out.set("state_dir_mb", bytes as f64 / 1e6, 1);
    Ok(Crashed {
        saved,
        lines: (corpus.boot_lines + appended + corpus.tail.count()) as u64,
        probe,
    })
}

/// `recover`: restore the saved state dir, `netclustd --resume`, time to
/// the first oracle-correct answer and to the log tail fully applied;
/// `SIGTERM` must then exit 0.
fn recover(env: &Env, oracle: &Oracle, crashed: &Crashed, out: &mut Measured) -> Res<()> {
    let (corpus, plan) = (env.corpus, env.plan);
    let Crashed {
        saved,
        lines,
        probe,
    } = crashed;
    let (lines, probe) = (*lines, *probe);
    let want = oracle.lpm(probe);
    let view = ServingView::new(oracle);
    let wire = get(&format!("/v1/cluster?ip={}", Ipv4Addr::from(probe)));
    let (mut answer, mut caught_up) = (Vec::new(), Vec::new());
    for round in 0..plan.recover_rounds {
        io(
            "restore state dir",
            copy_dir(saved, &env.work.join("state")),
        )?;
        let daemon = match start_daemon(env, &format!("resume{round}"), true) {
            Ok(d) => d,
            Err(why) => {
                out.tally.fail(why);
                continue;
            }
        };
        let mut conn = io("connect", Conn::connect(daemon.addr))?;
        let deadline = Instant::now() + Duration::from_secs(30);
        let answered = loop {
            let (status, body) = io("probe", conn.round_trip(&wire))?;
            if status == 200 && cluster_field_is(body, want) {
                break true;
            }
            if Instant::now() > deadline {
                break false;
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        let answer_s = daemon.spawned.elapsed().as_secs_f64();
        let all_in = answered && wait_caught_up(&mut conn, lines, Duration::from_secs(60)).is_ok();
        let caught_up_s = daemon.spawned.elapsed().as_secs_f64();
        // Once the tail is in, the recovered view must equal the oracle's
        // on counts too, not only on the table.
        let mut right = all_in;
        for q in corpus.queries.iter().take(50) {
            let (status, body) = io("verify", conn.round_trip(&q.wire))?;
            right &= check_reply(&view, q, status, body);
        }
        drop(conn);
        let code = daemon.proc.terminate(Duration::from_secs(30));
        out.tally.check(right && code == Some(0), || {
            format!("recovery round {round}: answered {answered}, caught up {all_in}, view right {right}, exit {code:?}")
        });
        if right {
            answer.push(answer_s);
            caught_up.push(caught_up_s);
        }
    }
    note("recover answer s", &answer);
    note("recover caught up s", &caught_up);
    out.set("recover_answer_s", median(&answer), answer.len());
    out.set("recover_caught_up_s", median(&caught_up), caught_up.len());
    Ok(())
}

/// Runs every phase. `oracle` must hold the table and the boot lines; on
/// return it holds everything the recovered daemon must know.
pub fn run(env: &Env, oracle: &mut Oracle) -> Res<Measured> {
    let mut out = Measured::default();
    batch(env, oracle, &mut out)?;
    let daemon = boot(env, &mut out)?;
    quiet(env, oracle, &daemon, &mut out)?;
    let churned = churn(env, oracle, &daemon, &mut out)?;
    let crashed = crash(env, oracle, daemon, churned, &mut out)?;
    recover(env, oracle, &crashed, &mut out)?;
    Ok(out)
}
