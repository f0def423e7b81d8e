//! [`ServeConfig`]: the daemon half of the configuration pair.
//!
//! [`netclust_core::RunConfig`] owns the knobs every clustering run shares
//! (threads, determinism, error budget, swap policy, fsync cadence, obs);
//! `ServeConfig` embeds one and adds the daemon-only surface: where to
//! listen, what to tail, how often to poll, when to checkpoint. The
//! `netclustd` flag parser produces exactly this struct —
//! [`ServeConfig::from_args`] — so tests and embedders configure the
//! daemon through the same typed path the CLI does, not a parallel set of
//! setters.

use std::path::PathBuf;
use std::time::Duration;

use netclust_core::{failpoints, FaultPlan, RunConfig, VerdictPolicy};

/// Full configuration for one `netclustd` instance. Construct with
/// [`ServeConfig::new`] (defaults suit tests: ephemeral port, no log, no
/// state dir), chain setters, hand to [`crate::Daemon::start`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    listen: String,
    http_threads: usize,
    poll_interval: Duration,
    tables: Vec<PathBuf>,
    dumps: Vec<PathBuf>,
    log: Option<PathBuf>,
    state_dir: Option<PathBuf>,
    resume: bool,
    checkpoint_bytes: u64,
    top_default: usize,
    port_file: Option<PathBuf>,
    run: RunConfig,
    faults: FaultPlan,
    verdict: VerdictPolicy,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            listen: "127.0.0.1:0".to_string(),
            http_threads: 4,
            poll_interval: Duration::from_millis(200),
            tables: Vec::new(),
            dumps: Vec::new(),
            log: None,
            state_dir: None,
            resume: false,
            checkpoint_bytes: 4 << 20,
            top_default: 10,
            port_file: None,
            run: RunConfig::new(),
            faults: FaultPlan::disabled(),
            verdict: VerdictPolicy::default(),
        }
    }
}

impl ServeConfig {
    /// Defaults: ephemeral loopback port, 4 HTTP threads, 200 ms poll,
    /// 4 MiB checkpoint threshold, top-10 default, no faults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Listen address (`host:port`; port `0` binds an ephemeral port).
    pub fn listen(mut self, addr: impl Into<String>) -> Self {
        self.listen = addr.into();
        self
    }

    /// Size of the HTTP worker pool.
    pub fn http_threads(mut self, threads: usize) -> Self {
        self.http_threads = threads.max(1);
        self
    }

    /// How often the log follower polls for new bytes. This is the
    /// freshness of the served view (no snapshot is written between a log
    /// line and its visibility), and one full interval without bytes is
    /// what the checkpointer takes for a quiet log.
    pub fn poll_interval(mut self, interval: Duration) -> Self {
        self.poll_interval = interval.max(Duration::from_millis(1));
        self
    }

    /// BGP table files (the `--table` tier).
    pub fn tables(mut self, paths: Vec<PathBuf>) -> Self {
        self.tables = paths;
        self
    }

    /// Network-dump table files (the `--dump` tier).
    pub fn dumps(mut self, paths: Vec<PathBuf>) -> Self {
        self.dumps = paths;
        self
    }

    /// Access log to tail (optional: a daemon can serve a pure
    /// reload-driven table with no log).
    pub fn log(mut self, path: impl Into<PathBuf>) -> Self {
        self.log = Some(path.into());
        self
    }

    /// Directory for crash-safe persistence (snapshots + journal).
    pub fn state_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.state_dir = Some(dir.into());
        self
    }

    /// Recover from an existing state dir instead of starting fresh.
    pub fn resume(mut self, on: bool) -> Self {
        self.resume = on;
        self
    }

    /// Applied-but-unsnapshotted log bytes at which the checkpointer
    /// snapshots even though the log is busy: the most log a `--resume`
    /// re-reads (plus what arrives while one snapshot is written).
    pub fn checkpoint_bytes(mut self, bytes: u64) -> Self {
        self.checkpoint_bytes = bytes.max(1);
        self
    }

    /// Default `n` for `/v1/clusters/top` when the query omits it.
    pub fn top_default(mut self, n: usize) -> Self {
        self.top_default = n.max(1);
        self
    }

    /// File to write the bound address to once listening (how scripts
    /// find an ephemeral port).
    pub fn port_file(mut self, path: impl Into<PathBuf>) -> Self {
        self.port_file = Some(path.into());
        self
    }

    /// The shared run knobs (threads, determinism, swap policy, fsync,
    /// obs).
    pub fn run(mut self, run: RunConfig) -> Self {
        self.run = run;
        self
    }

    /// Deterministic fault plan (arming [`failpoints::SERVE_ACCEPT`] /
    /// [`failpoints::SERVE_REQUEST_PARSE`] and friends).
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Thresholds for `/v1/verdict`.
    pub fn verdict(mut self, policy: VerdictPolicy) -> Self {
        self.verdict = policy;
        self
    }

    /// The listen address.
    pub fn listen_addr(&self) -> &str {
        &self.listen
    }

    /// The HTTP worker-pool size.
    pub fn http_threads_n(&self) -> usize {
        self.http_threads
    }

    /// The follower poll interval.
    pub fn poll_interval_d(&self) -> Duration {
        self.poll_interval
    }

    /// The BGP table files.
    pub fn table_paths(&self) -> &[PathBuf] {
        &self.tables
    }

    /// The network-dump table files.
    pub fn dump_paths(&self) -> &[PathBuf] {
        &self.dumps
    }

    /// The tailed log, if any.
    pub fn log_path(&self) -> Option<&PathBuf> {
        self.log.as_ref()
    }

    /// The persistence directory, if any.
    pub fn state_dir_path(&self) -> Option<&PathBuf> {
        self.state_dir.as_ref()
    }

    /// Whether to recover from the state dir.
    pub fn is_resume(&self) -> bool {
        self.resume
    }

    /// The checkpoint byte threshold.
    pub fn checkpoint_bytes_n(&self) -> u64 {
        self.checkpoint_bytes
    }

    /// The default top-N size.
    pub fn top_default_n(&self) -> usize {
        self.top_default
    }

    /// The port file, if any.
    pub fn port_file_path(&self) -> Option<&PathBuf> {
        self.port_file.as_ref()
    }

    /// The shared run knobs.
    pub fn run_config(&self) -> &RunConfig {
        &self.run
    }

    /// The fault plan.
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.faults
    }

    /// The verdict thresholds.
    pub fn verdict_policy(&self) -> VerdictPolicy {
        self.verdict
    }

    /// Parses `netclustd` command-line flags. Returns a usage message on
    /// any unknown or malformed flag.
    // analyze:allow(typed-errors) flag-parse failures are usage text printed verbatim to stderr; no caller matches on them.
    pub fn from_args(args: &[String]) -> Result<ServeConfig, String> {
        let mut cfg = ServeConfig::new();
        let mut run = RunConfig::new();
        let mut fault_seed = 1u64;
        let mut fault_points: Vec<(String, f64)> = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = |name: &str| -> Result<&String, String> {
                it.next().ok_or_else(|| format!("{name} needs a value"))
            };
            match flag.as_str() {
                "--listen" => cfg.listen = value("--listen")?.clone(),
                "--table" => {
                    cfg.tables.extend(split_paths(value("--table")?));
                }
                "--dump" => {
                    cfg.dumps.extend(split_paths(value("--dump")?));
                }
                "--log" => cfg.log = Some(PathBuf::from(value("--log")?)),
                "--state-dir" => cfg.state_dir = Some(PathBuf::from(value("--state-dir")?)),
                "--resume" => cfg.resume = true,
                "--http-threads" => {
                    cfg.http_threads = parse_num(value("--http-threads")?, "--http-threads")?;
                    cfg.http_threads = cfg.http_threads.max(1);
                }
                "--poll-ms" => {
                    let ms: u64 = parse_num(value("--poll-ms")?, "--poll-ms")?;
                    cfg.poll_interval = Duration::from_millis(ms.max(1));
                }
                "--checkpoint-bytes" => {
                    cfg.checkpoint_bytes =
                        parse_num::<u64>(value("--checkpoint-bytes")?, "--checkpoint-bytes")?
                            .max(1);
                }
                "--top" => {
                    cfg.top_default = parse_num::<usize>(value("--top")?, "--top")?.max(1);
                }
                "--port-file" => cfg.port_file = Some(PathBuf::from(value("--port-file")?)),
                "--deterministic" => run = run.deterministic(true),
                "--fsync" => {
                    let policy = value("--fsync")?
                        .parse()
                        .map_err(|e| format!("--fsync: {e:?}"))?;
                    run = run.fsync(policy);
                }
                "--fault-seed" => {
                    fault_seed = parse_num(value("--fault-seed")?, "--fault-seed")?;
                }
                "--fault" => {
                    let spec = value("--fault")?;
                    let (point, prob) = spec
                        .split_once('=')
                        .ok_or_else(|| format!("--fault wants POINT=PROB, got {spec:?}"))?;
                    if !failpoints::all().contains(&point) {
                        return Err(format!(
                            "--fault: unknown failpoint {point:?} (known: {})",
                            failpoints::all().join(", ")
                        ));
                    }
                    let prob: f64 = parse_num(prob, "--fault PROB")?;
                    fault_points.push((point.to_string(), prob));
                }
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        if cfg.tables.is_empty() && cfg.dumps.is_empty() {
            return Err("--table or --dump is required (the serving table)".to_string());
        }
        if !fault_points.is_empty() {
            let mut plan = FaultPlan::new(fault_seed);
            for (point, prob) in fault_points {
                plan = plan.with(&point, prob);
            }
            cfg.faults = plan;
        }
        cfg.run = run;
        Ok(cfg)
    }
}

fn split_paths(list: &str) -> Vec<PathBuf> {
    list.split(',')
        .filter(|s| !s.is_empty())
        .map(PathBuf::from)
        .collect()
}

fn parse_num<T: std::str::FromStr>(s: &str, flag: &str) -> Result<T, String> {
    s.parse()
        .map_err(|_| format!("{flag}: unparsable value {s:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flags_parse_into_the_typed_config() {
        let cfg = ServeConfig::from_args(&argv(&[
            "--listen",
            "127.0.0.1:8080",
            "--table",
            "a.bgp,b.bgp",
            "--dump",
            "c.dump",
            "--log",
            "/var/log/access.log",
            "--state-dir",
            "/tmp/state",
            "--resume",
            "--http-threads",
            "2",
            "--poll-ms",
            "50",
            "--top",
            "25",
            "--deterministic",
            "--fault",
            "serve.accept=0.5",
            "--fault-seed",
            "9",
        ]))
        .expect("valid flags");
        assert_eq!(cfg.listen_addr(), "127.0.0.1:8080");
        assert_eq!(cfg.table_paths().len(), 2);
        assert_eq!(cfg.dump_paths().len(), 1);
        assert!(cfg.is_resume());
        assert_eq!(cfg.http_threads_n(), 2);
        assert_eq!(cfg.poll_interval_d(), Duration::from_millis(50));
        assert_eq!(cfg.top_default_n(), 25);
        assert!(cfg.run_config().is_deterministic());
        assert!(cfg.fault_plan().is_armed(failpoints::SERVE_ACCEPT));
    }

    #[test]
    fn unknown_flags_and_failpoints_are_usage_errors() {
        assert!(ServeConfig::from_args(&argv(&["--bogus"])).is_err());
        assert!(ServeConfig::from_args(&argv(&["--table", "t", "--fault", "nope=1"])).is_err());
        // Batch-ingest knobs belong to `netclust cluster`; the follower is
        // single-threaded and has no error budget to enforce.
        assert!(ServeConfig::from_args(&argv(&["--table", "t", "--threads", "3"])).is_err());
        assert!(
            ServeConfig::from_args(&argv(&["--table", "t", "--max-error-rate", "0.1"])).is_err()
        );
        assert!(
            ServeConfig::from_args(&argv(&[])).is_err(),
            "a serving table is mandatory"
        );
    }
}
