//! [`ServeConfig`]: the daemon half of the configuration pair.
//!
//! [`netclust_core::RunConfig`] owns the knobs every clustering run shares
//! (threads, determinism, error budget, fsync cadence, obs); `ServeConfig`
//! embeds one and adds the daemon-only surface: where to listen, what to
//! tail, how long to go without looking at it, when to checkpoint.
//! Embedders and tests chain the setters; `netclustd` goes through
//! [`ServeConfig::from_args`], which reads [`FLAGS`] and calls the same
//! setters, so a default is written once. The setters clamp a zero count
//! to 1 for embedders; the flags refuse it.

use std::num::{NonZeroU64, NonZeroUsize};
use std::path::PathBuf;
use std::time::Duration;

use netclust_core::{failpoints, FaultPlan, FlagError, RunConfig};

pub use table::FLAGS;

/// The `netclustd` options, one row a line; the first eight shared with
/// `netclust cluster` (DESIGN.md §17).
#[rustfmt::skip]
mod table {
    use netclust_core::{flags, Flag, FlagTable};
    pub use netclust_core::flags::{DETERMINISTIC, DUMP, FSYNC, LOG, RESUME, STATE_DIR, TABLE};

    pub const TOP: Flag = flags::TOP.default("10");
    pub const LISTEN: Flag = Flag::new("--listen", "ADDR", "host:port to bind; port 0 = any").default("127.0.0.1:0");
    pub const PORT_FILE: Flag = Flag::new("--port-file", "FILE", "write the bound address here once listening");
    pub const HTTP_THREADS: Flag = Flag::new("--http-threads", "N", "HTTP worker threads = connections in service").default("4");
    pub const POLL_MS: Flag = Flag::new("--poll-ms", "MS", "longest wait between looks at the log").default("200");
    pub const CHECKPOINT_BYTES: Flag = Flag::new("--checkpoint-bytes", "N", "snapshot a busy log every N applied bytes").default("4194304");
    pub const FAULT: Flag = Flag::new("--fault", "POINT=PROB", "arm a failpoint (tests)").repeatable();
    pub const FAULT_SEED: Flag = Flag::new("--fault-seed", "N", "fault injection seed").default("1");

    /// Every `netclustd` option: what [`super::ServeConfig::from_args`]
    /// parses and `netclustd --help` prints.
    pub const FLAGS: FlagTable = FlagTable {
        usage: "netclustd --table FILE[,FILE..] [options]\n    \
            Tail an access log, keep its clustering current, answer queries\n    \
            over HTTP. At least one of --table / --dump is required.",
        flags: &[TABLE, DUMP, LOG, TOP, STATE_DIR, RESUME, FSYNC, DETERMINISTIC,
                 LISTEN, PORT_FILE, HTTP_THREADS, POLL_MS, CHECKPOINT_BYTES, FAULT, FAULT_SEED],
        constraints: &[],
    };
}

/// Full configuration for one `netclustd` instance. Construct with
/// [`ServeConfig::new`] (defaults suit tests: ephemeral port, no log, no
/// state dir), chain setters, hand to [`crate::Daemon::start`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    pub(crate) listen: String,
    pub(crate) http_threads: usize,
    pub(crate) poll_interval: Duration,
    pub(crate) tables: Vec<PathBuf>,
    pub(crate) dumps: Vec<PathBuf>,
    pub(crate) log: Option<PathBuf>,
    pub(crate) state_dir: Option<PathBuf>,
    pub(crate) resume: bool,
    pub(crate) checkpoint_bytes: u64,
    pub(crate) top_default: usize,
    pub(crate) port_file: Option<PathBuf>,
    pub(crate) run: RunConfig,
    pub(crate) faults: FaultPlan,
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
        }
    }
}

impl ServeConfig {
    /// Defaults: ephemeral loopback port, 4 HTTP threads, 200 ms poll,
    /// 4 MiB checkpoint threshold, top-10 default, no faults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of HTTP worker threads: each accepts and serves one
    /// connection at a time, so also the connections in service.
    pub fn http_threads(mut self, threads: usize) -> Self {
        self.http_threads = threads.max(1);
        self
    }

    /// The longest the log follower goes without looking at the log. A
    /// change notice on the log's directory wakes it sooner, so on Linux
    /// this is the freshness only where notices do not arrive (no inotify
    /// watch could be armed, or a filesystem that sends none). One full
    /// interval without an applied byte is what the checkpointer takes
    /// for a quiet log.
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

    /// Deterministic fault plan over [`failpoints::ALL`]: the accept loop,
    /// the request parser, and the state store's three (armed once the
    /// boot snapshot or recovery is done). Any other point it arms never
    /// fires.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Parses `netclustd` command-line flags against [`FLAGS`]:
    /// [`FlagError::Help`] when `--help` is among them, the usage message
    /// on any unknown, repeated or malformed flag.
    pub fn from_args(args: &[String]) -> Result<ServeConfig, FlagError> {
        use table::*;
        let p = FLAGS.parse(args)?;
        if !p.given(&TABLE) && !p.given(&DUMP) {
            let need = format!("{} or {}", TABLE.name, DUMP.name);
            return Err(FlagError::Usage(format!(
                "{need} is required (the serving table)"
            )));
        }
        let mut faults = FaultPlan::new(p.req(&FAULT_SEED)?);
        for spec in p.each::<String>(&FAULT)? {
            let Some((point, prob)) = spec.split_once('=') else {
                return Err(FAULT.bad(&spec, format_args!("wants {}", FAULT.metavar)));
            };
            if !failpoints::ALL.contains(&point) {
                let seams = failpoints::ALL.join(", ");
                let why = format_args!("no such failpoint (there are {seams})");
                return Err(FAULT.bad(&spec, why));
            }
            let prob: f64 = prob.parse().map_err(|e| FAULT.bad(&spec, e))?;
            if !(0.0..=1.0).contains(&prob) {
                return Err(FAULT.bad(&spec, "wants a probability from 0 to 1"));
            }
            faults = faults.with(point, prob);
        }
        let run = RunConfig::new().deterministic(p.given(&DETERMINISTIC));
        let cfg = ServeConfig {
            listen: p.req(&LISTEN)?,
            tables: p.each(&TABLE)?,
            dumps: p.each(&DUMP)?,
            log: p.opt(&LOG)?,
            state_dir: p.opt(&STATE_DIR)?,
            resume: p.given(&RESUME),
            port_file: p.opt(&PORT_FILE)?,
            run: run.fsync(p.req(&FSYNC)?),
            faults: if p.given(&FAULT) {
                faults
            } else {
                FaultPlan::disabled()
            },
            ..ServeConfig::new()
        };
        Ok(cfg
            .http_threads(p.req::<NonZeroUsize>(&HTTP_THREADS)?.get())
            .poll_interval(Duration::from_millis(p.req::<NonZeroU64>(&POLL_MS)?.get()))
            .checkpoint_bytes(p.req::<NonZeroU64>(&CHECKPOINT_BYTES)?.get())
            .top_default(p.req::<NonZeroUsize>(&TOP)?.get()))
    }
}

#[cfg(test)]
mod tests {
    use super::table::*;
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    /// A value each row accepts; a new row must be added here (the lookup
    /// panics on a row it does not know), and then every test below covers it.
    fn sample(flag: &netclust_core::Flag) -> &'static str {
        let samples = [
            (TABLE, "a.bgp,b.bgp"),
            (DUMP, "c.dump"),
            (LOG, "/var/log/access.log"),
            (TOP, "25"),
            (STATE_DIR, "/tmp/state"),
            (FSYNC, "every_n:3"),
            (LISTEN, "127.0.0.1:8080"),
            (PORT_FILE, "/tmp/port"),
            (HTTP_THREADS, "2"),
            (POLL_MS, "50"),
            (CHECKPOINT_BYTES, "65536"),
            (FAULT, "serve.accept=0.5"),
            (FAULT_SEED, "9"),
        ];
        let known = samples.iter().find(|(row, _)| row.name == flag.name);
        known
            .unwrap_or_else(|| panic!("no sample for {}", flag.name))
            .1
    }

    fn all_flags() -> Vec<String> {
        let mut args = Vec::new();
        for flag in FLAGS.flags {
            args.push(flag.name.to_string());
            if !flag.metavar.is_empty() {
                args.push(sample(flag).to_string());
            }
        }
        args
    }

    #[test]
    fn flags_parse_into_the_typed_config() {
        let cfg = ServeConfig::from_args(&all_flags()).expect("every row at once");
        assert_eq!(cfg.listen, "127.0.0.1:8080");
        assert_eq!(cfg.tables.len(), 2);
        assert_eq!(cfg.dumps.len(), 1);
        assert_eq!(cfg.log, Some(PathBuf::from("/var/log/access.log")));
        assert_eq!(cfg.state_dir, Some(PathBuf::from("/tmp/state")));
        assert_eq!(cfg.port_file, Some(PathBuf::from("/tmp/port")));
        assert!(cfg.resume);
        assert_eq!(cfg.http_threads, 2);
        assert_eq!(cfg.poll_interval, Duration::from_millis(50));
        assert_eq!(cfg.checkpoint_bytes, 65_536);
        assert_eq!(cfg.top_default, 25);
        assert!(cfg.run.is_deterministic());
        assert_eq!(
            cfg.run.fsync_policy(),
            netclust_core::FsyncPolicy::EveryN(3)
        );
        assert_eq!(cfg.faults.probability(failpoints::SERVE_ACCEPT), 0.5);
    }

    #[test]
    fn table_defaults_are_the_struct_defaults_and_setters_clamp() {
        let parsed = ServeConfig::from_args(&argv(&["--table", "t"])).expect("minimal");
        let built = ServeConfig::new().tables(vec![PathBuf::from("t")]);
        assert_eq!(format!("{parsed:?}"), format!("{built:?}"));

        let cfg = ServeConfig::new()
            .http_threads(0)
            .poll_interval(Duration::ZERO)
            .checkpoint_bytes(0)
            .top_default(0);
        assert_eq!(
            (cfg.http_threads, cfg.checkpoint_bytes, cfg.top_default),
            (1, 1, 1)
        );
        assert_eq!(cfg.poll_interval, Duration::from_millis(1));
    }

    /// Every row: named by `--help`, refused without its value, refused
    /// twice unless repeatable — and the refusal names the row.
    #[test]
    fn every_row_is_documented_and_validated() {
        let help = FLAGS.render_help();
        for flag in FLAGS.flags {
            let name = flag.name;
            assert!(help.contains(&format!("  {name}")), "--help lacks {name}");
            let mut twice = all_flags();
            if flag.metavar.is_empty() {
                twice.push(name.to_string());
            } else {
                let err = ServeConfig::from_args(&argv(&["--table", "t", name]));
                let err = err.expect_err(name).to_string();
                assert_eq!(err, format!("{name} needs a value"));
                twice.extend([name.to_string(), sample(flag).to_string()]);
            }
            let again = ServeConfig::from_args(&twice);
            if flag.repeatable {
                again.expect(name);
            } else {
                let err = again.expect_err(name).to_string();
                assert_eq!(err, format!("{name} given more than once"));
            }
        }
    }

    #[test]
    fn fsync_takes_the_grammar_the_help_prints() {
        let grammar = netclust_core::FsyncPolicy::GRAMMAR;
        assert_eq!(grammar, "every_batch | every_n:<N> | os");
        assert!(FLAGS
            .render_help()
            .contains(&format!("{} {grammar}\n", FSYNC.name)));
        for spelling in grammar.replace("<N>", "4").split(" | ") {
            ServeConfig::from_args(&argv(&["--table", "t", FSYNC.name, spelling])).expect(spelling);
        }
        // A hyphen is not the grammar: refused, and told what is.
        let err = ServeConfig::from_args(&argv(&["--table", "t", FSYNC.name, "every-batch"]));
        let err = err.expect_err("not the grammar").to_string();
        assert!(
            err.contains(grammar) && !err.contains("FsyncParseError"),
            "{err}"
        );
    }

    #[test]
    fn unknown_flags_and_failpoints_are_usage_errors() {
        let err = ServeConfig::from_args(&argv(&["--bogus"])).expect_err("unknown");
        assert!(err.to_string().contains("--bogus"), "{err}");
        let help = ServeConfig::from_args(&argv(&["--table", "t", "--help"]));
        assert!(matches!(help, Err(FlagError::Help)), "{help:?}");
        assert!(
            ServeConfig::from_args(&argv(&["--table", "t", "--fault", "serve.accept"])).is_err()
        );
        // Every failpoint is accepted; an unknown one is refused at parse
        // time, naming the ones there are.
        for point in failpoints::ALL.iter().copied().chain(["nope"]) {
            let spec = format!("{point}=0.5");
            let parsed = ServeConfig::from_args(&argv(&["--table", "t", "--fault", &spec]));
            if point != "nope" {
                assert_eq!(parsed.expect(point).faults.probability(point), 0.5);
            } else {
                let err = parsed.expect_err(point).to_string();
                assert!(err.contains(point), "{err}");
                assert!(failpoints::ALL.iter().all(|p| err.contains(p)), "{err}");
            }
        }
        // A probability is a number from 0 to 1: NaN, a negative or
        // anything past 1 is refused, not clamped or left disarmed.
        for prob in ["nan", "NaN", "-1", "-0.1", "1.5", "2", "inf"] {
            let spec = format!("serve.accept={prob}");
            let parsed = ServeConfig::from_args(&argv(&["--table", "t", "--fault", &spec]));
            let err = parsed.expect_err(&spec).to_string();
            assert!(err.starts_with("--fault"), "{err}");
        }
        // Counts are at least 1, as `netclust --threads` is.
        for flag in ["--http-threads", "--poll-ms", "--checkpoint-bytes", "--top"] {
            let parsed = ServeConfig::from_args(&argv(&["--table", "t", flag, "0"]));
            let err = parsed.expect_err(flag).to_string();
            assert!(err.starts_with(flag), "{err}");
        }
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

    /// README *Serving* quotes `netclustd --help`; this keeps it the output.
    #[test]
    fn readme_serving_block_is_the_generated_help() {
        let readme = include_str!("../../../README.md");
        assert!(
            readme.contains(&format!("```text\n{}```", FLAGS.render_help())),
            "README.md Serving: paste the output of `netclustd --help`"
        );
    }
}
