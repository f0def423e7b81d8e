//! Shared run configuration and the one flag parser: [`RunConfig`] is the
//! typed struct both `netclust` and the `netclustd` daemon set their
//! execution knobs on, and it *constructs* the correctly-wired
//! [`IngestPipeline`] and [`StreamingClustering`], so a knob added here
//! reaches every consumer at once. [`FlagTable`] is how either binary gets
//! from `argv` to those setters: each option is declared once as a
//! [`Flag`] row (the rows both binaries take live in [`flags`]), and
//! parsing, validation, `--help` and the README option blocks all come from
//! that declaration.

use std::fmt;
use std::str::FromStr;

use crate::cluster::Assigner;
use crate::ingest::{ErrorRate, IngestPipeline};
use crate::persist::FsyncPolicy;
use crate::stream::StreamingClustering;
use netclust_obs::Obs;
use netclust_rtable::{CompiledTable, MergedTable};

/// The execution knobs shared by every clustering run — batch or
/// streaming, one-shot or daemon. Construct with [`RunConfig::new`], set
/// what differs from the defaults, then mint pipelines and streaming
/// views from it.
#[derive(Debug, Clone, Default)]
pub struct RunConfig {
    threads: Option<usize>,
    deterministic: bool,
    max_error_rate: Option<ErrorRate>,
    fsync: FsyncPolicy,
    obs: Obs,
}

impl RunConfig {
    /// The defaults: auto thread count, non-deterministic, no error
    /// budget, fsync every batch, observability off.
    pub fn new() -> Self {
        Self::default()
    }

    /// Caps ingest worker threads (`None`/unset = one per core).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// Keeps clock-derived fields out of every output, so runs compare
    /// byte for byte (reports never depend on the thread schedule).
    pub fn deterministic(mut self, on: bool) -> Self {
        self.deterministic = on;
        self
    }

    /// Aborts ingest when the malformed-line ratio exceeds `budget`.
    pub fn max_error_rate(mut self, budget: ErrorRate) -> Self {
        self.max_error_rate = Some(budget);
        self
    }

    /// Durability cadence for the write-ahead journal.
    pub fn fsync(mut self, policy: FsyncPolicy) -> Self {
        self.fsync = policy;
        self
    }

    /// Observability handle every constructed component reports into.
    pub fn obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Whether deterministic output is forced.
    pub fn is_deterministic(&self) -> bool {
        self.deterministic
    }

    /// The journal durability cadence.
    pub fn fsync_policy(&self) -> FsyncPolicy {
        self.fsync
    }

    /// The observability handle.
    pub fn obs_handle(&self) -> &Obs {
        &self.obs
    }

    /// [`pipeline_by`](Self::pipeline_by) the network-aware method over `table`.
    pub fn pipeline<'t>(&self, table: &'t CompiledTable) -> IngestPipeline<'t> {
        self.pipeline_by(Assigner::NetworkAware(table))
    }

    /// Builds a batch ingest pipeline clustering by `how` with every knob
    /// applied. Callers may still chain pipeline-specific settings
    /// (chunk size, fault plans) on the result.
    pub fn pipeline_by<'t>(&self, how: Assigner<'t>) -> IngestPipeline<'t> {
        let mut p = IngestPipeline::by(how).obs(self.obs.clone());
        if let Some(threads) = self.threads {
            p = p.threads(threads);
        }
        if let Some(budget) = self.max_error_rate {
            p = p.max_error_rate(budget);
        }
        p
    }

    /// Builds a streaming clustering view over `table` with observability
    /// applied.
    pub fn streaming(&self, table: MergedTable) -> StreamingClustering {
        StreamingClustering::builder(table)
            .obs(self.obs.clone())
            .build()
    }
}

/// One command-line option, declared once: parsing, validation, `--help`
/// and the README option blocks are all read off this row.
#[derive(Debug, Clone, Copy)]
pub struct Flag {
    /// The spelling, e.g. `--top`.
    pub name: &'static str,
    /// Placeholder for the value in `--help`; empty for a switch.
    pub metavar: &'static str,
    /// Value used (and shown) when the flag is absent; empty for none.
    pub default: &'static str,
    /// Whether the flag may be given more than once.
    pub repeatable: bool,
    /// The `--help` line.
    pub help: &'static str,
}

impl Flag {
    /// A flag whose value `--help` shows as `metavar`; a switch when that is `""`.
    pub const fn new(name: &'static str, metavar: &'static str, help: &'static str) -> Flag {
        Flag {
            name,
            metavar,
            default: "",
            repeatable: false,
            help,
        }
    }

    /// The same row with a value to use (and show) when the flag is absent.
    pub const fn default(mut self, text: &'static str) -> Flag {
        self.default = text;
        self
    }

    /// The same row, allowed more than once.
    pub const fn repeatable(mut self) -> Flag {
        self.repeatable = true;
        self
    }

    /// The error for a `value` this flag cannot take.
    pub fn bad(&self, value: &str, why: impl fmt::Display) -> FlagError {
        FlagError::Usage(format!("{} got {value:?}: {why}", self.name))
    }

    fn usage(&self) -> String {
        format!("{} {}", self.name, self.metavar).trim_end().into()
    }
}

/// A rule across the rows of one [`FlagTable`], checked by
/// [`FlagTable::parse`]; its `Display` is the rule as `--help` prints it.
#[derive(Debug)]
pub enum Constraint {
    /// The first flags mean nothing unless the second is given too.
    Requires(&'static [Flag], Flag),
    /// The first flags apply only while the second has the given value.
    OnlyWith(&'static [Flag], Flag, &'static str),
}

impl fmt::Display for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (Constraint::Requires(flags, on) | Constraint::OnlyWith(flags, on, _)) = self;
        let names: Vec<&str> = flags.iter().map(|flag| flag.name).collect();
        let (names, one, on) = (names.join("/"), names.len() == 1, on.name);
        match self {
            Constraint::Requires(..) if one => write!(f, "{names} requires {on}"),
            Constraint::Requires(..) => write!(f, "{names} require {on}"),
            Constraint::OnlyWith(.., v) if one => write!(f, "{names} only applies to {on} {v}"),
            Constraint::OnlyWith(.., v) => write!(f, "{names} only apply to {on} {v}"),
        }
    }
}

/// Why an argument list was refused.
#[derive(Debug)]
pub enum FlagError {
    /// `--help` or `-h` was given: print [`FlagTable::render_help`], exit 0.
    Help,
    /// Anything else, as the message to print; it names the flag at fault.
    Usage(String),
}

impl fmt::Display for FlagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlagError::Help => f.write_str("help requested"),
            FlagError::Usage(message) => f.write_str(message),
        }
    }
}

impl std::error::Error for FlagError {}

/// Every option of one command: what [`parse`](Self::parse) accepts and
/// [`render_help`](Self::render_help) prints.
#[derive(Debug)]
pub struct FlagTable {
    /// The synopsis line, then what the command does.
    pub usage: &'static str,
    /// The option rows, in `--help` order.
    pub flags: &'static [Flag],
    /// Rules across rows.
    pub constraints: &'static [Constraint],
}

impl FlagTable {
    /// Matches `args` against the rows: every argument must be a row's
    /// name (followed by its value unless the row is a switch), only
    /// repeatable rows may recur, and every constraint must hold.
    pub fn parse<'a>(&self, args: &'a [String]) -> Result<Parsed<'a>, FlagError> {
        let mut given: Vec<(&'static str, &'a str)> = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if arg == "--help" || arg == "-h" {
                return Err(FlagError::Help);
            }
            let Some(flag) = self.flags.iter().find(|flag| flag.name == arg) else {
                return Err(FlagError::Usage(format!("unknown flag {arg:?}")));
            };
            let name = flag.name;
            if !flag.repeatable && given.iter().any(|(seen, _)| *seen == name) {
                return Err(FlagError::Usage(format!("{name} given more than once")));
            }
            let value = if flag.metavar.is_empty() {
                ""
            } else {
                match it.next() {
                    Some(value) if !value.starts_with("--") => value,
                    _ => return Err(FlagError::Usage(format!("{name} needs a value"))),
                }
            };
            given.push((name, value));
        }
        let parsed = Parsed { given };
        for rule in self.constraints {
            let (flags, holds, found) = match rule {
                Constraint::Requires(flags, needs) => (flags, parsed.given(needs), String::new()),
                Constraint::OnlyWith(flags, selector, value) => {
                    let found = parsed.get(selector).unwrap_or_default();
                    (flags, found == *value, format!(", not {found:?}"))
                }
            };
            if !holds && flags.iter().any(|flag| parsed.given(flag)) {
                return Err(FlagError::Usage(format!("{rule}{found}")));
            }
        }
        Ok(parsed)
    }

    /// The `--help` text: usage, one line per row with its default, then
    /// the constraints.
    pub fn render_help(&self) -> String {
        let mut out = format!("{}\n", self.usage);
        if !self.flags.is_empty() {
            out += "\noptions:\n";
        }
        for flag in self.flags {
            // Help starts in column 26, a line down when the left side would touch it.
            let left = format!("  {}", flag.usage());
            if left.len() < 25 {
                out += &format!("{left:26}{}", flag.help);
            } else {
                out += &format!("{left}\n{:26}{}", "", flag.help);
            }
            if !flag.default.is_empty() {
                out += &format!(" (default {})", flag.default);
            }
            out += if flag.repeatable {
                " (repeatable)\n"
            } else {
                "\n"
            };
        }
        if !self.constraints.is_empty() {
            out += "\nconstraints:\n";
        }
        for rule in self.constraints {
            out += &format!("  {rule}\n");
        }
        out
    }
}

/// What [`FlagTable::parse`] found, read back through the same [`Flag`]
/// rows that declared it.
#[derive(Debug)]
pub struct Parsed<'a> {
    given: Vec<(&'static str, &'a str)>,
}

impl<'a> Parsed<'a> {
    fn values<'s>(&'s self, flag: &'s Flag) -> impl Iterator<Item = &'a str> + 's {
        let given = self.given.iter();
        given.filter_map(|(name, value)| (*name == flag.name).then_some(*value))
    }

    /// Whether the flag was on the command line.
    pub fn given(&self, flag: &Flag) -> bool {
        self.values(flag).next().is_some()
    }

    /// The flag's value: as given, else the row's default, else `None`.
    pub fn get(&self, flag: &Flag) -> Option<&'a str> {
        let default = Some(flag.default).filter(|text| !text.is_empty());
        self.values(flag).next().or(default)
    }

    /// [`get`](Self::get), parsed.
    pub fn opt<T: FromStr<Err: fmt::Display>>(&self, flag: &Flag) -> Result<Option<T>, FlagError> {
        let parse = |raw: &str| raw.parse().map_err(|e| flag.bad(raw, e));
        self.get(flag).map(parse).transpose()
    }

    /// [`opt`](Self::opt) for a flag that must be given or have a default.
    pub fn req<T: FromStr<Err: fmt::Display>>(&self, flag: &Flag) -> Result<T, FlagError> {
        let missing = || FlagError::Usage(format!("{} is required", flag.usage()));
        self.opt(flag)?.ok_or_else(missing)
    }

    /// Every non-empty item of every comma-separated occurrence, parsed.
    pub fn each<T: FromStr<Err: fmt::Display>>(&self, flag: &Flag) -> Result<Vec<T>, FlagError> {
        let items = self.values(flag).flat_map(|list| list.split(','));
        let parse = |raw: &str| raw.parse().map_err(|e| flag.bad(raw, e));
        items.filter(|raw| !raw.is_empty()).map(parse).collect()
    }
}

/// The rows `netclust cluster` and `netclustd` both take, declared once
/// (`--top` without its default, which differs). One row a line; a row's
/// help text is its documentation.
#[allow(missing_docs, reason = "a row's help text is its documentation.")]
#[rustfmt::skip]
pub mod flags {
    use super::Flag;
    use crate::persist::FsyncPolicy;

    pub const TABLE: Flag = Flag::new("--table", "FILE[,FILE..]", "BGP routing-table files, one prefix a line").repeatable();
    pub const DUMP: Flag = Flag::new("--dump", "FILE[,FILE..]", "network-registry dump files, likewise").repeatable();
    pub const LOG: Flag = Flag::new("--log", "FILE", "Common Log Format access log");
    pub const TOP: Flag = Flag::new("--top", "N", "how many of the busiest clusters to report");
    pub const STATE_DIR: Flag = Flag::new("--state-dir", "DIR", "persist state in DIR (WIPED unless --resume)");
    pub const RESUME: Flag = Flag::new("--resume", "", "recover from --state-dir: newest snapshot + journal");
    pub const FSYNC: Flag = Flag::new("--fsync", FsyncPolicy::GRAMMAR, "when journal appends are fsynced").default("every_batch");
    pub const DETERMINISTIC: Flag = Flag::new("--deterministic", "", "byte-stable output: no clock-derived fields");
}

#[cfg(test)]
mod tests {
    use super::*;
    use netclust_netgen::{generate, standard_merged, LogSpec, Universe, UniverseConfig};
    use netclust_weblog::chunk::LogData;

    #[test]
    fn config_constructs_equivalent_batch_and_stream_views() {
        let u = Universe::generate(UniverseConfig::small(3));
        let mut spec = LogSpec::tiny("cfg", 5);
        spec.total_requests = 2_000;
        let log = generate(&u, &spec);
        let clf = netclust_netgen::to_clf(&log);

        let cfg = RunConfig::new()
            .threads(2)
            .deterministic(true)
            .max_error_rate(ErrorRate::new(0.5).unwrap());
        assert!(cfg.is_deterministic());

        let merged = standard_merged(&u, 0);
        let compiled = merged.compile();
        let report = cfg
            .pipeline(&compiled)
            .run_log(&LogData::from_vec(clf.clone().into_bytes()))
            .expect("within budget");

        let mut stream = cfg.streaming(standard_merged(&u, 0));
        let errors = stream.push_clf(clf.as_bytes());
        assert!(errors.is_empty());
        assert_eq!(
            report.clustering.total_requests,
            stream.total_requests(),
            "same knobs, same corpus, same totals"
        );
    }

    #[test]
    fn a_table_parses_validates_and_documents_its_rows() {
        const MODE: Flag = Flag::new("--mode", "a|b", "which").default("a");
        const ONLY_A: Flag = Flag::new("--only-a", "", "a switch");
        const ITEM: Flag = Flag::new("--item", "X[,X..]", "things").repeatable();
        const COUNT: Flag = Flag::new("--count", "N", "how many");
        const TABLE: FlagTable = FlagTable {
            usage: "demo [options]",
            flags: &[MODE, ONLY_A, ITEM, COUNT],
            constraints: &[
                Constraint::OnlyWith(&[ONLY_A], MODE, "a"),
                Constraint::Requires(&[COUNT, ONLY_A], ITEM),
            ],
        };
        let parse = |line: &str| {
            let args: Vec<String> = line.split_whitespace().map(String::from).collect();
            let found = TABLE.parse(&args).map(|p| {
                let items: Vec<u8> = p.each(&ITEM).expect("items parse");
                let count = p.opt::<u32>(&COUNT).map_err(|e| e.to_string());
                (
                    p.given(&ONLY_A),
                    p.get(&MODE).map(String::from),
                    items,
                    count,
                )
            });
            found.map_err(|e| e.to_string())
        };
        // A switch takes no value, a default stands in for an absent flag,
        // repeats and comma lists concatenate.
        assert_eq!(
            parse("--only-a --item 1,2 --item 3, --count 7"),
            Ok((true, Some("a".to_string()), vec![1, 2, 3], Ok(Some(7))))
        );
        assert_eq!(
            parse(""),
            Ok((false, Some("a".to_string()), vec![], Ok(None)))
        );
        let bad_count = parse("--item 1 --count x").expect("parses").3;
        assert!(bad_count
            .expect_err("typed late")
            .starts_with("--count got \"x\": "));
        for (line, message) in [
            ("--nope", "unknown flag \"--nope\""),
            ("stray", "unknown flag \"stray\""),
            ("--count", "--count needs a value"),
            ("--count --only-a", "--count needs a value"),
            ("--mode a --mode b", "--mode given more than once"),
            (
                "--item 1 --mode b --only-a",
                "--only-a only applies to --mode a, not \"b\"",
            ),
            ("--count 3", "--count/--only-a require --item"),
            ("--only-a --help", "help requested"),
        ] {
            assert_eq!(parse(line), Err(message.to_string()), "{line}");
        }
        assert!(matches!(
            TABLE.parse(&["-h".to_string()]),
            Err(FlagError::Help)
        ));
        assert_eq!(
            TABLE.render_help(),
            "demo [options]\n\noptions:\n  \
             --mode a|b              which (default a)\n  \
             --only-a                a switch\n  \
             --item X[,X..]          things (repeatable)\n  \
             --count N               how many\n\nconstraints:\n  \
             --only-a only applies to --mode a\n  \
             --count/--only-a require --item\n"
        );
    }

    #[test]
    fn threads_zero_clamps_to_one() {
        let cfg = RunConfig::new().threads(0);
        assert_eq!(cfg.threads, Some(1));
    }
}
