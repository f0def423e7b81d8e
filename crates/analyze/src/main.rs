//! `netclust-analyze` CLI: the static-analysis gate, exit-code contract:
//!
//! * `0` — scan ran; clean, or findings present without `--deny-all`
//! * `1` — findings present under `--deny-all`
//! * `2` — usage error (unknown flag)
//! * `3` — I/O error
//!
//! ```text
//! netclust-analyze [--deny-all] [paths…]
//! ```
//!
//! With no paths, scans the current directory.

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: netclust-analyze [--deny-all] [paths...]";

const HELP: &str = "netclust-analyze: the workspace contracts no compiler lint can state

usage: netclust-analyze [--deny-all] [paths...]

Scans Rust sources (the current directory when no paths are given),
builds a workspace item index, and checks the rules of DESIGN.md \u{a7}12:
typed-errors, atomic-ordering-audit, wal-ordering, failpoint-coverage.
Prints one `path:line: [rule] message` line per finding, sorted.
Exit codes: 0 clean (or findings without --deny-all), 1 findings under
--deny-all, 2 usage error, 3 I/O error.

options:
  --deny-all         exit 1 if any finding is reported (the CI gate mode)
  -h, --help         print this help

Suppressions use `// analyze:allow(<rule>) <reason>` markers (or
`analyze:allow-file` for a whole file); a marker without a reason, or
naming an unknown or retired rule, is itself a finding. The contracts
clippy holds (`cargo contracts`) are waived with `#[allow(clippy::..,
reason = \"..\")]` instead.";

fn main() -> ExitCode {
    let mut deny_all = false;
    let mut paths: Vec<PathBuf> = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--deny-all" => deny_all = true,
            "--help" | "-h" => {
                println!("{HELP}");
                return ExitCode::SUCCESS;
            }
            flag if flag.starts_with('-') => {
                eprintln!("netclust-analyze: unknown flag {flag}\n{USAGE}");
                return ExitCode::from(2);
            }
            path => paths.push(PathBuf::from(path)),
        }
    }

    let report = match netclust_analyze::scan(&PathBuf::from("."), &paths) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("netclust-analyze: {e}");
            return ExitCode::from(3);
        }
    };
    print!("{report}");

    if deny_all && !report.findings.is_empty() {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
