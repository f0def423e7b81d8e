//! Integration tests for the analyze gate: the seeded fixture tree must
//! trip every rule, the text report must be byte-stable against the
//! checked-in snapshot, the CLI must honour its exit-code contract, and
//! the workspace itself must scan clean under `--deny-all`.

use std::path::{Path, PathBuf};
use std::process::Command;

use netclust_analyze::{rules, scan, EXCLUDED};

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root resolves")
}

fn run_bin(dir: &Path, args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_netclust-analyze"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("binary runs")
}

#[test]
fn every_rule_fires_on_the_fixtures() {
    let report = scan(&fixtures_dir(), &[]).expect("fixture scan succeeds");
    let expected = [
        ("typed-errors", 2),
        ("atomic-ordering-audit", 2),
        ("wal-ordering", 2),
        ("failpoint-coverage", 4),
        ("allow-marker", 3),
    ];
    assert_eq!(expected.map(|(rule, _)| rule), rules::RULES);
    for (rule, count) in expected {
        assert_eq!(
            report.count(rule),
            count,
            "rule `{rule}` seeded-finding count drifted; fixture sources and \
             tests/snapshots/fixtures.txt must move together"
        );
    }
    // A leftover marker naming a rule clippy holds now waives nothing.
    assert!(report
        .findings
        .iter()
        .any(|f| f.rule == "allow-marker" && f.message.contains("retired rule `cast-truncation`")));
    assert_eq!(report.files_scanned, 4);
    // tests/arm.rs is indexed (failpoint arming evidence) and gets marker
    // hygiene, but is not a contract-scanned file.
    assert_eq!(report.test_files_indexed, 1);
}

#[test]
fn deny_all_fails_on_fixtures_and_prints_the_snapshot() {
    let out = run_bin(&fixtures_dir(), &["--deny-all"]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "findings under --deny-all must exit 1"
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert_eq!(
        stdout,
        include_str!("snapshots/fixtures.txt"),
        "report drifted from tests/snapshots/fixtures.txt; if the change is \
         intentional, regenerate with `netclust-analyze > \
         ../snapshots/fixtures.txt` from crates/analyze/tests/fixtures"
    );
    let again = run_bin(&fixtures_dir(), &[]);
    assert_eq!(
        again.status.code(),
        Some(0),
        "findings without --deny-all exit 0"
    );
    assert_eq!(
        again.stdout,
        stdout.as_bytes(),
        "report must be byte-stable"
    );
}

#[test]
fn usage_and_io_errors_have_distinct_exit_codes() {
    for gone in ["--bogus-flag", "--json", "--sarif", "--manifest"] {
        let out = run_bin(&fixtures_dir(), &[gone]);
        assert_eq!(out.status.code(), Some(2), "{gone} is a usage error");
    }
    let out = run_bin(&fixtures_dir(), &["no-such-path"]);
    assert_eq!(
        out.status.code(),
        Some(3),
        "missing scan path is an I/O error"
    );
}

#[test]
fn excluded_paths_exist_and_the_workspace_scans_clean_under_deny_all() {
    for dir in EXCLUDED {
        assert!(
            repo_root().join(dir).is_dir(),
            "EXCLUDED entry `{dir}` matches nothing on disk: a stale exclude \
             can silently unscan a real module"
        );
    }
    let out = run_bin(&repo_root(), &["--deny-all"]);
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert_eq!(
        out.status.code(),
        Some(0),
        "the workspace must stay clean under --deny-all; findings:\n{stdout}"
    );
    assert!(
        stdout.contains("0 finding(s)"),
        "expected a clean summary line, got:\n{stdout}"
    );
}
