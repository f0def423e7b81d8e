//! `netclust-analyze`: the workspace contracts no compiler lint can state.
//!
//! A vendored, dependency-free, two-phase Rust source scanner. Phase 1
//! lexes every file ([`lex`]) and builds a workspace item index
//! ([`graph`]): items with their modules, call sites by name, path
//! references, string literals. Phase 2 runs the contract rules
//! ([`rules`]) — typed public errors and justified atomic orderings per
//! file; WAL append-before-apply / fsync-before-rename and failpoint
//! registry coverage across files. The contracts a type-aware lint *can*
//! state (SAFETY-commented `unsafe`, panic-free hot modules, audited
//! narrowing casts, determinism) are clippy lints written next to the
//! code they bind; `cargo contracts` runs them. See `DESIGN.md` §12.
//!
//! The analyzer is a *lint with receipts*, not a prover: heuristic rules
//! over a real token stream, with per-line and per-file allow markers
//! recording the human justification wherever a site is sound for
//! reasons the heuristics cannot see. CI runs `netclust-analyze
//! --deny-all` as a hard gate; its report — sorted `path:line: [rule]
//! message` lines on stdout — is byte-stable for a given tree.

#![forbid(unsafe_code)]
#![deny(clippy::iter_over_hash_type, clippy::disallowed_methods)]
#![warn(missing_docs)]

pub mod graph;
pub mod lex;
pub mod rules;

use std::path::{Path, PathBuf};
use std::{fmt, io};

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule identifier (one of [`rules::RULES`]).
    pub rule: &'static str,
    /// Root-relative path (forward slashes); attached by the scanner.
    pub path: String,
    /// 1-based source line.
    pub line: u32,
    /// Human-readable description with the suggested remedy.
    pub message: String,
}

impl Finding {
    /// A finding without a path yet (the rules don't know it).
    pub fn new(rule: &'static str, line: u32, message: String) -> Finding {
        Finding {
            rule,
            path: String::new(),
            line,
            message,
        }
    }
}

/// A whole scan: every finding plus scan-coverage metadata.
#[derive(Debug, Default)]
pub struct Report {
    /// All findings, sorted by `(path, line, rule, message)`.
    pub findings: Vec<Finding>,
    /// Number of `.rs` contract files scanned (per-file rules applied).
    pub files_scanned: usize,
    /// Number of test-target files (`tests/`, `benches/`) indexed for
    /// the item index and marker hygiene but exempt from contracts.
    pub test_files_indexed: usize,
}

impl Report {
    /// Number of findings for `rule`.
    pub fn count(&self, rule: &str) -> usize {
        self.findings.iter().filter(|f| f.rule == rule).count()
    }
}

/// The one report: a `path:line: [rule] message` line per finding, in
/// sorted order, then the summary line.
impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for x in &self.findings {
            writeln!(f, "{}:{}: [{}] {}", x.path, x.line, x.rule, x.message)?;
        }
        writeln!(
            f,
            "netclust-analyze: {} finding(s) across {} file(s); {} test-target file(s) indexed",
            self.findings.len(),
            self.files_scanned,
            self.test_files_indexed
        )
    }
}

/// `e`, naming the path it happened on.
fn at(path: &Path, e: io::Error) -> io::Error {
    io::Error::new(e.kind(), format!("{}: {e}", path.display()))
}

/// Root-relative paths never scanned: the two vendored offline API shims
/// (third-party surface we mirror, not code we hold to the workspace
/// contracts) and the analyzer's own seeded-violation fixtures.
pub const EXCLUDED: [&str; 3] = [
    "crates/rand",
    "crates/proptest",
    "crates/analyze/tests/fixtures",
];

/// Directories never descended into.
const ALWAYS_SKIP_DIRS: [&str; 3] = ["target", ".git", ".claude"];

/// Directory components whose files are test-only targets (integration
/// tests, benches): exempt from the contracts, like `#[cfg(test)]`
/// modules. Applies to components *relative to the scan root*, so a
/// fixture tree scanned directly as the root is still checked.
const TEST_DIR_COMPONENTS: [&str; 2] = ["tests", "benches"];

/// `true` when `rel` lies under a test-only directory.
fn is_test_target(rel: &str) -> bool {
    rel.split('/').any(|c| TEST_DIR_COMPONENTS.contains(&c))
}

/// Collects every `.rs` file under `path` (or `path` itself when it is a
/// file), as paths relative to `root` with forward slashes. Test-target
/// files are collected too — they feed the item index and get marker
/// hygiene — and are told apart later via [`is_test_target`].
fn collect_rs_files(root: &Path, path: &Path, out: &mut Vec<String>) -> io::Result<()> {
    let io_err = |e| at(path, e);
    let rel = relative_slash(root, path);
    let under = |r: &str, dir: &str| {
        r.strip_prefix(dir)
            .is_some_and(|t| t.is_empty() || t.starts_with('/'))
    };
    if rel
        .as_deref()
        .is_some_and(|r| EXCLUDED.iter().any(|dir| under(r, dir)))
    {
        return Ok(());
    }
    if std::fs::metadata(path).map_err(io_err)?.is_file() {
        if let Some(rel) = rel.filter(|r| r.ends_with(".rs")) {
            out.push(rel);
        }
        return Ok(());
    }
    let entries = std::fs::read_dir(path)
        .and_then(Iterator::collect::<Result<Vec<_>, _>>)
        .map_err(io_err)?;
    for entry in entries.into_iter().map(|e| e.path()) {
        let name = entry.file_name().and_then(|n| n.to_str()).unwrap_or("");
        let skip_dir = ALWAYS_SKIP_DIRS.contains(&name) || name.starts_with('.');
        if (entry.is_dir() && !skip_dir) || name.ends_with(".rs") {
            collect_rs_files(root, &entry, out)?;
        }
    }
    Ok(())
}

/// `path` relative to `root`, with forward slashes; `None` when `path`
/// is not under `root`.
fn relative_slash(root: &Path, path: &Path) -> Option<String> {
    let rel = path.strip_prefix(root).ok()?;
    let comps: Option<Vec<&str>> = rel.components().map(|c| c.as_os_str().to_str()).collect();
    Some(comps?.join("/"))
}

/// Scans `paths` (files or directories, relative to `root`; the whole of
/// `root` when empty), returning the sorted report.
///
/// Two phases: every collected file (contract *and* test-target) is
/// read and lexed once, and the token streams feed the workspace
/// [`graph::SymbolGraph`]; then the per-file rules run over contract
/// files (test targets get marker hygiene only) and the cross-file
/// rules run over the index.
pub fn scan(root: &Path, paths: &[PathBuf]) -> io::Result<Report> {
    let mut files = Vec::new();
    if paths.is_empty() {
        collect_rs_files(root, root, &mut files)?;
    }
    for p in paths {
        collect_rs_files(root, &root.join(p), &mut files)?;
    }
    files.sort();
    files.dedup();

    // Phase 1: read + lex everything, build the item index.
    let mut srcs: Vec<String> = Vec::with_capacity(files.len());
    for rel in &files {
        let abs = root.join(rel);
        srcs.push(std::fs::read_to_string(&abs).map_err(|e| at(&abs, e))?);
    }
    let toks: Vec<Vec<lex::Tok<'_>>> = srcs.iter().map(|s| lex::lex(s)).collect();
    let masks: Vec<Vec<bool>> = files
        .iter()
        .zip(&toks)
        .map(|(rel, t)| {
            if is_test_target(rel) {
                vec![true; t.len()]
            } else {
                rules::test_mask(t)
            }
        })
        .collect();
    let graph = graph::SymbolGraph::build(&files, &toks, &masks);

    // Phase 2: per-file rules (contract files) / marker hygiene (test
    // targets), then the cross-file rules, suppressed by the target
    // file's own allow markers.
    let mut report = Report::default();
    let mut found: Vec<(usize, Finding)> = Vec::new();
    for (i, rel) in files.iter().enumerate() {
        let file_findings = if is_test_target(rel) {
            report.test_files_indexed += 1;
            rules::scan_markers(&toks[i])
        } else {
            report.files_scanned += 1;
            rules::scan_tokens(&toks[i])
        };
        found.extend(file_findings.into_iter().map(|f| (i, f)));
    }
    for (fid, finding) in rules::scan_graph(&graph) {
        let kept = rules::suppress(&toks[fid], vec![finding]);
        found.extend(kept.into_iter().map(|f| (fid, f)));
    }
    for (fid, mut f) in found {
        f.path = files[fid].clone();
        report.findings.push(f);
    }
    report.findings.sort_by(|a, b| {
        (&a.path, a.line, a.rule, &a.message).cmp(&(&b.path, b.line, b.rule, &b.message))
    });
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_paths_use_forward_slashes() {
        let root = Path::new("/a/b");
        let rel = relative_slash(root, Path::new("/a/b/c/d.rs")).expect("under root");
        assert_eq!(rel, "c/d.rs");
        assert!(relative_slash(root, Path::new("/elsewhere/d.rs")).is_none());
    }
}
