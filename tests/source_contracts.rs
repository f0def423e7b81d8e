//! The source contracts no compiler lint can state (DESIGN.md §12), read
//! from every `.rs` file of the repository as lines:
//!
//! * `typed-errors`: a `pub fn` returning `Result<_, E>` has no `String`,
//!   `&str` or `Box<dyn …>` as `E`.
//! * `atomic-ordering-audit`: every `Relaxed` / `Acquire` / `Release` /
//!   `AcqRel` / `SeqCst` has `// ordering:` on its line or one of the
//!   three above, and `Relaxed` never sits in the arguments of `.store(`,
//!   `.swap(` or `.compare_exchange*(`.
//! * `wal-ordering`: no function calls `apply_deltas*` before its first
//!   `append_batch`, and in a `persist` path a `rename` comes after a
//!   `sync_all` / `sync_data` / `fsync_file` / `fsync` in the same
//!   function.
//! * `failpoint-coverage`: every const of a `mod failpoints` is in its
//!   `ALL`, named as `failpoints::NAME` by non-test code, and named by a
//!   test, by that path or by its wire string.
//!
//! And the one OS seam: `crates/sys` is the only crate that may hold
//! `unsafe` code, and it holds every `extern "C"` of the product.
//!
//! Lines are enough because `cargo fmt --check` is a CI gate: an item
//! ends at the first line that is its own indent followed by `}`. The
//! same rule masks `#[test]` / `#[cfg(test)]` items, which are exempt, as
//! are whole files under `tests/` or `benches/`; a test there still arms
//! a failpoint. A rule reads code with comments cut and string contents
//! blanked. The scan skips `target/`, hidden directories and the two
//! vendored shims.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// Findings the code keeps on purpose, each with its reason beside the
/// line: (file, rule, the trimmed text of the line it covers). Each must
/// match exactly one finding, so a waiver cannot outlive its site.
const WAIVERS: &[(&str, &str, &str)] = &[
    (
        "crates/obs/src/metric.rs",
        "atomic-ordering-audit",
        "cell.store(v, Ordering::Relaxed);",
    ),
    (
        "src/bin/netclust.rs",
        "wal-ordering",
        "let r = stream.apply_deltas(&b.deltas);",
    ),
];

/// The two vendored API shims: third-party surface, not held to the
/// contracts.
const SHIMS: [&str; 2] = ["crates/rand", "crates/proptest"];

const FORBID: &str = "#![forbid(unsafe_code)]";

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The `.rs` files under `dir`, recursively, without build output and
/// hidden directories.
fn rs_files(dir: &Path, into: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.expect("dir entry").path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if name != "target" && !name.starts_with('.') {
                rs_files(&path, into);
            }
        } else if name.ends_with(".rs") {
            into.push(path);
        }
    }
}

/// Every `crates/<name>` directory.
fn crate_dirs() -> Vec<PathBuf> {
    let mut dirs: Vec<PathBuf> = fs::read_dir(root().join("crates"))
        .expect("crates/")
        .map(|entry| entry.expect("dir entry").path())
        .filter(|path| path.join("Cargo.toml").is_file())
        .collect();
    dirs.sort();
    dirs
}

fn forbids_unsafe(path: &Path) -> bool {
    let text = fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    text.lines().any(|line| line.trim() == FORBID)
}

/// Every source file the contracts read, by root-relative path.
fn workspace() -> Vec<Source> {
    let mut files = Vec::new();
    rs_files(&root(), &mut files);
    files.sort();
    let mut sources = Vec::new();
    for path in files {
        let rel = path.strip_prefix(root()).expect("under the root");
        if SHIMS.iter().any(|shim| rel.starts_with(shim)) {
            continue;
        }
        let text = fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        sources.push(Source::parse(&rel.to_string_lossy(), &text));
    }
    sources
}

/// One line of a source file.
struct Line {
    /// The whole line, trimmed.
    raw: String,
    /// Its `//` comment, if any.
    comment: String,
    indent: usize,
    /// In a test target, or in a `#[test]` / `#[cfg(test)]` item.
    test: bool,
    /// Part of a `use` declaration.
    import: bool,
}

/// One source file.
struct Source {
    path: String,
    /// Under `tests/` or `benches/`.
    test_target: bool,
    /// The code of every line, comments cut and string contents blanked,
    /// each line ended by `\n`.
    code: String,
    /// Where each line starts in `code`.
    starts: Vec<usize>,
    lines: Vec<Line>,
}

/// One broken contract.
struct Finding {
    path: String,
    /// 1-based.
    line: usize,
    rule: &'static str,
    /// The line, trimmed: what a waiver names.
    text: String,
    message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (path, line, rule) = (&self.path, self.line, self.rule);
        write!(f, "{path}:{line}: [{rule}] {}", self.message)
    }
}

/// Appends `raw`'s code to `out` with string contents blanked and returns
/// its `//` comment. `in_str` carries an open string across lines.
fn cut(raw: &str, in_str: &mut bool, out: &mut String) -> String {
    let mut chars = raw.char_indices();
    while let Some((i, c)) = chars.next() {
        let rest = &raw[i..];
        if *in_str {
            if c == '\\' {
                chars.next();
            }
            *in_str = c != '"';
            out.push(if c == '"' { '"' } else { ' ' });
        } else if c == '"' {
            *in_str = true;
            out.push('"');
        } else if rest.starts_with("//") {
            return rest.to_string();
        } else if let Some(quote) = ["'\"'", "'\\\"'"].iter().find(|q| rest.starts_with(**q)) {
            // A quote character opens no string.
            out.push_str("' '");
            chars.nth(quote.len() - 2);
        } else {
            out.push(c);
        }
    }
    String::new()
}

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Offsets where `word` stands in `code` with no identifier character on
/// either side.
fn words<'a>(code: &'a str, word: &'a str) -> impl Iterator<Item = usize> + 'a {
    code.match_indices(word)
        .map(|(at, _)| at)
        .filter(move |&at| {
            !code[..at].ends_with(is_ident) && !code[at + word.len()..].starts_with(is_ident)
        })
}

/// Offsets of calls to `name`: the word followed by `(`, not its
/// declaration.
fn calls<'a>(code: &'a str, name: &'a str) -> impl Iterator<Item = usize> + 'a {
    words(code, name)
        .filter(move |&at| code[at + name.len()..].starts_with('(') && !code[..at].ends_with("fn "))
}

/// The name of the function `code` declares, if it declares one.
fn fn_name(code: &str) -> Option<&str> {
    let (head, tail) = code.split_once("fn ")?;
    let qualifiers = [
        "pub",
        "pub(crate)",
        "pub(super)",
        "const",
        "async",
        "unsafe",
        "extern",
        "\"",
    ];
    if !head.split_whitespace().all(|w| qualifiers.contains(&w)) {
        return None;
    }
    let end = tail.find(|c| !is_ident(c)).unwrap_or(tail.len());
    (end > 0).then(|| &tail[..end])
}

/// The offset of the `)` that closes the `(` at `open`.
fn close_paren(code: &str, open: usize) -> usize {
    let mut depth = 0;
    for (i, c) in code[open..].char_indices() {
        match c {
            '(' => depth += 1,
            ')' if depth == 1 => return open + i,
            ')' => depth -= 1,
            _ => {}
        }
    }
    code.len()
}

impl Source {
    fn parse(path: &str, text: &str) -> Source {
        let test_target = path
            .split('/')
            .any(|dir| dir == "tests" || dir == "benches");
        let mut src = Source {
            path: path.to_string(),
            test_target,
            code: String::with_capacity(text.len()),
            starts: Vec::new(),
            lines: Vec::new(),
        };
        let mut in_str = false;
        for raw in text.lines() {
            src.starts.push(src.code.len());
            let comment = cut(raw, &mut in_str, &mut src.code);
            src.code.push('\n');
            src.lines.push(Line {
                raw: raw.trim().to_string(),
                comment,
                indent: raw.len() - raw.trim_start().len(),
                test: test_target,
                import: false,
            });
        }
        src.mark();
        src
    }

    /// Line `i`'s code, without its `\n`.
    fn code_line(&self, i: usize) -> &str {
        let end = self
            .starts
            .get(i + 1)
            .map_or(self.code.len(), |next| next - 1);
        &self.code[self.starts[i]..end]
    }

    /// The line holding `code` offset `at`.
    fn line_of(&self, at: usize) -> usize {
        self.starts.partition_point(|&start| start <= at) - 1
    }

    /// Flags test items and `use` declarations.
    fn mark(&mut self) {
        let mut i = 0;
        while i < self.lines.len() {
            let code = self.code_line(i).trim();
            if code.starts_with("#[")
                && words(code, "test").next().is_some()
                && !code.contains("not(")
            {
                let end = self.item_end(i);
                self.lines[i..=end].iter_mut().for_each(|l| l.test = true);
                i = end;
            }
            i += 1;
        }
        let mut open = false;
        for i in 0..self.lines.len() {
            let code = self.code_line(i).trim();
            open |= ["use ", "pub use ", "pub(crate) use "]
                .iter()
                .any(|u| code.starts_with(u));
            let ends = code.contains(';');
            self.lines[i].import = open;
            open &= !ends;
        }
    }

    /// The last line of the item at line `at` (or of the item its
    /// attributes there annotate): that line itself when it ends in `;`
    /// or `}`, else the first line below at its indent that starts with
    /// `}`.
    fn item_end(&self, at: usize) -> usize {
        let last = self.lines.len() - 1;
        let head = (at..=last)
            .find(|&i| !self.code_line(i).trim().starts_with("#["))
            .unwrap_or(last);
        if self.code_line(head).trim_end().ends_with([';', '}']) {
            return head;
        }
        let indent = self.lines[at].indent;
        (head + 1..=last)
            .find(|&i| self.lines[i].indent == indent && self.code_line(i).trim().starts_with('}'))
            .unwrap_or(last)
    }

    /// Each function's name, with the function that owns each line: the
    /// innermost one whose extent holds it.
    fn functions(&self) -> (Vec<&str>, Vec<Option<usize>>) {
        let mut names = Vec::new();
        let mut owner = vec![None; self.lines.len()];
        for i in 0..self.lines.len() {
            if let Some(name) = fn_name(self.code_line(i)) {
                owner[i..=self.item_end(i)].fill(Some(names.len()));
                names.push(name);
            }
        }
        (names, owner)
    }

    /// `line`'s text and location, as a finding.
    fn finding(&self, line: usize, rule: &'static str, message: String) -> Finding {
        Finding {
            path: self.path.clone(),
            line: line + 1,
            rule,
            text: self.lines[line].raw.clone(),
            message,
        }
    }

    /// Whether code in (or out of) tests names `path`, `use` lines aside.
    fn names(&self, path: &str, in_test: bool) -> bool {
        words(&self.code, path).any(|at| {
            let line = &self.lines[self.line_of(at)];
            line.test == in_test && !line.import
        })
    }

    /// The signature that starts at line `i`, on one line.
    fn signature(&self, i: usize) -> String {
        let mut sig = String::new();
        for j in i..self.lines.len() {
            let code = self.code_line(j).trim();
            sig.push_str(code);
            sig.push(' ');
            if code.ends_with(['{', ';', '}']) || code == "where" {
                break;
            }
        }
        sig
    }
}

/// `typed-errors`.
fn typed_errors(src: &Source, out: &mut Vec<Finding>) {
    for i in 0..src.lines.len() {
        let code = src.code_line(i).trim_start();
        if src.lines[i].test || !code.starts_with("pub ") || fn_name(code).is_none() {
            continue;
        }
        if let Some(error) = return_type(&src.signature(i)).and_then(stringly_error) {
            let message = format!("public `Result` with the stringly error `{error}`");
            out.push(src.finding(i, "typed-errors", message));
        }
    }
}

/// What a one-line signature returns, if anything.
fn return_type(sig: &str) -> Option<String> {
    // `->` is no angle bracket.
    let sig = sig.replace("->", "→");
    let after_name = sig.find("fn ")?;
    let mut angle = 0;
    let mut open = None;
    for (i, c) in sig[after_name..].char_indices() {
        match c {
            '<' => angle += 1,
            '>' => angle -= 1,
            '(' if angle == 0 => {
                open = Some(after_name + i);
                break;
            }
            _ => {}
        }
    }
    let rest = sig[close_paren(&sig, open?)..].get(1..)?.trim_start();
    let ret = rest.strip_prefix('→')?;
    let end = ret.find(['{', ';']).unwrap_or(ret.len());
    let end = ret[..end].find(" where").unwrap_or(end);
    Some(ret[..end].to_string())
}

/// The stringly error of a `Result<T, E>` in `ret`, if there is one.
fn stringly_error(ret: String) -> Option<&'static str> {
    for (at, open) in ret.match_indices("Result<") {
        if ret[..at].ends_with(is_ident) {
            continue;
        }
        let args = &ret[at + open.len()..];
        let (mut depth, mut last, mut end) = (0, None, args.len());
        for (i, c) in args.char_indices() {
            match c {
                '<' | '(' | '[' => depth += 1,
                '>' | ')' | ']' if depth == 0 => {
                    end = i;
                    break;
                }
                '>' | ')' | ']' => depth -= 1,
                ',' if depth == 0 => last = Some(i + 1),
                _ => {}
            }
        }
        // One argument is an alias such as `io::Result<T>`: its error is
        // the alias's own.
        let Some(last) = last else { continue };
        let error: String = args[last..end].split_whitespace().collect();
        let error = error.trim_start_matches("std::string::");
        if error == "String" {
            return Some("String");
        }
        if error == "&str" || (error.starts_with("&'") && error.ends_with("str")) {
            return Some("&str");
        }
        if error.starts_with("Box<dyn") {
            return Some("Box<dyn …>");
        }
    }
    None
}

const ORDERINGS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];
/// Methods whose stored value another thread may load.
const PUBLISHERS: [&str; 4] = [
    ".store(",
    ".swap(",
    ".compare_exchange(",
    ".compare_exchange_weak(",
];

/// `atomic-ordering-audit`.
fn atomic_orderings(src: &Source, out: &mut Vec<Finding>) {
    let publishes: Vec<(usize, usize)> = PUBLISHERS
        .iter()
        .flat_map(|p| src.code.match_indices(p))
        .map(|(at, p)| (at, close_paren(&src.code, at + p.len() - 1)))
        .collect();
    for ordering in ORDERINGS {
        for at in words(&src.code, ordering) {
            let i = src.line_of(at);
            if src.lines[i].test || src.lines[i].import {
                continue;
            }
            let mut flag =
                |message: String| out.push(src.finding(i, "atomic-ordering-audit", message));
            let above = &src.lines[i.saturating_sub(3)..=i];
            if !above.iter().any(|l| l.comment.contains("ordering:")) {
                flag(format!(
                    "`{ordering}` without `// ordering:` on its line or the three above"
                ));
            }
            if ordering == "Relaxed"
                && publishes
                    .iter()
                    .any(|&(open, close)| open < at && at < close)
            {
                flag(
                    "`Relaxed` publishing store/swap/compare_exchange: no happens-before edge"
                        .into(),
                );
            }
        }
    }
}

const APPLY: [&str; 2] = ["apply_deltas", "apply_deltas_with"];
const APPEND: [&str; 1] = ["append_batch"];
const RENAME: [&str; 1] = ["rename"];
const SYNC: [&str; 4] = ["sync_all", "sync_data", "fsync_file", "fsync"];

/// `wal-ordering`.
fn wal_ordering(src: &Source, out: &mut Vec<Finding>) {
    let (names, owner) = src.functions();
    // (function, offset, callee) of every call the rule orders.
    let mut sites = Vec::new();
    for callee in APPLY.iter().chain(&APPEND).chain(&RENAME).chain(&SYNC) {
        for at in calls(&src.code, callee) {
            let i = src.line_of(at);
            if let (Some(f), false) = (owner[i], src.lines[i].test) {
                sites.push((f, at, *callee));
            }
        }
    }
    for (f, name) in names.iter().enumerate() {
        let first = |callees: &[&str]| {
            let here = sites.iter().filter(|s| s.0 == f && callees.contains(&s.2));
            here.map(|s| s.1).min()
        };
        let before = |callees: &[&str], bound: Option<usize>| -> Vec<(usize, &str)> {
            let here = sites.iter().filter(|s| s.0 == f && callees.contains(&s.2));
            let early = here.filter(|s| bound.is_none_or(|b| s.1 < b));
            early.map(|s| (src.line_of(s.1), s.2)).collect()
        };
        if let Some(append) = first(&APPEND) {
            for (line, callee) in before(&APPLY, Some(append)) {
                let message = format!("`{callee}` before the first `append_batch` in `{name}`");
                out.push(src.finding(line, "wal-ordering", message));
            }
        }
        if src.path.contains("persist") {
            for (line, _) in before(&RENAME, first(&SYNC)) {
                let message = format!("`rename` before any fsync in `{name}`");
                out.push(src.finding(line, "wal-ordering", message));
            }
        }
    }
}

/// The `NAME` of a `const NAME` (or `pub const NAME`) line.
fn const_name(code: &str) -> Option<&str> {
    let rest = code
        .trim()
        .trim_start_matches("pub ")
        .strip_prefix("const ")?;
    let end = rest.find(|c| !is_ident(c)).unwrap_or(rest.len());
    Some(&rest[..end])
}

/// `failpoint-coverage`, over every `mod failpoints` registry.
fn failpoint_coverage(sources: &[Source], out: &mut Vec<Finding>) {
    for src in sources.iter().filter(|s| !s.test_target) {
        for m in 0..src.lines.len() {
            let head = src.code_line(m).trim().trim_start_matches("pub ");
            if src.lines[m].test || head != "mod failpoints {" {
                continue;
            }
            // (line, name, wire string) of each failpoint, and `ALL`'s line
            // and members.
            let mut points = Vec::new();
            let mut all: Option<(usize, Vec<String>)> = None;
            let end = src.item_end(m);
            let mut i = m + 1;
            while i < end {
                match const_name(src.code_line(i)) {
                    Some("ALL") => {
                        let last = (i..end)
                            .find(|&j| src.code_line(j).contains(';'))
                            .unwrap_or(end);
                        let init: Vec<&str> = (i..=last).map(|j| src.code_line(j)).collect();
                        let init = init.join(" ");
                        let members = init.split_once('=').map_or("", |(_, members)| members);
                        let members = members.split(|c| !is_ident(c)).filter(|w| !w.is_empty());
                        all = Some((i, members.map(String::from).collect()));
                        i = last;
                    }
                    Some(name) => {
                        if let Some(wire) = src.lines[i].raw.split('"').nth(1) {
                            points.push((i, name, wire));
                        }
                    }
                    None => {}
                }
                i += 1;
            }
            let mut flag =
                |line, message| out.push(src.finding(line, "failpoint-coverage", message));
            for &(line, name, wire) in &points {
                if all
                    .as_ref()
                    .is_some_and(|(_, members)| !members.iter().any(|m| m == name))
                {
                    flag(line, format!("failpoint `{name}` is not listed in `ALL`"));
                }
                let path = format!("failpoints::{name}");
                if !sources.iter().any(|s| s.names(&path, false)) {
                    flag(
                        line,
                        format!("failpoint `{name}` is never evaluated outside tests"),
                    );
                }
                let quoted = format!("\"{wire}\"");
                let armed = sources.iter().any(|s| {
                    s.names(&path, true)
                        || s.lines.iter().any(|l| l.test && l.raw.contains(&quoted))
                });
                if !armed {
                    flag(
                        line,
                        format!("failpoint `{name}` (\"{wire}\") is never armed by a test"),
                    );
                }
            }
            if let Some((line, members)) = &all {
                for member in members
                    .iter()
                    .filter(|m| !points.iter().any(|p| p.1 == m.as_str()))
                {
                    flag(
                        *line,
                        format!("`ALL` lists `{member}`, which is no failpoint here"),
                    );
                }
            }
        }
    }
}

/// Every finding over `sources`, in path and line order.
fn check(sources: &[Source]) -> Vec<Finding> {
    let mut out = Vec::new();
    for src in sources.iter().filter(|s| !s.test_target) {
        typed_errors(src, &mut out);
        atomic_orderings(src, &mut out);
        wal_ordering(src, &mut out);
    }
    failpoint_coverage(sources, &mut out);
    out.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    out
}

/// `findings` less the waived ones; an error names a waiver that does not
/// match exactly one finding.
fn waive(
    mut findings: Vec<Finding>,
    waivers: &[(&str, &str, &str)],
) -> Result<Vec<Finding>, String> {
    for &(path, rule, text) in waivers {
        let covers = |f: &Finding| f.path == path && f.rule == rule && f.text == text;
        match findings.iter().filter(|f| covers(f)).count() {
            1 => findings.retain(|f| !covers(f)),
            n => {
                return Err(format!(
                    "waiver ({path}, {rule}, {text:?}) matches {n} findings"
                ))
            }
        }
    }
    Ok(findings)
}

fn report(findings: &[Finding]) -> String {
    findings.iter().map(|f| format!("{f}\n")).collect()
}

#[test]
fn every_crate_root_but_sys_forbids_unsafe_code() {
    let sys = root().join("crates/sys");
    let mut roots: Vec<PathBuf> = crate_dirs()
        .into_iter()
        .filter(|dir| *dir != sys)
        .map(|dir| dir.join("src/lib.rs"))
        .filter(|lib| lib.is_file())
        .collect();
    roots.push(root().join("src/lib.rs"));
    roots.push(root().join("crates/serve/src/main.rs"));
    rs_files(&root().join("src/bin"), &mut roots);
    assert!(roots.len() > 10, "{roots:?}");
    let missing: Vec<_> = roots.iter().filter(|path| !forbids_unsafe(path)).collect();
    assert!(missing.is_empty(), "no {FORBID} in {missing:?}");
    assert!(
        !forbids_unsafe(&sys.join("src/lib.rs")),
        "crates/sys is the seam"
    );
}

#[test]
fn no_extern_c_outside_crates_sys() {
    let mut files = Vec::new();
    for dir in crate_dirs() {
        if !dir.ends_with("sys") {
            rs_files(&dir.join("src"), &mut files);
        }
    }
    rs_files(&root().join("src"), &mut files);
    let needle = concat!("extern ", "\"C\"");
    let offenders: Vec<_> = files
        .iter()
        .filter(|path| fs::read_to_string(path).is_ok_and(|text| text.contains(needle)))
        .collect();
    assert!(
        offenders.is_empty(),
        "{needle} outside crates/sys: {offenders:?}"
    );
    let mut seam = Vec::new();
    rs_files(&root().join("crates/sys/src"), &mut seam);
    assert!(seam
        .iter()
        .any(|path| fs::read_to_string(path).is_ok_and(|text| text.contains(needle))));
}

#[test]
fn the_workspace_keeps_every_source_contract() {
    for shim in SHIMS {
        assert!(
            root().join(shim).is_dir(),
            "{shim} is gone: drop it from SHIMS"
        );
    }
    let sources = workspace();
    let contract_files = sources.iter().filter(|s| !s.test_target).count();
    assert!(contract_files > 100, "only {contract_files} contract files");
    let left = waive(check(&sources), WAIVERS).unwrap_or_else(|e| panic!("{e}"));
    assert!(left.is_empty(), "\n{}", report(&left));
}

/// The findings `text` produces as file `path`, as (line, rule) pairs.
fn seeded(path: &str, text: &str) -> Vec<(usize, &'static str)> {
    let found = check(&[Source::parse(path, text)]);
    found.iter().map(|f| (f.line, f.rule)).collect()
}

#[test]
fn typed_errors_fire_on_a_stringly_public_result() {
    let src = "\
pub fn stringly() -> Result<u64, String> {
    Ok(0)
}
pub fn borrowed<'a>(
    name: &'a str,
) -> Result<(), &'static str> {
    Ok(())
}
pub fn boxed(f: impl Fn(u8) -> u8) -> Result<u8, Box<dyn std::error::Error>> {
    Ok(f(0))
}
pub fn typed() -> Result<String, TypedError> {
    Ok(String::new())
}
pub fn alias() -> std::io::Result<String> {
    Ok(String::new())
}
pub(crate) fn in_crate() -> Result<(), String> {
    Ok(())
}
fn private() -> Result<(), String> {
    Ok(())
}
#[cfg(test)]
mod tests {
    pub fn helper() -> Result<(), String> {
        Ok(())
    }
}
#[cfg(not(test))]
pub fn live() -> Result<(), String> {
    Ok(())
}
";
    let rule = "typed-errors";
    let found = seeded("crates/demo/src/lib.rs", src);
    assert_eq!(found, [(1, rule), (4, rule), (9, rule), (31, rule)]);
}

#[test]
fn atomic_orderings_need_a_reason_and_a_publishing_store_is_never_relaxed() {
    let src = "\
use std::sync::atomic::Ordering::{Relaxed, SeqCst};

pub fn unjustified(c: &AtomicU64) -> u64 {
    c.fetch_add(1, Ordering::Relaxed)
}

pub fn relaxed_publish(flag: &AtomicBool) {
    // ordering: justified in words, but the store still publishes.
    flag.store(
        true,
        Ordering::Relaxed,
    );
}

pub fn justified(c: &AtomicU64) -> u64 {
    // ordering: a telemetry counter; readers tolerate staleness.
    c.load(Ordering::Relaxed)
}

pub fn released(flag: &AtomicBool) {
    flag.store(true, Ordering::Release); // ordering: pairs with the Acquire load.
    let _ = \"Ordering::SeqCst in a string\";
}

#[test]
fn exempt() {
    COUNT.store(1, Ordering::Relaxed);
}
";
    let rule = "atomic-ordering-audit";
    let found = seeded("crates/demo/src/lib.rs", src);
    assert_eq!(found, [(4, rule), (11, rule)]);
}

#[test]
fn wal_ordering_fires_on_apply_before_append_and_rename_before_fsync() {
    let src = "\
pub fn backwards(s: &mut Store, batch: &[u8]) {
    s.apply_deltas(batch);
    s.append_batch(batch);
    s.apply_deltas_with(batch, 1);
}

pub fn forwards(s: &mut Store, batch: &[u8]) {
    s.append_batch(batch);
    s.apply_deltas(batch);
}

pub fn replay(s: &mut Store, batch: &[u8]) {
    s.apply_deltas(batch);
}

pub fn unsynced(dir: &Path) -> io::Result<()> {
    fs::write(dir.join(\"snap.tmp\"), b\"state\")?;
    fs::rename(dir.join(\"snap.tmp\"), dir.join(\"snap\"))
}

pub fn synced(dir: &Path) -> io::Result<()> {
    let file = fs::File::create(dir.join(\"snap.tmp\"))?;
    file.sync_all()?;
    fs::rename(dir.join(\"snap.tmp\"), dir.join(\"snap\"))
}
";
    let rule = "wal-ordering";
    let found = seeded("crates/demo/src/persist/mod.rs", src);
    assert_eq!(found, [(2, rule), (18, rule)]);
    // A rename needs its fsync only on a persist path.
    let found = seeded("crates/demo/src/store.rs", src);
    assert_eq!(found, [(2, rule)]);
}

#[test]
fn failpoint_registry_drift_fires_in_every_direction() {
    let registry = "\
pub mod failpoints {
    /// Listed, wired and armed.
    pub const WIRED: &str = \"demo.wired\";
    pub const UNLISTED: &str = \"demo.unlisted\";
    pub const UNWIRED: &str = \"demo.unwired\";
    pub const UNARMED: &str = \"demo.unarmed\";

    pub const ALL: &[&str] = &[
        WIRED,
        UNWIRED,
        UNARMED,
        GHOST,
    ];
}

pub fn poll(name: &str) -> bool {
    name == failpoints::WIRED || name == failpoints::UNARMED || name == failpoints::UNLISTED
}

#[cfg(test)]
mod tests {
    #[test]
    fn arms() {
        arm(super::failpoints::UNWIRED);
    }
}
";
    let arming = "\
#[test]
fn arms_by_wire_name() {
    for name in [\"demo.wired\", \"demo.unlisted\"] {
        arm(name);
    }
}
";
    let sources = [
        Source::parse("crates/demo/src/faults.rs", registry),
        Source::parse("crates/demo/tests/faults.rs", arming),
    ];
    let found: Vec<_> = check(&sources)
        .iter()
        .map(|f| (f.line, f.message.clone()))
        .collect();
    let expect = [
        (4, "failpoint `UNLISTED` is not listed in `ALL`"),
        (5, "failpoint `UNWIRED` is never evaluated outside tests"),
        (
            6,
            "failpoint `UNARMED` (\"demo.unarmed\") is never armed by a test",
        ),
        (8, "`ALL` lists `GHOST`, which is no failpoint here"),
    ];
    assert_eq!(found, expect.map(|(line, m)| (line, m.to_string())));
    // Without the test target, the wire-name arming is gone too.
    let found = check(&sources[..1]);
    let unarmed: Vec<usize> = found
        .iter()
        .filter(|f| f.message.contains("never armed"))
        .map(|f| f.line)
        .collect();
    assert_eq!(unarmed, [3, 4, 6]);
}

#[test]
fn a_waiver_covers_exactly_one_finding() {
    let src = "\
pub fn set(cell: &AtomicU64, v: u64) {
    // ordering: a gauge; no reader derives an edge from it.
    cell.store(v, Ordering::Relaxed);
}
";
    let path = "crates/demo/src/gauge.rs";
    let rule = "atomic-ordering-audit";
    let waiver = (path, rule, "cell.store(v, Ordering::Relaxed);");
    let found = || check(&[Source::parse(path, src)]);
    assert_eq!(report(&found()).lines().count(), 1);
    assert!(waive(found(), &[waiver]).is_ok_and(|left| left.is_empty()));
    let stale = (path, rule, "cell.store(v, Ordering::Release);");
    for waivers in [[waiver, stale], [waiver, waiver]] {
        let err = waive(found(), &waivers)
            .err()
            .expect("a waiver with nothing to cover fails");
        assert!(err.contains("matches 0 findings"), "{err}");
    }
}
