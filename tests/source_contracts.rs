//! The source contracts no compiler lint can state (DESIGN.md §12), read
//! from every `.rs` file of the repository as lines:
//!
//! * `typed-errors`: a `pub fn` returning `Result<_, E>` has no `String`,
//!   `&str` or `Box<dyn …>` as `E`.
//! * `atomic-ordering-audit`: every `Relaxed` / `Acquire` / `Release` /
//!   `AcqRel` / `SeqCst` has `// ordering:` on its line or one of the
//!   three above, and `Relaxed` never sits in the arguments of `.store(`,
//!   `.swap(` or `.compare_exchange*(`.
//! * `wal-ordering`: no function calls `apply_deltas` before its first
//!   `append_batch`, and in a `persist` path a `rename` comes after a
//!   `sync_all` / `sync_data` / `fsync_file` / `fsync` in the same
//!   function.
//! * `failpoint-coverage`: every const of a `mod failpoints` is in its
//!   `ALL`, named as `failpoints::NAME` by non-test code, and named by a
//!   test, by that path or by its wire string.
//! * `product-closure`: the `[dependencies]` of a product crate's
//!   `Cargo.toml` (`PRODUCT`: what `netclust cluster` and `netclustd` are
//!   built from) name product crates only — no simulator, prober or study
//!   library rides into the daemon.
//! * `pub-fn-caller`: every `pub fn` of a product crate is named by
//!   non-test code the product is built from — a product crate's `src/`
//!   or the root `src/` — or by `benchmark/benches/`: a function only
//!   tests, studies or examples call is not product. A name inside
//!   another product `pub fn` counts only once that function is itself
//!   counted, so one waived or test-only function keeps no helper chain.
//!   A method (a `self` receiver) is named by its name, but after a `.`
//!   only as a call, `(` or `::<` next — `self.name += 1` reads a field —
//!   and never followed by a lone `:`, which declares a field or a
//!   binding; an associated function of an `impl Type` only by its path,
//!   `Type::name` or, inside an impl of `Type`, `Self::name`.
//! * `one-temp-guard`: no file outside `crates/testkit` calls
//!   `temp_dir()`: a test's files live in a `netclust_testkit::TempDir`,
//!   which removes them when a failing assertion unwinds too. The frozen
//!   harness under `benchmark/` is exempt.
//!
//! And the one OS seam: `crates/sys` is the only crate that may hold
//! `unsafe` code, and it holds every `extern "C"` of the product.
//!
//! Lines are enough because `cargo fmt --check` is a CI gate: an item
//! ends at the first line that is its own indent followed by `}`. The
//! same rule masks `#[test]` / `#[cfg(test)]` items, which are exempt, as
//! are whole files under `tests/` or `benches/`; a test there still arms
//! a failpoint, and `one-temp-guard` holds tests above all. A rule reads code with comments cut and string contents
//! blanked. The scan skips `target/`, hidden directories and the two
//! vendored shims.

use std::collections::BTreeMap;
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
    // The benchmark harness imports `ZipfSampler` from weblog.
    (
        "crates/weblog/Cargo.toml",
        "product-closure",
        "rand = { workspace = true }",
    ),
    // Seams only tests observe; each site says what observes it.
    (
        "crates/core/src/persist/mod.rs",
        "pub-fn-caller",
        "pub fn take_faults(&mut self) -> FaultInjector {",
    ),
    (
        "crates/core/src/persist/mod.rs",
        "pub-fn-caller",
        "pub fn compact_threshold(mut self, bytes: u64) -> Self {",
    ),
    (
        "crates/core/src/persist/state.rs",
        "pub-fn-caller",
        "pub fn decode_state(bytes: &[u8]) -> Result<StreamState, StateDecodeError> {",
    ),
    (
        "crates/core/src/ingest.rs",
        "pub-fn-caller",
        "pub fn chunk_bytes(mut self, bytes: usize) -> Self {",
    ),
    (
        "crates/weblog/src/chunk.rs",
        "pub-fn-caller",
        "pub fn is_mapped(&self) -> bool {",
    ),
    (
        "crates/core/src/stream.rs",
        "pub-fn-caller",
        "pub fn ledger(&self) -> StreamWork {",
    ),
    (
        "crates/core/src/stream.rs",
        "pub-fn-caller",
        "pub fn swap_policy(mut self, policy: SwapPolicy) -> Self {",
    ),
    // The request parser's work count: `http_prop`'s linear-work property.
    (
        "crates/serve/src/http.rs",
        "pub-fn-caller",
        "pub fn examined(&self) -> usize {",
    ),
    // The studies' in-memory entries to the batch clustering: by one of
    // the paper's methods, and by any assigner.
    (
        "crates/core/src/cluster.rs",
        "pub-fn-caller",
        "pub fn by(hits: impl IntoIterator<Item = (u32, u32, u32)>, how: Assigner<'_>) -> Self {",
    ),
    (
        "crates/core/src/cluster.rs",
        "pub-fn-caller",
        "pub fn build<F>(",
    ),
];

/// The product crates, by directory under `crates/`.
const PRODUCT: [&str; 7] = ["prefix", "rtable", "obs", "sys", "weblog", "core", "serve"];

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

/// The type an `impl` header is for: `Type` of `impl<T> Trait for
/// path::Type<T> {`.
fn impl_type(code: &str) -> Option<&str> {
    let mut rest = code.strip_prefix("impl")?;
    if rest.starts_with('<') {
        let mut depth = 0;
        let mut prev = ' ';
        for (i, c) in rest.char_indices() {
            match c {
                '<' => depth += 1,
                '>' if prev != '-' => depth -= 1,
                _ => {}
            }
            prev = c;
            if depth == 0 {
                rest = &rest[i + 1..];
                break;
            }
        }
    } else if !rest.starts_with(' ') {
        return None;
    }
    let rest = rest
        .rsplit_once(" for ")
        .map_or(rest, |(_, ty)| ty)
        .trim_start();
    let end = rest
        .find(|c| !is_ident(c) && c != ':')
        .unwrap_or(rest.len());
    rest[..end].rsplit("::").next().filter(|ty| !ty.is_empty())
}

/// Whether the function signature `sig` takes a `self` receiver.
fn has_receiver(sig: &str) -> bool {
    let params = sig.split_once('(').map_or("", |(_, p)| p);
    let first = params.split([',', ')']).next().unwrap_or("").trim();
    let first = first.trim_start_matches('&');
    let first = match first.strip_prefix('\'') {
        Some(life) => life.trim_start_matches(is_ident).trim_start(),
        None => first,
    };
    let first = first.strip_prefix("mut ").unwrap_or(first);
    first == "self" || first.starts_with("self:")
}

/// The path `Type::` (or `Type::<…>::`) that ends `before`, the code in
/// front of a name, if any.
fn qualifier(before: &str) -> Option<&str> {
    let mut path = before.strip_suffix("::")?;
    if path.ends_with('>') {
        path = &path[..path.rfind("::<")?];
    }
    let ty = &path[path.trim_end_matches(is_ident).len()..];
    (!ty.is_empty()).then_some(ty)
}

/// Whether the word at `code[start..end]` is a field or a binding, not a
/// function: it follows a `.` and no call follows it (`(` or a turbofish
/// `::<`), or a lone `:` follows it (`name: Type`, `name: value`).
fn is_field(code: &str, start: usize, end: usize) -> bool {
    let after = &code[end..];
    let read = code[..start].ends_with('.') && !after.starts_with('(') && !after.starts_with("::<");
    read || (after.starts_with(':') && !after.starts_with("::"))
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

    /// The type of the innermost `impl` block that holds each line.
    fn impls(&self) -> Vec<Option<&str>> {
        let mut owner = vec![None; self.lines.len()];
        for i in 0..self.lines.len() {
            if let Some(ty) = impl_type(self.code_line(i).trim_start()) {
                owner[i..=self.item_end(i)].fill(Some(ty));
            }
        }
        owner
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

const APPLY: [&str; 1] = ["apply_deltas"];
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

/// `pub-fn-caller`: a product `pub fn` that no counted line names, its
/// own declaration aside. A line counts when it is non-test code of the
/// product — a product crate's `src/` or the root `src/` (the `netclust`
/// binary and facade); the study crates and `examples/` are not — or of
/// `benchmark/benches/`, whose harness drives the product's layers by
/// name; and, inside a product `pub fn`, only when that function is
/// itself counted as named. So a helper named only by a function that a
/// waiver keeps, or that only tests call, is reported too. Lines of the
/// root `src/`, of the harness and of other functions (private ones,
/// which the compiler's dead-code lint holds, trait methods, `main`)
/// always count. A method is named by its name alone, since a line does
/// not show the type of an inferred receiver — but a word after a `.`
/// names it only when a call follows, `(` or `::<`, since without one it
/// is a field access, and a word a lone `:` follows (a field or binding
/// declared) names nothing; an associated function (no `self`) of an
/// `impl Type` only as `Type::name`, or as `Self::name` inside an impl of
/// `Type`.
fn pub_fn_callers(sources: &[Source], out: &mut Vec<Finding>) {
    // The rule's subjects: (source, line, name, the impl type of an
    // associated function), and which one owns each line of a source.
    let mut subjects = Vec::new();
    let mut owners: Vec<Vec<Option<usize>>> = Vec::new();
    for (file, src) in sources.iter().enumerate() {
        let mut owner = vec![None; src.lines.len()];
        if product_src(&src.path) {
            let impls = src.impls();
            for i in (0..src.lines.len()).filter(|&i| !src.lines[i].test) {
                let code = src.code_line(i).trim_start();
                let Some(name) = fn_name(code).filter(|_| code.starts_with("pub ")) else {
                    continue;
                };
                let ty = impls[i].filter(|_| !has_receiver(&src.signature(i)));
                owner[i..=src.item_end(i)].fill(Some(subjects.len()));
                subjects.push((file, i, name, ty));
            }
        }
        owners.push(owner);
    }
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (s, subject) in subjects.iter().enumerate() {
        by_name.entry(subject.2).or_default().push(s);
    }
    // The subjects a name found as `(word, qualifier)` names.
    let named = |(word, ty): (&str, Option<&str>)| -> Vec<usize> {
        let of = |s: &&usize| subjects[**s].3.is_none_or(|of| ty == Some(of));
        by_name[word].iter().filter(of).copied().collect()
    };
    // Each subject's name a counted line holds, with the subject whose
    // body holds it (`always`: a line that always counts).
    let mut bodies: Vec<Vec<(&str, Option<&str>)>> = vec![Vec::new(); subjects.len()];
    let mut always = Vec::new();
    for (file, src) in sources.iter().enumerate() {
        let bench = src.path.starts_with("benchmark/benches/");
        let reached = bench || src.path.starts_with("src/") || product_src(&src.path);
        if !reached {
            continue;
        }
        let impls = src.impls();
        for (i, line) in src.lines.iter().enumerate() {
            if (line.test && !bench) || line.import {
                continue;
            }
            let held = match owners[file][i] {
                Some(s) => &mut bodies[s],
                None => &mut always,
            };
            let code = src.code_line(i);
            let mut start = None;
            for (j, c) in code.char_indices().chain([(code.len(), ' ')]) {
                match (is_ident(c), start) {
                    (true, None) => start = Some(j),
                    (false, Some(k)) => {
                        let word = &code[k..j];
                        if by_name.contains_key(word)
                            && !code[..k].ends_with("fn ")
                            && !is_field(code, k, j)
                        {
                            let ty = match qualifier(&code[..k]) {
                                Some("Self") => impls[i],
                                ty => ty,
                            };
                            held.push((word, ty));
                        }
                        start = None;
                    }
                    _ => {}
                }
            }
        }
    }
    // Counted subjects, from the lines that always count, through the
    // bodies of the subjects they name, until no more are found.
    let mut counted = vec![false; subjects.len()];
    let mut todo: Vec<&[(&str, Option<&str>)]> = vec![&always];
    while let Some(held) = todo.pop() {
        for &found in held {
            for s in named(found) {
                if !counted[s] {
                    counted[s] = true;
                    todo.push(&bodies[s]);
                }
            }
        }
    }
    for (s, &(file, i, name, ty)) in subjects.iter().enumerate() {
        if counted[s] {
            continue;
        }
        let shown = ty.map_or(format!("pub fn {name}"), |ty| format!("{ty}::{name}"));
        let by_uncounted = bodies
            .iter()
            .flatten()
            .any(|&found| named(found).contains(&s));
        let message = if by_uncounted {
            format!("`{shown}` is named only by functions nothing counted names")
        } else {
            format!("`{shown}` is named by no code outside tests")
        };
        out.push(sources[file].finding(i, "pub-fn-caller", message));
    }
}

/// `one-temp-guard`: every call of `temp_dir` outside the test kit and
/// the harness, in tests or not.
fn one_temp_guard(src: &Source, out: &mut Vec<Finding>) {
    if ["crates/testkit/", "benchmark/"]
        .iter()
        .any(|dir| src.path.starts_with(dir))
    {
        return;
    }
    for at in calls(&src.code, "temp_dir") {
        let message = "a temp path outside `netclust_testkit::TempDir`".to_string();
        out.push(src.finding(src.line_of(at), "one-temp-guard", message));
    }
}

/// Whether `path` is under a product crate's `src/`.
fn product_src(path: &str) -> bool {
    PRODUCT
        .iter()
        .any(|c| path.starts_with(&format!("crates/{c}/src/")))
}

/// `product-closure` over one product crate's manifest: every crate its
/// `[dependencies]` (or a `[target.….dependencies]`, or a
/// `[dependencies.NAME]` table) names must be `netclust-<PRODUCT>`.
fn product_closure(path: &str, manifest: &str, out: &mut Vec<Finding>) {
    let mut deps = false;
    for (i, raw) in manifest.lines().enumerate() {
        let line = raw.trim();
        let name = match line.strip_prefix('[') {
            Some(header) => {
                let header = header.trim_end_matches(']');
                deps = header == "dependencies" || header.ends_with(".dependencies");
                header.strip_prefix("dependencies.")
            }
            None if deps && !line.starts_with('#') => line.split_once('=').map(|(n, _)| n.trim()),
            None => None,
        };
        let Some(name) = name else { continue };
        if !name
            .strip_prefix("netclust-")
            .is_some_and(|c| PRODUCT.contains(&c))
        {
            out.push(Finding {
                path: path.to_string(),
                line: i + 1,
                rule: "product-closure",
                text: line.to_string(),
                message: format!("a product crate depends on `{name}`, which is no product crate"),
            });
        }
    }
}

/// `product-closure` over every product crate's `Cargo.toml`.
fn manifest_findings() -> Vec<Finding> {
    let mut out = Vec::new();
    for krate in PRODUCT {
        let path = format!("crates/{krate}/Cargo.toml");
        let text = fs::read_to_string(root().join(&path)).unwrap_or_else(|e| panic!("{path}: {e}"));
        product_closure(&path, &text, &mut out);
    }
    out
}

/// Every finding over `sources`, in path and line order.
fn check(sources: &[Source]) -> Vec<Finding> {
    let mut out = Vec::new();
    for src in sources.iter().filter(|s| !s.test_target) {
        typed_errors(src, &mut out);
        atomic_orderings(src, &mut out);
        wal_ordering(src, &mut out);
    }
    for src in sources {
        one_temp_guard(src, &mut out);
    }
    failpoint_coverage(sources, &mut out);
    pub_fn_callers(sources, &mut out);
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
    let mut found = check(&sources);
    found.extend(manifest_findings());
    let left = waive(found, WAIVERS).unwrap_or_else(|e| panic!("{e}"));
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
    assert_eq!(found, [(2, rule), (17, rule)]);
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
fn product_closure_fires_on_a_non_product_dependency() {
    let manifest = "\
[package]
name = \"netclust-demo\"

[dependencies]
netclust-prefix = { workspace = true }
# netclust-probe = { workspace = true }
netclust-netgen = { workspace = true }
rand = \"0.8\"
netclust-testkit = { workspace = true }

[dev-dependencies]
netclust-experiments = { workspace = true }
netclust-testkit = { workspace = true }
proptest = { workspace = true }

[target.'cfg(unix)'.dependencies]
netclust-probe = { workspace = true }

[dependencies.netclust-bgpsim]
path = \"../bgpsim\"
";
    let mut found = Vec::new();
    product_closure("crates/demo/Cargo.toml", manifest, &mut found);
    let lines: Vec<(usize, &str)> = found.iter().map(|f| (f.line, f.rule)).collect();
    let rule = "product-closure";
    assert_eq!(
        lines,
        [(7, rule), (8, rule), (9, rule), (17, rule), (19, rule)]
    );
    assert!(
        found[0].message.contains("`netclust-netgen`"),
        "{}",
        found[0]
    );
}

#[test]
fn one_temp_guard_fires_on_a_temp_path_outside_the_test_kit() {
    let src = "\
use std::env::temp_dir;
fn scratch() -> PathBuf {
    std::env::temp_dir().join(\"x\")
}
fn temp_dir() {}
fn temp_dir_of(name: &str) {}
#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        let dir = env::temp_dir();
        let guarded = TempDir::new(\"t\");
        // std::env::temp_dir() in a comment
        let s = \"temp_dir()\";
        temp_dir_of(\"t\");
    }
}
";
    let rule = "one-temp-guard";
    for path in [
        "crates/core/src/demo.rs",
        "crates/core/tests/demo.rs",
        "tests/demo.rs",
    ] {
        assert_eq!(seeded(path, src), [(3, rule), (11, rule)], "{path}");
    }
    assert_eq!(seeded("crates/testkit/src/temp.rs", src), []);
    assert_eq!(seeded("benchmark/benches/gen.rs", src), []);
}

#[test]
fn pub_fn_caller_fires_on_a_function_only_tests_name() {
    let product = "\
pub fn served() -> u64 {
    helper()
}
pub fn benched() -> u64 {
    1
}
pub fn tested_only() -> u64 {
    2 + behind_a_test()
}
pub fn unnamed() -> u64 {
    3
}
pub fn behind_a_test() -> u64 {
    0
}
pub fn waived() -> u64 {
    behind_a_waiver()
}
pub fn behind_a_waiver() -> u64 {
    0
}
pub fn studied() {}
pub fn shown() {}
pub fn shared() {}
pub(crate) fn helper() -> u64 {
    4
}
pub use self::unnamed as reexported;
pub struct Batch;
impl Batch {
    pub fn by() -> u64 {
        5
    }
}
pub struct Stream;
impl Stream {
    pub fn by() -> u64 {
        6
    }
    pub fn total(&self) -> u64 {
        Self::by()
    }
}
pub struct Parser {
    examined: usize,
}
impl Parser {
    pub fn feed(&mut self, n: usize) {
        self.examined += n;
    }
    pub fn examined(&self) -> usize {
        self.examined
    }
    pub fn pick<T>(&self) -> usize {
        self.examined
    }
}
#[cfg(test)]
mod tests {
    pub fn in_tests() {}
    #[test]
    fn t() {
        assert_eq!(super::tested_only(), 2);
        assert_eq!(super::Batch::by(), 5);
    }
}
";
    let cli = "\
fn main() {
    // unnamed() in a comment is no caller,
    let _ = \"nor unnamed() in a string\";
    println!(\"{}\", demo::served());
    println!(\"{}\", demo::Stream.total());
    let mut parser = demo::Parser { examined: 0 };
    parser.feed(1);
    println!(\"{}\", parser.pick::<u8>());
}
";
    let other_product = "fn route() {\n    demo::shared();\n    Other::by();\n}\n";
    let study = "fn main() {\n    demo::studied();\n}\n";
    let example = "fn main() {\n    demo::shown();\n}\n";
    let bench = "fn run() -> u64 {\n    demo::benched()\n}\n";
    let test = "#[test]\nfn t() {\n    demo::tested_only();\n}\n";
    let callers = |with_bench: bool| -> Vec<usize> {
        let mut sources = vec![
            Source::parse("crates/core/src/demo.rs", product),
            Source::parse("src/bin/demo.rs", cli),
            Source::parse("crates/serve/src/route.rs", other_product),
            Source::parse("crates/experiments/src/bin/demo.rs", study),
            Source::parse("examples/demo.rs", example),
            Source::parse("tests/demo.rs", test),
        ];
        if with_bench {
            sources.push(Source::parse("benchmark/benches/demo.rs", bench));
        }
        let found = check(&sources);
        let found = found.iter().filter(|f| f.rule == "pub-fn-caller");
        found.map(|f| f.line).collect()
    };
    // Named only by a study crate (22) or an example (23): no caller.
    // `behind_a_test` (13) is named only inside `tested_only` (7), which
    // only a test calls, and `behind_a_waiver` (19) only inside `waived`
    // (16), a finding a waiver keeps: no caller either. `Batch::by` (31)
    // is an associated function: `Other::by` and `Self::by` in `Stream`'s
    // impl name other ones, and a test's call is no caller. `Stream::by`
    // (37) is named by `Self::by` in its own impl, and the method `total`
    // by its name. `Parser::examined` (51) shares its name with a field
    // that is declared, initialized and read (`self.examined += n`) but
    // never called, unlike `feed` (48) and `pick` (54), called with `(`
    // and `::<`.
    assert_eq!(callers(true), [7, 10, 13, 16, 19, 22, 23, 31, 51]);
    // Without the harness, `benched` has no caller either.
    assert_eq!(callers(false), [4, 7, 10, 13, 16, 19, 22, 23, 31, 51]);
    // Waiving `waived` leaves the helper only it names.
    let found = check(&[
        Source::parse("crates/core/src/demo.rs", product),
        Source::parse("src/bin/demo.rs", cli),
    ]);
    let waiver = (
        "crates/core/src/demo.rs",
        "pub-fn-caller",
        "pub fn waived() -> u64 {",
    );
    let left = waive(found, &[waiver]).expect("the waiver covers `waived`");
    let helper = left
        .iter()
        .find(|f| f.line == 19)
        .expect("the helper fires");
    assert!(
        helper
            .message
            .contains("named only by functions nothing counted names"),
        "{helper}"
    );
    let header = "impl<'a, T: Fn() -> u8> fmt::Display for demo::Batch<'a, T> {";
    assert_eq!(impl_type(header), Some("Batch"));
    assert_eq!(impl_type("impl Stream {"), Some("Stream"));
    assert_eq!(impl_type("implied();"), None);
    assert!(has_receiver("pub fn f(&'a mut self, x: u8) {"));
    assert!(has_receiver("pub fn f(self: Arc<Self>) {"));
    assert!(!has_receiver(
        "pub fn by(hits: Vec<(u32, u32)>, selfish: u8) -> Self {"
    ));
    // A crate outside the product is not held to the rule.
    let found = check(&[Source::parse("crates/demo/src/lib.rs", product)]);
    assert!(found.iter().all(|f| f.rule != "pub-fn-caller"));
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
