//! The rule engine: the workspace contracts no compiler lint can state,
//! checked per file and across the item index.
//!
//! Per-file rules work directly on the output of [`crate::lex`] — no
//! AST, no type information. Cross-file rules additionally consume the
//! phase-1 [`crate::graph::SymbolGraph`] (items, call sites by name,
//! path references, string literals). This is a *lint*, not a proof:
//! each rule documents its approximation, and per-line / per-file allow
//! markers (`// analyze:allow(<rule>) <reason>`) record the human
//! judgement for sites the heuristic cannot clear on its own. A marker
//! without a reason, or naming an unknown or retired rule, is itself
//! reported (as `allow-marker`) so suppressions stay auditable.
//!
//! Five earlier rules are clippy lints now ([`RETIRED`], DESIGN.md §12);
//! what stays here has no lint:
//!
//! * `typed-errors` — `pub fn … -> Result<_, E>` must not use `String`,
//!   `&str`, or `Box<dyn …>` as `E`.
//! * `atomic-ordering-audit` — every `Relaxed`/`Acquire`/`Release`/
//!   `AcqRel`/`SeqCst` memory-ordering site needs an adjacent
//!   `// ordering:` justification, and `Relaxed` is denied outright
//!   inside `.store(`/`.swap(`/`.compare_exchange(` argument lists
//!   (publishing stores must synchronize; only an allow marker clears
//!   them).
//! * `wal-ordering` (cross-file) — a function that both appends to the
//!   journal and applies state must append first; in persist code,
//!   `rename` must be preceded by an fsync-family call in the same
//!   function.
//! * `failpoint-coverage` (cross-file) — every const in a `mod
//!   failpoints` registry must be listed in `ALL`, evaluated somewhere in
//!   non-test code, and armed in at least one test.
//!
//! Test code — items under `#[test]` / `#[cfg(test)]` (without `not`),
//! and whole files under `tests/` / `benches/` — is exempt from the
//! contracts; test-target files still get allow-marker hygiene checks,
//! and their tokens feed the index as arming evidence.

use crate::graph::{RawCall, Symbol, SymbolGraph, SymbolKind};
use crate::lex::{Tok, TokKind};
use crate::Finding;

/// The contract rules plus the marker-hygiene meta rule.
pub const RULES: [&str; 5] = [
    "typed-errors",
    "atomic-ordering-audit",
    "wal-ordering",
    "failpoint-coverage",
    "allow-marker",
];

/// Rules that became clippy lints, with the lint that holds the contract
/// now: a marker still naming one waives nothing and is reported.
pub const RETIRED: [(&str, &str); 5] = [
    ("unsafe-safety-comment", "undocumented_unsafe_blocks"),
    ("panic-free-hot-path", "unwrap_used / indexing_slicing"),
    ("hot-path-transitive", "unwrap_used / indexing_slicing"),
    ("cast-truncation", "cast_possible_truncation"),
    ("determinism", "disallowed_types / iter_over_hash_type"),
];

/// `true` when `name` is a known rule.
pub fn is_rule(name: &str) -> bool {
    RULES.contains(&name)
}

/// One parsed `analyze:allow` marker.
struct Allow {
    rule: String,
    /// Marker line; suppression covers this line and the next code line.
    line: u32,
    whole_file: bool,
}

/// Strips comment sigils (`//`, `///`, `//!`, `/*`, `*/`) and
/// whitespace from a comment token's text.
fn comment_body(text: &str) -> &str {
    let t = text
        .trim_start_matches('/')
        .trim_start_matches('*')
        .trim_start_matches('!')
        .trim_end_matches('/')
        .trim_end_matches('*');
    t.trim()
}

/// Parses allow markers out of comment tokens; malformed markers become
/// `allow-marker` findings.
fn collect_allows(toks: &[Tok<'_>], findings: &mut Vec<Finding>) -> Vec<Allow> {
    let mut allows = Vec::new();
    for t in toks.iter().filter(|t| t.is_comment()) {
        let body = comment_body(t.text);
        let (whole_file, rest) = if let Some(r) = body.strip_prefix("analyze:allow-file") {
            (true, r)
        } else if let Some(r) = body.strip_prefix("analyze:allow") {
            (false, r)
        } else {
            continue;
        };
        let bad = |msg: String, findings: &mut Vec<Finding>| {
            findings.push(Finding::new("allow-marker", t.line, msg));
        };
        let Some(inner) = rest.strip_prefix('(').and_then(|r| r.split_once(')')) else {
            bad(
                "malformed allow marker: expected `analyze:allow(<rule>) <reason>`".to_string(),
                findings,
            );
            continue;
        };
        let (rule_list, reason) = inner;
        if reason.trim().is_empty() {
            bad(
                "allow marker without a reason: state why the rule is safe to waive here"
                    .to_string(),
                findings,
            );
            continue;
        }
        for rule in rule_list.split(',') {
            let rule = rule.trim();
            if let Some((_, lint)) = RETIRED.iter().find(|(r, _)| *r == rule) {
                bad(
                    format!(
                        "allow marker names retired rule `{rule}`: clippy holds that contract \
                         now ({lint}); waive it with `#[allow(clippy::.., reason = \"..\")]`"
                    ),
                    findings,
                );
                continue;
            }
            if !is_rule(rule) || rule == "allow-marker" {
                bad(
                    format!("allow marker names unknown rule `{rule}`"),
                    findings,
                );
                continue;
            }
            allows.push(Allow {
                rule: rule.to_string(),
                line: t.line,
                whole_file,
            });
        }
    }
    allows
}

/// Marks which tokens sit inside test-only items: any item annotated
/// `#[test]` or `#[cfg(test)]` (more precisely: an attribute mentioning
/// `test` without `not`), through the end of its `{…}` body (or `;`).
pub fn test_mask(toks: &[Tok<'_>]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let code: Vec<usize> = (0..toks.len()).filter(|&i| !toks[i].is_comment()).collect();
    let mut c = 0usize;
    while c < code.len() {
        let i = code[c];
        if !(toks[i].is_punct("#") && c + 1 < code.len() && toks[code[c + 1]].is_punct("[")) {
            c += 1;
            continue;
        }
        // Scan the attribute body for `test` not wrapped in `not(…)`.
        let mut depth = 0i32;
        let mut has_test = false;
        let mut has_not = false;
        let mut c2 = c + 1;
        while c2 < code.len() {
            let t = &toks[code[c2]];
            if t.is_punct("[") {
                depth += 1;
            } else if t.is_punct("]") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if t.is_ident("test") {
                has_test = true;
            } else if t.is_ident("not") {
                has_not = true;
            }
            c2 += 1;
        }
        if !has_test || has_not {
            c = c2 + 1;
            continue;
        }
        // Skip any further attributes, then blank out to the end of the
        // annotated item: its matching `}` (or a `;` for bodiless items).
        let region_start = c;
        let mut c3 = c2 + 1;
        while c3 + 1 < code.len()
            && toks[code[c3]].is_punct("#")
            && toks[code[c3 + 1]].is_punct("[")
        {
            let mut d = 0i32;
            while c3 < code.len() {
                let t = &toks[code[c3]];
                if t.is_punct("[") {
                    d += 1;
                } else if t.is_punct("]") {
                    d -= 1;
                    if d == 0 {
                        break;
                    }
                }
                c3 += 1;
            }
            c3 += 1;
        }
        let mut brace = 0i32;
        let mut end = c3;
        while end < code.len() {
            let t = &toks[code[end]];
            if t.is_punct("{") {
                brace += 1;
            } else if t.is_punct("}") {
                brace -= 1;
                if brace == 0 {
                    break;
                }
            } else if t.is_punct(";") && brace == 0 {
                break;
            }
            end += 1;
        }
        let end_tok = if end < code.len() {
            code[end]
        } else {
            toks.len() - 1
        };
        for m in mask.iter_mut().take(end_tok + 1).skip(code[region_start]) {
            *m = true;
        }
        c = end + 1;
    }
    mask
}

/// Indices of non-comment tokens, the stream most rules pattern-match on.
fn code_indices(toks: &[Tok<'_>]) -> Vec<usize> {
    (0..toks.len()).filter(|&i| !toks[i].is_comment()).collect()
}

/// The five atomic memory-ordering names.
const ORDERINGS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];
/// Atomic methods whose stored value another thread may load: `Relaxed`
/// is denied inside their argument lists.
const PUBLISH_METHODS: [&str; 4] = ["store", "swap", "compare_exchange", "compare_exchange_weak"];

/// Rule `atomic-ordering-audit`: every memory-ordering site must carry
/// an adjacent `// ordering:` justification (same line or the three
/// lines above, mirroring the SAFETY rule), and `Relaxed` is denied
/// inside publishing-method argument lists regardless of comments — a
/// relaxed publish is a correctness bug unless an allow marker records
/// why no other thread reads the value.
///
/// Approximation: any `Relaxed`/`Acquire`/`Release`/`AcqRel`/`SeqCst`
/// identifier outside `use` declarations is treated as an ordering site
/// (`std::cmp::Ordering`'s variants don't collide). "Inside a publish
/// call" means lexically inside the parens of `.store(` / `.swap(` /
/// `.compare_exchange[_weak](`.
fn rule_atomic(toks: &[Tok<'_>], code: &[usize], skip: &[bool], findings: &mut Vec<Finding>) {
    // Token spans of publishing-method argument lists.
    let mut publish_spans: Vec<(usize, usize)> = Vec::new();
    for (c, &i) in code.iter().enumerate() {
        if !toks[i].is_punct(".") || c + 2 >= code.len() {
            continue;
        }
        let name = &toks[code[c + 1]];
        if !(name.kind == TokKind::Ident && PUBLISH_METHODS.contains(&name.text)) {
            continue;
        }
        if !toks[code[c + 2]].is_punct("(") {
            continue;
        }
        let mut depth = 0i32;
        let mut c2 = c + 2;
        while c2 < code.len() {
            let t = &toks[code[c2]];
            if t.is_punct("(") {
                depth += 1;
            } else if t.is_punct(")") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            c2 += 1;
        }
        if c2 < code.len() {
            publish_spans.push((code[c + 2], code[c2]));
        }
    }

    let mut in_use = false;
    for &i in code {
        let t = &toks[i];
        if t.is_ident("use") {
            in_use = true;
        } else if in_use {
            if t.is_punct(";") {
                in_use = false;
            }
            continue;
        }
        if skip[i] || t.kind != TokKind::Ident || !ORDERINGS.contains(&t.text) {
            continue;
        }
        let justified = toks.iter().any(|c| {
            c.is_comment()
                && c.text.contains("ordering:")
                && c.line <= t.line
                && c.line + 3 >= t.line
        });
        if !justified {
            findings.push(Finding::new(
                "atomic-ordering-audit",
                t.line,
                format!(
                    "atomic ordering `{}` without an adjacent `// ordering:` justification \
                     (same line or the three lines above): state what this ordering \
                     synchronizes with, or why it doesn't need to",
                    t.text
                ),
            ));
        }
        if t.is_ident("Relaxed") && publish_spans.iter().any(|&(a, b)| a <= i && i <= b) {
            findings.push(Finding::new(
                "atomic-ordering-audit",
                t.line,
                "`Relaxed` on a publishing store/swap/compare_exchange: another thread \
                 loading this value gets no happens-before edge; use `Release` (or \
                 stronger), or allow-mark with why the value is never read cross-thread"
                    .to_string(),
            ));
        }
    }
}

/// Rule `typed-errors`: `pub fn … -> Result<_, String | &str | Box<dyn …>>`.
fn rule_typed_errors(toks: &[Tok<'_>], code: &[usize], skip: &[bool], findings: &mut Vec<Finding>) {
    for (c, &i) in code.iter().enumerate() {
        if skip[i] || !toks[i].is_ident("pub") {
            continue;
        }
        // Qualified visibility (`pub(crate)` etc.) is not public API.
        if c + 1 < code.len() && toks[code[c + 1]].is_punct("(") {
            continue;
        }
        // Find `fn` within the item qualifiers (`const unsafe extern "<abi>" …`).
        let mut c2 = c + 1;
        let mut is_fn = false;
        while c2 < code.len() && c2 <= c + 5 {
            let t = &toks[code[c2]];
            if t.is_ident("fn") {
                is_fn = true;
                break;
            }
            if !(t.kind == TokKind::Str
                || t.is_ident("const")
                || t.is_ident("unsafe")
                || t.is_ident("async")
                || t.is_ident("extern"))
            {
                break;
            }
            c2 += 1;
        }
        if !is_fn {
            continue;
        }
        let fn_line = toks[code[c2]].line;
        // Skip to the parameter list's `(` (past name and generics).
        let mut angle = 0i32;
        let mut c3 = c2 + 1;
        while c3 < code.len() {
            let t = &toks[code[c3]];
            if t.is_punct("<") {
                angle += 1;
            } else if t.is_punct(">") {
                angle -= 1;
            } else if t.is_punct("(") && angle == 0 {
                break;
            }
            c3 += 1;
        }
        // Match the parameter parens.
        let mut paren = 0i32;
        while c3 < code.len() {
            let t = &toks[code[c3]];
            if t.is_punct("(") {
                paren += 1;
            } else if t.is_punct(")") {
                paren -= 1;
                if paren == 0 {
                    break;
                }
            }
            c3 += 1;
        }
        // Return type, if any.
        if !(c3 + 1 < code.len() && toks[code[c3 + 1]].is_punct("->")) {
            continue;
        }
        let ret_start = c3 + 2;
        let mut ret_end = ret_start;
        while ret_end < code.len() {
            let t = &toks[code[ret_end]];
            if t.is_punct("{") || t.is_punct(";") || t.is_ident("where") {
                break;
            }
            ret_end += 1;
        }
        if let Some(bad) = stringly_result_error(toks, &code[ret_start..ret_end]) {
            findings.push(Finding::new(
                "typed-errors",
                fn_line,
                format!(
                    "public `Result` API with stringly error type `{bad}`; define a \
                     typed error enum implementing `Display` + `Error`"
                ),
            ));
        }
    }
}

/// Inspects a return-type token run for `Result<…, String | &str |
/// Box<dyn …>>`, returning the offending error type's name.
fn stringly_result_error(toks: &[Tok<'_>], ret: &[usize]) -> Option<&'static str> {
    for (r, &i) in ret.iter().enumerate() {
        if !toks[i].is_ident("Result") {
            continue;
        }
        if !(r + 1 < ret.len() && toks[ret[r + 1]].is_punct("<")) {
            continue;
        }
        // Split Result's generic args at top-level commas.
        let mut depth = 0i32;
        let mut last_arg_start = r + 2;
        let mut end = ret.len();
        for (r2, &j) in ret.iter().enumerate().skip(r + 1) {
            let t = &toks[j];
            if t.is_punct("<") || t.is_punct("(") || t.is_punct("[") {
                depth += 1;
            } else if t.is_punct(">") || t.is_punct(")") || t.is_punct("]") {
                depth -= 1;
                if depth == 0 {
                    end = r2;
                    break;
                }
            } else if t.is_punct(",") && depth == 1 {
                last_arg_start = r2 + 1;
            }
        }
        let err_arg = &ret[last_arg_start..end];
        let names: Vec<&str> = err_arg
            .iter()
            .map(|&j| toks[j].text)
            .filter(|s| *s != "::" && *s != "std" && *s != "string")
            .collect();
        match names.as_slice() {
            ["String"] => return Some("String"),
            ["&", "str"] | ["&", _, "str"] => return Some("&str"),
            _ if names.first() == Some(&"Box") && names.contains(&"dyn") => {
                return Some("Box<dyn …>")
            }
            _ => {}
        }
    }
    None
}

/// Runs every per-file rule over one file's token stream, honouring
/// allow markers. The returned findings carry no path (the caller
/// attaches it).
pub fn scan_tokens(toks: &[Tok<'_>]) -> Vec<Finding> {
    let code = code_indices(toks);
    let skip = test_mask(toks);
    let mut findings = Vec::new();
    let allows = collect_allows(toks, &mut findings);

    rule_typed_errors(toks, &code, &skip, &mut findings);
    rule_atomic(toks, &code, &skip, &mut findings);

    apply_allows(toks, &code, &allows, &mut findings);
    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    findings
}

/// Marker hygiene for test-target files (`tests/`, `benches/`): the
/// contracts don't apply there, but a malformed or unknown-rule allow
/// marker is still reported so suppressions stay auditable everywhere.
pub fn scan_markers(toks: &[Tok<'_>]) -> Vec<Finding> {
    let mut findings = Vec::new();
    let _ = collect_allows(toks, &mut findings);
    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    findings
}

/// Applies a file's allow markers to findings produced elsewhere (the
/// cross-file rules attribute findings to a target file; that file's
/// markers must still be able to waive them).
pub fn suppress(toks: &[Tok<'_>], mut findings: Vec<Finding>) -> Vec<Finding> {
    let code = code_indices(toks);
    let allows = collect_allows(toks, &mut Vec::new());
    apply_allows(toks, &code, &allows, &mut findings);
    findings
}

/// Drops findings covered by allow markers: a marker covers its own
/// line plus the whole statement that starts on the next code line —
/// through the first `;`, `{`, or `}` after the marker — so multi-line
/// statements stay coverable without the marker reaching past them.
fn apply_allows(toks: &[Tok<'_>], code: &[usize], allows: &[Allow], findings: &mut Vec<Finding>) {
    let stmt_end_line = |line: u32| -> u32 {
        for &i in code {
            let t = &toks[i];
            if t.line <= line {
                continue;
            }
            if t.is_punct(";") || t.is_punct("{") || t.is_punct("}") {
                return t.line;
            }
        }
        u32::MAX
    };
    findings.retain(|f| {
        !allows.iter().any(|a| {
            a.rule == f.rule
                && (a.whole_file
                    || f.line == a.line
                    || (f.line > a.line && f.line <= stmt_end_line(a.line)))
        })
    });
}

/// Runs the cross-file rules over the phase-1 index. Returns findings
/// tagged with the index of the file they belong to; the driver
/// attaches paths and applies that file's allow markers via
/// [`suppress`].
pub fn scan_graph(g: &SymbolGraph) -> Vec<(usize, Finding)> {
    let mut out = Vec::new();
    rule_wal(g, &mut out);
    rule_failpoints(g, &mut out);
    out
}

/// State-apply entry points paired against journal `append_batch`.
const APPLY_FNS: [&str; 2] = ["apply_deltas", "apply_deltas_with"];
/// Durability calls that must precede `rename` in checkpoint code.
const SYNC_FNS: [&str; 4] = ["sync_all", "sync_data", "fsync_file", "fsync"];

/// Rule `wal-ordering`: (a) any function that both journals
/// (`append_batch`) and applies state (`apply_deltas*`) must journal
/// first — token order approximates path order, which is exact for the
/// straight-line feed loops this protects; (b) in persist files,
/// `rename` must be preceded by an fsync-family call in the same
/// function (write-temp → fsync → rename).
fn rule_wal(g: &SymbolGraph, out: &mut Vec<(usize, Finding)>) {
    let mut per_fn: std::collections::BTreeMap<usize, Vec<&RawCall>> =
        std::collections::BTreeMap::new();
    for call in &g.calls {
        if call.in_test || g.symbols[call.caller].in_test {
            continue;
        }
        per_fn.entry(call.caller).or_default().push(call);
    }
    for (sid, calls) in per_fn {
        let s = &g.symbols[sid];
        if let Some(first_append) = calls
            .iter()
            .filter(|c| c.name == "append_batch")
            .map(|c| c.tok)
            .min()
        {
            for c in &calls {
                if APPLY_FNS.contains(&c.name.as_str()) && c.tok < first_append {
                    out.push((
                        s.file,
                        Finding::new(
                            "wal-ordering",
                            c.line,
                            format!(
                                "`{}` applies state before the first journal `append_batch` \
                                 in `{}`: the WAL contract is append-before-apply on every \
                                 path (a crash here loses a batch the journal never saw)",
                                c.name, s.name
                            ),
                        ),
                    ));
                }
            }
        }
        if g.files[s.file].contains("persist") {
            for c in &calls {
                if c.name != "rename" {
                    continue;
                }
                let synced = calls
                    .iter()
                    .any(|c2| SYNC_FNS.contains(&c2.name.as_str()) && c2.tok < c.tok);
                if !synced {
                    out.push((
                        s.file,
                        Finding::new(
                            "wal-ordering",
                            c.line,
                            format!(
                                "`rename` in `{}` without a preceding fsync-family call: \
                                 checkpoint durability requires the temp file synced before \
                                 it is atomically renamed into place",
                                s.name
                            ),
                        ),
                    ));
                }
            }
        }
    }
}

/// Rule `failpoint-coverage`: for every `mod failpoints` registry —
/// string consts plus an `ALL` slice — require (a) every const listed
/// in `ALL` and vice versa, (b) a non-test `failpoints::NAME` reference
/// (the seam is actually evaluated), and (c) a test reference or a test
/// string literal matching the failpoint's wire name (the seam is armed
/// by at least one fault-injection test).
fn rule_failpoints(g: &SymbolGraph, out: &mut Vec<(usize, Finding)>) {
    for m in &g.symbols {
        if m.kind != SymbolKind::Mod || m.name != "failpoints" || m.in_test {
            continue;
        }
        let regmod = if m.module.is_empty() {
            "failpoints".to_string()
        } else {
            format!("{}::failpoints", m.module)
        };
        let consts: Vec<&Symbol> = g
            .symbols
            .iter()
            .filter(|s| {
                s.kind == SymbolKind::Const
                    && s.module == regmod
                    && s.str_value.is_some()
                    && s.name != "ALL"
            })
            .collect();
        if consts.is_empty() {
            continue;
        }
        let all = g
            .symbols
            .iter()
            .find(|s| s.kind == SymbolKind::Const && s.module == regmod && s.name == "ALL");
        let referenced = |name: &str, want_test: bool| {
            g.refs.iter().any(|r| {
                r.in_test == want_test
                    && r.path.len() >= 2
                    && r.path[r.path.len() - 1] == name
                    && r.path[r.path.len() - 2] == "failpoints"
            })
        };
        for c in &consts {
            if let Some(all) = all {
                if !all.init_idents.iter().any(|n| n == &c.name) {
                    out.push((
                        c.file,
                        Finding::new(
                            "failpoint-coverage",
                            c.line,
                            format!(
                                "failpoint `{}` is not listed in `{regmod}::ALL`: registry \
                                 drift — `all()` consumers will never see it",
                                c.name
                            ),
                        ),
                    ));
                }
            }
            let value = c.str_value.as_deref().unwrap_or("");
            if !referenced(&c.name, false) {
                out.push((
                    c.file,
                    Finding::new(
                        "failpoint-coverage",
                        c.line,
                        format!(
                            "failpoint `{}` (\"{value}\") is never evaluated in non-test \
                             code: the seam it guards is gone or was never wired",
                            c.name
                        ),
                    ),
                ));
            }
            let armed =
                referenced(&c.name, true) || g.strs.iter().any(|s| s.in_test && s.value == value);
            if !armed {
                out.push((
                    c.file,
                    Finding::new(
                        "failpoint-coverage",
                        c.line,
                        format!(
                            "failpoint `{}` is never armed in any test: every registered \
                             seam needs at least one fault-injection test",
                            c.name
                        ),
                    ),
                ));
            }
        }
        if let Some(all) = all {
            for ident in &all.init_idents {
                if !consts.iter().any(|c| &c.name == ident) {
                    out.push((
                        all.file,
                        Finding::new(
                            "failpoint-coverage",
                            all.line,
                            format!(
                                "`{regmod}::ALL` lists `{ident}`, which is not a string \
                                 const registered in the module"
                            ),
                        ),
                    ));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::lex;

    fn scan(src: &str) -> Vec<Finding> {
        scan_tokens(&lex(src))
    }

    fn rules_of(findings: &[Finding]) -> Vec<&str> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn typed_errors_on_public_results() {
        let bad = "pub fn f() -> Result<(), String> { Ok(()) }";
        assert_eq!(rules_of(&scan(bad)), vec!["typed-errors"]);
        let boxed = "pub fn f() -> Result<u8, Box<dyn std::error::Error>> { Ok(0) }";
        assert_eq!(rules_of(&scan(boxed)), vec!["typed-errors"]);
        let ok_typed = "pub fn f() -> Result<String, MyError> { Ok(String::new()) }";
        assert!(scan(ok_typed).is_empty());
        let crate_vis = "pub(crate) fn f() -> Result<(), String> { Ok(()) }";
        assert!(scan(crate_vis).is_empty());
    }

    #[test]
    fn allow_markers_suppress_and_are_audited() {
        let marked = "// analyze:allow(typed-errors) frozen caller.\npub fn f() -> Result<(), String> {\n    Ok(())\n}";
        assert!(scan(marked).is_empty());
        let trailing =
            "fn f(c: &AtomicU64) {\n    c.load(Relaxed); // analyze:allow(atomic-ordering-audit) stats only.\n}";
        assert!(scan(trailing).is_empty());
        let no_reason =
            "// analyze:allow(typed-errors)\npub fn f() -> Result<(), String> { Ok(()) }";
        assert_eq!(
            rules_of(&scan(no_reason)),
            vec!["allow-marker", "typed-errors"]
        );
        let unknown = "// analyze:allow(no-such-rule) whatever\nfn f() {}";
        assert_eq!(rules_of(&scan(unknown)), vec!["allow-marker"]);
        let file_wide = "//! analyze:allow-file(typed-errors) generated bindings.\npub fn f() -> Result<(), String> { Ok(()) }\npub fn g() -> Result<(), &str> { Ok(()) }";
        assert!(scan(file_wide).is_empty());
    }

    #[test]
    fn a_marker_naming_a_retired_rule_is_a_finding() {
        for (rule, _) in RETIRED {
            let src = format!("// analyze:allow({rule}) once a waiver.\nfn f() {{}}");
            let found = scan(&src);
            assert_eq!(rules_of(&found), vec!["allow-marker"], "{rule}");
            assert!(found[0].message.contains("retired"), "{}", found[0].message);
            assert!(!is_rule(rule));
        }
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    pub fn h() -> Result<(), String> { c.load(Relaxed); Ok(()) }\n}";
        assert!(scan(src).is_empty());
        // `cfg(not(test))` is live code.
        let not_test = "#[cfg(not(test))]\npub fn live() -> Result<(), String> { Ok(()) }";
        assert_eq!(rules_of(&scan(not_test)), vec!["typed-errors"]);
    }
}
