//! The rule engine: workspace contracts checked per file and across the
//! symbol graph.
//!
//! Per-file rules work directly on the output of [`crate::lex`] — no
//! AST, no type information. Cross-file rules additionally consume the
//! phase-1 [`crate::graph::SymbolGraph`] (item boundaries, call edges,
//! path references). Either way this is a *lint*, not a proof: each
//! rule documents its approximation, and per-line / per-file allow
//! markers (`// analyze:allow(<rule>) <reason>`) record the human
//! judgement for sites the heuristic cannot clear on its own. A marker
//! without a reason, or naming an unknown rule, is itself reported (as
//! `allow-marker`) so suppressions stay auditable.
//!
//! Per-file rules ([`scan_source`]):
//!
//! * `unsafe-safety-comment` — every `unsafe` token outside test code
//!   must have a comment containing `SAFETY:` on its own line or within
//!   the three lines above it.
//! * `panic-free-hot-path` — in manifest-designated hot files, forbid
//!   `.unwrap()` / `.expect(` / `panic!` / `unreachable!` / `todo!` /
//!   `unimplemented!` and non-range `[index]` expressions. Range slices
//!   (`[a..b]`) are permitted: the hot parsers are structured around
//!   subslice narrowing, and every such site is covered by the
//!   SWAR/bounds proofs in the modules themselves.
//! * `cast-truncation` — flag `as u8/u16/u32/i8/i16/i32` everywhere
//!   (potentially narrowing; the scanner cannot see the source type).
//!   `as usize`/`as u64`/`as i64` are treated as widening: the
//!   workspace's mmap seam already pins it to 64-bit targets.
//! * `determinism` — forbid `SystemTime` / `Instant` everywhere, and in
//!   manifest-designated deterministic-output files, iteration over
//!   identifiers bound to `HashMap`/`HashSet` (insertion-order hazards
//!   feeding reports and merges).
//! * `typed-errors` — `pub fn … -> Result<_, E>` must not use `String`,
//!   `&str`, or `Box<dyn …>` as `E`.
//! * `atomic-ordering-audit` — every `Relaxed`/`Acquire`/`Release`/
//!   `AcqRel`/`SeqCst` memory-ordering site needs an adjacent
//!   `// ordering:` justification, and `Relaxed` is denied outright
//!   inside `.store(`/`.swap(`/`.compare_exchange(` argument lists
//!   (publishing stores must synchronize; only an allow marker clears
//!   them).
//!
//! Cross-file rules ([`scan_graph`]):
//!
//! * `hot-path-transitive` — the `panic-free-hot-path` contract
//!   propagated one call edge deep: helpers a hot function calls into
//!   (in non-hot files) are scanned with the same panic checks.
//! * `wal-ordering` — a function that both appends to the journal and
//!   applies state must append first; in persist code, `rename` must be
//!   preceded by an fsync-family call in the same function.
//! * `failpoint-coverage` — every const in a `mod failpoints` registry
//!   must be listed in `ALL`, evaluated somewhere in non-test code, and
//!   armed in at least one test.
//!
//! Driver-level (reported by [`crate::scan`]):
//!
//! * `manifest-stale-path` — a manifest entry that matches nothing on
//!   disk.
//!
//! Test code — items under `#[test]` / `#[cfg(test)]` (without `not`),
//! and whole files under `tests/` / `benches/` — is exempt from the
//! contracts; test-target files still get allow-marker hygiene checks,
//! and their tokens feed the graph as arming evidence.

use crate::graph::{RawCall, Symbol, SymbolGraph, SymbolKind};
use crate::lex::{lex, Tok, TokKind};
use crate::manifest::Manifest;
use crate::report::Finding;

/// The contract rules (per-file, cross-file, manifest) plus the
/// marker-hygiene meta rule, in report order.
pub const RULES: [&str; 11] = [
    "unsafe-safety-comment",
    "panic-free-hot-path",
    "hot-path-transitive",
    "cast-truncation",
    "determinism",
    "typed-errors",
    "atomic-ordering-audit",
    "wal-ordering",
    "failpoint-coverage",
    "manifest-stale-path",
    "allow-marker",
];

/// One-line description per rule, aligned with [`RULES`] (feeds the
/// SARIF rule metadata).
pub const RULE_HELP: [&str; 11] = [
    "`unsafe` requires an adjacent `// SAFETY:` rationale",
    "hot-path files must be panic-free (no unwrap/expect/panic!/indexing)",
    "helpers called from hot-path files must be panic-free (one edge deep)",
    "narrowing `as` casts must be audited or replaced with try_into",
    "no wall-clock values; no hash-map iteration feeding deterministic output",
    "public Result APIs must use typed errors, not String/&str/Box<dyn>",
    "atomic memory orderings need `// ordering:` justifications; Relaxed denied on publishing stores",
    "journal append must precede state apply; fsync must precede rename",
    "every registered failpoint must be in ALL, evaluated live, and armed in a test",
    "analysis manifest entries must exist on disk",
    "allow markers must name a known rule and state a reason",
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
fn test_mask(toks: &[Tok<'_>]) -> Vec<bool> {
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

/// Public view of the test mask, for phase-1 indexing ([`crate::graph`]).
pub fn test_mask_of(toks: &[Tok<'_>]) -> Vec<bool> {
    test_mask(toks)
}

/// Indices of non-comment tokens, the stream most rules pattern-match on.
fn code_indices(toks: &[Tok<'_>]) -> Vec<usize> {
    (0..toks.len()).filter(|&i| !toks[i].is_comment()).collect()
}

/// Rule `unsafe-safety-comment`.
fn rule_unsafe(toks: &[Tok<'_>], skip: &[bool], findings: &mut Vec<Finding>) {
    for (i, t) in toks.iter().enumerate() {
        if skip[i] || !t.is_ident("unsafe") {
            continue;
        }
        let justified = toks.iter().any(|c| {
            c.is_comment() && c.text.contains("SAFETY:") && c.line <= t.line && c.line + 3 >= t.line
        });
        if !justified {
            findings.push(Finding::new(
                "unsafe-safety-comment",
                t.line,
                "`unsafe` without an adjacent `// SAFETY:` rationale (same line or \
                 the three lines above)"
                    .to_string(),
            ));
        }
    }
}

/// Shared panic scanner behind `panic-free-hot-path` (suffix empty) and
/// `hot-path-transitive` (suffix names the hot caller). Scans the code
/// indices it is given, which may be a whole file or one fn body.
fn rule_panic_free(
    rule: &'static str,
    toks: &[Tok<'_>],
    code: &[usize],
    skip: &[bool],
    suffix: &str,
    findings: &mut Vec<Finding>,
) {
    const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];
    for (c, &i) in code.iter().enumerate() {
        if skip[i] {
            continue;
        }
        let t = &toks[i];
        // `.unwrap()` / `.expect(`
        if t.is_punct(".") && c + 2 < code.len() {
            let name = &toks[code[c + 1]];
            let paren = &toks[code[c + 2]];
            if (name.is_ident("unwrap") || name.is_ident("expect")) && paren.is_punct("(") {
                findings.push(Finding::new(
                    rule,
                    name.line,
                    format!(
                        "`.{}()` can panic on a designated hot path; restructure with \
                         pattern matching / `get`, or allow-mark with the guarding bound{suffix}",
                        name.text
                    ),
                ));
            }
        }
        // `panic!` and friends.
        if t.kind == TokKind::Ident
            && PANIC_MACROS.contains(&t.text)
            && c + 1 < code.len()
            && toks[code[c + 1]].is_punct("!")
        {
            findings.push(Finding::new(
                rule,
                t.line,
                format!("`{}!` on a designated hot path{suffix}", t.text),
            ));
        }
        // Non-range indexing `expr[i]`: a `[` in expression position
        // (after an identifier, `)`, or `]`) whose contents carry no
        // top-level range operator.
        if t.is_punct("[") && c > 0 {
            let prev = &toks[code[c - 1]];
            let expr_pos = prev.kind == TokKind::Ident && !is_keyword_before_bracket(prev.text)
                || prev.is_punct(")")
                || prev.is_punct("]");
            if expr_pos && !bracket_has_top_level_range(toks, code, c) {
                findings.push(Finding::new(
                    rule,
                    t.line,
                    format!(
                        "`[index]` can panic on a designated hot path; use `get`/patterns, \
                         or allow-mark with the bound that guards it{suffix}"
                    ),
                ));
            }
        }
    }
}

/// Keywords that can directly precede `[` without forming an index
/// expression (`return [a, b]`, `break [x]`, `in [0, 1]`, …).
fn is_keyword_before_bracket(text: &str) -> bool {
    matches!(
        text,
        "return"
            | "break"
            | "in"
            | "if"
            | "else"
            | "match"
            | "mut"
            | "dyn"
            | "as"
            | "where"
            | "let"
    )
}

/// `true` when the bracket group opening at code index `c` contains a
/// `..`-family punct at its own nesting depth (i.e. the expression is a
/// range slice, not a scalar index).
fn bracket_has_top_level_range(toks: &[Tok<'_>], code: &[usize], c: usize) -> bool {
    let mut depth = 0i32;
    for &i in &code[c..] {
        let t = &toks[i];
        if t.is_punct("[") || t.is_punct("(") || t.is_punct("{") {
            depth += 1;
        } else if t.is_punct("]") || t.is_punct(")") || t.is_punct("}") {
            depth -= 1;
            if depth == 0 {
                break;
            }
        } else if depth == 1 && t.kind == TokKind::Punct && matches!(t.text, ".." | "..=" | "...") {
            return true;
        }
    }
    false
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

/// Rule `cast-truncation`.
fn rule_casts(toks: &[Tok<'_>], code: &[usize], skip: &[bool], findings: &mut Vec<Finding>) {
    const NARROW: [&str; 6] = ["u8", "u16", "u32", "i8", "i16", "i32"];
    for (c, &i) in code.iter().enumerate() {
        if skip[i] {
            continue;
        }
        let t = &toks[i];
        if t.is_ident("as") && c + 1 < code.len() {
            let target = &toks[code[c + 1]];
            if target.kind == TokKind::Ident && NARROW.contains(&target.text) {
                findings.push(Finding::new(
                    "cast-truncation",
                    t.line,
                    format!(
                        "narrowing `as {}` cast; use `try_into` with a typed error on \
                         cold paths, or allow-mark citing the bound that makes it lossless",
                        target.text
                    ),
                ));
            }
        }
    }
}

/// Map-ish type names whose iteration order is nondeterministic.
const MAP_TYPES: [&str; 4] = ["HashMap", "HashSet", "FxHashMap", "FxHashSet"];
/// Methods that observe iteration order.
const ITER_METHODS: [&str; 7] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "drain",
];

/// Rule `determinism`: `SystemTime`/`Instant` everywhere; hash-map
/// iteration in deterministic-output files.
fn rule_determinism(
    toks: &[Tok<'_>],
    code: &[usize],
    skip: &[bool],
    deterministic_file: bool,
    findings: &mut Vec<Finding>,
) {
    // Identifiers bound to hash-map types in this file: `x: HashMap<…>`,
    // `x = HashMap::new()`, `x: HashSet<…>` (fields, lets, params).
    let mut map_idents: Vec<&str> = Vec::new();
    for (c, &i) in code.iter().enumerate() {
        let t = &toks[i];
        if skip[i] {
            continue;
        }
        if t.kind == TokKind::Ident && MAP_TYPES.contains(&t.text) && c >= 2 {
            let sep = &toks[code[c - 1]];
            let name = &toks[code[c - 2]];
            if (sep.is_punct(":") || sep.is_punct("=")) && name.kind == TokKind::Ident {
                map_idents.push(name.text);
            }
        }
        if t.is_ident("SystemTime") || t.is_ident("Instant") {
            findings.push(Finding::new(
                "determinism",
                t.line,
                format!(
                    "`{}` feeds wall-clock values into the pipeline; pass explicit \
                     timestamps/seeds instead (or allow-mark: measurement-only code)",
                    t.text
                ),
            ));
        }
    }
    if !deterministic_file {
        return;
    }
    for (c, &i) in code.iter().enumerate() {
        if skip[i] {
            continue;
        }
        let t = &toks[i];
        // `map.iter()` / `.keys()` / … on a known hash-map binding.
        if t.kind == TokKind::Ident
            && map_idents.contains(&t.text)
            && c + 2 < code.len()
            && toks[code[c + 1]].is_punct(".")
        {
            let m = &toks[code[c + 2]];
            if m.kind == TokKind::Ident
                && ITER_METHODS.contains(&m.text)
                && c + 3 < code.len()
                && toks[code[c + 3]].is_punct("(")
            {
                findings.push(hash_iter_finding(t.text, m.line));
            }
        }
        // `for x in &map { … }` / `for x in map {`.
        if t.is_ident("in") {
            let mut c2 = c + 1;
            while c2 < code.len()
                && (toks[code[c2]].is_punct("&") || toks[code[c2]].is_ident("mut"))
            {
                c2 += 1;
            }
            if c2 + 1 < code.len() {
                let name = &toks[code[c2]];
                if name.kind == TokKind::Ident
                    && map_idents.contains(&name.text)
                    && toks[code[c2 + 1]].is_punct("{")
                {
                    findings.push(hash_iter_finding(name.text, name.line));
                }
            }
        }
    }
}

fn hash_iter_finding(name: &str, line: u32) -> Finding {
    Finding::new(
        "determinism",
        line,
        format!(
            "iteration over hash map `{name}` in a deterministic-output module; \
             collect-and-sort (or BTreeMap), or allow-mark with why order cannot \
             reach the output"
        ),
    )
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
        // Find `fn` within the item qualifiers (`const unsafe extern "C" …`).
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

/// Lexes and runs the per-file rules over one file's source — the
/// standalone/unit-test entry point. The scanner driver pre-lexes once
/// (the tokens also feed phase 1) and calls [`scan_tokens`].
pub fn scan_source(rel: &str, src: &str, manifest: &Manifest) -> Vec<Finding> {
    scan_tokens(rel, &lex(src), manifest)
}

/// Runs every per-file rule over one file's token stream, honouring
/// allow markers. `rel` is the root-relative path (forward slashes)
/// used for manifest classification; the returned findings carry no
/// path (the caller attaches it).
pub fn scan_tokens(rel: &str, toks: &[Tok<'_>], manifest: &Manifest) -> Vec<Finding> {
    let code = code_indices(toks);
    let skip = test_mask(toks);
    let mut findings = Vec::new();
    let allows = collect_allows(toks, &mut findings);

    rule_unsafe(toks, &skip, &mut findings);
    if manifest.is_hot_path(rel) {
        rule_panic_free("panic-free-hot-path", toks, &code, &skip, "", &mut findings);
    }
    rule_casts(toks, &code, &skip, &mut findings);
    rule_determinism(
        toks,
        &code,
        &skip,
        manifest.is_deterministic(rel),
        &mut findings,
    );
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

/// Runs the cross-file rules over the phase-1 graph. Returns findings
/// tagged with the index of the file they belong to; the driver
/// attaches paths and applies that file's allow markers via
/// [`suppress`].
pub fn scan_graph(
    g: &SymbolGraph,
    toks_all: &[Vec<Tok<'_>>],
    masks: &[Vec<bool>],
    manifest: &Manifest,
) -> Vec<(usize, Finding)> {
    let mut out = Vec::new();
    rule_hot_transitive(g, toks_all, masks, manifest, &mut out);
    rule_wal(g, &mut out);
    rule_failpoints(g, &mut out);
    out
}

/// Rule `hot-path-transitive`: the panic-free contract propagated one
/// call edge deep. Every resolved callee of a hot-path function that
/// lives in a non-hot, non-test file gets its body scanned with the
/// same panic checks; the finding names the hot caller so the reader
/// knows which loop reaches it.
fn rule_hot_transitive(
    g: &SymbolGraph,
    toks_all: &[Vec<Tok<'_>>],
    masks: &[Vec<bool>],
    manifest: &Manifest,
    out: &mut Vec<(usize, Finding)>,
) {
    let mut hot_callers: std::collections::BTreeMap<usize, Vec<usize>> =
        std::collections::BTreeMap::new();
    for e in &g.edges {
        let cs = &g.symbols[e.caller];
        let ce = &g.symbols[e.callee];
        if cs.in_test || ce.in_test || ce.body.is_none() || g.files[ce.file].is_test {
            continue;
        }
        if !manifest.is_hot_path(&g.files[cs.file].path) {
            continue;
        }
        if manifest.is_hot_path(&g.files[ce.file].path) {
            continue; // already under the direct rule
        }
        hot_callers.entry(e.callee).or_default().push(e.caller);
    }
    for (callee, callers) in hot_callers {
        let s = &g.symbols[callee];
        let Some((b0, b1)) = s.body else { continue };
        let mut names: Vec<String> = callers
            .iter()
            .map(|&c| format!("{}::{}", g.symbols[c].module, g.symbols[c].name))
            .collect();
        names.sort();
        names.dedup();
        let suffix = format!(
            " [called from hot path `{}`]",
            names.first().map_or("", |s| s)
        );
        let toks = &toks_all[s.file];
        let body: Vec<usize> = code_indices(toks)
            .into_iter()
            .filter(|&i| i >= b0 && i <= b1)
            .collect();
        let mut findings = Vec::new();
        rule_panic_free(
            "hot-path-transitive",
            toks,
            &body,
            &masks[s.file],
            &suffix,
            &mut findings,
        );
        for f in findings {
            out.push((s.file, f));
        }
    }
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
        if g.files[s.file].path.contains("persist") {
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

    fn scan(src: &str) -> Vec<Finding> {
        scan_source("x.rs", src, &Manifest::default())
    }

    fn scan_hot(src: &str) -> Vec<Finding> {
        let m = Manifest {
            hot_paths: vec!["x.rs".to_string()],
            deterministic: vec!["x.rs".to_string()],
            ..Manifest::default()
        };
        scan_source("x.rs", src, &m)
    }

    fn rules_of(findings: &[Finding]) -> Vec<&str> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn unsafe_requires_safety_comment() {
        let bad = "fn f() { unsafe { g(); } }";
        assert_eq!(rules_of(&scan(bad)), vec!["unsafe-safety-comment"]);
        let good = "fn f() {\n    // SAFETY: g is sound here.\n    unsafe { g(); }\n}";
        assert!(scan(good).is_empty());
        let string_mention = "fn f() { let s = \"unsafe\"; }";
        assert!(scan(string_mention).is_empty());
    }

    #[test]
    fn hot_path_panics_and_indexing() {
        let src = "fn f(v: &[u8]) -> u8 {\n    let x = v.get(0).unwrap();\n    v[1]\n}";
        assert_eq!(
            rules_of(&scan_hot(src)),
            vec!["panic-free-hot-path", "panic-free-hot-path"]
        );
        // Ranges, attributes, array types and literals are not indexing.
        let ok = "#[derive(Debug)]\nstruct S;\nfn g(v: &[u8]) -> &[u8] {\n    let _a: [u8; 2] = [0, 1];\n    &v[1..3]\n}";
        assert!(scan_hot(ok).is_empty());
        // Not a hot file: no findings.
        assert!(scan(src).is_empty());
    }

    #[test]
    fn narrowing_casts_flagged_everywhere() {
        let src = "fn f(x: u64) -> u32 { x as u32 }";
        assert_eq!(rules_of(&scan(src)), vec!["cast-truncation"]);
        assert!(scan("fn f(x: u32) -> u64 { x as u64 }").is_empty());
        assert!(scan("fn f(x: u32) -> usize { x as usize }").is_empty());
    }

    #[test]
    fn determinism_flags_time_and_map_iteration() {
        let time = "fn f() { let t = std::time::SystemTime::now(); }";
        assert_eq!(rules_of(&scan(time)), vec!["determinism"]);
        let map_iter = "use std::collections::HashMap;\nfn f() {\n    let m: HashMap<u32, u32> = HashMap::new();\n    for k in m.keys() { p(k); }\n}";
        assert_eq!(rules_of(&scan_hot(map_iter)), vec!["determinism"]);
        // Same iteration outside a deterministic module: allowed.
        assert!(scan(map_iter).is_empty());
        // Entry/insert access does not observe order.
        let ok = "use std::collections::HashMap;\nfn f() {\n    let mut m: HashMap<u32, u32> = HashMap::new();\n    m.insert(1, 2);\n}";
        assert!(scan_hot(ok).is_empty());
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
        let marked = "fn f(x: u64) -> u32 {\n    // analyze:allow(cast-truncation) x is a line count < 2^32.\n    x as u32\n}";
        assert!(scan(marked).is_empty());
        let trailing = "fn f(x: u64) -> u32 {\n    x as u32 // analyze:allow(cast-truncation) bounded above.\n}";
        assert!(scan(trailing).is_empty());
        let no_reason =
            "fn f(x: u64) -> u32 {\n    // analyze:allow(cast-truncation)\n    x as u32\n}";
        assert_eq!(
            rules_of(&scan(no_reason)),
            vec!["allow-marker", "cast-truncation"]
        );
        let unknown = "// analyze:allow(no-such-rule) whatever\nfn f() {}";
        assert_eq!(rules_of(&scan(unknown)), vec!["allow-marker"]);
        let file_wide = "//! analyze:allow-file(cast-truncation) generator: all casts bounded.\nfn f(x: u64) -> u32 { x as u32 }\nfn g(x: u64) -> u16 { x as u16 }";
        assert!(scan(file_wide).is_empty());
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    fn h() { v.unwrap(); let x = y[0]; let t = std::time::Instant::now(); }\n}";
        assert!(scan_hot(src).is_empty());
        let fn_test = "#[test]\nfn t() { assert_eq!(v.unwrap(), 3 as u8); }";
        assert!(scan_hot(fn_test).is_empty());
        // `cfg(not(test))` is live code.
        let not_test = "#[cfg(not(test))]\nfn live(x: u64) -> u32 { x as u32 }";
        assert_eq!(rules_of(&scan(not_test)), vec!["cast-truncation"]);
    }
}
