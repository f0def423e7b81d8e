//! Phase 1 of the two-phase analyzer: the workspace item index.
//!
//! [`SymbolGraph::build`] walks every lexed file once and extracts what
//! the cross-file rules in [`crate::rules`] read: `fn` / `mod` / `const`
//! items with the module that declares them, call sites by name
//! (`wal-ordering`), `path::like::references` and string literals
//! (`failpoint-coverage`). There are no resolved call edges: the one
//! rule that read them (`hot-path-transitive`) is a clippy lint set on
//! the callees now (DESIGN.md §12).
//!
//! Like the lexer, this is *not* a compiler front end: it tracks brace
//! nesting and a scope stack (modules, functions), which is exactly
//! enough to attribute a call site to the function it occurs in and an
//! item to the module that declares it. Macro bodies, `impl` headers and
//! type expressions are walked as plain tokens.

use crate::lex::{Tok, TokKind};

/// What kind of item a [`Symbol`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SymbolKind {
    /// A function or method.
    Fn,
    /// A `mod` (inline or file-level declaration).
    Mod,
    /// A `const` or `static` item.
    Const,
}

/// One indexed item.
#[derive(Debug, Clone)]
pub struct Symbol {
    /// Index into the scanned-file list.
    pub file: usize,
    /// Item kind.
    pub kind: SymbolKind,
    /// Bare item name (`risky`, not `Type::risky`).
    pub name: String,
    /// `::`-joined module path (e.g. `core::persist`), including inline
    /// `mod` nesting.
    pub module: String,
    /// 1-based declaration line.
    pub line: u32,
    /// `true` for items in test code (test-target files, `#[cfg(test)]`
    /// regions).
    pub in_test: bool,
    /// For consts: the first string literal in the initializer.
    pub str_value: Option<String>,
    /// For consts: identifiers referenced by the initializer (the
    /// failpoint-registry rule reads `ALL`'s member list from this).
    pub init_idents: Vec<String>,
}

/// A call site inside a function body, by callee name.
#[derive(Debug, Clone)]
pub struct RawCall {
    /// Symbol id of the containing function.
    pub caller: usize,
    /// Callee name (last path segment).
    pub name: String,
    /// 1-based line of the callee name token.
    pub line: u32,
    /// Token index of the callee name token (orders call sites within a
    /// body).
    pub tok: usize,
    /// `true` when the call sits in test code.
    pub in_test: bool,
}

/// A `path::like::reference` of two or more segments (calls included).
#[derive(Debug, Clone)]
pub struct PathRef {
    /// Path segments.
    pub path: Vec<String>,
    /// `true` when the reference sits in test code.
    pub in_test: bool,
}

/// A string literal (evidence for the failpoint-coverage rule).
#[derive(Debug, Clone)]
pub struct StrLit {
    /// Unquoted literal text (prefix/raw sigils stripped).
    pub value: String,
    /// `true` when the literal sits in test code.
    pub in_test: bool,
}

/// The phase-1 output: every indexed item, call site, reference and
/// string literal across the scanned file set.
#[derive(Debug, Default)]
pub struct SymbolGraph {
    /// Root-relative paths (forward slashes) of the scanned files, in
    /// scan order.
    pub files: Vec<String>,
    /// Every indexed item.
    pub symbols: Vec<Symbol>,
    /// Call sites.
    pub calls: Vec<RawCall>,
    /// Multi-segment path references.
    pub refs: Vec<PathRef>,
    /// String literals.
    pub strs: Vec<StrLit>,
}

/// Keywords that look like `name(` call sites but are not.
const NON_CALL_KEYWORDS: [&str; 14] = [
    "if", "while", "for", "match", "return", "loop", "fn", "let", "in", "move", "ref", "else",
    "unsafe", "where",
];

/// Role a `{` plays, tracked so `}` can unwind the right scope.
enum BraceRole {
    /// Inline `mod name {`: pops the module stack.
    Mod,
    /// Body of the function with this symbol id: pops the function stack.
    Fn(usize),
    /// Anything else (blocks, `impl` bodies, struct literals, match arms).
    Block,
}

/// Maps a root-relative file path to its module path:
/// `crates/<c>/src/persist/mod.rs` → `["c", "persist"]`; the workspace
/// facade `src/` (and any other layout) hangs under `crate`.
pub fn file_module(path: &str) -> Vec<String> {
    let parts: Vec<&str> = path.split('/').collect();
    let (key, rest) = match parts.as_slice() {
        ["crates", c, "src", rest @ ..] => (c.replace('-', "_"), rest),
        ["src", rest @ ..] => ("crate".to_string(), rest),
        rest => ("crate".to_string(), rest),
    };
    let mut module = vec![key];
    for (i, p) in rest.iter().enumerate() {
        if i + 1 < rest.len() {
            module.push((*p).to_string());
        } else if !matches!(*p, "lib.rs" | "mod.rs" | "main.rs") {
            module.push(p.trim_end_matches(".rs").replace('-', "_"));
        }
    }
    module
}

impl SymbolGraph {
    /// Indexes `files` over their lexed token streams and per-token test
    /// masks.
    pub fn build(files: &[String], toks: &[Vec<Tok<'_>>], masks: &[Vec<bool>]) -> Self {
        let mut g = SymbolGraph::default();
        for (fid, path) in files.iter().enumerate() {
            g.files.push(path.clone());
            index_file(&mut g, fid, &file_module(path), &toks[fid], &masks[fid]);
        }
        g
    }
}

/// Strips string-literal sigils (`b`, `c`, `r`, `#`, quotes) from a
/// lexed string token's text.
fn unquote(text: &str) -> String {
    text.trim_start_matches(['b', 'c', 'r'])
        .trim_matches('#')
        .trim_matches('"')
        .to_string()
}

/// Walks one file's tokens, pushing symbols/calls/refs/strs into the
/// graph.
fn index_file(
    g: &mut SymbolGraph,
    fid: usize,
    file_mod: &[String],
    toks: &[Tok<'_>],
    mask: &[bool],
) {
    let code: Vec<usize> = (0..toks.len()).filter(|&i| !toks[i].is_comment()).collect();
    let in_test = |i: usize| mask.get(i).copied().unwrap_or(false);

    // String literals are position-independent evidence: collect them in
    // one flat pass.
    for (i, t) in toks.iter().enumerate() {
        if t.kind == TokKind::Str {
            g.strs.push(StrLit {
                value: unquote(t.text),
                in_test: in_test(i),
            });
        }
    }

    let mut mod_stack: Vec<String> = file_mod.to_vec();
    let mut fn_stack: Vec<usize> = Vec::new();
    let mut brace_stack: Vec<BraceRole> = Vec::new();
    let mut pending: Option<BraceRole> = None;
    let push_symbol = |g: &mut SymbolGraph, kind, name: &str, mods: &[String], i: usize| {
        g.symbols.push(Symbol {
            file: fid,
            kind,
            name: name.to_string(),
            module: mods.join("::"),
            line: toks[i].line,
            in_test: in_test(i),
            str_value: None,
            init_idents: Vec::new(),
        });
        g.symbols.len() - 1
    };

    let mut c = 0usize;
    while c < code.len() {
        let i = code[c];
        let t = &toks[i];
        let next_ident = || {
            let nt = &toks[*code.get(c + 1)?];
            (nt.kind == TokKind::Ident).then_some(nt)
        };
        match t.text {
            "{" if t.kind == TokKind::Punct => {
                let role = pending.take().unwrap_or(BraceRole::Block);
                if let BraceRole::Fn(sym) = role {
                    fn_stack.push(sym);
                }
                brace_stack.push(role);
                c += 1;
                continue;
            }
            "}" if t.kind == TokKind::Punct => {
                match brace_stack.pop() {
                    Some(BraceRole::Fn(_)) => {
                        fn_stack.pop();
                    }
                    Some(BraceRole::Mod) => {
                        mod_stack.pop();
                    }
                    Some(BraceRole::Block) | None => {}
                }
                c += 1;
                continue;
            }
            "use" if t.kind == TokKind::Ident => {
                // Imports are neither calls nor evaluation evidence.
                while c < code.len() && !toks[code[c]].is_punct(";") {
                    c += 1;
                }
                continue;
            }
            "mod" if t.kind == TokKind::Ident => {
                if let Some(nt) = next_ident() {
                    push_symbol(g, SymbolKind::Mod, nt.text, &mod_stack, i);
                    if code.get(c + 2).is_some_and(|&bi| toks[bi].is_punct("{")) {
                        mod_stack.push(nt.text.to_string());
                        pending = Some(BraceRole::Mod);
                    }
                    c += 2; // land on `{` or `;`
                    continue;
                }
            }
            "fn" if t.kind == TokKind::Ident => {
                if let Some(nt) = next_ident() {
                    let sym = push_symbol(g, SymbolKind::Fn, nt.text, &mod_stack, i);
                    // Find the body `{` (or a bodiless `;`): skip the
                    // generic/parameter/return-type tokens, balancing
                    // angles and parens.
                    let mut angle = 0i32;
                    let mut paren = 0i32;
                    let mut c2 = c + 2;
                    while c2 < code.len() {
                        let t2 = &toks[code[c2]];
                        if t2.is_punct("<") {
                            angle += 1;
                        } else if t2.is_punct(">") {
                            angle = (angle - 1).max(0);
                        } else if t2.is_punct("(") {
                            paren += 1;
                        } else if t2.is_punct(")") {
                            paren -= 1;
                        } else if paren == 0 && angle == 0 {
                            if t2.is_punct("{") {
                                pending = Some(BraceRole::Fn(sym));
                                break;
                            }
                            if t2.is_punct(";") {
                                break;
                            }
                        }
                        c2 += 1;
                    }
                    c = c2; // land on `{` or `;` (or EOF)
                    continue;
                }
            }
            "const" | "static" if t.kind == TokKind::Ident => {
                // `const fn`, `*const T` in type position, and fn-local
                // consts fall through.
                let raw_ptr = c > 0 && toks[code[c - 1]].is_punct("*");
                if let Some(nt) = next_ident().filter(|nt| !nt.is_ident("fn")) {
                    if !raw_ptr && fn_stack.is_empty() {
                        let sym = push_symbol(g, SymbolKind::Const, nt.text, &mod_stack, i);
                        c = index_const_init(&mut g.symbols[sym], toks, &code, c + 2);
                        continue;
                    }
                }
            }
            _ => {}
        }

        // Path references and call sites. A path starts at an ident whose
        // previous code token is not `::` (so each path is seen once).
        if t.kind == TokKind::Ident && !(c > 0 && toks[code[c - 1]].is_punct("::")) {
            let mut segs: Vec<String> = vec![t.text.to_string()];
            let mut end = c;
            while end + 2 < code.len()
                && toks[code[end + 1]].is_punct("::")
                && toks[code[end + 2]].kind == TokKind::Ident
            {
                segs.push(toks[code[end + 2]].text.to_string());
                end += 2;
            }
            let is_call = code.get(end + 1).is_some_and(|&pi| toks[pi].is_punct("("));
            let name_tok = code[end];
            let name = toks[name_tok].text;
            if is_call
                && !NON_CALL_KEYWORDS.contains(&name)
                && !(c > 0 && toks[code[c - 1]].is_ident("fn"))
            {
                if let Some(&caller) = fn_stack.last() {
                    g.calls.push(RawCall {
                        caller,
                        name: name.to_string(),
                        line: toks[name_tok].line,
                        tok: name_tok,
                        in_test: in_test(name_tok),
                    });
                }
            }
            if segs.len() >= 2 {
                g.refs.push(PathRef {
                    path: segs,
                    in_test: in_test(i),
                });
            }
            c = end + 1;
            continue;
        }

        c += 1;
    }
}

/// Scans a const's initializer (after `=`) from code index `c` up to the
/// terminating `;`, recording the first string literal and every
/// referenced ident. Returns the code index after the `;`.
fn index_const_init(sym: &mut Symbol, toks: &[Tok<'_>], code: &[usize], mut c: usize) -> usize {
    let mut depth = 0i32;
    let mut seen_eq = false;
    while c < code.len() {
        let t = &toks[code[c]];
        if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
            depth += 1;
        } else if t.is_punct(")") || t.is_punct("]") || t.is_punct("}") {
            depth -= 1;
        } else if t.is_punct(";") && depth == 0 {
            break;
        } else if t.is_punct("=") && depth == 0 {
            seen_eq = true;
        } else if seen_eq {
            if t.kind == TokKind::Str && sym.str_value.is_none() {
                sym.str_value = Some(unquote(t.text));
            } else if t.kind == TokKind::Ident {
                sym.init_idents.push(t.text.to_string());
            }
        }
        c += 1;
    }
    c + 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::lex;

    fn build_one(path: &str, src: &str) -> SymbolGraph {
        let toks = vec![lex(src)];
        let masks = vec![crate::rules::test_mask(&toks[0])];
        SymbolGraph::build(&[path.to_string()], &toks, &masks)
    }

    #[test]
    fn file_modules() {
        assert_eq!(
            file_module("crates/core/src/persist/mod.rs"),
            ["core", "persist"]
        );
        assert_eq!(file_module("crates/core/src/stream.rs"), ["core", "stream"]);
        assert_eq!(file_module("src/lib.rs"), ["crate"]);
        assert_eq!(file_module("tests/faults.rs"), ["crate", "tests", "faults"]);
    }

    #[test]
    fn items_and_modules() {
        let g = build_one(
            "crates/core/src/persist/mod.rs",
            "pub mod failpoints {\n    pub const A: &str = \"a.b\";\n    pub const ALL: &[&str] = &[A];\n}\nstruct S;\nimpl S {\n    fn m(&self) { helper(); }\n}\nfn helper() {}\n",
        );
        let names: Vec<(&str, SymbolKind)> = g
            .symbols
            .iter()
            .map(|s| (s.name.as_str(), s.kind))
            .collect();
        assert_eq!(
            names,
            vec![
                ("failpoints", SymbolKind::Mod),
                ("A", SymbolKind::Const),
                ("ALL", SymbolKind::Const),
                ("m", SymbolKind::Fn),
                ("helper", SymbolKind::Fn),
            ]
        );
        let a = &g.symbols[1];
        assert_eq!(a.module, "core::persist::failpoints");
        assert_eq!(a.str_value.as_deref(), Some("a.b"));
        assert_eq!(g.symbols[2].init_idents, vec!["A"]);
        // The call inside the method is attributed to it, and the module
        // stack unwound after the inline `mod`.
        assert_eq!(g.calls.len(), 1);
        assert_eq!(g.symbols[g.calls[0].caller].name, "m");
        assert_eq!(g.symbols[4].module, "core::persist");
    }

    #[test]
    fn calls_refs_and_strings() {
        let g = build_one(
            "crates/core/src/a.rs",
            "fn f(inj: &mut I) {\n    if inj.should_fire(failpoints::SWAP) { g(\"x.y\"); }\n    codec::encode(buf);\n}\nfn g(_: &str) {}\n",
        );
        let call_names: Vec<&str> = g.calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(call_names, vec!["should_fire", "g", "encode"]);
        assert!(g
            .refs
            .iter()
            .any(|r| r.path == ["failpoints", "SWAP"] && !r.in_test));
        assert!(g.strs.iter().any(|s| s.value == "x.y"));
        // `if (` must not register a call named `if`.
        assert!(!g.calls.iter().any(|c| c.name == "if"));
    }

    #[test]
    fn test_mask_flows_into_symbols() {
        let g = build_one(
            "crates/core/src/a.rs",
            "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() { live(); }\n}\n",
        );
        let live = g.symbols.iter().find(|s| s.name == "live").expect("live");
        let t = g.symbols.iter().find(|s| s.name == "t").expect("t");
        assert!(!live.in_test);
        assert!(t.in_test);
        assert_eq!(t.module, "core::a::tests");
    }
}
