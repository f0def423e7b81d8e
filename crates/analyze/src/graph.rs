//! Phase 1 of the two-phase analyzer: the workspace symbol index.
//!
//! [`SymbolGraph::build`] walks every lexed file once and extracts the
//! item structure the cross-file rules in [`crate::rules`] need: item
//! boundaries (`fn` / `struct` / `mod` / `impl` / `const`, with their
//! `{…}` body token ranges), raw call sites (bare, `path::qualified`,
//! and `.method(` forms), `path::like::references`, string literals,
//! and `use` imports. [`crate::resolve`] then turns raw call sites into
//! caller→callee edges between workspace symbols.
//!
//! Like the lexer, this is *not* a compiler front end: it tracks brace
//! nesting and a scope stack (modules, `impl` blocks, functions), which
//! is exactly enough to attribute a call site to the function it occurs
//! in and a function to the module that declares it. Macro bodies,
//! trait bounds, and type expressions are walked as plain tokens; the
//! rules that consume the graph document what that approximation costs
//! them.

use crate::lex::{Tok, TokKind};
use crate::resolve;

/// What kind of item a [`Symbol`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SymbolKind {
    /// A function or method.
    Fn,
    /// A `struct`, `enum`, `union`, or `trait` declaration.
    Struct,
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
    /// The `impl` type the item sits in, when it is a method.
    pub impl_of: Option<String>,
    /// `::`-joined module path (e.g. `core::persist`), including inline
    /// `mod` nesting.
    pub module: String,
    /// 1-based declaration line.
    pub line: u32,
    /// Token index of the declaring keyword.
    pub decl_tok: usize,
    /// Inclusive token range of the `{…}` body, when the item has one.
    pub body: Option<(usize, usize)>,
    /// `true` for items in test code (test-target files, `#[cfg(test)]`
    /// regions).
    pub in_test: bool,
    /// For consts: the first string literal in the initializer.
    pub str_value: Option<String>,
    /// For consts: identifiers referenced by the initializer (the
    /// failpoint-registry rule reads `ALL`'s member list from this).
    pub init_idents: Vec<String>,
}

/// A raw (unresolved) call site inside a function body.
#[derive(Debug, Clone)]
pub struct RawCall {
    /// Symbol id of the containing function.
    pub caller: usize,
    /// File the call occurs in.
    pub file: usize,
    /// Callee name (last path segment).
    pub name: String,
    /// Full path segments as written (`["codec", "encode_frame"]`);
    /// single-element for bare and method calls.
    pub path: Vec<String>,
    /// `true` for `.method(` receiver calls.
    pub is_method: bool,
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
    /// File the reference occurs in.
    pub file: usize,
    /// Path segments.
    pub path: Vec<String>,
    /// 1-based line.
    pub line: u32,
    /// Token index of the first segment.
    pub tok: usize,
    /// `true` when the reference sits in test code.
    pub in_test: bool,
}

/// A string literal (evidence for the failpoint-coverage rule).
#[derive(Debug, Clone)]
pub struct StrLit {
    /// File the literal occurs in.
    pub file: usize,
    /// Unquoted literal text (prefix/raw sigils stripped).
    pub value: String,
    /// 1-based line.
    pub line: u32,
    /// `true` when the literal sits in test code.
    pub in_test: bool,
}

/// A resolved caller→callee edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Edge {
    /// Calling function's symbol id.
    pub caller: usize,
    /// Called function's symbol id.
    pub callee: usize,
    /// 1-based call-site line in the caller's file.
    pub line: u32,
    /// Call-site token index in the caller's file.
    pub tok: usize,
}

/// Per-file metadata the graph keeps (sources stay with the caller).
#[derive(Debug, Clone)]
pub struct FileMeta {
    /// Root-relative path, forward slashes.
    pub path: String,
    /// `true` for files under `tests/` / `benches/` components.
    pub is_test: bool,
    /// `::`-joined module path of the file itself.
    pub module: String,
    /// Workspace crate key (`core`, `rtable`, `crate` for `src/`, …).
    pub crate_key: String,
}

/// The phase-1 output: every indexed item, call site, reference, and
/// resolved edge across the scanned file set.
#[derive(Debug, Default)]
pub struct SymbolGraph {
    /// Scanned files, in scan order.
    pub files: Vec<FileMeta>,
    /// Every indexed item.
    pub symbols: Vec<Symbol>,
    /// Raw call sites (resolution input; rules may also match on names).
    pub calls: Vec<RawCall>,
    /// Multi-segment path references.
    pub refs: Vec<PathRef>,
    /// String literals.
    pub strs: Vec<StrLit>,
    /// Per-file `use` imports: `(file, binding name, full path)`.
    pub uses: Vec<(usize, String, Vec<String>)>,
    /// Resolved call edges, sorted.
    pub edges: Vec<Edge>,
}

/// Keywords that look like `name(` call sites but are not.
const NON_CALL_KEYWORDS: [&str; 14] = [
    "if", "while", "for", "match", "return", "loop", "fn", "let", "in", "move", "ref", "else",
    "unsafe", "where",
];

/// Role a `{` plays, tracked so `}` can unwind the right scope.
enum BraceRole {
    /// Inline `mod name {`: pops the module stack and closes the symbol.
    Mod(usize),
    /// `impl Type {`: pops the impl stack.
    Impl,
    /// Function body: pops the function stack and closes the symbol.
    Fn(usize),
    /// Anything else (blocks, struct literals, match arms).
    Block,
}

impl SymbolGraph {
    /// Indexes `files` (paths + test flags) over their lexed token
    /// streams and per-token test masks, then resolves call edges.
    pub fn build(files: &[(String, bool)], toks: &[Vec<Tok<'_>>], masks: &[Vec<bool>]) -> Self {
        let mut g = SymbolGraph::default();
        for (fid, (path, is_test)) in files.iter().enumerate() {
            let (crate_key, module) = resolve::file_module(path);
            g.files.push(FileMeta {
                path: path.clone(),
                is_test: *is_test,
                module: module.join("::"),
                crate_key,
            });
            index_file(&mut g, fid, &module, &toks[fid], &masks[fid]);
        }
        resolve::resolve_edges(&mut g);
        g
    }

    /// Symbol ids of functions whose body contains token index `tok` of
    /// file `file` (innermost last).
    pub fn enclosing_fns(&self, file: usize, tok: usize) -> Vec<usize> {
        let mut out: Vec<usize> = self
            .symbols
            .iter()
            .enumerate()
            .filter(|(_, s)| {
                s.file == file
                    && s.kind == SymbolKind::Fn
                    && s.body.is_some_and(|(a, b)| a <= tok && tok <= b)
            })
            .map(|(i, _)| i)
            .collect();
        out.sort_by_key(|&i| self.symbols[i].body.map_or((0, 0), |(a, b)| (a, b)));
        out
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

/// Walks one file's tokens, pushing symbols/calls/refs/strs/uses into
/// the graph.
fn index_file(
    g: &mut SymbolGraph,
    fid: usize,
    file_mod: &[String],
    toks: &[Tok<'_>],
    mask: &[bool],
) {
    let code: Vec<usize> = (0..toks.len()).filter(|&i| !toks[i].is_comment()).collect();

    // String literals are position-independent evidence: collect them in
    // one flat pass.
    for (i, t) in toks.iter().enumerate() {
        if t.kind == TokKind::Str {
            g.strs.push(StrLit {
                file: fid,
                value: unquote(t.text),
                line: t.line,
                in_test: mask.get(i).copied().unwrap_or(false),
            });
        }
    }

    let mut mod_stack: Vec<String> = file_mod.to_vec();
    let mut impl_stack: Vec<Option<String>> = Vec::new();
    let mut fn_stack: Vec<usize> = Vec::new();
    let mut brace_stack: Vec<BraceRole> = Vec::new();
    let mut pending: Option<BraceRole> = None;

    let in_test = |i: usize| mask.get(i).copied().unwrap_or(false);

    let mut c = 0usize;
    while c < code.len() {
        let i = code[c];
        let t = &toks[i];
        match t.text {
            "{" if t.kind == TokKind::Punct => {
                let role = pending.take().unwrap_or(BraceRole::Block);
                match &role {
                    BraceRole::Fn(sym) => fn_stack.push(*sym),
                    BraceRole::Impl => {}
                    BraceRole::Mod(_) | BraceRole::Block => {}
                }
                brace_stack.push(role);
                c += 1;
                continue;
            }
            "}" if t.kind == TokKind::Punct => {
                match brace_stack.pop() {
                    Some(BraceRole::Fn(sym)) => {
                        fn_stack.pop();
                        close_body(&mut g.symbols[sym], i);
                    }
                    Some(BraceRole::Mod(sym)) => {
                        mod_stack.pop();
                        close_body(&mut g.symbols[sym], i);
                    }
                    Some(BraceRole::Impl) => {
                        impl_stack.pop();
                    }
                    Some(BraceRole::Block) | None => {}
                }
                c += 1;
                continue;
            }
            "use" if t.kind == TokKind::Ident => {
                let (imports, next) = resolve::parse_use(toks, &code, c);
                for (name, path) in imports {
                    g.uses.push((fid, name, path));
                }
                c = next;
                continue;
            }
            "mod" if t.kind == TokKind::Ident => {
                if let Some(&ni) = code.get(c + 1) {
                    if toks[ni].kind == TokKind::Ident {
                        let name = toks[ni].text.to_string();
                        let sym = push_symbol(
                            g,
                            fid,
                            SymbolKind::Mod,
                            &name,
                            None,
                            &mod_stack,
                            t.line,
                            i,
                            in_test(i),
                        );
                        if code.get(c + 2).is_some_and(|&bi| toks[bi].is_punct("{")) {
                            g.symbols[sym].body = Some((code[c + 2], code[c + 2]));
                            mod_stack.push(name);
                            pending = Some(BraceRole::Mod(sym));
                            c += 2; // land on `{`
                            continue;
                        }
                        c += 2;
                        continue;
                    }
                }
            }
            "fn" if t.kind == TokKind::Ident => {
                if let Some(&ni) = code.get(c + 1) {
                    if toks[ni].kind == TokKind::Ident {
                        let name = toks[ni].text.to_string();
                        let sym = push_symbol(
                            g,
                            fid,
                            SymbolKind::Fn,
                            &name,
                            impl_stack.last().cloned().flatten(),
                            &mod_stack,
                            t.line,
                            i,
                            in_test(i),
                        );
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
                                    g.symbols[sym].body = Some((code[c2], code[c2]));
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
            }
            "struct" | "enum" | "trait" | "union" if t.kind == TokKind::Ident => {
                if let Some(&ni) = code.get(c + 1) {
                    if toks[ni].kind == TokKind::Ident {
                        push_symbol(
                            g,
                            fid,
                            SymbolKind::Struct,
                            toks[ni].text,
                            None,
                            &mod_stack,
                            t.line,
                            i,
                            in_test(i),
                        );
                        c += 2;
                        continue;
                    }
                }
            }
            "impl" if t.kind == TokKind::Ident => {
                // `impl<T> Trait for Type<T> {` — the implemented type is
                // the last depth-0 ident before the `{`, restarting after
                // `for`.
                let mut angle = 0i32;
                let mut ty: Option<String> = None;
                let mut c2 = c + 1;
                while c2 < code.len() {
                    let t2 = &toks[code[c2]];
                    if t2.is_punct("<") {
                        angle += 1;
                    } else if t2.is_punct(">") {
                        angle = (angle - 1).max(0);
                    } else if angle == 0 {
                        if t2.is_punct("{") {
                            break;
                        }
                        if t2.is_ident("for") {
                            ty = None;
                        } else if t2.kind == TokKind::Ident && !t2.is_ident("where") {
                            ty = Some(t2.text.to_string());
                        }
                    }
                    c2 += 1;
                }
                impl_stack.push(ty);
                pending = Some(BraceRole::Impl);
                c = c2; // land on `{`
                continue;
            }
            "const" | "static" if t.kind == TokKind::Ident => {
                if let Some(&ni) = code.get(c + 1) {
                    let nt = &toks[ni];
                    // `const fn`, `*const T` in type position, and fn-local
                    // consts fall through.
                    let raw_ptr = c > 0 && toks[code[c - 1]].is_punct("*");
                    if nt.kind == TokKind::Ident
                        && !nt.is_ident("fn")
                        && !raw_ptr
                        && fn_stack.is_empty()
                    {
                        let sym = push_symbol(
                            g,
                            fid,
                            SymbolKind::Const,
                            nt.text,
                            impl_stack.last().cloned().flatten(),
                            &mod_stack,
                            t.line,
                            i,
                            in_test(i),
                        );
                        // Scan the initializer (after `=`) up to the
                        // terminating `;`, collecting the first string
                        // literal and every referenced ident.
                        let mut depth = 0i32;
                        let mut seen_eq = false;
                        let mut c2 = c + 2;
                        while c2 < code.len() {
                            let t2 = &toks[code[c2]];
                            if t2.is_punct("(") || t2.is_punct("[") || t2.is_punct("{") {
                                depth += 1;
                            } else if t2.is_punct(")") || t2.is_punct("]") || t2.is_punct("}") {
                                depth -= 1;
                            } else if t2.is_punct(";") && depth == 0 {
                                break;
                            } else if t2.is_punct("=") && depth == 0 {
                                seen_eq = true;
                            } else if seen_eq {
                                if t2.kind == TokKind::Str && g.symbols[sym].str_value.is_none() {
                                    g.symbols[sym].str_value = Some(unquote(t2.text));
                                } else if t2.kind == TokKind::Ident {
                                    g.symbols[sym].init_idents.push(t2.text.to_string());
                                }
                            }
                            c2 += 1;
                        }
                        c = c2 + 1;
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
            if segs.len() >= 2 {
                g.refs.push(PathRef {
                    file: fid,
                    path: segs.clone(),
                    line: t.line,
                    tok: i,
                    in_test: in_test(i),
                });
            }
            let is_call = code.get(end + 1).is_some_and(|&pi| toks[pi].is_punct("("));
            let is_method = c > 0 && toks[code[c - 1]].is_punct(".");
            let name = segs[segs.len() - 1].clone();
            if is_call
                && !NON_CALL_KEYWORDS.contains(&name.as_str())
                && !(c > 0 && toks[code[c - 1]].is_ident("fn"))
            {
                if let Some(&caller) = fn_stack.last() {
                    let name_tok = code[end];
                    g.calls.push(RawCall {
                        caller,
                        file: fid,
                        name,
                        path: segs,
                        is_method,
                        line: toks[name_tok].line,
                        tok: name_tok,
                        in_test: in_test(name_tok),
                    });
                }
            }
            c = end + 1;
            continue;
        }

        c += 1;
    }

    // Unterminated scopes (malformed input): close bodies at EOF.
    let last = toks.len().saturating_sub(1);
    for role in brace_stack {
        match role {
            BraceRole::Fn(sym) | BraceRole::Mod(sym) => close_body(&mut g.symbols[sym], last),
            _ => {}
        }
    }
}

/// Extends `sym`'s body range to end at token `end`.
fn close_body(sym: &mut Symbol, end: usize) {
    if let Some((start, _)) = sym.body {
        sym.body = Some((start, end));
    }
}

#[allow(clippy::too_many_arguments)]
fn push_symbol(
    g: &mut SymbolGraph,
    file: usize,
    kind: SymbolKind,
    name: &str,
    impl_of: Option<String>,
    mod_stack: &[String],
    line: u32,
    decl_tok: usize,
    in_test: bool,
) -> usize {
    g.symbols.push(Symbol {
        file,
        kind,
        name: name.to_string(),
        impl_of,
        module: mod_stack.join("::"),
        line,
        decl_tok,
        body: None,
        in_test,
        str_value: None,
        init_idents: Vec::new(),
    });
    g.symbols.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::lex;

    fn build_one(path: &str, src: &str) -> SymbolGraph {
        let toks = vec![lex(src)];
        let masks = vec![crate::rules::test_mask_of(&toks[0])];
        SymbolGraph::build(&[(path.to_string(), false)], &toks, &masks)
    }

    #[test]
    fn items_modules_and_bodies() {
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
                ("S", SymbolKind::Struct),
                ("m", SymbolKind::Fn),
                ("helper", SymbolKind::Fn),
            ]
        );
        let a = &g.symbols[1];
        assert_eq!(a.module, "core::persist::failpoints");
        assert_eq!(a.str_value.as_deref(), Some("a.b"));
        let all = &g.symbols[2];
        assert_eq!(all.init_idents, vec!["A"]);
        let m = &g.symbols[4];
        assert_eq!(m.impl_of.as_deref(), Some("S"));
        assert!(m.body.is_some());
        // `helper()` resolved: bare call in the same module.
        assert_eq!(g.edges.len(), 1);
        assert_eq!(g.symbols[g.edges[0].callee].name, "helper");
    }

    #[test]
    fn calls_refs_and_strings() {
        let g = build_one(
            "crates/core/src/a.rs",
            "fn f(inj: &mut I) {\n    if inj.should_fire(failpoints::SWAP) { g(\"x.y\"); }\n    codec::encode(buf);\n}\nfn g(_: &str) {}\n",
        );
        let call_names: Vec<&str> = g.calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(call_names, vec!["should_fire", "g", "encode"]);
        assert!(g.calls[0].is_method);
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
