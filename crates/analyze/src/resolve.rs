//! Name resolution for the phase-1 symbol graph.
//!
//! Maps file paths to module paths, parses `use` trees, and resolves the
//! raw call sites [`crate::graph`] extracted into caller→callee
//! [`Edge`]s. The resolver is scoped to what the
//! cross-file rules need — in-workspace paths only:
//!
//! * `crate::` / `self::` / `super::` prefixes, uniform (Rust 2018)
//!   paths, and `use`-imported names (including `pub use`, groups, and
//!   `as` aliases);
//! * `netclust_<crate>::…` inter-crate paths (mapped onto the
//!   `crates/<crate>/src` tree) and `netclust::…` onto `src/`;
//! * `Type::method` and `Self::method` associated calls, plus
//!   `.method(` receiver calls when the method name is unique in its
//!   file.
//!
//! Everything it cannot place — `std`, vendored shims, ambiguous
//! names — resolves to *no* edge. The graph rules are therefore
//! may-analysis over a subset of the real call graph: they can miss
//! edges, but every edge they do report is real.

use std::collections::BTreeMap;

use crate::graph::{Edge, SymbolGraph, SymbolKind};
use crate::lex::{Tok, TokKind};

/// Path heads that always leave the workspace.
const EXTERNAL_HEADS: [&str; 4] = ["std", "core", "alloc", "proc_macro"];

/// Maps a root-relative file path to `(crate key, module path)`.
///
/// `crates/<c>/src/persist/mod.rs` → `("c", ["c", "persist"])`; the
/// workspace facade `src/` gets the key `crate`; bins, integration
/// tests, and benches are their own crate roots.
pub fn file_module(path: &str) -> (String, Vec<String>) {
    let parts: Vec<&str> = path.split('/').collect();
    let stem = |s: &str| s.trim_end_matches(".rs").replace('-', "_");
    let tail_modules = |key: &str, rest: &[&str]| -> Vec<String> {
        let mut m = vec![key.to_string()];
        for (i, p) in rest.iter().enumerate() {
            if i + 1 == rest.len() {
                if *p != "lib.rs" && *p != "mod.rs" && *p != "main.rs" {
                    m.push(stem(p));
                }
            } else {
                m.push((*p).to_string());
            }
        }
        m
    };
    if parts.len() >= 4 && parts[0] == "crates" && parts[2] == "src" {
        let key = parts[1].replace('-', "_");
        let m = tail_modules(&key, &parts[3..]);
        return (key, m);
    }
    if parts.len() >= 4 && parts[0] == "crates" && (parts[2] == "tests" || parts[2] == "benches") {
        let key = format!(
            "{}_{}_{}",
            parts[1].replace('-', "_"),
            parts[2],
            stem(parts[parts.len() - 1])
        );
        return (key.clone(), vec![key]);
    }
    if parts.len() >= 2 && parts[0] == "src" {
        if parts.len() >= 3 && parts[1] == "bin" {
            let key = format!("bin_{}", stem(parts[2]));
            return (key.clone(), vec![key]);
        }
        let key = "crate".to_string();
        let m = tail_modules(&key, &parts[1..]);
        return (key, m);
    }
    if parts.len() >= 2 && (parts[0] == "tests" || parts[0] == "benches") {
        let key = format!("{}_{}", parts[0], stem(parts[parts.len() - 1]));
        return (key.clone(), vec![key]);
    }
    // Anything else (a bare file at the root, unconventional layout):
    // treat the directories as modules under the `crate` key.
    let key = "crate".to_string();
    let m = tail_modules(&key, &parts);
    (key, m)
}

/// Parses one `use` statement starting at code index `c` (pointing at
/// the `use` token). Returns `(imports, next code index)` where each
/// import is `(binding name, full path as written)`. Handles groups
/// (`use a::{b, c::d}`), `as` aliases, `{self}` re-exports, and ignores
/// globs and `_` bindings.
pub(crate) fn parse_use(
    toks: &[Tok<'_>],
    code: &[usize],
    c: usize,
) -> (Vec<(String, Vec<String>)>, usize) {
    let mut out: Vec<(String, Vec<String>)> = Vec::new();
    let mut prefix: Vec<String> = Vec::new();
    let mut group_marks: Vec<usize> = Vec::new();
    let mut cur: Vec<String> = Vec::new();
    let mut alias: Option<String> = None;
    let mut glob = false;

    fn flush(
        out: &mut Vec<(String, Vec<String>)>,
        prefix: &[String],
        cur: &mut Vec<String>,
        alias: &mut Option<String>,
        glob: &mut bool,
    ) {
        if *glob {
            *glob = false;
            cur.clear();
            *alias = None;
            return;
        }
        if cur.is_empty() {
            *alias = None;
            return;
        }
        let mut full: Vec<String> = prefix.to_vec();
        full.append(cur);
        if full.last().is_some_and(|s| s == "self") {
            full.pop(); // `use a::b::{self}` binds `b`
        }
        let Some(last) = full.last().cloned() else {
            *alias = None;
            return;
        };
        let name = alias.take().unwrap_or(last);
        if name != "_" {
            out.push((name, full));
        }
    }

    let mut c2 = c + 1;
    while c2 < code.len() {
        let t = &toks[code[c2]];
        if t.is_ident("as") {
            if let Some(&ai) = code.get(c2 + 1) {
                if toks[ai].kind == TokKind::Ident {
                    alias = Some(toks[ai].text.to_string());
                    c2 += 2;
                    continue;
                }
            }
        } else if t.kind == TokKind::Ident {
            cur.push(t.text.to_string());
        } else if t.is_punct("*") {
            glob = true;
        } else if t.is_punct("{") {
            let n = cur.len();
            prefix.append(&mut cur);
            group_marks.push(n);
        } else if t.is_punct(",") {
            flush(&mut out, &prefix, &mut cur, &mut alias, &mut glob);
        } else if t.is_punct("}") {
            flush(&mut out, &prefix, &mut cur, &mut alias, &mut glob);
            if let Some(n) = group_marks.pop() {
                prefix.truncate(prefix.len().saturating_sub(n));
            }
        } else if t.is_punct(";") {
            flush(&mut out, &prefix, &mut cur, &mut alias, &mut glob);
            return (out, c2 + 1);
        }
        c2 += 1;
    }
    flush(&mut out, &prefix, &mut cur, &mut alias, &mut glob);
    (out, c2)
}

/// Fn-symbol lookup key: `(module path, impl type or empty, name)`.
type FnKey = (String, String, String);

/// Resolves every raw call in `g` against its symbol table, filling
/// `g.edges` (sorted, deduplicated).
pub(crate) fn resolve_edges(g: &mut SymbolGraph) {
    let mut by_path: BTreeMap<FnKey, Vec<usize>> = BTreeMap::new();
    let mut by_file_name: BTreeMap<(usize, String), Vec<usize>> = BTreeMap::new();
    for (id, s) in g.symbols.iter().enumerate() {
        if s.kind != SymbolKind::Fn {
            continue;
        }
        by_path
            .entry((
                s.module.clone(),
                s.impl_of.clone().unwrap_or_default(),
                s.name.clone(),
            ))
            .or_default()
            .push(id);
        by_file_name
            .entry((s.file, s.name.clone()))
            .or_default()
            .push(id);
    }
    let mut use_maps: BTreeMap<usize, BTreeMap<String, Vec<String>>> = BTreeMap::new();
    for (fid, name, path) in &g.uses {
        use_maps
            .entry(*fid)
            .or_default()
            .insert(name.clone(), path.clone());
    }
    let empty = BTreeMap::new();

    let uniq = |v: Option<&Vec<usize>>| -> Option<usize> {
        match v {
            Some(ids) if ids.len() == 1 => Some(ids[0]),
            _ => None,
        }
    };

    let mut edges: Vec<Edge> = Vec::new();
    for call in &g.calls {
        let caller = &g.symbols[call.caller];
        let fmeta = &g.files[call.file];
        let umap = use_maps.get(&call.file).unwrap_or(&empty);
        let target: Option<usize> = if call.is_method {
            // A `.method(` call devirtualized only when the name is
            // defined exactly once in the same file.
            uniq(by_file_name.get(&(call.file, call.name.clone())))
        } else if call.path.len() == 1 {
            // Bare call: a free fn of the same module, else a `use`d name.
            uniq(by_path.get(&(caller.module.clone(), String::new(), call.name.clone()))).or_else(
                || {
                    umap.get(&call.name).and_then(|p| {
                        resolve_path(p, &fmeta.crate_key, &caller.module, None, umap, &by_path)
                    })
                },
            )
        } else {
            resolve_path(
                &call.path,
                &fmeta.crate_key,
                &caller.module,
                caller.impl_of.as_deref(),
                umap,
                &by_path,
            )
        };
        if let Some(callee) = target {
            edges.push(Edge {
                caller: call.caller,
                callee,
                line: call.line,
                tok: call.tok,
            });
        }
    }
    edges.sort();
    edges.dedup();
    g.edges = edges;
}

/// Resolves one multi-segment path (as written at the call site) to a
/// unique fn symbol, or `None`.
fn resolve_path(
    segs: &[String],
    crate_key: &str,
    module: &str,
    impl_ctx: Option<&str>,
    umap: &BTreeMap<String, Vec<String>>,
    by_path: &BTreeMap<FnKey, Vec<usize>>,
) -> Option<usize> {
    let mut segs: Vec<String> = segs.to_vec();
    if segs.is_empty() {
        return None;
    }
    // `use`-map substitution on the head segment.
    if let Some(sub) = umap.get(&segs[0]) {
        let mut s = sub.clone();
        s.extend(segs[1..].iter().cloned());
        segs = s;
    }
    let module_segs: Vec<String> = module.split("::").map(str::to_string).collect();
    let head = segs[0].as_str();
    let rest = |k: usize| segs[k..].to_vec();
    let join =
        |base: &[String], tail: Vec<String>| -> Vec<String> { [base.to_vec(), tail].concat() };

    // `Self::method` — the caller's impl type.
    if head == "Self" && segs.len() == 2 {
        let ty = impl_ctx?;
        let ids = by_path.get(&(module.to_string(), ty.to_string(), segs[1].clone()))?;
        return if ids.len() == 1 { Some(ids[0]) } else { None };
    }

    let candidates: Vec<Vec<String>> = if head == "crate" {
        vec![join(&[crate_key.to_string()], rest(1))]
    } else if head == "self" {
        vec![join(&module_segs, rest(1))]
    } else if head == "super" {
        let mut base = module_segs.clone();
        let mut k = 0;
        while segs.get(k).is_some_and(|s| s == "super") {
            base.pop();
            k += 1;
        }
        vec![join(&base, rest(k))]
    } else if EXTERNAL_HEADS.contains(&head) {
        Vec::new()
    } else if head == "netclust" {
        vec![join(&["crate".to_string()], rest(1))]
    } else if let Some(c) = head.strip_prefix("netclust_") {
        vec![join(&[c.to_string()], rest(1))]
    } else {
        // Uniform path: a submodule of the current module, or a path
        // from the crate root.
        vec![
            join(&module_segs, rest(0)),
            join(&[crate_key.to_string()], rest(0)),
        ]
    };

    for cand in candidates {
        if cand.len() < 2 {
            continue;
        }
        let name = cand[cand.len() - 1].clone();
        let prefix = &cand[..cand.len() - 1];
        // Free function at `prefix`.
        if let Some(ids) = by_path.get(&(prefix.join("::"), String::new(), name.clone())) {
            if ids.len() == 1 {
                return Some(ids[0]);
            }
        }
        // `path::Type::method` — the prefix tail as an impl type.
        if prefix.len() >= 2 {
            let ty = prefix[prefix.len() - 1].clone();
            let m = prefix[..prefix.len() - 1].join("::");
            if let Some(ids) = by_path.get(&(m, ty, name.clone())) {
                if ids.len() == 1 {
                    return Some(ids[0]);
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::SymbolGraph;
    use crate::lex::lex;

    #[test]
    fn file_modules() {
        assert_eq!(
            file_module("crates/core/src/persist/mod.rs"),
            ("core".to_string(), vec!["core".into(), "persist".into()])
        );
        assert_eq!(
            file_module("crates/core/src/stream.rs"),
            ("core".to_string(), vec!["core".into(), "stream".into()])
        );
        assert_eq!(
            file_module("src/lib.rs"),
            ("crate".to_string(), vec!["crate".into()])
        );
        assert_eq!(file_module("src/bin/netclust.rs").1, vec!["bin_netclust"]);
        assert_eq!(file_module("tests/faults.rs").1, vec!["tests_faults"]);
    }

    #[test]
    fn use_trees() {
        let src = "use a::b::{c, d::e as f, self};\nuse x::*;\n";
        let toks = lex(src);
        let code: Vec<usize> = (0..toks.len()).collect();
        let (imports, next) = parse_use(&toks, &code, 0);
        assert_eq!(
            imports,
            vec![
                ("c".to_string(), vec!["a".into(), "b".into(), "c".into()]),
                (
                    "f".to_string(),
                    vec!["a".into(), "b".into(), "d".into(), "e".into()]
                ),
                ("b".to_string(), vec!["a".into(), "b".into()]),
            ]
        );
        // The glob import binds nothing.
        let (glob, _) = parse_use(&toks, &code, next);
        assert!(glob.is_empty());
    }

    #[test]
    fn cross_file_edges_resolve() {
        let files = vec![
            ("crates/core/src/persist/mod.rs".to_string(), false),
            ("crates/core/src/persist/codec.rs".to_string(), false),
            ("crates/rtable/src/lib.rs".to_string(), false),
        ];
        let srcs = [
            "use codec::encode_frame;\nfn store() { encode_frame(); crate::persist::codec::decode_frame(); }\n",
            "pub fn encode_frame() {}\npub fn decode_frame() {}\n",
            "fn consume() { netclust_core::persist::codec::decode_frame(); }\n",
        ];
        let toks: Vec<_> = srcs.iter().map(|s| lex(s)).collect();
        let masks: Vec<_> = toks.iter().map(|t| crate::rules::test_mask_of(t)).collect();
        let g = SymbolGraph::build(&files, &toks, &masks);
        let edge_names: Vec<(String, String)> = g
            .edges
            .iter()
            .map(|e| {
                (
                    g.symbols[e.caller].name.clone(),
                    g.symbols[e.callee].name.clone(),
                )
            })
            .collect();
        assert!(edge_names.contains(&("store".to_string(), "encode_frame".to_string())));
        assert!(edge_names.contains(&("store".to_string(), "decode_frame".to_string())));
        assert!(edge_names.contains(&("consume".to_string(), "decode_frame".to_string())));
    }

    #[test]
    fn method_calls_resolve_when_unique_in_file() {
        let files = vec![("crates/core/src/a.rs".to_string(), false)];
        let toks = vec![lex(
            "struct T;\nimpl T {\n    fn step(&self) {}\n}\nfn run(t: &T) { t.step(); }\n",
        )];
        let masks = vec![crate::rules::test_mask_of(&toks[0])];
        let g = SymbolGraph::build(&files, &toks, &masks);
        assert_eq!(g.edges.len(), 1);
        assert_eq!(g.symbols[g.edges[0].callee].name, "step");
    }
}
