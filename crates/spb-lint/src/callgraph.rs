//! The workspace call graph: every `fn` item from every scanned file,
//! with call edges resolved by name.
//!
//! ## Resolution policy (conservative, documented)
//!
//! Without type information, resolution is by name with scoping
//! heuristics. Edges we cannot pin down are *dropped* (documented
//! under-approximation) rather than fanned out to every same-named
//! function; method calls fan out to every plausible inherent target.
//!
//! - **Method calls** `.name(`:
//!   - `self.name(` resolves to the enclosing type's own `fn name` in
//!     the same file when there is one; otherwise as any method call.
//!   - Names in [`STD_AMBIGUOUS_METHODS`] are skipped entirely — they
//!     collide with std collection/IO methods and would connect
//!     unrelated code (`.len()` on a `Vec` is not `Wal::len`).
//!   - Otherwise the edge fans out to every `fn name` in the workspace
//!     that takes `self` and sits in an inherent impl. Trait dispatch
//!     makes no edge: a target inside a trait impl, default-bodied in a
//!     trait, or named in any trait declaration is skipped, because the
//!     `IndexService` surface would otherwise connect the no-panic
//!     zones to the whole query engine.
//! - **Path calls**:
//!   - Bare `name(`: free functions named `name` — preferring the same
//!     file, then the same crate, else all matches. A `use` import of
//!     `name` narrows the search to the imported crate first.
//!   - `Q::name(`: functions whose owner type is `Q`, except those in
//!     trait impls; if `Q` owns none, free fns in a file whose stem is
//!     `q`/`Q` or in crate `Q` (module-qualified calls like
//!     `lexer::lex`).
//!   - `Self::name(`: owner equal to the caller's owner.
//!   - Anything unresolved produces **no edge**.
//!
//! Calls through function pointers/closures and macro-expanded calls
//! are invisible (see `ast.rs`). These are the analysis's documented
//! blind spots; the reachability rule is therefore best-effort on
//! exotic call shapes and exact on ordinary ones.

use std::collections::HashMap;

use crate::ast::{Callee, FileAst, FnItem};
use crate::FileData;

/// Method names too overloaded across std types to resolve by name.
/// An edge through any of these would connect a `Vec::push` to an
/// unrelated `push` helper; skipping them is the documented
/// under-approximation. Workspace-specific helpers that matter to the
/// rules (`latch_shared`, `wal_segment`, …) are not std names and
/// resolve normally.
pub(crate) const STD_AMBIGUOUS_METHODS: &[&str] = &[
    "len",
    "is_empty",
    "insert",
    "get",
    "get_mut",
    "push",
    "pop",
    "clear",
    "contains",
    "contains_key",
    "iter",
    "iter_mut",
    "next",
    "read",
    "write",
    "flush",
    "lock",
    "take",
    "drain",
    "extend",
    "remove",
    "join",
    "wait",
    "send",
    "recv",
    "clone",
    "as_ref",
    "as_mut",
    "into",
    "from",
    "new",
    "default",
    "fmt",
    "drop",
    "eq",
    "cmp",
    "hash",
    "read_exact",
    "write_all",
    "seek",
    "open",
    "create",
    "get_or_init",
    "encode",
    "decode",
    "min",
    "max",
    "abs",
    "swap",
    "load",
    "store",
    "fetch_add",
    "sort",
    "sort_by",
    "sort_by_key",
    "binary_search_by",
    "entry",
    "or_insert_with",
    "split_off",
    "truncate",
    "resize",
    "reserve",
    "rotate_left",
    "front",
    "back",
    "push_back",
    "push_front",
    "pop_front",
    "pop_back",
    // Workspace methods that shadow ubiquitous std/core names:
    // `Client::expect`, `wire::Cur::remaining`, `SpbTree::delete`,
    // `Router::shutdown`, `BufferPool::stats`,
    // `PivotTable::num_pivots` — an `.expect(` on an `Option` must not
    // become an edge into the client.
    "map",
    "expect",
    "stats",
    "shutdown",
    "num_pivots",
    "remaining",
    "delete",
];

/// One resolved call edge.
#[derive(Clone, Debug)]
pub(crate) struct Edge {
    /// Index of the target fn in [`CallGraph::fns`].
    pub to: usize,
    /// 1-based source line of the call site in the caller's file.
    pub line: u32,
}

/// A fn item tagged with where it lives.
#[derive(Clone, Debug)]
pub(crate) struct GraphFn {
    /// Repo-relative path of the defining file.
    pub file: String,
    /// Crate name segment (`spb-lint` from `crates/spb-lint/src/…`),
    /// empty for files outside `crates/`.
    pub krate: String,
    /// The parsed fn item.
    pub item: FnItem,
}

/// The whole-workspace call graph.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// Every fn item in the workspace.
    pub(crate) fns: Vec<GraphFn>,
    /// Outgoing edges per fn, parallel to `fns`.
    pub(crate) edges: Vec<Vec<Edge>>,
    /// File index of each fn (into the original `datas` slice).
    pub(crate) file_of: Vec<usize>,
}

impl CallGraph {
    /// Human-readable label: `Type::name` or `name`.
    pub(crate) fn label(&self, i: usize) -> String {
        let f = &self.fns[i];
        match &f.item.owner {
            Some(o) => format!("{o}::{}", f.item.name),
            None => f.item.name.clone(),
        }
    }
}

fn crate_of(rel: &str) -> String {
    rel.strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .unwrap_or("")
        .to_string()
}

fn file_stem(rel: &str) -> &str {
    rel.rsplit('/')
        .next()
        .unwrap_or(rel)
        .trim_end_matches(".rs")
}

/// Parses every file's items and builds the graph over them.
pub fn build(datas: &[FileData]) -> CallGraph {
    let asts: Vec<FileAst> = datas.iter().map(crate::ast::parse).collect();
    let mut g = CallGraph::default();
    // Trait-declared method names: a method that *appears* in any
    // trait declaration is treated as reached through that trait, and
    // method calls make no edge to it.
    let mut trait_method_names: HashMap<&str, ()> = HashMap::new();
    for ast in &asts {
        for (_, m) in &ast.trait_methods {
            trait_method_names.insert(m, ());
        }
    }
    for (fi, (d, ast)) in datas.iter().zip(&asts).enumerate() {
        for item in &ast.fns {
            g.fns.push(GraphFn {
                file: d.rel.clone(),
                krate: crate_of(&d.rel),
                item: item.clone(),
            });
            g.file_of.push(fi);
        }
    }
    // Indexes for resolution.
    let mut by_name: HashMap<&str, Vec<usize>> = HashMap::new();
    for (i, f) in g.fns.iter().enumerate() {
        by_name.entry(f.item.name.as_str()).or_default().push(i);
    }
    let mut edges: Vec<Vec<Edge>> = vec![Vec::new(); g.fns.len()];
    for (i, f) in g.fns.iter().enumerate() {
        let caller_file_idx = g.file_of[i];
        let ast = &asts[caller_file_idx];
        for call in &f.item.calls {
            let resolved = resolve(&g, &by_name, i, &call.callee, ast, &trait_method_names);
            for to in resolved {
                edges[i].push(Edge {
                    to,
                    line: call.line,
                });
            }
        }
    }
    g.edges = edges;
    g
}

/// Resolves one call site to zero or more targets.
fn resolve(
    g: &CallGraph,
    by_name: &HashMap<&str, Vec<usize>>,
    caller: usize,
    callee: &Callee,
    caller_ast: &FileAst,
    trait_method_names: &HashMap<&str, ()>,
) -> Vec<usize> {
    match callee {
        Callee::Method(name) | Callee::SelfMethod(name) => {
            if STD_AMBIGUOUS_METHODS.contains(&name.as_str()) {
                return Vec::new();
            }
            // `self.name(` binds to the enclosing type's own inherent
            // method when it has one — Rust prefers it over any trait's.
            if let Callee::SelfMethod(_) = callee {
                let own = ["Self".to_string(), name.clone()];
                let own = resolve_path(g, by_name, caller, &own, caller_ast);
                if !own.is_empty() {
                    return own;
                }
            }
            let Some(cands) = by_name.get(name.as_str()) else {
                return Vec::new();
            };
            cands
                .iter()
                .copied()
                .filter(|&t| {
                    let item = &g.fns[t].item;
                    item.has_self
                        && item.trait_name.is_none()
                        && !trait_method_names.contains_key(item.name.as_str())
                })
                .collect()
        }
        Callee::Path(segs) => resolve_path(g, by_name, caller, segs, caller_ast),
    }
}

fn resolve_path(
    g: &CallGraph,
    by_name: &HashMap<&str, Vec<usize>>,
    caller: usize,
    segs: &[String],
    caller_ast: &FileAst,
) -> Vec<usize> {
    let Some(name) = segs.last() else {
        return Vec::new();
    };
    let Some(cands) = by_name.get(name.as_str()) else {
        return Vec::new();
    };
    let caller_fn = &g.fns[caller];
    if segs.len() == 1 {
        // Bare call: free functions only. Import narrows to a crate.
        let free: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&t| g.fns[t].item.owner.is_none())
            .collect();
        if free.is_empty() {
            return Vec::new();
        }
        // `use crate::x::name;` / `use spb_core::y::name;` — prefer
        // targets whose path is consistent with the import.
        if let Some(u) = caller_ast.uses.iter().find(|u| &u.alias == name) {
            let imported_crate = match u.segments.first().map(String::as_str) {
                Some("crate") | Some("self") | Some("super") => caller_fn.krate.clone(),
                Some(ext) => ext.replace('_', "-"),
                None => String::new(),
            };
            let narrowed: Vec<usize> = free
                .iter()
                .copied()
                .filter(|&t| g.fns[t].krate == imported_crate)
                .collect();
            if !narrowed.is_empty() {
                return narrowed;
            }
        }
        let same_file: Vec<usize> = free
            .iter()
            .copied()
            .filter(|&t| g.fns[t].file == caller_fn.file)
            .collect();
        if !same_file.is_empty() {
            return same_file;
        }
        let same_crate: Vec<usize> = free
            .iter()
            .copied()
            .filter(|&t| g.fns[t].krate == caller_fn.krate)
            .collect();
        return if same_crate.is_empty() {
            free
        } else {
            same_crate
        };
    }
    // Qualified call: the qualifier is the next-to-last segment.
    let q = &segs[segs.len() - 2];
    if q == "Self" {
        let owner = caller_fn.item.owner.clone();
        return cands
            .iter()
            .copied()
            .filter(|&t| g.fns[t].item.owner == owner && g.fns[t].file == caller_fn.file)
            .collect();
    }
    // `Type::name` — owner match anywhere in the workspace.
    let by_owner: Vec<usize> = cands
        .iter()
        .copied()
        .filter(|&t| g.fns[t].item.owner.as_deref() == Some(q.as_str()))
        .collect();
    if !by_owner.is_empty() {
        return by_owner
            .into_iter()
            .filter(|&t| g.fns[t].item.trait_name.is_none())
            .collect();
    }
    // `module::name` — free fn in a file whose stem matches the
    // qualifier, or in a crate whose ident matches (`spb_core::f`).
    let q_lower = q.to_lowercase();
    let q_crate = q.replace('_', "-");
    cands
        .iter()
        .copied()
        .filter(|&t| {
            let tf = &g.fns[t];
            tf.item.owner.is_none() && (file_stem(&tf.file) == q_lower || tf.krate == q_crate)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze;

    fn graph(files: &[(&str, &str)]) -> CallGraph {
        let mut out = Vec::new();
        let datas: Vec<FileData> = files
            .iter()
            .map(|(rel, src)| analyze(rel.to_string(), src, &mut out))
            .collect();
        build(&datas)
    }

    fn find(g: &CallGraph, label: &str) -> usize {
        (0..g.fns.len())
            .find(|&i| g.label(i) == label)
            .unwrap_or_else(|| panic!("no fn {label}"))
    }

    fn targets(g: &CallGraph, from: &str) -> Vec<String> {
        let i = find(g, from);
        g.edges[i].iter().map(|e| g.label(e.to)).collect()
    }

    #[test]
    fn same_file_bare_call_resolves() {
        let g = graph(&[("crates/a/src/m.rs", "fn f() { h(); }\nfn h() {}")]);
        assert_eq!(targets(&g, "f"), ["h"]);
    }

    #[test]
    fn use_import_narrows_to_the_right_crate() {
        let g = graph(&[
            (
                "crates/server/src/connection.rs",
                "use crate::server::control_response;\nfn handle() { control_response(); }",
            ),
            (
                "crates/server/src/server.rs",
                "pub fn control_response() {}",
            ),
            ("crates/other/src/x.rs", "pub fn control_response() {}"),
        ]);
        assert_eq!(targets(&g, "handle"), ["control_response"]);
        let t = find(&g, "handle");
        let to = g.edges[t][0].to;
        assert_eq!(g.fns[to].file, "crates/server/src/server.rs");
    }

    #[test]
    fn method_call_through_a_trait_makes_no_edge() {
        let g = graph(&[(
            "crates/a/src/m.rs",
            "trait Svc { fn wal_segment(&self); }\nimpl Svc for Tree { fn wal_segment(&self) {} }\nfn drive(s: &dyn Svc) { s.wal_segment(); Svc::wal_segment(s); }\nfn path(t: &Tree) { Tree::wal_segment(t); }",
        )]);
        assert!(targets(&g, "drive").is_empty());
        assert!(targets(&g, "path").is_empty());
    }

    #[test]
    fn ambiguous_std_methods_make_no_edges() {
        let g = graph(&[(
            "crates/a/src/m.rs",
            "impl W { fn push(&mut self) {} }\nfn f(v: &mut Vec<u8>) { v.push(0); }",
        )]);
        assert!(targets(&g, "f").is_empty());
    }

    #[test]
    fn type_qualified_path_resolves_to_owner() {
        let g = graph(&[
            (
                "crates/a/src/m.rs",
                "impl Page { pub fn new() -> Page { Page }\n pub fn mk() -> Page { Page } }",
            ),
            ("crates/b/src/n.rs", "fn f() { let _ = Page::mk(); }"),
        ]);
        assert_eq!(targets(&g, "f"), ["Page::mk"]);
    }

    #[test]
    fn module_qualified_path_resolves_by_file_stem() {
        let g = graph(&[
            ("crates/a/src/lexer.rs", "pub fn lex() {}"),
            ("crates/a/src/m.rs", "fn f() { lexer::lex(); }"),
        ]);
        assert_eq!(targets(&g, "f"), ["lex"]);
    }

    #[test]
    fn self_qualified_resolves_within_owner() {
        let g = graph(&[(
            "crates/a/src/m.rs",
            "impl W { fn a(&self) { Self::b(); }\n fn b() {} }\nimpl V { fn b() {} }",
        )]);
        assert_eq!(targets(&g, "W::a"), ["W::b"]);
    }

    #[test]
    fn unresolvable_calls_make_no_edges() {
        let g = graph(&[("crates/a/src/m.rs", "fn f() { totally_unknown(); }")]);
        assert!(targets(&g, "f").is_empty());
    }

    #[test]
    fn inherent_method_call_is_static() {
        let g = graph(&[(
            "crates/a/src/m.rs",
            "impl Wal { fn segment_reader(&self) {} }\nfn f(w: &Wal) { w.segment_reader(); }",
        )]);
        assert_eq!(targets(&g, "f"), ["Wal::segment_reader"]);
    }
}
