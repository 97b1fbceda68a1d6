//! An item-level Rust parser over the shared token stream.
//!
//! This is deliberately *not* a full Rust parser: the interprocedural
//! rules only need to know which functions exist, which `impl`/`trait`
//! block owns each one, and which call expressions each body contains.
//! Everything else (expressions, types, generics, macros) is skipped by
//! token adjacency, the same discipline the token-level rules use.
//!
//! ## What is extracted
//!
//! - `fn` items with their owner (`impl Type` / `impl Trait for Type` /
//!   `trait Trait`), whether they take `self`, and the token range of
//!   their body. Nested `fn`s are their own items; closure bodies belong
//!   to the enclosing function (a closure runs on the caller's thread,
//!   which is exactly the property the reachability rules care about).
//! - Call expressions inside each body: method calls (`.name(`), path
//!   calls (`a::b::name(`), and bare calls (`name(`).
//! - `use` declarations, as `alias → path segments` pairs, which name
//!   resolution uses to pin a bare or qualified call to a crate.
//! - Trait method *declarations* (signature-only or default-bodied), so
//!   the call-graph layer can label trait-dispatched edges.
//!
//! ## Documented approximations
//!
//! - Tokens inside macro invocations are scanned like ordinary code:
//!   `some_macro!(helper(x))` records a call to `helper`. Macro
//!   *expansion* is invisible — a macro whose expansion calls a helper
//!   that never appears textually is missed (no such macro exists in
//!   this workspace; `matches!`/`format!`/`vec!` bodies are plain
//!   expressions).
//! - Turbofish calls (`name::<T>(...)`) are missed — the `(` is not
//!   adjacent to the name. The workspace uses turbofish only on std
//!   methods, which resolution skips anyway.
//! - Function pointers and closures passed as values are not tracked as
//!   edges (calling `f` where `f: impl Fn()` resolves to nothing). The
//!   reachability rule treats this as an under-approximation and the
//!   workspace keeps panicking work out of such callbacks.

use crate::lexer::{Tok, TokKind};
use crate::FileData;

/// A call expression inside a function body.
#[derive(Clone, Debug)]
pub(crate) struct CallSite {
    /// 1-based source line of the callee name.
    pub line: u32,
    /// What is being called.
    pub callee: Callee,
}

/// The syntactic shape of a call.
#[derive(Clone, Debug)]
pub(crate) enum Callee {
    /// `.name(` — receiver type unknown.
    Method(String),
    /// `self.name(` — the receiver is the enclosing impl's type.
    SelfMethod(String),
    /// `seg::seg::name(` or a bare `name(` (a one-segment path).
    Path(Vec<String>),
}

/// One `fn` item.
#[derive(Clone, Debug)]
pub(crate) struct FnItem {
    /// The function's bare name.
    pub name: String,
    /// Enclosing `impl` type (or trait, for default-bodied trait
    /// methods); `None` for free functions.
    pub owner: Option<String>,
    /// Trait being implemented when the enclosing block is
    /// `impl Trait for Type` or a `trait Trait` declaration.
    pub trait_name: Option<String>,
    /// Whether the first parameter is (some form of) `self`.
    pub has_self: bool,
    /// Token range `[start, end)` of the body including its braces;
    /// `start == end` for signature-only trait declarations.
    pub body: (usize, usize),
    /// Call expressions inside the body (closures included, nested
    /// `fn` bodies excluded — those are their own items).
    pub calls: Vec<CallSite>,
}

/// One `use` declaration leaf: the name it binds and the full path.
#[derive(Clone, Debug)]
pub(crate) struct UseItem {
    /// The bound name (the last segment, or the `as` alias).
    pub alias: String,
    /// Full path segments, e.g. `["crate", "server", "control_response"]`.
    pub segments: Vec<String>,
}

/// The item-level view of one file.
#[derive(Clone, Debug, Default)]
pub(crate) struct FileAst {
    /// Every `fn` with a body.
    pub fns: Vec<FnItem>,
    /// `use` leaves for name resolution.
    pub uses: Vec<UseItem>,
    /// `(trait, method)` pairs declared in `trait` blocks (with or
    /// without a default body).
    pub trait_methods: Vec<(String, String)>,
}

/// Context for the block currently being scanned.
#[derive(Clone, Debug)]
enum Scope {
    /// `impl Type` / `impl Trait for Type`.
    Impl {
        ty: String,
        trait_name: Option<String>,
    },
    /// `trait Name { .. }`.
    Trait { name: String },
}

/// Parses the (test-stripped) token stream of one file.
pub(crate) fn parse(d: &FileData) -> FileAst {
    let toks = &d.code;
    let mut ast = FileAst::default();
    // (scope, brace depth its `{` opened at).
    let mut scopes: Vec<(Scope, usize)> = Vec::new();
    // Open functions: (index into ast.fns, depth of their body `{`).
    let mut open_fns: Vec<(usize, usize)> = Vec::new();
    let mut depth = 0usize;
    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        match (t.kind, t.text.as_str()) {
            (TokKind::Punct, "{") => {
                depth += 1;
                i += 1;
            }
            (TokKind::Punct, "}") => {
                depth = depth.saturating_sub(1);
                while scopes.last().is_some_and(|(_, d0)| *d0 > depth) {
                    scopes.pop();
                }
                while open_fns.last().is_some_and(|(_, d0)| *d0 > depth) {
                    if let Some((fi, _)) = open_fns.pop() {
                        if let Some(f) = ast.fns.get_mut(fi) {
                            f.body.1 = i + 1;
                        }
                    }
                }
                i += 1;
            }
            (TokKind::Ident, "use") => {
                i = parse_use(toks, i, &mut ast.uses);
            }
            (TokKind::Ident, "impl") => {
                let (scope, next) = parse_impl_header(toks, i);
                // parse_impl_header stops at the opening `{` (or at a
                // `;` for `impl Trait for Type;`-style items, where
                // there is no block to scope).
                if toks.get(next).is_some_and(|t| t.text == "{") {
                    scopes.push((scope, depth + 1));
                }
                i = next;
            }
            (TokKind::Ident, "trait") => {
                let name = toks
                    .get(i + 1)
                    .filter(|n| n.kind == TokKind::Ident)
                    .map(|n| n.text.clone())
                    .unwrap_or_default();
                let mut k = i + 2;
                while k < toks.len() && toks[k].text != "{" && toks[k].text != ";" {
                    k += 1;
                }
                if toks.get(k).is_some_and(|t| t.text == "{") {
                    scopes.push((Scope::Trait { name }, depth + 1));
                }
                i = k;
            }
            (TokKind::Ident, "fn") => {
                i = parse_fn(toks, i, depth, &scopes, &mut ast, &mut open_fns);
            }
            (TokKind::Ident, _) => {
                record_call(toks, i, &open_fns, &mut ast);
                i += 1;
            }
            _ => {
                i += 1;
            }
        }
    }
    // Unterminated bodies (malformed fixtures): close at EOF.
    while let Some((fi, _)) = open_fns.pop() {
        if let Some(f) = ast.fns.get_mut(fi) {
            f.body.1 = toks.len();
        }
    }
    ast
}

/// Parses `use a::b::{c, d as e};` into leaves. Returns the index past
/// the terminating `;`.
fn parse_use(toks: &[Tok], start: usize, out: &mut Vec<UseItem>) -> usize {
    // Collect until `;`, expanding one level of `{..}` groups (nested
    // groups are flattened segment-wise, which is enough here).
    let mut prefix: Vec<String> = Vec::new();
    let mut i = start + 1;
    let mut group_base: Vec<Vec<String>> = Vec::new();
    let mut current: Vec<String> = Vec::new();
    let mut alias: Option<String> = None;
    let flush = |prefix: &[String],
                 current: &mut Vec<String>,
                 alias: &mut Option<String>,
                 out: &mut Vec<UseItem>| {
        if current.is_empty() {
            return;
        }
        let mut segments = prefix.to_vec();
        segments.append(current);
        let bound = alias
            .take()
            .or_else(|| segments.last().cloned())
            .unwrap_or_default();
        if bound != "*" {
            out.push(UseItem {
                alias: bound,
                segments,
            });
        }
    };
    while i < toks.len() {
        match toks[i].text.as_str() {
            ";" => {
                flush(&prefix, &mut current, &mut alias, out);
                return i + 1;
            }
            "{" => {
                // `a::b::{...}` — what was collected so far becomes the
                // prefix for each group member.
                prefix.append(&mut current);
                group_base.push(prefix.clone());
                i += 1;
            }
            "}" => {
                flush(&prefix, &mut current, &mut alias, out);
                if let Some(base) = group_base.pop() {
                    prefix = base;
                }
                i += 1;
            }
            "," => {
                flush(&prefix, &mut current, &mut alias, out);
                i += 1;
            }
            ":" => {
                i += 1;
            }
            "as" if toks[i].kind == TokKind::Ident => {
                alias = toks
                    .get(i + 1)
                    .filter(|n| n.kind == TokKind::Ident)
                    .map(|n| n.text.clone());
                i += 2;
            }
            _ => {
                if toks[i].kind == TokKind::Ident || toks[i].text == "*" {
                    current.push(toks[i].text.clone());
                }
                i += 1;
            }
        }
    }
    i
}

/// Parses an `impl` header from its keyword. Returns the scope and the
/// index of the opening `{` (or of the token that ended the header).
fn parse_impl_header(toks: &[Tok], start: usize) -> (Scope, usize) {
    let mut i = start + 1;
    // Generic parameters on the impl itself.
    if toks.get(i).is_some_and(|t| t.text == "<") {
        i = skip_angles(toks, i);
    }
    let (first, mut i) = parse_type_path(toks, i);
    let mut trait_name = None;
    let mut ty = first;
    if toks.get(i).is_some_and(|t| t.text == "for") {
        let (second, j) = parse_type_path(toks, i + 1);
        trait_name = Some(ty);
        ty = second;
        i = j;
    }
    // Skip a `where` clause (no braces appear inside one).
    while i < toks.len() && toks[i].text != "{" && toks[i].text != ";" {
        i += 1;
    }
    (Scope::Impl { ty, trait_name }, i)
}

/// Parses a type path (`a::b::Name<..>`, `&mut Name`, `dyn Trait`),
/// returning its *last* plain segment and the index past it.
fn parse_type_path(toks: &[Tok], start: usize) -> (String, usize) {
    let mut i = start;
    let mut last = String::new();
    while i < toks.len() {
        let t = &toks[i];
        match (t.kind, t.text.as_str()) {
            (TokKind::Punct, "&") | (TokKind::Punct, "*") => i += 1,
            (TokKind::Lifetime, _) => i += 1,
            (TokKind::Ident, "mut" | "dyn" | "const") => i += 1,
            (TokKind::Ident, _) => {
                last = t.text.clone();
                i += 1;
                if toks.get(i).is_some_and(|n| n.text == "<") {
                    i = skip_angles(toks, i);
                }
                if toks.get(i).is_some_and(|n| n.text == ":")
                    && toks.get(i + 1).is_some_and(|n| n.text == ":")
                {
                    i += 2;
                    continue;
                }
                break;
            }
            _ => break,
        }
    }
    (last, i)
}

/// From a `<`, returns the index past its matching `>`. `->` arrows
/// never appear before the matching close in the positions this is
/// called from (generic parameter lists and type arguments); `>>`
/// arrives as two `>` tokens and needs no special case.
fn skip_angles(toks: &[Tok], start: usize) -> usize {
    let mut depth = 0usize;
    let mut i = start;
    while i < toks.len() {
        match toks[i].text.as_str() {
            "<" => depth += 1,
            ">" => {
                // `->` inside `Fn() -> R` type arguments.
                let arrow = i > 0 && toks[i - 1].text == "-";
                if !arrow {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        return i + 1;
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
    i
}

/// Parses a `fn` item from its keyword: signature, `self` detection,
/// and (when present) the body opening. Returns the index to continue
/// scanning from — the token *after* `{` (so the body is scanned for
/// calls and nested items) or after `;`.
fn parse_fn(
    toks: &[Tok],
    start: usize,
    depth: usize,
    scopes: &[(Scope, usize)],
    ast: &mut FileAst,
    open_fns: &mut Vec<(usize, usize)>,
) -> usize {
    let Some(name_tok) = toks.get(start + 1).filter(|n| n.kind == TokKind::Ident) else {
        return start + 1;
    };
    let name = name_tok.text.clone();
    let mut i = start + 2;
    if toks.get(i).is_some_and(|t| t.text == "<") {
        i = skip_angles(toks, i);
    }
    // Parameter list.
    let mut has_self = false;
    if toks.get(i).is_some_and(|t| t.text == "(") {
        let mut k = i + 1;
        // `self`, `&self`, `&mut self`, `&'a self`, `mut self`.
        while k < toks.len() {
            match (toks[k].kind, toks[k].text.as_str()) {
                (TokKind::Punct, "&") | (TokKind::Lifetime, _) => k += 1,
                (TokKind::Ident, "mut") => k += 1,
                (TokKind::Ident, "self") => {
                    has_self = true;
                    break;
                }
                _ => break,
            }
        }
        // Skip past the whole parameter list.
        let mut pdepth = 0usize;
        while i < toks.len() {
            match toks[i].text.as_str() {
                "(" => pdepth += 1,
                ")" => {
                    pdepth = pdepth.saturating_sub(1);
                    if pdepth == 0 {
                        i += 1;
                        break;
                    }
                }
                _ => {}
            }
            i += 1;
        }
    }
    // Return type / where clause: scan to the body `{` or a `;`.
    // Angle-bracketed segments are skipped wholesale so a `<` holding
    // e.g. `Box<dyn Fn() -> usize>` cannot hide a stray `{`.
    while i < toks.len() {
        match toks[i].text.as_str() {
            "{" | ";" => break,
            "<" => i = skip_angles(toks, i),
            _ => i += 1,
        }
    }
    let (owner, trait_name, in_trait_decl) = match scopes.last() {
        Some((Scope::Impl { ty, trait_name }, _)) => (Some(ty.clone()), trait_name.clone(), false),
        Some((Scope::Trait { name: tn }, _)) => (Some(tn.clone()), Some(tn.clone()), true),
        _ => (None, None, false),
    };
    if in_trait_decl {
        if let Some(tn) = &trait_name {
            ast.trait_methods.push((tn.clone(), name.clone()));
        }
    }
    if toks.get(i).is_some_and(|t| t.text == "{") {
        ast.fns.push(FnItem {
            name,
            owner,
            trait_name,
            has_self,
            body: (i, i), // end patched when the brace closes
            calls: Vec::new(),
        });
        open_fns.push((ast.fns.len() - 1, depth + 1));
        // Return the `{` itself so the main loop counts its depth and
        // then scans the body for nested items and calls.
        i
    } else {
        // Signature-only declaration (trait method without a body).
        i + 1
    }
}

/// Names whose following `(` is not a call expression.
const NON_CALL_KEYWORDS: &[&str] = &[
    "fn", "if", "while", "match", "for", "return", "in", "as", "let", "mut", "ref", "move", "else",
    "loop", "break", "continue", "where", "impl", "dyn", "use", "pub", "crate", "super", "mod",
    "struct", "enum", "union", "trait", "unsafe", "async", "await", "box", "yield", "const",
    "static", "type",
];

/// Records a call expression anchored at token `i` (an identifier), if
/// `toks[i..]` looks like one and a function body is open.
fn record_call(toks: &[Tok], i: usize, open_fns: &[(usize, usize)], ast: &mut FileAst) {
    let Some(&(fi, _)) = open_fns.last() else {
        return;
    };
    let t = &toks[i];
    if toks.get(i + 1).map(|n| n.text.as_str()) != Some("(") {
        return;
    }
    if NON_CALL_KEYWORDS.contains(&t.text.as_str()) {
        return;
    }
    let prev = i.checked_sub(1).map(|p| toks[p].text.as_str());
    let callee = if prev == Some(".") {
        let on_self = i >= 2 && toks[i - 2].text == "self" && (i < 3 || toks[i - 3].text != ".");
        if on_self {
            Callee::SelfMethod(t.text.clone())
        } else {
            Callee::Method(t.text.clone())
        }
    } else {
        // Walk back over `seg ::` pairs to collect the full path.
        let mut segments = vec![t.text.clone()];
        let mut k = i;
        while k >= 2
            && toks[k - 1].text == ":"
            && toks[k - 2].text == ":"
            && k >= 3
            && toks[k - 3].kind == TokKind::Ident
        {
            segments.insert(0, toks[k - 3].text.clone());
            k -= 3;
        }
        // `fn name(` — a definition, not a call (the definition's name
        // token is consumed by parse_fn, but a macro-generated stream
        // could still present one).
        if k >= 1 && toks[k - 1].text == "fn" {
            return;
        }
        Callee::Path(segments)
    };
    if let Some(f) = ast.fns.get_mut(fi) {
        f.calls.push(CallSite {
            line: t.line,
            callee,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_src(src: &str) -> FileAst {
        let mut out = Vec::new();
        let d = crate::analyze("crates/x/src/a.rs".to_string(), src, &mut out);
        parse(&d)
    }

    #[test]
    fn free_fns_and_calls() {
        let ast = parse_src("fn a() { b(); c::d(); }\nfn b() {}\n");
        assert_eq!(ast.fns.len(), 2);
        let a = &ast.fns[0];
        assert_eq!(a.name, "a");
        assert!(a.owner.is_none());
        assert!(!a.has_self);
        assert_eq!(a.calls.len(), 2);
        match &a.calls[0].callee {
            Callee::Path(p) => assert_eq!(p, &["b"]),
            other => panic!("{other:?}"),
        }
        match &a.calls[1].callee {
            Callee::Path(p) => assert_eq!(p, &["c", "d"]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn impl_blocks_set_owner_and_self() {
        let ast = parse_src(
            "impl<T> Widget<T> {\n    pub fn new() -> Self { Widget { t: 0 } }\n    fn poke(&mut self) { self.prod(); }\n}",
        );
        assert_eq!(ast.fns.len(), 2);
        assert_eq!(ast.fns[0].owner.as_deref(), Some("Widget"));
        assert!(!ast.fns[0].has_self);
        assert!(ast.fns[1].has_self);
        match &ast.fns[1].calls[0].callee {
            Callee::SelfMethod(m) => assert_eq!(m, "prod"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn trait_impls_carry_the_trait_name() {
        let ast = parse_src(
            "trait Svc {\n    fn go(&self);\n    fn twice(&self) { self.go(); self.go(); }\n}\nimpl Svc for Real {\n    fn go(&self) {}\n}",
        );
        assert!(ast
            .trait_methods
            .iter()
            .any(|(t, m)| t == "Svc" && m == "go"));
        assert!(ast
            .trait_methods
            .iter()
            .any(|(t, m)| t == "Svc" && m == "twice"));
        // The default-bodied `twice` is an item owned by the trait.
        let twice = ast.fns.iter().find(|f| f.name == "twice").unwrap();
        assert_eq!(twice.trait_name.as_deref(), Some("Svc"));
        let go = ast
            .fns
            .iter()
            .find(|f| f.owner.as_deref() == Some("Real"))
            .unwrap();
        assert_eq!(go.trait_name.as_deref(), Some("Svc"));
    }

    #[test]
    fn nested_fns_own_their_calls() {
        let ast = parse_src("fn outer() {\n    fn inner() { leak(); }\n    fine();\n}");
        let outer = ast.fns.iter().find(|f| f.name == "outer").unwrap();
        let inner = ast.fns.iter().find(|f| f.name == "inner").unwrap();
        assert_eq!(outer.calls.len(), 1);
        assert_eq!(inner.calls.len(), 1);
        match &outer.calls[0].callee {
            Callee::Path(p) => assert_eq!(p, &["fine"]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn closures_attribute_to_the_enclosing_fn() {
        let ast = parse_src("fn f() { run(|| helper()); }");
        let f = &ast.fns[0];
        let names: Vec<_> = f
            .calls
            .iter()
            .map(|c| match &c.callee {
                Callee::Path(p) => p.join("::"),
                Callee::Method(m) | Callee::SelfMethod(m) => format!(".{m}"),
            })
            .collect();
        assert_eq!(names, ["run", "helper"]);
    }

    #[test]
    fn use_items_expand_groups_and_aliases() {
        let ast = parse_src(
            "use crate::server::{control_response, Shared as S};\nuse std::io;\nfn f() {}",
        );
        let cr = ast
            .uses
            .iter()
            .find(|u| u.alias == "control_response")
            .unwrap();
        assert_eq!(cr.segments, ["crate", "server", "control_response"]);
        let s = ast.uses.iter().find(|u| u.alias == "S").unwrap();
        assert_eq!(s.segments, ["crate", "server", "Shared"]);
        assert!(ast.uses.iter().any(|u| u.alias == "io"));
    }

    #[test]
    fn generics_and_where_clauses_do_not_derail() {
        let ast = parse_src(
            "impl<O: Obj, D: Dist<O>> Service for Tree<O, D> where D: Send {\n    fn run(&self, f: impl Fn() -> usize) -> Result<u8, E> { f(); self.step() }\n}",
        );
        let run = &ast.fns[0];
        assert_eq!(run.owner.as_deref(), Some("Tree"));
        assert_eq!(run.trait_name.as_deref(), Some("Service"));
        assert!(run.has_self);
        assert!(run
            .calls
            .iter()
            .any(|c| matches!(&c.callee, Callee::SelfMethod(m) if m == "step")));
    }

    #[test]
    fn method_call_on_result_of_call() {
        let ast = parse_src("fn f(w: &W) { w.lock_pending().clear(); }");
        let names: Vec<_> = ast.fns[0]
            .calls
            .iter()
            .map(|c| match &c.callee {
                Callee::Method(m) | Callee::SelfMethod(m) => m.clone(),
                Callee::Path(p) => p.join("::"),
            })
            .collect();
        assert_eq!(names, ["lock_pending", "clear"]);
    }
}
