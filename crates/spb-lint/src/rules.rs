//! The rule implementations. Each rule is a pure function over one (or
//! all) [`FileData`]s pushing [`Violation`]s; suppression markers are
//! honored via [`FileData::allowed`].

use std::collections::HashSet;

use crate::lexer::{Tok, TokKind};
use crate::{end_of_attr, match_brace, FileData, Rule, Violation};

/// Files where *nothing* may panic: every byte read off disk or off the
/// wire flows through these, so a malformed input must surface as a
/// typed error, never a unwind. Paths are repo-relative.
///
/// Two mechanisms split the work, with no overlap. Each file opens with
/// a `#![cfg_attr(not(test), deny(clippy::unwrap_used, …))]` line, so
/// clippy rejects literal `unwrap`/`expect`/`panic!`/`unreachable!`/
/// `todo!`/`unimplemented!`/indexing (`self_check` asserts the line is
/// there). [`panic_reach`] covers what clippy cannot see: the `assert!`
/// family, and calls that reach a panic in another file.
pub const NO_PANIC_ZONES: &[&str] = &[
    "crates/server/src/wire.rs",
    "crates/server/src/server.rs",
    "crates/server/src/connection.rs",
    "crates/storage/src/raf.rs",
    "crates/storage/src/pager.rs",
    "crates/storage/src/wal.rs",
    "crates/bptree/src/node.rs",
    "crates/bptree/src/tree.rs",
];

fn push(d: &FileData, out: &mut Vec<Violation>, rule: Rule, line: u32, message: String) {
    if d.allowed(rule, line) {
        return;
    }
    out.push(Violation {
        file: d.rel.clone(),
        line,
        rule,
        message,
    });
}

/// Files whose decode functions must match exhaustively.
const DECODE_FILES: &[&str] = &["crates/server/src/wire.rs", "crates/storage/src/wal.rs"];

fn is_decode_fn(name: &str) -> bool {
    name.starts_with("decode") || name == "from_byte"
}

/// R4 — `catch-all`: no `_ =>` arm inside wire/WAL decode functions. A
/// catch-all silently swallows newly added opcodes or record types; a
/// named binding (`other => ...`) at least carries the unknown value
/// into the error, and adding an enum variant then fails loudly at the
/// match instead of being misparsed.
pub fn catch_all(d: &FileData, out: &mut Vec<Violation>) {
    if !DECODE_FILES.contains(&d.rel.as_str()) {
        return;
    }
    let toks = &d.code;
    let mut depth = 0usize;
    let mut pending_fn: Option<String> = None;
    let mut fn_stack: Vec<(String, usize)> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        match t.text.as_str() {
            "{" => {
                depth += 1;
                if let Some(name) = pending_fn.take() {
                    fn_stack.push((name, depth));
                }
            }
            "}" => {
                if fn_stack.last().is_some_and(|(_, d0)| *d0 == depth) {
                    fn_stack.pop();
                }
                depth = depth.saturating_sub(1);
            }
            "fn" if t.kind == TokKind::Ident => {
                pending_fn = toks
                    .get(i + 1)
                    .filter(|n| n.kind == TokKind::Ident)
                    .map(|n| n.text.clone());
            }
            "_" if t.kind == TokKind::Ident => {
                let arrow = toks.get(i + 1).map(|n| n.text.as_str()) == Some("=")
                    && toks.get(i + 2).map(|n| n.text.as_str()) == Some(">");
                if arrow && fn_stack.iter().any(|(n, _)| is_decode_fn(n)) {
                    push(
                        d,
                        out,
                        Rule::CatchAll,
                        t.line,
                        "`_ =>` catch-all in a decode function; bind the value \
                         (`other => ...`) so unknown bytes surface in the error"
                            .to_string(),
                    );
                }
            }
            _ => {}
        }
    }
}

/// Path prefixes where float comparisons must be NaN-total. The accel
/// crate compares model errors, recall numbers, and user-supplied
/// contraction/alpha parameters — values produced by arithmetic that
/// can degenerate to NaN (empty leaves, zero-length runs) or arrive
/// hostile off the wire. `partial_cmp` there either feeds an `unwrap`
/// (a panic in a no-panic zone) or silently imposes an arbitrary
/// order; `f64::total_cmp` / explicit NaN handling is always available.
pub(crate) const NAN_UNSAFE_ZONES: &[&str] = &["crates/accel/src/"];

/// R8 — `nan-unsafe`: no `.partial_cmp(..)` calls inside the accel
/// zone; sort and compare floats with `total_cmp` (or handle NaN
/// explicitly) so a degenerate model parameter cannot panic or
/// scramble an ordering.
pub fn nan_unsafe(d: &FileData, out: &mut Vec<Violation>) {
    if !NAN_UNSAFE_ZONES.iter().any(|z| d.rel.starts_with(z)) {
        return;
    }
    let toks = &d.code;
    for (i, t) in toks.iter().enumerate() {
        if t.kind == TokKind::Ident
            && t.text == "partial_cmp"
            && i > 0
            && toks[i - 1].text == "."
            && toks.get(i + 1).is_some_and(|n| n.text == "(")
        {
            push(
                d,
                out,
                Rule::NanUnsafe,
                t.line,
                "`.partial_cmp()` is NaN-unsafe in the accel zone; use `f64::total_cmp` \
                 or handle the NaN case explicitly"
                    .to_string(),
            );
        }
    }
}

#[derive(Clone, Copy, PartialEq)]
enum DefKind {
    Enum,
    Struct,
}

struct Target {
    file: &'static str,
    kind: DefKind,
    name: &'static str,
}

/// The counter structs and error enums whose members must all be live.
const DEAD_VARIANT_TARGETS: &[Target] = &[
    Target {
        file: "crates/server/src/wire.rs",
        kind: DefKind::Enum,
        name: "ErrorCode",
    },
    Target {
        file: "crates/server/src/wire.rs",
        kind: DefKind::Enum,
        name: "WireError",
    },
    Target {
        file: "crates/core/src/tree.rs",
        kind: DefKind::Struct,
        name: "QueryStats",
    },
];

/// R5 — `dead-variant`: every variant of the wire error enums and every
/// `QueryStats` counter field must be referenced outside its definition
/// block (warn by default; `--deny-all` promotes). A counter nobody
/// increments or reads is a hole in the observability story, not a
/// feature.
pub fn dead_variants(datas: &[FileData], out: &mut Vec<Violation>) {
    for target in DEAD_VARIANT_TARGETS {
        let Some(d) = datas.iter().find(|d| d.rel == target.file) else {
            continue;
        };
        let Some((members, span)) = extract_members(&d.code, target) else {
            continue;
        };
        for (name, line) in members {
            let referenced = datas.iter().any(|f| {
                f.code.iter().any(|tok| {
                    tok.kind == TokKind::Ident
                        && tok.text == name
                        && !(f.rel == target.file && (span.0..=span.1).contains(&tok.line))
                })
            });
            if !referenced {
                push(
                    d,
                    out,
                    Rule::DeadVariant,
                    line,
                    format!(
                        "`{}::{}` is never referenced outside its definition (dead counter \
                         or error code)",
                        target.name, name
                    ),
                );
            }
        }
    }
}

/// Member names paired with their declaration lines.
type Members = Vec<(String, u32)>;
/// Inclusive (first, last) line span of a definition block.
type LineSpan = (u32, u32);

/// Returns the member names (with lines) of the target item plus the
/// line span of its definition block.
fn extract_members(toks: &[Tok], target: &Target) -> Option<(Members, LineSpan)> {
    let kw = match target.kind {
        DefKind::Enum => "enum",
        DefKind::Struct => "struct",
    };
    let at = (0..toks.len().saturating_sub(1))
        .find(|&i| toks[i].text == kw && toks[i + 1].text == target.name)?;
    let open = (at..toks.len()).find(|&i| toks[i].text == "{")?;
    let end = match_brace(toks, open); // index past '}'
    let span = (
        toks[at].line,
        toks.get(end - 1).map_or(toks[at].line, |t| t.line),
    );

    let mut members = Vec::new();
    let mut depth = 1usize;
    let mut k = open + 1;
    while k < end.saturating_sub(1) {
        let t = &toks[k];
        match t.text.as_str() {
            "#" if toks.get(k + 1).is_some_and(|n| n.text == "[") => {
                k = end_of_attr(toks, k);
                continue;
            }
            "{" | "(" => depth += 1,
            "}" | ")" => depth = depth.saturating_sub(1),
            _ => {
                if depth == 1 && t.kind == TokKind::Ident && t.text != "pub" {
                    let is_member = match target.kind {
                        // `]` covers a variant directly after an attribute.
                        DefKind::Enum => {
                            matches!(toks[k - 1].text.as_str(), "{" | "," | "]")
                        }
                        DefKind::Struct => toks.get(k + 1).is_some_and(|n| n.text == ":"),
                    };
                    if is_member {
                        members.push((t.text.clone(), t.line));
                    }
                }
            }
        }
        k += 1;
    }
    Some((members, span))
}

// ---------------------------------------------------------------------------
// Interprocedural rules: these run over the whole-workspace call graph
// (`ast` → `callgraph` → `reach`) instead of single files, and print a
// witness call chain as evidence with every finding. A literal site
// inside the guarded file is the zero-hop case of the same rule.
// ---------------------------------------------------------------------------

use crate::callgraph::CallGraph;
use crate::reach::{self, Reach};

/// One literal capability site: `(fn, line, label)`.
type Site = (usize, u32, String);

/// Runs `site` at every identifier token of every fn body in the files
/// `in_scope` admits and collects the hits not covered by an allow
/// marker for `rule`. The bodies of nested fns are skipped: a nested fn
/// is its own graph node, so its sites are attributed to it.
fn literal_sites(
    datas: &[FileData],
    g: &CallGraph,
    rule: Rule,
    in_scope: impl Fn(&str) -> bool,
    site: impl Fn(&[Tok], usize) -> Option<String>,
) -> Vec<Site> {
    let mut per_file = vec![Vec::new(); datas.len()];
    for f in 0..g.fns.len() {
        per_file[g.file_of[f]].push(g.fns[f].item.body);
    }
    let mut sites = Vec::new();
    for f in 0..g.fns.len() {
        let d = &datas[g.file_of[f]];
        if !in_scope(&d.rel) {
            continue;
        }
        let body = g.fns[f].item.body;
        let nested: Vec<(usize, usize)> = per_file[g.file_of[f]]
            .iter()
            .copied()
            .filter(|&(s, e)| s > body.0 && e <= body.1 && s < e)
            .collect();
        let toks = &d.code;
        let mut k = body.0;
        while k < body.1.min(toks.len()) {
            if let Some(&(_, e)) = nested.iter().find(|&&(s, _)| s == k) {
                k = e;
                continue;
            }
            let t = &toks[k];
            if t.kind == TokKind::Ident && !d.allowed(rule, t.line) {
                if let Some(label) = site(toks, k) {
                    sites.push((f, t.line, label));
                }
            }
            k += 1;
        }
    }
    sites
}

/// Every call `(caller, line, callee)` from a fn in a guarded file to a
/// capable callee outside it. Callees inside the
/// guarded files are skipped: their own outward calls (or their literal
/// sites) produce the report, closer to the cause.
fn capable_calls(g: &CallGraph, r: &Reach, guarded: &[&str]) -> Vec<(usize, u32, usize)> {
    let mut calls = Vec::new();
    for f in 0..g.fns.len() {
        if !guarded.contains(&g.fns[f].file.as_str()) {
            continue;
        }
        let mut seen: HashSet<(u32, usize)> = HashSet::new();
        for e in &g.edges[f] {
            if !guarded.contains(&g.fns[e.to].file.as_str())
                && r.capable(e.to)
                && seen.insert((e.line, e.to))
            {
                calls.push((f, e.line, e.to));
            }
        }
    }
    calls
}

/// `name!(`, `name![` or `name!{` at token `k`, for a `name` in `names`.
fn macro_call(toks: &[Tok], k: usize, names: &[&str]) -> bool {
    names.contains(&toks[k].text.as_str())
        && toks.get(k + 1).is_some_and(|n| n.text == "!")
        && toks
            .get(k + 2)
            .is_some_and(|n| matches!(n.text.as_str(), "(" | "[" | "{"))
}

/// `.unwrap()` / `.expect()` / a panicking macro: what makes a helper
/// panic-capable. The `assert!` family is excluded — libraries
/// legitimately assert internal invariants (`Page::check_bounds`), and
/// propagating every transitive assert would force allow-marker noise
/// without catching the input-dependent panics the rule exists for.
fn panic_site(toks: &[Tok], k: usize) -> Option<String> {
    let t = &toks[k];
    let method = k > 0 && toks[k - 1].text == "." && toks.get(k + 1).is_some_and(|n| n.text == "(");
    if method && matches!(t.text.as_str(), "unwrap" | "expect") {
        Some(format!("`.{}()`", t.text))
    } else if macro_call(toks, k, &["panic", "unreachable", "todo", "unimplemented"]) {
        Some(format!("`{}!`", t.text))
    } else {
        None
    }
}

/// `panic-reach`: a no-panic-zone function must not call (even
/// transitively, across crates) a helper that can panic, and must not
/// itself `assert!` (the one literal panic clippy's restriction lints
/// cannot ban; `debug_assert*` stays legal). Capability is propagated
/// backwards over call edges, which do not include trait-object
/// dispatch (see [`crate::callgraph`]; the service layer has its own
/// error discipline). A call finding sits on the zone-side call site
/// and carries the full chain down to the panic site.
pub fn panic_reach(datas: &[FileData], g: &CallGraph, out: &mut Vec<Violation>) {
    let sources = literal_sites(datas, g, Rule::PanicReach, |_| true, panic_site);
    let r = reach::compute(g, &sources);
    for (f, line, to) in capable_calls(g, &r, NO_PANIC_ZONES) {
        let message = format!(
            "call from a no-panic zone to `{}` can panic: {}",
            g.label(to),
            r.render_chain(g, to)
        );
        push(&datas[g.file_of[f]], out, Rule::PanicReach, line, message);
    }
    let in_zone = |rel: &str| NO_PANIC_ZONES.contains(&rel);
    let asserts = literal_sites(datas, g, Rule::PanicReach, in_zone, |toks, k| {
        macro_call(toks, k, &["assert", "assert_eq", "assert_ne"]).then(|| toks[k].text.clone())
    });
    for (f, line, name) in asserts {
        let message = format!(
            "`{name}!` in a no-panic zone; malformed input must become a typed error, \
             not an unwind"
        );
        push(&datas[g.file_of[f]], out, Rule::PanicReach, line, message);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_one(rel: &str, src: &str) -> Vec<Violation> {
        let mut out = Vec::new();
        let d = crate::analyze(rel.to_string(), src, &mut out);
        catch_all(&d, &mut out);
        let datas = [d];
        let g = crate::callgraph::build(&datas);
        panic_reach(&datas, &g, &mut out);
        out
    }

    fn lines(v: &[Violation], rule: Rule) -> Vec<u32> {
        let mut lines: Vec<u32> = v
            .iter()
            .filter(|v| v.rule == rule)
            .map(|v| v.line)
            .collect();
        lines.sort_unstable();
        lines
    }

    #[test]
    fn zone_asserts_are_zero_hop_panic_reach_findings() {
        // `a != 0` is not a macro bang; `debug_assert!` is encouraged;
        // literal unwraps are clippy's to reject, not this rule's.
        let src = "fn f(a: u8, x: Option<u8>) -> bool {\n    assert!(a != 0);\n    \
                   assert_eq!(a, 1);\n    debug_assert!(a < 9);\n    x.unwrap() != 0\n}\n\
                   fn g(a: u8) {\n    // spb-lint: allow(panic-reach) — internal invariant\n    \
                   assert_ne!(a, 0);\n}";
        let v = lint_one("crates/storage/src/wal.rs", src);
        assert_eq!(lines(&v, Rule::PanicReach), [2, 3], "{v:?}");
        assert!(v[0].message.contains("`assert!` in a no-panic zone"));
        assert!(lint_one("crates/storage/src/cache.rs", src).is_empty());
    }

    #[test]
    fn catch_all_only_in_decode_fns() {
        let src = "fn decode(b: u8) -> u8 {\n    match b { 0 => 1, _ => 0 }\n}\nfn encode(b: u8) -> u8 {\n    match b { 0 => 1, _ => 0 }\n}";
        let v = lint_one("crates/storage/src/wal.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 2);
        assert_eq!(v[0].rule, Rule::CatchAll);
    }

    #[test]
    fn dead_variant_detection() {
        let mut out = Vec::new();
        let def = crate::analyze(
            "crates/server/src/wire.rs".to_string(),
            "pub enum ErrorCode {\n    Used = 1,\n    Dead = 2,\n}\nfn f() -> ErrorCode { ErrorCode::Used }",
            &mut out,
        );
        dead_variants(&[def], &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].line, 3);
        assert!(out[0].message.contains("ErrorCode::Dead"));
    }
}
