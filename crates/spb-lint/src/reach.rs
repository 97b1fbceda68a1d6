//! Reachability over the workspace call graph: which functions can
//! transitively reach a *capability source* (a panic site), and the
//! shortest witness chain proving it.
//!
//! The engine is a multi-source reverse BFS. Sources are functions
//! with a *local* capability (e.g. a literal `.unwrap(` in the body);
//! the BFS then walks call edges backwards, so `capable[f]` means
//! "f has the capability locally, or some call path from f reaches a
//! function that does". Because it is a BFS, the recorded predecessor
//! chain is a shortest path — witness output stays readable even in a
//! dense graph.

use crate::callgraph::CallGraph;

/// Why a function is capable.
#[derive(Clone, Debug)]
pub(crate) enum Reason {
    /// The capability is local: `line` + a description of the site
    /// (e.g. "`.unwrap()`" or "`panic!`").
    Local {
        /// 1-based line of the site.
        line: u32,
        /// Human description of the site.
        what: String,
    },
    /// Capability flows in through a call to `callee` at `line`.
    Call {
        /// Graph index of the capable callee.
        callee: usize,
        /// 1-based line of the call site.
        line: u32,
    },
}

/// Result of a reachability pass.
pub(crate) struct Reach {
    /// `Some(reason)` iff the fn is capable.
    pub reason: Vec<Option<Reason>>,
}

impl Reach {
    /// Whether `f` can reach a source.
    pub(crate) fn capable(&self, f: usize) -> bool {
        self.reason[f].is_some()
    }

    /// The witness chain from `f` down to the local site, as
    /// `(label, file, line)` hops: the first entry is `f`'s call site,
    /// the last is the local capability. Empty if `f` is not capable.
    pub fn chain(&self, g: &CallGraph, f: usize) -> Vec<ChainHop> {
        let mut hops = Vec::new();
        let mut cur = f;
        // The graph is finite and each Call reason was recorded during
        // a BFS (so following it strictly decreases BFS depth), but
        // cap the walk anyway so a logic bug cannot loop forever.
        for _ in 0..self.reason.len() + 1 {
            match &self.reason[cur] {
                Some(Reason::Local { line, what }) => {
                    hops.push(ChainHop {
                        label: g.label(cur),
                        file: g.fns[cur].file.clone(),
                        line: *line,
                        what: Some(what.clone()),
                    });
                    break;
                }
                Some(Reason::Call { callee, line }) => {
                    hops.push(ChainHop {
                        label: g.label(cur),
                        file: g.fns[cur].file.clone(),
                        line: *line,
                        what: None,
                    });
                    cur = *callee;
                }
                None => break,
            }
        }
        hops
    }

    /// Renders the chain as `A (file:line) -> B (file:line) -> … ->
    /// local site`.
    pub(crate) fn render_chain(&self, g: &CallGraph, f: usize) -> String {
        let parts: Vec<String> = (self.chain(g, f).iter())
            .map(|h| match &h.what {
                Some(w) => format!("{} ({}:{}: {})", h.label, h.file, h.line, w),
                None => format!("{} ({}:{})", h.label, h.file, h.line),
            })
            .collect();
        parts.join(" -> ")
    }
}

/// One hop of a witness chain.
#[derive(Clone, Debug)]
pub(crate) struct ChainHop {
    /// `Type::name` label of the hop's function.
    pub label: String,
    /// Repo-relative defining file.
    pub file: String,
    /// 1-based line (call site, or the local site for the last hop).
    pub line: u32,
    /// `Some(description)` on the terminal hop (the local site).
    pub what: Option<String>,
}

/// Computes reachability from `sources` (fn index, local line, site
/// description) over every call edge.
pub(crate) fn compute(g: &CallGraph, sources: &[(usize, u32, String)]) -> Reach {
    let n = g.fns.len();
    let mut reason: Vec<Option<Reason>> = vec![None; n];
    // Reverse adjacency: for each callee, who calls it and where.
    let mut rev: Vec<Vec<(usize, u32)>> = vec![Vec::new(); n];
    for (caller, edges) in g.edges.iter().enumerate() {
        for e in edges {
            rev[e.to].push((caller, e.line));
        }
    }
    let mut queue = std::collections::VecDeque::new();
    for (f, line, what) in sources {
        if reason[*f].is_none() {
            reason[*f] = Some(Reason::Local {
                line: *line,
                what: what.clone(),
            });
            queue.push_back(*f);
        }
    }
    while let Some(cur) = queue.pop_front() {
        for &(caller, line) in &rev[cur] {
            if reason[caller].is_none() {
                reason[caller] = Some(Reason::Call { callee: cur, line });
                queue.push_back(caller);
            }
        }
    }
    Reach { reason }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze;
    use crate::callgraph::build;
    use crate::FileData;

    fn graph(files: &[(&str, &str)]) -> CallGraph {
        let mut out = Vec::new();
        let datas: Vec<FileData> = files
            .iter()
            .map(|(rel, src)| analyze(rel.to_string(), src, &mut out))
            .collect();
        build(&datas)
    }

    fn idx(g: &CallGraph, label: &str) -> usize {
        (0..g.fns.len())
            .find(|&i| g.label(i) == label)
            .unwrap_or_else(|| panic!("no fn {label}"))
    }

    #[test]
    fn three_hop_chain_is_reconstructed() {
        let g = graph(&[(
            "crates/a/src/m.rs",
            "fn top() { mid(); }\nfn mid() { bot(); }\nfn bot() {}\n",
        )]);
        let bot = idx(&g, "bot");
        let r = compute(&g, &[(bot, 3, "`.unwrap()`".into())]);
        let top = idx(&g, "top");
        assert!(r.capable(top));
        let chain = r.chain(&g, top);
        let labels: Vec<_> = chain.iter().map(|h| h.label.as_str()).collect();
        assert_eq!(labels, ["top", "mid", "bot"]);
        assert_eq!(chain[2].what.as_deref(), Some("`.unwrap()`"));
        let rendered = r.render_chain(&g, top);
        assert!(
            rendered.contains("top (crates/a/src/m.rs:1)")
                && rendered.contains("-> bot (crates/a/src/m.rs:3: `.unwrap()`)"),
            "{rendered}"
        );
    }

    #[test]
    fn bfs_prefers_the_shortest_witness() {
        // top -> bot directly AND top -> mid -> bot: the chain from top
        // must be the 2-hop one.
        let g = graph(&[(
            "crates/a/src/m.rs",
            "fn top() { mid(); bot(); }\nfn mid() { bot(); }\nfn bot() {}\n",
        )]);
        let bot = idx(&g, "bot");
        let r = compute(&g, &[(bot, 3, "x".into())]);
        let chain = r.chain(&g, idx(&g, "top"));
        assert_eq!(chain.len(), 2, "{chain:?}");
    }

    #[test]
    fn trait_dispatch_does_not_carry_capability() {
        let g = graph(&[(
            "crates/a/src/m.rs",
            "trait S { fn go(&self); }\nimpl S for T { fn go(&self) { boom(); } }\nfn drive(s: &dyn S) { s.go(); }\nfn boom() {}\n",
        )]);
        let r = compute(&g, &[(idx(&g, "boom"), 4, "x".into())]);
        assert!(!r.capable(idx(&g, "drive")));
        assert!(r.capable(idx(&g, "T::go")));
    }
}
