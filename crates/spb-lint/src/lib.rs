//! The workspace's static-analysis pass (`spb-lint`).
//!
//! A dependency-free linter that enforces the invariants neither the
//! compiler nor clippy can: panic-free call chains,
//! total `match` coverage in wire/WAL decoding, and live-ness of every
//! counter and error-code variant. It lexes Rust source with the
//! hand-rolled [`lexer`] (the build environment is offline, so no
//! syn/proc-macro machinery) and runs the rules from [`rules`].
//!
//! # Rules
//!
//! | slug | default | what it enforces |
//! |------|---------|------------------|
//! | `catch-all` | deny | no `_ =>` arms in wire/WAL decode functions |
//! | `dead-variant` | warn | every counter field / error variant referenced outside its definition |
//! | `nan-unsafe` | deny | no `partial_cmp` float comparisons in the accel zone; use `total_cmp` |
//! | `panic-reach` | deny | no-panic zones must not `assert!`, nor *call into* panic-capable helpers, transitively |
//! | `bad-allow` | deny | malformed suppression markers |
//!
//! `panic-reach` is *interprocedural*: it runs over a whole-workspace
//! call graph ([`ast`] → [`callgraph`] → [`reach`]) and prints witness
//! call chains as evidence.
//!
//! # What the toolchain enforces instead
//!
//! Invariants that rustc and clippy can check with type information are
//! theirs, not this crate's:
//!
//! - **No `unsafe`.** `[workspace.lints.rust] unsafe_code = "forbid"`,
//!   inherited by every package through `[lints] workspace = true`.
//!   `spb-server` alone has its own table (`deny`, plus clippy's
//!   `undocumented_unsafe_blocks`) for its one FFI site, which
//!   carries `#[allow(unsafe_code)]` and a `// SAFETY:` comment.
//! - **One clock.** The root `clippy.toml` disallows
//!   `std::time::Instant::now`; only `spb_obs::clock::now` allows it.
//! - **Lock order.** Ranked locks (`spb_storage::lockrank`) keep their
//!   inner `std::sync` lock private, so a raw acquisition does not
//!   compile, and debug builds check the ascending order at run time.
//! - **Literal panics in the no-panic zones.** Each zone file's clippy
//!   deny line (see [`rules::NO_PANIC_ZONES`]).
//!
//! # Suppression markers
//!
//! A finding is suppressed by a line comment of the form
//! `spb-lint: allow(<slug>) — <reason>` placed on the offending line or
//! on its own line directly above (intervening comment lines are fine).
//! The reason is mandatory: a marker without one is itself reported
//! under `bad-allow`.

#![warn(missing_docs)]

pub mod ast;
pub mod callgraph;
pub mod lexer;
pub mod reach;
pub mod rules;

use std::fmt;
use std::path::{Path, PathBuf};

use lexer::{LexFile, Tok};

/// The rule catalog. Slugs are what appear in diagnostics and in
/// suppression markers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Rule {
    /// `_ =>` catch-all arm in a decode function.
    CatchAll,
    /// Enum variant / counter field never referenced outside its
    /// definition.
    DeadVariant,
    /// NaN-unsafe float comparison (`partial_cmp`) in the accel zone,
    /// where model parameters come from arithmetic that can degenerate.
    NanUnsafe,
    /// A no-panic-zone function asserts, or calls (transitively,
    /// across crates) a helper that can panic.
    PanicReach,
    /// Malformed suppression marker.
    BadAllow,
}

impl Rule {
    /// Every registered rule — the meta-test walks this to enforce
    /// that each one has a live bad fixture. Keep in sync with the
    /// enum (the `slug`/`from_slug` round-trip test guards drift).
    pub const ALL: &'static [Rule] = &[
        Rule::CatchAll,
        Rule::DeadVariant,
        Rule::NanUnsafe,
        Rule::PanicReach,
        Rule::BadAllow,
    ];

    /// Stable diagnostic slug, also used in suppression markers.
    pub fn slug(self) -> &'static str {
        match self {
            Rule::CatchAll => "catch-all",
            Rule::DeadVariant => "dead-variant",
            Rule::NanUnsafe => "nan-unsafe",
            Rule::PanicReach => "panic-reach",
            Rule::BadAllow => "bad-allow",
        }
    }

    /// Parses a marker slug. Named bindings (not `_`) keep the match
    /// total under this crate's own catch-all rule spirit.
    pub(crate) fn from_slug(s: &str) -> Option<Rule> {
        match s {
            "catch-all" => Some(Rule::CatchAll),
            "dead-variant" => Some(Rule::DeadVariant),
            "nan-unsafe" => Some(Rule::NanUnsafe),
            "panic-reach" => Some(Rule::PanicReach),
            "bad-allow" => Some(Rule::BadAllow),
            other => {
                let _ = other;
                None
            }
        }
    }

    /// Whether the rule denies (fails the build) or warns by default.
    /// `dead-variant` is advisory unless `--deny-all` promotes it.
    pub fn denied(self, deny_all: bool) -> bool {
        match self {
            Rule::DeadVariant => deny_all,
            _ => true,
        }
    }
}

/// One finding, addressed `file:line` (1-based, repo-relative path).
#[derive(Clone, Debug)]
pub struct Violation {
    /// Repo-relative path with forward slashes.
    pub file: String,
    /// 1-based source line.
    pub line: u32,
    /// Which rule fired.
    pub rule: Rule,
    /// Human-readable explanation with the suggested fix.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file,
            self.line,
            self.rule.slug(),
            self.message
        )
    }
}

/// A parsed suppression marker.
#[derive(Clone, Debug)]
pub(crate) struct AllowMark {
    /// The suppressed rule.
    pub rule: Rule,
    /// Line the marker comment sits on.
    pub line: u32,
    /// The code line the marker covers (first code line at or below it).
    pub covers: u32,
}

/// One lexed and pre-processed source file.
#[derive(Debug)]
pub struct FileData {
    /// Repo-relative path with forward slashes.
    pub rel: String,
    /// Code tokens with `#[cfg(test)]` items removed.
    pub(crate) code: Vec<Tok>,
    /// Valid suppression markers.
    pub(crate) allows: Vec<AllowMark>,
}

impl FileData {
    /// True iff `rule` at `line` is covered by a marker.
    pub fn allowed(&self, rule: Rule, line: u32) -> bool {
        self.allows
            .iter()
            .any(|a| a.rule == rule && (a.line == line || a.covers == line))
    }
}

/// Linter configuration.
#[derive(Clone, Debug)]
pub struct Config {
    /// Workspace root to scan.
    pub root: PathBuf,
    /// Promote warn-level rules to deny.
    pub deny_all: bool,
}

impl Config {
    /// The enclosing repository (two levels above this crate), the
    /// default for `cargo run -p spb-lint`.
    pub fn repo_default() -> Config {
        let mut root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        root.pop();
        root.pop();
        Config {
            root,
            deny_all: false,
        }
    }
}

/// The result of a full scan.
#[derive(Debug, Default)]
pub struct Report {
    /// All findings, sorted by (file, line).
    pub violations: Vec<Violation>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Findings that fail the build under the given promotion flag.
    pub fn denied(&self, deny_all: bool) -> impl Iterator<Item = &Violation> {
        self.violations
            .iter()
            .filter(move |v| v.rule.denied(deny_all))
    }
}

/// Directories under the root that hold workspace sources.
const SCAN_ROOTS: &[&str] = &["crates", "src", "tests", "examples"];

/// Path fragments that are never scanned: vendored stubs, build
/// output, and this linter's own known-bad rule fixtures.
const SKIP_FRAGMENTS: &[&str] = &["third_party/", "target/", "crates/spb-lint/fixtures/"];

/// Runs every rule over the workspace rooted at `cfg.root`.
pub fn run(cfg: &Config) -> Report {
    let mut files = Vec::new();
    for top in SCAN_ROOTS {
        collect_rs(&cfg.root.join(top), &mut files);
    }
    files.sort();

    let mut report = Report::default();
    let mut datas = Vec::new();
    for path in &files {
        let rel = rel_path(&cfg.root, path);
        if SKIP_FRAGMENTS.iter().any(|f| rel.contains(f)) {
            continue;
        }
        let Ok(src) = std::fs::read_to_string(path) else {
            continue;
        };
        report.files_scanned += 1;
        datas.push(analyze(rel, &src, &mut report.violations));
    }

    for d in &datas {
        rules::catch_all(d, &mut report.violations);
        rules::nan_unsafe(d, &mut report.violations);
    }
    rules::dead_variants(&datas, &mut report.violations);

    // Interprocedural pass: one AST per file (from the already-lexed
    // token buffer — no re-lex), one workspace call graph.
    let graph = callgraph::build(&datas);
    rules::panic_reach(&datas, &graph, &mut report.violations);

    report
        .violations
        .sort_by(|a, b| (a.file.as_str(), a.line).cmp(&(b.file.as_str(), b.line)));
    report
}

/// Files changed relative to `HEAD` (staged + unstaged + untracked),
/// as repo-relative paths — the scope for `--changed-only`. Returns
/// `None` when `git` is unavailable or `root` is not a work tree; the
/// caller should then fall back to reporting everything.
pub fn changed_files(root: &Path) -> Option<std::collections::HashSet<String>> {
    let run_git = |args: &[&str]| -> Option<Vec<String>> {
        let out = std::process::Command::new("git")
            .arg("-C")
            .arg(root)
            .args(args)
            .output()
            .ok()?;
        if !out.status.success() {
            return None;
        }
        Some(
            String::from_utf8_lossy(&out.stdout)
                .lines()
                .map(|l| l.trim().to_string())
                .filter(|l| !l.is_empty())
                .collect(),
        )
    };
    let mut set = std::collections::HashSet::new();
    set.extend(run_git(&["diff", "--name-only", "HEAD"])?);
    set.extend(run_git(&["ls-files", "--others", "--exclude-standard"])?);
    Some(set)
}

/// Minimal JSON string escaping (the only JSON writer this crate needs;
/// the environment is offline, so no serde).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl Report {
    /// Machine-readable report for `--format json`: a stable object CI
    /// can archive and diff against a committed baseline.
    pub fn to_json(&self, deny_all: bool) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        let errors = self.denied(deny_all).count();
        s.push_str(&format!("  \"errors\": {},\n", errors));
        s.push_str(&format!(
            "  \"warnings\": {},\n",
            self.violations.len() - errors
        ));
        s.push_str("  \"violations\": [\n");
        for (i, v) in self.violations.iter().enumerate() {
            let sev = if v.rule.denied(deny_all) {
                "error"
            } else {
                "warning"
            };
            s.push_str(&format!(
                "    {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"severity\": \"{}\", \"message\": \"{}\"}}{}\n",
                json_escape(&v.file),
                v.line,
                v.rule.slug(),
                sev,
                json_escape(&v.message),
                if i + 1 < self.violations.len() { "," } else { "" }
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }
}

/// Lexes one file, strips test items, and parses its markers (pushing
/// `bad-allow` findings for malformed ones).
pub fn analyze(rel: String, src: &str, out: &mut Vec<Violation>) -> FileData {
    let lexed = lexer::lex(src);
    let code = strip_tests(&lexed.toks);
    let allows = parse_allows(&rel, &lexed, &code, out);
    FileData { rel, code, allows }
}

fn rel_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Removes `#[cfg(test)]` items (the attribute, any stacked attributes,
/// and the item body through its matching brace or terminating `;`).
/// Test code may use `unwrap`/indexing freely — the rules only govern
/// production paths.
pub(crate) fn strip_tests(toks: &[Tok]) -> Vec<Tok> {
    let mut out = Vec::with_capacity(toks.len());
    let mut i = 0;
    while i < toks.len() {
        if is_cfg_test_attr(toks, i) {
            let mut k = end_of_attr(toks, i);
            // Stacked attributes between #[cfg(test)] and the item.
            while k < toks.len()
                && toks[k].text == "#"
                && toks.get(k + 1).is_some_and(|t| t.text == "[")
            {
                k = end_of_attr(toks, k);
            }
            // Skip the item: through a brace-matched body, or to `;`
            // for brace-less items (`#[cfg(test)] use ...;`).
            while k < toks.len() {
                match toks[k].text.as_str() {
                    "{" => {
                        k = match_brace(toks, k);
                        break;
                    }
                    ";" => {
                        k += 1;
                        break;
                    }
                    _ => k += 1,
                }
            }
            i = k;
            continue;
        }
        out.push(toks[i].clone());
        i += 1;
    }
    out
}

fn is_cfg_test_attr(toks: &[Tok], i: usize) -> bool {
    let texts = ["#", "[", "cfg", "(", "test", ")", "]"];
    toks.len() >= i + texts.len()
        && texts
            .iter()
            .zip(&toks[i..])
            .all(|(want, tok)| tok.text == *want)
}

/// From the `#` of an attribute, returns the index past its closing `]`.
pub(crate) fn end_of_attr(toks: &[Tok], i: usize) -> usize {
    let mut k = i + 1; // at '['
    let mut depth = 0usize;
    while k < toks.len() {
        match toks[k].text.as_str() {
            "[" => depth += 1,
            "]" => {
                depth -= 1;
                if depth == 0 {
                    return k + 1;
                }
            }
            _ => {}
        }
        k += 1;
    }
    k
}

/// From the index of a `{`, returns the index past its matching `}`.
pub(crate) fn match_brace(toks: &[Tok], i: usize) -> usize {
    let mut depth = 0usize;
    let mut k = i;
    while k < toks.len() {
        match toks[k].text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    return k + 1;
                }
            }
            _ => {}
        }
        k += 1;
    }
    k
}

const MARKER_PREFIX: &str = "spb-lint:";

fn parse_allows(
    rel: &str,
    lexed: &LexFile,
    code: &[Tok],
    out: &mut Vec<Violation>,
) -> Vec<AllowMark> {
    let mut allows = Vec::new();
    for c in &lexed.comments {
        // A marker must *begin* the comment (doc-comment `/`/`!` trivia
        // aside) — prose that merely mentions the grammar, e.g. inside
        // backticks in this crate's own docs, is not a marker.
        let t = c.text.trim_start_matches(['/', '!', ' ', '\t']);
        if !t.starts_with(MARKER_PREFIX) {
            continue;
        }
        let rest = t[MARKER_PREFIX.len()..].trim_start();
        let Some(inner) = rest.strip_prefix("allow(") else {
            out.push(Violation {
                file: rel.to_string(),
                line: c.line,
                rule: Rule::BadAllow,
                message: "unrecognized spb-lint marker; expected `allow(<rule>) — <reason>`"
                    .to_string(),
            });
            continue;
        };
        let Some(close) = inner.find(')') else {
            out.push(Violation {
                file: rel.to_string(),
                line: c.line,
                rule: Rule::BadAllow,
                message: "unterminated allow marker: missing `)`".to_string(),
            });
            continue;
        };
        let slug = inner[..close].trim();
        let Some(rule) = Rule::from_slug(slug) else {
            out.push(Violation {
                file: rel.to_string(),
                line: c.line,
                rule: Rule::BadAllow,
                message: format!("allow marker names unknown rule `{slug}`"),
            });
            continue;
        };
        let reason = inner[close + 1..].trim_start_matches(|ch: char| {
            ch.is_whitespace() || matches!(ch, '—' | '-' | ':' | ',')
        });
        if reason.trim().is_empty() {
            out.push(Violation {
                file: rel.to_string(),
                line: c.line,
                rule: Rule::BadAllow,
                message: format!(
                    "allow({slug}) marker has no justification; write `allow({slug}) — <reason>`"
                ),
            });
            continue;
        }
        // The marker covers its own line and the first code line below
        // it (continuation comment lines in between are fine).
        let covers = code
            .iter()
            .map(|t| t.line)
            .filter(|&l| l > c.line)
            .min()
            .unwrap_or(c.line);
        allows.push(AllowMark {
            rule,
            line: c.line,
            covers,
        });
    }
    allows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(rel: &str, src: &str) -> (FileData, Vec<Violation>) {
        let mut out = Vec::new();
        let d = analyze(rel.to_string(), src, &mut out);
        (d, out)
    }

    #[test]
    fn cfg_test_items_are_stripped() {
        let src =
            "fn live() {}\n#[cfg(test)]\nmod tests {\n fn t() { x.unwrap(); }\n}\nfn also() {}";
        let (d, _) = data("a.rs", src);
        let idents: Vec<_> = d.code.iter().map(|t| t.text.as_str()).collect();
        assert!(idents.contains(&"live"));
        assert!(idents.contains(&"also"));
        assert!(!idents.contains(&"unwrap"));
    }

    #[test]
    fn braceless_cfg_test_item_stops_at_semicolon() {
        let src = "#[cfg(test)]\nuse std::collections::HashMap;\nfn live() {}";
        let (d, _) = data("a.rs", src);
        assert!(d.code.iter().any(|t| t.text == "live"));
        assert!(!d.code.iter().any(|t| t.text == "HashMap"));
    }

    #[test]
    fn marker_covers_own_and_next_code_line() {
        let src = "fn f() {\n    // spb-lint: allow(panic-reach) — justified here\n    // continuation line\n    x.unwrap();\n}";
        let (d, bad) = data("a.rs", src);
        assert!(bad.is_empty());
        assert_eq!(d.allows.len(), 1);
        assert!(d.allowed(Rule::PanicReach, 4));
        assert!(!d.allowed(Rule::PanicReach, 5));
        assert!(!d.allowed(Rule::CatchAll, 4));
    }

    #[test]
    fn marker_without_reason_is_reported() {
        let (_, bad) = data("a.rs", "// spb-lint: allow(panic-reach)\nfn f() {}");
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].rule, Rule::BadAllow);
        assert_eq!(bad[0].line, 1);
    }

    #[test]
    fn marker_with_unknown_rule_is_reported() {
        let (_, bad) = data(
            "a.rs",
            "// spb-lint: allow(no-such-rule) — because\nfn f() {}",
        );
        assert_eq!(bad.len(), 1);
        assert!(bad[0].message.contains("no-such-rule"));
    }

    #[test]
    fn rule_all_round_trips_through_slugs() {
        for r in Rule::ALL {
            assert_eq!(Rule::from_slug(r.slug()), Some(*r), "{}", r.slug());
        }
        // ALL is exhaustive as far as slugs go: a duplicate would shadow.
        let slugs: std::collections::HashSet<_> = Rule::ALL.iter().map(|r| r.slug()).collect();
        assert_eq!(slugs.len(), Rule::ALL.len());
    }

    #[test]
    fn json_report_escapes_and_counts() {
        let report = Report {
            violations: vec![
                Violation {
                    file: "crates/x/src/a.rs".into(),
                    line: 3,
                    rule: Rule::PanicReach,
                    message: "has a \"quote\"".into(),
                },
                Violation {
                    file: "crates/x/src/b.rs".into(),
                    line: 9,
                    rule: Rule::DeadVariant,
                    message: "warn-level".into(),
                },
            ],
            files_scanned: 2,
        };
        let json = report.to_json(false);
        assert!(json.contains("\"files_scanned\": 2"), "{json}");
        assert!(json.contains("\"errors\": 1"), "{json}");
        assert!(json.contains("\"warnings\": 1"), "{json}");
        assert!(json.contains("has a \\\"quote\\\""), "{json}");
        assert!(json.contains("\"rule\": \"panic-reach\""), "{json}");
        assert!(json.contains("\"severity\": \"warning\""), "{json}");
    }

    #[test]
    fn violation_display_is_path_line_rule() {
        let v = Violation {
            file: "crates/x/src/a.rs".into(),
            line: 7,
            rule: Rule::PanicReach,
            message: "m".into(),
        };
        assert_eq!(v.to_string(), "crates/x/src/a.rs:7: [panic-reach] m");
    }
}
