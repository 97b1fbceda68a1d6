//! Each rule is seeded with a known-bad fixture; these tests assert the
//! linter reports every planted violation at the exact `file:line`, so
//! a regression that silently blinds a rule fails loudly here.

use spb_lint::{analyze, callgraph, rules, Rule, Violation};

/// Analyzes a fixture under a pseudo repo-relative path (rules are
/// scoped by path, so the fixture must pose as a file in the zone it
/// seeds).
fn fixture(name: &str, pseudo_rel: &str) -> (spb_lint::FileData, Vec<Violation>) {
    let path = format!("{}/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    let mut out = Vec::new();
    let d = analyze(pseudo_rel.to_string(), &src, &mut out);
    (d, out)
}

fn lines_of(violations: &[Violation], rule: Rule) -> Vec<u32> {
    violations
        .iter()
        .filter(|v| v.rule == rule)
        .map(|v| v.line)
        .collect()
}

#[test]
fn r1_zone_asserts_are_zero_hop_panic_reach_findings() {
    let (d, mut out) = fixture("r1_no_panic.rs", "crates/storage/src/wal.rs");
    let datas = [d];
    rules::panic_reach(&datas, &callgraph::build(&datas), &mut out);
    // assert!, assert_eq!, assert_ne! — not the debug_assert! below
    // them, and none of the literal sites clippy owns.
    assert_eq!(lines_of(&out, Rule::PanicReach), [32, 33, 34]);
    assert_eq!(
        out[0].to_string(),
        "crates/storage/src/wal.rs:32: [panic-reach] `assert!` in a no-panic zone; malformed \
         input must become a typed error, not an unwind"
    );
}

/// Compiles fixture `name` as a library with clippy-driver (extra
/// `args` appended), reading `clippy.toml` from the repo root, and
/// returns its short-format stderr with the `(line, message)` of every
/// error in the fixture, sorted. `None` when no clippy-driver is on
/// PATH.
fn clippy_errors(name: &str, args: &[&str]) -> Option<(String, Vec<(u32, String)>)> {
    let path = format!("{}/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    let repo_root = format!("{}/../..", env!("CARGO_MANIFEST_DIR"));
    let run = std::process::Command::new("clippy-driver")
        .args([
            "--edition",
            "2021",
            "--crate-type",
            "lib",
            "--emit",
            "metadata",
        ])
        .args([
            "--error-format",
            "short",
            "--out-dir",
            env!("CARGO_TARGET_TMPDIR"),
        ])
        .args(args)
        .arg(&path)
        .env("CLIPPY_CONF_DIR", repo_root)
        .output();
    let Ok(run) = run else {
        eprintln!("skipped: no clippy-driver on PATH (CI's test jobs install one)");
        return None;
    };
    assert!(
        !run.status.success(),
        "the bad fixture {name} passed clippy"
    );
    let stderr = String::from_utf8_lossy(&run.stderr).into_owned();
    let mut flagged: Vec<(u32, String)> = stderr
        .lines()
        .filter_map(|l| l.strip_prefix(path.as_str())?.strip_prefix(':'))
        .filter_map(|l| {
            let (line, rest) = l.split_once(':')?;
            let (_, msg) = rest.split_once(": error: ")?;
            Some((line.parse().ok()?, msg.to_string()))
        })
        .collect();
    flagged.sort_unstable();
    Some((stderr, flagged))
}

#[test]
fn r1_literal_panic_sites_fail_clippy_under_the_zone_deny_line() {
    // The other half of the r1 fixture: compile it with clippy and
    // check the deny line it shares with every zone file rejects each
    // literal site (and accepts the asserts, which are panic-reach's).
    let Some((stderr, flagged)) = clippy_errors("r1_no_panic.rs", &[]) else {
        return;
    };
    let lines: Vec<u32> = flagged.iter().map(|&(l, _)| l).collect();
    // buf[0], unwrap, expect, panic!, unreachable!, todo!, unimplemented!.
    assert_eq!(lines, [23, 24, 25, 27, 30, 37, 38], "{stderr}");
    assert!(flagged[0].1.contains("indexing may panic"), "{stderr}");
    assert!(flagged[1].1.contains("`unwrap()`"), "{stderr}");
    assert!(flagged[2].1.contains("`expect()`"), "{stderr}");
    assert!(flagged[3].1.contains("`panic`"), "{stderr}");
}

#[test]
fn r4_catch_all_fixture_reports_the_arm() {
    let (d, mut out) = fixture("r4_catch_all.rs", "crates/storage/src/wal.rs");
    rules::catch_all(&d, &mut out);
    assert_eq!(lines_of(&out, Rule::CatchAll), [5]);
    assert!(out[0]
        .to_string()
        .starts_with("crates/storage/src/wal.rs:5: [catch-all]"));
}

#[test]
fn r5_dead_variant_fixture_reports_the_dead_code() {
    let (d, mut out) = fixture("r5_dead_variant.rs", "crates/server/src/wire.rs");
    rules::dead_variants(&[d], &mut out);
    assert_eq!(lines_of(&out, Rule::DeadVariant), [4]);
    assert!(out[0].message.contains("ErrorCode::NeverBuilt"));
    assert!(out[0]
        .to_string()
        .starts_with("crates/server/src/wire.rs:4: [dead-variant]"));
}

#[test]
fn r6_raw_instant_readings_fail_clippy_under_the_root_clippy_toml() {
    // The root clippy.toml disallows `Instant::now`; clippy resolves the
    // path by type, so the fully qualified call, the bare one and the
    // one through a type alias are all rejected, and `duration_since`
    // (no fresh reading) is not. CI's `-D warnings` makes each an error.
    let deny = ["-D", "clippy::disallowed_methods"];
    let Some((stderr, flagged)) = clippy_errors("r6_raw_instant.rs", &deny) else {
        return;
    };
    let lines: Vec<u32> = flagged.iter().map(|&(l, _)| l).collect();
    assert_eq!(lines, [11, 12, 13], "{stderr}");
    for (_, msg) in &flagged {
        assert_eq!(
            msg, "use of a disallowed method `std::time::Instant::now`",
            "{stderr}"
        );
    }
}

#[test]
fn r8_nan_unsafe_fixture_reports_every_site() {
    let (d, mut out) = fixture("r8_nan_unsafe.rs", "crates/accel/src/tune.rs");
    rules::nan_unsafe(&d, &mut out);
    // The sort comparator and the reduce comparator.
    assert_eq!(lines_of(&out, Rule::NanUnsafe), [6, 7]);
    assert!(out[0]
        .to_string()
        .starts_with("crates/accel/src/tune.rs:6: [nan-unsafe]"));
    assert!(out[0].message.contains("total_cmp"));

    // The same source outside the accel zone is fine: `partial_cmp`
    // is only banned where a NaN parameter can reach it.
    let (d, mut out) = fixture("r8_nan_unsafe.rs", "crates/metric/src/lib.rs");
    rules::nan_unsafe(&d, &mut out);
    assert!(lines_of(&out, Rule::NanUnsafe).is_empty());
}

#[test]
fn fixtures_are_denied_under_deny_all_but_dead_variant_warns_by_default() {
    // Five rules: what rustc and clippy check with types (`unsafe`, the
    // clock) is theirs, see the crate docs.
    assert_eq!(Rule::ALL.len(), 5);
    for &rule in Rule::ALL {
        assert!(rule.denied(true), "{}", rule.slug());
        assert_eq!(
            rule.denied(false),
            rule != Rule::DeadVariant,
            "{}",
            rule.slug()
        );
    }
}

#[test]
fn r9_bad_allow_fixture_reports_both_malformed_markers() {
    let (_, out) = fixture("r9_bad_allow.rs", "crates/storage/src/misc.rs");
    assert_eq!(lines_of(&out, Rule::BadAllow), [3, 6]);
    assert!(out[0].message.contains("unknown rule `no-such-rule`"));
    assert!(out[1].message.contains("no justification"));
}

/// The interprocedural fixtures are a miniature workspace tree
/// (`fixtures/interproc/crates/...`) scanned through the full `run()`
/// pipeline, so the path-scoped zone (`pager.rs`) lines up with the
/// real rule configuration.
fn interproc_report() -> spb_lint::Report {
    let root = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures/interproc");
    spb_lint::run(&spb_lint::Config {
        root,
        deny_all: true,
    })
}

#[test]
fn r10_panic_reach_fixture_reports_the_zone_call_with_the_full_chain() {
    let report = interproc_report();
    let hits: Vec<_> = report
        .violations
        .iter()
        .filter(|v| v.rule == Rule::PanicReach)
        .collect();
    assert_eq!(hits.len(), 1, "{hits:?}");
    // The finding sits on the zone-side call site, and the chain walks
    // two further hops down to the literal `.unwrap()`.
    assert_eq!(
        hits[0].to_string(),
        "crates/storage/src/pager.rs:6: [panic-reach] call from a no-panic zone to \
         `decode_header` can panic: decode_header (crates/storage/src/codec.rs:4) -> \
         header_word (crates/storage/src/codec.rs:8) -> first_byte \
         (crates/storage/src/codec.rs:12: `.unwrap()`)"
    );
}

#[test]
fn interproc_fixture_tree_has_no_unplanned_findings() {
    let report = interproc_report();
    assert_eq!(report.files_scanned, 2);
    assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
}

#[test]
fn interproc_scan_lexes_each_file_exactly_once() {
    // All rules — token-level, AST-level, and the call-graph passes —
    // share one lex per file; a second lex of anything breaks this.
    let before = spb_lint::lexer::lex_count();
    let report = interproc_report();
    let delta = spb_lint::lexer::lex_count() - before;
    assert_eq!(delta, report.files_scanned as u64);
}

#[test]
fn every_registered_rule_fires_on_a_fixture() {
    use std::collections::HashSet;
    // A rule with no live bad fixture can go silently blind; adding a
    // rule to `Rule::ALL` without seeding a fixture must fail here.
    let per_file: &[(&str, &str)] = &[
        ("r1_no_panic.rs", "crates/storage/src/wal.rs"),
        ("r4_catch_all.rs", "crates/storage/src/wal.rs"),
        ("r5_dead_variant.rs", "crates/server/src/wire.rs"),
        ("r8_nan_unsafe.rs", "crates/accel/src/tune.rs"),
        ("r9_bad_allow.rs", "crates/storage/src/misc.rs"),
    ];
    let mut fired: HashSet<Rule> = HashSet::new();
    for (name, rel) in per_file {
        let (d, mut out) = fixture(name, rel);
        rules::catch_all(&d, &mut out);
        rules::nan_unsafe(&d, &mut out);
        let datas = [d];
        rules::dead_variants(&datas, &mut out);
        rules::panic_reach(&datas, &callgraph::build(&datas), &mut out);
        fired.extend(out.iter().map(|v| v.rule));
    }
    fired.extend(interproc_report().violations.iter().map(|v| v.rule));
    for rule in Rule::ALL {
        assert!(
            fired.contains(rule),
            "rule `{}` has no fixture that makes it fire",
            rule.slug()
        );
    }
}
