//! The linter run against the real workspace: the tree must be clean
//! (this is exactly what CI runs via `spb-lint --deny-all`), and the
//! rules must be demonstrably *live* on the real sources — a clean
//! report from a rule that extracted nothing proves nothing.

use spb_lint::{analyze, callgraph, rules, Config, Rule};

fn repo_root() -> std::path::PathBuf {
    let mut root = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    root.pop();
    root.pop();
    root
}

#[test]
fn workspace_is_clean_under_deny_all() {
    let cfg = Config {
        root: repo_root(),
        deny_all: true,
    };
    let report = spb_lint::run(&cfg);
    let denied: Vec<_> = report.denied(true).collect();
    assert!(
        denied.is_empty(),
        "workspace has lint violations:\n{}",
        denied
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    // The scan must actually have covered the workspace.
    assert!(
        report.files_scanned >= 80,
        "only {} files scanned — walker broken?",
        report.files_scanned
    );
}

#[test]
fn dead_variant_rule_is_live_on_real_wire_rs() {
    // Inject an unreferenced variant into the *real* ErrorCode enum and
    // check the rule flags it — proving member extraction and the
    // cross-file reference scan both work on real sources.
    let path = repo_root().join("crates/server/src/wire.rs");
    let src = std::fs::read_to_string(path).expect("read wire.rs");
    let needle = "pub enum ErrorCode {";
    assert!(src.contains(needle), "ErrorCode enum moved?");
    let seeded = src.replace(needle, "pub enum ErrorCode {\n    NeverUsedProbe = 99,");
    let mut out = Vec::new();
    let d = analyze("crates/server/src/wire.rs".to_string(), &seeded, &mut out);
    rules::dead_variants(&[d], &mut out);
    let probe: Vec<_> = out.iter().filter(|v| v.rule == Rule::DeadVariant).collect();
    assert_eq!(probe.len(), 1, "{probe:?}");
    assert!(probe[0].message.contains("NeverUsedProbe"));
}

/// The one attribute that hands a no-panic zone's literal panic sites
/// to clippy, whitespace removed (rustfmt wraps it over twelve lines).
const ZONE_DENY_LINE: &str = "#![cfg_attr(not(test),deny(clippy::unwrap_used,\
     clippy::expect_used,clippy::panic,clippy::indexing_slicing,clippy::unreachable,\
     clippy::todo,clippy::unimplemented))]";

#[test]
fn every_no_panic_zone_carries_the_clippy_deny_line() {
    // The zone list and the clippy attribute cannot drift apart: a file
    // added to NO_PANIC_ZONES without the line (or a line edited in one
    // file only) fails here. The r1 fixture, which proves the line
    // rejects each literal site, must carry the very same one.
    let fixture = "crates/spb-lint/fixtures/r1_no_panic.rs";
    for rel in rules::NO_PANIC_ZONES.iter().chain([&fixture]) {
        let src = std::fs::read_to_string(repo_root().join(rel)).expect("read zone file");
        let dense: String = src.split_whitespace().collect();
        assert!(dense.contains(ZONE_DENY_LINE), "{rel} lacks the deny line");
    }
}

#[test]
fn panic_reach_zero_hop_is_live_on_real_wal_rs() {
    // Liveness for the zone's assert ban: append an asserting helper to
    // the real wal.rs text and check exactly it gets flagged (so the
    // clean real file has no unsuppressed assert of its own).
    let path = repo_root().join("crates/storage/src/wal.rs");
    let src = std::fs::read_to_string(path).expect("read wal.rs");
    let seeded = format!("{src}\nfn probe(x: u8) {{ assert!(x > 0); }}\n");
    let mut out = Vec::new();
    let datas = vec![analyze(
        "crates/storage/src/wal.rs".to_string(),
        &seeded,
        &mut out,
    )];
    rules::panic_reach(&datas, &callgraph::build(&datas), &mut out);
    assert_eq!(out.len(), 1, "{out:?}");
    assert!(out[0].message.contains("`assert!` in a no-panic zone"));
    assert_eq!(out[0].line as usize, seeded.lines().count());
}

#[test]
fn every_package_inherits_the_workspace_unsafe_lint() {
    // `unsafe` is rustc's to reject: the root manifest forbids it for
    // the workspace, every package inherits that table, and only
    // spb-server (one FFI site) spells its own, which still denies it
    // and requires a SAFETY comment on each block.
    let root = repo_root();
    let read = |p: std::path::PathBuf| std::fs::read_to_string(&p).expect("read manifest");
    let manifest = read(root.join("Cargo.toml"));
    assert!(manifest.contains("[workspace.lints.rust]\nunsafe_code = \"forbid\""));
    let mut packages = vec![("spb".to_string(), manifest)];
    for entry in std::fs::read_dir(root.join("crates")).expect("read crates/") {
        let dir = entry.expect("crates/ entry").path();
        let name = dir.file_name().unwrap().to_string_lossy().into_owned();
        packages.push((name, read(dir.join("Cargo.toml"))));
    }
    assert!(
        packages.len() >= 15,
        "only {} packages found",
        packages.len()
    );
    for (name, text) in &packages {
        if name == "server" {
            assert!(
                text.contains("[lints.rust]\nunsafe_code = \"deny\""),
                "{name}"
            );
            assert!(
                text.contains("undocumented_unsafe_blocks = \"deny\""),
                "{name}"
            );
        } else {
            assert!(
                text.contains("[lints]\nworkspace = true"),
                "{name} does not inherit"
            );
        }
    }
}

#[test]
fn nan_unsafe_rule_is_live_on_real_tune_rs() {
    // Liveness for the accel-zone NaN rule: append a `partial_cmp`
    // probe to the real tune.rs text and check it gets flagged (the
    // clean run above proves the real file itself has none).
    let path = repo_root().join("crates/accel/src/tune.rs");
    let src = std::fs::read_to_string(path).expect("read tune.rs");
    let seeded =
        format!("{src}\nfn probe(a: f64, b: f64) -> bool {{ a.partial_cmp(&b).is_some() }}\n");
    let mut out = Vec::new();
    let d = analyze("crates/accel/src/tune.rs".to_string(), &seeded, &mut out);
    rules::nan_unsafe(&d, &mut out);
    assert_eq!(out.len(), 1, "{out:?}");
    assert_eq!(out[0].rule, Rule::NanUnsafe);
    assert_eq!(out[0].line as usize, seeded.lines().count());
}

#[test]
fn panic_reach_rule_is_live_on_real_pager_rs() {
    // Seed the *real* pager.rs with a probe that calls an out-of-zone
    // helper whose panic is one hop further down: the finding must
    // land on the zone-side call with the full chain — proving fn
    // extraction, cross-file call resolution, and capability
    // propagation all work on real sources.
    let path = repo_root().join("crates/storage/src/pager.rs");
    let src = std::fs::read_to_string(path).expect("read pager.rs");
    let seeded = format!("{src}\nfn probe_entry(x: Option<u8>) {{ probe_helper(x); }}\n");
    let helper = "pub fn probe_helper(x: Option<u8>) -> u8 { probe_inner(x) }\n\
                  fn probe_inner(x: Option<u8>) -> u8 { x.unwrap() }\n";
    let mut out = Vec::new();
    let datas = vec![
        analyze("crates/storage/src/pager.rs".to_string(), &seeded, &mut out),
        analyze("crates/storage/src/probe.rs".to_string(), helper, &mut out),
    ];
    let g = callgraph::build(&datas);
    rules::panic_reach(&datas, &g, &mut out);
    let hits: Vec<_> = out.iter().filter(|v| v.rule == Rule::PanicReach).collect();
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert_eq!(hits[0].line as usize, seeded.lines().count());
    assert!(hits[0].message.contains("`probe_helper` can panic"));
    assert!(hits[0].message.contains("probe_inner"));
    assert!(hits[0].message.contains("`.unwrap()`"));
}

#[test]
fn query_stats_counters_are_all_live() {
    // QueryStats extraction against the real tree.rs must find the
    // counter fields (the dead-counter rule would be vacuous if the
    // struct were missed).
    let path = repo_root().join("crates/core/src/tree.rs");
    let src = std::fs::read_to_string(path).expect("read tree.rs");
    assert!(
        src.contains("pub struct QueryStats"),
        "QueryStats moved out of tree.rs — update spb-lint's targets"
    );
}
