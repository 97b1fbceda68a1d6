//! Source checks for the invariants rustc and clippy enforce, so that the
//! attributes and manifest tables that hand them to the toolchain cannot
//! quietly go missing, plus the one zone rule clippy has no lint for.
//! See DESIGN.md §10 for the mechanism behind each invariant.

use std::path::{Path, PathBuf};

/// Files where nothing may panic: every byte read off disk or off the
/// wire flows through them, so a malformed input must surface as a
/// typed error, never an unwind.
const NO_PANIC_ZONES: &[&str] = &[
    "crates/server/src/wire.rs",
    "crates/server/src/server.rs",
    "crates/server/src/connection.rs",
    "crates/storage/src/raf.rs",
    "crates/storage/src/pager.rs",
    "crates/storage/src/wal.rs",
    "crates/bptree/src/node.rs",
    "crates/bptree/src/tree.rs",
];

/// The zones' crates and every workspace crate they depend on. Their
/// library code denies the literal panic sites crate-wide.
const NO_PANIC_CRATES: &[&str] = &[
    "storage", "bptree", "server", "obs", "sfc", "core", "metric", "pivots", "accel",
];

/// The zones' line, whitespace removed (rustfmt wraps it over twelve
/// lines). Within a zone, indexing is denied too.
const ZONE_DENY_LINE: &str = "#![cfg_attr(not(test),deny(clippy::unwrap_used,\
     clippy::expect_used,clippy::panic,clippy::indexing_slicing,clippy::unreachable,\
     clippy::todo,clippy::unimplemented))]";

/// The crate roots' line, whitespace removed.
const CRATE_DENY_LINE: &str = "#![cfg_attr(not(test),deny(clippy::unwrap_used,\
     clippy::expect_used,clippy::panic,clippy::unreachable,clippy::todo,\
     clippy::unimplemented))]";

/// The asserts a zone keeps: release checks on nodes this crate built
/// itself, where an overflow is a split bug and a truncated page would
/// corrupt the index.
const ZONE_ASSERTS: &[(&str, &str)] = &[
    (
        "crates/bptree/src/node.rs",
        "assert!(self.keys.len() <= LEAF_CAPACITY, \"leaf overflow\");",
    ),
    (
        "crates/bptree/src/node.rs",
        "assert_eq!(self.keys.len(), self.values.len());",
    ),
    (
        "crates/bptree/src/node.rs",
        "assert!(self.entries.len() <= INTERNAL_CAPACITY, \"internal overflow\");",
    ),
];

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(path: PathBuf) -> String {
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// The part of a source file above its `#[cfg(test)] mod tests`.
fn non_test(src: &str) -> &str {
    src.split("\n#[cfg(test)]\nmod tests").next().unwrap_or(src)
}

#[test]
fn every_package_inherits_the_workspace_unsafe_lint() {
    // `unsafe` is rustc's to reject: the root manifest forbids it for
    // the workspace, every package inherits that table, and only
    // spb-server (one FFI site) spells its own, which still denies it
    // and requires a SAFETY comment on each block.
    let root = repo_root();
    let manifest = read(root.join("Cargo.toml"));
    assert!(manifest.contains("[workspace.lints.rust]\nunsafe_code = \"forbid\""));
    let mut packages = vec![("spb".to_string(), manifest)];
    for entry in std::fs::read_dir(root.join("crates")).expect("read crates/") {
        let dir = entry.expect("crates/ entry").path();
        let name = dir.file_name().unwrap().to_string_lossy().into_owned();
        packages.push((name, read(dir.join("Cargo.toml"))));
    }
    assert!(
        packages.len() >= 14,
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
fn zones_and_the_crates_they_reach_carry_their_clippy_deny_lines() {
    // The lists and the attributes cannot drift apart: a zone or crate
    // added here without its line, or a line edited in one file only,
    // fails. Clippy then rejects every literal panic site they cover.
    let dense = |rel: &str| -> String { read(repo_root().join(rel)).split_whitespace().collect() };
    for rel in NO_PANIC_ZONES {
        assert!(
            dense(rel).contains(ZONE_DENY_LINE),
            "{rel} lacks the zone deny line"
        );
    }
    for name in NO_PANIC_CRATES {
        let rel = format!("crates/{name}/src/lib.rs");
        assert!(
            dense(&rel).contains(CRATE_DENY_LINE),
            "{rel} lacks the crate deny line"
        );
        // Closed under dependencies: whatever a listed crate can call
        // is denied too.
        let manifest = read(repo_root().join(format!("crates/{name}/Cargo.toml")));
        let deps = manifest.split("[dependencies]").nth(1).unwrap_or_default();
        for line in deps.split("\n[").next().unwrap_or_default().lines() {
            if let Some(dep) = line.strip_prefix("spb-") {
                let dep = dep.split(['.', ' ', '=']).next().unwrap_or_default();
                assert!(
                    NO_PANIC_CRATES.contains(&dep),
                    "{name} depends on spb-{dep}"
                );
            }
        }
    }
}

/// Every `assert!`, `assert_eq!` and `assert_ne!` outside comments in
/// the non-test part of `src`, as its trimmed line.
fn asserts(src: &str) -> Vec<String> {
    let mut found = Vec::new();
    for line in non_test(src).lines() {
        let code = line.split("//").next().unwrap_or_default();
        for mac in ["assert!(", "assert_eq!(", "assert_ne!("] {
            let hit = code
                .match_indices(mac)
                .any(|(i, _)| !code[..i].ends_with(|c: char| c.is_alphanumeric() || c == '_'));
            if hit {
                found.push(line.trim().to_string());
            }
        }
    }
    found
}

#[test]
fn no_panic_zones_hold_only_the_named_asserts() {
    // Clippy has no lint for the assert family, so this scan is the
    // rule: malformed input in a zone must become a typed error.
    // `debug_assert!` is not matched.
    let mut found = Vec::new();
    for rel in NO_PANIC_ZONES {
        for line in asserts(&read(repo_root().join(rel))) {
            found.push((*rel, line));
        }
    }
    let expected: Vec<(&str, String)> = ZONE_ASSERTS
        .iter()
        .map(|&(rel, line)| (rel, line.to_string()))
        .collect();
    assert_eq!(found, expected);
}

#[test]
fn the_assert_scan_sees_what_it_must() {
    let src = "fn f(x: u8) {\n    assert!(x > 0);\n    debug_assert!(x > 1);\n    \
               // assert_eq!(x, 2);\n    assert_ne!(x, 3); // why\n}\n\
               #[cfg(test)]\nmod tests {\n    fn t() { assert_eq!(1, 1); }\n}\n";
    assert_eq!(
        asserts(src),
        ["assert!(x > 0);", "assert_ne!(x, 3); // why"]
    );
}
