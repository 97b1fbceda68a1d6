//! Model errors, recall figures and user-supplied factors can be NaN, so
//! this crate orders floats with `f64::total_cmp` or handles NaN by hand.
//! `partial_cmp` would either feed an `unwrap` or impose an arbitrary
//! order. Clippy cannot ban the method without also rejecting every
//! `#[derive(PartialOrd)]`, so this scan is the rule.

#[test]
fn library_code_makes_no_partial_cmp_call() {
    let src_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut scanned = 0;
    for entry in std::fs::read_dir(&src_dir).expect("read src/") {
        let path = entry.expect("src/ entry").path();
        let src = std::fs::read_to_string(&path).expect("read source");
        let code = src
            .split("#[cfg(test)]\nmod tests")
            .next()
            .unwrap_or_default();
        assert!(
            !code.contains(".partial_cmp("),
            "{} calls partial_cmp; use f64::total_cmp",
            path.display()
        );
        scanned += 1;
    }
    assert!(scanned >= 4, "only {scanned} files scanned");
}
