//! CLI entry point:
//! `cargo run -p spb-lint [-- --deny-all] [--root DIR] [--format json] [--changed-only]`.
//!
//! Prints one `path:line: [rule] message` diagnostic per finding and
//! exits non-zero iff any deny-level finding exists (`--deny-all`
//! promotes warn-level rules, which is how CI runs it). `--format json`
//! writes a machine-readable report to stdout instead (CI archives it
//! as a build artifact); `--changed-only` still scans the whole
//! workspace (the interprocedural rules need the full call graph) but
//! reports only findings in files changed relative to `HEAD`, keeping
//! pre-commit runs quiet about pre-existing noise.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut cfg = spb_lint::Config::repo_default();
    let mut json = false;
    let mut changed_only = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--deny-all" => cfg.deny_all = true,
            "--changed-only" => changed_only = true,
            "--format" => match args.next().as_deref() {
                Some("json") => json = true,
                Some("text") => json = false,
                other => {
                    eprintln!(
                        "spb-lint: --format requires `json` or `text`, got {:?}",
                        other.unwrap_or("nothing")
                    );
                    return ExitCode::from(2);
                }
            },
            "--root" => match args.next() {
                Some(dir) => cfg.root = PathBuf::from(dir),
                None => {
                    eprintln!("spb-lint: --root requires a directory argument");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!(
                    "spb-lint: workspace static analysis\n\n\
                     USAGE: spb-lint [--deny-all] [--root DIR] [--format json|text] [--changed-only]\n\n\
                     --deny-all      promote warn-level rules (dead-variant) to deny\n\
                     --root DIR      scan DIR instead of this workspace\n\
                     --format json   write the report as JSON to stdout\n\
                     --changed-only  report only findings in files changed vs HEAD\n\n\
                     Rules: catch-all, dead-variant, nan-unsafe, panic-reach, bad-allow.\n\
                     See DESIGN.md §10 for the catalog and the allow-marker grammar."
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("spb-lint: unknown argument `{other}` (try --help)");
                return ExitCode::from(2);
            }
        }
    }

    let mut report = spb_lint::run(&cfg);
    if changed_only {
        match spb_lint::changed_files(&cfg.root) {
            Some(changed) => report.violations.retain(|v| changed.contains(&v.file)),
            None => eprintln!(
                "spb-lint: --changed-only: git unavailable or not a work tree; \
                 reporting everything"
            ),
        }
    }
    if json {
        print!("{}", report.to_json(cfg.deny_all));
        let denied = report.denied(cfg.deny_all).count();
        return if denied > 0 {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        };
    }
    let mut denied = 0usize;
    let mut warned = 0usize;
    for v in &report.violations {
        if v.rule.denied(cfg.deny_all) {
            denied += 1;
            eprintln!("{v}");
        } else {
            warned += 1;
            eprintln!("warning: {v}");
        }
    }
    eprintln!(
        "spb-lint: {} file(s) scanned, {} error(s), {} warning(s)",
        report.files_scanned, denied, warned
    );
    if denied > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
