//! One benchmark for the SPB-tree stack: four workloads, end-to-end
//! metrics from an untraced pass, per-layer metrics from a traced pass.
//! See `README.md` next to this package.

mod bench;
mod e2e;
mod exec;
mod gen;
mod layers;
mod plan;
mod report;
mod space;
mod speed;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use plan::{Scale, SpaceKind, Spec, RUN_SECONDS, SPECS};
use report::Report;

const USAGE: &str = "\
usage:
  spb-benchmark run [--workload <name>] [--seed <u64>] [--seconds <n>]
                    [--trace <0|1> | --traced] [--scale full|smoke] [--twice]
  spb-benchmark check-repeat <a.json> <b.json>
  spb-benchmark manifest        (prints BENCHMARK.json from the tables in the code)

`run` builds each workload's index, runs it, checks answers and prints
every metric by name with its unit; the last line of standard output is
one JSON object (of the last workload run). Without --workload all four
run. --trace 0 (default) is the untraced pass that yields the end-to-end
metrics; --trace 1 / --traced is the traced pass that yields the
per-layer metrics and writes out/trace-<workload>.jsonl. --twice runs
the untraced pass twice, writes out/<workload>-a.json and -b.json, and
compares them like check-repeat.
workloads: words-read vectors-read serve-mixed words-update";

struct Args {
    workloads: Vec<&'static Spec>,
    seed: u64,
    seconds: u64,
    traced: bool,
    scale: Scale,
    twice: bool,
}

fn parse_run(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workloads: SPECS.iter().collect(),
        seed: 1,
        seconds: RUN_SECONDS,
        traced: false,
        scale: Scale::Full,
        twice: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                out.workloads = vec![plan::spec(name).ok_or(format!("unknown workload {name}"))?];
            }
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&out.seconds) {
                    return Err("--seconds must be 1 to 60".into());
                }
            }
            "--trace" => {
                out.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--traced" => out.traced = true,
            "--scale" => {
                let s = value()?;
                out.scale = Scale::parse(s).ok_or(format!("unknown scale {s}"))?;
            }
            "--twice" => out.twice = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(out)
}

/// Where scratch indexes and trace files go: `out/` in this package.
fn out_dir() -> PathBuf {
    let package = std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")));
    package.join("out")
}

fn run_one(spec: &'static Spec, args: &Args, traced: bool) -> std::io::Result<Report> {
    let out = out_dir();
    std::fs::create_dir_all(&out)?;
    macro_rules! go {
        ($space:ty) => {
            if traced {
                layers::run::<$space>(spec, args.scale, args.seconds, args.seed, &out)
            } else {
                e2e::run::<$space>(spec, args.scale, args.seconds, args.seed, &out)
            }
        };
    }
    match spec.space {
        SpaceKind::Words => go!(space::Words),
        SpaceKind::Vectors => go!(space::Vectors),
    }
}

/// Prints each end-to-end metric's drift against its bound; true when
/// all are within.
fn print_comparison(a: &str, b: &str, exact: bool) -> bool {
    let drifts = report::compare(&report::parse_metrics(a), &report::parse_metrics(b), exact);
    println!(
        "  {:<28} {:>14} {:>14} {:>9} {:>7}",
        "metric", "a", "b", "worse by", "bound"
    );
    for d in &drifts {
        println!(
            "  {:<28} {:>14.4} {:>14.4} {:>8.1}% {:>6.1}% {}",
            d.name,
            d.a,
            d.b,
            d.worse_by * 100.0,
            d.bound * 100.0,
            if d.within { "" } else { "OUTSIDE" }
        );
    }
    drifts.iter().all(|d| d.within)
}

/// The metrics a pass must report.
fn wanted(traced: bool) -> Vec<&'static str> {
    if traced {
        report::PER_LAYER.iter().map(|d| d.0).collect()
    } else {
        report::END_TO_END.iter().map(|d| d.0).collect()
    }
}

/// One workload, one pass, in this process: the report, checked for
/// completeness, and whether every op succeeded.
fn run_here(spec: &'static Spec, args: &Args) -> Result<(String, bool), String> {
    let report = run_one(spec, args, args.traced).map_err(|e| format!("{}: {e}", spec.name))?;
    print!("{}", report.text());
    let missing = report.missing(wanted(args.traced).into_iter());
    if !missing.is_empty() {
        return Err(format!("{}: no value for {missing:?}", spec.name));
    }
    Ok((report.json(), report.correct()))
}

/// The same in a child process, so that `peak_rss_mb` is the pass's own
/// and not what an earlier pass left behind in this process's heap.
fn run_in_child(spec: &'static Spec, args: &Args) -> Result<(String, bool), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = std::process::Command::new(exe)
        .args(["run", "--workload", spec.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.traced { "1" } else { "0" }])
        .args(["--scale", args.scale.name()])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&out.stdout);
    let (report, json) = text
        .trim_end()
        .rsplit_once('\n')
        .ok_or(format!("{}: the child printed no result", spec.name))?;
    println!("{report}");
    match out.status.code() {
        Some(0) => Ok((json.to_owned(), true)),
        Some(1) => Ok((json.to_owned(), false)),
        _ => Err(format!(
            "{}: the child exited with {}",
            spec.name, out.status
        )),
    }
}

fn run(args: &Args) -> Result<bool, String> {
    // A single pass over a single workload (what the driver asks for)
    // runs here; anything more runs one child per pass.
    if let ([spec], false) = (args.workloads.as_slice(), args.twice) {
        let (json, ok) = run_here(spec, args)?;
        println!("{json}");
        return Ok(ok);
    }
    let mut all_ok = true;
    let mut last_json = String::new();
    for spec in &args.workloads {
        let mut lines = Vec::new();
        for name in ["a", "b"].iter().take(if args.twice { 2 } else { 1 }) {
            let (json, ok) = run_in_child(spec, args)?;
            all_ok &= ok;
            if args.twice {
                let path = out_dir().join(format!("{}-{name}.json", spec.name));
                std::fs::write(&path, format!("{json}\n")).map_err(|e| e.to_string())?;
            }
            lines.push(json);
        }
        if let [a, b] = lines.as_slice() {
            println!("repeatability of {}:", spec.name);
            all_ok &= print_comparison(a, b, !spec.served);
        }
        last_json = lines.pop().unwrap_or_default();
    }
    println!("{last_json}");
    Ok(all_ok)
}

fn check_repeat(paths: &[String]) -> Result<bool, String> {
    let [a, b] = paths else {
        return Err("check-repeat takes two files".into());
    };
    let read = |p: &String| -> Result<String, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        text.lines()
            .rev()
            .find(|l| l.contains("\"metrics\""))
            .map(str::to_owned)
            .ok_or(format!("{p}: no result line"))
    };
    // Counters must be equal unless a file name says the workload is
    // the served one, whose two connections race.
    let exact = !a.contains("serve-mixed");
    Ok(print_comparison(&read(a)?, &read(b)?, exact))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => parse_run(rest).and_then(|a| run(&a)),
        Some((cmd, rest)) if cmd == "check-repeat" => check_repeat(rest),
        Some((cmd, [])) if cmd == "manifest" => {
            print!("{}", report::manifest());
            Ok(true)
        }
        _ => Err(USAGE.to_owned()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("failed: see the lines marked ! or OUTSIDE above");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload, both passes, at smoke scale: every metric is
    /// emitted and finite, no op fails, every trace file is written.
    #[test]
    fn smoke_scale_runs_all_workloads_and_emits_every_metric() {
        let t0 = std::time::Instant::now();
        let args = Args {
            workloads: SPECS.iter().collect(),
            seed: 3,
            seconds: RUN_SECONDS,
            traced: false,
            scale: Scale::Smoke,
            twice: false,
        };
        for spec in &SPECS {
            for traced in [false, true] {
                let report = run_one(spec, &args, traced).expect(spec.name);
                assert!(report.correct(), "{}: {:?}", spec.name, report.failures);
                assert!(report.attempted > 0);
                assert_eq!(report.metrics.len(), wanted(traced).len(), "{}", spec.name);
                let missing = report.missing(wanted(traced).into_iter());
                assert!(missing.is_empty(), "{}: {missing:?}", spec.name);
                let line = report.json();
                assert_eq!(report::parse_metrics(&line).len(), report.metrics.len());
            }
            let trace = out_dir().join(format!("trace-{}.jsonl", spec.name));
            let text = std::fs::read_to_string(&trace).expect("trace file");
            assert!(text.lines().count() > 10, "{}", trace.display());
            assert!(text
                .lines()
                .all(|l| l.starts_with("{\"id\":") && l.ends_with('}')));
        }
        assert!(t0.elapsed().as_secs() < 30, "smoke took {:?}", t0.elapsed());
    }

    #[test]
    fn the_driver_s_arguments_parse() {
        let argv: Vec<String> = "--workload serve-mixed --seed 9 --seconds 15 --trace 1"
            .split(' ')
            .map(str::to_owned)
            .collect();
        let args = parse_run(&argv).expect("driver arguments");
        assert_eq!(args.workloads.len(), 1);
        assert_eq!(args.workloads[0].name, "serve-mixed");
        assert_eq!((args.seed, args.seconds, args.traced), (9, 15, true));
        assert!(parse_run(&["--trace".into(), "2".into()]).is_err());
        assert!(parse_run(&["--workload".into(), "nope".into()]).is_err());
    }
}
