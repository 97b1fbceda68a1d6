//! The experiment driver: regenerates every table and figure of the
//! paper's evaluation.
//!
//! ```text
//! experiments <table2|table4|table5|table6|table7|
//!              fig9|fig10|fig11|fig12|fig13|fig14|fig15|fig16|fig17|fig18|
//!              ablation|approx|all>
//!             [--scale smoke|default|full]
//! ```
//!
//! Output is plain text tables on stdout; `EXPERIMENTS.md` records a full
//! `--scale default` run against the paper's numbers.

use spb_bench::experiments as exp;
use spb_bench::Scale;

fn usage() -> ! {
    eprintln!(
        "usage: experiments <experiment> [--scale smoke|default|full]\n\
         experiments: table2 table4 table5 table6 table7\n\
         \x20            fig9 fig10 fig11 fig12 fig13 fig14 fig15 fig16 fig17 fig18 ablation approx\n\
         \x20            all"
    );
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let mut which: Option<String> = None;
    let mut scale = Scale::Default;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                let Some(s) = args.get(i).and_then(|s| Scale::parse(s)) else {
                    usage();
                };
                scale = s;
            }
            other if which.is_none() => which = Some(other.to_owned()),
            _ => usage(),
        }
        i += 1;
    }
    let which = which.unwrap_or_else(|| usage());

    let t0 = spb_obs::clock::now();
    let run_one = |name: &str| match name {
        "table2" => exp::table2::run(scale),
        "table4" => exp::table4::run(scale),
        "table5" => exp::table5::run(scale),
        "table6" => exp::table6::run(scale),
        "table7" => exp::table7::run(scale),
        "fig9" => exp::fig9::run(scale),
        "fig10" => exp::fig10::run(scale),
        "fig11" => exp::fig11::run(scale),
        "fig12" => exp::fig12::run(scale),
        "fig13" => exp::fig13::run(scale),
        "fig14" => exp::fig14::run(scale),
        "fig15" => exp::fig15::run(scale),
        "fig16" => exp::fig16::run(scale),
        "fig17" => exp::fig17::run(scale),
        "fig18" => exp::fig18::run(scale),
        "ablation" => exp::ablation::run(scale),
        "approx" => exp::approx::run(scale),
        _ => usage(),
    };
    if which == "all" {
        for name in [
            "table2", "table4", "table5", "table6", "table7", "fig9", "fig10", "fig11", "fig12",
            "fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "ablation", "approx",
        ] {
            eprintln!("[experiments] running {name} ({scale:?})...");
            run_one(name);
        }
    } else {
        run_one(&which);
    }
    eprintln!("[experiments] done in {:.1}s", t0.elapsed().as_secs_f64());
}
