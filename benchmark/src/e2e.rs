//! The untraced pass: one timestamp pair per op, nothing else recorded.
//! Every end-to-end metric comes from here.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::time::Instant;

use spb_core::SpbTree;

use crate::bench::{
    crash_and_reopen, oracle_check, peak_rss_mb, serve_tree, storage_bytes, Ctx, Tree,
};
use crate::exec::{
    closed_round, open_step, wal_bytes_committed, Answer, Exec, OpenStep, Round, Sample,
};
use crate::plan::{Kind, Op, Scale, Spec, OPEN_STEPS};
use crate::report::Report;
use crate::space::Space;
use crate::stats::{latency, median, quantile, supported_tail, PerMille, P99};
use crate::trace::Tracer;

/// Index builds per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Reads per client run untimed before the first round.
const WARM_READS: usize = 200;

/// In-process workloads run their slowest reads again, this many times.
const RERUNS: usize = 2;
/// The share of each kind's reads that is run again.
const RERUN_SHARE: f64 = 0.10;

/// One op list as executed: `round.samples[c][i]` answers `ops[c][i]`.
pub struct Pass {
    pub ops: Vec<Vec<Op>>,
    pub round: Round,
}

impl Pass {
    fn run<S: Space, E: Exec>(ctx: &Ctx<S>, execs: &mut [E], ops: Vec<Vec<Op>>) -> Pass {
        let mut off: Vec<Tracer> = execs.iter().map(|_| Tracer::new(false)).collect();
        let round = closed_round(execs, &ops, &mut off, 0, &ctx.scratch());
        Pass { ops, round }
    }

    /// `(op, sample)` of every answered op.
    fn answered(&self) -> impl Iterator<Item = (Op, &Sample)> {
        self.ops
            .iter()
            .flatten()
            .zip(self.round.samples.iter().flatten())
            .filter_map(|(&op, s)| s.as_ref().map(|s| (op, s)))
    }
}

/// What the measured phases produced, before it is summarised.
pub struct Measured {
    pub oracle_failures: Vec<String>,
    /// Full passes over the closed-loop op list.
    pub rounds: Vec<Pass>,
    /// The complement pass, in the order it ran.
    pub complement: Pass,
    /// Repeats of the slowest reads (in-process workloads).
    pub reruns: Vec<Pass>,
    pub open: Vec<OpenStep>,
    /// WAL bytes committed during the rounds.
    pub wal_bytes: u64,
}

impl Measured {
    fn passes(&self) -> impl Iterator<Item = &Pass> {
        self.rounds
            .iter()
            .chain(std::iter::once(&self.complement))
            .chain(&self.reruns)
    }
}

/// The reads of `from` that are currently slowest — the top
/// [`RERUN_SHARE`] of each kind, every read at the fastest time it has
/// had in `all` — in the order `from` ran them.
fn slowest_reads<'a>(from: &Pass, all: impl Iterator<Item = &'a Pass>) -> Vec<Op> {
    let mut best: BTreeMap<u32, u64> = BTreeMap::new();
    for (op, s) in all
        .flat_map(Pass::answered)
        .filter(|(op, _)| op.kind.is_read())
    {
        best.entry(op.obj)
            .and_modify(|ns| *ns = (*ns).min(s.ns))
            .or_insert(s.ns);
    }
    let mut chosen = Vec::new();
    for kind in [Kind::Range, Kind::Knn] {
        let mut of_kind: Vec<(u64, Op)> = from
            .answered()
            .filter(|(op, _)| op.kind == kind)
            .map(|(op, _)| (best[&op.obj], op))
            .collect();
        of_kind.sort_by_key(|&(ns, op)| (std::cmp::Reverse(ns), op.obj));
        let n = (of_kind.len() as f64 * RERUN_SHARE).ceil() as usize;
        chosen.extend(of_kind.into_iter().take(n).map(|(_, op)| op.obj));
    }
    from.ops
        .iter()
        .flatten()
        .filter(|op| op.kind.is_read() && chosen.contains(&op.obj))
        .copied()
        .collect()
}

/// Oracle check, warm-up, closed-loop rounds, complement pass, open loop.
pub fn measure<S: Space, E: Exec>(
    ctx: &Ctx<S>,
    execs: &mut [E],
    expected: Option<&[Answer]>,
) -> Measured {
    let oracle_failures = oracle_check(ctx, &mut execs[0], expected);
    let warm: Vec<Vec<Op>> = ctx.plan.rounds[0]
        .iter()
        .map(|ops| {
            ops.iter()
                .filter(|op| op.kind.is_read())
                .take(WARM_READS)
                .copied()
                .collect()
        })
        .collect();
    Pass::run(ctx, execs, warm);

    let wal_before = wal_bytes_committed();
    let rounds: Vec<Pass> = ctx
        .plan
        .rounds
        .iter()
        .map(|ops| Pass::run(ctx, execs, ops.clone()))
        .collect();
    let wal_bytes = wal_bytes_committed() - wal_before;

    // A read that met a hiccup of the machine is the only thing in its
    // percentile's way, so the slowest reads are run again, alone, and
    // each counts at its fastest. A server's clients do not: their reads
    // are meant to wait behind the other connection's writes, and the
    // served workload repeats its whole mix instead (`rounds`).
    let solo = !ctx.spec.served;
    let mut reruns: Vec<Pass> = Vec::new();
    let rerun = |execs: &mut [E], from: &Pass, rounds: &[Pass], reruns: &mut Vec<Pass>| {
        for _ in 0..RERUNS {
            let ops = slowest_reads(from, rounds.iter().chain(reruns.iter()).chain([from]));
            if !ops.is_empty() {
                reruns.push(Pass::run(ctx, &mut execs[..1], vec![ops]));
            }
        }
    };
    if solo {
        rerun(execs, &rounds[0], &rounds, &mut reruns);
    }

    // The complement pass runs in as many pieces as the open loop has
    // steps, one before each step, so that its samples are spread over
    // several seconds and not taken in one burst.
    let extra = &ctx.plan.complement;
    let piece = extra.len().div_ceil(OPEN_STEPS);
    let mut complement = Pass {
        ops: vec![Vec::new()],
        round: Round {
            wall_ns: 0,
            samples: vec![Vec::new()],
            failures: Vec::new(),
        },
    };
    let mut open = Vec::with_capacity(OPEN_STEPS);
    for step in 0..OPEN_STEPS {
        let ops = &extra[(step * piece).min(extra.len())..((step + 1) * piece).min(extra.len())];
        if !ops.is_empty() {
            let mut part = Pass::run(ctx, &mut execs[..1], vec![ops.to_vec()]);
            complement.ops[0].append(&mut part.ops[0]);
            complement.round.wall_ns += part.round.wall_ns;
            complement.round.samples[0].append(&mut part.round.samples[0]);
            complement.round.failures.append(&mut part.round.failures);
        }
        open.push(open_step(
            execs,
            &ctx.plan.open[step],
            ctx.spec.open_rates[step],
            &ctx.scratch(),
        ));
    }
    if solo {
        rerun(execs, &complement, &[], &mut reruns);
    }
    Measured {
        oracle_failures,
        rounds,
        complement,
        reruns,
        open,
        wal_bytes,
    }
}

/// Latencies of one op type in µs. A read is one query however often it
/// ran and counts at its fastest; an update uses a fresh object every
/// time, so every sample counts.
pub fn latencies_us(m: &Measured, kind: Kind, time: fn(&Sample) -> u64) -> Vec<f64> {
    let of_kind = m
        .passes()
        .flat_map(Pass::answered)
        .filter(|(op, _)| op.kind == kind);
    if kind.is_read() {
        let mut best: BTreeMap<u32, u64> = BTreeMap::new();
        for (op, s) in of_kind {
            best.entry(op.obj)
                .and_modify(|ns| *ns = (*ns).min(time(s)))
                .or_insert(time(s));
        }
        best.into_values().map(|ns| ns as f64 / 1e3).collect()
    } else {
        of_kind.map(|(_, s)| time(s) as f64 / 1e3).collect()
    }
}

/// Tail latency of an open-loop step and whether the step met the limit:
/// no failed op, the supported tail within the limit, and the last
/// tenth of the ops typically within it too (under a backlog that is
/// still growing they would not be).
pub fn step_verdict(step: &OpenStep, limit_us: f64) -> (PerMille, f64, bool) {
    if step.latency_us.is_empty() {
        return (0, 0.0, false);
    }
    let p = supported_tail(step.latency_us.len(), P99);
    let tail = quantile(&mut step.latency_us.clone(), p);
    let pass = step.failures.is_empty() && tail <= limit_us && step.backlog_us <= limit_us;
    (p, tail, pass)
}

pub fn run<S: Space>(
    spec: &'static Spec,
    scale: Scale,
    seconds: u64,
    seed: u64,
    out: &Path,
) -> io::Result<Report> {
    let ctx = Ctx::<S>::new(spec, scale, seconds, seed, out);
    let mut report = Report::new(spec.name, seed, ctx.digest);

    // Set-up, several times over: objects in memory → index ready (and,
    // when served, port bound and first Ping answered).
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut last = None;
    for i in 0..SETUPS {
        drop(last.take());
        let (built, scale) = crate::speed::around(|| {
            let t0 = Instant::now();
            ctx.build("idx").map(|b| (b, t0.elapsed()))
        });
        let ((dir, tree), took) = built?;
        let mut took = took.mul_f64(scale);
        // In-process answers from the snapshot the server is about to
        // serve, for the byte-for-byte check; not part of set-up.
        let expected = (spec.served && i + 1 == SETUPS).then(|| {
            let mut exec = ctx.inproc(&tree);
            ctx.plan
                .oracle
                .iter()
                .map(|&op| exec.answer(op))
                .collect::<Result<Vec<_>, _>>()
        });
        let target: Target<S> = if spec.served {
            let t1 = Instant::now();
            let handle = serve_tree::<S>(tree)?;
            took += t1.elapsed().mul_f64(scale);
            Target::Served(handle)
        } else {
            Target::InProc(Box::new(tree))
        };
        setup_s.push(took.as_secs_f64());
        last = Some((dir, target, expected));
    }
    let (dir, target, expected) = last.expect("SETUPS > 0");
    let expected = expected
        .transpose()
        .map_err(|e| io::Error::other(format!("in-process oracle answer: {e}")))?;

    let (measured, tree) = match target {
        Target::InProc(tree) => {
            let m = measure(&ctx, &mut [ctx.inproc(&tree)], None);
            (m, *tree)
        }
        Target::Served(handle) => {
            let encoded = ctx.encoded();
            let mut execs = ctx.remotes(handle.addr(), &encoded, spec.clients)?;
            let m = measure(&ctx, &mut execs, expected.as_deref());
            drop(execs);
            let (shed, missed) = (handle.shed_count(), handle.deadline_miss_count());
            if shed + missed > 0 {
                report.fail(format!("server shed {shed} and missed {missed} deadlines"));
            }
            handle.join()?;
            let tree: Tree<S> = SpbTree::open(&dir, S::metric(), spec.cache_pages)?;
            (m, tree)
        }
    };

    summarise(&ctx, &measured, &mut report);
    report.set("setup_s", median(&mut setup_s));

    // Checkpointed, so the WAL's share does not depend on how long ago
    // the last automatic checkpoint happened to be.
    tree.checkpoint()?;
    report.set(
        "storage_bytes_per_object",
        storage_bytes(&dir)? as f64 / tree.len() as f64,
    );

    // Durability: every update acknowledged in the closed loop survives
    // a crash and a reopen.
    let acked = |kind: Kind| -> Vec<u32> {
        measured
            .passes()
            .flat_map(Pass::answered)
            .filter(|(op, _)| op.kind == kind)
            .map(|(op, _)| op.obj)
            .collect()
    };
    let [probe, crash] = ctx.plan.spare;
    let (tree, durability) = crash_and_reopen(
        &ctx,
        &dir,
        tree,
        &acked(Kind::Insert),
        &acked(Kind::Delete),
        &ctx.objects[crash as usize],
        &ctx.objects[probe as usize],
    )?;
    drop(tree);
    report.attempted += durability.checked as u64;
    report.note(format!(
        "durability: crash mid-insert, reopen in {:.3} s, {} acknowledged updates checked",
        durability.recovery_s, durability.checked
    ));
    durability.failures.into_iter().for_each(|f| report.fail(f));

    report.set("peak_rss_mb", peak_rss_mb());
    Ok(report)
}

enum Target<S: Space> {
    InProc(Box<Tree<S>>),
    Served(spb_server::ServerHandle),
}

/// Turns the measured phases into the end-to-end metrics.
fn summarise<S: Space>(ctx: &Ctx<S>, m: &Measured, report: &mut Report) {
    report.attempted += ctx.plan.oracle.len() as u64;
    m.oracle_failures
        .iter()
        .for_each(|f| report.fail(f.clone()));
    for pass in m.passes() {
        report.attempted += pass.ops.iter().map(Vec::len).sum::<usize>() as u64;
        pass.round
            .failures
            .iter()
            .for_each(|f| report.fail(f.clone()));
    }
    for step in &m.open {
        report.attempted += (step.latency_us.len() + step.failures.len()) as u64;
        step.failures.iter().for_each(|f| report.fail(f.clone()));
    }

    let mut lat = |kind: Kind, p50: &'static str, p99: Option<&'static str>| {
        let l = latency(&mut latencies_us(m, kind, |s| s.ns));
        let raw = latency(&mut latencies_us(m, kind, |s| s.raw_ns));
        report.set(p50, l.p50);
        if let Some(p99) = p99 {
            report.set(p99, l.tail);
        }
        report.note(format!(
            "{kind:?}: {} samples, p50 {:.1} us, p{} {:.1} us (as the clock read them: {:.1} and {:.1})",
            l.n,
            l.p50,
            l.tail_p as f64 / 10.0,
            l.tail,
            raw.p50,
            raw.tail
        ));
    };
    lat(Kind::Range, "range_p50_us", Some("range_p99_us"));
    lat(Kind::Knn, "knn_p50_us", Some("knn_p99_us"));
    // An insert cannot be repeated, so its tail is whatever the machine
    // did to it; the traced pass reports it (`core.insert_tail_us`).
    lat(Kind::Insert, "insert_p50_us", None);

    // Closed-loop throughput of the best round: each client's answered
    // ops over the time it waited for them (at reference speed), summed
    // over the clients.
    let throughput = |round: &Round, time: fn(&Sample) -> u64| -> f64 {
        round
            .samples
            .iter()
            .map(|client| {
                let ok: Vec<_> = client.iter().flatten().collect();
                let ns: u64 = ok.iter().map(|s| time(s)).sum();
                ok.len() as f64 / (ns.max(1) as f64 / 1e9)
            })
            .sum()
    };
    let best = m
        .rounds
        .iter()
        .map(|p| &p.round)
        .max_by(|a, b| throughput(a, |s| s.ns).total_cmp(&throughput(b, |s| s.ns)))
        .expect("at least one round");
    report.set("throughput_ops_s", throughput(best, |s| s.ns));
    report.note(format!(
        "throughput as the clock read it: {:.1} ops/s; {} ops in {:.2} s of wall time",
        throughput(best, |s| s.raw_ns),
        best.samples.iter().flatten().flatten().count(),
        best.wall_ns as f64 / 1e9
    ));

    // The paper's currencies, per read of the first round.
    let reads: Vec<&Sample> = m.rounds[0]
        .answered()
        .filter(|(op, _)| op.kind.is_read())
        .map(|(_, s)| s)
        .collect();
    let per_read = |f: fn(&Sample) -> u64| {
        reads.iter().map(|s| f(s)).sum::<u64>() as f64 / reads.len().max(1) as f64
    };
    report.set("compdists_per_query", per_read(|s| s.out.compdists));
    report.set("page_accesses_per_query", per_read(|s| s.out.page_accesses));

    // In-process each insert reads the commit counter around itself; a
    // server's clients cannot, and there only inserts commit.
    let inserts = |passes: &mut dyn Iterator<Item = &Pass>| -> Vec<u64> {
        passes
            .flat_map(Pass::answered)
            .filter(|(op, _)| op.kind == Kind::Insert)
            .map(|(_, s)| s.out.wal_bytes)
            .collect()
    };
    let per_insert = if ctx.spec.served {
        m.wal_bytes as f64 / inserts(&mut m.rounds.iter()).len().max(1) as f64
    } else {
        let bytes = inserts(&mut m.passes());
        bytes.iter().sum::<u64>() as f64 / bytes.len().max(1) as f64
    };
    report.set("wal_bytes_per_insert", per_insert);

    // Highest offered rate that met the limit; reported as the rate
    // actually achieved at that step.
    let mut slo = None;
    for step in &m.open {
        let (p, tail, pass) = step_verdict(step, ctx.spec.slo_limit_us);
        report.note(format!(
            "open loop {:.0} ops/s: {} ops, p{} {:.0} us (limit {:.0}), last tenth median {:.0} us, achieved {:.1} ops/s, {}",
            step.offered_rps,
            step.latency_us.len(),
            p as f64 / 10.0,
            tail,
            ctx.spec.slo_limit_us,
            step.backlog_us,
            step.achieved_rps,
            if pass { "met" } else { "missed" }
        ));
        if pass {
            slo = Some(step.achieved_rps);
        }
    }
    report.set("slo_rate_rps", slo.unwrap_or(m.open[0].achieved_rps));
}
