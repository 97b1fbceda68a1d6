//! The four workloads and the op lists derived from `--seed`.
//!
//! The indexed objects are a constant of the benchmark (generated from
//! [`DATA_SEED`]): the same index is built on every run, so the paper's
//! deterministic currencies (distance computations, page accesses) move
//! only when the program changes. Everything the program is *asked* is
//! drawn from `--seed`: which never-indexed pool objects are the queries
//! and the inserts, which indexed objects are deleted, and in what order
//! the operations arrive.

use crate::gen::{Digest, Rng};

/// Seed of the indexed objects and the pool; part of the benchmark.
pub const DATA_SEED: u64 = 0x5eed_0b1e;

/// `run_seconds` in `BENCHMARK.json`: op counts below are sized so the
/// measured phases take about this long at the seed commit, and scale
/// linearly with `--seconds`.
pub const RUN_SECONDS: u64 = 15;

/// Never-indexed objects generated after the indexed ones; queries and
/// inserts are drawn from them without replacement.
pub const POOL: usize = 30_000;

/// Rate steps of the open loop.
pub const OPEN_STEPS: usize = 4;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpaceKind {
    /// Generated words under edit distance.
    Words,
    /// Generated 20-d vectors under L₂.
    Vectors,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    /// Objects ÷ 25 and operations ÷ 25: runs everything in seconds so
    /// the test suite can check that every metric is emitted.
    Smoke,
}

impl Scale {
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "full" => Some(Scale::Full),
            "smoke" => Some(Scale::Smoke),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Smoke => "smoke",
        }
    }

    fn div(self) -> usize {
        match self {
            Scale::Full => 1,
            Scale::Smoke => 25,
        }
    }
}

/// One workload: dataset, index configuration and traffic.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`.
    pub why: &'static str,
    pub space: SpaceKind,
    /// Indexed objects.
    pub n: usize,
    /// Capacity of each of the two page caches (B⁺-tree and RAF).
    pub cache_pages: usize,
    /// Through `spb_server::serve` on loopback instead of in-process.
    pub served: bool,
    /// Closed-loop clients: 1 thread in-process, or connections.
    pub clients: usize,
    /// Range radius: absolute for words, a share of d⁺ for vectors.
    pub radius: f64,
    pub k: usize,
    /// Passes over the closed-loop op list. Reads repeat in every pass
    /// and each is reported at its fastest; updates use fresh objects.
    /// In-process workloads make one pass and then run their slowest
    /// reads again; the served one repeats its whole mix, since there a
    /// read's wait behind the other connection's writes is the point.
    pub rounds: usize,
    /// Operations per client per round, at [`RUN_SECONDS`].
    pub ranges: usize,
    pub knns: usize,
    pub inserts: usize,
    pub deletes: usize,
    /// `checkpoint()` after this many updates (0: only the automatic
    /// one the WAL size triggers).
    pub checkpoint_every: usize,
    /// Complement pass after the rounds: op types the mix lacks, so that
    /// every end-to-end metric exists on every workload. Not part of
    /// throughput or of the per-query counters.
    pub extra_knns: usize,
    pub extra_inserts: usize,
    /// Open loop: offered rates (ops/s over all clients), how long each
    /// step offers its rate at [`RUN_SECONDS`], and the latency limit on
    /// the supported tail. The rates were chosen once at the seed commit
    /// as about 25, 40 and 50 % of the closed-loop throughput and one
    /// well above it, and the limit generously (60–80 ms, against a
    /// backlog of 250–500 ms at the end of the fourth step): this
    /// machine's speed varies by up to 1.7x for seconds at a time and
    /// its disk stalls for tens of milliseconds, and the third step must
    /// be met and the fourth missed all the same.
    pub open_rates: [f64; OPEN_STEPS],
    pub open_secs: f64,
    pub slo_limit_us: f64,
}

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "words-read",
        why: "edit-distance verification over an index that fits the cache: compute-bound, zero I/O",
        space: SpaceKind::Words,
        n: 20_000,
        cache_pages: 1024,
        served: false,
        clients: 1,
        radius: 2.0,
        k: 8,
        rounds: 1,
        ranges: 1000,
        knns: 1000,
        inserts: 0,
        deletes: 0,
        checkpoint_every: 0,
        extra_knns: 0,
        extra_inserts: 1000,
        open_rates: [45.0, 70.0, 95.0, 300.0],
        open_secs: 0.8,
        slo_limit_us: 80_000.0,
    },
    Spec {
        name: "vectors-read",
        why: "cheap L2 distances over an index 170x its cache: page misses and RAF fetches dominate",
        space: SpaceKind::Vectors,
        n: 200_000,
        cache_pages: 32,
        served: false,
        clients: 1,
        radius: 0.04,
        k: 8,
        rounds: 1,
        ranges: 1000,
        knns: 1000,
        inserts: 0,
        deletes: 0,
        checkpoint_every: 0,
        extra_knns: 0,
        extra_inserts: 1000,
        open_rates: [130.0, 210.0, 290.0, 900.0],
        open_secs: 0.8,
        slo_limit_us: 80_000.0,
    },
    Spec {
        name: "serve-mixed",
        why: "cheap warm queries plus 5% inserts over TCP on 2 connections: wire, event loop, dispatcher, latch",
        space: SpaceKind::Vectors,
        n: 200_000,
        cache_pages: 8192,
        served: true,
        clients: 2,
        radius: 0.02,
        k: 8,
        rounds: 3,
        ranges: 1600,
        knns: 1600,
        inserts: 170,
        deletes: 0,
        checkpoint_every: 0,
        extra_knns: 0,
        extra_inserts: 0,
        open_rates: [450.0, 700.0, 950.0, 3200.0],
        open_secs: 0.8,
        slo_limit_us: 60_000.0,
    },
    Spec {
        name: "words-update",
        why: "durable inserts and deletes beside short reads on a 32-page cache: WAL fsync, page writes, splits",
        space: SpaceKind::Words,
        n: 10_000,
        cache_pages: 32,
        served: false,
        clients: 1,
        radius: 1.0,
        k: 8,
        rounds: 1,
        ranges: 1000,
        knns: 0,
        inserts: 2000,
        deletes: 400,
        checkpoint_every: 1000,
        extra_knns: 1000,
        extra_inserts: 0,
        open_rates: [220.0, 360.0, 500.0, 2000.0],
        open_secs: 0.8,
        slo_limit_us: 80_000.0,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Kind {
    Range,
    Knn,
    Insert,
    Delete,
    Checkpoint,
}

impl Kind {
    pub fn is_read(self) -> bool {
        matches!(self, Kind::Range | Kind::Knn)
    }

    /// Span name of one op of this kind.
    pub fn span(self) -> &'static str {
        match self {
            Kind::Range => "core.range",
            Kind::Knn => "core.knn",
            Kind::Insert => "core.insert",
            Kind::Delete => "core.delete",
            Kind::Checkpoint => "core.checkpoint",
        }
    }
}

/// One operation; `obj` indexes the generated objects (`< n` only for
/// deletes, which name an indexed object).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Op {
    pub kind: Kind,
    pub obj: u32,
}

/// Everything one run executes, derived from the spec, the scale,
/// `--seconds` and `--seed`.
#[derive(Clone, Debug)]
pub struct Plan {
    pub n: usize,
    /// Objects generated: `n` indexed plus the pool.
    pub generated: usize,
    /// `rounds[r][client]`; read ops are the same in every round.
    pub rounds: Vec<Vec<Vec<Op>>>,
    /// Complement pass, one client.
    pub complement: Vec<Op>,
    /// `open[step][client]`.
    pub open: Vec<Vec<Vec<Op>>>,
    /// Read ops checked against a linear scan before anything is timed.
    pub oracle: Vec<Op>,
    /// Two more never-indexed objects for the crash check: one inserted
    /// to count an insert's durable operations, one whose insert crashes.
    pub spare: [u32; 2],
}

/// Reads checked against the linear scan.
pub const ORACLE_READS: usize = 50;

fn scaled(count: usize, scale: Scale, seconds: u64) -> usize {
    if count == 0 {
        return 0;
    }
    let c = count as f64 * seconds as f64 / RUN_SECONDS as f64 / scale.div() as f64;
    (c.round() as usize).max(1)
}

impl Plan {
    pub fn new(spec: &Spec, scale: Scale, seconds: u64, seed: u64) -> Plan {
        let n = spec.n / scale.div();
        let pool_len = POOL / scale.div();
        let sc = |c| scaled(c, scale, seconds);

        let mut pool: Vec<u32> = (n as u32..(n + pool_len) as u32).collect();
        Rng::fork(seed, "pool").shuffle(&mut pool);
        let mut pool = pool.into_iter();
        let mut fresh = |kind: Kind, count: usize| -> Vec<Op> {
            (0..count)
                .map(|_| Op {
                    kind,
                    obj: pool.next().expect("pool covers every workload's draws"),
                })
                .collect()
        };
        let mut victims: Vec<u32> = (0..n as u32).collect();
        Rng::fork(seed, "victims").shuffle(&mut victims);
        let mut victims = victims.into_iter();

        // Reads are drawn once per client and repeated in every round;
        // updates are drawn per round.
        let reads: Vec<(Vec<Op>, Vec<Op>)> = (0..spec.clients)
            .map(|_| {
                (
                    fresh(Kind::Range, sc(spec.ranges)),
                    fresh(Kind::Knn, sc(spec.knns)),
                )
            })
            .collect();
        let patterns: Vec<Vec<Kind>> = (0..spec.clients)
            .map(|c| {
                let mut p = Vec::new();
                p.extend(std::iter::repeat_n(Kind::Range, sc(spec.ranges)));
                p.extend(std::iter::repeat_n(Kind::Knn, sc(spec.knns)));
                p.extend(std::iter::repeat_n(Kind::Insert, sc(spec.inserts)));
                p.extend(std::iter::repeat_n(Kind::Delete, sc(spec.deletes)));
                Rng::fork(seed, &format!("mix{c}")).shuffle(&mut p);
                p
            })
            .collect();
        let every = if spec.checkpoint_every == 0 {
            0
        } else {
            scaled(spec.checkpoint_every, scale, RUN_SECONDS)
        };
        let mut updates_seen = 0usize;
        let rounds: Vec<Vec<Vec<Op>>> = (0..spec.rounds)
            .map(|_| {
                (0..spec.clients)
                    .map(|c| {
                        let (ranges, knns) = &reads[c];
                        let (mut ri, mut ki) = (0, 0);
                        let mut ops = Vec::with_capacity(patterns[c].len());
                        for &kind in &patterns[c] {
                            match kind {
                                Kind::Range => {
                                    ops.push(ranges[ri]);
                                    ri += 1;
                                }
                                Kind::Knn => {
                                    ops.push(knns[ki]);
                                    ki += 1;
                                }
                                Kind::Insert => ops.extend(fresh(Kind::Insert, 1)),
                                Kind::Delete => ops.push(Op {
                                    kind,
                                    obj: victims.next().expect("fewer deletes than objects"),
                                }),
                                Kind::Checkpoint => unreachable!("patterns hold no checkpoints"),
                            }
                            if !kind.is_read() {
                                updates_seen += 1;
                                if every > 0 && updates_seen.is_multiple_of(every) {
                                    ops.push(Op {
                                        kind: Kind::Checkpoint,
                                        obj: 0,
                                    });
                                }
                            }
                        }
                        ops
                    })
                    .collect()
            })
            .collect();

        let mut complement = fresh(Kind::Knn, sc(spec.extra_knns));
        complement.extend(fresh(Kind::Insert, sc(spec.extra_inserts)));

        // The open loop offers the round mix without deletes (each
        // would need its own victim) and without explicit checkpoints.
        let weights = [
            (Kind::Range, spec.ranges),
            (Kind::Knn, spec.knns),
            (Kind::Insert, spec.inserts),
        ];
        let total: usize = weights.iter().map(|w| w.1).sum();
        let open: Vec<Vec<Vec<Op>>> = (0..OPEN_STEPS)
            .map(|step| {
                // An overload step offers no more ops than twice the step
                // before it: its backlog shows long before they are done.
                let rate = spec.open_rates[step].min(2.0 * spec.open_rates[step.max(1) - 1]);
                let per_client = rate * spec.open_secs / spec.clients as f64;
                let open_ops = sc(per_client.round() as usize);
                (0..spec.clients)
                    .map(|c| {
                        let mut kinds: Vec<Kind> = Vec::with_capacity(open_ops);
                        for (kind, w) in weights {
                            let share = (open_ops * w + total / 2) / total;
                            kinds.extend(std::iter::repeat_n(kind, share));
                        }
                        kinds.resize(open_ops, Kind::Range);
                        Rng::fork(seed, &format!("open{step}.{c}")).shuffle(&mut kinds);
                        kinds
                            .into_iter()
                            .flat_map(|k| fresh(k, 1))
                            .collect::<Vec<Op>>()
                    })
                    .collect()
            })
            .collect();

        let spare = fresh(Kind::Insert, 2);
        let oracle: Vec<Op> = rounds[0]
            .iter()
            .flatten()
            .chain(&complement)
            .filter(|op| op.kind.is_read())
            .take(ORACLE_READS)
            .copied()
            .collect();

        Plan {
            n,
            generated: n + pool_len,
            rounds,
            complement,
            open,
            oracle,
            spare: [spare[0].obj, spare[1].obj],
        }
    }

    /// Folds the op lists into `d` (the caller has folded the objects).
    pub fn digest(&self, d: &mut Digest) {
        let mut op = |op: &Op| {
            d.u64(op.kind as u64);
            d.u64(u64::from(op.obj));
        };
        self.rounds.iter().flatten().flatten().for_each(&mut op);
        self.complement.iter().for_each(&mut op);
        self.open.iter().flatten().flatten().for_each(&mut op);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn digest(spec: &Spec, seed: u64) -> u64 {
        let mut d = Digest::default();
        Plan::new(spec, Scale::Smoke, RUN_SECONDS, seed).digest(&mut d);
        d.finish()
    }

    #[test]
    fn same_seed_same_ops_and_other_seed_other_ops() {
        for spec in &SPECS {
            assert_eq!(digest(spec, 1), digest(spec, 1), "{}", spec.name);
            assert_ne!(digest(spec, 1), digest(spec, 2), "{}", spec.name);
        }
    }

    #[test]
    fn pool_objects_are_drawn_once_and_reads_repeat_across_rounds() {
        for spec in &SPECS {
            let plan = Plan::new(spec, Scale::Full, RUN_SECONDS, 7);
            let mut seen = HashSet::new();
            for op in plan.rounds[0].iter().flatten() {
                if op.kind != Kind::Checkpoint {
                    assert!(seen.insert(op.obj), "{}: {op:?} drawn twice", spec.name);
                }
            }
            // Checkpoints fall where the update count says, which differs
            // from round to round; everything else keeps its position.
            let paced = |ops: &[Op]| -> Vec<Op> {
                ops.iter()
                    .filter(|op| op.kind != Kind::Checkpoint)
                    .copied()
                    .collect()
            };
            for round in &plan.rounds[1..] {
                for (c, ops) in round.iter().enumerate() {
                    let first = paced(&plan.rounds[0][c]);
                    assert_eq!(paced(ops).len(), first.len());
                    for (a, b) in paced(ops).iter().zip(&first) {
                        assert_eq!(a.kind, b.kind);
                        if a.kind.is_read() {
                            assert_eq!(a, b, "reads repeat");
                        } else {
                            assert!(seen.insert(a.obj), "updates are fresh");
                        }
                    }
                }
            }
            for op in plan
                .complement
                .iter()
                .chain(plan.open.iter().flatten().flatten())
            {
                assert!(seen.insert(op.obj), "{}: {op:?} drawn twice", spec.name);
            }
            for op in plan.rounds.iter().flatten().flatten() {
                let indexed = (op.obj as usize) < plan.n;
                assert_eq!(indexed, matches!(op.kind, Kind::Delete | Kind::Checkpoint));
            }
        }
    }

    #[test]
    fn every_workload_has_a_thousand_samples_of_every_op_type() {
        for spec in &SPECS {
            let plan = Plan::new(spec, Scale::Full, RUN_SECONDS, 7);
            let count = |kind| {
                let rounds = plan
                    .rounds
                    .iter()
                    .flatten()
                    .flatten()
                    .filter(|op| op.kind == kind)
                    .count();
                // A read is one sample however often it repeats.
                let rounds = if kind.is_read() {
                    rounds / spec.rounds
                } else {
                    rounds
                };
                rounds + plan.complement.iter().filter(|op| op.kind == kind).count()
            };
            for kind in [Kind::Range, Kind::Knn, Kind::Insert] {
                assert!(
                    count(kind) >= 1000,
                    "{}: {kind:?} {}",
                    spec.name,
                    count(kind)
                );
            }
            assert_eq!(plan.oracle.len(), ORACLE_READS);
        }
    }

    #[test]
    fn names_are_contract_names() {
        let ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
                && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        };
        for spec in &SPECS {
            assert!(ok(spec.name), "{}", spec.name);
            assert!(spec.why.len() <= 200 && !spec.why.contains('\n'));
        }
    }
}
