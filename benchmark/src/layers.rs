//! The traced pass: replays the first quarter of the op lists with a
//! span per op, takes the program's counters at the same boundaries,
//! times the public functions of each layer on inputs from the same
//! workload, and reports every per-layer metric.
//!
//! A layer's busy time is a count taken during the replay times the
//! unit cost measured by its probe. The program counts distances, page
//! reads, disk reads and writes and WAL commits exactly. It does not
//! count the leaf entries a query decodes and prunes without verifying
//! them, so `sfc` and `core` are charged only for the candidates that
//! were verified (one SFC decode, one Lemma-1 check and one object
//! decode each): `core.self_frac` is that modelled part of `core`, and
//! whatever the replayed ops took beyond all of the above is
//! `core.unattributed_frac`, for in-program spans to explain later.

use std::hint::black_box;
use std::io;
use std::path::Path;
use std::time::Instant;

use spb_bptree::{BPlusTree, Node};
use spb_cluster::{Cluster, ClusterConfig};
use spb_core::{
    similarity_join, similarity_join_parallel, Positioning, SfcMbbOps, SpbConfig, SpbTree,
};
use spb_metric::{CountingDistance, DistCounter, Distance, EditDistance, LpNorm, MetricObject};
use spb_pivots::{select_pivots, PivotConfig, PivotMethod};
use spb_server::wire::{Request, Response, WireStats};
use spb_server::Client;
use spb_sfc::{CurveKind, GridBox};
use spb_storage::{IoStats, PageId, Pager, Raf, RafPtr, Wal, WalFileTag, PAGE_SIZE};

use crate::bench::{crash_and_reopen, serve_tree, Ctx, Tree};
use crate::e2e::step_verdict;
use crate::exec::{closed_round, open_step, Exec, OpenStep, Round, Sample};
use crate::gen;
use crate::plan::{Kind, Op, Scale, Spec, DATA_SEED, OPEN_STEPS};
use crate::report::Report;
use crate::space::Space;
use crate::speed;
use crate::stats::{median, quantile, supported_tail, P50, P99};
use crate::trace::{Tracer, NO_PARENT};

/// Calls per probe of a function that takes tens of nanoseconds.
const FAST_CALLS: usize = 100_000;
/// Calls per probe of a function that takes microseconds.
const SLOW_CALLS: usize = 500;

/// Times `calls` calls made by `f` under one probe span; ns per call at
/// reference machine speed.
fn probe(tr: &mut Tracer, name: &'static str, calls: usize, f: impl FnOnce()) -> f64 {
    let span = tr.enter(name, NO_PARENT, 0);
    let (ns, scale) = speed::around(|| {
        let t0 = Instant::now();
        f();
        t0.elapsed().as_nanos() as f64
    });
    tr.exit_calls(span, calls as u64);
    ns * scale / calls.max(1) as f64
}

/// The speed kernel's reading now, for `trace.calib_ns`.
fn calibrate() -> f64 {
    median(&mut (0..5).map(|_| speed::cpu_reading()).collect::<Vec<_>>())
}

/// The program's counters that queries and updates move.
#[derive(Clone, Copy, Default)]
struct Counters {
    btree: IoStats,
    raf: IoStats,
    disk_reads: u64,
    disk_writes: u64,
    evictions: u64,
    wal_commits: u64,
    wal_bytes: u64,
}

impl Counters {
    fn take<O: MetricObject, D: Distance<O>>(tree: &SpbTree<O, D>) -> Counters {
        let pagers = [tree.btree().pool().pager(), tree.raf().pool().pager()];
        let wal = spb_obs::histogram("wal.commit_bytes").snapshot();
        Counters {
            btree: tree.btree().io_stats(),
            raf: tree.raf().io_stats(),
            disk_reads: pagers.iter().map(|p| p.disk_reads()).sum(),
            disk_writes: pagers.iter().map(|p| p.disk_writes()).sum(),
            evictions: spb_obs::snapshot()
                .counters
                .iter()
                .filter(|(name, _)| name.starts_with("pool.") && name.ends_with(".evictions"))
                .map(|(_, v)| v)
                .sum(),
            wal_commits: wal.count,
            wal_bytes: wal.sum,
        }
    }

    fn since(self, before: Counters) -> Counters {
        let io = |a: IoStats, b: IoStats| IoStats {
            logical_reads: a.logical_reads - b.logical_reads,
            physical_reads: a.physical_reads - b.physical_reads,
            writes: a.writes - b.writes,
            fsyncs: a.fsyncs - b.fsyncs,
        };
        Counters {
            btree: io(self.btree, before.btree),
            raf: io(self.raf, before.raf),
            disk_reads: self.disk_reads - before.disk_reads,
            disk_writes: self.disk_writes - before.disk_writes,
            evictions: self.evictions - before.evictions,
            wal_commits: self.wal_commits - before.wal_commits,
            wal_bytes: self.wal_bytes - before.wal_bytes,
        }
    }
}

fn first_quarter(ops: &[Op]) -> &[Op] {
    &ops[..ops.len().div_ceil(4)]
}

fn samples_of(round: &Round, kind: Kind) -> Vec<Sample> {
    round
        .samples
        .iter()
        .flatten()
        .flatten()
        .filter(|s| s.kind == kind)
        .copied()
        .collect()
}

fn p50_us(samples: &[Sample]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    median(
        &mut samples
            .iter()
            .map(|s| s.ns as f64 / 1e3)
            .collect::<Vec<_>>(),
    )
}

fn mean(xs: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = xs.fold((0.0, 0usize), |(s, n), x| (s + x, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
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
    let mut tr = Tracer::new(true);
    let mut calib = vec![calibrate()];
    let mut gauge = speed::Gauge::open(&ctx.scratch(), 99)?;
    gauge.before(Kind::Insert, false);

    let (built, scale) = speed::around(|| {
        let t0 = Instant::now();
        ctx.build("idx").map(|b| (b, t0.elapsed()))
    });
    let ((dir, tree), took) = built?;
    report.set("core.build_s", took.as_secs_f64() * scale);

    let replay = Replay::run(&ctx, &tree, &mut tr, &mut report)?;
    calib.push(calibrate());
    let units = Units::measure(&ctx, &tree, &replay, &mut tr, &mut report)?;
    attribute(&replay, &units, &mut report);
    core_probes(&ctx, &tree, &replay, &mut tr, &mut report)?;
    accel_probes(&ctx, &tree, &dir, &replay, &mut report)?;
    calib.push(calibrate());

    // In-process workloads offer their open loop here; a served one
    // offers it to its server below.
    let open = (!spec.served).then(|| open_loop(&ctx, &mut [ctx.inproc(&tree)]));

    let [probe_obj, crash_obj] = ctx.plan.spare;
    let (tree, durability) = crash_and_reopen(
        &ctx,
        &dir,
        tree,
        &replay.inserted,
        &replay.deleted,
        &ctx.objects[crash_obj as usize],
        &ctx.objects[probe_obj as usize],
    )?;
    report.attempted += durability.checked as u64;
    report.set("core.recovery_s", durability.recovery_s);
    durability.failures.into_iter().for_each(|f| report.fail(f));

    let served_open = server_probes(&ctx, tree, &replay, &units, &mut tr, &mut report)?;
    let open = open.or(served_open).expect("one of the two open loops ran");
    for (step, name) in open.iter().zip([
        "open.r1_tail_us",
        "open.r2_tail_us",
        "open.r3_tail_us",
        "open.r4_tail_us",
    ]) {
        report.set(name, step_verdict(step, spec.slo_limit_us).1);
        report.attempted += (step.latency_us.len() + step.failures.len()) as u64;
        step.failures.iter().for_each(|f| report.fail(f.clone()));
    }
    let mut late: Vec<f64> = open.iter().flat_map(|s| s.gen_late_us.clone()).collect();
    let p = supported_tail(late.len(), P99);
    report.set("open.gen_late_tail_us", quantile(&mut late, p));

    router_probes(&ctx, &replay, &mut tr, &mut report)?;
    calib.push(calibrate());
    for _ in 0..8 {
        gauge.before(Kind::Insert, false);
    }
    report.set("trace.io_ref_us", gauge.readings().1.unwrap_or(0.0) / 1e3);

    report.set("trace.calib_ns", median(&mut calib));
    report.set("trace.spans", tr.spans().len() as f64);
    let path = out.join(format!("trace-{}.jsonl", spec.name));
    tr.write_jsonl(&path)?;
    report.note(format!(
        "{} spans written to {}",
        tr.spans().len(),
        path.display()
    ));
    Ok(report)
}

fn open_loop<S: Space, E: Exec>(ctx: &Ctx<S>, execs: &mut [E]) -> Vec<OpenStep> {
    (0..OPEN_STEPS)
        .map(|step| {
            open_step(
                execs,
                &ctx.plan.open[step],
                ctx.spec.open_rates[step],
                &ctx.scratch(),
            )
        })
        .collect()
}

/// The replayed quarter and what the program's counters did meanwhile.
struct Replay {
    /// Ops of the workload's own mix (first quarter of round 0, all
    /// clients, one after the other).
    main_ops: Vec<Op>,
    main: Round,
    main_counters: Counters,
    /// First quarter of the complement pass.
    extra: Round,
    /// Counters over both segments, for the per-update ratios.
    all_counters: Counters,
    checkpoint_ms: Vec<f64>,
    /// Objects the replay inserted and indexed objects it deleted.
    inserted: Vec<u32>,
    deleted: Vec<u32>,
}

impl Replay {
    fn run<S: Space>(
        ctx: &Ctx<S>,
        tree: &Tree<S>,
        tr: &mut Tracer,
        report: &mut Report,
    ) -> io::Result<Replay> {
        let main_ops: Vec<Op> = ctx.plan.rounds[0]
            .iter()
            .flat_map(|ops| first_quarter(ops).iter().copied())
            .collect();
        let extra_ops = first_quarter(&ctx.plan.complement).to_vec();
        let mut exec = [ctx.inproc(tree)];

        // Untraced first: warms the caches and gives the op time that
        // tracing is compared with. Reads only; they can repeat.
        let reads: Vec<Op> = main_ops
            .iter()
            .chain(&extra_ops)
            .filter(|op| op.kind.is_read())
            .copied()
            .collect();
        let mut off = [Tracer::new(false)];
        let scratch = ctx.scratch();
        let untraced = closed_round(
            &mut exec,
            std::slice::from_ref(&reads),
            &mut off,
            0,
            &scratch,
        );
        let traced = closed_round(
            &mut exec,
            std::slice::from_ref(&reads),
            std::slice::from_mut(tr),
            1 << 42,
            &scratch,
        );

        let before = Counters::take(tree);
        let main = closed_round(
            &mut exec,
            std::slice::from_ref(&main_ops),
            std::slice::from_mut(tr),
            1,
            &scratch,
        );
        let main_counters = Counters::take(tree).since(before);
        let mut checkpoint_ms = Vec::new();
        let mut timed_checkpoint = || -> io::Result<()> {
            let t0 = Instant::now();
            tree.checkpoint()?;
            checkpoint_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            Ok(())
        };
        timed_checkpoint()?;
        let extra = closed_round(
            &mut exec,
            std::slice::from_ref(&extra_ops),
            std::slice::from_mut(tr),
            1 << 40,
            &scratch,
        );
        let all_counters = Counters::take(tree).since(before);
        timed_checkpoint()?;
        checkpoint_ms.extend(
            samples_of(&main, Kind::Checkpoint)
                .iter()
                .map(|s| s.ns as f64 / 1e6),
        );

        for round in [&untraced, &traced, &main, &extra] {
            report.attempted += round.samples[0].len() as u64;
            round.failures.iter().for_each(|f| report.fail(f.clone()));
        }
        let acked = |kind: Kind| -> Vec<u32> {
            main.samples[0]
                .iter()
                .zip(&main_ops)
                .chain(extra.samples[0].iter().zip(&extra_ops))
                .filter(|(s, op)| s.is_some() && op.kind == kind)
                .map(|(_, op)| op.obj)
                .collect()
        };
        let (inserted, deleted) = (acked(Kind::Insert), acked(Kind::Delete));

        // Tracing overhead: the same reads with spans recorded and
        // without.
        let read_p50 = |round: &Round| {
            p50_us(
                &round.samples[0]
                    .iter()
                    .flatten()
                    .copied()
                    .collect::<Vec<_>>(),
            )
        };
        let (t, u) = (read_p50(&traced), read_p50(&untraced));
        report.set("trace.overhead_frac", t / u - 1.0);
        report.note(format!(
            "replay: {} ops of the mix + {} of the complement; the {} reads among them alone: p50 {u:.1} us untraced, {t:.1} us traced",
            main_ops.len(),
            extra_ops.len(),
            reads.len()
        ));
        Ok(Replay {
            main_ops,
            main,
            main_counters,
            extra,
            all_counters,
            checkpoint_ms,
            inserted,
            deleted,
        })
    }

    fn reads(&self, kind: Kind) -> Vec<Sample> {
        let mut s = samples_of(&self.main, kind);
        s.extend(samples_of(&self.extra, kind));
        s
    }

    /// Answered updates over both segments.
    fn updates(&self) -> Vec<Sample> {
        let mut s = samples_of(&self.main, Kind::Insert);
        s.extend(samples_of(&self.main, Kind::Delete));
        s.extend(samples_of(&self.extra, Kind::Insert));
        s
    }

    /// Objects of the first `n` range queries replayed.
    fn range_queries(&self, n: usize) -> Vec<u32> {
        self.main_ops
            .iter()
            .filter(|op| op.kind == Kind::Range)
            .map(|op| op.obj)
            .take(n)
            .collect()
    }
}

/// Unit costs of the layers' public functions, in ns per call.
struct Units {
    /// The workload's own metric on (query, indexed object) pairs.
    dist: f64,
    sfc_decode: f64,
    node_decode: f64,
    cache_hit: f64,
    cache_miss: f64,
    page_read: f64,
    page_write: f64,
    raf_hit: f64,
    wal_commit: f64,
    mind_cell: f64,
    object_decode: f64,
    req_encode: f64,
    req_decode: f64,
    resp_encode: f64,
    resp_decode: f64,
    /// Entries per B⁺-tree leaf, to turn leaf reads into entries seen.
    leaf_entries: f64,
    /// |P|: distances spent mapping a query or an updated object.
    pivots: f64,
}

impl Units {
    fn measure<S: Space>(
        ctx: &Ctx<S>,
        tree: &Tree<S>,
        replay: &Replay,
        tr: &mut Tracer,
        report: &mut Report,
    ) -> io::Result<Units> {
        let metric = S::metric();
        let indexed = ctx.indexed();
        let queries: Vec<&S::Obj> = replay
            .main_ops
            .iter()
            .filter(|op| op.kind.is_read())
            .map(|op| &ctx.objects[op.obj as usize])
            .collect();
        let scratch = ctx.dir.join("scratch");
        std::fs::create_dir_all(&scratch)?;

        // metric: the two kernels on fixed samples (the same on every
        // workload), and this workload's metric on the pairs it verifies.
        let words = gen::words(1000, DATA_SEED);
        let vectors = gen::synthetic(1000, DATA_SEED);
        let edit = EditDistance::default();
        let l2 = LpNorm::l2(20);
        let edit_ns = probe(tr, "metric.edit.distance", FAST_CALLS, || {
            for i in 0..FAST_CALLS {
                black_box(edit.distance(&words[i % 1000], &words[(i * 7 + 1) % 1000]));
            }
        });
        let l2_ns = probe(tr, "metric.l2.distance", FAST_CALLS, || {
            for i in 0..FAST_CALLS {
                black_box(l2.distance(&vectors[i % 1000], &vectors[(i * 7 + 1) % 1000]));
            }
        });
        report.set("metric.edit.ns_per_dist", edit_ns);
        report.set("metric.l2.ns_per_dist", l2_ns);
        let dist = probe(tr, "metric.distance", FAST_CALLS, || {
            for i in 0..FAST_CALLS {
                let q = queries[i % queries.len()];
                black_box(metric.distance(q, &indexed[(i * 31) % indexed.len()]));
            }
        });

        // pivots: HFI selection as `SpbTree::build` runs it.
        let counter = DistCounter::new();
        let counting = CountingDistance::with_counter(&metric, counter.clone());
        let select_ns = probe(tr, "pivots.select", 1, || {
            black_box(select_pivots(
                PivotMethod::Hfi,
                indexed,
                &counting,
                tree.table().num_pivots(),
                &PivotConfig::default(),
            ));
        });
        report.set("pivots.select_s", select_ns / 1e9);
        report.set("pivots.select_compdists", counter.get() as f64);

        // mapping: φ of one object, and object → SFC key for all.
        let table = tree.table();
        let curve = *tree.curve();
        let phi_calls = SLOW_CALLS * 4;
        let phi_ns = probe(tr, "mapping.phi", phi_calls, || {
            for i in 0..phi_calls {
                black_box(table.phi(&metric, &indexed[(i * 31) % indexed.len()]));
            }
        });
        report.set("mapping.phi_us", phi_ns / 1e3);
        let mut keys: Vec<u128> = Vec::with_capacity(indexed.len());
        let map_ns = probe(tr, "mapping.map_all", 1, || {
            for o in indexed {
                keys.push(curve.encode(&table.cell_of_phi(&table.phi(&metric, o))));
            }
        });
        report.set("mapping.map_all_s", map_ns / 1e9);

        // sfc: encode, decode, and enumerating a 3^|P|-cell box in key
        // order (the cell-merge path of Algorithm 1).
        let cells: Vec<Vec<u32>> = keys.iter().take(2048).map(|&k| curve.decode(k)).collect();
        let enc_ns = probe(tr, "sfc.encode", FAST_CALLS, || {
            for i in 0..FAST_CALLS {
                black_box(curve.encode(&cells[i % cells.len()]));
            }
        });
        let mut cell = vec![0u32; curve.dims()];
        let sfc_decode = probe(tr, "sfc.decode", FAST_CALLS, || {
            for i in 0..FAST_CALLS {
                curve.decode_into(keys[i % keys.len()], &mut cell);
                black_box(&cell);
            }
        });
        report.set("sfc.encode_ns", enc_ns);
        report.set("sfc.decode_ns", sfc_decode);
        let boxes: Vec<GridBox> = cells
            .iter()
            .take(SLOW_CALLS)
            .filter_map(|c| {
                let lo: Vec<i64> = c.iter().map(|&x| i64::from(x) - 1).collect();
                let hi: Vec<i64> = c.iter().map(|&x| i64::from(x) + 1).collect();
                GridBox::from_clamped(&lo, &hi, curve.max_coord())
            })
            .collect();
        let mut svals = Vec::new();
        let enum_ns = probe(tr, "sfc.box_enum", boxes.len(), || {
            for b in &boxes {
                b.sfc_values_sorted_into(&curve, &mut svals);
                black_box(&svals);
            }
        });
        report.set("sfc.box_enum_us", enum_ns / 1e3);

        // core's own per-entry and per-candidate steps, for the model
        // of its self time.
        let q_phi = table.phi(&metric, queries[0]);
        let mind_cell = probe(tr, "mapping.mind_cell", FAST_CALLS, || {
            for i in 0..FAST_CALLS {
                black_box(table.mind_cell(&q_phi, &cells[i % cells.len()]));
            }
        });
        let encoded: Vec<Vec<u8>> = indexed.iter().take(2048).map(|o| o.encoded()).collect();
        let object_decode = probe(tr, "metric.object_decode", FAST_CALLS, || {
            for i in 0..FAST_CALLS {
                black_box(S::Obj::try_decode(&encoded[i % encoded.len()]));
            }
        });

        // bptree: on the index itself and on scratch copies of its keys.
        let btree = tree.btree();
        let entries = btree.scan_all()?;
        let leaf_pages = btree.num_leaf_pages()?.max(1);
        report.set("bptree.height", f64::from(btree.height()));
        let stride = (entries.len() / SLOW_CALLS).max(1);
        let search_ns = probe(tr, "bptree.search", SLOW_CALLS, || {
            for i in 0..SLOW_CALLS {
                black_box(btree.search(entries[(i * stride) % entries.len()].0)).ok();
            }
        });
        report.set("bptree.search_us", search_ns / 1e3);
        let window = 1000.min(entries.len() - 1);
        let mut scanned = 0usize;
        let scan_total = probe(tr, "bptree.scan_range", 1, || {
            for i in 0..20 {
                let lo = (i * entries.len() / 20).min(entries.len() - 1 - window);
                if let Ok(run) = btree.scan_range(entries[lo].0, entries[lo + window].0) {
                    scanned += run.len();
                }
            }
        });
        report.set(
            "bptree.scan_ns_per_entry",
            scan_total / scanned.max(1) as f64,
        );
        let bulk = BPlusTree::create(
            &scratch.join("bulk.bpt"),
            ctx.spec.cache_pages,
            SfcMbbOps::new(curve),
        )?;
        let bulk_ns = probe(tr, "bptree.bulk_load", 1, || {
            bulk.bulk_load(entries.clone()).ok();
        });
        report.set("bptree.bulk_load_s", bulk_ns / 1e9);
        let grown = BPlusTree::create(
            &scratch.join("grown.bpt"),
            ctx.spec.cache_pages,
            SfcMbbOps::new(curve),
        )?;
        let inserts = (SLOW_CALLS * 4).min(entries.len());
        let insert_ns = probe(tr, "bptree.insert", inserts, || {
            for i in 0..inserts {
                let (k, v) = entries[(i * 7919) % entries.len()];
                grown.insert(k, v).ok();
            }
        });
        report.set("bptree.insert_us", insert_ns / 1e3);

        // cache and pager: the index's own B⁺-tree pool. Leaf pages are
        // walked once so their ids are known.
        let pool = btree.pool();
        let mut leaves = Vec::new();
        let mut cur = btree.first_leaf();
        while let (Some(id), true) = (cur, leaves.len() < SLOW_CALLS) {
            leaves.push(id);
            cur = match btree.read_node(id)? {
                Node::Leaf(leaf) => leaf.next,
                Node::Internal(_) => None,
            };
        }
        let hot = &leaves[..leaves.len().min(pool.capacity() / 2).max(1)];
        hot.iter().try_for_each(|&id| pool.read(id).map(drop))?;
        let cache_hit = probe(tr, "cache.read_hit", FAST_CALLS, || {
            for i in 0..FAST_CALLS {
                black_box(pool.read(hot[i % hot.len()])).ok();
            }
        });
        pool.flush_cache();
        let cold = &leaves[..leaves.len().min(pool.capacity()).max(1)];
        let cache_miss = probe(tr, "cache.read_miss", cold.len(), || {
            for &id in cold {
                black_box(pool.read(id)).ok();
            }
        });
        report.set("cache.hit_ns", cache_hit);
        report.set("cache.miss_us", cache_miss / 1e3);
        let page_read = probe(tr, "pager.read_page", leaves.len(), || {
            for &id in &leaves {
                black_box(pool.pager().read_page(id)).ok();
            }
        });
        report.set("pager.read_page_us", page_read / 1e3);
        let pages: Vec<_> = leaves
            .iter()
            .map(|&id| pool.read(id))
            .collect::<io::Result<_>>()?;
        let decode_calls = FAST_CALLS / 10;
        let node_decode = probe(tr, "bptree.node_decode", decode_calls, || {
            for i in 0..decode_calls {
                let j = i % pages.len();
                black_box(Node::decode(leaves[j], &pages[j]));
            }
        });
        report.set("bptree.node_decode_us", node_decode / 1e3);
        let pager = Pager::create(&scratch.join("pages.db"))?;
        let ids: Vec<PageId> = (0..SLOW_CALLS)
            .map(|_| pager.allocate())
            .collect::<io::Result<_>>()?;
        let page_write = probe(tr, "pager.write_page", ids.len(), || {
            for (i, &id) in ids.iter().enumerate() {
                pager.write_page(id, &pages[i % pages.len()]).ok();
            }
        });
        report.set("pager.write_page_us", page_write / 1e3);

        // raf: warm and cold gets on the index's RAF, appends on a
        // scratch one (append + flush, as an insert does).
        let raf = tree.raf();
        let ptrs: Vec<RafPtr> = entries
            .iter()
            .map(|&(_, offset)| RafPtr { offset })
            .collect();
        let near = &ptrs[..ptrs.len().min(64)];
        near.iter().try_for_each(|&p| raf.get(p).map(drop))?;
        let raf_hit = probe(tr, "raf.get_hit", FAST_CALLS, || {
            for i in 0..FAST_CALLS {
                black_box(raf.get(near[i % near.len()])).ok();
            }
        });
        raf.flush_cache();
        let far_stride = (ptrs.len() / SLOW_CALLS).max(1);
        let far: Vec<RafPtr> = ptrs.iter().step_by(far_stride).copied().collect();
        let raf_miss = probe(tr, "raf.get_miss", far.len(), || {
            for &p in &far {
                black_box(raf.get(p)).ok();
            }
        });
        report.set("raf.get_hit_ns", raf_hit);
        report.set("raf.get_miss_us", raf_miss / 1e3);
        report.set(
            "raf.bytes_per_object",
            (raf.num_pages() * PAGE_SIZE as u64) as f64 / tree.len() as f64,
        );
        let fresh = Raf::create(&scratch.join("append.raf"), ctx.spec.cache_pages)?;
        let appends = SLOW_CALLS * 2;
        let append_ns = probe(tr, "raf.append", appends, || {
            for i in 0..appends {
                fresh.append(i as u32, &encoded[i % encoded.len()]).ok();
                fresh.flush().ok();
            }
        });
        report.set("raf.append_us", append_ns / 1e3);

        // wal: begin, log the page images of an average update, commit
        // (one fsync), on a scratch log.
        let updates = replay.updates().len().max(1);
        let pages_per_update = (replay.all_counters.wal_bytes as f64
            / replay.all_counters.wal_commits.max(1) as f64
            / PAGE_SIZE as f64)
            .round()
            .max(1.0) as usize;
        let wal = Wal::open(&scratch.join("probe.wal"))?;
        let image = *pages[0].bytes();
        let commits = SLOW_CALLS / 2;
        let wal_commit = probe(tr, "wal.commit", commits, || {
            for i in 0..commits {
                if let Ok(txid) = wal.begin() {
                    for p in 0..pages_per_update {
                        wal.log_page(txid, WalFileTag::BTree, (i + p) as u64, &image);
                    }
                    wal.log_meta(txid, b"len=0\n");
                    wal.commit(txid).ok();
                }
            }
        });
        report.set("wal.commit_us", wal_commit / 1e3);
        let fsyncs: u64 = replay.updates().iter().map(|s| s.out.fsyncs).sum();
        report.set("wal.fsyncs_per_update", fsyncs as f64 / updates as f64);
        report.set(
            "wal.bytes_per_update",
            replay.all_counters.wal_bytes as f64 / replay.all_counters.wal_commits.max(1) as f64,
        );
        let mut cp = replay.checkpoint_ms.clone();
        report.set(
            "wal.checkpoint_max_ms",
            cp.iter().copied().fold(0.0, f64::max),
        );
        report.set("wal.checkpoint_p50_ms", median(&mut cp));
        report.set(
            "pager.disk_writes_per_update",
            replay.all_counters.disk_writes as f64 / updates as f64,
        );

        // wire: one range request and one real answer, encoded and
        // decoded.
        let q = queries[0];
        let req = Request::Range {
            deadline_ms: 0,
            radius: ctx.radius,
            obj: q.encoded(),
        };
        let mut buf = Vec::new();
        let req_encode = probe(tr, "wire.req_encode", FAST_CALLS, || {
            for _ in 0..FAST_CALLS {
                buf.clear();
                req.encode_into(&mut buf);
                black_box(&buf);
            }
        });
        let req_decode = probe(tr, "wire.req_decode", FAST_CALLS, || {
            for _ in 0..FAST_CALLS {
                black_box(Request::decode(&buf)).ok();
            }
        });
        let resps: Vec<Response> = replay
            .range_queries(100)
            .iter()
            .map(|&obj| {
                let (hits, stats) = tree.range(&ctx.objects[obj as usize], ctx.radius)?;
                Ok(Response::Range {
                    hits: hits.into_iter().map(|(id, o)| (id, o.encoded())).collect(),
                    stats: WireStats::from(&stats),
                })
            })
            .collect::<io::Result<_>>()?;
        let rounds = (FAST_CALLS / 10).div_ceil(resps.len());
        let resp_encode = probe(tr, "wire.resp_encode", rounds * resps.len(), || {
            for _ in 0..rounds {
                for r in &resps {
                    buf.clear();
                    r.encode_into(&mut buf);
                    black_box(&buf);
                }
            }
        });
        let payloads: Vec<Vec<u8>> = resps.iter().map(Response::encode).collect();
        let resp_decode = probe(tr, "wire.resp_decode", rounds * resps.len(), || {
            for _ in 0..rounds {
                for p in &payloads {
                    black_box(Response::decode(p)).ok();
                }
            }
        });
        report.set("wire.req_encode_ns", req_encode);
        report.set("wire.req_decode_ns", req_decode);
        report.set("wire.resp_encode_ns", resp_encode);
        report.set("wire.resp_decode_ns", resp_decode);
        report.set(
            "wire.bytes_per_resp",
            mean(payloads.iter().map(|p| p.len() as f64)),
        );

        Ok(Units {
            dist,
            sfc_decode,
            node_decode,
            cache_hit,
            cache_miss,
            page_read,
            page_write,
            raf_hit,
            wal_commit,
            mind_cell,
            object_decode,
            req_encode,
            req_decode,
            resp_encode,
            resp_decode,
            leaf_entries: entries.len() as f64 / leaf_pages as f64,
            pivots: table.num_pivots() as f64,
        })
    }
}

/// Counts from the replay of the workload's own mix × unit costs, as
/// shares of the time those ops took.
fn attribute(replay: &Replay, u: &Units, report: &mut Report) {
    let ops: Vec<&Sample> = replay.main.samples[0]
        .iter()
        .flatten()
        .filter(|s| s.kind != Kind::Checkpoint)
        .collect();
    let total_ns: f64 = ops.iter().map(|s| s.ns as f64).sum::<f64>().max(1.0);
    let queries = ops.iter().filter(|s| s.kind.is_read()).count().max(1) as f64;
    let c = &replay.main_counters;

    let per =
        |kind: Kind, f: fn(&Sample) -> u64| mean(replay.reads(kind).iter().map(|s| f(s) as f64));
    report.set(
        "metric.compdists_per_range",
        per(Kind::Range, |s| s.out.compdists),
    );
    report.set(
        "metric.compdists_per_knn",
        per(Kind::Knn, |s| s.out.compdists),
    );
    report.set("bptree.pa_per_range", per(Kind::Range, |s| s.out.btree_pa));
    report.set("bptree.pa_per_knn", per(Kind::Knn, |s| s.out.btree_pa));
    report.set("raf.pa_per_range", per(Kind::Range, |s| s.out.raf_pa));
    report.set("raf.pa_per_knn", per(Kind::Knn, |s| s.out.raf_pa));

    let compdists: u64 = ops.iter().map(|s| s.out.compdists).sum();
    let results: u64 = ops
        .iter()
        .filter(|s| s.kind.is_read())
        .map(|s| s.out.results)
        .sum();
    report.set(
        "core.verified_per_hit",
        compdists as f64 / results.max(1) as f64,
    );

    let logical = (c.btree.logical_reads + c.raf.logical_reads) as f64;
    let misses = (c.btree.physical_reads + c.raf.physical_reads) as f64;
    report.set(
        "cache.hit_ratio",
        if logical > 0.0 {
            1.0 - misses / logical
        } else {
            1.0
        },
    );
    report.set("cache.misses_per_query", misses / queries);
    report.set("cache.evictions_per_query", c.evictions as f64 / queries);
    report.set("pager.disk_reads_per_query", c.disk_reads as f64 / queries);

    // Busy time per layer. Every distance beyond the |P| of φ(q) (or of
    // φ(o) for an update) verifies one candidate: its leaf entry was
    // decoded and checked, and its object fetched from the RAF, whose
    // `get` costs what it takes beyond the pool reads it makes.
    let candidates = (compdists as f64 - ops.len() as f64 * u.pivots).max(0.0);
    let raf_reads_per_get = c.raf.logical_reads as f64 / candidates.max(1.0);
    let raf_self = (u.raf_hit - raf_reads_per_get * u.cache_hit).max(0.0);
    let busy = [
        ("metric.busy_frac", compdists as f64 * u.dist),
        ("sfc.busy_frac", candidates * u.sfc_decode),
        (
            "bptree.busy_frac",
            c.btree.logical_reads as f64 * u.node_decode,
        ),
        (
            "cache.busy_frac",
            (logical - misses) * u.cache_hit + misses * (u.cache_miss - u.page_read).max(0.0),
        ),
        (
            "pager.busy_frac",
            c.disk_reads as f64 * u.page_read + c.disk_writes as f64 * u.page_write,
        ),
        ("raf.busy_frac", candidates * raf_self),
        ("wal.busy_frac", c.wal_commits as f64 * u.wal_commit),
        (
            "core.self_frac",
            candidates * (u.mind_cell + u.object_decode),
        ),
    ];
    let mut explained = 0.0;
    for (name, ns) in busy {
        report.set(name, ns / total_ns);
        explained += ns / total_ns;
    }
    report.set("core.unattributed_frac", 1.0 - explained);
    report.note(format!(
        "attribution over {} replayed ops taking {:.1} ms: {} distances, {:.0} candidates verified, {} leaf and inner nodes read (up to {:.0} entries each)",
        ops.len(),
        total_ns / 1e6,
        compdists,
        candidates,
        c.btree.logical_reads,
        u.leaf_entries
    ));
}

/// Count, delete, batch and join, on the index and on two half-size
/// join indexes.
fn core_probes<S: Space>(
    ctx: &Ctx<S>,
    tree: &Tree<S>,
    replay: &Replay,
    tr: &mut Tracer,
    report: &mut Report,
) -> io::Result<()> {
    let queries: Vec<S::Obj> = replay
        .range_queries(64)
        .iter()
        .map(|&i| ctx.objects[i as usize].clone())
        .collect();
    let mut count_us = Vec::new();
    for q in &queries {
        let span = tr.enter("core.range_count", NO_PARENT, 0);
        let t0 = Instant::now();
        tree.range_count(q, ctx.radius)?;
        count_us.push(t0.elapsed().as_secs_f64() * 1e6);
        tr.exit(span);
    }
    report.set("core.count_p50_us", median(&mut count_us));

    // Deletes of objects the replay inserted, so each finds its object.
    let mut delete_us = Vec::new();
    for &i in replay.inserted.iter().rev().take(50) {
        let span = tr.enter("core.delete", NO_PARENT, 0);
        let t0 = Instant::now();
        let (found, _) = tree.delete(&ctx.objects[i as usize])?;
        delete_us.push(t0.elapsed().as_secs_f64() * 1e6);
        tr.exit(span);
        if !found {
            report.fail(format!("delete of inserted object {i} found nothing"));
        }
        tree.insert(&ctx.objects[i as usize])?;
    }
    report.attempted += delete_us.len() as u64;
    report.set("core.delete_p50_us", median(&mut delete_us));
    let mut insert_us: Vec<f64> = samples_of(&replay.main, Kind::Insert)
        .iter()
        .chain(&samples_of(&replay.extra, Kind::Insert))
        .map(|s| s.ns as f64 / 1e3)
        .collect();
    let tail = supported_tail(insert_us.len(), P99);
    report.set("core.insert_tail_us", quantile(&mut insert_us, tail));

    // The same batch on one and on two worker threads.
    let ranges: Vec<(S::Obj, f64)> = queries.iter().map(|q| (q.clone(), ctx.radius)).collect();
    let mut timed =
        |name: &'static str, f: &mut dyn FnMut() -> io::Result<()>| -> io::Result<f64> {
            let span = tr.enter(name, NO_PARENT, 0);
            let t0 = Instant::now();
            f()?;
            let s = t0.elapsed().as_secs_f64();
            tr.exit(span);
            Ok(s)
        };
    let r1 = timed("core.range_batch.1", &mut || {
        tree.range_batch(&ranges, 1).map(drop)
    })?;
    let r2 = timed("core.range_batch.2", &mut || {
        tree.range_batch(&ranges, 2).map(drop)
    })?;
    let k1 = timed("core.knn_batch.1", &mut || {
        tree.knn_batch(&queries, ctx.spec.k, 1).map(drop)
    })?;
    let k2 = timed("core.knn_batch.2", &mut || {
        tree.knn_batch(&queries, ctx.spec.k, 2).map(drop)
    })?;
    report.set("core.batch2_range_speedup", r1 / r2);
    report.set("core.batch2_knn_speedup", k1 / k2);

    // Join of two disjoint halves of a sample, on Z-order indexes that
    // share one pivot table.
    let m = (ctx.plan.n / 2).min(2000);
    let cfg = SpbConfig {
        curve: CurveKind::Z,
        durability: false,
        ..ctx.config()
    };
    let indexed = ctx.indexed();
    let a = SpbTree::build(&ctx.dir.join("join-a"), &indexed[..m], S::metric(), &cfg)?;
    let b = SpbTree::build_with_pivots(
        &ctx.dir.join("join-b"),
        &indexed[m..2 * m],
        S::metric(),
        a.table().pivots().to_vec(),
        &cfg,
        0,
    )?;
    let mut pairs = Vec::new();
    let seq = timed("core.join", &mut || {
        pairs.push(similarity_join(&a, &b, ctx.radius)?.0.len());
        Ok(())
    })?;
    let par1 = timed("core.join_parallel.1", &mut || {
        pairs.push(similarity_join_parallel(&a, &b, ctx.radius, 1)?.0.len());
        Ok(())
    })?;
    let par2 = timed("core.join_parallel.2", &mut || {
        pairs.push(similarity_join_parallel(&a, &b, ctx.radius, 2)?.0.len());
        Ok(())
    })?;
    report.attempted += 3;
    if pairs.iter().any(|&p| p != pairs[0]) {
        report.fail(format!(
            "join variants disagree on the pair count: {pairs:?}"
        ));
    }
    report.set("core.join_seq_s", seq);
    report.set("core.join_par1_s", par1);
    report.set("core.join_par2_s", par2);
    report.note(format!(
        "join of 2 x {m} objects at the workload's radius: {} pairs",
        pairs[0]
    ));
    Ok(())
}

/// Learned positioning against classic descent, and α = 1.25 kNN
/// against exact, with the policy switched back off afterwards.
fn accel_probes<S: Space>(
    ctx: &Ctx<S>,
    tree: &Tree<S>,
    dir: &Path,
    replay: &Replay,
    report: &mut Report,
) -> io::Result<()> {
    let t0 = Instant::now();
    tree.rebuild_accel()?;
    report.set("accel.train_s", t0.elapsed().as_secs_f64());
    let model = dir.join(spb_accel::MODEL_FILE);
    report.set("accel.model_bytes", std::fs::metadata(&model)?.len() as f64);

    let queries = replay.range_queries(200);
    let run = |pos: Positioning| -> io::Result<(f64, f64)> {
        let mut us = Vec::new();
        let mut pa = 0u64;
        for &i in &queries {
            let t0 = Instant::now();
            let (_, stats) = tree.range_positioned(&ctx.objects[i as usize], ctx.radius, pos)?;
            us.push(t0.elapsed().as_secs_f64() * 1e6);
            pa += stats.page_accesses;
        }
        Ok((median(&mut us), pa as f64 / queries.len() as f64))
    };
    // Classic, learned, classic again: the two classic runs bracket the
    // learned one so a change of machine speed shows.
    let (c1, pa_classic) = run(Positioning::Classic)?;
    let (l, pa_learned) = run(Positioning::Learned)?;
    let (c2, _) = run(Positioning::Classic)?;
    report.set("accel.learned_pa_delta", pa_learned - pa_classic);
    report.set("accel.learned_range_p50_ratio", l / ((c1 + c2) / 2.0));

    let (mut recall, mut approx_cd, mut exact_cd) = (Vec::new(), 0u64, 0u64);
    for &i in queries.iter().take(100) {
        let q = &ctx.objects[i as usize];
        let (_, approx) = tree.knn_approx_measured(q, ctx.spec.k, 1.25)?;
        let (_, exact) = tree.knn(q, ctx.spec.k)?;
        recall.push(approx.recall.unwrap_or(1.0));
        approx_cd += approx.compdists;
        exact_cd += exact.compdists;
    }
    report.set("accel.knn_a125_recall", mean(recall.into_iter()));
    report.set(
        "accel.knn_a125_compdists_ratio",
        approx_cd as f64 / exact_cd.max(1) as f64,
    );

    tree.set_accel_policy(spb_core::AccelPolicy::Off);
    std::fs::remove_file(&model)
}

/// Serves the index on loopback: no-op round trips, the replayed reads
/// over the wire (spans per request), server-side waits, pipelining,
/// and for a served workload its open loop.
fn server_probes<S: Space>(
    ctx: &Ctx<S>,
    tree: Tree<S>,
    replay: &Replay,
    units: &Units,
    tr: &mut Tracer,
    report: &mut Report,
) -> io::Result<Option<Vec<OpenStep>>> {
    tree.set_accel_policy(spb_core::AccelPolicy::Off);
    let handle = serve_tree::<S>(tree)?;
    let encoded = ctx.encoded();
    let client_err = |e: spb_server::ClientError| io::Error::other(e.to_string());

    let mut client = Client::connect(handle.addr()).map_err(client_err)?;
    let pings = SLOW_CALLS * 4;
    let mut rtt = Vec::with_capacity(pings);
    let span = tr.enter("server.ping", NO_PARENT, 0);
    for _ in 0..pings {
        let t0 = Instant::now();
        client.ping().map_err(client_err)?;
        rtt.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    tr.exit_calls(span, pings as u64);
    let noop_p50 = quantile(&mut rtt, P50);
    report.set("server.noop_rtt_p50_us", noop_p50);
    report.set(
        "server.noop_rtt_p99_us",
        quantile(&mut rtt, supported_tail(pings, P99)),
    );

    // The replayed mix again, over the wire: reads as they were,
    // updates taken from the second quarter (the first quarter's are
    // already in the index), checkpoints dropped (not a wire op).
    let clients = if ctx.spec.served { ctx.spec.clients } else { 1 };
    let wire_ops: Vec<Vec<Op>> = ctx.plan.rounds[0]
        .iter()
        .take(clients)
        .map(|ops| {
            let q = ops.len().div_ceil(4);
            let mut later = ops[q..].iter().filter(|op| !op.kind.is_read());
            ops[..q]
                .iter()
                .filter_map(|op| match op.kind {
                    Kind::Checkpoint => None,
                    k if k.is_read() => Some(*op),
                    k => later.by_ref().find(|l| l.kind == k).copied(),
                })
                .collect()
        })
        .collect();
    for name in [
        "phase.queue_wait",
        "phase.latch_wait",
        "dispatch_batch_size",
    ] {
        spb_obs::histogram(name).reset();
    }
    let mut execs = ctx.remotes(handle.addr(), &encoded, clients)?;
    let mut tracers: Vec<Tracer> = (0..clients).map(|_| Tracer::new(true)).collect();
    let remote = closed_round(&mut execs, &wire_ops, &mut tracers, 1 << 41, &ctx.scratch());
    tracers.into_iter().for_each(|t| tr.absorb(t));
    report.attempted += remote.samples.iter().map(Vec::len).sum::<usize>() as u64;
    remote.failures.iter().for_each(|f| report.fail(f.clone()));

    let remote_p50 = p50_us(&samples_of(&remote, Kind::Range));
    let local_p50 = p50_us(&samples_of(&replay.main, Kind::Range));
    let overhead = remote_p50 - local_p50;
    report.set("server.overhead_p50_us", overhead);
    let bytes = report.get("wire.bytes_per_resp");
    let wire_us =
        (units.req_encode + units.req_decode + units.resp_encode + units.resp_decode) / 1e3;
    report.set(
        "server.unattributed_frac",
        (overhead - noop_p50 - wire_us) / remote_p50.max(1e-9),
    );
    report.note(format!(
        "range p50 {remote_p50:.1} us served, {local_p50:.1} us in-process; no-op round trip {noop_p50:.1} us, wire work {wire_us:.1} us for {bytes:.0} B"
    ));
    let hist_us = |name: &str| spb_obs::histogram(name).snapshot();
    report.set(
        "server.queue_wait_p99_us",
        hist_us("phase.queue_wait").p99 as f64 / 1e3,
    );
    report.set(
        "server.latch_wait_p99_us",
        hist_us("phase.latch_wait").p99 as f64 / 1e3,
    );
    let batches = hist_us("dispatch_batch_size");
    report.set(
        "server.dispatch_batch_mean",
        batches.sum as f64 / batches.count.max(1) as f64,
    );

    // Pipelining, depth 16: every request distinct, then four distinct
    // queries repeated four times each in every window.
    let pipe_queries = replay.range_queries(320);
    let request = |i: usize| Request::Range {
        deadline_ms: 0,
        radius: ctx.radius,
        obj: encoded[pipe_queries[i % pipe_queries.len()] as usize].clone(),
    };
    let mut pipeline = |name: &'static str, reqs: Vec<Request>| -> io::Result<f64> {
        let span = tr.enter(name, NO_PARENT, 0);
        let t0 = Instant::now();
        for window in reqs.chunks(16) {
            for resp in client.send_many(window).map_err(client_err)? {
                report.attempted += 1;
                if !matches!(resp, Response::Range { .. }) {
                    report.fail(format!("pipelined range answered {resp:?}"));
                }
            }
        }
        let rps = reqs.len() as f64 / t0.elapsed().as_secs_f64();
        tr.exit_calls(span, reqs.len() as u64);
        Ok(rps)
    };
    let n = pipe_queries.len() / 16 * 16;
    let distinct = pipeline("server.pipe16_distinct", (0..n).map(request).collect())?;
    let dup = pipeline(
        "server.pipe16_dup",
        (0..n).map(|i| request(i / 16 * 4 + i % 4)).collect(),
    )?;
    report.set("server.pipe16_distinct_rps", distinct);
    report.set("server.pipe16_dup_rps", dup);

    let open = ctx.spec.served.then(|| open_loop(ctx, &mut execs));
    report.set("server.shed", handle.shed_count() as f64);
    report.set("server.deadline_miss", handle.deadline_miss_count() as f64);
    drop(execs);
    drop(client);
    handle.join()?;
    Ok(open)
}

/// The same queries through a router over one shard and over two.
fn router_probes<S: Space>(
    ctx: &Ctx<S>,
    replay: &Replay,
    tr: &mut Tracer,
    report: &mut Report,
) -> io::Result<()> {
    let sample = &ctx.indexed()[..ctx.plan.n.min(20_000)];
    let queries = replay.range_queries(200);
    let mut through = |shards: usize, name: &'static str| -> io::Result<(f64, f64, f64)> {
        let cfg = ClusterConfig {
            shards,
            cache_pages: ctx.spec.cache_pages,
            spb: ctx.config(),
            ..ClusterConfig::default()
        };
        let base = ctx.dir.join(format!("cluster{shards}"));
        let cluster = Cluster::launch(&base, sample, S::metric(), S::schema(), &cfg)?;
        let router = cluster.router();
        spb_obs::histogram("cluster.fanout").reset();
        let (mut range_us, mut knn_us) = (Vec::new(), Vec::new());
        let err = |e: spb_cluster::RouterError| io::Error::other(e.to_string());
        let span = tr.enter(name, NO_PARENT, 0);
        for &i in &queries {
            let q = &ctx.objects[i as usize];
            let t0 = Instant::now();
            router.range(q, ctx.radius).map_err(err)?;
            range_us.push(t0.elapsed().as_secs_f64() * 1e6);
            let t0 = Instant::now();
            router.knn(q, ctx.spec.k).map_err(err)?;
            knn_us.push(t0.elapsed().as_secs_f64() * 1e6);
        }
        tr.exit_calls(span, 2 * queries.len() as u64);
        let fanout = spb_obs::histogram("cluster.fanout").snapshot();
        drop(router);
        cluster.shutdown()?;
        Ok((
            median(&mut range_us),
            median(&mut knn_us),
            fanout.sum as f64 / fanout.count.max(1) as f64,
        ))
    };
    let (one_range, _, _) = through(1, "router.one_shard")?;
    let (two_range, two_knn, fanout) = through(2, "router.two_shards")?;
    report.attempted += 4 * queries.len() as u64;
    report.set("router.range_p50_us", two_range);
    report.set("router.knn_p50_us", two_knn);
    report.set("router.fanout_mean", fanout);
    report.set("router.overhead_p50_us", two_range - one_range);
    Ok(())
}
