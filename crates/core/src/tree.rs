//! The SPB-tree structure: construction (Appendix B), updates (Appendix C)
//! and bookkeeping. Query algorithms live in `range`, `knn` and `join`.

use std::io;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use spb_bptree::BPlusTree;
use spb_metric::{CountingDistance, DistCounter, Distance, MetricObject};
use spb_pivots::select_pivots;
use spb_sfc::Sfc;
use spb_storage::lockrank::{
    LockRank, RankedMutex, RankedReadGuard, RankedRwLock, RankedWriteGuard,
};
use spb_storage::{IoStats, Raf, RafPtr, Wal};

use crate::config::SpbConfig;
use crate::cost::CostModel;

/// The `phase.latch_wait` histogram: time spent blocked acquiring the
/// tree structure latch (nanoseconds). Process-global.
fn latch_wait_hist() -> &'static std::sync::Arc<spb_obs::Histogram> {
    static H: std::sync::OnceLock<std::sync::Arc<spb_obs::Histogram>> = std::sync::OnceLock::new();
    H.get_or_init(|| spb_obs::histogram("phase.latch_wait"))
}
use crate::durable::{Durable, Meta, BTREE_FILE, PIVOTS_FILE, RAF_FILE};
use crate::mapping::{PivotTable, SfcMbbOps};
use crate::stats::StatsCollector;

/// Decodes a RAF record's object bytes, turning corruption into a typed
/// `InvalidData` error instead of a panic: RAF pages are checksummed, but
/// a record can still be damaged by a bug (or a test injecting faults),
/// and a query must not take the process down over one bad record.
fn decode_entry<O: MetricObject>(bytes: &[u8]) -> io::Result<O> {
    O::try_decode(bytes).ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            "RAF record does not decode as an object of the index's type",
        )
    })
}

/// Costs of building the index (one row of Table 6).
#[derive(Clone, Copy, Debug)]
pub struct BuildStats {
    /// Distance computations for mapping every object (`|O| · |P|`).
    pub compdists: u64,
    /// Distance computations spent selecting pivots (reported separately,
    /// as the paper's construction counts reflect the mapping only).
    pub pivot_compdists: u64,
    /// Page accesses (reads + writes) during construction.
    pub page_accesses: u64,
    /// Wall-clock construction time.
    pub duration: Duration,
    /// Total storage (B⁺-tree + RAF) in bytes.
    pub storage_bytes: u64,
    /// Number of indexed objects.
    pub num_objects: u64,
}

/// Per-query cost metrics — the paper's three performance measures.
#[derive(Clone, Copy, Debug, Default)]
pub struct QueryStats {
    /// Number of distance computations (*compdists*).
    pub compdists: u64,
    /// Number of page accesses (*PA*): B⁺-tree plus RAF.
    pub page_accesses: u64,
    /// B⁺-tree share of the page accesses.
    pub btree_pa: u64,
    /// RAF share of the page accesses.
    pub raf_pa: u64,
    /// fsyncs performed (WAL commits plus data-file syncs). Zero for
    /// queries; the durability cost of updates. Not part of *PA*.
    pub fsyncs: u64,
    /// Wall-clock time.
    pub duration: Duration,
    /// Achieved recall against exact ground truth, only set by the
    /// measured approximate APIs (`range_approx_measured`,
    /// `knn_approx_measured`, auto-tuning). `None` everywhere else —
    /// exact queries have recall 1 by definition and unmeasured
    /// approximate runs do not guess.
    pub recall: Option<f64>,
}

impl QueryStats {
    /// Element-wise sum (for averaging workloads). `recall` is not a
    /// cost and does not sum; the later measurement wins so a workload
    /// loop ends up with its final query's recall (benchmarks that
    /// average recall do so themselves).
    pub fn add(&mut self, other: &QueryStats) {
        self.compdists += other.compdists;
        self.page_accesses += other.page_accesses;
        self.btree_pa += other.btree_pa;
        self.raf_pa += other.raf_pa;
        self.fsyncs += other.fsyncs;
        self.duration += other.duration;
        if other.recall.is_some() {
            self.recall = other.recall;
        }
    }
}

/// The SPB-tree (see the crate docs for the big picture).
pub struct SpbTree<O: MetricObject, D: Distance<O>> {
    pub(crate) metric: CountingDistance<D>,
    pub(crate) counter: DistCounter,
    pub(crate) table: PivotTable<O>,
    pub(crate) curve: Sfc,
    pub(crate) btree: BPlusTree<SfcMbbOps>,
    pub(crate) raf: Raf,
    pub(crate) cost: CostModel,
    /// The directory's durable state: its log, its `len` / `next_id`
    /// counters and the update / checkpoint protocol over them.
    durable: Durable,
    build_stats: BuildStats,
    pub(crate) use_lemma2: bool,
    /// Learned leaf-positioning model (`spb-accel`), shared so queries
    /// clone the `Arc` out and never hold the slot across I/O. A leaf
    /// lock: taken only momentarily, with no other lock acquired while
    /// held.
    accel: RankedMutex<Option<std::sync::Arc<spb_accel::LeafModel>>>,
    /// Whether learned positioning is wanted (`SpbConfig::accel` at
    /// build, model-file presence at open, or `set_accel_policy`).
    accel_on: std::sync::atomic::AtomicBool,
    /// Structure latch: queries take it shared, updates exclusively, so a
    /// reader never observes a half-applied B⁺-tree split (node pages are
    /// written one at a time). Queries are fully concurrent with each
    /// other; updates serialise with everything. Ranked below the
    /// buffer pools and the WAL; taken through
    /// [`SpbTree::latch_shared`] / [`SpbTree::latch_exclusive`], which
    /// time the wait.
    latch: RankedRwLock<()>,
}

impl<O: MetricObject, D: Distance<O>> SpbTree<O, D> {
    /// Builds an SPB-tree over `objects` in directory `dir` (three files:
    /// `index.bpt`, `objects.raf`, `pivots.tbl`).
    ///
    /// Pivots are selected with `config.pivot_method` (HFI by default),
    /// every object is mapped (`|O| · |P|` distance computations), objects
    /// are sorted by SFC value, written to the RAF in that order, and the
    /// B⁺-tree is bulk-loaded bottom-up — Appendix B.
    pub fn build(dir: &Path, objects: &[O], metric: D, config: &SpbConfig) -> io::Result<Self> {
        // Pivot selection runs on the raw metric with its own counter so the
        // construction compdists match the paper's accounting (mapping only).
        let pivot_counter = DistCounter::new();
        let selection_metric = CountingDistance::with_counter(&metric, pivot_counter.clone());
        let pivot_idx = select_pivots(
            config.pivot_method,
            objects,
            &selection_metric,
            config.num_pivots,
            &config.pivot_config,
        );
        let pivots: Vec<O> = pivot_idx.iter().map(|&i| objects[i].clone()).collect();
        Self::build_with_pivots(dir, objects, metric, pivots, config, pivot_counter.get())
    }

    /// Builds with an explicitly provided pivot set. The similarity join
    /// requires both joined trees to share one pivot table (their SFC
    /// values must be comparable), so the second tree is built with the
    /// first tree's pivots.
    pub fn build_with_pivots(
        dir: &Path,
        objects: &[O],
        metric: D,
        pivots: Vec<O>,
        config: &SpbConfig,
        pivot_compdists: u64,
    ) -> io::Result<Self> {
        let ids: Vec<u32> = (0..objects.len() as u32).collect();
        Self::build_with_pivots_ids(dir, objects, &ids, metric, pivots, config, pivot_compdists)
    }

    /// [`SpbTree::build_with_pivots`] with explicit per-object ids
    /// (`ids[i]` becomes object `i`'s RAF id instead of `i` itself).
    /// `spb-cluster` builds each shard over a slice of a planned dataset
    /// and needs the shard's objects to keep their *global* indices:
    /// queries then tie-break on the same ids a single node would, which
    /// is what makes per-shard answers merge byte-identically. Ids must
    /// be unique; inserts after the build are assigned `max(ids) + 1`
    /// onwards.
    pub fn build_with_pivots_ids(
        dir: &Path,
        objects: &[O],
        ids: &[u32],
        metric: D,
        pivots: Vec<O>,
        config: &SpbConfig,
        pivot_compdists: u64,
    ) -> io::Result<Self> {
        assert_eq!(objects.len(), ids.len(), "one id per object");
        let start = spb_obs::clock::now();
        std::fs::create_dir_all(dir)?;
        let counter = DistCounter::new();
        let metric = CountingDistance::with_counter(metric, counter.clone());

        let table = PivotTable::new(pivots, &metric, config.delta);
        table.save(&dir.join(PIVOTS_FILE))?;
        let curve = table.curve(config.curve);

        // Map every object: |O| · |P| counted distance computations.
        let mut mapped: Vec<(u128, usize, Vec<f64>)> = objects
            .iter()
            .enumerate()
            .map(|(i, o)| {
                let phi = table.phi(&metric, o);
                let cell = table.cell_of_phi(&phi);
                (curve.encode(&cell), i, phi)
            })
            .collect();
        mapped.sort_unstable_by_key(|&(sfc, idx, _)| (sfc, idx));

        // RAF in ascending SFC order.
        let raf = Raf::create(&dir.join(RAF_FILE), config.cache_pages)?;
        let mut entries: Vec<(u128, u64)> = Vec::with_capacity(mapped.len());
        let mut buf = Vec::new();
        for &(sfc, idx, _) in &mapped {
            buf.clear();
            objects[idx].encode(&mut buf);
            let ptr = raf.append(ids[idx], &buf)?;
            entries.push((sfc, ptr.offset));
        }
        raf.flush()?;

        // Bulk-load the B+-tree bottom-up.
        let btree = BPlusTree::create(
            &dir.join(BTREE_FILE),
            config.cache_pages,
            SfcMbbOps::new(curve),
        )?;
        btree.bulk_load(entries)?;

        // Cost model: per-pivot histograms + mapped-vector sample come for
        // free from the φ values computed above; the node-MBB mirror is
        // read back from the finished tree. A 200-pair precision probe
        // calibrates the kNN radius estimator — its distances run on the
        // raw metric so construction compdists stay the paper's |O| · |P|.
        let precision = Self::measure_precision(
            objects,
            metric.inner(),
            &mapped
                .iter()
                .map(|(_, idx, phi)| (*idx, phi.as_slice()))
                .collect::<Vec<_>>(),
        );
        let cost = CostModel::from_build(
            &table,
            mapped.iter().map(|(_, _, phi)| phi.as_slice()),
            &btree,
            &raf,
            precision,
        )?;

        let build_pa = btree.io_stats().page_accesses() + raf.io_stats().page_accesses();
        let storage_bytes = (btree.num_pages() + raf.num_pages()) * spb_storage::PAGE_SIZE as u64;
        let build_stats = BuildStats {
            compdists: counter.get(),
            pivot_compdists,
            page_accesses: build_pa,
            duration: start.elapsed(),
            storage_bytes,
            num_objects: objects.len() as u64,
        };

        // Durability point of construction: bulk-loading wrote through
        // without the WAL (logging every page would double the build I/O),
        // so fsync both files — a finished build is always on disk — and,
        // in durable mode, start from an empty log.
        btree.pool().sync()?;
        raf.sync()?;
        let meta = Meta {
            curve: config.curve,
            len: objects.len() as u64,
            next_id: ids.iter().max().map_or(0, |&m| m + 1),
        };
        let durable = Durable::create(dir, meta, config.durability)?;

        btree.pool().reset_stats();
        raf.reset_stats();
        counter.reset();

        let tree = SpbTree {
            metric,
            counter,
            table,
            curve,
            btree,
            raf,
            cost,
            durable,
            build_stats,
            use_lemma2: config.use_lemma2,
            accel: RankedMutex::new(LockRank::AccelModel, None),
            accel_on: std::sync::atomic::AtomicBool::new(
                config.accel == spb_accel::AccelPolicy::Learned,
            ),
            latch: RankedRwLock::new(LockRank::TreeLatch, ()),
        };
        if config.accel == spb_accel::AccelPolicy::Learned {
            // Model file first, then `spb.meta`: a crash between the two
            // leaves a model whose epoch recovery can still validate.
            tree.train_and_save_accel()?;
        }
        tree.durable.write_meta()?;
        Ok(tree)
    }

    /// Re-opens an SPB-tree previously written to `dir`, replaying its
    /// write-ahead log first if the previous process crashed.
    ///
    /// The pivot table, B⁺-tree and RAF are memory-mapped from their
    /// files; the cost model is reconstructed from the B⁺-tree keys alone
    /// (each key decodes to the object's grid cell, a δ-accurate proxy for
    /// `φ(o)`), so reopening computes **no** distances.
    pub fn open(dir: &Path, metric: D, cache_pages: usize) -> io::Result<Self> {
        Self::open_with(dir, metric, cache_pages, true)
    }

    /// [`SpbTree::open`] with an explicit durability choice. With
    /// `durable = false` recovery still runs (a crashed durable session
    /// must not be silently ignored) but subsequent updates skip the WAL.
    pub fn open_with(dir: &Path, metric: D, cache_pages: usize, durable: bool) -> io::Result<Self> {
        let durable = Durable::open(dir, durable)?;
        let Meta { curve, len, .. } = durable.meta();
        let counter = DistCounter::new();
        let metric = CountingDistance::with_counter(metric, counter.clone());
        let table: PivotTable<O> = PivotTable::load(&dir.join(PIVOTS_FILE))?;
        let curve = table.curve(curve);
        let btree = BPlusTree::open(&dir.join(BTREE_FILE), cache_pages, SfcMbbOps::new(curve))?;
        let raf = Raf::open(&dir.join(RAF_FILE), cache_pages)?;

        // A persisted model signals the build's accel policy. Loading
        // tolerates torn or corrupt files (`None`): queries then fall
        // back to classic descent and the model is rebuilt lazily at
        // the next checkpoint / explicit `rebuild_accel`.
        let accel_path = dir.join(spb_accel::MODEL_FILE);
        let accel_on = accel_path.exists();
        let accel_model = if accel_on {
            spb_accel::LeafModel::load(&accel_path)?.map(std::sync::Arc::new)
        } else {
            None
        };

        // δ-accurate φ proxies from the stored keys.
        let half = if table.is_discrete() {
            0.0
        } else {
            table.delta() / 2.0
        };
        let entries = btree.scan_all()?;
        let phis: Vec<Vec<f64>> = entries
            .iter()
            .map(|&(key, _)| {
                curve
                    .decode(key)
                    .into_iter()
                    .map(|c| table.cell_dist_lo(c) + half)
                    .collect()
            })
            .collect();
        // Calibration probe: fetch a slice of objects back from the RAF
        // and measure pivot precision against their stored cells.
        let probe: Vec<(u32, O)> = entries
            .iter()
            .step_by((len as usize / 200).max(1))
            .take(200)
            .map(|&(_, off)| -> io::Result<(u32, O)> {
                let e = raf.get(spb_storage::RafPtr { offset: off })?;
                Ok((e.id, decode_entry::<O>(&e.bytes)?))
            })
            .collect::<io::Result<_>>()?;
        let probe_mapped: Vec<(usize, Vec<f64>)> = probe
            .iter()
            .enumerate()
            .map(|(i, (_, o))| (i, table.phi(metric.inner(), o)))
            .collect();
        let probe_objects: Vec<O> = probe.into_iter().map(|(_, o)| o).collect();
        let precision = Self::measure_precision(
            &probe_objects,
            metric.inner(),
            &probe_mapped
                .iter()
                .map(|(i, phi)| (*i, phi.as_slice()))
                .collect::<Vec<_>>(),
        );
        let cost = CostModel::from_build(
            &table,
            phis.iter().map(|p| p.as_slice()),
            &btree,
            &raf,
            precision,
        )?;
        btree.pool().reset_stats();
        raf.reset_stats();

        Ok(SpbTree {
            metric,
            counter,
            table,
            curve,
            btree,
            raf,
            cost,
            durable,
            build_stats: BuildStats {
                compdists: 0,
                pivot_compdists: 0,
                page_accesses: 0,
                duration: std::time::Duration::ZERO,
                storage_bytes: 0,
                num_objects: len,
            },
            use_lemma2: true,
            accel: RankedMutex::new(LockRank::AccelModel, accel_model),
            accel_on: std::sync::atomic::AtomicBool::new(accel_on),
            latch: RankedRwLock::new(LockRank::TreeLatch, ()),
        })
    }

    /// Definition 1's precision over a deterministic pair sample, reusing
    /// the already-computed mapped vectors (only the true pairwise
    /// distances are new work).
    fn measure_precision(objects: &[O], metric: &D, mapped: &[(usize, &[f64])]) -> f64 {
        if mapped.len() < 2 {
            return 1.0;
        }
        let mut state: u64 = 0x70c1;
        let mut next = |m: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 17) % m) as usize
        };
        let mut total = 0.0;
        let mut n = 0usize;
        for _ in 0..600 {
            if n >= 200 {
                break;
            }
            let a = next(mapped.len() as u64);
            let b = next(mapped.len() as u64);
            if a == b {
                continue;
            }
            let (ia, pa) = mapped[a];
            let (ib, pb) = mapped[b];
            let d = metric.distance(&objects[ia], &objects[ib]);
            if d <= 0.0 {
                continue;
            }
            let lb = pa
                .iter()
                .zip(pb)
                .map(|(x, y)| (x - y).abs())
                .fold(0.0f64, f64::max);
            total += (lb / d).min(1.0);
            n += 1;
        }
        if n == 0 {
            1.0
        } else {
            total / n as f64
        }
    }

    // ------------------------------------------------------------------
    // Updates (Appendix C). When and in what order their bytes become
    // durable is `durable.rs`'s business.
    // ------------------------------------------------------------------

    /// Fsyncs both data files, brings `spb.meta` up to date and empties
    /// the WAL. Called automatically once the log exceeds a size
    /// threshold, and on drop; exposed so benchmarks can bound WAL replay
    /// cost deterministically and so a server can leave a clean log on
    /// graceful shutdown. Takes the write latch: syncing page images
    /// while an update stages new ones could truncate the log with
    /// uncommitted work in flight.
    pub fn checkpoint(&self) -> io::Result<()> {
        let _guard = self.latch_exclusive()?;
        self.checkpoint_locked()
    }

    /// [`checkpoint`](SpbTree::checkpoint) body, for callers that already
    /// hold the write latch (the latch is not reentrant).
    fn checkpoint_locked(&self) -> io::Result<()> {
        // Retrain a stale model first: if we crash after the model file
        // lands but before the WAL truncates, replay restores exactly
        // the tree state the model was trained at, so its epoch stamp
        // still validates. (A crash *during* the model write leaves the
        // old file — the write is atomic — whose stale epoch sends
        // queries back to classic descent.)
        if self.accel_on.load(Ordering::SeqCst) && !self.accel_model_fresh() {
            self.train_and_save_accel()?;
        }
        self.durable.checkpoint(&self.btree, &self.raf)
    }

    /// Runs `body` under the write latch as one durable update (see
    /// [`Durable::transact`]) and returns its value with the update's cost.
    fn update_txn<T>(
        &self,
        body: impl FnOnce(&mut Meta) -> io::Result<T>,
    ) -> io::Result<(T, QueryStats)> {
        let _guard = self.latch_exclusive()?;
        let snap = self.snapshot();
        let value = self.durable.transact(&self.btree, &self.raf, body)?;
        if self.durable.checkpoint_due() {
            self.checkpoint_locked()?;
        }
        Ok((value, self.stats_since(snap)))
    }

    /// Inserts one object: map it (`|P|` distance computations), append to
    /// the RAF, insert `(SFC, ptr)` into the B⁺-tree, extending MBBs along
    /// the path. With durability on, the whole update commits atomically
    /// through the WAL (a crash either keeps it entirely or loses it
    /// entirely — never a B⁺-tree entry pointing at an unwritten object).
    pub fn insert(&self, o: &O) -> io::Result<QueryStats> {
        let (phi, stats) = self.update_txn(|meta| {
            let phi = self.table.phi(&self.metric, o);
            let cell = self.table.cell_of_phi(&phi);
            let sfc = self.curve.encode(&cell);
            let mut buf = Vec::new();
            o.encode(&mut buf);
            let ptr = self.raf.append(meta.next_id, &buf)?;
            self.raf.flush()?;
            self.btree.insert(sfc, ptr.offset)?;
            meta.next_id += 1;
            meta.len += 1;
            Ok(phi)
        })?;
        self.cost.record_insert(&phi);
        Ok(stats)
    }

    /// Deletes one object equal to `o`. Returns query stats and whether an
    /// object was removed. Only the B⁺-tree entry is removed: the RAF
    /// record stays in place, and RAF space is reclaimed only by
    /// rebuilding (the paper's deletion likewise leaves the RAF
    /// untouched). A delete that finds nothing changes no page and
    /// writes no log record.
    pub fn delete(&self, o: &O) -> io::Result<(bool, QueryStats)> {
        let (found, stats) = self.update_txn(|meta| {
            let phi = self.table.phi(&self.metric, o);
            let cell = self.table.cell_of_phi(&phi);
            let sfc = self.curve.encode(&cell);
            for offset in self.btree.search(sfc)? {
                let entry = self.raf.get(RafPtr { offset })?;
                if decode_entry::<O>(&entry.bytes)? == *o {
                    self.btree.delete(sfc, offset)?;
                    meta.len -= 1;
                    return Ok(true);
                }
            }
            Ok(false)
        })?;
        if found {
            self.cost.record_delete();
        }
        Ok((found, stats))
    }

    // ------------------------------------------------------------------
    // Per-query accounting hooks. Queries thread a StatsCollector through
    // their traversal and route every distance computation and page read
    // through these, so concurrent queries never see each other's costs.
    // Updates keep the snapshot/stats_since diffs below: they hold the
    // exclusive latch, so the shared counters are exact for them (and
    // capture writes and fsyncs, which queries never issue).
    // ------------------------------------------------------------------

    /// Takes the structure latch shared (queries). The time spent
    /// blocked is recorded into the `phase.latch_wait` histogram — under
    /// a latch convoy this is the histogram that grows.
    ///
    /// # Errors
    /// [`NeedsRecovery`](crate::NeedsRecovery) — here and in
    /// [`SpbTree::latch_exclusive`] — once an update was committed to the
    /// log but not applied: what the latch protects is then not the index.
    pub(crate) fn latch_shared(&self) -> io::Result<RankedReadGuard<'_, ()>> {
        let wait_start = spb_obs::clock::now();
        let guard = self.latch.read();
        latch_wait_hist().record(spb_obs::clock::nanos_since(wait_start));
        self.durable.check().map(|()| guard)
    }

    /// Takes the structure latch exclusively (updates, checkpoints).
    pub(crate) fn latch_exclusive(&self) -> io::Result<RankedWriteGuard<'_, ()>> {
        let wait_start = spb_obs::clock::now();
        let guard = self.latch.write();
        latch_wait_hist().record(spb_obs::clock::nanos_since(wait_start));
        self.durable.check().map(|()| guard)
    }

    /// A fresh collector sized to the current cache capacities.
    pub(crate) fn collector(&self) -> StatsCollector {
        StatsCollector::new(self.btree.pool().capacity(), self.raf.pool().capacity())
    }

    /// Runs an approximate query and measures its recall: `query_at(factor)`
    /// with one collector, then the exact `query_at(1.0)` with a second, so the
    /// returned stats are the approximate query's cost alone. Sets
    /// `QueryStats::recall` and the `accel.recall_permille` gauge.
    pub(crate) fn measured<T>(
        &self,
        factor: f64,
        id_of: impl Fn(&T) -> u32,
        query_at: impl Fn(f64, &mut StatsCollector) -> io::Result<Vec<T>>,
    ) -> io::Result<(Vec<T>, QueryStats)> {
        let _guard = self.latch_shared()?;
        let mut col = self.collector();
        let approx = query_at(factor, &mut col)?;
        let mut stats = col.finish();
        let exact = query_at(1.0, &mut self.collector())?;
        let ids = |rows: &[T]| rows.iter().map(&id_of).collect::<Vec<u32>>();
        let rec = spb_accel::recall(&ids(&exact), &ids(&approx));
        spb_accel::metrics::record_recall(rec);
        stats.recall = Some(rec);
        Ok((approx, stats))
    }

    /// [`BPlusTree::read_node`] with the page attributed to `col`.
    pub(crate) fn read_node_traced(
        &self,
        id: spb_storage::PageId,
        col: &mut StatsCollector,
    ) -> io::Result<spb_bptree::Node> {
        col.btree_page(id.0);
        self.btree.read_node(id)
    }

    /// Fetches and decodes the object behind a RAF offset (straight from
    /// the cached page when the record sits on one), attributing the RAF
    /// pages read to `col`.
    pub(crate) fn fetch_traced(
        &self,
        offset: u64,
        col: &mut StatsCollector,
    ) -> io::Result<(u32, O)> {
        let (id, obj) = self.raf.get_traced(
            RafPtr { offset },
            &mut |page| col.raf_page(page),
            |id, bytes| (id, decode_entry::<O>(bytes)),
        )?;
        Ok((id, obj?))
    }

    /// One distance computation, counted in `col` and nowhere else: the
    /// tree-wide counter behind `self.metric` serves the build and the
    /// updates, which diff it under the exclusive latch.
    pub(crate) fn dist_traced(&self, col: &mut StatsCollector, a: &O, b: &O) -> f64 {
        col.add_compdists(1);
        self.metric.inner().distance(a, b)
    }

    /// `φ(q)` with its `|P|` distance computations attributed to `col`.
    pub(crate) fn phi_traced(&self, col: &mut StatsCollector, o: &O) -> Vec<f64> {
        col.add_compdists(self.table.num_pivots() as u64);
        self.table.phi(self.metric.inner(), o)
    }

    // ------------------------------------------------------------------
    // Learned positioning (spb-accel) lifecycle. The model is a flat
    // directory of the leaf level plus a PLA key→ordinal model, stamped
    // with the (len, next_id) epoch it was trained at; any mutation
    // changes the epoch and silently invalidates it (classic fallback)
    // until the next checkpoint retrains.
    // ------------------------------------------------------------------

    /// Walks the leaf chain and trains a fresh positioning model.
    fn train_accel(&self) -> io::Result<spb_accel::LeafModel> {
        let mut leaves = Vec::new();
        let mut cur = self.btree.first_leaf();
        while let Some(id) = cur {
            let node = self.btree.read_node(id)?;
            let mbb = self.btree.node_mbb(&node);
            let spb_bptree::Node::Leaf(leaf) = node else {
                break; // chain invariant broken; model over what we saw
            };
            cur = leaf.next;
            let (Some(&min_key), Some(&max_key)) = (leaf.keys.first(), leaf.keys.last()) else {
                continue; // fully emptied leaf holds no keys to cover
            };
            let Some(mbb) = mbb else { continue };
            leaves.push(spb_accel::LeafEntry {
                min_key,
                max_key,
                page: id.0,
                mbb_lo: mbb.lo,
                mbb_hi: mbb.hi,
            });
        }
        let Meta { len, next_id, .. } = self.durable.meta();
        Ok(spb_accel::LeafModel::train(leaves, len, next_id))
    }

    /// Trains, persists (atomic write, so fault injection covers it like
    /// any other metadata file), and installs the model.
    fn train_and_save_accel(&self) -> io::Result<()> {
        let model = self.train_accel()?;
        model.save(&self.durable.dir().join(spb_accel::MODEL_FILE))?;
        spb_accel::metrics::model_retrain().incr();
        *self.accel.lock() = Some(std::sync::Arc::new(model));
        Ok(())
    }

    /// True when the installed model matches the current tree epoch.
    pub fn accel_model_fresh(&self) -> bool {
        let Meta { len, next_id, .. } = self.durable.meta();
        self.accel
            .lock()
            .as_ref()
            .is_some_and(|m| m.fresh(len, next_id))
    }

    /// The installed positioning model, if any (fresh or stale).
    pub fn accel_model(&self) -> Option<std::sync::Arc<spb_accel::LeafModel>> {
        self.accel.lock().clone()
    }

    /// Forces a model (re)build now — the lazy-rebuild entry point after
    /// recovery discarded or outdated the persisted model. Enables
    /// learned positioning as a side effect.
    pub fn rebuild_accel(&self) -> io::Result<()> {
        let _guard = self.latch_exclusive()?;
        self.accel_on
            .store(true, std::sync::atomic::Ordering::SeqCst);
        self.train_and_save_accel()
    }

    /// Switches learned positioning on or off for subsequent queries
    /// (`Off` never consults the model; `Learned` uses it when fresh).
    pub fn set_accel_policy(&self, policy: spb_accel::AccelPolicy) {
        self.accel_on.store(
            policy == spb_accel::AccelPolicy::Learned,
            std::sync::atomic::Ordering::SeqCst,
        );
    }

    /// Resolves a per-query positioning request to a usable model.
    /// Returns `None` (classic descent) when positioning is off, the
    /// model is missing, or its epoch is stale; the stale/missing cases
    /// under a learned request count as `accel.model_fallback`.
    pub(crate) fn accel_model_for_query(
        &self,
        pos: spb_accel::Positioning,
    ) -> Option<std::sync::Arc<spb_accel::LeafModel>> {
        let want = match pos {
            spb_accel::Positioning::Classic => false,
            spb_accel::Positioning::Learned => true,
            spb_accel::Positioning::Auto => self.accel_on.load(std::sync::atomic::Ordering::SeqCst),
        };
        if !want {
            return None;
        }
        let Meta { len, next_id, .. } = self.durable.meta();
        match self.accel.lock().clone() {
            Some(m) if m.fresh(len, next_id) => {
                spb_accel::metrics::model_hit().incr();
                Some(m)
            }
            _ => {
                spb_accel::metrics::model_fallback().incr();
                None
            }
        }
    }

    // ------------------------------------------------------------------
    // Accessors & accounting.
    // ------------------------------------------------------------------

    /// Number of indexed objects.
    pub fn len(&self) -> u64 {
        self.durable.meta().len
    }

    /// True iff no objects are indexed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Construction costs.
    pub fn build_stats(&self) -> BuildStats {
        self.build_stats
    }

    /// The pivot table.
    pub fn table(&self) -> &PivotTable<O> {
        &self.table
    }

    /// The space-filling curve in use.
    pub fn curve(&self) -> &Sfc {
        &self.curve
    }

    /// The cost model (eqs. 1–8).
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// The underlying B⁺-tree.
    pub fn btree(&self) -> &BPlusTree<SfcMbbOps> {
        &self.btree
    }

    /// The underlying RAF.
    pub fn raf(&self) -> &Raf {
        &self.raf
    }

    /// The counting metric (distance computations counted per call).
    pub fn metric(&self) -> &CountingDistance<D> {
        &self.metric
    }

    /// Total storage in bytes (Table 6's "Storage" column).
    pub fn storage_bytes(&self) -> u64 {
        (self.btree.num_pages() + self.raf.num_pages()) * spb_storage::PAGE_SIZE as u64
    }

    /// Flushes both page caches — the paper's per-query cache flush.
    pub fn flush_caches(&self) {
        self.btree.pool().flush_cache();
        self.raf.flush_cache();
    }

    /// Sets both caches' capacities (Fig. 10's parameter).
    pub fn set_cache_capacity(&self, pages: usize) {
        self.btree.pool().set_capacity(pages);
        self.raf.set_cache_capacity(pages);
    }

    /// Whether this tree commits updates through a write-ahead log.
    pub fn durable(&self) -> bool {
        self.wal().is_some()
    }

    /// The write-ahead log, if durability is on.
    pub fn wal(&self) -> Option<&Wal> {
        self.durable.wal()
    }

    /// Counter/IO snapshot for differential query accounting.
    pub(crate) fn snapshot(&self) -> (u64, IoStats, IoStats, u64, Instant) {
        (
            self.counter.get(),
            self.btree.io_stats(),
            self.raf.io_stats(),
            self.wal().map_or(0, Wal::fsyncs),
            spb_obs::clock::now(),
        )
    }

    /// Stats accumulated since `snap`.
    pub(crate) fn stats_since(&self, snap: (u64, IoStats, IoStats, u64, Instant)) -> QueryStats {
        let (c0, b0, r0, w0, t0) = snap;
        let b1 = self.btree.io_stats();
        let r1 = self.raf.io_stats();
        let w1 = self.wal().map_or(0, Wal::fsyncs);
        let btree_pa = b1.page_accesses() - b0.page_accesses();
        let raf_pa = r1.page_accesses() - r0.page_accesses();
        QueryStats {
            compdists: self.counter.since(c0),
            page_accesses: btree_pa + raf_pa,
            btree_pa,
            raf_pa,
            fsyncs: (b1.fsyncs - b0.fsyncs) + (r1.fsyncs - r0.fsyncs) + (w1 - w0),
            duration: t0.elapsed(),
            recall: None,
        }
    }
}

impl<O: MetricObject, D: Distance<O>> Drop for SpbTree<O, D> {
    /// Checkpoints on clean shutdown so a healthy close leaves an empty
    /// WAL. If any step before the truncation fails (or a fault is
    /// injected there, or the index needs recovery), the log survives
    /// and reopen replays it.
    fn drop(&mut self) {
        if self.wal().is_some_and(|wal| !wal.is_empty()) {
            let _ = self.durable.checkpoint(&self.btree, &self.raf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SpbConfig;
    use spb_metric::{dataset, EditDistance, Word};
    use spb_storage::TempDir;

    fn build_words(n: usize) -> (TempDir, Vec<Word>, SpbTree<Word, EditDistance>) {
        let dir = TempDir::new("spb-tree");
        let words = dataset::words(n, 11);
        let tree = SpbTree::build(
            dir.path(),
            &words,
            EditDistance::default(),
            &SpbConfig::default(),
        )
        .unwrap();
        (dir, words, tree)
    }

    #[test]
    fn query_stats_add_folds_every_field() {
        // Built and destructured without `..`: a new counter does not
        // compile here until this test says how `add` folds it.
        let one = QueryStats {
            compdists: 1,
            page_accesses: 2,
            btree_pa: 3,
            raf_pa: 4,
            fsyncs: 5,
            duration: Duration::from_nanos(6),
            recall: Some(0.5),
        };
        let mut sum = one;
        sum.add(&one);
        sum.add(&QueryStats::default());
        let QueryStats {
            compdists,
            page_accesses,
            btree_pa,
            raf_pa,
            fsyncs,
            duration,
            recall,
        } = sum;
        assert_eq!(
            (compdists, page_accesses, btree_pa, raf_pa, fsyncs),
            (2, 4, 6, 8, 10)
        );
        assert_eq!(duration, Duration::from_nanos(12));
        // Recall does not sum: the latest measurement wins, and an
        // unmeasured query leaves it alone.
        assert_eq!(recall, Some(0.5));
        sum.add(&QueryStats {
            recall: Some(0.25),
            ..QueryStats::default()
        });
        assert_eq!(sum.recall, Some(0.25));
    }

    #[test]
    fn build_accounts_mapping_distances() {
        let (_d, words, tree) = build_words(500);
        let s = tree.build_stats();
        assert_eq!(s.num_objects, 500);
        // Construction compdists = |O| · |P| exactly (the paper's Table 6
        // pattern: 5 × |O|).
        assert_eq!(s.compdists, 500 * tree.table().num_pivots() as u64);
        assert!(s.pivot_compdists > 0);
        assert!(s.page_accesses > 0);
        assert!(s.storage_bytes > 0);
        assert_eq!(tree.len(), words.len() as u64);
    }

    #[test]
    fn raf_holds_objects_in_sfc_order() {
        let (_d, _words, tree) = build_words(300);
        // Walking the B+-tree leaves in key order must touch RAF offsets in
        // ascending order (objects were appended in SFC order).
        let entries = tree.btree().scan_all().unwrap();
        assert_eq!(entries.len(), 300);
        assert!(entries.windows(2).all(|w| w[0].0 <= w[1].0));
        let offsets: Vec<u64> = entries.iter().map(|&(_, v)| v).collect();
        let mut sorted = offsets.clone();
        sorted.sort_unstable();
        assert_eq!(offsets, sorted, "RAF order must follow SFC order");
    }

    #[test]
    fn insert_then_delete_roundtrip() {
        let (_d, _words, tree) = build_words(200);
        let novel = Word::new("zzzzqqqzzz");
        let stats = tree.insert(&novel).unwrap();
        assert_eq!(stats.compdists, tree.table().num_pivots() as u64);
        assert!(stats.page_accesses > 0);
        assert_eq!(tree.len(), 201);

        let (found, _) = tree.delete(&novel).unwrap();
        assert!(found);
        assert_eq!(tree.len(), 200);
        let (found_again, _) = tree.delete(&novel).unwrap();
        assert!(!found_again);
    }

    #[test]
    fn delete_distinguishes_same_cell_objects() {
        // Two different words can share an SFC value (same cell); delete
        // must remove exactly the requested one.
        let (_d, words, tree) = build_words(200);
        let target = words[42].clone();
        let (found, _) = tree.delete(&target).unwrap();
        assert!(found);
        // The others are still all findable by exact range query r=0.
        let (hits, _) = tree.range(&words[43], 0.0).unwrap();
        assert!(hits.iter().any(|(_, w)| w == &words[43]));
        let (gone, _) = tree.range(&target, 0.0).unwrap();
        assert!(!gone.iter().any(|(_, w)| w == &target));
    }

    #[test]
    fn empty_dataset_builds() {
        let dir = TempDir::new("spb-empty");
        let words: Vec<Word> = vec![Word::new("solo")];
        let tree = SpbTree::build(
            dir.path(),
            &words,
            EditDistance::default(),
            &SpbConfig::default(),
        )
        .unwrap();
        assert_eq!(tree.len(), 1);
        let (hits, _) = tree.range(&Word::new("solo"), 0.0).unwrap();
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn reopen_preserves_index_and_computes_no_distances() {
        let dir = TempDir::new("spb-reopen");
        let words = dataset::words(400, 12);
        let q = words[5].clone();
        let expected: Vec<u32>;
        {
            let tree = SpbTree::build(
                dir.path(),
                &words,
                EditDistance::default(),
                &SpbConfig::default(),
            )
            .unwrap();
            let (hits, _) = tree.range(&q, 2.0).unwrap();
            let mut ids: Vec<u32> = hits.iter().map(|&(id, _)| id).collect();
            ids.sort_unstable();
            expected = ids;
        }
        let tree = SpbTree::open(dir.path(), EditDistance::default(), 32).unwrap();
        assert_eq!(tree.len(), 400);
        // Reopening itself computed no distances.
        assert_eq!(tree.metric().counter().get(), 0);
        let (hits, _) = tree.range(&q, 2.0).unwrap();
        let mut ids: Vec<u32> = hits.iter().map(|&(id, _)| id).collect();
        ids.sort_unstable();
        assert_eq!(ids, expected);
        // The reopened tree accepts updates.
        let novel = Word::new("reopenedword");
        tree.insert(&novel).unwrap();
        let (found, _) = tree.delete(&novel).unwrap();
        assert!(found);
        // Cost model was rebuilt from the stored keys.
        assert_eq!(tree.cost_model().num_objects(), 400);
    }

    #[test]
    fn stats_reset_between_queries() {
        let (_d, words, tree) = build_words(300);
        tree.flush_caches(); // drop pages cached by construction
        let (_, s1) = tree.range(&words[0], 2.0).unwrap();
        let (_, s2) = tree.range(&words[0], 2.0).unwrap();
        // Same query, warm cache: PA can only shrink; compdists identical.
        assert_eq!(s1.compdists, s2.compdists);
        assert!(s2.page_accesses <= s1.page_accesses);
        tree.flush_caches();
        let (_, s3) = tree.range(&words[0], 2.0).unwrap();
        assert_eq!(s3.page_accesses, s1.page_accesses);
    }
}
