//! RQA — the Range Query Algorithm (Algorithm 1).
//!
//! A range query `RQ(q, O, r)` maps to the *mapped range region*
//! `RR(q, r)` (Lemma 1): only objects whose mapped vectors fall inside it
//! can qualify. The traversal prunes B⁺-tree subtrees whose MBBs miss
//! `RR`, and per-object verification uses three tiers, cheapest first:
//!
//! 1. **Lemma 1** — discard when `φ(o) ∉ RR(q, r)` (no distance
//!    computation, no RAF access);
//! 2. **Lemma 2** — accept without computing `d(q, o)` when some pivot
//!    `pᵢ` has `d(o, pᵢ) ≤ r − d(q, pᵢ)` (the object's whole pivot ball
//!    lies inside the query ball);
//! 3. otherwise fetch the object and compute `d(q, o)`.
//!
//! Lemma 1 runs in key space, before any decode: every key of `[a, b]`
//! lies in the aligned sub-cube named by the levels `a` and `b` share
//! (`Sfc::interval_cube_into`). An internal entry is pruned undecoded
//! when the cube of `[min_keyᵢ, min_keyᵢ₊₁]` (inclusive: duplicates may
//! straddle children) misses `RR`, as its exact MBB lies in that cube. A
//! leaf's keys go through one recursive filter (`range_leaf`) that skips
//! a run whose cube misses `RR` undecoded and passes one whose cube lies
//! in `RR` untested, keeping exactly what a per-entry test keeps.
//!
//! Every member of the range family — `range`, the contracted
//! (approximate) range, `range_count`, and learned positioning in both
//! its regimes — is that one pipeline, `range_run`, with two seams. The
//! *leaf source* decides which leaves are read and in what order
//! (`classic_leaves`, `learned_leaves`); the *sink* decides what an
//! accepted candidate costs (collect `(id, O)`, or count). Between them
//! there is one leaf filter (`range_leaf`) and one `verify_rq`.

use std::collections::BTreeSet;
use std::io;

use spb_bptree::Node;
use spb_metric::{Distance, MetricObject};
use spb_sfc::GridBox;

use crate::plan::{QueryPlan, QueryShape};
use crate::stats::StatsCollector;
use crate::tree::{QueryStats, SpbTree};

/// What an accepted candidate costs — the seam between a materialising
/// range query and a count.
trait RangeSink<O> {
    /// A Lemma-2 accept: `true` when the sink has taken it without the
    /// object (no RAF access), `false` when it needs the object fetched.
    fn accept_unfetched(&mut self) -> bool;
    /// An accepted candidate, fetched.
    fn accept(&mut self, id: u32, o: O);
    /// Forgets everything accepted so far (a learned traversal found its
    /// model unusable and the query restarts classically).
    fn reset(&mut self);
}

/// Collects `(id, O)`: a Lemma-2 accept still fetches the object — it is
/// part of the result.
impl<O> RangeSink<O> for Vec<(u32, O)> {
    fn accept_unfetched(&mut self) -> bool {
        false
    }
    fn accept(&mut self, id: u32, o: O) {
        self.push((id, o));
    }
    fn reset(&mut self) {
        self.clear();
    }
}

/// Counts: a Lemma-2 accept touches no RAF page at all.
struct Count(u64);

impl<O> RangeSink<O> for Count {
    fn accept_unfetched(&mut self) -> bool {
        self.0 += 1;
        true
    }
    fn accept(&mut self, _id: u32, _o: O) {
        self.0 += 1;
    }
    fn reset(&mut self) {
        self.0 = 0;
    }
}

/// One range query in flight: its constants — the query object, `φ(q)`,
/// the true radius (Lemma 2 and the distance check) and the pruning
/// region `RR(q, r·contraction)` (MBB pruning and Lemma 1) — plus what
/// every step of the traversal writes to.
struct RangeRun<'a, O, S> {
    q: &'a O,
    q_phi: &'a [f64],
    r: f64,
    rr: &'a GridBox,
    col: &'a mut StatsCollector,
    sink: &'a mut S,
    /// Decoded cell of the entry under verification, or the low corner
    /// of the cube under test (one allocation per query, not per entry).
    cell_buf: Vec<u32>,
}

/// Lemma 1 for every key of an interval at once: where the interval's
/// aligned cube (side `2^free` cells) lies relative to `RR`.
enum Cube {
    Outside,
    Inside,
    Straddles { free: u32 },
}

/// Cell budget for the learned enumeration path: when `RR(q, r)` holds at
/// most this many cells, each of its SFC values is located directly.
const LEARNED_ENUM_CELLS: u128 = 1024;

impl<O: MetricObject, D: Distance<O>> SpbTree<O, D> {
    /// `RQ(q, O, r)`: all indexed objects within distance `r` of `q`
    /// (Definition 2), with the query's cost metrics.
    pub fn range(&self, q: &O, r: f64) -> io::Result<(Vec<(u32, O)>, QueryStats)> {
        self.range_positioned(q, r, spb_accel::Positioning::Auto)
    }

    /// [`range`](SpbTree::range) with an explicit positioning choice
    /// (classic descent vs learned leaf positioning). Both return
    /// byte-identical results; only the traversal cost differs.
    pub fn range_positioned(
        &self,
        q: &O,
        r: f64,
        pos: spb_accel::Positioning,
    ) -> io::Result<(Vec<(u32, O)>, QueryStats)> {
        let _guard = self.latch_shared()?;
        let mut col = self.collector();
        let result = self.range_exec(q, r, 1.0, pos, &mut col)?;
        Ok((result, col.finish()))
    }

    /// `|RQ(q, O, r)|` without materialising the result set. This is
    /// where Lemma 2 shows its full power: an object whose pivot ball lies
    /// inside the query ball is counted **without an RAF access at all**,
    /// whereas [`range`](SpbTree::range) still has to fetch it. Always
    /// descends classically, whatever the tree's positioning policy.
    pub fn range_count(&self, q: &O, r: f64) -> io::Result<(u64, QueryStats)> {
        let _guard = self.latch_shared()?;
        let mut col = self.collector();
        let mut count = Count(0);
        let pos = spb_accel::Positioning::Classic;
        self.range_run(q, r, 1.0, pos, &mut col, &mut count)?;
        Ok((count.0, col.finish()))
    }

    /// Approximate range query plus a recall measurement: the pruning
    /// radius is contracted to `r · contraction`, so objects whose
    /// mapped vectors fall in the shaved-off shell are never inspected.
    /// Perfect precision (every returned object truly is within `r`),
    /// recall ≤ 1, measured against the exact answer (computed with a
    /// separate collector, so the returned stats reflect the approximate
    /// query's cost alone). Sets `QueryStats::recall` and the
    /// `accel.recall_permille` gauge. A `contraction` outside `(0, 1]`
    /// is an `InvalidInput` error; unmeasured approximate queries run
    /// through [`SpbTree::query_batch`].
    pub fn range_approx_measured(
        &self,
        q: &O,
        r: f64,
        contraction: f64,
    ) -> io::Result<(Vec<(u32, O)>, QueryStats)> {
        let contraction =
            QueryPlan::new(QueryShape::Range { radius: r }, Some(contraction))?.factor();
        self.measured(
            contraction,
            |hit: &(u32, O)| hit.0,
            |factor, col| self.range_exec(q, r, factor, spb_accel::Positioning::Auto, col),
        )
    }

    /// The materialising range query, exact (`contraction = 1`) or
    /// approximate. The caller holds the read latch.
    pub(crate) fn range_exec(
        &self,
        q: &O,
        r: f64,
        contraction: f64,
        pos: spb_accel::Positioning,
        col: &mut StatsCollector,
    ) -> io::Result<Vec<(u32, O)>> {
        let mut result = Vec::new();
        self.range_run(q, r, contraction, pos, col, &mut result)?;
        Ok(result)
    }

    /// The one body of the range family. Two seams vary: the *leaf
    /// source* (which leaves are read, in what order — classic descent,
    /// or the learned directory when `pos` resolves to a fresh model)
    /// and the *sink* (what an accepted candidate costs). The pruning
    /// region is built from the contracted radius, while Lemma 2 and the
    /// final distance check keep the true radius `r` (precision is never
    /// sacrificed, only recall).
    fn range_run<S: RangeSink<O>>(
        &self,
        q: &O,
        r: f64,
        contraction: f64,
        pos: spb_accel::Positioning,
        col: &mut StatsCollector,
        sink: &mut S,
    ) -> io::Result<()> {
        if self.is_empty() || r.is_nan() || r < 0.0 {
            return Ok(());
        }
        let q_phi = self.phi_traced(col, q);
        let prune_r = r * contraction.min(1.0);
        let Some(rr) = self.table.rr_cells(&q_phi, prune_r) else {
            return Ok(());
        };
        let mut run = RangeRun {
            q,
            q_phi: &q_phi,
            r,
            rr: &rr,
            col,
            sink,
            cell_buf: vec![0u32; self.table.num_pivots()],
        };
        if let Some(model) = self.accel_model_for_query(pos) {
            if self.learned_leaves(&mut run, &model)? {
                return Ok(());
            }
            // A window miss or a directory/page mismatch: restart
            // classically, keeping the pages already charged to `col`.
            spb_accel::metrics::model_fallback().incr();
            run.sink.reset();
        }
        self.classic_leaves(&mut run)
    }

    /// Leaf source: classic right-to-left depth-first descent, pruning
    /// subtrees whose MBB misses `RR`. A stacked node carries the upper
    /// end of its key interval: its next sibling's `min_key`, or its
    /// parent's.
    fn classic_leaves<S: RangeSink<O>>(&self, run: &mut RangeRun<'_, O, S>) -> io::Result<()> {
        let Some(root) = self.btree.root_page() else {
            return Ok(());
        };
        let mut stack = vec![(self.read_node_traced(root, run.col)?, u128::MAX)];
        while let Some((node, upper)) = stack.pop() {
            match node {
                Node::Internal(n) => {
                    let uppers = n.entries.iter().skip(1).map(|e| e.min_key);
                    for (e, hi) in n.entries.iter().zip(uppers.chain([upper])) {
                        if self.subtree_hits(run, [e.min_key, hi], [e.mbb.lo, e.mbb.hi]) {
                            stack.push((self.read_node_traced(e.child, run.col)?, hi));
                        }
                    }
                }
                Node::Leaf(leaf) => self.range_leaf(run, &leaf.keys, &leaf.values)?,
            }
        }
        Ok(())
    }

    /// Leaf source: the persisted leaf directory replaces every
    /// inner-node read. Two regimes:
    ///
    /// - **Enumeration** (small `RR`): locate each of `RR`'s SFC values
    ///   through the PLA model and read only the leaves whose key range
    ///   holds one (a strictly stronger prune than MBB intersection).
    /// - **Directory scan** (large `RR`): read exactly the leaves whose
    ///   MBB intersects `RR` — the same leaves classic descent reads,
    ///   minus the internal pages.
    ///
    /// Leaves are visited in descending key order, as classic DFS does,
    /// so results are byte-identical to it. `Ok(false)` means the model
    /// did not hold (a window miss, or a directory page that is not a
    /// leaf) and the caller must restart.
    fn learned_leaves<S: RangeSink<O>>(
        &self,
        run: &mut RangeRun<'_, O, S>,
        model: &spb_accel::LeafModel,
    ) -> io::Result<bool> {
        let leaves = model.leaves();
        let mut picked = BTreeSet::new();
        if !leaves.is_empty() && run.rr.cell_count() <= LEARNED_ENUM_CELLS {
            for s in run.rr.sfc_values_sorted(&self.curve) {
                match model.locate(s) {
                    spb_accel::Located::Run(first, last) => picked.extend(first..=last),
                    spb_accel::Located::Absent => {}
                    spb_accel::Located::Miss => return Ok(false),
                }
            }
        } else {
            for (i, e) in leaves.iter().enumerate() {
                if self.subtree_hits(run, [e.min_key, e.max_key], [e.mbb_lo, e.mbb_hi]) {
                    picked.insert(i);
                }
            }
        }
        // Descending leaf order: classic emission order.
        for entry in picked.iter().rev().filter_map(|&i| leaves.get(i)) {
            let node = self.read_node_traced(spb_storage::PageId(entry.page), run.col)?;
            let Node::Leaf(leaf) = node else {
                return Ok(false);
            };
            self.range_leaf(run, &leaf.keys, &leaf.values)?;
        }
        Ok(true)
    }

    /// MBB ∩ `RR` for a subtree with keys in `[lo, hi]` and SFC-encoded
    /// MBB `corners`. The interval's cube holds the MBB, so a cube outside
    /// `RR` rejects it and one inside admits it, with no corner decoded.
    fn subtree_hits<S>(
        &self,
        run: &mut RangeRun<'_, O, S>,
        [lo, hi]: [u128; 2],
        corners: [u128; 2],
    ) -> bool {
        match self.cube_test(run, lo, hi) {
            Cube::Outside => false,
            Cube::Inside => true,
            Cube::Straddles { .. } => {
                let [c_lo, c_hi] = corners.map(|c| self.curve.decode(c));
                GridBox::new(c_lo, c_hi).intersects(run.rr)
            }
        }
    }

    /// Where the aligned cube holding every key of `[a, b]` lies
    /// relative to `RR` (Lemma 1 for the whole interval at once).
    fn cube_test<S>(&self, run: &mut RangeRun<'_, O, S>, a: u128, b: u128) -> Cube {
        let free = self.curve.interval_cube_into(a, b, &mut run.cell_buf);
        let low_bits = ((1u64 << free) - 1) as u32;
        let mut inside = true;
        for ((&c, &lo), &hi) in run.cell_buf.iter().zip(run.rr.lo()).zip(run.rr.hi()) {
            if c > hi || c | low_bits < lo {
                return Cube::Outside;
            }
            inside &= lo <= c && c | low_bits <= hi;
        }
        if inside {
            Cube::Inside
        } else {
            Cube::Straddles { free }
        }
    }

    /// Algorithm 1's leaf processing (lines 11–23): Lemma 1 over a run of
    /// a leaf's sorted keys, which its cube decides whole when it can and
    /// which splits at its first unshared level otherwise; runs of ≤ 2
    /// keys are decoded and tested singly. Survivors go on in key order.
    fn range_leaf<S: RangeSink<O>>(
        &self,
        run: &mut RangeRun<'_, O, S>,
        keys: &[u128],
        offsets: &[u64],
    ) -> io::Result<()> {
        if keys.len() <= 2 {
            for (&key, &off) in keys.iter().zip(offsets) {
                self.curve.decode_into(key, &mut run.cell_buf);
                if run.rr.contains_point(&run.cell_buf) {
                    self.verify_rq(run, off)?;
                }
            }
            return Ok(());
        }
        match self.cube_test(run, keys[0], keys[keys.len() - 1]) {
            Cube::Outside => {}
            Cube::Inside => {
                for (&key, &off) in keys.iter().zip(offsets) {
                    if self.use_lemma2 {
                        self.curve.decode_into(key, &mut run.cell_buf);
                    }
                    self.verify_rq(run, off)?;
                }
            }
            Cube::Straddles { free } => {
                // `free ≥ 1` (a single cell never straddles): split a level down.
                let shift = (free - 1) * self.curve.dims() as u32;
                let (mut keys, mut offsets) = (keys, offsets);
                while let Some(&first) = keys.first() {
                    let end = keys.partition_point(|&k| k >> shift == first >> shift);
                    self.range_leaf(run, &keys[..end], &offsets[..end])?;
                    (keys, offsets) = (&keys[end..], &offsets[end..]);
                }
            }
        }
        Ok(())
    }

    /// The paper's `VerifyRQ` (Algorithm 1 lines 25–29) for an entry past
    /// Lemma 1; `run.cell_buf` holds its decoded cell if Lemma 2 is on.
    fn verify_rq<S: RangeSink<O>>(
        &self,
        run: &mut RangeRun<'_, O, S>,
        offset: u64,
    ) -> io::Result<()> {
        // Lemma 2: accept without a distance computation when the object's
        // ball around some pivot is inside the query ball.
        let lemma2 = self.use_lemma2
            && (run.q_phi.iter().zip(&run.cell_buf))
                .any(|(&dq, &c)| self.table.cell_dist_hi(c) <= run.r - dq);
        if lemma2 && run.sink.accept_unfetched() {
            return Ok(());
        }
        let (id, o) = self.fetch_traced(offset, run.col)?;
        if lemma2 || self.dist_traced(run.col, run.q, &o) <= run.r {
            run.sink.accept(id, o);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::RangeRun;
    use crate::config::SpbConfig;
    use crate::tree::SpbTree;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use spb_bptree::Node;
    use spb_metric::{dataset, Distance, EditDistance, MetricObject, Word};
    use spb_sfc::{CurveKind, GridBox, Sfc};
    use spb_storage::TempDir;

    const CURVES: [CurveKind; 2] = [CurveKind::Hilbert, CurveKind::Z];

    /// The contraction the contracted-range checks use.
    const SHRINK: f64 = 0.6;

    /// Every member of the range family on `tree` against brute force over
    /// its `live` `(id, object)` pairs: `range` and `range_count` against
    /// `d(q, o) ≤ r`, and the range contracted to `SHRINK·r` against a
    /// per-object Lemma 1 test of its region.
    fn check_tree<O: MetricObject, D: Distance<O>>(
        tree: &SpbTree<O, D>,
        metric: &D,
        live: &[(u32, O)],
        queries: &[O],
        radii: &[f64],
    ) {
        let table = tree.table();
        let cells: Vec<Vec<u32>> = (live.iter())
            .map(|(_, o)| table.cell_of_phi(&table.phi(metric, o)))
            .collect();
        let sorted_ids = |hits: Vec<(u32, O)>| {
            let mut ids: Vec<u32> = hits.into_iter().map(|(id, _)| id).collect();
            ids.sort_unstable();
            ids
        };
        for (qi, q) in queries.iter().enumerate() {
            let q_phi = table.phi(metric, q);
            for &r in radii {
                let at = format!("{:?} query {qi}, r={r}", tree.curve().kind());
                let near: Vec<bool> = live
                    .iter()
                    .map(|(_, o)| metric.distance(q, o) <= r)
                    .collect();
                let pick = |keep: &dyn Fn(usize) -> bool| {
                    let mut ids: Vec<u32> = (0..live.len())
                        .filter(|&i| keep(i))
                        .map(|i| live[i].0)
                        .collect();
                    ids.sort_unstable();
                    ids
                };
                let want = pick(&|i| near[i]);
                let (hits, stats) = tree.range(q, r).unwrap();
                assert_eq!(sorted_ids(hits), want, "range {at}");
                assert!(stats.compdists <= (live.len() + table.num_pivots()) as u64);
                let (count, _) = tree.range_count(q, r).unwrap();
                assert_eq!(count as usize, want.len(), "range_count {at}");
                let rr = table.rr_cells(&q_phi, r * SHRINK);
                let in_rr = |i: usize| rr.as_ref().is_some_and(|rr| rr.contains_point(&cells[i]));
                let (hits, _) = tree.range_approx_measured(q, r, SHRINK).unwrap();
                assert_eq!(
                    sorted_ids(hits),
                    pick(&|i| near[i] && in_rr(i)),
                    "contracted {at}"
                );
            }
        }
    }

    /// Builds `data` under `cfg` and checks its first eight objects as
    /// queries (ids are positions in `data`).
    fn check_build<O: MetricObject, D: Distance<O> + Clone>(
        data: &[O],
        metric: D,
        radii: &[f64],
        cfg: &SpbConfig,
    ) -> SpbTree<O, D> {
        let dir = TempDir::new("rqa");
        let tree = SpbTree::build(dir.path(), data, metric.clone(), cfg).unwrap();
        let live: Vec<(u32, O)> = (0..).zip(data.iter().cloned()).collect();
        check_tree(&tree, &metric, &live, &data[..data.len().min(8)], radii);
        tree
    }

    fn check_against_bruteforce<O: MetricObject, D: Distance<O> + Clone>(
        data: Vec<O>,
        metric: D,
        radii: &[f64],
        curve: CurveKind,
    ) {
        let cfg = SpbConfig {
            curve,
            ..SpbConfig::default()
        };
        check_build(&data, metric, radii, &cfg);
    }

    /// Every leaf's keys, left to right.
    fn leaf_keys<O: MetricObject, D: Distance<O>>(tree: &SpbTree<O, D>) -> Vec<Vec<u128>> {
        let mut out = Vec::new();
        let mut stack: Vec<_> = tree.btree().root_page().into_iter().collect();
        while let Some(page) = stack.pop() {
            match tree.btree().read_node(page).unwrap() {
                Node::Internal(n) => stack.extend(n.entries.iter().rev().map(|e| e.child)),
                Node::Leaf(l) => out.push(l.keys),
            }
        }
        out
    }

    #[test]
    fn rqa_matches_bruteforce_words() {
        check_against_bruteforce(
            dataset::words(600, 21),
            dataset::words_metric(),
            &[0.0, 1.0, 2.0, 4.0],
            CurveKind::Hilbert,
        );
    }

    #[test]
    fn rqa_matches_bruteforce_color() {
        check_against_bruteforce(
            dataset::color(500, 22),
            dataset::color_metric(),
            &[0.05, 0.15, 0.4],
            CurveKind::Hilbert,
        );
    }

    #[test]
    fn rqa_matches_bruteforce_signature() {
        check_against_bruteforce(
            dataset::signature(400, 23),
            dataset::signature_metric(),
            &[5.0, 15.0, 30.0],
            CurveKind::Hilbert,
        );
    }

    #[test]
    fn rqa_matches_bruteforce_on_z_curve() {
        check_against_bruteforce(
            dataset::words(400, 24),
            dataset::words_metric(),
            &[1.0, 3.0],
            CurveKind::Z,
        );
    }

    #[test]
    fn rqa_matches_bruteforce_dna() {
        check_against_bruteforce(
            dataset::dna(300, 25),
            dataset::dna_metric(),
            &[0.05, 0.2],
            CurveKind::Hilbert,
        );
    }

    /// Runs of one duplicated key: whole leaves of it, and equal keys
    /// straddling two children.
    #[test]
    fn rqa_matches_bruteforce_on_duplicate_runs() {
        let metric = dataset::words_metric();
        let mut data = dataset::words(300, 26);
        data.extend((0..500).map(|i| Word::new(["banana", "bandana"][i % 7 / 6])));
        let queries = [Word::new("banana"), Word::new("bandana"), data[0].clone()];
        // One pivot makes a key the plain distance to it: a leaf of keys
        // 2…2 4…4 whose 4s run on into the next leaf. Its interval's cube
        // must come from [2, 4], which straddles RR = {4}, not from
        // [2, 3], which misses it.
        let pivot = vec![Word::new("aaaa")];
        let straddle: Vec<Word> = (0..600)
            .map(|i| Word::new(if i < 100 { "aabb" } else { "bbbb" }))
            .collect();
        for curve in CURVES {
            let cfg = SpbConfig {
                curve,
                ..SpbConfig::default()
            };
            let tree = check_build(&data, metric, &[0.0, 1.0, 3.0], &cfg);
            let leaves = leaf_keys(&tree);
            assert!(leaves.iter().any(|l| l.len() > 2 && l.first() == l.last()));
            assert!(leaves.windows(2).any(|w| w[0].last() == w[1].first()));
            let live: Vec<(u32, Word)> = (0..).zip(data.iter().cloned()).collect();
            check_tree(&tree, &metric, &live, &queries, &[0.0, 1.0, 2.0]);

            let dir = TempDir::new("rqa-straddle");
            let tree =
                SpbTree::build_with_pivots(dir.path(), &straddle, metric, pivot.clone(), &cfg, 0)
                    .unwrap();
            let leaves = leaf_keys(&tree);
            assert!(leaves.windows(2).any(
                |w| (w[0].first(), w[0].last(), w[1].first()) == (Some(&2), Some(&4), Some(&4))
            ));
            let live: Vec<(u32, Word)> = (0..).zip(straddle.iter().cloned()).collect();
            check_tree(&tree, &metric, &live, &straddle[99..101], &[0.0, 1.0]);
        }
    }

    /// A root leaf whose first and last keys already differ at the top
    /// level: its cube is the whole grid.
    #[test]
    fn rqa_matches_bruteforce_on_a_leaf_spanning_the_grid() {
        let data: Vec<Word> = [
            "a",
            "zzzzzzzzzzzz",
            "kiwi",
            "apples",
            "q",
            "mango",
            "zz",
            "abcdefgh",
        ]
        .into_iter()
        .map(Word::new)
        .collect();
        for curve in CURVES {
            let cfg = SpbConfig {
                curve,
                ..SpbConfig::default()
            };
            let tree = check_build(&data, EditDistance::new(12), &[0.0, 2.0, 5.0, 12.0], &cfg);
            let [leaf] = leaf_keys(&tree).try_into().unwrap();
            let (a, b) = (leaf[0], leaf[leaf.len() - 1]);
            let mut lo = vec![0; tree.curve().dims()];
            assert_eq!(
                tree.curve().interval_cube_into(a, b, &mut lo),
                tree.curve().bits()
            );
        }
    }

    /// The widest grid a `u128` key holds at the paper's pivot count:
    /// 9 pivots × 14 bits.
    #[test]
    fn rqa_matches_bruteforce_on_9_pivots_by_14_bits() {
        let metric = dataset::color_metric();
        let d_plus = metric.max_distance();
        for curve in CURVES {
            let cfg = SpbConfig {
                curve,
                num_pivots: 9,
                delta: Some(d_plus / 10_000.0),
                ..SpbConfig::default()
            };
            let data = dataset::color(500, 27);
            let tree = check_build(&data, metric, &[0.05, 0.15, 0.4], &cfg);
            assert_eq!((tree.curve().dims(), tree.curve().bits()), (9, 14));
        }
    }

    /// Inserts split leaves and deletes drain them: `min_key` and the MBBs
    /// the internal-entry cube test relies on must stay exact.
    #[test]
    fn rqa_matches_bruteforce_after_inserts_and_deletes() {
        let mut words = dataset::words(900, 28);
        words.sort_unstable_by(|a, b| a.as_str().cmp(b.as_str()));
        words.dedup();
        let metric = dataset::words_metric();
        for curve in CURVES {
            let dir = TempDir::new("rqa-updates");
            let cfg = SpbConfig {
                curve,
                durability: false,
                ..SpbConfig::default()
            };
            let (built, rest) = words.split_at(words.len() / 3);
            let tree = SpbTree::build(dir.path(), built, metric, &cfg).unwrap();
            for o in rest {
                tree.insert(o).unwrap();
            }
            let mut live: Vec<(u32, Word)> = (0..).zip(words.iter().cloned()).collect();
            for (_, o) in live.iter().skip(1).step_by(3) {
                assert!(tree.delete(o).unwrap().0, "delete {}", o.as_str());
            }
            live.retain(|(id, _)| id % 3 != 1);
            assert_eq!(tree.len() as usize, live.len());
            check_tree(&tree, &metric, &live, &words[..10], &[0.0, 1.0, 2.0, 4.0]);
        }
    }

    /// The leaf filter against a per-entry decode-and-test, on random
    /// sorted key runs (clustered, with duplicates) and random boxes over
    /// several geometries: the same entries pass, in the same order.
    #[test]
    fn leaf_filter_keeps_exactly_what_per_entry_lemma1_keeps() {
        let data = dataset::words(300, 29);
        let dir = TempDir::new("rqa-filter");
        let cfg = SpbConfig {
            use_lemma2: false,
            ..SpbConfig::default()
        };
        let mut tree = SpbTree::build(dir.path(), &data, dataset::words_metric(), &cfg).unwrap();
        let offsets: Vec<u64> = leaf_offsets(&tree);
        let mut rng = StdRng::seed_from_u64(30);
        let geometries = [(1, 32), (2, 16), (3, 32), (5, 6), (9, 14), (16, 7)];
        for (kind, (dims, bits)) in CURVES.into_iter().flat_map(|k| geometries.map(|g| (k, g))) {
            tree.curve = Sfc::new(kind, dims, bits);
            let c = tree.curve;
            for case in 0..200 {
                let base = rng.gen_range(0..c.cell_count());
                let spread = rng.gen_range(0..=dims as u32 * bits);
                let mut keys: Vec<u128> = (0..rng.gen_range(0..40))
                    .map(|_| base ^ (rng.gen_range(0..c.cell_count()) & ((1u128 << spread) - 1)))
                    .collect();
                let dups: Vec<u128> = keys.iter().filter(|_| rng.gen_bool(0.2)).copied().collect();
                keys.extend(dups);
                keys.sort_unstable();
                let offs: Vec<u64> = (0..keys.len())
                    .map(|i| offsets[i % offsets.len()])
                    .collect();
                // A box around the base cell, sometimes the whole grid.
                let centre = c.decode(base);
                let reach = |rng: &mut StdRng| rng.gen_range(0..=c.max_coord() / 4);
                let lo: Vec<u32> = centre
                    .iter()
                    .map(|&x| x.saturating_sub(reach(&mut rng)))
                    .collect();
                let hi: Vec<u32> = centre
                    .iter()
                    .map(|&x| x.saturating_add(reach(&mut rng)).min(c.max_coord()))
                    .collect();
                let rr = GridBox::new(lo, hi);
                let want: Vec<u64> = (keys.iter().zip(&offs))
                    .filter(|&(&k, _)| rr.contains_point(&c.decode(k)))
                    .map(|(_, &off)| off)
                    .collect();
                let mut col = tree.collector();
                let mut got = Vec::new();
                let mut run = RangeRun {
                    q: &data[0],
                    q_phi: &[],
                    r: f64::INFINITY,
                    rr: &rr,
                    col: &mut col,
                    sink: &mut got,
                    cell_buf: vec![0; dims],
                };
                tree.range_leaf(&mut run, &keys, &offs).unwrap();
                let want: Vec<u32> = want
                    .iter()
                    .map(|&off| tree.fetch_traced(off, &mut col).unwrap().0)
                    .collect();
                let got: Vec<u32> = got.iter().map(|&(id, _)| id).collect();
                assert_eq!(got, want, "{kind:?} {dims}x{bits} case {case}");
            }
        }
    }

    /// The RAF offsets of every leaf entry.
    fn leaf_offsets<O: MetricObject, D: Distance<O>>(tree: &SpbTree<O, D>) -> Vec<u64> {
        let (lo, hi) = (0, u128::MAX);
        tree.btree()
            .scan_range(lo, hi)
            .unwrap()
            .into_iter()
            .map(|(_, v)| v)
            .collect()
    }

    #[test]
    fn whole_space_radius_returns_everything() {
        let data = dataset::words(200, 26);
        let dir = TempDir::new("rqa-all");
        let tree = SpbTree::build(
            dir.path(),
            &data,
            dataset::words_metric(),
            &SpbConfig::default(),
        )
        .unwrap();
        let (hits, _) = tree.range(&data[0], 34.0).unwrap();
        assert_eq!(hits.len(), 200);
    }

    #[test]
    fn pivots_prune_distance_computations() {
        // The index exists to compute far fewer distances than a scan.
        let data = dataset::color(2000, 27);
        let dir = TempDir::new("rqa-prune");
        let tree = SpbTree::build(
            dir.path(),
            &data,
            dataset::color_metric(),
            &SpbConfig::default(),
        )
        .unwrap();
        let (_, stats) = tree.range(&data[0], 0.05).unwrap();
        assert!(
            stats.compdists < 400,
            "expected strong pruning, got {} compdists",
            stats.compdists
        );
    }

    #[test]
    fn count_matches_range_result_size() {
        let data = dataset::words(600, 121);
        let metric = dataset::words_metric();
        let dir = TempDir::new("count-match");
        let tree = SpbTree::build(dir.path(), &data, metric, &SpbConfig::default()).unwrap();
        for q in data.iter().take(6) {
            for r in [0.0, 1.0, 3.0, 8.0] {
                let (hits, _) = tree.range(q, r).unwrap();
                let (count, _) = tree.range_count(q, r).unwrap();
                assert_eq!(count as usize, hits.len(), "r={r}");
            }
        }
    }

    #[test]
    fn counting_never_costs_more_io_than_materialising() {
        let data = dataset::words(2000, 122);
        let dir = TempDir::new("count-io");
        let tree = SpbTree::build(
            dir.path(),
            &data,
            dataset::words_metric(),
            &SpbConfig::default(),
        )
        .unwrap();
        let q = &data[0];
        // A generous radius makes Lemma 2 fire for objects near pivots.
        let r = 20.0;
        tree.flush_caches();
        let (_, full) = tree.range(q, r).unwrap();
        tree.flush_caches();
        let (_, cnt) = tree.range_count(q, r).unwrap();
        assert!(cnt.page_accesses <= full.page_accesses);
        assert!(cnt.compdists <= full.compdists);
    }

    #[test]
    fn lemma2_skips_fetches_in_count_queries() {
        // Query at a pivot with a huge radius: every object within r − 0
        // of the pivot is Lemma-2-countable without an RAF access.
        let data = dataset::words(2000, 123);
        let dir = TempDir::new("count-l2");
        let tree = SpbTree::build(
            dir.path(),
            &data,
            dataset::words_metric(),
            &SpbConfig::default(),
        )
        .unwrap();
        let pivot = tree.table().pivots()[0].clone();
        let r = tree.table().d_plus(); // covers everything
        tree.flush_caches();
        let (count, stats) = tree.range_count(&pivot, r).unwrap();
        assert_eq!(count, 2000);
        // Everything is accepted by Lemma 2 (d(o,p) <= r - 0): the RAF is
        // never touched and no object distances are computed.
        assert_eq!(stats.raf_pa, 0, "Lemma 2 must skip all RAF accesses");
        assert_eq!(stats.compdists, tree.table().num_pivots() as u64);
    }

    #[test]
    fn empty_tree_counts_zero() {
        let data = dataset::words(1, 124);
        let dir = TempDir::new("count-one");
        let tree = SpbTree::build(
            dir.path(),
            &data,
            dataset::words_metric(),
            &SpbConfig::default(),
        )
        .unwrap();
        let (_, _) = tree.delete(&data[0]).unwrap();
        let (count, _) = tree.range_count(&data[0], 34.0).unwrap();
        assert_eq!(count, 0);
    }
}
