//! RQA — the Range Query Algorithm (Algorithm 1).
//!
//! A range query `RQ(q, O, r)` maps to the *mapped range region*
//! `RR(q, r)` (Lemma 1): only objects whose mapped vectors fall inside it
//! can qualify. The traversal prunes B⁺-tree subtrees whose MBBs miss
//! `RR`, and per-object verification uses three tiers, cheapest first:
//!
//! 1. **Lemma 1** — discard when `φ(o) ∉ RR(q, r)` (decode the key; no
//!    distance computation, no RAF access);
//! 2. **Lemma 2** — accept without computing `d(q, o)` when some pivot
//!    `pᵢ` has `d(o, pᵢ) ≤ r − d(q, pᵢ)` (the object's whole pivot ball
//!    lies inside the query ball);
//! 3. otherwise fetch the object and compute `d(q, o)`.
//!
//! Leaf processing follows the paper's three-way split (lines 11–23): if
//! the leaf's MBB is contained in `RR` the Lemma-1 check is skipped; if the
//! intersected region holds fewer cells than the leaf has entries, the
//! cells' SFC values are enumerated and merge-joined against the leaf
//! (avoiding per-entry decode); otherwise every entry is checked.
//!
//! Every member of the range family — `range`, the contracted
//! (approximate) range, `range_count`, and learned positioning in both
//! its regimes — is that one pipeline, `range_run`, with two seams. The
//! *leaf source* decides which leaves are read and in what order
//! (`classic_leaves`, `learned_leaves`); the *sink* decides what an
//! accepted candidate costs (collect `(id, O)`, or count). Between them
//! there is one leaf routine (`range_leaf`), one merge-join
//! (`merge_leaf`) and one `verify_rq`.

use std::collections::BTreeMap;
use std::io;

use spb_bptree::{LeafNode, Node};
use spb_metric::{Distance, MetricObject};
use spb_sfc::{GridBox, SfcValue};

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
    /// Decoded grid cell of the entry under verification (one
    /// allocation per query, not per entry).
    cell_buf: Vec<u32>,
}

/// Cell budget for the learned enumeration path: when `RR(q, r)` holds at
/// most this many cells, every candidate SFC value is located directly
/// through the PLA model instead of scanning the leaf directory.
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
        // Sorted SFC values of the cell-merge paths, reused across leaves
        // (outside `run`: the merge reads them while `run` is written to).
        let mut svals = Vec::new();
        if let Some(model) = self.accel_model_for_query(pos) {
            if self.learned_leaves(&mut run, &model, &mut svals)? {
                return Ok(());
            }
            // A window miss or a directory/page mismatch: restart
            // classically, keeping the pages already charged to `col`.
            spb_accel::metrics::model_fallback().incr();
            run.sink.reset();
        }
        self.classic_leaves(&mut run, &mut svals)
    }

    /// Leaf source: classic right-to-left depth-first descent, pruning
    /// subtrees whose MBB misses `RR`.
    fn classic_leaves<S: RangeSink<O>>(
        &self,
        run: &mut RangeRun<'_, O, S>,
        svals: &mut Vec<SfcValue>,
    ) -> io::Result<()> {
        let Some(root) = self.btree.root_page() else {
            return Ok(());
        };
        let ops = *self.btree.ops();
        // The root has no parent entry carrying its MBB; compute it lazily.
        let root_node = self.read_node_traced(root, run.col)?;
        let Some(root_mbb) = self.btree.node_mbb(&root_node) else {
            return Ok(());
        };
        let mut stack: Vec<(Node, GridBox)> = vec![(root_node, ops.to_box(root_mbb))];
        while let Some((node, mbb)) = stack.pop() {
            match node {
                Node::Internal(n) => {
                    for e in &n.entries {
                        let child_box = ops.to_box(e.mbb);
                        if child_box.intersects(run.rr) {
                            stack.push((self.read_node_traced(e.child, run.col)?, child_box));
                        }
                    }
                }
                Node::Leaf(leaf) => self.range_leaf(run, &leaf, &mbb, svals)?,
            }
        }
        Ok(())
    }

    /// Leaf source: the persisted leaf directory replaces every
    /// inner-node read. Two regimes:
    ///
    /// - **Enumeration** (small `RR`): enumerate `RR`'s SFC values once
    ///   and locate each through the PLA model — only leaves whose key
    ///   range holds a candidate value are read at all (a strictly
    ///   stronger prune than MBB intersection), and each is handed its
    ///   values for the merge-join.
    /// - **Directory scan** (large `RR`): walk the in-memory directory,
    ///   reading exactly the leaves whose MBB intersects `RR` — the
    ///   same leaves classic descent reads, minus the internal pages.
    ///
    /// Leaves are visited in descending key order and entries in
    /// ascending order, matching classic right-to-left DFS, so results
    /// are byte-identical to [`classic_leaves`](Self::classic_leaves).
    /// `Ok(false)` means the model did not hold (a window miss, or a
    /// directory page that is not a leaf) and the caller must restart.
    fn learned_leaves<S: RangeSink<O>>(
        &self,
        run: &mut RangeRun<'_, O, S>,
        model: &spb_accel::LeafModel,
        svals: &mut Vec<SfcValue>,
    ) -> io::Result<bool> {
        let leaves = model.leaves();
        if self.use_cell_merge && !leaves.is_empty() && run.rr.cell_count() <= LEARNED_ENUM_CELLS {
            run.rr.sfc_values_sorted_into(&self.curve, svals);
            let mut by_leaf: BTreeMap<usize, Vec<SfcValue>> = BTreeMap::new();
            for &s in svals.iter() {
                match model.locate(s) {
                    spb_accel::Located::Run(first, last) => {
                        for leaf in first..=last {
                            by_leaf.entry(leaf).or_default().push(s);
                        }
                    }
                    spb_accel::Located::Absent => {}
                    spb_accel::Located::Miss => return Ok(false),
                }
            }
            // Descending leaf order (classic emission order); each leaf's
            // values were pushed, and stay, ascending.
            for (&leaf_idx, leaf_svals) in by_leaf.iter().rev() {
                let Some(entry) = leaves.get(leaf_idx) else {
                    continue;
                };
                let node = self.read_node_traced(spb_storage::PageId(entry.page), run.col)?;
                let Node::Leaf(leaf) = node else {
                    return Ok(false);
                };
                self.merge_leaf(run, &leaf, leaf_svals)?;
            }
            return Ok(true);
        }
        let ops = *self.btree.ops();
        for entry in leaves.iter().rev() {
            let mbb = ops.to_box(spb_bptree::Mbb {
                lo: entry.mbb_lo,
                hi: entry.mbb_hi,
            });
            if !mbb.intersects(run.rr) {
                continue;
            }
            let node = self.read_node_traced(spb_storage::PageId(entry.page), run.col)?;
            let Node::Leaf(leaf) = node else {
                return Ok(false);
            };
            self.range_leaf(run, &leaf, &mbb, svals)?;
        }
        Ok(true)
    }

    /// The paper's three-way leaf split (Algorithm 1 lines 11–23) for a
    /// leaf whose MBB intersects `RR`.
    fn range_leaf<S: RangeSink<O>>(
        &self,
        run: &mut RangeRun<'_, O, S>,
        leaf: &LeafNode,
        mbb: &GridBox,
        svals: &mut Vec<SfcValue>,
    ) -> io::Result<()> {
        // MBB(N) ⊆ RR: Lemma 1 holds for every entry.
        let contained = run.rr.contains_box(mbb);
        if !contained && self.use_cell_merge {
            let inter = mbb.intersection(run.rr);
            if let Some(inter) = inter.filter(|i| i.cell_count() < leaf.keys.len() as u128) {
                // Fewer cells than entries: enumerate the intersected
                // region's SFC values and merge with the leaf.
                inter.sfc_values_sorted_into(&self.curve, svals);
                return self.merge_leaf(run, leaf, svals);
            }
        }
        for (&key, &off) in leaf.keys.iter().zip(&leaf.values) {
            self.verify_rq(run, key, off, !contained)?;
        }
        Ok(())
    }

    /// Merge-joins ascending SFC values, every one of them inside `RR`,
    /// against a leaf's sorted entries: entries between the values are
    /// skipped undecoded and Lemma 1 holds for every match.
    fn merge_leaf<S: RangeSink<O>>(
        &self,
        run: &mut RangeRun<'_, O, S>,
        leaf: &LeafNode,
        svals: &[SfcValue],
    ) -> io::Result<()> {
        let mut si = 0usize;
        let mut ei = 0usize;
        while si < svals.len() && ei < leaf.keys.len() {
            match leaf.keys[ei].cmp(&svals[si]) {
                std::cmp::Ordering::Equal => {
                    self.verify_rq(run, leaf.keys[ei], leaf.values[ei], false)?;
                    ei += 1; // same SFC value may repeat in the leaf
                }
                std::cmp::Ordering::Greater => si += 1,
                std::cmp::Ordering::Less => ei += 1,
            }
        }
        Ok(())
    }

    /// The paper's `VerifyRQ(e, flag)` (Algorithm 1 lines 25–29).
    fn verify_rq<S: RangeSink<O>>(
        &self,
        run: &mut RangeRun<'_, O, S>,
        key: u128,
        offset: u64,
        check_rr: bool,
    ) -> io::Result<()> {
        self.curve.decode_into(key, &mut run.cell_buf);
        // Lemma 1 (only when the caller could not already guarantee it).
        if check_rr && !run.rr.contains_point(&run.cell_buf) {
            return Ok(());
        }
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
    use crate::config::SpbConfig;
    use crate::tree::SpbTree;
    use spb_metric::{dataset, Distance, MetricObject};
    use spb_sfc::CurveKind;
    use spb_storage::TempDir;

    fn brute_range<O: MetricObject, D: Distance<O>>(
        data: &[O],
        metric: &D,
        q: &O,
        r: f64,
    ) -> Vec<u32> {
        let mut ids: Vec<u32> = data
            .iter()
            .enumerate()
            .filter(|(_, o)| metric.distance(q, o) <= r)
            .map(|(i, _)| i as u32)
            .collect();
        ids.sort_unstable();
        ids
    }

    fn check_against_bruteforce<O: MetricObject, D: Distance<O> + Clone>(
        data: Vec<O>,
        metric: D,
        radii: &[f64],
        curve: CurveKind,
    ) {
        let dir = TempDir::new("rqa");
        let cfg = SpbConfig {
            curve,
            ..SpbConfig::default()
        };
        let tree = SpbTree::build(dir.path(), &data, metric.clone(), &cfg).unwrap();
        for (qi, q) in data.iter().take(8).enumerate() {
            for &r in radii {
                let (hits, stats) = tree.range(q, r).unwrap();
                let mut got: Vec<u32> = hits.iter().map(|&(id, _)| id).collect();
                got.sort_unstable();
                let want = brute_range(&data, &metric, q, r);
                assert_eq!(got, want, "query {qi}, r={r}");
                assert!(stats.compdists <= data.len() as u64 + 8);
            }
        }
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
