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

use std::io;

use spb_bptree::Node;
use spb_metric::{Distance, MetricObject};
use spb_sfc::{GridBox, SfcValue};

use crate::plan::{QueryPlan, QueryShape};
use crate::stats::StatsCollector;
use crate::tree::{QueryStats, SpbTree};

/// Per-query scratch buffers, hoisted out of the traversal so visiting
/// many leaves reuses two allocations instead of allocating per leaf.
pub(crate) struct RangeScratch {
    /// Decoded grid cell of the entry under verification.
    cell_buf: Vec<u32>,
    /// Sorted SFC values of `RR ∩ MBB` for the cell-merge leaf path.
    svals: Vec<SfcValue>,
}

impl RangeScratch {
    fn new(num_pivots: usize) -> Self {
        RangeScratch {
            cell_buf: vec![0u32; num_pivots],
            svals: Vec::new(),
        }
    }
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
        let _guard = self.latch_shared();
        let mut col = self.collector();
        let result = self.range_exec(q, r, 1.0, pos, &mut col)?;
        Ok((result, col.finish()))
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
        let _guard = self.latch_shared();
        let mut col = self.collector();
        let approx = self.range_exec(q, r, contraction, spb_accel::Positioning::Auto, &mut col)?;
        let mut stats = col.finish();
        let mut exact_col = self.collector();
        let exact = self.range_exec(q, r, 1.0, spb_accel::Positioning::Auto, &mut exact_col)?;
        let exact_ids: Vec<u32> = exact.iter().map(|&(id, _)| id).collect();
        let approx_ids: Vec<u32> = approx.iter().map(|&(id, _)| id).collect();
        let rec = spb_accel::recall(&exact_ids, &approx_ids);
        spb_accel::metrics::record_recall(rec);
        stats.recall = Some(rec);
        Ok((approx, stats))
    }

    /// Shared body of the exact/approximate range variants: the pruning
    /// region is built from the contracted radius, while Lemma 2 and the
    /// final distance check keep the true radius `r` (precision is never
    /// sacrificed, only recall). The caller holds the read latch.
    pub(crate) fn range_exec(
        &self,
        q: &O,
        r: f64,
        contraction: f64,
        pos: spb_accel::Positioning,
        col: &mut StatsCollector,
    ) -> io::Result<Vec<(u32, O)>> {
        let mut result = Vec::new();
        if !self.is_empty() && r >= 0.0 {
            let q_phi = self.phi_traced(col, q);
            let prune_r = if contraction < 1.0 {
                r * contraction
            } else {
                r
            };
            if let Some(rr) = self.table.rr_cells(&q_phi, prune_r) {
                match self.accel_model_for_query(pos) {
                    Some(model) => {
                        self.range_learned(q, &q_phi, r, &rr, &model, col, &mut result)?;
                    }
                    None => self.range_traverse(q, &q_phi, r, &rr, col, &mut result)?,
                }
            }
        }
        Ok(result)
    }

    fn range_traverse(
        &self,
        q: &O,
        q_phi: &[f64],
        r: f64,
        rr: &GridBox,
        col: &mut StatsCollector,
        result: &mut Vec<(u32, O)>,
    ) -> io::Result<()> {
        let Some(root) = self.btree.root_page() else {
            return Ok(());
        };
        let ops = *self.btree.ops();
        // The root has no parent entry carrying its MBB; compute it lazily.
        let root_node = self.read_node_traced(root, col)?;
        let Some(root_mbb) = self.btree.node_mbb(&root_node) else {
            return Ok(());
        };
        let mut stack: Vec<(Node, GridBox)> = vec![(root_node, ops.to_box(root_mbb))];

        let mut scratch = RangeScratch::new(self.table.num_pivots());
        while let Some((node, mbb)) = stack.pop() {
            match node {
                Node::Internal(n) => {
                    for e in &n.entries {
                        let child_box = ops.to_box(e.mbb);
                        if child_box.intersects(rr) {
                            stack.push((self.read_node_traced(e.child, col)?, child_box));
                        }
                    }
                }
                Node::Leaf(leaf) => {
                    self.range_leaf(q, q_phi, r, rr, &leaf, &mbb, col, &mut scratch, result)?;
                }
            }
        }
        Ok(())
    }

    /// The paper's three-way leaf split (Algorithm 1 lines 11–23),
    /// shared by classic descent and the learned directory scan.
    #[allow(clippy::too_many_arguments)]
    fn range_leaf(
        &self,
        q: &O,
        q_phi: &[f64],
        r: f64,
        rr: &GridBox,
        leaf: &spb_bptree::LeafNode,
        mbb: &GridBox,
        col: &mut StatsCollector,
        scratch: &mut RangeScratch,
        result: &mut Vec<(u32, O)>,
    ) -> io::Result<()> {
        if rr.contains_box(mbb) {
            // MBB(N) ⊆ RR: Lemma 1 holds for every entry.
            for (&key, &off) in leaf.keys.iter().zip(&leaf.values) {
                self.verify_rq(
                    q,
                    q_phi,
                    r,
                    rr,
                    key,
                    off,
                    false,
                    col,
                    &mut scratch.cell_buf,
                    result,
                )?;
            }
        } else {
            let inter = mbb.intersection(rr).expect("pushed nodes intersect RR");
            if self.use_cell_merge && inter.cell_count() < leaf.keys.len() as u128 {
                // Enumerate the intersected region's SFC values
                // and merge with the (sorted) leaf entries.
                inter.sfc_values_sorted_into(&self.curve, &mut scratch.svals);
                let svals = &scratch.svals;
                let mut si = 0usize;
                let mut ei = 0usize;
                while si < svals.len() && ei < leaf.keys.len() {
                    if leaf.keys[ei] == svals[si] {
                        self.verify_rq(
                            q,
                            q_phi,
                            r,
                            rr,
                            leaf.keys[ei],
                            leaf.values[ei],
                            false,
                            col,
                            &mut scratch.cell_buf,
                            result,
                        )?;
                        ei += 1; // same SFC value may repeat in the leaf
                    } else if leaf.keys[ei] > svals[si] {
                        si += 1;
                    } else {
                        ei += 1;
                    }
                }
            } else {
                for (&key, &off) in leaf.keys.iter().zip(&leaf.values) {
                    self.verify_rq(
                        q,
                        q_phi,
                        r,
                        rr,
                        key,
                        off,
                        true,
                        col,
                        &mut scratch.cell_buf,
                        result,
                    )?;
                }
            }
        }
        Ok(())
    }

    /// Learned-positioning range traversal: the persisted leaf directory
    /// replaces every inner-node read. Two regimes:
    ///
    /// - **Enumeration** (small `RR`): enumerate `RR`'s SFC values once
    ///   and locate each through the PLA model — only leaves whose key
    ///   range holds a candidate value are read at all (a strictly
    ///   stronger prune than MBB intersection).
    /// - **Directory scan** (large `RR`): walk the in-memory directory,
    ///   reading exactly the leaves whose MBB intersects `RR` — the
    ///   same leaves classic descent reads, minus the internal pages.
    ///
    /// Leaves are visited in descending key order and entries in
    /// ascending order, matching classic right-to-left DFS, so results
    /// are byte-identical to [`range_traverse`](Self::range_traverse).
    /// Any window miss or directory/page mismatch restarts classically.
    #[allow(clippy::too_many_arguments)]
    fn range_learned(
        &self,
        q: &O,
        q_phi: &[f64],
        r: f64,
        rr: &GridBox,
        model: &spb_accel::LeafModel,
        col: &mut StatsCollector,
        result: &mut Vec<(u32, O)>,
    ) -> io::Result<()> {
        let ops = *self.btree.ops();
        let leaves = model.leaves();
        let mut scratch = RangeScratch::new(self.table.num_pivots());
        if self.use_cell_merge && !leaves.is_empty() && rr.cell_count() <= LEARNED_ENUM_CELLS {
            let mut svals: Vec<SfcValue> = Vec::new();
            rr.sfc_values_sorted_into(&self.curve, &mut svals);
            let mut pairs: Vec<(usize, SfcValue)> = Vec::new();
            for &s in &svals {
                match model.locate(s) {
                    spb_accel::Located::Run(first, last) => {
                        for leaf in first..=last {
                            pairs.push((leaf, s));
                        }
                    }
                    spb_accel::Located::Absent => {}
                    spb_accel::Located::Miss => {
                        spb_accel::metrics::model_fallback().incr();
                        result.clear();
                        return self.range_traverse(q, q_phi, r, rr, col, result);
                    }
                }
            }
            // Stable sort: descending leaf order (classic emission
            // order), preserving each leaf's ascending SFC values.
            pairs.sort_by_key(|&(leaf, _)| std::cmp::Reverse(leaf));
            let mut i = 0usize;
            while i < pairs.len() {
                let leaf_idx = pairs[i].0;
                let mut j = i;
                while j < pairs.len() && pairs[j].0 == leaf_idx {
                    j += 1;
                }
                let group = &pairs[i..j];
                i = j;
                let Some(entry) = leaves.get(leaf_idx) else {
                    continue;
                };
                let node = self.read_node_traced(spb_storage::PageId(entry.page), col)?;
                let Node::Leaf(leaf) = node else {
                    spb_accel::metrics::model_fallback().incr();
                    result.clear();
                    return self.range_traverse(q, q_phi, r, rr, col, result);
                };
                let mut si = 0usize;
                let mut ei = 0usize;
                while si < group.len() && ei < leaf.keys.len() {
                    if leaf.keys[ei] == group[si].1 {
                        self.verify_rq(
                            q,
                            q_phi,
                            r,
                            rr,
                            leaf.keys[ei],
                            leaf.values[ei],
                            false,
                            col,
                            &mut scratch.cell_buf,
                            result,
                        )?;
                        ei += 1;
                    } else if leaf.keys[ei] > group[si].1 {
                        si += 1;
                    } else {
                        ei += 1;
                    }
                }
            }
            return Ok(());
        }
        for entry in leaves.iter().rev() {
            let mbb = ops.to_box(spb_bptree::Mbb {
                lo: entry.mbb_lo,
                hi: entry.mbb_hi,
            });
            if !mbb.intersects(rr) {
                continue;
            }
            let node = self.read_node_traced(spb_storage::PageId(entry.page), col)?;
            let Node::Leaf(leaf) = node else {
                spb_accel::metrics::model_fallback().incr();
                result.clear();
                return self.range_traverse(q, q_phi, r, rr, col, result);
            };
            self.range_leaf(q, q_phi, r, rr, &leaf, &mbb, col, &mut scratch, result)?;
        }
        Ok(())
    }

    /// The paper's `VerifyRQ(e, flag)` (Algorithm 1 lines 25–29).
    #[allow(clippy::too_many_arguments)]
    fn verify_rq(
        &self,
        q: &O,
        q_phi: &[f64],
        r: f64,
        rr: &GridBox,
        key: u128,
        offset: u64,
        check_rr: bool,
        col: &mut StatsCollector,
        cell_buf: &mut [u32],
        result: &mut Vec<(u32, O)>,
    ) -> io::Result<()> {
        self.curve.decode_into(key, cell_buf);
        // Lemma 1 (only when the caller could not already guarantee it).
        if check_rr && !rr.contains_point(cell_buf) {
            return Ok(());
        }
        // Lemma 2: accept without a distance computation when the object's
        // ball around some pivot is inside the query ball. The object still
        // has to be fetched — it is part of the result.
        let lemma2 = self.use_lemma2
            && q_phi
                .iter()
                .zip(cell_buf.iter())
                .any(|(&dq, &c)| self.table.cell_dist_hi(c) <= r - dq);
        let (id, o) = self.fetch_traced(offset, col)?;
        if lemma2 {
            result.push((id, o));
            return Ok(());
        }
        if self.dist_traced(col, q, &o) <= r {
            result.push((id, o));
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
}
