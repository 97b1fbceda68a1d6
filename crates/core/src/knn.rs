//! NNA — the kNN Query Algorithm (Algorithm 2).
//!
//! Best-first traversal over the B⁺-tree in ascending `MIND(q, E)` — the
//! `L∞` lower-bound distance between the mapped query point and an entry's
//! MBB (node entries) or grid cell (leaf entries). Lemma 3 prunes entries
//! with `MIND > curND_k`; by Lemma 4 the traversal verifies exactly the
//! objects inside the closed ball `RR(q, ND_k)`. (The paper prunes the
//! boundary too; we keep it so equal-distance candidates resolve to a
//! *canonical* result set — smallest ids among ties — which the
//! distributed router in `spb-cluster` needs to merge per-shard answers
//! deterministically.)
//!
//! Two traversal strategies reproduce Table 5:
//!
//! * [`Traversal::Incremental`] — objects enter the priority queue
//!   individually and are verified in globally ascending MIND order
//!   (fewest distance computations; RAF access order can ping-pong);
//! * [`Traversal::Greedy`] — when a leaf is visited, its qualifying
//!   objects are verified immediately (sequential RAF access at the cost
//!   of some extra distance computations; the paper's default for DNA).

use std::cmp::Ordering as CmpOrdering;
use std::collections::BinaryHeap;
use std::io;

use spb_bptree::Node;
use spb_metric::{Distance, MetricObject};

use crate::plan::{QueryPlan, QueryShape};
use crate::stats::StatsCollector;
use crate::tree::{QueryStats, SpbTree};

#[cfg(test)]
thread_local! {
    /// Bits of the `alpha` the most recent `knn_locked` call on this
    /// thread ran with (what the α-round-trip regression test reads).
    pub(crate) static LAST_ALPHA_BITS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// kNN traversal strategy (Section 4.3, Table 5).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Traversal {
    /// Verify objects in globally ascending `MIND` order.
    Incremental,
    /// Verify each leaf's qualifying objects as the leaf is visited.
    Greedy,
}

/// Priority-queue item: a node or a single object, keyed by MIND.
struct HeapItem {
    mind: f64,
    kind: ItemKind,
}

enum ItemKind {
    Node(spb_storage::PageId),
    Object { offset: u64 },
}

impl PartialEq for HeapItem {
    fn eq(&self, other: &Self) -> bool {
        self.mind == other.mind
    }
}
impl Eq for HeapItem {}
impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        // Reverse: BinaryHeap is a max-heap, we need min-MIND first.
        other.mind.total_cmp(&self.mind)
    }
}

/// Result-set item for the k-best max-heap, ordered by `(dist, id)` so
/// the heap's worst element — and therefore which of several equal
/// k-th-distance candidates survives — is deterministic: among boundary
/// ties the smallest ids win, independent of traversal arrival order.
/// `spb-cluster` relies on this canonical set to merge per-shard answers
/// into results byte-identical to a single node's.
struct Best<O> {
    dist: f64,
    id: u32,
    obj: O,
}

impl<O> PartialEq for Best<O> {
    fn eq(&self, other: &Self) -> bool {
        self.dist == other.dist && self.id == other.id
    }
}
impl<O> Eq for Best<O> {}
impl<O> PartialOrd for Best<O> {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}
impl<O> Ord for Best<O> {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        self.dist
            .total_cmp(&other.dist)
            .then(self.id.cmp(&other.id))
    }
}

/// A kNN result: `(id, object, distance)` triples plus query stats.
pub type KnnResult<O> = io::Result<(Vec<(u32, O, f64)>, QueryStats)>;

impl<O: MetricObject, D: Distance<O>> SpbTree<O, D> {
    /// `kNN(q, k)` with the default incremental traversal (Definition 3).
    /// Returns `(id, object, distance)` triples in ascending distance
    /// order; fewer than `k` only when the index holds fewer objects.
    pub fn knn(&self, q: &O, k: usize) -> KnnResult<O> {
        self.knn_with(q, k, Traversal::Incremental)
    }

    /// `kNN(q, k)` with an explicit traversal strategy.
    pub fn knn_with(&self, q: &O, k: usize, traversal: Traversal) -> KnnResult<O> {
        self.knn_full(q, k, traversal, 1.0, spb_accel::Positioning::Auto)
    }

    /// α-approximate `kNN(q, k)` (`alpha ≥ 1`): the traversal terminates
    /// once `α · MIND(q, E) ≥ curND_k`, so every returned distance is at
    /// most `α` times the true k-th NN distance. `alpha = 1` is exact
    /// (Lemma 3); larger values trade accuracy for fewer distance
    /// computations and page accesses — the standard contract of
    /// approximate metric search (cf. the M-Index's approximate mode).
    ///
    /// An `alpha` below 1 (or non-finite) is an `InvalidInput` error.
    pub fn knn_approx(&self, q: &O, k: usize, alpha: f64) -> KnnResult<O> {
        let alpha = QueryPlan::new(QueryShape::Knn { k }, Some(alpha))?.factor();
        self.knn_full(
            q,
            k,
            Traversal::Incremental,
            alpha,
            spb_accel::Positioning::Auto,
        )
    }

    /// [`knn`](SpbTree::knn) with an explicit positioning choice
    /// (classic descent vs learned leaf positioning). Byte-identical
    /// results either way; only the traversal cost differs.
    pub fn knn_positioned(&self, q: &O, k: usize, pos: spb_accel::Positioning) -> KnnResult<O> {
        self.knn_full(q, k, Traversal::Incremental, 1.0, pos)
    }

    /// [`knn_approx`](SpbTree::knn_approx) plus a recall measurement
    /// against the exact answer (run with a separate collector, so the
    /// returned stats reflect the approximate query's cost alone). Sets
    /// `QueryStats::recall` and the `accel.recall_permille` gauge.
    pub fn knn_approx_measured(&self, q: &O, k: usize, alpha: f64) -> KnnResult<O> {
        let alpha = QueryPlan::new(QueryShape::Knn { k }, Some(alpha))?.factor();
        self.measured(
            alpha,
            |nn: &(u32, O, f64)| nn.0,
            |factor, col| {
                let pos = spb_accel::Positioning::Auto;
                self.knn_locked(q, k, Traversal::Incremental, factor, pos, col)
            },
        )
    }

    /// Auto-tunes `alpha` to meet `target` recall for `k`-NN queries
    /// over a sample, walking the ladder from most to least aggressive;
    /// the ladder ends at the exact `alpha = 1`, so any target ≤ 1 is
    /// eventually met.
    pub fn tune_knn_alpha(
        &self,
        sample: &[O],
        k: usize,
        target: f64,
    ) -> io::Result<spb_accel::Tuned> {
        let mut err = None;
        let tuned = spb_accel::tune(&spb_accel::ALPHA_LADDER, target, |alpha| {
            let mut sum = 0.0;
            let mut n = 0u32;
            for q in sample {
                match self.knn_approx_measured(q, k, alpha) {
                    Ok((_, stats)) => {
                        sum += stats.recall.unwrap_or(1.0);
                        n += 1;
                    }
                    Err(e) => {
                        err = Some(e);
                        return 0.0;
                    }
                }
            }
            if n == 0 {
                1.0
            } else {
                sum / f64::from(n)
            }
        });
        match err {
            Some(e) => Err(e),
            None => {
                spb_accel::metrics::record_recall(tuned.achieved);
                Ok(tuned)
            }
        }
    }

    fn knn_full(
        &self,
        q: &O,
        k: usize,
        traversal: Traversal,
        alpha: f64,
        pos: spb_accel::Positioning,
    ) -> KnnResult<O> {
        let _guard = self.latch_shared()?;
        let mut col = self.collector();
        let out = self.knn_locked(q, k, traversal, alpha, pos, &mut col)?;
        Ok((out, col.finish()))
    }

    /// The kNN body. The caller holds the read latch (directly or via a
    /// batch) and owns the per-query collector.
    pub(crate) fn knn_locked(
        &self,
        q: &O,
        k: usize,
        traversal: Traversal,
        alpha: f64,
        pos: spb_accel::Positioning,
        col: &mut StatsCollector,
    ) -> io::Result<Vec<(u32, O, f64)>> {
        #[cfg(test)]
        LAST_ALPHA_BITS.with(|bits| bits.set(alpha.to_bits()));
        let mut best: BinaryHeap<Best<O>> = BinaryHeap::new();
        if k > 0 && !self.is_empty() {
            let q_phi = self.phi_traced(col, q);
            let ops = *self.btree.ops();
            // Seed the frontier: classic starts at the root; learned
            // positioning seeds every leaf from the in-memory directory
            // (each at its true MIND), skipping all inner-node reads.
            // The best-first loop and the canonical (distance, id)
            // result set are unchanged, so both seeds produce
            // byte-identical answers.
            let mut heap: BinaryHeap<HeapItem> = BinaryHeap::new();
            match self.accel_model_for_query(pos) {
                Some(model) => {
                    for e in model.leaves() {
                        let mbb = spb_bptree::Mbb {
                            lo: e.mbb_lo,
                            hi: e.mbb_hi,
                        };
                        heap.push(HeapItem {
                            mind: self.table.mind_box(&q_phi, &ops.to_box(mbb)),
                            kind: ItemKind::Node(spb_storage::PageId(e.page)),
                        });
                    }
                }
                None => {
                    if let Some(root) = self.btree.root_page() {
                        heap.push(HeapItem {
                            mind: 0.0,
                            kind: ItemKind::Node(root),
                        });
                    }
                }
            }
            self.knn_traverse(q, &q_phi, k, traversal, alpha, heap, col, &mut best)?;
        }
        let mut out: Vec<(u32, O, f64)> = best
            .into_sorted_vec()
            .into_iter()
            .map(|b| (b.id, b.obj, b.dist))
            .collect();
        // into_sorted_vec is ascending by dist already; keep ids stable for
        // ties by distance then id.
        out.sort_by(|a, b| a.2.total_cmp(&b.2).then(a.0.cmp(&b.0)));
        Ok(out)
    }

    #[allow(clippy::too_many_arguments)]
    fn knn_traverse(
        &self,
        q: &O,
        q_phi: &[f64],
        k: usize,
        traversal: Traversal,
        alpha: f64,
        mut heap: BinaryHeap<HeapItem>,
        col: &mut StatsCollector,
        best: &mut BinaryHeap<Best<O>>,
    ) -> io::Result<()> {
        let ops = *self.btree.ops();
        let cur_nd = |best: &BinaryHeap<Best<O>>| {
            if best.len() < k {
                f64::INFINITY
            } else {
                best.peek().map_or(f64::INFINITY, |b| b.dist)
            }
        };
        let mut cell_buf = vec![0u32; self.table.num_pivots()];

        while let Some(item) = heap.pop() {
            // Lemma 3 early termination (α-relaxed): the frontier's lower
            // bound already exceeds the current k-th NN distance. Strictly
            // greater, not ≥: an entry whose bound *ties* curND_k can still
            // hold an equal-distance object with a smaller id, which the
            // canonical (distance, id) result set must keep.
            if item.mind * alpha > cur_nd(best) {
                break;
            }
            match item.kind {
                ItemKind::Node(page) => match self.read_node_traced(page, col)? {
                    Node::Internal(n) => {
                        for e in &n.entries {
                            let mind = self.table.mind_box(q_phi, &ops.to_box(e.mbb));
                            if mind * alpha <= cur_nd(best) {
                                heap.push(HeapItem {
                                    mind,
                                    kind: ItemKind::Node(e.child),
                                });
                            }
                        }
                    }
                    Node::Leaf(leaf) => {
                        for (&key, &off) in leaf.keys.iter().zip(&leaf.values) {
                            self.curve.decode_into(key, &mut cell_buf);
                            let mind = self.table.mind_cell(q_phi, &cell_buf);
                            if mind * alpha > cur_nd(best) {
                                continue;
                            }
                            match traversal {
                                Traversal::Incremental => heap.push(HeapItem {
                                    mind,
                                    kind: ItemKind::Object { offset: off },
                                }),
                                Traversal::Greedy => {
                                    self.verify_knn(q, k, off, col, best)?;
                                }
                            }
                        }
                    }
                },
                ItemKind::Object { offset } => {
                    self.verify_knn(q, k, offset, col, best)?;
                }
            }
        }
        Ok(())
    }

    fn verify_knn(
        &self,
        q: &O,
        k: usize,
        offset: u64,
        col: &mut StatsCollector,
        best: &mut BinaryHeap<Best<O>>,
    ) -> io::Result<()> {
        let (id, o) = self.fetch_traced(offset, col)?;
        let d = self.dist_traced(col, q, &o);
        if best.len() < k {
            best.push(Best {
                dist: d,
                id,
                obj: o,
            });
        } else if let Some(worst) = best.peek() {
            // Replace on a strictly better (distance, id) pair — the same
            // canonical order the heap uses — so boundary ties resolve to
            // the smallest ids no matter the verification order.
            if d < worst.dist || (d == worst.dist && id < worst.id) {
                best.pop();
                best.push(Best {
                    dist: d,
                    id,
                    obj: o,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::Traversal;
    use crate::config::SpbConfig;
    use crate::tree::SpbTree;
    use spb_metric::{dataset, Distance, MetricObject};
    use spb_storage::TempDir;

    /// Brute-force k-th NN distance (handles ties: any valid kNN set has
    /// exactly this multiset of distances).
    fn brute_knn_dists<O: MetricObject, D: Distance<O>>(
        data: &[O],
        metric: &D,
        q: &O,
        k: usize,
    ) -> Vec<f64> {
        let mut d: Vec<f64> = data.iter().map(|o| metric.distance(q, o)).collect();
        d.sort_by(f64::total_cmp);
        d.truncate(k);
        d
    }

    fn check<O: MetricObject, D: Distance<O> + Clone>(data: Vec<O>, metric: D, ks: &[usize]) {
        let dir = TempDir::new("nna");
        let tree =
            SpbTree::build(dir.path(), &data, metric.clone(), &SpbConfig::default()).unwrap();
        for q in data.iter().take(6) {
            for &k in ks {
                for traversal in [Traversal::Incremental, Traversal::Greedy] {
                    let (nn, _) = tree.knn_with(q, k, traversal).unwrap();
                    let got: Vec<f64> = nn.iter().map(|&(_, _, d)| d).collect();
                    let want = brute_knn_dists(&data, &metric, q, k);
                    assert_eq!(got.len(), want.len().min(data.len()));
                    for (g, w) in got.iter().zip(&want) {
                        assert!(
                            (g - w).abs() < 1e-9,
                            "{traversal:?} k={k}: got {got:?} want {want:?}"
                        );
                    }
                    // Distances are self-consistent with the returned objects.
                    for (_, o, d) in &nn {
                        assert!((metric.distance(q, o) - d).abs() < 1e-12);
                    }
                }
            }
        }
    }

    #[test]
    fn nna_matches_bruteforce_words() {
        check(dataset::words(600, 31), dataset::words_metric(), &[1, 4, 8]);
    }

    #[test]
    fn nna_matches_bruteforce_color() {
        check(
            dataset::color(500, 32),
            dataset::color_metric(),
            &[1, 8, 16],
        );
    }

    #[test]
    fn nna_matches_bruteforce_signature() {
        check(
            dataset::signature(400, 33),
            dataset::signature_metric(),
            &[2, 8],
        );
    }

    #[test]
    fn k_larger_than_dataset_returns_all() {
        let data = dataset::words(50, 34);
        let dir = TempDir::new("nna-all");
        let tree = SpbTree::build(
            dir.path(),
            &data,
            dataset::words_metric(),
            &SpbConfig::default(),
        )
        .unwrap();
        let (nn, _) = tree.knn(&data[0], 100).unwrap();
        assert_eq!(nn.len(), 50);
    }

    #[test]
    fn k_zero_is_empty() {
        let data = dataset::words(50, 35);
        let dir = TempDir::new("nna-zero");
        let tree = SpbTree::build(
            dir.path(),
            &data,
            dataset::words_metric(),
            &SpbConfig::default(),
        )
        .unwrap();
        let (nn, stats) = tree.knn(&data[0], 0).unwrap();
        assert!(nn.is_empty());
        assert_eq!(stats.compdists, 0);
    }

    #[test]
    fn first_neighbour_of_indexed_query_is_itself() {
        let data = dataset::color(300, 36);
        let dir = TempDir::new("nna-self");
        let tree = SpbTree::build(
            dir.path(),
            &data,
            dataset::color_metric(),
            &SpbConfig::default(),
        )
        .unwrap();
        let (nn, _) = tree.knn(&data[7], 1).unwrap();
        assert_eq!(nn[0].2, 0.0);
    }

    #[test]
    fn approx_knn_respects_alpha_contract() {
        let data = dataset::color(1500, 38);
        let dir = TempDir::new("nna-approx");
        let tree = SpbTree::build(
            dir.path(),
            &data,
            dataset::color_metric(),
            &SpbConfig::default(),
        )
        .unwrap();
        for q in data.iter().take(6) {
            let (exact, _) = tree.knn(q, 8).unwrap();
            let true_ndk = exact.last().unwrap().2;
            for alpha in [1.0, 1.5, 3.0] {
                let (approx, _) = tree.knn_approx(q, 8, alpha).unwrap();
                assert_eq!(approx.len(), 8);
                for &(_, _, d) in &approx {
                    assert!(
                        d <= alpha * true_ndk + 1e-9,
                        "alpha={alpha}: {d} > {alpha} * {true_ndk}"
                    );
                }
            }
            // alpha = 1 must be exact.
            let (a1, _) = tree.knn_approx(q, 8, 1.0).unwrap();
            for (x, y) in a1.iter().zip(&exact) {
                assert!((x.2 - y.2).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn approx_knn_reduces_work() {
        let data = dataset::words(2000, 39);
        let dir = TempDir::new("nna-approx-cost");
        let tree = SpbTree::build(
            dir.path(),
            &data,
            dataset::words_metric(),
            &SpbConfig::default(),
        )
        .unwrap();
        let mut exact_cd = 0u64;
        let mut approx_cd = 0u64;
        for q in data.iter().take(10) {
            tree.flush_caches();
            let (_, e) = tree.knn(q, 8).unwrap();
            tree.flush_caches();
            let (_, a) = tree.knn_approx(q, 8, 2.0).unwrap();
            exact_cd += e.compdists;
            approx_cd += a.compdists;
        }
        assert!(
            approx_cd < exact_cd,
            "alpha=2 must compute fewer distances: {approx_cd} vs {exact_cd}"
        );
    }

    #[test]
    fn incremental_never_computes_more_distances_than_greedy() {
        // Lemma 4: the incremental strategy is optimal in compdists.
        let data = dataset::words(800, 37);
        let dir = TempDir::new("nna-cmp");
        let tree = SpbTree::build(
            dir.path(),
            &data,
            dataset::words_metric(),
            &SpbConfig::default(),
        )
        .unwrap();
        for q in data.iter().take(5) {
            tree.flush_caches();
            let (_, inc) = tree.knn_with(q, 8, Traversal::Incremental).unwrap();
            tree.flush_caches();
            let (_, gre) = tree.knn_with(q, 8, Traversal::Greedy).unwrap();
            assert!(
                inc.compdists <= gre.compdists,
                "incremental {} > greedy {}",
                inc.compdists,
                gre.compdists
            );
        }
    }
}
