//! Cost models for similarity queries and joins (Sections 4.4 and 5.3).
//!
//! The models estimate the two query cost components:
//!
//! * **EDC** — the expected number of distance computations (eq. 3 for
//!   range queries, eq. 5 feeding eq. 3 for kNN, eq. 7 for joins);
//! * **EPA** — the expected number of page accesses (eq. 6 for similarity
//!   queries, eq. 8 for joins).
//!
//! The statistics behind them are gathered for free during construction,
//! when every `d(o, pᵢ)` is computed anyway: per-pivot distance histograms
//! (`F_pᵢ`, eq. 1) and a reservoir sample of mapped vectors representing
//! the *union distance distribution* (`F(r₁,…,r_|P|)`, eq. 2), plus an
//! in-memory mirror of all node MBBs for the `Σ I(Mᵢ)` term of eq. 6.
//!
//! `Pr(φ(o) ∈ RR(q, r))` is computed both directly (count sample vectors
//! inside the box) and via the paper's inclusion–exclusion expansion of the
//! joint CDF (eq. 4); tests assert the two agree.

use std::io;
use std::sync::{Mutex, MutexGuard};

use spb_bptree::{BPlusTree, Mbb};
use spb_metric::{DistanceHistogram, MetricObject};
use spb_storage::Raf;

use crate::mapping::{PivotTable, SfcMbbOps};

/// Buckets per per-pivot distance histogram (eq. 1).
const HISTOGRAM_BUCKETS: usize = 256;
/// Mapped vectors retained for the union distance distribution (eq. 2).
const COST_SAMPLE: usize = 2000;

/// An estimated query cost.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostEstimate {
    /// Estimated number of distance computations (EDC).
    pub compdists: f64,
    /// Estimated number of page accesses (EPA).
    pub page_accesses: f64,
}

impl CostEstimate {
    /// The paper's accuracy measure: `1 − |actual − estimated| / actual`
    /// (Figs. 15–18). Returns 1.0 when both are zero.
    pub fn accuracy(actual: f64, estimated: f64) -> f64 {
        if actual == 0.0 {
            return if estimated == 0.0 { 1.0 } else { 0.0 };
        }
        1.0 - (actual - estimated).abs() / actual
    }
}

/// One step of a 64-bit LCG (Knuth's MMIX constants) — the deterministic
/// randomness source for the reservoir (no RNG dependency, reproducible).
fn lcg(x: u64) -> u64 {
    x.wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407)
}

struct Inner {
    /// Per-pivot distance distributions `F_pᵢ` (eq. 1).
    hists: Vec<DistanceHistogram>,
    /// Sampled mapped vectors — the union distance distribution (eq. 2).
    sample: Vec<Vec<f64>>,
    /// Objects indexed.
    num_objects: u64,
    /// Insertions seen since construction (drives reservoir replacement).
    seen: u64,
}

/// The cost model attached to one SPB-tree.
pub struct CostModel {
    inner: Mutex<Inner>,
    /// Node MBBs in metric units: `(lo, hi)` per node, where an object in
    /// the node has `d(o, pᵢ) ∈ [loᵢ, hiᵢ]`.
    node_boxes: Vec<(Vec<f64>, Vec<f64>)>,
    /// Average objects per RAF page (`f` of eqs. 6 and 8).
    objects_per_page: f64,
    /// B⁺-tree leaf pages (`|SPB|` of eq. 8).
    leaf_pages: u64,
    num_pivots: usize,
    d_plus: f64,
    /// Mean pivot-set precision (Definition 1) measured on a small pair
    /// sample at construction; calibrates the query-sensitive `eND_k`.
    precision: f64,
    /// δ-approximation granularity: the model counts candidates by grid
    /// cell, exactly as the algorithms do (the paper's "−1" in eq. 4).
    delta: f64,
    /// Whether the metric is discrete (tight cell lower edges).
    discrete: bool,
}

impl CostModel {
    /// Gathers the model during construction. `phis` iterates the mapped
    /// vector of every indexed object (already computed by the build).
    pub(crate) fn from_build<'a, O: MetricObject>(
        table: &PivotTable<O>,
        phis: impl Iterator<Item = &'a [f64]>,
        btree: &BPlusTree<SfcMbbOps>,
        raf: &Raf,
        precision: f64,
    ) -> io::Result<Self> {
        let p = table.num_pivots();
        let mut hists: Vec<DistanceHistogram> = (0..p)
            .map(|_| {
                DistanceHistogram::new(table.d_plus().max(f64::MIN_POSITIVE), HISTOGRAM_BUCKETS)
            })
            .collect();
        let mut sample: Vec<Vec<f64>> = Vec::with_capacity(COST_SAMPLE);
        let mut n: u64 = 0;
        let mut rng_state: u64 = 0x5bb5_c0de;
        for phi in phis {
            for (h, &d) in hists.iter_mut().zip(phi) {
                h.record(d);
            }
            // Reservoir sampling (Algorithm R) with a deterministic LCG:
            // the φ stream arrives in SFC order, so anything short of a
            // uniform reservoir would be spatially biased and skew every
            // Pr(φ(o) ∈ RR) estimate.
            if sample.len() < COST_SAMPLE {
                sample.push(phi.to_vec());
            } else {
                rng_state = lcg(rng_state);
                let j = (rng_state >> 16) % (n + 1);
                if (j as usize) < COST_SAMPLE {
                    sample[j as usize] = phi.to_vec();
                }
            }
            n += 1;
        }

        // In-memory MBB mirror, converted to metric units once.
        let ops = *btree.ops();
        let to_metric = |mbb: Mbb| {
            let bx = ops.to_box(mbb);
            let lo: Vec<f64> = bx.lo().iter().map(|&c| table.cell_dist_lo(c)).collect();
            let hi: Vec<f64> = bx.hi().iter().map(|&c| table.cell_dist_hi(c)).collect();
            (lo, hi)
        };
        let node_boxes: Vec<(Vec<f64>, Vec<f64>)> =
            btree.all_node_mbbs()?.into_iter().map(to_metric).collect();

        Ok(CostModel {
            inner: Mutex::new(Inner {
                hists,
                sample,
                num_objects: n,
                seen: n,
            }),
            node_boxes,
            objects_per_page: raf.objects_per_page(n.max(1)),
            leaf_pages: btree.num_leaf_pages()?,
            num_pivots: p,
            d_plus: table.d_plus(),
            precision: precision.clamp(0.05, 1.0),
            delta: table.delta(),
            discrete: table.is_discrete(),
        })
    }

    /// The statistics. The lock is poisoned only if a panic interrupted
    /// an update, and a half-updated model is not to be trusted.
    #[allow(clippy::expect_used)]
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().expect("cost model lock")
    }

    /// Keeps the statistics current across insertions.
    pub(crate) fn record_insert(&self, phi: &[f64]) {
        let mut inner = self.lock();
        for (h, &d) in inner.hists.iter_mut().zip(phi) {
            h.record(d);
        }
        inner.num_objects += 1;
        inner.seen += 1;
        if inner.sample.len() < COST_SAMPLE {
            inner.sample.push(phi.to_vec());
        } else {
            // Continue the deterministic reservoir over insertions.
            let j = (lcg(inner.seen.wrapping_mul(0x9e37_79b9)) >> 16) % inner.seen;
            if (j as usize) < COST_SAMPLE {
                inner.sample[j as usize] = phi.to_vec();
            }
        }
    }

    /// Notes one deletion. Histograms keep the deleted observation (they
    /// are statistical, and removal from a histogram is ill-posed); only
    /// the object count shrinks, which is what the EDC formulas scale by.
    pub(crate) fn record_delete(&self) {
        let mut inner = self.lock();
        inner.num_objects = inner.num_objects.saturating_sub(1);
    }

    /// Number of objects the model currently describes.
    pub fn num_objects(&self) -> u64 {
        self.lock().num_objects
    }

    /// `f`: average objects per RAF page.
    pub fn objects_per_page(&self) -> f64 {
        self.objects_per_page
    }

    /// `Pr(φ(o) ∈ RR(q, r))` by direct counting over the vector sample,
    /// at the δ-cell granularity the query algorithms verify at: an object
    /// is a candidate iff its grid cell intersects the rounded region
    /// `[⌊(d(q,pᵢ)−r)/δ⌋, ⌊(d(q,pᵢ)+r)/δ⌋]` — the paper's integer
    /// formulation of eq. 4 (`lᵢ = d(q,pᵢ) − r − 1`).
    pub(crate) fn prob_in_rr(&self, q_phi: &[f64], r: f64) -> f64 {
        let inner = self.lock();
        if inner.sample.is_empty() {
            return 0.0;
        }
        let delta = self.delta;
        let discrete = self.discrete;
        let hits = inner
            .sample
            .iter()
            .filter(|phi| {
                phi.iter().zip(q_phi).all(|(&d, &qd)| {
                    let cell = (d / delta).floor();
                    let edge = (qd - r) / delta;
                    let lo = if discrete { edge.ceil() } else { edge.floor() }.max(0.0);
                    let hi = ((qd + r) / delta).floor();
                    cell >= lo && cell <= hi
                })
            })
            .count();
        hits as f64 / inner.sample.len() as f64
    }

    /// EDC and EPA for a range query `RQ(q, O, r)` (eqs. 3, 4 and 6).
    pub fn estimate_range(&self, q_phi: &[f64], r: f64) -> CostEstimate {
        let n = self.num_objects() as f64;
        let prob = self.prob_in_rr(q_phi, r);
        let edc = self.num_pivots as f64 + n * prob;
        let touched_nodes = self
            .node_boxes
            .iter()
            .filter(|(lo, hi)| {
                lo.iter()
                    .zip(hi)
                    .zip(q_phi)
                    .all(|((&l, &h), &qd)| l <= qd + r && h >= qd - r)
            })
            .count() as f64;
        CostEstimate {
            compdists: edc,
            page_accesses: touched_nodes + edc / self.objects_per_page,
        }
    }

    /// The estimated k-th NN distance `eND_k`.
    ///
    /// Query-sensitive estimator: invert the union distance distribution —
    /// find the smallest `r` whose mapped range region is expected to hold
    /// `k` objects (`|O| · Pr(φ(o) ∈ RR(q, r)) ≥ k`, the count the EDC
    /// model itself uses), then divide by the pivot-set precision to map
    /// the lower-bound radius back to metric units. This refines eq. 5:
    /// the paper's `F_q ≈ F_pᵢ` homogeneity assumption (kept as
    /// [`estimate_nd_k_homogeneous`](Self::estimate_nd_k_homogeneous))
    /// misfires when pivots are hull outliers far from every query.
    pub fn estimate_nd_k(&self, q_phi: &[f64], k: u64) -> f64 {
        let n = self.num_objects();
        if n == 0 {
            return self.d_plus;
        }
        let sample_len = {
            let inner = self.lock();
            inner.sample.len().max(1)
        };
        // Binary search the smallest RR radius expected to cover k objects.
        // Requiring at least two sample hits guards against the query's own
        // vector sitting in the sample (a self-hit would drive the radius
        // to zero whenever k ≤ n / |sample|).
        let min_prob = (k as f64 / n as f64).max(2.0 / sample_len as f64);
        let (mut lo, mut hi) = (0.0f64, self.d_plus);
        for _ in 0..32 {
            let mid = 0.5 * (lo + hi);
            if self.prob_in_rr(q_phi, mid) >= min_prob {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        let query_sensitive = (hi / self.precision).min(self.d_plus);
        // Blend with the paper's eq. 5 (geometric mean): the inversion is
        // query-local but resolution-limited, eq. 5 has full resolution but
        // assumes viewpoint homogeneity; their geometric mean tracks the
        // true ND_k better than either alone across the evaluated datasets.
        let homogeneous = self.estimate_nd_k_homogeneous(q_phi, k);
        if homogeneous > 0.0 && query_sensitive > 0.0 {
            (query_sensitive * homogeneous).sqrt().min(self.d_plus)
        } else {
            query_sensitive.max(homogeneous).min(self.d_plus)
        }
    }

    /// The paper's eq. 5 verbatim: `eND_k` from the nearest pivot's
    /// distance distribution under the homogeneity-of-viewpoints
    /// assumption (`F_q ≈ F_pᵢ` for the pivot nearest to `q`).
    pub(crate) fn estimate_nd_k_homogeneous(&self, q_phi: &[f64], k: u64) -> f64 {
        let inner = self.lock();
        let nearest = q_phi
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap_or(0);
        inner.hists[nearest]
            .quantile_radius(inner.num_objects, k)
            .min(self.d_plus)
    }

    /// The calibration precision in use.
    pub fn precision(&self) -> f64 {
        self.precision
    }

    /// EDC and EPA for a kNN query (eq. 5 into eqs. 3 and 6).
    pub fn estimate_knn(&self, q_phi: &[f64], k: u64) -> CostEstimate {
        let r = self.estimate_nd_k(q_phi, k);
        self.estimate_range(q_phi, r)
    }

    /// EDC and EPA for a similarity join `SJ(Q, O, ε)` (eqs. 7 and 8).
    /// `self` models `Q`; `other` models `O`. The sum over `q ∈ Q` of
    /// eq. 7 is approximated by averaging over `Q`'s vector sample.
    pub fn estimate_join(&self, other: &CostModel, eps: f64) -> CostEstimate {
        let n_q = self.num_objects() as f64;
        let n_o = other.num_objects() as f64;
        let mean_prob = {
            let inner = self.lock();
            if inner.sample.is_empty() {
                0.0
            } else {
                // Cap the outer sample: 500 × |other sample| stays cheap.
                let take = inner.sample.len().min(500);
                let step = (inner.sample.len() / take).max(1);
                let qs: Vec<&Vec<f64>> = inner.sample.iter().step_by(step).take(take).collect();
                let total: f64 = qs.iter().map(|q| other.prob_in_rr(q, eps)).sum();
                total / qs.len() as f64
            }
        };
        let edc = n_q * n_o * mean_prob;
        let epa = self.leaf_pages as f64
            + other.leaf_pages as f64
            + n_q / self.objects_per_page
            + n_o / other.objects_per_page;
        CostEstimate {
            compdists: edc,
            page_accesses: epa,
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::config::SpbConfig;
    use crate::cost::CostEstimate;
    use crate::tree::SpbTree;
    use spb_metric::dataset;
    use spb_storage::TempDir;

    impl super::CostModel {
        /// `Pr(φ(o) ∈ RR(q, r))` via the paper's inclusion–exclusion over the
        /// joint CDF (eq. 4). Exponential in `|P|`; fine for the paper's
        /// `|P| ≤ 9`. Agrees with [`prob_in_rr`](Self::prob_in_rr) exactly —
        /// kept for fidelity to the paper and as a cross-check.
        fn prob_in_rr_incl_excl(&self, q_phi: &[f64], r: f64) -> f64 {
            let inner = self.lock();
            if inner.sample.is_empty() {
                return 0.0;
            }
            let p = self.num_pivots;
            let delta = self.delta;
            // Cell-granular region edges (the paper's integer eq. 4).
            let lo: Vec<f64> = q_phi
                .iter()
                .map(|&d| {
                    let edge = (d - r) / delta;
                    if self.discrete {
                        edge.ceil()
                    } else {
                        edge.floor()
                    }
                    .max(0.0)
                })
                .collect();
            let hi: Vec<f64> = q_phi.iter().map(|&d| ((d + r) / delta).floor()).collect();
            let mut acc = 0.0f64;
            for mask in 0u32..(1 << p) {
                // F(b₁,…,b_p) with bᵢ = lᵢ − 1 (strict below the low cell) for
                // i ∈ mask, else uᵢ (inclusive up to the high cell).
                let count = inner
                    .sample
                    .iter()
                    .filter(|phi| {
                        phi.iter().enumerate().all(|(i, &d)| {
                            let cell = (d / delta).floor();
                            if mask & (1 << i) != 0 {
                                cell < lo[i]
                            } else {
                                cell <= hi[i]
                            }
                        })
                    })
                    .count();
                let sign = if mask.count_ones() % 2 == 0 {
                    1.0
                } else {
                    -1.0
                };
                acc += sign * count as f64;
            }
            (acc / inner.sample.len() as f64).clamp(0.0, 1.0)
        }
    }

    #[test]
    fn incl_excl_equals_direct_counting() {
        let data = dataset::color(800, 61);
        let dir = TempDir::new("cost-ie");
        let tree = SpbTree::build(
            dir.path(),
            &data,
            dataset::color_metric(),
            &SpbConfig::default(),
        )
        .unwrap();
        let cm = tree.cost_model();
        for q in data.iter().take(10) {
            let q_phi = tree.table().phi(tree.metric().inner(), q);
            for r in [0.01, 0.05, 0.2, 0.8] {
                let direct = cm.prob_in_rr(&q_phi, r);
                let ie = cm.prob_in_rr_incl_excl(&q_phi, r);
                assert!(
                    (direct - ie).abs() < 1e-9,
                    "eq.4 must match direct counting: {direct} vs {ie} (r={r})"
                );
            }
        }
    }

    #[test]
    fn range_estimates_track_actuals() {
        let data = dataset::color(3000, 62);
        let dir = TempDir::new("cost-range");
        let tree = SpbTree::build(
            dir.path(),
            &data,
            dataset::color_metric(),
            &SpbConfig::default(),
        )
        .unwrap();
        let cm = tree.cost_model();
        let d_plus = tree.table().d_plus();
        let mut total_acc = 0.0;
        let mut n = 0;
        for q in data.iter().take(20) {
            let q_phi = tree.table().phi(tree.metric().inner(), q);
            let r = 0.08 * d_plus;
            let est = cm.estimate_range(&q_phi, r);
            tree.flush_caches();
            let (_, actual) = tree.range(q, r).unwrap();
            total_acc += CostEstimate::accuracy(actual.compdists as f64, est.compdists);
            n += 1;
        }
        let avg = total_acc / n as f64;
        // The paper reports > 80% average accuracy; allow slack for the
        // smaller sample sizes used in unit tests.
        assert!(avg > 0.6, "average EDC accuracy too low: {avg}");
    }

    #[test]
    fn knn_radius_estimate_is_sane() {
        let data = dataset::words(2000, 63);
        let dir = TempDir::new("cost-knn");
        let tree = SpbTree::build(
            dir.path(),
            &data,
            dataset::words_metric(),
            &SpbConfig::default(),
        )
        .unwrap();
        let cm = tree.cost_model();
        let q = &data[3];
        let q_phi = tree.table().phi(tree.metric().inner(), q);
        let r1 = cm.estimate_nd_k(&q_phi, 1);
        let r8 = cm.estimate_nd_k(&q_phi, 8);
        let r100 = cm.estimate_nd_k(&q_phi, 100);
        assert!(r1 <= r8 && r8 <= r100, "eND_k must grow with k");
        assert!(r100 <= tree.table().d_plus());
        let est = cm.estimate_knn(&q_phi, 8);
        assert!(est.compdists >= tree.table().num_pivots() as f64);
        assert!(est.page_accesses > 0.0);
    }

    #[test]
    fn join_estimate_has_both_terms() {
        let a = dataset::color(600, 64);
        let b = dataset::color(600, 65);
        let (d1, d2) = (TempDir::new("cost-j1"), TempDir::new("cost-j2"));
        let cfg = SpbConfig::for_join();
        let ta = SpbTree::build(d1.path(), &a, dataset::color_metric(), &cfg).unwrap();
        let tb = SpbTree::build_with_pivots(
            d2.path(),
            &b,
            dataset::color_metric(),
            ta.table().pivots().to_vec(),
            &cfg,
            0,
        )
        .unwrap();
        let est = ta.cost_model().estimate_join(tb.cost_model(), 0.05);
        assert!(est.compdists > 0.0);
        // EPA is at least the four fixed file-scan terms of eq. 8.
        assert!(est.page_accesses >= 4.0);
        // Larger eps can only increase EDC.
        let est2 = ta.cost_model().estimate_join(tb.cost_model(), 0.15);
        assert!(est2.compdists >= est.compdists);
    }

    #[test]
    fn accuracy_measure_definition() {
        assert_eq!(CostEstimate::accuracy(100.0, 100.0), 1.0);
        assert!((CostEstimate::accuracy(100.0, 80.0) - 0.8).abs() < 1e-12);
        assert!((CostEstimate::accuracy(100.0, 120.0) - 0.8).abs() < 1e-12);
        assert_eq!(CostEstimate::accuracy(0.0, 0.0), 1.0);
        assert_eq!(CostEstimate::accuracy(0.0, 5.0), 0.0);
    }

    #[test]
    fn model_follows_insertions() {
        let data = dataset::words(300, 66);
        let dir = TempDir::new("cost-ins");
        let tree = SpbTree::build(
            dir.path(),
            &data,
            dataset::words_metric(),
            &SpbConfig::default(),
        )
        .unwrap();
        let before = tree.cost_model().num_objects();
        let extra = dataset::words(50, 67);
        for w in &extra {
            tree.insert(w).unwrap();
        }
        assert_eq!(tree.cost_model().num_objects(), before + 50);
    }
}
