//! The two-stage mapping of Section 3.1: pivot mapping then SFC mapping.
//!
//! Stage 1 ([`PivotTable`]): an object `o` becomes the vector
//! `φ(o) = ⟨d(o, p₁), …, d(o, p_|P|)⟩`; by the triangle inequality the `L∞`
//! distance between mapped vectors lower-bounds the metric distance.
//!
//! Stage 2 (δ-approximation + SFC): each coordinate is discretised to the
//! grid cell `⌊d(o, pᵢ)/δ⌋` and the cell is encoded as a one-dimensional
//! SFC value — the B⁺-tree key.
//!
//! [`SfcMbbOps`] closes the loop: it teaches the B⁺-tree how to union the
//! SFC-encoded MBB corners it stores (decode → coordinate-wise min/max →
//! encode).

use std::io::{self, Read, Write};
use std::path::Path;

use spb_bptree::{Mbb, MbbOps};
use spb_metric::{Distance, MetricObject};
use spb_sfc::{CurveKind, GridBox, Sfc};

/// The pivot table plus the δ-approximation geometry.
#[derive(Clone, Debug)]
pub struct PivotTable<O> {
    pivots: Vec<O>,
    delta: f64,
    bits: u32,
    d_plus: f64,
    discrete: bool,
}

impl<O: MetricObject> PivotTable<O> {
    /// Builds a table from chosen pivot objects.
    ///
    /// `delta = None` selects the default granularity: `1.0` for discrete
    /// metrics, `d⁺/512` otherwise. The per-dimension bit width is derived
    /// from `⌈log₂(⌊d⁺/δ⌋ + 1)⌉` and clamped so `|P| · bits ≤ 127`
    /// (widening δ if necessary).
    pub fn new<D: Distance<O>>(pivots: Vec<O>, metric: &D, delta: Option<f64>) -> Self {
        assert!(!pivots.is_empty(), "at least one pivot is required");
        let d_plus = metric.max_distance();
        assert!(d_plus > 0.0, "max_distance must be positive");
        let discrete = metric.is_discrete();
        let mut delta = delta.unwrap_or(if discrete { 1.0 } else { d_plus / 512.0 });
        assert!(delta > 0.0, "delta must be positive");

        let cells_needed = |d: f64| (d_plus / d).floor() as u64 + 1;
        let mut bits = 64 - (cells_needed(delta) - 1).max(1).leading_zeros();
        bits = bits.max(1);
        let max_bits = (127 / pivots.len() as u32).clamp(1, 32);
        if bits > max_bits {
            bits = max_bits;
            // Widen δ so the grid fits: d⁺/δ ≤ 2^bits − 1.
            let side = (1u64 << bits) - 1;
            delta = delta.max(d_plus / side as f64 + f64::EPSILON);
        }
        PivotTable {
            pivots,
            delta,
            bits,
            d_plus,
            discrete,
        }
    }

    /// The pivot objects.
    pub fn pivots(&self) -> &[O] {
        &self.pivots
    }

    /// `|P|`.
    pub fn num_pivots(&self) -> usize {
        self.pivots.len()
    }

    /// The δ granularity in use.
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// Bits per grid dimension.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// `d⁺` of the metric space.
    pub fn d_plus(&self) -> f64 {
        self.d_plus
    }

    /// Whether the metric's range is discrete integers (δ-approximation is
    /// then exact).
    pub fn is_discrete(&self) -> bool {
        self.discrete
    }

    /// Largest valid grid coordinate.
    pub fn max_coord(&self) -> u32 {
        if self.bits == 32 {
            u32::MAX
        } else {
            (1u32 << self.bits) - 1
        }
    }

    /// An [`Sfc`] over this table's grid.
    pub fn curve(&self, kind: CurveKind) -> Sfc {
        Sfc::new(kind, self.num_pivots(), self.bits)
    }

    /// Stage-1 mapping: `φ(o)` — costs exactly `|P|` distance
    /// computations.
    pub fn phi<D: Distance<O>>(&self, metric: &D, o: &O) -> Vec<f64> {
        self.pivots.iter().map(|p| metric.distance(o, p)).collect()
    }

    /// Discretises a mapped vector to its grid cell. A distance at or
    /// beyond `max_coord()·δ` lands in the top cell, which is open-ended.
    pub fn cell_of_phi(&self, phi: &[f64]) -> Vec<u32> {
        phi.iter()
            .map(|&d| ((d / self.delta).floor() as i64).clamp(0, self.max_coord() as i64) as u32)
            .collect()
    }

    /// Smallest metric distance to pivot `i` an object in cell coordinate
    /// `c` can have.
    pub(crate) fn cell_dist_lo(&self, c: u32) -> f64 {
        c as f64 * self.delta
    }

    /// Largest metric distance to pivot `i` an object in cell coordinate
    /// `c` can have (`c·δ` exactly for discrete metrics; the open upper
    /// edge `(c+1)·δ` otherwise; unbounded for the top cell, which holds
    /// every distance the grid cannot reach).
    pub(crate) fn cell_dist_hi(&self, c: u32) -> f64 {
        if c == self.max_coord() {
            f64::INFINITY
        } else if self.discrete {
            c as f64 * self.delta
        } else {
            (c + 1) as f64 * self.delta
        }
    }

    /// The mapped range region `RR(q, r)` of Lemma 1, as grid cells.
    /// For discrete metrics the lower edge is tight (`⌈(d−r)/δ⌉`: cells
    /// are exact distances); for continuous metrics it is the conservative
    /// `⌊(d−r)/δ⌋` (an object anywhere inside the edge cell may qualify).
    /// A lower edge above the grid clamps to the open-ended top cell.
    /// `None` when the region falls outside the grid entirely (impossible
    /// for r ≥ 0, kept for robustness).
    pub fn rr_cells(&self, q_phi: &[f64], r: f64) -> Option<GridBox> {
        let lo: Vec<i64> = q_phi
            .iter()
            .map(|&d| {
                let edge = (d - r) / self.delta;
                let cell = if self.discrete {
                    edge.ceil()
                } else {
                    edge.floor()
                };
                (cell as i64).clamp(0, self.max_coord() as i64)
            })
            .collect();
        let hi: Vec<i64> = q_phi
            .iter()
            .map(|&d| ((d + r) / self.delta).floor() as i64)
            .collect();
        GridBox::from_clamped(&lo, &hi, self.max_coord())
    }

    /// Conservative half-width, in cells, of the join window: objects whose
    /// cells differ by more than this in any dimension cannot be within ε
    /// (Lemma 6's `minRR`/`maxRR` corners use it).
    pub(crate) fn cell_radius(&self, eps: f64) -> u32 {
        let k = (eps / self.delta).floor() as u32;
        if self.discrete {
            k
        } else {
            k + 1
        }
    }

    /// Lower bound on `d(q, o)` for an object known only by its grid cell —
    /// the leaf-entry `MIND` of Lemma 3, in metric units.
    pub fn mind_cell(&self, q_phi: &[f64], cell: &[u32]) -> f64 {
        let mut best = 0.0f64;
        for (&d, &c) in q_phi.iter().zip(cell) {
            let lo = self.cell_dist_lo(c);
            let hi = self.cell_dist_hi(c);
            let gap = if d < lo {
                lo - d
            } else if d > hi {
                d - hi
            } else {
                0.0
            };
            best = best.max(gap);
        }
        best
    }

    /// Lower bound on `d(q, o)` for any object inside an MBB — the
    /// node-level `MIND(q, E)` of Lemma 3, in metric units.
    pub(crate) fn mind_box(&self, q_phi: &[f64], bx: &GridBox) -> f64 {
        let mut best = 0.0f64;
        for ((&d, &l), &h) in q_phi.iter().zip(bx.lo()).zip(bx.hi()) {
            let lo = self.cell_dist_lo(l);
            let hi = self.cell_dist_hi(h);
            let gap = if d < lo {
                lo - d
            } else if d > hi {
                d - hi
            } else {
                0.0
            };
            best = best.max(gap);
        }
        best
    }

    // ------------------------------------------------------------------
    // Persistence.
    // ------------------------------------------------------------------

    /// Serialises the table to `path`.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        let mut buf: Vec<u8> = Vec::new();
        buf.extend_from_slice(b"SPBPIVT1");
        buf.extend_from_slice(&(self.pivots.len() as u32).to_le_bytes());
        buf.extend_from_slice(&self.delta.to_le_bytes());
        buf.extend_from_slice(&self.bits.to_le_bytes());
        buf.extend_from_slice(&self.d_plus.to_le_bytes());
        buf.push(self.discrete as u8);
        for p in &self.pivots {
            let bytes = p.encoded();
            buf.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
            buf.extend_from_slice(&bytes);
        }
        std::fs::File::create(path)?.write_all(&buf)
    }

    /// Loads a table previously written by [`save`](Self::save).
    pub fn load(path: &Path) -> io::Result<Self> {
        let mut bytes = Vec::new();
        std::fs::File::open(path)?.read_to_end(&mut bytes)?;
        let err = |m: &str| io::Error::new(io::ErrorKind::InvalidData, m.to_owned());
        if bytes.len() < 33 || &bytes[..8] != b"SPBPIVT1" {
            return Err(err("not an SPB pivot table"));
        }
        let rd_u32 = |o: usize| <[u8; 4]>::try_from(&bytes[o..o + 4]).map_or(0, u32::from_le_bytes);
        let rd_f64 =
            |o: usize| <[u8; 8]>::try_from(&bytes[o..o + 8]).map_or(0.0, f64::from_le_bytes);
        let n = rd_u32(8) as usize;
        let delta = rd_f64(12);
        let bits = rd_u32(20);
        let d_plus = rd_f64(24);
        let discrete = bytes[32] != 0;
        // What `new` establishes and `Sfc::new` asserts. The pivot count
        // is bounded before anything is allocated for it.
        let grid_ok = (1..=16).contains(&n) && (1..=32).contains(&bits) && n as u32 * bits <= 127;
        let positive = |x: f64| x > 0.0 && x.is_finite();
        if !grid_ok || !positive(delta) || !positive(d_plus) {
            return Err(err("corrupt pivot table header"));
        }
        let mut off = 33;
        let mut pivots = Vec::with_capacity(n);
        for _ in 0..n {
            if off + 4 > bytes.len() {
                return Err(err("truncated pivot table"));
            }
            let len = rd_u32(off) as usize;
            off += 4;
            if len > bytes.len() - off {
                return Err(err("truncated pivot table"));
            }
            let pivot = O::try_decode(&bytes[off..off + len]);
            pivots.push(pivot.ok_or_else(|| err("pivot does not decode"))?);
            off += len;
        }
        Ok(PivotTable {
            pivots,
            delta,
            bits,
            d_plus,
            discrete,
        })
    }
}

/// MBB algebra over SFC-encoded corners, injected into the B⁺-tree.
#[derive(Clone, Copy, Debug)]
pub struct SfcMbbOps {
    curve: Sfc,
}

impl SfcMbbOps {
    /// Ops for one curve geometry.
    pub fn new(curve: Sfc) -> Self {
        SfcMbbOps { curve }
    }

    /// The curve in use.
    pub fn curve(&self) -> &Sfc {
        &self.curve
    }

    /// Decodes an MBB's SFC corners into a grid box.
    pub(crate) fn to_box(self, mbb: Mbb) -> GridBox {
        GridBox::new(self.curve.decode(mbb.lo), self.curve.decode(mbb.hi))
    }
}

impl MbbOps for SfcMbbOps {
    fn union(&self, a: Mbb, b: Mbb) -> Mbb {
        let (alo, ahi) = (self.curve.decode(a.lo), self.curve.decode(a.hi));
        let (blo, bhi) = (self.curve.decode(b.lo), self.curve.decode(b.hi));
        let lo: Vec<u32> = alo.iter().zip(&blo).map(|(x, y)| *x.min(y)).collect();
        let hi: Vec<u32> = ahi.iter().zip(&bhi).map(|(x, y)| *x.max(y)).collect();
        Mbb {
            lo: self.curve.encode(&lo),
            hi: self.curve.encode(&hi),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spb_metric::{dataset, EditDistance, LpNorm, Word};
    use spb_storage::TempDir;

    #[test]
    fn discrete_metric_gets_unit_delta() {
        let pivots = vec![Word::new("abc"), Word::new("zzz")];
        let t = PivotTable::new(pivots, &EditDistance::default(), None);
        assert_eq!(t.delta(), 1.0);
        assert!(t.is_discrete());
        // 34 max distance → 35 cells → 6 bits.
        assert_eq!(t.bits(), 6);
        assert_eq!(t.max_coord(), 63);
    }

    #[test]
    fn continuous_metric_gets_fractional_delta() {
        let data = dataset::color(10, 1);
        let m = dataset::color_metric();
        let t = PivotTable::new(data[..3].to_vec(), &m, None);
        assert!(!t.is_discrete());
        assert!(t.delta() > 0.0 && t.delta() < 0.01);
        assert!(t.bits() >= 9);
    }

    #[test]
    fn bit_budget_is_enforced() {
        let data = dataset::color(12, 2);
        let m = dataset::color_metric();
        // 9 pivots with a tiny delta must still fit 127 bits.
        let t = PivotTable::new(data[..9].to_vec(), &m, Some(1e-9));
        assert!(9 * t.bits() <= 127);
        // delta was widened to fit the clamped grid.
        assert!(t.d_plus() / t.delta() <= (1u64 << t.bits()) as f64);
    }

    #[test]
    fn phi_and_cells_are_consistent() {
        let words = dataset::words(100, 3);
        let m = EditDistance::default();
        let t = PivotTable::new(words[..3].to_vec(), &m, None);
        for w in &words[..20] {
            let phi = t.phi(&m, w);
            assert_eq!(phi.len(), 3);
            let cell = t.cell_of_phi(&phi);
            for (&d, &c) in phi.iter().zip(&cell) {
                assert!(t.cell_dist_lo(c) <= d && d <= t.cell_dist_hi(c) + 1e-12);
            }
        }
    }

    #[test]
    fn mind_lower_bounds_true_distance() {
        // The invariant behind Lemmas 3–4: MIND over the query's φ and an
        // object's cell never exceeds the true metric distance.
        let data = dataset::synthetic(200, 4);
        let m = dataset::synthetic_metric();
        let t = PivotTable::new(data[..5].to_vec(), &m, None);
        let q = &data[100];
        let q_phi = t.phi(&m, q);
        for o in &data[..100] {
            let cell = t.cell_of_phi(&t.phi(&m, o));
            let mind = t.mind_cell(&q_phi, &cell);
            let d = m.distance(q, o);
            assert!(mind <= d + 1e-9, "MIND {mind} exceeds true distance {d}");
        }
    }

    #[test]
    fn rr_contains_all_range_results() {
        // Lemma 1: every object within distance r of q maps into RR(q, r).
        let data = dataset::words(300, 5);
        let m = EditDistance::default();
        let t = PivotTable::new(
            vec![data[0].clone(), data[1].clone(), data[2].clone()],
            &m,
            None,
        );
        let q = &data[50];
        let q_phi = t.phi(&m, q);
        let r = 3.0;
        let rr = t.rr_cells(&q_phi, r).expect("RR exists");
        for o in &data {
            if m.distance(q, o) <= r {
                let cell = t.cell_of_phi(&t.phi(&m, o));
                assert!(rr.contains_point(&cell), "Lemma 1 violated for {o:?}");
            }
        }
    }

    #[test]
    fn save_load_roundtrip() {
        let dir = TempDir::new("pivtab");
        let path = dir.path().join("p.tbl");
        let words = dataset::words(10, 6);
        let m = EditDistance::default();
        let t = PivotTable::new(words[..4].to_vec(), &m, None);
        t.save(&path).unwrap();
        let u: PivotTable<Word> = PivotTable::load(&path).unwrap();
        assert_eq!(u.pivots(), t.pivots());
        assert_eq!(u.delta(), t.delta());
        assert_eq!(u.bits(), t.bits());
        assert_eq!(u.d_plus(), t.d_plus());
        assert_eq!(u.is_discrete(), t.is_discrete());
    }

    #[test]
    fn sfc_mbb_union_covers_both() {
        let curve = Sfc::hilbert(3, 4);
        let ops = SfcMbbOps::new(curve);
        let mbb = |lo: [u32; 3], hi: [u32; 3]| Mbb {
            lo: curve.encode(&lo),
            hi: curve.encode(&hi),
        };
        let a = mbb([1, 2, 3], [4, 5, 6]);
        let b = mbb([0, 7, 2], [2, 9, 4]);
        let u = ops.to_box(ops.union(a, b));
        assert_eq!(u, GridBox::new(vec![0, 2, 2], vec![4, 9, 6]));
    }

    #[test]
    fn cell_radius_is_conservative() {
        let m = LpNorm::l2(4);
        let pivots = dataset::synthetic(3, 7)
            .into_iter()
            .map(|v| spb_metric::FloatVec::new(v.coords()[..4].to_vec()))
            .collect::<Vec<_>>();
        let t = PivotTable::new(pivots, &m, Some(0.01));
        let eps = 0.05;
        let k = t.cell_radius(eps);
        // Two distances within eps must land within k cells of each other.
        for d1 in [0.0f64, 0.013, 0.5, 1.33] {
            let d2 = d1 + eps;
            let c1 = (d1 / t.delta()).floor() as i64;
            let c2 = (d2 / t.delta()).floor() as i64;
            assert!((c2 - c1).unsigned_abs() as u32 <= k);
        }
    }
}
