//! Axis-aligned boxes on the pivot-space grid.
//!
//! Both the *mapped range region* `RR(q, r)` of Lemma 1 and the per-node
//! MBBs stored in the B⁺-tree are axis-aligned boxes over grid
//! coordinates. [`GridBox`] implements the geometry the query algorithms
//! need: intersection and containment tests, cell enumeration in SFC order
//! (the `computeSFC` step of Algorithm 1), and the `L∞` minimum distance
//! [`mind_linf`] used by the kNN pruning rule (Lemma 3).

use crate::curve::{Sfc, SfcValue};

/// An axis-aligned box of grid cells with **inclusive** corners
/// `lo ≤ hi` per dimension.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GridBox {
    lo: Vec<u32>,
    hi: Vec<u32>,
}

impl GridBox {
    /// A box from inclusive corners.
    ///
    /// # Panics
    /// Panics if the corners have different dimensionality, are empty, or if
    /// `lo[i] > hi[i]` for some `i`.
    pub fn new(lo: Vec<u32>, hi: Vec<u32>) -> Self {
        assert_eq!(lo.len(), hi.len(), "corner dimensionality mismatch");
        assert!(!lo.is_empty(), "boxes must have at least one dimension");
        assert!(
            lo.iter().zip(&hi).all(|(l, h)| l <= h),
            "lo must not exceed hi: {lo:?} vs {hi:?}"
        );
        GridBox { lo, hi }
    }

    /// The degenerate box covering a single cell.
    pub fn point(p: &[u32]) -> Self {
        GridBox::new(p.to_vec(), p.to_vec())
    }

    /// Low (inclusive) corner.
    pub fn lo(&self) -> &[u32] {
        &self.lo
    }

    /// High (inclusive) corner.
    pub fn hi(&self) -> &[u32] {
        &self.hi
    }

    /// Dimensionality.
    pub fn dims(&self) -> usize {
        self.lo.len()
    }

    /// True iff `p` lies inside the box.
    pub fn contains_point(&self, p: &[u32]) -> bool {
        debug_assert_eq!(p.len(), self.dims());
        self.lo
            .iter()
            .zip(&self.hi)
            .zip(p)
            .all(|((l, h), c)| l <= c && c <= h)
    }

    /// True iff the boxes share at least one cell.
    pub fn intersects(&self, other: &GridBox) -> bool {
        self.lo
            .iter()
            .zip(&self.hi)
            .zip(other.lo.iter().zip(&other.hi))
            .all(|((al, ah), (bl, bh))| al <= bh && bl <= ah)
    }

    /// Number of cells in the box (inclusive corners), saturating at
    /// `u128::MAX` for astronomically large boxes.
    pub fn cell_count(&self) -> u128 {
        let mut n: u128 = 1;
        for (l, h) in self.lo.iter().zip(&self.hi) {
            let side = (*h - *l) as u128 + 1;
            n = n.saturating_mul(side);
        }
        n
    }

    /// Iterates over every cell of the box in row-major order.
    pub(crate) fn cells(&self) -> CellIter<'_> {
        CellIter {
            bx: self,
            current: Some(self.lo.clone()),
        }
    }

    /// The SFC values of every cell in the box, sorted ascending — the
    /// `computeSFC` step of Algorithm 1 (lines 14–15). The caller is
    /// responsible for only invoking this on small boxes (learned
    /// positioning enumerates `RR` only up to 1 024 cells).
    pub fn sfc_values_sorted(&self, curve: &Sfc) -> Vec<SfcValue> {
        let mut vals = Vec::new();
        self.sfc_values_sorted_into(curve, &mut vals);
        vals
    }

    /// [`GridBox::sfc_values_sorted`] into a caller-provided buffer, so a
    /// traversal visiting many leaves can reuse one allocation (`out` is
    /// cleared first, then filled and sorted).
    pub fn sfc_values_sorted_into(&self, curve: &Sfc, out: &mut Vec<SfcValue>) {
        debug_assert_eq!(self.dims(), curve.dims());
        out.clear();
        out.extend(self.cells().map(|c| curve.encode(&c)));
        out.sort_unstable();
    }

    /// Clamps a real-valued box to the grid: coordinates below zero become
    /// zero, coordinates above `max_coord` become `max_coord`. Returns
    /// `None` if the box is entirely outside the grid (negative `hi`).
    pub fn from_clamped(lo: &[i64], hi: &[i64], max_coord: u32) -> Option<GridBox> {
        if lo.len() != hi.len() || lo.is_empty() {
            return None;
        }
        if hi.iter().any(|&h| h < 0) || lo.iter().any(|&l| l > max_coord as i64) {
            return None;
        }
        let lo_c: Vec<u32> = lo.iter().map(|&l| l.max(0) as u32).collect();
        let hi_c: Vec<u32> = hi.iter().map(|&h| h.min(max_coord as i64) as u32).collect();
        if lo_c.iter().zip(&hi_c).any(|(l, h)| l > h) {
            return None;
        }
        Some(GridBox::new(lo_c, hi_c))
    }
}

/// Row-major iterator over a box's cells. See [`GridBox::cells`].
pub(crate) struct CellIter<'a> {
    bx: &'a GridBox,
    current: Option<Vec<u32>>,
}

impl Iterator for CellIter<'_> {
    type Item = Vec<u32>;

    fn next(&mut self) -> Option<Vec<u32>> {
        let cur = self.current.take()?;
        // Advance like an odometer, last dimension fastest.
        let mut next = cur.clone();
        let mut dim = next.len();
        loop {
            if dim == 0 {
                self.current = None;
                break;
            }
            dim -= 1;
            if next[dim] < self.bx.hi[dim] {
                next[dim] += 1;
                let (tail, len) = (dim + 1, next.len());
                next[tail..].copy_from_slice(&self.bx.lo[tail..len]);
                self.current = Some(next);
                break;
            }
        }
        Some(cur)
    }
}

/// `MIND(p, box)` under `L∞` in grid-cell units: the smallest coordinate
/// distance between `p` and any cell of the box; zero when `p` is inside.
///
/// This is the lower bound of Lemma 3 — `MIND(q, E)` between the mapped
/// query point and a B⁺-tree entry's MBB (converted to metric units by the
/// caller via multiplication with δ).
pub fn mind_linf(p: &[u32], bx: &GridBox) -> u32 {
    debug_assert_eq!(p.len(), bx.dims());
    let mut best = 0u32;
    for ((&c, &l), &h) in p.iter().zip(bx.lo()).zip(bx.hi()) {
        let d = if c < l { l - c } else { c.saturating_sub(h) };
        best = best.max(d);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::curve::CurveKind;

    #[test]
    fn containment_and_intersection() {
        let a = GridBox::new(vec![0, 0], vec![4, 4]);
        let b = GridBox::new(vec![2, 2], vec![6, 6]);
        let c = GridBox::new(vec![5, 5], vec![6, 6]);
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
        assert!(a.contains_point(&[0, 4]));
        assert!(!a.contains_point(&[0, 5]));
    }

    #[test]
    fn cell_count_and_iteration() {
        let b = GridBox::new(vec![1, 2], vec![2, 4]);
        assert_eq!(b.cell_count(), 6);
        let cells: Vec<Vec<u32>> = b.cells().collect();
        assert_eq!(
            cells,
            vec![
                vec![1, 2],
                vec![1, 3],
                vec![1, 4],
                vec![2, 2],
                vec![2, 3],
                vec![2, 4]
            ]
        );
        let p = GridBox::point(&[7, 7]);
        assert_eq!(p.cell_count(), 1);
        assert_eq!(p.cells().count(), 1);
    }

    #[test]
    fn sfc_values_sorted_matches_bruteforce() {
        for kind in [CurveKind::Hilbert, CurveKind::Z] {
            let c = Sfc::new(kind, 2, 3);
            let b = GridBox::new(vec![1, 2], vec![4, 5]);
            let vals = b.sfc_values_sorted(&c);
            assert_eq!(vals.len() as u128, b.cell_count());
            assert!(vals.windows(2).all(|w| w[0] < w[1]), "strictly ascending");
            // Every returned value decodes into the box.
            for v in &vals {
                assert!(b.contains_point(&c.decode(*v)));
            }
            // And every in-box cell is present.
            for v in 0..c.cell_count() {
                let inside = b.contains_point(&c.decode(v));
                assert_eq!(inside, vals.binary_search(&v).is_ok());
            }
        }
    }

    #[test]
    fn clamping_handles_out_of_range_regions() {
        // RR(q, r) corners can go negative (d(q,p) - r < 0) or exceed the
        // grid; Lemma 1 regions are clamped, not rejected.
        let b = GridBox::from_clamped(&[-3, 2], &[5, 200], 15).unwrap();
        assert_eq!(b, GridBox::new(vec![0, 2], vec![5, 15]));
        assert!(GridBox::from_clamped(&[-5, -5], &[-1, 3], 15).is_none());
        assert!(GridBox::from_clamped(&[20, 0], &[25, 3], 15).is_none());
    }

    #[test]
    fn mind_linf_cases() {
        let b = GridBox::new(vec![2, 2], vec![4, 4]);
        assert_eq!(mind_linf(&[3, 3], &b), 0); // inside
        assert_eq!(mind_linf(&[2, 2], &b), 0); // on the corner
        assert_eq!(mind_linf(&[0, 3], &b), 2); // left of the box
        assert_eq!(mind_linf(&[7, 3], &b), 3); // right of the box
        assert_eq!(mind_linf(&[0, 9], &b), 5); // diagonal: L∞ takes the max
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn boxes(dims: usize, side: u32) -> impl Strategy<Value = GridBox> {
        proptest::collection::vec((0..side, 0..side), dims).prop_map(|cs| {
            let lo: Vec<u32> = cs.iter().map(|&(a, b)| a.min(b)).collect();
            let hi: Vec<u32> = cs.iter().map(|&(a, b)| a.max(b)).collect();
            GridBox::new(lo, hi)
        })
    }

    proptest! {
        #[test]
        fn cell_iter_agrees_with_cell_count(b in boxes(3, 6)) {
            prop_assert_eq!(b.cells().count() as u128, b.cell_count());
            for c in b.cells() {
                prop_assert!(b.contains_point(&c));
            }
        }

        #[test]
        fn mind_is_zero_iff_inside(b in boxes(3, 16), p in proptest::collection::vec(0u32..16, 3)) {
            let m = mind_linf(&p, &b);
            prop_assert_eq!(m == 0, b.contains_point(&p));
        }
    }
}
