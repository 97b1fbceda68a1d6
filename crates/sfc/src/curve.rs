//! Hilbert- and Z-curve encodings between grid points and SFC values.

/// A one-dimensional space-filling-curve value. `dims · bits ≤ 127` keeps
/// every value (and every MBB corner) inside one `u128`.
pub(crate) type SfcValue = u128;

/// Which space-filling curve to use.
///
/// The paper uses the Hilbert curve by default (better clustering, Table 4)
/// and the Z-order curve for similarity joins, whose Lemma 6 requires the
/// Z-curve's monotonicity: dominated points have smaller SFC values.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CurveKind {
    /// Hilbert curve via Skilling's transpose algorithm.
    Hilbert,
    /// Z-order (Morton) curve via plain bit interleaving.
    Z,
}

/// A space-filling curve over a `dims`-dimensional grid with `bits` bits
/// (i.e. `2^bits` cells) per dimension.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sfc {
    kind: CurveKind,
    dims: usize,
    bits: u32,
}

impl Sfc {
    /// Creates a curve.
    ///
    /// # Panics
    /// Panics unless `1 ≤ dims ≤ 16`, `1 ≤ bits ≤ 32` and
    /// `dims · bits ≤ 127` (so every value fits a `u128`).
    pub fn new(kind: CurveKind, dims: usize, bits: u32) -> Self {
        assert!((1..=16).contains(&dims), "dims must be in 1..=16");
        assert!((1..=32).contains(&bits), "bits must be in 1..=32");
        assert!(
            dims as u32 * bits <= 127,
            "dims * bits must fit in a u128 ({} * {} > 127)",
            dims,
            bits
        );
        Sfc { kind, dims, bits }
    }

    /// A Hilbert curve (the SPB-tree default).
    pub fn hilbert(dims: usize, bits: u32) -> Self {
        Self::new(CurveKind::Hilbert, dims, bits)
    }

    /// The curve kind.
    pub fn kind(&self) -> CurveKind {
        self.kind
    }

    /// Grid dimensionality (`|P|` after pivot mapping).
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Bits per dimension.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// The largest valid coordinate, `2^bits − 1`.
    pub fn max_coord(&self) -> u32 {
        if self.bits == 32 {
            u32::MAX
        } else {
            (1u32 << self.bits) - 1
        }
    }

    /// Total number of grid cells, `2^(dims·bits)`.
    pub fn cell_count(&self) -> u128 {
        1u128 << (self.dims as u32 * self.bits)
    }

    /// Maps a grid point to its SFC value.
    ///
    /// # Panics
    /// Panics (debug) if `point.len() != dims` or a coordinate overflows
    /// `bits`; release builds mask coordinates into range.
    pub fn encode(&self, point: &[u32]) -> SfcValue {
        debug_assert_eq!(point.len(), self.dims, "point dimensionality mismatch");
        debug_assert!(
            point.iter().all(|&c| c <= self.max_coord()),
            "coordinate out of range for {} bits: {:?}",
            self.bits,
            point
        );
        match self.kind {
            CurveKind::Z => interleave(point, self.bits),
            CurveKind::Hilbert => {
                let mut x: Vec<u32> = point.to_vec();
                axes_to_transpose(&mut x, self.bits);
                interleave_transposed(&x, self.bits)
            }
        }
    }

    /// Maps an SFC value back to its grid point.
    pub fn decode(&self, value: SfcValue) -> Vec<u32> {
        let mut out = vec![0u32; self.dims];
        self.decode_into(value, &mut out);
        out
    }

    /// Like [`decode`](Self::decode) but writing into a caller buffer, so
    /// hot loops (leaf verification in Algorithm 1) avoid an allocation.
    pub fn decode_into(&self, value: SfcValue, out: &mut [u32]) {
        debug_assert_eq!(out.len(), self.dims, "output dimensionality mismatch");
        match self.kind {
            CurveKind::Z => deinterleave(value, self.bits, out),
            CurveKind::Hilbert => {
                deinterleave_transposed(value, self.bits, out);
                transpose_to_axes(out, self.bits);
            }
        }
    }

    /// The aligned sub-cube holding the cell of every value in `[a, b]`
    /// (`a ≤ b`). The values share their top `t` levels (`dims` bits
    /// each); every cell under that prefix lies in one cube of side
    /// `2^(bits−t)`, whose low corner is the prefix decoded on the
    /// `t`-bit curve and shifted left by `bits − t`. That is exact on
    /// both curves: Morton bit planes are independent, and Skilling's
    /// `TransposetoAxes` computes coordinate bit plane `p` from index
    /// planes `≥ p` only. Writes the low corner into `lo` and returns
    /// `bits − t`, the number of low coordinate bits that vary inside
    /// the cube (0 when `a == b`: a single cell; `bits` when the values
    /// share no level: the whole grid).
    pub fn interval_cube_into(&self, a: SfcValue, b: SfcValue, lo: &mut [u32]) -> u32 {
        debug_assert_eq!(lo.len(), self.dims, "output dimensionality mismatch");
        let n = self.dims as u32;
        let diff = a ^ b;
        let free = match diff.checked_ilog2() {
            Some(top) => (top / n + 1).min(self.bits),
            None => 0,
        };
        if free == self.bits {
            lo.fill(0);
        } else {
            let coarse = Sfc {
                bits: self.bits - free,
                ..*self
            };
            coarse.decode_into(a >> (free * n), lo);
            lo.iter_mut().for_each(|c| *c <<= free);
        }
        free
    }
}

/// Interleaves plain coordinates, most-significant bit plane first, into a
/// Morton code. Bit `j` of dimension `i` lands at position
/// `j·n + (n−1−i)` of the result.
fn interleave(point: &[u32], bits: u32) -> u128 {
    let mut h: u128 = 0;
    for j in (0..bits).rev() {
        for &c in point {
            h = (h << 1) | ((c >> j) & 1) as u128;
        }
    }
    h
}

/// Inverse of [`interleave`].
fn deinterleave(mut h: u128, bits: u32, out: &mut [u32]) {
    let n = out.len();
    out.iter_mut().for_each(|c| *c = 0);
    for j in 0..bits {
        for i in (0..n).rev() {
            out[i] |= ((h & 1) as u32) << j;
            h >>= 1;
        }
    }
}

/// Packs Skilling's *transposed* Hilbert index into a single integer. In the
/// transposed form, bit `j` of `x[i]` is bit `j·n + (n−1−i)` of the Hilbert
/// index — i.e. exactly the Morton interleave of the transposed coordinates.
fn interleave_transposed(x: &[u32], bits: u32) -> u128 {
    interleave(x, bits)
}

/// Inverse of [`interleave_transposed`].
fn deinterleave_transposed(h: u128, bits: u32, out: &mut [u32]) {
    deinterleave(h, bits, out)
}

/// Skilling's `AxestoTranspose`: converts grid coordinates in place to the
/// transposed Hilbert index. (J. Skilling, "Programming the Hilbert curve",
/// AIP Conf. Proc. 707, 2004.)
fn axes_to_transpose(x: &mut [u32], bits: u32) {
    let n = x.len();
    if n == 1 {
        return; // 1-d Hilbert is the identity
    }
    let m = 1u32 << (bits - 1);
    // Inverse undo excess work.
    let mut q = m;
    while q > 1 {
        let p = q - 1;
        for i in 0..n {
            if x[i] & q != 0 {
                x[0] ^= p; // invert low bits of x[0]
            } else {
                let t = (x[0] ^ x[i]) & p;
                x[0] ^= t;
                x[i] ^= t;
            }
        }
        q >>= 1;
    }
    // Gray encode.
    for i in 1..n {
        x[i] ^= x[i - 1];
    }
    let mut t = 0u32;
    q = m;
    while q > 1 {
        if x[n - 1] & q != 0 {
            t ^= q - 1;
        }
        q >>= 1;
    }
    for xi in x.iter_mut() {
        *xi ^= t;
    }
}

/// Skilling's `TransposetoAxes`: converts a transposed Hilbert index in
/// place back to grid coordinates.
fn transpose_to_axes(x: &mut [u32], bits: u32) {
    let n = x.len();
    if n == 1 {
        return;
    }
    let m = 2u32.wrapping_shl(bits - 1); // 2^bits, wraps to 0 for bits=32 (handled below)
                                         // Gray decode by H ^ (H >> 1).
    let t = x[n - 1] >> 1;
    for i in (1..n).rev() {
        x[i] ^= x[i - 1];
    }
    x[0] ^= t;
    // Undo excess work.
    let mut q = 2u32;
    loop {
        if bits < 32 && q == m {
            break;
        }
        if bits == 32 && q == 0 {
            break;
        }
        let p = q - 1;
        for i in (0..n).rev() {
            if x[i] & q != 0 {
                x[0] ^= p;
            } else {
                let t = (x[0] ^ x[i]) & p;
                x[0] ^= t;
                x[i] ^= t;
            }
        }
        q = q.wrapping_shl(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn z_curve_2d_matches_reference() {
        // The classic 4x4 Morton layout.
        let z = Sfc::new(CurveKind::Z, 2, 2);
        // encode(x=col? ...) — our convention: point[0] is the most
        // significant dimension in the interleave.
        assert_eq!(z.encode(&[0, 0]), 0);
        assert_eq!(z.encode(&[0, 1]), 1);
        assert_eq!(z.encode(&[1, 0]), 2);
        assert_eq!(z.encode(&[1, 1]), 3);
        assert_eq!(z.encode(&[0, 2]), 4);
        assert_eq!(z.encode(&[3, 3]), 15);
    }

    #[test]
    fn hilbert_2d_visits_every_cell_once_with_unit_steps() {
        let h = Sfc::hilbert(2, 3); // 8x8 grid
        let mut seen = [false; 64];
        let mut prev: Option<Vec<u32>> = None;
        for v in 0..64u128 {
            let p = h.decode(v);
            let idx = (p[0] * 8 + p[1]) as usize;
            assert!(!seen[idx], "cell visited twice: {p:?}");
            seen[idx] = true;
            if let Some(q) = prev {
                let step: u32 = p.iter().zip(&q).map(|(&a, &b)| a.abs_diff(b)).sum();
                assert_eq!(step, 1, "Hilbert curve must move one cell at a time");
            }
            prev = Some(p);
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn hilbert_3d_visits_every_cell_once_with_unit_steps() {
        let h = Sfc::hilbert(3, 2); // 4x4x4 grid
        let mut seen = [false; 64];
        let mut prev: Option<Vec<u32>> = None;
        for v in 0..64u128 {
            let p = h.decode(v);
            let idx = ((p[0] * 4 + p[1]) * 4 + p[2]) as usize;
            assert!(!seen[idx]);
            seen[idx] = true;
            if let Some(q) = prev {
                let step: u32 = p.iter().zip(&q).map(|(&a, &b)| a.abs_diff(b)).sum();
                assert_eq!(step, 1);
            }
            prev = Some(p);
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn one_dimensional_curves_are_identity() {
        for kind in [CurveKind::Hilbert, CurveKind::Z] {
            let c = Sfc::new(kind, 1, 8);
            for v in [0u32, 1, 7, 200, 255] {
                assert_eq!(c.encode(&[v]), v as u128);
                assert_eq!(c.decode(v as u128), vec![v]);
            }
        }
    }

    #[test]
    fn z_curve_is_monotone_under_domination() {
        // Lemma 6's foundation: if p dominates q coordinate-wise then
        // SFC_Z(p) >= SFC_Z(q).
        let z = Sfc::new(CurveKind::Z, 3, 4);
        let pts = [[1u32, 2, 3], [4, 5, 6], [0, 0, 15], [7, 7, 7], [15, 15, 15]];
        for a in &pts {
            for b in &pts {
                if a.iter().zip(b).all(|(x, y)| x <= y) {
                    assert!(z.encode(a) <= z.encode(b), "{a:?} vs {b:?}");
                }
            }
        }
    }

    #[test]
    fn roundtrip_exhaustive_small_grids() {
        for kind in [CurveKind::Hilbert, CurveKind::Z] {
            for dims in 1..=4usize {
                for bits in 1..=3u32 {
                    let c = Sfc::new(kind, dims, bits);
                    let cells = c.cell_count();
                    for v in 0..cells {
                        let p = c.decode(v);
                        assert_eq!(c.encode(&p), v, "{kind:?} dims={dims} bits={bits} v={v}");
                    }
                }
            }
        }
    }

    #[test]
    fn geometry_accessors() {
        let c = Sfc::hilbert(5, 10);
        assert_eq!(c.dims(), 5);
        assert_eq!(c.bits(), 10);
        assert_eq!(c.max_coord(), 1023);
        assert_eq!(c.cell_count(), 1u128 << 50);
        assert_eq!(c.kind(), CurveKind::Hilbert);
    }

    #[test]
    #[should_panic(expected = "fit in a u128")]
    fn rejects_oversized_geometry() {
        let _ = Sfc::hilbert(16, 8);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn curve_and_point() -> impl Strategy<Value = (Sfc, Vec<u32>)> {
        (1usize..=9, 1u32..=12, any::<bool>()).prop_flat_map(|(dims, bits, hilbert)| {
            let kind = if hilbert {
                CurveKind::Hilbert
            } else {
                CurveKind::Z
            };
            let max = if bits == 32 {
                u32::MAX
            } else {
                (1u32 << bits) - 1
            };
            (
                Just(Sfc::new(kind, dims, bits.min(127 / dims as u32).max(1))),
                proptest::collection::vec(0..=max, dims),
            )
                .prop_map(|(c, mut p)| {
                    for v in &mut p {
                        *v &= c.max_coord();
                    }
                    (c, p)
                })
        })
    }

    proptest! {
        #[test]
        fn encode_decode_roundtrip((c, p) in curve_and_point()) {
            let v = c.encode(&p);
            prop_assert!(v < c.cell_count());
            prop_assert_eq!(c.decode(v), p);
        }

        #[test]
        fn decode_encode_roundtrip(kind in any::<bool>(), dims in 1usize..=6, bits in 1u32..=8, raw in any::<u128>()) {
            let kind = if kind { CurveKind::Hilbert } else { CurveKind::Z };
            let c = Sfc::new(kind, dims, bits);
            let v = raw % c.cell_count();
            let p = c.decode(v);
            prop_assert_eq!(c.encode(&p), v);
        }

        #[test]
        fn interval_cube_holds_every_value_of_the_interval(
            hilbert in any::<bool>(),
            dims in 1usize..=16,
            bits in 1u32..=32,
            a in any::<u128>(),
            b in any::<u128>(),
            picks in proptest::collection::vec(any::<u128>(), 8),
        ) {
            let kind = if hilbert { CurveKind::Hilbert } else { CurveKind::Z };
            let c = Sfc::new(kind, dims, bits.min(127 / dims as u32));
            let (a, b) = (a % c.cell_count(), b % c.cell_count());
            let (a, b) = (a.min(b), a.max(b));
            let mut lo = vec![0u32; dims];
            let free = c.interval_cube_into(a, b, &mut lo);
            prop_assert!(free <= c.bits());
            let mask = ((1u64 << free) - 1) as u32;
            prop_assert!(lo.iter().all(|&l| l & mask == 0), "aligned");
            if a == b {
                prop_assert_eq!((free, &lo), (0, &c.decode(a)));
            }
            for k in picks.iter().map(|p| a + p % (b - a + 1)).chain([a, b]) {
                let cell = c.decode(k);
                prop_assert!(cell.iter().zip(&lo).all(|(&x, &l)| l <= x && x <= l | mask));
            }
        }

        #[test]
        fn z_domination_monotonicity(dims in 1usize..=5, bits in 1u32..=8, seed in any::<u64>()) {
            use rand::{Rng, SeedableRng};
            let c = Sfc::new(CurveKind::Z, dims, bits);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let a: Vec<u32> = (0..dims).map(|_| rng.gen_range(0..=c.max_coord())).collect();
            // b dominates a by construction.
            let b: Vec<u32> = a.iter().map(|&x| rng.gen_range(x..=c.max_coord())).collect();
            prop_assert!(c.encode(&a) <= c.encode(&b));
        }
    }

    proptest! {
        // 200 cases: 1 354 000 (value, t) pairs in all.
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// The prefix-cube identity `interval_cube_into` rests on: the top
        /// `t` bit planes of a value's cell are the cell of its top `t`
        /// levels on the `t`-bit curve — for both curves, every `dims`,
        /// every `bits` that fits a `u128` (up to 126 = 9 · 14; 127 is
        /// prime, so no geometry reaches it) and every `t`.
        #[test]
        fn prefix_levels_decode_to_the_coarse_curve(raw in any::<u128>()) {
            for kind in [CurveKind::Hilbert, CurveKind::Z] {
                for dims in 1usize..=16 {
                    for bits in 1..=(127 / dims as u32).min(32) {
                        let c = Sfc::new(kind, dims, bits);
                        let key = raw % c.cell_count();
                        let cell = c.decode(key);
                        for t in 1..=bits {
                            let free = bits - t;
                            let prefix = key >> (free * dims as u32);
                            let coarse = Sfc::new(kind, dims, t).decode(prefix);
                            let top: Vec<u32> = cell.iter().map(|&x| x >> free).collect();
                            prop_assert_eq!(top, coarse, "{:?} {}x{} t={}", kind, dims, bits, t);
                        }
                    }
                }
            }
        }
    }
}
