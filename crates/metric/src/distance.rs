//! Distance functions for generic metric spaces.
//!
//! Every function here satisfies the four metric-space properties the paper
//! relies on (Section 2.3): symmetry, non-negativity, identity and — crucial
//! for all pruning lemmas — the **triangle inequality**. The property-based
//! tests at the bottom of this module check the axioms on random inputs.

use crate::object::{Dna, FloatVec, IntSet, Signature, Word};

/// A metric distance function over objects of type `O`.
///
/// `d⁺`, the maximum possible distance in the space, is exposed through
/// [`max_distance`](Distance::max_distance); the paper normalises query
/// radii and join thresholds as percentages of `d⁺` (Table 3) and the
/// δ-approximation needs it to size the space-filling-curve grid.
pub trait Distance<O: ?Sized>: Send + Sync {
    /// Computes `d(a, b)`.
    fn distance(&self, a: &O, b: &O) -> f64;

    /// The maximum distance `d⁺` any two objects of the space can have.
    fn max_distance(&self) -> f64;

    /// True iff the range of the distance function is discrete integers
    /// (e.g. edit or Hamming distance), in which case δ-approximation is
    /// unnecessary and the SPB-tree uses `δ = 1`.
    fn is_discrete(&self) -> bool {
        false
    }
}

impl<O: ?Sized, D: Distance<O> + ?Sized> Distance<O> for &D {
    fn distance(&self, a: &O, b: &O) -> f64 {
        (**self).distance(a, b)
    }
    fn max_distance(&self) -> f64 {
        (**self).max_distance()
    }
    fn is_discrete(&self) -> bool {
        (**self).is_discrete()
    }
}

impl<O: ?Sized, D: Distance<O> + ?Sized> Distance<O> for std::sync::Arc<D> {
    fn distance(&self, a: &O, b: &O) -> f64 {
        (**self).distance(a, b)
    }
    fn max_distance(&self) -> f64 {
        (**self).max_distance()
    }
    fn is_discrete(&self) -> bool {
        (**self).is_discrete()
    }
}

/// Levenshtein edit distance between words (insertions, deletions,
/// substitutions, unit cost). Used for the paper's *Words* dataset.
#[derive(Clone, Copy, Debug)]
pub struct EditDistance {
    /// Maximum word length in the dataset; `d⁺` equals this value because
    /// any word can be turned into any other with at most
    /// `max(len_a, len_b)` operations.
    pub max_len: usize,
}

impl EditDistance {
    /// Edit distance over words of length at most `max_len`.
    pub fn new(max_len: usize) -> Self {
        EditDistance { max_len }
    }
}

impl Default for EditDistance {
    /// Matches the paper's *Words* dataset: lengths 1–34.
    fn default() -> Self {
        EditDistance { max_len: 34 }
    }
}

impl Distance<Word> for EditDistance {
    fn distance(&self, a: &Word, b: &Word) -> f64 {
        levenshtein(a.as_str().as_bytes(), b.as_str().as_bytes()) as f64
    }

    fn max_distance(&self) -> f64 {
        self.max_len as f64
    }

    fn is_discrete(&self) -> bool {
        true
    }
}

/// Levenshtein distance over bytes. When the shorter input fits one
/// machine word (≤ 64 bytes, every word of the paper's datasets) this is
/// Myers' bit-parallel algorithm in Hyyrö's formulation: `O(|long|)`
/// word operations and no heap allocation. Longer inputs take the
/// two-row dynamic program. Both are exact.
pub(crate) fn levenshtein(a: &[u8], b: &[u8]) -> usize {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if short.is_empty() {
        long.len()
    } else if short.len() <= 64 {
        levenshtein_bits(short, long)
    } else {
        levenshtein_dp(short, long)
    }
}

/// Bit-parallel Levenshtein for `1 ≤ |short| ≤ 64`. Bit `i` of the
/// vertical delta vectors `pv`/`mv` says whether cell `i+1` of the current
/// DP column is one more/less than cell `i`; a column step is a handful of
/// word operations, and the score is tracked at the last row. Bits above
/// `|short|` hold garbage that never flows downward (carries and shifts
/// only move up).
fn levenshtein_bits(short: &[u8], long: &[u8]) -> usize {
    let mut peq = [0u64; 256];
    for (i, &c) in short.iter().enumerate() {
        peq[usize::from(c)] |= 1 << i;
    }
    let last = 1u64 << (short.len() - 1);
    let (mut pv, mut mv) = (!0u64, 0u64);
    let mut score = short.len();
    for &c in long {
        let eq = peq[usize::from(c)];
        let xv = eq | mv;
        let xh = ((eq & pv).wrapping_add(pv) ^ pv) | eq;
        let ph = mv | !(xh | pv);
        let mh = pv & xh;
        if ph & last != 0 {
            score += 1;
        } else if mh & last != 0 {
            score -= 1;
        }
        // Row 0 of the DP grows by one per column: shift a +1 in.
        let ph = (ph << 1) | 1;
        let mh = mh << 1;
        pv = mh | !(xv | ph);
        mv = ph & xv;
    }
    score
}

/// Two-row dynamic-programming Levenshtein. `O(|a|·|b|)` time, one
/// `O(|short|)` row.
fn levenshtein_dp(short: &[u8], long: &[u8]) -> usize {
    // `row[j]` holds the distance between long[..i] and short[..j].
    let mut row: Vec<usize> = (0..=short.len()).collect();
    for (i, &lc) in long.iter().enumerate() {
        let mut prev_diag = row[0]; // row[i-1][0]
        row[0] = i + 1;
        for (j, &sc) in short.iter().enumerate() {
            let sub = prev_diag + usize::from(lc != sc);
            prev_diag = row[j + 1];
            row[j + 1] = sub.min(row[j] + 1).min(row[j + 1] + 1);
        }
    }
    row[short.len()]
}

/// The Lᵖ-norm (Minkowski distance) over [`FloatVec`] coordinates assumed to
/// lie in `[0, lo_hi.1 - lo_hi.0]` per dimension; `d⁺ = span · dim^(1/p)`.
///
/// The paper uses L₅ for *Color* and L₂ for *Synthetic*.
#[derive(Clone, Copy, Debug)]
pub struct LpNorm {
    /// The exponent `p ≥ 1`.
    pub p: f64,
    /// Dimensionality of the vectors.
    pub dim: usize,
    /// Per-dimension coordinate span (1.0 for data in `[0,1]`).
    pub span: f64,
}

impl LpNorm {
    /// Lᵖ-norm over `dim`-dimensional vectors with coordinates spanning
    /// `span` per dimension.
    ///
    /// # Panics
    /// Panics if `p < 1` (not a metric) or `dim == 0`.
    pub fn new(p: f64, dim: usize, span: f64) -> Self {
        assert!(
            p >= 1.0,
            "Lp-norm requires p >= 1 for the triangle inequality"
        );
        assert!(dim > 0, "dimensionality must be positive");
        LpNorm { p, dim, span }
    }

    /// The L₂ (Euclidean) norm over the unit cube.
    pub fn l2(dim: usize) -> Self {
        Self::new(2.0, dim, 1.0)
    }

    /// The L₅ norm over the unit cube (the paper's *Color* metric).
    pub fn l5(dim: usize) -> Self {
        Self::new(5.0, dim, 1.0)
    }
}

impl Distance<FloatVec> for LpNorm {
    fn distance(&self, a: &FloatVec, b: &FloatVec) -> f64 {
        let (xs, ys) = (a.coords(), b.coords());
        debug_assert_eq!(xs.len(), ys.len(), "dimension mismatch");
        // Specialise the common exponents to avoid powf in the hot loop.
        if self.p == 2.0 {
            let s: f64 = xs
                .iter()
                .zip(ys)
                .map(|(&x, &y)| {
                    let d = (x - y) as f64;
                    d * d
                })
                .sum();
            return s.sqrt();
        }
        if self.p == 5.0 {
            let s: f64 = xs
                .iter()
                .zip(ys)
                .map(|(&x, &y)| {
                    let d = ((x - y) as f64).abs();
                    let d2 = d * d;
                    d2 * d2 * d
                })
                .sum();
            return s.powf(0.2);
        }
        let s: f64 = xs
            .iter()
            .zip(ys)
            .map(|(&x, &y)| ((x - y) as f64).abs().powf(self.p))
            .sum();
        s.powf(1.0 / self.p)
    }

    fn max_distance(&self) -> f64 {
        self.span * (self.dim as f64).powf(1.0 / self.p)
    }
}

/// Hamming distance over fixed-length symbol signatures: the number of
/// positions at which two signatures differ. `d⁺` is the signature length
/// (64 in the paper's *Signature* dataset).
#[derive(Clone, Copy, Debug)]
pub struct Hamming {
    /// Signature length; also `d⁺`.
    pub len: usize,
}

impl Hamming {
    /// Hamming distance over signatures of `len` symbols.
    pub fn new(len: usize) -> Self {
        Hamming { len }
    }
}

impl Distance<Signature> for Hamming {
    fn distance(&self, a: &Signature, b: &Signature) -> f64 {
        debug_assert_eq!(a.len(), b.len(), "signature length mismatch");
        a.symbols()
            .iter()
            .zip(b.symbols())
            .filter(|(x, y)| x != y)
            .count() as f64
    }

    fn max_distance(&self) -> f64 {
        self.len as f64
    }

    fn is_discrete(&self) -> bool {
        true
    }
}

/// Angular distance in tri-gram counting space, normalised to `[0, 1]`.
///
/// The paper describes the *DNA* metric as "cosine similarity under tri-gram
/// counting space". Cosine *dissimilarity* `1 − cos θ` violates the triangle
/// inequality, which every pruning lemma requires, so — as is standard — we
/// use the angular form `d(a, b) = (2/π)·arccos(cos θ)`, the geodesic
/// distance on the unit sphere scaled so that `d⁺ = 1` (tri-gram counts are
/// non-negative, hence `θ ∈ [0, π/2]`). The substitution is recorded in
/// DESIGN.md §3.
#[derive(Clone, Copy, Debug, Default)]
pub struct TrigramAngular;

impl TrigramAngular {
    /// Cosine similarity between two tri-gram profiles; 1.0 when either
    /// profile is all-zero and the other is too, 0.0 when exactly one is.
    pub(crate) fn cosine_similarity(pa: &[u32; 64], pb: &[u32; 64]) -> f64 {
        let mut dot = 0.0f64;
        let mut na = 0.0f64;
        let mut nb = 0.0f64;
        for i in 0..64 {
            let (x, y) = (pa[i] as f64, pb[i] as f64);
            dot += x * y;
            na += x * x;
            nb += y * y;
        }
        if na == 0.0 && nb == 0.0 {
            return 1.0; // both empty: identical profiles
        }
        if na == 0.0 || nb == 0.0 {
            return 0.0; // one empty: orthogonal
        }
        (dot / (na.sqrt() * nb.sqrt())).clamp(0.0, 1.0)
    }
}

impl Distance<Dna> for TrigramAngular {
    fn distance(&self, a: &Dna, b: &Dna) -> f64 {
        if a == b {
            return 0.0; // identity must hold exactly despite rounding
        }
        let sim = Self::cosine_similarity(&a.trigram_profile(), &b.trigram_profile());
        sim.acos() * std::f64::consts::FRAC_2_PI
    }

    fn max_distance(&self) -> f64 {
        1.0
    }
}

/// Jaccard distance over integer sets: `1 − |A∩B| / |A∪B|` (0 for two
/// empty sets). A true metric (the Steinhaus transform of set cardinality),
/// widely used for near-duplicate detection over shingles and tag sets.
#[derive(Clone, Copy, Debug, Default)]
pub struct Jaccard;

impl Distance<IntSet> for Jaccard {
    fn distance(&self, a: &IntSet, b: &IntSet) -> f64 {
        if a.is_empty() && b.is_empty() {
            return 0.0;
        }
        let inter = a.intersection_size(b);
        let union = a.len() + b.len() - inter;
        1.0 - inter as f64 / union as f64
    }

    fn max_distance(&self) -> f64 {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levenshtein_basics() {
        assert_eq!(levenshtein(b"", b""), 0);
        assert_eq!(levenshtein(b"abc", b""), 3);
        assert_eq!(levenshtein(b"", b"abc"), 3);
        assert_eq!(levenshtein(b"kitten", b"sitting"), 3);
        assert_eq!(levenshtein(b"defoliate", b"defoliates"), 1);
        assert_eq!(levenshtein(b"defoliate", b"defoliation"), 3);
        assert_eq!(levenshtein(b"defoliate", b"citrate"), 6);
    }

    #[test]
    fn levenshtein_kernel_hand_cases() {
        let a64 = [b'a'; 64];
        let b64: Vec<u8> = (0..64u8).map(|i| b'a' + i % 26).collect();
        let a65 = [b'a'; 65];
        for (x, y) in [
            (&b""[..], &b""[..]),
            (b"kitten", b"sitting"),
            (b"identical", b"identical"),
            (&a64[..], &a64[..]),
            (&a64[..], &b64[..]),
            (&a65[..], b"a"),
            (&a65[..], b"z"),
            (&a65[..], &a64[..]),
        ] {
            let want = levenshtein_dp(x, y);
            assert_eq!(levenshtein(x, y), want);
            assert_eq!(levenshtein(y, x), want);
        }
        assert_eq!(levenshtein(b"kitten", b"sitting"), 3);
        assert_eq!(levenshtein(&a64, &a64), 0);
        assert_eq!(levenshtein(&a65, b"a"), 64);
        assert_eq!(levenshtein(&a65, b"z"), 65);
    }

    #[test]
    fn paper_running_example_range_query() {
        // RQ("defoliate", O, 1) = {"defoliates", "defoliated"} from Section 4.1.
        let d = EditDistance::default();
        let q = Word::new("defoliate");
        let words = [
            "citrate",
            "defoliates",
            "defoliated",
            "defoliating",
            "defoliation",
        ];
        let hits: Vec<&str> = words
            .iter()
            .filter(|w| d.distance(&q, &Word::new(**w)) <= 1.0)
            .copied()
            .collect();
        assert_eq!(hits, vec!["defoliates", "defoliated"]);
    }

    #[test]
    fn lp_norm_values() {
        let l2 = LpNorm::l2(2);
        let a = FloatVec::new(vec![0.0, 0.0]);
        let b = FloatVec::new(vec![3.0, 4.0]);
        assert!((l2.distance(&a, &b) - 5.0).abs() < 1e-12);

        let l5 = LpNorm::l5(16);
        assert!((l5.max_distance() - 16f64.powf(0.2)).abs() < 1e-12);

        let l1 = LpNorm::new(1.0, 2, 1.0);
        assert!((l1.distance(&a, &b) - 7.0).abs() < 1e-12);
    }

    #[test]
    fn lp_specialisations_match_generic() {
        let a = FloatVec::new(vec![0.1, 0.9, 0.4]);
        let b = FloatVec::new(vec![0.7, 0.2, 0.35]);
        for p in [2.0, 5.0] {
            let fast = LpNorm::new(p, 3, 1.0).distance(&a, &b);
            let slow: f64 = a
                .coords()
                .iter()
                .zip(b.coords())
                .map(|(&x, &y)| ((x - y) as f64).abs().powf(p))
                .sum::<f64>()
                .powf(1.0 / p);
            assert!((fast - slow).abs() < 1e-12, "p={p}");
        }
    }

    #[test]
    fn hamming_values() {
        let h = Hamming::new(4);
        let a = Signature::new(vec![1, 2, 3, 4]);
        let b = Signature::new(vec![1, 9, 3, 7]);
        assert_eq!(h.distance(&a, &b), 2.0);
        assert_eq!(h.distance(&a, &a), 0.0);
        assert!(h.is_discrete());
    }

    #[test]
    fn trigram_angular_identity_and_symmetry() {
        let m = TrigramAngular;
        let a = Dna::new("ACGTACGTACGT");
        let b = Dna::new("TTTTACGTCCCC");
        assert_eq!(m.distance(&a, &a), 0.0);
        assert!((m.distance(&a, &b) - m.distance(&b, &a)).abs() < 1e-15);
        assert!(m.distance(&a, &b) > 0.0);
        assert!(m.distance(&a, &b) <= 1.0);
    }

    #[test]
    fn trigram_orthogonal_sequences_are_maximal() {
        let m = TrigramAngular;
        // Profiles share no tri-gram: distance hits d+ = 1.
        let a = Dna::new("AAAAAA");
        let b = Dna::new("CCCCCC");
        assert!((m.distance(&a, &b) - 1.0).abs() < 1e-12);
    }

    fn assert_triangle<O, D: Distance<O>>(d: &D, xs: &[O]) {
        for a in xs {
            for b in xs {
                for c in xs {
                    let ab = d.distance(a, b);
                    let bc = d.distance(b, c);
                    let ac = d.distance(a, c);
                    assert!(
                        ac <= ab + bc + 1e-9,
                        "triangle inequality violated: {ac} > {ab} + {bc}"
                    );
                }
            }
        }
    }

    #[test]
    fn jaccard_values_and_axioms() {
        let j = Jaccard;
        let a = IntSet::new(vec![1, 2, 3]);
        let b = IntSet::new(vec![2, 3, 4]);
        let e = IntSet::new(vec![]);
        assert!((j.distance(&a, &b) - 0.5).abs() < 1e-12);
        assert_eq!(j.distance(&a, &a), 0.0);
        assert_eq!(j.distance(&a, &e), 1.0);
        assert_eq!(j.distance(&e, &e), 0.0);
        let sets: Vec<IntSet> = vec![
            IntSet::new(vec![]),
            IntSet::new(vec![1]),
            IntSet::new(vec![1, 2]),
            IntSet::new(vec![2, 3, 4]),
            IntSet::new(vec![1, 2, 3, 4, 5]),
        ];
        assert_triangle(&j, &sets);
    }

    #[test]
    fn triangle_inequality_spot_checks() {
        let words: Vec<Word> = ["", "a", "ab", "abc", "xbc", "defoliate", "citrate"]
            .iter()
            .map(|s| Word::new(*s))
            .collect();
        assert_triangle(&EditDistance::default(), &words);

        let sigs: Vec<Signature> = vec![
            Signature::new(vec![0; 8]),
            Signature::new(vec![1; 8]),
            Signature::new(vec![0, 1, 0, 1, 0, 1, 0, 1]),
        ];
        assert_triangle(&Hamming::new(8), &sigs);

        let dnas: Vec<Dna> = ["ACGTACGT", "ACGTTTTT", "GGGGCCCC", "ACACACAC"]
            .iter()
            .map(|s| Dna::new(*s))
            .collect();
        assert_triangle(&TrigramAngular, &dnas);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn word_strategy() -> impl Strategy<Value = Word> {
        "[a-d]{0,12}".prop_map(Word::new)
    }

    fn dna_strategy() -> impl Strategy<Value = Dna> {
        proptest::collection::vec(
            prop_oneof![Just('A'), Just('C'), Just('G'), Just('T')],
            0..40,
        )
        .prop_map(|cs| Dna::new(cs.into_iter().collect::<String>()))
    }

    fn vec_strategy(dim: usize) -> impl Strategy<Value = FloatVec> {
        proptest::collection::vec(0.0f32..1.0, dim).prop_map(FloatVec::new)
    }

    proptest! {
        #[test]
        fn edit_distance_axioms(a in word_strategy(), b in word_strategy(), c in word_strategy()) {
            let d = EditDistance::default();
            prop_assert!((d.distance(&a, &b) - d.distance(&b, &a)).abs() < 1e-12);
            prop_assert!(d.distance(&a, &b) >= 0.0);
            prop_assert_eq!(d.distance(&a, &b) == 0.0, a == b);
            prop_assert!(d.distance(&a, &c) <= d.distance(&a, &b) + d.distance(&b, &c) + 1e-9);
        }

        #[test]
        fn l2_axioms(a in vec_strategy(4), b in vec_strategy(4), c in vec_strategy(4)) {
            let d = LpNorm::l2(4);
            prop_assert!((d.distance(&a, &b) - d.distance(&b, &a)).abs() < 1e-12);
            prop_assert!(d.distance(&a, &c) <= d.distance(&a, &b) + d.distance(&b, &c) + 1e-9);
            prop_assert!(d.distance(&a, &b) <= d.max_distance() + 1e-9);
        }

        #[test]
        fn l5_axioms(a in vec_strategy(4), b in vec_strategy(4), c in vec_strategy(4)) {
            let d = LpNorm::l5(4);
            prop_assert!((d.distance(&a, &b) - d.distance(&b, &a)).abs() < 1e-12);
            prop_assert!(d.distance(&a, &c) <= d.distance(&a, &b) + d.distance(&b, &c) + 1e-9);
            prop_assert!(d.distance(&a, &b) <= d.max_distance() + 1e-9);
        }

        #[test]
        fn trigram_angular_triangle(a in dna_strategy(), b in dna_strategy(), c in dna_strategy()) {
            let d = TrigramAngular;
            prop_assert!((d.distance(&a, &b) - d.distance(&b, &a)).abs() < 1e-12);
            // Angular distance is a true metric on the sphere; allow fp slack.
            prop_assert!(d.distance(&a, &c) <= d.distance(&a, &b) + d.distance(&b, &c) + 1e-7);
            prop_assert!(d.distance(&a, &b) <= 1.0 + 1e-12);
        }

        #[test]
        fn levenshtein_bounds(a in "[a-z]{0,16}", b in "[a-z]{0,16}") {
            let d = levenshtein(a.as_bytes(), b.as_bytes());
            let (la, lb) = (a.len(), b.len());
            prop_assert!(d >= la.abs_diff(lb));
            prop_assert!(d <= la.max(lb));
        }
    }

    /// The bit-parallel path against the dynamic program on both sides of
    /// the 64/65-byte switch.
    fn kernel_agrees(a: &[u8], b: &[u8]) -> Result<(), String> {
        let want = levenshtein_dp(a, b);
        prop_assert_eq!(levenshtein(a, b), want);
        prop_assert_eq!(levenshtein(b, a), want);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        #[test]
        fn levenshtein_kernel_matches_dp_small_alphabet(a in "[a-e]{0,70}", b in "[a-e]{0,70}") {
            kernel_agrees(a.as_bytes(), b.as_bytes())?;
        }

        #[test]
        fn levenshtein_kernel_matches_dp_any_bytes(
            a in collection::vec(any::<u8>(), 0..=70),
            b in collection::vec(any::<u8>(), 0..=70),
        ) {
            kernel_agrees(&a, &b)?;
        }

        #[test]
        fn levenshtein_kernel_matches_dp_utf8(a in "[aé€𝄞]{0,30}", b in "[aé€𝄞]{0,30}") {
            kernel_agrees(a.as_bytes(), b.as_bytes())?;
        }
    }
}
