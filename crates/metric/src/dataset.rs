//! Reproducible dataset generators.
//!
//! The paper evaluates on four real datasets (*Words*, *Color*, *DNA*,
//! *Signature*) and one synthetic dataset (Table 2). The real data is not
//! redistributable, so — per the substitution policy in DESIGN.md §3 — each
//! generator below produces a synthetic stand-in with the same object type,
//! the same distance function, the same `d⁺`, and a comparable clustering
//! structure (and therefore comparable intrinsic dimensionality), which is
//! what drives every algorithm and cost model in the paper.
//!
//! All generators are deterministic in their `seed`, so experiments are
//! repeatable bit-for-bit.
//!
//! Following the paper's methodology, query workloads take *"the first 500
//! objects in every dataset"*; keep that in mind when slicing.

use std::collections::HashSet;

use rand::distributions::WeightedIndex;
use rand::prelude::*;
use rand::rngs::StdRng;

use crate::distance::{EditDistance, Hamming, LpNorm, TrigramAngular};
use crate::object::{Dna, FloatVec, Signature, Word};

/// Approximate English letter frequencies (per mille), used to make
/// generated words look like dictionary words rather than uniform noise.
const LETTER_WEIGHTS: [u32; 26] = [
    82, 15, 28, 43, 127, 22, 20, 61, 70, 2, 8, 40, 24, 67, 75, 19, 1, 60, 63, 91, 28, 10, 24, 2,
    20, 1,
];

fn random_word(rng: &mut StdRng, letters: &WeightedIndex<u32>, len: usize) -> String {
    (0..len)
        .map(|_| (b'a' + letters.sample(rng) as u8) as char)
        .collect()
}

/// Stand-in for the paper's *Words* dataset (611,756 English words, lengths
/// 1–34, edit distance, intrinsic dimensionality ≈ 4.9).
///
/// Words are grown from a pool of root words by random edit operations,
/// which yields the clustered edit-distance structure of a natural-language
/// dictionary (inflections sit within small edit distance of their stems).
/// All returned words are distinct.
// The weights are static and every byte is a lowercase ASCII letter.
#[allow(clippy::expect_used)]
pub fn words(n: usize, seed: u64) -> Vec<Word> {
    let mut rng = StdRng::seed_from_u64(seed);
    let letters = WeightedIndex::new(LETTER_WEIGHTS).expect("static weights are valid");
    let n_roots = ((3 * n) / 5).max(1);
    let roots: Vec<String> = (0..n_roots)
        .map(|_| {
            // Skewed length distribution (3–23, mostly short), matching a
            // dictionary's length profile; length variation is what gives
            // edit distances their spread.
            let len = 4 + (rng.gen::<f64>().powf(1.4) * 14.0) as usize;
            random_word(&mut rng, &letters, len)
        })
        .collect();

    let mut seen: HashSet<String> = HashSet::with_capacity(n);
    let mut out: Vec<Word> = Vec::with_capacity(n);
    while out.len() < n {
        let root = &roots[rng.gen_range(0..roots.len())];
        let mut w: Vec<u8> = root.bytes().collect();
        let edits = rng.gen_range(0..=2);
        for _ in 0..edits {
            let op = rng.gen_range(0..3);
            match op {
                0 if w.len() < 34 => {
                    // insert
                    let pos = rng.gen_range(0..=w.len());
                    w.insert(pos, b'a' + letters.sample(&mut rng) as u8);
                }
                1 if w.len() > 1 => {
                    // delete
                    let pos = rng.gen_range(0..w.len());
                    w.remove(pos);
                }
                _ if !w.is_empty() => {
                    // substitute
                    let pos = rng.gen_range(0..w.len());
                    w[pos] = b'a' + letters.sample(&mut rng) as u8;
                }
                _ => {}
            }
        }
        let s = String::from_utf8(w).expect("ascii letters");
        if !s.is_empty() && seen.insert(s.clone()) {
            out.push(Word(s));
        } else {
            // Collision: fall back to a fresh random word so generation
            // always terminates, even for n larger than the mutation space.
            let len = rng.gen_range(6..=12);
            let s = random_word(&mut rng, &letters, len);
            if seen.insert(s.clone()) {
                out.push(Word(s));
            }
        }
    }
    out
}

/// The metric for [`words`]: edit distance with `d⁺ = 34`.
pub fn words_metric() -> EditDistance {
    EditDistance::default()
}

/// Standard-normal sample via Box–Muller.
fn normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(1e-12..1.0);
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Latent-factor vector generator: points live near a `latent`-dimensional
/// manifold embedded in `dim` dimensions (`x = c_k + A·z + ε`, clamped to
/// the unit cube). The latent dimensionality — not `dim` — controls the
/// intrinsic dimensionality that metric indexes feel, which is how real
/// feature data (the paper's 16-d color histograms with ρ ≈ 2.9) behaves.
fn latent_vectors(
    n: usize,
    dim: usize,
    latent: usize,
    clusters: usize,
    spread: f64,
    noise: f64,
    rng: &mut StdRng,
) -> Vec<FloatVec> {
    let centers: Vec<Vec<f64>> = (0..clusters)
        .map(|_| (0..dim).map(|_| rng.gen_range(0.25..0.75)).collect())
        .collect();
    // One shared loading matrix A (dim × latent), column-normalised.
    let a: Vec<Vec<f64>> = (0..dim)
        .map(|_| {
            (0..latent)
                .map(|_| normal(rng) / (latent as f64).sqrt())
                .collect()
        })
        .collect();
    (0..n)
        .map(|_| {
            let c = &centers[rng.gen_range(0..centers.len())];
            let z: Vec<f64> = (0..latent).map(|_| spread * normal(rng)).collect();
            FloatVec::new(
                (0..dim)
                    .map(|i| {
                        let latent_part: f64 = a[i].iter().zip(&z).map(|(aij, zj)| aij * zj).sum();
                        (c[i] + latent_part + noise * normal(rng)).clamp(0.0, 1.0) as f32
                    })
                    .collect(),
            )
        })
        .collect()
}

/// Stand-in for the paper's *Color* dataset (112,682 16-d color histograms,
/// L₅-norm, intrinsic dimensionality ≈ 2.9): a tight 16-d Gaussian mixture.
pub fn color(n: usize, seed: u64) -> Vec<FloatVec> {
    let mut rng = StdRng::seed_from_u64(seed);
    latent_vectors(n, 16, 2, 1, 0.45, 0.002, &mut rng)
}

/// The metric for [`color`]: L₅ over the 16-d unit cube.
pub fn color_metric() -> LpNorm {
    LpNorm::l5(16)
}

/// Stand-in for the paper's *DNA* dataset (one million 108-mers, cosine
/// similarity in tri-gram counting space, intrinsic dimensionality ≈ 6.9):
/// root 108-mers mutated at varying rates, giving a broad angular-distance
/// distribution.
// Every byte is drawn from `BASES`, so the string is ASCII.
#[allow(clippy::expect_used)]
pub fn dna(n: usize, seed: u64) -> Vec<Dna> {
    let mut rng = StdRng::seed_from_u64(seed);
    const LEN: usize = 108;
    const BASES: [u8; 4] = [b'A', b'C', b'G', b'T'];
    // Each root has its own base composition (like genomic regions with
    // different GC content), which diversifies tri-gram profiles and keeps
    // the angular-distance distribution wide.
    let n_roots = (n / 60).max(2);
    let roots: Vec<(Vec<u8>, [f64; 4])> = (0..n_roots)
        .map(|_| {
            let mut w = [0.0f64; 4];
            for wi in &mut w {
                *wi = rng.gen_range(0.05..1.0f64).powi(2);
            }
            let total: f64 = w.iter().sum();
            for wi in &mut w {
                *wi /= total;
            }
            let sample_base = |rng: &mut StdRng, w: &[f64; 4]| -> u8 {
                let mut u = rng.gen::<f64>();
                for (i, &p) in w.iter().enumerate() {
                    if u < p {
                        return BASES[i];
                    }
                    u -= p;
                }
                BASES[3]
            };
            let root: Vec<u8> = (0..LEN).map(|_| sample_base(&mut rng, &w)).collect();
            (root, w)
        })
        .collect();
    (0..n)
        .map(|_| {
            let (root, w) = &roots[rng.gen_range(0..roots.len())];
            let mut s = root.clone();
            // Heavy-tailed mutation rate: many near-copies, some far drifts.
            let rate = rng.gen_range(0.0..0.8f64).powi(2);
            for slot in s.iter_mut().take(LEN) {
                if rng.gen::<f64>() < rate {
                    let mut u = rng.gen::<f64>();
                    let mut b = BASES[3];
                    for (i, &p) in w.iter().enumerate() {
                        if u < p {
                            b = BASES[i];
                            break;
                        }
                        u -= p;
                    }
                    *slot = b;
                }
            }
            Dna::new(String::from_utf8(s).expect("ACGT bytes"))
        })
        .collect()
}

/// The metric for [`dna`]: angular distance over tri-gram counts, `d⁺ = 1`.
pub fn dna_metric() -> TrigramAngular {
    TrigramAngular
}

/// Stand-in for the paper's *Signature* dataset (49,740 signatures of 64
/// symbols, Hamming distance, intrinsic dimensionality ≈ 14.8): cluster
/// seeds over a 16-letter alphabet with noisy position flips. The high flip
/// rate reproduces the paper's hard, high-intrinsic-dimensionality regime.
pub fn signature(n: usize, seed: u64) -> Vec<Signature> {
    let mut rng = StdRng::seed_from_u64(seed);
    const LEN: usize = 64;
    const ALPHABET: u8 = 16;
    // Hierarchical structure (template → families → objects) widens the
    // pairwise Hamming distribution: close pairs share a family, far pairs
    // only the template — a realistic signature corpus, and the only way
    // Hamming distances over 64 positions avoid concentrating at ~60.
    let template: Vec<u8> = (0..LEN).map(|_| rng.gen_range(0..ALPHABET)).collect();
    let mutate = |rng: &mut StdRng, base: &[u8], rate: f64| -> Vec<u8> {
        base.iter()
            .map(|&c| {
                if rng.gen::<f64>() < rate {
                    rng.gen_range(0..ALPHABET)
                } else {
                    c
                }
            })
            .collect()
    };
    let n_super = (n / 400).max(2);
    let supers: Vec<Vec<u8>> = (0..n_super)
        .map(|_| {
            let rate = rng.gen_range(0.1..0.55);
            mutate(&mut rng, &template, rate)
        })
        .collect();
    let n_seeds = (n / 20).max(2);
    let seeds: Vec<Vec<u8>> = (0..n_seeds)
        .map(|_| {
            let parent_idx = rng.gen_range(0..supers.len());
            let rate = rng.gen_range(0.02..0.3);
            mutate(&mut rng, &supers[parent_idx], rate)
        })
        .collect();
    (0..n)
        .map(|_| {
            let parent = &seeds[rng.gen_range(0..seeds.len())];
            // Heavy-tailed per-object drift.
            let rate = rng.gen_range(0.0..0.55f64).powi(2);
            Signature::new(mutate(&mut rng, parent, rate))
        })
        .collect()
}

/// The metric for [`signature`]: Hamming distance with `d⁺ = 64`.
pub fn signature_metric() -> Hamming {
    Hamming::new(64)
}

/// The paper's *Synthetic* dataset (20-d vectors, L₂-norm, intrinsic
/// dimensionality ≈ 4.76, cardinality swept 200K–1000K in Fig. 14): a 20-d
/// Gaussian mixture.
pub fn synthetic(n: usize, seed: u64) -> Vec<FloatVec> {
    let mut rng = StdRng::seed_from_u64(seed);
    latent_vectors(n, 20, 3, 6, 0.22, 0.008, &mut rng)
}

/// The metric for [`synthetic`]: L₂ over the 20-d unit cube.
pub fn synthetic_metric() -> LpNorm {
    LpNorm::l2(20)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{intrinsic_dimensionality, pairwise_distance_sample};
    use crate::Distance;

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(words(50, 1), words(50, 1));
        assert_ne!(words(50, 1), words(50, 2));
        assert_eq!(color(10, 3), color(10, 3));
        assert_eq!(dna(10, 3), dna(10, 3));
        assert_eq!(signature(10, 3), signature(10, 3));
        assert_eq!(synthetic(10, 3), synthetic(10, 3));
    }

    #[test]
    fn words_are_distinct_and_bounded() {
        let ws = words(2000, 7);
        assert_eq!(ws.len(), 2000);
        let set: HashSet<&str> = ws.iter().map(|w| w.as_str()).collect();
        assert_eq!(set.len(), ws.len(), "words must be distinct");
        assert!(ws.iter().all(|w| (1..=34).contains(&w.len())));
    }

    #[test]
    fn vectors_match_schema() {
        assert!(color(100, 1).iter().all(|v| v.dim() == 16));
        assert!(synthetic(100, 1).iter().all(|v| v.dim() == 20));
        for v in color(100, 1) {
            assert!(v.coords().iter().all(|&c| (0.0..=1.0).contains(&c)));
        }
    }

    #[test]
    fn dna_and_signature_match_schema() {
        assert!(dna(50, 1).iter().all(|d| d.len() == 108));
        assert!(signature(50, 1).iter().all(|s| s.len() == 64));
        assert!(signature(50, 1)
            .iter()
            .all(|s| s.symbols().iter().all(|&c| c < 16)));
    }

    #[test]
    fn distances_respect_declared_max() {
        let ws = words(300, 11);
        let m = words_metric();
        for s in pairwise_distance_sample(&ws, &m, 500, 1) {
            assert!(s <= m.max_distance());
        }
        let cs = color(300, 11);
        let m = color_metric();
        for s in pairwise_distance_sample(&cs, &m, 500, 1) {
            assert!(s <= m.max_distance());
        }
    }

    #[test]
    fn intrinsic_dimensionality_in_sane_band() {
        // The stand-ins should land in the same low-intrinsic-dimensionality
        // regime as the paper's data (Table 2 reports 2.9–14.8). We only
        // assert broad bands: generators are tuned, not fitted.
        let cases: Vec<(&str, f64)> = vec![
            ("words", {
                let d = words(1500, 5);
                intrinsic_dimensionality(&pairwise_distance_sample(&d, &words_metric(), 3000, 1))
            }),
            ("color", {
                let d = color(1500, 5);
                intrinsic_dimensionality(&pairwise_distance_sample(&d, &color_metric(), 3000, 1))
            }),
            ("synthetic", {
                let d = synthetic(1500, 5);
                intrinsic_dimensionality(&pairwise_distance_sample(
                    &d,
                    &synthetic_metric(),
                    3000,
                    1,
                ))
            }),
        ];
        for (name, rho) in cases {
            assert!(rho > 0.5 && rho < 25.0, "{name}: rho = {rho}");
        }
    }
}
