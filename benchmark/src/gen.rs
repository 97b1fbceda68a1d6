//! Frozen input generators.
//!
//! The Words and Synthetic generators are copies of the ones in
//! `spb_metric::dataset`, driven by a PRNG defined here, so that neither
//! a change to the library's generators nor to the vendored `rand`
//! stand-in can silently change what the benchmark measures. Only the
//! object types and distances come from `spb-metric`. Every workload
//! prints a digest of its objects and op list; a drifted generator
//! changes the digest.

use std::collections::HashSet;

use spb_metric::{FloatVec, MetricObject, Word};

/// SplitMix64: small, fast, and fully specified here.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for a named purpose, so adding draws to one
    /// part of a workload never shifts another part's inputs.
    pub fn fork(seed: u64, stream: &str) -> Self {
        Rng(seed ^ fnv1a(stream.as_bytes()))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`; `n > 0`.
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Uniform in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.f64()
    }

    /// Standard normal via Box–Muller.
    pub fn normal(&mut self) -> f64 {
        let u1 = self.range_f64(1e-12, 1.0);
        let u2 = self.f64();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// 64-bit FNV-1a over a byte stream; the workload digest.
#[derive(Clone, Copy, Debug)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn object<O: MetricObject>(&mut self, o: &O, buf: &mut Vec<u8>) {
        buf.clear();
        o.encode(buf);
        self.u64(buf.len() as u64);
        self.bytes(buf);
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut d = Digest::default();
    d.bytes(bytes);
    d.finish()
}

/// Approximate English letter frequencies (per mille).
const LETTER_WEIGHTS: [u32; 26] = [
    82, 15, 28, 43, 127, 22, 20, 61, 70, 2, 8, 40, 24, 67, 75, 19, 1, 60, 63, 91, 28, 10, 24, 2,
    20, 1,
];

fn letter(rng: &mut Rng) -> u8 {
    let total: u32 = LETTER_WEIGHTS.iter().sum();
    let mut u = rng.below(total as usize) as u32;
    for (i, &w) in LETTER_WEIGHTS.iter().enumerate() {
        if u < w {
            return b'a' + i as u8;
        }
        u -= w;
    }
    b'z'
}

fn random_word(rng: &mut Rng, len: usize) -> Vec<u8> {
    (0..len).map(|_| letter(rng)).collect()
}

/// `n` distinct words of length 1–34: root words mutated by up to two
/// random edits, which gives the clustered edit-distance structure of a
/// dictionary (inflections near their stems).
pub fn words(n: usize, seed: u64) -> Vec<Word> {
    let mut rng = Rng::fork(seed, "words");
    let n_roots = ((3 * n) / 5).max(1);
    let roots: Vec<Vec<u8>> = (0..n_roots)
        .map(|_| {
            let len = 4 + (rng.f64().powf(1.4) * 14.0) as usize;
            random_word(&mut rng, len)
        })
        .collect();
    let mut seen: HashSet<Vec<u8>> = HashSet::with_capacity(n);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let mut w = roots[rng.below(roots.len())].clone();
        for _ in 0..rng.below(3) {
            match rng.below(3) {
                0 if w.len() < 34 => {
                    let pos = rng.below(w.len() + 1);
                    let c = letter(&mut rng);
                    w.insert(pos, c);
                }
                1 if w.len() > 1 => {
                    let pos = rng.below(w.len());
                    w.remove(pos);
                }
                _ => {
                    let pos = rng.below(w.len());
                    w[pos] = letter(&mut rng);
                }
            }
        }
        if !seen.contains(&w) {
            seen.insert(w.clone());
            out.push(w);
        } else {
            // Collision: a fresh random word, so generation terminates.
            let len = 6 + rng.below(7);
            let w = random_word(&mut rng, len);
            if seen.insert(w.clone()) {
                out.push(w);
            }
        }
    }
    out.into_iter()
        .map(|w| Word(String::from_utf8(w).expect("ascii letters")))
        .collect()
}

/// `n` 20-d vectors in the unit cube near a 3-d latent manifold around 6
/// cluster centres (`x = c_k + A·z + ε`): the paper's Synthetic dataset,
/// whose latent dimension sets the intrinsic dimensionality the index
/// feels.
pub fn synthetic(n: usize, seed: u64) -> Vec<FloatVec> {
    const DIM: usize = 20;
    const LATENT: usize = 3;
    const CLUSTERS: usize = 6;
    const SPREAD: f64 = 0.22;
    const NOISE: f64 = 0.008;
    let mut rng = Rng::fork(seed, "synthetic");
    let centers: Vec<Vec<f64>> = (0..CLUSTERS)
        .map(|_| (0..DIM).map(|_| rng.range_f64(0.25, 0.75)).collect())
        .collect();
    let a: Vec<Vec<f64>> = (0..DIM)
        .map(|_| {
            (0..LATENT)
                .map(|_| rng.normal() / (LATENT as f64).sqrt())
                .collect()
        })
        .collect();
    (0..n)
        .map(|_| {
            let c = &centers[rng.below(CLUSTERS)];
            let z: Vec<f64> = (0..LATENT).map(|_| SPREAD * rng.normal()).collect();
            FloatVec::new(
                (0..DIM)
                    .map(|i| {
                        let latent: f64 = a[i].iter().zip(&z).map(|(aij, zj)| aij * zj).sum();
                        (c[i] + latent + NOISE * rng.normal()).clamp(0.0, 1.0) as f32
                    })
                    .collect(),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest_of<O: MetricObject>(objs: &[O]) -> u64 {
        let mut d = Digest::default();
        let mut buf = Vec::new();
        for o in objs {
            d.object(o, &mut buf);
        }
        d.finish()
    }

    #[test]
    fn generators_repeat_for_a_seed_and_differ_across_seeds() {
        assert_eq!(digest_of(&words(500, 1)), digest_of(&words(500, 1)));
        assert_ne!(digest_of(&words(500, 1)), digest_of(&words(500, 2)));
        assert_eq!(digest_of(&synthetic(200, 1)), digest_of(&synthetic(200, 1)));
        assert_ne!(digest_of(&synthetic(200, 1)), digest_of(&synthetic(200, 2)));
    }

    #[test]
    fn words_are_distinct_and_bounded() {
        let ws = words(3000, 7);
        let set: HashSet<&str> = ws.iter().map(Word::as_str).collect();
        assert_eq!(set.len(), ws.len());
        assert!(ws.iter().all(|w| (1..=34).contains(&w.len())));
    }

    #[test]
    fn vectors_are_20d_in_the_unit_cube() {
        for v in synthetic(300, 3) {
            assert_eq!(v.dim(), 20);
            assert!(v.coords().iter().all(|c| (0.0..=1.0).contains(c)));
        }
    }

    #[test]
    fn frozen_streams() {
        // Pinned values: a change to the PRNG or a generator must be a
        // deliberate edit of these lines.
        assert_eq!(Rng(1).next_u64(), 0x910a_2dec_8902_5cc1);
    }
}
