//! Dataset statistics: pairwise-distance sampling, distance histograms and
//! the intrinsic-dimensionality estimator.
//!
//! The paper sizes the pivot set by the dataset's *intrinsic dimensionality*
//! `ρ = µ² / (2σ²)` (Section 3.2, citing Chávez et al.), where `µ` and `σ²`
//! are the mean and variance of the pairwise distance distribution. The cost
//! models of Sections 4.4 and 5.3 additionally need the per-pivot distance
//! distributions `F_pᵢ(r)` (eq. 1), which [`DistanceHistogram`] provides.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::distance::Distance;

/// Samples `pairs` pairwise distances from `objects` under `metric`,
/// deterministically from `seed`. Pairs are drawn uniformly with
/// replacement; degenerate `(i, i)` pairs are skipped so the sample reflects
/// distances between *distinct* objects.
///
/// Returns an empty vector when fewer than two objects exist.
pub fn pairwise_distance_sample<O, D: Distance<O>>(
    objects: &[O],
    metric: &D,
    pairs: usize,
    seed: u64,
) -> Vec<f64> {
    if objects.len() < 2 {
        return Vec::new();
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(pairs);
    while out.len() < pairs {
        let i = rng.gen_range(0..objects.len());
        let j = rng.gen_range(0..objects.len());
        if i == j {
            continue;
        }
        out.push(metric.distance(&objects[i], &objects[j]));
    }
    out
}

/// Intrinsic dimensionality `ρ = µ² / (2σ²)` of a pairwise-distance sample.
///
/// Returns `f64::INFINITY` for a degenerate sample with zero variance (all
/// pairwise distances equal), and `0.0` for an empty sample.
pub fn intrinsic_dimensionality(distances: &[f64]) -> f64 {
    if distances.is_empty() {
        return 0.0;
    }
    let n = distances.len() as f64;
    let mean = distances.iter().sum::<f64>() / n;
    let var = distances
        .iter()
        .map(|d| (d - mean) * (d - mean))
        .sum::<f64>()
        / n;
    if var == 0.0 {
        return f64::INFINITY;
    }
    mean * mean / (2.0 * var)
}

/// An equi-width cumulative histogram of distances to one reference object —
/// the distance distribution `F_p(r) = Pr{d(o, p) ≤ r}` of eq. (1).
#[derive(Clone, Debug)]
pub struct DistanceHistogram {
    /// Upper bound of the distance domain (`d⁺`).
    max_distance: f64,
    /// `counts[i]` = number of observations in bucket `i`.
    counts: Vec<u64>,
    /// Total number of observations.
    total: u64,
}

impl DistanceHistogram {
    /// An empty histogram over `[0, max_distance]` with `buckets` buckets.
    ///
    /// # Panics
    /// Panics if `buckets == 0` or `max_distance <= 0`.
    pub fn new(max_distance: f64, buckets: usize) -> Self {
        assert!(buckets > 0, "histogram needs at least one bucket");
        assert!(max_distance > 0.0, "max_distance must be positive");
        DistanceHistogram {
            max_distance,
            counts: vec![0; buckets],
            total: 0,
        }
    }

    /// Records one distance observation (clamped into the domain).
    pub fn record(&mut self, d: f64) {
        let buckets = self.counts.len();
        let idx = ((d / self.max_distance) * buckets as f64).floor() as usize;
        self.counts[idx.min(buckets - 1)] += 1;
        self.total += 1;
    }

    /// Inverse CDF: the smallest `r` (quantised to bucket edges) such that
    /// `total_objects · F(r) ≥ k` — the `eND_k` estimator of eq. (5).
    /// Returns `max_distance` when even the full domain cannot reach `k`.
    pub fn quantile_radius(&self, total_objects: u64, k: u64) -> f64 {
        if self.total == 0 || total_objects == 0 {
            return self.max_distance;
        }
        let buckets = self.counts.len() as f64;
        let width = self.max_distance / buckets;
        let mut acc = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            acc += c;
            let f = acc as f64 / self.total as f64;
            if total_objects as f64 * f >= k as f64 {
                return (i as f64 + 1.0) * width;
            }
        }
        self.max_distance
    }

    /// Number of recorded observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Upper bound of the domain the histogram covers.
    pub fn max_distance(&self) -> f64 {
        self.max_distance
    }

    /// Number of buckets.
    pub fn buckets(&self) -> usize {
        self.counts.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::{EditDistance, LpNorm};
    use crate::object::{FloatVec, Word};

    #[test]
    fn sample_is_deterministic_and_sized() {
        let words: Vec<Word> = ["aa", "ab", "abc", "xyz", "xy"]
            .iter()
            .map(|s| Word::new(*s))
            .collect();
        let d = EditDistance::default();
        let s1 = pairwise_distance_sample(&words, &d, 100, 7);
        let s2 = pairwise_distance_sample(&words, &d, 100, 7);
        assert_eq!(s1, s2);
        assert_eq!(s1.len(), 100);
        assert!(s1.iter().all(|&x| x >= 1.0)); // distinct words only
    }

    #[test]
    fn sample_handles_tiny_inputs() {
        let d = EditDistance::default();
        assert!(pairwise_distance_sample::<Word, _>(&[], &d, 10, 1).is_empty());
        assert!(pairwise_distance_sample(&[Word::new("a")], &d, 10, 1).is_empty());
    }

    #[test]
    fn intrinsic_dimensionality_matches_formula() {
        let sample = vec![1.0, 2.0, 3.0, 4.0];
        let mean = 2.5;
        let var = 1.25;
        let expected = mean * mean / (2.0 * var);
        assert!((intrinsic_dimensionality(&sample) - expected).abs() < 1e-12);
        assert_eq!(intrinsic_dimensionality(&[]), 0.0);
        assert_eq!(intrinsic_dimensionality(&[2.0, 2.0]), f64::INFINITY);
    }

    #[test]
    fn uniform_vectors_have_growing_intrinsic_dim() {
        // Higher-dimensional uniform data concentrates pairwise distances,
        // so intrinsic dimensionality should increase with real dimension.
        use rand::{Rng, SeedableRng};
        let mut rho = Vec::new();
        for dim in [2usize, 8, 32] {
            let mut rng = rand::rngs::StdRng::seed_from_u64(42);
            let data: Vec<FloatVec> = (0..300)
                .map(|_| FloatVec::new((0..dim).map(|_| rng.gen::<f32>()).collect()))
                .collect();
            let d = LpNorm::l2(dim);
            let sample = pairwise_distance_sample(&data, &d, 2000, 1);
            rho.push(intrinsic_dimensionality(&sample));
        }
        assert!(rho[0] < rho[1] && rho[1] < rho[2], "rho = {rho:?}");
    }

    #[test]
    fn quantile_radius_inverts_cdf() {
        let mut h = DistanceHistogram::new(100.0, 100);
        for i in 0..1000 {
            h.record((i % 100) as f64);
        }
        // 10% of 1000 objects within r → need r covering first 10 buckets.
        let r = h.quantile_radius(1000, 100);
        assert!((9.0..=11.0).contains(&r), "r = {r}");
        // Unreachable k saturates at d+.
        assert_eq!(h.quantile_radius(10, 100_000), 100.0);
    }
}
