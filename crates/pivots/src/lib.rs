//! Pivot selection algorithms (Section 3.2 and Fig. 9).
//!
//! The quality of a pivot set `P` is the paper's *precision* (Definition 1):
//! the mean ratio between the `L∞` distance in the mapped vector space and
//! the true metric distance, over a sample of object pairs — the closer to
//! 1, the tighter the lower bounds and the stronger the pruning.
//!
//! Implemented methods, matching the paper's comparison in Fig. 9:
//!
//! * [`PivotMethod::Hfi`] — the paper's **HF-based Incremental** algorithm:
//!   HF proposes `|CP| = 40` outlier candidates, then pivots are added
//!   greedily to maximise precision;
//! * [`PivotMethod::Hf`] — the Omni-family's Hull-of-Foreigners heuristic;
//! * [`PivotMethod::Fft`] — farthest-first traversal (maximises the minimum
//!   inter-pivot distance);
//! * [`PivotMethod::Spacing`] — minimum-correlation selection after Leuken
//!   & Veltkamp;
//! * [`PivotMethod::Pca`] — PCA-style selection after Mao et al.: greedily
//!   picks candidates with maximal residual distance-vector variance.
//!
//! All methods run on bounded samples so selection stays `O(|O|)` overall,
//! as the paper requires.

// The no-panic zones (DESIGN.md §10) call into this crate: a literal
// panic site in its library code needs an item-level `allow` and a why.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

use rand::prelude::*;
use rand::rngs::StdRng;

use spb_metric::Distance;

/// Which pivot selection algorithm to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PivotMethod {
    /// The paper's HF-based incremental algorithm (HFI, Appendix A).
    Hfi,
    /// Hull of Foreigners (Omni-family).
    Hf,
    /// Farthest-first traversal.
    Fft,
    /// Minimum-correlation ("Spacing") selection.
    Spacing,
    /// PCA-based selection.
    Pca,
}

impl PivotMethod {
    /// All methods, in the order Fig. 9 plots them.
    pub const ALL: [PivotMethod; 5] = [
        PivotMethod::Hfi,
        PivotMethod::Hf,
        PivotMethod::Fft,
        PivotMethod::Spacing,
        PivotMethod::Pca,
    ];

    /// Display name used in experiment tables.
    pub fn name(&self) -> &'static str {
        match self {
            PivotMethod::Hfi => "HFI",
            PivotMethod::Hf => "HF",
            PivotMethod::Fft => "FFT",
            PivotMethod::Spacing => "Spacing",
            PivotMethod::Pca => "PCA",
        }
    }
}

/// Tuning knobs for pivot selection.
#[derive(Clone, Copy, Debug)]
pub struct PivotConfig {
    /// Objects sampled from the dataset for candidate generation and
    /// evaluation.
    pub sample_objects: usize,
    /// Object pairs sampled for precision evaluation.
    pub sample_pairs: usize,
    /// Candidate pool size `|CP|`; the paper fixes 40.
    pub candidates: usize,
    /// RNG seed (selection is deterministic given the seed).
    pub seed: u64,
}

impl Default for PivotConfig {
    fn default() -> Self {
        PivotConfig {
            sample_objects: 2000,
            sample_pairs: 1000,
            candidates: 40,
            seed: 0x5bb5,
        }
    }
}

/// Selects `k` pivots from `objects`, returning their indices.
///
/// Returns fewer than `k` indices only when the dataset itself has fewer
/// than `k` objects.
pub fn select_pivots<O: Clone, D: Distance<O>>(
    method: PivotMethod,
    objects: &[O],
    metric: &D,
    k: usize,
    config: &PivotConfig,
) -> Vec<usize> {
    if objects.is_empty() || k == 0 {
        return Vec::new();
    }
    let k = k.min(objects.len());
    let mut rng = StdRng::seed_from_u64(config.seed);
    // Work on a bounded sample of the dataset (indices into `objects`).
    let sample = sample_indices(objects.len(), config.sample_objects, &mut rng);

    match method {
        PivotMethod::Fft => fft(objects, metric, &sample, k, &mut rng),
        PivotMethod::Hf => hf_candidates(objects, metric, &sample, k, &mut rng),
        PivotMethod::Hfi => {
            let cp = hf_candidates(
                objects,
                metric,
                &sample,
                config.candidates.min(sample.len()),
                &mut rng,
            );
            incremental_by_precision(objects, metric, &sample, &cp, k, config, &mut rng)
        }
        PivotMethod::Spacing => {
            let cp = hf_candidates(
                objects,
                metric,
                &sample,
                config.candidates.min(sample.len()),
                &mut rng,
            );
            spacing(objects, metric, &sample, &cp, k)
        }
        PivotMethod::Pca => {
            let cp = hf_candidates(
                objects,
                metric,
                &sample,
                config.candidates.min(sample.len()),
                &mut rng,
            );
            pca(objects, metric, &sample, &cp, k)
        }
    }
}

fn sample_indices(n: usize, want: usize, rng: &mut StdRng) -> Vec<usize> {
    if n <= want {
        return (0..n).collect();
    }
    rand::seq::index::sample(rng, n, want).into_vec()
}

/// Farthest-first traversal: start from the object farthest from a random
/// seed, then repeatedly add the object maximising the minimum distance to
/// the already-selected pivots.
fn fft<O, D: Distance<O>>(
    objects: &[O],
    metric: &D,
    sample: &[usize],
    k: usize,
    rng: &mut StdRng,
) -> Vec<usize> {
    let seed_idx = sample[rng.gen_range(0..sample.len())];
    let Some(&first) = sample.iter().max_by(|&&a, &&b| {
        metric
            .distance(&objects[seed_idx], &objects[a])
            .total_cmp(&metric.distance(&objects[seed_idx], &objects[b]))
    }) else {
        return Vec::new();
    };
    let mut selected = vec![first];
    // min_dist[i] = distance from sample[i] to the nearest selected pivot.
    let mut min_dist: Vec<f64> = sample
        .iter()
        .map(|&i| metric.distance(&objects[first], &objects[i]))
        .collect();
    while selected.len() < k {
        let Some((pos, _)) = min_dist
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
        else {
            break;
        };
        let next = sample[pos];
        if selected.contains(&next) {
            break; // sample exhausted (all remaining coincide with pivots)
        }
        selected.push(next);
        for (j, &i) in sample.iter().enumerate() {
            min_dist[j] = min_dist[j].min(metric.distance(&objects[next], &objects[i]));
        }
    }
    selected
}

/// HF (Hull of Foreigners): find two far-apart "foci", then add candidates
/// whose distances to existing foci deviate least from the foci edge —
/// points near the hull of the dataset.
fn hf_candidates<O, D: Distance<O>>(
    objects: &[O],
    metric: &D,
    sample: &[usize],
    k: usize,
    rng: &mut StdRng,
) -> Vec<usize> {
    let s = sample[rng.gen_range(0..sample.len())];
    let farthest = |from: usize| {
        sample.iter().copied().max_by(|&a, &b| {
            metric
                .distance(&objects[from], &objects[a])
                .total_cmp(&metric.distance(&objects[from], &objects[b]))
        })
    };
    let Some(f1) = farthest(s) else {
        return Vec::new();
    };
    let f2 = farthest(f1).unwrap_or(f1);
    let edge = metric.distance(&objects[f1], &objects[f2]);
    let mut selected = vec![f1];
    if k > 1 && f2 != f1 {
        selected.push(f2);
    }
    while selected.len() < k {
        // Candidate minimising Σ |d(c, f) − edge| over selected foci.
        let mut best: Option<(usize, f64)> = None;
        for &c in sample {
            if selected.contains(&c) {
                continue;
            }
            let err: f64 = selected
                .iter()
                .map(|&f| (metric.distance(&objects[c], &objects[f]) - edge).abs())
                .sum();
            if best.is_none_or(|(_, e)| err < e) {
                best = Some((c, err));
            }
        }
        match best {
            Some((c, _)) => selected.push(c),
            None => break,
        }
    }
    selected
}

/// Distance matrix rows: `rows[c][j] = d(candidate c, sample object j)`.
fn candidate_rows<O, D: Distance<O>>(
    objects: &[O],
    metric: &D,
    sample: &[usize],
    cands: &[usize],
) -> Vec<Vec<f64>> {
    cands
        .iter()
        .map(|&c| {
            sample
                .iter()
                .map(|&j| metric.distance(&objects[c], &objects[j]))
                .collect()
        })
        .collect()
}

/// The paper's HFI: greedily extend the pivot set with the HF candidate
/// that maximises precision (Definition 1) on a pair sample.
fn incremental_by_precision<O, D: Distance<O>>(
    objects: &[O],
    metric: &D,
    sample: &[usize],
    cands: &[usize],
    k: usize,
    config: &PivotConfig,
    rng: &mut StdRng,
) -> Vec<usize> {
    // Pair sample (by sample positions) and their true distances.
    let pairs: Vec<(usize, usize, f64)> = {
        let mut ps = Vec::with_capacity(config.sample_pairs);
        if sample.len() >= 2 {
            while ps.len() < config.sample_pairs {
                let a = rng.gen_range(0..sample.len());
                let b = rng.gen_range(0..sample.len());
                if a == b {
                    continue;
                }
                let d = metric.distance(&objects[sample[a]], &objects[sample[b]]);
                if d > 0.0 {
                    ps.push((a, b, d));
                }
                if ps.len() >= config.sample_pairs || ps.len() > 4 * config.sample_pairs {
                    break;
                }
            }
        }
        ps
    };
    if pairs.is_empty() {
        // Degenerate dataset (all identical); fall back to HF order.
        return cands.iter().copied().take(k).collect();
    }
    let rows = candidate_rows(objects, metric, sample, cands);

    // cur[p] = best lower bound so far for pair p under selected pivots.
    let mut cur = vec![0.0f64; pairs.len()];
    let mut remaining: Vec<usize> = (0..cands.len()).collect();
    let mut selected = Vec::with_capacity(k);
    while selected.len() < k && !remaining.is_empty() {
        let mut best: Option<(usize, f64)> = None; // (position in remaining, score)
        for (pos, &ci) in remaining.iter().enumerate() {
            let row = &rows[ci];
            let mut score = 0.0f64;
            for (p, &(a, b, d)) in pairs.iter().enumerate() {
                let lb = cur[p].max((row[a] - row[b]).abs());
                score += lb / d;
            }
            if best.is_none_or(|(_, s)| score > s) {
                best = Some((pos, score));
            }
        }
        let Some((pos, _)) = best else { break };
        let ci = remaining.swap_remove(pos);
        let row = &rows[ci];
        for (p, &(a, b, _)) in pairs.iter().enumerate() {
            cur[p] = cur[p].max((row[a] - row[b]).abs());
        }
        selected.push(cands[ci]);
    }
    selected
}

/// Pearson correlation of two equally long vectors (0 when degenerate).
fn correlation(x: &[f64], y: &[f64]) -> f64 {
    let n = x.len() as f64;
    if n == 0.0 {
        return 0.0;
    }
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (a, b) in x.iter().zip(y) {
        cov += (a - mx) * (b - my);
        vx += (a - mx) * (a - mx);
        vy += (b - my) * (b - my);
    }
    if vx == 0.0 || vy == 0.0 {
        return 0.0;
    }
    cov / (vx.sqrt() * vy.sqrt())
}

/// Spacing / minimum correlation: first pivot is the candidate with maximal
/// distance variance, each next minimises the maximum absolute correlation
/// of its distance vector with the already-selected pivots'.
fn spacing<O, D: Distance<O>>(
    objects: &[O],
    metric: &D,
    sample: &[usize],
    cands: &[usize],
    k: usize,
) -> Vec<usize> {
    let rows = candidate_rows(objects, metric, sample, cands);
    let variance = |row: &[f64]| {
        let n = row.len() as f64;
        let m = row.iter().sum::<f64>() / n;
        row.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / n
    };
    let mut remaining: Vec<usize> = (0..cands.len()).collect();
    let Some(first) = remaining
        .iter()
        .enumerate()
        .max_by(|a, b| variance(&rows[*a.1]).total_cmp(&variance(&rows[*b.1])))
        .map(|(pos, _)| pos)
    else {
        return Vec::new();
    };
    let mut selected_rows = vec![remaining.swap_remove(first)];
    while selected_rows.len() < k && !remaining.is_empty() {
        let Some(best) = remaining
            .iter()
            .enumerate()
            .min_by(|a, b| {
                let ca = selected_rows
                    .iter()
                    .map(|&s| correlation(&rows[*a.1], &rows[s]).abs())
                    .fold(0.0f64, f64::max);
                let cb = selected_rows
                    .iter()
                    .map(|&s| correlation(&rows[*b.1], &rows[s]).abs())
                    .fold(0.0f64, f64::max);
                ca.total_cmp(&cb)
            })
            .map(|(pos, _)| pos)
        else {
            break;
        };
        selected_rows.push(remaining.swap_remove(best));
    }
    selected_rows.into_iter().map(|ci| cands[ci]).collect()
}

/// PCA-style: greedily pick the candidate whose (centred) distance vector
/// has the largest residual norm after projecting out the span of the
/// already-selected pivots' vectors (Gram–Schmidt).
fn pca<O, D: Distance<O>>(
    objects: &[O],
    metric: &D,
    sample: &[usize],
    cands: &[usize],
    k: usize,
) -> Vec<usize> {
    let mut rows = candidate_rows(objects, metric, sample, cands);
    // Centre each row.
    for row in &mut rows {
        let m = row.iter().sum::<f64>() / row.len().max(1) as f64;
        row.iter_mut().for_each(|v| *v -= m);
    }
    let norm2 = |v: &[f64]| v.iter().map(|x| x * x).sum::<f64>();
    let mut basis: Vec<Vec<f64>> = Vec::new(); // orthonormal basis
    let mut remaining: Vec<usize> = (0..cands.len()).collect();
    let mut selected = Vec::with_capacity(k);
    while selected.len() < k && !remaining.is_empty() {
        // Residual of each remaining row w.r.t. the current basis.
        let mut best: Option<(usize, f64)> = None;
        for (pos, &ci) in remaining.iter().enumerate() {
            let mut r = rows[ci].clone();
            for b in &basis {
                let dot: f64 = r.iter().zip(b).map(|(x, y)| x * y).sum();
                for (x, y) in r.iter_mut().zip(b) {
                    *x -= dot * y;
                }
            }
            let score = norm2(&r);
            if best.is_none_or(|(_, s)| score > s) {
                best = Some((pos, score));
            }
        }
        let Some((pos, score)) = best else { break };
        let ci = remaining.swap_remove(pos);
        selected.push(cands[ci]);
        if score > 1e-12 {
            // Extend the basis with the normalised residual.
            let mut r = rows[ci].clone();
            for b in &basis {
                let dot: f64 = r.iter().zip(b).map(|(x, y)| x * y).sum();
                for (x, y) in r.iter_mut().zip(b) {
                    *x -= dot * y;
                }
            }
            let n = norm2(&r).sqrt();
            if n > 1e-12 {
                r.iter_mut().for_each(|x| *x /= n);
                basis.push(r);
            }
        }
    }
    selected
}

/// The paper's pivot-set quality measure (Definition 1): mean over sampled
/// object pairs of `D(φ(o_i), φ(o_j)) / d(o_i, o_j)` where `D` is `L∞` in
/// the pivot space. Pairs at distance zero are skipped.
pub fn precision<O, D: Distance<O>>(
    objects: &[O],
    metric: &D,
    pivot_indices: &[usize],
    pairs: usize,
    seed: u64,
) -> f64 {
    if objects.len() < 2 || pivot_indices.is_empty() {
        return 0.0;
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut total = 0.0;
    let mut n = 0usize;
    let mut attempts = 0usize;
    while n < pairs && attempts < 10 * pairs {
        attempts += 1;
        let i = rng.gen_range(0..objects.len());
        let j = rng.gen_range(0..objects.len());
        if i == j {
            continue;
        }
        let d = metric.distance(&objects[i], &objects[j]);
        if d == 0.0 {
            continue;
        }
        let lb = pivot_indices
            .iter()
            .map(|&p| {
                (metric.distance(&objects[i], &objects[p])
                    - metric.distance(&objects[j], &objects[p]))
                .abs()
            })
            .fold(0.0f64, f64::max);
        total += lb / d;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        total / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spb_metric::dataset;
    use spb_metric::{EditDistance, LpNorm, Word};

    fn small_config() -> PivotConfig {
        PivotConfig {
            sample_objects: 300,
            sample_pairs: 200,
            candidates: 20,
            seed: 42,
        }
    }

    #[test]
    fn all_methods_return_k_distinct_pivots() {
        let data = dataset::color(500, 1);
        let m = dataset::color_metric();
        for method in PivotMethod::ALL {
            for k in [1usize, 3, 5] {
                let p = select_pivots(method, &data, &m, k, &small_config());
                assert_eq!(p.len(), k, "{method:?} k={k}");
                let mut q = p.clone();
                q.sort_unstable();
                q.dedup();
                assert_eq!(q.len(), k, "{method:?} returned duplicate pivots");
                assert!(p.iter().all(|&i| i < data.len()));
            }
        }
    }

    #[test]
    fn selection_is_deterministic() {
        let data = dataset::words(400, 2);
        let m = EditDistance::default();
        for method in PivotMethod::ALL {
            let a = select_pivots(method, &data, &m, 4, &small_config());
            let b = select_pivots(method, &data, &m, 4, &small_config());
            assert_eq!(a, b, "{method:?}");
        }
    }

    #[test]
    fn edge_cases() {
        let m = EditDistance::default();
        let empty: Vec<Word> = vec![];
        assert!(select_pivots(PivotMethod::Hfi, &empty, &m, 3, &small_config()).is_empty());
        let one = vec![Word::new("a")];
        let p = select_pivots(PivotMethod::Hfi, &one, &m, 3, &small_config());
        assert_eq!(p, vec![0]);
        assert!(select_pivots(PivotMethod::Fft, &one, &m, 0, &small_config()).is_empty());
    }

    #[test]
    fn precision_increases_with_more_pivots() {
        let data = dataset::color(600, 3);
        let m = dataset::color_metric();
        let mut prev = 0.0;
        for k in [1usize, 3, 5, 7] {
            let p = select_pivots(PivotMethod::Hfi, &data, &m, k, &small_config());
            let prec = precision(&data, &m, &p, 400, 9);
            assert!(
                prec >= prev - 0.02,
                "precision should not degrade: k={k}, {prec} < {prev}"
            );
            assert!(prec > 0.0 && prec <= 1.0 + 1e-9);
            prev = prec;
        }
    }

    #[test]
    fn precision_is_a_lower_bound_ratio() {
        // With every object as a pivot, precision must hit ~1 (the pivot on
        // the pair's endpoint gives an exact bound via identity).
        let data = dataset::words(60, 4);
        let m = EditDistance::default();
        let all: Vec<usize> = (0..data.len()).collect();
        let prec = precision(&data, &m, &all, 300, 1);
        assert!(prec > 0.99, "prec = {prec}");
    }

    #[test]
    fn hfi_beats_or_matches_plain_hf() {
        // The paper's core claim for Fig. 9: HFI's precision ≥ HF's.
        let data = dataset::synthetic(800, 5);
        let m = dataset::synthetic_metric();
        let cfg = small_config();
        let hfi = select_pivots(PivotMethod::Hfi, &data, &m, 5, &cfg);
        let hf = select_pivots(PivotMethod::Hf, &data, &m, 5, &cfg);
        let p_hfi = precision(&data, &m, &hfi, 500, 77);
        let p_hf = precision(&data, &m, &hf, 500, 77);
        assert!(
            p_hfi >= p_hf - 0.03,
            "HFI ({p_hfi}) should not be clearly worse than HF ({p_hf})"
        );
    }

    #[test]
    fn fft_pivots_are_spread_out() {
        let data = dataset::synthetic(500, 6);
        let m = dataset::synthetic_metric();
        let p = select_pivots(PivotMethod::Fft, &data, &m, 4, &small_config());
        // Every pair of FFT pivots should be far apart relative to the mean
        // pairwise distance.
        let sample = spb_metric::pairwise_distance_sample(&data, &m, 500, 1);
        let mean = sample.iter().sum::<f64>() / sample.len() as f64;
        for i in 0..p.len() {
            for j in i + 1..p.len() {
                let d = m.distance(&data[p[i]], &data[p[j]]);
                assert!(d > 0.3 * mean, "FFT pivots too close: {d} vs mean {mean}");
            }
        }
    }

    #[test]
    fn correlation_basics() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [2.0, 4.0, 6.0, 8.0];
        let z = [4.0, 3.0, 2.0, 1.0];
        assert!((correlation(&x, &y) - 1.0).abs() < 1e-12);
        assert!((correlation(&x, &z) + 1.0).abs() < 1e-12);
        assert_eq!(correlation(&x, &[1.0, 1.0, 1.0, 1.0]), 0.0);
    }

    #[test]
    fn works_with_lp_metrics_of_any_p() {
        let data = dataset::synthetic(200, 9);
        let m = LpNorm::new(3.0, 20, 1.0);
        let p = select_pivots(PivotMethod::Hfi, &data, &m, 3, &small_config());
        assert_eq!(p.len(), 3);
    }
}
