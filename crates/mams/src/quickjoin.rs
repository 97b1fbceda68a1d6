//! Quickjoin (Jacox & Samet, TODS 2008) with the improvements of
//! Fredriksson & Braithwaite (SISAP 2013) — the in-memory similarity-join
//! baseline of Fig. 17 (the paper reports no page accesses for it because
//! it is an index-free, main-memory algorithm).
//!
//! The algorithm recursively partitions the input by a random pivot's ball
//! of radius ρ: pairs inside the ball and pairs outside recurse
//! independently; pairs straddling the boundary are handled by *window
//! joins* over the shells `[ρ − ε, ρ)` and `[ρ, ρ + ε)`. Small partitions
//! fall back to nested loops. The Fredriksson–Braithwaite refinements
//! implemented here: median-based ρ (balanced recursion) and reuse of the
//! partitioning distances to prune nested-loop candidates via the pivot
//! lower bound `|d(a, p) − d(b, p)| > ε`.
//!
//! The R-S (two-set) variant tags every item with its source and emits
//! only cross-set pairs, which is what the paper's `SJ(Q, O, ε)`
//! experiments require.

use spb_metric::{CountingDistance, DistCounter, Distance, MetricObject};

/// Quickjoin tuning parameters.
#[derive(Clone, Copy, Debug)]
pub struct QuickJoinParams {
    /// Partitions at most this large are joined by nested loops.
    pub small_threshold: usize,
    /// RNG seed for pivot choice.
    pub seed: u64,
}

impl Default for QuickJoinParams {
    fn default() -> Self {
        QuickJoinParams {
            small_threshold: 32,
            seed: 0x9d0f,
        }
    }
}

/// One tagged item: `(from_q, index in its source slice)` plus the
/// distance to the current partitioning pivot (reused for pruning).
#[derive(Clone, Copy, Debug)]
struct Item {
    from_q: bool,
    idx: u32,
    pivot_dist: f64,
}

/// Result of [`quickjoin_rs`]: `(q index, o index, distance)` triples and
/// the number of distance computations spent.
pub(crate) type QuickJoinResult = (Vec<(u32, u32, f64)>, u64);

/// R-S Quickjoin: all pairs `(q, o) ∈ Q × O` with `d(q, o) ≤ eps`.
pub fn quickjoin_rs<O: MetricObject, D: Distance<O>>(
    q_set: &[O],
    o_set: &[O],
    metric: &D,
    eps: f64,
    params: &QuickJoinParams,
) -> QuickJoinResult {
    let counter = DistCounter::new();
    let metric = CountingDistance::with_counter(metric, counter.clone());
    let mut out = Vec::new();
    if eps >= 0.0 && !q_set.is_empty() && !o_set.is_empty() {
        let items: Vec<Item> = (0..q_set.len() as u32)
            .map(|i| Item {
                from_q: true,
                idx: i,
                pivot_dist: 0.0,
            })
            .chain((0..o_set.len() as u32).map(|i| Item {
                from_q: false,
                idx: i,
                pivot_dist: 0.0,
            }))
            .collect();
        let mut rng_state = params.seed | 1;
        let ctx = Ctx {
            q_set,
            o_set,
            metric: &metric,
            eps,
            thr: params.small_threshold.max(2),
        };
        qj(&ctx, items, &mut rng_state, &mut out, 0);
    }
    (out, counter.get())
}

struct Ctx<'a, O, D> {
    q_set: &'a [O],
    o_set: &'a [O],
    metric: &'a CountingDistance<&'a D>,
    eps: f64,
    thr: usize,
}

impl<O: MetricObject, D: Distance<O>> Ctx<'_, O, D> {
    fn obj(&self, item: &Item) -> &O {
        if item.from_q {
            &self.q_set[item.idx as usize]
        } else {
            &self.o_set[item.idx as usize]
        }
    }

    fn emit(&self, a: &Item, b: &Item, out: &mut Vec<(u32, u32, f64)>) {
        if a.from_q == b.from_q {
            return;
        }
        // Reuse the partitioning distances: the pivot lower bound can
        // discard the pair without a distance computation.
        if (a.pivot_dist - b.pivot_dist).abs() > self.eps {
            return;
        }
        let d = self.metric.distance(self.obj(a), self.obj(b));
        if d <= self.eps {
            if a.from_q {
                out.push((a.idx, b.idx, d));
            } else {
                out.push((b.idx, a.idx, d));
            }
        }
    }
}

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// Quickjoin over one partition.
fn qj<O: MetricObject, D: Distance<O>>(
    ctx: &Ctx<'_, O, D>,
    mut items: Vec<Item>,
    rng: &mut u64,
    out: &mut Vec<(u32, u32, f64)>,
    depth: usize,
) {
    if items.len() <= ctx.thr || depth > 64 {
        for i in 0..items.len() {
            for j in i + 1..items.len() {
                ctx.emit(&items[i], &items[j], out);
            }
        }
        return;
    }
    // Pick a pivot, compute all distances to it, split at the median
    // (the Fredriksson–Braithwaite balance refinement).
    let p_idx = (xorshift(rng) % items.len() as u64) as usize;
    let pivot = ctx.obj(&items[p_idx]).clone();
    for it in items.iter_mut() {
        it.pivot_dist = ctx.metric.distance(ctx.obj(it), &pivot);
    }
    let mut dists: Vec<f64> = items.iter().map(|i| i.pivot_dist).collect();
    dists.sort_by(f64::total_cmp);
    let rho = dists[dists.len() / 2];
    if rho == 0.0 || dists[0] == dists[dists.len() - 1] {
        // Degenerate partition (all equidistant): nested loop.
        for i in 0..items.len() {
            for j in i + 1..items.len() {
                ctx.emit(&items[i], &items[j], out);
            }
        }
        return;
    }

    let (inside, outside): (Vec<Item>, Vec<Item>) =
        items.iter().partition(|it| it.pivot_dist < rho);
    let win_in: Vec<Item> = inside
        .iter()
        .copied()
        .filter(|it| it.pivot_dist >= rho - ctx.eps)
        .collect();
    let win_out: Vec<Item> = outside
        .iter()
        .copied()
        .filter(|it| it.pivot_dist < rho + ctx.eps)
        .collect();
    qj(ctx, inside, rng, out, depth + 1);
    qj(ctx, outside, rng, out, depth + 1);
    qj_win(ctx, win_in, win_out, rng, out, depth + 1);
}

/// Window join: pairs with one side in `a` (inside shell) and the other in
/// `b` (outside shell).
fn qj_win<O: MetricObject, D: Distance<O>>(
    ctx: &Ctx<'_, O, D>,
    mut a: Vec<Item>,
    mut b: Vec<Item>,
    rng: &mut u64,
    out: &mut Vec<(u32, u32, f64)>,
    depth: usize,
) {
    if a.is_empty() || b.is_empty() {
        return;
    }
    if a.len() + b.len() <= ctx.thr || depth > 64 {
        for x in &a {
            for y in &b {
                ctx.emit(x, y, out);
            }
        }
        return;
    }
    // Re-partition both windows by a common pivot and radius.
    let pick_from_a = xorshift(rng).is_multiple_of(2);
    let pivot = if pick_from_a {
        ctx.obj(&a[(xorshift(rng) % a.len() as u64) as usize])
            .clone()
    } else {
        ctx.obj(&b[(xorshift(rng) % b.len() as u64) as usize])
            .clone()
    };
    for it in a.iter_mut().chain(b.iter_mut()) {
        it.pivot_dist = ctx.metric.distance(ctx.obj(it), &pivot);
    }
    let mut dists: Vec<f64> = a.iter().chain(b.iter()).map(|i| i.pivot_dist).collect();
    dists.sort_by(f64::total_cmp);
    let rho = dists[dists.len() / 2];
    if dists[0] == dists[dists.len() - 1] {
        for x in &a {
            for y in &b {
                ctx.emit(x, y, out);
            }
        }
        return;
    }
    let split = |v: Vec<Item>| -> (Vec<Item>, Vec<Item>, Vec<Item>, Vec<Item>) {
        let (inside, outside): (Vec<Item>, Vec<Item>) =
            v.iter().partition(|it| it.pivot_dist < rho);
        let wi = inside
            .iter()
            .copied()
            .filter(|it| it.pivot_dist >= rho - ctx.eps)
            .collect();
        let wo = outside
            .iter()
            .copied()
            .filter(|it| it.pivot_dist < rho + ctx.eps)
            .collect();
        (inside, outside, wi, wo)
    };
    let (a_in, a_out, a_wi, a_wo) = split(a);
    let (b_in, b_out, b_wi, b_wo) = split(b);
    qj_win(ctx, a_in, b_in, rng, out, depth + 1);
    qj_win(ctx, a_out, b_out, rng, out, depth + 1);
    qj_win(ctx, a_wi, b_wo, rng, out, depth + 1);
    qj_win(ctx, a_wo, b_wi, rng, out, depth + 1);
}

#[cfg(test)]
mod tests {
    use super::*;
    use spb_metric::dataset;
    use spb_metric::Distance;

    fn brute<O: MetricObject, D: Distance<O>>(
        q: &[O],
        o: &[O],
        metric: &D,
        eps: f64,
    ) -> Vec<(u32, u32)> {
        let mut pairs = Vec::new();
        for (i, a) in q.iter().enumerate() {
            for (j, b) in o.iter().enumerate() {
                if metric.distance(a, b) <= eps {
                    pairs.push((i as u32, j as u32));
                }
            }
        }
        pairs.sort_unstable();
        pairs
    }

    #[test]
    fn matches_bruteforce_words() {
        let q = dataset::words(250, 101);
        let o = dataset::words(300, 102);
        let m = dataset::words_metric();
        for eps in [0.0, 1.0, 2.0] {
            let (pairs, cd) = quickjoin_rs(&q, &o, &m, eps, &QuickJoinParams::default());
            let mut got: Vec<(u32, u32)> = pairs.iter().map(|&(a, b, _)| (a, b)).collect();
            got.sort_unstable();
            got.dedup();
            assert_eq!(got.len(), pairs.len(), "no duplicates (eps={eps})");
            assert_eq!(got, brute(&q, &o, &m, eps), "eps={eps}");
            assert!(cd > 0);
        }
    }

    #[test]
    fn matches_bruteforce_color() {
        let q = dataset::color(300, 103);
        let o = dataset::color(300, 104);
        let m = dataset::color_metric();
        for eps in [0.02, 0.1] {
            let (pairs, _) = quickjoin_rs(&q, &o, &m, eps, &QuickJoinParams::default());
            let mut got: Vec<(u32, u32)> = pairs.iter().map(|&(a, b, _)| (a, b)).collect();
            got.sort_unstable();
            assert_eq!(got, brute(&q, &o, &m, eps), "eps={eps}");
        }
    }

    #[test]
    fn prunes_against_nested_loop() {
        let q = dataset::color(800, 105);
        let o = dataset::color(800, 106);
        let m = dataset::color_metric();
        let (_, cd) = quickjoin_rs(&q, &o, &m, 0.03, &QuickJoinParams::default());
        assert!(
            cd < 800 * 800 / 2,
            "expected pruning below half of |Q|·|O|, got {cd}"
        );
    }

    #[test]
    fn empty_inputs() {
        let q: Vec<spb_metric::Word> = vec![];
        let o = dataset::words(10, 107);
        let m = dataset::words_metric();
        let (pairs, cd) = quickjoin_rs(&q, &o, &m, 5.0, &QuickJoinParams::default());
        assert!(pairs.is_empty());
        assert_eq!(cd, 0);
    }

    #[test]
    fn duplicate_heavy_input_terminates() {
        // Many identical objects force the degenerate-partition path.
        let q: Vec<spb_metric::Word> = (0..200).map(|_| spb_metric::Word::new("same")).collect();
        let o = q.clone();
        let m = dataset::words_metric();
        let (pairs, _) = quickjoin_rs(&q, &o, &m, 0.0, &QuickJoinParams::default());
        assert_eq!(pairs.len(), 200 * 200);
    }
}
