//! Property-based tests for the `spb-accel` subsystem: learned leaf
//! positioning is an *optimisation*, never a semantic change. On
//! arbitrary small datasets — across curves, cache shardings, and
//! post-build insertions that stale the model — every learned-path
//! query must return byte-identical results (ids, objects, distances)
//! at identical distance-computation cost to classic B⁺-tree descent,
//! and the approximate modes must keep perfect precision.

use proptest::prelude::*;
use spb_core::{AccelPolicy, Positioning, SpbConfig, SpbTree};
use spb_metric::{Distance, EditDistance, Word};
use spb_sfc::CurveKind;
use spb_storage::TempDir;

fn word_set() -> impl Strategy<Value = Vec<Word>> {
    proptest::collection::vec("[a-e]{1,8}", 2..60)
        .prop_map(|ws| ws.into_iter().map(Word::new).collect())
}

/// Classic vs learned positioning on one tree: both range and kNN must
/// agree exactly, including the compdists count (positioning changes
/// *where* the traversal starts, never which objects it inspects).
fn assert_identical(
    tree: &SpbTree<Word, EditDistance>,
    q: &Word,
    r: f64,
    k: usize,
) -> Result<(), String> {
    let (classic, cs) = tree.range_positioned(q, r, Positioning::Classic).unwrap();
    let (learned, ls) = tree.range_positioned(q, r, Positioning::Learned).unwrap();
    prop_assert_eq!(&classic, &learned, "range results diverged");
    prop_assert_eq!(cs.compdists, ls.compdists, "range compdists diverged");

    let (classic, cs) = tree.knn_positioned(q, k, Positioning::Classic).unwrap();
    let (learned, ls) = tree.knn_positioned(q, k, Positioning::Learned).unwrap();
    prop_assert_eq!(&classic, &learned, "knn results diverged");
    prop_assert_eq!(cs.compdists, ls.compdists, "knn compdists diverged");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Learned positioning is byte-identical to classic descent on a
    /// fresh model, stays identical after insertions stale the model
    /// (silent fallback), and again after an explicit rebuild — across
    /// both curves.
    #[test]
    fn learned_positioning_never_changes_results(
        data in word_set(),
        extra in proptest::collection::vec("[a-e]{1,8}", 0..8),
        qi in 0usize..100,
        r in 0.0f64..5.0,
        k in 1usize..8,
        hilbert in any::<bool>(),
    ) {
        let dir = TempDir::new("prop-accel");
        let cfg = SpbConfig {
            curve: if hilbert { CurveKind::Hilbert } else { CurveKind::Z },
            accel: AccelPolicy::Learned,
            ..SpbConfig::default()
        };
        let tree = SpbTree::build(dir.path(), &data, EditDistance::default(), &cfg).unwrap();
        prop_assert!(tree.accel_model_fresh(), "build must install a fresh model");
        let q = data[qi % data.len()].clone();

        assert_identical(&tree, &q, r, k)?;

        // Insertions advance the tree epoch: the model goes stale and
        // learned requests must silently fall back to classic descent.
        for w in &extra {
            tree.insert(&Word::new(w)).unwrap();
        }
        if !extra.is_empty() {
            prop_assert!(!tree.accel_model_fresh(), "insertions must stale the model");
        }
        assert_identical(&tree, &q, r, k)?;

        // An explicit rebuild restores learned positioning; results are
        // still identical and the model covers the inserted objects.
        tree.rebuild_accel().unwrap();
        prop_assert!(tree.accel_model_fresh(), "rebuild must refresh the model");
        assert_identical(&tree, &q, r, k)?;
        for w in &extra {
            assert_identical(&tree, &Word::new(w), r, k)?;
        }
    }

    /// Approximate range keeps perfect precision: every hit is a true
    /// hit (within `r` by brute force), the hit set is a subset of the
    /// exact answer, and `contraction = 1` degenerates to exact.
    #[test]
    fn range_approx_keeps_perfect_precision(
        data in word_set(),
        qi in 0usize..100,
        r in 0.0f64..5.0,
        contraction in 0.25f64..=1.0,
    ) {
        let dir = TempDir::new("prop-accel-rq");
        let metric = EditDistance::default();
        let cfg = SpbConfig {
            accel: AccelPolicy::Learned,
            ..SpbConfig::default()
        };
        let tree = SpbTree::build(dir.path(), &data, metric, &cfg).unwrap();
        let q = &data[qi % data.len()];

        let (exact, _) = tree.range(q, r).unwrap();
        let (approx, stats) = tree.range_approx_measured(q, r, contraction).unwrap();
        let exact_ids: Vec<u32> = exact.iter().map(|&(id, _)| id).collect();
        for (id, o) in &approx {
            prop_assert!(metric.distance(q, o) <= r, "false positive at id {id}");
            prop_assert!(exact_ids.contains(id), "approx hit {id} not in exact answer");
        }
        let recall = stats.recall.unwrap();
        prop_assert!((0.0..=1.0).contains(&recall));
        if contraction == 1.0 {
            let mut a: Vec<u32> = approx.iter().map(|&(id, _)| id).collect();
            let mut e = exact_ids;
            a.sort_unstable();
            e.sort_unstable();
            prop_assert_eq!(a, e, "contraction=1 must be exact");
            prop_assert_eq!(recall, 1.0);
        }
    }

    /// α-approximate kNN returns `k` real objects whose distances are
    /// within `α` of the true k-th neighbour distance; `α = 1` is exact.
    #[test]
    fn knn_approx_is_alpha_bounded(
        data in word_set(),
        qi in 0usize..100,
        k in 1usize..8,
        alpha in 1.0f64..=3.0,
    ) {
        let dir = TempDir::new("prop-accel-knn");
        let metric = EditDistance::default();
        let tree = SpbTree::build(dir.path(), &data, metric, &SpbConfig::default()).unwrap();
        let q = &data[qi % data.len()];

        let mut true_dists: Vec<f64> = data.iter().map(|o| metric.distance(q, o)).collect();
        true_dists.sort_by(f64::total_cmp);
        let want = k.min(data.len());
        let dk = true_dists[want - 1];

        let (nn, _) = tree.knn_approx(q, k, alpha).unwrap();
        prop_assert_eq!(nn.len(), want);
        for &(_, ref o, d) in &nn {
            prop_assert!((metric.distance(q, o) - d).abs() < 1e-9, "reported distance wrong");
            prop_assert!(d <= alpha * dk + 1e-9, "distance {d} exceeds alpha bound {}", alpha * dk);
        }
        if alpha == 1.0 {
            for (got, want) in nn.iter().map(|&(_, _, d)| d).zip(true_dists) {
                prop_assert!((got - want).abs() < 1e-9, "alpha=1 must be exact");
            }
        }
    }
}

/// The byte-identity property on a seeded index with enough leaves
/// (≈ 36) for what the proptest's single-leaf trees cannot reach: the
/// learned *enumeration* regime locating values across many leaves, and
/// — after inserts and a retrain — a window miss (`Located::Miss`),
/// where the learned traversal must drop what it has and restart
/// classically.
#[test]
fn enumeration_regime_and_window_miss_fallback_are_byte_identical() {
    // `range.rs`'s `LEARNED_ENUM_CELLS`: at most this many cells in RR
    // and learned positioning enumerates instead of scanning.
    const ENUM_CELLS: u128 = 1024;
    let all = spb_metric::dataset::words(4000, 4242);
    let (data, inserted) = all.split_at(3000);
    let dir = TempDir::new("accel-regimes");
    let cfg = SpbConfig {
        accel: AccelPolicy::Learned,
        durability: false,
        ..SpbConfig::default()
    };
    let tree = SpbTree::build(dir.path(), data, EditDistance::default(), &cfg).unwrap();
    // The located outcome of every SFC value in RR(q, r), if RR is small
    // enough to be enumerated.
    let located = |q: &Word, r: f64| {
        let phi = tree.table().phi(tree.metric(), q);
        let rr = tree.table().rr_cells(&phi, r)?;
        let model = tree.accel_model()?;
        (rr.cell_count() <= ENUM_CELLS).then(|| {
            rr.sfc_values_sorted(tree.curve())
                .into_iter()
                .map(|s| model.locate(s))
                .collect::<Vec<_>>()
        })
    };

    assert!(tree.accel_model_fresh());
    for q in data.iter().take(12) {
        for r in [0.0, 1.0] {
            assert!(located(q, r).is_some(), "r={r} must enumerate");
            assert_identical(&tree, q, r, 4).unwrap();
        }
    }

    for w in inserted {
        tree.insert(w).unwrap();
    }
    tree.rebuild_accel().unwrap();
    let missed: Vec<&Word> = all
        .iter()
        .take(400)
        .filter(|q| located(q, 1.0).is_some_and(|l| l.contains(&spb_accel::Located::Miss)))
        .take(6)
        .collect();
    assert!(!missed.is_empty(), "no query's RR holds a window miss");
    for q in missed {
        assert_identical(&tree, q, 1.0, 4).unwrap();
    }
}

/// Recall-targeted tuning on a seeded index: `tune_knn_alpha` returns a
/// rung of the α ladder whose recall, measured again on the same sample,
/// meets the target — and because the ladder ends at the exact `α = 1`,
/// even a target of 1.0 is always met.
#[test]
fn tuned_alpha_is_a_ladder_rung_that_meets_the_recall_target() {
    let data = spb_metric::dataset::words(1500, 97);
    let dir = TempDir::new("accel-tune");
    let tree = SpbTree::build(
        dir.path(),
        &data,
        EditDistance::default(),
        &SpbConfig::default(),
    )
    .unwrap();
    let sample = &data[..12];
    let k = 8;
    assert_eq!(spb_accel::ALPHA_LADDER.last(), Some(&1.0));
    let mut params = Vec::new();
    for target in [0.5, 0.9, 1.0] {
        let tuned = tree.tune_knn_alpha(sample, k, target).unwrap();
        assert!(spb_accel::ALPHA_LADDER.contains(&tuned.param), "{tuned:?}");
        assert!(tuned.achieved >= target, "target {target}: {tuned:?}");
        let mut recall = 0.0;
        for q in sample {
            let (_, stats) = tree.knn_approx_measured(q, k, tuned.param).unwrap();
            recall += stats.recall.expect("measured") / sample.len() as f64;
        }
        assert!(
            (recall - tuned.achieved).abs() < 1e-9,
            "{recall} vs {tuned:?}"
        );
        params.push(tuned.param);
    }
    // A stricter target never picks a more aggressive rung.
    assert!(params.windows(2).all(|w| w[0] >= w[1]), "{params:?}");
}
