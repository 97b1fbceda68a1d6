//! Golden cost counters: every query path's exact `compdists`,
//! `btree_pa`, `raf_pa` and ordered id list on fixed, seeded inputs,
//! compared with `golden_counters.txt` (recorded once, at the commit
//! before the range-family traversal was unified).
//!
//! The other suites compare paths *with each other*; this one pins the
//! absolute numbers, so a refactor that reorders node visits, leaf
//! entries or RAF fetches — and thereby the page-access trace the
//! per-query LRU simulation sees — fails here even if every path moves
//! together.
//!
//! On a mismatch the observed lines are written to
//! `$CARGO_TARGET_TMPDIR/golden_counters.<dataset>.actual.txt` for
//! diffing.

use std::fmt::Write as _;

use spb_core::{Positioning, QueryStats, SpbConfig, SpbTree, Traversal};
use spb_metric::{dataset, Distance, FloatVec, LpNorm, MetricObject};
use spb_sfc::CurveKind;
use spb_storage::TempDir;

const GOLDEN: &str = include_str!("golden_counters.txt");
const QUERIES: usize = 8;
const K: usize = 8;
const CONTRACTION: f64 = 0.7;

/// 2 000 seeded points of the unit cube (SplitMix64; no dependency on
/// the `rand` stand-in, whose stream may change).
fn cube_points(n: usize, mut state: u64) -> Vec<FloatVec> {
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) >> 40) as f32 / (1u64 << 24) as f32
    };
    (0..n)
        .map(|_| FloatVec::new(vec![next(), next(), next()]))
        .collect()
}

/// FNV-1a over the ids in answer order: pins the ordered id list.
fn fnv(ids: impl Iterator<Item = u32>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for id in ids {
        for b in id.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn line(out: &mut String, what: &str, s: &QueryStats, n: usize, ids: u64) {
    assert_eq!(s.page_accesses, s.btree_pa + s.raf_pa);
    writeln!(
        out,
        "{what} compdists={} btree_pa={} raf_pa={} ids={n}:{ids:016x}",
        s.compdists, s.btree_pa, s.raf_pa
    )
    .expect("write to a String");
}

fn observe<O: MetricObject, D: Distance<O> + Clone>(
    out: &mut String,
    name: &str,
    data: &[O],
    metric: D,
    radii: [f64; 3],
) {
    for (curve, curve_name) in [(CurveKind::Hilbert, "hilbert"), (CurveKind::Z, "z")] {
        for cache in [32usize, 0] {
            let dir = TempDir::new("golden");
            let cfg = SpbConfig {
                curve,
                cache_pages: cache,
                ..SpbConfig::default()
            };
            let tree = SpbTree::build(dir.path(), data, metric.clone(), &cfg).unwrap();
            // Install a model, then switch the *default* back to classic:
            // `range`/`knn` descend classically, `Positioning::Learned`
            // uses the model.
            tree.rebuild_accel().unwrap();
            tree.set_accel_policy(spb_core::AccelPolicy::Off);
            for (qi, q) in data.iter().step_by(data.len() / QUERIES).enumerate() {
                let at = format!("{name} {curve_name} cache={cache} q{qi}");
                let range_line =
                    |out: &mut String, op: &str, (hits, s): (Vec<(u32, O)>, QueryStats)| {
                        let ids = fnv(hits.iter().map(|h| h.0));
                        line(out, &format!("{at} {op}"), &s, hits.len(), ids);
                    };
                for r in radii {
                    range_line(out, &format!("range r={r}"), tree.range(q, r).unwrap());
                    let (n, s) = tree.range_count(q, r).unwrap();
                    line(out, &format!("{at} count r={r}"), &s, n as usize, 0);
                    range_line(
                        out,
                        &format!("learned r={r}"),
                        tree.range_positioned(q, r, Positioning::Learned).unwrap(),
                    );
                }
                range_line(
                    out,
                    &format!("classic r={}", radii[1]),
                    tree.range_positioned(q, radii[1], Positioning::Classic)
                        .unwrap(),
                );
                range_line(
                    out,
                    &format!("contracted r={} c={CONTRACTION}", radii[2]),
                    tree.range_approx_measured(q, radii[2], CONTRACTION)
                        .unwrap(),
                );
                for (t, t_name) in [
                    (Traversal::Incremental, "incremental"),
                    (Traversal::Greedy, "greedy"),
                ] {
                    let (nn, s) = tree.knn_with(q, K, t).unwrap();
                    let ids = fnv(nn.iter().map(|n| n.0));
                    line(out, &format!("{at} knn k={K} {t_name}"), &s, nn.len(), ids);
                }
            }
        }
    }
}

/// Compares one dataset's observation with its lines of the golden file.
fn check(name: &str, actual: &str) {
    let recorded: String = GOLDEN
        .lines()
        .filter(|l| l.starts_with(name))
        .flat_map(|l| [l, "\n"])
        .collect();
    if actual == recorded {
        return;
    }
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("golden_counters.{name}.actual.txt"));
    std::fs::write(&path, actual).unwrap();
    let first = actual
        .lines()
        .zip(recorded.lines())
        .enumerate()
        .find(|(_, (a, g))| a != g);
    match first {
        Some((i, (a, g))) => panic!(
            "{name} line {}: observed `{a}`, recorded `{g}`; full observation in {}",
            i + 1,
            path.display()
        ),
        None => panic!(
            "{name}: observed {} lines, recorded {}; full observation in {}",
            actual.lines().count(),
            recorded.lines().count(),
            path.display()
        ),
    }
}

#[test]
fn words_counters_and_id_order_match_the_recorded_values() {
    let mut actual = String::new();
    observe(
        &mut actual,
        "words",
        &dataset::words(2000, 1601),
        dataset::words_metric(),
        [1.0, 3.0, 6.0],
    );
    check("words", &actual);
}

#[test]
fn l2_counters_and_id_order_match_the_recorded_values() {
    let mut actual = String::new();
    observe(
        &mut actual,
        "l2-3d",
        &cube_points(2000, 1602),
        LpNorm::l2(3),
        [0.02, 0.08, 0.2],
    );
    check("l2-3d", &actual);
}
