//! Property-based tests: on arbitrary small datasets, every SPB-tree
//! query must agree with brute force, for both curves and all ablation
//! variants — the pruning lemmas (1–7) as executable properties.

use proptest::prelude::*;
use spb_core::{similarity_join, similarity_join_parallel, SpbConfig, SpbTree, Traversal};
use spb_metric::{Distance, EditDistance, FloatVec, LpNorm, Word};
use spb_sfc::CurveKind;
use spb_storage::TempDir;

fn word_set() -> impl Strategy<Value = Vec<Word>> {
    proptest::collection::vec("[a-e]{1,8}", 2..60)
        .prop_map(|ws| ws.into_iter().map(Word::new).collect())
}

fn vec_set(dim: usize) -> impl Strategy<Value = Vec<FloatVec>> {
    proptest::collection::vec(proptest::collection::vec(0.0f32..1.0, dim), 2..60)
        .prop_map(|vs| vs.into_iter().map(FloatVec::new).collect())
}

/// The contraction the contracted-range checks use.
const SHRINK: f64 = 0.6;

/// Brute force for the range contracted to `SHRINK·r`: the objects (ids
/// are positions in `data`) within `r` of `q` whose cells pass Lemma 1
/// for the contracted region, tested one by one.
fn contracted_want<D: Distance<Word>>(
    tree: &SpbTree<Word, D>,
    metric: &D,
    data: &[Word],
    q: &Word,
    r: f64,
) -> Vec<u32> {
    let table = tree.table();
    let rr = table.rr_cells(&table.phi(metric, q), r * SHRINK);
    let in_rr = |o: &Word| {
        rr.as_ref()
            .is_some_and(|rr| rr.contains_point(&table.cell_of_phi(&table.phi(metric, o))))
    };
    (0..data.len() as u32)
        .filter(|&i| metric.distance(q, &data[i as usize]) <= r && in_rr(&data[i as usize]))
        .collect()
}

fn sorted_ids<O>(hits: Vec<(u32, O)>) -> Vec<u32> {
    let mut ids: Vec<u32> = hits.into_iter().map(|(id, _)| id).collect();
    ids.sort_unstable();
    ids
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn range_matches_bruteforce_on_random_words(
        data in word_set(),
        qi in 0usize..100,
        r in 0.0f64..6.0,
        hilbert in any::<bool>(),
    ) {
        let dir = TempDir::new("prop-range");
        let metric = EditDistance::default();
        let cfg = SpbConfig {
            curve: if hilbert { CurveKind::Hilbert } else { CurveKind::Z },
            ..SpbConfig::default()
        };
        let tree = SpbTree::build(dir.path(), &data, metric, &cfg).unwrap();
        let q = &data[qi % data.len()];
        let (hits, _) = tree.range(q, r).unwrap();
        let want: Vec<u32> = data
            .iter()
            .enumerate()
            .filter(|(_, o)| metric.distance(q, o) <= r)
            .map(|(i, _)| i as u32)
            .collect();
        prop_assert_eq!(sorted_ids(hits), want.clone());
        let (count, _) = tree.range_count(q, r).unwrap();
        prop_assert_eq!(count as usize, want.len());
        let (hits, _) = tree.range_approx_measured(q, r, SHRINK).unwrap();
        prop_assert_eq!(sorted_ids(hits), contracted_want(&tree, &metric, &data, q, r));
    }

    #[test]
    fn knn_matches_bruteforce_on_random_vectors(
        data in vec_set(3),
        qi in 0usize..100,
        k in 1usize..10,
        greedy in any::<bool>(),
    ) {
        let dir = TempDir::new("prop-knn");
        let metric = LpNorm::l2(3);
        let tree = SpbTree::build(dir.path(), &data, metric, &SpbConfig::default()).unwrap();
        let q = &data[qi % data.len()];
        let traversal = if greedy { Traversal::Greedy } else { Traversal::Incremental };
        let (nn, _) = tree.knn_with(q, k, traversal).unwrap();
        let mut want: Vec<f64> = data.iter().map(|o| metric.distance(q, o)).collect();
        want.sort_by(f64::total_cmp);
        want.truncate(k);
        prop_assert_eq!(nn.len(), want.len());
        for (got, want) in nn.iter().map(|&(_, _, d)| d).zip(want) {
            prop_assert!((got - want).abs() < 1e-9);
        }
    }

    #[test]
    fn ablations_never_change_results(
        data in word_set(),
        qi in 0usize..100,
        r in 0.0f64..5.0,
    ) {
        let metric = EditDistance::default();
        let q_idx = qi % data.len();
        let mut reference: Option<Vec<u32>> = None;
        for lemma2 in [true, false] {
            let dir = TempDir::new("prop-abl");
            let cfg = SpbConfig {
                use_lemma2: lemma2,
                ..SpbConfig::default()
            };
            let tree = SpbTree::build(dir.path(), &data, metric, &cfg).unwrap();
            let (hits, _) = tree.range(&data[q_idx], r).unwrap();
            let mut ids: Vec<u32> = hits.iter().map(|&(id, _)| id).collect();
            ids.sort_unstable();
            let (count, _) = tree.range_count(&data[q_idx], r).unwrap();
            prop_assert_eq!(count as usize, ids.len(), "lemma2={lemma2}");
            match &reference {
                None => reference = Some(ids),
                Some(r0) => prop_assert_eq!(r0, &ids),
            }
        }
    }

    #[test]
    fn join_matches_bruteforce_on_random_words(
        q_data in word_set(),
        o_data in word_set(),
        eps in 0.0f64..4.0,
        threads in 1usize..5,
    ) {
        let metric = EditDistance::default();
        let (dq, do_) = (TempDir::new("prop-jq"), TempDir::new("prop-jo"));
        let cfg = SpbConfig::for_join();
        let spb_o = SpbTree::build(do_.path(), &o_data, metric, &cfg).unwrap();
        let spb_q = SpbTree::build_with_pivots(
            dq.path(),
            &q_data,
            metric,
            spb_o.table().pivots().to_vec(),
            &cfg,
            0,
        )
        .unwrap();
        let (pairs, stats) = similarity_join(&spb_q, &spb_o, eps).unwrap();
        let (par, par_stats) = similarity_join_parallel(&spb_q, &spb_o, eps, threads).unwrap();
        prop_assert_eq!(&par, &pairs, "a one-leaf Q is one chunk: the sequential join");
        prop_assert_eq!(par_stats.compdists, stats.compdists);
        prop_assert_eq!(par_stats.page_accesses, stats.page_accesses);
        let mut got: Vec<(u32, u32)> = pairs.iter().map(|p| (p.q_id, p.o_id)).collect();
        got.sort_unstable();
        let before = got.len();
        got.dedup();
        prop_assert_eq!(before, got.len(), "no duplicate pairs (Lemma 7)");
        let mut want = Vec::new();
        for (i, a) in q_data.iter().enumerate() {
            for (j, b) in o_data.iter().enumerate() {
                if metric.distance(a, b) <= eps {
                    want.push((i as u32, j as u32));
                }
            }
        }
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn insert_equals_bulk_build(
        data in word_set(),
        split in 0usize..100,
    ) {
        // A tree bulk-loaded on a prefix then fed the rest by insert()
        // answers exactly like a tree bulk-loaded on everything.
        let metric = EditDistance::default();
        let cut = 1 + split % data.len().max(1);
        let cut = cut.min(data.len());
        let (d1, d2) = (TempDir::new("prop-ins1"), TempDir::new("prop-ins2"));
        let full = SpbTree::build(d1.path(), &data, metric, &SpbConfig::default()).unwrap();
        let incr = SpbTree::build(d2.path(), &data[..cut], metric, &SpbConfig::default()).unwrap();
        for o in &data[cut..] {
            incr.insert(o).unwrap();
        }
        prop_assert_eq!(full.len(), incr.len());
        let q = &data[0];
        for r in [1.0, 3.0] {
            let (a, _) = full.range(q, r).unwrap();
            let (b, _) = incr.range(q, r).unwrap();
            let mut xs: Vec<&str> = a.iter().map(|(_, w)| w.as_str()).collect();
            let mut ys: Vec<&str> = b.iter().map(|(_, w)| w.as_str()).collect();
            xs.sort_unstable();
            ys.sort_unstable();
            prop_assert_eq!(xs, ys);
        }
    }
}

/// An object farther from every pivot than the grid reaches lands in the
/// top cell, which is open-ended: range (Lemma 1 and Lemma 2), count and
/// kNN must still see it exactly where brute force does.
#[test]
fn objects_beyond_the_grid_are_found_exactly() {
    let words = "apple banana cherry parrots grape lemon melon kiwi plum peach";
    let data: Vec<Word> = words.split(' ').map(Word::new).collect();
    // d⁺ = 7: three bits per pivot, top coordinate 7.
    let metric = EditDistance::new(7);
    let far = Word::new("carrotjuicexyzabc");
    for curve in [CurveKind::Hilbert, CurveKind::Z] {
        let dir = TempDir::new("prop-overflow");
        let cfg = SpbConfig {
            curve,
            ..SpbConfig::default()
        };
        let tree = SpbTree::build(dir.path(), &data, metric, &cfg).unwrap();
        assert_eq!(tree.table().max_coord(), 7);
        tree.insert(&far).unwrap();
        let all: Vec<Word> = data.iter().chain([&far]).cloned().collect();
        let queries: Vec<Word> = all.iter().chain(tree.table().pivots()).cloned().collect();
        for q in &queries {
            let mut dists: Vec<f64> = all.iter().map(|o| metric.distance(q, o)).collect();
            for r in [0.0, 1.0, 3.0, 7.0, 16.0] {
                let at = format!("{curve:?} q={} r={r}", q.as_str());
                let (hits, _) = tree.range(q, r).unwrap();
                let mut got: Vec<u32> = hits.iter().map(|&(id, _)| id).collect();
                got.sort_unstable();
                let want: Vec<u32> = (0..all.len() as u32)
                    .filter(|&i| dists[i as usize] <= r)
                    .collect();
                assert_eq!(got, want, "range {at}");
                let (count, _) = tree.range_count(q, r).unwrap();
                assert_eq!(count as usize, want.len(), "range_count {at}");
                let (hits, _) = tree.range_approx_measured(q, r, SHRINK).unwrap();
                let want = contracted_want(&tree, &metric, &all, q, r);
                assert_eq!(sorted_ids(hits), want, "contracted {at}");
            }
            dists.sort_by(f64::total_cmp);
            for k in [1, 3, all.len()] {
                let (nn, _) = tree.knn(q, k).unwrap();
                let got: Vec<f64> = nn.iter().map(|&(_, _, d)| d).collect();
                assert_eq!(got, dists[..k], "knn {curve:?} q={} k={k}", q.as_str());
            }
        }
    }
}

// `pivots.tbl` and `spb.meta` carry no checksum, so `SpbTree::open` must
// decode them totally: whatever the bytes, it answers `Ok` or a typed
// `Err` — a panic (or an allocation sized by a corrupt count) fails here.

fn small_index(name: &str) -> TempDir {
    let dir = TempDir::new(name);
    let data: Vec<Word> = (0..60)
        .map(|i| Word::new(format!("w{i}ord{}", i % 7)))
        .collect();
    drop(
        SpbTree::build(
            dir.path(),
            &data,
            EditDistance::default(),
            &SpbConfig::default(),
        )
        .unwrap(),
    );
    dir
}

fn open_with_bytes(dir: &TempDir, file: &str, bytes: &[u8]) -> std::io::Result<()> {
    std::fs::write(dir.path().join(file), bytes).unwrap();
    SpbTree::<Word, _>::open(dir.path(), EditDistance::default(), 16).map(drop)
}

#[test]
fn every_single_byte_corruption_and_truncation_of_the_side_files_opens_or_errs() {
    let dir = small_index("prop-side-files");
    for file in ["pivots.tbl", "spb.meta"] {
        let good = std::fs::read(dir.path().join(file)).unwrap();
        let mut rejected = 0;
        for cut in 0..good.len() {
            rejected += open_with_bytes(&dir, file, &good[..cut]).is_err() as usize;
        }
        for at in 0..good.len() {
            for mask in [0x01, 0x20, 0x80, 0xFF] {
                let mut bad = good.clone();
                bad[at] ^= mask;
                rejected += open_with_bytes(&dir, file, &bad).is_err() as usize;
            }
        }
        assert!(
            rejected > good.len(),
            "{file}: only {rejected} damaged copies were rejected"
        );
        open_with_bytes(&dir, file, &good).expect("the undamaged file still opens");
    }
    // No default stands in for an unknown curve or a missing counter.
    let meta = std::fs::read_to_string(dir.path().join("spb.meta")).unwrap();
    assert_eq!(meta, "curve=hilbert\nlen=60\nnext_id=60\n");
    for bad in [
        "curve=hilbert2\nlen=60\nnext_id=60\n",
        "len=60\nnext_id=60\n",
        "curve=hilbert\nnext_id=60\n",
        "curve=hilbert\nlen=60\n",
    ] {
        let err = open_with_bytes(&dir, "spb.meta", bad.as_bytes()).unwrap_err();
        assert_eq!(
            err.kind(),
            std::io::ErrorKind::InvalidData,
            "{bad:?}: {err}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn arbitrary_side_file_bytes_open_or_err(
        bytes in proptest::collection::vec(any::<u8>(), 0..160),
        keep_magic in any::<bool>(),
        meta in any::<bool>(),
    ) {
        let dir = small_index("prop-side-bytes");
        let file = if meta { "spb.meta" } else { "pivots.tbl" };
        let mut bytes = bytes;
        if keep_magic && !meta {
            // Past the magic check, into the header and pivot decoding.
            bytes.splice(0..bytes.len().min(8), *b"SPBPIVT1");
        }
        let _ = open_with_bytes(&dir, file, &bytes);
    }
}
