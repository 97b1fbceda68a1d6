//! SJA — the Similarity Join Algorithm (Algorithm 3).
//!
//! `SJ(Q, O, ε)` finds all pairs within distance ε (Definition 4). SJA
//! performs a **single merge pass** over the leaf levels of two SPB-trees
//! built on the *same pivot table* and the **Z-order curve**: entries are
//! consumed in ascending SFC order, and each visited object is verified
//! against the opposite side's recently-visited list.
//!
//! Pruning:
//!
//! * **Lemma 6** (Z-order monotonicity): a list entry `o` is evicted once
//!   `maxRR(o, ε) < SFC(φ(q))` — no later entry can pair with it — and a
//!   candidate is only examined when `SFC(φ(o)) ≥ minRR(q, ε)`;
//! * **Lemma 5**: the pair is skipped without a distance computation unless
//!   `φ(o) ∈ RR(q, ε)` (checked per grid dimension);
//! * only survivors pay a distance computation.
//!
//! Lemma 7 guarantees the merge produces every qualifying pair exactly
//! once.

use std::io;
use std::time::Instant;

use spb_bptree::{LeafNode, Node};
use spb_metric::{Distance, MetricObject};
use spb_sfc::Sfc;

use crate::exec;
use crate::stats::StatsCollector;
use crate::tree::{QueryStats, SpbTree};

/// One result pair of a similarity join.
#[derive(Clone, Debug, PartialEq)]
pub struct JoinPair {
    /// Object id in the left (Q) tree.
    pub q_id: u32,
    /// Object id in the right (O) tree.
    pub o_id: u32,
    /// Their metric distance (`≤ ε`).
    pub distance: f64,
}

/// Cursor over a tree's leaf chain, yielding `(key, value)` in SFC order.
struct LeafCursor<'a, O: MetricObject, D: Distance<O>> {
    tree: &'a SpbTree<O, D>,
    leaf: Option<LeafNode>,
    idx: usize,
}

impl<'a, O: MetricObject, D: Distance<O>> LeafCursor<'a, O, D> {
    fn new(tree: &'a SpbTree<O, D>, col: &mut StatsCollector) -> io::Result<Self> {
        let leaf = match tree.btree.first_leaf() {
            Some(id) => match tree.read_node_traced(id, col)? {
                Node::Leaf(l) => Some(l),
                _ => unreachable!("leaf chain contains only leaves"),
            },
            None => None,
        };
        Ok(LeafCursor { tree, leaf, idx: 0 })
    }

    fn current(&self) -> Option<(u128, u64)> {
        let l = self.leaf.as_ref()?;
        Some((l.keys[self.idx], l.values[self.idx]))
    }

    fn advance(&mut self, col: &mut StatsCollector) -> io::Result<()> {
        let Some(l) = self.leaf.as_ref() else {
            return Ok(());
        };
        self.idx += 1;
        if self.idx >= l.keys.len() {
            self.idx = 0;
            self.leaf = match l.next {
                Some(id) => match self.tree.read_node_traced(id, col)? {
                    Node::Leaf(nl) => Some(nl),
                    _ => unreachable!("leaf chain contains only leaves"),
                },
                None => None,
            };
        }
        Ok(())
    }
}

/// An entry of the lists `L_Q`/`L_O`: a visited object plus the
/// precomputed `maxRR` bound used for Lemma-6 eviction.
struct ListEntry<O> {
    sfc: u128,
    cell: Vec<u32>,
    max_rr: u128,
    id: u32,
    obj: O,
}

/// `SJ(Q, O, ε)` over two SPB-trees (Algorithm 3).
///
/// Both trees must be built on the **Z-order curve** (use
/// [`SpbConfig::for_join`](crate::SpbConfig::for_join)) and share one pivot
/// table: build the first tree normally and the second via
/// [`SpbTree::build_with_pivots`] with the first tree's pivots.
///
/// Returns the result pairs and the combined cost metrics of both trees.
///
/// # Panics
/// Panics if the trees use different curves/pivot tables or a non-Z curve.
pub fn similarity_join<O: MetricObject, D: Distance<O>>(
    spb_q: &SpbTree<O, D>,
    spb_o: &SpbTree<O, D>,
    eps: f64,
) -> io::Result<(Vec<JoinPair>, QueryStats)> {
    assert_eq!(
        spb_q.curve.kind(),
        spb_sfc::CurveKind::Z,
        "SJA relies on Z-order monotonicity (Lemma 6); build join trees with SpbConfig::for_join()"
    );
    assert_eq!(
        spb_q.curve, spb_o.curve,
        "join trees must share one curve geometry"
    );
    assert!(
        spb_q.table.pivots() == spb_o.table.pivots() && spb_q.table.delta() == spb_o.table.delta(),
        "join trees must share one pivot table"
    );

    let _guard_q = spb_q.latch_shared();
    let _guard_o = spb_o.latch_shared();
    let start = spb_obs::clock::now();
    // One collector per tree so each side's B⁺-tree/RAF accesses meet the
    // right accounting cache; distances are counted on the Q side.
    let mut col_q = spb_q.collector();
    let mut col_o = spb_o.collector();
    let mut result = Vec::new();

    if eps >= 0.0 {
        let table = &spb_q.table;
        let curve = &spb_q.curve;
        let k_cells = table.cell_radius(eps);
        let max_coord = table.max_coord();

        let mut cur_q = LeafCursor::new(spb_q, &mut col_q)?;
        let mut cur_o = LeafCursor::new(spb_o, &mut col_o)?;
        let mut list_q: Vec<ListEntry<O>> = Vec::new();
        let mut list_o: Vec<ListEntry<O>> = Vec::new();

        // Verify `cur` (just visited, from one tree) against the other
        // tree's list; `cur_is_q` fixes the (q, o) orientation of emitted
        // pairs.
        let verify = |cur: &ListEntry<O>,
                      list: &mut Vec<ListEntry<O>>,
                      cur_is_q: bool,
                      col: &mut StatsCollector,
                      result: &mut Vec<JoinPair>| {
            let min_rr = zorder_corner(curve, &cur.cell, false, k_cells, max_coord);
            let mut i = list.len();
            while i > 0 {
                i -= 1;
                // Lemma 6 eviction: no future entry (SFC ≥ cur.sfc) can
                // still pair with this list entry.
                if list[i].max_rr < cur.sfc {
                    list.remove(i);
                    continue;
                }
                // Lemma 6 window check.
                if list[i].sfc >= min_rr {
                    // Lemma 5: per-dimension pivot-space filter.
                    let in_rr = list[i]
                        .cell
                        .iter()
                        .zip(&cur.cell)
                        .all(|(&a, &b)| a.abs_diff(b) <= k_cells);
                    if in_rr {
                        let d = spb_q.dist_traced(col, &cur.obj, &list[i].obj);
                        if d <= eps {
                            let (q_id, o_id) = if cur_is_q {
                                (cur.id, list[i].id)
                            } else {
                                (list[i].id, cur.id)
                            };
                            result.push(JoinPair {
                                q_id,
                                o_id,
                                distance: d,
                            });
                        }
                    }
                }
            }
        };

        // The merge loop (Algorithm 3 lines 3–11).
        while cur_q.current().is_some() || cur_o.current().is_some() {
            let take_q = match (cur_q.current(), cur_o.current()) {
                (Some((kq, _)), Some((ko, _))) => kq <= ko,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => unreachable!("loop condition"),
            };
            if take_q {
                let (key, off) = cur_q.current().expect("checked");
                let (id, obj) = spb_q.fetch_traced(off, &mut col_q)?;
                let cell = curve.decode(key);
                let entry = ListEntry {
                    sfc: key,
                    max_rr: zorder_corner(curve, &cell, true, k_cells, max_coord),
                    cell,
                    id,
                    obj,
                };
                verify(&entry, &mut list_o, true, &mut col_q, &mut result);
                list_q.push(entry);
                cur_q.advance(&mut col_q)?;
            } else {
                let (key, off) = cur_o.current().expect("checked");
                let (id, obj) = spb_o.fetch_traced(off, &mut col_o)?;
                let cell = curve.decode(key);
                let entry = ListEntry {
                    sfc: key,
                    max_rr: zorder_corner(curve, &cell, true, k_cells, max_coord),
                    cell,
                    id,
                    obj,
                };
                verify(&entry, &mut list_q, false, &mut col_q, &mut result);
                list_o.push(entry);
                cur_o.advance(&mut col_o)?;
            }
        }
    }

    Ok((result, combine_join_stats(col_q, col_o, start)))
}

/// The Z-order key of `cell` shifted by ±`k_cells` per dimension and
/// clamped to the grid — `minRR`/`maxRR` of Lemma 6. By Z-order
/// monotonicity, every cell of `RR(cell, ε)` has its SFC value inside
/// `[minRR, maxRR]`.
fn zorder_corner(curve: &Sfc, cell: &[u32], up: bool, k_cells: u32, max_coord: u32) -> u128 {
    let shifted: Vec<u32> = cell
        .iter()
        .map(|&c| {
            if up {
                c.saturating_add(k_cells).min(max_coord)
            } else {
                c.saturating_sub(k_cells)
            }
        })
        .collect();
    curve.encode(&shifted)
}

/// Sums both sides' collectors into one join-level [`QueryStats`].
fn combine_join_stats(col_q: StatsCollector, col_o: StatsCollector, start: Instant) -> QueryStats {
    let sq = col_q.finish();
    let so = col_o.finish();
    QueryStats {
        compdists: sq.compdists + so.compdists,
        page_accesses: sq.page_accesses + so.page_accesses,
        btree_pa: sq.btree_pa + so.btree_pa,
        raf_pa: sq.raf_pa + so.raf_pa,
        fsyncs: 0,
        duration: start.elapsed(),
        recall: None,
    }
}

/// Partition-parallel SJA: splits `Q`'s leaf chain into `threads`
/// contiguous Z-order partitions and joins each against `O` on a worker
/// pool ([`exec::parallel_map`]).
///
/// Each partition processes its Q entries independently: a Q entry's
/// candidates are exactly the O entries with SFC values inside the
/// entry's `[minRR, maxRR]` window (Lemma 6 / Z-order monotonicity),
/// found with a B⁺-tree range probe, then filtered per dimension
/// (Lemma 5) before any distance computation. Every qualifying pair is
/// found by exactly one partition — the one owning its Q entry — so no
/// deduplication pass is needed (Lemma 7's guarantee, by construction).
///
/// Results match [`similarity_join`] as a set; pair order differs. *PA*
/// is accounted per partition (each partition simulates its own cold
/// protocol cache) and summed.
pub fn similarity_join_parallel<O: MetricObject, D: Distance<O>>(
    spb_q: &SpbTree<O, D>,
    spb_o: &SpbTree<O, D>,
    eps: f64,
    threads: usize,
) -> io::Result<(Vec<JoinPair>, QueryStats)> {
    assert_eq!(
        spb_q.curve.kind(),
        spb_sfc::CurveKind::Z,
        "SJA relies on Z-order monotonicity (Lemma 6); build join trees with SpbConfig::for_join()"
    );
    assert_eq!(
        spb_q.curve, spb_o.curve,
        "join trees must share one curve geometry"
    );
    assert!(
        spb_q.table.pivots() == spb_o.table.pivots() && spb_q.table.delta() == spb_o.table.delta(),
        "join trees must share one pivot table"
    );

    let _guard_q = spb_q.latch_shared();
    let _guard_o = spb_o.latch_shared();
    let start = spb_obs::clock::now();
    let mut setup = spb_q.collector();

    // Walk Q's leaf chain once to learn the partition boundaries.
    let mut leaves: Vec<spb_storage::PageId> = Vec::new();
    if eps >= 0.0 {
        let mut next = spb_q.btree.first_leaf();
        while let Some(id) = next {
            leaves.push(id);
            next = match spb_q.read_node_traced(id, &mut setup)? {
                Node::Leaf(l) => l.next,
                _ => unreachable!("leaf chain contains only leaves"),
            };
        }
    }
    let workers = threads.max(1).min(leaves.len().max(1));
    let chunks: Vec<&[spb_storage::PageId]> = leaves
        .chunks(leaves.len().div_ceil(workers).max(1))
        .collect();

    let table = &spb_q.table;
    let curve = &spb_q.curve;
    let k_cells = table.cell_radius(eps.max(0.0));
    let max_coord = table.max_coord();

    let per_partition: io::Result<Vec<(Vec<JoinPair>, QueryStats)>> =
        exec::parallel_map(threads, &chunks, |_, chunk| {
            let mut col_q = spb_q.collector();
            let mut col_o = spb_o.collector();
            let mut pairs = Vec::new();
            for &leaf_id in *chunk {
                let Node::Leaf(leaf) = spb_q.read_node_traced(leaf_id, &mut col_q)? else {
                    unreachable!("leaf chain contains only leaves");
                };
                for (&key, &off) in leaf.keys.iter().zip(&leaf.values) {
                    let cell = curve.decode(key);
                    let lo = zorder_corner(curve, &cell, false, k_cells, max_coord);
                    let hi = zorder_corner(curve, &cell, true, k_cells, max_coord);
                    let cands = spb_o
                        .btree
                        .scan_range_traced(lo, hi, &mut |p| col_o.btree_page(p.0))?;
                    let mut q_obj: Option<(u32, O)> = None;
                    for (okey, ooff) in cands {
                        // Lemma 5: per-dimension pivot-space filter.
                        let ocell = curve.decode(okey);
                        if !ocell
                            .iter()
                            .zip(&cell)
                            .all(|(&a, &b)| a.abs_diff(b) <= k_cells)
                        {
                            continue;
                        }
                        if q_obj.is_none() {
                            q_obj = Some(spb_q.fetch_traced(off, &mut col_q)?);
                        }
                        let (q_id, q_o) = q_obj.as_ref().expect("fetched above");
                        let (o_id, o_o) = spb_o.fetch_traced(ooff, &mut col_o)?;
                        let d = spb_q.dist_traced(&mut col_q, q_o, &o_o);
                        if d <= eps {
                            pairs.push(JoinPair {
                                q_id: *q_id,
                                o_id,
                                distance: d,
                            });
                        }
                    }
                }
            }
            Ok((pairs, combine_join_stats(col_q, col_o, start)))
        })
        .into_iter()
        .collect();

    let mut result = Vec::new();
    let mut stats = setup.finish();
    for (pairs, s) in per_partition? {
        result.extend(pairs);
        stats.compdists += s.compdists;
        stats.page_accesses += s.page_accesses;
        stats.btree_pa += s.btree_pa;
        stats.raf_pa += s.raf_pa;
    }
    stats.duration = start.elapsed();
    Ok((result, stats))
}

impl<O: MetricObject, D: Distance<O>> SpbTree<O, D> {
    /// Convenience method form of [`similarity_join`]: `self` is `Q`.
    pub fn join(&self, other: &SpbTree<O, D>, eps: f64) -> io::Result<(Vec<JoinPair>, QueryStats)> {
        similarity_join(self, other, eps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SpbConfig;
    use spb_metric::{dataset, Distance, MetricObject, Word};
    use spb_storage::TempDir;

    fn build_pair<O: MetricObject, D: Distance<O> + Clone>(
        q_data: &[O],
        o_data: &[O],
        metric: D,
    ) -> (TempDir, TempDir, SpbTree<O, D>, SpbTree<O, D>) {
        let dq = TempDir::new("sja-q");
        let do_ = TempDir::new("sja-o");
        let cfg = SpbConfig::for_join();
        let spb_o = SpbTree::build(do_.path(), o_data, metric.clone(), &cfg).unwrap();
        let spb_q = SpbTree::build_with_pivots(
            dq.path(),
            q_data,
            metric,
            spb_o.table().pivots().to_vec(),
            &cfg,
            0,
        )
        .unwrap();
        (dq, do_, spb_q, spb_o)
    }

    fn brute_join<O: MetricObject, D: Distance<O>>(
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

    fn check<O: MetricObject, D: Distance<O> + Clone>(
        q_data: Vec<O>,
        o_data: Vec<O>,
        metric: D,
        epsilons: &[f64],
    ) {
        let (_dq, _do, spb_q, spb_o) = build_pair(&q_data, &o_data, metric.clone());
        for &eps in epsilons {
            spb_q.flush_caches();
            spb_o.flush_caches();
            let (pairs, stats) = similarity_join(&spb_q, &spb_o, eps).unwrap();
            let mut got: Vec<(u32, u32)> = pairs.iter().map(|p| (p.q_id, p.o_id)).collect();
            got.sort_unstable();
            let dup_check = got.windows(2).all(|w| w[0] != w[1]);
            assert!(dup_check, "Lemma 7: no duplicate pairs (eps={eps})");
            let want = brute_join(&q_data, &o_data, &metric, eps);
            assert_eq!(got, want, "eps={eps}");
            // Distances reported are correct.
            for p in &pairs {
                let d = metric.distance(&q_data[p.q_id as usize], &o_data[p.o_id as usize]);
                assert!((d - p.distance).abs() < 1e-12);
            }
            assert!(stats.page_accesses > 0);
        }
    }

    #[test]
    fn sja_matches_bruteforce_words() {
        check(
            dataset::words(250, 41),
            dataset::words(300, 42),
            dataset::words_metric(),
            &[0.0, 1.0, 2.0],
        );
    }

    #[test]
    fn sja_matches_bruteforce_color() {
        check(
            dataset::color(250, 43),
            dataset::color(250, 44),
            dataset::color_metric(),
            &[0.02, 0.08, 0.2],
        );
    }

    #[test]
    fn sja_matches_bruteforce_signature() {
        check(
            dataset::signature(200, 45),
            dataset::signature(200, 46),
            dataset::signature_metric(),
            &[4.0, 10.0],
        );
    }

    #[test]
    fn paper_word_example() {
        // Section 5.1's running example.
        let q: Vec<Word> = ["defoliate", "defoliates", "defoliation"]
            .iter()
            .map(|s| Word::new(*s))
            .collect();
        let o: Vec<Word> = ["citrate", "defoliated", "defoliating"]
            .iter()
            .map(|s| Word::new(*s))
            .collect();
        let (_dq, _do, spb_q, spb_o) = build_pair(&q, &o, dataset::words_metric());
        let (pairs, _) = similarity_join(&spb_q, &spb_o, 1.0).unwrap();
        let mut got: Vec<(u32, u32)> = pairs.iter().map(|p| (p.q_id, p.o_id)).collect();
        got.sort_unstable();
        // The paper's prose lists ⟨defoliate, defoliated⟩; the pair
        // ⟨defoliates, defoliated⟩ is also at edit distance 1 (final
        // s → d) and a correct join must report it too.
        assert_eq!(got, vec![(0, 1), (1, 1)]);
    }

    #[test]
    fn empty_sides_yield_empty_join() {
        let q = dataset::words(50, 47);
        let o = vec![Word::new("isolated")];
        let (_dq, _do, spb_q, spb_o) = build_pair(&q, &o, dataset::words_metric());
        let (pairs, _) = similarity_join(&spb_q, &spb_o, 0.0).unwrap();
        let brute = brute_join(&q, &o, &dataset::words_metric(), 0.0);
        assert_eq!(pairs.len(), brute.len());
    }

    #[test]
    #[should_panic(expected = "Z-order")]
    fn hilbert_trees_are_rejected() {
        let data = dataset::words(50, 48);
        let dir1 = TempDir::new("sja-bad1");
        let dir2 = TempDir::new("sja-bad2");
        let cfg = SpbConfig::default(); // Hilbert
        let a = SpbTree::build(dir1.path(), &data, dataset::words_metric(), &cfg).unwrap();
        let b = SpbTree::build_with_pivots(
            dir2.path(),
            &data,
            dataset::words_metric(),
            a.table().pivots().to_vec(),
            &cfg,
            0,
        )
        .unwrap();
        let _ = similarity_join(&a, &b, 1.0);
    }

    #[test]
    fn parallel_join_matches_sequential_pairs() {
        let q_data = dataset::words(250, 51);
        let o_data = dataset::words(300, 52);
        let metric = dataset::words_metric();
        let (_dq, _do, spb_q, spb_o) = build_pair(&q_data, &o_data, metric);
        for eps in [0.0, 1.0, 2.0] {
            let (seq, _) = similarity_join(&spb_q, &spb_o, eps).unwrap();
            let mut want: Vec<(u32, u32)> = seq.iter().map(|p| (p.q_id, p.o_id)).collect();
            want.sort_unstable();
            assert_eq!(
                want,
                brute_join(&q_data, &o_data, &metric, eps),
                "eps={eps}"
            );
            for threads in [1, 2, 4] {
                let (par, stats) = similarity_join_parallel(&spb_q, &spb_o, eps, threads).unwrap();
                let mut got: Vec<(u32, u32)> = par.iter().map(|p| (p.q_id, p.o_id)).collect();
                got.sort_unstable();
                assert!(
                    got.windows(2).all(|w| w[0] != w[1]),
                    "no duplicate pairs (eps={eps}, {threads} threads)"
                );
                assert_eq!(got, want, "eps={eps}, {threads} threads");
                for p in &par {
                    let d = metric.distance(&q_data[p.q_id as usize], &o_data[p.o_id as usize]);
                    assert!((d - p.distance).abs() < 1e-12);
                }
                if eps > 0.0 {
                    assert!(stats.page_accesses > 0);
                }
            }
        }
    }

    #[test]
    fn parallel_join_stats_are_thread_count_invariant() {
        // PA is accounted per partition against a simulated cold cache, so
        // only the partitioning (fixed by the leaf chain), never the thread
        // count, determines the numbers.
        let q_data = dataset::color(200, 53);
        let o_data = dataset::color(200, 54);
        let (_dq, _do, spb_q, spb_o) = build_pair(&q_data, &o_data, dataset::color_metric());
        let (_, s2) = similarity_join_parallel(&spb_q, &spb_o, 0.08, 2).unwrap();
        let (_, s2b) = similarity_join_parallel(&spb_q, &spb_o, 0.08, 2).unwrap();
        assert_eq!(s2.compdists, s2b.compdists);
        assert_eq!(s2.page_accesses, s2b.page_accesses);
        assert_eq!(s2.btree_pa, s2b.btree_pa);
        assert_eq!(s2.raf_pa, s2b.raf_pa);
    }

    #[test]
    fn join_prunes_distance_computations() {
        let q = dataset::color(500, 49);
        let o = dataset::color(500, 50);
        let (_dq, _do, spb_q, spb_o) = build_pair(&q, &o, dataset::color_metric());
        let (_, stats) = similarity_join(&spb_q, &spb_o, 0.05).unwrap();
        assert!(
            stats.compdists < 250_000 / 4,
            "expected pruning well below |Q|·|O|, got {}",
            stats.compdists
        );
    }
}
