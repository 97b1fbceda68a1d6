//! SJA — the Similarity Join Algorithm (Algorithm 3), the one join body.
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
//!
//! [`similarity_join_parallel`] is the same merge run once per chunk: a
//! contiguous run of Q's leaves against the O keys inside that run's
//! Lemma 6 window. [`similarity_join`] is the one-chunk case.

use std::io;
use std::ops::RangeInclusive;

use spb_bptree::{LeafNode, Node};
use spb_metric::{Distance, MetricObject};
use spb_sfc::{CurveKind, Sfc};
use spb_storage::PageId;

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

/// An entry of the lists `L_Q`/`L_O`: a visited object plus the
/// precomputed `maxRR` bound used for Lemma-6 eviction.
struct ListEntry<O> {
    sfc: u128,
    cell: Vec<u32>,
    max_rr: u128,
    id: u32,
    obj: O,
}

/// ε on the grid both trees share.
struct Grid<'a> {
    curve: &'a Sfc,
    eps: f64,
    k_cells: u32,
    max_coord: u32,
}

impl Grid<'_> {
    /// The cell behind `key` and its `[minRR, maxRR]` of Lemma 6: the
    /// Z-order keys of the cell shifted by ∓`k_cells` per dimension and
    /// clamped to the grid. By Z-order monotonicity, every cell of
    /// `RR(cell, ε)` has its SFC value inside that window.
    fn window(&self, key: u128) -> (Vec<u32>, u128, u128) {
        let cell = self.curve.decode(key);
        let (k, max) = (self.k_cells, self.max_coord);
        let lo: Vec<u32> = cell.iter().map(|c| c.saturating_sub(k)).collect();
        let hi: Vec<u32> = cell.iter().map(|c| c.saturating_add(k).min(max)).collect();
        (cell, self.curve.encode(&lo), self.curve.encode(&hi))
    }
}

/// The keys of Q and of O one merge covers: every O entry that can pair
/// with one of those Q entries lies in the O range (Lemma 6).
type Chunk = [RangeInclusive<u128>; 2];

fn corrupt(id: PageId, what: &str) -> io::Error {
    let msg = format!("corrupt B+-tree page {}: {what}", id.0);
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Reads a page of a leaf chain; anything but a leaf there is corruption.
fn read_leaf<O: MetricObject, D: Distance<O>>(
    tree: &SpbTree<O, D>,
    id: PageId,
    col: &mut StatsCollector,
) -> io::Result<LeafNode> {
    match tree.read_node_traced(id, col)? {
        Node::Leaf(l) => Ok(l),
        Node::Internal(_) => Err(corrupt(id, "internal node on the leaf chain")),
    }
}

/// One side of the merge: a tree, a cursor over its leaf entries with
/// keys in `[lo, hi]` (yielding `(key, RAF offset)` in SFC order), the
/// list of its visited entries and its cost accounting. One collector
/// per side, so each tree's B⁺-tree/RAF accesses meet a cache of that
/// tree's capacity.
struct Side<'a, O: MetricObject, D: Distance<O>> {
    tree: &'a SpbTree<O, D>,
    col: StatsCollector,
    list: Vec<ListEntry<O>>,
    leaf: Option<LeafNode>,
    idx: usize,
    hi: u128,
}

impl<'a, O: MetricObject, D: Distance<O>> Side<'a, O, D> {
    /// Seeks to the first entry with key in `keys`. Key 0 starts at the
    /// head of the chain; any other descends from the root with the
    /// strict-left bias of `BPlusTree::scan_range`, so duplicates of the
    /// low key that straddle node boundaries are not missed.
    fn open(tree: &'a SpbTree<O, D>, keys: &RangeInclusive<u128>) -> io::Result<Self> {
        let (mut col, lo) = (tree.collector(), *keys.start());
        let (mut page, levels) = match lo {
            0 => (tree.btree.first_leaf(), 1),
            _ => (tree.btree.root_page(), tree.btree.height()),
        };
        for _ in 1..levels {
            let Some(id) = page else { break };
            let Node::Internal(node) = tree.read_node_traced(id, &mut col)? else {
                return Err(corrupt(id, "leaf above the leaf level"));
            };
            let idx = node.entries.partition_point(|e| e.min_key < lo);
            let child = node.entries.get(idx.saturating_sub(1));
            page = Some(
                child
                    .ok_or_else(|| corrupt(id, "empty internal node"))?
                    .child,
            );
        }
        let mut side = Side {
            tree,
            leaf: page.map(|id| read_leaf(tree, id, &mut col)).transpose()?,
            col,
            list: Vec::new(),
            idx: 0,
            hi: *keys.end(),
        };
        side.settle(lo)?;
        Ok(side)
    }

    /// Moves forward to the next entry with key in `[lo, hi]`, following
    /// the chain; `leaf` becomes `None` past the last one.
    fn settle(&mut self, lo: u128) -> io::Result<()> {
        while let Some(l) = &self.leaf {
            match l.keys.get(self.idx) {
                Some(&k) if k > self.hi => self.leaf = None,
                Some(&k) if k >= lo => break,
                Some(_) => self.idx += 1,
                None => {
                    let next = l.next.map(|id| read_leaf(self.tree, id, &mut self.col));
                    (self.leaf, self.idx) = (next.transpose()?, 0);
                }
            }
        }
        Ok(())
    }

    fn current(&self) -> Option<(u128, u64)> {
        let l = self.leaf.as_ref()?;
        Some((*l.keys.get(self.idx)?, *l.values.get(self.idx)?))
    }
}

/// The merge (Algorithm 3 lines 3–11) over one chunk: its pairs and both
/// sides' summed cost.
fn merge<O: MetricObject, D: Distance<O>>(
    spb_q: &SpbTree<O, D>,
    spb_o: &SpbTree<O, D>,
    grid: &Grid<'_>,
    chunk: &Chunk,
) -> io::Result<(Vec<JoinPair>, QueryStats)> {
    let mut q = Side::open(spb_q, &chunk[0])?;
    let mut o = Side::open(spb_o, &chunk[1])?;
    let mut pairs = Vec::new();
    loop {
        // The side to step is the one with the smaller current key (Q on
        // a tie): its entry is verified against the other side's list,
        // then appended to its own.
        let (side, other, side_is_q, (key, off)) = match (q.current(), o.current()) {
            (Some(eq), Some(eo)) if eq.0 <= eo.0 => (&mut q, &mut o, true, eq),
            (Some(eq), None) => (&mut q, &mut o, true, eq),
            (_, Some(eo)) => (&mut o, &mut q, false, eo),
            (None, None) => break,
        };
        let (id, obj) = side.tree.fetch_traced(off, &mut side.col)?;
        let (cell, min_rr, max_rr) = grid.window(key);
        let mut i = other.list.len();
        while i > 0 {
            i -= 1;
            let cand = &other.list[i];
            // Lemma 6 eviction: no future entry (SFC ≥ key) can still
            // pair with this list entry.
            if cand.max_rr < key {
                other.list.remove(i);
                continue;
            }
            // Lemma 6 window, then Lemma 5 per-dimension pivot-space filter.
            let in_rr = cand.sfc >= min_rr
                && (cand.cell.iter().zip(&cell)).all(|(&a, &b)| a.abs_diff(b) <= grid.k_cells);
            if in_rr {
                let distance = side.tree.dist_traced(&mut side.col, &obj, &cand.obj);
                if distance <= grid.eps {
                    let (q_id, o_id) = if side_is_q {
                        (id, cand.id)
                    } else {
                        (cand.id, id)
                    };
                    pairs.push(JoinPair {
                        q_id,
                        o_id,
                        distance,
                    });
                }
            }
        }
        side.list.push(ListEntry {
            sfc: key,
            cell,
            max_rr,
            id,
            obj,
        });
        side.idx += 1;
        side.settle(0)?;
    }
    let mut stats = q.col.finish();
    stats.add(&o.col.finish());
    Ok((pairs, stats))
}

/// Cuts Q's leaf chain into at most `parts` contiguous chunks of equal
/// leaf count, each with the O window `[min minRR(q), max maxRR(q)]`
/// over its own entries. A chunk owns the keys from its first leaf's
/// first key up to the next chunk's, so duplicates of one key that
/// straddle a leaf boundary all fall to one chunk.
fn split_chain<O: MetricObject, D: Distance<O>>(
    spb_q: &SpbTree<O, D>,
    grid: &Grid<'_>,
    parts: usize,
    col: &mut StatsCollector,
) -> io::Result<Vec<Chunk>> {
    // Per non-empty leaf: its first key and the window of its entries.
    let mut leaves: Vec<(u128, u128, u128)> = Vec::new();
    let mut next = spb_q.btree.first_leaf();
    while let Some(id) = next {
        let leaf = read_leaf(spb_q, id, col)?;
        let (mut lo, mut hi) = (u128::MAX, 0);
        for &key in &leaf.keys {
            let (_, min_rr, max_rr) = grid.window(key);
            (lo, hi) = (lo.min(min_rr), hi.max(max_rr));
        }
        leaves.extend(leaf.keys.first().map(|&first| (first, lo, hi)));
        next = leaf.next;
    }
    let runs: Vec<_> = leaves.chunks(leaves.len().div_ceil(parts).max(1)).collect();
    let chunks = runs.iter().enumerate().filter_map(|(i, run)| {
        let q_lo = run.first()?.0;
        let q_hi = match runs.get(i + 1).and_then(|n| n.first()) {
            // The next chunk starts on the same key and owns every copy.
            Some(n) if n.0 == q_lo => return None,
            Some(n) => n.0 - 1,
            None => u128::MAX,
        };
        let o_lo = run.iter().map(|l| l.1).min()?;
        Some([q_lo..=q_hi, o_lo..=run.iter().map(|l| l.2).max()?])
    });
    Ok(chunks.collect())
}

/// `SJ(Q, O, ε)` over two SPB-trees (Algorithm 3).
///
/// Both trees must be built on the **Z-order curve** (use
/// [`SpbConfig::for_join`](crate::SpbConfig::for_join)) and share one pivot
/// table: build the first tree normally and the second via
/// [`SpbTree::build_with_pivots`] with the first tree's pivots. Anything
/// else is an `InvalidInput` error. `spb_q` and `spb_o` may be one tree
/// (a self-join).
///
/// Returns the result pairs and the combined cost metrics of both trees.
pub fn similarity_join<O: MetricObject, D: Distance<O>>(
    spb_q: &SpbTree<O, D>,
    spb_o: &SpbTree<O, D>,
    eps: f64,
) -> io::Result<(Vec<JoinPair>, QueryStats)> {
    similarity_join_parallel(spb_q, spb_o, eps, 1)
}

/// [`similarity_join`] on up to `threads` workers
/// ([`exec::parallel_map`]): `Q`'s leaf chain is cut into `threads`
/// contiguous chunks and each is merged against the `O` keys inside its
/// Lemma 6 window. Every qualifying pair is found by exactly one chunk —
/// the one owning its Q entry — so no deduplication pass is needed.
///
/// The pair set and `compdists` equal [`similarity_join`]'s for every
/// `threads`; with one chunk (`threads ≤ 1`, or a `Q` whose root is a
/// leaf) so do the pair order and *PA*. Otherwise *PA* is accounted per
/// chunk (each simulates its own cold protocol cache; the pass that cuts
/// the chain is charged too) and summed — a function of the chunking,
/// not of scheduling.
pub fn similarity_join_parallel<O: MetricObject, D: Distance<O>>(
    spb_q: &SpbTree<O, D>,
    spb_o: &SpbTree<O, D>,
    eps: f64,
    threads: usize,
) -> io::Result<(Vec<JoinPair>, QueryStats)> {
    let invalid = |what| Err(io::Error::new(io::ErrorKind::InvalidInput, what));
    if spb_q.curve.kind() != CurveKind::Z {
        return invalid("SJA needs Z-order trees (Lemma 6): build both with SpbConfig::for_join()");
    }
    let (tq, to) = (&spb_q.table, &spb_o.table);
    if spb_q.curve != spb_o.curve || tq.pivots() != to.pivots() || tq.delta() != to.delta() {
        return invalid("join trees must share one curve geometry and one pivot table");
    }

    // A self-join latches its one tree once: the latch is not reentrant,
    // and a writer queued between two shared holds would deadlock both.
    let _guard_q = spb_q.latch_shared()?;
    let _guard_o = (!std::ptr::eq(spb_q, spb_o))
        .then(|| spb_o.latch_shared())
        .transpose()?;
    let start = spb_obs::clock::now();
    let grid = Grid {
        curve: &spb_q.curve,
        eps,
        k_cells: tq.cell_radius(eps.max(0.0)),
        max_coord: tq.max_coord(),
    };
    let mut setup = spb_q.collector();
    let chunks = if eps.is_nan() || eps < 0.0 {
        Vec::new()
    } else if threads <= 1 || spb_q.btree.height() <= 1 {
        vec![[0..=u128::MAX, 0..=u128::MAX]]
    } else {
        split_chain(spb_q, &grid, threads, &mut setup)?
    };

    let mut result = Vec::new();
    let mut stats = setup.finish();
    for merged in exec::parallel_map(threads, &chunks, |_, chunk| {
        merge(spb_q, spb_o, &grid, chunk)
    }) {
        let (pairs, cost) = merged?;
        result.extend(pairs);
        stats.add(&cost);
    }
    stats.duration = start.elapsed();
    Ok((result, stats))
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
        // The pivots come from whichever side has objects to pick from.
        let (spb_q, spb_o);
        if o_data.is_empty() {
            spb_q = SpbTree::build(dq.path(), q_data, metric.clone(), &cfg).unwrap();
            let pivots = spb_q.table().pivots().to_vec();
            spb_o =
                SpbTree::build_with_pivots(do_.path(), o_data, metric, pivots, &cfg, 0).unwrap();
        } else {
            spb_o = SpbTree::build(do_.path(), o_data, metric.clone(), &cfg).unwrap();
            let pivots = spb_o.table().pivots().to_vec();
            spb_q = SpbTree::build_with_pivots(dq.path(), q_data, metric, pivots, &cfg, 0).unwrap();
        }
        (dq, do_, spb_q, spb_o)
    }

    /// Objects by id; `None` marks a deleted one.
    type ById<O> = Vec<Option<O>>;

    fn by_id<O: Clone>(data: &[O]) -> ById<O> {
        data.iter().cloned().map(Some).collect()
    }

    fn brute_join<O: MetricObject, D: Distance<O>>(
        q: &ById<O>,
        o: &ById<O>,
        metric: &D,
        eps: f64,
    ) -> Vec<(u32, u32)> {
        let mut pairs = Vec::new();
        for (i, a) in q.iter().enumerate() {
            for (j, b) in o.iter().enumerate() {
                if let (Some(a), Some(b)) = (a, b) {
                    if metric.distance(a, b) <= eps {
                        pairs.push((i as u32, j as u32));
                    }
                }
            }
        }
        pairs
    }

    fn costs(s: &QueryStats) -> [u64; 4] {
        [s.compdists, s.page_accesses, s.btree_pa, s.raf_pa]
    }

    /// The whole contract of the one join at one ε: the sequential join
    /// equals brute force with correct distances and no duplicate pair;
    /// one thread *is* the sequential join (pair order and every counter);
    /// any other thread count yields the same pair set, exactly the
    /// sequential compdists, and a PA that repeats run to run.
    fn check_trees<O: MetricObject, D: Distance<O>>(
        spb_q: &SpbTree<O, D>,
        spb_o: &SpbTree<O, D>,
        q: &ById<O>,
        o: &ById<O>,
        metric: &D,
        eps: f64,
    ) {
        let sorted_ids = |pairs: &[JoinPair]| {
            let mut ids: Vec<(u32, u32)> = pairs.iter().map(|p| (p.q_id, p.o_id)).collect();
            ids.sort_unstable();
            ids
        };
        let (seq, seq_stats) = similarity_join(spb_q, spb_o, eps).unwrap();
        let want = brute_join(q, o, metric, eps);
        assert_eq!(sorted_ids(&seq), want, "eps={eps}");
        for p in &seq {
            let (a, b) = (&q[p.q_id as usize], &o[p.o_id as usize]);
            let d = metric.distance(a.as_ref().unwrap(), b.as_ref().unwrap());
            assert!((d - p.distance).abs() < 1e-12);
        }

        let (one, one_stats) = similarity_join_parallel(spb_q, spb_o, eps, 1).unwrap();
        assert_eq!(one, seq, "one thread keeps the pair order (eps={eps})");
        assert_eq!(costs(&one_stats), costs(&seq_stats), "eps={eps}");

        for threads in [2, 4, 64] {
            let (par, stats) = similarity_join_parallel(spb_q, spb_o, eps, threads).unwrap();
            // `want` is duplicate-free, so equality is Lemma 7 too.
            assert_eq!(sorted_ids(&par), want, "eps={eps}, {threads} threads");
            assert_eq!(
                stats.compdists, seq_stats.compdists,
                "eps={eps}, {threads} threads"
            );
            let (again, again_stats) =
                similarity_join_parallel(spb_q, spb_o, eps, threads).unwrap();
            assert_eq!(again, par, "eps={eps}, {threads} threads");
            assert_eq!(
                costs(&again_stats),
                costs(&stats),
                "eps={eps}, {threads} threads"
            );
        }
    }

    fn check<O: MetricObject, D: Distance<O> + Clone>(
        q_data: Vec<O>,
        o_data: Vec<O>,
        metric: D,
        epsilons: &[f64],
    ) {
        let (_dq, _do, spb_q, spb_o) = build_pair(&q_data, &o_data, metric.clone());
        let (q, o) = (by_id(&q_data), by_id(&o_data));
        for &eps in epsilons {
            check_trees(&spb_q, &spb_o, &q, &o, &metric, eps);
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
    fn degenerate_sides_and_radii() {
        let metric = dataset::words_metric();
        let many = dataset::words(400, 47);
        let d_plus = metric.max_distance();
        let cases: [(&[Word], &[Word]); 5] = [
            (&many, &many[..1]),
            (&many[..1], &many),
            (&many, &[]),
            (&[], &many),
            (&many[..250], &many[150..]),
        ];
        for (q_data, o_data) in cases {
            // ε = 0, and ε ≥ d⁺ where every chunk's window is all of O.
            check(q_data.to_vec(), o_data.to_vec(), metric, &[0.0, d_plus]);
        }
    }

    #[test]
    fn updated_trees_join_like_fresh_ones() {
        // Inserts and deletes on both sides after the bulk load: leaves
        // split and empty, and ids run past the loaded range.
        let metric = dataset::words_metric();
        let mut words = dataset::words(900, 55);
        words.sort_unstable_by(|a, b| a.as_str().cmp(b.as_str()));
        words.dedup();
        let (q_data, rest) = words.split_at(300);
        let (o_data, fresh) = rest.split_at(300);
        let (_dq, _do, spb_q, spb_o) = build_pair(q_data, o_data, metric);
        let (mut q, mut o) = (by_id(q_data), by_id(o_data));
        for (i, w) in fresh.iter().enumerate() {
            let (tree, objs) = if i % 2 == 0 {
                (&spb_q, &mut q)
            } else {
                (&spb_o, &mut o)
            };
            tree.insert(w).unwrap();
            objs.push(Some(w.clone()));
        }
        for (tree, objs) in [(&spb_q, &mut q), (&spb_o, &mut o)] {
            for id in (0..objs.len()).step_by(3) {
                let gone = objs[id].take().unwrap();
                assert!(tree.delete(&gone).unwrap().0);
            }
        }
        for eps in [0.0, 1.0, 3.0] {
            check_trees(&spb_q, &spb_o, &q, &o, &metric, eps);
        }
    }

    #[test]
    fn a_key_duplicated_across_q_leaf_boundaries_is_joined_once() {
        // 500 copies of one word share one key and fill more than two of
        // Q's leaves, so with one leaf per chunk (64 threads) several
        // chunks start on that key.
        let metric = dataset::words_metric();
        let mut q_data = dataset::words(200, 56);
        q_data.extend(std::iter::repeat_n(Word::new("banana"), 500));
        let mut o_data = dataset::words(200, 57);
        o_data.extend(["banana", "bananas", "cabana"].map(Word::new));
        let (_dq, _do, spb_q, spb_o) = build_pair(&q_data, &o_data, metric);
        // 700 entries on at most 4 leaves would mean ≥ 175 per leaf, and
        // then the copies could sit on two leaves with one boundary.
        assert!(spb_q.btree().num_leaf_pages().unwrap() > 4);
        let (q, o) = (by_id(&q_data), by_id(&o_data));
        for eps in [0.0, 1.0, 2.0] {
            check_trees(&spb_q, &spb_o, &q, &o, &metric, eps);
        }
    }

    #[test]
    fn unjoinable_trees_are_invalid_input() {
        let data = dataset::words(50, 48);
        let metric = dataset::words_metric();
        let dirs: Vec<TempDir> = (0..4)
            .map(|i| TempDir::new(&format!("sja-bad{i}")))
            .collect();
        let build = |i: usize, pivots: Option<&[Word]>, cfg: &SpbConfig| match pivots {
            None => SpbTree::build(dirs[i].path(), &data, metric, cfg).unwrap(),
            Some(p) => {
                SpbTree::build_with_pivots(dirs[i].path(), &data, metric, p.to_vec(), cfg, 0)
                    .unwrap()
            }
        };
        let z = build(0, None, &SpbConfig::for_join());
        let pivots = z.table().pivots();
        let hilbert = build(1, Some(pivots), &SpbConfig::default());
        let reversed: Vec<Word> = pivots.iter().rev().cloned().collect();
        let other_pivots = build(2, Some(&reversed), &SpbConfig::for_join());
        let coarse = SpbConfig {
            delta: Some(2.0),
            ..SpbConfig::for_join()
        };
        let other_delta = build(3, Some(pivots), &coarse);
        let bad_pairs = [
            (&hilbert, &hilbert),
            (&z, &hilbert),
            (&z, &other_pivots),
            (&z, &other_delta),
        ];
        for (a, b) in bad_pairs {
            let seq = similarity_join(a, b, 1.0).map(drop).unwrap_err();
            assert_eq!(seq.kind(), io::ErrorKind::InvalidInput, "{seq}");
            let par = similarity_join_parallel(a, b, 1.0, 2)
                .map(drop)
                .unwrap_err();
            assert_eq!(par.kind(), io::ErrorKind::InvalidInput, "{par}");
        }
    }

    #[test]
    fn an_internal_node_on_a_leaf_chain_is_invalid_data() {
        let q_data = dataset::words(600, 58);
        let o_data = dataset::words(600, 59);
        let (_dq, _do, spb_q, spb_o) = build_pair(&q_data, &o_data, dataset::words_metric());
        for tree in [&spb_q, &spb_o] {
            let btree = tree.btree();
            let first = btree.first_leaf().unwrap();
            let Node::Leaf(leaf) = btree.read_node(first).unwrap() else {
                panic!("first_leaf is a leaf");
            };
            let second = leaf.next.unwrap();
            let saved = btree.pool().read(second).unwrap();
            let root = btree.pool().read(btree.root_page().unwrap()).unwrap();
            btree.pool().write(second, (*root).clone()).unwrap();
            let seq = similarity_join(&spb_q, &spb_o, 1.0).map(drop).unwrap_err();
            assert_eq!(seq.kind(), io::ErrorKind::InvalidData, "{seq}");
            let par = similarity_join_parallel(&spb_q, &spb_o, 1.0, 2)
                .map(drop)
                .unwrap_err();
            assert_eq!(par.kind(), io::ErrorKind::InvalidData, "{par}");
            btree.pool().write(second, (*saved).clone()).unwrap();
        }
        check_trees(
            &spb_q,
            &spb_o,
            &by_id(&q_data),
            &by_id(&o_data),
            &dataset::words_metric(),
            1.0,
        );
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
