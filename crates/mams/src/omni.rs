//! The OmniR-tree (Traina Jr., Filho, Traina, Vieira & Faloutsos, VLDB
//! Journal 2007) — the pivot-based baseline of Tables 6–7 and Figs. 12–13.
//!
//! The Omni-family picks a small set of **foci** with the HF (Hull of
//! Foreigners) algorithm — the paper uses *intrinsic dimensionality + 1*
//! foci — and represents each object by its **omni-coordinates**, the
//! vector of distances to the foci. Those coordinates are indexed by a
//! conventional [`RTree`]; the objects themselves live in a separate RAF.
//! By the triangle inequality, `max_i |d(q, f_i) − d(o, f_i)|` (the `L∞`
//! distance in omni-space) lower-bounds `d(q, o)`, so:
//!
//! * a range query maps to the omni-space rectangle
//!   `×_i [d(q, f_i) − r, d(q, f_i) + r]`, whose R-tree candidates are then
//!   verified with real distances;
//! * a kNN query runs best-first over the R-tree with the `L∞` MINDIST
//!   lower bound.
//!
//! Unlike the SPB-tree, omni-coordinates are stored uncompressed (one
//! `f32` per focus per object) and the RAF is in insertion order — the two
//! structural choices behind its larger storage and higher query I/O in
//! the paper's comparison.

use std::cmp::Ordering as CmpOrdering;
use std::collections::BinaryHeap;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use spb_core::{BuildStats, QueryStats};
use spb_metric::{CountingDistance, DistCounter, Distance, MetricObject};
use spb_obs::clock;
use spb_pivots::{select_pivots, PivotConfig, PivotMethod};
use spb_storage::{IoStats, Raf, RafPtr, PAGE_SIZE};

use crate::rtree::{RNode, RTree, RTreeParams, Rect};

/// OmniR-tree tuning parameters.
#[derive(Clone, Debug)]
pub struct OmniParams {
    /// Number of foci (the paper: intrinsic dimensionality + 1).
    pub num_foci: usize,
    /// Page-cache capacity for both files.
    pub cache_pages: usize,
    /// Sampling knobs for the HF foci selection.
    pub pivot_config: PivotConfig,
}

impl Default for OmniParams {
    fn default() -> Self {
        OmniParams {
            num_foci: 6,
            cache_pages: 32,
            pivot_config: PivotConfig::default(),
        }
    }
}

/// A disk-based OmniR-tree: HF foci + R-tree over omni-coordinates + RAF.
pub struct OmniRTree<O: MetricObject, D: Distance<O>> {
    metric: CountingDistance<D>,
    counter: DistCounter,
    foci: Vec<O>,
    rtree: RTree,
    raf: Raf,
    len: AtomicU64,
    next_id: AtomicU64,
    build_stats: BuildStats,
}

impl<O: MetricObject, D: Distance<O>> OmniRTree<O, D> {
    /// Builds an OmniR-tree over `objects` in `dir` (`omni.rtree` +
    /// `omni.raf`).
    pub fn build(dir: &Path, objects: &[O], metric: D, params: &OmniParams) -> io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let start = clock::now();
        let counter = DistCounter::new();
        let metric = CountingDistance::with_counter(metric, counter.clone());

        // HF foci selection on a separate counter (like the SPB-tree's
        // pivot accounting).
        let pivot_counter = DistCounter::new();
        let selection_metric =
            CountingDistance::with_counter(metric.inner(), pivot_counter.clone());
        let foci_idx = select_pivots(
            PivotMethod::Hf,
            objects,
            &selection_metric,
            params.num_foci,
            &params.pivot_config,
        );
        let foci: Vec<O> = foci_idx.iter().map(|&i| objects[i].clone()).collect();
        let dim = foci.len().max(1);

        let raf = Raf::create(&dir.join("omni.raf"), params.cache_pages)?;
        let rtree = RTree::create(
            &dir.join("omni.rtree"),
            dim,
            &RTreeParams {
                cache_pages: params.cache_pages,
            },
        )?;

        // Map (counted: |O| · |F|) and store objects in insertion order.
        let mut items: Vec<(Vec<f32>, u64, u32)> = Vec::with_capacity(objects.len());
        let mut buf = Vec::new();
        for (i, o) in objects.iter().enumerate() {
            let coords: Vec<f32> = foci.iter().map(|f| metric.distance(o, f) as f32).collect();
            buf.clear();
            o.encode(&mut buf);
            let ptr = raf.append(i as u32, &buf)?;
            items.push((coords, ptr.offset, i as u32));
        }
        raf.flush()?;
        rtree.bulk_load(items)?;

        let build_stats = BuildStats {
            compdists: counter.get(),
            pivot_compdists: pivot_counter.get(),
            page_accesses: rtree.pool().stats().page_accesses() + raf.io_stats().page_accesses(),
            duration: start.elapsed(),
            storage_bytes: (rtree.pool().num_pages() + raf.num_pages()) * PAGE_SIZE as u64,
            num_objects: objects.len() as u64,
        };
        rtree.pool().reset_stats();
        raf.reset_stats();
        counter.reset();

        Ok(OmniRTree {
            metric,
            counter,
            foci,
            rtree,
            raf,
            len: AtomicU64::new(objects.len() as u64),
            next_id: AtomicU64::new(objects.len() as u64),
            build_stats,
        })
    }

    fn omni_coords(&self, o: &O) -> Vec<f32> {
        self.foci
            .iter()
            .map(|f| self.metric.distance(o, f) as f32)
            .collect()
    }

    fn fetch(&self, offset: u64) -> io::Result<(u32, O)> {
        let e = self.raf.get(RafPtr { offset })?;
        Ok((e.id, O::decode(&e.bytes)))
    }

    /// `RQ(q, O, r)` via the omni-space rectangle + verification.
    pub fn range(&self, q: &O, r: f64) -> io::Result<(Vec<(u32, O)>, QueryStats)> {
        let snap = self.snapshot();
        let mut out = Vec::new();
        if !self.rtree.is_empty() && r >= 0.0 {
            let qc = self.omni_coords(q);
            let rect = Rect::new(
                qc.iter().map(|&c| (c as f64 - r) as f32).collect(),
                // f32 rounding: nudge the upper corner up one ULP so no
                // boundary candidate is lost.
                qc.iter()
                    .map(|&c| ((c as f64 + r) as f32).next_up())
                    .collect(),
            );
            for (off, _) in self.rtree.search_rect(&rect)? {
                let (id, o) = self.fetch(off)?;
                if self.metric.distance(q, &o) <= r {
                    out.push((id, o));
                }
            }
        }
        Ok((out, self.stats_since(snap)))
    }

    /// `kNN(q, k)` by best-first R-tree traversal under the `L∞` MINDIST
    /// lower bound.
    pub fn knn(&self, q: &O, k: usize) -> spb_core::KnnResult<O> {
        let snap = self.snapshot();
        let mut best: BinaryHeap<Best<O>> = BinaryHeap::new();
        if k > 0 {
            if let Some(root) = self.rtree.root_page() {
                let qc = self.omni_coords(q);
                let mut heap: BinaryHeap<Item> = BinaryHeap::new();
                heap.push(Item {
                    mind: 0.0,
                    kind: Kind::Node(root),
                });
                let cur_nd = |best: &BinaryHeap<Best<O>>| {
                    if best.len() < k {
                        f64::INFINITY
                    } else {
                        best.peek().expect("non-empty").dist
                    }
                };
                while let Some(item) = heap.pop() {
                    if item.mind >= cur_nd(&best) {
                        break;
                    }
                    match item.kind {
                        Kind::Node(page) => match self.rtree.read_node(page)? {
                            RNode::Internal(es) => {
                                for e in es {
                                    let mind = e.rect.mind_linf(&qc);
                                    if mind < cur_nd(&best) {
                                        heap.push(Item {
                                            mind,
                                            kind: Kind::Node(e.child),
                                        });
                                    }
                                }
                            }
                            RNode::Leaf(es) => {
                                for e in es {
                                    let mind = Rect::point(&e.coords).mind_linf(&qc);
                                    // f32 coordinates round the true L∞
                                    // bound; relax by one ULP-ish epsilon.
                                    let mind = (mind - 1e-6).max(0.0);
                                    if mind < cur_nd(&best) {
                                        heap.push(Item {
                                            mind,
                                            kind: Kind::Object { offset: e.raf_off },
                                        });
                                    }
                                }
                            }
                        },
                        Kind::Object { offset } => {
                            let (id, o) = self.fetch(offset)?;
                            let d = self.metric.distance(q, &o);
                            if best.len() < k {
                                best.push(Best {
                                    dist: d,
                                    id,
                                    obj: o,
                                });
                            } else if d < cur_nd(&best) {
                                best.pop();
                                best.push(Best {
                                    dist: d,
                                    id,
                                    obj: o,
                                });
                            }
                        }
                    }
                }
            }
        }
        let mut out: Vec<(u32, O, f64)> = best
            .into_sorted_vec()
            .into_iter()
            .map(|b| (b.id, b.obj, b.dist))
            .collect();
        out.sort_by(|a, b| a.2.total_cmp(&b.2).then(a.0.cmp(&b.0)));
        Ok((out, self.stats_since(snap)))
    }

    /// Inserts one object: map to omni-coordinates, append to the RAF,
    /// insert the point into the R-tree.
    pub fn insert(&self, o: &O) -> io::Result<QueryStats> {
        let snap = self.snapshot();
        let coords = self.omni_coords(o);
        let id = self.next_id.fetch_add(1, Ordering::SeqCst) as u32;
        let mut buf = Vec::new();
        o.encode(&mut buf);
        let ptr = self.raf.append(id, &buf)?;
        self.raf.flush()?;
        self.rtree.insert(&coords, ptr.offset, id)?;
        self.len.fetch_add(1, Ordering::SeqCst);
        Ok(self.stats_since(snap))
    }

    /// Number of indexed objects.
    pub fn len(&self) -> u64 {
        self.len.load(Ordering::SeqCst)
    }

    /// True iff empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The selected foci.
    pub fn foci(&self) -> &[O] {
        &self.foci
    }

    /// Construction costs (a Table 6 row).
    pub fn build_stats(&self) -> BuildStats {
        self.build_stats
    }

    /// Total storage in bytes.
    pub fn storage_bytes(&self) -> u64 {
        (self.rtree.pool().num_pages() + self.raf.num_pages()) * PAGE_SIZE as u64
    }

    /// Flushes both page caches.
    pub fn flush_caches(&self) {
        self.rtree.pool().flush_cache();
        self.raf.flush_cache();
    }

    /// Sets both cache capacities.
    pub fn set_cache_capacity(&self, pages: usize) {
        self.rtree.pool().set_capacity(pages);
        self.raf.set_cache_capacity(pages);
    }

    fn snapshot(&self) -> (u64, IoStats, IoStats, Instant) {
        (
            self.counter.get(),
            self.rtree.pool().stats(),
            self.raf.io_stats(),
            clock::now(),
        )
    }

    fn stats_since(&self, snap: (u64, IoStats, IoStats, Instant)) -> QueryStats {
        let (c0, t0, r0, at) = snap;
        let t1 = self.rtree.pool().stats();
        let r1 = self.raf.io_stats();
        let tree_pa = t1.page_accesses() - t0.page_accesses();
        let raf_pa = r1.page_accesses() - r0.page_accesses();
        QueryStats {
            compdists: self.counter.since(c0),
            page_accesses: tree_pa + raf_pa,
            btree_pa: tree_pa,
            raf_pa,
            fsyncs: 0,
            duration: at.elapsed(),
            recall: None,
        }
    }
}

struct Item {
    mind: f64,
    kind: Kind,
}

enum Kind {
    Node(spb_storage::PageId),
    Object { offset: u64 },
}

impl PartialEq for Item {
    fn eq(&self, other: &Self) -> bool {
        self.mind == other.mind
    }
}
impl Eq for Item {}
impl PartialOrd for Item {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}
impl Ord for Item {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        other.mind.total_cmp(&self.mind)
    }
}

struct Best<O> {
    dist: f64,
    id: u32,
    obj: O,
}

impl<O> PartialEq for Best<O> {
    fn eq(&self, other: &Self) -> bool {
        self.dist == other.dist
    }
}
impl<O> Eq for Best<O> {}
impl<O> PartialOrd for Best<O> {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}
impl<O> Ord for Best<O> {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        self.dist.total_cmp(&other.dist)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spb_metric::dataset;
    use spb_storage::TempDir;

    #[test]
    fn range_matches_bruteforce() {
        let data = dataset::words(500, 81);
        let m = dataset::words_metric();
        let dir = TempDir::new("omni-range");
        let t = OmniRTree::build(dir.path(), &data, m, &OmniParams::default()).unwrap();
        for q in data.iter().take(6) {
            for r in [0.0, 1.0, 3.0] {
                let (hits, _) = t.range(q, r).unwrap();
                let mut got: Vec<u32> = hits.iter().map(|&(id, _)| id).collect();
                got.sort_unstable();
                let mut want: Vec<u32> = data
                    .iter()
                    .enumerate()
                    .filter(|(_, o)| dataset::words_metric().distance(q, o) <= r)
                    .map(|(i, _)| i as u32)
                    .collect();
                want.sort_unstable();
                assert_eq!(got, want, "r={r}");
            }
        }
    }

    #[test]
    fn knn_matches_bruteforce() {
        let data = dataset::color(500, 82);
        let dir = TempDir::new("omni-knn");
        let t = OmniRTree::build(
            dir.path(),
            &data,
            dataset::color_metric(),
            &OmniParams::default(),
        )
        .unwrap();
        for q in data.iter().take(5) {
            let (nn, _) = t.knn(q, 8).unwrap();
            let mut dists: Vec<f64> = data
                .iter()
                .map(|o| dataset::color_metric().distance(q, o))
                .collect();
            dists.sort_by(f64::total_cmp);
            for (i, &(_, _, d)) in nn.iter().enumerate() {
                assert!((d - dists[i]).abs() < 1e-9, "rank {i}");
            }
        }
    }

    #[test]
    fn inserts_are_searchable() {
        let data = dataset::words(200, 83);
        let dir = TempDir::new("omni-ins");
        let t = OmniRTree::build(
            dir.path(),
            &data[..100],
            dataset::words_metric(),
            &OmniParams::default(),
        )
        .unwrap();
        for o in &data[100..] {
            t.insert(o).unwrap();
        }
        assert_eq!(t.len(), 200);
        let q = &data[150];
        let (hits, _) = t.range(q, 0.0).unwrap();
        assert!(hits.iter().any(|(_, o)| o == q));
    }

    #[test]
    fn construction_counts_mapping_distances() {
        let data = dataset::color(400, 84);
        let dir = TempDir::new("omni-cost");
        let params = OmniParams {
            num_foci: 4,
            ..OmniParams::default()
        };
        let t = OmniRTree::build(dir.path(), &data, dataset::color_metric(), &params).unwrap();
        assert_eq!(t.build_stats().compdists, 400 * 4);
        assert!(t.build_stats().pivot_compdists > 0);
        assert_eq!(t.foci().len(), 4);
    }
}
