//! The M-tree (Ciaccia, Patella & Zezula, VLDB '97) — the canonical
//! compact-partitioning metric access method and the paper's primary
//! baseline (Tables 6–7, Figs. 12–13).
//!
//! Every node is one 4 KB page. Leaf entries hold the objects themselves
//! (unlike the SPB-tree, which externalises them into an RAF — this is the
//! structural difference behind Table 6's storage gap). Internal entries
//! hold a routing object, a covering radius, the child page, and the
//! distance to the parent router, which enables the classic
//! parent-distance pruning `|d(q, R_parent) − parent_dist| > r + radius`.
//!
//! * Insertion descends by minimum distance (preferring children that need
//!   no radius enlargement) and splits overflowing nodes with **mM_RAD**
//!   promotion over the full pairwise matrix.
//! * Bulk-loading is the sampling-based recursive clustering of Ciaccia &
//!   Patella (without the post-hoc rebalancing pass; queries only rely on
//!   covering radii, so mildly unbalanced trees remain correct — noted in
//!   DESIGN.md).
//! * Range and kNN queries implement the standard M-tree algorithms with
//!   parent-distance pruning.

use std::cmp::Ordering as CmpOrdering;
use std::collections::BinaryHeap;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use rand::prelude::*;
use rand::rngs::StdRng;

use spb_core::{BuildStats, QueryStats};
use spb_metric::{CountingDistance, DistCounter, Distance, MetricObject};
use spb_obs::clock;
use spb_storage::lockrank::{LockRank, RankedMutex};
use spb_storage::{BufferPool, IoStats, Page, PageId, Pager, PAGE_DATA_SIZE, PAGE_SIZE};

const MAGIC: u64 = 0x4d54_5245_4531_3937; // "MTREE197"
const HEADER: usize = 4; // type u8, pad u8, count u16
const MAX_ENTRIES: usize = 64;

/// M-tree tuning parameters.
#[derive(Clone, Copy, Debug)]
pub struct MTreeParams {
    /// Page-cache capacity in pages.
    pub cache_pages: usize,
    /// Fan-out target for the sampling-based bulk-loading.
    pub bulk_fanout: usize,
    /// RNG seed for bulk-loading's cluster sampling.
    pub seed: u64,
}

impl Default for MTreeParams {
    fn default() -> Self {
        MTreeParams {
            cache_pages: 32,
            bulk_fanout: 15,
            seed: 0x3717,
        }
    }
}

struct LeafEntry<O> {
    id: u32,
    parent_dist: f64,
    obj: O,
}

struct IntEntry<O> {
    child: PageId,
    radius: f64,
    parent_dist: f64,
    router: O,
}

enum MNode<O> {
    Leaf(Vec<LeafEntry<O>>),
    Internal(Vec<IntEntry<O>>),
}

impl<O: MetricObject> MNode<O> {
    fn encoded_len(&self) -> usize {
        match self {
            MNode::Leaf(es) => HEADER + es.iter().map(|e| 16 + e.obj.encoded_len()).sum::<usize>(),
            MNode::Internal(es) => {
                HEADER
                    + es.iter()
                        .map(|e| 28 + e.router.encoded_len())
                        .sum::<usize>()
            }
        }
    }

    fn len(&self) -> usize {
        match self {
            MNode::Leaf(es) => es.len(),
            MNode::Internal(es) => es.len(),
        }
    }

    fn overflows(&self) -> bool {
        self.encoded_len() > PAGE_DATA_SIZE || self.len() > MAX_ENTRIES
    }

    fn encode(&self) -> Page {
        assert!(!self.overflows(), "encoding an overflowing M-tree node");
        let mut p = Page::new();
        let mut off = HEADER;
        match self {
            MNode::Leaf(es) => {
                p.write_u8(0, 0);
                p.write_u16(2, es.len() as u16);
                for e in es {
                    let bytes = e.obj.encoded();
                    p.write_u32(off, e.id);
                    p.write_f64(off + 4, e.parent_dist);
                    p.write_u32(off + 12, bytes.len() as u32);
                    p.write_slice(off + 16, &bytes);
                    off += 16 + bytes.len();
                }
            }
            MNode::Internal(es) => {
                p.write_u8(0, 1);
                p.write_u16(2, es.len() as u16);
                for e in es {
                    let bytes = e.router.encoded();
                    p.write_u64(off, e.child.0);
                    p.write_f64(off + 8, e.radius);
                    p.write_f64(off + 16, e.parent_dist);
                    p.write_u32(off + 24, bytes.len() as u32);
                    p.write_slice(off + 28, &bytes);
                    off += 28 + bytes.len();
                }
            }
        }
        p
    }

    fn decode(p: &Page) -> MNode<O> {
        let count = p.read_u16(2) as usize;
        let mut off = HEADER;
        match p.read_u8(0) {
            0 => {
                let mut es = Vec::with_capacity(count);
                for _ in 0..count {
                    let id = p.read_u32(off);
                    let parent_dist = p.read_f64(off + 4);
                    let len = p.read_u32(off + 12) as usize;
                    let obj = O::decode(p.read_slice(off + 16, len));
                    es.push(LeafEntry {
                        id,
                        parent_dist,
                        obj,
                    });
                    off += 16 + len;
                }
                MNode::Leaf(es)
            }
            1 => {
                let mut es = Vec::with_capacity(count);
                for _ in 0..count {
                    let child = PageId(p.read_u64(off));
                    let radius = p.read_f64(off + 8);
                    let parent_dist = p.read_f64(off + 16);
                    let len = p.read_u32(off + 24) as usize;
                    let router = O::decode(p.read_slice(off + 28, len));
                    es.push(IntEntry {
                        child,
                        radius,
                        parent_dist,
                        router,
                    });
                    off += 28 + len;
                }
                MNode::Internal(es)
            }
            t => panic!("corrupt M-tree page: unknown type {t}"),
        }
    }
}

enum InsertUp<O> {
    /// Child absorbed the object. The parent already expanded its entry's
    /// covering radius by `d(o, entry.router)` before recursing, which is
    /// sufficient: that distance bounds the new object from the routing
    /// ball's centre.
    Done,
    /// Child split into two routed nodes `(router, radius, page)`.
    Split {
        left: (O, f64, PageId),
        right: (O, f64, PageId),
    },
}

/// A disk-based M-tree.
pub struct MTree<O: MetricObject, D: Distance<O>> {
    metric: CountingDistance<D>,
    counter: DistCounter,
    pool: BufferPool,
    root: RankedMutex<Option<PageId>>,
    len: AtomicU64,
    next_id: AtomicU64,
    build_stats: BuildStats,
    seed: u64,
    _marker: std::marker::PhantomData<O>,
}

impl<O: MetricObject, D: Distance<O>> MTree<O, D> {
    /// Bulk-loads an M-tree over `objects` into `dir/mtree.db`.
    pub fn build(dir: &Path, objects: &[O], metric: D, params: &MTreeParams) -> io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let start = clock::now();
        let counter = DistCounter::new();
        let metric = CountingDistance::with_counter(metric, counter.clone());
        let pool = BufferPool::new(Pager::create(&dir.join("mtree.db"))?, params.cache_pages);
        let meta = pool.allocate()?;
        debug_assert_eq!(meta, PageId(0));

        let mut tree = MTree {
            metric,
            counter: counter.clone(),
            pool,
            root: RankedMutex::new(LockRank::BaselineRoot, None),
            len: AtomicU64::new(objects.len() as u64),
            next_id: AtomicU64::new(objects.len() as u64),
            build_stats: BuildStats {
                compdists: 0,
                pivot_compdists: 0,
                page_accesses: 0,
                duration: std::time::Duration::ZERO,
                storage_bytes: 0,
                num_objects: objects.len() as u64,
            },
            seed: params.seed,
            _marker: std::marker::PhantomData,
        };

        if !objects.is_empty() {
            let idxs: Vec<u32> = (0..objects.len() as u32).collect();
            let mut rng = StdRng::seed_from_u64(params.seed);
            let (_, _, root) = tree.bulk_rec(objects, idxs, params.bulk_fanout, &mut rng)?;
            *tree.root.lock() = Some(root);
        }
        tree.write_meta()?;

        tree.build_stats = BuildStats {
            compdists: counter.get(),
            pivot_compdists: 0,
            page_accesses: tree.pool.stats().page_accesses(),
            duration: start.elapsed(),
            storage_bytes: tree.pool.num_pages() * PAGE_SIZE as u64,
            num_objects: objects.len() as u64,
        };
        tree.pool.reset_stats();
        counter.reset();
        Ok(tree)
    }

    /// Recursive sampling-based bulk-load. Returns
    /// `(router index, covering radius, node page)`.
    fn bulk_rec(
        &self,
        objects: &[O],
        idxs: Vec<u32>,
        fanout: usize,
        rng: &mut StdRng,
    ) -> io::Result<(u32, f64, PageId)> {
        // Try a leaf first: router is the first object; entries store their
        // distance to it.
        let router = idxs[0];
        let leaf_size: usize = HEADER
            + idxs
                .iter()
                .map(|&i| 16 + objects[i as usize].encoded_len())
                .sum::<usize>();
        if idxs.len() <= MAX_ENTRIES && leaf_size <= PAGE_DATA_SIZE {
            let mut radius = 0.0f64;
            let entries: Vec<LeafEntry<O>> = idxs
                .iter()
                .map(|&i| {
                    let d = self
                        .metric
                        .distance(&objects[i as usize], &objects[router as usize]);
                    radius = radius.max(d);
                    LeafEntry {
                        id: i,
                        parent_dist: d,
                        obj: objects[i as usize].clone(),
                    }
                })
                .collect();
            let page = self.pool.allocate()?;
            self.pool.write(page, MNode::Leaf(entries).encode())?;
            return Ok((router, radius, page));
        }

        // Sample seeds and assign every object to its nearest seed.
        let f = fanout.min(idxs.len());
        let mut seeds: Vec<u32> = idxs.choose_multiple(rng, f).copied().collect();
        seeds.sort_unstable();
        seeds.dedup();
        let mut clusters: Vec<Vec<u32>> = vec![Vec::new(); seeds.len()];
        for &i in &idxs {
            let (best, _) = seeds
                .iter()
                .enumerate()
                .map(|(s, &seed)| {
                    (
                        s,
                        self.metric
                            .distance(&objects[i as usize], &objects[seed as usize]),
                    )
                })
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .expect("seeds non-empty");
            clusters[best].push(i);
        }
        clusters.retain(|c| !c.is_empty());
        if clusters.len() == 1 {
            // Degenerate (e.g. many duplicates): force an arbitrary split.
            let big = clusters.pop().expect("one cluster");
            let half = big.len() / 2;
            let (a, b) = big.split_at(half.max(1));
            clusters.push(a.to_vec());
            if !b.is_empty() {
                clusters.push(b.to_vec());
            }
        }

        // Recurse per cluster and assemble the internal node.
        let mut children: Vec<(u32, f64, PageId)> = Vec::with_capacity(clusters.len());
        for cluster in clusters {
            children.push(self.bulk_rec(objects, cluster, fanout, rng)?);
        }
        let node_router = children[0].0;
        let mut entries: Vec<IntEntry<O>> = Vec::with_capacity(children.len());
        let mut radius = 0.0f64;
        for &(child_router, child_radius, child_page) in &children {
            let pd = self.metric.distance(
                &objects[child_router as usize],
                &objects[node_router as usize],
            );
            radius = radius.max(pd + child_radius);
            entries.push(IntEntry {
                child: child_page,
                radius: child_radius,
                parent_dist: pd,
                router: objects[child_router as usize].clone(),
            });
        }
        let node = MNode::Internal(entries);
        if node.overflows() {
            // Routers too large for one page at this fan-out: split the
            // entry list into two sub-nodes and wrap them.
            let MNode::Internal(mut entries) = node else {
                unreachable!()
            };
            let half = entries.len() / 2;
            let right_entries = entries.split_off(half.max(1));
            let left_page = self.pool.allocate()?;
            let right_page = self.pool.allocate()?;
            // Recompute summary radii for the two halves.
            let summarise = |es: &[IntEntry<O>]| {
                es.iter()
                    .map(|e| e.parent_dist + e.radius)
                    .fold(0.0f64, f64::max)
            };
            let left_radius = summarise(&entries);
            let right_radius = summarise(&right_entries);
            self.pool
                .write(left_page, MNode::Internal(entries).encode())?;
            self.pool
                .write(right_page, MNode::Internal(right_entries).encode())?;
            let wrapper = MNode::Internal(vec![
                IntEntry {
                    child: left_page,
                    radius: left_radius,
                    parent_dist: 0.0,
                    router: objects[node_router as usize].clone(),
                },
                IntEntry {
                    child: right_page,
                    radius: right_radius,
                    parent_dist: self.metric.distance(
                        &objects[node_router as usize],
                        &objects[node_router as usize],
                    ),
                    router: objects[node_router as usize].clone(),
                },
            ]);
            let page = self.pool.allocate()?;
            self.pool.write(page, wrapper.encode())?;
            return Ok((node_router, radius, page));
        }
        let page = self.pool.allocate()?;
        self.pool.write(page, node.encode())?;
        Ok((node_router, radius, page))
    }

    fn write_meta(&self) -> io::Result<()> {
        let mut p = Page::new();
        p.write_u64(0, MAGIC);
        p.write_u64(8, self.root.lock().map_or(u64::MAX, |r| r.0));
        p.write_u64(16, self.len.load(Ordering::SeqCst));
        self.pool.write(PageId(0), p)
    }

    fn read_node(&self, page: PageId) -> io::Result<MNode<O>> {
        let p = self.pool.read(page)?;
        Ok(MNode::decode(&p))
    }

    // ------------------------------------------------------------------
    // Insertion.
    // ------------------------------------------------------------------

    /// Inserts one object (classic M-tree descend + mM_RAD split).
    pub fn insert(&self, o: &O) -> io::Result<QueryStats> {
        let snap = self.snapshot();
        let id = self.next_id.fetch_add(1, Ordering::SeqCst) as u32;
        let root = *self.root.lock();
        match root {
            None => {
                let page = self.pool.allocate()?;
                let node = MNode::Leaf(vec![LeafEntry {
                    id,
                    parent_dist: 0.0,
                    obj: o.clone(),
                }]);
                self.pool.write(page, node.encode())?;
                *self.root.lock() = Some(page);
            }
            Some(root) => match self.insert_rec(root, o, id, None)? {
                InsertUp::Done => {}
                InsertUp::Split { left, right } => {
                    let node = MNode::Internal(vec![
                        IntEntry {
                            child: left.2,
                            radius: left.1,
                            parent_dist: 0.0,
                            router: left.0,
                        },
                        IntEntry {
                            child: right.2,
                            radius: right.1,
                            parent_dist: 0.0,
                            router: right.0,
                        },
                    ]);
                    let page = self.pool.allocate()?;
                    self.pool.write(page, node.encode())?;
                    *self.root.lock() = Some(page);
                }
            },
        }
        self.len.fetch_add(1, Ordering::SeqCst);
        self.write_meta()?;
        Ok(self.stats_since(snap))
    }

    fn insert_rec(
        &self,
        page: PageId,
        o: &O,
        id: u32,
        parent_router: Option<&O>,
    ) -> io::Result<InsertUp<O>> {
        match self.read_node(page)? {
            MNode::Leaf(mut es) => {
                let parent_dist = parent_router.map_or(0.0, |r| self.metric.distance(o, r));
                es.push(LeafEntry {
                    id,
                    parent_dist,
                    obj: o.clone(),
                });
                let node = MNode::Leaf(es);
                if !node.overflows() {
                    self.pool.write(page, node.encode())?;
                    Ok(InsertUp::Done)
                } else {
                    let MNode::Leaf(es) = node else {
                        unreachable!()
                    };
                    self.split_leaf(page, es)
                }
            }
            MNode::Internal(mut es) => {
                // Choose the child: minimum distance among those that need
                // no enlargement, else minimum enlargement.
                let dists: Vec<f64> = es
                    .iter()
                    .map(|e| self.metric.distance(o, &e.router))
                    .collect();
                let inside = es
                    .iter()
                    .zip(&dists)
                    .enumerate()
                    .filter(|(_, (e, &d))| d <= e.radius)
                    .min_by(|a, b| a.1 .1.total_cmp(b.1 .1))
                    .map(|(i, _)| i);
                let idx = inside.unwrap_or_else(|| {
                    es.iter()
                        .zip(&dists)
                        .enumerate()
                        .min_by(|a, b| {
                            (a.1 .1 - a.1 .0.radius).total_cmp(&(b.1 .1 - b.1 .0.radius))
                        })
                        .map(|(i, _)| i)
                        .expect("internal node non-empty")
                });
                es[idx].radius = es[idx].radius.max(dists[idx]);
                let child = es[idx].child;
                let child_router = es[idx].router.clone();
                match self.insert_rec(child, o, id, Some(&child_router))? {
                    InsertUp::Done => {
                        self.pool.write(page, MNode::Internal(es).encode())?;
                        Ok(InsertUp::Done)
                    }
                    InsertUp::Split { left, right } => {
                        // Replace the split child's entry by the two
                        // promoted routers; their parent_dist is relative to
                        // THIS node's router (held by our parent's entry).
                        es.remove(idx);
                        for (router, radius, child) in [left, right] {
                            let parent_dist =
                                parent_router.map_or(0.0, |r| self.metric.distance(&router, r));
                            es.push(IntEntry {
                                child,
                                radius,
                                parent_dist,
                                router,
                            });
                        }
                        let node = MNode::Internal(es);
                        if !node.overflows() {
                            self.pool.write(page, node.encode())?;
                            Ok(InsertUp::Done)
                        } else {
                            let MNode::Internal(es) = node else {
                                unreachable!()
                            };
                            self.split_internal(page, es)
                        }
                    }
                }
            }
        }
    }

    /// mM_RAD promotion: over all candidate pairs, partition the remaining
    /// entries to the closer promoted router and keep the pair minimising
    /// the larger covering radius.
    fn promote<T>(&self, routers: &[O], items: &[T]) -> (usize, usize, Vec<bool>, f64, f64)
    where
        T: Sized,
    {
        let n = routers.len();
        debug_assert_eq!(n, items.len());
        // Pairwise distance matrix (counted — promotion is the expensive
        // part of an M-tree split, as in the original).
        let mut m = vec![0.0f64; n * n];
        for i in 0..n {
            for j in i + 1..n {
                let d = self.metric.distance(&routers[i], &routers[j]);
                m[i * n + j] = d;
                m[j * n + i] = d;
            }
        }
        let mut best: Option<(usize, usize, Vec<bool>, f64, f64)> = None;
        for a in 0..n {
            for b in a + 1..n {
                let mut to_b = vec![false; n];
                let mut ra = 0.0f64;
                let mut rb = 0.0f64;
                for k in 0..n {
                    let da = m[k * n + a];
                    let db = m[k * n + b];
                    if db < da {
                        to_b[k] = true;
                        rb = rb.max(db);
                    } else {
                        ra = ra.max(da);
                    }
                }
                let score = ra.max(rb);
                if best
                    .as_ref()
                    .is_none_or(|(_, _, _, ba, bb)| score < ba.max(*bb))
                {
                    best = Some((a, b, to_b, ra, rb));
                }
            }
        }
        let (a, b, mut to_b, ra, rb) = best.expect("n >= 2 on split");
        // Guard against empty sides (possible with heavy duplicates).
        if to_b.iter().all(|&x| x) {
            to_b[a] = false;
        }
        if to_b.iter().all(|&x| !x) {
            to_b[b] = true;
        }
        (a, b, to_b, ra, rb)
    }

    fn split_leaf(&self, page: PageId, es: Vec<LeafEntry<O>>) -> io::Result<InsertUp<O>> {
        let routers: Vec<O> = es.iter().map(|e| e.obj.clone()).collect();
        let (a, b, to_b, _, _) = self.promote(&routers, &es);
        let ra_obj = es[a].obj.clone();
        let rb_obj = es[b].obj.clone();
        let mut left = Vec::new();
        let mut right = Vec::new();
        let mut r_left = 0.0f64;
        let mut r_right = 0.0f64;
        for (k, mut e) in es.into_iter().enumerate() {
            if to_b[k] {
                e.parent_dist = self.metric.distance(&e.obj, &rb_obj);
                r_right = r_right.max(e.parent_dist);
                right.push(e);
            } else {
                e.parent_dist = self.metric.distance(&e.obj, &ra_obj);
                r_left = r_left.max(e.parent_dist);
                left.push(e);
            }
        }
        let right_page = self.pool.allocate()?;
        self.pool.write(page, MNode::Leaf(left).encode())?;
        self.pool.write(right_page, MNode::Leaf(right).encode())?;
        Ok(InsertUp::Split {
            left: (ra_obj, r_left, page),
            right: (rb_obj, r_right, right_page),
        })
    }

    fn split_internal(&self, page: PageId, es: Vec<IntEntry<O>>) -> io::Result<InsertUp<O>> {
        let routers: Vec<O> = es.iter().map(|e| e.router.clone()).collect();
        let (a, b, to_b, _, _) = self.promote(&routers, &es);
        let ra_obj = es[a].router.clone();
        let rb_obj = es[b].router.clone();
        let mut left = Vec::new();
        let mut right = Vec::new();
        let mut r_left = 0.0f64;
        let mut r_right = 0.0f64;
        for (k, mut e) in es.into_iter().enumerate() {
            if to_b[k] {
                e.parent_dist = self.metric.distance(&e.router, &rb_obj);
                r_right = r_right.max(e.parent_dist + e.radius);
                right.push(e);
            } else {
                e.parent_dist = self.metric.distance(&e.router, &ra_obj);
                r_left = r_left.max(e.parent_dist + e.radius);
                left.push(e);
            }
        }
        let right_page = self.pool.allocate()?;
        self.pool.write(page, MNode::Internal(left).encode())?;
        self.pool
            .write(right_page, MNode::Internal(right).encode())?;
        Ok(InsertUp::Split {
            left: (ra_obj, r_left, page),
            right: (rb_obj, r_right, right_page),
        })
    }

    // ------------------------------------------------------------------
    // Queries.
    // ------------------------------------------------------------------

    /// `RQ(q, O, r)`: ids and objects within distance `r` of `q`.
    pub fn range(&self, q: &O, r: f64) -> io::Result<(Vec<(u32, O)>, QueryStats)> {
        let snap = self.snapshot();
        let mut out = Vec::new();
        let root = *self.root.lock();
        if let Some(root) = root {
            self.range_rec(root, q, r, None, &mut out)?;
        }
        Ok((out, self.stats_since(snap)))
    }

    fn range_rec(
        &self,
        page: PageId,
        q: &O,
        r: f64,
        d_q_parent: Option<f64>,
        out: &mut Vec<(u32, O)>,
    ) -> io::Result<()> {
        match self.read_node(page)? {
            MNode::Leaf(es) => {
                for e in es {
                    // Parent-distance pruning avoids the distance entirely.
                    if let Some(dqp) = d_q_parent {
                        if (dqp - e.parent_dist).abs() > r {
                            continue;
                        }
                    }
                    let d = self.metric.distance(q, &e.obj);
                    if d <= r {
                        out.push((e.id, e.obj));
                    }
                }
            }
            MNode::Internal(es) => {
                for e in es {
                    if let Some(dqp) = d_q_parent {
                        if (dqp - e.parent_dist).abs() > r + e.radius {
                            continue;
                        }
                    }
                    let d = self.metric.distance(q, &e.router);
                    if d <= r + e.radius {
                        self.range_rec(e.child, q, r, Some(d), out)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// `kNN(q, k)` by best-first traversal with covering-radius bounds.
    pub fn knn(&self, q: &O, k: usize) -> spb_core::KnnResult<O> {
        let snap = self.snapshot();
        let mut best: BinaryHeap<KnnBest<O>> = BinaryHeap::new();
        let root = *self.root.lock();
        if k > 0 {
            if let Some(root) = root {
                let mut heap: BinaryHeap<Frontier> = BinaryHeap::new();
                heap.push(Frontier {
                    dmin: 0.0,
                    page: root,
                    d_q_router: None,
                });
                let cur_nd = |best: &BinaryHeap<KnnBest<O>>| {
                    if best.len() < k {
                        f64::INFINITY
                    } else {
                        best.peek().expect("non-empty").dist
                    }
                };
                while let Some(f) = heap.pop() {
                    if f.dmin >= cur_nd(&best) {
                        break;
                    }
                    match self.read_node(f.page)? {
                        MNode::Leaf(es) => {
                            for e in es {
                                if let Some(dqp) = f.d_q_router {
                                    if (dqp - e.parent_dist).abs() >= cur_nd(&best) {
                                        continue;
                                    }
                                }
                                let d = self.metric.distance(q, &e.obj);
                                if best.len() < k {
                                    best.push(KnnBest {
                                        dist: d,
                                        id: e.id,
                                        obj: e.obj,
                                    });
                                } else if d < cur_nd(&best) {
                                    best.pop();
                                    best.push(KnnBest {
                                        dist: d,
                                        id: e.id,
                                        obj: e.obj,
                                    });
                                }
                            }
                        }
                        MNode::Internal(es) => {
                            for e in es {
                                if let Some(dqp) = f.d_q_router {
                                    if (dqp - e.parent_dist).abs() - e.radius >= cur_nd(&best) {
                                        continue;
                                    }
                                }
                                let d = self.metric.distance(q, &e.router);
                                let dmin = (d - e.radius).max(0.0);
                                if dmin < cur_nd(&best) {
                                    heap.push(Frontier {
                                        dmin,
                                        page: e.child,
                                        d_q_router: Some(d),
                                    });
                                }
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

    // ------------------------------------------------------------------
    // Accounting.
    // ------------------------------------------------------------------

    /// Number of indexed objects.
    pub fn len(&self) -> u64 {
        self.len.load(Ordering::SeqCst)
    }

    /// True iff the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Construction costs (a Table 6 row).
    pub fn build_stats(&self) -> BuildStats {
        self.build_stats
    }

    /// Total storage in bytes.
    pub fn storage_bytes(&self) -> u64 {
        self.pool.num_pages() * PAGE_SIZE as u64
    }

    /// Flushes the page cache (between measured queries).
    pub fn flush_caches(&self) {
        self.pool.flush_cache();
    }

    /// Sets the page-cache capacity.
    pub fn set_cache_capacity(&self, pages: usize) {
        self.pool.set_capacity(pages);
    }

    /// The bulk-loading RNG seed (exposed for reproducibility reports).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    fn snapshot(&self) -> (u64, IoStats, Instant) {
        (self.counter.get(), self.pool.stats(), clock::now())
    }

    fn stats_since(&self, snap: (u64, IoStats, Instant)) -> QueryStats {
        let (c0, io0, t0) = snap;
        let io1 = self.pool.stats();
        let pa = io1.page_accesses() - io0.page_accesses();
        QueryStats {
            compdists: self.counter.since(c0),
            page_accesses: pa,
            btree_pa: pa,
            raf_pa: 0,
            fsyncs: 0,
            duration: t0.elapsed(),
            recall: None,
        }
    }
}

struct Frontier {
    dmin: f64,
    page: PageId,
    d_q_router: Option<f64>,
}

impl PartialEq for Frontier {
    fn eq(&self, other: &Self) -> bool {
        self.dmin == other.dmin
    }
}
impl Eq for Frontier {}
impl PartialOrd for Frontier {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}
impl Ord for Frontier {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        other.dmin.total_cmp(&self.dmin) // min-heap
    }
}

struct KnnBest<O> {
    dist: f64,
    id: u32,
    obj: O,
}

impl<O> PartialEq for KnnBest<O> {
    fn eq(&self, other: &Self) -> bool {
        self.dist == other.dist
    }
}
impl<O> Eq for KnnBest<O> {}
impl<O> PartialOrd for KnnBest<O> {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}
impl<O> Ord for KnnBest<O> {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        self.dist.total_cmp(&other.dist) // max-heap on distance
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spb_metric::dataset;
    use spb_storage::TempDir;

    fn brute_range<O: MetricObject, D: Distance<O>>(
        data: &[O],
        metric: &D,
        q: &O,
        r: f64,
    ) -> Vec<u32> {
        let mut ids: Vec<u32> = data
            .iter()
            .enumerate()
            .filter(|(_, o)| metric.distance(q, o) <= r)
            .map(|(i, _)| i as u32)
            .collect();
        ids.sort_unstable();
        ids
    }

    #[test]
    fn bulk_loaded_range_matches_bruteforce() {
        let data = dataset::words(700, 71);
        let m = dataset::words_metric();
        let dir = TempDir::new("mtree-range");
        let t = MTree::build(dir.path(), &data, m, &MTreeParams::default()).unwrap();
        for q in data.iter().take(6) {
            for r in [0.0, 1.0, 3.0] {
                let (hits, _) = t.range(q, r).unwrap();
                let mut got: Vec<u32> = hits.iter().map(|&(id, _)| id).collect();
                got.sort_unstable();
                assert_eq!(got, brute_range(&data, &dataset::words_metric(), q, r));
            }
        }
    }

    #[test]
    fn bulk_loaded_knn_matches_bruteforce() {
        let data = dataset::color(600, 72);
        let m = dataset::color_metric();
        let dir = TempDir::new("mtree-knn");
        let t = MTree::build(dir.path(), &data, m, &MTreeParams::default()).unwrap();
        for q in data.iter().take(5) {
            let (nn, _) = t.knn(q, 8).unwrap();
            let mut dists: Vec<f64> = data
                .iter()
                .map(|o| dataset::color_metric().distance(q, o))
                .collect();
            dists.sort_by(f64::total_cmp);
            for (i, &(_, _, d)) in nn.iter().enumerate() {
                assert!((d - dists[i]).abs() < 1e-9, "rank {i}: {d} vs {}", dists[i]);
            }
        }
    }

    #[test]
    fn incremental_inserts_match_bruteforce() {
        let data = dataset::words(400, 73);
        let dir = TempDir::new("mtree-ins");
        let t = MTree::build(
            dir.path(),
            &data[..1],
            dataset::words_metric(),
            &MTreeParams::default(),
        )
        .unwrap();
        for o in &data[1..] {
            t.insert(o).unwrap();
        }
        assert_eq!(t.len(), 400);
        for q in data.iter().take(5) {
            let (hits, _) = t.range(q, 2.0).unwrap();
            let mut got: Vec<u32> = hits.iter().map(|&(id, _)| id).collect();
            got.sort_unstable();
            // Ids from the seed build (0) plus insertion order (1..).
            let want = brute_range(&data, &dataset::words_metric(), q, 2.0);
            assert_eq!(got, want);
        }
    }

    #[test]
    fn objects_live_inside_nodes() {
        // Construction cost profile: compdists is a multiple of |O| well
        // above |O| (clustering assignments), unlike the SPB-tree's |P|·|O|.
        let data = dataset::color(1000, 74);
        let dir = TempDir::new("mtree-cost");
        let t = MTree::build(
            dir.path(),
            &data,
            dataset::color_metric(),
            &MTreeParams::default(),
        )
        .unwrap();
        let s = t.build_stats();
        assert!(s.compdists > 2 * 1000, "compdists = {}", s.compdists);
        assert!(s.storage_bytes > 0);
    }

    #[test]
    fn empty_and_tiny_trees() {
        let dir = TempDir::new("mtree-tiny");
        let data: Vec<spb_metric::Word> = vec![];
        let t = MTree::build(
            dir.path(),
            &data,
            dataset::words_metric(),
            &MTreeParams::default(),
        )
        .unwrap();
        assert!(t.is_empty());
        let (hits, _) = t.range(&spb_metric::Word::new("x"), 5.0).unwrap();
        assert!(hits.is_empty());
        let (nn, _) = t.knn(&spb_metric::Word::new("x"), 3).unwrap();
        assert!(nn.is_empty());
        t.insert(&spb_metric::Word::new("solo")).unwrap();
        let (nn, _) = t.knn(&spb_metric::Word::new("solo"), 3).unwrap();
        assert_eq!(nn.len(), 1);
        assert_eq!(nn[0].2, 0.0);
    }
}
