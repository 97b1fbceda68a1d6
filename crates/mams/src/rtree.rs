//! A disk-based R-tree over low-dimensional `f32` points — the substrate
//! of the OmniR-tree (the Omni-family maps objects to "omni-coordinates",
//! their distances to a small set of foci, and indexes those with a
//! conventional R-tree).
//!
//! * **Bulk-loading**: Sort-Tile-Recursive (STR) — recursive sorting by
//!   successive dimensions into tiles sized to fill leaves.
//! * **Insertion**: minimum-enlargement descent with quadratic split.
//! * **Search**: rectangle intersection and raw node access for the
//!   best-first kNN driver in [`omni`](crate::OmniRTree).
//!
//! Leaf entries store the point, the object id and an RAF offset; internal
//! entries store child MBRs. One node per 4 KB page.

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use spb_storage::lockrank::{LockRank, RankedMutex};
use spb_storage::{BufferPool, Page, PageId, Pager, PAGE_DATA_SIZE};

const MAGIC: u64 = 0x4f4d_4e49_5254_5245; // "OMNIRTRE"
const HEADER: usize = 4;

/// An axis-aligned rectangle in omni-coordinate space.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Rect {
    /// Low corner.
    pub lo: Vec<f32>,
    /// High corner.
    pub hi: Vec<f32>,
}

impl Rect {
    /// The degenerate rectangle of a single point.
    pub(crate) fn point(p: &[f32]) -> Rect {
        Rect {
            lo: p.to_vec(),
            hi: p.to_vec(),
        }
    }

    /// A rectangle from corners.
    pub(crate) fn new(lo: Vec<f32>, hi: Vec<f32>) -> Rect {
        debug_assert_eq!(lo.len(), hi.len());
        debug_assert!(lo.iter().zip(&hi).all(|(a, b)| a <= b));
        Rect { lo, hi }
    }

    /// True iff the rectangles share a point.
    pub(crate) fn intersects(&self, other: &Rect) -> bool {
        self.lo
            .iter()
            .zip(&self.hi)
            .zip(other.lo.iter().zip(&other.hi))
            .all(|((al, ah), (bl, bh))| al <= bh && bl <= ah)
    }

    /// True iff `p` lies inside.
    pub(crate) fn contains_point(&self, p: &[f32]) -> bool {
        self.lo
            .iter()
            .zip(&self.hi)
            .zip(p)
            .all(|((l, h), c)| l <= c && c <= h)
    }

    /// Grows to cover `other`.
    pub(crate) fn union_with(&mut self, other: &Rect) {
        for i in 0..self.lo.len() {
            self.lo[i] = self.lo[i].min(other.lo[i]);
            self.hi[i] = self.hi[i].max(other.hi[i]);
        }
    }

    /// Sum of side lengths (the "margin" used by the enlargement
    /// heuristic; robust in high dimensions where volumes underflow).
    pub(crate) fn margin(&self) -> f64 {
        self.lo
            .iter()
            .zip(&self.hi)
            .map(|(l, h)| (h - l) as f64)
            .sum()
    }

    /// Margin increase if this rectangle grew to cover `other`.
    pub(crate) fn enlargement(&self, other: &Rect) -> f64 {
        let mut grown = self.clone();
        grown.union_with(other);
        grown.margin() - self.margin()
    }

    /// `L∞` distance from `p` to the rectangle — the Omni lower bound on
    /// the metric distance of any object stored inside.
    pub(crate) fn mind_linf(&self, p: &[f32]) -> f64 {
        let mut best = 0.0f64;
        for ((&l, &h), &c) in self.lo.iter().zip(&self.hi).zip(p) {
            let gap = if c < l {
                (l - c) as f64
            } else if c > h {
                (c - h) as f64
            } else {
                0.0
            };
            best = best.max(gap);
        }
        best
    }
}

/// A leaf entry: one indexed point.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct RLeafEntry {
    /// RAF offset of the object.
    pub raf_off: u64,
    /// Object id.
    pub id: u32,
    /// Omni-coordinates.
    pub coords: Vec<f32>,
}

/// An internal entry: a child subtree and its MBR.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct RIntEntry {
    /// Child page.
    pub child: PageId,
    /// Child subtree's minimum bounding rectangle.
    pub rect: Rect,
}

/// A decoded R-tree node.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum RNode {
    /// Point-bearing leaf.
    Leaf(Vec<RLeafEntry>),
    /// MBR-bearing internal node.
    Internal(Vec<RIntEntry>),
}

impl RNode {
    fn mbr(&self, dim: usize) -> Rect {
        let mut rect: Option<Rect> = None;
        match self {
            RNode::Leaf(es) => {
                for e in es {
                    let p = Rect::point(&e.coords);
                    match &mut rect {
                        Some(r) => r.union_with(&p),
                        None => rect = Some(p),
                    }
                }
            }
            RNode::Internal(es) => {
                for e in es {
                    match &mut rect {
                        Some(r) => r.union_with(&e.rect),
                        None => rect = Some(e.rect.clone()),
                    }
                }
            }
        }
        rect.unwrap_or_else(|| Rect::new(vec![0.0; dim], vec![0.0; dim]))
    }
}

/// R-tree tuning parameters.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RTreeParams {
    /// Page-cache capacity in pages.
    pub cache_pages: usize,
}

impl Default for RTreeParams {
    fn default() -> Self {
        RTreeParams { cache_pages: 32 }
    }
}

/// A disk-based R-tree over `dim`-dimensional `f32` points.
pub(crate) struct RTree {
    pool: BufferPool,
    dim: usize,
    root: RankedMutex<Option<PageId>>,
    len: AtomicU64,
    leaf_cap: usize,
    int_cap: usize,
}

impl RTree {
    /// Creates an empty R-tree at `path` over `dim`-dimensional points.
    pub(crate) fn create(path: &Path, dim: usize, params: &RTreeParams) -> io::Result<Self> {
        assert!((1..=64).contains(&dim), "dim must be in 1..=64");
        let pool = BufferPool::new(Pager::create(path)?, params.cache_pages);
        let meta = pool.allocate()?;
        debug_assert_eq!(meta, PageId(0));
        let leaf_entry = 12 + 4 * dim;
        let int_entry = 8 + 8 * dim;
        let tree = RTree {
            pool,
            dim,
            root: RankedMutex::new(LockRank::BaselineRoot, None),
            len: AtomicU64::new(0),
            leaf_cap: ((PAGE_DATA_SIZE - HEADER) / leaf_entry).min(256),
            int_cap: ((PAGE_DATA_SIZE - HEADER) / int_entry).min(256),
        };
        tree.write_meta()?;
        Ok(tree)
    }

    fn write_meta(&self) -> io::Result<()> {
        let mut p = Page::new();
        p.write_u64(0, MAGIC);
        p.write_u64(8, self.root.lock().map_or(u64::MAX, |r| r.0));
        p.write_u64(16, self.len.load(Ordering::SeqCst));
        p.write_u32(24, self.dim as u32);
        self.pool.write(PageId(0), p)
    }

    fn encode_node(&self, node: &RNode) -> Page {
        let mut p = Page::new();
        let mut off = HEADER;
        match node {
            RNode::Leaf(es) => {
                assert!(es.len() <= self.leaf_cap, "leaf overflow");
                p.write_u8(0, 0);
                p.write_u16(2, es.len() as u16);
                for e in es {
                    p.write_u64(off, e.raf_off);
                    p.write_u32(off + 8, e.id);
                    for (i, &c) in e.coords.iter().enumerate() {
                        p.write_u32(off + 12 + 4 * i, c.to_bits());
                    }
                    off += 12 + 4 * self.dim;
                }
            }
            RNode::Internal(es) => {
                assert!(es.len() <= self.int_cap, "internal overflow");
                p.write_u8(0, 1);
                p.write_u16(2, es.len() as u16);
                for e in es {
                    p.write_u64(off, e.child.0);
                    for i in 0..self.dim {
                        p.write_u32(off + 8 + 4 * i, e.rect.lo[i].to_bits());
                        p.write_u32(off + 8 + 4 * (self.dim + i), e.rect.hi[i].to_bits());
                    }
                    off += 8 + 8 * self.dim;
                }
            }
        }
        p
    }

    /// Reads and decodes a node (one counted page access).
    pub(crate) fn read_node(&self, page: PageId) -> io::Result<RNode> {
        let p = self.pool.read(page)?;
        let count = p.read_u16(2) as usize;
        let mut off = HEADER;
        Ok(match p.read_u8(0) {
            0 => {
                let mut es = Vec::with_capacity(count);
                for _ in 0..count {
                    let raf_off = p.read_u64(off);
                    let id = p.read_u32(off + 8);
                    let coords: Vec<f32> = (0..self.dim)
                        .map(|i| f32::from_bits(p.read_u32(off + 12 + 4 * i)))
                        .collect();
                    es.push(RLeafEntry {
                        raf_off,
                        id,
                        coords,
                    });
                    off += 12 + 4 * self.dim;
                }
                RNode::Leaf(es)
            }
            1 => {
                let mut es = Vec::with_capacity(count);
                for _ in 0..count {
                    let child = PageId(p.read_u64(off));
                    let lo: Vec<f32> = (0..self.dim)
                        .map(|i| f32::from_bits(p.read_u32(off + 8 + 4 * i)))
                        .collect();
                    let hi: Vec<f32> = (0..self.dim)
                        .map(|i| f32::from_bits(p.read_u32(off + 8 + 4 * (self.dim + i))))
                        .collect();
                    es.push(RIntEntry {
                        child,
                        rect: Rect::new(lo, hi),
                    });
                    off += 8 + 8 * self.dim;
                }
                RNode::Internal(es)
            }
            t => panic!("corrupt R-tree page: unknown type {t}"),
        })
    }

    // ------------------------------------------------------------------
    // STR bulk-loading.
    // ------------------------------------------------------------------

    /// Bulk-loads `items = (coords, raf_off, id)` with Sort-Tile-Recursive.
    ///
    /// # Panics
    /// Panics if the tree is not empty.
    pub(crate) fn bulk_load(&self, mut items: Vec<(Vec<f32>, u64, u32)>) -> io::Result<()> {
        assert!(
            self.root.lock().is_none(),
            "bulk_load requires an empty tree"
        );
        if items.is_empty() {
            return Ok(());
        }
        let n = items.len();
        self.str_sort(&mut items, 0);
        // Leaves.
        let mut level: Vec<(PageId, Rect)> = Vec::with_capacity(n.div_ceil(self.leaf_cap));
        for chunk in items.chunks(self.leaf_cap) {
            let es: Vec<RLeafEntry> = chunk
                .iter()
                .map(|(c, off, id)| RLeafEntry {
                    raf_off: *off,
                    id: *id,
                    coords: c.clone(),
                })
                .collect();
            let node = RNode::Leaf(es);
            let rect = node.mbr(self.dim);
            let page = self.pool.allocate()?;
            self.pool.write(page, self.encode_node(&node))?;
            level.push((page, rect));
        }
        // Upper levels: consecutive grouping (STR order is already tiled).
        while level.len() > 1 {
            let mut next = Vec::with_capacity(level.len().div_ceil(self.int_cap));
            for chunk in level.chunks(self.int_cap) {
                let es: Vec<RIntEntry> = chunk
                    .iter()
                    .map(|(p, r)| RIntEntry {
                        child: *p,
                        rect: r.clone(),
                    })
                    .collect();
                let node = RNode::Internal(es);
                let rect = node.mbr(self.dim);
                let page = self.pool.allocate()?;
                self.pool.write(page, self.encode_node(&node))?;
                next.push((page, rect));
            }
            level = next;
        }
        *self.root.lock() = Some(level[0].0);
        self.len.store(n as u64, Ordering::SeqCst);
        self.write_meta()
    }

    /// STR: recursively sort by dimension and slice into tiles.
    fn str_sort(&self, items: &mut [(Vec<f32>, u64, u32)], dim_idx: usize) {
        if dim_idx + 1 >= self.dim || items.len() <= self.leaf_cap {
            items.sort_by(|a, b| a.0[dim_idx].total_cmp(&b.0[dim_idx]));
            return;
        }
        items.sort_by(|a, b| a.0[dim_idx].total_cmp(&b.0[dim_idx]));
        let leaves = items.len().div_ceil(self.leaf_cap);
        let slabs = (leaves as f64)
            .powf(1.0 / (self.dim - dim_idx) as f64)
            .ceil() as usize;
        let slab_size = items.len().div_ceil(slabs.max(1));
        let mut start = 0;
        while start < items.len() {
            let end = (start + slab_size).min(items.len());
            self.str_sort(&mut items[start..end], dim_idx + 1);
            start = end;
        }
    }

    // ------------------------------------------------------------------
    // Insertion.
    // ------------------------------------------------------------------

    /// Inserts one point (minimum-enlargement descent, quadratic split).
    pub(crate) fn insert(&self, coords: &[f32], raf_off: u64, id: u32) -> io::Result<()> {
        assert_eq!(coords.len(), self.dim);
        let entry = RLeafEntry {
            raf_off,
            id,
            coords: coords.to_vec(),
        };
        let root = *self.root.lock();
        match root {
            None => {
                let page = self.pool.allocate()?;
                self.pool
                    .write(page, self.encode_node(&RNode::Leaf(vec![entry])))?;
                *self.root.lock() = Some(page);
            }
            Some(root) => {
                if let Some((left, right)) = self.insert_rec(root, entry)? {
                    let page = self.pool.allocate()?;
                    let node = RNode::Internal(vec![left, right]);
                    self.pool.write(page, self.encode_node(&node))?;
                    *self.root.lock() = Some(page);
                }
            }
        }
        self.len.fetch_add(1, Ordering::SeqCst);
        self.write_meta()
    }

    /// Returns `Some((left, right))` when the child split.
    fn insert_rec(
        &self,
        page: PageId,
        entry: RLeafEntry,
    ) -> io::Result<Option<(RIntEntry, RIntEntry)>> {
        match self.read_node(page)? {
            RNode::Leaf(mut es) => {
                es.push(entry);
                if es.len() <= self.leaf_cap {
                    self.pool.write(page, self.encode_node(&RNode::Leaf(es)))?;
                    return Ok(None);
                }
                // Quadratic-ish split: seeds = the pair farthest apart in
                // margin terms, then assign by least enlargement.
                let rects: Vec<Rect> = es.iter().map(|e| Rect::point(&e.coords)).collect();
                let (a, b) = split_seeds(&rects);
                let (left_idx, right_idx) = quadratic_assign(&rects, a, b);
                let left: Vec<RLeafEntry> = left_idx.iter().map(|&i| es[i].clone()).collect();
                let right: Vec<RLeafEntry> = right_idx.iter().map(|&i| es[i].clone()).collect();
                let lnode = RNode::Leaf(left);
                let rnode = RNode::Leaf(right);
                let lrect = lnode.mbr(self.dim);
                let rrect = rnode.mbr(self.dim);
                let rpage = self.pool.allocate()?;
                self.pool.write(page, self.encode_node(&lnode))?;
                self.pool.write(rpage, self.encode_node(&rnode))?;
                Ok(Some((
                    RIntEntry {
                        child: page,
                        rect: lrect,
                    },
                    RIntEntry {
                        child: rpage,
                        rect: rrect,
                    },
                )))
            }
            RNode::Internal(mut es) => {
                let point = Rect::point(&entry.coords);
                let idx = es
                    .iter()
                    .enumerate()
                    .min_by(|a, b| {
                        a.1.rect
                            .enlargement(&point)
                            .total_cmp(&b.1.rect.enlargement(&point))
                            .then(a.1.rect.margin().total_cmp(&b.1.rect.margin()))
                    })
                    .map(|(i, _)| i)
                    .expect("internal node non-empty");
                es[idx].rect.union_with(&point);
                let child = es[idx].child;
                match self.insert_rec(child, entry)? {
                    None => {
                        self.pool
                            .write(page, self.encode_node(&RNode::Internal(es)))?;
                        Ok(None)
                    }
                    Some((l, r)) => {
                        es.remove(idx);
                        es.push(l);
                        es.push(r);
                        if es.len() <= self.int_cap {
                            self.pool
                                .write(page, self.encode_node(&RNode::Internal(es)))?;
                            return Ok(None);
                        }
                        let rects: Vec<Rect> = es.iter().map(|e| e.rect.clone()).collect();
                        let (a, b) = split_seeds(&rects);
                        let (li, ri) = quadratic_assign(&rects, a, b);
                        let left: Vec<RIntEntry> = li.iter().map(|&i| es[i].clone()).collect();
                        let right: Vec<RIntEntry> = ri.iter().map(|&i| es[i].clone()).collect();
                        let lnode = RNode::Internal(left);
                        let rnode = RNode::Internal(right);
                        let lrect = lnode.mbr(self.dim);
                        let rrect = rnode.mbr(self.dim);
                        let rpage = self.pool.allocate()?;
                        self.pool.write(page, self.encode_node(&lnode))?;
                        self.pool.write(rpage, self.encode_node(&rnode))?;
                        Ok(Some((
                            RIntEntry {
                                child: page,
                                rect: lrect,
                            },
                            RIntEntry {
                                child: rpage,
                                rect: rrect,
                            },
                        )))
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Search.
    // ------------------------------------------------------------------

    /// All `(raf_off, id)` whose point lies inside `rect`.
    pub(crate) fn search_rect(&self, rect: &Rect) -> io::Result<Vec<(u64, u32)>> {
        let mut out = Vec::new();
        let Some(root) = *self.root.lock() else {
            return Ok(out);
        };
        let mut stack = vec![root];
        while let Some(page) = stack.pop() {
            match self.read_node(page)? {
                RNode::Leaf(es) => {
                    for e in es {
                        if rect.contains_point(&e.coords) {
                            out.push((e.raf_off, e.id));
                        }
                    }
                }
                RNode::Internal(es) => {
                    for e in es {
                        if e.rect.intersects(rect) {
                            stack.push(e.child);
                        }
                    }
                }
            }
        }
        Ok(out)
    }

    /// The root page, if any.
    pub(crate) fn root_page(&self) -> Option<PageId> {
        *self.root.lock()
    }

    /// Indexed point count.
    pub(crate) fn len(&self) -> u64 {
        self.len.load(Ordering::SeqCst)
    }

    /// True iff empty.
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The buffer pool (PA accounting / cache control).
    pub(crate) fn pool(&self) -> &BufferPool {
        &self.pool
    }
}

/// The pair of rectangles wasting the most margin when grouped — the
/// quadratic split's seeds.
fn split_seeds(rects: &[Rect]) -> (usize, usize) {
    let mut best = (0, 1, f64::NEG_INFINITY);
    for i in 0..rects.len() {
        for j in i + 1..rects.len() {
            let mut u = rects[i].clone();
            u.union_with(&rects[j]);
            let waste = u.margin() - rects[i].margin() - rects[j].margin();
            if waste > best.2 {
                best = (i, j, waste);
            }
        }
    }
    (best.0, best.1)
}

/// Assigns every rectangle to the seed whose MBR grows least, keeping both
/// sides non-empty.
fn quadratic_assign(rects: &[Rect], a: usize, b: usize) -> (Vec<usize>, Vec<usize>) {
    let mut left = vec![a];
    let mut right = vec![b];
    let mut lrect = rects[a].clone();
    let mut rrect = rects[b].clone();
    let min_side = rects.len() / 3; // keep splits reasonably balanced
    for (i, r) in rects.iter().enumerate() {
        if i == a || i == b {
            continue;
        }
        let remaining = rects.len() - left.len() - right.len();
        if left.len() + remaining <= min_side.max(1) {
            left.push(i);
            lrect.union_with(r);
            continue;
        }
        if right.len() + remaining <= min_side.max(1) {
            right.push(i);
            rrect.union_with(r);
            continue;
        }
        if lrect.enlargement(r) <= rrect.enlargement(r) {
            left.push(i);
            lrect.union_with(r);
        } else {
            right.push(i);
            rrect.union_with(r);
        }
    }
    (left, right)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use spb_storage::TempDir;

    fn points(n: usize, dim: usize, seed: u64) -> Vec<(Vec<f32>, u64, u32)> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                (
                    (0..dim).map(|_| rng.gen::<f32>()).collect(),
                    i as u64 * 8,
                    i as u32,
                )
            })
            .collect()
    }

    fn brute(items: &[(Vec<f32>, u64, u32)], rect: &Rect) -> Vec<u32> {
        let mut ids: Vec<u32> = items
            .iter()
            .filter(|(c, _, _)| rect.contains_point(c))
            .map(|&(_, _, id)| id)
            .collect();
        ids.sort_unstable();
        ids
    }

    #[test]
    fn rect_geometry() {
        let r = Rect::new(vec![0.0, 0.0], vec![1.0, 2.0]);
        assert!(r.contains_point(&[0.5, 1.5]));
        assert!(!r.contains_point(&[1.5, 0.5]));
        assert!(r.intersects(&Rect::new(vec![0.9, 1.9], vec![2.0, 3.0])));
        assert!(!r.intersects(&Rect::new(vec![1.1, 0.0], vec![2.0, 1.0])));
        assert_eq!(r.margin(), 3.0);
        assert_eq!(r.mind_linf(&[0.5, 1.0]), 0.0);
        assert_eq!(r.mind_linf(&[2.0, 1.0]), 1.0);
        assert_eq!(r.mind_linf(&[2.0, 4.0]), 2.0);
    }

    #[test]
    fn bulk_load_then_search_matches_bruteforce() {
        let items = points(3000, 4, 1);
        let dir = TempDir::new("rtree-bulk");
        let t = RTree::create(&dir.path().join("r.db"), 4, &RTreeParams::default()).unwrap();
        t.bulk_load(items.clone()).unwrap();
        assert_eq!(t.len(), 3000);
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        for _ in 0..20 {
            let lo: Vec<f32> = (0..4).map(|_| rng.gen_range(0.0..0.8)).collect();
            let hi: Vec<f32> = lo.iter().map(|&l| l + rng.gen_range(0.05..0.3)).collect();
            let rect = Rect::new(lo, hi);
            let mut got: Vec<u32> = t
                .search_rect(&rect)
                .unwrap()
                .into_iter()
                .map(|(_, id)| id)
                .collect();
            got.sort_unstable();
            assert_eq!(got, brute(&items, &rect));
        }
    }

    #[test]
    fn inserts_match_bruteforce() {
        let items = points(1200, 3, 2);
        let dir = TempDir::new("rtree-ins");
        let t = RTree::create(&dir.path().join("r.db"), 3, &RTreeParams::default()).unwrap();
        for (c, off, id) in &items {
            t.insert(c, *off, *id).unwrap();
        }
        assert_eq!(t.len(), 1200);
        let rect = Rect::new(vec![0.2; 3], vec![0.6; 3]);
        let mut got: Vec<u32> = t
            .search_rect(&rect)
            .unwrap()
            .into_iter()
            .map(|(_, id)| id)
            .collect();
        got.sort_unstable();
        assert_eq!(got, brute(&items, &rect));
    }

    #[test]
    fn mbrs_cover_children() {
        let items = points(2000, 5, 3);
        let dir = TempDir::new("rtree-mbr");
        let t = RTree::create(&dir.path().join("r.db"), 5, &RTreeParams::default()).unwrap();
        t.bulk_load(items).unwrap();
        fn check(t: &RTree, page: PageId, outer: Option<&Rect>) {
            match t.read_node(page).unwrap() {
                RNode::Leaf(es) => {
                    if let Some(r) = outer {
                        for e in &es {
                            assert!(r.contains_point(&e.coords));
                        }
                    }
                }
                RNode::Internal(es) => {
                    for e in &es {
                        if let Some(r) = outer {
                            let mut u = r.clone();
                            u.union_with(&e.rect);
                            assert_eq!(&u, r, "child MBR escapes parent");
                        }
                        check(t, e.child, Some(&e.rect));
                    }
                }
            }
        }
        check(&t, t.root_page().unwrap(), None);
    }

    #[test]
    fn empty_tree_searches_cleanly() {
        let dir = TempDir::new("rtree-empty");
        let t = RTree::create(&dir.path().join("r.db"), 2, &RTreeParams::default()).unwrap();
        assert!(t.is_empty());
        let hits = t
            .search_rect(&Rect::new(vec![0.0, 0.0], vec![1.0, 1.0]))
            .unwrap();
        assert!(hits.is_empty());
    }
}
