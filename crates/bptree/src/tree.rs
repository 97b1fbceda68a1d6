//! The B⁺-tree proper: bulk-loading, insertion, deletion, search, scans.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::indexing_slicing,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

use std::io;
use std::path::Path;

use spb_storage::lockrank::{LockRank, RankedMutex};
use spb_storage::{BufferPool, IoStats, Page, PageId, Pager};

use crate::node::{
    corrupt, ChildEntry, InternalNode, LeafNode, Mbb, Node, INTERNAL_CAPACITY, LEAF_CAPACITY,
};

const MAGIC: u64 = 0x5350_4242_5452_4545; // "SPBBTREE"
const NO_PAGE: u64 = u64::MAX;

/// Geometry callbacks: how to combine the opaque `u128` MBB corners.
///
/// The SPB-tree implements this with its space-filling curve (decode →
/// coordinate-wise min/max → encode); the M-Index uses [`PointMbb`], under
/// which MBBs degenerate to key ranges.
pub trait MbbOps: Send + Sync {
    /// The box covering a single key. For SFC-encoded corners this is the
    /// key itself twice (a point's low and high corners coincide).
    fn key_box(&self, key: u128) -> Mbb {
        Mbb { lo: key, hi: key }
    }

    /// The smallest box covering both `a` and `b`.
    fn union(&self, a: Mbb, b: Mbb) -> Mbb;
}

/// Degenerate MBB algebra: corners are plain keys, union is the interval
/// hull. Correct whenever keys are one-dimensional quantities.
#[derive(Clone, Copy, Debug, Default)]
pub struct PointMbb;

impl MbbOps for PointMbb {
    fn union(&self, a: Mbb, b: Mbb) -> Mbb {
        Mbb {
            lo: a.lo.min(b.lo),
            hi: a.hi.max(b.hi),
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct Meta {
    root: Option<PageId>,
    height: u32, // 1 = root is a leaf
    first_leaf: Option<PageId>,
    len: u64,
}

impl Meta {
    fn encode(&self) -> Page {
        let mut p = Page::new();
        p.write_u64(0, MAGIC);
        p.write_u64(8, self.root.map_or(NO_PAGE, |r| r.0));
        p.write_u32(16, self.height);
        p.write_u64(24, self.first_leaf.map_or(NO_PAGE, |r| r.0));
        p.write_u64(32, self.len);
        p
    }

    fn decode(p: &Page) -> io::Result<Meta> {
        if p.read_u64(0) != MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "not a B+-tree file",
            ));
        }
        let opt = |v: u64| if v == NO_PAGE { None } else { Some(PageId(v)) };
        Ok(Meta {
            root: opt(p.read_u64(8)),
            height: p.read_u32(16),
            first_leaf: opt(p.read_u64(24)),
            len: p.read_u64(32),
        })
    }
}

/// What an insertion reports to its parent level.
enum InsertUp {
    /// The child absorbed the key; its summary may have changed.
    Updated { min_key: u128, mbb: Mbb },
    /// The child split; `right` is the new sibling to link in.
    Split {
        left_min: u128,
        left_mbb: Mbb,
        right: ChildEntry,
    },
}

/// What a deletion reports to its parent level.
enum DeleteUp {
    NotFound,
    /// Entry removed; fresh summary, and whether the child is now empty
    /// (in which case the parent drops it — we merge lazily rather than
    /// rebalancing, which keeps keys valid and heights bounded).
    Updated {
        min_key: u128,
        mbb: Mbb,
        now_empty: bool,
    },
}

/// A disk-based B⁺-tree over `(u128 key, u64 value)` pairs with per-child
/// MBB annotations. See the crate docs for the role it plays in the
/// SPB-tree.
pub struct BPlusTree<M: MbbOps> {
    pool: BufferPool,
    meta: RankedMutex<Meta>,
    ops: M,
}

/// The child entry at `idx`. The descent indices are in range for any
/// non-empty node, and no internal node is persisted empty.
fn child_at(node: &InternalNode, idx: usize) -> io::Result<&ChildEntry> {
    (node.entries.get(idx)).ok_or_else(|| corrupt(node.page, "empty internal node"))
}

/// Overwrites the summary a parent keeps for its child at `idx`.
fn set_summary(node: &mut InternalNode, idx: usize, min_key: u128, mbb: Mbb) {
    if let Some(e) = node.entries.get_mut(idx) {
        e.min_key = min_key;
        e.mbb = mbb;
    }
}

impl<M: MbbOps> BPlusTree<M> {
    /// Creates an empty tree at `path` with a page cache of `cache_pages`.
    pub fn create(path: &Path, cache_pages: usize, ops: M) -> io::Result<Self> {
        let pool = BufferPool::new(Pager::create(path)?, cache_pages);
        let meta_page = pool.allocate()?;
        debug_assert_eq!(meta_page, PageId(0));
        let meta = Meta {
            root: None,
            height: 0,
            first_leaf: None,
            len: 0,
        };
        pool.write(meta_page, meta.encode())?;
        Ok(BPlusTree {
            pool,
            meta: RankedMutex::new(LockRank::BtreeMeta, meta),
            ops,
        })
    }

    /// Opens an existing tree.
    pub fn open(path: &Path, cache_pages: usize, ops: M) -> io::Result<Self> {
        let pool = BufferPool::new(Pager::open(path)?, cache_pages);
        let meta_page = pool.read(PageId(0))?;
        let meta = Meta::decode(&meta_page)?;
        Ok(BPlusTree {
            pool,
            meta: RankedMutex::new(LockRank::BtreeMeta, meta),
            ops,
        })
    }

    /// Number of key/value pairs.
    pub fn len(&self) -> u64 {
        self.meta.lock().len
    }

    /// True iff the tree holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Tree height (0 = empty, 1 = root is a leaf).
    pub fn height(&self) -> u32 {
        self.meta.lock().height
    }

    /// The root page, if the tree is non-empty.
    pub fn root_page(&self) -> Option<PageId> {
        self.meta.lock().root
    }

    /// The leftmost leaf, if any (start of the leaf chain).
    pub fn first_leaf(&self) -> Option<PageId> {
        self.meta.lock().first_leaf
    }

    /// Reads and decodes a node (one counted page access).
    pub fn read_node(&self, id: PageId) -> io::Result<Node> {
        let page = self.pool.read(id)?;
        Node::decode(id, &page)
    }

    /// Reads a page of the leaf chain; anything but a leaf there is
    /// corruption.
    fn read_leaf(&self, id: PageId) -> io::Result<LeafNode> {
        match self.read_node(id)? {
            Node::Leaf(l) => Ok(l),
            Node::Internal(_) => Err(corrupt(id, "internal node on the leaf chain")),
        }
    }

    /// The MBB of an already-decoded node (union over entries).
    /// `None` for an empty node.
    pub fn node_mbb(&self, node: &Node) -> Option<Mbb> {
        match node {
            Node::Leaf(l) => l
                .keys
                .iter()
                .map(|&k| self.ops.key_box(k))
                .reduce(|a, b| self.ops.union(a, b)),
            Node::Internal(i) => i
                .entries
                .iter()
                .map(|e| e.mbb)
                .reduce(|a, b| self.ops.union(a, b)),
        }
    }

    /// Persists the in-memory meta. Called automatically by mutating
    /// operations; exposed for explicit durability points.
    pub(crate) fn flush_meta(&self) -> io::Result<()> {
        let meta = *self.meta.lock();
        self.pool.write(PageId(0), meta.encode())
    }

    /// Discards every cached page and re-reads the meta page from disk —
    /// the rollback step after an aborted pager transaction, which may
    /// have left stale staged pages in the cache and a stale meta in
    /// memory.
    pub fn reload_meta(&self) -> io::Result<()> {
        self.pool.flush_cache();
        let meta_page = self.pool.read(PageId(0))?;
        *self.meta.lock() = Meta::decode(&meta_page)?;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Bulk-loading (Appendix B): one bottom-up sequential pass.
    // ------------------------------------------------------------------

    /// Bulk-loads `items`, which must be sorted ascending by key (the
    /// SPB-tree sorts objects by SFC value first). Every node page is
    /// written exactly once, giving the linear construction I/O of Table 6.
    ///
    /// # Errors
    /// `InvalidInput` if the tree is not empty. Unsorted items panic in
    /// debug builds.
    pub fn bulk_load(&self, items: Vec<(u128, u64)>) -> io::Result<()> {
        if !self.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "bulk_load requires an empty tree",
            ));
        }
        debug_assert!(
            items.windows(2).all(|w| matches!(w, [a, b] if a.0 <= b.0)),
            "bulk_load requires sorted input"
        );
        if items.is_empty() {
            return Ok(());
        }

        // Level 0: leaves.
        let n_leaves = items.len().div_ceil(LEAF_CAPACITY);
        let leaf_pages: Vec<PageId> = (0..n_leaves)
            .map(|_| self.pool.allocate())
            .collect::<io::Result<_>>()?;
        let mut level: Vec<ChildEntry> = Vec::with_capacity(n_leaves);
        for (i, (chunk, &page)) in items.chunks(LEAF_CAPACITY).zip(&leaf_pages).enumerate() {
            let leaf = LeafNode {
                page,
                keys: chunk.iter().map(|&(k, _)| k).collect(),
                values: chunk.iter().map(|&(_, v)| v).collect(),
                next: leaf_pages.get(i + 1).copied(),
            };
            let (min_key, mbb) = self.leaf_summary(&leaf)?;
            self.pool.write(page, leaf.encode())?;
            level.push(ChildEntry {
                min_key,
                child: page,
                mbb,
            });
        }

        // Upper levels until a single root remains.
        let mut height = 1u32;
        while level.len() > 1 {
            let mut next_level = Vec::with_capacity(level.len().div_ceil(INTERNAL_CAPACITY));
            for chunk in level.chunks(INTERNAL_CAPACITY) {
                let page = self.pool.allocate()?;
                let node = InternalNode {
                    page,
                    entries: chunk.to_vec(),
                };
                let (min_key, mbb) = self.internal_summary(&node)?;
                self.pool.write(page, node.encode())?;
                next_level.push(ChildEntry {
                    min_key,
                    child: page,
                    mbb,
                });
            }
            level = next_level;
            height += 1;
        }

        {
            let mut meta = self.meta.lock();
            meta.root = level.first().map(|e| e.child);
            meta.height = height;
            meta.first_leaf = leaf_pages.first().copied();
            meta.len = items.len() as u64;
        }
        self.flush_meta()
    }

    // ------------------------------------------------------------------
    // Insertion (Appendix C).
    // ------------------------------------------------------------------

    /// Inserts a key/value pair (duplicates allowed).
    pub fn insert(&self, key: u128, value: u64) -> io::Result<()> {
        let (root, height) = {
            let meta = self.meta.lock();
            (meta.root, meta.height)
        };
        match root {
            None => {
                // First entry: create the root leaf.
                let page = self.pool.allocate()?;
                let leaf = LeafNode {
                    page,
                    keys: vec![key],
                    values: vec![value],
                    next: None,
                };
                self.pool.write(page, leaf.encode())?;
                let mut meta = self.meta.lock();
                meta.root = Some(page);
                meta.height = 1;
                meta.first_leaf = Some(page);
                meta.len = 1;
                drop(meta);
                self.flush_meta()
            }
            Some(root) => {
                let up = self.insert_rec(root, height, key, value)?;
                if let InsertUp::Split {
                    left_min,
                    left_mbb,
                    right,
                } = up
                {
                    // Grow a new root.
                    let page = self.pool.allocate()?;
                    let node = InternalNode {
                        page,
                        entries: vec![
                            ChildEntry {
                                min_key: left_min,
                                child: root,
                                mbb: left_mbb,
                            },
                            right,
                        ],
                    };
                    self.pool.write(page, node.encode())?;
                    let mut meta = self.meta.lock();
                    meta.root = Some(page);
                    meta.height += 1;
                }
                self.meta.lock().len += 1;
                self.flush_meta()
            }
        }
    }

    fn insert_rec(&self, page: PageId, level: u32, key: u128, value: u64) -> io::Result<InsertUp> {
        match self.read_node(page)? {
            Node::Leaf(mut leaf) => {
                debug_assert_eq!(level, 1);
                let pos = leaf.keys.partition_point(|&k| k <= key);
                leaf.keys.insert(pos, key);
                leaf.values.insert(pos, value);
                if leaf.len() <= LEAF_CAPACITY {
                    let (min_key, mbb) = self.leaf_summary(&leaf)?;
                    self.pool.write(page, leaf.encode())?;
                    Ok(InsertUp::Updated { min_key, mbb })
                } else {
                    // Split the leaf in half; the new right sibling takes the
                    // upper half and slots into the leaf chain.
                    let mid = leaf.len() / 2;
                    let right_page = self.pool.allocate()?;
                    let right = LeafNode {
                        page: right_page,
                        keys: leaf.keys.split_off(mid),
                        values: leaf.values.split_off(mid),
                        next: leaf.next,
                    };
                    leaf.next = Some(right_page);
                    let (left_min, left_mbb) = self.leaf_summary(&leaf)?;
                    let (right_min, right_mbb) = self.leaf_summary(&right)?;
                    self.pool.write(page, leaf.encode())?;
                    self.pool.write(right_page, right.encode())?;
                    Ok(InsertUp::Split {
                        left_min,
                        left_mbb,
                        right: ChildEntry {
                            min_key: right_min,
                            child: right_page,
                            mbb: right_mbb,
                        },
                    })
                }
            }
            Node::Internal(mut node) => {
                // Last child whose subtree minimum does not exceed the key.
                let idx = node
                    .entries
                    .partition_point(|e| e.min_key <= key)
                    .saturating_sub(1);
                let child = child_at(&node, idx)?.child;
                let (min_key, mbb, right) = match self.insert_rec(child, level - 1, key, value)? {
                    InsertUp::Updated { min_key, mbb } => (min_key, mbb, None),
                    InsertUp::Split {
                        left_min,
                        left_mbb,
                        right,
                    } => (left_min, left_mbb, Some(right)),
                };
                set_summary(&mut node, idx, min_key, mbb);
                if let Some(right) = right {
                    node.entries.insert(idx + 1, right);
                }
                if node.len() <= INTERNAL_CAPACITY {
                    let (min_key, mbb) = self.internal_summary(&node)?;
                    self.pool.write(page, node.encode())?;
                    Ok(InsertUp::Updated { min_key, mbb })
                } else {
                    let mid = node.len() / 2;
                    let right_page = self.pool.allocate()?;
                    let right_node = InternalNode {
                        page: right_page,
                        entries: node.entries.split_off(mid),
                    };
                    let (left_min, left_mbb) = self.internal_summary(&node)?;
                    let (right_min, right_mbb) = self.internal_summary(&right_node)?;
                    self.pool.write(page, node.encode())?;
                    self.pool.write(right_page, right_node.encode())?;
                    Ok(InsertUp::Split {
                        left_min,
                        left_mbb,
                        right: ChildEntry {
                            min_key: right_min,
                            child: right_page,
                            mbb: right_mbb,
                        },
                    })
                }
            }
        }
    }

    /// `(minimum key, MBB)` over a node's entries, unioned left to right.
    /// An empty node is never persisted, so one here is corruption.
    fn summary(
        &self,
        page: PageId,
        entries: impl Iterator<Item = (u128, Mbb)>,
    ) -> io::Result<(u128, Mbb)> {
        entries
            .reduce(|(min_key, a), (_, b)| (min_key, self.ops.union(a, b)))
            .ok_or_else(|| corrupt(page, "empty node"))
    }

    fn leaf_summary(&self, leaf: &LeafNode) -> io::Result<(u128, Mbb)> {
        let boxes = leaf.keys.iter().map(|&k| (k, self.ops.key_box(k)));
        self.summary(leaf.page, boxes)
    }

    fn internal_summary(&self, node: &InternalNode) -> io::Result<(u128, Mbb)> {
        self.summary(node.page, node.entries.iter().map(|e| (e.min_key, e.mbb)))
    }

    // ------------------------------------------------------------------
    // Deletion (Appendix C).
    // ------------------------------------------------------------------

    /// Deletes one entry matching `(key, value)`. Returns `true` if an
    /// entry was removed. Nodes that drain are unlinked from their parents
    /// (lazy merging; see crate docs).
    pub fn delete(&self, key: u128, value: u64) -> io::Result<bool> {
        let root = match self.meta.lock().root {
            Some(r) => r,
            None => return Ok(false),
        };
        match self.delete_rec(root, key, value)? {
            DeleteUp::NotFound => Ok(false),
            DeleteUp::Updated { now_empty, .. } => {
                {
                    let mut meta = self.meta.lock();
                    meta.len -= 1;
                    if now_empty {
                        meta.root = None;
                        meta.height = 0;
                        meta.first_leaf = None;
                    }
                }
                // Collapse single-child roots so the height stays honest.
                self.shrink_root()?;
                self.flush_meta()?;
                Ok(true)
            }
        }
    }

    fn shrink_root(&self) -> io::Result<()> {
        loop {
            let root = match self.meta.lock().root {
                Some(r) => r,
                None => return Ok(()),
            };
            let Node::Internal(node) = self.read_node(root)? else {
                return Ok(());
            };
            let [only] = node.entries.as_slice() else {
                return Ok(());
            };
            let mut meta = self.meta.lock();
            meta.root = Some(only.child);
            meta.height -= 1;
        }
    }

    fn delete_rec(&self, page: PageId, key: u128, value: u64) -> io::Result<DeleteUp> {
        match self.read_node(page)? {
            Node::Leaf(mut leaf) => {
                // Duplicates are contiguous; find the exact (key, value).
                let start = leaf.keys.partition_point(|&k| k < key);
                let hit = (leaf.keys.iter().zip(&leaf.values).enumerate().skip(start))
                    .take_while(|&(_, (&k, _))| k == key)
                    .find(|&(_, (_, &v))| v == value);
                let Some((i, _)) = hit else {
                    return Ok(DeleteUp::NotFound);
                };
                leaf.keys.remove(i);
                leaf.values.remove(i);
                let now_empty = leaf.is_empty();
                if now_empty {
                    // Keep the page encoded empty; the parent unlinks it.
                    // The leaf chain is repaired by the parent walk below.
                    self.unlink_from_chain(&leaf)?;
                }
                let (min_key, mbb) = if now_empty {
                    (key, self.ops.key_box(key)) // ignored by the parent
                } else {
                    self.leaf_summary(&leaf)?
                };
                self.pool.write(page, leaf.encode())?;
                Ok(DeleteUp::Updated {
                    min_key,
                    mbb,
                    now_empty,
                })
            }
            Node::Internal(mut node) => {
                // Duplicates may straddle children: try the last child with
                // min_key < key first, then every child with min_key == key.
                let first_ge = node.entries.partition_point(|e| e.min_key < key);
                let equal = (node.entries.iter().skip(first_ge))
                    .take_while(|e| e.min_key == key)
                    .count();
                for idx in first_ge.saturating_sub(1)..first_ge + equal {
                    match self.delete_rec(child_at(&node, idx)?.child, key, value)? {
                        DeleteUp::NotFound => continue,
                        DeleteUp::Updated {
                            min_key,
                            mbb,
                            now_empty,
                        } => {
                            if now_empty {
                                node.entries.remove(idx);
                            } else {
                                set_summary(&mut node, idx, min_key, mbb);
                            }
                            let child_empty = node.is_empty();
                            let (min_key, mbb) = if child_empty {
                                (key, self.ops.key_box(key))
                            } else {
                                self.internal_summary(&node)?
                            };
                            self.pool.write(page, node.encode())?;
                            return Ok(DeleteUp::Updated {
                                min_key,
                                mbb,
                                now_empty: child_empty,
                            });
                        }
                    }
                }
                Ok(DeleteUp::NotFound)
            }
        }
    }

    /// Removes `leaf` from the sibling chain by rewiring its predecessor.
    /// Deletion is rare relative to search in the paper's workloads, so a
    /// linear chain walk is acceptable and avoids back-pointers.
    fn unlink_from_chain(&self, leaf: &LeafNode) -> io::Result<()> {
        let mut meta = self.meta.lock();
        if meta.first_leaf == Some(leaf.page) {
            meta.first_leaf = leaf.next;
            return Ok(());
        }
        let mut cur = meta.first_leaf;
        drop(meta);
        while let Some(id) = cur {
            let mut l = self.read_leaf(id)?;
            if l.next == Some(leaf.page) {
                l.next = leaf.next;
                self.pool.write(id, l.encode())?;
                return Ok(());
            }
            cur = l.next;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Lookups.
    // ------------------------------------------------------------------

    /// All values stored under exactly `key`.
    pub fn search(&self, key: u128) -> io::Result<Vec<u64>> {
        Ok(self
            .scan_range(key, key)?
            .into_iter()
            .map(|(_, v)| v)
            .collect())
    }

    /// All `(key, value)` pairs with `lo ≤ key ≤ hi`, in key order.
    pub fn scan_range(&self, lo: u128, hi: u128) -> io::Result<Vec<(u128, u64)>> {
        let mut out = Vec::new();
        let Some(root) = self.meta.lock().root else {
            return Ok(out);
        };
        // Descend with a strict-left bias so duplicates of `lo` that
        // straddle node boundaries are not missed.
        let mut page = root;
        loop {
            match self.read_node(page)? {
                Node::Internal(node) => {
                    let idx = node
                        .entries
                        .partition_point(|e| e.min_key < lo)
                        .saturating_sub(1);
                    page = child_at(&node, idx)?.child;
                }
                Node::Leaf(leaf) => {
                    let mut cur = Some(leaf);
                    while let Some(l) = cur {
                        for (&k, &v) in l.keys.iter().zip(&l.values) {
                            if k > hi {
                                return Ok(out);
                            }
                            if k >= lo {
                                out.push((k, v));
                            }
                        }
                        cur = match l.next {
                            Some(n) => Some(self.read_leaf(n)?),
                            None => None,
                        };
                    }
                    return Ok(out);
                }
            }
        }
    }

    /// Every `(key, value)` pair in key order (walks the leaf chain).
    pub fn scan_all(&self) -> io::Result<Vec<(u128, u64)>> {
        let mut out = Vec::with_capacity(self.len() as usize);
        let mut cur = self.first_leaf();
        while let Some(id) = cur {
            let l = self.read_leaf(id)?;
            out.extend(l.keys.iter().copied().zip(l.values.iter().copied()));
            cur = l.next;
        }
        Ok(out)
    }

    /// MBBs of every node in the tree (used once by the cost model to build
    /// its in-memory mirror for the EPA estimate, eq. 6).
    pub fn all_node_mbbs(&self) -> io::Result<Vec<Mbb>> {
        let mut out = Vec::new();
        let Some(root) = self.meta.lock().root else {
            return Ok(out);
        };
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            let node = self.read_node(id)?;
            if let Some(mbb) = self.node_mbb(&node) {
                out.push(mbb);
            }
            if let Node::Internal(n) = node {
                stack.extend(n.entries.iter().map(|e| e.child));
            }
        }
        Ok(out)
    }

    // ------------------------------------------------------------------
    // Accounting.
    // ------------------------------------------------------------------

    /// The buffer pool (for cache control and PA accounting).
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    /// I/O statistics snapshot.
    pub fn io_stats(&self) -> IoStats {
        self.pool.stats()
    }

    /// Number of allocated pages (storage size, Table 6).
    pub fn num_pages(&self) -> u64 {
        self.pool.num_pages()
    }

    /// Number of leaf pages (`|SPB_Q|` in the join EPA model, eq. 8).
    pub fn num_leaf_pages(&self) -> io::Result<u64> {
        let mut n = 0;
        let mut cur = self.first_leaf();
        while let Some(id) = cur {
            n += 1;
            cur = self.read_leaf(id)?.next;
        }
        Ok(n)
    }

    /// The MBB-ops instance.
    pub fn ops(&self) -> &M {
        &self.ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spb_storage::TempDir;

    fn tree(name: &str) -> (TempDir, BPlusTree<PointMbb>) {
        let dir = TempDir::new(name);
        let t = BPlusTree::create(&dir.path().join("t.bpt"), 64, PointMbb).unwrap();
        (dir, t)
    }

    #[test]
    fn empty_tree_behaviour() {
        let (_d, t) = tree("bpt-empty");
        assert!(t.is_empty());
        assert_eq!(t.height(), 0);
        assert_eq!(t.search(5).unwrap(), Vec::<u64>::new());
        assert!(t.scan_all().unwrap().is_empty());
        assert!(!t.delete(1, 1).unwrap());
    }

    #[test]
    fn bulk_load_and_scan() {
        let (_d, t) = tree("bpt-bulk");
        let items: Vec<(u128, u64)> = (0..10_000u64).map(|i| (i as u128 * 3, i)).collect();
        t.bulk_load(items.clone()).unwrap();
        assert_eq!(t.len(), 10_000);
        assert!(t.height() >= 2);
        assert_eq!(t.scan_all().unwrap(), items);
        assert_eq!(t.search(9).unwrap(), vec![3]);
        assert_eq!(t.search(10).unwrap(), Vec::<u64>::new());
        assert_eq!(
            t.scan_range(30, 45).unwrap(),
            vec![(30, 10), (33, 11), (36, 12), (39, 13), (42, 14), (45, 15)]
        );
    }

    #[test]
    fn bulk_load_writes_each_page_once() {
        let (_d, t) = tree("bpt-bulk-io");
        t.pool().reset_stats();
        let items: Vec<(u128, u64)> = (0..50_000u64).map(|i| (i as u128, i)).collect();
        t.bulk_load(items).unwrap();
        let s = t.io_stats();
        let pages = t.num_pages();
        // allocate + write per page, plus meta page updates.
        assert!(
            s.writes <= 2 * pages + 4,
            "writes = {}, pages = {pages}",
            s.writes
        );
    }

    #[test]
    fn inserts_match_model() {
        let (_d, t) = tree("bpt-insert");
        use std::collections::BTreeMap;
        let mut model: BTreeMap<u128, Vec<u64>> = BTreeMap::new();
        // Deterministic pseudo-random insert order.
        let mut x: u64 = 12345;
        for i in 0..3000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = (x % 500) as u128;
            t.insert(key, i).unwrap();
            model.entry(key).or_default().push(i);
        }
        assert_eq!(t.len(), 3000);
        for (k, vs) in &model {
            let mut got = t.search(*k).unwrap();
            let mut want = vs.clone();
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "key {k}");
        }
        // Full scan is sorted.
        let all = t.scan_all().unwrap();
        assert_eq!(all.len(), 3000);
        assert!(all.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn mixed_insert_then_delete_all() {
        let (_d, t) = tree("bpt-delete");
        for i in 0..2000u64 {
            t.insert((i % 97) as u128, i).unwrap();
        }
        assert_eq!(t.len(), 2000);
        for i in 0..2000u64 {
            assert!(t.delete((i % 97) as u128, i).unwrap(), "i={i}");
        }
        assert!(t.is_empty());
        assert_eq!(t.height(), 0);
        assert!(t.scan_all().unwrap().is_empty());
        // Deleting again finds nothing.
        assert!(!t.delete(0, 0).unwrap());
    }

    #[test]
    fn delete_repairs_leaf_chain() {
        let (_d, t) = tree("bpt-chain");
        let items: Vec<(u128, u64)> = (0..1000u64).map(|i| (i as u128, i)).collect();
        t.bulk_load(items).unwrap();
        // Drain the second leaf entirely (keys 170..340).
        for i in 170..340u64 {
            assert!(t.delete(i as u128, i).unwrap());
        }
        let keys: Vec<u128> = t.scan_all().unwrap().into_iter().map(|(k, _)| k).collect();
        let expected: Vec<u128> = (0..170u128).chain(340..1000).collect();
        assert_eq!(keys, expected);
    }

    #[test]
    fn duplicates_straddling_nodes_are_found() {
        let (_d, t) = tree("bpt-dup");
        // 400 duplicates of one key forces them across several leaves.
        let mut items: Vec<(u128, u64)> = (0..400u64).map(|i| (7u128, i)).collect();
        items.extend((0..100u64).map(|i| (100 + i as u128, 1000 + i)));
        items.sort();
        t.bulk_load(items).unwrap();
        assert_eq!(t.search(7).unwrap().len(), 400);
        // Delete a specific duplicate that lives deep in the run.
        assert!(t.delete(7, 399).unwrap());
        assert!(t.delete(7, 0).unwrap());
        assert_eq!(t.search(7).unwrap().len(), 398);
    }

    #[test]
    fn mbbs_cover_subtrees() {
        let (_d, t) = tree("bpt-mbb");
        let items: Vec<(u128, u64)> = (0..5000u64).map(|i| (i as u128 * 2, i)).collect();
        t.bulk_load(items).unwrap();
        // Walk the tree: every internal entry's MBB must cover its child's.
        fn check(t: &BPlusTree<PointMbb>, page: PageId) {
            if let Node::Internal(node) = t.read_node(page).unwrap() {
                for e in &node.entries {
                    let child = t.read_node(e.child).unwrap();
                    let child_mbb = t.node_mbb(&child).unwrap();
                    assert!(
                        e.mbb.lo <= child_mbb.lo && e.mbb.hi >= child_mbb.hi,
                        "parent MBB must cover child"
                    );
                    assert_eq!(e.min_key, child.min_key().unwrap());
                    check(t, e.child);
                }
            }
        }
        check(&t, t.root_page().unwrap());
    }

    #[test]
    fn mbbs_maintained_under_inserts() {
        let (_d, t) = tree("bpt-mbb-ins");
        let mut x: u64 = 99;
        for i in 0..2000u64 {
            x = x.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            t.insert((x % 10_000) as u128, i).unwrap();
        }
        fn check(t: &BPlusTree<PointMbb>, page: PageId) {
            if let Node::Internal(node) = t.read_node(page).unwrap() {
                for e in &node.entries {
                    let child = t.read_node(e.child).unwrap();
                    let child_mbb = t.node_mbb(&child).unwrap();
                    assert!(e.mbb.lo <= child_mbb.lo && e.mbb.hi >= child_mbb.hi);
                    check(t, e.child);
                }
            }
        }
        check(&t, t.root_page().unwrap());
    }

    #[test]
    fn corrupt_node_pages_are_typed_errors_not_panics() {
        let (_d, t) = tree("bpt-corrupt");
        t.bulk_load((0..1000u64).map(|i| (i as u128, i)).collect())
            .unwrap();
        let first = t.first_leaf().unwrap();
        let Node::Leaf(leaf) = t.read_node(first).unwrap() else {
            panic!("first_leaf is a leaf");
        };
        let second = leaf.next.unwrap();
        fn invalid<T>(r: io::Result<T>) -> io::ErrorKind {
            r.map(drop).unwrap_err().kind()
        }

        // An internal node where the leaf chain expects a leaf.
        let root = t.pool().read(t.root_page().unwrap()).unwrap();
        t.pool().write(second, (*root).clone()).unwrap();
        assert_eq!(invalid(t.scan_all()), io::ErrorKind::InvalidData);
        assert_eq!(invalid(t.scan_range(0, 999)), io::ErrorKind::InvalidData);
        assert_eq!(invalid(t.num_leaf_pages()), io::ErrorKind::InvalidData);

        // An entry count past the page, then an unknown type tag.
        let mut page = leaf.encode();
        page.write_u16(2, u16::MAX);
        t.pool().write(first, page.clone()).unwrap();
        assert_eq!(invalid(t.read_node(first)), io::ErrorKind::InvalidData);
        page.write_u8(0, 9);
        t.pool().write(first, page).unwrap();
        assert_eq!(invalid(t.read_node(first)), io::ErrorKind::InvalidData);
        assert_eq!(invalid(t.search(3)), io::ErrorKind::InvalidData);
    }

    #[test]
    fn reopen_preserves_tree() {
        let dir = TempDir::new("bpt-reopen");
        let path = dir.path().join("t.bpt");
        {
            let t = BPlusTree::create(&path, 16, PointMbb).unwrap();
            t.bulk_load((0..500u64).map(|i| (i as u128, i)).collect())
                .unwrap();
        }
        let t = BPlusTree::open(&path, 16, PointMbb).unwrap();
        assert_eq!(t.len(), 500);
        assert_eq!(t.search(250).unwrap(), vec![250]);
        t.insert(1000, 1000).unwrap();
        assert_eq!(t.len(), 501);
    }

    #[test]
    fn leaf_page_count_is_consistent() {
        let (_d, t) = tree("bpt-leafcount");
        t.bulk_load((0..1000u64).map(|i| (i as u128, i)).collect())
            .unwrap();
        let expected = 1000usize.div_ceil(crate::node::LEAF_CAPACITY) as u64;
        assert_eq!(t.num_leaf_pages().unwrap(), expected);
    }

    #[test]
    fn scan_range_edges() {
        let (_d, t) = tree("bpt-range");
        t.bulk_load(vec![(5, 0), (5, 1), (7, 2), (9, 3)]).unwrap();
        assert_eq!(t.scan_range(0, 4).unwrap(), vec![]);
        assert_eq!(t.scan_range(10, 20).unwrap(), vec![]);
        assert_eq!(t.scan_range(5, 5).unwrap(), vec![(5, 0), (5, 1)]);
        assert_eq!(t.scan_range(0, u128::MAX).unwrap().len(), 4);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use spb_storage::TempDir;
    use std::collections::BTreeSet;

    #[derive(Clone, Debug)]
    enum Op {
        Insert(u8, u8),
        Delete(u8, u8),
    }

    fn ops() -> impl Strategy<Value = Vec<Op>> {
        proptest::collection::vec(
            prop_oneof![
                (any::<u8>(), any::<u8>()).prop_map(|(k, v)| Op::Insert(k, v)),
                (any::<u8>(), any::<u8>()).prop_map(|(k, v)| Op::Delete(k, v)),
            ],
            0..120,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn random_ops_match_btreeset_model(ops in ops()) {
            let dir = TempDir::new("bpt-prop");
            let t = BPlusTree::create(&dir.path().join("t.bpt"), 32, PointMbb).unwrap();
            // Model: multiset of (key, value). Values are made unique per
            // (k, v) by the set semantics — duplicates collapse, so insert
            // only when absent, mirroring with the tree.
            let mut model: BTreeSet<(u128, u64)> = BTreeSet::new();
            for op in ops {
                match op {
                    Op::Insert(k, v) => {
                        if model.insert((k as u128, v as u64)) {
                            t.insert(k as u128, v as u64).unwrap();
                        }
                    }
                    Op::Delete(k, v) => {
                        let existed = model.remove(&(k as u128, v as u64));
                        prop_assert_eq!(t.delete(k as u128, v as u64).unwrap(), existed);
                    }
                }
                prop_assert_eq!(t.len(), model.len() as u64);
            }
            // Duplicate keys keep insertion order in the tree, so compare
            // after normalising value order within each key.
            let mut got = t.scan_all().unwrap();
            got.sort_unstable();
            let want: Vec<(u128, u64)> = model.into_iter().collect();
            prop_assert_eq!(got, want);
        }

        #[test]
        fn scan_range_matches_model(keys in proptest::collection::vec(any::<u16>(), 1..300), lo in any::<u16>(), hi in any::<u16>()) {
            let (lo, hi) = (lo.min(hi) as u128, lo.max(hi) as u128);
            let dir = TempDir::new("bpt-prop-range");
            let t = BPlusTree::create(&dir.path().join("t.bpt"), 32, PointMbb).unwrap();
            let mut items: Vec<(u128, u64)> = keys.iter().enumerate().map(|(i, &k)| (k as u128, i as u64)).collect();
            items.sort();
            t.bulk_load(items.clone()).unwrap();
            let got = t.scan_range(lo, hi).unwrap();
            let want: Vec<(u128, u64)> = items.into_iter().filter(|&(k, _)| k >= lo && k <= hi).collect();
            prop_assert_eq!(got, want);
        }
    }
}
