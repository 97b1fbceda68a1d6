//! On-page node layout and codecs.
//!
//! ```text
//! Leaf page:       [type: u8][pad: u8][count: u16][pad: u32]
//!                  [next_leaf: u64]
//!                  count × [key: u128][value: u64]            (24 B/entry)
//!
//! Internal page:   [type: u8][pad: u8][count: u16][pad: u32]
//!                  count × [min_key: u128][child: u64]
//!                          [mbb_min: u128][mbb_max: u128]     (56 B/entry)
//! ```
//!
//! With 4 KB pages (minus the 4-byte CRC footer) this gives up to 169 leaf
//! entries and 72 internal entries per node — the fan-outs behind the
//! paper's low construction I/O.

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

use spb_storage::{Page, PageId, PAGE_DATA_SIZE};

/// The typed error for a page that cannot be a node this crate wrote.
pub(crate) fn corrupt(id: PageId, what: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("corrupt B+-tree page {}: {what}", id.0),
    )
}

/// A minimum bounding box stored as two SFC values that encode the low and
/// high corner points of the box in the mapped vector space (Fig. 4's
/// `min`/`max`). The B⁺-tree treats it as opaque; [`MbbOps`] gives it
/// geometric meaning.
///
/// [`MbbOps`]: crate::MbbOps
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Mbb {
    /// SFC encoding of the low corner `⟨L₁, …, L_|P|⟩`.
    pub lo: u128,
    /// SFC encoding of the high corner `⟨U₁, …, U_|P|⟩`.
    pub hi: u128,
}

const TYPE_LEAF: u8 = 0;
const TYPE_INTERNAL: u8 = 1;
const COUNT_OFF: usize = 2;
const LEAF_NEXT_OFF: usize = 8;
const LEAF_ENTRIES_OFF: usize = 16;
const LEAF_ENTRY_SIZE: usize = 16 + 8;
const INT_ENTRIES_OFF: usize = 8;
const INT_ENTRY_SIZE: usize = 16 + 8 + 16 + 16;

/// Maximum leaf entries per page (the CRC footer shrinks the data area).
pub(crate) const LEAF_CAPACITY: usize = (PAGE_DATA_SIZE - LEAF_ENTRIES_OFF) / LEAF_ENTRY_SIZE;
/// Maximum internal entries per page.
pub(crate) const INTERNAL_CAPACITY: usize = (PAGE_DATA_SIZE - INT_ENTRIES_OFF) / INT_ENTRY_SIZE;

/// Sentinel for "no next leaf".
const NO_PAGE: u64 = u64::MAX;

/// A decoded leaf node.
#[derive(Clone, Debug, PartialEq)]
pub struct LeafNode {
    /// This node's page.
    pub page: PageId,
    /// Keys in ascending order (duplicates allowed: objects sharing a grid
    /// cell share an SFC value).
    pub keys: Vec<u128>,
    /// Parallel RAF pointers (byte offsets).
    pub values: Vec<u64>,
    /// Right sibling, if any — the leaf chain the merge join walks.
    pub next: Option<PageId>,
}

/// One internal entry: the paper's non-leaf B⁺-tree entry `(key, ptr,
/// min, max)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChildEntry {
    /// Minimum key in the child's subtree.
    pub min_key: u128,
    /// The child page.
    pub child: PageId,
    /// MBB of the child's subtree in the mapped space.
    pub mbb: Mbb,
}

/// A decoded internal node.
#[derive(Clone, Debug, PartialEq)]
pub struct InternalNode {
    /// This node's page.
    pub page: PageId,
    /// Child entries in ascending `min_key` order.
    pub entries: Vec<ChildEntry>,
}

/// A decoded node of either kind.
#[derive(Clone, Debug, PartialEq)]
pub enum Node {
    /// A leaf node.
    Leaf(LeafNode),
    /// An internal node.
    Internal(InternalNode),
}

impl LeafNode {
    /// An empty leaf on `page`.
    pub fn empty(page: PageId) -> Self {
        LeafNode {
            page,
            keys: Vec::new(),
            values: Vec::new(),
            next: None,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True iff the leaf holds no entries.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Serialises into a fresh page.
    pub fn encode(&self) -> Page {
        // Release checks on a node this crate built itself: overflow is a
        // split bug, and a truncated page would corrupt the index. The
        // zone's assert scan (tests/toolchain_policy.rs) names all three.
        assert!(self.keys.len() <= LEAF_CAPACITY, "leaf overflow");
        // Same: the two columns are built in step.
        assert_eq!(self.keys.len(), self.values.len());
        let mut p = Page::new();
        p.write_u8(0, TYPE_LEAF);
        p.write_u16(COUNT_OFF, self.keys.len() as u16);
        p.write_u64(LEAF_NEXT_OFF, self.next.map_or(NO_PAGE, |n| n.0));
        let mut off = LEAF_ENTRIES_OFF;
        for (k, v) in self.keys.iter().zip(&self.values) {
            p.write_u128(off, *k);
            p.write_u64(off + 16, *v);
            off += LEAF_ENTRY_SIZE;
        }
        p
    }
}

impl InternalNode {
    /// An empty internal node on `page`.
    pub fn empty(page: PageId) -> Self {
        InternalNode {
            page,
            entries: Vec::new(),
        }
    }

    /// Number of child entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True iff the node has no children.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Serialises into a fresh page.
    pub fn encode(&self) -> Page {
        // See `LeafNode::encode`.
        assert!(self.entries.len() <= INTERNAL_CAPACITY, "internal overflow");
        let mut p = Page::new();
        p.write_u8(0, TYPE_INTERNAL);
        p.write_u16(COUNT_OFF, self.entries.len() as u16);
        let mut off = INT_ENTRIES_OFF;
        for e in &self.entries {
            p.write_u128(off, e.min_key);
            p.write_u64(off + 16, e.child.0);
            p.write_u128(off + 24, e.mbb.lo);
            p.write_u128(off + 40, e.mbb.hi);
            off += INT_ENTRY_SIZE;
        }
        p
    }
}

impl Node {
    /// Decodes the node stored on `page` (read from page id `id`). An
    /// unknown type tag or an entry count beyond the page's capacity is
    /// `InvalidData`, so no read below runs past the data area.
    pub fn decode(id: PageId, page: &Page) -> io::Result<Node> {
        let count = page.read_u16(COUNT_OFF) as usize;
        match page.read_u8(0) {
            TYPE_LEAF if count <= LEAF_CAPACITY => {
                let next = match page.read_u64(LEAF_NEXT_OFF) {
                    NO_PAGE => None,
                    n => Some(PageId(n)),
                };
                let mut keys = Vec::with_capacity(count);
                let mut values = Vec::with_capacity(count);
                let mut off = LEAF_ENTRIES_OFF;
                for _ in 0..count {
                    keys.push(page.read_u128(off));
                    values.push(page.read_u64(off + 16));
                    off += LEAF_ENTRY_SIZE;
                }
                Ok(Node::Leaf(LeafNode {
                    page: id,
                    keys,
                    values,
                    next,
                }))
            }
            TYPE_INTERNAL if count <= INTERNAL_CAPACITY => {
                let mut entries = Vec::with_capacity(count);
                let mut off = INT_ENTRIES_OFF;
                for _ in 0..count {
                    entries.push(ChildEntry {
                        min_key: page.read_u128(off),
                        child: PageId(page.read_u64(off + 16)),
                        mbb: Mbb {
                            lo: page.read_u128(off + 24),
                            hi: page.read_u128(off + 40),
                        },
                    });
                    off += INT_ENTRY_SIZE;
                }
                Ok(Node::Internal(InternalNode { page: id, entries }))
            }
            TYPE_LEAF | TYPE_INTERNAL => Err(corrupt(id, "entry count exceeds capacity")),
            t => Err(corrupt(id, &format!("unknown type tag {t}"))),
        }
    }

    /// The node's minimum key; an empty node (never persisted) is
    /// `InvalidData`.
    pub fn min_key(&self) -> io::Result<u128> {
        let (first, page) = match self {
            Node::Leaf(l) => (l.keys.first().copied(), l.page),
            Node::Internal(i) => (i.entries.first().map(|e| e.min_key), i.page),
        };
        first.ok_or_else(|| corrupt(page, "empty node"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacities_match_layout() {
        assert_eq!(LEAF_CAPACITY, 169);
        assert_eq!(INTERNAL_CAPACITY, 72);
    }

    #[test]
    fn leaf_roundtrip() {
        let leaf = LeafNode {
            page: PageId(7),
            keys: vec![1, 5, 5, u128::MAX],
            values: vec![10, 20, 30, 40],
            next: Some(PageId(9)),
        };
        let decoded = Node::decode(PageId(7), &leaf.encode()).unwrap();
        assert_eq!(decoded, Node::Leaf(leaf));
    }

    #[test]
    fn leaf_roundtrip_no_next() {
        let leaf = LeafNode {
            page: PageId(0),
            keys: vec![42],
            values: vec![0],
            next: None,
        };
        let decoded = Node::decode(PageId(0), &leaf.encode()).unwrap();
        assert_eq!(decoded, Node::Leaf(leaf));
    }

    #[test]
    fn internal_roundtrip() {
        let node = InternalNode {
            page: PageId(3),
            entries: vec![
                ChildEntry {
                    min_key: 0,
                    child: PageId(10),
                    mbb: Mbb { lo: 1, hi: 99 },
                },
                ChildEntry {
                    min_key: 1000,
                    child: PageId(11),
                    mbb: Mbb {
                        lo: u128::MAX / 2,
                        hi: u128::MAX,
                    },
                },
            ],
        };
        let decoded = Node::decode(PageId(3), &node.encode()).unwrap();
        assert_eq!(decoded, Node::Internal(node));
    }

    #[test]
    fn full_leaf_roundtrip() {
        let leaf = LeafNode {
            page: PageId(1),
            keys: (0..LEAF_CAPACITY as u128).collect(),
            values: (0..LEAF_CAPACITY as u64).collect(),
            next: None,
        };
        let decoded = Node::decode(PageId(1), &leaf.encode()).unwrap();
        assert_eq!(decoded, Node::Leaf(leaf));
    }

    #[test]
    #[should_panic(expected = "leaf overflow")]
    fn oversized_leaf_panics() {
        let leaf = LeafNode {
            page: PageId(1),
            keys: vec![0; LEAF_CAPACITY + 1],
            values: vec![0; LEAF_CAPACITY + 1],
            next: None,
        };
        let _ = leaf.encode();
    }

    #[test]
    fn min_key_accessor() {
        let leaf = LeafNode {
            page: PageId(0),
            keys: vec![5, 9],
            values: vec![0, 1],
            next: None,
        };
        assert_eq!(Node::Leaf(leaf).min_key().unwrap(), 5);
        let empty = Node::Leaf(LeafNode::empty(PageId(4)));
        assert_eq!(
            empty.min_key().unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }

    #[test]
    fn bad_tag_and_oversized_counts_are_typed_errors() {
        let leaf = LeafNode {
            page: PageId(2),
            keys: vec![1],
            values: vec![2],
            next: None,
        };
        let mut bad_tag = leaf.encode();
        bad_tag.write_u8(0, 7);
        let mut big_leaf = leaf.encode();
        big_leaf.write_u16(COUNT_OFF, LEAF_CAPACITY as u16 + 1);
        let mut big_internal = InternalNode::empty(PageId(2)).encode();
        big_internal.write_u16(COUNT_OFF, u16::MAX);
        for page in [bad_tag, big_leaf, big_internal] {
            let err = Node::decode(PageId(2), &page).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        }
    }
}
