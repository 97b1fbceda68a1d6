//! Disk-resident B⁺-tree with per-child MBB annotations.
//!
//! This is the underlying index of the SPB-tree (Section 3.3): leaves store
//! `(SFC value, RAF pointer)` pairs in key order; internal entries store the
//! minimum key of their subtree, the child page, and — the SPB-tree's
//! extension over a plain B⁺-tree — the subtree's **minimum bounding box**
//! in the mapped pivot space, serialised as two SFC-encoded corner points
//! (`min`/`max` in Fig. 4).
//!
//! The tree itself is agnostic about what the `u128` keys *mean*; geometry
//! is injected through the [`MbbOps`] trait, which the SPB-tree implements
//! with its space-filling curve (decode key → grid point → box algebra) and
//! the M-Index implements as the degenerate identity (boxes become key
//! ranges). This keeps the B⁺-tree reusable by both indexes, as the paper
//! intends ("easy to integrate into an existing DBMS").
//!
//! Supported operations: [`bulk_load`](BPlusTree::bulk_load) (one sequential
//! write pass, Appendix B), [`insert`](BPlusTree::insert) /
//! [`delete`](BPlusTree::delete) (Appendix C), exact search, key-range
//! scans, ordered leaf iteration, and raw [`read_node`](BPlusTree::read_node)
//! access for the query algorithms that drive their own traversals (RQA,
//! NNA, SJA).

// The no-panic zones (DESIGN.md §10) call into this crate: a literal
// panic site in its library code needs an item-level `allow` and a why.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

mod node;
mod tree;

pub use node::{ChildEntry, InternalNode, LeafNode, Mbb, Node};
pub use tree::{BPlusTree, MbbOps, PointMbb};
