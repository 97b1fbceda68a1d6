//! Baseline metric access methods (MAMs) from the paper's evaluation.
//!
//! The SPB-tree paper compares against four competitors; all are
//! implemented here from scratch, disk-based over the same 4 KB
//! [`spb_storage`] substrate so that page accesses and distance
//! computations are measured identically:
//!
//! * [`MTree`] — the classic compact-partitioning M-tree (Ciaccia, Patella
//!   & Zezula, VLDB '97): covering-radius balls, mM_RAD node splits,
//!   sampling-based bulk-loading. Objects live inside the nodes.
//! * [`RTree`] — an R-tree over low-dimensional float rectangles (STR
//!   bulk-loading, quadratic split); the substrate for the OmniR-tree.
//! * [`OmniRTree`] — the Omni-family access method (Traina Jr. et al.,
//!   VLDB J. '07): HF foci, omni-coordinates indexed by the R-tree,
//!   objects in a separate RAF.
//! * [`MIndex`] — Novak, Batko & Zezula's M-Index: iDistance-style keys
//!   (`cluster · 2^s + scaled distance to the nearest pivot`) in a
//!   B⁺-tree.
//! * [`quickjoin_rs`] — the (improved) Quickjoin similarity-join algorithm
//!   (Jacox & Samet; Fredriksson & Braithwaite): in-memory recursive
//!   ball partitioning with window joins.
//! * [`EdIndex`] — the eD-index (Dohnal, Gennaro & Zezula): a D-index
//!   with ε-overloaded exclusion buckets supporting bucket-local
//!   similarity joins; the build-time ε limitation of the original is
//!   faithfully reproduced.
//!
//! Every index reports [`spb_core::QueryStats`]-compatible costs so the
//! experiment harness can print the paper's tables directly.

mod edindex;
mod mindex;
mod mtree;
mod omni;
mod quickjoin;
mod rtree;

pub use edindex::{EdIndex, EdIndexParams};
pub use mindex::{MIndex, MIndexParams};
pub use mtree::{MTree, MTreeParams};
pub use omni::{OmniParams, OmniRTree};
pub use quickjoin::{quickjoin_rs, QuickJoinParams};
