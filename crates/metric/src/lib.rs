//! Metric-space foundation for the SPB-tree reproduction.
//!
//! A *metric space* is a pair `(M, d)` where `M` is a domain of objects and
//! `d` a distance function satisfying symmetry, non-negativity, identity and
//! the triangle inequality. Every index in this workspace is generic over an
//! object type implementing [`MetricObject`] and a distance implementing
//! [`Distance`], so that a single code path serves strings under edit
//! distance, vectors under Lᵖ-norms, bit signatures under Hamming distance,
//! and DNA k-mers under angular tri-gram distance — the exact workloads of
//! the paper's evaluation (Table 2).
//!
//! The crate also provides:
//!
//! * [`counter`] — cheap shared counters for the paper's primary CPU cost
//!   metric, the number of distance computations (*compdists*);
//! * [`dataset`] — reproducible generators standing in for the paper's
//!   *Words*, *Color*, *DNA*, *Signature* and *Synthetic* datasets;
//! * [`stats`] — distance histograms, pairwise sampling, and the intrinsic
//!   dimensionality estimator `ρ = µ²/(2σ²)` used to pick the pivot count.

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

pub mod counter;
pub mod dataset;
pub mod distance;
pub mod object;
pub mod stats;

pub use counter::{CountingDistance, DistCounter};
pub use distance::{Distance, EditDistance, Hamming, Jaccard, LpNorm, TrigramAngular};
pub use object::{Dna, FloatVec, IntSet, MetricObject, Signature, Word};
pub use stats::{intrinsic_dimensionality, pairwise_distance_sample, DistanceHistogram};
