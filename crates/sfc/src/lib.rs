//! Space-filling curves for the SPB-tree.
//!
//! After the pivot mapping, every object is a point on an
//! `|P|`-dimensional integer grid with `2ᵇ` cells per side (the
//! δ-approximation of Section 3.1). This crate maps such grid points to
//! one-dimensional **SFC values** and back:
//!
//! * [`Sfc`] with [`CurveKind::Hilbert`] — Skilling's transform; better
//!   proximity preservation, the paper's default for search (Table 4);
//! * [`Sfc`] with [`CurveKind::Z`] — Morton bit interleaving; its coordinate
//!   monotonicity (Lemma 6) is what the similarity-join algorithm relies on.
//!
//! The crate also provides the grid-side geometry the query algorithms need:
//! [`GridBox`] (the mapped range regions `RR(q, r)` and node MBBs),
//! box intersection, per-box cell enumeration in SFC order (the
//! `computeSFC` step of Algorithm 1), the aligned sub-cube holding every
//! value of an SFC interval ([`Sfc::interval_cube_into`], which lets a
//! range query test Lemma 1 on a run of keys without decoding them), and
//! the `L∞` lower-bound distance `MIND` between a query point and a box
//! (Lemma 3).

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

mod curve;
mod grid;

pub use curve::{CurveKind, Sfc};
pub use grid::{mind_linf, GridBox};
