//! # spb-accel: learned positioning + recall-targeted approximation
//!
//! Two cooperating engines that accelerate SPB-tree queries:
//!
//! 1. **Learned positioning** ([`LeafModel`]): a flattened directory of
//!    the B⁺-tree leaf level plus a piecewise-linear model mapping SFC
//!    key → leaf ordinal (the LIMS recipe applied to the SPB-tree's
//!    one-dimensional SFC key space). Exactness is preserved by a
//!    bounded-error local search inside the model's recorded max-error
//!    window; when the window invariant cannot be verified the caller
//!    falls back to classic inner-node descent.
//! 2. **Recall-targeted approximation** ([`tune`], [`recall`]): the
//!    Chávez–Navarro radius-contraction recipe — shrink a range
//!    query's pruning radius by a factor `c ∈ (0,1]`, or inflate the
//!    kNN termination bound by a factor `α ≥ 1`, and auto-tune the
//!    factor against sampled exact ground truth until a recall target
//!    is met. Each query carries its own factor as given
//!    (`spb_core::QueryPlan`); one is never derived from the other.
//!
//! The model is trained at build/checkpoint time, persisted next to
//! `spb.meta` as [`MODEL_FILE`], and stamped with the tree epoch
//! `(len, next_id)`; a mismatching epoch means the tree mutated since
//! training and the model must not be trusted (classic fallback,
//! lazy retrain at the next checkpoint).
//!
//! This crate is deliberately storage-agnostic: leaves are described by
//! raw `u64` page ids and `u128` SFC keys, so it depends only on
//! `spb-storage` (atomic file replacement + CRC) and `spb-obs`.

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

pub mod metrics;
mod model;
mod tune;

pub use model::{LeafEntry, LeafModel, Located, MODEL_FILE};
pub use tune::{recall, tune, Tuned, ALPHA_LADDER};

/// Build-time acceleration policy carried by `SpbConfig::accel`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum AccelPolicy {
    /// No model is trained or persisted; queries always use classic
    /// B⁺-tree descent. The paper-faithful default.
    #[default]
    Off,
    /// Train a [`LeafModel`] at build and every checkpoint, persist it
    /// alongside `spb.meta`, and let queries use learned positioning.
    Learned,
}

/// Per-query positioning selector (how to walk the index, not what the
/// query answers — both choices return byte-identical results).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Positioning {
    /// Learned when a fresh model is available, classic otherwise.
    #[default]
    Auto,
    /// Force classic B⁺-tree descent.
    Classic,
    /// Request learned positioning; silently falls back to classic
    /// (counted in `accel.model_fallback`) when no fresh model exists.
    Learned,
}
