//! # The SPB-tree
//!
//! The **S**pace-filling curve and **P**ivot-based **B**⁺-tree (Chen, Gao,
//! Li, Jensen, Chen: *Efficient Metric Indexing for Similarity Search*,
//! ICDE 2015, and its similarity-join extension) — a disk-based metric
//! access method built from three parts (Fig. 4):
//!
//! 1. a **pivot table** mapping objects `o` of a generic metric space to
//!    vectors `φ(o) = ⟨d(o, p₁), …, d(o, p_|P|)⟩`, whose `L∞` distance
//!    lower-bounds the metric distance;
//! 2. a **B⁺-tree** over the space-filling-curve values of the
//!    δ-discretised vectors, with per-subtree MBBs in its internal entries;
//! 3. a **random access file (RAF)** storing the objects themselves in
//!    ascending SFC order.
//!
//! Supported operations, each matching a numbered algorithm of the paper:
//!
//! | Operation | Paper | Entry point |
//! |---|---|---|
//! | Bulk-loading | Appendix B | [`SpbTree::build`] |
//! | Insertion / deletion | Appendix C | [`SpbTree::insert`], [`SpbTree::delete`] |
//! | Range query (RQA) | Algorithm 1 | [`SpbTree::range`] |
//! | kNN query (NNA) | Algorithm 2 | [`SpbTree::knn`] |
//! | Similarity join (SJA) | Algorithm 3 | [`similarity_join`] |
//! | Batch queries (parallel) | extension | [`SpbTree::range_batch`], [`SpbTree::knn_batch`] |
//! | One plan for exact and approximate queries | extension | [`QueryPlan`], [`SpbTree::query_batch`] |
//! | Parallel join | extension (the same SJA merge, one per chunk of Q) | [`similarity_join_parallel`] |
//! | Cost models | eqs. 1–8 | [`CostModel`] |
//! | Count-only range query | extension | [`SpbTree::range_count`] |
//! | α-approximate kNN | extension | [`SpbTree::knn_approx`] |
//! | Learned positioning + recall-targeted search | extension | [`AccelPolicy`], [`SpbTree::range_approx_measured`], [`SpbTree::tune_knn_alpha`] |
//! | Persistence | — | [`SpbTree::open`] |
//! | Crash recovery | extension | [`recover_dir`] (run by `open`) |
//! | Integrity check | extension | [`verify_dir`] |
//!
//! ## Durability
//!
//! Updates are crash-safe by default: each insert/delete stages its dirty
//! pages in memory, commits them through a checksummed write-ahead log
//! with one fsync, and only then writes the data files. Reopening an
//! index replays any committed-but-unapplied transactions and discards
//! torn tails. [`SpbConfig::durability`] turns the WAL off (for
//! benchmarking its cost); [`verify_dir`] audits an index offline.
//!
//! ## Example
//!
//! ```
//! use spb_core::{SpbConfig, SpbTree};
//! use spb_metric::{dataset, EditDistance};
//! use spb_storage::TempDir;
//!
//! let dir = TempDir::new("spb-doc");
//! let words = dataset::words(1000, 42);
//! let tree = SpbTree::build(dir.path(), &words, EditDistance::default(),
//!                           &SpbConfig::default()).unwrap();
//!
//! // All words within edit distance 2 of a query word:
//! let (hits, stats) = tree.range(&words[0], 2.0).unwrap();
//! assert!(hits.iter().any(|(_, w)| w == &words[0]));
//! assert!(stats.compdists < 1000, "pivots must prune most comparisons");
//!
//! // The 5 most similar words:
//! let (nn, _) = tree.knn(&words[0], 5).unwrap();
//! assert_eq!(nn.len(), 5);
//! assert_eq!(nn[0].2, 0.0); // the word itself
//! ```

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

mod batch;
mod config;
mod cost;
mod durable;
mod exec;
mod join;
mod knn;
mod mapping;
mod partition;
mod plan;
mod range;
mod stats;
mod tree;

pub use batch::QueryAnswers;
pub use config::SpbConfig;
pub use cost::{CostEstimate, CostModel};
pub use durable::{
    recover_dir, verify_dir, NeedsRecovery, RecoveryReport, VerifyProblem, VerifyReport, WAL_FILE,
};
pub use exec::parallel_map;
pub use join::{similarity_join, similarity_join_parallel, JoinPair};
pub use knn::{KnnResult, Traversal};
pub use mapping::{PivotTable, SfcMbbOps};
pub use partition::{plan_shards, shard_mind, ShardPlan, ShardSpec};
pub use plan::{PlanError, QueryPlan, QueryShape};
pub use spb_accel::{AccelPolicy, LeafModel, Positioning, Tuned};
pub use tree::{BuildStats, QueryStats, SpbTree};
