//! # spb — the SPB-tree metric indexing library
//!
//! A from-scratch Rust reproduction of *“Efficient Metric Indexing for
//! Similarity Search”* (Chen, Gao, Li, Jensen, Chen; ICDE 2015) and its
//! similarity-join extension. This facade crate re-exports the whole
//! workspace:
//!
//! * [`core`] — the SPB-tree itself ([`SpbTree`]), its query algorithms
//!   (range, kNN, similarity join) and cost models;
//! * [`metric`] — metric-space object types, distance functions, dataset
//!   generators and statistics;
//! * [`sfc`] — Hilbert / Z-order space-filling curves;
//! * [`storage`] — 4 KB pager, LRU buffer pool, random access file;
//! * [`bptree`] — the MBB-annotated disk B⁺-tree;
//! * [`pivots`] — pivot-selection algorithms (HFI, HF, FFT, Spacing, PCA);
//! * [`mams`] — the paper's competitor indexes (M-tree, OmniR-tree,
//!   M-Index, Quickjoin, eD-index).
//!
//! ## Quickstart
//!
//! ```
//! use spb::{SpbConfig, SpbTree};
//! use spb::metric::{dataset, EditDistance};
//! use spb::storage::TempDir;
//!
//! let dir = TempDir::new("spb-facade-doc");
//! let words = dataset::words(2_000, 7);
//! let index = SpbTree::build(dir.path(), &words, EditDistance::default(),
//!                            &SpbConfig::default()).unwrap();
//!
//! let (hits, stats) = index.range(&words[10], 1.0).unwrap();
//! assert!(!hits.is_empty());
//! println!("found {} words with {} distance computations", hits.len(), stats.compdists);
//! ```

pub use spb_bptree as bptree;
pub use spb_core as core;
pub use spb_mams as mams;
pub use spb_metric as metric;
pub use spb_pivots as pivots;
pub use spb_sfc as sfc;
pub use spb_storage as storage;

pub use spb_core::{
    parallel_map, similarity_join, similarity_join_parallel, CostEstimate, CostModel, JoinPair,
    QueryStats, SpbConfig, SpbTree, Traversal,
};
