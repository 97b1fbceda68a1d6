//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (Section 6).
//!
//! The `experiments` binary exposes one sub-command per table/figure
//! (`experiments table4`, `experiments fig12`, …, `experiments all`), each
//! printing the same rows/series the paper reports. Workloads follow the
//! paper's methodology: *"Each measurement we report is the average of
//! 500 queries for the first 500 objects in every dataset"* (scaled per
//! [`Scale`]), with the page caches flushed before every query.
//!
//! Because the authors' testbed ran at 100K–1M objects for hours, the
//! harness supports three [`Scale`]s: `smoke` (seconds, CI-sized),
//! `default` (minutes, laptop-sized — the shipped EXPERIMENTS.md numbers)
//! and `full` (the paper's cardinalities). Relative behaviour — who wins,
//! by what factor, where crossovers appear — is preserved across scales;
//! see DESIGN.md §3.

pub mod datasets;
pub mod experiments;
pub mod runner;
pub mod table;

pub use datasets::Scale;
pub use table::Table;
