//! Batch query execution: fan a slice of queries across a worker pool.
//!
//! The read path of the SPB-tree is embarrassingly parallel — RQA/NNA
//! traversals are read-only under the structure latch — so a workload of
//! independent queries should use every core. [`SpbTree::range_batch`]
//! and [`SpbTree::knn_batch`] take the read latch **once** on the calling
//! thread and run the per-query bodies (`range_exec` / `knn_locked`) on
//! [`parallel_map`] workers; updates queue behind the whole batch, exactly as
//! they would behind any single reader.
//!
//! Results and per-query [`QueryStats`] are identical to running the same
//! queries sequentially: each query carries its own
//! [`StatsCollector`](crate::stats::StatsCollector), so nothing is diffed
//! from shared counters and the thread count never changes a number
//! (durations aside).

use std::io;

use spb_metric::{Distance, MetricObject};

use crate::exec::parallel_map;
use crate::knn::Traversal;
use crate::plan::{QueryPlan, QueryShape};
use crate::tree::{QueryStats, SpbTree};

/// Per-query output of [`SpbTree::range_batch`]: `(hits, stats)` in input
/// order.
pub(crate) type RangeBatch<O> = Vec<(Vec<(u32, O)>, QueryStats)>;

/// Per-query output of [`SpbTree::knn_batch`]: `(neighbours, stats)` in
/// input order.
pub(crate) type KnnBatch<O> = Vec<(Vec<(u32, O, f64)>, QueryStats)>;

/// Per-query output of [`SpbTree::query_batch`], in input order: the
/// plan's shape decides which kind of rows come back.
#[derive(Debug)]
pub enum QueryAnswers<O> {
    /// Rows of a range plan.
    Range(RangeBatch<O>),
    /// Rows of a kNN plan.
    Knn(KnnBatch<O>),
}

impl<O: MetricObject, D: Distance<O>> SpbTree<O, D> {
    /// Runs `RQ(q, O, r)` for every `(q, r)` pair on `threads` worker
    /// threads, returning per-query results and stats in input order.
    ///
    /// Deterministic: results and cost metrics are identical to calling
    /// [`SpbTree::range`] per query (under the paper's flush-before-query
    /// protocol), for any thread count.
    pub fn range_batch(&self, queries: &[(O, f64)], threads: usize) -> io::Result<RangeBatch<O>> {
        self.range_batch_exec(queries, |(q, r)| (q, *r), 1.0, threads)
    }

    /// Runs `kNN(q, k)` for every query on `threads` worker threads with
    /// the default incremental traversal. See [`SpbTree::range_batch`]
    /// for the concurrency and determinism contract.
    pub fn knn_batch(&self, queries: &[O], k: usize, threads: usize) -> io::Result<KnnBatch<O>> {
        self.knn_batch_exec(queries, k, 1.0, threads)
    }

    /// Runs one [`QueryPlan`] for every query object on `threads` worker
    /// threads — the entry point the service layers execute through. A
    /// single query is a batch of one (it runs inline on the caller's
    /// thread). An exact plan answers exactly what
    /// [`range_batch`](SpbTree::range_batch) /
    /// [`knn_batch`](SpbTree::knn_batch) answer; the plan applies to the
    /// whole batch, so exact and approximate queries can never share a
    /// traversal.
    pub fn query_batch(
        &self,
        plan: QueryPlan,
        queries: &[O],
        threads: usize,
    ) -> io::Result<QueryAnswers<O>> {
        match plan.shape() {
            QueryShape::Range { radius } => self
                .range_batch_exec(queries, |q| (q, radius), plan.factor(), threads)
                .map(QueryAnswers::Range),
            QueryShape::Knn { k } => self
                .knn_batch_exec(queries, k, plan.factor(), threads)
                .map(QueryAnswers::Knn),
        }
    }

    /// The range batch body: one shared latch, `range_exec` per item.
    /// `query_of` projects an item to its `(query, radius)`.
    fn range_batch_exec<T: Sync>(
        &self,
        items: &[T],
        query_of: impl Fn(&T) -> (&O, f64) + Sync,
        contraction: f64,
        threads: usize,
    ) -> io::Result<RangeBatch<O>> {
        let _guard = self.latch_shared()?;
        parallel_map(threads, items, |_, item| {
            let (q, r) = query_of(item);
            let mut col = self.collector();
            let hits =
                self.range_exec(q, r, contraction, spb_accel::Positioning::Auto, &mut col)?;
            Ok((hits, col.finish()))
        })
        .into_iter()
        .collect()
    }

    /// The kNN batch body: one shared latch, `knn_locked` per query.
    fn knn_batch_exec(
        &self,
        queries: &[O],
        k: usize,
        alpha: f64,
        threads: usize,
    ) -> io::Result<KnnBatch<O>> {
        let _guard = self.latch_shared()?;
        parallel_map(threads, queries, |_, q| {
            let mut col = self.collector();
            let nn = self.knn_locked(
                q,
                k,
                Traversal::Incremental,
                alpha,
                spb_accel::Positioning::Auto,
                &mut col,
            )?;
            Ok((nn, col.finish()))
        })
        .into_iter()
        .collect()
    }
}

#[cfg(test)]
mod tests {
    use crate::config::SpbConfig;
    use crate::tree::SpbTree;
    use spb_metric::dataset;
    use spb_storage::TempDir;

    #[test]
    fn range_batch_matches_sequential_queries() {
        let data = dataset::words(500, 61);
        let dir = TempDir::new("batch-range");
        let tree = SpbTree::build(
            dir.path(),
            &data,
            dataset::words_metric(),
            &SpbConfig::default(),
        )
        .unwrap();
        let queries: Vec<_> = data.iter().take(16).map(|q| (q.clone(), 2.0)).collect();

        // Sequential reference under the paper's protocol.
        let mut want = Vec::new();
        for (q, r) in &queries {
            tree.flush_caches();
            let (hits, stats) = tree.range(q, *r).unwrap();
            let mut ids: Vec<u32> = hits.iter().map(|&(id, _)| id).collect();
            ids.sort_unstable();
            want.push((ids, stats));
        }

        for threads in [1, 4] {
            let got = tree.range_batch(&queries, threads).unwrap();
            assert_eq!(got.len(), want.len());
            for (i, ((hits, stats), (want_ids, want_stats))) in got.iter().zip(&want).enumerate() {
                let mut ids: Vec<u32> = hits.iter().map(|&(id, _)| id).collect();
                ids.sort_unstable();
                assert_eq!(&ids, want_ids, "query {i}, {threads} threads");
                assert_eq!(stats.compdists, want_stats.compdists);
                assert_eq!(stats.page_accesses, want_stats.page_accesses);
                assert_eq!(stats.btree_pa, want_stats.btree_pa);
                assert_eq!(stats.raf_pa, want_stats.raf_pa);
            }
        }
    }

    #[test]
    fn knn_batch_matches_sequential_queries() {
        let data = dataset::color(400, 62);
        let dir = TempDir::new("batch-knn");
        let tree = SpbTree::build(
            dir.path(),
            &data,
            dataset::color_metric(),
            &SpbConfig::default(),
        )
        .unwrap();
        let queries: Vec<_> = data.iter().take(12).cloned().collect();

        let mut want = Vec::new();
        for q in &queries {
            tree.flush_caches();
            let (nn, stats) = tree.knn(q, 5).unwrap();
            let ids: Vec<u32> = nn.iter().map(|&(id, _, _)| id).collect();
            want.push((ids, stats));
        }

        for threads in [1, 4] {
            let got = tree.knn_batch(&queries, 5, threads).unwrap();
            for (i, ((nn, stats), (want_ids, want_stats))) in got.iter().zip(&want).enumerate() {
                let ids: Vec<u32> = nn.iter().map(|&(id, _, _)| id).collect();
                assert_eq!(&ids, want_ids, "query {i}, {threads} threads");
                assert_eq!(stats.compdists, want_stats.compdists);
                assert_eq!(stats.page_accesses, want_stats.page_accesses);
            }
        }
    }

    #[test]
    fn same_query_twice_in_a_batch_reports_identical_stats() {
        // Per-query stats must be independent: the first instance warming
        // the shared cache for the second must not change what either
        // reports.
        let data = dataset::words(400, 63);
        let dir = TempDir::new("batch-dup");
        let tree = SpbTree::build(
            dir.path(),
            &data,
            dataset::words_metric(),
            &SpbConfig::default(),
        )
        .unwrap();
        let q = data[7].clone();
        let queries = vec![(q.clone(), 2.0), (q.clone(), 2.0), (q, 2.0)];
        let got = tree.range_batch(&queries, 3).unwrap();
        for w in got.windows(2) {
            let (a, b) = (&w[0].1, &w[1].1);
            assert_eq!(a.compdists, b.compdists);
            assert_eq!(a.page_accesses, b.page_accesses);
            assert_eq!(a.btree_pa, b.btree_pa);
            assert_eq!(a.raf_pa, b.raf_pa);
            assert_eq!(w[0].0, w[1].0, "identical queries, identical results");
        }
    }

    #[test]
    fn query_batch_runs_the_plan_with_its_factor_unchanged() {
        use crate::{QueryAnswers, QueryPlan, QueryShape};
        let data = dataset::words(400, 65);
        let dir = TempDir::new("batch-plan");
        let tree = SpbTree::build(
            dir.path(),
            &data,
            dataset::words_metric(),
            &SpbConfig::default(),
        )
        .unwrap();
        let queries = &data[..4];
        // 1.8 and 1.9 do not survive a round trip through the reciprocal; a
        // plan must hand `knn_locked` the factor it was built with.
        for alpha in [1.8f64, 1.9] {
            assert_ne!(alpha.recip().recip().to_bits(), alpha.to_bits());
            let plan = QueryPlan::new(QueryShape::Knn { k: 5 }, Some(alpha)).unwrap();
            let QueryAnswers::Knn(rows) = tree.query_batch(plan, queries, 1).unwrap() else {
                panic!("a kNN plan answers kNN rows");
            };
            let seen = crate::knn::LAST_ALPHA_BITS.with(|bits| bits.get());
            assert_eq!(
                seen,
                alpha.to_bits(),
                "alpha {alpha} reached knn_locked changed"
            );
            for (q, (nn, stats)) in queries.iter().zip(&rows) {
                let (want, want_stats) = tree.knn_approx(q, 5, alpha).unwrap();
                assert_eq!(nn, &want);
                assert_eq!(stats.compdists, want_stats.compdists);
                assert_eq!(stats.page_accesses, want_stats.page_accesses);
            }
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let data = dataset::words(50, 64);
        let dir = TempDir::new("batch-empty");
        let tree = SpbTree::build(
            dir.path(),
            &data,
            dataset::words_metric(),
            &SpbConfig::default(),
        )
        .unwrap();
        assert!(tree.range_batch(&[], 4).unwrap().is_empty());
        assert!(tree.knn_batch(&[], 3, 4).unwrap().is_empty());
    }
}
