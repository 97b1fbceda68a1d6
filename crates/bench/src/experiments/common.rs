//! Shared experiment plumbing: index builders and averaged query runners,
//! generic over the dataset's object type and metric.

use spb_core::{QueryStats, SpbConfig, SpbTree, Traversal};
use spb_mams::{
    EdIndex, EdIndexParams, MIndex, MIndexParams, MTree, MTreeParams, OmniParams, OmniRTree,
};
use spb_metric::{Distance, MetricObject};
use spb_storage::TempDir;

use crate::runner::{average, AvgStats};
use crate::Scale;

/// Builds an SPB-tree in a fresh temp dir.
pub(crate) fn build_spb<O: MetricObject, D: Distance<O>>(
    label: &str,
    data: &[O],
    metric: D,
    cfg: &SpbConfig,
) -> (TempDir, SpbTree<O, D>) {
    let dir = TempDir::new(label);
    let tree = SpbTree::build(dir.path(), data, metric, cfg).expect("SPB build");
    (dir, tree)
}

/// Average kNN cost over `queries` with per-query cache flush.
pub(crate) fn knn_avg<O: MetricObject, D: Distance<O>>(
    tree: &SpbTree<O, D>,
    queries: &[O],
    k: usize,
    traversal: Traversal,
) -> AvgStats {
    average(
        queries,
        || tree.flush_caches(),
        |q| tree.knn_with(q, k, traversal).expect("knn").1,
    )
}

/// Average range-query cost over `queries`.
pub(crate) fn range_avg<O: MetricObject, D: Distance<O>>(
    tree: &SpbTree<O, D>,
    queries: &[O],
    r: f64,
) -> AvgStats {
    average(
        queries,
        || tree.flush_caches(),
        |q| tree.range(q, r).expect("range").1,
    )
}

/// The four MAMs of Tables 6–7 / Figs. 12–13, built over one dataset.
pub(crate) struct MamSuite<O: MetricObject, D: Distance<O>> {
    /// Keeps the index files alive.
    pub _dirs: Vec<TempDir>,
    /// The M-tree baseline.
    pub mtree: MTree<O, D>,
    /// The OmniR-tree baseline.
    pub omni: OmniRTree<O, D>,
    /// The M-Index baseline.
    pub mindex: MIndex<O, D>,
    /// The SPB-tree.
    pub spb: SpbTree<O, D>,
}

/// Builds all four MAMs with their paper-default parameters.
pub(crate) fn build_suite<O: MetricObject, D: Distance<O> + Clone>(
    label: &str,
    data: &[O],
    metric: D,
) -> MamSuite<O, D> {
    let d1 = TempDir::new(&format!("{label}-mtree"));
    let d2 = TempDir::new(&format!("{label}-omni"));
    let d3 = TempDir::new(&format!("{label}-mindex"));
    let d4 = TempDir::new(&format!("{label}-spb"));
    let mtree = MTree::build(d1.path(), data, metric.clone(), &MTreeParams::default())
        .expect("M-tree build");
    let omni = OmniRTree::build(d2.path(), data, metric.clone(), &OmniParams::default())
        .expect("OmniR-tree build");
    let mindex = MIndex::build(d3.path(), data, metric.clone(), &MIndexParams::default())
        .expect("M-Index build");
    let spb = SpbTree::build(d4.path(), data, metric, &SpbConfig::default()).expect("SPB build");
    MamSuite {
        _dirs: vec![d1, d2, d3, d4],
        mtree,
        omni,
        mindex,
        spb,
    }
}

/// Averaged range query per MAM: `[M-tree, OmniR-tree, M-Index, SPB-tree]`.
pub(crate) fn suite_range_avg<O: MetricObject, D: Distance<O>>(
    suite: &MamSuite<O, D>,
    queries: &[O],
    r: f64,
) -> [AvgStats; 4] {
    [
        average(
            queries,
            || suite.mtree.flush_caches(),
            |q| suite.mtree.range(q, r).expect("mtree range").1,
        ),
        average(
            queries,
            || suite.omni.flush_caches(),
            |q| suite.omni.range(q, r).expect("omni range").1,
        ),
        average(
            queries,
            || suite.mindex.flush_caches(),
            |q| suite.mindex.range(q, r).expect("mindex range").1,
        ),
        average(
            queries,
            || suite.spb.flush_caches(),
            |q| suite.spb.range(q, r).expect("spb range").1,
        ),
    ]
}

/// Averaged kNN per MAM: `[M-tree, OmniR-tree, M-Index, SPB-tree]`, with
/// an explicit SPB traversal — incremental is the paper's default, and it
/// uses greedy on its low-precision dataset (DNA; our Signature stand-in
/// falls in the same regime, see Section 6.1's "greedy ... default on DNA").
pub(crate) fn suite_knn_avg_with<O: MetricObject, D: Distance<O>>(
    suite: &MamSuite<O, D>,
    queries: &[O],
    k: usize,
    spb_traversal: Traversal,
) -> [AvgStats; 4] {
    [
        average(
            queries,
            || suite.mtree.flush_caches(),
            |q| suite.mtree.knn(q, k).expect("mtree knn").1,
        ),
        average(
            queries,
            || suite.omni.flush_caches(),
            |q| suite.omni.knn(q, k).expect("omni knn").1,
        ),
        average(
            queries,
            || suite.mindex.flush_caches(),
            |q| suite.mindex.knn(q, k).expect("mindex knn").1,
        ),
        average(
            queries,
            || suite.spb.flush_caches(),
            |q| suite.spb.knn_with(q, k, spb_traversal).expect("spb knn").1,
        ),
    ]
}

/// Names matching [`suite_range_avg`]'s order.
pub(crate) const MAM_NAMES: [&str; 4] = ["M-tree", "OmniR-tree", "M-Index", "SPB-tree"];

/// Builds the Q/O SPB-tree pair (shared pivots, Z-curve) for join
/// experiments.
pub(crate) fn build_join_pair<O: MetricObject, D: Distance<O> + Clone>(
    label: &str,
    q_data: &[O],
    o_data: &[O],
    metric: D,
) -> (TempDir, TempDir, SpbTree<O, D>, SpbTree<O, D>) {
    let dq = TempDir::new(&format!("{label}-q"));
    let do_ = TempDir::new(&format!("{label}-o"));
    let cfg = SpbConfig::for_join();
    let spb_o = SpbTree::build(do_.path(), o_data, metric.clone(), &cfg).expect("SPB_O");
    let spb_q = SpbTree::build_with_pivots(
        dq.path(),
        q_data,
        metric,
        spb_o.table().pivots().to_vec(),
        &cfg,
        0,
    )
    .expect("SPB_Q");
    (dq, do_, spb_q, spb_o)
}

/// One-shot stats → averaged form (for operations measured once, like a
/// whole join).
pub(crate) fn single(stats: QueryStats) -> AvgStats {
    let mut a = AvgStats::default();
    a.push(&stats);
    a.finish()
}

/// Builds the eD-index for a given ε over Q/O.
pub(crate) fn build_edindex<O: MetricObject, D: Distance<O>>(
    label: &str,
    q_data: &[O],
    o_data: &[O],
    metric: D,
    eps: f64,
) -> (TempDir, EdIndex<O, D>) {
    let dir = TempDir::new(label);
    let idx = EdIndex::build(
        dir.path(),
        q_data,
        o_data,
        metric,
        &EdIndexParams::for_eps(eps),
    )
    .expect("eD-index build");
    (dir, idx)
}

/// The query workload: the first `scale.queries()` objects (the paper's
/// protocol), excluding nothing — queries are dataset members.
pub fn workload<'a, O>(data: &'a [O], scale: &Scale) -> &'a [O] {
    &data[..scale.queries().min(data.len())]
}
