//! Fig. 17 — similarity join performance vs ε (% of d⁺): SPB-tree SJA vs
//! the eD-index join vs (improved) Quickjoin, on disjoint halves Q/O of
//! each dataset.
//!
//! Paper's shape: SJA wins overall (single merge pass over two clustered
//! leaf levels); the eD-index suffers duplicated page accesses from
//! ε-overloading and must be rebuilt per ε; Quickjoin reports no PA (it
//! is an in-memory algorithm) and its compdists sit above SJA's. All
//! costs grow with ε.

use spb_core::similarity_join;
use spb_mams::{quickjoin_rs, QuickJoinParams};
use spb_metric::{dataset, Distance, MetricObject};

use crate::experiments::common::{build_edindex, build_join_pair, single};
use crate::runner::fmt_num;
use crate::{Scale, Table};

const EPS_PCT: [f64; 5] = [2.0, 4.0, 6.0, 8.0, 10.0];

fn sweep_for<O: MetricObject, D: Distance<O> + Clone>(
    name: &str,
    q_data: &[O],
    o_data: &[O],
    metric: D,
) {
    let d_plus = metric.max_distance();
    let (_dq, _do, spb_q, spb_o) =
        build_join_pair(&format!("f17-{name}"), q_data, o_data, metric.clone());
    let mut t = Table::new(
        &format!("Fig. 17 ({name}): similarity join vs eps (% of d+)"),
        &["eps(%)", "Algorithm", "PA", "compdists", "Time(s)", "pairs"],
    );
    for pct in EPS_PCT {
        let eps = d_plus * pct / 100.0;
        // SPB-tree SJA.
        spb_q.flush_caches();
        spb_o.flush_caches();
        let (pairs, stats) = similarity_join(&spb_q, &spb_o, eps).expect("SJA");
        let avg = single(stats);
        t.row(vec![
            format!("{pct}"),
            "SPB-SJA".into(),
            fmt_num(avg.pa),
            fmt_num(avg.compdists),
            format!("{:.4}", avg.time_s),
            pairs.len().to_string(),
        ]);
        // eD-index (rebuilt per ε — its build-time limitation).
        let (_dir, ed) = build_edindex(
            &format!("f17-ed-{name}"),
            q_data,
            o_data,
            metric.clone(),
            eps,
        );
        ed.flush_caches();
        let (ed_pairs, ed_stats) = ed.join(eps).expect("eD-index join");
        let ed_avg = single(ed_stats);
        t.row(vec![
            format!("{pct}"),
            "eD-index".into(),
            fmt_num(ed_avg.pa),
            fmt_num(ed_avg.compdists),
            format!("{:.4}", ed_avg.time_s),
            ed_pairs.len().to_string(),
        ]);
        // Quickjoin (in-memory: the paper reports no PA for it).
        let t0 = spb_obs::clock::now();
        let (qj_pairs, qj_cd) =
            quickjoin_rs(q_data, o_data, &metric, eps, &QuickJoinParams::default());
        t.row(vec![
            format!("{pct}"),
            "QJA".into(),
            "-".into(),
            fmt_num(qj_cd as f64),
            format!("{:.4}", t0.elapsed().as_secs_f64()),
            qj_pairs.len().to_string(),
        ]);
        assert_eq!(
            pairs.len(),
            qj_pairs.len(),
            "join algorithms must agree on the result size"
        );
        assert_eq!(pairs.len(), ed_pairs.len());
    }
    t.print();
}

/// Reproduces Fig. 17 at the given scale.
pub fn run(scale: Scale) {
    let seed = scale.seed();
    let side = scale.join_side();
    {
        let all = dataset::words(2 * side, seed);
        let (q, o) = all.split_at(side);
        sweep_for("Words", q, o, dataset::words_metric());
    }
    {
        let all = dataset::color(2 * side, seed);
        let (q, o) = all.split_at(side);
        sweep_for("Color", q, o, dataset::color_metric());
    }
}
