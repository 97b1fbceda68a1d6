//! Ablation study (beyond the paper): the contribution of each RQA design
//! choice DESIGN.md calls out.
//!
//! * **Lemma 2** — accepting objects without a distance computation when a
//!   pivot ball lies inside the query ball;
//! * **pivot count** 1 vs the default 5 — how much the pivot mapping
//!   itself buys (|P| = 1 degenerates towards a one-pivot ring index).
//!
//! All variants return identical result sets (asserted); only costs move.

use spb_core::SpbConfig;
use spb_metric::{dataset, Distance, MetricObject};

use crate::experiments::common::{build_spb, range_avg, workload};
use crate::runner::fmt_num;
use crate::{Scale, Table};

fn ablate<O: MetricObject, D: Distance<O> + Clone>(
    name: &str,
    data: &[O],
    metric: D,
    scale: Scale,
) {
    let d_plus = metric.max_distance();
    let r = d_plus * 0.08;
    let queries = workload(data, &scale);
    let variants: [(&str, SpbConfig); 3] = [
        ("full SPB-tree", SpbConfig::default()),
        (
            "without Lemma 2",
            SpbConfig {
                use_lemma2: false,
                ..SpbConfig::default()
            },
        ),
        ("|P| = 1", SpbConfig::with_pivots(1)),
    ];
    let mut t = Table::new(
        &format!("Ablation ({name}): range query, r = 8% of d+"),
        &["Variant", "PA", "compdists", "Time(s)"],
    );
    let mut baseline_hits: Option<usize> = None;
    for (label, cfg) in variants {
        let (_dir, tree) = build_spb(&format!("abl-{name}"), data, metric.clone(), &cfg);
        // Result-set equality across variants (ablations change cost only).
        let (hits, _) = tree.range(&queries[0], r).expect("range");
        match baseline_hits {
            None => baseline_hits = Some(hits.len()),
            Some(n) => assert_eq!(n, hits.len(), "ablation changed results!"),
        }
        let avg = range_avg(&tree, queries, r);
        t.row(vec![
            label.to_owned(),
            fmt_num(avg.pa),
            fmt_num(avg.compdists),
            format!("{:.4}", avg.time_s),
        ]);
    }
    t.print();
}

/// Runs the ablation study at the given scale.
pub fn run(scale: Scale) {
    let seed = scale.seed();
    ablate(
        "Words",
        &dataset::words(scale.words(), seed),
        dataset::words_metric(),
        scale,
    );
    ablate(
        "Color",
        &dataset::color(scale.color(), seed),
        dataset::color_metric(),
        scale,
    );
}
