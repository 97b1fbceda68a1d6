//! Metric names, the result a run prints, and comparing two results.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// `(name, unit, better, bound)`: the end-to-end metrics, every one
/// reported by every workload. `bound` is the share of the parent's
/// median by which the metric may get worse.
pub const END_TO_END: [(&str, &str, &str, f64); 13] = [
    ("setup_s", "s", "lower", 0.25),
    ("range_p50_us", "us", "lower", 0.25),
    ("range_p99_us", "us", "lower", 0.25),
    ("knn_p50_us", "us", "lower", 0.25),
    ("knn_p99_us", "us", "lower", 0.25),
    ("insert_p50_us", "us", "lower", 0.25),
    ("throughput_ops_s", "ops/s", "higher", 0.25),
    ("slo_rate_rps", "req/s", "higher", 0.2),
    ("compdists_per_query", "count", "lower", 0.1),
    ("page_accesses_per_query", "count", "lower", 0.1),
    ("storage_bytes_per_object", "B", "lower", 0.02),
    ("wal_bytes_per_insert", "B", "lower", 0.05),
    ("peak_rss_mb", "MB", "lower", 0.1),
];

/// `(name, unit, better)`: the per-layer metrics, `layer.metric`, every
/// one reported by every workload's traced pass.
pub const PER_LAYER: [(&str, &str, &str); 94] = [
    ("metric.edit.ns_per_dist", "ns", "lower"),
    ("metric.l2.ns_per_dist", "ns", "lower"),
    ("metric.compdists_per_range", "count", "lower"),
    ("metric.compdists_per_knn", "count", "lower"),
    ("metric.busy_frac", "frac", "lower"),
    ("pivots.select_s", "s", "lower"),
    ("pivots.select_compdists", "count", "lower"),
    ("mapping.phi_us", "us", "lower"),
    ("mapping.map_all_s", "s", "lower"),
    ("sfc.encode_ns", "ns", "lower"),
    ("sfc.decode_ns", "ns", "lower"),
    ("sfc.box_enum_us", "us", "lower"),
    ("sfc.busy_frac", "frac", "lower"),
    ("bptree.bulk_load_s", "s", "lower"),
    ("bptree.search_us", "us", "lower"),
    ("bptree.scan_ns_per_entry", "ns", "lower"),
    ("bptree.insert_us", "us", "lower"),
    ("bptree.node_decode_us", "us", "lower"),
    ("bptree.height", "count", "lower"),
    ("bptree.pa_per_range", "count", "lower"),
    ("bptree.pa_per_knn", "count", "lower"),
    ("bptree.busy_frac", "frac", "lower"),
    ("cache.hit_ns", "ns", "lower"),
    ("cache.miss_us", "us", "lower"),
    ("cache.hit_ratio", "frac", "higher"),
    ("cache.misses_per_query", "count", "lower"),
    ("cache.evictions_per_query", "count", "lower"),
    ("cache.busy_frac", "frac", "lower"),
    ("pager.read_page_us", "us", "lower"),
    ("pager.write_page_us", "us", "lower"),
    ("pager.disk_reads_per_query", "count", "lower"),
    ("pager.disk_writes_per_update", "count", "lower"),
    ("pager.busy_frac", "frac", "lower"),
    ("raf.get_hit_ns", "ns", "lower"),
    ("raf.get_miss_us", "us", "lower"),
    ("raf.append_us", "us", "lower"),
    ("raf.pa_per_range", "count", "lower"),
    ("raf.pa_per_knn", "count", "lower"),
    ("raf.bytes_per_object", "B", "lower"),
    ("raf.busy_frac", "frac", "lower"),
    ("wal.commit_us", "us", "lower"),
    ("wal.fsyncs_per_update", "count", "lower"),
    ("wal.bytes_per_update", "B", "lower"),
    ("wal.checkpoint_p50_ms", "ms", "lower"),
    ("wal.checkpoint_max_ms", "ms", "lower"),
    ("wal.busy_frac", "frac", "lower"),
    ("core.build_s", "s", "lower"),
    ("core.self_frac", "frac", "lower"),
    ("core.unattributed_frac", "frac", "lower"),
    ("core.verified_per_hit", "count", "lower"),
    ("core.count_p50_us", "us", "lower"),
    ("core.delete_p50_us", "us", "lower"),
    ("core.insert_tail_us", "us", "lower"),
    ("core.batch2_range_speedup", "ratio", "higher"),
    ("core.batch2_knn_speedup", "ratio", "higher"),
    ("core.join_seq_s", "s", "lower"),
    ("core.join_par1_s", "s", "lower"),
    ("core.join_par2_s", "s", "lower"),
    ("core.recovery_s", "s", "lower"),
    ("accel.train_s", "s", "lower"),
    ("accel.model_bytes", "B", "lower"),
    ("accel.learned_pa_delta", "count", "lower"),
    ("accel.learned_range_p50_ratio", "ratio", "lower"),
    ("accel.knn_a125_recall", "frac", "higher"),
    ("accel.knn_a125_compdists_ratio", "ratio", "lower"),
    ("wire.req_encode_ns", "ns", "lower"),
    ("wire.req_decode_ns", "ns", "lower"),
    ("wire.resp_encode_ns", "ns", "lower"),
    ("wire.resp_decode_ns", "ns", "lower"),
    ("wire.bytes_per_resp", "B", "lower"),
    ("server.noop_rtt_p50_us", "us", "lower"),
    ("server.noop_rtt_p99_us", "us", "lower"),
    ("server.overhead_p50_us", "us", "lower"),
    ("server.unattributed_frac", "frac", "lower"),
    ("server.queue_wait_p99_us", "us", "lower"),
    ("server.latch_wait_p99_us", "us", "lower"),
    ("server.dispatch_batch_mean", "count", "higher"),
    ("server.shed", "count", "lower"),
    ("server.deadline_miss", "count", "lower"),
    ("server.pipe16_distinct_rps", "req/s", "higher"),
    ("server.pipe16_dup_rps", "req/s", "higher"),
    ("open.r1_tail_us", "us", "lower"),
    ("open.r2_tail_us", "us", "lower"),
    ("open.r3_tail_us", "us", "lower"),
    ("open.r4_tail_us", "us", "lower"),
    ("open.gen_late_tail_us", "us", "lower"),
    ("router.range_p50_us", "us", "lower"),
    ("router.knn_p50_us", "us", "lower"),
    ("router.fanout_mean", "count", "lower"),
    ("router.overhead_p50_us", "us", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.calib_ns", "ns", "lower"),
    ("trace.io_ref_us", "us", "lower"),
];

/// What one run of one workload found.
#[derive(Clone, Debug)]
pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    /// Hash of the indexed objects and the op lists.
    pub digest: u64,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the reader.
    pub failures: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Sample counts, percentiles used, open-loop steps.
    pub notes: Vec<String>,
}

impl Report {
    pub fn new(workload: &'static str, seed: u64, digest: u64) -> Report {
        Report {
            workload,
            seed,
            digest,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            metrics: BTreeMap::new(),
            notes: Vec::new(),
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.metrics.get(name).copied().unwrap_or(f64::NAN)
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Records one failed op (error, refusal, or wrong answer).
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 10 {
            self.failures.push(why);
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The names of `defs` that the report lacks or that are not finite.
    pub fn missing<'a>(&self, names: impl Iterator<Item = &'a str>) -> Vec<&'a str> {
        names
            .filter(|n| !self.metrics.get(n).is_some_and(|v| v.is_finite()))
            .collect()
    }

    /// Every metric by name with its unit, then the notes.
    pub fn text(&self) -> String {
        let mut s = format!(
            "workload {}  seed {}  workload_digest {:016x}\n",
            self.workload, self.seed, self.digest
        );
        for (name, value) in &self.metrics {
            let _ = writeln!(s, "  {name:<34} {value:>16.4} {}", unit_of(name));
        }
        for note in &self.notes {
            let _ = writeln!(s, "  # {note}");
        }
        let _ = writeln!(
            s,
            "  ops attempted {}  failed {}",
            self.attempted, self.failed
        );
        for f in &self.failures {
            let _ = writeln!(s, "  ! {f}");
        }
        s
    }

    /// The one-line JSON object the driver reads:
    /// `correct`, `attempted`, `failed`, `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    json_number(*value),
                    unit_of(name)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// `BENCHMARK.json` as the tables above and the workload table define
/// it; `command` and `paths` are fixed by where this package lives.
pub fn manifest() -> String {
    let workloads: Vec<String> = crate::plan::SPECS
        .iter()
        .map(|s| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", s.name, s.why))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|(name, unit, better, bound)| {
            format!(
                "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\": {bound}}}"
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|(name, unit, better)| {
            format!("    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}")
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--offline\", \"--release\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\", \"run\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        crate::plan::RUN_SECONDS,
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

/// A finite number with all its digits; JSON has no NaN or infinity.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|d| (d.0, d.1))
        .chain(PER_LAYER.iter().map(|d| (d.0, d.1)))
        .find(|d| d.0 == name)
        .map_or("", |d| d.1)
}

/// Reads back the `metrics` of a line [`Report::json`] wrote: name →
/// value. The format is our own, so a scan for its two fixed markers is
/// enough.
pub fn parse_metrics(line: &str) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    let body = line.split_once("\"metrics\": {").map_or("", |p| p.1);
    let mut rest = body;
    while let Some((before, after)) = rest.split_once("\": {\"value\": ") {
        let name = before.rsplit('"').next().unwrap_or("");
        let value = after.split(',').next().unwrap_or("");
        if let Ok(v) = value.trim().parse::<f64>() {
            out.insert(name.to_owned(), v);
        }
        rest = after;
    }
    out
}

/// One line of a repeatability comparison.
pub struct Drift {
    pub name: &'static str,
    pub a: f64,
    pub b: f64,
    /// `b` against `a`, as a share of `a`, positive when worse.
    pub worse_by: f64,
    pub bound: f64,
    pub within: bool,
}

/// Compares the end-to-end metrics of two results of the same commit,
/// workload and seed: each must agree within its bound either way, and
/// the counters the program computes deterministically must be equal
/// when `exact` (single-threaded workloads).
pub fn compare(a: &BTreeMap<String, f64>, b: &BTreeMap<String, f64>, exact: bool) -> Vec<Drift> {
    const COUNTERS: [&str; 4] = [
        "compdists_per_query",
        "page_accesses_per_query",
        "storage_bytes_per_object",
        "wal_bytes_per_insert",
    ];
    END_TO_END
        .iter()
        .map(|&(name, _, better, bound)| {
            let (va, vb) = (
                a.get(name).copied().unwrap_or(f64::NAN),
                b.get(name).copied().unwrap_or(f64::NAN),
            );
            let rel = (vb - va) / va;
            let worse_by = if better == "lower" { rel } else { -rel };
            let bound = if exact && COUNTERS.contains(&name) {
                0.0
            } else {
                bound
            };
            Drift {
                name,
                a: va,
                b: vb,
                worse_by,
                bound,
                within: worse_by.abs() <= bound,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn is_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn is_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_are_contract_names_used_once() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END
            .iter()
            .map(|d| (d.0, d.1))
            .chain(PER_LAYER.iter().map(|d| (d.0, d.1)))
        {
            assert!(is_name(name), "{name}");
            assert!(is_unit(unit), "{name}: {unit}");
            assert!(seen.insert(name), "{name} used twice");
        }
        assert!(END_TO_END.iter().all(|d| d.3 <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|d| (d.0, d.1, d.2) == ("setup_s", "s", "lower")));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn benchmark_json_declares_exactly_what_the_code_emits() {
        // Names, units, directions, bounds, workloads and their order:
        // the committed file is the generated one, both ways.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            manifest(),
            "regenerate with `spb-benchmark manifest`"
        );
        assert!(committed.len() <= 64 * 1024);
    }

    #[test]
    fn json_round_trips_through_parse_metrics() {
        let mut r = Report::new("w", 1, 2);
        r.attempted = 7;
        r.set("setup_s", 0.8127);
        r.set("range_p50_us", 1203.4);
        let line = r.json();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 7, \"failed\": 0, "));
        let m = parse_metrics(&line);
        assert_eq!(m["setup_s"], 0.8127);
        assert_eq!(m["range_p50_us"], 1203.4);
        assert_eq!(m.len(), 2);
        r.fail("x".into());
        assert!(r.json().starts_with("{\"correct\": false"));
    }

    #[test]
    fn compare_flags_drift_beyond_the_bound_and_unequal_counters() {
        let base: BTreeMap<String, f64> =
            END_TO_END.iter().map(|d| (d.0.to_owned(), 100.0)).collect();
        assert!(compare(&base, &base, true).iter().all(|d| d.within));
        let mut b = base.clone();
        b.insert("range_p50_us".into(), 130.0);
        b.insert("throughput_ops_s".into(), 70.0);
        b.insert("compdists_per_query".into(), 100.5);
        let drifts = compare(&base, &b, true);
        let of = |n: &str| drifts.iter().find(|d| d.name == n).expect("metric");
        assert!(!of("range_p50_us").within && of("range_p50_us").worse_by > 0.25);
        assert!(!of("throughput_ops_s").within && of("throughput_ops_s").worse_by > 0.25);
        assert!(!of("compdists_per_query").within);
        assert!(
            compare(&base, &b, false)
                .iter()
                .find(|d| d.name == "compdists_per_query")
                .expect("metric")
                .within
        );
        assert!(of("knn_p50_us").within);
    }
}
