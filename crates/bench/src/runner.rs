//! Workload averaging (the paper's 500-query protocol).

use spb_core::QueryStats;

/// Averaged query costs: the paper's three performance metrics.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct AvgStats {
    /// Mean page accesses (*PA*).
    pub pa: f64,
    /// Mean distance computations (*compdists*).
    pub compdists: f64,
    /// Mean wall-clock seconds.
    pub time_s: f64,
    /// Mean fsyncs (durability cost; zero for queries and non-durable
    /// updates).
    pub fsyncs: f64,
    /// Queries averaged.
    pub n: usize,
}

impl AvgStats {
    /// Accumulates one query's stats.
    pub fn push(&mut self, s: &QueryStats) {
        self.pa += s.page_accesses as f64;
        self.compdists += s.compdists as f64;
        self.time_s += s.duration.as_secs_f64();
        self.fsyncs += s.fsyncs as f64;
        self.n += 1;
    }

    /// Finalises the average.
    pub fn finish(mut self) -> AvgStats {
        if self.n > 0 {
            let n = self.n as f64;
            self.pa /= n;
            self.compdists /= n;
            self.time_s /= n;
            self.fsyncs /= n;
        }
        self
    }
}

/// Runs `query` once per workload item, flushing caches via `flush`
/// before each (the paper's cold-cache protocol), and averages the stats.
pub(crate) fn average<T>(
    workload: &[T],
    mut flush: impl FnMut(),
    mut query: impl FnMut(&T) -> QueryStats,
) -> AvgStats {
    let mut acc = AvgStats::default();
    for q in workload {
        flush();
        acc.push(&query(q));
    }
    acc.finish()
}

/// Formats a float compactly for table cells (3 significant-ish digits).
pub(crate) fn fmt_num(v: f64) -> String {
    if v == 0.0 {
        "0".to_owned()
    } else if v >= 1000.0 {
        format!("{:.0}", v)
    } else if v >= 10.0 {
        format!("{:.1}", v)
    } else {
        format!("{:.3}", v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn average_divides_by_n() {
        let workload = [1u32, 2, 3, 4];
        let mut flushes = 0;
        let avg = average(
            &workload,
            || flushes += 1,
            |&x| QueryStats {
                compdists: x as u64,
                page_accesses: 10 * x as u64,
                btree_pa: 0,
                raf_pa: 0,
                fsyncs: 0,
                recall: None,
                duration: Duration::from_millis(x as u64),
            },
        );
        assert_eq!(flushes, 4);
        assert_eq!(avg.n, 4);
        assert!((avg.compdists - 2.5).abs() < 1e-12);
        assert!((avg.pa - 25.0).abs() < 1e-12);
        assert!((avg.time_s - 0.0025).abs() < 1e-9);
    }

    #[test]
    fn fmt_num_bands() {
        assert_eq!(fmt_num(0.0), "0");
        assert_eq!(fmt_num(0.1234), "0.123");
        assert_eq!(fmt_num(12.34), "12.3");
        assert_eq!(fmt_num(1234.5), "1234");
    }
}
