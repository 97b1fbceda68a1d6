//! Order statistics for latency samples and for comparing runs.

/// Samples that must lie beyond a reported tail percentile for it to be
/// more than one slow operation.
pub const TAIL_SAMPLES: usize = 10;

/// A percentile in tenths of a percent, so that ranks are whole numbers.
pub type PerMille = usize;
pub const P50: PerMille = 500;
pub const P99: PerMille = 990;

/// The tail percentiles tried, highest first.
const TAILS: [PerMille; 6] = [999, P99, 950, 900, 750, P50];

/// Nearest rank of percentile `p` among `n` samples, from 1.
fn rank(n: usize, p: PerMille) -> usize {
    (n * p).div_ceil(1000).clamp(1, n)
}

/// Sorts in place and returns the value at percentile `p`.
pub fn quantile(samples: &mut [f64], p: PerMille) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    samples.sort_by(f64::total_cmp);
    quantile_sorted(samples, p)
}

/// Nearest-rank percentile of an ascending slice.
pub fn quantile_sorted(sorted: &[f64], p: PerMille) -> f64 {
    sorted[rank(sorted.len(), p) - 1]
}

pub fn median(samples: &mut [f64]) -> f64 {
    quantile(samples, P50)
}

/// The highest of the standard tail percentiles that still has at least
/// [`TAIL_SAMPLES`] samples beyond it, capped at `cap` (a metric named
/// `p99` never reports a higher percentile than that).
pub fn supported_tail(n: usize, cap: PerMille) -> PerMille {
    TAILS
        .iter()
        .copied()
        .filter(|&p| p <= cap)
        .find(|&p| n > 0 && n - rank(n, p) >= TAIL_SAMPLES)
        .unwrap_or(P50)
}

/// Median and supported tail of one op type's latencies.
#[derive(Clone, Copy, Debug)]
pub struct Latency {
    pub n: usize,
    pub p50: f64,
    /// Which percentile `tail` is ([`P99`] when `n ≥ 1000`).
    pub tail_p: PerMille,
    pub tail: f64,
}

pub fn latency(samples: &mut [f64]) -> Latency {
    samples.sort_by(f64::total_cmp);
    let tail_p = supported_tail(samples.len(), P99);
    Latency {
        n: samples.len(),
        p50: quantile_sorted(samples, P50),
        tail_p,
        tail: quantile_sorted(samples, tail_p),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond_it() {
        assert_eq!(supported_tail(10_000, 1000), 999);
        assert_eq!(supported_tail(10_000, P99), P99);
        assert_eq!(supported_tail(1_000, P99), P99);
        assert_eq!(supported_tail(999, P99), 950);
        assert_eq!(supported_tail(200, P99), 950);
        assert_eq!(supported_tail(199, P99), 900);
        assert_eq!(supported_tail(100, P99), 900);
        assert_eq!(supported_tail(40, P99), 750);
        assert_eq!(supported_tail(20, P99), P50);
        assert_eq!(supported_tail(3, P99), P50);
        assert_eq!(supported_tail(0, P99), P50);
    }

    #[test]
    fn nearest_rank_quantiles() {
        let mut v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(quantile(&mut v, P50), 500.0);
        assert_eq!(quantile(&mut v, P99), 990.0);
        let l = latency(&mut v);
        assert_eq!((l.n, l.p50, l.tail_p, l.tail), (1000, 500.0, P99, 990.0));
        // Exactly ten samples lie beyond the reported tail.
        assert_eq!(v.iter().filter(|&&x| x > l.tail).count(), TAIL_SAMPLES);
    }
}
