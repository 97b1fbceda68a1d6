//! Lock-free log-bucketed histogram.
//!
//! 64 fixed buckets: value `0` lands in bucket 0, any other value `v`
//! in bucket `min(63, 64 - v.leading_zeros())`, i.e. bucket `b ≥ 1`
//! covers `[2^(b-1), 2^b)`. Recording touches three relaxed atomics
//! (bucket, sum, max) and never allocates or locks, so histograms are
//! safe on the hottest paths. Quantiles are estimated at snapshot time
//! by walking the cumulative bucket counts and taking the midpoint of
//! the crossing bucket — a factor-of-two resolution, which is exactly
//! enough to rank request phases against each other.
//!
//! A snapshot's `count` is derived as the sum of the bucket counts (not
//! kept as a separate atomic), so a concurrent snapshot can never see a
//! count that disagrees with its own buckets: every event it counts is
//! in exactly one bucket it read.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets: one per power of two of `u64` plus the zero
/// bucket, capped so the top bucket absorbs everything `≥ 2^62`.
pub(crate) const BUCKETS: usize = 64;

/// A lock-free log₂-bucketed histogram of `u64` samples (latency
/// histograms record nanoseconds; size histograms record bytes).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Bucket index of a value: 0 for 0, else `64 - leading_zeros`, capped.
#[inline]
fn bucket_of(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        let b = 64 - value.leading_zeros() as usize;
        b.min(BUCKETS - 1)
    }
}

/// Inclusive lower bound of bucket `b`.
fn bucket_lo(b: usize) -> u64 {
    if b == 0 {
        0
    } else {
        1u64 << (b - 1)
    }
}

/// Representative value reported for a quantile landing in bucket `b`:
/// the midpoint of the bucket's range.
fn bucket_mid(b: usize) -> u64 {
    if b == 0 {
        return 0;
    }
    let lo = bucket_lo(b);
    lo + lo / 2
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample: three relaxed atomic ops, no locks, no
    /// allocation.
    #[inline]
    pub fn record(&self, value: u64) {
        let b = bucket_of(value);
        self.buckets[b].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Reads the bucket counts and derives count / quantiles. Concurrent
    /// recorders may land events between bucket reads; the snapshot is
    /// a consistent lower bound (every counted event is in a bucket the
    /// snapshot read).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut counts = [0u64; BUCKETS];
        let mut count = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            counts[i] = b.load(Ordering::Relaxed);
            count += counts[i];
        }
        let max = self.max.load(Ordering::Relaxed);
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            max,
            p50: quantile(&counts, count, max, 0.50),
            p90: quantile(&counts, count, max, 0.90),
            p99: quantile(&counts, count, max, 0.99),
        }
    }

    /// Zeroes every bucket and the sum/max (between bench phases).
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// Quantile estimate: midpoint of the bucket where the cumulative count
/// crosses `q * count`, clamped to the observed max (the top bucket's
/// midpoint can exceed it).
fn quantile(counts: &[u64; BUCKETS], count: u64, max: u64, q: f64) -> u64 {
    if count == 0 {
        return 0;
    }
    let rank = ((count as f64) * q).ceil() as u64;
    let rank = rank.clamp(1, count);
    let mut cum = 0u64;
    for (b, &c) in counts.iter().enumerate() {
        cum += c;
        if cum >= rank {
            return bucket_mid(b).min(max);
        }
    }
    max
}

/// Point-in-time view of one histogram.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all samples (mean = `sum / count`).
    pub sum: u64,
    /// Largest sample seen.
    pub max: u64,
    /// Estimated median (log-bucket resolution).
    pub p50: u64,
    /// Estimated 90th percentile.
    pub p90: u64,
    /// Estimated 99th percentile.
    pub p99: u64,
}

impl HistogramSnapshot {
    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn empty_histogram_snapshot_is_zero() {
        let s = Histogram::new().snapshot();
        assert_eq!(s, HistogramSnapshot::default());
        assert_eq!(s.mean(), 0);
    }

    #[test]
    fn count_sum_max_are_exact() {
        let h = Histogram::new();
        for v in [0u64, 1, 5, 100, 1000, 1_000_000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 1_001_106);
        assert_eq!(s.max, 1_000_000);
    }

    #[test]
    fn quantiles_are_within_a_factor_of_two() {
        let h = Histogram::new();
        for _ in 0..98 {
            h.record(1_000); // ~p50 and p90 land here
        }
        h.record(1_000_000);
        h.record(1_000_000); // p99 tail
        let s = h.snapshot();
        assert!(
            s.p50 >= 512 && s.p50 <= 2_000,
            "p50 {} should bracket 1000",
            s.p50
        );
        assert!(
            s.p99 >= 500_000,
            "p99 {} should land in the tail bucket",
            s.p99
        );
        assert!(s.p50 <= s.p90 && s.p90 <= s.p99);
        assert!(s.p99 <= s.max);
    }

    #[test]
    fn quantiles_never_exceed_observed_max() {
        let h = Histogram::new();
        h.record(3); // bucket [2,4), midpoint 3
        let s = h.snapshot();
        assert_eq!(s.p50, 3);
        assert_eq!(s.p99, 3);
    }

    #[test]
    fn reset_zeroes_everything() {
        let h = Histogram::new();
        h.record(42);
        h.reset();
        assert_eq!(h.snapshot(), HistogramSnapshot::default());
    }
}
