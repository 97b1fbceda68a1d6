//! The process-global metrics registry.
//!
//! Metrics are created by name with [`counter`] / [`gauge`] /
//! [`histogram`]: the first call registers, later calls return the same
//! underlying metric (so every buffer pool naming `pool.hits` shares
//! it, and totals stay process-wide). Instrumented code
//! calls these once — at construction or through a `OnceLock` — and
//! holds the `Arc`, so the registry's mutexes are touched only at
//! registration and snapshot time, never on the per-event fast path.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::hist::{Histogram, HistogramSnapshot};
use crate::trace::TraceEvent;

/// A monotonically increasing counter (relaxed atomics).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter.
    pub fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    /// Adds one.
    #[inline]
    pub fn incr(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An instantaneous signed value (queue depths, active connections).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// A zeroed gauge.
    pub fn new() -> Gauge {
        Gauge(AtomicI64::new(0))
    }

    /// Sets the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `d` (may be negative).
    #[inline]
    pub fn adjust(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// The name → metric tables. One process-global instance lives behind
/// [`global`]; tests may build private registries.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<Vec<(String, Arc<Counter>)>>,
    gauges: Mutex<Vec<(String, Arc<Gauge>)>>,
    hists: Mutex<Vec<(String, Arc<Histogram>)>>,
}

fn poison_free<T>(r: Result<T, std::sync::PoisonError<T>>) -> T {
    // A panicking registrant cannot corrupt a Vec push that completed;
    // recover the guard rather than propagate the poison.
    r.unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Get-or-register a counter under `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut t = poison_free(self.counters.lock());
        if let Some((_, c)) = t.iter().find(|(n, _)| n == name) {
            return Arc::clone(c);
        }
        let c = Arc::new(Counter::new());
        t.push((name.to_owned(), Arc::clone(&c)));
        c
    }

    /// Get-or-register a gauge under `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut t = poison_free(self.gauges.lock());
        if let Some((_, g)) = t.iter().find(|(n, _)| n == name) {
            return Arc::clone(g);
        }
        let g = Arc::new(Gauge::new());
        t.push((name.to_owned(), Arc::clone(&g)));
        g
    }

    /// Get-or-register a histogram under `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut t = poison_free(self.hists.lock());
        if let Some((_, h)) = t.iter().find(|(n, _)| n == name) {
            return Arc::clone(h);
        }
        let h = Arc::new(Histogram::new());
        t.push((name.to_owned(), Arc::clone(&h)));
        h
    }

    /// Point-in-time view of every registered metric (sorted by name)
    /// plus the recent trace events when the [`crate::trace`] ring is
    /// enabled.
    pub fn snapshot(&self) -> Snapshot {
        let mut counters: Vec<(String, u64)> = poison_free(self.counters.lock())
            .iter()
            .map(|(n, c)| (n.clone(), c.get()))
            .collect();
        let mut gauges: Vec<(String, i64)> = poison_free(self.gauges.lock())
            .iter()
            .map(|(n, g)| (n.clone(), g.get()))
            .collect();
        let mut hists: Vec<(String, HistogramSnapshot)> = poison_free(self.hists.lock())
            .iter()
            .map(|(n, h)| (n.clone(), h.snapshot()))
            .collect();
        counters.sort_by(|a, b| a.0.cmp(&b.0));
        gauges.sort_by(|a, b| a.0.cmp(&b.0));
        hists.sort_by(|a, b| a.0.cmp(&b.0));
        Snapshot {
            counters,
            gauges,
            hists,
            traces: crate::trace::recent(),
        }
    }
}

/// A serializable point-in-time view of the registry. This is what the
/// `ObsStats` wire op ships to `spb-cli stats`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// Counter name → value.
    pub counters: Vec<(String, u64)>,
    /// Gauge name → value.
    pub gauges: Vec<(String, i64)>,
    /// Histogram name → summary.
    pub hists: Vec<(String, HistogramSnapshot)>,
    /// Recent trace events (empty unless the trace ring is enabled).
    pub traces: Vec<TraceEvent>,
}

impl Snapshot {
    /// Looks up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Looks up a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Looks up a histogram summary by name.
    pub fn hist(&self, name: &str) -> Option<HistogramSnapshot> {
        self.hists.iter().find(|(n, _)| n == name).map(|&(_, h)| h)
    }
}

/// The process-global registry.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Get-or-register a counter in the global registry.
pub fn counter(name: &str) -> Arc<Counter> {
    global().counter(name)
}

/// Get-or-register a gauge in the global registry.
pub fn gauge(name: &str) -> Arc<Gauge> {
    global().gauge(name)
}

/// Get-or-register a histogram in the global registry.
pub fn histogram(name: &str) -> Arc<Histogram> {
    global().histogram(name)
}

/// Snapshot of the global registry.
pub fn snapshot() -> Snapshot {
    global().snapshot()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_register_returns_the_same_metric() {
        let r = Registry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.incr();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert!(Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(&a, &r.counter("y")));
    }

    #[test]
    fn snapshot_reflects_all_three_kinds() {
        let r = Registry::new();
        r.counter("c").add(7);
        r.gauge("g").set(-3);
        r.histogram("h").record(100);
        let s = r.snapshot();
        assert_eq!(s.counter("c"), Some(7));
        assert_eq!(s.gauge("g"), Some(-3));
        let h = s.hist("h").expect("registered histogram");
        assert_eq!(h.count, 1);
        assert_eq!(s.counter("missing"), None);
    }

    #[test]
    fn snapshot_is_sorted_by_name() {
        let r = Registry::new();
        r.counter("zz");
        r.counter("aa");
        let s = r.snapshot();
        let names: Vec<&str> = s.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["aa", "zz"]);
    }

    #[test]
    fn global_registry_is_shared() {
        let c = counter("registry-test.shared");
        c.add(5);
        assert_eq!(
            snapshot().counter("registry-test.shared"),
            Some(counter("registry-test.shared").get())
        );
    }
}
