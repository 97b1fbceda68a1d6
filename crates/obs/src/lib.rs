//! `spb-obs`: the workspace's observability layer.
//!
//! BENCH_server.json showed QPS pinned at ~218 from 1 to 8 clients while
//! p99 grew linearly — the service serializes *somewhere* between the
//! accept loop, the admission queue, the tree latch and fsync, and
//! nothing in the codebase could say where. This crate extends the
//! paper's per-query cost discipline (`QueryStats`: compdists / *PA* /
//! fsyncs) into a whole-service metrics layer, so the bottleneck becomes
//! a one-command diagnosis (`spb-cli stats --addr ...`).
//!
//! ## Design
//!
//! * **Dependency-free.** The build environment is offline; like the
//!   rest of the workspace this crate uses std only.
//! * **Always-on, relaxed-ordering fast path.** Every primitive is a
//!   plain atomic updated with `Ordering::Relaxed`: a counter increment
//!   is one `fetch_add`, a histogram record is three. There is no
//!   feature gate and no lock anywhere on the record path, so the
//!   instrumentation can stay enabled in production builds (the `bench
//!   server` experiment measures and asserts the overhead is < 2 % of a
//!   request).
//! * **Process-global registry.** Metrics are registered by name on
//!   first use ([`counter`] / [`gauge`] / [`histogram`] get-or-register)
//!   and the returned `Arc` handle is cached by the instrumented code,
//!   so the registry mutex is touched only at registration and
//!   [`snapshot`] time — never per event.
//! * **Log-bucketed histograms.** [`Histogram`] buckets by
//!   `floor(log2(value))` into 64 fixed buckets: recording is lock-free
//!   and a snapshot reports count / sum / max plus p50 / p90 / p99
//!   estimated from the bucket boundaries (resolution is a factor of
//!   two, which is exactly enough to rank request phases).
//! * **Span tracing.** [`SpanGuard`] (or the [`span!`] macro) times a
//!   region and records its duration into a named histogram on drop;
//!   when the bounded [`trace`] ring is enabled each span also emits a
//!   trace event for `--trace` dumps.
//! * **Centralized clock.** [`clock::now`] / [`clock::nanos_since`] are
//!   the sanctioned timing entry points; the root `clippy.toml`
//!   disallows a bare `Instant::now()` anywhere else in the workspace,
//!   so timing stays in one mockable place.
//!
//! ## Metric name catalog
//!
//! See DESIGN.md §11 for the full catalog. The request lifecycle phases
//! are `phase.queue_wait`, `phase.latch_wait`, `phase.traversal`,
//! `phase.buffer_io`, `phase.wal_fsync` and `phase.encode` (all in
//! nanoseconds); `latch_wait` / `buffer_io` / `wal_fsync` are *nested
//! inside* `traversal`, so the additive identity for one request is
//! `queue_wait + traversal + encode ≈ server-side latency`.

// The no-panic zones (DESIGN.md §10) call into this crate: a literal
// panic site in its library code needs an item-level `allow` and a why.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]
#![warn(missing_docs)]

pub mod hist;
pub mod registry;
pub mod trace;

pub use hist::{Histogram, HistogramSnapshot};
pub use registry::{counter, gauge, histogram, snapshot, Counter, Gauge, Registry, Snapshot};
pub use trace::TraceEvent;

use std::time::Instant;

/// The sanctioned timing source.
///
/// Every crate takes timestamps through these helpers instead of calling
/// `Instant::now()` directly — clippy's `disallowed_methods` lint, set
/// in the root `clippy.toml`, enforces it. Centralizing the clock keeps
/// every measurement on one source and leaves a single seam for mocking.
pub mod clock {
    use std::time::Instant;

    /// The current instant (the one sanctioned acquisition point).
    #[inline]
    #[allow(clippy::disallowed_methods)] // the one caller clippy.toml admits
    pub fn now() -> Instant {
        Instant::now()
    }

    /// Nanoseconds elapsed since `start`, saturating at `u64::MAX`.
    #[inline]
    pub fn nanos_since(start: Instant) -> u64 {
        let n = start.elapsed().as_nanos();
        u64::try_from(n).unwrap_or(u64::MAX)
    }
}

/// RAII span: times a region and records its duration (nanoseconds)
/// into `hist` on drop. When the [`trace`] ring is enabled the span
/// also emits a [`TraceEvent`].
pub struct SpanGuard<'a> {
    hist: &'a Histogram,
    name: &'static str,
    start: Instant,
}

impl<'a> SpanGuard<'a> {
    /// Starts a span against `hist`, labelled `name` for trace dumps.
    #[inline]
    pub fn enter(hist: &'a Histogram, name: &'static str) -> SpanGuard<'a> {
        SpanGuard {
            hist,
            name,
            start: clock::now(),
        }
    }
}

impl Drop for SpanGuard<'_> {
    #[inline]
    fn drop(&mut self) {
        let nanos = clock::nanos_since(self.start);
        self.hist.record(nanos);
        trace::emit(self.name, nanos);
    }
}

/// Times the enclosing scope into a histogram:
/// `let _span = span!(&phase_hist, "traverse");`
#[macro_export]
macro_rules! span {
    ($hist:expr, $name:expr) => {
        $crate::SpanGuard::enter($hist, $name)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_guard_records_into_histogram() {
        let h = Histogram::new();
        {
            let _span = span!(&h, "test-span");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1);
        assert!(s.max >= 2_000_000, "slept 2ms, recorded {}ns", s.max);
        assert!(s.sum == s.max);
    }

    #[test]
    fn clock_nanos_are_monotone() {
        let t0 = clock::now();
        let a = clock::nanos_since(t0);
        let b = clock::nanos_since(t0);
        assert!(b >= a);
    }
}
