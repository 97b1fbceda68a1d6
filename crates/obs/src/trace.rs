//! Bounded in-memory ring of recent trace events.
//!
//! Tracing is off by default: [`emit`] checks one relaxed atomic and
//! returns, so disabled tracing costs a single load on the span-drop
//! path. When enabled (`spb-cli serve --trace`), each completed span
//! pushes a [`TraceEvent`] into a global ring that keeps the most
//! recent [`RING_CAPACITY`] events; [`recent`] copies them out for
//! snapshot dumps and [`drain`] empties the ring.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Maximum events retained; older events are dropped first.
pub(crate) const RING_CAPACITY: usize = 1024;

/// One completed span: which phase, when it ended (nanoseconds since
/// the process trace epoch), and how long it took.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Span name (e.g. `"traversal"`).
    pub name: String,
    /// End time, in nanoseconds since the first trace-clock use in this
    /// process. Only meaningful relative to other events from the same
    /// process.
    pub at_nanos: u64,
    /// Span duration in nanoseconds.
    pub dur_nanos: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);

fn ring() -> &'static Mutex<VecDeque<TraceEvent>> {
    static RING: OnceLock<Mutex<VecDeque<TraceEvent>>> = OnceLock::new();
    RING.get_or_init(|| Mutex::new(VecDeque::with_capacity(RING_CAPACITY)))
}

/// Nanoseconds since the process trace epoch (anchored lazily on first
/// use).
fn epoch_nanos() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    crate::clock::nanos_since(*EPOCH.get_or_init(crate::clock::now))
}

/// Turns the trace ring on or off. Off (the default) makes [`emit`] a
/// single relaxed load.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether the ring is currently recording.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Records a completed span into the ring if tracing is enabled.
/// Called from `SpanGuard::drop`.
#[inline]
pub fn emit(name: &str, dur_nanos: u64) {
    if !enabled() {
        return;
    }
    let ev = TraceEvent {
        name: name.to_owned(),
        at_nanos: epoch_nanos(),
        dur_nanos,
    };
    let mut r = ring()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if r.len() == RING_CAPACITY {
        r.pop_front();
    }
    r.push_back(ev);
}

/// Copies out the retained events, oldest first, leaving the ring
/// intact.
pub fn recent() -> Vec<TraceEvent> {
    ring()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .iter()
        .cloned()
        .collect()
}

/// Removes and returns the retained events, oldest first.
pub fn drain() -> Vec<TraceEvent> {
    ring()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .drain(..)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    // The ring and enabled flag are process-global, so these tests
    // serialize on one lock to avoid cross-test interference.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn disabled_ring_records_nothing() {
        let _g = serial();
        set_enabled(false);
        drain();
        emit("ignored", 1);
        assert!(recent().is_empty());
    }

    #[test]
    fn enabled_ring_records_in_order() {
        let _g = serial();
        set_enabled(true);
        drain();
        emit("a", 10);
        emit("b", 20);
        set_enabled(false);
        let evs = drain();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].name, "a");
        assert_eq!(evs[0].dur_nanos, 10);
        assert_eq!(evs[1].name, "b");
        assert!(evs[1].at_nanos >= evs[0].at_nanos);
    }

    #[test]
    fn ring_is_bounded_dropping_oldest() {
        let _g = serial();
        set_enabled(true);
        drain();
        for i in 0..(RING_CAPACITY as u64 + 10) {
            emit("e", i);
        }
        set_enabled(false);
        let evs = drain();
        assert_eq!(evs.len(), RING_CAPACITY);
        assert_eq!(evs[0].dur_nanos, 10); // first 10 were evicted
        assert_eq!(
            evs.last().map(|e| e.dur_nanos),
            Some(RING_CAPACITY as u64 + 9)
        );
    }

    #[test]
    fn recent_leaves_ring_intact() {
        let _g = serial();
        set_enabled(true);
        drain();
        emit("keep", 5);
        set_enabled(false);
        assert_eq!(recent().len(), 1);
        assert_eq!(recent().len(), 1);
        drain();
    }
}
