//! Admission control: a bounded queue in front of the worker pool.
//!
//! A server that accepts every request it can read degrades by queueing —
//! latency grows without bound while throughput stays flat. The admission
//! layer bounds that queue: at most `max_inflight` requests execute at
//! once, at most `max_queue` more wait, and everything beyond that is
//! *shed* immediately with an [`Overloaded`](crate::ErrorCode::Overloaded)
//! response so the client can back off or retry elsewhere. Waiting
//! requests respect their deadline — a request whose budget expires while
//! queued is answered
//! [`DeadlineExceeded`](crate::ErrorCode::DeadlineExceeded) without ever
//! touching the index.
//!
//! The implementation is a mutex-protected pair of counters plus a
//! condvar; permits are RAII so a panicking handler still releases its
//! slot.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar};
use std::time::{Duration, Instant};

use spb_storage::lockrank::{LockRank, RankedMutex};

/// A request's absolute time budget.
///
/// Wire deadlines are relative (`deadline_ms` from receipt); this pins
/// them to an [`Instant`] once so queueing time counts against the
/// budget. `Deadline(None)` never expires.
#[derive(Clone, Copy, Debug)]
pub struct Deadline(Option<Instant>);

impl Deadline {
    /// A deadline `ms` milliseconds from now; `0` means no deadline.
    pub fn from_ms(ms: u32) -> Deadline {
        if ms == 0 {
            Deadline(None)
        } else {
            Deadline(Some(
                spb_obs::clock::now() + Duration::from_millis(u64::from(ms)),
            ))
        }
    }

    /// A deadline that never expires.
    pub fn none() -> Deadline {
        Deadline(None)
    }

    /// True iff the budget has run out.
    pub fn expired(&self) -> bool {
        self.0.is_some_and(|t| spb_obs::clock::now() >= t)
    }

    /// Time left until expiry (`None` = unbounded).
    pub fn remaining(&self) -> Option<Duration> {
        self.0
            .map(|t| t.saturating_duration_since(spb_obs::clock::now()))
    }
}

/// Sizing knobs for [`Admission`].
#[derive(Clone, Copy, Debug)]
pub struct AdmissionConfig {
    /// Requests executing concurrently before new arrivals queue.
    pub max_inflight: usize,
    /// Requests allowed to wait for a slot before arrivals are shed.
    pub max_queue: usize,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            max_inflight: 4,
            max_queue: 64,
        }
    }
}

/// Why [`Admission`] refused a request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdmitError {
    /// The wait queue is full; the request was shed immediately.
    Overloaded,
    /// The request's deadline expired while it waited for a slot.
    DeadlineExceeded,
    /// The server is draining for shutdown.
    ShuttingDown,
}

#[derive(Default)]
struct Counters {
    running: usize,
    queued: usize,
}

/// The bounded admission gate. Cheap to clone (`Arc` inside).
#[derive(Clone)]
pub struct Admission {
    inner: Arc<AdmissionInner>,
}

struct AdmissionInner {
    cfg: AdmissionConfig,
    counters: RankedMutex<Counters>,
    slot_freed: Condvar,
    shed: AtomicU64,
    served: AtomicU64,
    deadline_missed: AtomicU64,
    // Process-global mirrors: the per-instance atomics above stay exact
    // per gate (tests and ServerHandle read them); these feed the
    // spb-obs registry so `spb-cli stats` sees process-wide totals.
    obs_served: Arc<spb_obs::Counter>,
    obs_shed: Arc<spb_obs::Counter>,
    obs_deadline_miss: Arc<spb_obs::Counter>,
    obs_queue_depth: Arc<spb_obs::Gauge>,
}

/// RAII execution slot: dropping it frees the slot and wakes one waiter.
pub struct Permit {
    inner: Arc<AdmissionInner>,
}

impl std::fmt::Debug for Permit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Permit")
    }
}

impl Drop for Permit {
    fn drop(&mut self) {
        // A poisoned mutex means a handler panicked while holding it; the
        // counters are still sound (each critical section updates them
        // atomically), so recover the guard rather than panic and leak
        // the slot (the ranked lock tolerates poison).
        let mut c = self.inner.counters.lock();
        c.running = c.running.saturating_sub(1);
        drop(c);
        self.inner.slot_freed.notify_one();
    }
}

impl Admission {
    /// Creates a gate with the given limits (`max_inflight` is clamped to
    /// at least 1 — a gate that can run nothing would deadlock).
    pub fn new(cfg: AdmissionConfig) -> Admission {
        let cfg = AdmissionConfig {
            max_inflight: cfg.max_inflight.max(1),
            max_queue: cfg.max_queue,
        };
        Admission {
            inner: Arc::new(AdmissionInner {
                cfg,
                counters: RankedMutex::new(LockRank::AdmissionCounters, Counters::default()),
                slot_freed: Condvar::new(),
                shed: AtomicU64::new(0),
                served: AtomicU64::new(0),
                deadline_missed: AtomicU64::new(0),
                obs_served: spb_obs::counter("admission.served"),
                obs_shed: spb_obs::counter("admission.shed"),
                obs_deadline_miss: spb_obs::counter("admission.deadline_miss"),
                obs_queue_depth: spb_obs::gauge("admission.queue_depth"),
            }),
        }
    }

    // -----------------------------------------------------------------
    // *Queueing* (non-blocking, done on the event-loop thread as frames
    // decode) is separate from *slot acquisition* (done on dispatcher
    // workers, which may block). The capacity rule: at most
    // `max_inflight` requests hold slots and at most `max_queue` more
    // wait, so `running + queued < max_inflight + max_queue` admits.
    // -----------------------------------------------------------------

    /// Non-blocking admission to the wait queue. Called by the event
    /// loop for every decoded work request; a full queue sheds the
    /// request immediately. Every `Ok` must be balanced by exactly one
    /// of [`acquire_queued`](Admission::acquire_queued),
    /// [`try_promote`](Admission::try_promote),
    /// [`collapse_queued`](Admission::collapse_queued) or
    /// [`release_queued`](Admission::release_queued).
    pub fn try_enqueue(&self, shutdown: &AtomicBool) -> Result<(), AdmitError> {
        let inner = &self.inner;
        if shutdown.load(Ordering::SeqCst) {
            return Err(AdmitError::ShuttingDown);
        }
        let mut c = inner.counters.lock();
        if c.running + c.queued >= inner.cfg.max_inflight + inner.cfg.max_queue {
            inner.shed.fetch_add(1, Ordering::Relaxed);
            inner.obs_shed.incr();
            return Err(AdmitError::Overloaded);
        }
        c.queued += 1;
        inner.obs_queue_depth.set(c.queued as i64);
        Ok(())
    }

    /// Blocks until an enqueued request gets an execution slot (or its
    /// deadline expires, or shutdown starts). On any outcome the request
    /// leaves the queue.
    pub fn acquire_queued(
        &self,
        deadline: Deadline,
        shutdown: &AtomicBool,
    ) -> Result<Permit, AdmitError> {
        let inner = &self.inner;
        let mut c = inner.counters.lock();
        loop {
            if shutdown.load(Ordering::SeqCst) {
                c.queued = c.queued.saturating_sub(1);
                inner.obs_queue_depth.set(c.queued as i64);
                return Err(AdmitError::ShuttingDown);
            }
            if deadline.expired() {
                c.queued = c.queued.saturating_sub(1);
                inner.obs_queue_depth.set(c.queued as i64);
                inner.deadline_missed.fetch_add(1, Ordering::Relaxed);
                inner.obs_deadline_miss.incr();
                return Err(AdmitError::DeadlineExceeded);
            }
            if c.running < inner.cfg.max_inflight {
                c.queued = c.queued.saturating_sub(1);
                c.running += 1;
                inner.obs_queue_depth.set(c.queued as i64);
                inner.served.fetch_add(1, Ordering::Relaxed);
                inner.obs_served.incr();
                return Ok(Permit {
                    inner: Arc::clone(inner),
                });
            }
            // Bounded wait so shutdown and deadlines are observed even if
            // no permit is ever released.
            let wait = deadline
                .remaining()
                .unwrap_or(Duration::from_millis(50))
                .min(Duration::from_millis(50));
            c = c.wait_timeout(&inner.slot_freed, wait);
        }
    }

    /// Non-blocking slot grab for an enqueued request — the dispatcher
    /// uses this to widen a batch without ever waiting while it already
    /// holds a permit (which could deadlock a full gate).
    pub fn try_promote(&self) -> Option<Permit> {
        let inner = &self.inner;
        let mut c = inner.counters.lock();
        if c.running >= inner.cfg.max_inflight {
            return None;
        }
        c.queued = c.queued.saturating_sub(1);
        c.running += 1;
        inner.obs_queue_depth.set(c.queued as i64);
        inner.served.fetch_add(1, Ordering::Relaxed);
        inner.obs_served.incr();
        Some(Permit {
            inner: Arc::clone(inner),
        })
    }

    /// An enqueued request was answered by collapsing onto an identical
    /// in-flight query: it leaves the queue and counts as served, but
    /// never occupies an execution slot (its answer costs no extra
    /// index work).
    pub fn collapse_queued(&self) {
        let inner = &self.inner;
        let mut c = inner.counters.lock();
        c.queued = c.queued.saturating_sub(1);
        inner.obs_queue_depth.set(c.queued as i64);
        inner.served.fetch_add(1, Ordering::Relaxed);
        inner.obs_served.incr();
    }

    /// An enqueued request left the system unserved (its connection
    /// died, or shutdown drained the queue).
    pub fn release_queued(&self) {
        let inner = &self.inner;
        let mut c = inner.counters.lock();
        c.queued = c.queued.saturating_sub(1);
        inner.obs_queue_depth.set(c.queued as i64);
    }

    /// Requests shed since startup.
    pub fn shed_count(&self) -> u64 {
        self.inner.shed.load(Ordering::Relaxed)
    }

    /// Requests admitted since startup.
    pub fn served_count(&self) -> u64 {
        self.inner.served.load(Ordering::Relaxed)
    }

    /// Requests that missed their deadline — rejected while queued, or
    /// recorded mid-execution via [`Admission::record_deadline_miss`].
    pub fn deadline_miss_count(&self) -> u64 {
        self.inner.deadline_missed.load(Ordering::Relaxed)
    }

    /// Counts a deadline miss detected after admission (a request whose
    /// budget ran out during execution).
    pub fn record_deadline_miss(&self) {
        self.inner.deadline_missed.fetch_add(1, Ordering::Relaxed);
        self.inner.obs_deadline_miss.incr();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::mpsc;
    use std::thread;

    fn gate(max_inflight: usize, max_queue: usize) -> Admission {
        Admission::new(AdmissionConfig {
            max_inflight,
            max_queue,
        })
    }

    /// Enqueue + acquire: what one request does on its way to a slot.
    fn through_the_gate(
        a: &Admission,
        deadline: Deadline,
        shutdown: &AtomicBool,
    ) -> Result<Permit, AdmitError> {
        a.try_enqueue(shutdown)?;
        a.acquire_queued(deadline, shutdown)
    }

    #[test]
    fn admits_up_to_max_inflight() {
        let a = gate(2, 0);
        let shutdown = AtomicBool::new(false);
        let p1 = through_the_gate(&a, Deadline::none(), &shutdown).unwrap();
        let _p2 = through_the_gate(&a, Deadline::none(), &shutdown).unwrap();
        // Queue size 0: the third request is shed immediately.
        assert_eq!(
            through_the_gate(&a, Deadline::from_ms(10), &shutdown).unwrap_err(),
            AdmitError::Overloaded
        );
        assert_eq!(a.shed_count(), 1);
        drop(p1);
        let _p3 = through_the_gate(&a, Deadline::from_ms(1000), &shutdown).unwrap();
        assert_eq!(a.served_count(), 3);
    }

    #[test]
    fn queued_request_gets_slot_when_freed() {
        let a = gate(1, 4);
        let shutdown = AtomicBool::new(false);
        let p = through_the_gate(&a, Deadline::none(), &shutdown).unwrap();
        // The waiter is in the queue before the slot is freed, so its
        // permit can only come from the release.
        a.try_enqueue(&shutdown).unwrap();
        let a2 = a.clone();
        let waiter = thread::spawn(move || {
            let shutdown = AtomicBool::new(false);
            a2.acquire_queued(Deadline::from_ms(5_000), &shutdown)
                .map(|_| ())
        });
        drop(p);
        assert!(waiter.join().unwrap().is_ok());
        assert_eq!(a.served_count(), 2);
    }

    #[test]
    fn try_enqueue_sheds_exactly_beyond_capacity() {
        // Capacity = max_inflight + max_queue total outstanding.
        let a = gate(1, 0);
        let shutdown = AtomicBool::new(false);
        a.try_enqueue(&shutdown).unwrap();
        assert_eq!(
            a.try_enqueue(&shutdown).unwrap_err(),
            AdmitError::Overloaded
        );
        assert_eq!(a.shed_count(), 1);
        let p = a.acquire_queued(Deadline::none(), &shutdown).unwrap();
        // The slot is held: arrivals still shed.
        assert_eq!(
            a.try_enqueue(&shutdown).unwrap_err(),
            AdmitError::Overloaded
        );
        drop(p);
        a.try_enqueue(&shutdown).unwrap();
        let _p2 = a.acquire_queued(Deadline::none(), &shutdown).unwrap();
        assert_eq!(a.served_count(), 2);
        assert_eq!(a.shed_count(), 2);
    }

    #[test]
    fn promote_widens_up_to_max_inflight_only() {
        let a = gate(2, 8);
        let shutdown = AtomicBool::new(false);
        for _ in 0..3 {
            a.try_enqueue(&shutdown).unwrap();
        }
        let _leader = a.acquire_queued(Deadline::none(), &shutdown).unwrap();
        let extra = a.try_promote();
        assert!(extra.is_some(), "one free slot left");
        assert!(a.try_promote().is_none(), "gate is full");
        assert_eq!(a.served_count(), 2);
    }

    #[test]
    fn collapse_counts_served_without_a_slot() {
        let a = gate(1, 4);
        let shutdown = AtomicBool::new(false);
        a.try_enqueue(&shutdown).unwrap();
        a.try_enqueue(&shutdown).unwrap();
        let _leader = a.acquire_queued(Deadline::none(), &shutdown).unwrap();
        // The duplicate collapses onto the leader: served, never running.
        a.collapse_queued();
        assert_eq!(a.served_count(), 2);
        assert!(a.try_promote().is_none(), "slot still held by the leader");
    }

    #[test]
    fn acquire_queued_observes_deadline_and_shutdown() {
        let a = gate(1, 4);
        let shutdown = AtomicBool::new(false);
        let _p = through_the_gate(&a, Deadline::none(), &shutdown).unwrap();
        let err = through_the_gate(&a, Deadline::from_ms(30), &shutdown).unwrap_err();
        assert_eq!(err, AdmitError::DeadlineExceeded);
        assert_eq!(a.deadline_miss_count(), 1);
        a.try_enqueue(&shutdown).unwrap();
        shutdown.store(true, Ordering::SeqCst);
        let err = a.acquire_queued(Deadline::none(), &shutdown).unwrap_err();
        assert_eq!(err, AdmitError::ShuttingDown);
        // Both left the queue: with the slot still held, the gate has
        // room for exactly `max_queue` waiters again.
        shutdown.store(false, Ordering::SeqCst);
        for _ in 0..4 {
            a.try_enqueue(&shutdown).unwrap();
        }
        assert_eq!(
            a.try_enqueue(&shutdown).unwrap_err(),
            AdmitError::Overloaded
        );
    }

    #[test]
    fn shutdown_rejects_a_request_already_waiting_for_a_slot() {
        let a = gate(1, 4);
        let shutdown = Arc::new(AtomicBool::new(false));
        let _p = through_the_gate(&a, Deadline::none(), &shutdown).unwrap();
        a.try_enqueue(&shutdown).unwrap();
        let (a2, sd) = (a.clone(), Arc::clone(&shutdown));
        let (waiting, on_waiting) = mpsc::channel();
        let waiter = thread::spawn(move || {
            waiting.send(()).unwrap();
            a2.acquire_queued(Deadline::none(), &sd).map(|_| ())
        });
        // No permit is ever released: only the bounded wait can notice
        // the flag, whether it flips before or after the waiter blocks.
        on_waiting.recv().unwrap();
        shutdown.store(true, Ordering::SeqCst);
        assert_eq!(
            waiter.join().unwrap().unwrap_err(),
            AdmitError::ShuttingDown
        );
    }

    #[test]
    fn permit_released_on_panic() {
        let a = gate(1, 0);
        let shutdown = AtomicBool::new(false);
        let a2 = a.clone();
        let _ = thread::spawn(move || {
            let shutdown = AtomicBool::new(false);
            let _p = through_the_gate(&a2, Deadline::none(), &shutdown).unwrap();
            panic!("handler died");
        })
        .join();
        // The slot must be free again.
        assert!(through_the_gate(&a, Deadline::from_ms(100), &shutdown).is_ok());
    }
}
