//! The admission queue and the batching dispatcher: workers that pull
//! decoded requests off one bounded FIFO, coalesce queries with equal
//! plans into one
//! [`IndexService::query`](crate::service::IndexService::query) call,
//! and encode each answer into its connection's output buffer.
//!
//! ## Admission: one queue with owned places
//!
//! The FIFO between the connections and the workers is the server's
//! only admission control. A connection's reader admits a decoded work
//! request iff fewer than `dispatcher_workers + max_queue` places are
//! held — one atomic compare-and-increment, never a lock — and otherwise
//! answers `Overloaded` at once. The admitted request's [`Place`] travels inside
//! its [`Work`] (through the connection's barrier queue, this FIFO and a
//! worker), and dropping the `Work` frees it exactly once, whichever way
//! the request leaves: answered, collapsed onto an identical query,
//! refused at pop for an expired deadline or for shutdown, dropped with
//! its connection, or unwound by a panicking handler. A worker runs one
//! execution at a time, so the dispatcher workers bound execution and
//! `max_queue` bounds waiting. `WalShip` rides the queue for its file
//! read but holds no place: replicas must keep catching up precisely
//! when the primary sheds query traffic.
//!
//! ## Why batching helps on the wire path
//!
//! Executing each request by itself would never show the batch engine
//! more than one query at a time. Instead a worker that pops a query
//! first scans the queue for company: every *identical* query attaches
//! to the same execution as a follower (the index runs once, the answer
//! fans out — `SpbTree::range_exec` is deterministic, so followers
//! receive byte-identical hits and stats, the property
//! `same_query_twice_in_a_batch_reports_identical_stats` pins down), and
//! every *distinct* query with an equal [`QueryPlan`] joins the same
//! batch, up to [`MAX_BATCH_UNIQUES`]. One index pass amortises latch
//! acquisition and page lookups across the whole batch; the
//! `dispatch_batch_size` histogram records how wide each execution
//! actually was.
//!
//! ## Ordering and accounting
//!
//! Batching never reorders a connection's responses — the connection
//! sequences responses by request seq — and the accounting is exact:
//! every work request offered is shed, refused at pop (a deadline miss,
//! or `ShuttingDown`), or served, where a follower and a batch member
//! count as served like the request that popped them. Requests with a
//! deadline never join a shared batch: their budget is theirs alone, and
//! they execute solo under their own deadline, checked between traversal
//! slices by the service. That budget is a [`Deadline`], pinned once at
//! receipt so time spent queued counts against it.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, OnceLock, Weak};
use std::time::{Duration, Instant};

use spb_core::QueryPlan;
use spb_storage::lockrank::{LockRank, RankedMutex};

use crate::connection::Conn;
use crate::server::{error_response, Shared};
use crate::service::{Answers, ServiceError};
use crate::wire::{ErrorCode, Query, Request, Response};

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
}

/// A request's place in the admission queue. Dropping it frees the
/// place (see the module docs).
pub(crate) struct Place(Arc<AtomicUsize>);

impl Drop for Place {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
        places_gauge().adjust(-1);
    }
}

/// One decoded work request, from its connection's barrier queue through
/// the dispatcher to the worker that answers it.
pub(crate) struct Work {
    /// Destination connection; gone once the connection has closed.
    pub conn: Weak<Conn>,
    /// Per-connection response sequence number.
    pub seq: u64,
    /// The decoded request (never an in-memory control request).
    pub req: Request,
    /// Deadline pinned at receipt.
    pub deadline: Deadline,
    /// True for `Insert`/`Delete` (a per-connection ordering barrier).
    pub write: bool,
    /// The request's admission place; `None` for `WalShip`.
    pub place: Option<Place>,
    /// When the request was admitted (for `phase.queue_wait`).
    pub enqueued_at: Instant,
}

impl Work {
    /// Answers this request on its connection, unless the connection has
    /// closed. Consuming the `Work` frees its place before the client can
    /// see the answer.
    fn complete(self, resp: Response, shared: &Shared) {
        let Some(conn) = self.conn.upgrade() else {
            return;
        };
        let (seq, write) = (self.seq, self.write);
        drop(self);
        conn.answer(seq, write, resp, shared);
    }
}

/// The `phase.queue_wait` histogram: time an admitted request spent
/// queued before its execution (or collapse) began, in nanoseconds.
pub(crate) fn queue_wait_hist() -> &'static Arc<spb_obs::Histogram> {
    static H: OnceLock<Arc<spb_obs::Histogram>> = OnceLock::new();
    H.get_or_init(|| spb_obs::histogram("phase.queue_wait"))
}

/// The `dispatch_batch_size` histogram: how many requests each index
/// execution answered (followers included). Values are counts, not
/// nanoseconds.
pub(crate) fn batch_size_hist() -> &'static Arc<spb_obs::Histogram> {
    static H: OnceLock<Arc<spb_obs::Histogram>> = OnceLock::new();
    H.get_or_init(|| spb_obs::histogram("dispatch_batch_size"))
}

/// The `admission.queue_depth` gauge: admission places held, summed over
/// every server in the process.
fn places_gauge() -> &'static Arc<spb_obs::Gauge> {
    static G: OnceLock<Arc<spb_obs::Gauge>> = OnceLock::new();
    G.get_or_init(|| spb_obs::gauge("admission.queue_depth"))
}

/// One request outcome count: exact per server (what `ServerHandle`
/// reports), mirrored into the process-wide obs registry (what
/// `spb-cli stats` shows).
pub(crate) struct Tally {
    n: AtomicU64,
    obs: Arc<spb_obs::Counter>,
}

impl Tally {
    fn new(name: &str) -> Tally {
        Tally {
            n: AtomicU64::new(0),
            obs: spb_obs::counter(name),
        }
    }

    /// Counts one request.
    pub fn incr(&self) {
        self.n.fetch_add(1, Ordering::Relaxed);
        self.obs.incr();
    }

    /// Requests counted since startup.
    pub fn get(&self) -> u64 {
        self.n.load(Ordering::Relaxed)
    }
}

/// The admission queue: the FIFO between the connections (producers) and
/// the dispatcher workers (consumers), its places, and what became of
/// every work request offered to it.
pub(crate) struct DispatchQueue {
    q: RankedMutex<VecDeque<Work>>,
    cv: Condvar,
    /// Places held: admitted work requests not yet answered or dropped.
    /// A count that publishes no other data, so every access is `Relaxed`.
    held: Arc<AtomicUsize>,
    capacity: usize,
    /// Requests that started executing or joined another's execution.
    pub served: Tally,
    /// Requests refused at admission because every place was held.
    pub shed: Tally,
    /// Requests whose deadline expired while queued or mid-execution.
    pub deadline_miss: Tally,
}

impl DispatchQueue {
    /// A queue with `capacity` places (`dispatcher_workers + max_queue`).
    pub fn new(capacity: usize) -> DispatchQueue {
        DispatchQueue {
            q: RankedMutex::new(LockRank::DispatchQueue, VecDeque::new()),
            cv: Condvar::new(),
            held: Arc::new(AtomicUsize::new(0)),
            capacity,
            served: Tally::new("admission.served"),
            shed: Tally::new("admission.shed"),
            deadline_miss: Tally::new("admission.deadline_miss"),
        }
    }

    /// Takes a place for a decoded work request, or sheds it (counted)
    /// when every place is held. Never blocks.
    pub(crate) fn admit(&self) -> Option<Place> {
        let taken = self
            .held
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |h| {
                (h < self.capacity).then_some(h + 1)
            });
        if taken.is_err() {
            self.shed.incr();
            return None;
        }
        places_gauge().adjust(1);
        Some(Place(Arc::clone(&self.held)))
    }

    /// Enqueues work and wakes one worker.
    pub fn push(&self, w: Work) {
        self.q.lock().push_back(w);
        self.cv.notify_one();
    }

    /// Wakes every worker (to see the stop flag).
    pub(crate) fn kick_all(&self) {
        self.cv.notify_all();
    }

    /// Blocks for the next work item. Returns `None` only when the
    /// queue is empty *and* `stop` is set, so queued work is always
    /// drained (each drained item still gets a typed `ShuttingDown`
    /// response from [`DispatchQueue::begin`]).
    pub(crate) fn pop_blocking(&self, stop: &AtomicBool) -> Option<Work> {
        let mut q = self.q.lock();
        loop {
            if let Some(w) = q.pop_front() {
                return Some(w);
            }
            if stop.load(Ordering::SeqCst) {
                return None;
            }
            // Bounded wait so a missed notify cannot outlive the stop.
            q = q.wait_timeout(&self.cv, Duration::from_millis(50));
        }
    }

    /// The checks a popped request faces before it runs: a draining
    /// server refuses it `ShuttingDown`, and a spent budget is refused
    /// `DeadlineExceeded` (a miss). `Ok` means run it.
    fn begin(&self, w: &Work, shutdown: &AtomicBool) -> Result<(), Response> {
        if shutdown.load(Ordering::SeqCst) {
            return Err(error_response(
                ErrorCode::ShuttingDown,
                "server is draining",
            ));
        }
        if w.deadline.expired() {
            self.deadline_miss.incr();
            return Err(error_response(
                ErrorCode::DeadlineExceeded,
                "deadline expired while queued",
            ));
        }
        self.started(w);
        Ok(())
    }

    /// Counts a request that holds a place as served, with its queue wait.
    fn started(&self, w: &Work) {
        if w.place.is_some() {
            self.served.incr();
            queue_wait_hist().record(spb_obs::clock::nanos_since(w.enqueued_at));
        }
    }

    /// Takes every queued request that can share the execution `leader`
    /// popped for: identical objects as followers, distinct ones as new
    /// batch members while fewer than [`MAX_BATCH_UNIQUES`] are carried.
    /// Returns the batch's objects and, for each, the requests it
    /// answers.
    fn coalesce(
        &self,
        plan: QueryPlan,
        leader_obj: Vec<u8>,
        leader: Work,
    ) -> (Vec<Vec<u8>>, Vec<Vec<Work>>) {
        let mut objs = vec![leader_obj];
        let mut subs = vec![vec![leader]];
        let mut q = self.q.lock();
        let mut i = 0;
        while i < q.len() {
            let slot = match q.get_mut(i).and_then(|w| coalescable(&mut w.req)) {
                Some((queued, obj)) if queued == plan => objs
                    .iter()
                    .position(|o| o == obj)
                    .or((objs.len() < MAX_BATCH_UNIQUES).then_some(objs.len())),
                _ => None,
            };
            let Some(slot) = slot else {
                i += 1;
                continue;
            };
            let Some(mut w) = q.remove(i) else { break };
            self.started(&w);
            match subs.get_mut(slot) {
                Some(fans) => fans.push(w),
                None => {
                    if let Some((_, obj)) = coalescable(&mut w.req) {
                        objs.push(std::mem::take(obj));
                    }
                    subs.push(vec![w]);
                }
            }
        }
        (objs, subs)
    }
}

/// A dispatcher worker: runs until the stop flag *and* an empty queue.
/// The stop flag is set only after every connection has drained, so
/// work pumped during the drain is still answered.
pub(crate) fn worker_loop(shared: &Shared) {
    while let Some(work) = shared.dispatch.pop_blocking(&shared.stop) {
        run_work(shared, work);
    }
}

/// The plan and query object of a request that may share an execution
/// with strangers: a well-formed single query without a deadline (a
/// deadline budget is per-request and must not gate, or be gated by,
/// anyone else). Two such requests coalesce iff their plans are equal —
/// bitwise, so an approximate query never widens or rides along with an
/// exact traversal, whatever its factor.
fn coalescable(req: &mut Request) -> Option<(QueryPlan, &mut Vec<u8>)> {
    if req.deadline_ms() != 0 {
        return None;
    }
    match req.query() {
        Some(Ok(Query {
            plan,
            objs: [obj],
            batch: false,
        })) => Some((plan, obj)),
        _ => None,
    }
}

/// The one response a request executed by itself is owed: its single
/// row, or every row in one `Batch*` response for an explicit batch op.
fn sole_response(answers: Answers, batch: bool) -> Result<Response, ServiceError> {
    Response::from_answers(answers, batch)
        .pop()
        .ok_or_else(|| ServiceError::Internal("a single query answered no row".to_owned()))
}

/// Distinct queries one batch will carry at most (followers of each are
/// unbounded — they cost nothing extra).
const MAX_BATCH_UNIQUES: usize = 64;

fn run_work(shared: &Shared, mut work: Work) {
    if let Err(refusal) = shared.dispatch.begin(&work, &shared.shutdown) {
        return work.complete(refusal, shared);
    }
    if let Some((plan, obj)) = coalescable(&mut work.req) {
        let obj = std::mem::take(obj);
        return run_batch(shared, plan, obj, work);
    }
    let resp = execute(&mut work.req, work.deadline, shared);
    if work.place.is_some() {
        batch_size_hist().record(1);
    }
    work.complete(resp, shared);
}

/// Executes a coalescable query together with every compatible queued
/// request.
fn run_batch(shared: &Shared, plan: QueryPlan, leader_obj: Vec<u8>, leader: Work) {
    let (objs, subs) = shared.dispatch.coalesce(plan, leader_obj, leader);
    let total: usize = subs.iter().map(Vec::len).sum();
    batch_size_hist().record(total as u64);

    let svc = shared.service.as_ref();
    let threads = shared.cfg.worker_threads;
    let resps = match svc.query(plan, &objs, threads, Deadline::none()) {
        Ok(answers) => Response::from_answers(answers, false),
        // A batch fails as a unit (e.g. one undecodable object), but each
        // request deserves its own verdict — re-run the uniques solo so
        // one bad query cannot poison its batchmates. Rare path: a retry
        // costs one extra traversal per unique.
        Err(_) => objs
            .iter()
            .map(|obj| {
                svc.query(plan, std::slice::from_ref(obj), threads, Deadline::none())
                    .and_then(|answers| sole_response(answers, false))
                    .unwrap_or_else(|e| service_error_response(e, shared))
            })
            .collect(),
    };
    for (resp, fans) in resps.into_iter().zip(subs) {
        for w in fans {
            w.complete(resp.clone(), shared);
        }
    }
}

fn service_error_response(e: ServiceError, shared: &Shared) -> Response {
    match e {
        ServiceError::Malformed(m) => error_response(ErrorCode::Malformed, m),
        ServiceError::DeadlineExceeded => {
            shared.dispatch.deadline_miss.incr();
            error_response(
                ErrorCode::DeadlineExceeded,
                "deadline expired mid-execution",
            )
        }
        ServiceError::Internal(m) => error_response(ErrorCode::Internal, m),
    }
}

/// Executes one work request by itself: deadline-carrying queries,
/// explicit client batches, updates and WAL shipping.
fn execute(req: &mut Request, deadline: Deadline, shared: &Shared) -> Response {
    let svc = shared.service.as_ref();
    let threads = shared.cfg.worker_threads;
    if let Some(query) = req.query() {
        let result = query
            .map_err(|e| ServiceError::Malformed(e.to_string()))
            .and_then(|Query { plan, objs, batch }| {
                sole_response(svc.query(plan, objs, threads, deadline)?, batch)
            });
        return result.unwrap_or_else(|e| service_error_response(e, shared));
    }
    let result = match req {
        Request::Insert { obj, .. } => svc.insert(obj).map(|stats| Response::Insert { stats }),
        Request::Delete { obj, .. } => svc
            .delete(obj)
            .map(|(found, stats)| Response::Delete { found, stats }),
        // Replication is control-plane but file-backed: the WAL segment
        // read happens here, on a worker, never on a connection's reader.
        Request::WalShip { from_lsn } => svc
            .wal_segment(*from_lsn)
            .map(|(wal_len, frames)| Response::WalShip { wal_len, frames }),
        other => {
            // Queries returned above and in-memory control requests are
            // answered by the reader; if one reaches here the
            // dispatcher is broken, but a typed error beats aborting the
            // worker thread.
            let _ = other;
            return error_response(
                ErrorCode::Internal,
                "control-plane request reached the execution path",
            );
        }
    };
    result.unwrap_or_else(|e| service_error_response(e, shared))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether `a` (leading an execution) would take `b` off the queue.
    fn coalesce(a: &Request, b: &Request) -> bool {
        let (mut a, mut b) = (a.clone(), b.clone());
        match (coalescable(&mut a), coalescable(&mut b)) {
            (Some((pa, _)), Some((pb, _))) => pa == pb,
            _ => false,
        }
    }

    fn range(deadline_ms: u32, radius: f64) -> Request {
        Request::Range {
            deadline_ms,
            radius,
            obj: vec![1, 2],
        }
    }

    fn knn(k: u32) -> Request {
        Request::Knn {
            deadline_ms: 0,
            k,
            obj: vec![1, 2],
        }
    }

    #[test]
    fn only_equal_plan_deadline_free_single_queries_coalesce() {
        assert!(coalesce(&range(0, 1.5), &range(0, 1.5)));
        assert!(!coalesce(&range(0, 1.5), &range(0, 2.0)));
        assert!(!coalesce(&range(0, 1.5), &range(100, 1.5)));
        assert!(!coalesce(&range(100, 1.5), &range(100, 1.5)));
        assert!(!coalesce(&range(0, 1.5), &knn(3)));
        assert!(coalesce(&knn(3), &knn(3)));
        assert!(!coalesce(&knn(3), &knn(4)));
        // An explicit client batch is its own execution.
        let batch = Request::BatchKnn {
            deadline_ms: 0,
            k: 3,
            objs: vec![vec![1, 2]],
        };
        assert!(!coalesce(&knn(3), &batch));
        // The coalescing scan takes the object, not a copy of it.
        let mut req = knn(3);
        let (_, obj) = coalescable(&mut req).unwrap();
        assert_eq!(std::mem::take(obj), vec![1, 2]);
    }

    #[test]
    fn exact_and_approx_queries_never_coalesce() {
        // An approximate request must never widen an exact traversal or
        // vice versa, even when every shared parameter (object, radius,
        // k) is identical.
        let range_approx = |contraction| Request::RangeApprox {
            deadline_ms: 0,
            radius: 1.5,
            contraction,
            obj: vec![1, 2],
        };
        let knn_approx = |alpha| Request::KnnApprox {
            deadline_ms: 0,
            k: 5,
            alpha,
            obj: vec![1, 2],
        };
        assert!(coalesce(&range_approx(0.8), &range_approx(0.8)));
        assert!(!coalesce(&range(0, 1.5), &range_approx(0.8)));
        assert!(!coalesce(&range_approx(0.8), &range(0, 1.5)));
        // Even a no-op factor keeps the modes apart: the client asked for
        // approximate semantics and gets that batch.
        assert!(!coalesce(&range(0, 1.5), &range_approx(1.0)));
        assert!(!coalesce(&knn(5), &knn_approx(1.0)));
        assert!(coalesce(&knn_approx(1.0), &knn_approx(1.0)));
        // Different factors are different batches, down to the last bit.
        assert!(!coalesce(&range_approx(0.8), &range_approx(1.0)));
        assert!(!coalesce(&knn_approx(1.8), &knn_approx(1.7999999999999998)));
        // An invalid factor has no plan: it never joins a batch and is
        // answered `Malformed` on its own.
        assert!(!coalesce(&knn_approx(f64::NAN), &knn_approx(f64::NAN)));
        assert!(!coalesce(&knn_approx(0.5), &knn_approx(0.5)));
        assert!(!coalesce(&range_approx(0.0), &range_approx(0.0)));
    }

    /// A work item as a connection's reader builds it.
    fn work(req: Request, place: Option<Place>) -> Work {
        Work {
            conn: Weak::new(),
            seq: 0,
            deadline: Deadline::from_ms(req.deadline_ms()),
            req,
            write: false,
            place,
            enqueued_at: spb_obs::clock::now(),
        }
    }

    fn held(q: &DispatchQueue) -> usize {
        q.held.load(Ordering::Relaxed)
    }

    fn refusal_code(resp: Response) -> ErrorCode {
        match resp {
            Response::Error { code, .. } => code,
            other => panic!("expected an error response, got {other:?}"),
        }
    }

    #[test]
    fn dispatch_queue_drains_under_shutdown() {
        let q = DispatchQueue::new(1);
        let shutdown = AtomicBool::new(true);
        q.push(work(Request::Ping, None));
        // Queued work is still handed out after shutdown...
        assert!(q.pop_blocking(&shutdown).is_some());
        // ...and only then does the worker get its exit signal.
        assert!(q.pop_blocking(&shutdown).is_none());
    }

    #[test]
    fn sheds_exactly_beyond_workers_plus_max_queue() {
        // Two workers and a queue of one: three places.
        let q = DispatchQueue::new(2 + 1);
        let places: Vec<Place> = (0..3).map(|_| q.admit().unwrap()).collect();
        assert!(q.admit().is_none());
        assert!(q.admit().is_none());
        assert_eq!((q.shed.get(), held(&q)), (2, 3));
        drop(places);
        assert_eq!(held(&q), 0);
        let _again: Vec<Place> = (0..3).map(|_| q.admit().unwrap()).collect();
        assert!(q.admit().is_none());
        assert_eq!(q.shed.get(), 3);
    }

    #[test]
    fn a_place_comes_back_when_its_work_is_dropped_even_by_a_panic() {
        let q = DispatchQueue::new(1);
        let w = work(range(0, 1.0), q.admit());
        assert!(q.admit().is_none(), "the one place is held");
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let _w = w;
            panic!("handler died");
        }));
        assert!(unwound.is_err());
        assert_eq!(held(&q), 0);
        assert!(q.admit().is_some(), "the place is free again");
    }

    #[test]
    fn an_expired_deadline_at_pop_is_refused_and_counted() {
        let q = DispatchQueue::new(4);
        let shutdown = AtomicBool::new(false);
        q.push(work(range(1, 1.0), q.admit()));
        std::thread::sleep(Duration::from_millis(5));
        let w = q.pop_blocking(&shutdown).unwrap();
        let refusal = q.begin(&w, &shutdown).unwrap_err();
        assert_eq!(refusal_code(refusal), ErrorCode::DeadlineExceeded);
        assert_eq!((q.deadline_miss.get(), q.served.get()), (1, 0));
        drop(w);
        assert_eq!(held(&q), 0);
        // A budget that has not run out starts, counted served.
        let w = work(range(60_000, 1.0), q.admit());
        assert!(q.begin(&w, &shutdown).is_ok());
        assert_eq!((q.deadline_miss.get(), q.served.get()), (1, 1));
    }

    #[test]
    fn a_shutdown_drain_refuses_every_queued_item_and_frees_every_place() {
        let q = DispatchQueue::new(8);
        let shutdown = AtomicBool::new(false);
        for _ in 0..5 {
            q.push(work(range(0, 1.0), q.admit()));
        }
        q.push(work(Request::WalShip { from_lsn: 0 }, None));
        assert_eq!(held(&q), 5, "WalShip holds no place");
        shutdown.store(true, Ordering::SeqCst);
        let mut refused = 0;
        while let Some(w) = q.pop_blocking(&shutdown) {
            let refusal = q.begin(&w, &shutdown).unwrap_err();
            assert_eq!(refusal_code(refusal), ErrorCode::ShuttingDown);
            refused += 1;
        }
        assert_eq!(refused, 6);
        assert_eq!(held(&q), 0);
        assert_eq!(q.served.get() + q.deadline_miss.get(), 0);
    }

    #[test]
    fn collapsed_followers_and_batch_members_count_as_served() {
        let q = DispatchQueue::new(8);
        let shutdown = AtomicBool::new(false);
        let other = Request::Range {
            deadline_ms: 0,
            radius: 1.0,
            obj: vec![9],
        };
        for req in [range(0, 1.0), range(0, 1.0), other, range(0, 2.0)] {
            q.push(work(req, q.admit()));
        }
        let mut leader = q.pop_blocking(&shutdown).unwrap();
        q.begin(&leader, &shutdown).unwrap();
        let (plan, obj) = coalescable(&mut leader.req).unwrap();
        let obj = std::mem::take(obj);
        let (objs, subs) = q.coalesce(plan, obj, leader);
        // The identical query follows the leader, the distinct one joins
        // the batch, the other plan stays queued.
        assert_eq!(objs, vec![vec![1, 2], vec![9]]);
        assert_eq!(subs.iter().map(Vec::len).collect::<Vec<_>>(), vec![2, 1]);
        assert_eq!(q.served.get(), 3);
        assert_eq!(
            held(&q),
            4,
            "batch members keep their places until answered"
        );
        drop(subs);
        assert_eq!(held(&q), 1);
    }

    #[test]
    fn every_offered_request_is_served_shed_missed_or_refused() {
        let q = DispatchQueue::new(2 + 3);
        let shutdown = AtomicBool::new(false);
        let mut running: Vec<Work> = Vec::new();
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut offered = 0u64;
        for _ in 0..2_000 {
            match next() % 4 {
                0 | 1 => {
                    offered += 1;
                    // Deadlines of 1 ms expire while a few steps queue.
                    let deadline_ms = if next() % 3 == 0 { 1 } else { 0 };
                    let req = Request::Range {
                        deadline_ms,
                        radius: 1.0,
                        obj: vec![(next() % 3) as u8],
                    };
                    if let Some(place) = q.admit() {
                        q.push(work(req, Some(place)));
                    }
                }
                // A free worker pops, like `run_work` does.
                2 if running.len() < 2 && !q.q.lock().is_empty() => {
                    let Some(mut w) = q.pop_blocking(&shutdown) else {
                        continue;
                    };
                    if q.begin(&w, &shutdown).is_err() {
                        continue;
                    }
                    match coalescable(&mut w.req) {
                        Some((plan, obj)) => {
                            let obj = std::mem::take(obj);
                            let (_, subs) = q.coalesce(plan, obj, w);
                            running.extend(subs.into_iter().flatten());
                        }
                        None => running.push(w),
                    }
                }
                2 => {}
                // Every running execution answers.
                _ => {
                    running.clear();
                    std::thread::sleep(Duration::from_micros(500));
                }
            }
        }
        running.clear();
        shutdown.store(true, Ordering::SeqCst);
        let mut refused = 0u64;
        while let Some(w) = q.pop_blocking(&shutdown) {
            assert!(q.begin(&w, &shutdown).is_err());
            refused += 1;
        }
        assert!(q.shed.get() > 0 && q.served.get() > 0 && q.deadline_miss.get() > 0);
        assert_eq!(
            q.served.get() + q.shed.get() + q.deadline_miss.get() + refused,
            offered
        );
        assert_eq!(held(&q), 0);
    }
}
