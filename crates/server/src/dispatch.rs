//! The batching dispatcher: workers that pull decoded requests off a
//! shared queue, coalesce queries with equal plans into one
//! [`IndexService::query`](crate::service::IndexService::query) call,
//! and push completions back to the event loop.
//!
//! ## Why batching helps on the wire path
//!
//! Executing each request by itself would never show the batch engine
//! more than one query at a time. Instead a worker that wins an
//! execution slot first scans the queue it came from: every *identical*
//! deadline-free query attaches to the same execution as a follower
//! (the index runs once, the answer fans out —
//! `SpbTree::range_locked` is deterministic, so followers receive
//! byte-identical hits and stats, the property
//! `same_query_twice_in_a_batch_reports_identical_stats` pins down),
//! and every *distinct* query with an equal [`QueryPlan`] is promoted
//! into the same batch if a free slot exists. One index
//! pass amortises latch acquisition and page lookups across the whole
//! batch; the `dispatch_batch_size` histogram records how wide each
//! execution actually was.
//!
//! ## Ordering and accounting
//!
//! Batching never reorders a connection's responses — the event loop
//! sequences responses by request seq — and admission accounting is
//! exact: a follower leaves the queue via
//! [`Admission::collapse_queued`] (served, no slot), a promoted query
//! via [`Admission::try_promote`] (served, one slot), so
//! `served + shed` always equals the number of admitted-or-shed work
//! requests. Requests with a deadline never join a shared batch: their
//! budget is theirs alone, and they execute solo under their own
//! deadline, checked between traversal slices by the service.

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, OnceLock};
use std::time::{Duration, Instant};

use spb_core::QueryPlan;
use spb_storage::lockrank::{LockRank, RankedMutex};

use crate::admission::{Deadline, Permit};
use crate::server::{admit_error_response, error_response, Shared};
use crate::service::{Answers, ServiceError};
use crate::wire::{ErrorCode, Query, Request, Response};

/// Identifies a live connection in the event loop's slab. The `gen`
/// field distinguishes a reused slab slot from the connection a stale
/// completion was addressed to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct ConnId {
    /// Slab index in the event loop.
    pub idx: usize,
    /// Generation of that slot when the work was submitted.
    pub gen: u64,
}

/// One decoded work request travelling from the event loop to a worker.
pub(crate) struct Work {
    /// Destination connection.
    pub conn: ConnId,
    /// Per-connection response sequence number.
    pub seq: u64,
    /// The decoded request (never a control-plane variant).
    pub req: Request,
    /// Deadline pinned at receipt.
    pub deadline: Deadline,
    /// True for `Insert`/`Delete` (a per-connection ordering barrier).
    pub write: bool,
    /// Control-plane work (`WalShip`): bypasses admission — it holds no
    /// queue place and no execution slot — but runs on a worker because
    /// it reads the WAL file, which must not block the event loop.
    pub control: bool,
    /// When the request entered the admission queue (for
    /// `phase.queue_wait`).
    pub enqueued_at: Instant,
}

/// A finished response travelling back to the event loop.
pub(crate) struct Completion {
    /// Destination connection.
    pub conn: ConnId,
    /// Per-connection response sequence number.
    pub seq: u64,
    /// The response to encode.
    pub resp: Response,
    /// Mirrors [`Work::write`]: tells the event loop which inflight
    /// counter to release.
    pub write: bool,
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

/// The FIFO between the event loop (producer) and the dispatcher
/// workers (consumers).
pub(crate) struct DispatchQueue {
    q: RankedMutex<VecDeque<Work>>,
    cv: Condvar,
}

impl DispatchQueue {
    pub fn new() -> DispatchQueue {
        DispatchQueue {
            q: RankedMutex::new(LockRank::DispatchQueue, VecDeque::new()),
            cv: Condvar::new(),
        }
    }

    /// Enqueues work and wakes one worker.
    pub fn push(&self, w: Work) {
        self.q.lock().push_back(w);
        self.cv.notify_one();
    }

    /// Wakes every worker (shutdown).
    pub fn kick_all(&self) {
        self.cv.notify_all();
    }

    /// Blocks for the next work item. Returns `None` only when the
    /// queue is empty *and* shutdown has been requested, so queued
    /// work is always drained (each drained item still gets a typed
    /// `ShuttingDown` response from the caller).
    pub fn pop_blocking(&self, shutdown: &std::sync::atomic::AtomicBool) -> Option<Work> {
        let mut q = self.q.lock();
        loop {
            if let Some(w) = q.pop_front() {
                return Some(w);
            }
            if shutdown.load(Ordering::SeqCst) {
                return None;
            }
            // Bounded wait so a missed notify cannot outlive shutdown.
            q = q.wait_timeout(&self.cv, Duration::from_millis(50));
        }
    }
}

/// Pushes completions and wakes the event loop once.
pub(crate) fn push_completions(shared: &Shared, comps: Vec<Completion>) {
    if comps.is_empty() {
        return;
    }
    shared.completions.lock().extend(comps);
    shared.waker.wake();
}

/// A dispatcher worker: runs until shutdown *and* an empty queue.
pub(crate) fn worker_loop(shared: &Shared) {
    while let Some(work) = shared.dispatch.pop_blocking(&shared.shutdown) {
        if shared.shutdown.load(Ordering::SeqCst) {
            // Shutdown drain: the request was enqueued but never won a
            // slot; it leaves the system with a typed refusal. Control
            // work never held a queue place.
            if !work.control {
                shared.admission.release_queued();
            }
            let resp = error_response(ErrorCode::ShuttingDown, "server is draining");
            push_completions(
                shared,
                vec![Completion {
                    conn: work.conn,
                    seq: work.seq,
                    resp,
                    write: work.write,
                }],
            );
            continue;
        }
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

fn run_work(shared: &Shared, work: Work) {
    let Work {
        conn,
        seq,
        mut req,
        deadline,
        write,
        control,
        enqueued_at,
    } = work;
    if control {
        // Control-plane work skips admission entirely: replication must
        // keep catching up precisely when the primary is shedding query
        // traffic.
        let resp = execute(req, deadline, shared);
        push_completions(
            shared,
            vec![Completion {
                conn,
                seq,
                resp,
                write,
            }],
        );
        return;
    }
    let permit = match shared.admission.acquire_queued(deadline, &shared.shutdown) {
        Ok(p) => p,
        Err(e) => {
            push_completions(
                shared,
                vec![Completion {
                    conn,
                    seq,
                    resp: admit_error_response(e),
                    write,
                }],
            );
            return;
        }
    };
    queue_wait_hist().record(spb_obs::clock::nanos_since(enqueued_at));
    if let Some((plan, obj)) = coalescable(&mut req) {
        let obj = std::mem::take(obj);
        return run_batch(shared, plan, obj, conn, seq, permit);
    }
    let resp = execute(req, deadline, shared);
    batch_size_hist().record(1);
    drop(permit);
    push_completions(
        shared,
        vec![Completion {
            conn,
            seq,
            resp,
            write,
        }],
    );
}

/// Executes a coalescable query, widening it with every compatible
/// queued request first. `subs[i]` lists the `(conn, seq)` subscribers
/// of `objs[i]`; the leader holds `permits[0]`.
fn run_batch(
    shared: &Shared,
    plan: QueryPlan,
    leader_obj: Vec<u8>,
    conn: ConnId,
    seq: u64,
    permit: Permit,
) {
    let mut objs: Vec<Vec<u8>> = vec![leader_obj];
    let mut subs: Vec<Vec<(ConnId, u64)>> = vec![vec![(conn, seq)]];
    let mut permits: Vec<Permit> = vec![permit];

    {
        // The coalescing scan extracts compatible work atomically with
        // its admission updates: queue (rank 2) held across the counter
        // (rank 4) acquisitions inside `try_promote`/`collapse_queued`
        // — an ascending chain, as the rank check requires.
        let mut q = shared.dispatch.q.lock();
        let mut i = 0;
        while i < q.len() {
            let action = match q.get_mut(i).and_then(|w| coalescable(&mut w.req)) {
                Some((queued, obj)) if queued == plan => match objs.iter().position(|o| o == obj) {
                    // An identical in-flight query: answer it from the
                    // same execution, no extra slot needed.
                    Some(slot) => Some((slot, None)),
                    // A distinct compatible query: promote it into the
                    // batch if admission has a free execution slot.
                    None if objs.len() < MAX_BATCH_UNIQUES => shared
                        .admission
                        .try_promote()
                        .map(|p| (objs.len(), Some(p))),
                    None => None,
                },
                _ => None,
            };
            let Some((slot, promoted)) = action else {
                i += 1;
                continue;
            };
            let Some(mut w) = q.remove(i) else { break };
            queue_wait_hist().record(spb_obs::clock::nanos_since(w.enqueued_at));
            match promoted {
                Some(p) => {
                    permits.push(p);
                    if let Some((_, obj)) = coalescable(&mut w.req) {
                        objs.push(std::mem::take(obj));
                    }
                    subs.push(vec![(w.conn, w.seq)]);
                }
                None => {
                    shared.admission.collapse_queued();
                    if let Some(s) = subs.get_mut(slot) {
                        s.push((w.conn, w.seq));
                    }
                }
            }
        }
    }

    let total: usize = subs.iter().map(Vec::len).sum();
    batch_size_hist().record(total as u64);

    let svc = shared.service.as_ref();
    let threads = shared.cfg.worker_threads;
    let mut comps: Vec<Completion> = Vec::with_capacity(total);
    match svc.query(plan, &objs, threads, Deadline::none()) {
        Ok(answers) => {
            for (resp, fans) in Response::from_answers(answers, false).into_iter().zip(subs) {
                for (c, s) in fans {
                    comps.push(Completion {
                        conn: c,
                        seq: s,
                        resp: resp.clone(),
                        write: false,
                    });
                }
            }
        }
        Err(_) => {
            // A batch fails as a unit (e.g. one undecodable object), but
            // each request deserves its own verdict — re-run the uniques
            // solo so one bad query cannot poison its batchmates. Rare
            // path: a retry costs one extra traversal per unique.
            for (obj, fans) in objs.into_iter().zip(subs) {
                let resp = svc
                    .query(plan, std::slice::from_ref(&obj), threads, Deadline::none())
                    .and_then(|answers| sole_response(answers, false))
                    .unwrap_or_else(|e| service_error_response(e, shared));
                for (c, s) in fans {
                    comps.push(Completion {
                        conn: c,
                        seq: s,
                        resp: resp.clone(),
                        write: false,
                    });
                }
            }
        }
    }
    drop(permits);
    push_completions(shared, comps);
}

fn service_error_response(e: ServiceError, shared: &Shared) -> Response {
    match e {
        ServiceError::Malformed(m) => error_response(ErrorCode::Malformed, m),
        ServiceError::DeadlineExceeded => {
            shared.admission.record_deadline_miss();
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
fn execute(mut req: Request, deadline: Deadline, shared: &Shared) -> Response {
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
        Request::Insert { obj, .. } => svc.insert(&obj).map(|stats| Response::Insert { stats }),
        Request::Delete { obj, .. } => svc
            .delete(&obj)
            .map(|(found, stats)| Response::Delete { found, stats }),
        // Replication is control-plane but file-backed: the WAL segment
        // read happens here, on a worker, never on the event loop.
        Request::WalShip { from_lsn } => svc
            .wal_segment(from_lsn)
            .map(|(wal_len, frames)| Response::WalShip { wal_len, frames }),
        other => {
            // Queries returned above and in-memory control requests are
            // answered on the event loop; if one reaches here the
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

    #[test]
    fn dispatch_queue_drains_under_shutdown() {
        use std::sync::atomic::AtomicBool;
        let q = DispatchQueue::new();
        let shutdown = AtomicBool::new(true);
        q.push(Work {
            conn: ConnId { idx: 0, gen: 0 },
            seq: 0,
            req: Request::Ping,
            deadline: Deadline::none(),
            write: false,
            control: false,
            enqueued_at: spb_obs::clock::now(),
        });
        // Queued work is still handed out after shutdown...
        assert!(q.pop_blocking(&shutdown).is_some());
        // ...and only then does the worker get its exit signal.
        assert!(q.pop_blocking(&shutdown).is_none());
    }
}
