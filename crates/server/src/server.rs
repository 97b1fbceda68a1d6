//! The TCP server: event loop, dispatcher workers, graceful shutdown.
//!
//! One event-loop thread (see [`crate::event_loop`]) multiplexes every
//! connection over non-blocking sockets with `poll(2)`: it accepts,
//! decodes pipelined frames, answers control-plane requests inline, and
//! hands work requests to a small pool of dispatcher workers (see
//! [`crate::dispatch`]) that coalesce concurrently-queued queries with
//! equal plans into one batched execution. Work requests take a place
//! in that bounded queue before touching the index, or are shed;
//! `Ping`/`Stats` bypass it (they must stay answerable under overload,
//! or operators go blind exactly when they need visibility).
//! Over-limit connections get a best-effort `Overloaded` frame and are
//! closed.
//!
//! ## Shutdown
//!
//! `ServerHandle::shutdown()` (or a remote `Shutdown` request, or a
//! SIGINT/SIGTERM under [`serve_until_shutdown`], which routes both
//! signals) sets one flag and wakes the loop. The
//! listener stops being polled, dispatched work finishes — admitted
//! work is never abandoned — queued work is refused with
//! `ShuttingDown`, and every owed response is flushed before its
//! connection closes (with a bounded grace period). Once the loop and
//! the workers exit, the server checkpoints the index (flush dirty
//! pages, fsync, reset the WAL) so a clean exit leaves nothing for
//! recovery to do.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::indexing_slicing,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use spb_storage::lockrank::{LockRank, RankedMutex};

use crate::dispatch::{self, Completion, DispatchQueue};
use crate::event_loop::{self, Waker};
use crate::service::IndexService;
use crate::wire::{write_frame, ErrorCode, Request, Response, DEFAULT_MAX_FRAME, PROTOCOL_VERSION};

/// Server sizing and limits.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Concurrent connections before new ones are refused.
    pub max_connections: usize,
    /// Admitted work requests allowed to wait, beyond one executing per
    /// dispatcher worker, before arrivals are shed.
    pub max_queue: usize,
    /// Largest request payload accepted, in bytes.
    pub max_frame: u32,
    /// Worker threads for batch fan-out inside one batched query
    /// execution.
    pub worker_threads: usize,
    /// Dispatcher worker threads pulling from the shared work queue.
    pub dispatcher_workers: usize,
    /// Pipelined requests decoded but not yet answered per connection;
    /// past this the server stops reading that socket (backpressure).
    pub max_pipeline: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_connections: 64,
            max_queue: 64,
            max_frame: DEFAULT_MAX_FRAME,
            worker_threads: 4,
            dispatcher_workers: 2,
            max_pipeline: 256,
        }
    }
}

/// State shared between the event loop, the dispatcher workers, and the
/// handle.
pub(crate) struct Shared {
    pub(crate) service: Box<dyn IndexService>,
    pub(crate) cfg: ServerConfig,
    pub(crate) shutdown: AtomicBool,
    /// The admission queue feeding the dispatcher workers.
    pub(crate) dispatch: DispatchQueue,
    /// Finished work waiting for the event loop to route it back to its
    /// connection. Lowest rank in the workspace: both producers
    /// (workers) and the consumer (event loop) take it briefly with no
    /// other ranked lock held.
    pub(crate) completions: RankedMutex<Vec<Completion>>,
    /// Wakes the event loop when completions land or shutdown starts.
    pub(crate) waker: Waker,
}

/// A running server. Dropping the handle shuts the server down and joins
/// it.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    runner: Option<JoinHandle<io::Result<()>>>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests shutdown: stop accepting, drain, checkpoint.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.dispatch.kick_all();
        self.shared.waker.wake();
    }

    /// True once shutdown has been requested (locally or by a remote
    /// `Shutdown` request).
    pub(crate) fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Requests shed by admission control since startup.
    pub fn shed_count(&self) -> u64 {
        self.shared.dispatch.shed.get()
    }

    /// Requests that missed their deadline since startup — rejected
    /// while queued or expired mid-execution. Disjoint from
    /// [`shed_count`](ServerHandle::shed_count), which counts only
    /// queue-full rejections.
    pub fn deadline_miss_count(&self) -> u64 {
        self.shared.dispatch.deadline_miss.get()
    }

    /// Waits for the server to drain and checkpoint. Implies
    /// [`shutdown`](ServerHandle::shutdown) if not already requested.
    pub fn join(mut self) -> io::Result<()> {
        self.shutdown();
        match self.runner.take() {
            Some(h) => h
                .join()
                .unwrap_or_else(|_| Err(io::Error::other("server thread panicked"))),
            None => Ok(()),
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
        if let Some(h) = self.runner.take() {
            let _ = h.join();
        }
    }
}

/// Binds `addr` and starts serving `service` on background threads.
pub fn serve(
    service: Box<dyn IndexService>,
    addr: impl ToSocketAddrs,
    cfg: ServerConfig,
) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let (waker, waker_rx) = event_loop::waker_pair()?;
    let shared = Arc::new(Shared {
        service,
        cfg,
        shutdown: AtomicBool::new(false),
        dispatch: DispatchQueue::new(cfg.dispatcher_workers.max(1) + cfg.max_queue),
        completions: RankedMutex::new(LockRank::EventCompletions, Vec::new()),
        waker,
    });
    let shared2 = Arc::clone(&shared);
    let runner = thread::Builder::new()
        .name("spb-event-loop".into())
        .spawn(move || serve_thread(listener, waker_rx, shared2))?;
    Ok(ServerHandle {
        addr,
        shared,
        runner: Some(runner),
    })
}

/// Body of the server thread: spawn the dispatcher workers, run the
/// event loop to completion, join the workers, checkpoint.
fn serve_thread(
    listener: TcpListener,
    waker_rx: UnixStream,
    shared: Arc<Shared>,
) -> io::Result<()> {
    let mut workers = Vec::new();
    for i in 0..shared.cfg.dispatcher_workers.max(1) {
        let s = Arc::clone(&shared);
        if let Ok(h) = thread::Builder::new()
            .name(format!("spb-dispatch-{i}"))
            .spawn(move || dispatch::worker_loop(&s))
        {
            workers.push(h);
        }
    }
    let run_res = event_loop::run(&listener, &waker_rx, &shared);
    // Even on an event-loop error, release the workers before returning.
    shared.shutdown.store(true, Ordering::SeqCst);
    shared.dispatch.kick_all();
    for h in workers {
        let _ = h.join();
    }
    run_res?;
    // Nothing is executing any more: flush dirty pages, fsync, reset the
    // WAL so the next open has no recovery work.
    shared.service.checkpoint()
}

/// Best-effort `Overloaded` response for an over-limit connection.
/// Accepted sockets start out blocking, so the write is bounded by a
/// short timeout rather than left to hang the event loop.
pub(crate) fn refuse_connection(mut stream: TcpStream) {
    let resp = Response::Error {
        code: ErrorCode::Overloaded,
        server_version: PROTOCOL_VERSION,
        message: "connection limit reached".to_owned(),
    };
    let _ = stream.set_write_timeout(Some(Duration::from_millis(100)));
    let _ = write_frame(&mut stream, &resp.encode());
}

pub(crate) fn error_response(code: ErrorCode, message: impl Into<String>) -> Response {
    Response::Error {
        code,
        server_version: PROTOCOL_VERSION,
        message: message.into(),
    }
}

/// Answers an in-memory control-plane request. These bypass admission —
/// they must stay answerable under overload — and are served inline on
/// the event loop (all are cheap in-memory reads). `WalShip` is
/// control-plane too but reads the WAL file, so it runs on a dispatcher
/// worker instead (see [`crate::dispatch`]).
pub(crate) fn control_response(req: Request, shared: &Shared) -> Response {
    let svc = shared.service.as_ref();
    match req {
        Request::Ping => Response::Pong {
            version: PROTOCOL_VERSION,
            schema: svc.schema().to_line(),
            len: svc.len(),
        },
        Request::Stats => Response::Stats {
            schema: svc.schema().to_line(),
            len: svc.len(),
            storage_bytes: svc.storage_bytes(),
            num_pivots: svc.num_pivots(),
            served: shared.dispatch.served.get(),
            shed: shared.dispatch.shed.get(),
            deadline_miss: shared.dispatch.deadline_miss.get(),
        },
        Request::ObsStats => Response::ObsStats {
            snapshot: spb_obs::snapshot(),
        },
        other => {
            // Work and Shutdown requests are routed before this point;
            // reaching here means the event loop's routing broke, but a
            // typed error beats a wrong answer.
            let _ = other;
            error_response(
                ErrorCode::Internal,
                "non-control request reached the control path",
            )
        }
    }
}

// ---------------------------------------------------------------------
// Signal handling (installed by `serve_until_shutdown`).
// ---------------------------------------------------------------------

static SIGNAL_SHUTDOWN: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_sig: i32) {
    // Only async-signal-safe work here: one atomic store.
    SIGNAL_SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Routes SIGINT/SIGTERM to `SIGNAL_SHUTDOWN`, so a serving process can
/// drain and checkpoint instead of dying mid-write. No-op outside Unix.
#[allow(unsafe_code)] // FFI; see the SAFETY comment below
fn install_signal_handler() {
    #[cfg(unix)]
    {
        extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        // SAFETY: registering a POSIX signal handler has no safe std
        // equivalent. `on_signal` matches the `sighandler_t` signature and
        // its body is a single atomic store, which is async-signal-safe.
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }
}

/// Serves until shutdown is requested by SIGINT/SIGTERM or by a remote
/// `Shutdown` request, then drains and checkpoints. This is the blocking
/// entry point `spb-cli serve` uses.
pub fn serve_until_shutdown(
    service: Box<dyn IndexService>,
    addr: impl ToSocketAddrs,
    cfg: ServerConfig,
    mut on_start: impl FnMut(SocketAddr),
) -> io::Result<()> {
    install_signal_handler();
    let handle = serve(service, addr, cfg)?;
    on_start(handle.addr());
    while !handle.is_shutting_down() && !SIGNAL_SHUTDOWN.load(Ordering::SeqCst) {
        thread::sleep(Duration::from_millis(50));
    }
    handle.join()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::schema::Schema;
    use crate::service::{Answers, TreeService};
    use crate::wire::WireStats;
    use spb_core::{QueryPlan, QueryShape, SpbConfig, SpbTree};
    use spb_metric::{dataset, MetricObject};
    use spb_storage::TempDir;
    use std::io::Write;

    fn start_words_server(dir: &TempDir, n: usize, seed: u64, cfg: ServerConfig) -> ServerHandle {
        let data = dataset::words(n, seed);
        let tree = SpbTree::build(
            dir.path(),
            &data,
            dataset::words_metric(),
            &SpbConfig::default(),
        )
        .unwrap();
        let svc = TreeService::new(tree, Schema::Words { max_len: 40 });
        serve(Box::new(svc), "127.0.0.1:0", cfg).unwrap()
    }

    #[test]
    fn ping_range_insert_roundtrip() {
        let dir = TempDir::new("srv-roundtrip");
        let handle = start_words_server(&dir, 200, 81, ServerConfig::default());
        let mut c = Client::connect(handle.addr()).unwrap();

        let (version, schema, len) = c.ping().unwrap();
        assert_eq!(version, PROTOCOL_VERSION);
        assert_eq!(schema, "words 40");
        assert_eq!(len, 200);

        let q = dataset::words(200, 81)[0].encoded();
        let plan = QueryPlan::exact(QueryShape::Range { radius: 1.0 });
        let Answers::Range(mut rows) = c.query(plan, vec![q.clone()], 0).unwrap() else {
            panic!("a range plan answers range rows");
        };
        let (hits, stats) = rows.pop().unwrap();
        assert!(hits.iter().any(|(_, o)| o == &q), "query object is a hit");
        assert!(stats.compdists > 0);

        let novel = spb_metric::Word::new("zzzzserver").encoded();
        let _stats: WireStats = c.insert(&novel, 0).unwrap();
        let (_, _, len) = c.ping().unwrap();
        assert_eq!(len, 201);
        let (found, _) = c.delete(&novel, 0).unwrap();
        assert!(found);

        handle.join().unwrap();
    }

    #[test]
    fn malformed_and_oversized_frames_get_typed_errors() {
        let dir = TempDir::new("srv-malformed");
        let cfg = ServerConfig {
            max_frame: 1024,
            ..ServerConfig::default()
        };
        let handle = start_words_server(&dir, 50, 82, cfg);

        // Oversized: header announces more than max_frame.
        let mut s = TcpStream::connect(handle.addr()).unwrap();
        let mut frame = Vec::new();
        frame.extend_from_slice(&(4096u32).to_le_bytes());
        frame.extend_from_slice(&0u32.to_le_bytes());
        s.write_all(&frame).unwrap();
        let payload = crate::wire::read_frame(&mut s, DEFAULT_MAX_FRAME).unwrap();
        match Response::decode(&payload).unwrap() {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::FrameTooLarge),
            other => panic!("expected error, got {other:?}"),
        }

        // Corrupt payload: valid header, wrong CRC.
        let mut s = TcpStream::connect(handle.addr()).unwrap();
        let payload_bytes = Request::Ping.encode();
        let mut frame = Vec::new();
        frame.extend_from_slice(&(payload_bytes.len() as u32).to_le_bytes());
        frame.extend_from_slice(&0xdead_beefu32.to_le_bytes());
        frame.extend_from_slice(&payload_bytes);
        s.write_all(&frame).unwrap();
        let payload = crate::wire::read_frame(&mut s, DEFAULT_MAX_FRAME).unwrap();
        match Response::decode(&payload).unwrap() {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::Malformed),
            other => panic!("expected error, got {other:?}"),
        }

        // Wrong protocol version.
        let mut s = TcpStream::connect(handle.addr()).unwrap();
        let mut payload_bytes = Request::Ping.encode();
        payload_bytes[0] = 9;
        write_frame(&mut s, &payload_bytes).unwrap();
        let payload = crate::wire::read_frame(&mut s, DEFAULT_MAX_FRAME).unwrap();
        match Response::decode(&payload).unwrap() {
            Response::Error {
                code,
                server_version,
                ..
            } => {
                assert_eq!(code, ErrorCode::VersionMismatch);
                assert_eq!(server_version, PROTOCOL_VERSION);
            }
            other => panic!("expected error, got {other:?}"),
        }

        handle.join().unwrap();
    }

    #[test]
    fn remote_shutdown_drains_and_checkpoints() {
        let dir = TempDir::new("srv-shutdown");
        let handle = start_words_server(&dir, 100, 83, ServerConfig::default());
        let addr = handle.addr();
        let mut c = Client::connect(addr).unwrap();
        c.shutdown().unwrap();
        assert!(handle.is_shutting_down());
        handle.join().unwrap();
        // The port is released and the index reopens cleanly (the
        // checkpoint left no WAL to replay).
        assert!(Client::connect(addr).is_err());
        let report = spb_core::recover_dir(dir.path()).unwrap();
        assert!(
            report.clean(),
            "graceful shutdown leaves nothing to recover"
        );
    }
}
