//! The TCP server: connections, dispatcher workers, graceful shutdown.
//!
//! An acceptor thread gives each connection a reader and a writer thread
//! over a blocking socket (see [`crate::connection`]). The reader decodes
//! pipelined frames, answers control-plane requests inline, and hands
//! work requests to a small pool of dispatcher workers (see
//! [`crate::dispatch`]) that coalesce concurrently-queued queries with
//! equal plans into one batched execution. Work requests take a place
//! in that bounded queue before touching the index, or are shed;
//! `Ping`/`Stats` bypass it (they must stay answerable under overload,
//! or operators go blind exactly when they need visibility).
//! Over-limit connections get a best-effort `Overloaded` frame and are
//! closed, so the server runs at most `2 × max_connections` connection
//! threads.
//!
//! ## Shutdown
//!
//! `ServerHandle::shutdown()` (or a remote `Shutdown` request, or a
//! SIGINT/SIGTERM under [`serve_until_shutdown`], which routes both
//! signals) sets one flag and wakes the acceptor. It stops accepting,
//! dispatched work finishes — admitted work is never abandoned — queued
//! work is refused with `ShuttingDown`, and every owed response is
//! written before its connection closes (with a bounded grace period).
//! Once the connections and then the workers exit, the server
//! checkpoints the index (flush dirty pages, fsync, reset the WAL) so a
//! clean exit leaves nothing for recovery to do.

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
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use crate::connection;
use crate::dispatch::{self, DispatchQueue};
use crate::service::IndexService;
use crate::wire::{write_frame, ErrorCode, Response, DEFAULT_MAX_FRAME, PROTOCOL_VERSION};

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

/// State shared between the acceptor, the connections, the dispatcher
/// workers, and the handle.
pub(crate) struct Shared {
    pub(crate) service: Box<dyn IndexService>,
    pub(crate) cfg: ServerConfig,
    /// Set once shutdown is requested: stop accepting, drain.
    pub(crate) shutdown: AtomicBool,
    /// Set once every connection has drained (or the grace ran out):
    /// the dispatcher workers exit when the queue is empty.
    pub(crate) stop: AtomicBool,
    /// True until the acceptor has left its `accept` loop.
    pub(crate) accepting: AtomicBool,
    /// The admission queue feeding the dispatcher workers.
    pub(crate) dispatch: DispatchQueue,
    /// The server's own address: a connection to it wakes the acceptor
    /// from its blocking `accept`.
    wake_addr: SocketAddr,
}

/// How long one wake connection may take before it is given up.
const WAKE_TIMEOUT: Duration = Duration::from_millis(100);

impl Shared {
    /// Requests shutdown and, while the acceptor is still accepting,
    /// wakes it. A wake that fails is tried again by the next call.
    pub(crate) fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if self.accepting.load(Ordering::SeqCst) {
            let _ = TcpStream::connect_timeout(&self.wake_addr, WAKE_TIMEOUT);
        }
    }
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
        self.shared.begin_shutdown();
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
        self.stop_accepting();
        match self.runner.take() {
            Some(h) => h
                .join()
                .unwrap_or_else(|_| Err(io::Error::other("server thread panicked"))),
            None => Ok(()),
        }
    }

    /// Requests shutdown until the acceptor has left `accept`, so a wake
    /// connection that failed does not leave it waiting for good.
    fn stop_accepting(&self) {
        self.shutdown();
        while self.shared.accepting.load(Ordering::SeqCst)
            && self.runner.as_ref().is_some_and(|h| !h.is_finished())
        {
            thread::sleep(Duration::from_millis(5));
            self.shutdown();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop_accepting();
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
    let addr = listener.local_addr()?;
    let mut wake_addr = addr;
    if addr.ip().is_unspecified() {
        let loopback: IpAddr = match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        };
        wake_addr.set_ip(loopback);
    }
    let shared = Arc::new(Shared {
        service,
        cfg,
        shutdown: AtomicBool::new(false),
        stop: AtomicBool::new(false),
        accepting: AtomicBool::new(true),
        dispatch: DispatchQueue::new(cfg.dispatcher_workers.max(1) + cfg.max_queue),
        wake_addr,
    });
    let shared2 = Arc::clone(&shared);
    let runner = thread::Builder::new()
        .name("spb-acceptor".into())
        .spawn(move || serve_thread(listener, shared2))?;
    Ok(ServerHandle {
        addr,
        shared,
        runner: Some(runner),
    })
}

/// Body of the server thread: spawn the dispatcher workers, accept and
/// drain the connections, stop and join the workers, checkpoint.
fn serve_thread(listener: TcpListener, shared: Arc<Shared>) -> io::Result<()> {
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
    let run_res = connection::run(listener, &shared);
    // Every connection is drained (even after an accept error): release
    // the workers once the queue is empty.
    shared.stop.store(true, Ordering::SeqCst);
    shared.dispatch.kick_all();
    for h in workers {
        let _ = h.join();
    }
    run_res?;
    // Nothing is executing any more: flush dirty pages, fsync, reset the
    // WAL so the next open has no recovery work.
    shared.service.checkpoint()
}

/// Best-effort `Overloaded` response for an over-limit connection. The
/// write is bounded by a short timeout rather than left to hang the
/// acceptor.
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
    use crate::wire::{Request, WireStats};
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

    /// The `Overloaded` frame the acceptor sends an over-limit socket.
    fn refusal(addr: SocketAddr) -> Response {
        let mut s = TcpStream::connect(addr).unwrap();
        let payload = crate::wire::read_frame(&mut s, DEFAULT_MAX_FRAME).unwrap();
        Response::decode(&payload).unwrap()
    }

    #[test]
    fn connection_limit_refuses_and_a_hang_up_frees_a_place() {
        let dir = TempDir::new("srv-conn-limit");
        let cfg = ServerConfig {
            max_connections: 2,
            ..ServerConfig::default()
        };
        let handle = start_words_server(&dir, 50, 84, cfg);
        let mut a = Client::connect(handle.addr()).unwrap();
        let mut b = Client::connect(handle.addr()).unwrap();
        a.ping().unwrap();
        b.ping().unwrap();
        match refusal(handle.addr()) {
            Response::Error { code, message, .. } => {
                assert_eq!(code, ErrorCode::Overloaded);
                assert_eq!(message, "connection limit reached");
            }
            other => panic!("expected a refusal, got {other:?}"),
        }
        drop(a);
        // The hang-up frees a place once both of its threads are done.
        let t0 = spb_obs::clock::now();
        loop {
            let mut c = Client::connect(handle.addr()).unwrap();
            if c.ping().is_ok() {
                break;
            }
            assert!(
                spb_obs::clock::nanos_since(t0) < 5_000_000_000,
                "no place 5 s after a hang-up"
            );
            thread::sleep(Duration::from_millis(10));
        }
        b.ping().unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn clients_that_never_read_delay_no_other_client() {
        let dir = TempDir::new("srv-no-reader");
        // Places for every silent request and this test's other queries.
        let cfg = ServerConfig {
            max_queue: 200,
            ..ServerConfig::default()
        };
        let handle = start_words_server(&dir, 8_000, 85, cfg);
        let addr = handle.addr();
        let data = spb_metric::dataset::words(8_000, 85);
        let range = |i: usize, radius: f64| Request::Range {
            deadline_ms: 0,
            radius,
            obj: data[i].encoded(),
        };
        // Two clients each pipeline 64 ranges wide enough to return every
        // word (about 9 MB of answers each, far past what the socket
        // buffers hold) and never read. Their radii differ, so they never
        // share a batch: each occupies one dispatcher worker, and then
        // its connection's writer blocks in `write` for good.
        let silent: Vec<TcpStream> = [100.0, 99.0]
            .into_iter()
            .map(|radius| {
                let mut bytes = Vec::new();
                for i in 0..64 {
                    let r = range(i, radius);
                    crate::wire::frame_into(&mut bytes, |out| r.encode_into(out));
                }
                let mut s = TcpStream::connect(addr).unwrap();
                s.write_all(&bytes).unwrap();
                s
            })
            .collect();
        let mut c = Client::connect(addr).unwrap();
        let t0 = spb_obs::clock::now();
        loop {
            let Response::Stats { served, .. } = c.stats().unwrap() else {
                panic!("stats answered with another response");
            };
            if served >= 128 {
                break;
            }
            assert!(spb_obs::clock::nanos_since(t0) < 60_000_000_000);
            thread::sleep(Duration::from_millis(10));
        }

        // Every silent request has started; another client is answered
        // all the same. A worker blocked writing to a silent client would
        // hang it.
        let (tx, rx) = std::sync::mpsc::channel();
        let reqs: Vec<Request> = (0..16).map(|i| range(i, 1.0)).collect();
        let other = thread::spawn(move || {
            for _ in 0..4 {
                let resps = c.send_many(&reqs).unwrap();
                assert!(
                    resps.iter().all(|r| matches!(r, Response::Range { .. })),
                    "{resps:?}"
                );
            }
            tx.send(()).unwrap();
        });
        rx.recv_timeout(Duration::from_secs(60))
            .expect("a silent client delayed another client's queries");
        other.join().unwrap();

        // Once they hang up, a fresh client can take every place.
        drop(silent);
        let places = cfg.dispatcher_workers + cfg.max_queue;
        let all: Vec<Request> = (0..places).map(|i| range(i, 1.0)).collect();
        let t0 = spb_obs::clock::now();
        loop {
            let resps = Client::connect(addr).unwrap().send_many(&all).unwrap();
            if resps.iter().all(|r| matches!(r, Response::Range { .. })) {
                break;
            }
            assert!(
                spb_obs::clock::nanos_since(t0) < 5_000_000_000,
                "places still held 5 s after the silent clients hung up"
            );
            thread::sleep(Duration::from_millis(20));
        }
        handle.join().unwrap();
    }

    /// A client that writes its whole pipeline before reading, as
    /// `Client::send_many` does: 10 MB of `Ping` frames and about 30 MB of
    /// answers, each far past what the socket buffers of either direction
    /// hold. The server must keep reading while its answers go unread.
    #[test]
    fn a_pipeline_past_both_socket_buffers_is_answered() {
        let dir = TempDir::new("srv-big-pipeline");
        let handle = start_words_server(&dir, 50, 87, ServerConfig::default());
        let n = 1_000_000;
        let mut bytes = Vec::new();
        for _ in 0..n {
            crate::wire::frame_into(&mut bytes, |out| Request::Ping.encode_into(out));
        }
        let mut s = TcpStream::connect(handle.addr()).unwrap();
        let mut w = s.try_clone().unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        let writer = thread::spawn(move || {
            let done = w.write_all(&bytes);
            let _ = tx.send(());
            done
        });
        rx.recv_timeout(Duration::from_secs(30))
            .expect("the server stopped reading while its answers went unread");
        writer.join().unwrap().unwrap();
        let mut rd = std::io::BufReader::new(&mut s);
        let mut payload = Vec::new();
        for _ in 0..n {
            crate::wire::read_frame_into(&mut rd, DEFAULT_MAX_FRAME, &mut payload).unwrap();
            assert!(matches!(
                Response::decode(&payload).unwrap(),
                Response::Pong { .. }
            ));
        }
        handle.join().unwrap();
    }

    #[test]
    fn join_wakes_an_idle_connection_instead_of_waiting_out_the_grace() {
        let dir = TempDir::new("srv-idle-join");
        let handle = start_words_server(&dir, 50, 86, ServerConfig::default());
        let mut idle = Client::connect(handle.addr()).unwrap();
        idle.ping().unwrap();
        let t0 = spb_obs::clock::now();
        handle.join().unwrap();
        let waited = spb_obs::clock::nanos_since(t0);
        assert!(
            waited < 2_000_000_000,
            "join took {waited} ns with an idle client connected"
        );
        // The drain closed the idle connection.
        assert!(idle.ping().is_err());
    }

    #[test]
    fn shutdown_twice_then_join_returns() {
        let dir = TempDir::new("srv-shutdown-twice");
        let handle = start_words_server(&dir, 50, 88, ServerConfig::default());
        handle.shutdown();
        handle.shutdown();
        assert!(handle.is_shutting_down());
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
