//! The readiness-based event loop: one thread multiplexing every
//! connection with `poll(2)`, non-blocking sockets, and per-connection
//! state machines.
//!
//! ## Shape
//!
//! The loop owns a slab of [`Conn`] state machines. Each iteration it
//! builds a `pollfd` set (listener + waker + every connection with an
//! active interest), sleeps in `poll` — indefinitely when idle, so an
//! idle server burns zero CPU — and then:
//!
//! 1. drains the self-pipe waker (dispatcher workers write one byte
//!    after pushing completions; `ServerHandle::shutdown` does too),
//! 2. accepts new connections (refusing over-limit ones),
//! 3. reads readable connections, decoding as many **pipelined**
//!    frames as are buffered, up to `max_pipeline` in-flight requests
//!    per connection,
//! 4. routes completions back to their connections,
//! 5. flushes write buffers (vectored writes with partial-write
//!    resumption) and closes drained connections.
//!
//! ## Per-connection ordering
//!
//! Every parsed request gets a per-connection sequence number, and
//! responses are encoded strictly in sequence order (out-of-order
//! completions wait in a small stash). Reads (`Range`/`Knn`/batches)
//! may run concurrently on the dispatcher; writes (`Insert`/`Delete`)
//! are full barriers — a write waits for every earlier request and
//! blocks every later one — so a pipelined stream observes exactly the
//! semantics of sequential execution.
//!
//! ## Buffer lifecycle (zero-copy encode)
//!
//! Each connection owns one read buffer and a pair of write buffers.
//! Responses serialise directly into the back buffer via
//! [`frame_into`] (no intermediate `Vec` per response — the seed
//! server's 25 ms `phase.encode` p99 was exactly that churn plus the
//! blocking socket write the span wrongly included). The front buffer
//! drains to the socket with vectored writes; when it empties the pair
//! swaps. Buffers grow once to the workload's natural size and are
//! shrunk only when they exceed a 1 MiB high-water mark.
//!
//! This module is a no-panic zone and its only blocking call is
//! `poll(2)` itself (see the `block-reach` lint rule).

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

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::Ordering;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use crate::dispatch::Deadline;
use crate::dispatch::{ConnId, Work};
use crate::server::{control_response, error_response, Shared};
use crate::wire::{
    check_payload, frame_into, parse_frame_header, ErrorCode, Request, Response, WireError,
    FRAME_HEADER,
};

/// Bytes read from a socket per `read` call.
const READ_CHUNK: usize = 64 * 1024;
/// Consecutive reads per readiness event before yielding to other
/// connections (level-triggered `poll` re-reports leftovers).
const MAX_READ_BURSTS: usize = 16;
/// Consumed-prefix size that triggers read-buffer compaction.
const COMPACT_THRESHOLD: usize = 4096;
/// Capacity above which an empty buffer is shrunk back down.
const BUF_SHRINK_CAP: usize = 1 << 20;
/// Shutdown drain grace period before connections are force-closed.
const DRAIN_GRACE_NANOS: u64 = 5_000_000_000;

// ---------------------------------------------------------------------
// poll(2) shim
// ---------------------------------------------------------------------

pub(crate) mod sys {
    //! Minimal `poll(2)` FFI. The only other `unsafe` in the workspace
    //! is the signal-handler registration in `server.rs`; each site
    //! carries `#[allow(unsafe_code)]` and a `// SAFETY:` comment, which
    //! this crate's `[lints]` table requires.
    use std::io;

    /// Mirrors `struct pollfd`.
    #[repr(C)]
    pub(crate) struct PollFd {
        /// File descriptor to watch.
        pub fd: i32,
        /// Requested events (`POLLIN` / `POLLOUT`).
        pub events: i16,
        /// Returned events.
        pub revents: i16,
    }

    /// Data readable.
    pub(crate) const POLLIN: i16 = 0x001;
    /// Writable without blocking.
    pub(crate) const POLLOUT: i16 = 0x004;
    /// Error condition.
    pub(crate) const POLLERR: i16 = 0x008;
    /// Peer hung up.
    pub(crate) const POLLHUP: i16 = 0x010;
    /// Invalid descriptor.
    pub(crate) const POLLNVAL: i16 = 0x020;

    /// Blocks until one of `fds` is ready or `timeout_ms` elapses
    /// (`-1` = wait forever). Returns the number of ready descriptors.
    #[allow(unsafe_code)] // FFI; see the SAFETY comment below
    pub(crate) fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
        extern "C" {
            fn poll(fds: *mut PollFd, nfds: std::ffi::c_ulong, timeout: i32) -> i32;
        }
        // SAFETY: poll(2) has no safe std equivalent: std offers
        // blocking reads or busy-wait loops only, and the event loop
        // exists to sleep until readiness. The call writes only into the
        // PollFd slice we own, whose length is passed alongside the
        // pointer.
        let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as std::ffi::c_ulong, timeout_ms) };
        if rc < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(rc as usize)
        }
    }
}

// ---------------------------------------------------------------------
// Waker
// ---------------------------------------------------------------------

/// Wakes the event loop from another thread by writing one byte to a
/// non-blocking socketpair the loop polls for readability.
pub(crate) struct Waker {
    tx: UnixStream,
}

impl Waker {
    /// Wakes the loop. Best-effort: a full pipe means a wake is already
    /// pending, which is all a wake means.
    pub fn wake(&self) {
        let mut tx = &self.tx;
        let _ = tx.write(&[1u8]);
    }
}

/// Builds the waker and the read end the event loop polls.
pub(crate) fn waker_pair() -> io::Result<(Waker, UnixStream)> {
    let (tx, rx) = UnixStream::pair()?;
    tx.set_nonblocking(true)?;
    rx.set_nonblocking(true)?;
    Ok((Waker { tx }, rx))
}

// ---------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------

/// The `phase.encode` histogram: response serialisation into the write
/// buffer, in nanoseconds. Unlike the seed server the span covers only
/// the in-memory encode — socket writes are a separate non-blocking
/// concern.
fn encode_hist() -> &'static Arc<spb_obs::Histogram> {
    static H: OnceLock<Arc<spb_obs::Histogram>> = OnceLock::new();
    H.get_or_init(|| spb_obs::histogram("phase.encode"))
}

/// Counts event-loop wakeups (`poll` returns). An idle server must not
/// move this counter.
fn wakeup_counter() -> &'static Arc<spb_obs::Counter> {
    static C: OnceLock<Arc<spb_obs::Counter>> = OnceLock::new();
    C.get_or_init(|| spb_obs::counter("readiness_wakeups"))
}

/// Currently open client connections.
fn open_conns_gauge() -> &'static Arc<spb_obs::Gauge> {
    static G: OnceLock<Arc<spb_obs::Gauge>> = OnceLock::new();
    G.get_or_init(|| spb_obs::gauge("open_connections"))
}

// ---------------------------------------------------------------------
// Connection state machine
// ---------------------------------------------------------------------

/// One connection's full state.
struct Conn {
    stream: TcpStream,
    id: ConnId,
    /// Read buffer: `rd[rd_pos..]` is unparsed input.
    rd: Vec<u8>,
    rd_pos: usize,
    /// Write buffers: `wr_front[wr_pos..]` is being drained to the
    /// socket; new responses encode into `wr_back`; the pair swaps when
    /// the front empties.
    wr_front: Vec<u8>,
    wr_pos: usize,
    wr_back: Vec<u8>,
    /// Next sequence number to assign to a parsed request.
    next_seq: u64,
    /// Next sequence number to encode (responses go out in order).
    next_send: u64,
    /// Completed responses waiting for an earlier sequence number.
    stash: Vec<(u64, Response)>,
    /// Admitted work held back by the write barrier (an earlier write
    /// still in flight).
    pending: VecDeque<Work>,
    /// Read requests currently on the dispatcher.
    reads_inflight: usize,
    /// True while an `Insert`/`Delete` is on the dispatcher.
    write_inflight: bool,
    /// Peer sent EOF; finish delivering owed responses, then close.
    peer_closed: bool,
    /// Stop decoding input (desync error, `Shutdown` seen, or drain).
    stop_reading: bool,
    /// Close as soon as every owed response has been flushed.
    close_after_drain: bool,
}

impl Conn {
    fn new(stream: TcpStream, id: ConnId) -> Conn {
        Conn {
            stream,
            id,
            rd: Vec::new(),
            rd_pos: 0,
            wr_front: Vec::new(),
            wr_pos: 0,
            wr_back: Vec::new(),
            next_seq: 0,
            next_send: 0,
            stash: Vec::new(),
            pending: VecDeque::new(),
            reads_inflight: 0,
            write_inflight: false,
            peer_closed: false,
            stop_reading: false,
            close_after_drain: false,
        }
    }

    /// Requests parsed but not yet answered (encoded).
    fn outstanding(&self) -> u64 {
        self.next_seq.saturating_sub(self.next_send)
    }

    fn has_write_data(&self) -> bool {
        self.wr_pos < self.wr_front.len() || !self.wr_back.is_empty()
    }

    fn wants_read(&self, cfg: &crate::server::ServerConfig) -> bool {
        let unparsed = self.rd.len().saturating_sub(self.rd_pos);
        !self.stop_reading
            && !self.peer_closed
            && self.outstanding() < cfg.max_pipeline as u64
            && unparsed < cfg.max_frame as usize + FRAME_HEADER + READ_CHUNK
    }

    /// Every owed response has been encoded and flushed.
    fn drained(&self) -> bool {
        self.next_send == self.next_seq && !self.has_write_data()
    }

    fn should_close(&self) -> bool {
        self.close_after_drain || self.peer_closed
    }
}

/// Queues the response for `seq`, encoding it immediately if it is the
/// next one owed, otherwise stashing it until its turn.
fn deliver(conn: &mut Conn, seq: u64, resp: Response) {
    if seq == conn.next_send {
        encode_response(conn, resp);
        conn.next_send += 1;
        flush_stash(conn);
    } else {
        conn.stash.push((seq, resp));
    }
}

fn flush_stash(conn: &mut Conn) {
    loop {
        let Some(pos) = conn.stash.iter().position(|(s, _)| *s == conn.next_send) else {
            return;
        };
        let (_, resp) = conn.stash.swap_remove(pos);
        encode_response(conn, resp);
        conn.next_send += 1;
    }
}

/// Serialises one response frame straight into the back write buffer.
fn encode_response(conn: &mut Conn, resp: Response) {
    let t0 = spb_obs::clock::now();
    frame_into(&mut conn.wr_back, |out| resp.encode_into(out));
    encode_hist().record(spb_obs::clock::nanos_since(t0));
}

/// Drains `front`/`back` into `w`, resuming mid-buffer after partial
/// writes. `WouldBlock` leaves the remaining bytes in place and returns
/// `Ok`; the caller retries when the socket reports writable.
fn drain_buffers(
    w: &mut impl Write,
    front: &mut Vec<u8>,
    front_pos: &mut usize,
    back: &mut Vec<u8>,
) -> io::Result<()> {
    loop {
        if *front_pos >= front.len() {
            front.clear();
            *front_pos = 0;
            if front.capacity() > BUF_SHRINK_CAP {
                front.shrink_to(READ_CHUNK);
            }
            if back.is_empty() {
                return Ok(());
            }
            std::mem::swap(front, back);
        }
        let (n, front_rest) = {
            let chunk = front.get(*front_pos..).unwrap_or(&[]);
            let front_rest = chunk.len();
            let bufs = [io::IoSlice::new(chunk), io::IoSlice::new(back)];
            match w.write_vectored(&bufs) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => (n, front_rest),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        };
        if n >= front_rest {
            let extra = n - front_rest;
            *front_pos = front.len();
            if extra > 0 {
                back.drain(..extra.min(back.len()));
            }
        } else {
            *front_pos += n;
        }
    }
}

fn flush_conn(conn: &mut Conn) -> io::Result<()> {
    if !conn.has_write_data() {
        return Ok(());
    }
    let mut w = &conn.stream;
    drain_buffers(
        &mut w,
        &mut conn.wr_front,
        &mut conn.wr_pos,
        &mut conn.wr_back,
    )
}

// ---------------------------------------------------------------------
// Input path: read, parse, admit, pump
// ---------------------------------------------------------------------

/// Reads as much as is available (bounded burst), then parses and
/// pumps. Returns `true` on a fatal transport error.
fn read_ready(conn: &mut Conn, shared: &Shared) -> bool {
    if conn.stop_reading || conn.peer_closed {
        return false;
    }
    for _ in 0..MAX_READ_BURSTS {
        let start = conn.rd.len();
        conn.rd.resize(start + READ_CHUNK, 0);
        let res = match conn.rd.get_mut(start..) {
            Some(dst) => conn.stream.read(dst),
            None => Err(io::ErrorKind::WouldBlock.into()),
        };
        match res {
            Ok(0) => {
                conn.rd.truncate(start);
                conn.peer_closed = true;
                break;
            }
            Ok(n) => {
                conn.rd.truncate(start + n);
                if n < READ_CHUNK {
                    break;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                conn.rd.truncate(start);
                break;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {
                conn.rd.truncate(start);
            }
            Err(_) => {
                conn.rd.truncate(start);
                return true;
            }
        }
    }
    parse_frames(conn, shared);
    pump(conn, shared);
    false
}

/// Decodes every complete buffered frame, up to the pipeline cap.
fn parse_frames(conn: &mut Conn, shared: &Shared) {
    loop {
        if conn.stop_reading || conn.outstanding() >= shared.cfg.max_pipeline as u64 {
            break;
        }
        let Some(buf) = conn.rd.get(conn.rd_pos..) else {
            break;
        };
        let Some(header) = buf
            .get(..FRAME_HEADER)
            .and_then(|h| <&[u8; FRAME_HEADER]>::try_from(h).ok())
        else {
            break;
        };
        let (len, crc) = match parse_frame_header(header, shared.cfg.max_frame) {
            Ok(x) => x,
            Err(e) => {
                let code = match &e {
                    WireError::FrameTooLarge { .. } => ErrorCode::FrameTooLarge,
                    _ => ErrorCode::Malformed,
                };
                desync(conn, code, e.to_string());
                break;
            }
        };
        let total = FRAME_HEADER + len as usize;
        let Some(payload) = buf.get(FRAME_HEADER..total) else {
            // Incomplete frame: wait for more bytes.
            break;
        };
        match check_payload(crc, payload).and_then(|()| Request::decode(payload)) {
            Ok(req) => {
                conn.rd_pos += total;
                handle_parsed(conn, shared, req);
            }
            Err(e) => {
                let code = match &e {
                    WireError::VersionMismatch { .. } => ErrorCode::VersionMismatch,
                    _ => ErrorCode::Malformed,
                };
                desync(conn, code, e.to_string());
                break;
            }
        }
    }
    compact_rd(conn);
}

/// A framing/decode error desynchronises the stream: answer with a
/// typed error *after* every already-accepted response, then close.
fn desync(conn: &mut Conn, code: ErrorCode, msg: String) {
    let seq = conn.next_seq;
    conn.next_seq += 1;
    deliver(conn, seq, error_response(code, msg));
    conn.stop_reading = true;
    conn.close_after_drain = true;
    conn.rd.clear();
    conn.rd_pos = 0;
}

/// Routes one decoded request: control-plane answers inline, work is
/// admitted (or shed) and joins the barrier queue.
fn handle_parsed(conn: &mut Conn, shared: &Shared, req: Request) {
    let seq = conn.next_seq;
    conn.next_seq += 1;
    match req {
        Request::Ping | Request::Stats | Request::ObsStats => {
            let resp = control_response(req, shared);
            deliver(conn, seq, resp);
        }
        Request::Shutdown => {
            shared.shutdown.store(true, Ordering::SeqCst);
            shared.dispatch.kick_all();
            deliver(conn, seq, Response::Shutdown);
            conn.stop_reading = true;
            conn.close_after_drain = true;
        }
        work => {
            if shared.shutdown.load(Ordering::SeqCst) {
                deliver(
                    conn,
                    seq,
                    error_response(ErrorCode::ShuttingDown, "server is draining"),
                );
                return;
            }
            // `WalShip` is control-plane but file-backed: the WAL read
            // would block the event loop, so it rides the dispatcher like
            // work, holding no place (replicas must keep catching up
            // precisely when the primary is shedding query traffic).
            let place = if matches!(work, Request::WalShip { .. }) {
                None
            } else if let Some(place) = shared.dispatch.admit() {
                Some(place)
            } else {
                deliver(
                    conn,
                    seq,
                    error_response(ErrorCode::Overloaded, "request queue full"),
                );
                return;
            };
            conn.pending.push_back(Work {
                conn: conn.id,
                seq,
                deadline: Deadline::from_ms(work.deadline_ms()),
                write: matches!(work, Request::Insert { .. } | Request::Delete { .. }),
                req: work,
                place,
                enqueued_at: spb_obs::clock::now(),
            });
        }
    }
}

/// Moves barrier-eligible pending work onto the dispatcher. Reads flow
/// freely together; a write waits for quiescence and then blocks the
/// pipeline behind it.
fn pump(conn: &mut Conn, shared: &Shared) {
    loop {
        let eligible = match conn.pending.front() {
            None => false,
            Some(head) if head.write => conn.reads_inflight == 0 && !conn.write_inflight,
            Some(_) => !conn.write_inflight,
        };
        if !eligible {
            return;
        }
        let Some(w) = conn.pending.pop_front() else {
            return;
        };
        if w.write {
            conn.write_inflight = true;
        } else {
            conn.reads_inflight += 1;
        }
        shared.dispatch.push(w);
    }
}

fn compact_rd(conn: &mut Conn) {
    if conn.rd_pos > 0 {
        if conn.rd_pos >= conn.rd.len() {
            conn.rd.clear();
            conn.rd_pos = 0;
        } else if conn.rd_pos >= COMPACT_THRESHOLD {
            let len = conn.rd.len();
            conn.rd.copy_within(conn.rd_pos..len, 0);
            conn.rd.truncate(len - conn.rd_pos);
            conn.rd_pos = 0;
        }
    }
    if conn.rd.is_empty() && conn.rd.capacity() > BUF_SHRINK_CAP {
        conn.rd.shrink_to(READ_CHUNK);
    }
}

// ---------------------------------------------------------------------
// The loop
// ---------------------------------------------------------------------

#[derive(Clone, Copy)]
enum Target {
    Listener,
    Waker,
    Conn(usize),
}

/// Runs the event loop until shutdown completes its drain (or a fatal
/// listener error). The caller joins the dispatcher workers and then
/// checkpoints the index.
pub(crate) fn run(
    listener: &TcpListener,
    waker_rx: &UnixStream,
    shared: &Shared,
) -> io::Result<()> {
    let mut conns: Vec<Option<Conn>> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut next_gen: u64 = 0;
    let mut live: usize = 0;
    let mut fds: Vec<sys::PollFd> = Vec::new();
    let mut targets: Vec<Target> = Vec::new();
    let mut drain_started: Option<Instant> = None;

    loop {
        let shutting = shared.shutdown.load(Ordering::SeqCst);
        fds.clear();
        targets.clear();
        if !shutting {
            fds.push(sys::PollFd {
                fd: listener.as_raw_fd(),
                events: sys::POLLIN,
                revents: 0,
            });
            targets.push(Target::Listener);
        }
        fds.push(sys::PollFd {
            fd: waker_rx.as_raw_fd(),
            events: sys::POLLIN,
            revents: 0,
        });
        targets.push(Target::Waker);
        for (i, slot) in conns.iter().enumerate() {
            let Some(c) = slot else { continue };
            let mut ev: i16 = 0;
            if c.wants_read(&shared.cfg) {
                ev |= sys::POLLIN;
            }
            if c.has_write_data() {
                ev |= sys::POLLOUT;
            }
            if ev != 0 {
                fds.push(sys::PollFd {
                    fd: c.stream.as_raw_fd(),
                    events: ev,
                    revents: 0,
                });
                targets.push(Target::Conn(i));
            }
        }

        // Idle = block forever: zero wakeups, zero CPU. The waker fd
        // interrupts for completions and shutdown; during the shutdown
        // drain a bounded timeout enforces the grace cap.
        let timeout_ms = if shutting { 100 } else { -1 };
        match sys::poll_fds(&mut fds, timeout_ms) {
            Ok(_) => {}
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
        wakeup_counter().incr();

        for k in 0..fds.len() {
            let revents = fds.get(k).map_or(0, |p| p.revents);
            if revents == 0 {
                continue;
            }
            match targets.get(k).copied() {
                Some(Target::Listener) => accept_ready(
                    listener,
                    shared,
                    &mut conns,
                    &mut free,
                    &mut next_gen,
                    &mut live,
                )?,
                Some(Target::Waker) => drain_waker(waker_rx),
                Some(Target::Conn(i)) => {
                    if revents & sys::POLLNVAL != 0 {
                        close_conn(&mut conns, &mut free, &mut live, i);
                        continue;
                    }
                    let fatal = match conns.get_mut(i).and_then(Option::as_mut) {
                        Some(c) if revents & (sys::POLLIN | sys::POLLERR | sys::POLLHUP) != 0 => {
                            read_ready(c, shared)
                        }
                        Some(_) | None => false,
                    };
                    if fatal {
                        close_conn(&mut conns, &mut free, &mut live, i);
                    }
                }
                None => {}
            }
        }

        route_completions(shared, &mut conns);

        if shared.shutdown.load(Ordering::SeqCst) && drain_started.is_none() {
            drain_started = Some(spb_obs::clock::now());
            begin_drain(&mut conns);
        }

        // Flush everything owed; close connections that finished.
        for i in 0..conns.len() {
            let done = match conns.get_mut(i).and_then(Option::as_mut) {
                Some(c) => flush_conn(c).is_err() || (c.should_close() && c.drained()),
                None => false,
            };
            if done {
                close_conn(&mut conns, &mut free, &mut live, i);
            }
        }

        if let Some(t0) = drain_started {
            if live == 0 {
                break;
            }
            if spb_obs::clock::nanos_since(t0) > DRAIN_GRACE_NANOS {
                for i in 0..conns.len() {
                    close_conn(&mut conns, &mut free, &mut live, i);
                }
                break;
            }
        }
    }
    open_conns_gauge().set(0);
    Ok(())
}

/// Accepts every pending connection; over-limit ones are refused with a
/// best-effort `Overloaded` frame.
fn accept_ready(
    listener: &TcpListener,
    shared: &Shared,
    conns: &mut Vec<Option<Conn>>,
    free: &mut Vec<usize>,
    next_gen: &mut u64,
    live: &mut usize,
) -> io::Result<()> {
    loop {
        // spb-lint: allow(block-reach) — the listener is
        // registered non-blocking at bind; this accept returns
        // WouldBlock instead of sleeping.
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    continue;
                }
                if *live >= shared.cfg.max_connections {
                    // spb-lint: allow(block-reach) — refuse_connection
                    // writes one small frame under a 100 ms write
                    // timeout; a bounded courtesy beats silently
                    // dropping the socket.
                    crate::server::refuse_connection(stream);
                    continue;
                }
                if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                    continue;
                }
                let idx = free.pop().unwrap_or(conns.len());
                *next_gen += 1;
                let conn = Conn::new(
                    stream,
                    ConnId {
                        idx,
                        gen: *next_gen,
                    },
                );
                if idx == conns.len() {
                    conns.push(Some(conn));
                } else if let Some(slot) = conns.get_mut(idx) {
                    *slot = Some(conn);
                }
                *live += 1;
                open_conns_gauge().set(*live as i64);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

fn drain_waker(rx: &UnixStream) {
    let mut buf = [0u8; 64];
    let mut r = rx;
    loop {
        match r.read(&mut buf) {
            Ok(0) => return,
            Ok(_) => {}
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

/// Delivers finished work back to its connection (dropping completions
/// for connections that died — the generation check catches slot
/// reuse), releases the barrier, and pumps newly eligible work.
fn route_completions(shared: &Shared, conns: &mut [Option<Conn>]) {
    let comps = {
        let mut g = shared.completions.lock();
        std::mem::take(&mut *g)
    };
    for comp in comps {
        let Some(c) = conns.get_mut(comp.conn.idx).and_then(Option::as_mut) else {
            continue;
        };
        if c.id.gen != comp.conn.gen {
            continue;
        }
        if comp.write {
            c.write_inflight = false;
        } else {
            c.reads_inflight = c.reads_inflight.saturating_sub(1);
        }
        deliver(c, comp.seq, comp.resp);
        // A freed pipeline slot may unblock buffered frames.
        parse_frames(c, shared);
        pump(c, shared);
    }
}

/// Starts the shutdown drain: stop reading everywhere and refuse every
/// not-yet-dispatched request with `ShuttingDown` (dispatched work
/// finishes and its responses still flush).
fn begin_drain(conns: &mut [Option<Conn>]) {
    for slot in conns.iter_mut() {
        let Some(c) = slot.as_mut() else { continue };
        c.stop_reading = true;
        c.close_after_drain = true;
        while let Some(w) = c.pending.pop_front() {
            deliver(
                c,
                w.seq,
                error_response(ErrorCode::ShuttingDown, "server is draining"),
            );
        }
    }
}

/// Removes a connection. Dropping it drops the work it still held back,
/// which frees those requests' places; completions already executing
/// for it are dropped later by the generation check.
fn close_conn(conns: &mut [Option<Conn>], free: &mut Vec<usize>, live: &mut usize, i: usize) {
    let Some(slot) = conns.get_mut(i) else { return };
    if slot.take().is_none() {
        return;
    }
    free.push(i);
    *live = live.saturating_sub(1);
    open_conns_gauge().set(*live as i64);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A writer that accepts at most `caps[i]` bytes on call `i`, then
    /// reports `WouldBlock` until re-armed — the shape of a full socket
    /// send buffer.
    struct ChokedWriter {
        out: Vec<u8>,
        caps: Vec<usize>,
        call: usize,
    }

    impl Write for ChokedWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let cap = self.caps.get(self.call).copied();
            self.call += 1;
            match cap {
                Some(0) | None => Err(io::ErrorKind::WouldBlock.into()),
                Some(cap) => {
                    let n = cap.min(buf.len());
                    self.out.extend_from_slice(&buf[..n]);
                    Ok(n)
                }
            }
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
        // Default write_vectored forwards to write() on the first
        // non-empty slice, which is exactly the partial-write case we
        // want to exercise.
    }

    #[test]
    fn drain_buffers_resumes_after_partial_writes() {
        let mut front: Vec<u8> = (0u8..50).collect();
        let mut back: Vec<u8> = (50u8..100).collect();
        let expect: Vec<u8> = (0u8..100).collect();
        let mut pos = 0usize;
        let mut w = ChokedWriter {
            out: Vec::new(),
            caps: vec![7, 0, 3, 13, 0, 0, 64, 64, 64],
            call: 0,
        };
        // Drive until both buffers drain; every call may stop early on
        // an injected WouldBlock, exactly like a real readiness loop.
        for _ in 0..16 {
            drain_buffers(&mut w, &mut front, &mut pos, &mut back).unwrap();
            if pos >= front.len() && back.is_empty() {
                break;
            }
        }
        assert!(pos >= front.len() && back.is_empty(), "buffers drained");
        assert_eq!(w.out, expect, "bytes arrive once each, in order");
    }

    #[test]
    fn drain_buffers_swaps_back_to_front() {
        let mut front: Vec<u8> = Vec::new();
        let mut back: Vec<u8> = vec![1, 2, 3];
        let mut pos = 0usize;
        let mut w = ChokedWriter {
            out: Vec::new(),
            caps: vec![64],
            call: 0,
        };
        drain_buffers(&mut w, &mut front, &mut pos, &mut back).unwrap();
        assert_eq!(w.out, vec![1, 2, 3]);
        assert!(back.is_empty());
    }

    #[test]
    fn write_zero_is_an_error() {
        struct Zero;
        impl Write for Zero {
            fn write(&mut self, _b: &[u8]) -> io::Result<usize> {
                Ok(0)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut front = vec![1u8];
        let mut back = Vec::new();
        let mut pos = 0usize;
        let err = drain_buffers(&mut Zero, &mut front, &mut pos, &mut back).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
    }

    #[test]
    fn waker_wakes_poll() {
        let (waker, rx) = waker_pair().unwrap();
        let mut fds = [sys::PollFd {
            fd: rx.as_raw_fd(),
            events: sys::POLLIN,
            revents: 0,
        }];
        // Nothing written yet: an immediate poll sees nothing.
        assert_eq!(sys::poll_fds(&mut fds, 0).unwrap(), 0);
        waker.wake();
        assert_eq!(sys::poll_fds(&mut fds, 1000).unwrap(), 1);
        assert_ne!(fds[0].revents & sys::POLLIN, 0);
        drain_waker(&rx);
        fds[0].revents = 0;
        assert_eq!(sys::poll_fds(&mut fds, 0).unwrap(), 0, "drained");
    }
}
