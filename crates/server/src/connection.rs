//! Connections: an acceptor thread, and a reader and a writer thread per
//! accepted socket over blocking sockets (DESIGN.md §13).
//!
//! The acceptor ([`run`]) gives each socket, up to `max_connections`,
//! its two threads. The reader decodes frames through a `BufReader`:
//! after each blocking read it decodes every whole frame already
//! buffered and only then pumps, so a pipelined burst reaches the
//! dispatch queue together and coalesces. It answers control requests
//! itself, admits work onto the dispatcher ([`crate::dispatch`]), and
//! stops reading at `max_pipeline` unanswered requests.
//!
//! Every request gets a per-connection sequence number and responses
//! are encoded strictly in that order. Reads may run concurrently;
//! writes (`Insert`/`Delete`) are full barriers, so a pipelined stream
//! sees exactly the semantics of sequential execution.
//!
//! Whichever thread finishes the next owed response — the reader or a
//! dispatcher worker — encodes it into the output buffer with
//! [`frame_into`]. Only the writer thread writes the socket: a client
//! may write its whole pipeline before it reads anything, so a reader or
//! a dispatcher worker blocked in `write` on it would stop reading that
//! pipeline, or stall every worker, while the client waits on the server.
//!
//! This module is a no-panic zone.

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
use std::io::{self, BufReader, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, OnceLock, Weak};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use spb_storage::lockrank::{LockRank, RankedMutex};

use crate::dispatch::{Deadline, Place, Work};
use crate::server::{error_response, refuse_connection, Shared};
use crate::wire::{
    frame_into, parse_frame_header, read_frame_into, ErrorCode, Request, Response, WireError,
    FRAME_HEADER, PROTOCOL_VERSION,
};

/// Read buffer size of a connection's `BufReader`.
const READ_CHUNK: usize = 64 * 1024;
/// Capacity above which an emptied output buffer is given back.
const BUF_SHRINK_CAP: usize = 1 << 20;
/// Shutdown drain grace period before connections are force-closed.
const DRAIN_GRACE_NANOS: u64 = 5_000_000_000;

/// The `phase.encode` histogram: response serialisation into the output
/// buffer, in nanoseconds. The span covers only the in-memory encode;
/// the socket write is the writer's.
fn encode_hist() -> &'static Arc<spb_obs::Histogram> {
    static H: OnceLock<Arc<spb_obs::Histogram>> = OnceLock::new();
    H.get_or_init(|| spb_obs::histogram("phase.encode"))
}

/// Currently open client connections, summed over every server in the
/// process.
fn open_conns_gauge() -> &'static Arc<spb_obs::Gauge> {
    static G: OnceLock<Arc<spb_obs::Gauge>> = OnceLock::new();
    G.get_or_init(|| spb_obs::gauge("open_connections"))
}

/// One connection: its socket and the state its threads and the
/// dispatcher workers share.
pub(crate) struct Conn {
    stream: TcpStream,
    state: RankedMutex<State>,
    /// Signals the writer (output to write, or the end) and the reader
    /// (pipeline room, or the end).
    cv: Condvar,
}

#[derive(Default)]
struct State {
    /// Encoded responses the writer has not taken yet.
    out: Vec<u8>,
    /// Next sequence number to assign to a decoded request.
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
    /// Decode nothing more (EOF, desync error, `Shutdown`, drain, close).
    stop_reading: bool,
    /// Transport failure or forced close: both threads exit at once.
    closed: bool,
}

impl State {
    /// Requests decoded but not yet answered (encoded).
    fn outstanding(&self) -> u64 {
        self.next_seq.saturating_sub(self.next_send)
    }

    /// Assigns the next sequence number.
    fn next(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// The writer may exit: nothing more will be decoded and every owed
    /// response is written, or the connection is closed.
    fn finished(&self) -> bool {
        self.closed || (self.stop_reading && self.next_send == self.next_seq && self.out.is_empty())
    }

    /// Encodes the response for `seq` if it is the next one owed,
    /// otherwise stashes it until its turn.
    fn deliver(&mut self, seq: u64, resp: Response) {
        if seq != self.next_send {
            self.stash.push((seq, resp));
            return;
        }
        self.encode(resp);
        while let Some(pos) = self.stash.iter().position(|(s, _)| *s == self.next_send) {
            let (_, resp) = self.stash.swap_remove(pos);
            self.encode(resp);
        }
    }

    /// Serialises one response frame straight into the output buffer.
    fn encode(&mut self, resp: Response) {
        let t0 = spb_obs::clock::now();
        frame_into(&mut self.out, |out| resp.encode_into(out));
        encode_hist().record(spb_obs::clock::nanos_since(t0));
        self.next_send += 1;
    }

    /// Moves barrier-eligible pending work onto the dispatcher. Reads
    /// flow freely together; a write waits for quiescence and then blocks
    /// the pipeline behind it.
    fn pump(&mut self, shared: &Shared) {
        loop {
            let eligible = match self.pending.front() {
                None => false,
                Some(head) if head.write => self.reads_inflight == 0 && !self.write_inflight,
                Some(_) => !self.write_inflight,
            };
            if !eligible {
                return;
            }
            let Some(w) = self.pending.pop_front() else {
                return;
            };
            if w.write {
                self.write_inflight = true;
            } else {
                self.reads_inflight += 1;
            }
            shared.dispatch.push(w);
        }
    }
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        open_conns_gauge().adjust(1);
        Conn {
            stream,
            state: RankedMutex::new(LockRank::Connection, State::default()),
            cv: Condvar::new(),
        }
    }

    /// Delivers a dispatcher worker's answer to request `seq`, releases
    /// the barrier it held, and pumps newly eligible work.
    pub(crate) fn answer(&self, seq: u64, write: bool, resp: Response, shared: &Shared) {
        let mut st = self.state.lock();
        if write {
            st.write_inflight = false;
        } else {
            st.reads_inflight = st.reads_inflight.saturating_sub(1);
        }
        st.deliver(seq, resp);
        st.pump(shared);
        drop(st);
        self.cv.notify_all();
    }

    /// Ends the connection at once. Dropping the held-back work frees
    /// those requests' places; answers still executing for it are
    /// dropped when they arrive.
    fn close(&self) {
        let mut st = self.state.lock();
        st.closed = true;
        st.stop_reading = true;
        st.pending.clear();
        drop(st);
        self.cv.notify_all();
        let _ = self.stream.shutdown(Shutdown::Both);
    }

    /// This connection's share of the shutdown drain: decode nothing
    /// more, refuse held-back work with `ShuttingDown` (dispatched work
    /// finishes and its answer is still written), and wake a reader
    /// blocked in `read`.
    fn drain(&self) {
        let mut st = self.state.lock();
        st.stop_reading = true;
        while let Some(w) = st.pending.pop_front() {
            st.deliver(
                w.seq,
                error_response(ErrorCode::ShuttingDown, "server is draining"),
            );
        }
        drop(st);
        self.cv.notify_all();
        let _ = self.stream.shutdown(Shutdown::Read);
    }

    /// Blocks while the pipeline is full. False once reading has stopped.
    fn wait_for_room(&self, max_pipeline: u64) -> bool {
        let mut st = self.state.lock();
        while !st.stop_reading && st.outstanding() >= max_pipeline {
            st = st.wait(&self.cv);
        }
        !st.stop_reading
    }
}

impl Drop for Conn {
    fn drop(&mut self) {
        open_conns_gauge().adjust(-1);
    }
}

/// The writer thread, the only one that writes the socket: it takes
/// everything encoded so far and writes it with the state unlocked, until
/// the connection is finished. Its spare buffer swaps with the output
/// buffer, so both keep their capacity.
fn write_loop(conn: &Conn) {
    let mut buf = Vec::new();
    let mut st = conn.state.lock();
    while !st.finished() {
        if st.out.is_empty() {
            st = st.wait(&conn.cv);
            continue;
        }
        std::mem::swap(&mut st.out, &mut buf);
        drop(st);
        if (&conn.stream).write_all(&buf).is_err() {
            conn.close();
        }
        buf.clear();
        if buf.capacity() > BUF_SHRINK_CAP {
            buf = Vec::new();
        }
        st = conn.state.lock();
    }
}

/// The reader thread: one blocking frame read, then every whole frame
/// already buffered, then one pump and a signal to the writer.
fn read_loop(conn: &Arc<Conn>, shared: &Shared) {
    let max_frame = shared.cfg.max_frame;
    let max_pipeline = shared.cfg.max_pipeline as u64;
    let mut rd = BufReader::with_capacity(READ_CHUNK, &conn.stream);
    let mut payload = Vec::new();
    let mut reading = true;
    while reading {
        loop {
            reading = conn.wait_for_room(max_pipeline)
                && take_frame(
                    conn,
                    read_frame_into(&mut rd, max_frame, &mut payload),
                    &payload,
                    shared,
                );
            if !reading || !frame_buffered(rd.buffer(), max_frame) {
                break;
            }
        }
        conn.state.lock().pump(shared);
        conn.cv.notify_all();
    }
}

/// True when `buf` holds a whole frame, or a header whose error can be
/// reported without reading further.
fn frame_buffered(buf: &[u8], max_frame: u32) -> bool {
    match buf.get(..FRAME_HEADER).map(<&[u8; FRAME_HEADER]>::try_from) {
        Some(Ok(header)) => parse_frame_header(header, max_frame)
            .map_or(true, |(len, _)| buf.len() >= FRAME_HEADER + len as usize),
        _ => false,
    }
}

/// Acts on one frame read. Returns whether to keep reading.
fn take_frame(
    conn: &Arc<Conn>,
    read: Result<(), WireError>,
    payload: &[u8],
    shared: &Shared,
) -> bool {
    let err = match read.and_then(|()| Request::decode(payload)) {
        Ok(req) => return handle(conn, req, shared),
        Err(WireError::Io(e)) => {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                // The peer is done sending: answer what it asked, then close.
                conn.state.lock().stop_reading = true;
            } else {
                conn.close();
            }
            return false;
        }
        Err(e) => e,
    };
    // A framing or decode error desynchronises the stream: answer with a
    // typed error after every already-accepted response, then close.
    let code = match &err {
        WireError::FrameTooLarge { .. } => ErrorCode::FrameTooLarge,
        WireError::VersionMismatch { .. } => ErrorCode::VersionMismatch,
        _ => ErrorCode::Malformed,
    };
    let mut st = conn.state.lock();
    let seq = st.next();
    st.deliver(seq, error_response(code, err.to_string()));
    st.stop_reading = true;
    false
}

/// Routes one decoded request: control-plane answers inline, work is
/// admitted (or shed) and joins the barrier queue. Returns whether to
/// keep reading. The in-memory control requests bypass admission: they
/// must stay answerable under overload.
fn handle(conn: &Arc<Conn>, req: Request, shared: &Shared) -> bool {
    let svc = shared.service.as_ref();
    let mut st = conn.state.lock();
    let seq = st.next();
    let resp = match req {
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
        Request::Shutdown => {
            st.deliver(seq, Response::Shutdown);
            st.stop_reading = true;
            drop(st);
            shared.begin_shutdown();
            return false;
        }
        _ if shared.shutdown.load(Ordering::SeqCst) => {
            error_response(ErrorCode::ShuttingDown, "server is draining")
        }
        // `WalShip` is control-plane but file-backed: the WAL read rides
        // the dispatcher like work, holding no place (replicas must keep
        // catching up precisely when the primary is shedding queries).
        Request::WalShip { .. } => {
            st.pending.push_back(work(conn, seq, req, None));
            return true;
        }
        req => match shared.dispatch.admit() {
            Some(place) => {
                st.pending.push_back(work(conn, seq, req, Some(place)));
                return true;
            }
            None => error_response(ErrorCode::Overloaded, "request queue full"),
        },
    };
    st.deliver(seq, resp);
    true
}

fn work(conn: &Arc<Conn>, seq: u64, req: Request, place: Option<Place>) -> Work {
    Work {
        conn: Arc::downgrade(conn),
        seq,
        deadline: Deadline::from_ms(req.deadline_ms()),
        write: matches!(req, Request::Insert { .. } | Request::Delete { .. }),
        req,
        place,
        enqueued_at: spb_obs::clock::now(),
    }
}

/// One accepted connection as the acceptor tracks it.
struct Tracked {
    conn: Weak<Conn>,
    threads: [JoinHandle<()>; 2],
}

impl Tracked {
    fn finished(&self) -> bool {
        self.threads.iter().all(JoinHandle::is_finished)
    }

    fn join(self) {
        for t in self.threads {
            // A connection thread that panicked has nothing left to
            // report: its peer already lost the connection.
            let _ = t.join();
        }
    }
}

/// Gives an accepted socket its writer and reader threads.
fn spawn(stream: TcpStream, shared: &Arc<Shared>) -> io::Result<Tracked> {
    stream.set_nodelay(true)?;
    let conn = Arc::new(Conn::new(stream));
    let c = Arc::clone(&conn);
    let writer = thread::Builder::new()
        .name("spb-conn-writer".into())
        .spawn(move || write_loop(&c))?;
    let (c, s) = (Arc::clone(&conn), Arc::clone(shared));
    match thread::Builder::new()
        .name("spb-conn-reader".into())
        .spawn(move || read_loop(&c, &s))
    {
        Ok(reader) => Ok(Tracked {
            conn: Arc::downgrade(&conn),
            threads: [reader, writer],
        }),
        Err(e) => {
            conn.close();
            let _ = writer.join();
            Err(e)
        }
    }
}

/// Runs the acceptor until shutdown (or a fatal listener error), then
/// drains every connection. The caller stops the dispatcher workers and
/// checkpoints the index.
pub(crate) fn run(listener: TcpListener, shared: &Arc<Shared>) -> io::Result<()> {
    let mut conns: Vec<Tracked> = Vec::new();
    let accepted = accept_loop(&listener, shared, &mut conns);
    shared.accepting.store(false, Ordering::SeqCst);
    drop(listener);
    shared.shutdown.store(true, Ordering::SeqCst);
    drain(conns);
    accepted
}

fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    conns: &mut Vec<Tracked>,
) -> io::Result<()> {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            return Ok(());
        }
        let (done, live): (Vec<Tracked>, Vec<Tracked>) = std::mem::take(conns)
            .into_iter()
            .partition(Tracked::finished);
        *conns = live;
        done.into_iter().for_each(Tracked::join);
        if conns.len() >= shared.cfg.max_connections {
            refuse_connection(stream);
        } else if let Ok(t) = spawn(stream, shared) {
            conns.push(t);
        }
    }
}

/// Drains every connection, waits up to the grace period for them to
/// finish, force-closes the rest, and joins every connection thread.
fn drain(conns: Vec<Tracked>) {
    let live = || conns.iter().filter_map(|t| t.conn.upgrade());
    live().for_each(|c| c.drain());
    let t0 = spb_obs::clock::now();
    while conns.iter().any(|t| !t.finished()) {
        if spb_obs::clock::nanos_since(t0) > DRAIN_GRACE_NANOS {
            live().for_each(|c| c.close());
            break;
        }
        thread::sleep(Duration::from_millis(5));
    }
    conns.into_iter().for_each(Tracked::join);
}
