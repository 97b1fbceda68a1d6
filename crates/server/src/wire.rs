//! The `spb-server` wire protocol: length-prefixed, CRC-framed, versioned
//! binary messages.
//!
//! ## Frame layout
//!
//! Every message — request or response — travels in one frame:
//!
//! ```text
//! [len: u32 LE] [crc32(payload): u32 LE] [payload: len bytes]
//! payload = [version: u8] [opcode: u8] [body]
//! ```
//!
//! The CRC is the same reflected IEEE CRC-32 the WAL and page footers use
//! ([`spb_storage::checksum::crc32`]), so a torn or corrupted frame is
//! detected before any of its bytes are interpreted. `len` counts the
//! payload only and is bounded by the receiver's configured maximum frame
//! size; an oversized header is rejected *before* any allocation.
//!
//! ## Requests and responses
//!
//! Request opcodes occupy `0x01..=0x0F`; a successful response echoes the
//! request opcode with the top bit set (`op | 0x80`); every failure uses
//! the single error opcode `0xFF` carrying a typed [`ErrorCode`] plus a
//! human-readable message. Metric objects cross the wire in their
//! [`MetricObject::encode`](spb_metric::MetricObject) byte form, wrapped
//! as `[len: u32][bytes]`; the server decodes them against its schema and
//! answers `Malformed` (never panics) when the bytes don't parse.
//!
//! ## Versioning
//!
//! Byte 0 of every payload is the protocol version
//! ([`PROTOCOL_VERSION`]). A server receiving a different version answers
//! `ErrorCode::VersionMismatch` (its own version rides in the error body)
//! and closes the connection; a client does the symmetric check on
//! responses. Decoding is total: any byte sequence either decodes to a
//! typed message or returns a typed [`WireError`] — malformed, truncated,
//! or oversized input never panics (property-tested in
//! `tests/wire_fuzz.rs`).

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

use std::fmt;
use std::io::{self, Read, Write};
use std::time::Duration;

use spb_core::{PlanError, QueryPlan, QueryShape, QueryStats};
use spb_storage::crc32;

use crate::service::Answers;

/// Version byte every payload starts with.
pub const PROTOCOL_VERSION: u8 = 1;

/// Frame header size: payload length + payload CRC.
pub const FRAME_HEADER: usize = 8;

/// Default maximum payload size either side accepts (8 MiB).
pub const DEFAULT_MAX_FRAME: u32 = 8 << 20;

// Request opcodes.
const OP_PING: u8 = 0x01;
const OP_RANGE: u8 = 0x02;
const OP_KNN: u8 = 0x03;
const OP_INSERT: u8 = 0x04;
const OP_DELETE: u8 = 0x05;
const OP_BATCH_RANGE: u8 = 0x06;
const OP_BATCH_KNN: u8 = 0x07;
const OP_STATS: u8 = 0x08;
const OP_SHUTDOWN: u8 = 0x09;
const OP_OBS_STATS: u8 = 0x0A;
const OP_WAL_SHIP: u8 = 0x0B;
const OP_RANGE_APPROX: u8 = 0x0C;
const OP_KNN_APPROX: u8 = 0x0D;
/// Response opcode for every failure.
const OP_ERROR: u8 = 0xFF;
/// Successful responses echo the request opcode with this bit set.
const RESP_BIT: u8 = 0x80;

/// Typed decoding/framing failure. Every malformed, truncated or
/// oversized input maps to one of these — never a panic.
#[derive(Debug)]
pub enum WireError {
    /// The input ended before the message did.
    Truncated,
    /// The payload decoded but left unconsumed bytes.
    Trailing(usize),
    /// The frame's CRC does not match its payload.
    BadCrc {
        /// CRC stored in the frame header.
        expected: u32,
        /// CRC of the received payload bytes.
        got: u32,
    },
    /// The frame header announces a payload beyond the configured limit
    /// (or an impossible empty payload).
    FrameTooLarge {
        /// Announced payload length.
        len: u32,
        /// Receiver's limit.
        max: u32,
    },
    /// Unknown opcode byte.
    BadOpcode(u8),
    /// An error response carried an unknown [`ErrorCode`] byte.
    BadErrorCode(u8),
    /// The peer speaks a different protocol version.
    VersionMismatch {
        /// Version byte the peer sent.
        got: u8,
    },
    /// Transport-level failure.
    Io(io::Error),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated message"),
            WireError::Trailing(n) => write!(f, "{n} trailing byte(s) after message"),
            WireError::BadCrc { expected, got } => {
                write!(
                    f,
                    "frame CRC mismatch (header {expected:#010x}, payload {got:#010x})"
                )
            }
            WireError::FrameTooLarge { len, max } => {
                write!(f, "frame payload of {len} bytes exceeds limit of {max}")
            }
            WireError::BadOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
            WireError::BadErrorCode(b) => write!(f, "unknown error code {b:#04x}"),
            WireError::VersionMismatch { got } => {
                write!(
                    f,
                    "peer speaks protocol version {got}, this side speaks {PROTOCOL_VERSION}"
                )
            }
            WireError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

/// Why the server refused or failed a request. The numeric value is the
/// byte on the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// Admission control shed the request: queue full. Retry later.
    Overloaded = 1,
    /// The request's deadline passed before (or while) it executed.
    DeadlineExceeded = 2,
    /// Client and server protocol versions differ.
    VersionMismatch = 3,
    /// The request decoded at the frame level but its contents are
    /// invalid (bad opcode, bad object bytes, CRC failure, …).
    Malformed = 4,
    /// The request frame exceeds the server's maximum frame size.
    FrameTooLarge = 5,
    /// The request was valid but execution failed server-side.
    Internal = 6,
    /// The server is draining for shutdown and admits no new work.
    ShuttingDown = 7,
}

impl ErrorCode {
    fn from_byte(b: u8) -> Result<ErrorCode, WireError> {
        Ok(match b {
            1 => ErrorCode::Overloaded,
            2 => ErrorCode::DeadlineExceeded,
            3 => ErrorCode::VersionMismatch,
            4 => ErrorCode::Malformed,
            5 => ErrorCode::FrameTooLarge,
            6 => ErrorCode::Internal,
            7 => ErrorCode::ShuttingDown,
            // Named (not `_`) so a new code added above without a decode
            // arm still surfaces its byte in the error.
            unknown => return Err(WireError::BadErrorCode(unknown)),
        })
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::DeadlineExceeded => "deadline exceeded",
            ErrorCode::VersionMismatch => "protocol version mismatch",
            ErrorCode::Malformed => "malformed request",
            ErrorCode::FrameTooLarge => "frame too large",
            ErrorCode::Internal => "internal error",
            ErrorCode::ShuttingDown => "shutting down",
        };
        f.write_str(s)
    }
}

/// Per-query cost metrics in wire form (a serialised
/// [`QueryStats`](spb_core::QueryStats); `duration` travels as
/// nanoseconds).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Distance computations.
    pub compdists: u64,
    /// Total page accesses.
    pub page_accesses: u64,
    /// B⁺-tree share of the page accesses.
    pub btree_pa: u64,
    /// RAF share of the page accesses.
    pub raf_pa: u64,
    /// fsyncs (updates only).
    pub fsyncs: u64,
    /// Server-side wall-clock nanoseconds.
    pub duration_nanos: u64,
}

impl From<&QueryStats> for WireStats {
    fn from(s: &QueryStats) -> Self {
        WireStats {
            compdists: s.compdists,
            page_accesses: s.page_accesses,
            btree_pa: s.btree_pa,
            raf_pa: s.raf_pa,
            fsyncs: s.fsyncs,
            duration_nanos: s.duration.as_nanos() as u64,
        }
    }
}

impl From<&WireStats> for QueryStats {
    fn from(w: &WireStats) -> Self {
        QueryStats {
            compdists: w.compdists,
            page_accesses: w.page_accesses,
            btree_pa: w.btree_pa,
            raf_pa: w.raf_pa,
            fsyncs: w.fsyncs,
            duration: Duration::from_nanos(w.duration_nanos),
            recall: None,
        }
    }
}

/// A decoded client request. Objects are opaque
/// [`MetricObject::encode`](spb_metric::MetricObject) byte strings; the
/// service decodes them against its schema. `deadline_ms` is a relative
/// budget in milliseconds measured from receipt (`0` = no deadline).
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Liveness + handshake: the response carries the server's protocol
    /// version and schema so clients can encode objects correctly.
    Ping,
    /// `RQ(q, r)`.
    Range {
        /// Relative deadline in ms (0 = none).
        deadline_ms: u32,
        /// Search radius.
        radius: f64,
        /// Encoded query object.
        obj: Vec<u8>,
    },
    /// `kNN(q, k)`.
    Knn {
        /// Relative deadline in ms (0 = none).
        deadline_ms: u32,
        /// Neighbour count.
        k: u32,
        /// Encoded query object.
        obj: Vec<u8>,
    },
    /// Insert one object.
    Insert {
        /// Relative deadline in ms (0 = none).
        deadline_ms: u32,
        /// Encoded object.
        obj: Vec<u8>,
    },
    /// Delete one object equal to the payload.
    Delete {
        /// Relative deadline in ms (0 = none).
        deadline_ms: u32,
        /// Encoded object.
        obj: Vec<u8>,
    },
    /// A batch of range queries sharing one radius, fanned across the
    /// server's worker pool.
    BatchRange {
        /// Relative deadline in ms (0 = none), enforced between
        /// traversal batches.
        deadline_ms: u32,
        /// Search radius.
        radius: f64,
        /// Encoded query objects.
        objs: Vec<Vec<u8>>,
    },
    /// A batch of kNN queries sharing one `k`.
    BatchKnn {
        /// Relative deadline in ms (0 = none), enforced between
        /// traversal batches.
        deadline_ms: u32,
        /// Neighbour count.
        k: u32,
        /// Encoded query objects.
        objs: Vec<Vec<u8>>,
    },
    /// Index + service statistics.
    Stats,
    /// Full observability snapshot: every registered counter, gauge and
    /// latency histogram (see `spb-obs`), plus recent trace events when
    /// the server runs with tracing on.
    ObsStats,
    /// Ask the server to drain in-flight work, checkpoint and exit.
    Shutdown,
    /// Approximate `RQ(q, r)`: the pruning region is built from
    /// `r · contraction` while correctness checks keep the true `r`, so
    /// precision stays perfect and only recall is traded. The server
    /// answers with a plain [`Response::Range`]; a `contraction` outside
    /// `(0, 1]` (or non-finite) is `Malformed`.
    RangeApprox {
        /// Relative deadline in ms (0 = none).
        deadline_ms: u32,
        /// Search radius.
        radius: f64,
        /// Pruning-radius contraction factor in `(0, 1]`.
        contraction: f64,
        /// Encoded query object.
        obj: Vec<u8>,
    },
    /// α-approximate `kNN(q, k)`: every returned distance is at most
    /// `alpha` times the true k-th NN distance. Answered with a plain
    /// [`Response::Knn`]; an `alpha` below 1 (or non-finite) is
    /// `Malformed`.
    KnnApprox {
        /// Relative deadline in ms (0 = none).
        deadline_ms: u32,
        /// Neighbour count.
        k: u32,
        /// Approximation factor, `≥ 1`.
        alpha: f64,
        /// Encoded query object.
        obj: Vec<u8>,
    },
    /// Replication pull: stream the primary's CRC-framed WAL bytes
    /// starting at a byte offset (LSN). Control-plane: bypasses
    /// admission so replicas keep catching up while the primary sheds
    /// query traffic.
    WalShip {
        /// Byte offset into the primary's WAL to resume from (the
        /// replica's applied LSN).
        from_lsn: u64,
    },
}

/// The query a request carries, projected out of its wire variant by
/// [`Request::query`]: everything past this point handles one plan type
/// instead of six request shapes.
#[derive(Debug)]
pub struct Query<'a> {
    /// What to search for.
    pub plan: QueryPlan,
    /// The encoded query objects, one per answer row (a single query is a
    /// batch of one). Mutable so an executor can take the bytes instead
    /// of copying them.
    pub objs: &'a mut [Vec<u8>],
    /// True for the explicit batch ops, which are answered with one
    /// `Batch*` response instead of one response per row.
    pub batch: bool,
}

/// One range hit: object id plus encoded object.
pub type WireHit = (u32, Vec<u8>);
/// One kNN hit: object id, distance, encoded object.
pub type WireNn = (u32, f64, Vec<u8>);

/// A decoded server response.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Answer to [`Request::Ping`].
    Pong {
        /// Server protocol version.
        version: u8,
        /// The index's `cli.schema` line (how to encode objects).
        schema: String,
        /// Number of indexed objects.
        len: u64,
    },
    /// Answer to [`Request::Range`].
    Range {
        /// Matching objects.
        hits: Vec<WireHit>,
        /// Per-query costs.
        stats: WireStats,
    },
    /// Answer to [`Request::Knn`].
    Knn {
        /// Neighbours in ascending distance order.
        hits: Vec<WireNn>,
        /// Per-query costs.
        stats: WireStats,
    },
    /// Answer to [`Request::Insert`].
    Insert {
        /// Update costs (includes fsyncs).
        stats: WireStats,
    },
    /// Answer to [`Request::Delete`].
    Delete {
        /// Whether an object was removed.
        found: bool,
        /// Update costs.
        stats: WireStats,
    },
    /// Answer to [`Request::BatchRange`]: per-query hits and stats in
    /// input order.
    BatchRange {
        /// One `(hits, stats)` per query.
        queries: Vec<(Vec<WireHit>, WireStats)>,
    },
    /// Answer to [`Request::BatchKnn`].
    BatchKnn {
        /// One `(neighbours, stats)` per query.
        queries: Vec<(Vec<WireNn>, WireStats)>,
    },
    /// Answer to [`Request::Stats`].
    Stats {
        /// The index's schema line.
        schema: String,
        /// Number of indexed objects.
        len: u64,
        /// Total storage in bytes.
        storage_bytes: u64,
        /// Number of pivots.
        num_pivots: u32,
        /// Requests served since startup.
        served: u64,
        /// Requests shed by admission control since startup.
        shed: u64,
        /// Requests that missed their deadline (while queued or
        /// mid-execution) since startup.
        deadline_miss: u64,
    },
    /// Answer to [`Request::ObsStats`]: the server's full metrics
    /// registry at the moment of the request.
    ObsStats {
        /// Every registered counter, gauge and histogram, plus recent
        /// trace events if tracing is enabled.
        snapshot: spb_obs::Snapshot,
    },
    /// Acknowledges [`Request::Shutdown`]; the server drains and exits
    /// after sending this.
    Shutdown,
    /// Answer to [`Request::WalShip`]: raw, already CRC-framed WAL
    /// record bytes.
    WalShip {
        /// The primary's committed WAL length. A value *below* the
        /// requested `from_lsn` means the log was reset by a checkpoint
        /// since the replica last pulled; the replica must re-bootstrap
        /// from a fresh snapshot.
        wal_len: u64,
        /// Whole WAL frames covering `from_lsn..wal_len` (empty when
        /// the replica is caught up or the log restarted). Each frame
        /// carries its own CRC, checked again on apply.
        frames: Vec<u8>,
    },
    /// Any failure.
    Error {
        /// Typed failure class.
        code: ErrorCode,
        /// The responding server's protocol version (lets a client
        /// diagnose `VersionMismatch`).
        server_version: u8,
        /// Human-readable detail.
        message: String,
    },
}

// ---------------------------------------------------------------------
// Primitive encoding. All integers little-endian; byte strings and UTF-8
// strings are length-prefixed with a u32.
// ---------------------------------------------------------------------

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    out.extend_from_slice(&(b.len() as u32).to_le_bytes());
    out.extend_from_slice(b);
}

/// Bounded decoding cursor over a payload.
struct Cur<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    fn new(b: &'a [u8]) -> Self {
        Cur { b, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.b.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let s = self
            .b
            .get(self.pos..self.pos.saturating_add(n))
            .ok_or(WireError::Truncated)?;
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        self.take(1)?.first().copied().ok_or(WireError::Truncated)
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let s: [u8; 4] = self.take(4)?.try_into().map_err(|_| WireError::Truncated)?;
        Ok(u32::from_le_bytes(s))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        let s: [u8; 8] = self.take(8)?.try_into().map_err(|_| WireError::Truncated)?;
        Ok(u64::from_le_bytes(s))
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn i64(&mut self) -> Result<i64, WireError> {
        Ok(i64::from_le_bytes(self.u64()?.to_le_bytes()))
    }

    /// Length-prefixed byte string. The length is validated against the
    /// remaining payload before any allocation, so a corrupt length
    /// cannot trigger a huge allocation.
    fn lbytes(&mut self) -> Result<Vec<u8>, WireError> {
        let len = self.u32()? as usize;
        if len > self.remaining() {
            return Err(WireError::Truncated);
        }
        Ok(self.take(len)?.to_vec())
    }

    fn lstr(&mut self) -> Result<String, WireError> {
        let b = self.lbytes()?;
        String::from_utf8(b).map_err(|_| WireError::Truncated)
    }

    fn stats(&mut self) -> Result<WireStats, WireError> {
        Ok(WireStats {
            compdists: self.u64()?,
            page_accesses: self.u64()?,
            btree_pa: self.u64()?,
            raf_pa: self.u64()?,
            fsyncs: self.u64()?,
            duration_nanos: self.u64()?,
        })
    }

    fn finish(self) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(WireError::Trailing(self.remaining()));
        }
        Ok(())
    }
}

fn put_stats(out: &mut Vec<u8>, s: &WireStats) {
    out.extend_from_slice(&s.compdists.to_le_bytes());
    out.extend_from_slice(&s.page_accesses.to_le_bytes());
    out.extend_from_slice(&s.btree_pa.to_le_bytes());
    out.extend_from_slice(&s.raf_pa.to_le_bytes());
    out.extend_from_slice(&s.fsyncs.to_le_bytes());
    out.extend_from_slice(&s.duration_nanos.to_le_bytes());
}

fn put_hits(out: &mut Vec<u8>, hits: &[WireHit]) {
    out.extend_from_slice(&(hits.len() as u32).to_le_bytes());
    for (id, obj) in hits {
        out.extend_from_slice(&id.to_le_bytes());
        put_bytes(out, obj);
    }
}

fn get_hits(c: &mut Cur<'_>) -> Result<Vec<WireHit>, WireError> {
    let n = c.u32()?;
    let mut hits = Vec::new();
    for _ in 0..n {
        let id = c.u32()?;
        let obj = c.lbytes()?;
        hits.push((id, obj));
    }
    Ok(hits)
}

fn put_nns(out: &mut Vec<u8>, nns: &[WireNn]) {
    out.extend_from_slice(&(nns.len() as u32).to_le_bytes());
    for (id, d, obj) in nns {
        out.extend_from_slice(&id.to_le_bytes());
        out.extend_from_slice(&d.to_bits().to_le_bytes());
        put_bytes(out, obj);
    }
}

fn get_nns(c: &mut Cur<'_>) -> Result<Vec<WireNn>, WireError> {
    let n = c.u32()?;
    let mut nns = Vec::new();
    for _ in 0..n {
        let id = c.u32()?;
        let d = c.f64()?;
        let obj = c.lbytes()?;
        nns.push((id, d, obj));
    }
    Ok(nns)
}

fn get_objs(c: &mut Cur<'_>) -> Result<Vec<Vec<u8>>, WireError> {
    let n = c.u32()?;
    let mut objs = Vec::new();
    for _ in 0..n {
        objs.push(c.lbytes()?);
    }
    Ok(objs)
}

// ---------------------------------------------------------------------
// spb-obs snapshot encoding: count-prefixed lists of named values. A
// histogram summary travels as six u64s; gauges travel as the two's-
// complement bits of their i64.
// ---------------------------------------------------------------------

fn put_snapshot(out: &mut Vec<u8>, s: &spb_obs::Snapshot) {
    out.extend_from_slice(&(s.counters.len() as u32).to_le_bytes());
    for (name, v) in &s.counters {
        put_bytes(out, name.as_bytes());
        out.extend_from_slice(&v.to_le_bytes());
    }
    out.extend_from_slice(&(s.gauges.len() as u32).to_le_bytes());
    for (name, v) in &s.gauges {
        put_bytes(out, name.as_bytes());
        out.extend_from_slice(&v.to_le_bytes());
    }
    out.extend_from_slice(&(s.hists.len() as u32).to_le_bytes());
    for (name, h) in &s.hists {
        put_bytes(out, name.as_bytes());
        for v in [h.count, h.sum, h.max, h.p50, h.p90, h.p99] {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
    out.extend_from_slice(&(s.traces.len() as u32).to_le_bytes());
    for ev in &s.traces {
        put_bytes(out, ev.name.as_bytes());
        out.extend_from_slice(&ev.at_nanos.to_le_bytes());
        out.extend_from_slice(&ev.dur_nanos.to_le_bytes());
    }
}

fn get_snapshot(c: &mut Cur<'_>) -> Result<spb_obs::Snapshot, WireError> {
    let n = c.u32()?;
    let mut counters = Vec::new();
    for _ in 0..n {
        counters.push((c.lstr()?, c.u64()?));
    }
    let n = c.u32()?;
    let mut gauges = Vec::new();
    for _ in 0..n {
        gauges.push((c.lstr()?, c.i64()?));
    }
    let n = c.u32()?;
    let mut hists = Vec::new();
    for _ in 0..n {
        let name = c.lstr()?;
        hists.push((
            name,
            spb_obs::HistogramSnapshot {
                count: c.u64()?,
                sum: c.u64()?,
                max: c.u64()?,
                p50: c.u64()?,
                p90: c.u64()?,
                p99: c.u64()?,
            },
        ));
    }
    let n = c.u32()?;
    let mut traces = Vec::new();
    for _ in 0..n {
        traces.push(spb_obs::TraceEvent {
            name: c.lstr()?,
            at_nanos: c.u64()?,
            dur_nanos: c.u64()?,
        });
    }
    Ok(spb_obs::Snapshot {
        counters,
        gauges,
        hists,
        traces,
    })
}

impl Request {
    /// Serialises into a payload (version + opcode + body, no frame
    /// header).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Appends the payload to `out` without allocating a fresh buffer —
    /// the zero-copy path the server's per-connection write buffers and
    /// the client's scratch buffer use.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(PROTOCOL_VERSION);
        match self {
            Request::Ping => out.push(OP_PING),
            Request::Range {
                deadline_ms,
                radius,
                obj,
            } => {
                out.push(OP_RANGE);
                out.extend_from_slice(&deadline_ms.to_le_bytes());
                out.extend_from_slice(&radius.to_bits().to_le_bytes());
                put_bytes(out, obj);
            }
            Request::Knn {
                deadline_ms,
                k,
                obj,
            } => {
                out.push(OP_KNN);
                out.extend_from_slice(&deadline_ms.to_le_bytes());
                out.extend_from_slice(&k.to_le_bytes());
                put_bytes(out, obj);
            }
            Request::Insert { deadline_ms, obj } => {
                out.push(OP_INSERT);
                out.extend_from_slice(&deadline_ms.to_le_bytes());
                put_bytes(out, obj);
            }
            Request::Delete { deadline_ms, obj } => {
                out.push(OP_DELETE);
                out.extend_from_slice(&deadline_ms.to_le_bytes());
                put_bytes(out, obj);
            }
            Request::BatchRange {
                deadline_ms,
                radius,
                objs,
            } => {
                out.push(OP_BATCH_RANGE);
                out.extend_from_slice(&deadline_ms.to_le_bytes());
                out.extend_from_slice(&radius.to_bits().to_le_bytes());
                out.extend_from_slice(&(objs.len() as u32).to_le_bytes());
                for o in objs {
                    put_bytes(out, o);
                }
            }
            Request::BatchKnn {
                deadline_ms,
                k,
                objs,
            } => {
                out.push(OP_BATCH_KNN);
                out.extend_from_slice(&deadline_ms.to_le_bytes());
                out.extend_from_slice(&k.to_le_bytes());
                out.extend_from_slice(&(objs.len() as u32).to_le_bytes());
                for o in objs {
                    put_bytes(out, o);
                }
            }
            Request::RangeApprox {
                deadline_ms,
                radius,
                contraction,
                obj,
            } => {
                out.push(OP_RANGE_APPROX);
                out.extend_from_slice(&deadline_ms.to_le_bytes());
                out.extend_from_slice(&radius.to_bits().to_le_bytes());
                out.extend_from_slice(&contraction.to_bits().to_le_bytes());
                put_bytes(out, obj);
            }
            Request::KnnApprox {
                deadline_ms,
                k,
                alpha,
                obj,
            } => {
                out.push(OP_KNN_APPROX);
                out.extend_from_slice(&deadline_ms.to_le_bytes());
                out.extend_from_slice(&k.to_le_bytes());
                out.extend_from_slice(&alpha.to_bits().to_le_bytes());
                put_bytes(out, obj);
            }
            Request::Stats => out.push(OP_STATS),
            Request::ObsStats => out.push(OP_OBS_STATS),
            Request::Shutdown => out.push(OP_SHUTDOWN),
            Request::WalShip { from_lsn } => {
                out.push(OP_WAL_SHIP);
                out.extend_from_slice(&from_lsn.to_le_bytes());
            }
        }
    }

    /// Decodes a request payload. Total: any input returns a request or a
    /// typed error, never panics.
    pub fn decode(payload: &[u8]) -> Result<Request, WireError> {
        let mut c = Cur::new(payload);
        let version = c.u8()?;
        if version != PROTOCOL_VERSION {
            return Err(WireError::VersionMismatch { got: version });
        }
        let op = c.u8()?;
        let req = match op {
            OP_PING => Request::Ping,
            OP_RANGE => Request::Range {
                deadline_ms: c.u32()?,
                radius: c.f64()?,
                obj: c.lbytes()?,
            },
            OP_KNN => Request::Knn {
                deadline_ms: c.u32()?,
                k: c.u32()?,
                obj: c.lbytes()?,
            },
            OP_INSERT => Request::Insert {
                deadline_ms: c.u32()?,
                obj: c.lbytes()?,
            },
            OP_DELETE => Request::Delete {
                deadline_ms: c.u32()?,
                obj: c.lbytes()?,
            },
            OP_BATCH_RANGE => Request::BatchRange {
                deadline_ms: c.u32()?,
                radius: c.f64()?,
                objs: get_objs(&mut c)?,
            },
            OP_BATCH_KNN => Request::BatchKnn {
                deadline_ms: c.u32()?,
                k: c.u32()?,
                objs: get_objs(&mut c)?,
            },
            OP_RANGE_APPROX => Request::RangeApprox {
                deadline_ms: c.u32()?,
                radius: c.f64()?,
                contraction: c.f64()?,
                obj: c.lbytes()?,
            },
            OP_KNN_APPROX => Request::KnnApprox {
                deadline_ms: c.u32()?,
                k: c.u32()?,
                alpha: c.f64()?,
                obj: c.lbytes()?,
            },
            OP_STATS => Request::Stats,
            OP_OBS_STATS => Request::ObsStats,
            OP_SHUTDOWN => Request::Shutdown,
            OP_WAL_SHIP => Request::WalShip { from_lsn: c.u64()? },
            other => return Err(WireError::BadOpcode(other)),
        };
        c.finish()?;
        Ok(req)
    }

    /// The query this request carries — `None` for updates and control
    /// requests, `Some(Err(_))` when its approximation factor is invalid
    /// (answered `Malformed`). The factor goes into the plan exactly as
    /// it arrived.
    pub fn query(&mut self) -> Option<Result<Query<'_>, PlanError>> {
        use std::slice::from_mut;
        let (shape, approx, objs, batch) = match self {
            Request::Range { radius, obj, .. } => {
                let shape = QueryShape::Range { radius: *radius };
                (shape, None, from_mut(obj), false)
            }
            Request::RangeApprox {
                radius,
                contraction,
                obj,
                ..
            } => {
                let shape = QueryShape::Range { radius: *radius };
                (shape, Some(*contraction), from_mut(obj), false)
            }
            Request::Knn { k, obj, .. } => {
                let shape = QueryShape::Knn { k: *k as usize };
                (shape, None, from_mut(obj), false)
            }
            Request::KnnApprox { k, alpha, obj, .. } => {
                let shape = QueryShape::Knn { k: *k as usize };
                (shape, Some(*alpha), from_mut(obj), false)
            }
            Request::BatchRange { radius, objs, .. } => {
                let shape = QueryShape::Range { radius: *radius };
                (shape, None, objs.as_mut_slice(), true)
            }
            Request::BatchKnn { k, objs, .. } => {
                let shape = QueryShape::Knn { k: *k as usize };
                (shape, None, objs.as_mut_slice(), true)
            }
            Request::Ping
            | Request::Insert { .. }
            | Request::Delete { .. }
            | Request::Stats
            | Request::ObsStats
            | Request::Shutdown
            | Request::WalShip { .. } => return None,
        };
        Some(QueryPlan::new(shape, approx).map(|plan| Query { plan, objs, batch }))
    }

    /// The request that carries `plan` for `objs` — the inverse of
    /// [`query`](Request::query): one object travels as the solo op,
    /// any other number as the batch op. `None` when the wire has no such
    /// op: an approximate plan over other than one object.
    pub fn from_query(plan: QueryPlan, mut objs: Vec<Vec<u8>>, deadline_ms: u32) -> Option<Self> {
        let solo = if objs.len() == 1 { objs.pop() } else { None };
        Some(match (plan.shape(), plan.approx(), solo) {
            (QueryShape::Range { radius }, None, Some(obj)) => Request::Range {
                deadline_ms,
                radius,
                obj,
            },
            (QueryShape::Range { radius }, Some(contraction), Some(obj)) => Request::RangeApprox {
                deadline_ms,
                radius,
                contraction,
                obj,
            },
            (QueryShape::Knn { k }, None, Some(obj)) => Request::Knn {
                deadline_ms,
                k: wire_k(k),
                obj,
            },
            (QueryShape::Knn { k }, Some(alpha), Some(obj)) => Request::KnnApprox {
                deadline_ms,
                k: wire_k(k),
                alpha,
                obj,
            },
            (QueryShape::Range { radius }, None, None) => Request::BatchRange {
                deadline_ms,
                radius,
                objs,
            },
            (QueryShape::Knn { k }, None, None) => Request::BatchKnn {
                deadline_ms,
                k: wire_k(k),
                objs,
            },
            (_, Some(_), None) => return None,
        })
    }

    /// The request's relative deadline, if any.
    pub fn deadline_ms(&self) -> u32 {
        match self {
            Request::Range { deadline_ms, .. }
            | Request::Knn { deadline_ms, .. }
            | Request::Insert { deadline_ms, .. }
            | Request::Delete { deadline_ms, .. }
            | Request::BatchRange { deadline_ms, .. }
            | Request::BatchKnn { deadline_ms, .. }
            | Request::RangeApprox { deadline_ms, .. }
            | Request::KnnApprox { deadline_ms, .. } => *deadline_ms,
            Request::Ping
            | Request::Stats
            | Request::ObsStats
            | Request::Shutdown
            | Request::WalShip { .. } => 0,
        }
    }
}

/// A plan's `k` as the wire carries it (saturating: no index holds 2³²
/// objects, so a larger `k` asks for everything either way).
fn wire_k(k: usize) -> u32 {
    u32::try_from(k).unwrap_or(u32::MAX)
}

impl Response {
    /// How `answers` travel: as one `Batch*` response holding every row
    /// (`batch`, the answer to an explicit batch op) or as one response per
    /// row (single and coalesced queries).
    pub fn from_answers(answers: Answers, batch: bool) -> Vec<Response> {
        match (answers, batch) {
            (Answers::Range(queries), true) => vec![Response::BatchRange { queries }],
            (Answers::Knn(queries), true) => vec![Response::BatchKnn { queries }],
            (Answers::Range(rows), false) => rows
                .into_iter()
                .map(|(hits, stats)| Response::Range { hits, stats })
                .collect(),
            (Answers::Knn(rows), false) => rows
                .into_iter()
                .map(|(hits, stats)| Response::Knn { hits, stats })
                .collect(),
        }
    }

    /// The answer rows a query response carries (one row for a solo
    /// response); any other response comes back unchanged.
    pub fn into_answers(self) -> Result<Answers, Response> {
        Ok(match self {
            Response::Range { hits, stats } => Answers::Range(vec![(hits, stats)]),
            Response::Knn { hits, stats } => Answers::Knn(vec![(hits, stats)]),
            Response::BatchRange { queries } => Answers::Range(queries),
            Response::BatchKnn { queries } => Answers::Knn(queries),
            other => return Err(other),
        })
    }

    /// Serialises into a payload (version + opcode + body).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Appends the payload to `out` without allocating a fresh buffer.
    /// See [`Request::encode_into`].
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(PROTOCOL_VERSION);
        match self {
            Response::Pong {
                version,
                schema,
                len,
            } => {
                out.push(OP_PING | RESP_BIT);
                out.push(*version);
                put_bytes(out, schema.as_bytes());
                out.extend_from_slice(&len.to_le_bytes());
            }
            Response::Range { hits, stats } => {
                out.push(OP_RANGE | RESP_BIT);
                put_stats(out, stats);
                put_hits(out, hits);
            }
            Response::Knn { hits, stats } => {
                out.push(OP_KNN | RESP_BIT);
                put_stats(out, stats);
                put_nns(out, hits);
            }
            Response::Insert { stats } => {
                out.push(OP_INSERT | RESP_BIT);
                put_stats(out, stats);
            }
            Response::Delete { found, stats } => {
                out.push(OP_DELETE | RESP_BIT);
                out.push(u8::from(*found));
                put_stats(out, stats);
            }
            Response::BatchRange { queries } => {
                out.push(OP_BATCH_RANGE | RESP_BIT);
                out.extend_from_slice(&(queries.len() as u32).to_le_bytes());
                for (hits, stats) in queries {
                    put_stats(out, stats);
                    put_hits(out, hits);
                }
            }
            Response::BatchKnn { queries } => {
                out.push(OP_BATCH_KNN | RESP_BIT);
                out.extend_from_slice(&(queries.len() as u32).to_le_bytes());
                for (nns, stats) in queries {
                    put_stats(out, stats);
                    put_nns(out, nns);
                }
            }
            Response::Stats {
                schema,
                len,
                storage_bytes,
                num_pivots,
                served,
                shed,
                deadline_miss,
            } => {
                out.push(OP_STATS | RESP_BIT);
                put_bytes(out, schema.as_bytes());
                out.extend_from_slice(&len.to_le_bytes());
                out.extend_from_slice(&storage_bytes.to_le_bytes());
                out.extend_from_slice(&num_pivots.to_le_bytes());
                out.extend_from_slice(&served.to_le_bytes());
                out.extend_from_slice(&shed.to_le_bytes());
                out.extend_from_slice(&deadline_miss.to_le_bytes());
            }
            Response::ObsStats { snapshot } => {
                out.push(OP_OBS_STATS | RESP_BIT);
                put_snapshot(out, snapshot);
            }
            Response::Shutdown => out.push(OP_SHUTDOWN | RESP_BIT),
            Response::WalShip { wal_len, frames } => {
                out.push(OP_WAL_SHIP | RESP_BIT);
                out.extend_from_slice(&wal_len.to_le_bytes());
                put_bytes(out, frames);
            }
            Response::Error {
                code,
                server_version,
                message,
            } => {
                out.push(OP_ERROR);
                out.push(*code as u8);
                out.push(*server_version);
                put_bytes(out, message.as_bytes());
            }
        }
    }

    /// Decodes a response payload. Total, like [`Request::decode`].
    pub fn decode(payload: &[u8]) -> Result<Response, WireError> {
        let mut c = Cur::new(payload);
        let version = c.u8()?;
        if version != PROTOCOL_VERSION {
            return Err(WireError::VersionMismatch { got: version });
        }
        let op = c.u8()?;
        let resp = match op {
            x if x == OP_PING | RESP_BIT => Response::Pong {
                version: c.u8()?,
                schema: c.lstr()?,
                len: c.u64()?,
            },
            x if x == OP_RANGE | RESP_BIT => Response::Range {
                stats: c.stats()?,
                hits: get_hits(&mut c)?,
            },
            x if x == OP_KNN | RESP_BIT => Response::Knn {
                stats: c.stats()?,
                hits: get_nns(&mut c)?,
            },
            x if x == OP_INSERT | RESP_BIT => Response::Insert { stats: c.stats()? },
            x if x == OP_DELETE | RESP_BIT => Response::Delete {
                found: c.u8()? != 0,
                stats: c.stats()?,
            },
            x if x == OP_BATCH_RANGE | RESP_BIT => {
                let n = c.u32()?;
                let mut queries = Vec::new();
                for _ in 0..n {
                    let stats = c.stats()?;
                    let hits = get_hits(&mut c)?;
                    queries.push((hits, stats));
                }
                Response::BatchRange { queries }
            }
            x if x == OP_BATCH_KNN | RESP_BIT => {
                let n = c.u32()?;
                let mut queries = Vec::new();
                for _ in 0..n {
                    let stats = c.stats()?;
                    let nns = get_nns(&mut c)?;
                    queries.push((nns, stats));
                }
                Response::BatchKnn { queries }
            }
            x if x == OP_STATS | RESP_BIT => Response::Stats {
                schema: c.lstr()?,
                len: c.u64()?,
                storage_bytes: c.u64()?,
                num_pivots: c.u32()?,
                served: c.u64()?,
                shed: c.u64()?,
                deadline_miss: c.u64()?,
            },
            x if x == OP_OBS_STATS | RESP_BIT => Response::ObsStats {
                snapshot: get_snapshot(&mut c)?,
            },
            x if x == OP_SHUTDOWN | RESP_BIT => Response::Shutdown,
            x if x == OP_WAL_SHIP | RESP_BIT => Response::WalShip {
                wal_len: c.u64()?,
                frames: c.lbytes()?,
            },
            OP_ERROR => {
                // A *newer* server may answer with an error code or body
                // fields this version does not know. The version byte
                // rides right after the code, so read both before
                // interpreting either: when the server speaks a different
                // protocol version, surface `VersionMismatch` instead of
                // tripping over the unknown code byte or trailing v2 body
                // fields (spb-cli maps this to its dedicated exit code).
                let code_byte = c.u8()?;
                let server_version = c.u8()?;
                if server_version != PROTOCOL_VERSION {
                    return Ok(Response::Error {
                        code: ErrorCode::VersionMismatch,
                        server_version,
                        message: c.lstr().unwrap_or_default(),
                    });
                }
                Response::Error {
                    code: ErrorCode::from_byte(code_byte)?,
                    server_version,
                    message: c.lstr()?,
                }
            }
            other => return Err(WireError::BadOpcode(other)),
        };
        c.finish()?;
        Ok(resp)
    }
}

// ---------------------------------------------------------------------
// Framing.
// ---------------------------------------------------------------------

/// Wraps a payload in a frame (header + CRC) and writes it out.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(payload).to_le_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()
}

/// Appends one framed message to `out`: reserves the 8-byte header,
/// lets `payload` serialise directly into the buffer, then backpatches
/// the length and CRC. This is the zero-copy encode path — the message
/// bytes are written exactly once, into a buffer the caller reuses.
pub fn frame_into(out: &mut Vec<u8>, payload: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.extend_from_slice(&[0u8; FRAME_HEADER]);
    payload(out);
    let body_len = out.len().saturating_sub(start + FRAME_HEADER);
    let crc = crc32(out.get(start + FRAME_HEADER..).unwrap_or(&[]));
    if let Some(header) = out.get_mut(start..start + FRAME_HEADER) {
        let (len_b, crc_b) = header.split_at_mut(4);
        len_b.copy_from_slice(&(body_len as u32).to_le_bytes());
        crc_b.copy_from_slice(&crc.to_le_bytes());
    }
}

/// Parses a frame header into `(payload_len, payload_crc)`, validating
/// the length against `max` before anything is allocated.
pub fn parse_frame_header(header: &[u8; FRAME_HEADER], max: u32) -> Result<(u32, u32), WireError> {
    let [l0, l1, l2, l3, c0, c1, c2, c3] = *header;
    let len = u32::from_le_bytes([l0, l1, l2, l3]);
    let crc = u32::from_le_bytes([c0, c1, c2, c3]);
    if len == 0 || len > max {
        return Err(WireError::FrameTooLarge { len, max });
    }
    Ok((len, crc))
}

/// Verifies a received payload against its header CRC.
pub fn check_payload(expected_crc: u32, payload: &[u8]) -> Result<(), WireError> {
    let got = crc32(payload);
    if got != expected_crc {
        return Err(WireError::BadCrc {
            expected: expected_crc,
            got,
        });
    }
    Ok(())
}

/// Reads one complete frame (blocking) and returns its verified payload.
pub fn read_frame(r: &mut impl Read, max: u32) -> Result<Vec<u8>, WireError> {
    let mut payload = Vec::new();
    read_frame_into(r, max, &mut payload)?;
    Ok(payload)
}

/// Reads one complete frame (blocking) into a caller-owned buffer,
/// reusing its capacity across calls. The buffer holds exactly the
/// verified payload on success.
pub fn read_frame_into(
    r: &mut impl Read,
    max: u32,
    payload: &mut Vec<u8>,
) -> Result<(), WireError> {
    let mut header = [0u8; FRAME_HEADER];
    r.read_exact(&mut header)?;
    let (len, crc) = parse_frame_header(&header, max)?;
    payload.clear();
    payload.resize(len as usize, 0);
    r.read_exact(payload)?;
    check_payload(crc, payload)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_req(req: Request) {
        let payload = req.encode();
        assert_eq!(Request::decode(&payload).unwrap(), req);
    }

    fn roundtrip_resp(resp: Response) {
        let payload = resp.encode();
        assert_eq!(Response::decode(&payload).unwrap(), resp);
    }

    fn stats() -> WireStats {
        WireStats {
            compdists: 12,
            page_accesses: 34,
            btree_pa: 20,
            raf_pa: 14,
            fsyncs: 1,
            duration_nanos: 5_000,
        }
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_req(Request::Ping);
        roundtrip_req(Request::Range {
            deadline_ms: 250,
            radius: 2.5,
            obj: b"carrot".to_vec(),
        });
        roundtrip_req(Request::Knn {
            deadline_ms: 0,
            k: 10,
            obj: vec![],
        });
        roundtrip_req(Request::Insert {
            deadline_ms: 1,
            obj: b"x".to_vec(),
        });
        roundtrip_req(Request::Delete {
            deadline_ms: 0,
            obj: b"y".to_vec(),
        });
        roundtrip_req(Request::BatchRange {
            deadline_ms: 100,
            radius: 1.0,
            objs: vec![b"a".to_vec(), vec![], b"ccc".to_vec()],
        });
        roundtrip_req(Request::BatchKnn {
            deadline_ms: 0,
            k: 3,
            objs: vec![b"q".to_vec()],
        });
        roundtrip_req(Request::RangeApprox {
            deadline_ms: 50,
            radius: 4.0,
            contraction: 0.7,
            obj: b"carrot".to_vec(),
        });
        roundtrip_req(Request::KnnApprox {
            deadline_ms: 0,
            k: 8,
            alpha: 1.5,
            obj: vec![],
        });
        roundtrip_req(Request::Stats);
        roundtrip_req(Request::ObsStats);
        roundtrip_req(Request::Shutdown);
        roundtrip_req(Request::WalShip { from_lsn: 0 });
        roundtrip_req(Request::WalShip { from_lsn: u64::MAX });
    }

    #[test]
    fn responses_roundtrip() {
        roundtrip_resp(Response::Pong {
            version: PROTOCOL_VERSION,
            schema: "words 11".to_owned(),
            len: 42,
        });
        roundtrip_resp(Response::Range {
            hits: vec![(1, b"carrot".to_vec()), (9, vec![])],
            stats: stats(),
        });
        roundtrip_resp(Response::Knn {
            hits: vec![(1, 0.0, b"q".to_vec()), (2, 1.5, b"w".to_vec())],
            stats: stats(),
        });
        roundtrip_resp(Response::Insert { stats: stats() });
        roundtrip_resp(Response::Delete {
            found: true,
            stats: stats(),
        });
        roundtrip_resp(Response::BatchRange {
            queries: vec![(vec![(7, b"z".to_vec())], stats()), (vec![], stats())],
        });
        roundtrip_resp(Response::BatchKnn {
            queries: vec![(vec![(7, 0.25, b"z".to_vec())], stats())],
        });
        roundtrip_resp(Response::Stats {
            schema: "vectors 2 16".to_owned(),
            len: 1000,
            storage_bytes: 1 << 20,
            num_pivots: 5,
            served: 17,
            shed: 3,
            deadline_miss: 2,
        });
        roundtrip_resp(Response::ObsStats {
            snapshot: spb_obs::Snapshot::default(),
        });
        roundtrip_resp(Response::ObsStats {
            snapshot: spb_obs::Snapshot {
                counters: vec![("admission.served".to_owned(), 17)],
                gauges: vec![("admission.queue_depth".to_owned(), -1)],
                hists: vec![(
                    "phase.traversal".to_owned(),
                    spb_obs::HistogramSnapshot {
                        count: 9,
                        sum: 4_500,
                        max: 900,
                        p50: 384,
                        p90: 768,
                        p99: 900,
                    },
                )],
                traces: vec![spb_obs::TraceEvent {
                    name: "traversal".to_owned(),
                    at_nanos: 123,
                    dur_nanos: 456,
                }],
            },
        });
        roundtrip_resp(Response::Shutdown);
        roundtrip_resp(Response::WalShip {
            wal_len: 0,
            frames: vec![],
        });
        roundtrip_resp(Response::WalShip {
            wal_len: 4096,
            frames: vec![0xAB; 64],
        });
        roundtrip_resp(Response::Error {
            code: ErrorCode::Overloaded,
            server_version: PROTOCOL_VERSION,
            message: "queue full".to_owned(),
        });
    }

    #[test]
    fn newer_server_error_decodes_as_version_mismatch() {
        // A v2 server rejecting us: unknown error code byte (99) plus a
        // v2-only trailing field after the message. Neither may derail
        // decoding before the version mismatch is surfaced.
        let mut payload = vec![PROTOCOL_VERSION, OP_ERROR];
        payload.push(99); // error code this version does not know
        payload.push(2); // server_version = 2
        put_bytes(&mut payload, b"protocol version mismatch");
        payload.extend_from_slice(&7u32.to_le_bytes()); // hypothetical v2 field
        match Response::decode(&payload).unwrap() {
            Response::Error {
                code,
                server_version,
                message,
            } => {
                assert_eq!(code, ErrorCode::VersionMismatch);
                assert_eq!(server_version, 2);
                assert_eq!(message, "protocol version mismatch");
            }
            other => panic!("unexpected response: {other:?}"),
        }
    }

    #[test]
    fn newer_server_error_with_unreadable_body_still_reports_mismatch() {
        // Same, but the v2 message field itself does not parse as a
        // v1 length-prefixed string: the mismatch must still surface,
        // with an empty message.
        let payload = vec![PROTOCOL_VERSION, OP_ERROR, 99, 2, 0xDE, 0xAD];
        match Response::decode(&payload).unwrap() {
            Response::Error {
                code,
                server_version,
                message,
            } => {
                assert_eq!(code, ErrorCode::VersionMismatch);
                assert_eq!(server_version, 2);
                assert!(message.is_empty());
            }
            other => panic!("unexpected response: {other:?}"),
        }
    }

    #[test]
    fn same_version_error_with_unknown_code_is_still_rejected() {
        // An unknown code from a server claiming OUR version is a real
        // protocol violation, not a version skew.
        let mut payload = vec![PROTOCOL_VERSION, OP_ERROR, 99, PROTOCOL_VERSION];
        put_bytes(&mut payload, b"?");
        assert!(matches!(
            Response::decode(&payload),
            Err(WireError::BadErrorCode(99))
        ));
    }

    const REQUEST_OPS: [u8; 13] = [
        OP_PING,
        OP_RANGE,
        OP_KNN,
        OP_INSERT,
        OP_DELETE,
        OP_BATCH_RANGE,
        OP_BATCH_KNN,
        OP_STATS,
        OP_SHUTDOWN,
        OP_OBS_STATS,
        OP_WAL_SHIP,
        OP_RANGE_APPROX,
        OP_KNN_APPROX,
    ];

    #[test]
    fn every_unknown_opcode_byte_is_a_typed_error() {
        for op in 0..=u8::MAX {
            let known_req = REQUEST_OPS.contains(&op);
            // Approximate queries are answered in the exact ops' shapes.
            let answered = op & !RESP_BIT;
            let known_resp = op == OP_ERROR
                || (op & RESP_BIT != 0
                    && REQUEST_OPS.contains(&answered)
                    && ![OP_RANGE_APPROX, OP_KNN_APPROX].contains(&answered));
            // A known opcode with no body decodes or is truncated, never
            // read as another opcode.
            let req = Request::decode(&[PROTOCOL_VERSION, op]);
            match req {
                Err(WireError::BadOpcode(b)) => assert!(!known_req && b == op, "{op:#04x}"),
                _ => assert!(known_req, "{op:#04x}: {req:?}"),
            }
            let resp = Response::decode(&[PROTOCOL_VERSION, op]);
            match resp {
                Err(WireError::BadOpcode(b)) => assert!(!known_resp && b == op, "{op:#04x}"),
                _ => assert!(known_resp, "{op:#04x}: {resp:?}"),
            }
        }
    }

    #[test]
    fn every_error_code_round_trips_through_its_byte() {
        let mut seen = [false; 7];
        for b in 0..=u8::MAX {
            let code = match ErrorCode::from_byte(b) {
                Ok(code) => code,
                Err(WireError::BadErrorCode(u)) => {
                    assert_eq!(u, b);
                    continue;
                }
                Err(e) => panic!("byte {b}: {e}"),
            };
            assert_eq!(code as u8, b);
            // Exhaustive: a new code does not compile here until counted.
            let i = match code {
                ErrorCode::Overloaded => 0,
                ErrorCode::DeadlineExceeded => 1,
                ErrorCode::VersionMismatch => 2,
                ErrorCode::Malformed => 3,
                ErrorCode::FrameTooLarge => 4,
                ErrorCode::Internal => 5,
                ErrorCode::ShuttingDown => 6,
            };
            seen[i] = true;
            roundtrip_resp(Response::Error {
                code,
                server_version: PROTOCOL_VERSION,
                message: code.to_string(),
            });
        }
        assert_eq!(seen, [true; 7]);
    }

    #[test]
    fn every_wire_error_variant_comes_from_some_input() {
        let mut frame = Vec::new();
        write_frame(&mut frame, &Request::Ping.encode()).unwrap();
        let mut bad_crc = frame.clone();
        bad_crc[FRAME_HEADER] ^= 1;
        let mut unknown_code = vec![PROTOCOL_VERSION, OP_ERROR, 0, PROTOCOL_VERSION];
        put_bytes(&mut unknown_code, b"?");
        let errors = [
            Request::decode(&[]).unwrap_err(),
            Request::decode(&[PROTOCOL_VERSION, OP_PING, 0]).unwrap_err(),
            read_frame(&mut bad_crc.as_slice(), DEFAULT_MAX_FRAME).unwrap_err(),
            read_frame(&mut frame.as_slice(), 1).unwrap_err(),
            Request::decode(&[PROTOCOL_VERSION, 0]).unwrap_err(),
            Response::decode(&unknown_code).unwrap_err(),
            Request::decode(&[PROTOCOL_VERSION + 1, OP_PING]).unwrap_err(),
            read_frame(&mut &frame[..FRAME_HEADER - 1], DEFAULT_MAX_FRAME).unwrap_err(),
        ];
        // Exhaustive: a new variant does not compile here until some
        // input above produces it.
        let kinds: Vec<usize> = errors
            .iter()
            .map(|e| match e {
                WireError::Truncated => 0,
                WireError::Trailing(_) => 1,
                WireError::BadCrc { .. } => 2,
                WireError::FrameTooLarge { .. } => 3,
                WireError::BadOpcode(_) => 4,
                WireError::BadErrorCode(_) => 5,
                WireError::VersionMismatch { .. } => 6,
                WireError::Io(_) => 7,
            })
            .collect();
        assert_eq!(kinds, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn frame_roundtrip_over_a_buffer() {
        let req = Request::Range {
            deadline_ms: 0,
            radius: 2.0,
            obj: b"carrot".to_vec(),
        };
        let mut buf = Vec::new();
        write_frame(&mut buf, &req.encode()).unwrap();
        let payload = read_frame(&mut buf.as_slice(), DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(Request::decode(&payload).unwrap(), req);
    }

    #[test]
    fn oversized_header_is_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        let err = read_frame(&mut buf.as_slice(), 1024).unwrap_err();
        assert!(matches!(err, WireError::FrameTooLarge { .. }), "{err}");
    }

    #[test]
    fn corrupt_crc_is_rejected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Request::Ping.encode()).unwrap();
        let last = buf.len() - 1;
        buf[last] ^= 0x01;
        let err = read_frame(&mut buf.as_slice(), DEFAULT_MAX_FRAME).unwrap_err();
        assert!(matches!(err, WireError::BadCrc { .. }), "{err}");
    }

    #[test]
    fn version_mismatch_is_typed() {
        let mut payload = Request::Ping.encode();
        payload[0] = 99;
        let err = Request::decode(&payload).unwrap_err();
        assert!(
            matches!(err, WireError::VersionMismatch { got: 99 }),
            "{err}"
        );
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut payload = Request::Stats.encode();
        payload.push(0);
        assert!(matches!(
            Request::decode(&payload),
            Err(WireError::Trailing(1))
        ));
    }

    #[test]
    fn bogus_object_length_cannot_overallocate() {
        // A Range request whose object claims 4 GiB: lbytes validates the
        // length against the remaining payload before allocating.
        let mut payload = vec![PROTOCOL_VERSION, OP_RANGE];
        payload.extend_from_slice(&0u32.to_le_bytes());
        payload.extend_from_slice(&1.0f64.to_bits().to_le_bytes());
        payload.extend_from_slice(&u32::MAX.to_le_bytes()); // object "length"
        payload.extend_from_slice(b"xy"); // but only 2 bytes follow
        assert!(matches!(
            Request::decode(&payload),
            Err(WireError::Truncated)
        ));
    }

    #[test]
    fn stats_survive_querystats_conversion() {
        let w = stats();
        let q: QueryStats = (&w).into();
        assert_eq!(WireStats::from(&q), w);
    }

    /// `from_query` is the inverse of `query()` on each of the six query
    /// ops, and picks the op by the plan and the number of objects alone.
    #[test]
    fn from_query_inverts_the_query_projection() {
        let range = QueryShape::Range { radius: 1.5 };
        let knn = QueryShape::Knn { k: 7 };
        let one = vec![vec![1u8, 2]];
        let many = vec![vec![1u8, 2], vec![], vec![3]];
        let exact = QueryPlan::exact;
        let approx = |shape, factor| QueryPlan::new(shape, Some(factor)).unwrap();
        type Is = fn(&Request) -> bool;
        let cases: [(QueryPlan, &Vec<Vec<u8>>, Is); 8] = [
            (exact(range), &one, |r| matches!(r, Request::Range { .. })),
            (exact(knn), &one, |r| matches!(r, Request::Knn { .. })),
            (approx(range, 0.7), &one, |r| {
                matches!(r, Request::RangeApprox { .. })
            }),
            (approx(knn, 1.8), &one, |r| {
                matches!(r, Request::KnnApprox { .. })
            }),
            (exact(range), &many, |r| {
                matches!(r, Request::BatchRange { .. })
            }),
            (exact(knn), &many, |r| matches!(r, Request::BatchKnn { .. })),
            // No object is a batch of none, not a solo op.
            (exact(range), &Vec::new(), |r| {
                matches!(r, Request::BatchRange { .. })
            }),
            (exact(knn), &Vec::new(), |r| {
                matches!(r, Request::BatchKnn { .. })
            }),
        ];
        for (plan, objs, is_expected_op) in cases {
            let mut req = Request::from_query(plan, objs.clone(), 250).unwrap();
            assert!(is_expected_op(&req), "{plan:?} x {} -> {req:?}", objs.len());
            assert_eq!(req.deadline_ms(), 250);
            let Query {
                plan: got,
                objs: got_objs,
                batch,
            } = req.query().unwrap().unwrap();
            assert_eq!(got, plan);
            assert_eq!(got_objs, objs.as_slice());
            assert_eq!(batch, objs.len() != 1);
            roundtrip_req(req);
        }
        // The wire has no batched approximate op.
        for plan in [approx(range, 0.7), approx(knn, 1.8), approx(knn, 1.0)] {
            assert!(Request::from_query(plan, many.clone(), 0).is_none());
            assert!(Request::from_query(plan, Vec::new(), 0).is_none());
        }
        // A `k` the wire cannot carry saturates instead of wrapping.
        let huge = exact(QueryShape::Knn { k: usize::MAX });
        let req = Request::from_query(huge, one.clone(), 0).unwrap();
        assert!(matches!(req, Request::Knn { k: u32::MAX, .. }), "{req:?}");
    }

    #[test]
    fn answers_survive_the_trip_through_responses() {
        let hit = |id: u32| (id, vec![id as u8; 3]);
        let nn = |id: u32| (id, f64::from(id) * 0.5, vec![id as u8]);
        let range = Answers::Range(vec![
            (vec![hit(1), hit(9)], stats()),
            (vec![], WireStats::default()),
        ]);
        let knn = Answers::Knn(vec![(vec![nn(4)], stats()), (vec![nn(2), nn(3)], stats())]);
        for answers in [range, knn] {
            // An explicit batch: every row in one response.
            let mut batch = Response::from_answers(answers.clone(), true);
            assert_eq!(batch.len(), 1);
            assert_eq!(batch.pop().unwrap().into_answers().unwrap(), answers);
            // Single and coalesced queries: one response per row, each
            // carrying exactly its row.
            let solo = Response::from_answers(answers.clone(), false);
            let rows: Vec<Answers> = match &answers {
                Answers::Range(rows) => rows
                    .iter()
                    .map(|r| Answers::Range(vec![r.clone()]))
                    .collect(),
                Answers::Knn(rows) => rows.iter().map(|r| Answers::Knn(vec![r.clone()])).collect(),
            };
            let back: Vec<Answers> = solo
                .into_iter()
                .map(|r| r.into_answers().unwrap())
                .collect();
            assert_eq!(back, rows);
        }
        // Anything else is handed back untouched.
        assert_eq!(Response::Shutdown.into_answers(), Err(Response::Shutdown));
    }
}
