//! Blocking client for the wire protocol, reused by `spb-cli --addr` and
//! the cluster router.
//!
//! One [`Client`] wraps one TCP connection. [`Client::query`] carries any
//! [`QueryPlan`]; it and the other typed helpers issue one request and
//! wait for its response; [`Client::send_many`] pipelines a
//! whole slice of requests — all frames are written before any reply is
//! read, and the server answers them strictly in request order. Frames
//! encode into (and responses decode from) per-client scratch buffers
//! that are reused across calls, so a steady request stream allocates
//! nothing on the framing path. Server-side failures surface as
//! [`ClientError::Server`] carrying the typed [`ErrorCode`], which is
//! what `spb-cli` maps to its distinct exit codes.

use std::fmt;
use std::io::{self, Write};
use std::net::{TcpStream, ToSocketAddrs};

use spb_core::{QueryPlan, QueryShape};

use crate::service::Answers;
use crate::wire::{
    frame_into, read_frame_into, ErrorCode, Request, Response, WireError, WireStats,
    DEFAULT_MAX_FRAME,
};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Could not establish the TCP connection.
    Connect(io::Error),
    /// The connection died mid-exchange.
    Io(io::Error),
    /// The response did not decode (framing, CRC, version).
    Wire(WireError),
    /// The server answered with a typed error.
    Server {
        /// The failure class.
        code: ErrorCode,
        /// The server's protocol version (diagnoses `VersionMismatch`).
        server_version: u8,
        /// Human-readable detail.
        message: String,
    },
    /// The server answered with a response of the wrong kind.
    Unexpected(String),
    /// The wire has no request for this plan (an approximate plan over
    /// other than one object); nothing was sent.
    NoWireOp(QueryPlan),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Connect(e) => write!(f, "connect: {e}"),
            ClientError::Io(e) => write!(f, "connection lost: {e}"),
            ClientError::Wire(e) => write!(f, "protocol error: {e}"),
            ClientError::Server { code, message, .. } => write!(f, "server: {code}: {message}"),
            ClientError::Unexpected(m) => write!(f, "unexpected response: {m}"),
            ClientError::NoWireOp(plan) => {
                write!(f, "the wire has no batched op for the approximate {plan:?}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        match e {
            WireError::Io(e) => ClientError::Io(e),
            other => ClientError::Wire(other),
        }
    }
}

/// A blocking connection to an `spb-server`.
pub struct Client {
    stream: TcpStream,
    max_frame: u32,
    /// Reusable encode scratch: request frames are serialised here and
    /// written with one syscall (grow-once, no per-request `Vec`).
    wr: Vec<u8>,
    /// Reusable decode scratch: response payloads land here.
    rd: Vec<u8>,
}

impl Client {
    /// Connects to a server.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr).map_err(ClientError::Connect)?;
        stream.set_nodelay(true).map_err(ClientError::Io)?;
        Ok(Client {
            stream,
            max_frame: DEFAULT_MAX_FRAME,
            wr: Vec::new(),
            rd: Vec::new(),
        })
    }

    /// Sends one request and reads one response. Server-side `Error`
    /// responses are returned as `Ok(Response::Error { .. })` here; the
    /// typed helpers below convert them to [`ClientError::Server`].
    pub fn request(&mut self, req: &Request) -> Result<Response, ClientError> {
        self.wr.clear();
        frame_into(&mut self.wr, |out| req.encode_into(out));
        self.stream.write_all(&self.wr).map_err(ClientError::Io)?;
        read_frame_into(&mut self.stream, self.max_frame, &mut self.rd)?;
        Ok(Response::decode(&self.rd)?)
    }

    /// Pipelines `reqs`: every frame is encoded into one scratch buffer
    /// and written before any reply is read, then the responses are
    /// read back in request order (the order the server guarantees).
    ///
    /// Responses — including per-request typed `Error` responses — are
    /// returned positionally; an `Err` from this method means the
    /// connection itself broke. Pipelining past the server's
    /// `max_pipeline` (default 256) is safe: the server simply stops
    /// reading the socket until earlier responses are owed, so depth
    /// beyond it only stops improving throughput.
    pub fn send_many(&mut self, reqs: &[Request]) -> Result<Vec<Response>, ClientError> {
        self.wr.clear();
        for req in reqs {
            frame_into(&mut self.wr, |out| req.encode_into(out));
        }
        self.stream.write_all(&self.wr).map_err(ClientError::Io)?;
        let mut out = Vec::with_capacity(reqs.len());
        for _ in reqs {
            read_frame_into(&mut self.stream, self.max_frame, &mut self.rd)?;
            out.push(Response::decode(&self.rd)?);
        }
        Ok(out)
    }

    fn expect<T>(
        &mut self,
        req: &Request,
        pick: impl FnOnce(Response) -> Result<T, Response>,
    ) -> Result<T, ClientError> {
        match self.request(req)? {
            Response::Error {
                code,
                server_version,
                message,
            } => Err(ClientError::Server {
                code,
                server_version,
                message,
            }),
            other => pick(other).map_err(|resp| {
                ClientError::Unexpected(format!("{resp:?} does not answer {req:?}"))
            }),
        }
    }

    /// Handshake: returns the server's `(version, schema_line, len)`.
    pub fn ping(&mut self) -> Result<(u8, String, u64), ClientError> {
        self.expect(&Request::Ping, |r| match r {
            Response::Pong {
                version,
                schema,
                len,
            } => Ok((version, schema, len)),
            other => Err(other),
        })
    }

    /// Runs `plan` for every encoded query object and returns one answer
    /// row per object, in input order — the client end of
    /// [`IndexService::query`](crate::IndexService::query).
    /// `deadline_ms = 0` means no deadline. The request is whatever
    /// [`Request::from_query`] picks; a plan the wire cannot carry is
    /// [`ClientError::NoWireOp`] and nothing is sent.
    pub fn query(
        &mut self,
        plan: QueryPlan,
        objs: Vec<Vec<u8>>,
        deadline_ms: u32,
    ) -> Result<Answers, ClientError> {
        let req =
            Request::from_query(plan, objs, deadline_ms).ok_or(ClientError::NoWireOp(plan))?;
        let range = matches!(plan.shape(), QueryShape::Range { .. });
        self.expect(&req, |r| match r {
            Response::Range { .. } | Response::BatchRange { .. } if range => r.into_answers(),
            Response::Knn { .. } | Response::BatchKnn { .. } if !range => r.into_answers(),
            other => Err(other),
        })
    }

    /// Inserts one encoded object.
    pub fn insert(&mut self, obj: &[u8], deadline_ms: u32) -> Result<WireStats, ClientError> {
        let req = Request::Insert {
            deadline_ms,
            obj: obj.to_vec(),
        };
        self.expect(&req, |r| match r {
            Response::Insert { stats } => Ok(stats),
            other => Err(other),
        })
    }

    /// Deletes one encoded object; returns whether it existed.
    pub fn delete(
        &mut self,
        obj: &[u8],
        deadline_ms: u32,
    ) -> Result<(bool, WireStats), ClientError> {
        let req = Request::Delete {
            deadline_ms,
            obj: obj.to_vec(),
        };
        self.expect(&req, |r| match r {
            Response::Delete { found, stats } => Ok((found, stats)),
            other => Err(other),
        })
    }

    /// Index + service statistics.
    pub fn stats(&mut self) -> Result<Response, ClientError> {
        self.expect(&Request::Stats, |r| match r {
            s @ Response::Stats { .. } => Ok(s),
            other => Err(other),
        })
    }

    /// The server's full observability snapshot: every registered
    /// counter, gauge and latency histogram, plus recent trace events
    /// when the server runs with tracing enabled.
    pub fn obs_stats(&mut self) -> Result<spb_obs::Snapshot, ClientError> {
        self.expect(&Request::ObsStats, |r| match r {
            Response::ObsStats { snapshot } => Ok(snapshot),
            other => Err(other),
        })
    }

    /// Replication pull: WAL frames from `from_lsn` to the committed
    /// end. Returns `(wal_len, frames)`; `wal_len < from_lsn` means the
    /// primary checkpointed and the caller must re-bootstrap.
    pub fn wal_ship(&mut self, from_lsn: u64) -> Result<(u64, Vec<u8>), ClientError> {
        self.expect(&Request::WalShip { from_lsn }, |r| match r {
            Response::WalShip { wal_len, frames } => Ok((wal_len, frames)),
            other => Err(other),
        })
    }

    /// Asks the server to drain and exit.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        self.expect(&Request::Shutdown, |r| match r {
            Response::Shutdown => Ok(()),
            other => Err(other),
        })
    }
}
