//! Network query service for the SPB-tree.
//!
//! The in-process machinery (batch APIs, work-stealing
//! [`exec`](spb_core::exec) pool, buffer pool) makes one process
//! fast; this crate puts a service boundary around it so the index can be
//! owned by a long-lived process and queried remotely:
//!
//! * [`wire`] — the length-prefixed, CRC-framed, versioned binary
//!   protocol (frames shaped like WAL records, reusing
//!   [`spb_storage::checksum`]);
//! * [`schema`] — the dataset schema an index was built over, and
//!   [`open_index`](schema::open_index) which turns an index directory
//!   into a type-erased [`IndexService`](service::IndexService);
//! * [`service`] — dispatching decoded requests onto an
//!   [`SpbTree`](spb_core::SpbTree);
//! * [`server`] — the TCP server (a reader and a writer thread per
//!   connection over blocking sockets, pipelined frames, a batching
//!   dispatcher whose bounded queue is the admission control, shedding
//!   load beyond it, and a per-request [`Deadline`]) with graceful
//!   drain-and-checkpoint shutdown;
//! * [`client`] — a blocking client: one `query(plan, …)` call for every
//!   query op and a pipelined `send_many` path, reused by `spb-cli --addr`
//!   and the cluster router.
//!
//! No async runtime and no network dependencies: std threads and sockets
//! only.

// The no-panic zones (DESIGN.md §10) call into this crate: a literal
// panic site in its library code needs an item-level `allow` and a why.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]
#![warn(missing_docs)]

pub mod client;
mod connection;
mod dispatch;
pub mod schema;
pub mod server;
pub mod service;
pub mod wire;

pub use client::{Client, ClientError};
pub use dispatch::Deadline;
pub use schema::{open_index, read_schema, schema_path, Schema};
pub use server::{serve, serve_until_shutdown, ServerConfig, ServerHandle};
pub use service::{Answers, IndexService, ServiceError, TreeService};
pub use wire::{ErrorCode, Request, Response, WireError, WireStats, PROTOCOL_VERSION};
