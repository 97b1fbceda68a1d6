//! Disk substrate for every index in the workspace.
//!
//! The paper's performance model is explicitly disk-based: all metric access
//! methods use a fixed page size of 4 KB, and the I/O cost of an operation
//! is its number of **page accesses** (*PA*). This crate provides that
//! substrate so each index measures I/O identically:
//!
//! * [`Page`] / [`Pager`] — a file of fixed 4 KB pages with raw read/write
//!   counters;
//! * [`BufferPool`] — an LRU cache in front of a pager; the paper's cache
//!   experiments (Fig. 10) vary its capacity, and queries flush it so each
//!   of the 500 workload queries is measured cold;
//! * [`Lru`] — the one LRU structure: a pool stores pages in it,
//!   per-query cost accounting (`spb-core`) replays page traces through it;
//! * [`Raf`] — the *random access file* holding variable-length object
//!   records `(id, len, obj)` separately from the index (Fig. 4);
//! * [`TempDir`] — a tiny self-cleaning scratch-directory helper used by
//!   tests, examples and benchmarks.
//!
//! The durability layer added on top of that substrate:
//!
//! * every physical page carries a CRC-32 footer ([`PAGE_DATA_SIZE`] bytes
//!   remain for node codecs), verified on read ([`StorageCorrupt`] /
//!   [`is_corrupt`]);
//! * [`Wal`] — a redo-only, group-commit write-ahead log of page and meta
//!   after-images;
//! * [`atomic_write_file`] — temp-file + fsync + rename whole-file
//!   replacement for small metadata files;
//! * [`fault`] — a deterministic crash/corruption injection harness used
//!   by the recovery tests.

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

mod atomic;
mod cache;
mod checksum;
pub mod fault;
pub mod lockrank;
mod lru;
mod page;
mod pager;
mod raf;
mod tempdir;
mod wal;

pub use atomic::atomic_write_file;
pub use cache::{BufferPool, IoStats};
pub use checksum::crc32;
pub use lru::Lru;
pub use page::{Page, PageId, PAGE_DATA_SIZE, PAGE_SIZE};
pub use pager::{is_corrupt, Pager};
pub use raf::{Raf, RafEntry, RafPtr};
pub use tempdir::TempDir;
pub use wal::{Wal, WalFileTag, WalRecord, WalScan};
