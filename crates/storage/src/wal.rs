//! Redo-only write-ahead log for SPB-tree updates.
//!
//! One logical update (insert or delete) stages its dirty pages in the
//! pagers (no-steal, see [`crate::Pager::txn_begin`]) and describes them
//! to the WAL as one transaction:
//!
//! ```text
//! Begin(txid)
//! PageImage(txid, file, page_no, image)   × dirty pages
//! MetaImage(txid, meta bytes)             (the spb.meta contents)
//! Commit(txid)
//! ```
//!
//! The frames of a transaction are buffered in memory and reach the log
//! in a single `write_all` followed by a single fsync (*group commit*):
//! the commit point is that fsync. Only after it do the staged pages go
//! to the data files. Recovery scans the log, drops a torn tail (any
//! frame that is incomplete or fails its CRC, and everything after it),
//! and redoes the page and meta images of every *committed* transaction
//! — physical redo is idempotent, so crashing during recovery is fine.
//! A checkpoint (after the data files are fsynced) truncates the log.
//!
//! ## Frame format
//!
//! ```text
//! [len: u32 LE] [crc32(payload): u32 LE] [payload: len bytes]
//! payload = [type: u8] [txid: u64 LE] [body]
//! ```
//!
//! Bodies: `Begin`/`Commit` — empty; `PageImage` — `[file: u8]
//! [page_no: u64 LE] [image: PAGE_SIZE bytes]`; `MetaImage` — the raw
//! meta bytes.

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

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use crate::checksum::crc32;
use crate::fault::{self, WritePlan};
use crate::lockrank::{LockRank, RankedMutex};
use crate::page::PAGE_SIZE;

const TYPE_BEGIN: u8 = 1;
const TYPE_PAGE: u8 = 2;
const TYPE_META: u8 = 3;
const TYPE_COMMIT: u8 = 4;

/// Frames larger than this are rejected as corruption when scanning
/// (the largest legal payload is a page image: 9 + 9 + PAGE_SIZE bytes;
/// meta images are far smaller than a page).
const MAX_PAYLOAD: usize = 64 * 1024;

/// Group-commit batch size in bytes (one sample per [`Wal::commit`]).
fn commit_bytes_hist() -> &'static Arc<spb_obs::Histogram> {
    static H: OnceLock<Arc<spb_obs::Histogram>> = OnceLock::new();
    H.get_or_init(|| spb_obs::histogram("wal.commit_bytes"))
}

/// The `phase.wal_fsync` histogram: write + fsync latency of one group
/// commit (nanoseconds).
fn wal_fsync_hist() -> &'static Arc<spb_obs::Histogram> {
    static H: OnceLock<Arc<spb_obs::Histogram>> = OnceLock::new();
    H.get_or_init(|| spb_obs::histogram("phase.wal_fsync"))
}

/// Which data file a [`WalRecord::PageImage`] belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WalFileTag {
    /// The B⁺-tree file (`btree.db`).
    BTree,
    /// The random access file (`spb.raf`).
    Raf,
}

impl WalFileTag {
    fn to_byte(self) -> u8 {
        match self {
            WalFileTag::BTree => 0,
            WalFileTag::Raf => 1,
        }
    }

    fn from_byte(b: u8) -> Option<Self> {
        match b {
            0 => Some(WalFileTag::BTree),
            1 => Some(WalFileTag::Raf),
            // Any other byte is log corruption; the decoder treats the
            // frame as the end of the valid prefix.
            _ => None,
        }
    }
}

/// One decoded WAL record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalRecord {
    /// Start of transaction `txid`.
    Begin {
        /// Transaction id.
        txid: u64,
    },
    /// Physical after-image of one page.
    PageImage {
        /// Transaction id.
        txid: u64,
        /// Which data file the page belongs to.
        file: WalFileTag,
        /// Page number within that file.
        page_no: u64,
        /// Full page image (the pager re-stamps the CRC footer on redo).
        image: Box<[u8; PAGE_SIZE]>,
    },
    /// After-image of the tree's meta file.
    MetaImage {
        /// Transaction id.
        txid: u64,
        /// The new meta contents.
        bytes: Vec<u8>,
    },
    /// Commit point of transaction `txid` (durable once this frame is
    /// fsynced).
    Commit {
        /// Transaction id.
        txid: u64,
    },
}

impl WalRecord {
    /// The record's transaction id.
    pub fn txid(&self) -> u64 {
        match *self {
            WalRecord::Begin { txid }
            | WalRecord::PageImage { txid, .. }
            | WalRecord::MetaImage { txid, .. }
            | WalRecord::Commit { txid } => txid,
        }
    }
}

/// Encodes `record` as one framed WAL entry (length + CRC + payload).
pub(crate) fn encode_record(record: &WalRecord) -> Vec<u8> {
    let mut payload = Vec::new();
    match record {
        WalRecord::Begin { txid } => {
            payload.push(TYPE_BEGIN);
            payload.extend_from_slice(&txid.to_le_bytes());
        }
        WalRecord::PageImage {
            txid,
            file,
            page_no,
            image,
        } => {
            payload.push(TYPE_PAGE);
            payload.extend_from_slice(&txid.to_le_bytes());
            payload.push(file.to_byte());
            payload.extend_from_slice(&page_no.to_le_bytes());
            payload.extend_from_slice(image.as_slice());
        }
        WalRecord::MetaImage { txid, bytes } => {
            payload.push(TYPE_META);
            payload.extend_from_slice(&txid.to_le_bytes());
            payload.extend_from_slice(bytes);
        }
        WalRecord::Commit { txid } => {
            payload.push(TYPE_COMMIT);
            payload.extend_from_slice(&txid.to_le_bytes());
        }
    }
    let mut frame = Vec::with_capacity(8 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(&payload).to_le_bytes());
    frame.extend_from_slice(&payload);
    frame
}

/// Decodes one framed record from the front of `bytes`. Returns the
/// record and the number of bytes consumed, or `None` if the front of
/// `bytes` is not a complete, checksum-valid frame (a torn tail).
pub(crate) fn decode_record(bytes: &[u8]) -> Option<(WalRecord, usize)> {
    let len = u32::from_le_bytes(bytes.get(0..4)?.try_into().ok()?) as usize;
    if !(9..=MAX_PAYLOAD).contains(&len) {
        return None;
    }
    let stored_crc = u32::from_le_bytes(bytes.get(4..8)?.try_into().ok()?);
    let payload = bytes.get(8..8 + len)?;
    if crc32(payload) != stored_crc {
        return None;
    }
    let (&rtype, rest) = payload.split_first()?;
    let txid = u64::from_le_bytes(rest.get(0..8)?.try_into().ok()?);
    let body = rest.get(8..)?;
    let record = match rtype {
        TYPE_BEGIN if body.is_empty() => WalRecord::Begin { txid },
        TYPE_COMMIT if body.is_empty() => WalRecord::Commit { txid },
        TYPE_PAGE if body.len() == 1 + 8 + PAGE_SIZE => {
            let (&tag, rest) = body.split_first()?;
            let file = WalFileTag::from_byte(tag)?;
            let page_no = u64::from_le_bytes(rest.get(0..8)?.try_into().ok()?);
            let mut image = Box::new([0u8; PAGE_SIZE]);
            image.copy_from_slice(rest.get(8..)?);
            WalRecord::PageImage {
                txid,
                file,
                page_no,
                image,
            }
        }
        TYPE_META => WalRecord::MetaImage {
            txid,
            bytes: body.to_vec(),
        },
        // An unknown type byte in a CRC-valid frame is a log written by a
        // different format version; recovery must stop here exactly as
        // for a torn tail rather than guess at the record's meaning.
        _ => return None,
    };
    Some((record, 8 + len))
}

/// Result of scanning a WAL file.
#[derive(Debug)]
pub struct WalScan {
    /// Every record in the valid prefix, in log order.
    pub records: Vec<WalRecord>,
    /// Length in bytes of the valid prefix.
    pub valid_len: u64,
    /// Bytes beyond the valid prefix (a torn tail to truncate).
    pub torn_bytes: u64,
}

impl WalScan {
    /// Transaction ids with a `Commit` record, in commit order.
    pub fn committed_txids(&self) -> Vec<u64> {
        self.records
            .iter()
            .filter_map(|r| match r {
                WalRecord::Commit { txid } => Some(*txid),
                _ => None,
            })
            .collect()
    }
}

/// A streaming, frame-at-a-time reader over a byte range of the log,
/// created by [`Wal::segment_reader`]. Each frame is CRC-checked as it
/// is decoded; iteration stops cleanly at the end of the segment or at
/// the first invalid frame (which, inside the committed prefix, means
/// on-disk corruption). This is the replication read path: a replica
/// resumes from its applied LSN and ships whole frames, where before
/// this reader the replay logic was only reachable through recovery.
#[derive(Debug)]
pub struct WalSegmentReader {
    buf: Vec<u8>,
    base_lsn: u64,
    pos: usize,
}

impl WalSegmentReader {
    /// Absolute log offset (LSN) of the next frame to decode.
    pub fn lsn(&self) -> u64 {
        self.base_lsn + self.pos as u64
    }

    /// Consumes the reader and returns `(frames, next_lsn)`: the raw
    /// bytes of every remaining complete, CRC-valid frame, plus the LSN
    /// one past them. This is what a `WalShip` reply carries — the
    /// receiver re-checks every frame's CRC when it applies them.
    pub fn into_valid_prefix(mut self) -> (Vec<u8>, u64) {
        let start = self.pos;
        while let Some((_, consumed)) = self.buf.get(self.pos..).and_then(decode_record) {
            self.pos += consumed;
        }
        let next_lsn = self.lsn();
        let frames = self.buf.get(start..self.pos).unwrap_or_default().to_vec();
        (frames, next_lsn)
    }
}

impl Iterator for WalSegmentReader {
    type Item = (u64, WalRecord);

    fn next(&mut self) -> Option<(u64, WalRecord)> {
        let at = self.lsn();
        let (record, consumed) = self.buf.get(self.pos..).and_then(decode_record)?;
        self.pos += consumed;
        Some((at, record))
    }
}

/// The write-ahead log file.
pub struct Wal {
    file: RankedMutex<File>,
    path: PathBuf,
    /// Frames of the open transaction, not yet written. Same rank as
    /// `file`: the two are never held together.
    pending: RankedMutex<Vec<u8>>,
    /// Monotonic transaction-id source (reset when the log is truncated).
    next_txid: AtomicU64,
    fsyncs: AtomicU64,
    len: AtomicU64,
}

impl Wal {
    /// Opens the WAL at `path`, creating it if missing. The caller is
    /// responsible for scanning and truncating a pre-existing log before
    /// appending (see [`Wal::scan_file`] and [`Wal::truncate_to`]).
    pub fn open(path: &Path) -> io::Result<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let len = file.metadata()?.len();
        Ok(Wal {
            file: RankedMutex::new(LockRank::Wal, file),
            path: path.to_path_buf(),
            pending: RankedMutex::new(LockRank::Wal, Vec::new()),
            next_txid: AtomicU64::new(1),
            fsyncs: AtomicU64::new(0),
            len: AtomicU64::new(len),
        })
    }

    /// Scans the WAL file at `path` (which need not exist — an empty
    /// scan results). Stops at the first torn or corrupt frame.
    pub fn scan_file(path: &Path) -> io::Result<WalScan> {
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        let mut records = Vec::new();
        let mut pos = 0usize;
        while let Some((record, consumed)) = bytes.get(pos..).and_then(decode_record) {
            records.push(record);
            pos += consumed;
        }
        Ok(WalScan {
            records,
            valid_len: pos as u64,
            torn_bytes: (bytes.len() - pos) as u64,
        })
    }

    /// Truncates the file to `len` bytes (drops a torn tail found by
    /// [`Wal::scan_file`]) and fsyncs.
    pub(crate) fn truncate_to(&self, len: u64) -> io::Result<()> {
        let file = self.file.lock();
        file.set_len(len)?;
        fault::on_sync(&self.path)?;
        file.sync_all()?;
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        self.len.store(len, Ordering::SeqCst);
        Ok(())
    }

    /// Empties the log — the checkpoint step after the data files have
    /// been fsynced.
    pub fn reset(&self) -> io::Result<()> {
        self.truncate_to(0)?;
        self.next_txid.store(1, Ordering::SeqCst);
        Ok(())
    }

    /// Starts a transaction: allocates a txid and buffers its `Begin`
    /// frame. Nothing reaches the file before [`Wal::commit`].
    ///
    /// # Errors
    /// Fails if a transaction is already buffered (WAL transactions do
    /// not nest).
    pub fn begin(&self) -> io::Result<u64> {
        let txid = self.next_txid.fetch_add(1, Ordering::SeqCst);
        let mut pending = self.pending.lock();
        if !pending.is_empty() {
            return Err(io::Error::other("nested WAL transaction"));
        }
        pending.extend_from_slice(&encode_record(&WalRecord::Begin { txid }));
        Ok(txid)
    }

    /// Buffers a page after-image for the open transaction.
    pub fn log_page(&self, txid: u64, file: WalFileTag, page_no: u64, image: &[u8; PAGE_SIZE]) {
        let record = WalRecord::PageImage {
            txid,
            file,
            page_no,
            image: Box::new(*image),
        };
        self.pending
            .lock()
            .extend_from_slice(&encode_record(&record));
    }

    /// Buffers a meta after-image for the open transaction.
    pub fn log_meta(&self, txid: u64, bytes: &[u8]) {
        let record = WalRecord::MetaImage {
            txid,
            bytes: bytes.to_vec(),
        };
        self.pending
            .lock()
            .extend_from_slice(&encode_record(&record));
    }

    /// Commits: appends the buffered frames plus the `Commit` frame in
    /// one write and fsyncs once (group commit). On return the
    /// transaction is durable.
    pub fn commit(&self, txid: u64) -> io::Result<()> {
        let mut buffer = {
            let mut pending = self.pending.lock();
            std::mem::take(&mut *pending)
        };
        buffer.extend_from_slice(&encode_record(&WalRecord::Commit { txid }));
        commit_bytes_hist().record(buffer.len() as u64);

        let fsync_start = spb_obs::clock::now();
        let mut file = self.file.lock();
        file.seek(SeekFrom::Start(self.len.load(Ordering::SeqCst)))?;
        match fault::on_write(&self.path, &buffer) {
            WritePlan::Proceed => file.write_all(&buffer)?,
            WritePlan::CrashAfterWriting(torn) => {
                file.write_all(&torn)?;
                let _ = file.sync_all();
                return Err(fault::injected_crash());
            }
            WritePlan::Crash => return Err(fault::injected_crash()),
        }
        fault::on_sync(&self.path)?;
        file.sync_all()?;
        wal_fsync_hist().record(spb_obs::clock::nanos_since(fsync_start));
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        self.len.fetch_add(buffer.len() as u64, Ordering::SeqCst);
        Ok(())
    }

    /// Opens a streaming reader over the committed log bytes starting at
    /// `from_lsn` (a byte offset previously returned by [`Wal::len`] or
    /// [`WalSegmentReader::lsn`]; `0` reads from the start). The segment
    /// is capped at the current committed length, which group commit
    /// only advances by whole transactions, so a reader never observes a
    /// partial frame or a partial transaction.
    ///
    /// # Errors
    /// Fails with `InvalidInput` when `from_lsn` lies beyond the current
    /// log length — the log was reset by a checkpoint since the caller
    /// last read, and the caller must re-bootstrap instead of resuming.
    pub fn segment_reader(&self, from_lsn: u64) -> io::Result<WalSegmentReader> {
        let end = self.len();
        if from_lsn > end {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("segment start {from_lsn} beyond log end {end} (log was reset)"),
            ));
        }
        let mut buf = vec![0u8; (end - from_lsn) as usize];
        if !buf.is_empty() {
            let mut file = self.file.lock();
            file.seek(SeekFrom::Start(from_lsn))?;
            file.read_exact(&mut buf)?;
        }
        Ok(WalSegmentReader {
            buf,
            base_lsn: from_lsn,
            pos: 0,
        })
    }

    /// Drops the buffered frames of the open transaction (rollback —
    /// nothing was written).
    pub fn abort(&self) {
        self.pending.lock().clear();
    }

    /// Current log size in bytes (drives checkpoint scheduling).
    pub fn len(&self) -> u64 {
        self.len.load(Ordering::SeqCst)
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// fsyncs performed by the log so far.
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs.load(Ordering::Relaxed)
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tempdir::TempDir;
    use proptest::prelude::*;

    fn page_image(fill: u8) -> Box<[u8; PAGE_SIZE]> {
        Box::new([fill; PAGE_SIZE])
    }

    #[test]
    fn commit_then_scan_roundtrip() {
        let dir = TempDir::new("wal-roundtrip");
        let wal = Wal::open(&dir.path().join("spb.wal")).unwrap();
        let t1 = wal.begin().unwrap();
        wal.log_page(t1, WalFileTag::BTree, 3, &page_image(0x11));
        wal.log_meta(t1, b"len=1\n");
        wal.commit(t1).unwrap();
        let t2 = wal.begin().unwrap();
        wal.log_page(t2, WalFileTag::Raf, 0, &page_image(0x22));
        wal.commit(t2).unwrap();
        assert_eq!(wal.fsyncs(), 2);

        let scan = Wal::scan_file(&dir.path().join("spb.wal")).unwrap();
        assert_eq!(scan.torn_bytes, 0);
        assert_eq!(scan.valid_len, wal.len());
        assert_eq!(scan.committed_txids(), vec![t1, t2]);
        assert_eq!(scan.records.len(), 7);
        assert!(matches!(scan.records[0], WalRecord::Begin { txid } if txid == t1));
        assert!(matches!(
            &scan.records[1],
            WalRecord::PageImage {
                file: WalFileTag::BTree,
                page_no: 3,
                ..
            }
        ));
    }

    #[test]
    fn aborted_transactions_never_reach_the_file() {
        let dir = TempDir::new("wal-abort");
        let path = dir.path().join("spb.wal");
        let wal = Wal::open(&path).unwrap();
        let t1 = wal.begin().unwrap();
        wal.log_page(t1, WalFileTag::BTree, 0, &page_image(1));
        wal.abort();
        let t2 = wal.begin().unwrap();
        wal.log_meta(t2, b"m");
        wal.commit(t2).unwrap();

        let scan = Wal::scan_file(&path).unwrap();
        assert_eq!(scan.committed_txids(), vec![t2]);
        assert!(scan.records.iter().all(|r| r.txid() == t2));
    }

    #[test]
    fn torn_tail_is_detected_and_truncatable() {
        let dir = TempDir::new("wal-torn");
        let path = dir.path().join("spb.wal");
        let wal = Wal::open(&path).unwrap();
        let t1 = wal.begin().unwrap();
        wal.log_page(t1, WalFileTag::BTree, 1, &page_image(9));
        wal.commit(t1).unwrap();
        let good_len = wal.len();
        drop(wal);

        // Simulate a torn group-commit: half a frame of a second txn.
        let tail = encode_record(&WalRecord::Begin { txid: 2 });
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&tail[..tail.len() / 2]);
        std::fs::write(&path, &bytes).unwrap();

        let scan = Wal::scan_file(&path).unwrap();
        assert_eq!(scan.valid_len, good_len);
        assert!(scan.torn_bytes > 0);
        assert_eq!(scan.committed_txids(), vec![t1]);

        let wal = Wal::open(&path).unwrap();
        wal.truncate_to(scan.valid_len).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), good_len);
        let rescan = Wal::scan_file(&path).unwrap();
        assert_eq!(rescan.torn_bytes, 0);
    }

    #[test]
    fn every_unknown_tag_or_record_type_byte_ends_the_valid_prefix() {
        let frame = |rtype: u8, body: &[u8]| {
            let mut payload = vec![rtype];
            payload.extend_from_slice(&7u64.to_le_bytes());
            payload.extend_from_slice(body);
            let mut f = (payload.len() as u32).to_le_bytes().to_vec();
            f.extend_from_slice(&crc32(&payload).to_le_bytes());
            f.extend_from_slice(&payload);
            f
        };
        let page_body = |tag: u8| {
            let mut body = vec![tag];
            body.extend_from_slice(&[0u8; 8 + PAGE_SIZE]);
            body
        };
        for b in 0..=u8::MAX {
            let tag = WalFileTag::from_byte(b);
            assert_eq!(
                tag.map(WalFileTag::to_byte),
                (b <= 1).then_some(b),
                "tag {b}"
            );
            let tagged = decode_record(&frame(TYPE_PAGE, &page_body(b)));
            assert_eq!(tagged.is_some(), b <= 1, "tag {b}");
            // An empty body fits Begin, Commit and Meta; a page body fits
            // PageImage and Meta. Every other type byte decodes to nothing.
            let empty = decode_record(&frame(b, &[]));
            assert_eq!(
                empty.is_some(),
                [TYPE_BEGIN, TYPE_META, TYPE_COMMIT].contains(&b),
                "type {b}"
            );
            let paged = decode_record(&frame(b, &page_body(0)));
            assert_eq!(
                paged.is_some(),
                [TYPE_PAGE, TYPE_META].contains(&b),
                "type {b}"
            );
            for (record, used) in empty.into_iter().chain(paged) {
                assert_eq!(encode_record(&record).len(), used);
            }
        }
    }

    #[test]
    fn reset_empties_the_log() {
        let dir = TempDir::new("wal-reset");
        let path = dir.path().join("spb.wal");
        let wal = Wal::open(&path).unwrap();
        let t = wal.begin().unwrap();
        wal.commit(t).unwrap();
        assert!(!wal.is_empty());
        wal.reset().unwrap();
        assert!(wal.is_empty());
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
        assert_eq!(Wal::scan_file(&path).unwrap().records.len(), 0);
    }

    #[test]
    fn segment_reader_streams_frames_and_resumes_from_an_lsn() {
        let dir = TempDir::new("wal-segment");
        let wal = Wal::open(&dir.path().join("spb.wal")).unwrap();
        let t1 = wal.begin().unwrap();
        wal.log_page(t1, WalFileTag::BTree, 3, &page_image(0x11));
        wal.commit(t1).unwrap();
        let mid = wal.len();
        let t2 = wal.begin().unwrap();
        wal.log_meta(t2, b"len=2\n");
        wal.commit(t2).unwrap();

        // Full scan from 0: same records as scan_file, with LSNs that
        // advance by exactly one frame per record.
        let reader = wal.segment_reader(0).unwrap();
        assert_eq!(reader.lsn(), 0);
        assert_eq!(reader.base_lsn + reader.buf.len() as u64, wal.len());
        let streamed: Vec<(u64, WalRecord)> = reader.collect();
        let scan = Wal::scan_file(wal.path()).unwrap();
        assert_eq!(
            streamed.iter().map(|(_, r)| r.clone()).collect::<Vec<_>>(),
            scan.records
        );
        let mut expect_lsn = 0;
        for ((at, r), raw) in streamed.iter().zip(scan.records.iter().map(encode_record)) {
            assert_eq!(*at, expect_lsn, "{r:?} at wrong LSN");
            expect_lsn += raw.len() as u64;
        }

        // Resume from the first transaction's end: only t2's frames.
        let resumed: Vec<(u64, WalRecord)> = wal.segment_reader(mid).unwrap().collect();
        assert_eq!(resumed.len(), 3);
        assert!(resumed.iter().all(|(_, r)| r.txid() == t2));
        assert_eq!(resumed.first().map(|(at, _)| *at), Some(mid));

        // Caught up: an empty reader. Beyond the end: a typed error.
        assert_eq!(wal.segment_reader(wal.len()).unwrap().count(), 0);
        let err = wal.segment_reader(wal.len() + 1).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn segment_reader_valid_prefix_matches_raw_log_bytes() {
        let dir = TempDir::new("wal-segment-raw");
        let wal = Wal::open(&dir.path().join("spb.wal")).unwrap();
        let t1 = wal.begin().unwrap();
        wal.log_page(t1, WalFileTag::Raf, 0, &page_image(0x42));
        wal.commit(t1).unwrap();
        let mid = wal.len();
        let t2 = wal.begin().unwrap();
        wal.log_meta(t2, b"m");
        wal.commit(t2).unwrap();

        let (frames, next_lsn) = wal.segment_reader(mid).unwrap().into_valid_prefix();
        assert_eq!(next_lsn, wal.len());
        let raw = std::fs::read(wal.path()).unwrap();
        assert_eq!(frames, raw[mid as usize..]);

        // Shipped frames decode standalone, like any valid log prefix.
        let mut pos = 0;
        let mut txids = Vec::new();
        while let Some((r, n)) = decode_record(&frames[pos..]) {
            txids.push(r.txid());
            pos += n;
        }
        assert_eq!(pos, frames.len());
        assert!(txids.iter().all(|&t| t == t2));
    }

    fn record_strategy() -> impl Strategy<Value = WalRecord> {
        prop_oneof![
            any::<u64>().prop_map(|txid| WalRecord::Begin { txid }),
            any::<u64>().prop_map(|txid| WalRecord::Commit { txid }),
            (any::<u64>(), any::<bool>(), any::<u64>(), any::<u8>()).prop_map(
                |(txid, btree, page_no, fill)| WalRecord::PageImage {
                    txid,
                    file: if btree {
                        WalFileTag::BTree
                    } else {
                        WalFileTag::Raf
                    },
                    page_no,
                    image: Box::new([fill; PAGE_SIZE]),
                }
            ),
            (any::<u64>(), proptest::collection::vec(any::<u8>(), 0..200))
                .prop_map(|(txid, bytes)| WalRecord::MetaImage { txid, bytes }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn encode_decode_roundtrip(records in proptest::collection::vec(record_strategy(), 1..12)) {
            let mut stream = Vec::new();
            for r in &records {
                stream.extend_from_slice(&encode_record(r));
            }
            let mut decoded = Vec::new();
            let mut pos = 0;
            while let Some((r, n)) = decode_record(&stream[pos..]) {
                decoded.push(r);
                pos += n;
            }
            prop_assert_eq!(pos, stream.len());
            prop_assert_eq!(decoded, records);
        }

        #[test]
        fn truncated_tail_never_decodes(record in record_strategy(), cut in 0usize..100) {
            let frame = encode_record(&record);
            // Any strict prefix fails to decode (torn tail detection).
            let cut = cut % frame.len();
            prop_assert!(decode_record(&frame[..cut]).is_none());
        }

        #[test]
        fn corrupt_frames_never_decode(record in record_strategy(), pos in 0usize..5000, bit in 0u8..8) {
            let mut frame = encode_record(&record);
            let pos = pos % frame.len();
            frame[pos] ^= 1 << bit;
            // A flipped bit anywhere kills the frame: either the length
            // no longer matches (decode sees a short/oversized frame) or
            // the CRC fails. It must never decode to the original.
            match decode_record(&frame) {
                None => {}
                Some((r, _)) => prop_assert_ne!(r, record),
            }
        }
    }
}
