//! The random access file (RAF) of the SPB-tree.
//!
//! The SPB-tree "utilizes an RAF to store objects separately" from the index
//! (Section 3.3, Fig. 4): each entry records an object identifier `id`, the
//! object's byte length `len`, and the serialised object itself. Objects are
//! appended in ascending SFC order during bulk-loading, which is what makes
//! query-time RAF accesses cluster (nearby SFC values ⇒ nearby file
//! offsets ⇒ shared pages).
//!
//! Layout: page 0 is a header (`magic`, `tail`); entries start at logical
//! byte offset [`PAGE_DATA_SIZE`] and may span page boundaries. Offsets are
//! *logical*: they address the concatenation of every page's data area,
//! skipping the per-page CRC footer the pager maintains. Appends are staged
//! in an in-memory tail page so that bulk-loading writes each data page
//! exactly once — matching the paper's construction *PA*.

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
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::cache::{BufferPool, IoStats};
use crate::lockrank::{LockRank, RankedMutex};
use crate::page::{Page, PageId, PAGE_DATA_SIZE};
use crate::pager::Pager;

const MAGIC: u64 = 0x5350_4252_4146_3031; // "SPBRAF01"
const HEADER_TAIL_OFF: usize = 8;
const ENTRY_HEADER: usize = 8; // id: u32, len: u32

/// Typed error for a structurally invalid record reference.
fn bad_record(ptr: RafPtr, why: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("corrupt RAF record at offset {}: {why}", ptr.offset),
    )
}

/// Location of an entry inside the RAF (absolute byte offset of its
/// header). This is the `ptr` a B⁺-tree leaf entry stores.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RafPtr {
    /// Absolute byte offset of the entry header.
    pub offset: u64,
}

/// A decoded RAF entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RafEntry {
    /// The object identifier.
    pub id: u32,
    /// The serialised object.
    pub bytes: Vec<u8>,
}

struct Tail {
    /// The page currently being filled, not yet written to disk.
    page: Page,
    page_id: PageId,
}

/// The random access file: append-only variable-length records read through
/// a buffer pool.
pub struct Raf {
    pool: BufferPool,
    /// Next free byte offset.
    tail: AtomicU64,
    /// Staged tail page (None once sealed by `flush`).
    staged: RankedMutex<Option<Tail>>,
}

impl Raf {
    /// Creates a new RAF at `path` with a read cache of `cache_pages`.
    pub fn create(path: &Path, cache_pages: usize) -> io::Result<Self> {
        let pool = BufferPool::new(Pager::create(path)?, cache_pages);
        let header_id = pool.allocate()?;
        debug_assert_eq!(header_id, PageId(0));
        let mut header = Page::new();
        header.write_u64(0, MAGIC);
        header.write_u64(HEADER_TAIL_OFF, PAGE_DATA_SIZE as u64);
        pool.write(header_id, header)?;
        Ok(Raf {
            pool,
            tail: AtomicU64::new(PAGE_DATA_SIZE as u64),
            staged: RankedMutex::new(LockRank::RafTail, None),
        })
    }

    /// Opens an existing RAF.
    pub fn open(path: &Path, cache_pages: usize) -> io::Result<Self> {
        let pool = BufferPool::new(Pager::open(path)?, cache_pages);
        let header = pool.read(PageId(0))?;
        if header.read_u64(0) != MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "not an SPB RAF file",
            ));
        }
        let tail = header.read_u64(HEADER_TAIL_OFF);
        Ok(Raf {
            pool,
            tail: AtomicU64::new(tail),
            staged: RankedMutex::new(LockRank::RafTail, None),
        })
    }

    /// Appends an object, returning its pointer. Entries are laid out
    /// back-to-back and may span pages.
    ///
    /// # Errors
    /// `InvalidInput` for an object larger than the `u32` length field
    /// can record.
    pub fn append(&self, id: u32, payload: &[u8]) -> io::Result<RafPtr> {
        if u32::try_from(payload.len()).is_err() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "object of {} bytes exceeds the RAF length field (u32)",
                    payload.len()
                ),
            ));
        }
        let offset = self.tail.load(Ordering::SeqCst);
        let mut buf = Vec::with_capacity(ENTRY_HEADER + payload.len());
        buf.extend_from_slice(&id.to_le_bytes());
        buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        buf.extend_from_slice(payload);
        self.write_at_tail(offset, &buf)?;
        self.tail.store(offset + buf.len() as u64, Ordering::SeqCst);
        Ok(RafPtr { offset })
    }

    /// Writes `buf` starting at the tail, staging partial pages in memory.
    fn write_at_tail(&self, mut offset: u64, mut buf: &[u8]) -> io::Result<()> {
        let mut staged = self.staged.lock();
        while !buf.is_empty() {
            let page_no = offset / PAGE_DATA_SIZE as u64;
            let in_page = (offset % PAGE_DATA_SIZE as u64) as usize;
            let take = (PAGE_DATA_SIZE - in_page).min(buf.len());

            // Ensure the staged tail page is the one we are writing into.
            let needs_new = match staged.as_ref() {
                Some(t) => t.page_id.0 != page_no,
                None => true,
            };
            if needs_new {
                // Seal the previous staged page to disk.
                if let Some(t) = staged.take() {
                    self.pool.write(t.page_id, t.page)?;
                }
                // Allocate pages up to page_no (back-to-back appends only
                // ever need one, but be robust).
                while self.pool.num_pages() <= page_no {
                    self.pool.allocate()?;
                }
                let page = if in_page == 0 {
                    Page::new()
                } else {
                    // Resume a partially persisted page (e.g. after reopen).
                    (*self.pool.read(PageId(page_no))?).clone()
                };
                *staged = Some(Tail {
                    page,
                    page_id: PageId(page_no),
                });
            }
            let Some(t) = staged.as_mut() else {
                // The branch above just staged this page; losing it mid-loop
                // would be a bug, but a typed error beats aborting a server.
                return Err(io::Error::other("RAF tail staging lost"));
            };
            let (chunk, rest) = buf.split_at(take);
            t.page.write_slice(in_page, chunk);
            offset += take as u64;
            buf = rest;
        }
        Ok(())
    }

    /// Persists the staged tail page and the header. Call after bulk-loads
    /// and before dropping the RAF if durability matters.
    pub fn flush(&self) -> io::Result<()> {
        let mut staged = self.staged.lock();
        if let Some(t) = staged.take() {
            self.pool.write(t.page_id, t.page.clone())?;
            // Keep staging so subsequent appends continue filling the page.
            *staged = Some(t);
        }
        let mut header = (*self.pool.read(PageId(0))?).clone();
        header.write_u64(HEADER_TAIL_OFF, self.tail.load(Ordering::SeqCst));
        self.pool.write(PageId(0), header)?;
        Ok(())
    }

    /// Reads the entry at `ptr`.
    pub fn get(&self, ptr: RafPtr) -> io::Result<RafEntry> {
        self.get_traced(ptr, &mut |_| {}, |id, bytes| RafEntry {
            id,
            bytes: bytes.to_vec(),
        })
    }

    /// Like [`Raf::get`], but hands the record's id and object bytes to
    /// `decode` instead of copying them out, and calls `trace` with the
    /// page number of every logical page access the entry makes: once for
    /// the header's page, once per page the body covers (staged-tail hits
    /// bypass the pool and are not traced). Per-query accounting hooks in
    /// here: the caller learns exactly which accesses *its* fetch issued,
    /// without diffing the pool's shared counters.
    ///
    /// A record whose header and body share one pooled page costs one
    /// pool read and is decoded from the borrowed page; `trace` still
    /// sees that page twice, so *PA* stays what a header read followed by
    /// a body read costs at every cache capacity, including 0.
    pub fn get_traced<R>(
        &self,
        ptr: RafPtr,
        trace: &mut dyn FnMut(u64),
        decode: impl FnOnce(u32, &[u8]) -> R,
    ) -> io::Result<R> {
        let tail = self.tail.load(Ordering::SeqCst);
        let header_end = ptr
            .offset
            .checked_add(ENTRY_HEADER as u64)
            .filter(|&end| end <= tail)
            .ok_or_else(|| bad_record(ptr, "entry header past tail"))?;
        let page_no = ptr.offset / PAGE_DATA_SIZE as u64;
        let in_page = (ptr.offset % PAGE_DATA_SIZE as u64) as usize;
        // The staged page, when there is one, holds the tail's last byte,
        // so every page below that one is served by the pool.
        let pooled = in_page + ENTRY_HEADER <= PAGE_DATA_SIZE
            && page_no < (tail - 1) / PAGE_DATA_SIZE as u64;
        let mut header = [0u8; ENTRY_HEADER];
        let page = if pooled {
            trace(page_no);
            let page = self.pool.read(PageId(page_no))?;
            header.copy_from_slice(page.read_slice(in_page, ENTRY_HEADER));
            Some(page)
        } else {
            self.read_bytes(ptr.offset, &mut header, trace)?;
            None
        };
        let [i0, i1, i2, i3, l0, l1, l2, l3] = header;
        let id = u32::from_le_bytes([i0, i1, i2, i3]);
        let len = u32::from_le_bytes([l0, l1, l2, l3]) as usize;
        // Validate the recorded length against the tail *before* the
        // allocation: a corrupt length must yield a typed error, not an
        // attempt to allocate (up to) 4 GiB and read past the file.
        if header_end
            .checked_add(len as u64)
            .filter(|&end| end <= tail)
            .is_none()
        {
            return Err(bad_record(ptr, "entry length past tail"));
        }
        let body = in_page + ENTRY_HEADER;
        if let Some(page) = page.filter(|_| len > 0 && body + len <= PAGE_DATA_SIZE) {
            trace(page_no);
            return Ok(decode(id, page.read_slice(body, len)));
        }
        let mut bytes = vec![0u8; len];
        self.read_bytes(header_end, &mut bytes, trace)?;
        Ok(decode(id, &bytes))
    }

    /// Reads `buf.len()` bytes at absolute offset `off`, consulting the
    /// staged tail page where applicable.
    fn read_bytes(
        &self,
        mut off: u64,
        buf: &mut [u8],
        trace: &mut dyn FnMut(u64),
    ) -> io::Result<()> {
        let tail = self.tail.load(Ordering::SeqCst);
        if off
            .checked_add(buf.len() as u64)
            .filter(|&end| end <= tail)
            .is_none()
        {
            // A stale/corrupt pointer (e.g. from a damaged B⁺-tree leaf)
            // must surface as a typed error, not a panic.
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "RAF read of {} byte(s) at offset {off} past tail {tail}",
                    buf.len(),
                ),
            ));
        }
        let mut rest = buf;
        while !rest.is_empty() {
            let page_no = off / PAGE_DATA_SIZE as u64;
            let in_page = (off % PAGE_DATA_SIZE as u64) as usize;
            let take = (PAGE_DATA_SIZE - in_page).min(rest.len());
            let (chunk, tail) = rest.split_at_mut(take);
            let staged_hit = {
                let staged = self.staged.lock();
                match staged.as_ref() {
                    Some(t) if t.page_id.0 == page_no => {
                        chunk.copy_from_slice(t.page.read_slice(in_page, take));
                        true
                    }
                    _ => false,
                }
            };
            if !staged_hit {
                trace(page_no);
                let page = self.pool.read(PageId(page_no))?;
                chunk.copy_from_slice(page.read_slice(in_page, take));
            }
            off += take as u64;
            rest = tail;
        }
        Ok(())
    }

    /// Total logical bytes used (header page's data area + entries).
    pub fn tail_offset(&self) -> u64 {
        self.tail.load(Ordering::SeqCst)
    }

    /// Number of pages including the staged tail.
    pub fn num_pages(&self) -> u64 {
        let tail = self.tail.load(Ordering::SeqCst);
        tail.div_ceil(PAGE_DATA_SIZE as u64)
    }

    /// Average number of objects per data page — the `f` of cost-model
    /// equations (6) and (8).
    pub fn objects_per_page(&self, num_objects: u64) -> f64 {
        let data_pages = self.num_pages().saturating_sub(1).max(1);
        num_objects as f64 / data_pages as f64
    }

    /// Flushes the OS file buffer. Call [`Raf::flush`] first if the
    /// staged tail page must be included.
    pub fn sync(&self) -> io::Result<()> {
        self.pool.sync()
    }

    /// Discards the staged tail page and every cached page, then reloads
    /// the tail from the on-disk header — the RAF-side rollback after an
    /// aborted pager transaction.
    pub fn reload(&self) -> io::Result<()> {
        *self.staged.lock() = None;
        self.pool.flush_cache();
        let header = self.pool.read(PageId(0))?;
        self.tail
            .store(header.read_u64(HEADER_TAIL_OFF), Ordering::SeqCst);
        Ok(())
    }

    /// I/O statistics of the underlying pool.
    pub fn io_stats(&self) -> IoStats {
        self.pool.stats()
    }

    /// Resets the I/O statistics.
    pub fn reset_stats(&self) {
        self.pool.reset_stats();
    }

    /// Flushes the read cache (between queries).
    pub fn flush_cache(&self) {
        self.pool.flush_cache();
    }

    /// Adjusts the read-cache capacity.
    pub fn set_cache_capacity(&self, pages: usize) {
        self.pool.set_capacity(pages);
    }

    /// The buffer pool (shared accounting with the index's own pool is the
    /// caller's concern; the SPB-tree reports the sum of both).
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tempdir::TempDir;

    #[test]
    fn append_get_roundtrip() {
        let dir = TempDir::new("raf-roundtrip");
        let raf = Raf::create(&dir.path().join("o.raf"), 8).unwrap();
        let p1 = raf.append(1, b"hello").unwrap();
        let p2 = raf.append(2, b"").unwrap();
        let p3 = raf.append(3, &vec![0xabu8; 10_000]).unwrap(); // spans pages
        assert_eq!(
            raf.get(p1).unwrap(),
            RafEntry {
                id: 1,
                bytes: b"hello".to_vec()
            }
        );
        assert_eq!(
            raf.get(p2).unwrap(),
            RafEntry {
                id: 2,
                bytes: vec![]
            }
        );
        assert_eq!(raf.get(p3).unwrap().bytes.len(), 10_000);
        assert_eq!(raf.get(p3).unwrap().id, 3);
    }

    #[test]
    fn bogus_pointers_are_typed_errors_not_panics() {
        let dir = TempDir::new("raf-bogus-ptr");
        let raf = Raf::create(&dir.path().join("o.raf"), 8).unwrap();
        let p = raf.append(1, b"hello").unwrap();

        // Offset past the tail: the entry header itself is out of range.
        let err = raf.get(RafPtr { offset: 1 << 40 }).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");

        // Offset inside the payload: the bytes there reinterpret as a
        // header whose length runs past the tail.
        let err = raf
            .get(RafPtr {
                offset: p.offset + 5,
            })
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    }

    /// The reference read path: header then body, each through
    /// `read_bytes`, as every record was read before single-page records
    /// took one pool read.
    fn get_two_reads(raf: &Raf, ptr: RafPtr, trace: &mut dyn FnMut(u64)) -> RafEntry {
        let mut header = [0u8; ENTRY_HEADER];
        raf.read_bytes(ptr.offset, &mut header, trace).unwrap();
        let id = u32::from_le_bytes(header[..4].try_into().unwrap());
        let len = u32::from_le_bytes(header[4..].try_into().unwrap()) as usize;
        let mut bytes = vec![0u8; len];
        raf.read_bytes(ptr.offset + ENTRY_HEADER as u64, &mut bytes, trace)
            .unwrap();
        RafEntry { id, bytes }
    }

    /// Appends a filler so that the next record starts `at` bytes into a
    /// page, then the record itself with a `len`-byte payload.
    fn place(raf: &Raf, at: usize, len: usize, id: u32) -> RafPtr {
        let pds = PAGE_DATA_SIZE as u64;
        let min = raf.tail_offset() + ENTRY_HEADER as u64;
        let target = (min - at as u64).div_ceil(pds) * pds + at as u64;
        raf.append(u32::MAX, &vec![0xee; (target - min) as usize])
            .unwrap();
        let payload: Vec<u8> = (0..len).map(|i| (i as u32 ^ id) as u8).collect();
        let p = raf.append(id, &payload).unwrap();
        assert_eq!(p.offset % pds, at as u64);
        p
    }

    #[test]
    fn single_reads_trace_what_header_then_body_reads_trace() {
        let pds = PAGE_DATA_SIZE;
        // (offset within its page, payload length) relative to a page
        // boundary: header straddling, header ending at the boundary with
        // an empty and a non-empty body, body ending exactly at the
        // boundary, body straddling, empty mid-page, plain, multi-page.
        let layout = [
            (pds - 4, 10),
            (pds - ENTRY_HEADER, 0),
            (pds - ENTRY_HEADER, 5),
            (100, pds - 100 - ENTRY_HEADER),
            (pds - 20, 30),
            (200, 0),
            (300, 50),
            (10, 3 * pds),
        ];
        // Then a header straddling into the staged tail page, and a record
        // wholly on it.
        let staged_layout = [(pds - 4, 10), (500, 20)];
        for capacity in [0usize, 1, 8] {
            let dir = TempDir::new("raf-single-read");
            let path = dir.path().join("o.raf");
            let raf = Raf::create(&path, capacity).unwrap();
            let mut ptrs = Vec::new();
            for (i, &(at, len)) in layout.iter().chain(&staged_layout).enumerate() {
                ptrs.push((place(&raf, at, len, i as u32), at, len));
            }
            let tail_page = (raf.tail_offset() - 1) / pds as u64;
            let check = |raf: &Raf, staged: bool| {
                for &(p, at, len) in &ptrs {
                    raf.flush_cache();
                    let mut want_pages = Vec::new();
                    let want = get_two_reads(raf, p, &mut |pg| want_pages.push(pg));
                    raf.flush_cache();
                    raf.reset_stats();
                    let mut pages = Vec::new();
                    let got = raf.get_traced(p, &mut |pg| pages.push(pg), |id, b| RafEntry {
                        id,
                        bytes: b.to_vec(),
                    });
                    let at_msg = format!("record at {at}+{len}, capacity {capacity}");
                    assert_eq!(got.unwrap(), want, "{at_msg}");
                    assert_eq!(pages, want_pages, "{at_msg}");
                    let page = p.offset / pds as u64;
                    let one_page = at + ENTRY_HEADER + len <= pds;
                    if one_page && page < tail_page {
                        assert_eq!(raf.io_stats().logical_reads, 1, "{at_msg}");
                    }
                    if staged && page == tail_page {
                        assert!(pages.is_empty(), "staged hits are not traced: {at_msg}");
                    }
                }
            };
            check(&raf, true);
            raf.flush().unwrap();
            drop(raf);
            // Reopened, nothing is staged: the tail page comes from the
            // pool like every other.
            check(&Raf::open(&path, capacity).unwrap(), false);
        }
    }

    #[test]
    fn corrupt_length_is_a_typed_error_on_both_read_paths() {
        let dir = TempDir::new("raf-corrupt-len");
        let raf = Raf::create(&dir.path().join("o.raf"), 8).unwrap();
        // A payload that reads as a header claiming u32::MAX bytes.
        let mut fake = 7u32.to_le_bytes().to_vec();
        fake.extend_from_slice(&u32::MAX.to_le_bytes());
        let staged = raf.append(1, &fake).unwrap();
        let bogus = RafPtr {
            offset: staged.offset + ENTRY_HEADER as u64,
        };
        let msg = |raf: &Raf| raf.get(bogus).unwrap_err().to_string();
        assert!(msg(&raf).contains("entry length past tail"));
        // Move the tail on so the record's page is pooled, not staged.
        for i in 0..100 {
            raf.append(i, &[0u8; 100]).unwrap();
        }
        let pds = PAGE_DATA_SIZE as u64;
        assert!(bogus.offset / pds < (raf.tail_offset() - 1) / pds);
        assert!(msg(&raf).contains("entry length past tail"));
        let err = raf.get(bogus).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn bulk_append_writes_each_page_once() {
        let dir = TempDir::new("raf-bulk");
        let raf = Raf::create(&dir.path().join("o.raf"), 0).unwrap();
        raf.reset_stats();
        // 1000 × 32-byte entries ≈ 10 pages of data.
        for i in 0..1000u32 {
            raf.append(i, &[0u8; 24]).unwrap();
        }
        raf.flush().unwrap();
        let s = raf.io_stats();
        let data_pages = raf.num_pages() - 1;
        // Each data page allocated once + written roughly once (plus header
        // rewrite); staging keeps this linear instead of quadratic.
        assert!(
            s.writes <= 3 * data_pages + 4,
            "writes = {}, pages = {}",
            s.writes,
            data_pages
        );
    }

    #[test]
    fn reopen_preserves_entries() {
        let dir = TempDir::new("raf-reopen");
        let path = dir.path().join("o.raf");
        let ptrs: Vec<RafPtr>;
        {
            let raf = Raf::create(&path, 4).unwrap();
            ptrs = (0..50u32)
                .map(|i| raf.append(i, format!("payload {i}").as_bytes()).unwrap())
                .collect();
            raf.flush().unwrap();
        }
        let raf = Raf::open(&path, 4).unwrap();
        for (i, &p) in ptrs.iter().enumerate() {
            let e = raf.get(p).unwrap();
            assert_eq!(e.id, i as u32);
            assert_eq!(e.bytes, format!("payload {i}").as_bytes());
        }
        // Appending after reopen resumes the partial tail page.
        let p = raf.append(99, b"after reopen").unwrap();
        assert_eq!(raf.get(p).unwrap().bytes, b"after reopen");
    }

    #[test]
    fn objects_per_page_reflects_density() {
        let dir = TempDir::new("raf-density");
        let raf = Raf::create(&dir.path().join("o.raf"), 0).unwrap();
        for i in 0..200u32 {
            raf.append(i, &[0u8; 92]).unwrap(); // 100 B/entry → ~40/page
        }
        let f = raf.objects_per_page(200);
        assert!(f > 30.0 && f <= 41.0, "f = {f}");
    }

    #[test]
    fn open_rejects_non_raf_files() {
        let dir = TempDir::new("raf-badmagic");
        let path = dir.path().join("o.raf");
        {
            let pager = Pager::create(&path).unwrap();
            pager.allocate().unwrap();
        }
        assert!(Raf::open(&path, 4).is_err());
    }
}
