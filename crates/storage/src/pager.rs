//! A file of fixed-size pages with checksums, fault hooks and staging.

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

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::checksum::crc32;
use crate::fault::{self, WritePlan};
use crate::lockrank::{LockRank, RankedMutex};
use crate::page::{Page, PageId, PAGE_SIZE};

/// Storage-level corruption detected by the checksum layer. Surfaces as
/// the inner error of an [`io::Error`] with kind `InvalidData`; use
/// [`is_corrupt`] to classify without string matching.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct StorageCorrupt {
    /// File the bad page was read from.
    pub file: PathBuf,
    /// Page number within the file.
    pub page: u64,
    /// CRC stored in the page footer.
    pub stored: u32,
    /// CRC computed over the page's data area.
    pub computed: u32,
}

impl std::fmt::Display for StorageCorrupt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "page {} of {} is corrupt: footer CRC {:#010x}, computed {:#010x}",
            self.page,
            self.file.display(),
            self.stored,
            self.computed
        )
    }
}

impl std::error::Error for StorageCorrupt {}

/// A read or write of a page number outside the allocated range — a
/// dangling page reference, i.e. structural corruption of whatever node
/// pointed there. Surfaces as the inner error of an [`io::Error`] with
/// kind `InvalidData`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct BadPageRef {
    /// File the reference pointed into.
    pub file: PathBuf,
    /// The out-of-range page number.
    pub page: u64,
    /// Number of pages actually allocated.
    pub num_pages: u64,
}

impl std::fmt::Display for BadPageRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "reference to unallocated page {} of {} ({} pages allocated)",
            self.page,
            self.file.display(),
            self.num_pages
        )
    }
}

impl std::error::Error for BadPageRef {}

/// Whether `err` (at any wrapping depth) is a checksum-corruption error.
pub fn is_corrupt(err: &io::Error) -> bool {
    classify(err, |e| e.is::<StorageCorrupt>())
}

/// Walks `err`'s payload chain looking for a payload matching `pred`.
fn classify(err: &io::Error, pred: impl Fn(&(dyn std::error::Error + 'static)) -> bool) -> bool {
    let mut source: Option<&(dyn std::error::Error + 'static)> = err.get_ref().map(|e| e as _);
    while let Some(e) = source {
        if pred(e) {
            return true;
        }
        // `io::Error::source()` yields the *source of* its payload, which
        // would skip a nested payload entirely — descend into it by hand.
        source = match e.downcast_ref::<io::Error>() {
            Some(io_err) => io_err.get_ref().map(|inner| inner as _),
            None => e.source(),
        };
    }
    false
}

/// A pager over one file: allocates, reads and writes 4 KB pages and counts
/// raw disk operations. Higher layers access it through a [`BufferPool`]
/// (which turns the raw counts into the paper's *PA* metric).
///
/// Every physical page carries a CRC-32 footer over its data area,
/// stamped on write and verified on read; a mismatch surfaces as an
/// `InvalidData` error wrapping [`StorageCorrupt`]. While a transaction
/// is open ([`Pager::txn_begin`]) writes are staged in memory and never
/// reach the file: [`Pager::txn_commit`] hands them to the caller, who
/// logs them and writes them back once they are durable — the no-steal
/// policy the redo-only WAL depends on.
///
/// [`BufferPool`]: crate::BufferPool
pub struct Pager {
    file: RankedMutex<File>,
    path: PathBuf,
    num_pages: AtomicU64,
    disk_reads: AtomicU64,
    disk_writes: AtomicU64,
    fsyncs: AtomicU64,
    /// Pages staged by the open transaction, by page number.
    txn: RankedMutex<Option<HashMap<u64, Page>>>,
}

impl Pager {
    /// Creates (truncating) a pager file at `path`.
    pub fn create(path: &Path) -> io::Result<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(Pager {
            file: RankedMutex::new(LockRank::PagerFile, file),
            path: path.to_path_buf(),
            num_pages: AtomicU64::new(0),
            disk_reads: AtomicU64::new(0),
            disk_writes: AtomicU64::new(0),
            fsyncs: AtomicU64::new(0),
            txn: RankedMutex::new(LockRank::PagerTxn, None),
        })
    }

    /// Opens an existing pager file.
    ///
    /// # Errors
    /// Fails if the file does not exist or its size is not a multiple of
    /// [`PAGE_SIZE`].
    pub fn open(path: &Path) -> io::Result<Self> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let len = file.metadata()?.len();
        if len % PAGE_SIZE as u64 != 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("file length {len} is not a multiple of the page size"),
            ));
        }
        Ok(Pager {
            file: RankedMutex::new(LockRank::PagerFile, file),
            path: path.to_path_buf(),
            num_pages: AtomicU64::new(len / PAGE_SIZE as u64),
            disk_reads: AtomicU64::new(0),
            disk_writes: AtomicU64::new(0),
            fsyncs: AtomicU64::new(0),
            txn: RankedMutex::new(LockRank::PagerTxn, None),
        })
    }

    /// The file this pager manages.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Allocates a fresh zeroed page at the end of the file.
    pub fn allocate(&self) -> io::Result<PageId> {
        let id = PageId(self.num_pages.fetch_add(1, Ordering::SeqCst));
        // Materialise the page so the file length stays consistent (staged
        // in memory while a transaction is open).
        self.write_page(id, &Page::new())?;
        Ok(id)
    }

    /// `InvalidData` error wrapping [`BadPageRef`] for a page number at
    /// or beyond the allocated range.
    fn check_allocated(&self, id: PageId) -> io::Result<()> {
        let num_pages = self.num_pages.load(Ordering::SeqCst);
        if id.0 < num_pages {
            return Ok(());
        }
        Err(io::Error::new(
            io::ErrorKind::InvalidData,
            BadPageRef {
                file: self.path.clone(),
                page: id.0,
                num_pages,
            },
        ))
    }

    /// Reads a page, consulting the open transaction's staged pages first
    /// and verifying the CRC footer of anything fetched from disk.
    ///
    /// # Errors
    /// `InvalidData` wrapping [`BadPageRef`] for an unallocated page
    /// number, or wrapping [`StorageCorrupt`] on a CRC mismatch.
    pub fn read_page(&self, id: PageId) -> io::Result<Page> {
        self.check_allocated(id)?;
        {
            let txn = self.txn.lock();
            if let Some(page) = txn.as_ref().and_then(|staged| staged.get(&id.0)) {
                return Ok(page.clone());
            }
        }
        let mut page = Page::new();
        {
            let mut file = self.file.lock();
            file.seek(SeekFrom::Start(id.byte_offset()))?;
            file.read_exact(page.bytes_mut())?;
        }
        self.disk_reads.fetch_add(1, Ordering::Relaxed);
        self.verify_crc(id, &page)?;
        Ok(page)
    }

    fn verify_crc(&self, id: PageId, page: &Page) -> io::Result<()> {
        let stored = page.footer_crc();
        let computed = crc32(page.data_area());
        if stored == computed {
            return Ok(());
        }
        // A fully zeroed page (data and footer) is a page the filesystem
        // materialised but whose content write never happened — recovery
        // rewrites it from the WAL, so reading it is not corruption.
        if stored == 0 && page.bytes().iter().all(|&b| b == 0) {
            return Ok(());
        }
        Err(io::Error::new(
            io::ErrorKind::InvalidData,
            StorageCorrupt {
                file: self.path.clone(),
                page: id.0,
                stored,
                computed,
            },
        ))
    }

    /// Writes a page. While a transaction is open the write is staged in
    /// memory; otherwise it is stamped with its CRC and written through.
    ///
    /// # Errors
    /// `InvalidData` wrapping [`BadPageRef`] for an unallocated page
    /// number.
    pub fn write_page(&self, id: PageId, page: &Page) -> io::Result<()> {
        self.check_allocated(id)?;
        {
            let mut txn = self.txn.lock();
            if let Some(staged) = txn.as_mut() {
                staged.insert(id.0, page.clone());
                return Ok(());
            }
        }
        self.write_page_raw(id, page)
    }

    /// Stamps the CRC footer and writes the page to disk, honouring the
    /// fault-injection hooks.
    fn write_page_raw(&self, id: PageId, page: &Page) -> io::Result<()> {
        let mut frame = page.clone();
        frame.set_footer_crc(crc32(frame.data_area()));
        let frame = frame.bytes();
        let mut file = self.file.lock();
        file.seek(SeekFrom::Start(id.byte_offset()))?;
        match fault::on_write(&self.path, frame) {
            WritePlan::Proceed => file.write_all(frame)?,
            WritePlan::CrashAfterWriting(bytes) => {
                file.write_all(&bytes)?;
                file.flush()?;
                return Err(fault::injected_crash());
            }
            WritePlan::Crash => return Err(fault::injected_crash()),
        }
        self.disk_writes.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Begins a transaction: until [`Pager::txn_commit`], writes and
    /// allocations stay in memory. One transaction at a time.
    ///
    /// # Errors
    /// Fails if a transaction is already open.
    pub fn txn_begin(&self) -> io::Result<()> {
        let mut txn = self.txn.lock();
        if txn.is_some() {
            return Err(io::Error::other("nested pager transaction"));
        }
        *txn = Some(HashMap::new());
        Ok(())
    }

    /// Closes the transaction and hands its staged pages over, in page
    /// order. Nothing has reached the file: the caller makes the images
    /// durable (WAL) and then writes them back with [`Pager::write_page`]
    /// — or, if it cannot, calls [`Pager::txn_abort`].
    ///
    /// # Errors
    /// Fails if no transaction is open.
    pub fn txn_commit(&self) -> io::Result<Vec<(PageId, Page)>> {
        let Some(staged) = self.txn.lock().take() else {
            return Err(io::Error::other("no open pager transaction"));
        };
        let mut pages: Vec<(PageId, Page)> =
            (staged.into_iter().map(|(no, page)| (PageId(no), page))).collect();
        pages.sort_by_key(|(id, _)| id.0);
        Ok(pages)
    }

    /// Rolls a transaction back, before or after [`Pager::txn_commit`]
    /// handed its pages over: drops what is staged and returns the page
    /// count to the file's own length, which no staged write or
    /// allocation ever touched. Callers must also invalidate any caches
    /// above the pager that may have seen staged pages.
    pub fn txn_abort(&self) -> io::Result<()> {
        self.txn.lock().take();
        let len = self.file.lock().metadata()?.len();
        self.num_pages
            .store(len / PAGE_SIZE as u64, Ordering::SeqCst);
        Ok(())
    }

    /// Extends the file to at least `pages` pages (zero-filled). Recovery
    /// redo uses this before rewriting pages that lie beyond the end of a
    /// crash-truncated file; all-zero pages read back as valid.
    pub fn grow_to(&self, pages: u64) -> io::Result<()> {
        let cur = self.num_pages.load(Ordering::SeqCst);
        if pages > cur {
            let len = pages.checked_mul(PAGE_SIZE as u64).ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("page count {pages} overflows the file length"),
                )
            })?;
            self.file.lock().set_len(len)?;
            self.num_pages.store(pages, Ordering::SeqCst);
        }
        Ok(())
    }

    /// Number of allocated pages — the index's storage size in pages
    /// (Table 6 reports `pages · 4 KB`).
    pub fn num_pages(&self) -> u64 {
        self.num_pages.load(Ordering::SeqCst)
    }

    /// Raw disk reads performed so far.
    pub fn disk_reads(&self) -> u64 {
        self.disk_reads.load(Ordering::Relaxed)
    }

    /// Raw disk writes performed so far.
    pub fn disk_writes(&self) -> u64 {
        self.disk_writes.load(Ordering::Relaxed)
    }

    /// fsyncs performed so far.
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs.load(Ordering::Relaxed)
    }

    /// Zeroes the fsync counter (the read/write counters are reset by
    /// the buffer pool's own accounting).
    pub(crate) fn reset_fsyncs(&self) {
        self.fsyncs.store(0, Ordering::Relaxed);
    }

    /// Flushes the OS file buffer.
    pub fn sync(&self) -> io::Result<()> {
        fault::on_sync(&self.path)?;
        self.file.lock().sync_all()?;
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultMode, FaultPlan};
    use crate::tempdir::TempDir;

    #[test]
    fn allocate_write_read_roundtrip() {
        let dir = TempDir::new("pager-roundtrip");
        let pager = Pager::create(&dir.path().join("p.db")).unwrap();
        let a = pager.allocate().unwrap();
        let b = pager.allocate().unwrap();
        assert_eq!((a, b), (PageId(0), PageId(1)));
        assert_eq!(pager.num_pages(), 2);

        let mut p = Page::new();
        p.write_u64(0, 42);
        pager.write_page(b, &p).unwrap();
        assert_eq!(pager.read_page(b).unwrap().read_u64(0), 42);
        assert_eq!(pager.read_page(a).unwrap().read_u64(0), 0);
        assert!(pager.disk_reads() >= 2);
        assert!(pager.disk_writes() >= 3); // two allocs + one write
    }

    #[test]
    fn reopen_preserves_pages() {
        let dir = TempDir::new("pager-reopen");
        let path = dir.path().join("p.db");
        {
            let pager = Pager::create(&path).unwrap();
            let id = pager.allocate().unwrap();
            let mut p = Page::new();
            p.write_slice(10, b"persisted");
            pager.write_page(id, &p).unwrap();
            pager.sync().unwrap();
            assert_eq!(pager.fsyncs(), 1);
        }
        let pager = Pager::open(&path).unwrap();
        assert_eq!(pager.num_pages(), 1);
        assert_eq!(
            pager.read_page(PageId(0)).unwrap().read_slice(10, 9),
            b"persisted"
        );
    }

    #[test]
    fn unallocated_page_access_is_a_typed_error() {
        let dir = TempDir::new("pager-unalloc");
        let pager = Pager::create(&dir.path().join("p.db")).unwrap();
        let err = pager.read_page(PageId(0)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let bad_page_ref = |e: &io::Error| classify(e, |e| e.is::<BadPageRef>());
        assert!(bad_page_ref(&err), "expected BadPageRef, got {err}");
        assert!(!is_corrupt(&err));
        let err = pager.write_page(PageId(3), &Page::new()).unwrap_err();
        assert!(bad_page_ref(&err));
        assert!(err.to_string().contains("unallocated page 3"));
    }

    #[test]
    fn txn_state_misuse_is_a_typed_error() {
        let dir = TempDir::new("pager-txn-misuse");
        let pager = Pager::create(&dir.path().join("p.db")).unwrap();
        assert!(pager.txn_commit().is_err());
        pager.txn_begin().unwrap();
        assert!(pager.txn_begin().is_err(), "nested txn must fail");
        pager.txn_abort().unwrap();
        assert!(pager.txn.lock().is_none());
    }

    #[test]
    fn open_rejects_corrupt_length() {
        let dir = TempDir::new("pager-corrupt");
        let path = dir.path().join("p.db");
        std::fs::write(&path, b"not a page").unwrap();
        assert!(Pager::open(&path).is_err());
    }

    #[test]
    fn bit_flip_is_detected_as_corrupt() {
        let dir = TempDir::new("pager-bitflip");
        let path = dir.path().join("p.db");
        let pager = Pager::create(&path).unwrap();
        let id = pager.allocate().unwrap();
        let mut p = Page::new();
        p.write_slice(0, b"important data");
        pager.write_page(id, &p).unwrap();
        drop(pager);

        // Flip one bit in the data area behind the pager's back.
        let mut raw = std::fs::read(&path).unwrap();
        raw[100] ^= 0x04;
        std::fs::write(&path, &raw).unwrap();

        let pager = Pager::open(&path).unwrap();
        let err = pager.read_page(id).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(is_corrupt(&err), "expected corruption error, got {err}");

        // A damaged footer is equally fatal.
        let mut raw = std::fs::read(&path).unwrap();
        raw[100] ^= 0x04; // restore data
        raw[PAGE_SIZE - 1] ^= 0x80; // break footer
        std::fs::write(&path, &raw).unwrap();
        let pager = Pager::open(&path).unwrap();
        assert!(is_corrupt(&pager.read_page(id).unwrap_err()));
    }

    #[test]
    fn all_zero_pages_read_as_valid() {
        let dir = TempDir::new("pager-zero");
        let path = dir.path().join("p.db");
        {
            let pager = Pager::create(&path).unwrap();
            pager.allocate().unwrap();
        }
        // Simulate a filesystem that extended the file but lost the
        // content write: the page is all zeroes, footer included.
        std::fs::write(&path, vec![0u8; PAGE_SIZE]).unwrap();
        let pager = Pager::open(&path).unwrap();
        assert_eq!(pager.read_page(PageId(0)).unwrap().read_u64(0), 0);
    }

    #[test]
    fn txn_stages_writes_until_commit() {
        let dir = TempDir::new("pager-txn");
        let path = dir.path().join("p.db");
        let pager = Pager::create(&path).unwrap();
        let id = pager.allocate().unwrap();
        pager.sync().unwrap();
        let len_before = std::fs::metadata(&path).unwrap().len();

        pager.txn_begin().unwrap();
        let mut p = Page::new();
        p.write_u64(0, 7);
        pager.write_page(id, &p).unwrap();
        let id2 = pager.allocate().unwrap();
        // Staged pages are visible to reads...
        assert_eq!(pager.read_page(id).unwrap().read_u64(0), 7);
        // ...but nothing reached the file, not even the allocation.
        assert_eq!(std::fs::metadata(&path).unwrap().len(), len_before);

        // Commit hands both pages over, in page order, still unwritten;
        // writing them back is the caller's move once they are durable.
        let staged = pager.txn_commit().unwrap();
        assert!(pager.txn.lock().is_none());
        let ids: Vec<PageId> = staged.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, [id, id2]);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), len_before);
        for (id, page) in &staged {
            pager.write_page(*id, page).unwrap();
        }
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            2 * PAGE_SIZE as u64
        );
        assert_eq!(pager.read_page(id).unwrap().read_u64(0), 7);
        assert_eq!(pager.read_page(id2).unwrap().read_u64(0), 0);
    }

    #[test]
    fn txn_abort_rolls_back_writes_and_allocations() {
        let dir = TempDir::new("pager-abort");
        let pager = Pager::create(&dir.path().join("p.db")).unwrap();
        let id = pager.allocate().unwrap();
        let mut p = Page::new();
        p.write_u64(0, 1);
        pager.write_page(id, &p).unwrap();

        pager.txn_begin().unwrap();
        let mut p2 = Page::new();
        p2.write_u64(0, 2);
        pager.write_page(id, &p2).unwrap();
        pager.allocate().unwrap();
        pager.txn_abort().unwrap();

        assert_eq!(pager.num_pages(), 1);
        assert_eq!(pager.read_page(id).unwrap().read_u64(0), 1);

        // The same after the pages were handed over (a WAL commit that
        // then failed): nothing reached the file, so abort still undoes
        // the allocation.
        pager.txn_begin().unwrap();
        pager.allocate().unwrap();
        assert_eq!(pager.txn_commit().unwrap().len(), 1);
        assert_eq!(pager.num_pages(), 2);
        pager.txn_abort().unwrap();
        assert_eq!(pager.num_pages(), 1);
    }

    #[test]
    fn injected_partial_write_is_caught_by_crc() {
        let _serial = crate::fault::test_lock();
        let dir = TempDir::new("pager-fault");
        let path = dir.path().join("p.db");
        let pager = Pager::create(&path).unwrap();
        let id = pager.allocate().unwrap();
        let mut p = Page::new();
        p.write_slice(0, &[0xaa; 1000]);
        pager.write_page(id, &p).unwrap();

        let guard = FaultPlan {
            scope: dir.path().to_path_buf(),
            fail_after: 0,
            mode: FaultMode::Partial,
            seed: 3,
        }
        .install();
        let mut p2 = Page::new();
        p2.write_slice(0, &[0xbb; 1000]);
        let err = pager.write_page(id, &p2).unwrap_err();
        assert!(crate::fault::is_injected_crash(&err));
        drop(guard);

        // The torn page fails CRC on the next read (or still carries the
        // old image if the tear kept 0 bytes).
        let reopened = Pager::open(&path).unwrap();
        match reopened.read_page(id) {
            Ok(page) => assert_eq!(page.read_slice(0, 1000), &[0xaa; 1000][..]),
            Err(err) => assert!(is_corrupt(&err)),
        }
    }
}
