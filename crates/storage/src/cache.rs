//! LRU buffer pool and the paper's page-access accounting.
//!
//! The paper measures I/O cost as the number of page accesses (*PA*). Its
//! query experiments put a small LRU cache in front of the index files and
//! flush it before every query, so *PA* counts pages actually fetched
//! (duplicates within one query are absorbed by the cache — Fig. 10 sweeps
//! the cache capacity from 0 to 128 pages). [`BufferPool`] reproduces that
//! protocol: logical reads, physical reads (misses) and writes are counted
//! separately, and [`BufferPool::page_accesses`] = misses + writes is the
//! paper's metric.
//!
//! A pool is one LRU behind one mutex: exactly the paper's cache, with
//! [`BufferPool::set_capacity`] holding exactly the pages asked for.

use std::io;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use crate::lockrank::{LockRank, RankedMutex};
use crate::lru::Lru;
use crate::page::{Page, PageId};
use crate::pager::Pager;

/// A snapshot of I/O counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Page reads requested by the index code.
    pub logical_reads: u64,
    /// Reads that missed the cache and touched the pager.
    pub physical_reads: u64,
    /// Page writes (write-through: every write touches the pager).
    pub writes: u64,
    /// fsyncs of the underlying file (durability cost; not part of *PA*).
    pub fsyncs: u64,
}

impl IoStats {
    /// The paper's *PA*: physical reads plus writes. fsyncs are reported
    /// separately — the paper's metric predates the durability layer.
    pub fn page_accesses(&self) -> u64 {
        self.physical_reads + self.writes
    }
}

/// The `phase.buffer_io` histogram: time spent in the pager on cache
/// misses and write-throughs (nanoseconds). Process-global, shared by
/// every pool.
fn buffer_io_hist() -> &'static Arc<spb_obs::Histogram> {
    static H: OnceLock<Arc<spb_obs::Histogram>> = OnceLock::new();
    H.get_or_init(|| spb_obs::histogram("phase.buffer_io"))
}

/// A write-through LRU buffer pool over a [`Pager`].
///
/// The `AtomicU64`s are the paper's exact *PA* accounting and stay per
/// pool (resettable between queries). The `obs_*` counters mirror hits,
/// misses and evictions into the process-global registry as
/// `pool.hits`, `pool.misses` and `pool.evictions`, shared by every pool.
pub struct BufferPool {
    pager: Pager,
    lru: RankedMutex<Lru<Arc<Page>>>,
    /// Capacity in pages (Fig. 10's parameter).
    capacity: AtomicUsize,
    logical_reads: AtomicU64,
    physical_reads: AtomicU64,
    writes: AtomicU64,
    obs_hits: Arc<spb_obs::Counter>,
    obs_misses: Arc<spb_obs::Counter>,
    obs_evictions: Arc<spb_obs::Counter>,
}

impl BufferPool {
    /// Wraps `pager` with a cache of `capacity` pages (0 disables caching).
    pub fn new(pager: Pager, capacity: usize) -> Self {
        BufferPool {
            pager,
            lru: RankedMutex::new(LockRank::BufferPool, Lru::new(capacity)),
            capacity: AtomicUsize::new(capacity),
            logical_reads: AtomicU64::new(0),
            physical_reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            obs_hits: spb_obs::counter("pool.hits"),
            obs_misses: spb_obs::counter("pool.misses"),
            obs_evictions: spb_obs::counter("pool.evictions"),
        }
    }

    /// Allocates a fresh page. Allocation writes the zeroed page and is
    /// counted as a write (construction cost includes it, as in Table 6).
    pub fn allocate(&self) -> io::Result<PageId> {
        let id = self.pager.allocate()?;
        self.writes.fetch_add(1, Ordering::Relaxed);
        Ok(id)
    }

    /// Reads a page, serving repeats from the cache.
    pub fn read(&self, id: PageId) -> io::Result<Arc<Page>> {
        self.logical_reads.fetch_add(1, Ordering::Relaxed);
        if let Some(page) = self.lru.lock().get(id).cloned() {
            self.obs_hits.incr();
            return Ok(page);
        }
        let io_start = spb_obs::clock::now();
        let page = Arc::new(self.pager.read_page(id)?);
        buffer_io_hist().record(spb_obs::clock::nanos_since(io_start));
        let mut lru = self.lru.lock();
        // Double-check: a racing reader (or a write-through) may have
        // cached the page while we were at the pager. Serving the cached
        // copy keeps PA accounting deterministic under concurrency and
        // never clobbers a fresher write-through copy with our
        // possibly-stale read.
        if let Some(cached) = lru.get(id).cloned() {
            self.obs_hits.incr();
            return Ok(cached);
        }
        self.physical_reads.fetch_add(1, Ordering::Relaxed);
        self.obs_misses.incr();
        let evicted = lru.insert(id, Arc::clone(&page));
        drop(lru);
        if evicted > 0 {
            self.obs_evictions.add(evicted);
        }
        Ok(page)
    }

    /// Writes a page through to disk and refreshes the cached copy.
    pub fn write(&self, id: PageId, page: Page) -> io::Result<()> {
        let io_start = spb_obs::clock::now();
        self.pager.write_page(id, &page)?;
        buffer_io_hist().record(spb_obs::clock::nanos_since(io_start));
        self.writes.fetch_add(1, Ordering::Relaxed);
        let evicted = self.lru.lock().insert(id, Arc::new(page));
        if evicted > 0 {
            self.obs_evictions.add(evicted);
        }
        Ok(())
    }

    /// Drops every cached page. The paper flushes the cache before each of
    /// its 500 workload queries so measurements are cold.
    pub fn flush_cache(&self) {
        self.lru.lock().clear();
    }

    /// Changes the cache capacity (Fig. 10's parameter), evicting in LRU
    /// order as needed.
    pub fn set_capacity(&self, capacity: usize) {
        self.capacity.store(capacity, Ordering::Relaxed);
        let evicted = self.lru.lock().resize(capacity);
        self.obs_evictions.add(evicted);
    }

    /// Current cache capacity in pages.
    pub fn capacity(&self) -> usize {
        self.capacity.load(Ordering::Relaxed)
    }

    /// Snapshot of the I/O counters.
    pub fn stats(&self) -> IoStats {
        IoStats {
            logical_reads: self.logical_reads.load(Ordering::Relaxed),
            physical_reads: self.physical_reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            fsyncs: self.pager.fsyncs(),
        }
    }

    /// Zeroes the I/O counters (between construction and queries, and
    /// between individual queries).
    pub fn reset_stats(&self) {
        self.logical_reads.store(0, Ordering::Relaxed);
        self.physical_reads.store(0, Ordering::Relaxed);
        self.writes.store(0, Ordering::Relaxed);
        self.pager.reset_fsyncs();
    }

    /// Flushes the OS file buffer of the underlying pager.
    pub fn sync(&self) -> io::Result<()> {
        self.pager.sync()
    }

    /// The paper's *PA* since the last reset.
    pub fn page_accesses(&self) -> u64 {
        self.stats().page_accesses()
    }

    /// Number of allocated pages (storage size).
    pub fn num_pages(&self) -> u64 {
        self.pager.num_pages()
    }

    /// The underlying pager.
    pub fn pager(&self) -> &Pager {
        &self.pager
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tempdir::TempDir;

    fn pool(capacity: usize) -> (TempDir, BufferPool) {
        let dir = TempDir::new("pool");
        let pager = Pager::create(&dir.path().join("p.db")).unwrap();
        (dir, BufferPool::new(pager, capacity))
    }

    #[test]
    fn cache_absorbs_repeated_reads() {
        let (_d, pool) = pool(4);
        let id = pool.allocate().unwrap();
        pool.reset_stats();
        for _ in 0..10 {
            pool.read(id).unwrap();
        }
        let s = pool.stats();
        assert_eq!(s.logical_reads, 10);
        assert_eq!(s.physical_reads, 1);
        assert_eq!(s.page_accesses(), 1);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let (_d, pool) = pool(0);
        let id = pool.allocate().unwrap();
        pool.reset_stats();
        for _ in 0..5 {
            pool.read(id).unwrap();
        }
        assert_eq!(pool.stats().physical_reads, 5);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let (_d, pool) = pool(2);
        let ids: Vec<PageId> = (0..3).map(|_| pool.allocate().unwrap()).collect();
        pool.flush_cache();
        pool.reset_stats();
        pool.read(ids[0]).unwrap(); // miss, cache {0}
        pool.read(ids[1]).unwrap(); // miss, cache {0,1}
        pool.read(ids[0]).unwrap(); // hit, 0 most recent
        pool.read(ids[2]).unwrap(); // miss, evicts 1
        pool.read(ids[0]).unwrap(); // hit
        pool.read(ids[1]).unwrap(); // miss again
        assert_eq!(pool.stats().physical_reads, 4);
    }

    #[test]
    fn writes_are_write_through_and_visible() {
        let (_d, pool) = pool(4);
        let id = pool.allocate().unwrap();
        let mut p = Page::new();
        p.write_u32(0, 7);
        pool.write(id, p).unwrap();
        assert_eq!(pool.read(id).unwrap().read_u32(0), 7);
        // On disk too, not just in cache:
        assert_eq!(pool.pager().read_page(id).unwrap().read_u32(0), 7);
    }

    #[test]
    fn flush_cache_forces_refetch() {
        let (_d, pool) = pool(4);
        let id = pool.allocate().unwrap();
        pool.reset_stats();
        pool.read(id).unwrap();
        pool.flush_cache();
        pool.read(id).unwrap();
        assert_eq!(pool.stats().physical_reads, 2);
    }

    #[test]
    fn shrinking_capacity_evicts() {
        let (_d, pool) = pool(8);
        let ids: Vec<PageId> = (0..6).map(|_| pool.allocate().unwrap()).collect();
        for &id in &ids {
            pool.read(id).unwrap();
        }
        pool.set_capacity(2);
        assert_eq!(pool.capacity(), 2);
        pool.reset_stats();
        // At most 2 of the 6 can still be cached.
        for &id in &ids {
            pool.read(id).unwrap();
        }
        assert!(pool.stats().physical_reads >= 4);
    }

    #[test]
    fn large_cache_eviction_is_cheap() {
        // O(1) eviction: a pass twice the capacity over a big pool stays
        // comfortably fast.
        let (_d, pool) = pool(4096);
        let ids: Vec<PageId> = (0..8192).map(|_| pool.allocate().unwrap()).collect();
        pool.reset_stats();
        for &id in &ids {
            pool.read(id).unwrap();
        }
        assert_eq!(pool.stats().physical_reads, 8192);
    }
}
