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
//! ## Sharding
//!
//! A pool can be lock-striped into N independent LRU segments
//! ([`BufferPool::new_sharded`]): a page's shard is `PageId mod N`, so
//! parallel readers of different pages never contend on one mutex. Each
//! shard keeps its own counters; [`BufferPool::stats`] sums them, keeping
//! the paper's PA accounting exact. The default ([`BufferPool::new`]) is a
//! single shard, which is byte-for-byte the paper's global LRU.

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

/// One lock stripe of the pool: an LRU segment plus its own counters.
///
/// The per-shard `AtomicU64`s are the paper's exact *PA* accounting and
/// stay per-pool (resettable between queries). The `obs_*` counters
/// mirror hits/misses/evictions into the process-global registry under
/// `pool.shard{N}.*` — every pool sharing a shard index shares the
/// named counter, so the registry reports process-wide totals.
struct Shard {
    inner: RankedMutex<Lru<Arc<Page>>>,
    logical_reads: AtomicU64,
    physical_reads: AtomicU64,
    writes: AtomicU64,
    obs_hits: Arc<spb_obs::Counter>,
    obs_misses: Arc<spb_obs::Counter>,
    obs_evictions: Arc<spb_obs::Counter>,
}

impl Shard {
    fn new(capacity: usize, idx: usize) -> Self {
        Shard {
            inner: RankedMutex::new(LockRank::BufferShard, Lru::new(capacity)),
            logical_reads: AtomicU64::new(0),
            physical_reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            obs_hits: spb_obs::counter(&format!("pool.shard{idx}.hits")),
            obs_misses: spb_obs::counter(&format!("pool.shard{idx}.misses")),
            obs_evictions: spb_obs::counter(&format!("pool.shard{idx}.evictions")),
        }
    }

    fn stats(&self) -> IoStats {
        IoStats {
            logical_reads: self.logical_reads.load(Ordering::Relaxed),
            physical_reads: self.physical_reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            fsyncs: 0,
        }
    }
}

/// A write-through LRU buffer pool over a [`Pager`], optionally
/// lock-striped into several independent shards.
pub struct BufferPool {
    pager: Pager,
    shards: Vec<Shard>,
    /// Total requested capacity across all shards (Fig. 10's parameter).
    capacity: AtomicUsize,
}

impl BufferPool {
    /// Wraps `pager` with a cache of `capacity` pages (0 disables caching).
    /// Single shard: exactly the paper's global LRU.
    pub fn new(pager: Pager, capacity: usize) -> Self {
        Self::new_sharded(pager, capacity, 1)
    }

    /// Wraps `pager` with a cache of `capacity` pages split over `shards`
    /// lock stripes (clamped to at least 1). Page `p` lives in shard
    /// `p mod shards`; each shard holds `⌈capacity / shards⌉` pages.
    pub fn new_sharded(pager: Pager, capacity: usize, shards: usize) -> Self {
        let n = shards.max(1);
        let per_shard = Self::shard_capacity(capacity, n);
        BufferPool {
            pager,
            shards: (0..n).map(|i| Shard::new(per_shard, i)).collect(),
            capacity: AtomicUsize::new(capacity),
        }
    }

    fn shard_capacity(total: usize, shards: usize) -> usize {
        if total == 0 {
            0
        } else {
            total.div_ceil(shards)
        }
    }

    fn shard_of(&self, id: PageId) -> &Shard {
        &self.shards[id.0 as usize % self.shards.len()]
    }

    /// Number of lock stripes.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Counter snapshot of one shard (pager fsyncs are pool-global and
    /// reported as 0 here; they appear in [`BufferPool::stats`]).
    pub fn shard_stats(&self, shard: usize) -> IoStats {
        self.shards[shard].stats()
    }

    /// Allocates a fresh page. Allocation writes the zeroed page and is
    /// counted as a write (construction cost includes it, as in Table 6).
    pub fn allocate(&self) -> io::Result<PageId> {
        let id = self.pager.allocate()?;
        self.shard_of(id).writes.fetch_add(1, Ordering::Relaxed);
        Ok(id)
    }

    /// Reads a page, serving repeats from the cache.
    pub fn read(&self, id: PageId) -> io::Result<Arc<Page>> {
        let shard = self.shard_of(id);
        shard.logical_reads.fetch_add(1, Ordering::Relaxed);
        {
            let mut inner = shard.inner.lock();
            if let Some(page) = inner.get(id).cloned() {
                shard.obs_hits.incr();
                return Ok(page);
            }
        }
        let io_start = spb_obs::clock::now();
        let page = Arc::new(self.pager.read_page(id)?);
        buffer_io_hist().record(spb_obs::clock::nanos_since(io_start));
        let mut inner = shard.inner.lock();
        // Double-check: a racing reader (or a write-through) may have
        // cached the page while we were at the pager. Serving the cached
        // copy keeps PA accounting deterministic under striping and never
        // clobbers a fresher write-through copy with our possibly-stale
        // read.
        if let Some(cached) = inner.get(id).cloned() {
            shard.obs_hits.incr();
            return Ok(cached);
        }
        shard.physical_reads.fetch_add(1, Ordering::Relaxed);
        shard.obs_misses.incr();
        let evicted = inner.insert(id, Arc::clone(&page));
        drop(inner);
        if evicted > 0 {
            shard.obs_evictions.add(evicted);
        }
        Ok(page)
    }

    /// Writes a page through to disk and refreshes the cached copy.
    pub fn write(&self, id: PageId, page: Page) -> io::Result<()> {
        let io_start = spb_obs::clock::now();
        self.pager.write_page(id, &page)?;
        buffer_io_hist().record(spb_obs::clock::nanos_since(io_start));
        let shard = self.shard_of(id);
        shard.writes.fetch_add(1, Ordering::Relaxed);
        let evicted = shard.inner.lock().insert(id, Arc::new(page));
        if evicted > 0 {
            shard.obs_evictions.add(evicted);
        }
        Ok(())
    }

    /// Drops every cached page. The paper flushes the cache before each of
    /// its 500 workload queries so measurements are cold.
    pub fn flush_cache(&self) {
        for shard in &self.shards {
            shard.inner.lock().clear();
        }
    }

    /// Changes the cache capacity (Fig. 10's parameter), evicting as needed.
    pub fn set_capacity(&self, capacity: usize) {
        self.capacity.store(capacity, Ordering::Relaxed);
        let per_shard = Self::shard_capacity(capacity, self.shards.len());
        for shard in &self.shards {
            let evicted = shard.inner.lock().resize(per_shard);
            if evicted > 0 {
                shard.obs_evictions.add(evicted);
            }
        }
    }

    /// Current total cache capacity in pages.
    pub fn capacity(&self) -> usize {
        self.capacity.load(Ordering::Relaxed)
    }

    /// Snapshot of the I/O counters, summed over all shards.
    pub fn stats(&self) -> IoStats {
        let mut total = IoStats {
            fsyncs: self.pager.fsyncs(),
            ..IoStats::default()
        };
        for shard in &self.shards {
            let s = shard.stats();
            total.logical_reads += s.logical_reads;
            total.physical_reads += s.physical_reads;
            total.writes += s.writes;
        }
        total
    }

    /// Zeroes the I/O counters (between construction and queries, and
    /// between individual queries).
    pub fn reset_stats(&self) {
        for shard in &self.shards {
            shard.logical_reads.store(0, Ordering::Relaxed);
            shard.physical_reads.store(0, Ordering::Relaxed);
            shard.writes.store(0, Ordering::Relaxed);
        }
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

    fn pool_sharded(capacity: usize, shards: usize) -> (TempDir, BufferPool) {
        let dir = TempDir::new("pool-sharded");
        let pager = Pager::create(&dir.path().join("p.db")).unwrap();
        (dir, BufferPool::new_sharded(pager, capacity, shards))
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

    #[test]
    fn sharded_pool_sums_counters_exactly() {
        let (_d, pool) = pool_sharded(16, 4);
        assert_eq!(pool.shard_count(), 4);
        let ids: Vec<PageId> = (0..12).map(|_| pool.allocate().unwrap()).collect();
        pool.flush_cache();
        pool.reset_stats();
        for &id in &ids {
            pool.read(id).unwrap(); // 12 misses
        }
        for &id in &ids {
            pool.read(id).unwrap(); // 12 hits (capacity 16 holds them all)
        }
        let total = pool.stats();
        assert_eq!(total.logical_reads, 24);
        assert_eq!(total.physical_reads, 12);
        let mut sum = IoStats::default();
        for s in 0..pool.shard_count() {
            let st = pool.shard_stats(s);
            sum.logical_reads += st.logical_reads;
            sum.physical_reads += st.physical_reads;
            sum.writes += st.writes;
        }
        assert_eq!(sum.logical_reads, total.logical_reads);
        assert_eq!(sum.physical_reads, total.physical_reads);
        assert_eq!(sum.page_accesses(), total.page_accesses());
    }

    #[test]
    fn sharded_pool_spreads_pages_across_stripes() {
        let (_d, pool) = pool_sharded(64, 4);
        let ids: Vec<PageId> = (0..16).map(|_| pool.allocate().unwrap()).collect();
        pool.flush_cache();
        pool.reset_stats();
        for &id in &ids {
            pool.read(id).unwrap();
        }
        // Sequential page ids land round-robin on the 4 shards.
        for s in 0..4 {
            assert_eq!(pool.shard_stats(s).physical_reads, 4, "shard {s}");
        }
    }

    #[test]
    fn sharded_flush_and_capacity_apply_to_all_stripes() {
        let (_d, pool) = pool_sharded(8, 2);
        let ids: Vec<PageId> = (0..8).map(|_| pool.allocate().unwrap()).collect();
        for &id in &ids {
            pool.read(id).unwrap();
        }
        pool.flush_cache();
        pool.reset_stats();
        for &id in &ids {
            pool.read(id).unwrap();
        }
        assert_eq!(pool.stats().physical_reads, 8, "flush emptied every shard");
        pool.set_capacity(0);
        pool.reset_stats();
        pool.read(ids[0]).unwrap();
        pool.read(ids[0]).unwrap();
        assert_eq!(
            pool.stats().physical_reads,
            2,
            "capacity 0 disables caching"
        );
    }
}
