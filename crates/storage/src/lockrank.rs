//! Ranked locks: the workspace's one lock-ordering mechanism.
//!
//! Every ordered lock is a [`RankedMutex`] or [`RankedRwLock`] whose
//! [`LockRank`] is fixed at construction, and a thread must acquire
//! them in ascending rank order:
//!
//! | Rank | Lock | Declared in |
//! |---|---|---|
//! | 1 | Connection state (output buffer, barrier queue) | `spb-server` (`Conn::state`) |
//! | 2 | Dispatcher work queue | `spb-server` (`DispatchQueue`) |
//! | 3 | Cluster router connection-pool mutex | `spb-cluster` (`Router`) |
//! | 5 | Replica state lock (serving-tree swap) | `spb-cluster` (`Replica`) |
//! | 10 | SPB-tree structure latch | `spb-core` (`SpbTree::latch`) |
//! | 15 | RAF staged tail page | `spb-storage` (`Raf::staged`) |
//! | 20 | Buffer-pool LRU mutex | `spb-storage` (`BufferPool::lru`) |
//! | 30 | WAL mutexes (`pending`, `file`) | `spb-storage` (`Wal`) |
//! | 40 | B⁺-tree meta (root, height, length) | `spb-bptree` (`BPlusTree::meta`) |
//! | 41 | Learned-positioning model slot | `spb-core` (`SpbTree::accel`) |
//! | 42 | Baseline index root / radii mutex | `spb-mams` (M-tree, R-tree, M-Index) |
//! | 50 | Pager transaction staging | `spb-storage` (`Pager::txn`) |
//! | 51 | Pager file handle | `spb-storage` (`Pager::file`) |
//!
//! A query takes the tree latch (shared), then reads pages through
//! buffer pools; an update takes the latch exclusively, stages pages
//! through the pools, and commits through the WAL. Acquiring against
//! that order — e.g. taking the tree latch while holding a pool — is a
//! deadlock waiting for the right interleaving. The cluster ranks sit
//! *below* the tree latch: a replica swaps its serving tree (and a
//! router leases a connection) before any tree latch is taken, and a
//! thread inside a tree must never reach back up into cluster state.
//! The RAF holds its staged tail while it seals that page through the
//! pool, so it sits above the latch and below the pool. The ranks
//! from 40 up are leaves: nothing is acquired while one is held. A
//! baseline index copies its root (or radii) out and releases the
//! mutex before it reads a page, so that rank is a leaf too. The
//! pager's two sit last because every page read or write, from any
//! layer, ends in them. The server's connection state sits lowest: a
//! dispatcher worker holds it while it pushes newly eligible work onto
//! the dispatcher queue.
//!
//! The inner `std::sync` lock is a private field, so there is no way
//! to take a ranked lock without going through the rank check. This
//! compiles:
//!
//! ```
//! use spb_storage::lockrank::{LockRank, RankedMutex};
//! let m = RankedMutex::new(LockRank::Wal, 0u32);
//! *m.lock() += 1;
//! ```
//!
//! and the raw acquisition does not:
//!
//! ```compile_fail,E0616
//! use spb_storage::lockrank::{LockRank, RankedMutex};
//! let m = RankedMutex::new(LockRank::Wal, 0u32);
//! *m.inner.lock().unwrap() += 1; // field `inner` is private
//! ```
//!
//! In debug builds every acquisition registers itself on a thread-local
//! stack *before* blocking and panics the moment a thread acquires a
//! lock whose rank is not strictly above everything it already holds,
//! so a violation fails the test that executes it instead of
//! deadlocking. Two *shared* holds of equal rank are legal (the
//! similarity join holds the tree latches of both joined trees, both
//! shared). In release builds the check compiles to nothing and an
//! acquisition is exactly one `std::sync` lock call. Poisoning is
//! tolerated everywhere (`PoisonError::into_inner`): one panicked query
//! in a long-lived server must not wedge every later request.

use std::ops::{Deref, DerefMut};
use std::sync::{
    Condvar, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
};
use std::time::Duration;

/// The declared rank of every ordered lock in the workspace. Bigger rank
/// = acquired later. See the module docs for the table.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum LockRank {
    /// One connection's state: its output buffer, response order and
    /// barrier queue (`spb-server`). Lowest rank — a worker holds it
    /// while it pushes released work onto the dispatcher queue.
    Connection = 1,
    /// The dispatcher's work queue between the connections and the
    /// workers (`spb-server`).
    DispatchQueue = 2,
    /// A cluster router's per-node connection-pool mutex
    /// (`spb-cluster`).
    RouterConn = 3,
    /// A read replica's serving-state lock, swapped on WAL apply
    /// (`spb-cluster`).
    ReplicaApply = 5,
    /// The SPB-tree structure latch (`spb-core`).
    TreeLatch = 10,
    /// The RAF's staged tail page, held while it is sealed through the
    /// buffer pool.
    RafTail = 15,
    /// A buffer pool's LRU mutex.
    BufferPool = 20,
    /// The write-ahead log's internal mutexes.
    Wal = 30,
    /// A B⁺-tree's in-memory meta (`spb-bptree`). Leaf.
    BtreeMeta = 40,
    /// The SPB-tree's learned-positioning model slot (`spb-core`). Leaf.
    AccelModel = 41,
    /// A baseline index's root or pivot-radii mutex (`spb-mams`),
    /// copied out before any page is read. Leaf.
    BaselineRoot = 42,
    /// The pager's open-transaction staging map. Leaf.
    PagerTxn = 50,
    /// The pager's file handle. Leaf.
    PagerFile = 51,
}

impl LockRank {
    /// Every rank, ascending.
    pub const ALL: [LockRank; 13] = [
        LockRank::Connection,
        LockRank::DispatchQueue,
        LockRank::RouterConn,
        LockRank::ReplicaApply,
        LockRank::TreeLatch,
        LockRank::RafTail,
        LockRank::BufferPool,
        LockRank::Wal,
        LockRank::BtreeMeta,
        LockRank::AccelModel,
        LockRank::BaselineRoot,
        LockRank::PagerTxn,
        LockRank::PagerFile,
    ];

    /// Human-readable name used in violation messages.
    pub fn name(self) -> &'static str {
        match self {
            LockRank::Connection => "connection state",
            LockRank::DispatchQueue => "dispatcher work queue",
            LockRank::RouterConn => "router connection pool",
            LockRank::ReplicaApply => "replica state lock",
            LockRank::TreeLatch => "tree latch",
            LockRank::BaselineRoot => "baseline index root",
            LockRank::RafTail => "RAF staged tail",
            LockRank::BufferPool => "buffer pool",
            LockRank::Wal => "WAL mutex",
            LockRank::BtreeMeta => "B+-tree meta",
            LockRank::AccelModel => "accel model slot",
            LockRank::PagerTxn => "pager transaction",
            LockRank::PagerFile => "pager file",
        }
    }
}

#[cfg(debug_assertions)]
mod imp {
    use super::LockRank;
    use std::cell::RefCell;
    use std::sync::atomic::{AtomicU64, Ordering};

    thread_local! {
        /// Ranks this thread currently holds, in acquisition order.
        static HELD: RefCell<Vec<(LockRank, bool)>> = const { RefCell::new(Vec::new()) };
    }

    /// Acquisitions checked so far, indexed by `rank as usize`.
    static CHECKED: [AtomicU64; 52] = [ZERO; 52];
    #[allow(clippy::declare_interior_mutable_const)] // array initialiser only
    const ZERO: AtomicU64 = AtomicU64::new(0);

    pub(super) fn check_and_push(rank: LockRank, shared: bool) {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            for &(h, h_shared) in held.iter() {
                let legal = h < rank || (h == rank && shared && h_shared);
                assert!(
                    legal,
                    "lock-rank violation: acquiring {} (rank {}) while holding {} (rank {}); \
                     ranked locks must be acquired in ascending order",
                    rank.name(),
                    rank as u8,
                    h.name(),
                    h as u8,
                );
            }
            held.push((rank, shared));
        });
        CHECKED[rank as usize].fetch_add(1, Ordering::Relaxed);
    }

    pub(super) fn pop(rank: LockRank, shared: bool) {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(i) = held.iter().rposition(|&e| e == (rank, shared)) {
                held.remove(i);
            }
        });
    }

    pub(super) fn checked(rank: LockRank) -> u64 {
        CHECKED[rank as usize].load(Ordering::Relaxed)
    }
}

/// How many acquisitions of `rank` have gone through the ordering check
/// in this process. Debug builds only (the check does not exist in
/// release); tests use it to prove a lock is under the one mechanism.
#[cfg(debug_assertions)]
pub fn checked_acquisitions(rank: LockRank) -> u64 {
    imp::checked(rank)
}

/// One registered acquisition on the thread's rank stack. Dropping it
/// deregisters. Zero-sized and inert in release builds.
#[derive(Debug)]
struct HeldRank {
    #[cfg(debug_assertions)]
    rank: LockRank,
    #[cfg(debug_assertions)]
    shared: bool,
}

impl HeldRank {
    /// Panics (debug builds) unless `rank` is above every rank the
    /// thread holds, or equal to one with both holds shared.
    fn new(rank: LockRank, shared: bool) -> Self {
        #[cfg(debug_assertions)]
        {
            imp::check_and_push(rank, shared);
            HeldRank { rank, shared }
        }
        #[cfg(not(debug_assertions))]
        {
            let _ = (rank, shared);
            HeldRank {}
        }
    }
}

#[cfg(debug_assertions)]
impl Drop for HeldRank {
    fn drop(&mut self) {
        imp::pop(self.rank, self.shared);
    }
}

/// A lock guard tied to its rank registration. Fields drop in order, so
/// the lock releases before the rank pops.
#[derive(Debug)]
pub struct RankedGuard<G> {
    guard: G,
    held: HeldRank,
}

impl<G: Deref> Deref for RankedGuard<G> {
    type Target = G::Target;

    fn deref(&self) -> &G::Target {
        &self.guard
    }
}

impl<G: DerefMut> DerefMut for RankedGuard<G> {
    fn deref_mut(&mut self) -> &mut G::Target {
        &mut self.guard
    }
}

/// Guard of a [`RankedMutex`].
pub(crate) type RankedMutexGuard<'a, T> = RankedGuard<MutexGuard<'a, T>>;
/// Shared guard of a [`RankedRwLock`].
pub type RankedReadGuard<'a, T> = RankedGuard<RwLockReadGuard<'a, T>>;
/// Exclusive guard of a [`RankedRwLock`].
pub type RankedWriteGuard<'a, T> = RankedGuard<RwLockWriteGuard<'a, T>>;

impl<T> RankedGuard<MutexGuard<'_, T>> {
    /// Waits on `cv`, releasing and re-acquiring the mutex like
    /// [`Condvar::wait`]; the rank registration is kept across the wait
    /// (see [`wait_timeout`](Self::wait_timeout)).
    pub fn wait(self, cv: &Condvar) -> Self {
        let RankedGuard { guard, held } = self;
        let guard = cv.wait(guard).unwrap_or_else(PoisonError::into_inner);
        RankedGuard { guard, held }
    }

    /// Waits on `cv` with a timeout, releasing and re-acquiring the
    /// mutex like [`Condvar::wait_timeout`]. The rank registration is
    /// kept across the wait: the thread re-holds the same lock on wake,
    /// and it acquires nothing else while parked.
    pub fn wait_timeout(self, cv: &Condvar, dur: Duration) -> Self {
        let RankedGuard { guard, held } = self;
        let (guard, _timeout) = cv
            .wait_timeout(guard, dur)
            .unwrap_or_else(PoisonError::into_inner);
        RankedGuard { guard, held }
    }
}

/// A mutex with a fixed [`LockRank`]; [`RankedMutex::lock`] is its only
/// acquisition path.
#[derive(Debug)]
pub struct RankedMutex<T> {
    rank: LockRank,
    inner: Mutex<T>,
}

impl<T> RankedMutex<T> {
    /// A mutex at `rank` holding `value`.
    pub const fn new(rank: LockRank, value: T) -> Self {
        RankedMutex {
            rank,
            inner: Mutex::new(value),
        }
    }

    /// Locks at this mutex's rank: the rank check runs *before*
    /// blocking, so an ordering violation panics instead of deadlocking.
    pub fn lock(&self) -> RankedMutexGuard<'_, T> {
        let held = HeldRank::new(self.rank, false);
        RankedGuard {
            guard: self.inner.lock().unwrap_or_else(PoisonError::into_inner),
            held,
        }
    }
}

/// A reader-writer lock with a fixed [`LockRank`]; reads are shared
/// holds, writes exclusive.
#[derive(Debug)]
pub struct RankedRwLock<T> {
    rank: LockRank,
    inner: RwLock<T>,
}

impl<T> RankedRwLock<T> {
    /// A reader-writer lock at `rank` holding `value`.
    pub const fn new(rank: LockRank, value: T) -> Self {
        RankedRwLock {
            rank,
            inner: RwLock::new(value),
        }
    }

    /// Read-locks as a shared hold (rank check before blocking).
    pub fn read(&self) -> RankedReadGuard<'_, T> {
        let held = HeldRank::new(self.rank, true);
        RankedGuard {
            guard: self.inner.read().unwrap_or_else(PoisonError::into_inner),
            held,
        }
    }

    /// Write-locks as an exclusive hold (rank check before blocking).
    pub fn write(&self) -> RankedWriteGuard<'_, T> {
        let held = HeldRank::new(self.rank, false);
        RankedGuard {
            guard: self.inner.write().unwrap_or_else(PoisonError::into_inner),
            held,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Rank-stack state is thread-local; each test spawns its own thread
    // so tests cannot contaminate each other through a pooled runner.
    fn on_fresh_thread(f: impl FnOnce() + Send + 'static) {
        std::thread::spawn(f).join().unwrap();
    }

    #[test]
    fn ascending_order_and_reacquisition_are_silent() {
        on_fresh_thread(|| {
            let latch = RankedRwLock::new(LockRank::TreeLatch, ());
            let pool = RankedMutex::new(LockRank::BufferPool, ());
            let wal = RankedMutex::new(LockRank::Wal, ());
            {
                let _a = latch.read();
                let _b = pool.lock();
                let _c = wal.lock();
            }
            drop(wal.lock());
            drop(latch.write());
            drop(pool.lock());
        });
    }

    #[test]
    fn equal_shared_ranks_are_legal() {
        on_fresh_thread(|| {
            let q = RankedRwLock::new(LockRank::TreeLatch, ());
            let o = RankedRwLock::new(LockRank::TreeLatch, ());
            let a = q.read();
            let b = o.read();
            drop(a);
            drop(b);
        });
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "lock-rank violation"))]
    fn descending_order_fires() {
        let wal = RankedMutex::new(LockRank::Wal, ());
        let pool = RankedMutex::new(LockRank::BufferPool, ());
        let _wal = wal.lock();
        let _pool = pool.lock();
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "lock-rank violation"))]
    fn equal_exclusive_ranks_fire() {
        let a = RankedMutex::new(LockRank::BufferPool, ());
        let b = RankedMutex::new(LockRank::BufferPool, ());
        let _a = a.lock();
        let _b = b.lock();
    }

    #[test]
    fn guards_deref_and_survive_a_poisoning_holder() {
        let m = std::sync::Arc::new(RankedMutex::new(LockRank::Wal, 7));
        let m2 = std::sync::Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison attempt");
        })
        .join();
        *m.lock() += 1;
        assert_eq!(*m.lock(), 8);
    }

    #[test]
    fn wait_timeout_keeps_the_guard_usable() {
        on_fresh_thread(|| {
            let m = RankedMutex::new(LockRank::DispatchQueue, 0u32);
            let cv = Condvar::new();
            let mut g = m.lock().wait_timeout(&cv, Duration::from_millis(1));
            *g = 5;
            drop(g);
            assert_eq!(*m.lock(), 5);
        });
    }
}
