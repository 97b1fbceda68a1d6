//! Concurrency stress for the lock-rank discipline.
//!
//! Two layers of evidence that the declared order (tree latch ≺
//! buffer-pool LRU ≺ WAL mutex) is both *sufficient* — every legal
//! acquisition chain stays silent under the debug-build runtime
//! assertions — and *enforced* — inverted or equal-rank-exclusive
//! chains panic. The final test drives a real durable tree from many
//! threads at once, so the actual insert/query/join paths execute their
//! full acquisition chains under the checker (in release builds the
//! checker compiles to nothing and the test degrades to a plain
//! thread-safety smoke test).

use spb_core::{similarity_join, SpbConfig, SpbTree};
use spb_metric::{EditDistance, Word};
use spb_storage::lockrank::{LockRank, RankedMutex, RankedRwLock};
use spb_storage::TempDir;

/// One lock per storage-side rank, as the production structs hold them.
struct Locks {
    latch: RankedRwLock<()>,
    other_latch: RankedRwLock<()>,
    pool: RankedMutex<()>,
    wal: RankedMutex<()>,
}

impl Locks {
    fn new() -> Locks {
        Locks {
            latch: RankedRwLock::new(LockRank::TreeLatch, ()),
            other_latch: RankedRwLock::new(LockRank::TreeLatch, ()),
            pool: RankedMutex::new(LockRank::BufferPool, ()),
            wal: RankedMutex::new(LockRank::Wal, ()),
        }
    }
}

/// Every legal chain, hammered from eight threads at once: the
/// rank-stack is thread-local, so cross-thread interleavings must never
/// trip it, only a single thread's own misordering. Each thread owns
/// its locks — the subject is the ordering check, not contention.
#[test]
fn every_legal_acquisition_order_is_silent() {
    std::thread::scope(|s| {
        for _ in 0..8 {
            s.spawn(|| {
                let l = Locks::new();
                for _ in 0..200 {
                    // Full ascending chain (the insert/commit shape).
                    {
                        let _t = l.latch.write();
                        let _b = l.pool.lock();
                        let _w = l.wal.lock();
                    }
                    // Equal-rank shared/shared (the similarity-join
                    // shape: both trees' latches held shared).
                    {
                        let _q = l.latch.read();
                        let _o = l.other_latch.read();
                        let _b = l.pool.lock();
                    }
                    // Every two-rank ascending pair.
                    {
                        let _t = l.latch.read();
                        let _b = l.pool.lock();
                    }
                    {
                        let _t = l.latch.write();
                        let _w = l.wal.lock();
                    }
                    {
                        let _b = l.pool.lock();
                        let _w = l.wal.lock();
                    }
                    // Sequential re-acquisition after release is legal.
                    drop(l.wal.lock());
                    drop(l.latch.write());
                }
            });
        }
    });
}

/// Descending acquisition must panic under the debug checker. (In
/// release builds the checker is compiled out, so no panic is
/// expected — hence `cfg_attr`.)
#[test]
#[cfg_attr(debug_assertions, should_panic(expected = "lock-rank violation"))]
fn inverted_acquisition_panics_in_debug() {
    let l = Locks::new();
    let _w = l.wal.lock();
    let _t = l.latch.write();
}

/// Equal ranks are only legal shared/shared; exclusive nesting at the
/// same rank is deadlock bait and must panic.
#[test]
#[cfg_attr(debug_assertions, should_panic(expected = "lock-rank violation"))]
fn equal_rank_exclusive_nesting_panics_in_debug() {
    let l = Locks::new();
    let _a = l.latch.write();
    let _b = l.other_latch.write();
}

/// Skipping a rank upward is fine, but then dropping *back* below a
/// held rank is not.
#[test]
#[cfg_attr(debug_assertions, should_panic(expected = "lock-rank violation"))]
fn descending_into_the_middle_panics_in_debug() {
    let l = Locks::new();
    let _t = l.latch.write();
    let _w = l.wal.lock();
    let _b = l.pool.lock();
}

fn small_words() -> Vec<Word> {
    let mut out = Vec::new();
    for a in ["ab", "bc", "cd", "de", "ef"] {
        for b in ["x", "yy", "zzz", "w", ""] {
            out.push(Word::new(format!("{a}{b}")));
        }
    }
    out
}

/// Real acquisition chains under real concurrency: readers (range +
/// kNN + join) against a writer (durable inserts through pager
/// transactions and WAL group commit). Debug builds run the whole
/// workload under the rank checker; any ordering bug in the production
/// paths panics here.
#[test]
fn concurrent_tree_traffic_respects_lock_order() {
    let dir = TempDir::new("lockrank-stress");
    let words = small_words();
    // for_join(): the similarity join below requires Z-order
    // monotonicity (Lemma 6).
    let tree = SpbTree::build(
        dir.path(),
        &words,
        EditDistance::default(),
        &SpbConfig::for_join(),
    )
    .unwrap();
    drop(tree); // clean shutdown so the durable reopen starts checkpointed

    let tree = SpbTree::open_with(dir.path(), EditDistance::default(), 64, true).unwrap();
    std::thread::scope(|s| {
        for t in 0..3 {
            let tree = &tree;
            let words = &words;
            s.spawn(move || {
                for (i, q) in words.iter().enumerate() {
                    let (hits, _) = tree.range(q, 1.0 + (t as f64)).unwrap();
                    assert!(!hits.is_empty()); // q itself always matches
                    if i % 5 == 0 {
                        let nn = tree.knn(q, 3).unwrap();
                        assert!(!nn.0.is_empty());
                    }
                }
            });
        }
        // Both sides are the same tree, so the join latches it once: a
        // second shared hold could queue behind the writer below and
        // deadlock. (Two *distinct* trees' latches, both shared, are the
        // one sanctioned equal-rank nesting.)
        {
            let tree = &tree;
            s.spawn(move || {
                let (pairs, _) = similarity_join(tree, tree, 1.0).unwrap();
                assert!(!pairs.is_empty());
            });
        }
        {
            let tree = &tree;
            s.spawn(move || {
                for i in 0..12 {
                    tree.insert(&Word::new(format!("ins{i}q"))).unwrap();
                }
            });
        }
    });

    // Every acknowledged insert is queryable afterwards.
    for i in 0..12 {
        let (hits, _) = tree.range(&Word::new(format!("ins{i}q")), 0.0).unwrap();
        assert_eq!(hits.len(), 1, "insert ins{i}q lost");
    }
}
