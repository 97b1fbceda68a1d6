//! How many times one join takes the tree latch.
//!
//! `std::sync::RwLock` is not reentrant and queues new readers behind a
//! waiting writer, so a self-join that latched its one tree twice would
//! deadlock with an `insert` arriving between the two acquisitions. The
//! rank checker counts acquisitions per rank for the whole process, which
//! is why this file holds a single test: nothing else may latch a tree
//! while it counts. Debug builds only — the checker does not exist in
//! release.

#![cfg(debug_assertions)]

use spb_core::{similarity_join, similarity_join_parallel, SpbConfig, SpbTree};
use spb_metric::{dataset, EditDistance};
use spb_storage::lockrank::{checked_acquisitions, LockRank};
use spb_storage::TempDir;

#[test]
fn a_self_join_latches_once_and_a_two_tree_join_twice() {
    let words = dataset::words(120, 61);
    let (d1, d2) = (TempDir::new("join-latch-a"), TempDir::new("join-latch-b"));
    let cfg = SpbConfig::for_join();
    let a = SpbTree::build(d1.path(), &words, EditDistance::default(), &cfg).unwrap();
    let pivots = a.table().pivots().to_vec();
    let b = SpbTree::build_with_pivots(d2.path(), &words, EditDistance::default(), pivots, &cfg, 0)
        .unwrap();

    let latched = |join: &dyn Fn()| {
        let before = checked_acquisitions(LockRank::TreeLatch);
        join();
        checked_acquisitions(LockRank::TreeLatch) - before
    };
    assert_eq!(latched(&|| drop(similarity_join(&a, &a, 1.0).unwrap())), 1);
    assert_eq!(latched(&|| drop(similarity_join(&a, &b, 1.0).unwrap())), 2);
    // Chunk workers run under the caller's latch and take none.
    let par = |q, o| drop(similarity_join_parallel(q, o, 1.0, 4).unwrap());
    assert_eq!(latched(&|| par(&a, &a)), 1);
    assert_eq!(latched(&|| par(&a, &b)), 2);
}
