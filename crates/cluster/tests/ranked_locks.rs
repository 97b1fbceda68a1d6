//! The one lock-ordering mechanism sees every ranked lock.
//!
//! `spb_storage::lockrank` is the only thing standing between the
//! workspace and a lock-order deadlock, and it only checks the paths a
//! test executes under it. This test drives every layer that owns a
//! ranked lock — event loop, dispatcher, router, replica, tree, RAF,
//! buffer pool, WAL, B⁺-tree meta, pager — through one small served
//! cluster and then reads the checker's per-rank counters: a lock that
//! was swapped for a raw `std::sync` one, or a rank no test path
//! reaches, fails here. The two ranks a cluster does not own are left
//! to their crates' tests: the baseline indexes' root locks
//! (`spb-mams`) and the learned-positioning slot, which only a tree
//! built with `AccelPolicy::Learned` takes.
//! Debug builds only: the checker does not exist in release.

#![cfg(debug_assertions)]

use spb_cluster::{Cluster, ClusterConfig};
use spb_core::{QueryPlan, QueryShape};
use spb_metric::{dataset, MetricObject, Word};
use spb_server::{Answers, Client, Schema};
use spb_storage::lockrank::{checked_acquisitions, LockRank};
use spb_storage::TempDir;

#[test]
fn a_served_cluster_takes_all_its_ranks_under_the_checker() {
    let before = LockRank::ALL.map(checked_acquisitions);

    let data = dataset::words(200, 23);
    let dir = TempDir::new("ranked-locks");
    let cfg = ClusterConfig {
        shards: 2,
        replicas: 1,
        ..ClusterConfig::default()
    };
    let mut cluster = Cluster::launch(
        dir.path(),
        &data,
        dataset::words_metric(),
        Schema::Words { max_len: 34 },
        &cfg,
    )
    .expect("cluster launch");

    // A served insert: event loop → dispatcher → tree latch
    // (exclusive) → buffer-pool shards → WAL commit.
    let fresh = Word::new("rankedlockword");
    cluster.insert(0, &fresh).expect("insert via primary");

    // Routed reads lease pooled connections and take the latch shared.
    let router = cluster.router();
    let (hits, _) = router.range(&fresh, 0.0).expect("routed range");
    assert_eq!(hits.len(), 1, "the insert is visible through the router");
    let (nn, _) = router.knn(&data[0], 3).expect("routed knn");
    assert_eq!(nn.len(), 3);

    // Catch-up swaps the replica's serving tree under its state lock,
    // and a replica read holds that lock shared across the query.
    assert!(cluster.sync_replicas().expect("catch-up") > 0);
    let mut replica = Client::connect(cluster.replica_addrs(0)[0]).expect("replica connect");
    let at_fresh = QueryPlan::exact(QueryShape::Range { radius: 0.0 });
    let hits = replica.query(at_fresh, vec![fresh.encoded()], 0);
    let Ok(Answers::Range(rows)) = hits else {
        panic!("replica range: {hits:?}");
    };
    assert_eq!(rows[0].0.len(), 1, "the replica serves the shipped insert");

    // Draining every node checkpoints each tree under its latch.
    cluster.shutdown().expect("clean shutdown");

    for (rank, before) in LockRank::ALL.into_iter().zip(before) {
        if matches!(rank, LockRank::BaselineRoot | LockRank::AccelModel) {
            continue;
        }
        assert!(
            checked_acquisitions(rank) > before,
            "{} (rank {}) was never acquired through the rank check",
            rank.name(),
            rank as u8,
        );
    }
}
