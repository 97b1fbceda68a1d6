//! End-to-end cluster tests over real sockets: an N-shard cluster must
//! answer byte-for-byte like a single node, and a lagging replica must
//! catch up over `WalShip` and carry its shard's reads after the
//! primary dies.

use spb_cluster::{Cluster, ClusterConfig};
use spb_core::{QueryPlan, QueryShape, SpbConfig, SpbTree};
use spb_metric::{dataset, Distance, MetricObject, Word};
use spb_server::{Answers, Client, Schema};
use spb_storage::fault::{self, FaultMode, FaultPlan};
use spb_storage::TempDir;

/// One node's own answer to `RQ(q, radius)`: the single row.
fn node_range(
    conn: &mut Client,
    q: &Word,
    radius: f64,
) -> (Vec<(u32, Vec<u8>)>, spb_server::WireStats) {
    let plan = QueryPlan::exact(QueryShape::Range { radius });
    match conn.query(plan, vec![q.encoded()], 0).expect("node range") {
        Answers::Range(mut rows) if rows.len() == 1 => rows.remove(0),
        other => panic!("{other:?} is not one range row"),
    }
}

fn words_schema() -> Schema {
    // EditDistance::default() is the paper's Words metric (d⁺ = 34).
    Schema::Words { max_len: 34 }
}

fn launch_words(
    dir: &TempDir,
    data: &[Word],
    shards: usize,
    replicas: usize,
) -> Cluster<Word, spb_metric::EditDistance> {
    let cfg = ClusterConfig {
        shards,
        replicas,
        ..ClusterConfig::default()
    };
    Cluster::launch(
        dir.path(),
        data,
        dataset::words_metric(),
        words_schema(),
        &cfg,
    )
    .expect("cluster launch")
}

/// Single-node reference answers, in the router's canonical shapes:
/// range hits sorted by id, kNN in `(distance, id)` order.
struct Reference {
    tree: SpbTree<Word, spb_metric::EditDistance>,
}

impl Reference {
    fn build(dir: &TempDir, data: &[Word]) -> Reference {
        let tree = SpbTree::build(
            dir.path(),
            data,
            dataset::words_metric(),
            &SpbConfig::default(),
        )
        .expect("single-node build");
        Reference { tree }
    }

    fn range(&self, q: &Word, r: f64) -> Vec<(u32, Vec<u8>)> {
        let (hits, _) = self.tree.range(q, r).expect("single-node range");
        let mut hits: Vec<(u32, Vec<u8>)> =
            hits.into_iter().map(|(id, o)| (id, o.encoded())).collect();
        hits.sort_unstable_by_key(|&(id, _)| id);
        hits
    }

    fn knn(&self, q: &Word, k: usize) -> Vec<(u32, f64, Vec<u8>)> {
        let (nn, _) = self.tree.knn(q, k).expect("single-node knn");
        nn.into_iter()
            .map(|(id, o, d)| (id, d, o.encoded()))
            .collect()
    }
}

#[test]
fn sharded_cluster_answers_byte_identically_to_a_single_node() {
    let data = dataset::words(400, 21);
    let cluster_dir = TempDir::new("cluster-e2e");
    let single_dir = TempDir::new("cluster-e2e-single");
    let cluster = launch_words(&cluster_dir, &data, 3, 0);
    assert_eq!(cluster.num_shards(), 3);
    let reference = Reference::build(&single_dir, &data);
    let router = cluster.router();
    assert_eq!(router.len(), data.len() as u64);

    let queries: Vec<Word> = vec![
        data[0].clone(),
        data[117].clone(),
        data[399].clone(),
        Word::new("zzzzzzzz"), // far from everything: heavy pruning
        Word::new("a"),
    ];

    for q in &queries {
        for r in [0.0, 1.0, 2.0, 4.0] {
            let (hits, stats) = router.range(q, r).expect("router range");
            assert_eq!(hits, reference.range(q, r), "range({q:?}, {r})");
            if !hits.is_empty() {
                assert!(stats.compdists > 0, "stats must aggregate");
            }
        }
        for k in [1usize, 5, 17] {
            let (nn, stats) = router.knn(q, k).expect("router knn");
            assert_eq!(nn, reference.knn(q, k), "knn({q:?}, {k})");
            assert!(stats.compdists > 0);
        }
    }

    // A plan over many queries is per-query identical to the
    // single-query forms.
    let Answers::Range(batch_r) = router
        .query(
            QueryPlan::exact(QueryShape::Range { radius: 2.0 }),
            &queries,
        )
        .expect("range plan")
    else {
        panic!("a range plan answers range rows");
    };
    let Answers::Knn(batch_k) = router
        .query(QueryPlan::exact(QueryShape::Knn { k: 5 }), &queries)
        .expect("knn plan")
    else {
        panic!("a kNN plan answers kNN rows");
    };
    for (q, (hits, _)) in queries.iter().zip(&batch_r) {
        assert_eq!(hits, &reference.range(q, 2.0));
    }
    for (q, (nn, _)) in queries.iter().zip(&batch_k) {
        assert_eq!(nn, &reference.knn(q, 5));
    }

    // With a radius covering the whole metric space no shard is pruned,
    // so the router's stats must equal the sum over every shard primary
    // queried directly. (They can never equal a *single node's* stats:
    // each shard pays its own |P| mapping distances.)
    let metric = dataset::words_metric();
    let q = &data[7];
    let full = metric.max_distance();
    let (_, routed) = router.range(q, full).expect("router full range");
    let mut summed = spb_server::wire::WireStats::default();
    for shard in 0..cluster.num_shards() {
        let mut conn = Client::connect(cluster.primary_addr(shard)).expect("shard connect");
        let (_, stats) = node_range(&mut conn, q, full);
        spb_cluster::sum_stats(&mut summed, &stats);
    }
    assert_eq!(routed.compdists, summed.compdists);
    assert_eq!(routed.page_accesses, summed.page_accesses);
    assert_eq!(routed.btree_pa, summed.btree_pa);
    assert_eq!(routed.raf_pa, summed.raf_pa);

    // Merged observability snapshots aggregate every shard. (In this
    // in-process harness every node shares one global registry, so the
    // merge sums N identical snapshots — the assertion only checks the
    // aggregation plumbing, not per-node isolation.)
    let snap = router.obs_stats().expect("merged obs");
    assert!(snap.counter("admission.served").unwrap_or(0) > 0);

    cluster.shutdown().expect("clean shutdown");
}

#[test]
fn lagging_replica_catches_up_and_serves_reads_after_primary_kill() {
    let _serial = fault::test_lock();
    let data = dataset::words(200, 22);
    let dir = TempDir::new("cluster-failover");
    let mut cluster = launch_words(&dir, &data, 2, 1);
    assert_eq!(cluster.num_shards(), 2);

    // Fresh replicas start at the bootstrap LSN with nothing to pull.
    assert_eq!(cluster.sync_replicas().expect("initial sync"), 0);
    let bootstrap_lsn = cluster.replica(0, 0).applied_lsn();

    // Write through shard 0's primary: the replica now lags by a whole
    // WAL segment (every commit since bootstrap).
    let inserted: Vec<Word> = (0..12)
        .map(|i| Word::new(format!("repl{i:02}word")))
        .collect();
    for w in &inserted {
        cluster.insert(0, w).expect("insert via primary");
    }

    // Crash one more commit mid-write under the fault harness: the torn
    // transaction must never ship (the WAL's committed length only
    // advances by whole transactions).
    {
        let shard0 = dir.path().join("shard0");
        let _guard = FaultPlan {
            scope: shard0,
            fail_after: 0,
            mode: FaultMode::Partial,
            seed: 22,
        }
        .install();
        let err = cluster.insert(0, &Word::new("tornword"));
        assert!(err.is_err(), "injected crash must fail the insert");
    }

    // Catch up: only the committed segment ships, CRC-checked, and the
    // replica replays it through recovery.
    let shipped = cluster.sync_replicas().expect("catch-up");
    assert!(shipped > 0, "replica had a full segment to pull");
    assert!(cluster.replica(0, 0).applied_lsn() > bootstrap_lsn);
    assert_eq!(cluster.sync_replicas().expect("idempotent sync"), 0);

    // The caught-up replica answers for the shipped writes directly.
    let mut replica_conn = Client::connect(cluster.replica_addrs(0)[0]).expect("replica connect");
    let (hits, _) = node_range(&mut replica_conn, &inserted[3], 0.0);
    assert!(
        hits.iter()
            .any(|(_, bytes)| bytes == &inserted[3].encoded()),
        "replica must serve the replicated insert"
    );
    let (torn, _) = node_range(&mut replica_conn, &Word::new("tornword"), 0.0);
    assert!(torn.is_empty(), "the torn transaction must not replicate");

    // Record router answers while the primary is alive...
    let router = cluster.router();
    let queries: Vec<Word> = data.iter().take(6).cloned().collect();
    let before: Vec<_> = queries
        .iter()
        .map(|q| router.range(q, 2.0).expect("pre-kill range").0)
        .collect();

    // ...kill shard 0's primary, and every read must come back the
    // same, failed over to the replica.
    cluster.kill_primary(0).expect("primary shutdown");
    let router = cluster.router();
    for (q, want) in queries.iter().zip(&before) {
        let (got, _) = router.range(q, 2.0).expect("post-kill range");
        assert_eq!(&got, want, "failover changed range({q:?})");
    }
    let (nn, _) = router.knn(&queries[0], 3).expect("post-kill knn");
    assert_eq!(nn.len(), 3);

    cluster.shutdown().expect("clean shutdown");
}
