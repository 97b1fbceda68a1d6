//! Concurrent-query tests: every index answers queries through `&self`,
//! so a single index must serve parallel readers correctly (the buffer
//! pool and counters are the only shared mutable state).

use std::sync::Arc;
use std::thread;

use spb::metric::{dataset, Distance};
use spb::storage::TempDir;
use spb::{SpbConfig, SpbTree};

#[test]
fn parallel_range_queries_agree_with_serial() {
    let data = dataset::color(3_000, 1001);
    let metric = dataset::color_metric();
    let dir = TempDir::new("conc-range");
    let tree = Arc::new(SpbTree::build(dir.path(), &data, metric, &SpbConfig::default()).unwrap());
    let r = metric.max_distance() * 0.06;

    // Serial reference answers.
    let expected: Vec<Vec<u32>> = data[..32]
        .iter()
        .map(|q| {
            let mut ids: Vec<u32> = tree
                .range(q, r)
                .unwrap()
                .0
                .into_iter()
                .map(|(id, _)| id)
                .collect();
            ids.sort_unstable();
            ids
        })
        .collect();

    // The same queries from 8 threads at once.
    let data = Arc::new(data);
    let handles: Vec<_> = (0..8)
        .map(|t| {
            let tree = Arc::clone(&tree);
            let data = Arc::clone(&data);
            let expected = expected.clone();
            thread::spawn(move || {
                for (i, q) in data[..32].iter().enumerate() {
                    if i % 8 != t {
                        continue;
                    }
                    let mut ids: Vec<u32> = tree
                        .range(q, r)
                        .unwrap()
                        .0
                        .into_iter()
                        .map(|(id, _)| id)
                        .collect();
                    ids.sort_unstable();
                    assert_eq!(ids, expected[i], "thread {t}, query {i}");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("no panics in reader threads");
    }
}

#[test]
fn queries_race_cache_flushes_safely() {
    // Readers racing with cache flushes and capacity changes must never
    // produce wrong answers (the cache is write-through, so it only
    // affects cost, not content).
    let data = dataset::words(2_000, 1002);
    let dir = TempDir::new("conc-flush");
    let tree = Arc::new(
        SpbTree::build(
            dir.path(),
            &data,
            dataset::words_metric(),
            &SpbConfig::default(),
        )
        .unwrap(),
    );
    let data = Arc::new(data);

    let flusher = {
        let tree = Arc::clone(&tree);
        thread::spawn(move || {
            for i in 0..200 {
                tree.flush_caches();
                tree.set_cache_capacity(if i % 2 == 0 { 0 } else { 32 });
            }
        })
    };
    let readers: Vec<_> = (0..4)
        .map(|t| {
            let tree = Arc::clone(&tree);
            let data = Arc::clone(&data);
            thread::spawn(move || {
                for q in data.iter().skip(t).step_by(97).take(20) {
                    let (nn, _) = tree.knn(q, 3).unwrap();
                    assert_eq!(nn.len(), 3);
                    assert_eq!(nn[0].2, 0.0, "an indexed query object is its own 1-NN");
                }
            })
        })
        .collect();
    flusher.join().expect("flusher");
    for h in readers {
        h.join().expect("reader");
    }
}

#[test]
fn batch_queries_stress_against_bruteforce() {
    // The batch APIs under contention: several OS threads each fan their
    // own batches across worker pools over one shared index (one pool
    // mutex per file), and every answer must match brute force;
    // per-query stats must be identical no matter which batch/thread
    // produced them.
    let data = dataset::words(2_000, 1005);
    let metric = dataset::words_metric();
    let dir = TempDir::new("conc-batch");
    let tree = Arc::new(SpbTree::build(dir.path(), &data, metric, &SpbConfig::default()).unwrap());
    let data = Arc::new(data);
    let r = 2.0;

    let brute: Vec<Vec<u32>> = data[..24]
        .iter()
        .map(|q| {
            let mut ids: Vec<u32> = data
                .iter()
                .enumerate()
                .filter(|(_, o)| metric.distance(q, o) <= r)
                .map(|(i, _)| i as u32)
                .collect();
            ids.sort_unstable();
            ids
        })
        .collect();

    // Reference per-query stats from a single-threaded batch.
    let queries: Vec<_> = data[..24].iter().map(|q| (q.clone(), r)).collect();
    let reference = tree.range_batch(&queries, 1).unwrap();

    let handles: Vec<_> = (0..4)
        .map(|t| {
            let tree = Arc::clone(&tree);
            let data = Arc::clone(&data);
            let brute = brute.clone();
            let reference: Vec<_> = reference
                .iter()
                .map(|(hits, stats)| (hits.clone(), *stats))
                .collect();
            thread::spawn(move || {
                let queries: Vec<_> = data[..24].iter().map(|q| (q.clone(), r)).collect();
                let got = tree.range_batch(&queries, 1 + t).unwrap();
                for (i, (hits, stats)) in got.iter().enumerate() {
                    let mut ids: Vec<u32> = hits.iter().map(|&(id, _)| id).collect();
                    ids.sort_unstable();
                    assert_eq!(ids, brute[i], "os thread {t}, query {i}");
                    let want = &reference[i].1;
                    assert_eq!(stats.compdists, want.compdists, "thread {t}, query {i}");
                    assert_eq!(
                        stats.page_accesses, want.page_accesses,
                        "thread {t}, query {i}"
                    );
                    assert_eq!(stats.btree_pa, want.btree_pa, "thread {t}, query {i}");
                    assert_eq!(stats.raf_pa, want.raf_pa, "thread {t}, query {i}");
                }
                // kNN against brute force: the query object is its own 1-NN.
                let knn_qs: Vec<_> = data[..12].to_vec();
                for (i, (nn, _)) in tree.knn_batch(&knn_qs, 3, 2).unwrap().iter().enumerate() {
                    assert_eq!(nn.len(), 3);
                    assert_eq!(nn[0].2, 0.0, "thread {t}, knn query {i}");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("no panics in batch threads");
    }
}

#[test]
fn parallel_batch_pool_accounting_is_exact() {
    // A batch on 4 threads over one pool must report the same aggregate
    // page accesses as the same batch on 1 thread (write-through read
    // path: interleaving changes the order pages are read in, not which
    // pages are read).
    // A cache large enough that nothing evicts: the aggregate counts are
    // then "distinct pages touched", deterministic under any interleaving
    // (with eviction, the shared LRU's miss count depends on query order,
    // which a parallel batch does not fix).
    let data = dataset::words(2_000, 1006);
    let dir = TempDir::new("conc-acct");
    let tree = SpbTree::build(
        dir.path(),
        &data,
        dataset::words_metric(),
        &SpbConfig {
            cache_pages: 4_096,
            ..SpbConfig::default()
        },
    )
    .unwrap();

    let queries: Vec<_> = data[..24].iter().map(|q| (q.clone(), 2.0)).collect();

    let run = |threads: usize| {
        tree.flush_caches();
        let b0 = tree.btree().pool().stats();
        let r0 = tree.raf().pool().stats();
        let per_query = tree.range_batch(&queries, threads).unwrap();
        let b1 = tree.btree().pool().stats();
        let r1 = tree.raf().pool().stats();
        let pool_pa =
            (b1.page_accesses() - b0.page_accesses()) + (r1.page_accesses() - r0.page_accesses());
        let reported: u64 = per_query.iter().map(|(_, s)| s.page_accesses).sum();
        (pool_pa, reported)
    };

    let (pa1, reported1) = run(1);
    let (pa4, reported4) = run(4);

    // Same workload, same aggregate I/O, regardless of thread count.
    assert_eq!(pa1, pa4, "threads must not change aggregate page accesses");
    // Per-query collectors see the same totals in both runs.
    assert_eq!(reported1, reported4);
    // With a cold cache and no eviction pressure, per-query accounting
    // (cold simulated cache each) can only overcount shared pages once
    // per query; aggregates never exceed the sum of per-query numbers.
    assert!(pa4 <= reported4);
}

#[test]
fn concurrent_inserts_then_queries_see_everything() {
    // Inserts are serialised by the caller here (one writer thread), with
    // readers querying concurrently — the supported usage for updates.
    let data = dataset::words(1_000, 1003);
    let extra = dataset::words(200, 1004);
    let dir = TempDir::new("conc-ins");
    let tree = Arc::new(
        SpbTree::build(
            dir.path(),
            &data,
            dataset::words_metric(),
            &SpbConfig::default(),
        )
        .unwrap(),
    );
    let writer = {
        let tree = Arc::clone(&tree);
        let extra = extra.clone();
        thread::spawn(move || {
            for o in &extra {
                tree.insert(o).unwrap();
            }
        })
    };
    // Readers keep the index busy while the writer runs.
    let reader = {
        let tree = Arc::clone(&tree);
        let data = data.clone();
        thread::spawn(move || {
            for q in data.iter().take(50) {
                let (hits, _) = tree.range(q, 1.0).unwrap();
                assert!(hits.iter().any(|(_, w)| w == q));
            }
        })
    };
    writer.join().expect("writer");
    reader.join().expect("reader");
    assert_eq!(tree.len(), 1_200);
    for o in extra.iter().take(20) {
        let (hits, _) = tree.range(o, 0.0).unwrap();
        assert!(
            hits.iter().any(|(_, w)| w == o),
            "inserted object must be findable"
        );
    }
}

#[test]
fn mixed_read_write_batch_stress() {
    // The reader–writer latch under real contention: writer threads churn
    // insert/delete of novel objects while reader threads run range
    // batches. Readers must always see a consistent index — every
    // baseline answer present, no torn state, no panics — and once the
    // writers finish (each insert matched by a delete) the index must be
    // exactly the baseline again.
    let data = dataset::words(1_500, 1007);
    let metric = dataset::words_metric();
    let dir = TempDir::new("conc-mixed");
    let tree = Arc::new(SpbTree::build(dir.path(), &data, metric, &SpbConfig::default()).unwrap());
    let data = Arc::new(data);
    let r = 1.0;

    // Baseline answers; writers only touch "zz"-prefixed words (disjoint
    // from the random baseline vocabulary), so a reader's answer set
    // restricted to baseline ids must equal the serial baseline answer.
    let baseline_len = tree.len();
    let queries: Vec<_> = data[..16].iter().map(|q| (q.clone(), r)).collect();
    let expected: Vec<Vec<u32>> = tree
        .range_batch(&queries, 1)
        .unwrap()
        .into_iter()
        .map(|(hits, _)| {
            let mut ids: Vec<u32> = hits.into_iter().map(|(id, _)| id).collect();
            ids.sort_unstable();
            ids
        })
        .collect();
    let writers_done = Arc::new(std::sync::atomic::AtomicBool::new(false));

    let writers: Vec<_> = (0..2)
        .map(|t| {
            let tree = Arc::clone(&tree);
            thread::spawn(move || {
                for i in 0..60 {
                    let w = spb::metric::Word::new(format!("zzwriter{t}x{i}"));
                    tree.insert(&w).unwrap();
                    let (found, _) = tree.delete(&w).unwrap();
                    assert!(found, "writer {t}: own insert {i} must be deletable");
                }
            })
        })
        .collect();
    let readers: Vec<_> = (0..4)
        .map(|t| {
            let tree = Arc::clone(&tree);
            let queries = queries.clone();
            let expected = expected.clone();
            let writers_done = Arc::clone(&writers_done);
            thread::spawn(move || {
                let mut rounds = 0;
                while !writers_done.load(std::sync::atomic::Ordering::SeqCst) || rounds < 3 {
                    let got = tree.range_batch(&queries, 1 + (t % 3)).unwrap();
                    for (i, (hits, _)) in got.iter().enumerate() {
                        let mut ids: Vec<u32> = hits
                            .iter()
                            .filter(|(_, w)| !w.as_str().starts_with("zzwriter"))
                            .map(|&(id, _)| id)
                            .collect();
                        ids.sort_unstable();
                        assert_eq!(ids, expected[i], "reader {t}, round {rounds}, query {i}");
                    }
                    rounds += 1;
                }
            })
        })
        .collect();
    for h in writers {
        h.join().expect("no panics in writer threads");
    }
    writers_done.store(true, std::sync::atomic::Ordering::SeqCst);
    for h in readers {
        h.join().expect("no panics in reader threads");
    }

    // Every writer deleted what it inserted: back to the exact baseline.
    assert_eq!(tree.len(), baseline_len);
    let final_ids: Vec<Vec<u32>> = tree
        .range_batch(&queries, 2)
        .unwrap()
        .into_iter()
        .map(|(hits, _)| {
            let mut ids: Vec<u32> = hits.into_iter().map(|(id, _)| id).collect();
            ids.sort_unstable();
            ids
        })
        .collect();
    assert_eq!(final_ids, expected);
}
