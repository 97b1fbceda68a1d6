//! End-to-end tests for the network query service: the remote path must
//! be a *transparent* proxy for the in-process batch APIs — byte-identical
//! results and identical per-query cost metrics — and the admission layer
//! must enforce its load-shedding and deadline contracts under real
//! concurrent TCP load.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use spb::core::{QueryPlan, QueryShape};
use spb::metric::{dataset, MetricObject, Word};
use spb::storage::TempDir;
use spb::{SpbConfig, SpbTree};
use spb_server::{
    open_index, schema_path, serve, Answers, Client, ClientError, ErrorCode, Request, Response,
    Schema, ServerConfig,
};

const RADIUS: f64 = 2.0;
const K: u32 = 5;

fn range_plan() -> QueryPlan {
    QueryPlan::exact(QueryShape::Range { radius: RADIUS })
}
const CACHE_PAGES: usize = 32;
const THREADS: usize = 4;

/// Builds a words index with its `cli.schema` and returns the dataset.
fn build_words(dir: &TempDir, n: usize, seed: u64) -> (Vec<Word>, usize) {
    let data = dataset::words(n, seed);
    let max_len = data.iter().map(Word::len).max().unwrap_or(1);
    let tree = SpbTree::build(
        dir.path(),
        &data,
        spb::metric::EditDistance::new(max_len),
        &SpbConfig::default(),
    )
    .unwrap();
    drop(tree);
    std::fs::write(schema_path(dir.path()), Schema::Words { max_len }.to_line()).unwrap();
    (data, max_len)
}

fn start_server(dir: &TempDir, cfg: ServerConfig) -> spb_server::ServerHandle {
    let service = open_index(dir.path(), CACHE_PAGES).unwrap();
    serve(service, "127.0.0.1:0", cfg).unwrap()
}

/// The tentpole acceptance check: remote batch range and kNN return
/// byte-identical hits and identical `QueryStats` (minus wall-clock) to
/// the in-process batch APIs over the same index directory.
#[test]
fn remote_batches_are_byte_identical_to_in_process() {
    let dir = TempDir::new("e2e-identical");
    let (data, max_len) = build_words(&dir, 600, 42);
    let queries: Vec<Word> = data[..24].to_vec();

    // In-process reference, opened exactly like the server opens it
    // (same cache capacity — per-query stats are computed against a
    // simulated cold cache of the pool's capacity, so the configurations
    // must match for identical numbers).
    let tree = SpbTree::open(
        dir.path(),
        spb::metric::EditDistance::new(max_len),
        CACHE_PAGES,
    )
    .unwrap();
    let pairs: Vec<(Word, f64)> = queries.iter().map(|q| (q.clone(), RADIUS)).collect();
    let local_range = tree.range_batch(&pairs, THREADS).unwrap();
    let local_knn = tree.knn_batch(&queries, K as usize, THREADS).unwrap();
    drop(tree); // release the directory before the server opens it

    let server = start_server(&dir, ServerConfig::default());
    let mut client = Client::connect(server.addr()).unwrap();
    let objs: Vec<Vec<u8>> = queries.iter().map(MetricObject::encoded).collect();

    let Answers::Range(remote_range) = client.query(range_plan(), objs.clone(), 0).unwrap() else {
        panic!("a range plan answers range rows");
    };
    assert_eq!(remote_range.len(), local_range.len());
    for (i, ((r_hits, r_stats), (l_hits, l_stats))) in
        remote_range.iter().zip(&local_range).enumerate()
    {
        let local_bytes: Vec<(u32, Vec<u8>)> =
            l_hits.iter().map(|(id, w)| (*id, w.encoded())).collect();
        assert_eq!(r_hits, &local_bytes, "range query {i}: hits differ");
        assert_eq!(r_stats.compdists, l_stats.compdists, "range query {i}");
        assert_eq!(
            r_stats.page_accesses, l_stats.page_accesses,
            "range query {i}"
        );
        assert_eq!(r_stats.btree_pa, l_stats.btree_pa, "range query {i}");
        assert_eq!(r_stats.raf_pa, l_stats.raf_pa, "range query {i}");
        assert_eq!(r_stats.fsyncs, l_stats.fsyncs, "range query {i}");
    }

    let knn_plan = QueryPlan::exact(QueryShape::Knn { k: K as usize });
    let Answers::Knn(remote_knn) = client.query(knn_plan, objs, 0).unwrap() else {
        panic!("a kNN plan answers kNN rows");
    };
    assert_eq!(remote_knn.len(), local_knn.len());
    for (i, ((r_nn, r_stats), (l_nn, l_stats))) in remote_knn.iter().zip(&local_knn).enumerate() {
        let local_bytes: Vec<(u32, f64, Vec<u8>)> = l_nn
            .iter()
            .map(|(id, w, d)| (*id, *d, w.encoded()))
            .collect();
        assert_eq!(r_nn, &local_bytes, "knn query {i}: neighbours differ");
        assert_eq!(r_stats.compdists, l_stats.compdists, "knn query {i}");
        assert_eq!(
            r_stats.page_accesses, l_stats.page_accesses,
            "knn query {i}"
        );
        assert_eq!(r_stats.btree_pa, l_stats.btree_pa, "knn query {i}");
        assert_eq!(r_stats.raf_pa, l_stats.raf_pa, "knn query {i}");
        assert_eq!(r_stats.fsyncs, l_stats.fsyncs, "knn query {i}");
    }
}

/// Eight clients hammering a gate with one slot and no queue: the server
/// must shed (bounded queue, typed `Overloaded`) yet keep serving what
/// it admits — never collapse, never queue without bound.
#[test]
fn overload_sheds_with_bounded_queue() {
    let dir = TempDir::new("e2e-overload");
    let (data, _) = build_words(&dir, 400, 43);
    let server = start_server(
        &dir,
        ServerConfig {
            dispatcher_workers: 1,
            max_queue: 0,
            ..ServerConfig::default()
        },
    );
    let addr = server.addr();
    let shed = Arc::new(AtomicU64::new(0));
    let ok = Arc::new(AtomicU64::new(0));
    let queries: Arc<Vec<Vec<u8>>> =
        Arc::new(data[..16].iter().map(MetricObject::encoded).collect());

    let handles: Vec<_> = (0..8)
        .map(|c| {
            let (shed, ok, queries) = (Arc::clone(&shed), Arc::clone(&ok), Arc::clone(&queries));
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for i in 0..30 {
                    let q = queries[(c + i) % queries.len()].clone();
                    match client.query(range_plan(), vec![q], 0) {
                        Ok(_) => {
                            ok.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(ClientError::Server {
                            code: ErrorCode::Overloaded,
                            ..
                        }) => {
                            shed.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => panic!("client {c}: unexpected failure {e}"),
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let (shed, ok) = (shed.load(Ordering::Relaxed), ok.load(Ordering::Relaxed));
    assert!(shed > 0, "8 clients vs 1 slot must shed ({ok} ok)");
    assert!(ok > 0, "admitted requests must succeed ({shed} shed)");
    assert_eq!(shed + ok, 8 * 30, "every request got a definite answer");
    assert_eq!(server.shed_count(), shed, "server counts what clients saw");
}

/// Work dropped with its connection gives its places back. A client
/// pipelines an insert and three ranges and hangs up without reading:
/// the ranges wait behind the insert's write barrier and die with the
/// connection (or, if the insert wins the race, run and go unread).
/// Either way a fresh client must soon fill every place again.
#[test]
#[allow(clippy::disallowed_methods)] // a test's wall-clock deadline, not a measurement
fn work_dropped_with_its_connection_frees_its_places() {
    let dir = TempDir::new("e2e-place-leak");
    let (data, _) = build_words(&dir, 300, 48);
    // One worker and three waiting: four places, enough for the whole
    // pipeline to be admitted rather than shed.
    let server = start_server(
        &dir,
        ServerConfig {
            dispatcher_workers: 1,
            max_queue: 3,
            ..ServerConfig::default()
        },
    );
    let range = |i: usize| Request::Range {
        deadline_ms: 0,
        radius: RADIUS,
        obj: data[i].encoded(),
    };
    let mut doomed = vec![Request::Ping];
    doomed.push(Request::Insert {
        deadline_ms: 0,
        obj: Word::new("zzzhangup").encoded(),
    });
    doomed.extend((0..3).map(range));
    let mut s = TcpStream::connect(server.addr()).unwrap();
    let mut bytes = Vec::new();
    for r in &doomed {
        spb_server::wire::frame_into(&mut bytes, |out| r.encode_into(out));
    }
    s.write_all(&bytes).unwrap();
    // Wait for the inline `Ping` answer, then close with it unread: the
    // kernel resets the connection instead of a polite FIN.
    s.peek(&mut [0u8; 1]).unwrap();
    drop(s);

    let four: Vec<Request> = (0..4).map(range).collect();
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let mut client = Client::connect(server.addr()).unwrap();
        let resps = client.send_many(&four).unwrap();
        if resps.iter().all(|r| matches!(r, Response::Range { .. })) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "places still held 5 s after their connection died: {resps:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// A request whose deadline cannot be met is answered
/// `DeadlineExceeded`, checked both at admission and between the
/// service's traversal batches.
#[test]
fn expired_deadlines_get_typed_errors() {
    let dir = TempDir::new("e2e-deadline");
    let (data, _) = build_words(&dir, 2_000, 44);
    let server = start_server(&dir, ServerConfig::default());
    let mut client = Client::connect(server.addr()).unwrap();

    // A large batch with a 1 ms budget: the deadline check between
    // traversal slices must trip long before the batch completes.
    let objs: Vec<Vec<u8>> = data[..256].iter().map(MetricObject::encoded).collect();
    let err = client.query(range_plan(), objs, 1).unwrap_err();
    match err {
        ClientError::Server {
            code: ErrorCode::DeadlineExceeded,
            ..
        } => {}
        other => panic!("expected DeadlineExceeded, got {other}"),
    }

    // The connection survives a deadline miss: the next request works.
    let Ok(Answers::Range(rows)) = client.query(range_plan(), vec![data[0].encoded()], 0) else {
        panic!("the connection did not survive the deadline miss");
    };
    assert!(rows[0].1.compdists > 0);
}

/// Zeroes the server-side wall-clock field so responses can be compared
/// byte-for-byte (everything else the server returns is deterministic).
fn normalize(mut resp: Response) -> Response {
    match &mut resp {
        Response::Range { stats, .. }
        | Response::Knn { stats, .. }
        | Response::Insert { stats }
        | Response::Delete { stats, .. } => stats.duration_nanos = 0,
        Response::BatchRange { queries } => {
            for (_, s) in queries.iter_mut() {
                s.duration_nanos = 0;
            }
        }
        Response::BatchKnn { queries } => {
            for (_, s) in queries.iter_mut() {
                s.duration_nanos = 0;
            }
        }
        _ => {}
    }
    resp
}

/// A mixed pipelined workload (with deliberate duplicate queries, which
/// the dispatcher may collapse into batch calls) must come back in
/// request order with responses byte-identical to sequential execution.
#[test]
fn pipelined_responses_match_sequential_execution() {
    let dir = TempDir::new("e2e-pipeline");
    let (data, _) = build_words(&dir, 500, 45);
    let server = start_server(&dir, ServerConfig::default());

    let mut reqs: Vec<Request> = Vec::new();
    for i in 0..48 {
        let obj = data[i % 12].encoded();
        if i % 3 == 0 {
            reqs.push(Request::Knn {
                deadline_ms: 0,
                k: K,
                obj,
            });
        } else {
            reqs.push(Request::Range {
                deadline_ms: 0,
                radius: RADIUS,
                obj,
            });
        }
    }

    let mut seq_client = Client::connect(server.addr()).unwrap();
    let sequential: Vec<Vec<u8>> = reqs
        .iter()
        .map(|r| normalize(seq_client.request(r).unwrap()).encode())
        .collect();

    let mut pipe_client = Client::connect(server.addr()).unwrap();
    let pipelined = pipe_client.send_many(&reqs).unwrap();
    assert_eq!(pipelined.len(), reqs.len());
    for (i, (p, s)) in pipelined.into_iter().zip(&sequential).enumerate() {
        assert_eq!(
            &normalize(p).encode(),
            s,
            "pipelined response {i} differs from sequential execution"
        );
    }
}

/// The same in-order, byte-identical guarantee must hold when the
/// transport misbehaves: request bytes dribbled into the server a few
/// bytes at a time (the server state machine resumes partial frames
/// across reads) and replies read back through a 3-bytes-per-call
/// reader (the client-side framing resumes partial reads).
#[test]
fn pipelining_survives_injected_partial_reads_and_writes() {
    let dir = TempDir::new("e2e-partial-io");
    let (data, _) = build_words(&dir, 300, 46);
    let server = start_server(&dir, ServerConfig::default());

    let reqs: Vec<Request> = (0..8)
        .map(|i| Request::Range {
            deadline_ms: 0,
            radius: RADIUS,
            obj: data[i].encoded(),
        })
        .collect();

    let mut seq_client = Client::connect(server.addr()).unwrap();
    let sequential: Vec<Vec<u8>> = reqs
        .iter()
        .map(|r| normalize(seq_client.request(r).unwrap()).encode())
        .collect();

    let mut s = TcpStream::connect(server.addr()).unwrap();
    s.set_nodelay(true).unwrap();
    let mut bytes = Vec::new();
    for r in &reqs {
        spb_server::wire::frame_into(&mut bytes, |out| r.encode_into(out));
    }
    for chunk in bytes.chunks(7) {
        s.write_all(chunk).unwrap();
        s.flush().unwrap();
        std::thread::sleep(Duration::from_millis(1));
    }

    struct Trickle<'a>(&'a mut TcpStream);
    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = buf.len().min(3);
            self.0.read(&mut buf[..n])
        }
    }
    let mut tr = Trickle(&mut s);
    for (i, want) in sequential.iter().enumerate() {
        let payload =
            spb_server::wire::read_frame(&mut tr, spb_server::wire::DEFAULT_MAX_FRAME).unwrap();
        let got = normalize(Response::decode(&payload).unwrap()).encode();
        assert_eq!(&got, want, "response {i} differs under partial I/O");
    }
}

/// Inserts and deletes inside a pipeline are full ordering barriers: a
/// read queued after a write must observe it, and reads queued before
/// it must not — exactly the semantics of sequential execution.
#[test]
fn pipelined_writes_act_as_ordering_barriers() {
    let dir = TempDir::new("e2e-pipeline-barrier");
    let (_, _) = build_words(&dir, 300, 47);
    let server = start_server(&dir, ServerConfig::default());
    let mut client = Client::connect(server.addr()).unwrap();

    let novel = Word::new("zzzpipeline").encoded();
    let probe = || Request::Range {
        deadline_ms: 0,
        radius: 0.0,
        obj: novel.clone(),
    };
    let reqs = vec![
        probe(),
        Request::Insert {
            deadline_ms: 0,
            obj: novel.clone(),
        },
        probe(),
        Request::Delete {
            deadline_ms: 0,
            obj: novel.clone(),
        },
        probe(),
    ];
    let resps = client.send_many(&reqs).unwrap();
    assert_eq!(resps.len(), 5);
    match &resps[0] {
        Response::Range { hits, .. } => assert!(hits.is_empty(), "not inserted yet"),
        other => panic!("expected Range, got {other:?}"),
    }
    assert!(matches!(&resps[1], Response::Insert { .. }), "{resps:?}");
    match &resps[2] {
        Response::Range { hits, .. } => {
            assert!(
                hits.iter().any(|(_, o)| o == &novel),
                "read after the insert barrier must observe it"
            );
        }
        other => panic!("expected Range, got {other:?}"),
    }
    match &resps[3] {
        Response::Delete { found, .. } => assert!(*found),
        other => panic!("expected Delete, got {other:?}"),
    }
    match &resps[4] {
        Response::Range { hits, .. } => {
            assert!(hits.is_empty(), "read after the delete barrier sees no hit")
        }
        other => panic!("expected Range, got {other:?}"),
    }
}
