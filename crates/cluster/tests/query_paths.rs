//! One query plan, many answering paths: whatever route a plan takes to
//! a tree — the in-process call, the service, a served request executed
//! by itself or coalesced with strangers, an explicit wire batch, the
//! scatter-gather router, a log-shipped replica — the answer must be the
//! same bytes, and the same cost wherever the same tree answers.

use std::sync::{Arc, Mutex};

use spb_cluster::{Cluster, ClusterConfig, Replica, ReplicaService};
use spb_core::{QueryAnswers, QueryPlan, QueryShape, SpbConfig, SpbTree};
use spb_metric::{dataset, EditDistance, MetricObject, Word};
use spb_server::wire::{WireHit, WireNn, WireStats};
use spb_server::{
    serve, Answers, Client, ClientError, Deadline, IndexService, Request, Response, Schema,
    ServerConfig, ServerHandle, ServiceError, TreeService,
};
use spb_storage::TempDir;

type WordService = TreeService<Word, EditDistance>;

/// Serves a shared [`TreeService`] and records every plan the server
/// hands it, with the number of query objects it came with.
struct Probe {
    inner: Arc<WordService>,
    seen: Arc<Mutex<Vec<(QueryPlan, usize)>>>,
}

impl IndexService for Probe {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }
    fn len(&self) -> u64 {
        self.inner.len()
    }
    fn storage_bytes(&self) -> u64 {
        self.inner.storage_bytes()
    }
    fn num_pivots(&self) -> u32 {
        self.inner.num_pivots()
    }
    fn query(
        &self,
        plan: QueryPlan,
        objs: &[Vec<u8>],
        threads: usize,
        deadline: Deadline,
    ) -> Result<Answers, ServiceError> {
        self.seen.lock().unwrap().push((plan, objs.len()));
        self.inner.query(plan, objs, threads, deadline)
    }
    fn insert(&self, obj: &[u8]) -> Result<WireStats, ServiceError> {
        self.inner.insert(obj)
    }
    fn delete(&self, obj: &[u8]) -> Result<(bool, WireStats), ServiceError> {
        self.inner.delete(obj)
    }
    fn checkpoint(&self) -> std::io::Result<()> {
        self.inner.checkpoint()
    }
    fn wal_segment(&self, from_lsn: u64) -> Result<(u64, Vec<u8>), ServiceError> {
        self.inner.wal_segment(from_lsn)
    }
}

fn schema() -> Schema {
    // EditDistance::default() is the paper's Words metric (d⁺ = 34).
    Schema::Words { max_len: 34 }
}

/// A seeded Words index behind a server with a single dispatcher worker:
/// while that worker runs one traversal, everything pipelined behind it
/// queues up, so deadline-free requests really do coalesce.
struct Served {
    dir: TempDir,
    data: Vec<Word>,
    service: Arc<WordService>,
    seen: Arc<Mutex<Vec<(QueryPlan, usize)>>>,
    handle: ServerHandle,
}

fn serve_words(name: &str) -> Served {
    let dir = TempDir::new(name);
    let data = dataset::words(600, 4242);
    let tree = SpbTree::build(
        &dir.path().join("primary"),
        &data,
        dataset::words_metric(),
        &SpbConfig::default(),
    )
    .expect("build");
    let service = Arc::new(TreeService::new(tree, schema()));
    let seen = Arc::new(Mutex::new(Vec::new()));
    let probe = Probe {
        inner: Arc::clone(&service),
        seen: Arc::clone(&seen),
    };
    let cfg = ServerConfig {
        dispatcher_workers: 1,
        ..ServerConfig::default()
    };
    let handle = serve(Box::new(probe), "127.0.0.1:0", cfg).expect("serve");
    Served {
        dir,
        data,
        service,
        seen,
        handle,
    }
}

impl Served {
    fn take_seen(&self) -> Vec<(QueryPlan, usize)> {
        std::mem::take(&mut *self.seen.lock().unwrap())
    }
}

/// The wire request that carries `plan` for one query object.
fn request(plan: QueryPlan, obj: &[u8], deadline_ms: u32) -> Request {
    Request::from_query(plan, vec![obj.to_vec()], deadline_ms).expect("a solo op for every plan")
}

/// Answer rows without their stats (durations differ run to run).
#[derive(Clone, Debug, PartialEq)]
enum Rows {
    Range(Vec<Vec<WireHit>>),
    Knn(Vec<Vec<WireNn>>),
}

/// `(compdists, page_accesses)` per row.
type Costs = Vec<(u64, u64)>;

fn split(answers: Answers) -> (Rows, Costs) {
    let cost = |s: &WireStats| (s.compdists, s.page_accesses);
    match answers {
        Answers::Range(rows) => {
            let costs = rows.iter().map(|(_, s)| cost(s)).collect();
            (
                Rows::Range(rows.into_iter().map(|(h, _)| h).collect()),
                costs,
            )
        }
        Answers::Knn(rows) => {
            let costs = rows.iter().map(|(_, s)| cost(s)).collect();
            (Rows::Knn(rows.into_iter().map(|(h, _)| h).collect()), costs)
        }
    }
}

/// In-process rows in wire form.
fn encode(answers: QueryAnswers<Word>) -> Answers {
    match answers {
        QueryAnswers::Range(rows) => Answers::Range(
            rows.into_iter()
                .map(|(hits, s)| {
                    let hits = hits.into_iter().map(|(id, o)| (id, o.encoded())).collect();
                    (hits, WireStats::from(&s))
                })
                .collect(),
        ),
        QueryAnswers::Knn(rows) => Answers::Knn(
            rows.into_iter()
                .map(|(nn, s)| {
                    let nn = nn
                        .into_iter()
                        .map(|(id, o, d)| (id, d, o.encoded()))
                        .collect();
                    (nn, WireStats::from(&s))
                })
                .collect(),
        ),
    }
}

/// One answer row per single-query response, in order.
fn collect(plan: QueryPlan, resps: Vec<Response>) -> Answers {
    let mut out = match plan.shape() {
        QueryShape::Range { .. } => Answers::Range(Vec::new()),
        QueryShape::Knn { .. } => Answers::Knn(Vec::new()),
    };
    for resp in resps {
        match (resp.into_answers(), &mut out) {
            (Ok(Answers::Range(row)), Answers::Range(rows)) => rows.extend(row),
            (Ok(Answers::Knn(row)), Answers::Knn(rows)) => rows.extend(row),
            (other, _) => panic!("{other:?} does not answer {plan:?}"),
        }
    }
    out
}

/// Range hits in the router's canonical order (ascending id); a single
/// node returns them in traversal order.
fn by_id(rows: Rows) -> Rows {
    match rows {
        Rows::Range(mut rows) => {
            for hits in &mut rows {
                hits.sort_unstable_by_key(|&(id, _)| id);
            }
            Rows::Range(rows)
        }
        knn @ Rows::Knn(_) => knn,
    }
}

fn plans() -> Vec<QueryPlan> {
    let range = QueryShape::Range { radius: 2.0 };
    let knn = QueryShape::Knn { k: 8 };
    vec![
        QueryPlan::exact(range),
        QueryPlan::exact(knn),
        QueryPlan::new(range, Some(0.7)).unwrap(),
        QueryPlan::new(knn, Some(1.8)).unwrap(),
        QueryPlan::new(knn, Some(1.9)).unwrap(),
    ]
}

#[test]
fn every_answering_path_agrees_on_every_plan() {
    let served = serve_words("paths");
    let (data, tree) = (&served.data, served.service.tree());
    let mut client = Client::connect(served.handle.addr()).expect("connect");

    // A replica bootstrapped before the primary moves on, then caught up
    // over WalShip. The inserts are deleted again so the object set stays
    // the one the cluster below is built over.
    let replica_dir = TempDir::new("paths-replica");
    let replica = Arc::new(
        Replica::bootstrap(
            &served.dir.path().join("primary"),
            replica_dir.path(),
            dataset::words_metric(),
            schema(),
            SpbConfig::default().cache_pages,
        )
        .expect("bootstrap"),
    );
    for w in ["zyzzyvas", "quixotry", "syzygial"] {
        client.insert(&Word::new(w).encoded(), 0).expect("insert");
    }
    for w in ["zyzzyvas", "quixotry", "syzygial"] {
        let (found, _) = client.delete(&Word::new(w).encoded(), 0).expect("delete");
        assert!(found);
    }
    assert!(replica.catch_up(&mut client).expect("catch up") > 0);
    assert_eq!(replica.catch_up(&mut client).expect("caught up"), 0);
    let replica = ReplicaService::new(replica);

    // Pivot selection runs in `Cluster::launch` exactly as in
    // `SpbTree::build`, so the shards share the primary's pivot table.
    let cluster_dir = TempDir::new("paths-cluster");
    let cluster = Cluster::launch(
        cluster_dir.path(),
        data,
        dataset::words_metric(),
        schema(),
        &ClusterConfig::default(),
    )
    .expect("cluster launch");
    assert_eq!(cluster.num_shards(), 2);
    let router = cluster.router();

    // Members and strangers; the repeat lets the coalesced path answer
    // one execution to two subscribers.
    let mut queries: Vec<Word> = vec![data[3].clone(), data[311].clone(), data[599].clone()];
    queries.extend(["carot", "zzzzzzzzzz", "a", "a"].map(Word::new));
    let objs: Vec<Vec<u8>> = queries.iter().map(MetricObject::encoded).collect();

    for plan in plans() {
        // The in-process call is the reference; for exact plans it is the
        // classic `range` / `knn` entry points too.
        let (want, want_costs) = split(encode(tree.query_batch(plan, &queries, 1).unwrap()));
        if plan.approx().is_none() {
            let solo: Answers = match plan.shape() {
                QueryShape::Range { radius } => encode(QueryAnswers::Range(
                    queries
                        .iter()
                        .map(|q| tree.range(q, radius).unwrap())
                        .collect(),
                )),
                QueryShape::Knn { k } => encode(QueryAnswers::Knn(
                    queries.iter().map(|q| tree.knn(q, k).unwrap()).collect(),
                )),
            };
            assert_eq!(split(solo), (want.clone(), want_costs.clone()), "{plan:?}");
        }
        let check = |path: &str, answers: Answers| {
            let (rows, costs) = split(answers);
            assert_eq!(rows, want, "{path} answers differently for {plan:?}");
            assert_eq!(costs, want_costs, "{path} costs differently for {plan:?}");
        };

        let direct = served.service.query(plan, &objs, 2, Deadline::none());
        check("TreeService", direct.unwrap());

        // `Client::query` is the one client call. One object travels as
        // the solo op (under a deadline here, so nothing coalesces) …
        served.take_seen();
        let mut solo = Vec::new();
        for o in &objs {
            let answers = client.query(plan, vec![o.clone()], 60_000).expect("solo");
            solo.extend(Response::from_answers(answers, false));
        }
        check("served solo", collect(plan, solo));
        let seen = served.take_seen();
        assert_eq!(seen, vec![(plan, 1); objs.len()], "solo executions");

        let pipelined: Vec<Request> = objs.iter().map(|o| request(plan, o, 0)).collect();
        let resps = client.send_many(&pipelined).expect("pipelined");
        check("served coalesced", collect(plan, resps));
        let seen = served.take_seen();
        assert!(seen.iter().all(|&(p, _)| p == plan), "{seen:?}");
        assert!(
            seen.iter().any(|&(_, width)| width > 1),
            "nothing coalesced for {plan:?}: {seen:?}"
        );

        // … and several objects as the batch op, which only exact plans
        // have: an approximate batch is refused before anything is sent.
        match client.query(plan, objs.clone(), 0) {
            Ok(batch) => {
                check("explicit batch", batch);
                assert_eq!(served.take_seen(), vec![(plan, objs.len())]);
            }
            Err(ClientError::NoWireOp(refused)) => {
                assert!(plan.approx().is_some(), "{plan:?} has a batch op");
                assert_eq!(refused, plan);
                assert!(served.take_seen().is_empty(), "nothing was sent");
            }
            Err(e) => panic!("{plan:?}: {e}"),
        }

        // The replica replayed the primary's log into its own copy of the
        // files: same objects, same distance computations, but not the
        // same tree instance — a reopened RAF reads its tail page from
        // disk where the live primary still appends to it in memory — so
        // page accesses are not comparable.
        let replicated = replica.query(plan, &objs, 2, Deadline::none());
        let (rows, costs) = split(replicated.unwrap());
        assert_eq!(rows, want, "caught-up replica, {plan:?}");
        let compdists = |costs: &Costs| costs.iter().map(|c| c.0).collect::<Vec<u64>>();
        assert_eq!(
            compdists(&costs),
            compdists(&want_costs),
            "replica, {plan:?}"
        );

        // Other trees answer for the router, so only the answers compare.
        // Exact plans and contracted ranges are determined by the object
        // set and the shared pivot table alone. An α-approximate kNN is
        // not — where a traversal stops depends on what each shard holds
        // — so there the router owes the α-bound, not the same bytes.
        let (routed, _) = split(router.query(plan, &queries).expect("router"));
        match (plan.shape(), plan.approx()) {
            (QueryShape::Knn { k }, Some(alpha)) => {
                let Rows::Knn(routed) = routed else {
                    panic!("a kNN plan answers kNN rows");
                };
                for (q, nn) in queries.iter().zip(&routed) {
                    let (exact, _) = tree.knn(q, k).unwrap();
                    let bound = alpha * exact.last().unwrap().2;
                    assert_eq!(nn.len(), k);
                    assert!(nn.iter().all(|&(_, d, _)| d <= bound), "{q:?}: {nn:?}");
                    assert!(nn.windows(2).all(|w| (w[0].1, w[0].0) < (w[1].1, w[1].0)));
                }
            }
            _ => assert_eq!(routed, by_id(want.clone()), "router, {plan:?}"),
        }
    }
    cluster.shutdown().expect("cluster shutdown");
    served.handle.join().expect("server shutdown");
}

/// Regression: the coalesced path used to turn α into a contraction
/// `1/α` and back, which changes the last bit of about one α in eight —
/// so the same request traversed differently with and without a
/// deadline. The factor must reach the service exactly as sent.
#[test]
fn alpha_arrives_bit_equal_with_and_without_a_deadline() {
    let served = serve_words("alpha");
    let mut client = Client::connect(served.handle.addr()).expect("connect");
    let objs: Vec<Vec<u8>> = served.data[..6].iter().map(MetricObject::encoded).collect();
    for alpha in [1.8f64, 1.9] {
        assert_ne!(alpha.recip().recip().to_bits(), alpha.to_bits());
        let knn_approx = |deadline_ms: u32| -> Vec<Request> {
            objs.iter()
                .map(|obj| Request::KnnApprox {
                    deadline_ms,
                    k: 8,
                    alpha,
                    obj: obj.clone(),
                })
                .collect()
        };
        let mut answers = Vec::new();
        for deadline_ms in [60_000, 0] {
            served.take_seen();
            let resps = client.send_many(&knn_approx(deadline_ms)).expect("send");
            let seen = served.take_seen();
            assert!(!seen.is_empty());
            for (plan, _) in &seen {
                let bits = plan.approx().map(f64::to_bits);
                assert_eq!(
                    bits,
                    Some(alpha.to_bits()),
                    "deadline {deadline_ms}: {plan:?}"
                );
                assert_eq!(plan.factor().to_bits(), alpha.to_bits());
            }
            if deadline_ms == 0 {
                assert!(seen.iter().any(|&(_, width)| width > 1), "{seen:?}");
            }
            let plan = seen[0].0;
            answers.push(split(collect(plan, resps)));
        }
        assert_eq!(answers[0], answers[1], "alpha {alpha}: solo vs coalesced");
    }
    served.handle.join().expect("server shutdown");
}
