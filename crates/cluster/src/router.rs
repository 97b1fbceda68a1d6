//! The scatter-gather router: one logical index over `N` shard servers.
//!
//! Every query computes the query's pivot vector `φ(q)` once (`|P|`
//! distance evaluations — the same mapping cost a single node pays) and
//! prunes shards whose per-pivot bounding box proves they cannot
//! contribute ([`spb_core::shard_mind`]); surviving shards are queried
//! in parallel over the wire protocol and their answers merged:
//!
//! - **Range**: every shard with `MIND(q, shard) ≤ r` is queried in one
//!   wave; hits come back sorted by id (the canonical cluster order — a
//!   single node returns DFS order, so comparisons sort both sides).
//!   Shard trees are bulk-loaded with *global* object ids
//!   ([`spb_core::SpbTree::build_with_pivots_ids`]), so shard answers
//!   need no translation — and, crucially, shard-local tie-breaks agree
//!   with single-node tie-breaks.
//! - **kNN**: shards are visited in ascending-`MIND` waves. The first
//!   wave is every shard whose bound ties the minimum; each round
//!   merges per-shard top-`k` lists by `(distance, id)` — exactly the
//!   single-node tie-break — shrinks the global radius to the current
//!   `k`-th distance, and re-issues only to unvisited shards whose
//!   bound does not *strictly* exceed it. Equality never prunes, so
//!   distance ties resolve identically to a single node.
//!
//! Per-query [`WireStats`] are summed across the queried shards
//! (`duration_nanos` is therefore total shard time, not wall clock).
//! Reads fail over to a shard's replicas when the primary sheds with
//! `Overloaded`, drains with `ShuttingDown`, or the connection dies.

use std::net::SocketAddr;
use std::sync::{Arc, OnceLock};

use spb_core::{shard_mind, QueryPlan, QueryShape};
use spb_metric::{Distance, MetricObject};
use spb_server::wire::{ErrorCode, WireHit, WireNn, WireStats};
use spb_server::{Answers, Client, ClientError};
use spb_storage::lockrank::{LockRank, RankedMutex};

/// Shards contacted per routed query.
fn fanout_hist() -> &'static Arc<spb_obs::Histogram> {
    static H: OnceLock<Arc<spb_obs::Histogram>> = OnceLock::new();
    H.get_or_init(|| spb_obs::histogram("cluster.fanout"))
}

/// Wire round-trip latency of one shard request (nanoseconds).
fn shard_latency_hist() -> &'static Arc<spb_obs::Histogram> {
    static H: OnceLock<Arc<spb_obs::Histogram>> = OnceLock::new();
    H.get_or_init(|| spb_obs::histogram("cluster.shard_latency_ns"))
}

/// Latency of the *slowest* shard in each scatter wave (nanoseconds) —
/// the straggler that bounds the wave's wall clock.
fn straggler_hist() -> &'static Arc<spb_obs::Histogram> {
    static H: OnceLock<Arc<spb_obs::Histogram>> = OnceLock::new();
    H.get_or_init(|| spb_obs::histogram("cluster.straggler_ns"))
}

/// Where one shard lives and what it holds.
#[derive(Clone, Debug)]
pub(crate) struct ShardRoute {
    /// The primary server for this shard.
    pub primary: SocketAddr,
    /// Read replicas, tried in order when the primary sheds or dies.
    pub replicas: Vec<SocketAddr>,
    /// Global ids of the shard's bulk-loaded members (the shard's tree
    /// carries these same ids, so answers need no translation).
    pub members: Vec<u32>,
    /// Per-pivot `(min, max)` of the members' φ coordinates.
    pub mbb: Vec<(f64, f64)>,
}

/// Why a routed query failed.
#[derive(Debug)]
pub enum RouterError {
    /// A shard (and all of its replicas) failed to answer.
    Shard {
        /// Index of the failing shard.
        shard: usize,
        /// The primary's failure (replica failures, if any, came after).
        source: ClientError,
    },
}

impl std::fmt::Display for RouterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouterError::Shard { shard, source } => {
                write!(f, "shard {shard} failed: {source}")
            }
        }
    }
}

impl std::error::Error for RouterError {}

struct Node {
    route: ShardRoute,
    /// Pooled connections to the *primary* (failover connections are
    /// per-request and never pooled). Ranked below every storage rank:
    /// a lease happens before any tree latch and never inside one.
    conns: RankedMutex<Vec<Client>>,
}

/// A connected scatter-gather router over one [`ShardRoute`] set.
pub struct Router<O: MetricObject, D: Distance<O>> {
    pivots: Vec<O>,
    metric: D,
    nodes: Vec<Node>,
}

/// Sums two per-query cost records (`duration_nanos` adds like every
/// other counter: total shard time, not wall clock).
pub fn sum_stats(into: &mut WireStats, s: &WireStats) {
    into.compdists += s.compdists;
    into.page_accesses += s.page_accesses;
    into.btree_pa += s.btree_pa;
    into.raf_pa += s.raf_pa;
    into.fsyncs += s.fsyncs;
    into.duration_nanos += s.duration_nanos;
}

/// Merges per-shard kNN candidate lists into the global top-`k`,
/// ordered by `(distance, id)` with `f64::total_cmp` — byte-identical
/// to the single-node sort, including ties on equal distances.
pub fn merge_topk(k: usize, lists: Vec<Vec<WireNn>>) -> Vec<WireNn> {
    let mut all: Vec<WireNn> = lists.into_iter().flatten().collect();
    all.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    all.truncate(k);
    all
}

/// Merges per-shard observability snapshots: counters and gauges sum by
/// name, histograms combine `count`/`sum` additively and take the
/// maximum of `max` and of each percentile (an upper bound — exact
/// percentiles cannot be recovered from summaries), traces concatenate.
pub(crate) fn merge_snapshots(snaps: Vec<spb_obs::Snapshot>) -> spb_obs::Snapshot {
    let mut out = spb_obs::Snapshot::default();
    for snap in snaps {
        for (name, v) in snap.counters {
            match out.counters.iter_mut().find(|(n, _)| *n == name) {
                Some(slot) => slot.1 += v,
                None => out.counters.push((name, v)),
            }
        }
        for (name, v) in snap.gauges {
            match out.gauges.iter_mut().find(|(n, _)| *n == name) {
                Some(slot) => slot.1 += v,
                None => out.gauges.push((name, v)),
            }
        }
        for (name, h) in snap.hists {
            match out.hists.iter_mut().find(|(n, _)| *n == name) {
                Some((_, into)) => {
                    into.count += h.count;
                    into.sum += h.sum;
                    into.max = into.max.max(h.max);
                    into.p50 = into.p50.max(h.p50);
                    into.p90 = into.p90.max(h.p90);
                    into.p99 = into.p99.max(h.p99);
                }
                None => out.hists.push((name, h)),
            }
        }
        out.traces.extend(snap.traces);
    }
    out
}

/// A failure class the router answers by trying a replica.
fn failover_worthy(e: &ClientError) -> bool {
    matches!(
        e,
        ClientError::Connect(_)
            | ClientError::Io(_)
            | ClientError::Server {
                code: ErrorCode::Overloaded | ErrorCode::ShuttingDown,
                ..
            }
    )
}

impl<O: MetricObject, D: Distance<O>> Router<O, D> {
    /// Builds a router over already-serving shards. `pivots` must be
    /// the shared pivot set every shard was bulk-loaded with (see
    /// [`spb_core::ShardPlan`]).
    pub(crate) fn new(pivots: Vec<O>, metric: D, routes: Vec<ShardRoute>) -> Self {
        let nodes = routes
            .into_iter()
            .map(|route| Node {
                route,
                conns: RankedMutex::new(LockRank::RouterConn, Vec::new()),
            })
            .collect();
        Router {
            pivots,
            metric,
            nodes,
        }
    }

    /// Number of shards routed to.
    pub fn num_shards(&self) -> usize {
        self.nodes.len()
    }

    /// Total objects across all shards (from the shard map, no I/O).
    pub fn len(&self) -> u64 {
        self.nodes
            .iter()
            .map(|n| n.route.members.len() as u64)
            .sum()
    }

    /// True iff the cluster holds no objects.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn lease(&self, shard: usize) -> Option<Client> {
        self.nodes[shard].conns.lock().pop()
    }

    fn repool(&self, shard: usize, conn: Client) {
        self.nodes[shard].conns.lock().push(conn);
    }

    /// φ(q): the query's distance to every pivot, in pivot order — the
    /// same vector the shards' pivot tables compute.
    fn q_phi(&self, q: &O) -> Vec<f64> {
        self.pivots
            .iter()
            .map(|p| self.metric.distance(q, p))
            .collect()
    }

    /// Runs `f` against one shard: pooled primary connection first,
    /// then failover through the replicas in route order.
    fn with_shard<T>(
        &self,
        shard: usize,
        f: &(impl Fn(&mut Client) -> Result<T, ClientError> + Sync),
    ) -> Result<T, RouterError> {
        let route = &self.nodes[shard].route;
        let primary = (|| {
            let mut conn = match self.lease(shard) {
                Some(c) => c,
                None => Client::connect(route.primary)?,
            };
            let v = f(&mut conn)?;
            self.repool(shard, conn);
            Ok(v)
        })();
        let source = match primary {
            Ok(v) => return Ok(v),
            Err(e) if failover_worthy(&e) => e,
            Err(e) => return Err(RouterError::Shard { shard, source: e }),
        };
        for &addr in &route.replicas {
            if let Ok(mut conn) = Client::connect(addr) {
                if let Ok(v) = f(&mut conn) {
                    return Ok(v);
                }
            }
        }
        Err(RouterError::Shard { shard, source })
    }

    /// One scatter wave: `f` against every target shard in parallel.
    /// Results come back in target order; the first failure wins.
    fn scatter<T: Send>(
        &self,
        targets: &[usize],
        f: &(impl Fn(&mut Client) -> Result<T, ClientError> + Sync),
    ) -> Result<Vec<T>, RouterError> {
        if targets.is_empty() {
            return Ok(Vec::new());
        }
        let wave = std::thread::scope(|s| {
            let handles: Vec<_> = targets
                .iter()
                .map(|&shard| {
                    s.spawn(move || {
                        let t0 = spb_obs::clock::now();
                        let r = self.with_shard(shard, f);
                        let ns = spb_obs::clock::nanos_since(t0);
                        shard_latency_hist().record(ns);
                        (r, ns)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(pair) => pair,
                    Err(_) => (
                        Err(RouterError::Shard {
                            shard: usize::MAX,
                            source: ClientError::Unexpected("scatter worker panicked".to_owned()),
                        }),
                        0,
                    ),
                })
                .collect::<Vec<_>>()
        });
        straggler_hist().record(wave.iter().map(|&(_, ns)| ns).max().unwrap_or(0));
        wave.into_iter().map(|(r, _)| r).collect()
    }

    /// `RQ(q, r)` across the cluster. Hits carry global ids and come
    /// back sorted by id; stats are the sum over the queried shards.
    pub fn range(&self, q: &O, radius: f64) -> Result<(Vec<WireHit>, WireStats), RouterError> {
        self.range_scatter(q, QueryPlan::exact(QueryShape::Range { radius }), radius)
    }

    /// `kNN(q, k)` across the cluster, in ascending-bound waves under a
    /// shrinking global radius. Results are byte-identical to a single
    /// node over the union of the shards, tie-breaks included.
    pub fn knn(&self, q: &O, k: usize) -> Result<(Vec<WireNn>, WireStats), RouterError> {
        self.knn_scatter(q, QueryPlan::exact(QueryShape::Knn { k }), k)
    }

    /// Runs `plan` for every query across the cluster, one answer row
    /// per query — the same contract as a single node's
    /// [`IndexService::query`](spb_server::IndexService::query). Each
    /// query routes independently (per-query shard pruning differs). An
    /// approximate plan's factor is forwarded to every shard unchanged.
    pub fn query(&self, plan: QueryPlan, qs: &[O]) -> Result<Answers, RouterError> {
        match plan.shape() {
            QueryShape::Range { radius } => qs
                .iter()
                .map(|q| self.range_scatter(q, plan, radius))
                .collect::<Result<_, _>>()
                .map(Answers::Range),
            QueryShape::Knn { k } => qs
                .iter()
                .map(|q| self.knn_scatter(q, plan, k))
                .collect::<Result<_, _>>()
                .map(Answers::Knn),
        }
    }

    /// The range body: one wave of `plan` over every shard its *true*
    /// `radius` can reach. With a contraction each shard contracts its own
    /// pruning radius while checking candidates against `radius`, so the merged
    /// answer keeps perfect precision; shard pruning never contracts — a
    /// contracted fan-out would compound the recall loss invisibly.
    fn range_scatter(
        &self,
        q: &O,
        plan: QueryPlan,
        radius: f64,
    ) -> Result<(Vec<WireHit>, WireStats), RouterError> {
        let qp = self.q_phi(q);
        let obj = encode(q);
        // Prune only on a strictly larger bound: a shard whose bound
        // ties the radius can still hold boundary hits.
        let targets: Vec<usize> = (0..self.nodes.len())
            .filter(|&i| shard_mind(&qp, &self.nodes[i].route.mbb) <= radius)
            .collect();
        fanout_hist().record(targets.len() as u64);
        let results = self.scatter(&targets, &|c: &mut Client| {
            c.query(plan, vec![obj.clone()], 0)
        })?;

        let mut hits = Vec::new();
        let mut stats = WireStats::default();
        for answers in results {
            // `Client::query` lets only range rows answer a range plan.
            if let Answers::Range(rows) = answers {
                for (part_hits, part_stats) in rows {
                    sum_stats(&mut stats, &part_stats);
                    hits.extend(part_hits);
                }
            }
        }
        hits.sort_unstable_by_key(|&(id, _)| id);
        Ok((hits, stats))
    }

    /// The kNN body: shrinking-radius waves of `plan` (a kNN plan for `k`)
    /// in ascending shard-bound order. With an α every shard answers its
    /// α-approximate top-`k`, while wave pruning still compares shard bounds against
    /// the merged k-th distance unrelaxed (shard pruning must not
    /// compound the per-shard approximation); the merged list is the best
    /// `k` of the shards' candidates, so every returned distance is
    /// within α of the true k-th NN distance.
    fn knn_scatter(
        &self,
        q: &O,
        plan: QueryPlan,
        k: usize,
    ) -> Result<(Vec<WireNn>, WireStats), RouterError> {
        let mut stats = WireStats::default();
        if k == 0 || self.nodes.is_empty() {
            fanout_hist().record(0);
            return Ok((Vec::new(), stats));
        }
        let qp = self.q_phi(q);
        let obj = encode(q);
        let bounds: Vec<f64> = self
            .nodes
            .iter()
            .map(|n| shard_mind(&qp, &n.route.mbb))
            .collect();
        let min_bound = bounds.iter().copied().fold(f64::INFINITY, f64::min);

        let mut visited = vec![false; self.nodes.len()];
        let mut best: Vec<WireNn> = Vec::new();
        // First wave: every shard tying the minimum bound. Later waves:
        // every unvisited shard whose bound does not strictly exceed
        // the current k-th distance (ties never prune).
        let mut wave: Vec<usize> = (0..self.nodes.len())
            .filter(|&i| bounds[i] <= min_bound)
            .collect();
        let mut fanout = 0u64;
        while !wave.is_empty() {
            fanout += wave.len() as u64;
            let results =
                self.scatter(&wave, &|c: &mut Client| c.query(plan, vec![obj.clone()], 0))?;
            let mut lists = vec![std::mem::take(&mut best)];
            for (&shard, answers) in wave.iter().zip(results) {
                visited[shard] = true;
                // `Client::query` lets only kNN rows answer a kNN plan.
                if let Answers::Knn(rows) = answers {
                    for (nns, part_stats) in rows {
                        sum_stats(&mut stats, &part_stats);
                        lists.push(nns);
                    }
                }
            }
            best = merge_topk(k, lists);
            let r_k = if best.len() >= k {
                best.last().map(|&(_, d, _)| d).unwrap_or(f64::INFINITY)
            } else {
                f64::INFINITY
            };
            wave = (0..self.nodes.len())
                .filter(|&i| !visited[i] && bounds[i] <= r_k)
                .collect();
        }
        fanout_hist().record(fanout);
        Ok((best, stats))
    }

    /// The merged observability snapshot of every shard primary.
    pub fn obs_stats(&self) -> Result<spb_obs::Snapshot, RouterError> {
        let targets: Vec<usize> = (0..self.nodes.len()).collect();
        let snaps = self.scatter(&targets, &|c: &mut Client| c.obs_stats())?;
        Ok(merge_snapshots(snaps))
    }

    /// Asks every shard primary to drain and exit (replicas are owned
    /// by whoever launched them — see [`Cluster`](crate::Cluster)).
    pub fn shutdown(&self) -> Result<(), RouterError> {
        let targets: Vec<usize> = (0..self.nodes.len()).collect();
        self.scatter(&targets, &|c: &mut Client| c.shutdown())?;
        Ok(())
    }
}

fn encode<O: MetricObject>(q: &O) -> Vec<u8> {
    let mut buf = Vec::new();
    q.encode(&mut buf);
    buf
}
