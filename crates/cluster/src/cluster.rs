//! The in-process cluster harness: plan, build, serve, replicate.
//!
//! [`Cluster::launch`] turns one dataset into a running multi-node
//! deployment on loopback: it plans `N` contiguous SFC-range shards
//! ([`spb_core::plan_shards`]), bulk-loads each shard's own SPB-tree
//! with the shared pivot set, bootstraps `R` read replicas per shard by
//! copying the freshly built directory, and serves every node over TCP
//! (one [`spb_server::serve`] instance each, port 0). `spb-cli cluster`
//! and the end-to-end tests drive clusters through this type; nothing in
//! it is loopback-specific, the routes are plain socket addresses.
//!
//! Writes go to a shard's *primary* ([`Cluster::insert`]), which widens
//! the shard's φ bounding box so routers built afterwards still never
//! prune a shard holding a matching object. Reads go through
//! [`Cluster::router`].

use std::io;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;

use spb_core::{plan_shards, ShardSpec, SpbConfig, SpbTree};
use spb_metric::{Distance, MetricObject};
use spb_server::wire::WireStats;
use spb_server::{
    schema_path, serve, Client, ClientError, Schema, ServerConfig, ServerHandle, TreeService,
};

use crate::replica::{Replica, ReplicaError, ReplicaService};
use crate::router::{Router, ShardRoute};

/// Cluster topology and per-node sizing.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Number of shards (contiguous SFC ranges).
    pub shards: usize,
    /// Read replicas per shard.
    pub replicas: usize,
    /// Page-cache capacity per node. Keep the single-node default (32)
    /// when comparing stats against a single-node index: per-query cost
    /// accounting simulates a cold cache of exactly this capacity.
    pub cache_pages: usize,
    /// Per-node server limits.
    pub server: ServerConfig,
    /// Index build parameters (shared by every shard).
    pub spb: SpbConfig,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            shards: 2,
            replicas: 0,
            cache_pages: 32,
            server: ServerConfig::default(),
            spb: SpbConfig::default(),
        }
    }
}

struct ReplicaNode<O: MetricObject, D: Distance<O> + Clone + 'static> {
    replica: Arc<Replica<O, D>>,
    addr: SocketAddr,
    handle: Option<ServerHandle>,
}

struct ShardNode<O: MetricObject, D: Distance<O> + Clone + 'static> {
    spec: ShardSpec,
    primary_addr: SocketAddr,
    /// `None` once the primary has been killed.
    primary: Option<ServerHandle>,
    replicas: Vec<ReplicaNode<O, D>>,
}

/// A running in-process cluster: one serving primary per shard plus its
/// read replicas. Dropping the cluster shuts every node down.
pub struct Cluster<O: MetricObject, D: Distance<O> + Clone + 'static> {
    pivots: Vec<O>,
    metric: D,
    schema: Schema,
    shards: Vec<ShardNode<O, D>>,
}

impl<O: MetricObject, D: Distance<O> + Clone + 'static> Cluster<O, D> {
    /// Plans, builds and serves a cluster over `objects` under `base`
    /// (`base/shard{i}` per primary, `base/shard{i}-replica{r}` per
    /// replica). Builds are durable: each primary opens with a WAL so
    /// replicas can pull from it.
    pub fn launch(
        base: &Path,
        objects: &[O],
        metric: D,
        schema: Schema,
        cfg: &ClusterConfig,
    ) -> io::Result<Cluster<O, D>> {
        let mut spb = cfg.spb.clone();
        spb.durability = true;
        let plan = plan_shards(objects, &metric, &spb, cfg.shards);

        let mut shards = Vec::with_capacity(plan.shards.len());
        for (i, spec) in plan.shards.iter().enumerate() {
            let dir = base.join(format!("shard{i}"));
            let members = plan.shard_objects(i, objects);
            // Build, then drop: the built tree's WAL is empty, so the
            // drop is a plain close and the directory is a quiescent
            // checkpoint snapshot — exactly what a replica bootstraps
            // from. Objects keep their *global* dataset indices as ids
            // so shard answers tie-break exactly like a single node's.
            let tree = SpbTree::build_with_pivots_ids(
                &dir,
                &members,
                &spec.members,
                metric.clone(),
                plan.pivots.clone(),
                &spb,
                if i == 0 { plan.pivot_compdists } else { 0 },
            )?;
            drop(tree);
            std::fs::write(schema_path(&dir), format!("{}\n", schema.to_line()))?;

            let mut replicas = Vec::with_capacity(cfg.replicas);
            for r in 0..cfg.replicas {
                let rdir = base.join(format!("shard{i}-replica{r}"));
                let replica = Arc::new(Replica::bootstrap(
                    &dir,
                    &rdir,
                    metric.clone(),
                    schema.clone(),
                    cfg.cache_pages,
                )?);
                let handle = serve(
                    Box::new(ReplicaService::new(Arc::clone(&replica))),
                    "127.0.0.1:0",
                    cfg.server,
                )?;
                replicas.push(ReplicaNode {
                    replica,
                    addr: handle.addr(),
                    handle: Some(handle),
                });
            }

            let tree = SpbTree::open(&dir, metric.clone(), cfg.cache_pages)?;
            let service = TreeService::new(tree, schema.clone());
            let handle = serve(Box::new(service), "127.0.0.1:0", cfg.server)?;
            shards.push(ShardNode {
                spec: spec.clone(),
                primary_addr: handle.addr(),
                primary: Some(handle),
                replicas,
            });
        }
        Ok(Cluster {
            pivots: plan.pivots,
            metric,
            schema,
            shards,
        })
    }

    /// Number of shards actually launched (≤ the configured count for
    /// tiny datasets).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The schema every node serves.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The address of shard `shard`'s primary (still meaningful after a
    /// kill: connecting to it is how the router discovers the failure).
    pub fn primary_addr(&self, shard: usize) -> SocketAddr {
        self.shards[shard].primary_addr
    }

    /// The addresses of shard `shard`'s replicas.
    pub fn replica_addrs(&self, shard: usize) -> Vec<SocketAddr> {
        self.shards[shard].replicas.iter().map(|r| r.addr).collect()
    }

    /// A handle on shard `shard`'s replica `r` (tests inspect applied
    /// LSNs through this).
    pub fn replica(&self, shard: usize, r: usize) -> &Arc<Replica<O, D>> {
        &self.shards[shard].replicas[r].replica
    }

    /// A scatter-gather router over the cluster's current routes.
    pub fn router(&self) -> Router<O, D> {
        let routes = self
            .shards
            .iter()
            .map(|s| ShardRoute {
                primary: s.primary_addr,
                replicas: s.replicas.iter().map(|r| r.addr).collect(),
                members: s.spec.members.clone(),
                mbb: s.spec.mbb.clone(),
            })
            .collect();
        Router::new(self.pivots.clone(), self.metric.clone(), routes)
    }

    /// Inserts one object through shard `shard`'s primary, widening the
    /// shard's φ bounding box so routers built *after* this call still
    /// route queries that match the new object to this shard. (The
    /// object's shard-local id is assigned by the primary; cross-shard
    /// global ids only cover the bulk-loaded dataset.)
    pub fn insert(&mut self, shard: usize, o: &O) -> Result<WireStats, ClientError> {
        let mut obj = Vec::new();
        o.encode(&mut obj);
        let mut conn = Client::connect(self.shards[shard].primary_addr)?;
        let stats = conn.insert(&obj, 0)?;
        for (slot, p) in self.shards[shard].spec.mbb.iter_mut().zip(&self.pivots) {
            let d = self.metric.distance(o, p);
            slot.0 = slot.0.min(d);
            slot.1 = slot.1.max(d);
        }
        Ok(stats)
    }

    /// Pulls every replica up to date with its primary. Returns the
    /// total log bytes shipped. Shards whose primary is gone are
    /// skipped (their replicas keep serving at their applied LSN).
    pub fn sync_replicas(&self) -> Result<u64, ReplicaError> {
        let mut shipped = 0;
        for shard in &self.shards {
            if shard.primary.is_none() || shard.replicas.is_empty() {
                continue;
            }
            let mut conn = Client::connect(shard.primary_addr).map_err(ReplicaError::Client)?;
            for node in &shard.replicas {
                loop {
                    let n = node.replica.catch_up(&mut conn)?;
                    shipped += n;
                    if n == 0 {
                        break;
                    }
                }
            }
        }
        Ok(shipped)
    }

    /// Shuts down shard `shard`'s primary (drain, checkpoint, exit) and
    /// forgets its handle. Subsequent reads of this shard only succeed
    /// through a replica.
    pub fn kill_primary(&mut self, shard: usize) -> io::Result<()> {
        match self.shards[shard].primary.take() {
            Some(handle) => handle.join(),
            None => Ok(()),
        }
    }

    /// Shuts the whole cluster down, draining every node.
    pub fn shutdown(mut self) -> io::Result<()> {
        for shard in &mut self.shards {
            if let Some(handle) = shard.primary.take() {
                handle.join()?;
            }
            for node in &mut shard.replicas {
                if let Some(handle) = node.handle.take() {
                    handle.join()?;
                }
            }
        }
        Ok(())
    }
}
