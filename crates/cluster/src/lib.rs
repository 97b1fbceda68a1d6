//! # spb-cluster: a multi-node SPB-tree
//!
//! The SPB-tree maps metric objects onto a linear space-filling-curve
//! key space, which makes *range partitioning* the natural scale-out
//! axis: this crate composes the existing single-node pieces into a
//! sharded, replicated cluster without touching the query algorithms.
//!
//! Three layers:
//!
//! 1. **Shard planning** ([`spb_core::plan_shards`]): pivots are
//!    selected once over the full dataset, every object is mapped to
//!    its SFC key exactly as a single-node build would, and the sorted
//!    run is cut into `N` contiguous key ranges. Each shard bulk-loads
//!    its members with the *shared* pivot set, so per-shard answers
//!    merge into results byte-identical to a single node's.
//! 2. **Scatter-gather routing** ([`Router`]): queries fan out over the
//!    CRC-framed wire protocol to every shard that can contribute —
//!    shards are pruned with a per-shard pivot-space lower bound
//!    ([`spb_core::shard_mind`]), kNN proceeds in waves under a
//!    monotonically shrinking global radius, and per-query
//!    [`WireStats`](spb_server::wire::WireStats) are summed across
//!    shards. Fan-out and straggler latency feed `cluster.*`
//!    histograms in `spb-obs`.
//! 3. **Log-shipping read replicas** ([`Replica`]): a replica
//!    bootstraps from a checkpoint snapshot of its primary's directory,
//!    then pulls raw CRC-framed WAL segments over the `WalShip` wire op
//!    and applies them through the existing recovery path. The router
//!    fails reads over to a replica when a primary sheds
//!    (`Overloaded`), drains (`ShuttingDown`) or drops off the network.
//!
//! [`Cluster`] wires the three together in-process (one TCP server per
//! shard and per replica on loopback), which is what
//! `spb-cli cluster --shards N --replicas R` launches.

mod cluster;
mod replica;
mod router;

pub use cluster::{Cluster, ClusterConfig};
pub use replica::{Replica, ReplicaError, ReplicaService};
pub use router::{merge_topk, sum_stats, Router, RouterError};
