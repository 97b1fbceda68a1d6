//! Log-shipping read replicas.
//!
//! A replica is a full copy of one shard's index directory that stays
//! current by *pulling* the primary's WAL over the `WalShip` wire op and
//! replaying it through the existing recovery path — no new replay code:
//!
//! 1. **Bootstrap**: copy a checkpoint snapshot of the primary's
//!    directory. Opening it runs crash recovery, which redoes whatever
//!    committed transactions the copied log holds and resets the local
//!    log; the replica remembers the primary LSN the snapshot covers.
//! 2. **Catch-up**: ask the primary for `wal[applied_lsn..]`. The reply
//!    is raw CRC-framed records; the replica writes them into its own
//!    (empty) log file and re-opens the tree, so recovery replays them
//!    exactly as it would after a crash. Page records carry full images,
//!    so replay is idempotent and position-independent.
//! 3. **Reset detection**: a checkpoint on the primary truncates its log
//!    to zero, so a `wal_len` *below* the replica's applied LSN means
//!    the shipped stream has a hole — the replica reports
//!    [`ReplicaError::NeedsBootstrap`] instead of guessing.
//!
//! [`ReplicaService`] exposes the replica as a read-only
//! [`IndexService`]: reads delegate to the current serving tree, writes
//! answer a typed error pointing at the primary. The serving tree is
//! swapped under the [`LockRank::ReplicaApply`] lock, which ranks below
//! every storage lock — a reader holds it (shared) across its whole
//! query, so an apply waits for in-flight reads and never yanks pages
//! out from under them.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use spb_core::{QueryPlan, SpbTree, WAL_FILE};
use spb_metric::{Distance, MetricObject};
use spb_server::service::{Answers, IndexService, ServiceError, TreeService};
use spb_server::wire::WireStats;
use spb_server::{ClientError, Deadline, Schema};
use spb_storage::lockrank::{LockRank, RankedRwLock};
use spb_storage::Wal;

/// Why a replica could not serve or catch up.
#[derive(Debug)]
pub enum ReplicaError {
    /// The primary checkpointed (its log reset below our applied LSN):
    /// the shipped stream has a hole and only a fresh snapshot closes it.
    NeedsBootstrap {
        /// The primary LSN this replica had applied through.
        applied_lsn: u64,
        /// The primary's (shorter) current log length.
        primary_len: u64,
    },
    /// The pull from the primary failed.
    Client(ClientError),
    /// Applying the shipped segment failed locally.
    Io(io::Error),
}

impl std::fmt::Display for ReplicaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplicaError::NeedsBootstrap {
                applied_lsn,
                primary_len,
            } => write!(
                f,
                "primary log reset to {primary_len} below applied LSN {applied_lsn}; \
                 replica needs a fresh bootstrap"
            ),
            ReplicaError::Client(e) => write!(f, "wal pull failed: {e}"),
            ReplicaError::Io(e) => write!(f, "wal apply failed: {e}"),
        }
    }
}

impl std::error::Error for ReplicaError {}

impl From<ClientError> for ReplicaError {
    fn from(e: ClientError) -> Self {
        ReplicaError::Client(e)
    }
}

impl From<io::Error> for ReplicaError {
    fn from(e: io::Error) -> Self {
        ReplicaError::Io(e)
    }
}

struct ReplicaState<O: MetricObject, D: Distance<O>> {
    /// The serving tree; `None` between a failed apply and the next
    /// successful one (reads answer `Internal` rather than stale data).
    service: Option<TreeService<O, D>>,
    /// Primary log offset this replica has applied through.
    applied_lsn: u64,
}

/// One shard's log-shipping read replica.
pub struct Replica<O: MetricObject, D: Distance<O> + Clone> {
    dir: PathBuf,
    metric: D,
    schema: Schema,
    cache_pages: usize,
    /// Ranked below every storage rank: readers hold it shared across
    /// whole tree queries; apply takes it exclusively to swap the tree.
    state: RankedRwLock<ReplicaState<O, D>>,
}

impl<O: MetricObject, D: Distance<O> + Clone> Replica<O, D> {
    /// Bootstraps a replica into `dir` from a checkpoint snapshot of the
    /// primary's index directory. The snapshot must be quiescent (taken
    /// while the primary is not committing — e.g. right after a build or
    /// a checkpoint); its WAL's valid prefix becomes the applied LSN.
    pub fn bootstrap(
        snapshot: &Path,
        dir: &Path,
        metric: D,
        schema: Schema,
        cache_pages: usize,
    ) -> io::Result<Self> {
        copy_dir(snapshot, dir)?;
        let wal_path = dir.join(WAL_FILE);
        let applied_lsn = if wal_path.exists() {
            Wal::scan_file(&wal_path)?.valid_len
        } else {
            0
        };
        let replica = Replica {
            dir: dir.to_path_buf(),
            metric,
            schema,
            cache_pages,
            state: RankedRwLock::new(
                LockRank::ReplicaApply,
                ReplicaState {
                    service: None,
                    applied_lsn,
                },
            ),
        };
        // Opening runs recovery: committed records in the copied log are
        // redone and the local log resets to empty.
        let service = replica.open_service()?;
        replica.state.write().service = Some(service);
        Ok(replica)
    }

    /// Primary log offset this replica has applied through.
    pub fn applied_lsn(&self) -> u64 {
        self.state.read().applied_lsn
    }

    /// The replica's index directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Pulls and applies everything the primary has past our applied
    /// LSN. Returns the number of log bytes applied (0 = already caught
    /// up). `primary` must be a connection to this shard's primary.
    pub fn catch_up(&self, primary: &mut spb_server::Client) -> Result<u64, ReplicaError> {
        let from = self.state.read().applied_lsn;
        let (wal_len, frames) = primary.wal_ship(from)?;
        if wal_len < from {
            return Err(ReplicaError::NeedsBootstrap {
                applied_lsn: from,
                primary_len: wal_len,
            });
        }
        if frames.is_empty() {
            return Ok(0);
        }
        self.apply_frames(&frames)
    }

    /// Applies a shipped segment: swap out the serving tree, write the
    /// frames into the (empty) local log, and re-open so recovery
    /// replays them. Holding the state lock exclusively for the whole
    /// swap keeps every reader on a consistent tree.
    fn apply_frames(&self, frames: &[u8]) -> Result<u64, ReplicaError> {
        let mut st = self.state.write();
        // Drop the old tree first: its local WAL is empty (the replica
        // never writes through it), so drop does not checkpoint, it just
        // releases the files.
        st.service = None;
        std::fs::write(self.dir.join(WAL_FILE), frames)?;
        st.service = Some(self.open_service()?);
        st.applied_lsn += frames.len() as u64;
        Ok(frames.len() as u64)
    }

    fn open_service(&self) -> io::Result<TreeService<O, D>> {
        let tree = SpbTree::open(&self.dir, self.metric.clone(), self.cache_pages)?;
        Ok(TreeService::new(tree, self.schema.clone()))
    }
}

/// Recursively copies `src` into `dst` (creating `dst`).
fn copy_dir(src: &Path, dst: &Path) -> io::Result<()> {
    std::fs::create_dir_all(dst)?;
    for entry in std::fs::read_dir(src)? {
        let entry = entry?;
        let to = dst.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &to)?;
        } else {
            std::fs::copy(entry.path(), &to)?;
        }
    }
    Ok(())
}

/// A read-only [`IndexService`] over a [`Replica`] — what a replica
/// server process plugs into `spb_server::serve`.
pub struct ReplicaService<O: MetricObject, D: Distance<O> + Clone> {
    replica: Arc<Replica<O, D>>,
}

impl<O: MetricObject, D: Distance<O> + Clone> ReplicaService<O, D> {
    /// Wraps a replica for serving.
    pub fn new(replica: Arc<Replica<O, D>>) -> Self {
        ReplicaService { replica }
    }

    /// Runs `f` against the current serving tree, holding the state
    /// lock shared so a concurrent apply cannot swap it mid-query.
    fn with_service<T>(
        &self,
        f: impl FnOnce(&TreeService<O, D>) -> Result<T, ServiceError>,
    ) -> Result<T, ServiceError> {
        let st = self.replica.state.read();
        match &st.service {
            Some(svc) => f(svc),
            None => Err(ServiceError::Internal(
                "replica has no serving tree (last apply failed; re-bootstrap)".to_owned(),
            )),
        }
    }
}

impl<O: MetricObject, D: Distance<O> + Clone> IndexService for ReplicaService<O, D> {
    fn schema(&self) -> &Schema {
        &self.replica.schema
    }

    fn len(&self) -> u64 {
        self.with_service(|s| Ok(s.len())).unwrap_or(0)
    }

    fn storage_bytes(&self) -> u64 {
        self.with_service(|s| Ok(s.storage_bytes())).unwrap_or(0)
    }

    fn num_pivots(&self) -> u32 {
        self.with_service(|s| Ok(s.num_pivots())).unwrap_or(0)
    }

    fn query(
        &self,
        plan: QueryPlan,
        objs: &[Vec<u8>],
        threads: usize,
        deadline: Deadline,
    ) -> Result<Answers, ServiceError> {
        self.with_service(|s| s.query(plan, objs, threads, deadline))
    }

    fn insert(&self, _obj: &[u8]) -> Result<WireStats, ServiceError> {
        Err(ServiceError::Internal(
            "replica is read-only; write to the shard primary".to_owned(),
        ))
    }

    fn delete(&self, _obj: &[u8]) -> Result<(bool, WireStats), ServiceError> {
        Err(ServiceError::Internal(
            "replica is read-only; write to the shard primary".to_owned(),
        ))
    }

    fn checkpoint(&self) -> io::Result<()> {
        // Nothing to flush: the replica's local WAL is always empty and
        // its pages are rebuilt from the primary's log.
        Ok(())
    }
}
