//! Request execution against an index, behind a type-erased trait.
//!
//! The wire protocol carries objects as opaque byte strings, so the
//! server does not need to be generic over the object type: a
//! [`TreeService`] wraps one concrete `SpbTree<O, D>` and exposes it as a
//! `dyn` [`IndexService`] that decodes object bytes (via
//! [`MetricObject::try_decode`] — malformed bytes become a typed
//! [`ServiceError::Malformed`], never a panic), runs the query, and
//! re-encodes results.
//!
//! Every query — exact or approximate, single or batched — enters
//! through the one [`IndexService::query`] call carrying a
//! [`QueryPlan`]; a single query is a batch of one. Batches run on the
//! tree's [`query_batch`](SpbTree::query_batch) fan-out, sliced into
//! traversal batches of `threads` queries so a request's deadline is
//! checked *between* slices: an expired budget stops the batch with
//! [`ServiceError::DeadlineExceeded`] instead of running to completion.
//! Per-query results and stats are unaffected by the slicing — each
//! query carries its own collector against a simulated cold cache — so
//! remote batches stay byte-identical to in-process ones.

use std::fmt;
use std::io;

use spb_core::{QueryAnswers, QueryPlan, QueryShape, SpbTree};
use spb_metric::{Distance, MetricObject};

use crate::dispatch::Deadline;
use crate::schema::Schema;
use crate::wire::{WireHit, WireNn, WireStats};

/// Why the service refused or failed a request.
#[derive(Debug)]
pub enum ServiceError {
    /// Object bytes in the request don't decode under the index schema.
    Malformed(String),
    /// The request's deadline expired mid-execution.
    DeadlineExceeded,
    /// The index itself failed (I/O error or invariant violation).
    Internal(String),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Malformed(m) => write!(f, "malformed request: {m}"),
            ServiceError::DeadlineExceeded => write!(f, "deadline exceeded"),
            ServiceError::Internal(m) => write!(f, "internal error: {m}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<io::Error> for ServiceError {
    fn from(e: io::Error) -> Self {
        ServiceError::Internal(e.to_string())
    }
}

/// What a plan answered, one row per query object in input order; the
/// plan's shape decides the kind of row.
#[derive(Clone, Debug, PartialEq)]
pub enum Answers {
    /// `(hits, stats)` rows of a range plan.
    Range(Vec<(Vec<WireHit>, WireStats)>),
    /// `(neighbours, stats)` rows of a kNN plan.
    Knn(Vec<(Vec<WireNn>, WireStats)>),
}

/// A queryable index, erased over the object and distance types.
pub trait IndexService: Send + Sync {
    /// The index's schema.
    fn schema(&self) -> &Schema;

    /// Number of indexed objects.
    fn len(&self) -> u64;

    /// True iff the index holds no objects.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total storage in bytes (B⁺-tree + RAF pages).
    fn storage_bytes(&self) -> u64;

    /// Number of pivots in the pivot table.
    fn num_pivots(&self) -> u32;

    /// Runs `plan` for every encoded query object, fanned over `threads`
    /// workers and deadline-checked between traversal batches. The one
    /// query entry point: a single query passes one object, and the
    /// answers come back one row per object, in input order.
    fn query(
        &self,
        plan: QueryPlan,
        objs: &[Vec<u8>],
        threads: usize,
        deadline: Deadline,
    ) -> Result<Answers, ServiceError>;

    /// Inserts one encoded object.
    fn insert(&self, obj: &[u8]) -> Result<WireStats, ServiceError>;

    /// Deletes one encoded object; `found` reports whether it existed.
    fn delete(&self, obj: &[u8]) -> Result<(bool, WireStats), ServiceError>;

    /// Flushes dirty pages and resets the WAL (used by graceful
    /// shutdown so a clean exit leaves nothing to recover).
    fn checkpoint(&self) -> io::Result<()>;

    /// Replication pull: returns `(wal_len, frames)` — the current
    /// committed WAL length plus the raw CRC-framed records covering
    /// `from_lsn..wal_len`. When the log was reset by a checkpoint since
    /// the caller last pulled, `wal_len` comes back *below* `from_lsn`
    /// with no frames, telling the replica to re-bootstrap. Services
    /// without a WAL answer `Internal`.
    fn wal_segment(&self, from_lsn: u64) -> Result<(u64, Vec<u8>), ServiceError> {
        let _ = from_lsn;
        Err(ServiceError::Internal(
            "this index service does not expose a WAL".to_owned(),
        ))
    }
}

/// [`IndexService`] over one concrete `SpbTree<O, D>`.
pub struct TreeService<O: MetricObject, D: Distance<O>> {
    tree: SpbTree<O, D>,
    schema: Schema,
}

impl<O: MetricObject, D: Distance<O>> TreeService<O, D> {
    /// Wraps a tree and the schema it was built over.
    pub fn new(tree: SpbTree<O, D>, schema: Schema) -> Self {
        TreeService { tree, schema }
    }

    /// The wrapped tree (tests use this to compare against in-process
    /// queries).
    pub fn tree(&self) -> &SpbTree<O, D> {
        &self.tree
    }

    fn decode_obj(&self, obj: &[u8]) -> Result<O, ServiceError> {
        O::try_decode(obj).ok_or_else(|| {
            ServiceError::Malformed(format!(
                "object bytes do not decode under schema {:?}",
                self.schema.to_line()
            ))
        })
    }

    fn decode_objs(&self, objs: &[Vec<u8>]) -> Result<Vec<O>, ServiceError> {
        objs.iter().map(|o| self.decode_obj(o)).collect()
    }
}

/// How many queries run between deadline checks in a batch request: one
/// traversal batch per worker pass.
fn slice_size(threads: usize) -> usize {
    threads.max(1)
}

/// The `phase.traversal` histogram: time inside the index (latch +
/// traversal + buffer I/O + WAL fsync — the sub-phases have their own
/// histograms and are *nested* within this one).
fn traversal_hist() -> &'static std::sync::Arc<spb_obs::Histogram> {
    static H: std::sync::OnceLock<std::sync::Arc<spb_obs::Histogram>> = std::sync::OnceLock::new();
    H.get_or_init(|| spb_obs::histogram("phase.traversal"))
}

impl<O: MetricObject, D: Distance<O>> IndexService for TreeService<O, D> {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn len(&self) -> u64 {
        self.tree.len()
    }

    fn storage_bytes(&self) -> u64 {
        self.tree.storage_bytes()
    }

    fn num_pivots(&self) -> u32 {
        self.tree.table().num_pivots() as u32
    }

    fn query(
        &self,
        plan: QueryPlan,
        objs: &[Vec<u8>],
        threads: usize,
        deadline: Deadline,
    ) -> Result<Answers, ServiceError> {
        let qs = self.decode_objs(objs)?;
        let mut out = match plan.shape() {
            QueryShape::Range { .. } => Answers::Range(Vec::with_capacity(qs.len())),
            QueryShape::Knn { .. } => Answers::Knn(Vec::with_capacity(qs.len())),
        };
        for slice in qs.chunks(slice_size(threads)) {
            if deadline.expired() {
                return Err(ServiceError::DeadlineExceeded);
            }
            let batch = {
                let _span = spb_obs::span!(traversal_hist(), "traversal");
                self.tree.query_batch(plan, slice, threads)?
            };
            match (batch, &mut out) {
                (QueryAnswers::Range(rows), Answers::Range(out)) => {
                    out.extend(rows.into_iter().map(|(hits, stats)| {
                        let hits = hits.into_iter().map(|(id, o)| (id, o.encoded())).collect();
                        (hits, WireStats::from(&stats))
                    }));
                }
                (QueryAnswers::Knn(rows), Answers::Knn(out)) => {
                    out.extend(rows.into_iter().map(|(nn, stats)| {
                        let nn = nn
                            .into_iter()
                            .map(|(id, o, d)| (id, d, o.encoded()))
                            .collect();
                        (nn, WireStats::from(&stats))
                    }));
                }
                (QueryAnswers::Range(_), Answers::Knn(_))
                | (QueryAnswers::Knn(_), Answers::Range(_)) => {
                    return Err(ServiceError::Internal(
                        "the tree answered a different shape than the plan asked".to_owned(),
                    ));
                }
            }
        }
        Ok(out)
    }

    fn insert(&self, obj: &[u8]) -> Result<WireStats, ServiceError> {
        let o = self.decode_obj(obj)?;
        let stats = {
            let _span = spb_obs::span!(traversal_hist(), "traversal");
            self.tree.insert(&o)?
        };
        Ok(WireStats::from(&stats))
    }

    fn delete(&self, obj: &[u8]) -> Result<(bool, WireStats), ServiceError> {
        let o = self.decode_obj(obj)?;
        let (found, stats) = {
            let _span = spb_obs::span!(traversal_hist(), "traversal");
            self.tree.delete(&o)?
        };
        Ok((found, WireStats::from(&stats)))
    }

    fn checkpoint(&self) -> io::Result<()> {
        self.tree.checkpoint()
    }

    fn wal_segment(&self, from_lsn: u64) -> Result<(u64, Vec<u8>), ServiceError> {
        let wal = self.tree.wal().ok_or_else(|| {
            ServiceError::Internal("index opened without a WAL (non-durable)".to_owned())
        })?;
        let wal_len = wal.len();
        if from_lsn > wal_len {
            // Checkpoint reset the log since the replica last pulled:
            // answer the (shorter) length so it re-bootstraps.
            return Ok((wal_len, Vec::new()));
        }
        let (frames, _) = wal.segment_reader(from_lsn)?.into_valid_prefix();
        Ok((wal_len, frames))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spb_core::SpbConfig;
    use spb_metric::dataset;
    use spb_storage::TempDir;

    fn words_service(
        n: usize,
        seed: u64,
        dir: &TempDir,
    ) -> TreeService<spb_metric::Word, spb_metric::EditDistance> {
        let data = dataset::words(n, seed);
        let tree = SpbTree::build(
            dir.path(),
            &data,
            dataset::words_metric(),
            &SpbConfig::default(),
        )
        .unwrap();
        TreeService::new(tree, Schema::Words { max_len: 40 })
    }

    fn range(radius: f64) -> QueryPlan {
        QueryPlan::exact(QueryShape::Range { radius })
    }

    #[test]
    fn malformed_object_bytes_are_typed_errors() {
        let dir = TempDir::new("svc-malformed");
        let svc = words_service(100, 72, &dir);
        // Invalid UTF-8 can never decode as a Word.
        let err = svc
            .query(range(1.0), &[vec![0xff, 0xfe]], 1, Deadline::none())
            .unwrap_err();
        assert!(matches!(err, ServiceError::Malformed(_)), "{err}");
        let err = svc.insert(&[0xff]).unwrap_err();
        assert!(matches!(err, ServiceError::Malformed(_)), "{err}");
    }

    #[test]
    fn expired_deadline_stops_a_batch() {
        let dir = TempDir::new("svc-deadline");
        let svc = words_service(200, 73, &dir);
        let objs: Vec<Vec<u8>> = (0..32).map(|_| b"carrot".to_vec()).collect();
        let deadline = Deadline::from_ms(1);
        std::thread::sleep(std::time::Duration::from_millis(5));
        let err = svc.query(range(2.0), &objs, 2, deadline).unwrap_err();
        assert!(matches!(err, ServiceError::DeadlineExceeded), "{err}");
    }

    #[test]
    fn batch_slicing_preserves_per_query_results() {
        let dir = TempDir::new("svc-slice");
        let svc = words_service(300, 74, &dir);
        let data = dataset::words(300, 74);
        let objs: Vec<Vec<u8>> = data.iter().take(10).map(|o| o.encoded()).collect();

        let Answers::Range(via_svc) = svc.query(range(2.0), &objs, 2, Deadline::none()).unwrap()
        else {
            panic!("a range plan answers range rows");
        };
        let pairs: Vec<_> = data.iter().take(10).map(|q| (q.clone(), 2.0)).collect();
        let direct = svc.tree().range_batch(&pairs, 2).unwrap();
        assert_eq!(via_svc.len(), direct.len());
        for ((hits, stats), (want_hits, want_stats)) in via_svc.iter().zip(&direct) {
            let want: Vec<WireHit> = want_hits.iter().map(|(id, o)| (*id, o.encoded())).collect();
            assert_eq!(hits, &want);
            assert_eq!(stats.compdists, want_stats.compdists);
            assert_eq!(stats.page_accesses, want_stats.page_accesses);
        }
    }
}
