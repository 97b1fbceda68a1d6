//! The M-Index (Novak, Batko & Zezula, Information Systems 2011) — the
//! hybrid baseline of Tables 6–7 and Figs. 12–13.
//!
//! The M-Index generalises iDistance to metric spaces: every object is
//! assigned to its **nearest pivot** (a Voronoi-style cluster) and keyed by
//!
//! ```text
//! key(o) = cluster(o) · 2^s + scale(d(o, p_cluster))
//! ```
//!
//! so a single B⁺-tree stores all clusters as disjoint key runs, ordered
//! by distance-to-pivot within each run. A range query visits each cluster
//! whose pivot ball can intersect the query ball and scans the key
//! interval `[d(q, pᵢ) − r, d(q, pᵢ) + r]`, verifying candidates with real
//! distances. kNN runs range queries with a doubling radius, memoising
//! verified objects so each distance is computed once.
//!
//! Matching the paper's setup, pivots are chosen **randomly** (the paper:
//! "the M-Index randomly chooses 20 pivots") and objects live in an RAF in
//! insertion order — the pre-computed distances stored as keys are what
//! inflate its storage in Table 6.

use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use rand::prelude::*;
use rand::rngs::StdRng;

use spb_bptree::{BPlusTree, PointMbb};
use spb_core::{BuildStats, QueryStats};
use spb_metric::{CountingDistance, DistCounter, Distance, MetricObject};
use spb_obs::clock;
use spb_storage::lockrank::{LockRank, RankedMutex};
use spb_storage::{IoStats, Raf, RafPtr, PAGE_SIZE};

/// Bits of each key devoted to the scaled distance.
const DIST_BITS: u32 = 40;
const DIST_MAX: u64 = (1u64 << DIST_BITS) - 1;

/// M-Index tuning parameters.
#[derive(Clone, Copy, Debug)]
pub struct MIndexParams {
    /// Number of pivots (the paper's comparison uses 20, chosen randomly).
    pub num_pivots: usize,
    /// Page-cache capacity for both files.
    pub cache_pages: usize,
    /// RNG seed for the random pivot choice.
    pub seed: u64,
}

impl Default for MIndexParams {
    fn default() -> Self {
        MIndexParams {
            num_pivots: 20,
            cache_pages: 32,
            seed: 0x1dec,
        }
    }
}

/// A disk-based M-Index: random pivots + iDistance keys in a B⁺-tree +
/// RAF.
pub struct MIndex<O: MetricObject, D: Distance<O>> {
    metric: CountingDistance<D>,
    counter: DistCounter,
    pivots: Vec<O>,
    btree: BPlusTree<PointMbb>,
    raf: Raf,
    /// Per-cluster maximum distance-to-pivot (ball radius).
    radii: RankedMutex<Vec<f64>>,
    d_plus: f64,
    len: AtomicU64,
    next_id: AtomicU64,
    build_stats: BuildStats,
}

impl<O: MetricObject, D: Distance<O>> MIndex<O, D> {
    /// Builds an M-Index over `objects` in `dir` (`mindex.bpt` +
    /// `mindex.raf`).
    pub fn build(dir: &Path, objects: &[O], metric: D, params: &MIndexParams) -> io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let start = clock::now();
        let counter = DistCounter::new();
        let metric = CountingDistance::with_counter(metric, counter.clone());
        let d_plus = metric.max_distance();

        let mut rng = StdRng::seed_from_u64(params.seed);
        let k = params.num_pivots.min(objects.len()).max(1);
        let pivots: Vec<O> = if objects.is_empty() {
            Vec::new()
        } else {
            rand::seq::index::sample(&mut rng, objects.len(), k)
                .into_iter()
                .map(|i| objects[i].clone())
                .collect()
        };

        let raf = Raf::create(&dir.join("mindex.raf"), params.cache_pages)?;
        let btree = BPlusTree::create(&dir.join("mindex.bpt"), params.cache_pages, PointMbb)?;
        let mut radii = vec![0.0f64; pivots.len().max(1)];

        // Assign clusters (counted: |O| · |P| distances) and key objects.
        // All pivot distances are retained: like the real M-Index, they are
        // stored with the object and power multi-pivot filtering at query
        // time (this is also what inflates its storage in Table 6).
        let mut keyed: Vec<(u128, usize, Vec<f64>)> = Vec::with_capacity(objects.len());
        for (i, o) in objects.iter().enumerate() {
            let dists: Vec<f64> = pivots.iter().map(|p| metric.distance(o, p)).collect();
            let (c, d) = dists
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.total_cmp(b.1))
                .map(|(c, &d)| (c, d))
                .expect("at least one pivot");
            radii[c] = radii[c].max(d);
            keyed.push((Self::key(c, d, d_plus), i, dists));
        }
        keyed.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));

        // RAF in key order (clusters are contiguous on disk, like the real
        // M-Index's bucket organisation). Each record is prefixed by the
        // object's pre-computed pivot distances.
        let mut entries: Vec<(u128, u64)> = Vec::with_capacity(keyed.len());
        let mut buf = Vec::new();
        for (key, idx, dists) in &keyed {
            buf.clear();
            for d in dists {
                buf.extend_from_slice(&d.to_le_bytes());
            }
            objects[*idx].encode(&mut buf);
            let ptr = raf.append(*idx as u32, &buf)?;
            entries.push((*key, ptr.offset));
        }
        raf.flush()?;
        btree.bulk_load(entries)?;

        let build_stats = BuildStats {
            compdists: counter.get(),
            pivot_compdists: 0,
            page_accesses: btree.io_stats().page_accesses() + raf.io_stats().page_accesses(),
            duration: start.elapsed(),
            storage_bytes: (btree.num_pages() + raf.num_pages()) * PAGE_SIZE as u64,
            num_objects: objects.len() as u64,
        };
        btree.pool().reset_stats();
        raf.reset_stats();
        counter.reset();

        Ok(MIndex {
            metric,
            counter,
            pivots,
            btree,
            raf,
            radii: RankedMutex::new(LockRank::BaselineRoot, radii),
            d_plus,
            len: AtomicU64::new(objects.len() as u64),
            next_id: AtomicU64::new(objects.len() as u64),
            build_stats,
        })
    }

    fn key(cluster: usize, d: f64, d_plus: f64) -> u128 {
        let frac = (d / d_plus).clamp(0.0, 1.0);
        let scaled = (frac * DIST_MAX as f64).round() as u64;
        ((cluster as u128) << DIST_BITS) | scaled as u128
    }

    /// Lower/upper keys of cluster `c` for distances in `[lo, hi]`, with a
    /// one-step guard band against the key rounding.
    fn key_range(&self, c: usize, lo: f64, hi: f64) -> (u128, u128) {
        let scale = |d: f64| ((d / self.d_plus).clamp(0.0, 1.0) * DIST_MAX as f64) as u64;
        let lo_s = scale(lo).saturating_sub(1);
        let hi_s = (scale(hi) + 2).min(DIST_MAX);
        (
            ((c as u128) << DIST_BITS) | lo_s as u128,
            ((c as u128) << DIST_BITS) | hi_s as u128,
        )
    }

    /// Fetches one record: `(id, pre-computed pivot distances, object)`.
    fn fetch(&self, offset: u64) -> io::Result<(u32, Vec<f64>, O)> {
        let e = self.raf.get(RafPtr { offset })?;
        let p = self.pivots.len();
        let mut dists = Vec::with_capacity(p);
        for i in 0..p {
            dists.push(f64::from_le_bytes(
                e.bytes[8 * i..8 * i + 8].try_into().expect("8 bytes"),
            ));
        }
        Ok((e.id, dists, O::decode(&e.bytes[8 * p..])))
    }

    /// `RQ(q, O, r)`: per-cluster key-interval scans + verification.
    pub fn range(&self, q: &O, r: f64) -> io::Result<(Vec<(u32, O)>, QueryStats)> {
        let snap = self.snapshot();
        let mut out = Vec::new();
        if !self.pivots.is_empty() && r >= 0.0 {
            let q_dists: Vec<f64> = self
                .pivots
                .iter()
                .map(|p| self.metric.distance(q, p))
                .collect();
            let radii = self.radii.lock().clone();
            for (c, &dq) in q_dists.iter().enumerate() {
                // The cluster ball cannot intersect the query ball.
                if dq - r > radii[c] {
                    continue;
                }
                let lo = (dq - r).max(0.0);
                let hi = (dq + r).min(radii[c]);
                let (klo, khi) = self.key_range(c, lo, hi);
                for (_, offset) in self.btree.scan_range(klo, khi)? {
                    let (id, dists, o) = self.fetch(offset)?;
                    // Multi-pivot filter (the stored pre-computed
                    // distances): discard without computing d(q, o).
                    let pruned = q_dists
                        .iter()
                        .zip(&dists)
                        .any(|(&dq, &do_)| (dq - do_).abs() > r);
                    if pruned {
                        continue;
                    }
                    if self.metric.distance(q, &o) <= r {
                        out.push((id, o));
                    }
                }
            }
        }
        Ok((out, self.stats_since(snap)))
    }

    /// `kNN(q, k)` by doubling-radius range queries with memoised
    /// verification (each object's distance is computed at most once per
    /// query; page accesses of repeated scans are honestly re-counted).
    pub fn knn(&self, q: &O, k: usize) -> spb_core::KnnResult<O> {
        let snap = self.snapshot();
        let mut verified: HashMap<u32, (O, f64)> = HashMap::new();
        if k > 0 && !self.pivots.is_empty() && !self.is_empty() {
            let q_dists: Vec<f64> = self
                .pivots
                .iter()
                .map(|p| self.metric.distance(q, p))
                .collect();
            let radii = self.radii.lock().clone();
            let mut r = self.d_plus / 128.0;
            loop {
                for (c, &dq) in q_dists.iter().enumerate() {
                    if dq - r > radii[c] {
                        continue;
                    }
                    let lo = (dq - r).max(0.0);
                    let hi = (dq + r).min(radii[c]);
                    let (klo, khi) = self.key_range(c, lo, hi);
                    for (_, offset) in self.btree.scan_range(klo, khi)? {
                        let (id, dists, o) = self.fetch(offset)?;
                        let pruned = q_dists
                            .iter()
                            .zip(&dists)
                            .any(|(&dq, &do_)| (dq - do_).abs() > r);
                        if pruned {
                            continue;
                        }
                        verified.entry(id).or_insert_with(|| {
                            let d = self.metric.distance(q, &o);
                            (o, d)
                        });
                    }
                }
                let enough = {
                    let mut within: Vec<f64> = verified
                        .values()
                        .map(|&(_, d)| d)
                        .filter(|&d| d <= r)
                        .collect();
                    within.sort_by(f64::total_cmp);
                    within.len() >= k
                };
                if enough || r >= self.d_plus {
                    break;
                }
                r *= 2.0;
            }
        }
        let mut out: Vec<(u32, O, f64)> = verified
            .into_iter()
            .map(|(id, (o, d))| (id, o, d))
            .collect();
        out.sort_by(|a, b| a.2.total_cmp(&b.2).then(a.0.cmp(&b.0)));
        out.truncate(k);
        Ok((out, self.stats_since(snap)))
    }

    /// Inserts one object.
    pub fn insert(&self, o: &O) -> io::Result<QueryStats> {
        let snap = self.snapshot();
        let dists: Vec<f64> = self
            .pivots
            .iter()
            .map(|p| self.metric.distance(o, p))
            .collect();
        let (c, d) = dists
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .map(|(c, &d)| (c, d))
            .expect("at least one pivot");
        {
            let mut radii = self.radii.lock();
            radii[c] = radii[c].max(d);
        }
        let id = self.next_id.fetch_add(1, Ordering::SeqCst) as u32;
        let mut buf = Vec::new();
        for dd in &dists {
            buf.extend_from_slice(&dd.to_le_bytes());
        }
        o.encode(&mut buf);
        let ptr = self.raf.append(id, &buf)?;
        self.raf.flush()?;
        self.btree
            .insert(Self::key(c, d, self.d_plus), ptr.offset)?;
        self.len.fetch_add(1, Ordering::SeqCst);
        Ok(self.stats_since(snap))
    }

    /// Number of indexed objects.
    pub fn len(&self) -> u64 {
        self.len.load(Ordering::SeqCst)
    }

    /// True iff empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Construction costs (a Table 6 row).
    pub fn build_stats(&self) -> BuildStats {
        self.build_stats
    }

    /// Total storage in bytes.
    pub fn storage_bytes(&self) -> u64 {
        (self.btree.num_pages() + self.raf.num_pages()) * PAGE_SIZE as u64
    }

    /// Flushes both page caches.
    pub fn flush_caches(&self) {
        self.btree.pool().flush_cache();
        self.raf.flush_cache();
    }

    /// Sets both cache capacities.
    pub fn set_cache_capacity(&self, pages: usize) {
        self.btree.pool().set_capacity(pages);
        self.raf.set_cache_capacity(pages);
    }

    fn snapshot(&self) -> (u64, IoStats, IoStats, Instant) {
        (
            self.counter.get(),
            self.btree.io_stats(),
            self.raf.io_stats(),
            clock::now(),
        )
    }

    fn stats_since(&self, snap: (u64, IoStats, IoStats, Instant)) -> QueryStats {
        let (c0, b0, r0, t0) = snap;
        let b1 = self.btree.io_stats();
        let r1 = self.raf.io_stats();
        let btree_pa = b1.page_accesses() - b0.page_accesses();
        let raf_pa = r1.page_accesses() - r0.page_accesses();
        QueryStats {
            compdists: self.counter.since(c0),
            page_accesses: btree_pa + raf_pa,
            btree_pa,
            raf_pa,
            fsyncs: 0,
            duration: t0.elapsed(),
            recall: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spb_metric::dataset;
    use spb_storage::TempDir;

    #[test]
    fn range_matches_bruteforce() {
        let data = dataset::words(500, 91);
        let dir = TempDir::new("mindex-range");
        let t = MIndex::build(
            dir.path(),
            &data,
            dataset::words_metric(),
            &MIndexParams::default(),
        )
        .unwrap();
        for q in data.iter().take(6) {
            for r in [0.0, 1.0, 3.0] {
                let (hits, _) = t.range(q, r).unwrap();
                let mut got: Vec<u32> = hits.iter().map(|&(id, _)| id).collect();
                got.sort_unstable();
                let mut want: Vec<u32> = data
                    .iter()
                    .enumerate()
                    .filter(|(_, o)| dataset::words_metric().distance(q, o) <= r)
                    .map(|(i, _)| i as u32)
                    .collect();
                want.sort_unstable();
                assert_eq!(got, want, "r={r}");
            }
        }
    }

    #[test]
    fn knn_matches_bruteforce() {
        let data = dataset::color(400, 92);
        let dir = TempDir::new("mindex-knn");
        let t = MIndex::build(
            dir.path(),
            &data,
            dataset::color_metric(),
            &MIndexParams::default(),
        )
        .unwrap();
        for q in data.iter().take(5) {
            let (nn, _) = t.knn(q, 8).unwrap();
            assert_eq!(nn.len(), 8);
            let mut dists: Vec<f64> = data
                .iter()
                .map(|o| dataset::color_metric().distance(q, o))
                .collect();
            dists.sort_by(f64::total_cmp);
            for (i, &(_, _, d)) in nn.iter().enumerate() {
                assert!((d - dists[i]).abs() < 1e-9, "rank {i}");
            }
        }
    }

    #[test]
    fn inserts_are_searchable() {
        let data = dataset::words(300, 93);
        let dir = TempDir::new("mindex-ins");
        let t = MIndex::build(
            dir.path(),
            &data[..200],
            dataset::words_metric(),
            &MIndexParams::default(),
        )
        .unwrap();
        for o in &data[200..] {
            t.insert(o).unwrap();
        }
        assert_eq!(t.len(), 300);
        let q = &data[250];
        let (hits, _) = t.range(q, 0.0).unwrap();
        assert!(hits.iter().any(|(_, o)| o == q));
    }

    #[test]
    fn construction_counts_assignment_distances() {
        let data = dataset::color(300, 94);
        let dir = TempDir::new("mindex-cost");
        let t = MIndex::build(
            dir.path(),
            &data,
            dataset::color_metric(),
            &MIndexParams::default(),
        )
        .unwrap();
        // Cluster assignment computes all 20 pivot distances per object.
        assert_eq!(t.build_stats().compdists, 300 * 20);
    }
}
