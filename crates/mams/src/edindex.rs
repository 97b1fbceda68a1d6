//! The eD-index (Dohnal, Gennaro & Zezula, DEXA 2003) — the index-based
//! similarity-join baseline of Fig. 17.
//!
//! The D-index hashes objects through levels of **ρ-split functions**: a
//! ball-partitioning split `bps_{x, dm, ρ}(o)` maps `o` to `0` when
//! `d(o, x) ≤ dm − ρ`, to `1` when `d(o, x) > dm + ρ`, and to the
//! *exclusion set* otherwise. Combining `m` splits yields `2^m` separable
//! buckets per level — objects in different buckets of one level are more
//! than `2ρ` apart. Exclusion objects cascade to the next level; the last
//! level's exclusion forms a final bucket.
//!
//! The **eD-index** extension *overloads* the exclusion set for joins:
//! every bucketed object whose split distance falls within ε of a
//! boundary is **also copied** into the exclusion set, so any pair within
//! `ε ≤ 2ρ` meets in some bucket. The similarity join then scans each
//! bucket once with a sliding window over the stored pivot distances.
//!
//! Two properties of the original are faithfully reproduced (and visible
//! in Fig. 17):
//!
//! * ε is fixed **at build time** — larger query thresholds require a
//!   rebuild ([`EdIndex::join`] rejects `eps > build ε`);
//! * overloading duplicates objects, so the join re-reads duplicated
//!   pages ("lots of duplicated page accesses", Section 6.4).

use std::collections::HashSet;
use std::io;
use std::path::Path;

use rand::prelude::*;
use rand::rngs::StdRng;

use spb_core::{BuildStats, QueryStats};

/// A similarity-join result: `(q_id, o_id, distance)` triples plus stats.
type JoinResult = io::Result<(Vec<(u32, u32, f64)>, QueryStats)>;
use spb_metric::{CountingDistance, DistCounter, Distance, MetricObject};
use spb_obs::clock;
use spb_storage::{BufferPool, Page, PageId, Pager, PAGE_DATA_SIZE, PAGE_SIZE};

/// eD-index tuning parameters.
#[derive(Clone, Copy, Debug)]
pub struct EdIndexParams {
    /// Number of hash levels.
    pub levels: usize,
    /// ρ-split functions per level (`2^m` buckets each).
    pub splits_per_level: usize,
    /// The exclusion-zone half-width ρ. Join thresholds up to `2ρ` are
    /// supported; the default ties ρ to ε at build.
    pub rho: f64,
    /// The build-time join threshold ε (the eD-index's hard limit).
    pub eps: f64,
    /// Page-cache capacity.
    pub cache_pages: usize,
    /// RNG seed for pivot choice.
    pub seed: u64,
}

impl EdIndexParams {
    /// Sensible defaults for a build-time threshold `eps`.
    pub fn for_eps(eps: f64) -> Self {
        EdIndexParams {
            levels: 4,
            splits_per_level: 3,
            rho: eps.max(f64::MIN_POSITIVE),
            eps,
            cache_pages: 32,
            seed: 0xed1d,
        }
    }
}

struct BucketMeta {
    start: PageId,
    bytes: u64,
    count: u32,
}

/// One stored (possibly duplicated) object instance.
struct StoredEntry<O> {
    from_q: bool,
    id: u32,
    pivot_dist: f64,
    obj: O,
}

/// A disk-based eD-index over two tagged sets, supporting similarity joins
/// up to the build-time ε.
pub struct EdIndex<O: MetricObject, D: Distance<O>> {
    metric: CountingDistance<D>,
    counter: DistCounter,
    pool: BufferPool,
    buckets: Vec<BucketMeta>,
    eps_build: f64,
    build_stats: BuildStats,
    _marker: std::marker::PhantomData<O>,
}

impl<O: MetricObject, D: Distance<O>> EdIndex<O, D> {
    /// Builds an eD-index over the tagged union of `q_set` and `o_set` in
    /// `dir/edindex.db`.
    pub fn build(
        dir: &Path,
        q_set: &[O],
        o_set: &[O],
        metric: D,
        params: &EdIndexParams,
    ) -> io::Result<Self> {
        assert!(
            params.eps <= 2.0 * params.rho + 1e-12,
            "the eD-index requires eps <= 2*rho (separability)"
        );
        std::fs::create_dir_all(dir)?;
        let start = clock::now();
        let counter = DistCounter::new();
        let metric = CountingDistance::with_counter(metric, counter.clone());
        let pool = BufferPool::new(Pager::create(&dir.join("edindex.db"))?, params.cache_pages);
        let meta = pool.allocate()?;
        debug_assert_eq!(meta, PageId(0));

        // The working set: (tag, id, pivot_dist) triples; `pivot_dist` is
        // the distance to the current level's first split pivot.
        struct Work {
            from_q: bool,
            id: u32,
            pivot_dist: f64,
        }
        let obj = |w: &Work| -> &O {
            if w.from_q {
                &q_set[w.id as usize]
            } else {
                &o_set[w.id as usize]
            }
        };
        let mut current: Vec<Work> = (0..q_set.len() as u32)
            .map(|i| Work {
                from_q: true,
                id: i,
                pivot_dist: 0.0,
            })
            .chain((0..o_set.len() as u32).map(|i| Work {
                from_q: false,
                id: i,
                pivot_dist: 0.0,
            }))
            .collect();

        let mut rng = StdRng::seed_from_u64(params.seed);
        let mut buckets: Vec<BucketMeta> = Vec::new();
        let write_bucket =
            |entries: &[(&Work, f64)], pool: &BufferPool| -> io::Result<Option<BucketMeta>> {
                if entries.is_empty() {
                    return Ok(None);
                }
                let mut bytes: Vec<u8> = Vec::new();
                for (w, d) in entries {
                    let ob = obj(w).encoded();
                    bytes.push(w.from_q as u8);
                    bytes.extend_from_slice(&w.id.to_le_bytes());
                    bytes.extend_from_slice(&d.to_le_bytes());
                    bytes.extend_from_slice(&(ob.len() as u32).to_le_bytes());
                    bytes.extend_from_slice(&ob);
                }
                let mut start: Option<PageId> = None;
                for chunk in bytes.chunks(PAGE_DATA_SIZE) {
                    let page_id = pool.allocate()?;
                    if start.is_none() {
                        start = Some(page_id);
                    }
                    let mut p = Page::new();
                    p.write_slice(0, chunk);
                    pool.write(page_id, p)?;
                }
                Ok(Some(BucketMeta {
                    start: start.expect("at least one page"),
                    bytes: bytes.len() as u64,
                    count: entries.len() as u32,
                }))
            };

        for _level in 0..params.levels {
            if current.len() <= 8 {
                break; // too few for useful splitting; final bucket below
            }
            // ρ-split functions: random pivots, median dm.
            let m = params.splits_per_level.min(8);
            let pivot_objs: Vec<O> = (0..m)
                .map(|_| {
                    let w = &current[rng.gen_range(0..current.len())];
                    obj(w).clone()
                })
                .collect();
            // Distance matrix: dists[s][i] = d(current[i], pivot s).
            let dists: Vec<Vec<f64>> = pivot_objs
                .iter()
                .map(|p| current.iter().map(|w| metric.distance(obj(w), p)).collect())
                .collect();
            let dms: Vec<f64> = dists
                .iter()
                .map(|row| {
                    let mut v = row.clone();
                    v.sort_by(f64::total_cmp);
                    v[v.len() / 2]
                })
                .collect();

            // Assign each object to a bucket / the exclusion set, with
            // ε-overloading duplication.
            let mut level_buckets: Vec<Vec<(usize, f64)>> = vec![Vec::new(); 1 << m];
            let mut exclusion: Vec<usize> = Vec::new();
            for (i, _w) in current.iter().enumerate() {
                let mut code = 0usize;
                let mut excluded = false;
                let mut near_boundary = false;
                for s in 0..m {
                    let d = dists[s][i];
                    let (dm, rho, eps) = (dms[s], params.rho, params.eps);
                    if d <= dm - rho {
                        code <<= 1; // bit 0
                        if d > dm - rho - eps {
                            near_boundary = true;
                        }
                    } else if d > dm + rho {
                        code = (code << 1) | 1;
                        if d <= dm + rho + eps {
                            near_boundary = true;
                        }
                    } else {
                        excluded = true;
                        break;
                    }
                }
                if excluded {
                    exclusion.push(i);
                } else {
                    level_buckets[code].push((i, dists[0][i]));
                    if near_boundary {
                        exclusion.push(i); // ε-overloading duplication
                    }
                }
            }
            // Persist this level's buckets.
            for bucket in &level_buckets {
                let entries: Vec<(&Work, f64)> =
                    bucket.iter().map(|&(i, d)| (&current[i], d)).collect();
                if let Some(meta) = write_bucket(&entries, &pool)? {
                    buckets.push(meta);
                }
            }
            // Cascade the exclusion set, remembering the first split
            // distance for the final bucket's sliding window.
            let next: Vec<Work> = exclusion
                .into_iter()
                .map(|i| Work {
                    from_q: current[i].from_q,
                    id: current[i].id,
                    pivot_dist: dists[0][i],
                })
                .collect();
            current = next;
        }
        // Final exclusion bucket.
        {
            let entries: Vec<(&Work, f64)> = current.iter().map(|w| (w, w.pivot_dist)).collect();
            if let Some(meta) = write_bucket(&entries, &pool)? {
                buckets.push(meta);
            }
        }

        let build_stats = BuildStats {
            compdists: counter.get(),
            pivot_compdists: 0,
            page_accesses: pool.stats().page_accesses(),
            duration: start.elapsed(),
            storage_bytes: pool.num_pages() * PAGE_SIZE as u64,
            num_objects: (q_set.len() + o_set.len()) as u64,
        };
        pool.reset_stats();
        counter.reset();

        Ok(EdIndex {
            metric,
            counter,
            pool,
            buckets,
            eps_build: params.eps,
            build_stats,
            _marker: std::marker::PhantomData,
        })
    }

    fn read_bucket(&self, meta: &BucketMeta) -> io::Result<Vec<StoredEntry<O>>> {
        let mut bytes = vec![0u8; meta.bytes as usize];
        let mut filled = 0usize;
        let mut page_no = meta.start.0;
        while filled < bytes.len() {
            let take = (bytes.len() - filled).min(PAGE_DATA_SIZE);
            let p = self.pool.read(PageId(page_no))?;
            bytes[filled..filled + take].copy_from_slice(p.read_slice(0, take));
            filled += take;
            page_no += 1;
        }
        let mut out = Vec::with_capacity(meta.count as usize);
        let mut off = 0usize;
        for _ in 0..meta.count {
            let from_q = bytes[off] != 0;
            let id = u32::from_le_bytes(bytes[off + 1..off + 5].try_into().expect("4"));
            let pivot_dist = f64::from_le_bytes(bytes[off + 5..off + 13].try_into().expect("8"));
            let len = u32::from_le_bytes(bytes[off + 13..off + 17].try_into().expect("4")) as usize;
            let obj = O::decode(&bytes[off + 17..off + 17 + len]);
            out.push(StoredEntry {
                from_q,
                id,
                pivot_dist,
                obj,
            });
            off += 17 + len;
        }
        Ok(out)
    }

    /// `SJ(Q, O, eps)` for `eps ≤` the build-time ε: one sliding-window
    /// scan per bucket, deduplicating pairs found through overloaded
    /// copies.
    ///
    /// # Panics
    /// Panics when `eps` exceeds the build-time ε (the original eD-index
    /// must be rebuilt for larger thresholds; Fig. 17 relies on this
    /// limitation).
    pub fn join(&self, eps: f64) -> JoinResult {
        assert!(
            eps <= self.eps_build + 1e-12,
            "eD-index was built for eps <= {}, got {eps}; rebuild required",
            self.eps_build
        );
        let snap = (self.counter.get(), self.pool.stats(), clock::now());
        let mut seen: HashSet<(u32, u32)> = HashSet::new();
        let mut out = Vec::new();
        for meta in &self.buckets {
            let mut entries = self.read_bucket(meta)?;
            entries.sort_by(|a, b| a.pivot_dist.total_cmp(&b.pivot_dist));
            for i in 0..entries.len() {
                for j in i + 1..entries.len() {
                    // Sliding window on the stored pivot distance.
                    if entries[j].pivot_dist - entries[i].pivot_dist > eps {
                        break;
                    }
                    let (a, b) = (&entries[i], &entries[j]);
                    if a.from_q == b.from_q {
                        continue;
                    }
                    let (qi, oi) = if a.from_q { (a.id, b.id) } else { (b.id, a.id) };
                    if seen.contains(&(qi, oi)) {
                        continue;
                    }
                    let d = self.metric.distance(&a.obj, &b.obj);
                    if d <= eps {
                        seen.insert((qi, oi));
                        out.push((qi, oi, d));
                    }
                }
            }
        }
        let (c0, io0, t0) = snap;
        let io1 = self.pool.stats();
        let pa = io1.page_accesses() - io0.page_accesses();
        Ok((
            out,
            QueryStats {
                compdists: self.counter.since(c0),
                page_accesses: pa,
                btree_pa: pa,
                raf_pa: 0,
                fsyncs: 0,
                duration: t0.elapsed(),
                recall: None,
            },
        ))
    }

    /// Construction costs.
    pub fn build_stats(&self) -> BuildStats {
        self.build_stats
    }

    /// Total storage in bytes (inflated by overloading duplicates).
    pub fn storage_bytes(&self) -> u64 {
        self.pool.num_pages() * PAGE_SIZE as u64
    }

    /// Flushes the page cache.
    pub fn flush_caches(&self) {
        self.pool.flush_cache();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spb_metric::dataset;
    use spb_metric::Distance;
    use spb_storage::TempDir;

    fn brute<O: MetricObject, D: Distance<O>>(
        q: &[O],
        o: &[O],
        metric: &D,
        eps: f64,
    ) -> Vec<(u32, u32)> {
        let mut pairs = Vec::new();
        for (i, a) in q.iter().enumerate() {
            for (j, b) in o.iter().enumerate() {
                if metric.distance(a, b) <= eps {
                    pairs.push((i as u32, j as u32));
                }
            }
        }
        pairs.sort_unstable();
        pairs
    }

    #[test]
    fn join_matches_bruteforce_words() {
        let q = dataset::words(250, 111);
        let o = dataset::words(250, 112);
        let m = dataset::words_metric();
        for eps in [1.0, 2.0] {
            let dir = TempDir::new("ed-words");
            let idx = EdIndex::build(dir.path(), &q, &o, m, &EdIndexParams::for_eps(eps)).unwrap();
            idx.flush_caches();
            let (pairs, stats) = idx.join(eps).unwrap();
            let mut got: Vec<(u32, u32)> = pairs.iter().map(|&(a, b, _)| (a, b)).collect();
            got.sort_unstable();
            assert_eq!(got, brute(&q, &o, &m, eps), "eps={eps}");
            assert!(stats.page_accesses > 0);
        }
    }

    #[test]
    fn join_matches_bruteforce_color() {
        let q = dataset::color(250, 113);
        let o = dataset::color(250, 114);
        let m = dataset::color_metric();
        let eps = 0.05;
        let dir = TempDir::new("ed-color");
        let idx = EdIndex::build(dir.path(), &q, &o, m, &EdIndexParams::for_eps(eps)).unwrap();
        let (pairs, _) = idx.join(eps).unwrap();
        let mut got: Vec<(u32, u32)> = pairs.iter().map(|&(a, b, _)| (a, b)).collect();
        got.sort_unstable();
        assert_eq!(got, brute(&q, &o, &m, eps));
    }

    #[test]
    fn smaller_query_eps_is_allowed() {
        let q = dataset::words(100, 115);
        let o = dataset::words(100, 116);
        let m = dataset::words_metric();
        let dir = TempDir::new("ed-smaller");
        let idx = EdIndex::build(dir.path(), &q, &o, m, &EdIndexParams::for_eps(3.0)).unwrap();
        let (pairs, _) = idx.join(1.0).unwrap();
        let mut got: Vec<(u32, u32)> = pairs.iter().map(|&(a, b, _)| (a, b)).collect();
        got.sort_unstable();
        assert_eq!(got, brute(&q, &o, &dataset::words_metric(), 1.0));
    }

    #[test]
    #[should_panic(expected = "rebuild required")]
    fn larger_query_eps_is_rejected() {
        let q = dataset::words(50, 117);
        let o = dataset::words(50, 118);
        let dir = TempDir::new("ed-reject");
        let idx = EdIndex::build(
            dir.path(),
            &q,
            &o,
            dataset::words_metric(),
            &EdIndexParams::for_eps(1.0),
        )
        .unwrap();
        let _ = idx.join(2.0);
    }

    #[test]
    fn overloading_duplicates_storage() {
        let q = dataset::color(400, 119);
        let o = dataset::color(400, 120);
        let dir = TempDir::new("ed-dup");
        let idx = EdIndex::build(
            dir.path(),
            &q,
            &o,
            dataset::color_metric(),
            &EdIndexParams::for_eps(0.1),
        )
        .unwrap();
        let stored: u32 = idx.buckets.iter().map(|b| b.count).sum();
        assert!(
            stored > 800,
            "overloading must duplicate some instances: {stored}"
        );
    }
}
