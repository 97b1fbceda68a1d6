//! What both passes share: generated inputs, building and serving the
//! index, the linear-scan oracle and the crash-and-reopen check.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use spb_core::{SpbConfig, SpbTree};
use spb_metric::{Distance, MetricObject};
use spb_server::{serve, Client, ServerConfig, ServerHandle, TreeService};
use spb_storage::fault::{is_injected_crash, FaultMode, FaultPlan};

use crate::exec::{Answer, Exec, InProc, Remote};
use crate::gen::Digest;
use crate::plan::{Kind, Op, Plan, Scale, Spec, DATA_SEED};
use crate::space::{self, Space};

pub type Tree<S> = SpbTree<<S as Space>::Obj, <S as Space>::Dist>;

/// One run's inputs and scratch directory.
pub struct Ctx<S: Space> {
    pub spec: &'static Spec,
    pub plan: Plan,
    /// `plan.n` indexed objects followed by the pool.
    pub objects: Vec<S::Obj>,
    pub radius: f64,
    /// Hash of the indexed objects and every op list.
    pub digest: u64,
    /// Scratch directory of this run, removed when the context drops.
    pub dir: PathBuf,
}

impl<S: Space> Ctx<S> {
    pub fn new(spec: &'static Spec, scale: Scale, seconds: u64, seed: u64, out: &Path) -> Ctx<S> {
        let plan = Plan::new(spec, scale, seconds, seed);
        let objects = S::generate(plan.generated, DATA_SEED);
        let mut d = Digest::default();
        let mut buf = Vec::new();
        for o in &objects[..plan.n] {
            d.object(o, &mut buf);
        }
        plan.digest(&mut d);
        let dir = out.join(format!("{}-{}", spec.name, std::process::id()));
        Ctx {
            spec,
            plan,
            objects,
            radius: space::radius(spec),
            digest: d.finish(),
            dir,
        }
    }

    /// Where the I/O reference files go: beside the index.
    pub fn scratch(&self) -> PathBuf {
        self.dir.join("ref")
    }

    pub fn indexed(&self) -> &[S::Obj] {
        &self.objects[..self.plan.n]
    }

    pub fn config(&self) -> SpbConfig {
        SpbConfig {
            cache_pages: self.spec.cache_pages,
            ..SpbConfig::default()
        }
    }

    /// Builds the workload's index in a fresh `sub` directory.
    pub fn build(&self, sub: &str) -> io::Result<(PathBuf, Tree<S>)> {
        let dir = self.dir.join(sub);
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        let tree = SpbTree::build(&dir, self.indexed(), S::metric(), &self.config())?;
        Ok((dir, tree))
    }

    pub fn inproc<'a>(&'a self, tree: &'a Tree<S>) -> InProc<'a, S> {
        InProc {
            tree,
            objects: &self.objects,
            radius: self.radius,
            k: self.spec.k,
        }
    }

    /// Every generated object in wire form, for the served workloads.
    pub fn encoded(&self) -> Arc<Vec<Vec<u8>>> {
        Arc::new(self.objects.iter().map(MetricObject::encoded).collect())
    }

    pub fn remotes(
        &self,
        addr: std::net::SocketAddr,
        encoded: &Arc<Vec<Vec<u8>>>,
        clients: usize,
    ) -> io::Result<Vec<Remote>> {
        (0..clients)
            .map(|_| Remote::connect(addr, Arc::clone(encoded), self.radius, self.spec.k))
            .collect()
    }
}

impl<S: Space> Drop for Ctx<S> {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Serves `tree` on a loopback port with two dispatcher workers and two
/// batch workers (the machine has two cores), and waits for the first
/// `Ping` to answer.
pub fn serve_tree<S: Space>(tree: Tree<S>) -> io::Result<ServerHandle> {
    let cfg = ServerConfig {
        worker_threads: 2,
        dispatcher_workers: 2,
        ..ServerConfig::default()
    };
    let handle = serve(
        Box::new(TreeService::new(tree, S::schema())),
        "127.0.0.1:0",
        cfg,
    )?;
    let mut client = Client::connect(handle.addr()).map_err(io::Error::other)?;
    client.ping().map_err(io::Error::other)?;
    Ok(handle)
}

/// Re-answers `op` by a linear scan of `indexed` with the raw metric and
/// compares ids and distances. kNN ties at the k-th distance may be
/// broken either way, so distances must match as a list and every
/// returned id must really lie at its reported distance.
pub fn check_answer<S: Space>(
    indexed: &[S::Obj],
    q: &S::Obj,
    op: Op,
    radius: f64,
    k: usize,
    answer: &Answer,
) -> Result<(), String> {
    let metric = S::metric();
    let mut scan: Vec<(f64, u32)> = indexed
        .iter()
        .enumerate()
        .map(|(i, o)| (metric.distance(q, o), i as u32))
        .collect();
    let object_of = |id: u32, bytes: &[u8]| -> Result<(), String> {
        let stored = indexed
            .get(id as usize)
            .ok_or_else(|| format!("{op:?}: id {id} was never indexed"))?;
        if S::Obj::try_decode(bytes).as_ref() != Some(stored) {
            return Err(format!("{op:?}: id {id} came back as another object"));
        }
        Ok(())
    };
    match (op.kind, answer) {
        (Kind::Range, Answer::Range(hits)) => {
            let mut want: Vec<u32> = scan
                .iter()
                .filter(|&&(d, _)| d <= radius)
                .map(|&(_, id)| id)
                .collect();
            let mut got: Vec<u32> = hits.iter().map(|h| h.0).collect();
            want.sort_unstable();
            got.sort_unstable();
            if want != got {
                return Err(format!(
                    "{op:?}: range returned {} ids, the scan {}",
                    got.len(),
                    want.len()
                ));
            }
            hits.iter()
                .try_for_each(|(id, bytes)| object_of(*id, bytes))
        }
        (Kind::Knn, Answer::Knn(nn)) => {
            scan.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            let want: Vec<f64> = scan.iter().take(k).map(|&(d, _)| d).collect();
            let got: Vec<f64> = nn.iter().map(|h| h.1).collect();
            if want != got {
                return Err(format!("{op:?}: kNN distances {got:?}, the scan {want:?}"));
            }
            for (id, d, bytes) in nn {
                object_of(*id, bytes)?;
                if metric.distance(q, &indexed[*id as usize]) != *d {
                    return Err(format!("{op:?}: id {id} is not at distance {d}"));
                }
            }
            Ok(())
        }
        _ => Err(format!("{op:?} answered with the wrong kind")),
    }
}

/// Runs the plan's oracle reads through `exec` on the pristine index and
/// checks each against the linear scan; with `expected`, also byte for
/// byte against answers taken in-process from the same snapshot.
/// Returns the failures.
pub fn oracle_check<S: Space, E: Exec>(
    ctx: &Ctx<S>,
    exec: &mut E,
    expected: Option<&[Answer]>,
) -> Vec<String> {
    let mut failures = Vec::new();
    for (i, &op) in ctx.plan.oracle.iter().enumerate() {
        let q = &ctx.objects[op.obj as usize];
        let checked = exec.answer(op).and_then(|answer| {
            check_answer::<S>(ctx.indexed(), q, op, ctx.radius, ctx.spec.k, &answer)?;
            match expected {
                Some(exp) if exp[i] != answer => {
                    Err(format!("{op:?}: served bytes differ from in-process bytes"))
                }
                _ => Ok(()),
            }
        });
        if let Err(e) = checked {
            failures.push(e);
        }
    }
    failures
}

/// What the crash-and-reopen check found.
pub struct Durability {
    /// `SpbTree::open` on the crashed directory, WAL replay included.
    pub recovery_s: f64,
    /// Acknowledged updates verified after the reopen.
    pub checked: usize,
    pub failures: Vec<String>,
}

/// Crashes an insert half-way through its durable operations (the write
/// does not reach the file and every later operation fails, as for a
/// dead process), drops the tree, reopens the directory and checks that
/// every acknowledged insert is found and every acknowledged delete is
/// gone. The crashed insert itself may be either, but not torn.
pub fn crash_and_reopen<S: Space>(
    ctx: &Ctx<S>,
    dir: &Path,
    tree: Tree<S>,
    inserted: &[u32],
    deleted: &[u32],
    crash_obj: &S::Obj,
    probe_obj: &S::Obj,
) -> io::Result<(Tree<S>, Durability)> {
    let len_before = tree.len();
    // Count the durable operations of one insert, then crash the next
    // insert half-way through them.
    let ops_per_insert = {
        let guard = FaultPlan {
            scope: dir.to_path_buf(),
            fail_after: u64::MAX,
            mode: FaultMode::Clean,
            seed: 0,
        }
        .install();
        tree.insert(probe_obj)?;
        guard.ops_observed()
    };
    let mut failures = Vec::new();
    {
        let _guard = FaultPlan {
            scope: dir.to_path_buf(),
            fail_after: ops_per_insert / 2,
            mode: FaultMode::Clean,
            seed: 0,
        }
        .install();
        match tree.insert(crash_obj) {
            Err(e) if is_injected_crash(&e) => {}
            Err(e) => return Err(e),
            Ok(_) => failures.push("the injected crash did not fire".to_owned()),
        }
        // Dropped while the plan is still active: the dying process
        // cannot checkpoint on its way out.
        drop(tree);
    }

    let t0 = Instant::now();
    let tree = SpbTree::open(dir, S::metric(), ctx.spec.cache_pages)?;
    let recovery_s = t0.elapsed().as_secs_f64();

    let holds = |o: &S::Obj| -> io::Result<bool> {
        Ok(tree.range(o, 0.0)?.0.iter().any(|(_, found)| found == o))
    };
    if !holds(probe_obj)? {
        failures.push("acknowledged insert before the crash is missing".to_owned());
    }
    for &i in inserted {
        if !holds(&ctx.objects[i as usize])? {
            failures.push(format!("acknowledged insert of object {i} is missing"));
        }
    }
    for &i in deleted {
        if holds(&ctx.objects[i as usize])? {
            failures.push(format!("acknowledged delete of object {i} came back"));
        }
    }
    let want = len_before + 1 + u64::from(holds(crash_obj)?);
    if tree.len() != want {
        failures.push(format!(
            "reopened index holds {} objects, not {want}",
            tree.len()
        ));
    }
    Ok((
        tree,
        Durability {
            recovery_s,
            checked: inserted.len() + deleted.len() + 1,
            failures,
        },
    ))
}

/// Bytes of the index files: B⁺-tree, RAF and WAL.
pub fn storage_bytes(dir: &Path) -> io::Result<u64> {
    ["index.bpt", "objects.raf", "spb.wal"]
        .iter()
        .map(|f| std::fs::metadata(dir.join(f)).map(|m| m.len()))
        .sum()
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
