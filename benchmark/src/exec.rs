//! Executing op lists: in-process against an `SpbTree`, or over TCP
//! against `spb_server`, in a closed loop or on an open-loop schedule.

use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use spb_core::{QueryStats, SpbTree};
use spb_metric::MetricObject;
use spb_server::wire::{
    frame_into, read_frame_into, WireHit, WireNn, WireStats, DEFAULT_MAX_FRAME,
};
use spb_server::{Request, Response};

use crate::plan::{Kind, Op};
use crate::space::Space;
use crate::speed::Gauges;
use crate::trace::{SpanId, Tracer, NO_PARENT};

/// What one operation cost, from the program's own counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct Outcome {
    pub compdists: u64,
    pub page_accesses: u64,
    pub btree_pa: u64,
    pub raf_pa: u64,
    pub fsyncs: u64,
    /// Objects returned (reads) or removed (deletes).
    pub results: u64,
    /// WAL bytes the op committed (in-process only; the server's
    /// commits are read off the shared histogram per phase).
    pub wal_bytes: u64,
}

impl Outcome {
    fn from_query(s: &QueryStats, results: usize) -> Outcome {
        Outcome {
            compdists: s.compdists,
            page_accesses: s.page_accesses,
            btree_pa: s.btree_pa,
            raf_pa: s.raf_pa,
            fsyncs: s.fsyncs,
            results: results as u64,
            wal_bytes: 0,
        }
    }

    fn from_wire(s: &WireStats, results: usize) -> Outcome {
        Outcome::from_query(&QueryStats::from(s), results)
    }
}

/// A read's answer in wire form, so an in-process answer and a served
/// one can be compared byte for byte.
#[derive(Clone, Debug, PartialEq)]
pub enum Answer {
    Range(Vec<WireHit>),
    Knn(Vec<WireNn>),
}

pub trait Exec: Send {
    /// Runs one op. The caller owns the op's span; an executor adds
    /// child spans under `parent` for the boundaries it crosses itself.
    fn exec(&mut self, op: Op, tr: &mut Tracer, parent: SpanId, id: u64)
        -> Result<Outcome, String>;

    /// Runs a read and returns what it answered.
    fn answer(&mut self, op: Op) -> Result<Answer, String>;
}

/// Total bytes committed to any WAL of this process so far.
pub fn wal_bytes_committed() -> u64 {
    spb_obs::histogram("wal.commit_bytes").snapshot().sum
}

/// Calls straight into an `SpbTree` on the caller's thread.
pub struct InProc<'a, S: Space> {
    pub tree: &'a SpbTree<S::Obj, S::Dist>,
    pub objects: &'a [S::Obj],
    pub radius: f64,
    pub k: usize,
}

impl<S: Space> Exec for InProc<'_, S> {
    fn exec(&mut self, op: Op, _: &mut Tracer, _: SpanId, _: u64) -> Result<Outcome, String> {
        let o = &self.objects[op.obj as usize];
        let io = |e: std::io::Error| e.to_string();
        match op.kind {
            Kind::Range => {
                let (hits, s) = self.tree.range(o, self.radius).map_err(io)?;
                Ok(Outcome::from_query(&s, hits.len()))
            }
            Kind::Knn => {
                let (nn, s) = self.tree.knn(o, self.k).map_err(io)?;
                Ok(Outcome::from_query(&s, nn.len()))
            }
            Kind::Insert => {
                let before = wal_bytes_committed();
                let s = self.tree.insert(o).map_err(io)?;
                let mut out = Outcome::from_query(&s, 0);
                out.wal_bytes = wal_bytes_committed() - before;
                Ok(out)
            }
            Kind::Delete => {
                let before = wal_bytes_committed();
                let (found, s) = self.tree.delete(o).map_err(io)?;
                if !found {
                    return Err(format!("delete of indexed object {} found nothing", op.obj));
                }
                let mut out = Outcome::from_query(&s, 1);
                out.wal_bytes = wal_bytes_committed() - before;
                Ok(out)
            }
            Kind::Checkpoint => {
                self.tree.checkpoint().map_err(io)?;
                Ok(Outcome::default())
            }
        }
    }

    fn answer(&mut self, op: Op) -> Result<Answer, String> {
        let o = &self.objects[op.obj as usize];
        match op.kind {
            Kind::Range => {
                let (hits, _) = self.tree.range(o, self.radius).map_err(|e| e.to_string())?;
                Ok(Answer::Range(
                    hits.into_iter().map(|(id, o)| (id, o.encoded())).collect(),
                ))
            }
            Kind::Knn => {
                let (nn, _) = self.tree.knn(o, self.k).map_err(|e| e.to_string())?;
                Ok(Answer::Knn(
                    nn.into_iter()
                        .map(|(id, o, d)| (id, d, o.encoded()))
                        .collect(),
                ))
            }
            other => Err(format!("{other:?} has no answer")),
        }
    }
}

/// One blocking connection, built from the wire module's public
/// functions so that the traced pass can put a span on each of
/// `wire.encode → client.wait → wire.decode`.
pub struct Remote {
    stream: TcpStream,
    /// Encoded objects, indexed like the generated objects.
    encoded: Arc<Vec<Vec<u8>>>,
    radius: f64,
    k: u32,
    wr: Vec<u8>,
    rd: Vec<u8>,
}

impl Remote {
    pub fn connect(
        addr: SocketAddr,
        encoded: Arc<Vec<Vec<u8>>>,
        radius: f64,
        k: usize,
    ) -> std::io::Result<Remote> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Remote {
            stream,
            encoded,
            radius,
            k: k as u32,
            wr: Vec::new(),
            rd: Vec::new(),
        })
    }

    fn request(&self, op: Op) -> Result<Request, String> {
        let obj = self.encoded[op.obj as usize].clone();
        Ok(match op.kind {
            Kind::Range => Request::Range {
                deadline_ms: 0,
                radius: self.radius,
                obj,
            },
            Kind::Knn => Request::Knn {
                deadline_ms: 0,
                k: self.k,
                obj,
            },
            Kind::Insert => Request::Insert {
                deadline_ms: 0,
                obj,
            },
            Kind::Delete => Request::Delete {
                deadline_ms: 0,
                obj,
            },
            Kind::Checkpoint => return Err("the wire protocol has no checkpoint op".into()),
        })
    }

    fn round_trip(
        &mut self,
        op: Op,
        tr: &mut Tracer,
        parent: SpanId,
        id: u64,
    ) -> Result<Response, String> {
        let span = tr.enter("wire.encode", parent, id);
        let req = self.request(op)?;
        self.wr.clear();
        frame_into(&mut self.wr, |out| req.encode_into(out));
        tr.exit(span);

        let span = tr.enter("client.wait", parent, id);
        self.stream.write_all(&self.wr).map_err(|e| e.to_string())?;
        read_frame_into(&mut self.stream, DEFAULT_MAX_FRAME, &mut self.rd)
            .map_err(|e| e.to_string())?;
        tr.exit(span);

        let span = tr.enter("wire.decode", parent, id);
        let resp = Response::decode(&self.rd).map_err(|e| e.to_string())?;
        tr.exit(span);
        match resp {
            Response::Error { code, message, .. } => Err(format!("{code}: {message}")),
            resp => Ok(resp),
        }
    }
}

impl Exec for Remote {
    fn exec(
        &mut self,
        op: Op,
        tr: &mut Tracer,
        parent: SpanId,
        id: u64,
    ) -> Result<Outcome, String> {
        match self.round_trip(op, tr, parent, id)? {
            Response::Range { hits, stats } => Ok(Outcome::from_wire(&stats, hits.len())),
            Response::Knn { hits, stats } => Ok(Outcome::from_wire(&stats, hits.len())),
            Response::Insert { stats } => Ok(Outcome::from_wire(&stats, 0)),
            Response::Delete { found: true, stats } => Ok(Outcome::from_wire(&stats, 1)),
            other => Err(format!("{other:?} does not answer {op:?}")),
        }
    }

    fn answer(&mut self, op: Op) -> Result<Answer, String> {
        match self.round_trip(op, &mut Tracer::new(false), NO_PARENT, 0)? {
            Response::Range { hits, .. } => Ok(Answer::Range(hits)),
            Response::Knn { hits, .. } => Ok(Answer::Knn(hits)),
            other => Err(format!("{other:?} does not answer {op:?}")),
        }
    }
}

/// One executed op: how long it took and what it cost.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub kind: Kind,
    /// Time at reference machine speed (see [`crate::speed`]).
    pub ns: u64,
    /// Time as the clock read it.
    pub raw_ns: u64,
    pub out: Outcome,
}

/// One closed-loop pass over every client's op list.
pub struct Round {
    /// First op sent to last reply received, over all clients.
    pub wall_ns: u64,
    /// `samples[client][i]` answers `ops[client][i]`; `None` if it failed.
    pub samples: Vec<Vec<Option<Sample>>>,
    pub failures: Vec<String>,
}

/// Runs `f(client, item)` for every item: inline for one client, on one
/// thread each for several. A panicking client panics the caller.
fn each_client<T: Send, R: Send>(items: Vec<T>, f: impl Fn(usize, T) -> R + Sync) -> Vec<R> {
    if items.len() == 1 {
        return items.into_iter().map(|item| f(0, item)).collect();
    }
    std::thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = items
            .into_iter()
            .enumerate()
            .map(|(c, item)| s.spawn(move || f(c, item)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// Each client sends its next op when the previous one has answered.
/// Clients run on their own threads and start together. Op ids are
/// `id_base + client · 2³² + index`. `scratch` holds the I/O reference
/// files and must be on the index's file system.
pub fn closed_round<E: Exec>(
    execs: &mut [E],
    ops: &[Vec<Op>],
    tracers: &mut [Tracer],
    id_base: u64,
    scratch: &Path,
) -> Round {
    let barrier = Barrier::new(execs.len());
    let gauges = Gauges::new(scratch, execs.len()).expect("scratch is writable");
    let client = |c: usize, (exec, tr): (&mut E, &mut Tracer)| {
        let mut gauge = gauges.client(c).expect("scratch is writable");
        barrier.wait();
        let start = Instant::now();
        let mut samples = Vec::with_capacity(ops[c].len());
        let mut failures = Vec::new();
        for (i, &op) in ops[c].iter().enumerate() {
            let id = id_base + ((c as u64) << 32) + i as u64;
            let reference = gauge.before(op.kind, false);
            let span = tr.enter(op.kind.span(), NO_PARENT, id);
            let t0 = Instant::now();
            let result = exec.exec(op, tr, span, id);
            let ns = t0.elapsed().as_nanos() as u64;
            tr.exit(span);
            samples.push(match result {
                Ok(out) => Some(Sample {
                    kind: op.kind,
                    ns: reference.at_reference(op.kind, ns as f64, out.fsyncs) as u64,
                    raw_ns: ns,
                    out,
                }),
                Err(e) => {
                    failures.push(format!("{op:?}: {e}"));
                    None
                }
            });
        }
        (start, Instant::now(), samples, failures)
    };
    let results = each_client(execs.iter_mut().zip(tracers.iter_mut()).collect(), client);
    let first = results.iter().map(|r| r.0).min().expect("a client");
    let last = results.iter().map(|r| r.1).max().expect("a client");
    let mut round = Round {
        wall_ns: last.duration_since(first).as_nanos() as u64,
        samples: Vec::new(),
        failures: Vec::new(),
    };
    for (_, _, samples, failures) in results {
        round.samples.push(samples);
        round.failures.extend(failures);
    }
    round
}

/// One open-loop step at one offered rate.
pub struct OpenStep {
    pub offered_rps: f64,
    /// Reply time minus the time the op was *due*, so a stall is charged
    /// to every op it delays; at reference speed.
    pub latency_us: Vec<f64>,
    /// How late the generator itself started an op it was free to start
    /// (the previous reply was already in).
    pub gen_late_us: Vec<f64>,
    /// Ops answered per second between the first due time and the last
    /// reply.
    pub achieved_rps: f64,
    /// Median latency of each client's last tenth of ops: a backlog
    /// still growing at the end of the step shows here.
    pub backlog_us: f64,
    pub failures: Vec<String>,
}

/// Sends `ops[client][i]` at `start + i / (rate / clients)`, whether or
/// not earlier ops have answered (a client that is still waiting sends
/// as soon as it is free, and the op's latency still counts from its due
/// time). Clients are staggered evenly within one interval.
pub fn open_step<E: Exec>(
    execs: &mut [E],
    ops: &[Vec<Op>],
    offered_rps: f64,
    scratch: &Path,
) -> OpenStep {
    let clients = execs.len();
    let interval = Duration::from_secs_f64(clients as f64 / offered_rps);
    let barrier = Barrier::new(clients);
    let gauges = Gauges::new(scratch, clients).expect("scratch is writable");
    let client = |c: usize, exec: &mut E| {
        let mut gauge = gauges.client(c).expect("scratch is writable");
        barrier.wait();
        // The first op is due one interval from now, like every other.
        let start = Instant::now() + interval.mul_f64(1.0 + c as f64 / clients as f64);
        let mut tr = Tracer::new(false);
        let mut latency = Vec::with_capacity(ops[c].len());
        let mut gen_late = Vec::new();
        let mut failures = Vec::new();
        let mut last_end = start;
        for (i, &op) in ops[c].iter().enumerate() {
            let due = start + interval.mul_f64(i as f64);
            // The kernels run while the op is not yet due; the slow one
            // only with a millisecond to spare.
            let spare = due.saturating_duration_since(Instant::now());
            let reference = gauge.before(op.kind, spare < Duration::from_millis(1));
            let free_at = Instant::now();
            if free_at < due {
                std::thread::sleep(due - free_at);
            }
            let begin = Instant::now();
            if free_at <= due {
                gen_late.push((begin - due).as_secs_f64() * 1e6);
            }
            let result = exec.exec(op, &mut tr, NO_PARENT, 0);
            let end = Instant::now();
            match result {
                Ok(out) => {
                    let raw_ns = (end - due).as_nanos() as f64;
                    latency.push(reference.at_reference(op.kind, raw_ns, out.fsyncs) / 1e3);
                }
                Err(e) => failures.push(format!("{op:?}: {e}")),
            }
            last_end = end;
        }
        (start, last_end, latency, gen_late, failures)
    };
    let results = each_client(execs.iter_mut().collect(), client);
    let first_due = results.iter().map(|r| r.0).min().expect("a client");
    let last_end = results.iter().map(|r| r.1).max().expect("a client");
    let mut step = OpenStep {
        offered_rps,
        latency_us: Vec::new(),
        gen_late_us: Vec::new(),
        achieved_rps: 0.0,
        backlog_us: 0.0,
        failures: Vec::new(),
    };
    let mut tails = Vec::new();
    for (_, _, latency, gen_late, failures) in results {
        let tenth = latency.len().div_ceil(10).max(5).min(latency.len());
        tails.extend_from_slice(&latency[latency.len() - tenth..]);
        step.latency_us.extend(latency);
        step.gen_late_us.extend(gen_late);
        step.failures.extend(failures);
    }
    if !tails.is_empty() {
        step.backlog_us = crate::stats::median(&mut tails);
    }
    step.achieved_rps =
        step.latency_us.len() as f64 / last_end.duration_since(first_due).as_secs_f64();
    step
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Takes a fixed time per op, whatever it is asked.
    struct Fixed(Duration);

    impl Exec for Fixed {
        fn exec(&mut self, _: Op, _: &mut Tracer, _: SpanId, _: u64) -> Result<Outcome, String> {
            std::thread::sleep(self.0);
            Ok(Outcome::default())
        }

        fn answer(&mut self, _: Op) -> Result<Answer, String> {
            Err("no answers".into())
        }
    }

    /// A scratch directory of the calling test's own, removed on drop.
    struct Scratch(std::path::PathBuf);

    fn scratch(test: &str) -> Scratch {
        Scratch(
            Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("out")
                .join(format!("exec-{test}-{}", std::process::id())),
        )
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn reads(n: usize) -> Vec<Op> {
        vec![
            Op {
                kind: Kind::Range,
                obj: 0
            };
            n
        ]
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        // 2 ms of service offered every 1 ms: op i is due at i ms but
        // cannot start before 2i ms, so its latency grows by about a
        // millisecond per op although each op takes 2 ms.
        let step = open_step(
            &mut [Fixed(Duration::from_millis(2))],
            &[reads(20)],
            1000.0,
            &scratch("due").0,
        );
        assert_eq!(step.latency_us.len(), 20);
        assert!(step.latency_us[19] > 15_000.0, "{:?}", step.latency_us);
        assert!(step.latency_us[19] > step.latency_us[0] + 10_000.0);
        assert!(step.backlog_us > 10_000.0, "{}", step.backlog_us);
        assert!(step.achieved_rps < 600.0, "{}", step.achieved_rps);
        // Only the first op found the generator free at its due time.
        assert_eq!(step.gen_late_us.len(), 1);
    }

    #[test]
    fn open_loop_reports_generator_lateness_when_keeping_up() {
        let step = open_step(
            &mut [Fixed(Duration::from_micros(100))],
            &[reads(20)],
            200.0,
            &scratch("late").0,
        );
        assert_eq!(step.gen_late_us.len(), 20);
        assert!(step.gen_late_us.iter().all(|&l| l >= 0.0));
        assert!(step.latency_us.iter().all(|&l| l < 5_000.0));
        assert!(
            (step.achieved_rps - 200.0).abs() < 30.0,
            "{}",
            step.achieved_rps
        );
    }

    #[test]
    fn closed_loop_keeps_samples_aligned_with_ops() {
        let ops = vec![reads(5), reads(3)];
        let mut execs = [
            Fixed(Duration::from_micros(50)),
            Fixed(Duration::from_micros(50)),
        ];
        let mut tracers = [Tracer::new(true), Tracer::new(true)];
        let round = closed_round(&mut execs, &ops, &mut tracers, 100, &scratch("closed").0);
        assert_eq!(round.samples[0].len(), 5);
        assert_eq!(round.samples[1].len(), 3);
        assert!(round.failures.is_empty());
        assert_eq!(tracers[0].spans().len(), 5);
        assert_eq!(tracers[1].spans()[2].op, 100 + (1 << 32) + 2);
        assert!(round.wall_ns >= 250_000);
    }
}
