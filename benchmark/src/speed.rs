//! Two reference kernels, run next to every measurement, and the rule
//! that turns a time measured now into the time it would have taken on
//! an undisturbed machine.
//!
//! This machine (2 vCPUs of a shared host) changes speed by 20–70 % for
//! seconds to minutes at a time, and its `fsync` latency drifts between
//! 100 and 300 µs, with nothing else running in the guest. Every
//! wall-clock metric moves by as much from run to run: on the seed
//! commit the median latency of a read spread by about 10 % over ten
//! runs and the p99 of an insert by 15–30 %, wider than any bound the
//! benchmark could usefully set. The noise is slow, so a fixed piece of
//! work done just before an op measures it:
//!
//! * the **CPU kernel** is a few microseconds of integer arithmetic,
//!   run before every op;
//! * the **I/O kernel** writes 24 KB (about one insert's WAL record) to
//!   a scratch file in the index's directory and `fsync`s it, run before
//!   every eighth update (with several clients, a few times before the
//!   round instead: a client's `fsync` would queue with the server's).
//!
//! An op's time `t` is reported as
//!
//! ```text
//! (t − K · io_now) · CPU_REF / cpu_now + K · IO_REF
//! ```
//!
//! where `K` is the number of durable steps the op waits for: 0 for a
//! read; for an insert or a delete the `fsync`s the program itself
//! counted for the op (`QueryStats::fsyncs`: 1, or more when the update
//! triggered a checkpoint) plus [`UNCOUNTED_STEPS`]. The durable steps
//! are charged at the I/O kernel's undisturbed cost and the rest of the
//! op at the CPU kernel's undisturbed pace. With that the spreads above
//! become about 2–4 % (read p50) and 3–6 % (insert p50). Both kernels run outside the timed region, the time as the
//! clock read it is kept beside the reported one and printed with it,
//! and the kernels' own readings are reported (`trace.calib_ns`,
//! `trace.io_ref_us`). A change to the program cannot move the kernels,
//! so a reported time moves only when the program does.

use std::fs::File;
use std::io;
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::time::Instant;

use crate::plan::Kind;

/// What the CPU kernel takes on this machine when undisturbed.
pub const CPU_REF_NS: f64 = 5_750.0;
/// What the I/O kernel takes on this machine when undisturbed.
pub const IO_REF_NS: f64 = 130_000.0;
/// Durable steps of an update that `QueryStats::fsyncs` does not count:
/// rewriting `spb.meta` is a temp-file create, its `fsync`, a rename and
/// the directory's `fsync`. With the one counted WAL `fsync` that makes
/// 5; a regression of insert time on the I/O kernel's reading gives a
/// slope of 4.8. If the program comes to wait for fewer, its updates are
/// still reported correctly at reference speed, only less steadily.
pub const UNCOUNTED_STEPS: f64 = 4.0;

/// Bytes the I/O kernel writes before its `fsync`.
const IO_BYTES: usize = 24 * 1024;
/// Updates between two runs of the I/O kernel.
const IO_EVERY: usize = 8;

/// The median of the last few readings, so that one preempted reading
/// changes nothing.
struct Window<const N: usize> {
    recent: [f64; N],
    next: usize,
    filled: usize,
}

impl<const N: usize> Window<N> {
    fn new() -> Self {
        Window {
            recent: [0.0; N],
            next: 0,
            filled: 0,
        }
    }

    fn push(&mut self, reading: f64) {
        self.recent[self.next] = reading;
        self.next = (self.next + 1) % N;
        self.filled = (self.filled + 1).min(N);
    }

    fn median(&self) -> Option<f64> {
        let mut seen = self.recent[..self.filled].to_vec();
        (!seen.is_empty()).then(|| crate::stats::median(&mut seen))
    }
}

/// One run of the CPU kernel, in ns.
pub fn cpu_reading() -> f64 {
    let t0 = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0u64;
    for i in 0..6_000u64 {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        acc = acc.wrapping_add(x >> (i & 31));
    }
    std::hint::black_box(acc);
    t0.elapsed().as_nanos() as f64
}

/// The scale of one long CPU-side measurement (a build, a probe batch):
/// the CPU kernel is read a few times before `f` and a few times after.
pub fn around<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let mut w = Window::<7>::new();
    (0..3).for_each(|_| w.push(cpu_reading()));
    let out = f();
    (0..3).for_each(|_| w.push(cpu_reading()));
    (out, CPU_REF_NS / w.median().expect("six readings"))
}

/// The kernels' readings next to one op.
#[derive(Clone, Copy, Debug)]
pub struct Reference {
    cpu_ns: f64,
    io_ns: f64,
}

impl Reference {
    /// What an op of `kind` that took `raw_ns` now, and for which the
    /// program counted `fsyncs`, would have taken on the undisturbed
    /// machine (see the module docs).
    pub fn at_reference(&self, kind: Kind, raw_ns: f64, fsyncs: u64) -> f64 {
        let steps = match kind {
            Kind::Insert | Kind::Delete => UNCOUNTED_STEPS + fsyncs as f64,
            Kind::Range | Kind::Knn | Kind::Checkpoint => 0.0,
        };
        // An op cannot have spent more than most of its time waiting.
        let waited = (steps * self.io_ns).min(0.8 * raw_ns);
        (raw_ns - waited) * CPU_REF_NS / self.cpu_ns + waited * IO_REF_NS / self.io_ns
    }
}

fn io_reading(file: &File) -> io::Result<f64> {
    let buf = [0x5Au8; IO_BYTES];
    let t0 = Instant::now();
    file.write_all_at(&buf, 0)?;
    file.sync_all()?;
    Ok(t0.elapsed().as_nanos() as f64)
}

/// The I/O kernel's median over a few runs now, for clients that must
/// not run it themselves.
fn io_level(dir: &Path) -> io::Result<f64> {
    std::fs::create_dir_all(dir)?;
    let file = File::create(dir.join("io-ref-shared.bin"))?;
    let mut readings = (0..5)
        .map(|_| io_reading(&file))
        .collect::<io::Result<Vec<_>>>()?;
    Ok(crate::stats::median(&mut readings))
}

/// Hands the clients of one round their gauges. A lone client runs both
/// kernels itself. Several clients run only the CPU kernel and share an
/// I/O level measured here, before the round: a client's `fsync` would
/// queue with the server's.
pub struct Gauges<'a> {
    dir: &'a Path,
    shared_io: Option<f64>,
}

impl<'a> Gauges<'a> {
    /// `dir` must be on the file system the index lives on.
    pub fn new(dir: &'a Path, clients: usize) -> io::Result<Gauges<'a>> {
        let shared_io = if clients > 1 {
            Some(io_level(dir)?)
        } else {
            None
        };
        Ok(Gauges { dir, shared_io })
    }

    pub fn client(&self, client: usize) -> io::Result<Gauge> {
        match self.shared_io {
            Some(level) => Ok(Gauge::sharing(level)),
            None => Gauge::open(self.dir, client),
        }
    }
}

/// One client's view of the machine's speed.
pub struct Gauge {
    cpu: Window<7>,
    io: Window<5>,
    /// `None` when the I/O level was measured for this client.
    file: Option<File>,
    updates: usize,
}

impl Gauge {
    /// A gauge that runs both kernels itself. `dir` must be on the file
    /// system the index lives on.
    pub fn open(dir: &Path, client: usize) -> io::Result<Gauge> {
        std::fs::create_dir_all(dir)?;
        Ok(Gauge {
            cpu: Window::new(),
            io: Window::new(),
            file: Some(File::create(dir.join(format!("io-ref-{client}.bin")))?),
            updates: 0,
        })
    }

    /// A gauge that runs only the CPU kernel and takes the I/O level as
    /// given.
    fn sharing(io_ns: f64) -> Gauge {
        let mut io = Window::new();
        io.push(io_ns);
        Gauge {
            cpu: Window::new(),
            io,
            file: None,
            updates: 0,
        }
    }

    /// Runs the kernels that are due before an op of `kind`. `quick`
    /// skips the I/O kernel (the open loop passes it when the next op is
    /// nearly due) unless it has never run.
    pub fn before(&mut self, kind: Kind, quick: bool) -> Reference {
        self.cpu.push(cpu_reading());
        if let (Some(file), false) = (&self.file, kind.is_read()) {
            let due = self.updates.is_multiple_of(IO_EVERY) && !quick;
            self.updates += 1;
            if due || self.io.filled == 0 {
                // A failed reading leaves the window as it was; the op
                // that follows fails on the same disk and is reported.
                if let Ok(ns) = io_reading(file) {
                    self.io.push(ns);
                }
            }
        }
        Reference {
            cpu_ns: self.cpu.median().expect("just pushed"),
            io_ns: self.io.median().unwrap_or(IO_REF_NS),
        }
    }

    /// Median of the recent readings of each kernel, in ns.
    pub fn readings(&self) -> (Option<f64>, Option<f64>) {
        (self.cpu.median(), self.io.median())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_outlier_does_not_move_the_window() {
        let mut w = Window::<7>::new();
        assert!(w.median().is_none());
        for r in [10.0, 11.0, 9.0, 500.0, 10.0] {
            w.push(r);
        }
        assert_eq!(w.median(), Some(10.0));
        (0..7).for_each(|_| w.push(20.0));
        assert_eq!(w.median(), Some(20.0));
    }

    #[test]
    fn reads_scale_with_the_cpu_kernel_and_updates_are_charged_reference_io() {
        let slow = Reference {
            cpu_ns: 2.0 * CPU_REF_NS,
            io_ns: 3.0 * IO_REF_NS,
        };
        // A read on a machine at half speed is reported at half its time.
        assert_eq!(slow.at_reference(Kind::Range, 1_000_000.0, 0), 500_000.0);
        // An insert: its five durable steps at a third, the rest at half.
        let steps = UNCOUNTED_STEPS + 1.0;
        let t = steps * 3.0 * IO_REF_NS + 2_000_000.0;
        let want = 1_000_000.0 + steps * IO_REF_NS;
        assert!((slow.at_reference(Kind::Insert, t, 1) - want).abs() < 1e-6);
        // One that also checkpointed (three more counted fsyncs) and
        // took as much longer is charged three more reference steps.
        let t = t + 3.0 * 3.0 * IO_REF_NS;
        let want = want + 3.0 * IO_REF_NS;
        assert!((slow.at_reference(Kind::Insert, t, 4) - want).abs() < 1e-6);
        // At reference speed nothing changes.
        let still = Reference {
            cpu_ns: CPU_REF_NS,
            io_ns: IO_REF_NS,
        };
        assert_eq!(
            still.at_reference(Kind::Insert, 1_234_567.0, 1),
            1_234_567.0
        );
        assert_eq!(still.at_reference(Kind::Knn, 7.0, 0), 7.0);
        // An op faster than its presumed waits is not driven negative.
        assert!(slow.at_reference(Kind::Delete, 100_000.0, 1) > 0.0);
    }

    #[test]
    fn the_io_kernel_runs_for_updates_only_and_not_for_sharing_gauges() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("gauge-test-{}", std::process::id()));
        let mut g = Gauge::open(&dir, 0).unwrap();
        g.before(Kind::Range, false);
        assert!(g.readings().1.is_none(), "no update yet, no I/O reading");
        g.before(Kind::Insert, true);
        assert_eq!(g.io.filled, 1, "the first update reads even when quick");
        for _ in 0..IO_EVERY {
            g.before(Kind::Insert, false);
        }
        assert_eq!(g.io.filled, 2);
        let gauges = Gauges::new(&dir, 2).unwrap();
        let level = gauges.shared_io.expect("two clients share a level");
        assert!(level > 0.0);
        let mut shared = gauges.client(1).unwrap();
        for _ in 0..2 * IO_EVERY {
            shared.before(Kind::Insert, false);
        }
        assert_eq!(shared.readings().1, Some(level));
        assert!(Gauges::new(&dir, 1).unwrap().shared_io.is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
