//! Kill-and-recover for a *live server*: crash the index under a running
//! `spb-server` at WAL crash points, reopen, and require full recovery.
//!
//! The core crash-recovery suite proves the tree's WAL protocol is sound
//! for in-process callers; this test closes the remaining gap — the whole
//! network stack sits between the client and the WAL. A client applies a
//! deterministic insert/delete workload over TCP while a fault plan
//! crashes every durable operation in turn (cycling clean, torn-write and
//! bit-flip shapes). After each crash the server's remaining machinery is
//! torn down (its checkpoint-on-drain fails, as it would if the process
//! died), the directory is reopened in-process, and the test asserts:
//!
//! * `verify_dir` passes;
//! * every operation the *client was acknowledged* over the wire is
//!   present — a network ack means durable, exactly like a local `Ok`;
//! * the in-flight operation applied atomically or not at all;
//! * a post-recovery range query agrees with brute force.
//!
//! One `#[test]` drives every crash point: the fault registry holds a
//! single global plan, so iterations must not interleave.

use std::path::{Path, PathBuf};

use spb_core::{verify_dir, SpbConfig, SpbTree};
use spb_metric::{dataset, Distance, EditDistance, MetricObject, Word};
use spb_server::client::Client;
use spb_server::schema::{open_index, schema_path, Schema};
use spb_server::server::{serve, ServerConfig};
use spb_storage::fault::{self, FaultMode, FaultPlan};
use spb_storage::TempDir;

const BASELINE: usize = 60;
const CACHE_PAGES: usize = 32;

#[derive(Clone, Debug)]
enum Op {
    Ins(Word),
    Del(Word),
}

fn workload(baseline: &[Word]) -> Vec<Op> {
    vec![
        Op::Ins(Word::new("zzremote0")),
        Op::Ins(Word::new("zzremote1")),
        Op::Del(baseline[5].clone()),
        Op::Ins(Word::new("zzremote2")),
        Op::Del(baseline[23].clone()),
        Op::Ins(Word::new("zzremote3")),
    ]
}

/// Applies the workload over the wire, stopping at the first failure.
/// Returns how many ops were acknowledged and whether the failure looked
/// like the injected crash.
fn apply_remote(client: &mut Client, ops: &[Op]) -> (usize, Option<String>) {
    for (i, op) in ops.iter().enumerate() {
        let r = match op {
            Op::Ins(w) => client.insert(&w.encoded(), 0).map(|_| ()),
            Op::Del(w) => client.delete(&w.encoded(), 0).map(|_| ()),
        };
        if let Err(e) = r {
            return (i, Some(format!("{e}")));
        }
    }
    (ops.len(), None)
}

fn expected_set(baseline: &[Word], ops: &[Op], n: usize) -> Vec<Word> {
    let mut set: Vec<Word> = baseline.to_vec();
    for op in &ops[..n] {
        match op {
            Op::Ins(w) => set.push(w.clone()),
            Op::Del(w) => {
                let pos = set
                    .iter()
                    .position(|x| x == w)
                    .expect("delete target present");
                set.remove(pos);
            }
        }
    }
    set
}

fn copy_dir(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
    }
}

fn build_baseline(root: &Path) -> (PathBuf, Vec<Word>) {
    let base = root.join("base");
    let words = dataset::words(BASELINE, 19);
    let tree = SpbTree::build(
        &base,
        &words,
        EditDistance::default(),
        &SpbConfig::default(),
    )
    .unwrap();
    drop(tree); // clean shutdown: checkpointed, empty WAL
    std::fs::write(schema_path(&base), Schema::Words { max_len: 40 }.to_line()).unwrap();
    assert!(verify_dir(&base).unwrap().ok());
    (base, words)
}

/// Starts a server over `dir` and replays the workload through a client.
/// Returns the number of remotely-acknowledged ops, or `None` if the
/// index wouldn't even open (the crash fired during open/recovery).
fn run_server_workload(dir: &Path, ops: &[Op], expect_crash: bool) -> Option<usize> {
    let service = match open_index(dir, CACHE_PAGES) {
        Ok(s) => s,
        Err(e) => {
            assert!(
                expect_crash && format!("{e}").contains("injected crash"),
                "open failed with a real error: {e}"
            );
            return None;
        }
    };
    let handle = serve(service, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let (acked, err) = apply_remote(&mut client, ops);
    if let Some(msg) = &err {
        assert!(
            expect_crash,
            "workload failed without an injected fault: {msg}"
        );
        // The failure the client saw must be the injected crash (an
        // `Internal` carrying the marker) — never silent data loss.
        assert!(
            msg.contains("injected crash"),
            "remote failure is not the injected crash: {msg}"
        );
    }
    drop(client);
    // Simulated process death: the drain-time checkpoint fails because
    // syncs keep failing after the trip. The join error is expected then.
    let join_result = handle.join();
    if !expect_crash {
        join_result.unwrap();
    }
    Some(acked)
}

fn range_words(tree: &SpbTree<Word, EditDistance>, q: &Word) -> Vec<String> {
    let (hits, _) = tree.range(q, 2.0).unwrap();
    let mut words: Vec<String> = hits.iter().map(|(_, w)| w.as_str().to_owned()).collect();
    words.sort();
    words
}

fn brute_words(set: &[Word], q: &Word) -> Vec<String> {
    let metric = EditDistance::default();
    let mut words: Vec<String> = set
        .iter()
        .filter(|w| metric.distance(q, w) <= 2.0)
        .map(|w| w.as_str().to_owned())
        .collect();
    words.sort();
    words
}

/// Crash at durable op `k` under a live server, reopen, check the
/// consistency contract.
fn crash_and_check(
    base: &Path,
    work: &Path,
    baseline: &[Word],
    ops: &[Op],
    query: &Word,
    k: u64,
    mode: FaultMode,
) {
    copy_dir(base, work);
    let guard = FaultPlan {
        scope: work.to_path_buf(),
        fail_after: k,
        mode,
        seed: 0xc0de ^ k,
    }
    .install();
    let acked = run_server_workload(work, ops, true).unwrap_or(0);
    assert!(guard.tripped(), "k={k}: the crash never fired");
    drop(guard);

    // Reopen in-process: recovery runs inside `open`.
    let tree = SpbTree::open(work, EditDistance::default(), CACHE_PAGES).unwrap();
    let report = verify_dir(work).unwrap();
    assert!(report.ok(), "k={k} ({mode:?}): {:?}", report.problems);

    let len_acked = expected_set(baseline, ops, acked).len() as u64;
    let committed = if tree.len() == len_acked {
        acked
    } else {
        // The in-flight op's commit record hit disk before the crash;
        // the client saw an error only because a later step failed.
        let len_next = expected_set(baseline, ops, (acked + 1).min(ops.len())).len() as u64;
        assert_eq!(
            tree.len(),
            len_next,
            "k={k} ({mode:?}): recovered length matches neither {acked} nor {} applied ops",
            acked + 1
        );
        acked + 1
    };

    let expected = expected_set(baseline, ops, committed);
    for op in &ops[..acked] {
        match op {
            Op::Ins(w) => {
                let (hits, _) = tree.range(w, 0.0).unwrap();
                assert!(
                    hits.iter().any(|(_, x)| x == w),
                    "k={k}: remotely acknowledged insert of {:?} lost",
                    w.as_str()
                );
            }
            Op::Del(w) => {
                let resurrected = {
                    let (hits, _) = tree.range(w, 0.0).unwrap();
                    hits.iter().any(|(_, x)| x == w)
                };
                assert_eq!(
                    resurrected,
                    expected.contains(w),
                    "k={k}: remotely acknowledged delete of {:?} resurrected",
                    w.as_str()
                );
            }
        }
    }
    assert_eq!(
        range_words(&tree, query),
        brute_words(&expected, query),
        "k={k} ({mode:?}): post-recovery query disagrees with brute force"
    );

    drop(tree);
    std::fs::remove_dir_all(work).unwrap();
}

#[test]
fn live_server_recovers_from_crashes_at_wal_crash_points() {
    let _serial = fault::test_lock();
    let root = TempDir::new("spb-server-crash");
    let (base, baseline) = build_baseline(root.path());
    let ops = workload(&baseline);
    let query = baseline[11].clone();

    // Pass 1: count durable ops with a plan that never fires.
    let count_dir = root.path().join("count");
    copy_dir(&base, &count_dir);
    let guard = FaultPlan {
        scope: count_dir.clone(),
        fail_after: u64::MAX,
        mode: FaultMode::Clean,
        seed: 0,
    }
    .install();
    let acked = run_server_workload(&count_dir, &ops, false).unwrap();
    assert_eq!(acked, ops.len(), "fault-free run must ack everything");
    let total_ops = guard.ops_observed();
    drop(guard);
    assert!(verify_dir(&count_dir).unwrap().ok());
    assert!(total_ops > 10, "workload has only {total_ops} durable ops");

    // Pass 2: crash at every durable op (strided to bound runtime on
    // large counts; stride 1 while the workload stays small).
    let stride = (total_ops / 36).max(1);
    let mut k = 0;
    while k < total_ops {
        let mode = match k % 3 {
            0 => FaultMode::Clean,
            1 => FaultMode::Partial,
            _ => FaultMode::BitFlip,
        };
        crash_and_check(
            &base,
            &root.path().join(format!("k{k}")),
            &baseline,
            &ops,
            &query,
            k,
            mode,
        );
        k += stride;
    }
}
