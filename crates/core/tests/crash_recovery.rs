//! Exhaustive crash-recovery testing: run an update workload once to
//! count its durable operations, then re-run it crashing at *every* one
//! of them (cycling the crash shape through clean, torn-write and
//! bit-flip faults), reopen, and require a consistent index each time.
//!
//! The consistency contract checked after each injected crash:
//!
//! * `verify_dir` passes — every page checksums, the B⁺-tree is sorted
//!   and complete, every leaf entry resolves in the RAF, the WAL is
//!   empty;
//! * every update acknowledged (returned `Ok`) before the crash is
//!   present — acknowledged means durable;
//! * the update in flight at the crash either applied entirely or not
//!   at all — never partially;
//! * a range query agrees exactly with a brute-force scan over the
//!   reconstructed expected object set.

use std::path::{Path, PathBuf};

use spb_core::{verify_dir, NeedsRecovery, SpbConfig, SpbTree};
use spb_metric::{dataset, Distance, EditDistance, Word};
use spb_storage::fault::{self, FaultMode, FaultPlan};
use spb_storage::{TempDir, Wal, WalRecord};

const BASELINE: usize = 80;

/// The update workload: a fixed interleaving of novel inserts and
/// baseline deletes. Deterministic — every crash iteration replays the
/// same prefix.
#[derive(Clone, Debug)]
enum Op {
    Ins(Word),
    Del(Word),
}

fn workload(baseline: &[Word]) -> Vec<Op> {
    vec![
        Op::Ins(Word::new("zqinserted0")),
        Op::Ins(Word::new("zqinserted1")),
        Op::Del(baseline[3].clone()),
        Op::Ins(Word::new("zqinserted2")),
        Op::Del(baseline[17].clone()),
        Op::Ins(Word::new("zqinserted3")),
        Op::Ins(Word::new("zqinserted4")),
        Op::Del(baseline[41].clone()),
    ]
}

/// Applies `ops` in order, stopping at the first error; returns how many
/// were acknowledged and the error (if any).
fn apply(tree: &SpbTree<Word, EditDistance>, ops: &[Op]) -> (usize, Option<std::io::Error>) {
    for (i, op) in ops.iter().enumerate() {
        let r = match op {
            Op::Ins(w) => tree.insert(w).map(|_| ()),
            Op::Del(w) => tree.delete(w).map(|_| ()),
        };
        if let Err(e) = r {
            return (i, Some(e));
        }
    }
    (ops.len(), None)
}

/// The object multiset after the first `n` ops.
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
    let words = dataset::words(BASELINE, 11);
    let tree = SpbTree::build(
        &base,
        &words,
        EditDistance::default(),
        &SpbConfig::default(),
    )
    .unwrap();
    drop(tree); // clean shutdown: checkpointed, empty WAL
    assert!(verify_dir(&base).unwrap().ok());
    (base, words)
}

/// Sorted word list from a radius-2 range query, for brute-force
/// agreement checks.
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

/// Counts the workload's durable operations (the crash points) by
/// running it under a plan that never fires.
fn count_crash_points(base: &Path, count_dir: &Path, ops: &[Op]) -> u64 {
    copy_dir(base, count_dir);
    let guard = FaultPlan {
        scope: count_dir.to_path_buf(),
        fail_after: u64::MAX,
        mode: FaultMode::Clean,
        seed: 0,
    }
    .install();
    let tree = SpbTree::open(count_dir, EditDistance::default(), 32).unwrap();
    let (acked, err) = apply(&tree, ops);
    assert_eq!(acked, ops.len());
    assert!(err.is_none());
    drop(tree); // drop's checkpoint syncs are crash points too
    let n = guard.ops_observed();
    drop(guard);
    assert!(verify_dir(count_dir).unwrap().ok());
    n
}

/// Copies `base` into `work`, replays `ops` with a crash injected at
/// durable operation `k`, reopens (running recovery), and checks the
/// full consistency contract from the module docs.
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
        seed: 0x5eed ^ k,
    }
    .install();

    let tree = SpbTree::open(work, EditDistance::default(), 32).unwrap();
    let (acked, err) = apply(&tree, ops);
    if let Some(e) = &err {
        assert!(
            fault::is_injected_crash(e),
            "k={k}: real I/O error, not the injected crash: {e}"
        );
    }
    drop(tree); // simulated process death (syncs keep failing)
    assert!(guard.tripped(), "k={k}: the crash never fired");
    drop(guard);

    // Reopen: recovery runs inside `open`. The index must verify and
    // contain every acknowledged update; the in-flight one must have
    // applied atomically or not at all.
    let tree = SpbTree::open(work, EditDistance::default(), 32).unwrap();
    let report = verify_dir(work).unwrap();
    assert!(report.ok(), "k={k} ({mode:?}): {:?}", report.problems);

    let len_acked = expected_set(baseline, ops, acked).len() as u64;
    let committed = if tree.len() == len_acked {
        acked
    } else {
        // Lengths change by exactly ±1 per op, so this uniquely
        // identifies "the in-flight op committed before the crash"
        // (its WAL commit record hit disk; the client saw an error
        // only because a later step failed).
        let len_next = expected_set(baseline, ops, (acked + 1).min(ops.len())).len() as u64;
        assert_eq!(
            tree.len(),
            len_next,
            "k={k} ({mode:?}): recovered length matches neither {acked} nor {} applied ops",
            acked + 1
        );
        acked + 1
    };
    assert!(committed <= ops.len(), "k={k}");

    let expected = expected_set(baseline, ops, committed);
    assert_eq!(tree.len(), expected.len() as u64, "k={k}");
    for op in &ops[..acked] {
        match op {
            Op::Ins(w) => {
                let (hits, _) = tree.range(w, 0.0).unwrap();
                assert!(
                    hits.iter().any(|(_, x)| x == w),
                    "k={k}: acknowledged insert of {:?} lost",
                    w.as_str()
                );
            }
            Op::Del(w) => {
                let gone = !expected.contains(w);
                let (hits, _) = tree.range(w, 0.0).unwrap();
                assert_eq!(
                    !hits.iter().any(|(_, x)| x == w),
                    gone,
                    "k={k}: acknowledged delete of {:?} resurrected",
                    w.as_str()
                );
            }
        }
    }
    assert_eq!(
        range_words(&tree, query),
        brute_words(&expected, query),
        "k={k} ({mode:?}): query disagrees with brute force"
    );

    drop(tree);
    std::fs::remove_dir_all(work).unwrap();
}

#[test]
fn every_crash_point_recovers_to_a_consistent_index() {
    let _serial = fault::test_lock();
    let root = TempDir::new("spb-crash-loop");
    let (base, baseline) = build_baseline(root.path());
    let ops = workload(&baseline);
    let query = baseline[7].clone();

    // Pass 1: count the workload's durable operations (the crash points)
    // by running it under a plan that never fires.
    let total_ops = count_crash_points(&base, &root.path().join("count"), &ops);
    assert!(total_ops > 20, "workload has only {total_ops} durable ops");

    // Pass 2: crash at every single one of them.
    for k in 0..total_ops {
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
    }
}

#[test]
fn clean_shutdown_leaves_an_empty_wal() {
    let _serial = fault::test_lock();
    let dir = TempDir::new("spb-clean-wal");
    let words = dataset::words(60, 5);
    {
        let tree = SpbTree::build(
            dir.path(),
            &words,
            EditDistance::default(),
            &SpbConfig::default(),
        )
        .unwrap();
        tree.insert(&Word::new("zzcleanshut")).unwrap();
        assert!(tree.durable());
        assert!(tree.wal().is_some());
    }
    let wal_len = std::fs::metadata(dir.path().join("spb.wal")).unwrap().len();
    assert_eq!(wal_len, 0, "clean shutdown must checkpoint the WAL away");
    assert!(verify_dir(dir.path()).unwrap().ok());
    // The log was the only place the insert's counters were durable:
    // drop must have written `spb.meta` before it reset the log.
    let tree = SpbTree::open(dir.path(), EditDistance::default(), 32).unwrap();
    assert_eq!(tree.len(), 61);
}

#[test]
fn durability_off_skips_the_wal_but_still_recovers_others() {
    let _serial = fault::test_lock();
    let dir = TempDir::new("spb-nondurable");
    let words = dataset::words(60, 6);
    let cfg = SpbConfig {
        durability: false,
        ..SpbConfig::default()
    };
    let tree = SpbTree::build(dir.path(), &words, EditDistance::default(), &cfg).unwrap();
    assert!(!tree.durable());
    assert!(tree.wal().is_none());
    let stats = tree.insert(&Word::new("zznondurable")).unwrap();
    assert_eq!(stats.fsyncs, 0, "non-durable updates must not fsync");
    drop(tree);

    let tree = SpbTree::open_with(dir.path(), EditDistance::default(), 32, false).unwrap();
    assert_eq!(tree.len(), 61);
    let (hits, _) = tree.range(&Word::new("zznondurable"), 0.0).unwrap();
    assert_eq!(hits.len(), 1);
}

#[test]
fn durable_updates_pay_exactly_one_wal_fsync() {
    let _serial = fault::test_lock();
    let dir = TempDir::new("spb-fsync-count");
    let words = dataset::words(60, 7);
    let tree = SpbTree::build(
        dir.path(),
        &words,
        EditDistance::default(),
        &SpbConfig::default(),
    )
    .unwrap();
    let meta_path = dir.path().join("spb.meta");
    let wal_path = dir.path().join("spb.wal");
    let meta_before = std::fs::read_to_string(&meta_path).unwrap();
    assert_eq!(meta_before, "curve=hilbert\nlen=60\nnext_id=60\n");

    let guard = FaultPlan {
        scope: dir.path().to_path_buf(),
        fail_after: u64::MAX,
        mode: FaultMode::Clean,
        seed: 0,
    }
    .install();
    let stats = tree.insert(&Word::new("zzonefsync")).unwrap();
    let ops = guard.ops_observed();
    drop(guard);

    // One WAL group-commit fsync and nothing else: the data files are
    // not synced per update (the WAL carries redo until the next
    // checkpoint) and neither is `spb.meta` (the commit record carries
    // the counters).
    assert_eq!(stats.fsyncs, 1);
    let scan = Wal::scan_file(&wal_path).unwrap();
    let images = (scan.records.iter())
        .filter(|r| matches!(r, WalRecord::PageImage { .. }))
        .count() as u64;
    assert!(images > 0);
    assert_eq!(
        ops,
        2 + images,
        "one insert = WAL write + WAL fsync + one write per logged page"
    );
    assert_eq!(std::fs::read_to_string(&meta_path).unwrap(), meta_before);
    assert!(!dir.path().join("spb.meta.tmp").exists());

    tree.checkpoint().unwrap();
    assert_eq!(
        std::fs::read_to_string(&meta_path).unwrap(),
        "curve=hilbert\nlen=61\nnext_id=61\n"
    );
    assert_eq!(std::fs::metadata(&wal_path).unwrap().len(), 0);

    let (_, qstats) = tree.range(&words[0], 1.0).unwrap();
    assert_eq!(qstats.fsyncs, 0, "queries never fsync");
}

#[test]
fn verify_checks_the_meta_file_against_the_tree() {
    let _serial = fault::test_lock();
    let root = TempDir::new("spb-verify-meta");
    let (base, _) = build_baseline(root.path());
    let meta_path = base.join("spb.meta");
    let good = std::fs::read_to_string(&meta_path).unwrap();

    // A clean directory (empty log) whose meta disagrees with the tree,
    // or does not parse: one problem, naming the file.
    for doctored in [
        good.replace("len=80", "len=79"),
        good.replace("len=", "le="),
    ] {
        std::fs::write(&meta_path, doctored).unwrap();
        let report = verify_dir(&base).unwrap();
        assert_eq!(report.problems.len(), 1, "{:?}", report.problems);
        assert_eq!(report.problems[0].file, "spb.meta");
    }
    std::fs::write(&meta_path, &good).unwrap();
    assert!(verify_dir(&base).unwrap().ok());

    // Between checkpoints `spb.meta` lags the log. That is not damage:
    // a copy taken then reports its unapplied records and nothing else.
    let tree = SpbTree::open(&base, EditDistance::default(), 32).unwrap();
    tree.insert(&Word::new("zzlagging")).unwrap();
    let live = root.path().join("live-copy");
    copy_dir(&base, &live);
    assert_eq!(
        std::fs::read_to_string(live.join("spb.meta")).unwrap(),
        good
    );
    let report = verify_dir(&live).unwrap();
    assert_eq!(report.problems.len(), 1, "{:?}", report.problems);
    assert_eq!(report.problems[0].file, "spb.wal");
    assert!(report.problems[0].detail.contains("unapplied record(s)"));
}

fn needs_recovery(err: &std::io::Error) -> bool {
    err.get_ref().is_some_and(|e| e.is::<NeedsRecovery>())
}

/// Every object in the index (no two words here are 64 edits apart).
fn all_hits(tree: &SpbTree<Word, EditDistance>, q: &Word) -> Vec<(u32, Word)> {
    tree.range(q, 64.0).unwrap().0
}

fn assert_len_hits_and_distinct_ids_agree(tree: &SpbTree<Word, EditDistance>, q: &Word, ctx: &str) {
    let hits = all_hits(tree, q);
    let mut ids: Vec<u32> = hits.iter().map(|&(id, _)| id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), hits.len(), "{ctx}: two hits share an id");
    assert_eq!(
        tree.len(),
        hits.len() as u64,
        "{ctx}: len != number of hits"
    );
}

/// The commit point has two sides. A *transient* fault (one failed
/// operation, then the disk works again and the process lives on) is
/// injected at every hooked operation of one insert. Before the WAL
/// fsync returns the insert must roll back and leave a usable tree;
/// after it the insert is committed, so nothing may be rolled back: the
/// tree either holds it or answers the typed needs-recovery error to
/// every later call, and reopening redoes it from the log.
///
/// At the parent commit this fails: an error from a data-page write
/// *after* the WAL fsync rolled `len` / `next_id` and both caches back.
/// Here (a fresh copy per `k`) `k = 3` reopens to `verify_dir`'s "meta
/// records 302 entries but the leaf chain holds 301"; the run that found
/// the bug reused one tree across `k` and first broke at `k = 4`, the
/// third data-page write after the fsync — `range` answered "corrupt RAF
/// record … entry header past tail" and the next insert was handed an id
/// already in the log (319 hits over 313 distinct ids).
#[test]
fn a_failure_after_the_commit_point_does_not_roll_back() {
    let _serial = fault::test_lock();
    let root = TempDir::new("spb-commit-point");
    let base = root.path().join("base");
    let baseline = dataset::words(300, 11);
    let tree = SpbTree::build(
        &base,
        &baseline,
        EditDistance::default(),
        &SpbConfig::default(),
    )
    .unwrap();
    drop(tree);
    let open = |dir: &Path| SpbTree::open(dir, EditDistance::default(), 32).unwrap();
    let plan = |dir: &Path, fail_after: u64| FaultPlan {
        scope: dir.to_path_buf(),
        fail_after,
        mode: FaultMode::Clean,
        seed: 0,
    };

    let count_dir = root.path().join("count");
    copy_dir(&base, &count_dir);
    let tree = open(&count_dir);
    let guard = plan(&count_dir, u64::MAX).install();
    tree.insert(&Word::new("zzcount")).unwrap();
    let ops = guard.ops_observed();
    drop(guard);
    drop(tree);
    assert!(ops > 2, "one insert has only {ops} hooked operations");

    for k in 0..ops {
        let work = root.path().join(format!("k{k}"));
        copy_dir(&base, &work);
        let tree = open(&work);
        let failed = Word::new(format!("zzfail{k}"));
        let after = Word::new(format!("zzafter{k}"));

        let guard = plan(&work, k).install();
        let err = tree.insert(&failed).unwrap_err();
        assert!(fault::is_injected_crash(&err), "k={k}: {err}");
        drop(guard); // the fault was transient; the process lives on

        let mut acked = Vec::new();
        match tree.range(&failed, 0.0) {
            Ok((hits, _)) => {
                // Rolled back: as if the insert was never tried.
                assert!(hits.is_empty(), "k={k}: a failed insert is visible");
                assert_eq!(tree.len(), 300, "k={k}");
                tree.insert(&after).unwrap();
                acked.push(after);
                assert_len_hits_and_distinct_ids_agree(&tree, &failed, &format!("k={k}"));
            }
            Err(e) => {
                // Committed, not applied: typed refusals from here on.
                assert!(k >= 2, "k={k}: the WAL fsync had not returned");
                assert!(needs_recovery(&e), "k={k}: {e}");
                assert!(needs_recovery(&tree.insert(&after).unwrap_err()), "k={k}");
                assert!(needs_recovery(&tree.knn(&failed, 1).unwrap_err()), "k={k}");
                assert!(needs_recovery(&tree.checkpoint().unwrap_err()), "k={k}");
                assert_eq!(tree.len(), 301, "k={k}: a committed insert was un-counted");
                acked.push(failed.clone());
            }
        }
        drop(tree);

        let tree = open(&work);
        let report = verify_dir(&work).unwrap();
        assert!(report.ok(), "k={k}: {:?}", report.problems);
        assert_eq!(tree.len(), 301, "k={k}");
        assert_len_hits_and_distinct_ids_agree(&tree, &failed, &format!("k={k} reopened"));
        let words: Vec<Word> = (all_hits(&tree, &failed).into_iter())
            .map(|(_, w)| w)
            .collect();
        for w in &acked {
            assert!(words.contains(w), "k={k}: {:?} lost", w.as_str());
        }
        assert_eq!(words.contains(&failed), acked.contains(&failed), "k={k}");
        drop(tree);
        std::fs::remove_dir_all(&work).unwrap();
    }
}

#[test]
fn open_rejects_a_bit_flipped_page_as_corrupt() {
    let _serial = fault::test_lock();
    let root = TempDir::new("spb-bitflip-open");
    let (base, _) = build_baseline(root.path());

    // Flip one bit in the B⁺-tree's first page. The WAL is empty (clean
    // shutdown), so recovery has nothing to redo and `open` must surface
    // the checksum failure rather than serve the damaged page as data.
    let path = base.join("index.bpt");
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[100] ^= 0x01;
    std::fs::write(&path, &bytes).unwrap();

    let err = match SpbTree::open(&base, EditDistance::default(), 32) {
        Ok(_) => panic!("open served a bit-flipped page"),
        Err(e) => e,
    };
    assert!(
        spb_storage::is_corrupt(&err),
        "expected a corruption error, got: {err}"
    );
    let report = verify_dir(&base).unwrap();
    assert!(!report.ok(), "verify must flag the flipped page");
}

/// The acceptance-scale workload — a fresh build followed by 100 inserts
/// and 20 deletes — crashed at evenly spaced durable operations (the
/// exhaustive every-`k` loop above would take minutes at this size).
#[test]
fn large_workload_recovers_at_sampled_crash_points() {
    let _serial = fault::test_lock();
    let root = TempDir::new("spb-crash-big");

    let base = root.path().join("base");
    let baseline = dataset::words(200, 12);
    let tree = SpbTree::build(
        &base,
        &baseline,
        EditDistance::default(),
        &SpbConfig::default(),
    )
    .unwrap();
    drop(tree); // clean shutdown: checkpointed, empty WAL
    assert!(verify_dir(&base).unwrap().ok());

    // 100 novel inserts with a baseline delete after every fifth one.
    let mut ops = Vec::new();
    let mut del = 0usize;
    for i in 0..100 {
        ops.push(Op::Ins(Word::new(format!("zqbig{i:04}"))));
        if i % 5 == 4 && del < 20 {
            ops.push(Op::Del(baseline[del * 7].clone()));
            del += 1;
        }
    }
    assert_eq!(ops.len(), 120);
    let query = baseline[9].clone();

    let total_ops = count_crash_points(&base, &root.path().join("count"), &ops);
    assert!(total_ops > 120, "workload has only {total_ops} durable ops");

    let samples = 15u64;
    for i in 0..samples {
        let k = i * (total_ops - 1) / (samples - 1);
        let mode = match i % 3 {
            0 => FaultMode::Clean,
            1 => FaultMode::Partial,
            _ => FaultMode::BitFlip,
        };
        crash_and_check(
            &base,
            &root.path().join(format!("big{k}")),
            &baseline,
            &ops,
            &query,
            k,
            mode,
        );
    }
}
