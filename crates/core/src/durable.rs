//! The durability protocol of an SPB-tree directory: what is on disk,
//! when and in what order an update's bytes become durable
//! ([`Durable`]), how a directory comes back after a crash
//! ([`recover_dir`]) and how it is audited offline ([`verify_dir`]).
//!
//! A directory holds [`BTREE_FILE`], [`RAF_FILE`], [`PIVOTS_FILE`],
//! [`META_FILE`] (the curve, `len` and `next_id`) and, when durability
//! is on, [`WAL_FILE`]. An update is one WAL transaction in five steps:
//!
//! 1. **begin** — both pagers stage page writes in memory (no-steal: an
//!    uncommitted change never reaches a data file, so the log is
//!    redo-only and rollback is free);
//! 2. **body** — the B⁺-tree / RAF changes and the new counters;
//! 3. **log** — the staged page images and the new meta contents;
//! 4. **commit** — `Wal::commit`, one write and one fsync: *the commit
//!    point*. An error up to here rolls back (staged pages dropped, both
//!    files' in-memory state reloaded, counters never changed). Once it
//!    returns the update has happened: the counters take their new
//!    values and nothing is rolled back;
//! 5. **apply** — the page images go to the data files through
//!    [`redo_page`], as in recovery. If that fails, memory and the files
//!    disagree: the directory is marked, every later update, checkpoint
//!    and query answers [`NeedsRecovery`], and the log is left for the
//!    next open to redo.
//!
//! `spb.meta` is not rewritten per update — the counters of a committed
//! update are in its commit record — so between checkpoints it lags the
//! log. That is safe because nothing reads it while the log is
//! non-empty: opening runs [`recover_dir`] first, and a checkpoint
//! (explicit, on drop, or once the log passes 1 MiB) runs fsync both
//! data files → atomic `spb.meta` → `Wal::reset`, in that order. Without
//! a WAL (`durability: false`) the per-update meta rewrite is the only
//! durability there is, and stays.
//!
//! [`recover_dir`] replays the log after a crash:
//!
//! 1. truncate each data file down to a whole number of pages (a torn
//!    tail page is dropped — if it mattered, a committed transaction in
//!    the WAL rewrites it);
//! 2. scan the WAL, truncating its own torn tail;
//! 3. redo the page images of every *committed* transaction, in commit
//!    order (physical redo is idempotent — crashing during recovery and
//!    recovering again is fine);
//! 4. checkpoint: fsync the data files, write the last committed meta
//!    image atomically, empty the WAL.
//!
//! [`SpbTree::open`](crate::SpbTree::open) runs recovery automatically;
//! the `spb-cli recover` subcommand exposes it manually, and `spb-cli
//! verify` runs [`verify_dir`].

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};

use spb_bptree::{BPlusTree, MbbOps};
use spb_sfc::CurveKind;
use spb_storage::{
    atomic_write_file, is_corrupt, Page, PageId, Pager, Raf, Wal, WalFileTag, WalRecord, PAGE_SIZE,
};

/// The B⁺-tree file of an index directory.
pub(crate) const BTREE_FILE: &str = "index.bpt";
/// The random access file holding the objects.
pub(crate) const RAF_FILE: &str = "objects.raf";
/// The pivot table.
pub(crate) const PIVOTS_FILE: &str = "pivots.tbl";
/// The curve kind and the `len` / `next_id` counters.
pub(crate) const META_FILE: &str = "spb.meta";
/// The write-ahead log (present once the index was opened durably).
pub const WAL_FILE: &str = "spb.wal";

/// WAL size, in bytes, beyond which an update asks for a checkpoint.
const WAL_CHECKPOINT_BYTES: u64 = 1 << 20;

/// Payload of the `io::Error` every operation on a live index answers
/// after an update was committed to the log but could not be applied to
/// the data files. Reopening the directory redoes it from the log.
#[derive(Debug)]
pub struct NeedsRecovery {
    /// The index directory.
    pub dir: PathBuf,
}

impl std::fmt::Display for NeedsRecovery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let dir = self.dir.display();
        write!(
            f,
            "index {dir} needs recovery: a committed update is not in the data files; reopen it"
        )
    }
}

impl std::error::Error for NeedsRecovery {}

/// The contents of `spb.meta` and of the meta image in a commit record.
#[derive(Clone, Copy)]
pub(crate) struct Meta {
    pub curve: CurveKind,
    pub len: u64,
    pub next_id: u32,
}

impl Meta {
    /// A missing key or a value that does not parse is corruption, never
    /// a default: a guessed curve or a zero `next_id` would answer
    /// wrongly or hand out duplicate ids.
    pub fn parse(bytes: &[u8]) -> io::Result<Meta> {
        let corrupt = |key: &str| {
            let what = format!("corrupt {META_FILE}: {key}");
            io::Error::new(io::ErrorKind::InvalidData, what)
        };
        let text = std::str::from_utf8(bytes).map_err(|_| corrupt("not UTF-8"))?;
        let field = |key: &str| {
            (text.lines())
                .find_map(|l| l.strip_prefix(key)?.strip_prefix('='))
                .ok_or_else(|| corrupt(key))
        };
        Ok(Meta {
            curve: match field("curve")? {
                "z" => CurveKind::Z,
                "hilbert" => CurveKind::Hilbert,
                _ => return Err(corrupt("curve")),
            },
            len: field("len")?.parse().map_err(|_| corrupt("len"))?,
            next_id: (field("next_id")?.parse()).map_err(|_| corrupt("next_id"))?,
        })
    }

    pub(crate) fn to_bytes(self) -> String {
        let curve = match self.curve {
            CurveKind::Hilbert => "hilbert",
            CurveKind::Z => "z",
        };
        let Meta { len, next_id, .. } = self;
        format!("curve={curve}\nlen={len}\nnext_id={next_id}\n")
    }
}

/// The one function that replaces `spb.meta` (temp file + fsync +
/// rename: a reader or a crash sees the old contents or the new).
fn write_meta(dir: &Path, meta: &[u8]) -> io::Result<()> {
    atomic_write_file(&dir.join(META_FILE), meta)
}

/// Writes one redo page image to its data file: how a committed page
/// reaches disk, live (step 5) and in [`recover_dir`]. A page past the
/// end of a crash-truncated file grows the file first.
fn redo_page(pager: &Pager, id: PageId, page: &Page) -> io::Result<()> {
    pager.grow_to(id.0.saturating_add(1))?;
    pager.write_page(id, page)
}

/// The order in which an update's two pagers are begun, logged and
/// applied.
const FILE_TAGS: [WalFileTag; 2] = [WalFileTag::BTree, WalFileTag::Raf];

/// The pages an update staged, per file of [`FILE_TAGS`].
type Staged = [Vec<(PageId, Page)>; 2];

/// The durable state of one open index directory — its log, its counters
/// and whether the process' view of it is still usable — and the
/// protocol of the module docs over them. The two data files belong to
/// the B⁺-tree and the RAF; the calls that touch them borrow both.
pub(crate) struct Durable {
    dir: PathBuf,
    /// `None` when durability is off: updates write through without
    /// fsync and rewrite `spb.meta` themselves.
    wal: Option<Wal>,
    curve: CurveKind,
    len: AtomicU64,
    next_id: AtomicU32,
    needs_recovery: AtomicBool,
}

impl Durable {
    /// For a directory whose data files were just built and fsynced: in
    /// durable mode the log starts empty. The builder ends with
    /// [`Durable::write_meta`].
    pub fn create(dir: &Path, meta: Meta, durability: bool) -> io::Result<Self> {
        let durable = Self::attach(dir, meta, durability)?;
        if let Some(wal) = &durable.wal {
            wal.reset()?;
        }
        Ok(durable)
    }

    /// Recovers `dir` and reads its meta. With `durability` off recovery
    /// still runs (a crashed durable session must not be silently
    /// ignored) but subsequent updates skip the WAL.
    pub fn open(dir: &Path, durability: bool) -> io::Result<Self> {
        recover_dir(dir)?;
        let meta = Meta::parse(&std::fs::read(dir.join(META_FILE))?)?;
        Self::attach(dir, meta, durability)
    }

    fn attach(dir: &Path, meta: Meta, durability: bool) -> io::Result<Self> {
        Ok(Durable {
            dir: dir.to_path_buf(),
            wal: (durability.then(|| Wal::open(&dir.join(WAL_FILE)))).transpose()?,
            curve: meta.curve,
            len: AtomicU64::new(meta.len),
            next_id: AtomicU32::new(meta.next_id),
            needs_recovery: AtomicBool::new(false),
        })
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    pub fn wal(&self) -> Option<&Wal> {
        self.wal.as_ref()
    }

    /// The meta as of the last committed update.
    pub fn meta(&self) -> Meta {
        Meta {
            curve: self.curve,
            len: self.len.load(Ordering::SeqCst),
            next_id: self.next_id.load(Ordering::SeqCst),
        }
    }

    /// Replaces `spb.meta` with the current meta.
    pub fn write_meta(&self) -> io::Result<()> {
        write_meta(&self.dir, self.meta().to_bytes().as_bytes())
    }

    /// `Err(NeedsRecovery)` once a committed update could not be applied.
    /// Checked wherever the tree latch is taken.
    pub fn check(&self) -> io::Result<()> {
        if self.needs_recovery.load(Ordering::SeqCst) {
            let dir = self.dir.clone();
            return Err(io::Error::other(NeedsRecovery { dir }));
        }
        Ok(())
    }

    /// Runs `body` as one update, steps 1–5 of the module docs. `body`
    /// changes pages through `btree` / `raf` and the counters through
    /// the [`Meta`] it is handed. The caller holds the tree latch
    /// exclusively.
    pub(crate) fn transact<M: MbbOps, T>(
        &self,
        btree: &BPlusTree<M>,
        raf: &Raf,
        body: impl FnOnce(&mut Meta) -> io::Result<T>,
    ) -> io::Result<T> {
        let pagers = [btree.pool().pager(), raf.pool().pager()];
        let mut meta = self.meta();
        let (value, staged) = match self.commit(pagers, &mut meta, body) {
            Ok(committed) => committed,
            Err(e) => {
                // Before the commit point: nothing happened. Drop the
                // buffered log frames and the staged pages and reload
                // both files' in-memory state from disk. Should that
                // fail, memory is no longer what the files hold;
                // recovery discards the uncommitted update.
                if let Some(wal) = &self.wal {
                    wal.abort();
                    let reloaded = (pagers.iter().try_for_each(|p| p.txn_abort()))
                        .and_then(|()| btree.reload_meta())
                        .and_then(|()| raf.reload());
                    if reloaded.is_err() {
                        self.needs_recovery.store(true, Ordering::SeqCst);
                    }
                }
                return Err(e);
            }
        };
        // After it: the update has happened, whatever apply does.
        self.len.store(meta.len, Ordering::SeqCst);
        self.next_id.store(meta.next_id, Ordering::SeqCst);
        let applied = pagers.iter().zip(&staged).try_for_each(|(pager, pages)| {
            (pages.iter()).try_for_each(|(id, page)| redo_page(pager, *id, page))
        });
        if applied.is_err() {
            self.needs_recovery.store(true, Ordering::SeqCst);
        }
        applied.map(|()| value)
    }

    /// Steps 1–4: on `Ok` the update is durable and its pages are in
    /// hand, not yet in the data files.
    fn commit<T>(
        &self,
        pagers: [&Pager; 2],
        meta: &mut Meta,
        body: impl FnOnce(&mut Meta) -> io::Result<T>,
    ) -> io::Result<(T, Staged)> {
        let Some(wal) = &self.wal else {
            let value = body(meta)?;
            write_meta(&self.dir, meta.to_bytes().as_bytes())?;
            return Ok((value, Staged::default()));
        };
        pagers.iter().try_for_each(|p| p.txn_begin())?;
        let value = body(meta)?;
        let staged = [pagers[0].txn_commit()?, pagers[1].txn_commit()?];
        if staged.iter().all(Vec::is_empty) {
            // Nothing changed (a delete that found no match): no record,
            // no fsync.
            return Ok((value, staged));
        }
        let txid = wal.begin()?;
        for (tag, pages) in FILE_TAGS.into_iter().zip(&staged) {
            for (id, page) in pages {
                wal.log_page(txid, tag, id.0, page.bytes());
            }
        }
        wal.log_meta(txid, meta.to_bytes().as_bytes());
        wal.commit(txid)?; // the commit point
        Ok((value, staged))
    }

    /// Whether the update that just committed took the log past the
    /// size at which a checkpoint should follow.
    pub(crate) fn checkpoint_due(&self) -> bool {
        (self.wal.as_ref()).is_some_and(|wal| wal.len() >= WAL_CHECKPOINT_BYTES)
    }

    /// Makes the data files and `spb.meta` current and then empties the
    /// log: it is only truncated once nothing needs it. A no-op without
    /// a WAL. The caller holds the tree latch exclusively (or is
    /// dropping the tree).
    pub fn checkpoint<M: MbbOps>(&self, btree: &BPlusTree<M>, raf: &Raf) -> io::Result<()> {
        self.check()?;
        let Some(wal) = &self.wal else {
            return Ok(());
        };
        btree.pool().sync()?;
        raf.sync()?;
        self.write_meta()?;
        wal.reset()
    }
}

/// What [`recover_dir`] did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Committed transactions whose effects were replayed.
    pub redone_txns: u64,
    /// Page images rewritten during redo.
    pub redone_pages: u64,
    /// Transactions that had begun but never committed (discarded).
    pub discarded_txns: u64,
    /// Bytes of torn WAL tail truncated.
    pub torn_wal_bytes: u64,
    /// Bytes of torn data-file tails truncated (non-page-multiple).
    pub torn_data_bytes: u64,
}

impl RecoveryReport {
    /// Whether recovery found anything to do at all.
    pub fn clean(&self) -> bool {
        *self == RecoveryReport::default()
    }
}

/// Truncates `path` down to a whole number of pages, returning the number
/// of bytes dropped. Missing files are left alone.
fn trim_to_page_multiple(path: &Path) -> io::Result<u64> {
    let len = match std::fs::metadata(path) {
        Ok(m) => m.len(),
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(0),
        Err(e) => return Err(e),
    };
    let excess = len % PAGE_SIZE as u64;
    if excess != 0 {
        let file = std::fs::OpenOptions::new().write(true).open(path)?;
        file.set_len(len - excess)?;
        file.sync_all()?;
    }
    Ok(excess)
}

/// Replays the write-ahead log of the SPB-tree in `dir`. Idempotent; a
/// directory with no WAL (or an empty one) is a no-op. See the module
/// docs for the protocol.
pub fn recover_dir(dir: &Path) -> io::Result<RecoveryReport> {
    let wal_path = dir.join(WAL_FILE);
    let mut report = RecoveryReport::default();

    let scan = Wal::scan_file(&wal_path)?;
    report.torn_wal_bytes = scan.torn_bytes;
    if scan.records.is_empty() && scan.torn_bytes == 0 {
        return Ok(report);
    }

    // A crash may have torn the last page of a data file; committed
    // transactions rewrite every page they touched, so dropping the
    // partial page first is safe and lets `Pager::open` succeed.
    report.torn_data_bytes += trim_to_page_multiple(&dir.join(BTREE_FILE))?;
    report.torn_data_bytes += trim_to_page_multiple(&dir.join(RAF_FILE))?;

    let committed = scan.committed_txids();
    let begun: u64 = scan
        .records
        .iter()
        .filter(|r| matches!(r, WalRecord::Begin { .. }))
        .count() as u64;
    report.discarded_txns = begun - committed.len() as u64;

    if !committed.is_empty() {
        let btree = Pager::open(&dir.join(BTREE_FILE))?;
        let raf = Pager::open(&dir.join(RAF_FILE))?;
        let mut meta: Option<&[u8]> = None;
        for &txid in &committed {
            for record in scan.records.iter().filter(|r| r.txid() == txid) {
                match record {
                    WalRecord::PageImage {
                        file,
                        page_no,
                        image,
                        ..
                    } => {
                        let pager = match file {
                            WalFileTag::BTree => &btree,
                            WalFileTag::Raf => &raf,
                        };
                        redo_page(pager, PageId(*page_no), &Page::from_bytes(**image))?;
                        report.redone_pages += 1;
                    }
                    WalRecord::MetaImage { bytes, .. } => meta = Some(bytes),
                    WalRecord::Begin { .. } | WalRecord::Commit { .. } => {}
                }
            }
            report.redone_txns += 1;
        }
        btree.sync()?;
        raf.sync()?;
        if let Some(bytes) = meta {
            write_meta(dir, bytes)?;
        }
    }

    // Checkpoint: everything committed is now in the data files.
    Wal::open(&wal_path)?.reset()?;
    Ok(report)
}

/// One problem found by [`verify_dir`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VerifyProblem {
    /// File the problem was found in (relative to the index directory).
    pub file: String,
    /// Human-readable description.
    pub detail: String,
}

/// What [`verify_dir`] found.
#[derive(Clone, Debug, Default)]
pub struct VerifyReport {
    /// Pages whose CRC footer was checked.
    pub pages_checked: u64,
    /// B⁺-tree entries walked.
    pub entries_checked: u64,
    /// Problems found (empty = the index is sound).
    pub problems: Vec<VerifyProblem>,
}

impl VerifyReport {
    /// Whether the index passed every check.
    pub fn ok(&self) -> bool {
        self.problems.is_empty()
    }

    fn problem(&mut self, file: &str, detail: String) {
        self.problems.push(VerifyProblem {
            file: file.to_owned(),
            detail,
        });
    }
}

/// Checks every physical page's checksum in `file` (named `name` in the
/// report).
fn verify_pages(report: &mut VerifyReport, path: &Path, name: &str) -> io::Result<Option<Pager>> {
    let len = match std::fs::metadata(path) {
        Ok(m) => m.len(),
        Err(_) => {
            report.problem(name, "file is missing".to_owned());
            return Ok(None);
        }
    };
    if len % PAGE_SIZE as u64 != 0 {
        report.problem(
            name,
            format!("length {len} is not a multiple of the {PAGE_SIZE}-byte page size"),
        );
        return Ok(None);
    }
    let pager = Pager::open(path)?;
    for page_no in 0..pager.num_pages() {
        match pager.read_page(PageId(page_no)) {
            Ok(_) => report.pages_checked += 1,
            Err(e) if is_corrupt(&e) => report.problem(name, e.to_string()),
            Err(e) => return Err(e),
        }
    }
    Ok(Some(pager))
}

/// Structurally verifies the SPB-tree stored in `dir` without opening it
/// as a live index: every page of both data files passes its CRC, the
/// B⁺-tree's keys are sorted with its recorded length matching the leaf
/// chain, every leaf value points inside the RAF, the WAL (if any) scans
/// cleanly, and `spb.meta` parses — with, once the log is empty, its
/// `len` equal to the B⁺-tree's (what a checkpoint establishes before it
/// resets the log). Verification never computes a distance and needs no
/// metric — it reads the files as the pager and node codecs see them.
pub fn verify_dir(dir: &Path) -> io::Result<VerifyReport> {
    let mut report = VerifyReport::default();

    let btree_pager = verify_pages(&mut report, &dir.join(BTREE_FILE), BTREE_FILE)?;
    let raf_pager = verify_pages(&mut report, &dir.join(RAF_FILE), RAF_FILE)?;
    drop(btree_pager);
    drop(raf_pager);

    // Structural checks run through the real codecs (only if the pages
    // themselves were readable).
    let mut btree_len = None;
    if report.ok() {
        let btree = BPlusTree::open(&dir.join(BTREE_FILE), 0, spb_bptree::PointMbb)?;
        btree_len = Some(btree.len());
        let raf = spb_storage::Raf::open(&dir.join(RAF_FILE), 0)?;
        let tail = raf.tail_offset();
        match btree.scan_all() {
            Ok(entries) => {
                if entries.len() as u64 != btree.len() {
                    report.problem(
                        BTREE_FILE,
                        format!(
                            "meta records {} entries but the leaf chain holds {}",
                            btree.len(),
                            entries.len()
                        ),
                    );
                }
                let mut prev: Option<u128> = None;
                for &(key, value) in &entries {
                    if prev.is_some_and(|p| p > key) {
                        report.problem(BTREE_FILE, format!("keys out of order at key {key}"));
                    }
                    prev = Some(key);
                    if value >= tail {
                        report.problem(
                            BTREE_FILE,
                            format!("leaf value {value} points past the RAF tail {tail}"),
                        );
                    } else if let Err(e) = raf.get(spb_storage::RafPtr { offset: value }) {
                        report.problem(RAF_FILE, format!("entry at {value} unreadable: {e}"));
                    }
                    report.entries_checked += 1;
                }
            }
            Err(e) => report.problem(BTREE_FILE, format!("leaf chain walk failed: {e}")),
        }
    }

    let scan = Wal::scan_file(&dir.join(WAL_FILE))?;
    if scan.torn_bytes > 0 {
        report.problem(
            WAL_FILE,
            format!(
                "{} torn byte(s) after {} valid record(s) — run recovery",
                scan.torn_bytes,
                scan.records.len()
            ),
        );
    } else if !scan.records.is_empty() {
        report.problem(
            WAL_FILE,
            format!("{} unapplied record(s) — run recovery", scan.records.len()),
        );
    }
    let wal_empty = scan.valid_len + scan.torn_bytes == 0;

    match std::fs::read(dir.join(META_FILE)).map(|bytes| Meta::parse(&bytes)) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            report.problem(META_FILE, "file is missing".to_owned())
        }
        Err(e) => return Err(e),
        Ok(Err(e)) => report.problem(META_FILE, e.to_string()),
        Ok(Ok(meta)) => {
            // While the log holds records `spb.meta` may lag them.
            if let Some(n) = btree_len.filter(|&n| wal_empty && n != meta.len) {
                report.problem(
                    META_FILE,
                    format!("records len={} but the B⁺-tree holds {n} entries", meta.len),
                );
            }
        }
    }
    Ok(report)
}
