//! Deterministic fault injection for crash-recovery testing.
//!
//! A [`FaultPlan`] installed via [`FaultPlan::install`] intercepts every
//! durable operation (raw page write, WAL append, fsync, rename) whose
//! target path lies under the plan's scope. The first `fail_after`
//! operations proceed normally; the next one *crashes*: depending on
//! [`FaultMode`] it writes nothing, a deterministic prefix of the
//! buffer, or the buffer with one bit flipped — and from then on every
//! scoped operation fails, simulating a dead process whose partially
//! written files survive on disk.
//!
//! Crash-recovery tests loop `fail_after` over every durable operation a
//! workload performs, re-open the tree after each injected crash, and
//! check that recovery restores a consistent state. Determinism comes
//! from the plan's `seed`: the same plan against the same workload tears
//! the same write at the same byte.
//!
//! The registry is global (hooks sit below any `&self`), so tests using
//! it must not run concurrently against overlapping scopes; scoping by
//! directory keeps independent tests from interfering.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// What the crashing operation leaves on disk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultMode {
    /// The crashing write does not reach the file at all.
    Clean,
    /// The crashing write persists only a prefix (a torn write).
    Partial,
    /// The crashing write persists fully but with one bit flipped
    /// (media corruption the checksum layer must catch).
    BitFlip,
}

/// A deterministic crash to inject. See the module docs.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    /// Only operations on paths under this directory (or equal to this
    /// path) are counted and failed.
    pub scope: PathBuf,
    /// Number of scoped durable operations that succeed before the crash.
    pub fail_after: u64,
    /// Shape of the crashing write.
    pub mode: FaultMode,
    /// Drives the torn-write length / flipped-bit position.
    pub seed: u64,
}

struct FaultState {
    plan: FaultPlan,
    ops: u64,
    tripped: bool,
}

static ACTIVE: Mutex<Option<FaultState>> = Mutex::new(None);

impl FaultPlan {
    /// Activates the plan. The returned guard deactivates it on drop;
    /// only one plan can be active at a time.
    pub fn install(self) -> FaultGuard {
        let mut active = ACTIVE.lock().unwrap_or_else(|e| e.into_inner());
        assert!(active.is_none(), "a FaultPlan is already installed");
        *active = Some(FaultState {
            plan: self,
            ops: 0,
            tripped: false,
        });
        FaultGuard { _private: () }
    }
}

/// Deactivates the installed [`FaultPlan`] when dropped.
pub struct FaultGuard {
    _private: (),
}

impl FaultGuard {
    /// Number of scoped durable operations observed so far (including
    /// the crashed one). Lets tests discover how many crash points a
    /// workload has by first running it under an unreachable
    /// `fail_after`.
    pub fn ops_observed(&self) -> u64 {
        let active = ACTIVE.lock().unwrap_or_else(|e| e.into_inner());
        active.as_ref().map_or(0, |s| s.ops)
    }

    /// Whether the plan's crash has fired.
    pub fn tripped(&self) -> bool {
        let active = ACTIVE.lock().unwrap_or_else(|e| e.into_inner());
        active.as_ref().is_some_and(|s| s.tripped)
    }
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        *ACTIVE.lock().unwrap_or_else(|e| e.into_inner()) = None;
    }
}

/// Serialises tests that install fault plans: the registry is global,
/// and the test harness runs tests in parallel threads. Hold the
/// returned guard for the whole test.
pub fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Marker error distinguishing injected crashes from real I/O failures.
#[derive(Debug)]
struct InjectedCrash;

impl std::fmt::Display for InjectedCrash {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "injected crash (fault plan tripped)")
    }
}

impl std::error::Error for InjectedCrash {}

/// The error every scoped operation returns once the plan has tripped.
pub(crate) fn injected_crash() -> io::Error {
    io::Error::other(InjectedCrash)
}

/// Whether `err` (at any wrapping depth) is an injected crash.
pub fn is_injected_crash(err: &io::Error) -> bool {
    let mut source: Option<&(dyn std::error::Error + 'static)> = err.get_ref().map(|e| e as _);
    while let Some(e) = source {
        if e.is::<InjectedCrash>() {
            return true;
        }
        // `io::Error::source()` yields the *source of* its payload, which
        // would skip a nested payload entirely — descend into it by hand.
        source = match e.downcast_ref::<io::Error>() {
            Some(io_err) => io_err.get_ref().map(|inner| inner as _),
            None => e.source(),
        };
    }
    false
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// What the caller must do with a durable write it is about to perform.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum WritePlan {
    /// Write the buffer normally.
    Proceed,
    /// Write these bytes instead of the buffer, then fail with
    /// [`injected_crash`] — the process died mid-write.
    CrashAfterWriting(Vec<u8>),
    /// Write nothing and fail with [`injected_crash`].
    Crash,
}

fn in_scope(state: &FaultState, path: &Path) -> bool {
    path.starts_with(&state.plan.scope)
}

/// Hook before writing `buf` to `path`. Durable-write sites must obey
/// the returned [`WritePlan`].
pub(crate) fn on_write(path: &Path, buf: &[u8]) -> WritePlan {
    let mut active = ACTIVE.lock().unwrap_or_else(|e| e.into_inner());
    let Some(state) = active.as_mut() else {
        return WritePlan::Proceed;
    };
    if !in_scope(state, path) {
        return WritePlan::Proceed;
    }
    if state.tripped {
        return WritePlan::Crash;
    }
    state.ops += 1;
    if state.ops <= state.plan.fail_after {
        return WritePlan::Proceed;
    }
    state.tripped = true;
    let r = splitmix(state.plan.seed ^ state.ops);
    match state.plan.mode {
        FaultMode::Clean => WritePlan::Crash,
        FaultMode::Partial => {
            // Keep a strict prefix so the tear is observable.
            let keep = (r % buf.len().max(1) as u64) as usize;
            WritePlan::CrashAfterWriting(buf[..keep].to_vec())
        }
        FaultMode::BitFlip => {
            let mut bytes = buf.to_vec();
            if !bytes.is_empty() {
                let pos = (r % bytes.len() as u64) as usize;
                bytes[pos] ^= 1 << (r >> 32 & 7);
            }
            WritePlan::CrashAfterWriting(bytes)
        }
    }
}

/// Hook before an fsync of `path`. `Err` means the process died before
/// the sync took effect.
pub(crate) fn on_sync(path: &Path) -> io::Result<()> {
    bump_non_write(path)
}

/// Hook before atomically renaming onto `path`. `Err` means the process
/// died before the rename.
pub(crate) fn on_rename(path: &Path) -> io::Result<()> {
    bump_non_write(path)
}

fn bump_non_write(path: &Path) -> io::Result<()> {
    let mut active = ACTIVE.lock().unwrap_or_else(|e| e.into_inner());
    let Some(state) = active.as_mut() else {
        return Ok(());
    };
    if !in_scope(state, path) {
        return Ok(());
    }
    if state.tripped {
        return Err(injected_crash());
    }
    state.ops += 1;
    if state.ops <= state.plan.fail_after {
        return Ok(());
    }
    state.tripped = true;
    Err(injected_crash())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_counts_and_trips_deterministically() {
        let _serial = test_lock();
        let scope = PathBuf::from("/fault-test-scope");
        let file = scope.join("data");
        let guard = FaultPlan {
            scope: scope.clone(),
            fail_after: 2,
            mode: FaultMode::Partial,
            seed: 42,
        }
        .install();

        assert_eq!(on_write(&file, b"aaaa"), WritePlan::Proceed);
        assert!(on_sync(&file).is_ok());
        // Third op crashes with a strict prefix of the buffer.
        match on_write(&file, b"bbbbbbbb") {
            WritePlan::CrashAfterWriting(prefix) => {
                assert!(prefix.len() < 8);
                assert!(prefix.iter().all(|&b| b == b'b'));
            }
            other => panic!("expected torn write, got {other:?}"),
        }
        assert!(guard.tripped());
        // Everything after the crash fails, in or out of order.
        assert_eq!(on_write(&file, b"x"), WritePlan::Crash);
        let err = on_sync(&file).unwrap_err();
        assert!(is_injected_crash(&err));
        // Out-of-scope paths are untouched even after the trip.
        assert_eq!(
            on_write(Path::new("/elsewhere/f"), b"x"),
            WritePlan::Proceed
        );
        assert_eq!(guard.ops_observed(), 3);
        drop(guard);
        assert_eq!(on_write(&file, b"x"), WritePlan::Proceed);
    }

    #[test]
    fn bitflip_changes_exactly_one_bit() {
        let _serial = test_lock();
        let scope = PathBuf::from("/fault-test-bitflip");
        let file = scope.join("data");
        let guard = FaultPlan {
            scope,
            fail_after: 0,
            mode: FaultMode::BitFlip,
            seed: 7,
        }
        .install();
        let buf = vec![0u8; 64];
        match on_write(&file, &buf) {
            WritePlan::CrashAfterWriting(out) => {
                assert_eq!(out.len(), buf.len());
                let flipped: u32 = out
                    .iter()
                    .zip(&buf)
                    .map(|(a, b)| (a ^ b).count_ones())
                    .sum();
                assert_eq!(flipped, 1);
            }
            other => panic!("expected bit flip, got {other:?}"),
        }
        drop(guard);
    }

    #[test]
    fn injected_crash_is_detectable_through_wrapping() {
        let inner = injected_crash();
        assert!(is_injected_crash(&inner));
        let wrapped = io::Error::new(io::ErrorKind::InvalidData, inner);
        assert!(is_injected_crash(&wrapped));
        assert!(!is_injected_crash(&io::Error::other("plain failure")));
    }
}
