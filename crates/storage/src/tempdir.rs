//! Self-cleaning scratch directories for tests, examples and benchmarks.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static COUNTER: AtomicU64 = AtomicU64::new(0);

/// A uniquely named directory under the system temp dir, removed on drop.
///
/// The workspace avoids external crates where the standard library
/// suffices; this replaces `tempfile` for our narrow needs.
#[derive(Debug)]
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Creates `$TMPDIR/spb-<label>-<pid>-<n>`.
    ///
    /// # Panics
    /// Panics if the directory cannot be created: a test or benchmark
    /// without its scratch space has nothing left to run.
    #[allow(clippy::expect_used)]
    pub fn new(label: &str) -> Self {
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("spb-{label}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&path).expect("create temp dir");
        TempDir { path }
    }

    /// The directory path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        // Best effort: leaking a temp dir must never fail a test.
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn creates_unique_dirs_and_cleans_up() {
        let p1;
        {
            let d1 = TempDir::new("t");
            let d2 = TempDir::new("t");
            assert_ne!(d1.path(), d2.path());
            assert!(d1.path().is_dir());
            std::fs::write(d1.path().join("f"), b"x").unwrap();
            p1 = d1.path().to_path_buf();
        }
        assert!(!p1.exists(), "dropped TempDir must remove its directory");
    }
}
