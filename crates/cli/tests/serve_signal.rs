//! `spb-cli serve` under SIGTERM: the process must drain, checkpoint and
//! exit 0 — not die mid-write with acknowledged inserts still in the WAL.
//! Runs the built binary, because a signal disposition is per process.

#![cfg(unix)]

use std::io::{BufRead, BufReader, Read};
use std::process::{Child, Command, Stdio};

use spb_core::verify_dir;
use spb_storage::TempDir;

const CLI: &str = env!("CARGO_BIN_EXE_spb-cli");

fn cli(args: &[&str]) -> String {
    let out = Command::new(CLI).args(args).output().expect("run spb-cli");
    let (stdout, stderr) = (
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    assert!(out.status.success(), "spb-cli {args:?}: {stdout}{stderr}");
    stdout.into_owned()
}

/// A failed assertion must not leave a server listening behind the test.
struct KillOnDrop(Child);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn sigterm_drains_checkpoints_and_exits_zero() {
    let dir = TempDir::new("cli-sigterm");
    let input = dir.path().join("words.txt");
    let words: Vec<String> = (0..200).map(|i| format!("word{i}x{}", i % 13)).collect();
    std::fs::write(&input, words.join("\n")).expect("write input");
    let index = dir.path().join("idx");
    let (input, index) = (
        input.to_str().expect("utf-8"),
        index.to_str().expect("utf-8"),
    );
    cli(&[
        "build", "--input", input, "--index", index, "--schema", "words",
    ]);

    let serve = Command::new(CLI)
        .args(["serve", "--index", index, "--addr", "127.0.0.1:0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn();
    let mut server = KillOnDrop(serve.expect("spawn spb-cli serve"));
    let server = &mut server.0;
    // Held to the end: a closed pipe would fail the server's later writes.
    let mut stderr = BufReader::new(server.stderr.take().expect("piped stderr"));
    let mut listening = String::new();
    stderr
        .read_line(&mut listening)
        .expect("read the listening line");
    let addr = listening
        .trim()
        .strip_prefix("spb-server listening on ")
        .unwrap_or_else(|| panic!("unexpected first stderr line: {listening:?}"));

    let inserted = cli(&["insert", "--addr", addr, "--object", "sigtermword"]);
    assert!(inserted.contains("inserted"), "{inserted}");

    let killed = Command::new("kill")
        .args(["-TERM", &server.id().to_string()])
        .status()
        .expect("run kill");
    assert!(killed.success());
    let status = server.wait().expect("wait for serve");
    let mut stdout = String::new();
    (server.stdout.take().expect("piped stdout"))
        .read_to_string(&mut stdout)
        .expect("read stdout");
    assert_eq!(status.code(), Some(0), "serve exited with {status}");
    assert!(stdout.contains("server stopped"), "stdout: {stdout:?}");

    // The acknowledged insert was checkpointed: nothing left to recover.
    let report = verify_dir(index.as_ref()).expect("verify");
    assert!(report.ok(), "{:?}", report.problems);
    let found = cli(&[
        "range",
        "--index",
        index,
        "--query",
        "sigtermword",
        "--radius",
        "0",
    ]);
    assert!(found.contains("sigtermword"), "{found}");
}
