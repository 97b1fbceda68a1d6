//! Known-bad fixture for the root `clippy.toml`'s `disallowed-methods`:
//! raw `Instant::now()` readings that bypass `spb_obs::clock`, spelled
//! fully qualified, bare, and through a type alias. Compiled by
//! clippy-driver in `tests/fixtures.rs`.

use std::time::Instant;

type Clock = Instant;

pub fn handle(elapsed: &mut u64) {
    let t0 = std::time::Instant::now();
    let t1 = Instant::now();
    let t2 = Clock::now();
    *elapsed = t2.duration_since(t1).as_nanos() as u64 + t1.duration_since(t0).as_nanos() as u64;
}
