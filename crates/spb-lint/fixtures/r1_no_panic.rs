//! Known-bad fixture for the no-panic zones: every literal panic site,
//! each rejected by exactly one mechanism. `tests/fixtures.rs` compiles
//! this file with `clippy-driver` (the zone deny line below must reject
//! the indexing, `unwrap`, `expect`, `panic!`, `unreachable!`, `todo!`
//! and `unimplemented!` lines) and runs `panic-reach` over it under a
//! zone pseudo path (which must report the `assert*!` lines and nothing
//! else). The workspace scan skips the fixtures directory.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::indexing_slicing,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

pub fn decode(buf: &[u8], x: Option<u8>) -> u8 {
    let a = buf[0];
    let b = x.unwrap();
    let c = x.expect("present");
    if a > 10 {
        panic!("bad frame");
    }
    if b == c {
        unreachable!();
    }
    assert!(a < 9, "short frame");
    assert_eq!(b, 1);
    assert_ne!(c, 2);
    debug_assert!(a != b);
    match a {
        0 => todo!(),
        1 => unimplemented!(),
        _ => b,
    }
}
