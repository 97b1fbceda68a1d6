//! Known-bad fixture: malformed suppression markers.

// spb-lint: allow(no-such-rule) — the slug names no registered rule
pub fn misspelled() {}

// spb-lint: allow(panic-reach)
pub fn unjustified() {}
