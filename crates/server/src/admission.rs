//! Request deadlines.
//!
//! Admission itself is the dispatcher's work queue (see
//! [`crate::dispatch`]): a bounded FIFO whose places are owned by the
//! requests holding them. What remains here is the per-request time
//! budget that queue and the service both honour.

use std::time::{Duration, Instant};

/// A request's absolute time budget.
///
/// Wire deadlines are relative (`deadline_ms` from receipt); this pins
/// them to an [`Instant`] once so queueing time counts against the
/// budget. `Deadline(None)` never expires.
#[derive(Clone, Copy, Debug)]
pub struct Deadline(Option<Instant>);

impl Deadline {
    /// A deadline `ms` milliseconds from now; `0` means no deadline.
    pub fn from_ms(ms: u32) -> Deadline {
        if ms == 0 {
            Deadline(None)
        } else {
            Deadline(Some(
                spb_obs::clock::now() + Duration::from_millis(u64::from(ms)),
            ))
        }
    }

    /// A deadline that never expires.
    pub fn none() -> Deadline {
        Deadline(None)
    }

    /// True iff the budget has run out.
    pub fn expired(&self) -> bool {
        self.0.is_some_and(|t| spb_obs::clock::now() >= t)
    }
}
