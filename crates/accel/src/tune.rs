//! Recall measurement and recall-targeted parameter tuning.
//!
//! The approximate paths keep perfect precision (range hits are
//! re-checked against the true radius; kNN returns real neighbours,
//! just possibly not the nearest ones), so quality is summarized by a
//! single recall number: the fraction of exact answers the approximate
//! run retained. Auto-tuning walks a ladder of candidate parameters
//! from most to least aggressive and stops at the first one whose
//! measured recall (against sampled exact ground truth) meets the
//! target — the Chávez–Navarro "probabilistic spell" protocol.

/// Candidate kNN bound-inflation factors, most aggressive first. The
/// final `1.0` is exact, so tuning always terminates with a parameter
/// meeting any target ≤ 1.
pub const ALPHA_LADDER: [f64; 6] = [4.0, 3.0, 2.0, 1.5, 1.25, 1.0];

/// Outcome of an auto-tune run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tuned {
    /// Chosen parameter (a ladder entry).
    pub param: f64,
    /// Recall measured for that parameter on the tuning sample.
    pub achieved: f64,
}

/// Fraction of `exact` result ids retained by `approx` (1.0 when the
/// exact set is empty — nothing was missed). Quadratic in the result
/// sizes, which are small (k, or a range result) by construction.
pub fn recall(exact: &[u32], approx: &[u32]) -> f64 {
    if exact.is_empty() {
        return 1.0;
    }
    let kept = exact.iter().filter(|id| approx.contains(id)).count();
    kept as f64 / exact.len() as f64
}

/// Walks `ladder` (most aggressive first), evaluating each parameter's
/// recall via `eval`, and returns the first meeting `target`. Falls
/// back to the ladder's last (least aggressive) entry when none does,
/// and to an exact `param = 1.0` when the ladder is empty.
pub fn tune(ladder: &[f64], target: f64, mut eval: impl FnMut(f64) -> f64) -> Tuned {
    let mut last = Tuned {
        param: 1.0,
        achieved: 1.0,
    };
    for &param in ladder {
        let achieved = eval(param);
        last = Tuned { param, achieved };
        if achieved >= target {
            return last;
        }
    }
    last
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recall_counts_retained_ids() {
        assert_eq!(recall(&[], &[1, 2]), 1.0);
        assert_eq!(recall(&[1, 2, 3, 4], &[4, 2]), 0.5);
        assert_eq!(recall(&[1, 2], &[2, 1, 9]), 1.0);
        assert_eq!(recall(&[7], &[]), 0.0);
    }

    #[test]
    fn tune_picks_most_aggressive_param_meeting_target() {
        // Recall improves as alpha shrinks toward exact.
        let t = tune(&ALPHA_LADDER, 0.9, |a| 1.0 - (a - 1.0) * 0.1);
        assert_eq!(t.param, 2.0);
        assert!(t.achieved >= 0.9);
        // Unreachable target degrades to the exact endpoint.
        let t = tune(&ALPHA_LADDER, 2.0, |_| 0.5);
        assert_eq!(t.param, 1.0);
        assert_eq!(t.achieved, 0.5);
        // Empty ladder is exact by definition.
        let t = tune(&[], 0.99, |_| 0.0);
        assert_eq!(t.param, 1.0);
    }
}
