//! SPB-tree construction parameters (Table 3 defaults).

use spb_pivots::{PivotConfig, PivotMethod};
use spb_sfc::CurveKind;

/// Construction parameters for an [`SpbTree`](crate::SpbTree).
///
/// Defaults match the paper's Table 3: 5 pivots, 32-page cache, Hilbert
/// curve, HFI pivot selection, and δ chosen automatically (1 for discrete
/// metrics, a 512-cell grid otherwise — the paper's default δ = 0.005 sits
/// in the same regime for its real-valued datasets).
#[derive(Clone, Debug)]
pub struct SpbConfig {
    /// Number of pivots `|P|` (Table 3 default: 5, near the intrinsic
    /// dimensionality of the evaluated datasets).
    pub num_pivots: usize,
    /// δ-approximation granularity. `None` selects automatically: `1.0`
    /// for discrete metrics (edit, Hamming), `d⁺ / 512` otherwise.
    pub delta: Option<f64>,
    /// Space-filling curve (Hilbert for search; the join algorithm
    /// requires Z-order, see Lemma 6).
    pub curve: CurveKind,
    /// Page-cache capacity, in pages, for both the B⁺-tree file and the
    /// RAF (Table 3 default: 32).
    pub cache_pages: usize,
    /// Pivot selection algorithm (the paper's HFI by default).
    pub pivot_method: PivotMethod,
    /// Sampling knobs for pivot selection.
    pub pivot_config: PivotConfig,
    /// Ablation switch: apply Lemma 2 (accept an object without computing
    /// `d(q, o)` when a pivot ball lies inside the query ball) during
    /// range queries. On by default; the `ablation` experiment measures
    /// its contribution. It is the only range-query switch: Lemma 1 and
    /// the MBB test always run in key space, through one leaf filter that
    /// keeps exactly what a per-entry test keeps (`spb_core::range`).
    pub use_lemma2: bool,
    /// Crash durability: updates are committed through a write-ahead log
    /// (one fsync per update) and replayed on reopen. On by default; the
    /// update benchmarks toggle it off to measure the WAL's cost.
    pub durability: bool,
    /// Learned-positioning policy (`spb-accel`): `Learned` trains a
    /// piecewise-linear SFC-key → leaf-position model at build and every
    /// checkpoint, persisted next to `spb.meta`, which queries use in
    /// place of inner-node descent. `Off` (the paper-faithful default)
    /// trains nothing.
    pub accel: spb_accel::AccelPolicy,
}

impl Default for SpbConfig {
    fn default() -> Self {
        SpbConfig {
            num_pivots: 5,
            delta: None,
            curve: CurveKind::Hilbert,
            cache_pages: 32,
            pivot_method: PivotMethod::Hfi,
            pivot_config: PivotConfig::default(),
            use_lemma2: true,
            durability: true,
            accel: spb_accel::AccelPolicy::Off,
        }
    }
}

impl SpbConfig {
    /// Convenience: the default configuration with a different pivot count.
    pub fn with_pivots(num_pivots: usize) -> Self {
        SpbConfig {
            num_pivots,
            ..Self::default()
        }
    }

    /// Convenience: the default configuration on the Z-order curve (what
    /// [`similarity_join`](crate::similarity_join) requires).
    pub fn for_join() -> Self {
        SpbConfig {
            curve: CurveKind::Z,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table_3() {
        let c = SpbConfig::default();
        assert_eq!(c.num_pivots, 5);
        assert_eq!(c.cache_pages, 32);
        assert_eq!(c.curve, CurveKind::Hilbert);
        assert_eq!(c.pivot_method, PivotMethod::Hfi);
        assert!(c.delta.is_none());
        assert_eq!(
            c.accel,
            spb_accel::AccelPolicy::Off,
            "learned positioning must be opt-in"
        );
    }

    #[test]
    fn join_config_uses_z_order() {
        assert_eq!(SpbConfig::for_join().curve, CurveKind::Z);
    }
}
