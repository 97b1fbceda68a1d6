//! Process-global accel metrics, registered once in the `spb-obs`
//! registry and shared by every tree in the process (the registry is
//! global, matching how the buffer-pool and admission metrics work).

use std::sync::{Arc, OnceLock};

use spb_obs::{Counter, Gauge, Histogram};

/// Queries (or per-key locates) answered by the learned model.
pub fn model_hit() -> &'static Arc<Counter> {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    C.get_or_init(|| spb_obs::counter("accel.model_hit"))
}

/// Falls back to classic descent: stale epoch, missing model, or a
/// locate whose error window could not be verified.
pub fn model_fallback() -> &'static Arc<Counter> {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    C.get_or_init(|| spb_obs::counter("accel.model_fallback"))
}

/// Model (re)trainings — at build, checkpoint, or explicit rebuild.
pub fn model_retrain() -> &'static Arc<Counter> {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    C.get_or_init(|| spb_obs::counter("accel.model_retrain"))
}

/// Absolute training-point error (leaf ordinals), recorded per leaf at
/// train time; the p99/max of this is the effective search window.
pub(crate) fn model_error() -> &'static Arc<Histogram> {
    static H: OnceLock<Arc<Histogram>> = OnceLock::new();
    H.get_or_init(|| spb_obs::histogram("accel.model_error"))
}

/// Most recently measured approximate-query recall, in permille
/// (histograms and gauges are integer-valued; 1000 = perfect recall).
pub(crate) fn recall_gauge() -> &'static Arc<Gauge> {
    static G: OnceLock<Arc<Gauge>> = OnceLock::new();
    G.get_or_init(|| spb_obs::gauge("accel.recall_permille"))
}

/// Records a measured recall on [`recall_gauge`], clamped to [0, 1000].
pub fn record_recall(recall: f64) {
    let permille = (recall * 1000.0).clamp(0.0, 1000.0) as i64;
    recall_gauge().set(permille);
}
