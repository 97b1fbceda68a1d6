//! Learned leaf-positioning model: a flattened leaf directory plus a
//! piecewise-linear (shrinking-cone PLA) model over leaf minimum keys.
//!
//! On-disk format (`spb.model`, little-endian, written atomically):
//!
//! ```text
//! magic   8B  "SPBMODL1"
//! crc     4B  CRC-32 of everything after this field
//! payload:
//!   epoch_len      u64   tree object count at train time
//!   epoch_next_id  u32   tree id watermark at train time
//!   err            u64   verified search half-window (leaf ordinals)
//!   n_leaves       u64
//!   n_segments     u64
//!   leaves    n × (min_key u128, max_key u128, page u64,
//!                  mbb_lo u128, mbb_hi u128)            = 72B each
//!   segments  m × (start_key u128, start_pos u64,
//!                  slope f64-bits u64)                  = 32B each
//! ```
//!
//! Decoding is total: any truncated, oversized, or corrupt file yields
//! `None`, never a panic — a torn model write after a crash must
//! degrade to classic descent, not take the tree down.

use std::io;
use std::path::Path;

use spb_storage::{atomic_write_file, crc32};

use crate::metrics;

/// File name of the persisted model, living next to `spb.meta`.
pub const MODEL_FILE: &str = "spb.model";

/// Magic prefix of the model file (8 bytes, version suffix `1`).
pub(crate) const MODEL_MAGIC: &[u8; 8] = b"SPBMODL1";

/// Target training error (half-window, in leaf ordinals) for the
/// shrinking-cone segmentation. The persisted window is the *measured*
/// maximum error plus one ordinal of inter-key slack, so this only
/// controls the model-size/search-width trade-off.
const TARGET_ERR: u64 = 8;

/// One leaf of the B⁺-tree, as seen by the directory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LeafEntry {
    /// Smallest SFC key stored in the leaf.
    pub min_key: u128,
    /// Largest SFC key stored in the leaf.
    pub max_key: u128,
    /// Raw page id of the leaf (`spb_storage::PageId.0`).
    pub page: u64,
    /// Encoded low corner of the leaf's true minimum bounding box
    /// (union over all keys' cells, not just the key-range corners —
    /// under Hilbert ordering the two differ).
    pub mbb_lo: u128,
    /// Encoded high corner of the leaf's true minimum bounding box.
    pub mbb_hi: u128,
}

/// One linear segment of the PLA model.
#[derive(Clone, Copy, Debug)]
struct Segment {
    /// First key covered by the segment.
    start_key: u128,
    /// Leaf ordinal at `start_key`.
    start_pos: u64,
    /// Leaf ordinals per key unit (always ≥ 0).
    slope: f64,
}

/// Outcome of a model-guided point location.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Located {
    /// `key` can only live in leaves `first..=last` (inclusive run;
    /// longer than one leaf only when duplicate keys span a split).
    Run(usize, usize),
    /// No leaf's key range covers `key` — it is provably absent.
    Absent,
    /// The window invariant could not be verified (model too stale or
    /// error underestimated); the caller must fall back to classic
    /// descent.
    Miss,
}

/// A trained leaf-positioning model: leaf directory + PLA segments +
/// the epoch it was trained at.
#[derive(Clone, Debug)]
pub struct LeafModel {
    /// Tree object count at train time (staleness stamp).
    pub epoch_len: u64,
    /// Tree id watermark at train time (staleness stamp).
    pub epoch_next_id: u32,
    leaves: Vec<LeafEntry>,
    segments: Vec<Segment>,
    /// Verified search half-window, in leaf ordinals.
    err: u64,
}

/// `(a - b)` as f64 for `a >= b` (u128 → f64 is a saturating, rounding
/// conversion; the residual is absorbed by the measured error window).
fn delta_f64(a: u128, b: u128) -> f64 {
    (a - b) as f64
}

impl LeafModel {
    /// Trains a model over the leaf directory (must be in leaf-chain
    /// order, i.e. sorted by `min_key`). Records each training point's
    /// absolute error in the `accel.model_error` histogram.
    pub fn train(leaves: Vec<LeafEntry>, epoch_len: u64, epoch_next_id: u32) -> LeafModel {
        let n = leaves.len();
        let mut segments = Vec::new();
        let mut i = 0usize;
        while i < n {
            let start_key = leaves[i].min_key;
            let start_pos = i as u64;
            let mut slope_lo = 0.0_f64;
            let mut slope_hi = f64::INFINITY;
            let mut j = i + 1;
            while j < n {
                let dx = delta_f64(leaves[j].min_key, start_key);
                let dy = (j - i) as f64;
                if dx <= 0.0 {
                    // Duplicate min_key run: any slope predicts
                    // `start_pos` here, covered iff within target.
                    if dy <= TARGET_ERR as f64 {
                        j += 1;
                        continue;
                    }
                    break;
                }
                let need_lo = (dy - TARGET_ERR as f64) / dx;
                let need_hi = (dy + TARGET_ERR as f64) / dx;
                let new_lo = slope_lo.max(need_lo);
                let new_hi = slope_hi.min(need_hi);
                if new_lo > new_hi {
                    break;
                }
                slope_lo = new_lo;
                slope_hi = new_hi;
                j += 1;
            }
            let slope = if slope_hi.is_finite() {
                0.5 * (slope_lo + slope_hi)
            } else {
                slope_lo
            }
            .max(0.0);
            segments.push(Segment {
                start_key,
                start_pos,
                slope,
            });
            i = j;
        }

        let mut model = LeafModel {
            epoch_len,
            epoch_next_id,
            leaves,
            segments,
            err: 0,
        };
        // Measure the true maximum error over the training points; +1
        // ordinal of slack covers keys falling between leaf min-keys
        // (the position function is a step function, the model is
        // monotone, so an off-grid key adds at most one ordinal).
        let hist = metrics::model_error();
        let mut max_err = 0u64;
        for (idx, e) in model.leaves.iter().enumerate() {
            let p = model.predict_raw(e.min_key);
            let diff = (p - idx as f64).abs();
            // Ceil, saturating: a pathological slope cannot wrap.
            let d = if diff >= u64::MAX as f64 {
                u64::MAX
            } else {
                diff.ceil() as u64
            };
            hist.record(d);
            max_err = max_err.max(d);
        }
        model.err = max_err.saturating_add(1);
        model
    }

    /// The leaf directory, in leaf-chain order.
    pub fn leaves(&self) -> &[LeafEntry] {
        &self.leaves
    }

    /// True when the model was trained at exactly this tree state.
    pub fn fresh(&self, len: u64, next_id: u32) -> bool {
        self.epoch_len == len && self.epoch_next_id == next_id
    }

    /// Raw (unclamped) model prediction of the leaf ordinal for `key`.
    fn predict_raw(&self, key: u128) -> f64 {
        let si = self.segments.partition_point(|s| s.start_key <= key);
        let Some(s) = si.checked_sub(1).and_then(|i| self.segments.get(i)) else {
            return 0.0;
        };
        s.start_pos as f64 + s.slope * delta_f64(key, s.start_key)
    }

    /// Predicted search window `[lo, hi]` (inclusive leaf ordinals) for
    /// `key`. Empty directory yields `(0, 0)`; callers guard on
    /// `leaves().is_empty()`.
    pub(crate) fn predict(&self, key: u128) -> (usize, usize) {
        let n = self.leaves.len();
        if n == 0 {
            return (0, 0);
        }
        let p = self.predict_raw(key).clamp(0.0, (n - 1) as f64);
        let center = p.round() as u64;
        let lo = center.saturating_sub(self.err) as usize;
        let hi = ((center.saturating_add(self.err)).min(n as u64 - 1)) as usize;
        (lo.min(hi), hi)
    }

    /// Locates the run of leaves whose key range covers `key`, via the
    /// PLA prediction plus a bounded local search. Never wrong: when
    /// the window cannot prove the answer it returns [`Located::Miss`]
    /// and the caller falls back to classic descent.
    pub fn locate(&self, key: u128) -> Located {
        let n = self.leaves.len();
        if n == 0 {
            return Located::Absent;
        }
        let (lo, hi) = self.predict(key);
        let Some(w) = self.leaves.get(lo..=hi) else {
            return Located::Miss;
        };
        // In-window index of the first leaf with min_key > key.
        let c = w.partition_point(|e| e.min_key <= key);
        let last = if c == 0 {
            if lo == 0 {
                // leaves[0].min_key > key: precedes the whole tree.
                return Located::Absent;
            }
            return Located::Miss; // true position may be left of the window
        } else {
            let b = lo + c - 1;
            if b == hi {
                match self.leaves.get(hi + 1) {
                    Some(next) if next.min_key <= key => return Located::Miss,
                    _ => {}
                }
            }
            b
        };
        let Some(leaf) = self.leaves.get(last) else {
            return Located::Miss;
        };
        if key > leaf.max_key {
            return Located::Absent; // falls in the gap before the next leaf
        }
        // Duplicate keys can span leaf splits: extend left while the
        // previous leaf's range still reaches `key`.
        let mut first = last;
        while first > 0 {
            match self.leaves.get(first - 1) {
                Some(prev) if prev.max_key >= key => first -= 1,
                _ => break,
            }
        }
        Located::Run(first, last)
    }

    // ---- persistence ---------------------------------------------------

    /// Serializes the model (magic + CRC + payload).
    pub fn encode(&self) -> Vec<u8> {
        let payload_len = 8 + 4 + 8 + 8 + 8 + self.leaves.len() * 72 + self.segments.len() * 32;
        let mut payload = Vec::with_capacity(payload_len);
        payload.extend_from_slice(&self.epoch_len.to_le_bytes());
        payload.extend_from_slice(&self.epoch_next_id.to_le_bytes());
        payload.extend_from_slice(&self.err.to_le_bytes());
        payload.extend_from_slice(&(self.leaves.len() as u64).to_le_bytes());
        payload.extend_from_slice(&(self.segments.len() as u64).to_le_bytes());
        for e in &self.leaves {
            payload.extend_from_slice(&e.min_key.to_le_bytes());
            payload.extend_from_slice(&e.max_key.to_le_bytes());
            payload.extend_from_slice(&e.page.to_le_bytes());
            payload.extend_from_slice(&e.mbb_lo.to_le_bytes());
            payload.extend_from_slice(&e.mbb_hi.to_le_bytes());
        }
        for s in &self.segments {
            payload.extend_from_slice(&s.start_key.to_le_bytes());
            payload.extend_from_slice(&s.start_pos.to_le_bytes());
            payload.extend_from_slice(&s.slope.to_bits().to_le_bytes());
        }
        let mut out = Vec::with_capacity(8 + 4 + payload.len());
        out.extend_from_slice(MODEL_MAGIC);
        out.extend_from_slice(&crc32(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    /// Total decoder: `None` on any malformed input (wrong magic, bad
    /// CRC, truncated or trailing bytes, inconsistent counts).
    pub fn decode(bytes: &[u8]) -> Option<LeafModel> {
        let rest = bytes.strip_prefix(MODEL_MAGIC.as_slice())?;
        let (crc_bytes, payload) = split_array::<4>(rest)?;
        let want = u32::from_le_bytes(crc_bytes);
        if crc32(payload) != want {
            return None;
        }
        let mut cur = payload;
        let epoch_len = take_u64(&mut cur)?;
        let epoch_next_id = take_u32(&mut cur)?;
        let err = take_u64(&mut cur)?;
        let n_leaves = take_u64(&mut cur)?;
        let n_segments = take_u64(&mut cur)?;
        // Bounded allocation: the counts must account for exactly the
        // remaining bytes before any Vec is sized from them.
        let need = (n_leaves as usize)
            .checked_mul(72)?
            .checked_add((n_segments as usize).checked_mul(32)?)?;
        if cur.len() != need {
            return None;
        }
        let mut leaves = Vec::with_capacity(n_leaves as usize);
        for _ in 0..n_leaves {
            let min_key = take_u128(&mut cur)?;
            let max_key = take_u128(&mut cur)?;
            let page = take_u64(&mut cur)?;
            let mbb_lo = take_u128(&mut cur)?;
            let mbb_hi = take_u128(&mut cur)?;
            leaves.push(LeafEntry {
                min_key,
                max_key,
                page,
                mbb_lo,
                mbb_hi,
            });
        }
        let mut segments = Vec::with_capacity(n_segments as usize);
        for _ in 0..n_segments {
            let start_key = take_u128(&mut cur)?;
            let start_pos = take_u64(&mut cur)?;
            let slope = f64::from_bits(take_u64(&mut cur)?);
            // A persisted NaN/negative slope would poison every window
            // comparison downstream; reject the file outright.
            if !slope.is_finite() || slope < 0.0 {
                return None;
            }
            segments.push(Segment {
                start_key,
                start_pos,
                slope,
            });
        }
        if !cur.is_empty() {
            return None;
        }
        Some(LeafModel {
            epoch_len,
            epoch_next_id,
            leaves,
            segments,
            err,
        })
    }

    /// Atomically persists the model at `path` (routes through the
    /// fault-injection hooks like every other metadata write).
    pub fn save(&self, path: &Path) -> io::Result<()> {
        atomic_write_file(path, &self.encode())
    }

    /// Loads a model from `path`. `Ok(None)` when the file is missing
    /// or fails validation (torn write, corruption) — those degrade to
    /// classic descent rather than erroring.
    pub fn load(path: &Path) -> io::Result<Option<LeafModel>> {
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        Ok(LeafModel::decode(&bytes))
    }
}

fn split_array<const N: usize>(b: &[u8]) -> Option<([u8; N], &[u8])> {
    if b.len() < N {
        return None;
    }
    let (head, tail) = b.split_at(N);
    let arr: [u8; N] = head.try_into().ok()?;
    Some((arr, tail))
}

fn take_u32(cur: &mut &[u8]) -> Option<u32> {
    let (a, rest) = split_array::<4>(cur)?;
    *cur = rest;
    Some(u32::from_le_bytes(a))
}

fn take_u64(cur: &mut &[u8]) -> Option<u64> {
    let (a, rest) = split_array::<8>(cur)?;
    *cur = rest;
    Some(u64::from_le_bytes(a))
}

fn take_u128(cur: &mut &[u8]) -> Option<u128> {
    let (a, rest) = split_array::<16>(cur)?;
    *cur = rest;
    Some(u128::from_le_bytes(a))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dir(min_keys: &[u128]) -> Vec<LeafEntry> {
        min_keys
            .iter()
            .enumerate()
            .map(|(i, &k)| {
                let max = min_keys.get(i + 1).map_or(k + 9, |&n| n.max(k));
                LeafEntry {
                    min_key: k,
                    max_key: if max > k { max - 1 } else { max },
                    page: i as u64 + 1,
                    mbb_lo: k,
                    mbb_hi: max,
                }
            })
            .collect()
    }

    #[test]
    fn train_predict_covers_every_leaf() {
        // Irregular key spacing forces multiple segments.
        let keys: Vec<u128> = (0..500u128)
            .map(|i| i * 10 + (i % 7) * 311 + (i / 100) * 100_000)
            .collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        let leaves = dir(&sorted);
        let m = LeafModel::train(leaves.clone(), 500, 500);
        assert!(!m.segments.is_empty());
        for (i, e) in leaves.iter().enumerate() {
            let (lo, hi) = m.predict(e.min_key);
            assert!(lo <= i && i <= hi, "leaf {i} outside window [{lo},{hi}]");
            match m.locate(e.min_key) {
                Located::Run(first, last) => assert!(first <= i && i <= last),
                other => panic!("leaf {i} min_key not located: {other:?}"),
            }
        }
    }

    #[test]
    fn locate_handles_gaps_duplicates_and_extremes() {
        let leaves = vec![
            LeafEntry {
                min_key: 100,
                max_key: 200,
                page: 1,
                mbb_lo: 100,
                mbb_hi: 200,
            },
            // Duplicate key 200 spans the split.
            LeafEntry {
                min_key: 200,
                max_key: 300,
                page: 2,
                mbb_lo: 200,
                mbb_hi: 300,
            },
            LeafEntry {
                min_key: 500,
                max_key: 600,
                page: 3,
                mbb_lo: 500,
                mbb_hi: 600,
            },
        ];
        let m = LeafModel::train(leaves, 30, 30);
        assert_eq!(m.locate(50), Located::Absent); // before the tree
        assert_eq!(m.locate(150), Located::Run(0, 0));
        assert_eq!(m.locate(200), Located::Run(0, 1)); // duplicate run
        assert_eq!(m.locate(400), Located::Absent); // in the gap
        assert_eq!(m.locate(555), Located::Run(2, 2));
        assert_eq!(m.locate(700), Located::Absent); // past the tree
    }

    #[test]
    fn empty_and_single_leaf_models() {
        let m = LeafModel::train(Vec::new(), 0, 0);
        assert_eq!(m.locate(42), Located::Absent);
        let one = vec![LeafEntry {
            min_key: 10,
            max_key: 20,
            page: 7,
            mbb_lo: 10,
            mbb_hi: 20,
        }];
        let m = LeafModel::train(one, 3, 3);
        assert_eq!(m.locate(15), Located::Run(0, 0));
        assert_eq!(m.locate(25), Located::Absent);
    }

    #[test]
    fn roundtrip_and_total_decode() {
        let keys: Vec<u128> = (0..64u128).map(|i| i * i * 13).collect();
        let m = LeafModel::train(dir(&keys), 64, 77);
        let bytes = m.encode();
        let d = LeafModel::decode(&bytes).expect("roundtrip");
        assert_eq!(d.epoch_len, 64);
        assert_eq!(d.epoch_next_id, 77);
        assert_eq!(d.leaves(), m.leaves());
        assert_eq!(d.segments.len(), m.segments.len());
        assert_eq!(d.err, m.err);

        // Every truncation must fail cleanly.
        for cut in 0..bytes.len() {
            assert!(LeafModel::decode(&bytes[..cut]).is_none(), "cut={cut}");
        }
        // Trailing garbage, flipped bytes, wrong magic.
        let mut long = bytes.clone();
        long.push(0);
        assert!(LeafModel::decode(&long).is_none());
        for i in (0..bytes.len()).step_by(17) {
            let mut bad = bytes.clone();
            bad[i] ^= 0x5a;
            assert!(LeafModel::decode(&bad).is_none(), "flip at {i}");
        }
        // A huge declared leaf count must not allocate; re-patch the
        // CRC so the length guard (not the checksum) does the reject.
        let mut huge = bytes.clone();
        huge[32..40].copy_from_slice(&u64::MAX.to_le_bytes());
        let crc = crc32(&huge[12..]);
        huge[8..12].copy_from_slice(&crc.to_le_bytes());
        assert!(LeafModel::decode(&huge).is_none());
    }

    #[test]
    fn save_load_roundtrip_and_missing_file() {
        let tmp = spb_storage::TempDir::new("accel-model");
        let path = tmp.path().join(MODEL_FILE);
        assert!(LeafModel::load(&path).unwrap().is_none());
        let keys: Vec<u128> = (0..32u128).map(|i| i * 1000).collect();
        let m = LeafModel::train(dir(&keys), 32, 32);
        m.save(&path).unwrap();
        let d = LeafModel::load(&path).unwrap().expect("valid model");
        assert!(d.fresh(32, 32));
        assert!(!d.fresh(33, 32));
        // Corrupt on disk -> load degrades to None, not an error.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        assert!(LeafModel::load(&path).unwrap().is_none());
    }
}
