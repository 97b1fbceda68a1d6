//! Object types stored in metric indexes.
//!
//! The SPB-tree keeps objects in a *random access file* (RAF) whose entries
//! are variable-length byte records, so every indexable object type must be
//! able to serialise itself into a flat byte buffer and back. The
//! [`MetricObject`] trait captures exactly that, plus the `Clone`/`Send`/
//! `Sync` bounds the disk-based indexes need.
//!
//! Four concrete types cover the paper's datasets:
//!
//! | Type | Paper dataset | Distance |
//! |---|---|---|
//! | [`Word`] | *Words* | [`EditDistance`](crate::EditDistance) |
//! | [`FloatVec`] | *Color*, *Synthetic* | [`LpNorm`](crate::LpNorm) |
//! | [`Dna`] | *DNA* | [`TrigramAngular`](crate::TrigramAngular) |
//! | [`Signature`] | *Signature* | [`Hamming`](crate::Hamming) |

use std::fmt;

/// An object that can live in a metric index.
///
/// Implementors must round-trip through [`encode`](MetricObject::encode) /
/// [`decode`](MetricObject::decode): for every object `o`,
/// `O::decode(&o.encoded()) == o`. The encoded form is what the RAF stores,
/// so its length is also the object's on-disk size (the `len` field of an
/// RAF entry in Fig. 4 of the paper).
pub trait MetricObject: Clone + Send + Sync + PartialEq + fmt::Debug + 'static {
    /// Appends the serialised form of `self` to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);

    /// Reconstructs an object from the bytes produced by
    /// [`encode`](MetricObject::encode), or `None` if the bytes are not a
    /// valid encoding. Untrusted inputs (wire payloads, possibly-corrupt
    /// disk records) must come through here so a bad byte yields a typed
    /// error instead of a panic.
    fn try_decode(bytes: &[u8]) -> Option<Self>;

    /// Reconstructs an object from bytes known to be a valid encoding.
    ///
    /// # Panics
    /// Panics if the bytes are malformed; use
    /// [`try_decode`](MetricObject::try_decode) for untrusted input.
    #[allow(clippy::expect_used)]
    fn decode(bytes: &[u8]) -> Self {
        Self::try_decode(bytes).expect("malformed MetricObject bytes")
    }

    /// Convenience: the serialised form as a fresh vector.
    fn encoded(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode(&mut buf);
        buf
    }

    /// The on-disk size of the object in bytes.
    fn encoded_len(&self) -> usize {
        self.encoded().len()
    }
}

/// A word over arbitrary UTF-8, compared with edit distance (the paper's
/// *Words* dataset: 611,756 English words, lengths 1–34).
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Word(pub String);

impl Word {
    /// Creates a word from anything string-like.
    pub fn new(s: impl Into<String>) -> Self {
        Word(s.into())
    }

    /// The word as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// The word length in bytes (the paper's `len` example: "word" → 4).
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True iff the word is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl fmt::Debug for Word {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Word({:?})", self.0)
    }
}

impl From<&str> for Word {
    fn from(s: &str) -> Self {
        Word(s.to_owned())
    }
}

impl MetricObject for Word {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(self.0.as_bytes());
    }

    fn try_decode(bytes: &[u8]) -> Option<Self> {
        String::from_utf8(bytes.to_vec()).ok().map(Word)
    }
}

/// A dense vector of `f32` coordinates, compared with an Lᵖ-norm
/// (the paper's *Color*: 16-d under L₅; *Synthetic*: 20-d under L₂).
#[derive(Clone, PartialEq)]
pub struct FloatVec(pub Vec<f32>);

impl FloatVec {
    /// Creates a vector from raw coordinates.
    pub fn new(coords: Vec<f32>) -> Self {
        FloatVec(coords)
    }

    /// The coordinates as a slice.
    pub fn coords(&self) -> &[f32] {
        &self.0
    }

    /// Dimensionality of the vector.
    pub fn dim(&self) -> usize {
        self.0.len()
    }
}

impl fmt::Debug for FloatVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FloatVec(dim={})", self.0.len())
    }
}

impl MetricObject for FloatVec {
    fn encode(&self, buf: &mut Vec<u8>) {
        for c in &self.0 {
            buf.extend_from_slice(&c.to_le_bytes());
        }
    }

    fn try_decode(bytes: &[u8]) -> Option<Self> {
        if !bytes.len().is_multiple_of(4) {
            return None;
        }
        Some(FloatVec(
            bytes
                .chunks_exact(4)
                .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                .collect(),
        ))
    }
}

/// A DNA fragment over the alphabet `{A, C, G, T}` (the paper's *DNA*
/// dataset: one million 108-mers compared by cosine similarity in tri-gram
/// counting space).
///
/// The sequence is stored verbatim; the 64-dimensional tri-gram count
/// profile used by [`TrigramAngular`](crate::TrigramAngular) is derived on
/// demand by [`trigram_profile`](Dna::trigram_profile).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Dna(pub String);

impl Dna {
    /// Creates a fragment, validating the alphabet.
    ///
    /// # Panics
    /// Panics if `s` contains a character outside `{A, C, G, T}`.
    pub fn new(s: impl Into<String>) -> Self {
        let s = s.into();
        assert!(
            s.bytes().all(|b| matches!(b, b'A' | b'C' | b'G' | b'T')),
            "DNA sequences must be over {{A,C,G,T}}"
        );
        Dna(s)
    }

    /// The raw sequence.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Sequence length in bases.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True iff the sequence is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Counts of each of the 4³ = 64 possible tri-grams, in lexicographic
    /// order of the tri-gram (A=0, C=1, G=2, T=3).
    // `Dna::new` admits only A, C, G and T.
    #[allow(clippy::unreachable)]
    pub(crate) fn trigram_profile(&self) -> [u32; 64] {
        let mut counts = [0u32; 64];
        let b = self.0.as_bytes();
        if b.len() < 3 {
            return counts;
        }
        let code = |c: u8| -> usize {
            match c {
                b'A' => 0,
                b'C' => 1,
                b'G' => 2,
                b'T' => 3,
                _ => unreachable!("validated at construction"),
            }
        };
        let mut idx = code(b[0]) * 4 + code(b[1]);
        for &c in &b[2..] {
            idx = (idx * 4 + code(c)) & 0x3f;
            counts[idx] += 1;
        }
        counts
    }
}

impl fmt::Debug for Dna {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Dna(len={})", self.0.len())
    }
}

impl MetricObject for Dna {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(self.0.as_bytes());
    }

    fn try_decode(bytes: &[u8]) -> Option<Self> {
        if !bytes.iter().all(|b| matches!(b, b'A' | b'C' | b'G' | b'T')) {
            return None;
        }
        let s = String::from_utf8(bytes.to_vec()).ok()?;
        Some(Dna(s))
    }
}

/// A fixed-length symbol signature compared with Hamming distance (the
/// paper's *Signature* dataset: 49,740 signatures of 64 symbols, `d⁺` = 64).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Signature(pub Vec<u8>);

impl Signature {
    /// Creates a signature from raw symbols.
    pub fn new(symbols: Vec<u8>) -> Self {
        Signature(symbols)
    }

    /// The symbols as a slice.
    pub(crate) fn symbols(&self) -> &[u8] {
        &self.0
    }

    /// Number of symbol positions.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True iff the signature has no symbols.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl fmt::Debug for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Signature(len={})", self.0.len())
    }
}

impl MetricObject for Signature {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.0);
    }

    fn try_decode(bytes: &[u8]) -> Option<Self> {
        Some(Signature(bytes.to_vec()))
    }
}

/// A set of `u32` elements stored sorted and deduplicated, compared with
/// Jaccard distance. Covers set-valued data the paper's generic-metric
/// framing allows (e.g. tag sets, shingled documents) beyond its four
/// evaluated datasets.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct IntSet(Vec<u32>);

impl IntSet {
    /// Builds a set from arbitrary elements (sorted, deduplicated).
    pub fn new(mut elements: Vec<u32>) -> Self {
        elements.sort_unstable();
        elements.dedup();
        IntSet(elements)
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True iff the set is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// `|self ∩ other|` via a linear merge (both sides are sorted).
    pub(crate) fn intersection_size(&self, other: &IntSet) -> usize {
        let (mut i, mut j, mut n) = (0usize, 0usize, 0usize);
        while i < self.0.len() && j < other.0.len() {
            match self.0[i].cmp(&other.0[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    n += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        n
    }
}

impl fmt::Debug for IntSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "IntSet(|{}|)", self.0.len())
    }
}

impl MetricObject for IntSet {
    fn encode(&self, buf: &mut Vec<u8>) {
        for e in &self.0 {
            buf.extend_from_slice(&e.to_le_bytes());
        }
    }

    fn try_decode(bytes: &[u8]) -> Option<Self> {
        if !bytes.len().is_multiple_of(4) {
            return None;
        }
        Some(IntSet(
            bytes
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                .collect(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<O: MetricObject>(o: &O) {
        let bytes = o.encoded();
        assert_eq!(&O::decode(&bytes), o);
        assert_eq!(o.encoded_len(), bytes.len());
    }

    #[test]
    fn word_roundtrip() {
        roundtrip(&Word::new("defoliate"));
        roundtrip(&Word::new(""));
        roundtrip(&Word::new("dictionary"));
        assert_eq!(Word::new("word").len(), 4);
        assert_eq!(Word::new("dictionary").len(), 10);
    }

    #[test]
    fn floatvec_roundtrip() {
        roundtrip(&FloatVec::new(vec![0.0, 1.5, -2.25, 3.125]));
        roundtrip(&FloatVec::new(vec![]));
        assert_eq!(FloatVec::new(vec![1.0; 16]).dim(), 16);
    }

    #[test]
    fn dna_roundtrip_and_profile() {
        let d = Dna::new("ACGTACGT");
        roundtrip(&d);
        let p = d.trigram_profile();
        assert_eq!(p.iter().sum::<u32>() as usize, d.len() - 2);
        // "ACG" occurs twice: indices 0*16+1*4+2 = 6.
        assert_eq!(p[6], 2);
    }

    #[test]
    fn dna_short_profile_is_zero() {
        assert_eq!(Dna::new("AC").trigram_profile(), [0u32; 64]);
        assert_eq!(Dna::new("").trigram_profile(), [0u32; 64]);
    }

    #[test]
    #[should_panic(expected = "DNA sequences must be over")]
    fn dna_rejects_bad_alphabet() {
        let _ = Dna::new("ACGX");
    }

    #[test]
    fn signature_roundtrip() {
        roundtrip(&Signature::new(vec![1, 2, 3, 255]));
        roundtrip(&Signature::new(vec![]));
    }

    #[test]
    fn try_decode_rejects_malformed_bytes() {
        assert!(Word::try_decode(&[0xff, 0xfe]).is_none());
        assert!(FloatVec::try_decode(&[1, 2, 3]).is_none());
        assert!(Dna::try_decode(b"ACGX").is_none());
        assert!(Dna::try_decode(&[0xff]).is_none());
        assert!(IntSet::try_decode(&[0; 5]).is_none());
        // Signature accepts any bytes: every byte string is a valid encoding.
        assert!(Signature::try_decode(&[9, 9]).is_some());
    }

    #[test]
    #[should_panic(expected = "malformed MetricObject bytes")]
    fn decode_panics_on_malformed_bytes() {
        let _ = FloatVec::decode(&[1, 2, 3]);
    }

    #[test]
    fn intset_roundtrip_and_merge() {
        let a = IntSet::new(vec![5, 1, 3, 3, 1]);
        assert_eq!(a.0, [1, 3, 5]);
        roundtrip(&a);
        roundtrip(&IntSet::new(vec![]));
        let b = IntSet::new(vec![3, 5, 7]);
        assert_eq!(a.intersection_size(&b), 2);
        assert_eq!(b.intersection_size(&a), 2);
        assert_eq!(a.intersection_size(&IntSet::new(vec![])), 0);
    }
}
