//! Dataset sizing for the three experiment scales.

/// Experiment scale: how large the generated datasets and query workloads
/// are. The paper's cardinalities (Table 2) are `Full`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-long sanity runs (used by integration tests and benches).
    Smoke,
    /// Laptop-scale defaults; the numbers recorded in EXPERIMENTS.md.
    Default,
    /// The paper's cardinalities (611K words, 112K colors, 1M DNA, …).
    Full,
}

impl Scale {
    /// Parses `smoke` / `default` / `full`.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "smoke" => Some(Scale::Smoke),
            "default" => Some(Scale::Default),
            "full" => Some(Scale::Full),
            _ => None,
        }
    }

    /// Cardinality of the *Words* stand-in.
    pub fn words(&self) -> usize {
        match self {
            Scale::Smoke => 2_000,
            Scale::Default => 20_000,
            Scale::Full => 611_756,
        }
    }

    /// Cardinality of the *Color* stand-in.
    pub fn color(&self) -> usize {
        match self {
            Scale::Smoke => 2_000,
            Scale::Default => 20_000,
            Scale::Full => 112_682,
        }
    }

    /// Cardinality of the *DNA* stand-in (its tri-gram metric is the most
    /// expensive, so it scales lowest).
    pub fn dna(&self) -> usize {
        match self {
            Scale::Smoke => 1_000,
            Scale::Default => 8_000,
            Scale::Full => 1_000_000,
        }
    }

    /// Cardinality of the *Signature* stand-in.
    pub fn signature(&self) -> usize {
        match self {
            Scale::Smoke => 1_500,
            Scale::Default => 12_000,
            Scale::Full => 49_740,
        }
    }

    /// Default cardinality of the *Synthetic* dataset (Table 3: 600K).
    pub fn synthetic(&self) -> usize {
        match self {
            Scale::Smoke => 2_000,
            Scale::Default => 20_000,
            Scale::Full => 600_000,
        }
    }

    /// The cardinality sweep of Fig. 14 (paper: 200K…1000K).
    pub(crate) fn cardinality_sweep(&self) -> Vec<usize> {
        match self {
            Scale::Smoke => vec![1_000, 2_000, 3_000],
            Scale::Default => vec![8_000, 16_000, 24_000, 32_000, 40_000],
            Scale::Full => vec![200_000, 400_000, 600_000, 800_000, 1_000_000],
        }
    }

    /// Number of workload queries (paper: 500).
    pub fn queries(&self) -> usize {
        match self {
            Scale::Smoke => 20,
            Scale::Default => 100,
            Scale::Full => 500,
        }
    }

    /// Join set size per side (the join experiments split a dataset into
    /// two disjoint halves Q and O).
    pub(crate) fn join_side(&self) -> usize {
        match self {
            Scale::Smoke => 800,
            Scale::Default => 4_000,
            Scale::Full => 50_000,
        }
    }

    /// Generator seed: fixed so every experiment is reproducible.
    pub fn seed(&self) -> u64 {
        42
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parsing() {
        assert_eq!(Scale::parse("smoke"), Some(Scale::Smoke));
        assert_eq!(Scale::parse("default"), Some(Scale::Default));
        assert_eq!(Scale::parse("full"), Some(Scale::Full));
        assert_eq!(Scale::parse("??"), None);
    }

    #[test]
    fn full_matches_paper_cardinalities() {
        assert_eq!(Scale::Full.words(), 611_756);
        assert_eq!(Scale::Full.color(), 112_682);
        assert_eq!(Scale::Full.dna(), 1_000_000);
        assert_eq!(Scale::Full.signature(), 49_740);
        assert_eq!(Scale::Full.queries(), 500);
    }

    #[test]
    fn scales_are_ordered() {
        assert!(Scale::Smoke.words() < Scale::Default.words());
        assert!(Scale::Default.words() < Scale::Full.words());
    }
}
