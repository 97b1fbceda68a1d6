//! The two metric spaces the workloads run over, behind one trait so the
//! harness is written once.

use spb_metric::{Distance, EditDistance, FloatVec, LpNorm, MetricObject, Word};
use spb_server::Schema;

use crate::gen;
use crate::plan::{SpaceKind, Spec};

pub trait Space: 'static {
    type Obj: MetricObject;
    type Dist: Distance<Self::Obj> + Clone + 'static;

    fn generate(n: usize, seed: u64) -> Vec<Self::Obj>;
    fn metric() -> Self::Dist;
    /// How the server is told to decode object bytes.
    fn schema() -> Schema;
}

pub struct Words;

impl Space for Words {
    type Obj = Word;
    type Dist = EditDistance;

    fn generate(n: usize, seed: u64) -> Vec<Word> {
        gen::words(n, seed)
    }

    fn metric() -> EditDistance {
        EditDistance::default()
    }

    fn schema() -> Schema {
        Schema::Words { max_len: 34 }
    }
}

pub struct Vectors;

impl Space for Vectors {
    type Obj = FloatVec;
    type Dist = LpNorm;

    fn generate(n: usize, seed: u64) -> Vec<FloatVec> {
        gen::synthetic(n, seed)
    }

    fn metric() -> LpNorm {
        LpNorm::l2(20)
    }

    fn schema() -> Schema {
        Schema::Vectors { p: 2, dim: 20 }
    }
}

/// The absolute range radius of a workload: words give it directly,
/// vectors as a share of d⁺.
pub fn radius(spec: &Spec) -> f64 {
    match spec.space {
        SpaceKind::Words => spec.radius,
        SpaceKind::Vectors => spec.radius * Vectors::metric().max_distance(),
    }
}
