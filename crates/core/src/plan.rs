//! The query plan: the one value every layer above the tree carries to
//! say *what* to search for.
//!
//! The paper defines two searches, `RQ(q, r)` (Definition 2) and
//! `kNN(q, k)` (Definition 3); approximation is a parameter of each, not
//! a third and fourth search. A [`QueryPlan`] is therefore a
//! [`QueryShape`] plus an optional approximation factor, kept exactly as
//! the caller gave it: a *contraction* in `(0, 1]` for a range query (the
//! pruning radius shrinks to `r · contraction`, precision stays perfect),
//! an *α* `≥ 1` for kNN (every returned distance is within `α` of the
//! true k-th NN distance). Wire requests, the dispatcher's coalescing
//! key, the service, the cluster router and the CLI all hold this value
//! instead of re-enumerating exact/approximate variants.

use std::fmt;
use std::io;

/// Which of the paper's two searches a plan runs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum QueryShape {
    /// `RQ(q, r)`: every object within `radius` of the query.
    Range {
        /// Search radius.
        radius: f64,
    },
    /// `kNN(q, k)`: the `k` objects nearest the query.
    Knn {
        /// Neighbour count.
        k: usize,
    },
}

/// An approximation factor outside its shape's valid interval.
#[derive(Clone, Debug, PartialEq)]
pub struct PlanError(String);

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for PlanError {}

impl From<PlanError> for io::Error {
    fn from(e: PlanError) -> Self {
        io::Error::new(io::ErrorKind::InvalidInput, e)
    }
}

/// One similarity query, minus the query object. Equality is bitwise on
/// the float fields, so two equal plans run the identical traversal —
/// which makes `==` the dispatcher's coalescing test. An exact plan never
/// equals an approximate one, whatever the factor.
#[derive(Clone, Copy, Debug)]
pub struct QueryPlan {
    shape: QueryShape,
    approx: Option<f64>,
}

impl QueryPlan {
    /// The only place a caller-supplied approximation factor is checked:
    /// a range contraction must lie in `(0, 1]`, a kNN `α` must be finite
    /// and `≥ 1`. `None` is the exact query.
    pub fn new(shape: QueryShape, approx: Option<f64>) -> Result<QueryPlan, PlanError> {
        match (shape, approx) {
            (QueryShape::Range { .. }, Some(c)) if !(c > 0.0 && c <= 1.0) => {
                Err(PlanError(format!("contraction {c} is not in (0, 1]")))
            }
            (QueryShape::Knn { .. }, Some(a)) if !(a.is_finite() && a >= 1.0) => {
                Err(PlanError(format!("alpha {a} is not a finite number >= 1")))
            }
            (shape, approx) => Ok(QueryPlan { shape, approx }),
        }
    }

    /// The exact query of `shape` (there is no factor to check).
    pub fn exact(shape: QueryShape) -> QueryPlan {
        QueryPlan {
            shape,
            approx: None,
        }
    }

    /// Range or kNN, with its radius or `k`.
    pub fn shape(&self) -> QueryShape {
        self.shape
    }

    /// The approximation factor exactly as given to [`QueryPlan::new`]
    /// (contraction for a range plan, `α` for a kNN plan); `None` when
    /// exact.
    pub fn approx(&self) -> Option<f64> {
        self.approx
    }

    /// The factor the traversal runs with: [`approx`](Self::approx), or
    /// `1.0` — the exact query under either shape — when there is none.
    pub fn factor(&self) -> f64 {
        self.approx.unwrap_or(1.0)
    }
}

impl PartialEq for QueryPlan {
    fn eq(&self, other: &QueryPlan) -> bool {
        let same_shape = match (self.shape, other.shape) {
            (QueryShape::Range { radius: a }, QueryShape::Range { radius: b }) => {
                a.to_bits() == b.to_bits()
            }
            (QueryShape::Knn { k: a }, QueryShape::Knn { k: b }) => a == b,
            (QueryShape::Range { .. }, QueryShape::Knn { .. })
            | (QueryShape::Knn { .. }, QueryShape::Range { .. }) => false,
        };
        same_shape && self.approx.map(f64::to_bits) == other.approx.map(f64::to_bits)
    }
}

impl Eq for QueryPlan {}

#[cfg(test)]
mod tests {
    use super::*;

    const RANGE: QueryShape = QueryShape::Range { radius: 2.0 };
    const KNN: QueryShape = QueryShape::Knn { k: 8 };

    #[test]
    fn factors_are_validated_per_shape_and_kept_verbatim() {
        for c in [0.7, 1.0, f64::MIN_POSITIVE] {
            let plan = QueryPlan::new(RANGE, Some(c)).unwrap();
            assert_eq!(plan.approx().map(f64::to_bits), Some(c.to_bits()));
        }
        for c in [0.0, -0.5, 1.5, f64::NAN, f64::INFINITY] {
            assert!(QueryPlan::new(RANGE, Some(c)).is_err(), "contraction {c}");
        }
        // 1.8 and 1.9 are the values a reciprocal round trip corrupts.
        for a in [1.0, 1.8, 1.9, 1e9] {
            let plan = QueryPlan::new(KNN, Some(a)).unwrap();
            assert_eq!(plan.factor().to_bits(), a.to_bits());
        }
        for a in [0.5, 0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(QueryPlan::new(KNN, Some(a)).is_err(), "alpha {a}");
        }
        assert_eq!(QueryPlan::new(KNN, None).unwrap(), QueryPlan::exact(KNN));
        assert_eq!(QueryPlan::exact(RANGE).factor(), 1.0);
    }

    #[test]
    fn equality_is_bitwise_and_keeps_exact_apart_from_approximate() {
        let exact = QueryPlan::exact(RANGE);
        assert_eq!(exact, QueryPlan::exact(RANGE));
        assert_ne!(exact, QueryPlan::exact(QueryShape::Range { radius: 2.5 }));
        assert_ne!(exact, QueryPlan::exact(KNN));
        // A no-op factor is still the approximate mode.
        assert_ne!(exact, QueryPlan::new(RANGE, Some(1.0)).unwrap());
        assert_ne!(
            QueryPlan::new(KNN, Some(1.8)).unwrap(),
            QueryPlan::new(KNN, Some(1.7999999999999998)).unwrap()
        );
        // A NaN radius is not validated (the traversal answers nothing);
        // bitwise equality still makes it equal to itself.
        let nan = QueryPlan::exact(QueryShape::Range { radius: f64::NAN });
        assert_eq!(nan, nan);
    }
}
