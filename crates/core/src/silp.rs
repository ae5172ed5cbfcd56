//! The stochastic integer linear program (SILP) representation.
//!
//! A stochastic package query is translated into a SILP (Section 2.3): one
//! nonnegative integer decision variable per candidate tuple, linear
//! constraints that are deterministic, expectations, or probabilistic, and a
//! linear objective in canonical form (probability objectives are kept
//! symbolic here and handled by epigraphic rewriting at formulation time).

use serde::{Deserialize, Serialize};
use spq_solver::Sense;

/// Where the per-tuple coefficients of a constraint or objective come from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CoeffSource {
    /// The same constant for every tuple (e.g. `COUNT(*)` uses 1).
    Constant(f64),
    /// A deterministic column of the relation.
    Deterministic(String),
    /// A stochastic column of the relation (a random variable per tuple).
    Stochastic(String),
}

impl CoeffSource {
    /// The referenced column name, if any.
    pub fn column(&self) -> Option<&str> {
        match self {
            CoeffSource::Constant(_) => None,
            CoeffSource::Deterministic(c) | CoeffSource::Stochastic(c) => Some(c),
        }
    }

    /// True when the coefficients are random variables.
    pub fn is_stochastic(&self) -> bool {
        matches!(self, CoeffSource::Stochastic(_))
    }
}

/// The nature of a SILP constraint.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ConstraintKind {
    /// `sum_i c_i x_i ⊙ v` with deterministic coefficients.
    Deterministic,
    /// `E[sum_i ξ_i x_i] ⊙ v`.
    Expectation,
    /// `Pr(sum_i ξ_i x_i ⊙ v) >= p` — a probabilistic (chance) constraint.
    Probabilistic {
        /// The probability bound `p`.
        probability: f64,
    },
}

impl ConstraintKind {
    /// True for probabilistic constraints.
    pub fn is_probabilistic(&self) -> bool {
        matches!(self, ConstraintKind::Probabilistic { .. })
    }
}

/// One SILP constraint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SilpConstraint {
    /// Diagnostic name.
    pub name: String,
    /// Coefficient source for the inner function `sum_i coeff_i x_i`.
    pub coeff: CoeffSource,
    /// Inner comparison `⊙` (the paper restricts probabilistic inner
    /// constraints to `<=` / `>=`).
    pub sense: Sense,
    /// The right-hand side `v`.
    pub rhs: f64,
    /// Deterministic, expectation, or probabilistic.
    pub kind: ConstraintKind,
}

impl SilpConstraint {
    /// The probability bound, for probabilistic constraints.
    pub fn probability(&self) -> Option<f64> {
        match self.kind {
            ConstraintKind::Probabilistic { probability } => Some(probability),
            _ => None,
        }
    }
}

/// Optimization direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Direction {
    /// Minimize the objective.
    Minimize,
    /// Maximize the objective.
    Maximize,
}

impl Direction {
    /// `1.0` for minimization, `-1.0` for maximization (used to convert to a
    /// canonical minimization sense).
    pub fn sign(self) -> f64 {
        match self {
            Direction::Minimize => 1.0,
            Direction::Maximize => -1.0,
        }
    }

    /// True when `candidate` is strictly better than `incumbent` in this
    /// direction (ties are not better).
    pub fn better(self, candidate: f64, incumbent: f64) -> bool {
        match self {
            Direction::Minimize => candidate < incumbent,
            Direction::Maximize => candidate > incumbent,
        }
    }
}

/// The SILP objective.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SilpObjective {
    /// `min/max (E[]) sum_i coeff_i x_i`; when `expectation` is true and the
    /// coefficients are stochastic the canonical form uses `E[ξ_i]`.
    Linear {
        /// Optimization direction.
        direction: Direction,
        /// Coefficient source.
        coeff: CoeffSource,
        /// Whether the objective is wrapped in an expectation.
        expectation: bool,
    },
    /// `min/max Pr(sum_i ξ_i x_i ⊙ v)` — handled by epigraphic rewriting
    /// (Section 2.3): in the SAA/CSA this becomes optimizing the fraction of
    /// scenarios/summaries whose inner constraint holds.
    Probability {
        /// Optimization direction.
        direction: Direction,
        /// Stochastic column of the inner sum.
        attribute: String,
        /// Inner comparison.
        sense: Sense,
        /// Inner right-hand side.
        threshold: f64,
    },
}

impl SilpObjective {
    /// The optimization direction.
    pub fn direction(&self) -> Direction {
        match self {
            SilpObjective::Linear { direction, .. }
            | SilpObjective::Probability { direction, .. } => *direction,
        }
    }

    /// True for probability objectives.
    pub fn is_probability(&self) -> bool {
        matches!(self, SilpObjective::Probability { .. })
    }

    /// The stochastic/deterministic column the objective reads, if any.
    pub fn column(&self) -> Option<&str> {
        match self {
            SilpObjective::Linear { coeff, .. } => coeff.column(),
            SilpObjective::Probability { attribute, .. } => Some(attribute),
        }
    }
}

/// A stochastic integer linear program over the candidate tuples of a
/// relation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Silp {
    /// Name of the underlying relation (diagnostics only).
    pub relation: String,
    /// Candidate tuple indices (into the relation) after `WHERE` filtering.
    /// Decision variable `x_k` corresponds to tuple `tuples[k]`.
    pub tuples: Vec<usize>,
    /// Per-tuple multiplicity upper bound (`REPEAT l` gives `l + 1`);
    /// `None` leaves the multiplicity bounded only by the constraints.
    pub repeat_bound: Option<u32>,
    /// The constraints.
    pub constraints: Vec<SilpConstraint>,
    /// The objective.
    pub objective: SilpObjective,
}

impl Silp {
    /// Number of decision variables.
    pub fn num_vars(&self) -> usize {
        self.tuples.len()
    }

    /// The deterministic and the stochastic columns the SILP reads, each
    /// deduplicated in declaration order: the constraints', then the
    /// objective's.
    pub fn referenced_columns(&self) -> (Vec<String>, Vec<String>) {
        let mut det: Vec<String> = Vec::new();
        let mut stoch: Vec<String> = Vec::new();
        let objective = match &self.objective {
            SilpObjective::Linear { coeff, .. } => coeff.clone(),
            SilpObjective::Probability { attribute, .. } => {
                CoeffSource::Stochastic(attribute.clone())
            }
        };
        for coeff in self
            .constraints
            .iter()
            .map(|c| &c.coeff)
            .chain([&objective])
        {
            let (cols, c) = match coeff {
                CoeffSource::Constant(_) => continue,
                CoeffSource::Deterministic(c) => (&mut det, c),
                CoeffSource::Stochastic(c) => (&mut stoch, c),
            };
            if !cols.contains(c) {
                cols.push(c.clone());
            }
        }
        (det, stoch)
    }

    /// All stochastic columns referenced by the SILP (constraints and
    /// objective), deduplicated.
    pub fn stochastic_columns(&self) -> Vec<String> {
        self.referenced_columns().1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_silp() -> Silp {
        Silp {
            relation: "stock_investments".into(),
            tuples: vec![0, 1, 2, 3],
            repeat_bound: None,
            constraints: vec![
                SilpConstraint {
                    name: "budget".into(),
                    coeff: CoeffSource::Deterministic("price".into()),
                    sense: Sense::Le,
                    rhs: 1000.0,
                    kind: ConstraintKind::Deterministic,
                },
                SilpConstraint {
                    name: "var".into(),
                    coeff: CoeffSource::Stochastic("Gain".into()),
                    sense: Sense::Ge,
                    rhs: -10.0,
                    kind: ConstraintKind::Probabilistic { probability: 0.95 },
                },
            ],
            objective: SilpObjective::Linear {
                direction: Direction::Maximize,
                coeff: CoeffSource::Stochastic("Gain".into()),
                expectation: true,
            },
        }
    }

    #[test]
    fn partitions_constraints_by_kind() {
        let s = sample_silp();
        assert_eq!(s.num_vars(), 4);
        let (probabilistic, other): (Vec<_>, Vec<_>) = s
            .constraints
            .iter()
            .partition(|c| c.kind.is_probabilistic());
        assert_eq!((probabilistic.len(), other.len()), (1, 1));
        assert_eq!(probabilistic[0].probability(), Some(0.95));
        assert_eq!(other[0].probability(), None);
    }

    #[test]
    fn stochastic_columns_are_deduplicated() {
        let s = sample_silp();
        assert_eq!(s.stochastic_columns(), vec!["Gain".to_string()]);
        assert_eq!(
            s.referenced_columns(),
            (vec!["price".to_string()], vec!["Gain".to_string()])
        );
    }

    #[test]
    fn coeff_source_accessors() {
        assert_eq!(CoeffSource::Constant(1.0).column(), None);
        assert!(!CoeffSource::Constant(1.0).is_stochastic());
        assert_eq!(
            CoeffSource::Deterministic("price".into()).column(),
            Some("price")
        );
        assert!(CoeffSource::Stochastic("gain".into()).is_stochastic());
    }

    #[test]
    fn direction_helpers() {
        assert_eq!(Direction::Minimize.sign(), 1.0);
        assert_eq!(Direction::Maximize.sign(), -1.0);
        assert!(Direction::Minimize.better(1.0, 2.0));
        assert!(Direction::Maximize.better(2.0, 1.0));
        assert!(!Direction::Maximize.better(1.0, 1.0));
    }

    #[test]
    fn objective_accessors() {
        let s = sample_silp();
        assert_eq!(s.objective.direction(), Direction::Maximize);
        assert!(!s.objective.is_probability());
        assert_eq!(s.objective.column(), Some("Gain"));
        let p = SilpObjective::Probability {
            direction: Direction::Maximize,
            attribute: "Revenue".into(),
            sense: Sense::Ge,
            threshold: 1000.0,
        };
        assert!(p.is_probability());
        assert_eq!(p.column(), Some("Revenue"));
    }
}
