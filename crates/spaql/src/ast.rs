//! Abstract syntax tree for sPaQL queries.
//!
//! sPaQL extends PaQL (the deterministic Package Query Language) with
//! stochastic constraints and objectives (Appendix A of the paper):
//!
//! * `EXPECTED SUM(A) ⊙ v` — expectation constraints,
//! * `SUM(A) ⊙ v WITH PROBABILITY >= p` — probabilistic ("chance") constraints,
//! * `MAXIMIZE / MINIMIZE EXPECTED SUM(A)` — expectation objectives,
//! * `MAXIMIZE / MINIMIZE PROBABILITY OF SUM(A) ⊙ v` — probability objectives.

use crate::token::CompareOp;
use serde::{Deserialize, Serialize};
use std::fmt;

/// An aggregate over the package: `SUM(attr)` or `COUNT(*)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AggExpr {
    /// `SUM(attribute)`.
    Sum {
        /// The attribute being summed.
        attribute: String,
    },
    /// `COUNT(*)` — equivalent to `SUM(1)`.
    Count,
}

impl fmt::Display for AggExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AggExpr::Sum { attribute } => write!(f, "SUM({attribute})"),
            AggExpr::Count => write!(f, "COUNT(*)"),
        }
    }
}

/// A package-level constraint in the `SUCH THAT` clause.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ConstraintExpr {
    /// A deterministic linear constraint `agg ⊙ v`.
    Deterministic {
        /// The aggregate.
        agg: AggExpr,
        /// Comparison operator.
        op: CompareOp,
        /// Right-hand side.
        value: f64,
    },
    /// A two-sided constraint `agg BETWEEN lo AND hi`.
    Between {
        /// The aggregate.
        agg: AggExpr,
        /// Lower bound (inclusive).
        low: f64,
        /// Upper bound (inclusive).
        high: f64,
    },
    /// An expectation constraint `EXPECTED agg ⊙ v`.
    Expected {
        /// The aggregate.
        agg: AggExpr,
        /// Comparison operator.
        op: CompareOp,
        /// Right-hand side.
        value: f64,
    },
    /// A probabilistic constraint `agg ⊙ v WITH PROBABILITY ⊙p p`.
    Probabilistic {
        /// The aggregate of the inner constraint.
        agg: AggExpr,
        /// Inner comparison operator.
        op: CompareOp,
        /// Inner right-hand side (the paper's `v`).
        value: f64,
        /// Probability comparison (usually `>=`).
        prob_op: CompareOp,
        /// Probability bound (the paper's `p`).
        probability: f64,
    },
}

impl fmt::Display for ConstraintExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConstraintExpr::Deterministic { agg, op, value } => write!(f, "{agg} {op} {value}"),
            ConstraintExpr::Between { agg, low, high } => {
                write!(f, "{agg} BETWEEN {low} AND {high}")
            }
            ConstraintExpr::Expected { agg, op, value } => {
                write!(f, "EXPECTED {agg} {op} {value}")
            }
            ConstraintExpr::Probabilistic {
                agg,
                op,
                value,
                prob_op,
                probability,
            } => write!(
                f,
                "{agg} {op} {value} WITH PROBABILITY {prob_op} {probability}"
            ),
        }
    }
}

/// Objective direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ObjectiveSense {
    /// `MAXIMIZE`.
    Maximize,
    /// `MINIMIZE`.
    Minimize,
}

impl fmt::Display for ObjectiveSense {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObjectiveSense::Maximize => write!(f, "MAXIMIZE"),
            ObjectiveSense::Minimize => write!(f, "MINIMIZE"),
        }
    }
}

/// The objective expression.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ObjectiveExpr {
    /// `EXPECTED SUM(attr)`.
    ExpectedSum {
        /// Attribute being summed.
        attribute: String,
    },
    /// Deterministic `SUM(attr)`.
    Sum {
        /// Attribute being summed.
        attribute: String,
    },
    /// `COUNT(*)`.
    Count,
    /// `PROBABILITY OF SUM(attr) ⊙ v`.
    ProbabilityOf {
        /// Attribute of the inner sum.
        attribute: String,
        /// Inner comparison.
        op: CompareOp,
        /// Inner right-hand side.
        value: f64,
    },
}

impl fmt::Display for ObjectiveExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObjectiveExpr::ExpectedSum { attribute } => write!(f, "EXPECTED SUM({attribute})"),
            ObjectiveExpr::Sum { attribute } => write!(f, "SUM({attribute})"),
            ObjectiveExpr::Count => write!(f, "COUNT(*)"),
            ObjectiveExpr::ProbabilityOf {
                attribute,
                op,
                value,
            } => write!(f, "PROBABILITY OF SUM({attribute}) {op} {value}"),
        }
    }
}

/// A full objective clause.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Objective {
    /// Maximize or minimize.
    pub sense: ObjectiveSense,
    /// What to optimize.
    pub expr: ObjectiveExpr,
}

impl fmt::Display for Objective {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.sense, self.expr)
    }
}

/// A literal value in a `WHERE` predicate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PredicateValue {
    /// Numeric literal.
    Number(f64),
    /// String literal.
    Text(String),
}

impl fmt::Display for PredicateValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PredicateValue::Number(n) => write!(f, "{n}"),
            PredicateValue::Text(s) => write!(f, "'{s}'"),
        }
    }
}

/// One tuple-level predicate `attribute ⊙ literal`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttrPredicate {
    /// Attribute name.
    pub attribute: String,
    /// Comparison operator.
    pub op: CompareOp,
    /// Literal to compare with.
    pub value: PredicateValue,
}

impl fmt::Display for AttrPredicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.attribute, self.op, self.value)
    }
}

/// A conjunction of tuple-level predicates (the `WHERE` clause).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct WherePredicate {
    /// Conjoined predicates.
    pub conjuncts: Vec<AttrPredicate>,
}

/// A parsed stochastic package query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PackageQuery {
    /// Optional package alias (`AS name`).
    pub alias: Option<String>,
    /// Input relation name.
    pub table: String,
    /// Optional `REPEAT l`: each tuple may appear at most `l + 1` times.
    pub repeat: Option<u32>,
    /// Optional tuple-level `WHERE` clause.
    pub where_clause: Option<WherePredicate>,
    /// Package-level constraints (`SUCH THAT`).
    pub constraints: Vec<ConstraintExpr>,
    /// Optional objective.
    pub objective: Option<Objective>,
}

impl PackageQuery {
    /// Count the probabilistic constraints in the query.
    pub fn num_probabilistic_constraints(&self) -> usize {
        self.constraints
            .iter()
            .filter(|c| matches!(c, ConstraintExpr::Probabilistic { .. }))
            .count()
    }
}

impl fmt::Display for PackageQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SELECT PACKAGE(*)")?;
        if let Some(alias) = &self.alias {
            write!(f, " AS {alias}")?;
        }
        write!(f, " FROM {}", self.table)?;
        if let Some(r) = self.repeat {
            write!(f, " REPEAT {r}")?;
        }
        if let Some(w) = &self.where_clause {
            let parts: Vec<String> = w.conjuncts.iter().map(|p| p.to_string()).collect();
            write!(f, " WHERE {}", parts.join(" AND "))?;
        }
        if !self.constraints.is_empty() {
            let parts: Vec<String> = self.constraints.iter().map(|c| c.to_string()).collect();
            write!(f, " SUCH THAT {}", parts.join(" AND "))?;
        }
        if let Some(obj) = &self.objective {
            write!(f, " {obj}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figure1_query() -> PackageQuery {
        PackageQuery {
            alias: Some("Portfolio".into()),
            table: "Stock_Investments".into(),
            repeat: None,
            where_clause: None,
            constraints: vec![
                ConstraintExpr::Deterministic {
                    agg: AggExpr::Sum {
                        attribute: "price".into(),
                    },
                    op: CompareOp::Le,
                    value: 1000.0,
                },
                ConstraintExpr::Probabilistic {
                    agg: AggExpr::Sum {
                        attribute: "Gain".into(),
                    },
                    op: CompareOp::Ge,
                    value: -10.0,
                    prob_op: CompareOp::Ge,
                    probability: 0.95,
                },
            ],
            objective: Some(Objective {
                sense: ObjectiveSense::Maximize,
                expr: ObjectiveExpr::ExpectedSum {
                    attribute: "Gain".into(),
                },
            }),
        }
    }

    #[test]
    fn display_round_trips_structure() {
        let q = figure1_query();
        let text = q.to_string();
        assert!(text.contains("SELECT PACKAGE(*) AS Portfolio"));
        assert!(text.contains("SUM(price) <= 1000"));
        assert!(text.contains("WITH PROBABILITY >= 0.95"));
        assert!(text.contains("MAXIMIZE EXPECTED SUM(Gain)"));
    }

    #[test]
    fn counts_probabilistic_constraints() {
        let q = figure1_query();
        assert_eq!(q.num_probabilistic_constraints(), 1);
    }

    #[test]
    fn agg_and_objective_display() {
        assert_eq!(AggExpr::Count.to_string(), "COUNT(*)");
        assert_eq!(
            AggExpr::Sum {
                attribute: "x".into()
            }
            .to_string(),
            "SUM(x)"
        );
        assert_eq!(
            ObjectiveExpr::ProbabilityOf {
                attribute: "revenue".into(),
                op: CompareOp::Ge,
                value: 1000.0
            }
            .to_string(),
            "PROBABILITY OF SUM(revenue) >= 1000"
        );
        assert_eq!(ObjectiveSense::Minimize.to_string(), "MINIMIZE");
        assert_eq!(
            ConstraintExpr::Between {
                agg: AggExpr::Count,
                low: 5.0,
                high: 10.0
            }
            .to_string(),
            "COUNT(*) BETWEEN 5 AND 10"
        );
        assert_eq!(
            ConstraintExpr::Expected {
                agg: AggExpr::Sum {
                    attribute: "a".into()
                },
                op: CompareOp::Le,
                value: 3.0
            }
            .to_string(),
            "EXPECTED SUM(a) <= 3"
        );
        assert_eq!(PredicateValue::Number(2.0).to_string(), "2");
    }
}
