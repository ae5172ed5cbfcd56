//! Semantic analysis: binding a parsed query against a relation schema.

use crate::ast::{AggExpr, ConstraintExpr, ObjectiveExpr, PackageQuery, PredicateValue};
use crate::error::SpaqlError;
use crate::token::CompareOp;
use crate::Result;
use spq_mcdb::{Relation, Value};

/// A query that has been validated against a relation: every referenced
/// attribute exists and is used in a way consistent with its kind
/// (deterministic vs. stochastic), probability bounds are in range, and the
/// tuple-level `WHERE` clause has been evaluated to the set of candidate
/// tuple indices.
#[derive(Debug, Clone)]
pub struct BoundQuery {
    /// The validated query (attribute names canonicalized to schema casing).
    pub query: PackageQuery,
    /// Indices of tuples that satisfy the `WHERE` clause (all tuples when the
    /// clause is absent).
    pub candidate_tuples: Vec<usize>,
}

/// Bind and validate a parsed query against a relation.
pub fn bind(query: &PackageQuery, relation: &Relation) -> Result<BoundQuery> {
    let mut query = query.clone();

    // --- Canonicalize and validate attribute references. ------------------
    let canonicalize = |attr: &str| -> Result<String> {
        relation
            .schema()
            .column(attr)
            .map(|c| c.name.clone())
            .ok_or_else(|| SpaqlError::UnknownAttribute(attr.to_string()))
    };
    let require_stochastic = |attr: &str, context: &str| -> Result<()> {
        if relation.is_stochastic(attr) {
            Ok(())
        } else {
            Err(SpaqlError::AttributeKindMismatch {
                attribute: attr.to_string(),
                message: format!("{context} requires a stochastic attribute"),
            })
        }
    };
    let require_deterministic = |attr: &str, context: &str| -> Result<()> {
        if relation.is_stochastic(attr) {
            Err(SpaqlError::AttributeKindMismatch {
                attribute: attr.to_string(),
                message: format!(
                    "{context} requires a deterministic attribute; use EXPECTED or WITH PROBABILITY for stochastic attributes"
                ),
            })
        } else {
            Ok(())
        }
    };
    let check_probability = |p: f64| -> Result<()> {
        if p <= 0.0 || p >= 1.0 {
            Err(SpaqlError::InvalidProbability(p))
        } else {
            Ok(())
        }
    };

    for c in &mut query.constraints {
        match c {
            ConstraintExpr::Deterministic { agg, .. } | ConstraintExpr::Between { agg, .. } => {
                if let AggExpr::Sum { attribute } = agg {
                    *attribute = canonicalize(attribute)?;
                    require_deterministic(attribute, "a deterministic SUM constraint")?;
                }
            }
            ConstraintExpr::Expected { agg, .. } => {
                if let AggExpr::Sum { attribute } = agg {
                    *attribute = canonicalize(attribute)?;
                    // EXPECTED over a deterministic attribute is allowed: the
                    // expectation of a constant is the constant itself.
                } else {
                    return Err(SpaqlError::Semantic(
                        "EXPECTED COUNT(*) is equivalent to COUNT(*); write COUNT(*)".into(),
                    ));
                }
            }
            ConstraintExpr::Probabilistic {
                agg,
                probability,
                prob_op,
                ..
            } => {
                check_probability(*probability)?;
                if *prob_op == CompareOp::Eq {
                    return Err(SpaqlError::Semantic(
                        "WITH PROBABILITY requires >= or <=".into(),
                    ));
                }
                if let AggExpr::Sum { attribute } = agg {
                    *attribute = canonicalize(attribute)?;
                    require_stochastic(attribute, "a probabilistic constraint")?;
                } else {
                    return Err(SpaqlError::Semantic(
                        "probabilistic COUNT(*) constraints are not supported".into(),
                    ));
                }
            }
        }
    }

    if let Some(obj) = &mut query.objective {
        match &mut obj.expr {
            ObjectiveExpr::ExpectedSum { attribute } => {
                *attribute = canonicalize(attribute)?;
            }
            ObjectiveExpr::Sum { attribute } => {
                *attribute = canonicalize(attribute)?;
                require_deterministic(attribute, "a deterministic SUM objective")?;
            }
            ObjectiveExpr::ProbabilityOf { attribute, .. } => {
                *attribute = canonicalize(attribute)?;
                require_stochastic(attribute, "a PROBABILITY OF objective")?;
            }
            ObjectiveExpr::Count => {}
        }
    }

    if query.constraints.is_empty() && query.objective.is_none() {
        return Err(SpaqlError::Semantic(
            "the query has neither constraints nor an objective".into(),
        ));
    }

    // --- Evaluate the WHERE clause. ----------------------------------------
    let mut candidate_tuples: Vec<usize> = (0..relation.len()).collect();
    if let Some(w) = &mut query.where_clause {
        for pred in &mut w.conjuncts {
            pred.attribute = canonicalize(&pred.attribute)?;
            require_deterministic(&pred.attribute, "a WHERE predicate")?;
        }
        candidate_tuples.retain(|&i| {
            w.conjuncts.iter().all(|pred| {
                let value = relation
                    .value(&pred.attribute, i)
                    .expect("attribute validated above");
                predicate_holds(&value, pred.op, &pred.value)
            })
        });
    }

    Ok(BoundQuery {
        query,
        candidate_tuples,
    })
}

fn predicate_holds(value: &Value, op: CompareOp, literal: &PredicateValue) -> bool {
    match literal {
        PredicateValue::Number(rhs) => match value.as_f64() {
            Some(lhs) => compare_f64(lhs, op, *rhs),
            None => false,
        },
        PredicateValue::Text(rhs) => match value.as_str() {
            Some(lhs) => match op {
                CompareOp::Eq => lhs == rhs,
                CompareOp::Ne => lhs != rhs,
                CompareOp::Le => lhs <= rhs.as_str(),
                CompareOp::Ge => lhs >= rhs.as_str(),
                CompareOp::Lt => lhs < rhs.as_str(),
                CompareOp::Gt => lhs > rhs.as_str(),
            },
            None => false,
        },
    }
}

fn compare_f64(lhs: f64, op: CompareOp, rhs: f64) -> bool {
    match op {
        CompareOp::Le => lhs <= rhs,
        CompareOp::Ge => lhs >= rhs,
        CompareOp::Eq => (lhs - rhs).abs() < 1e-12,
        CompareOp::Ne => (lhs - rhs).abs() >= 1e-12,
        CompareOp::Lt => lhs < rhs,
        CompareOp::Gt => lhs > rhs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use spq_mcdb::vg::NormalNoise;
    use spq_mcdb::RelationBuilder;

    fn relation() -> Relation {
        RelationBuilder::new("stock_investments")
            .deterministic_i64("id", vec![1, 2, 3, 4])
            .deterministic_text("sell_in", vec!["1 day", "1 week", "1 day", "1 week"])
            .deterministic_f64("price", vec![234.0, 234.0, 140.0, 140.0])
            .stochastic("Gain", NormalNoise::around(vec![0.0; 4], 1.0))
            .build()
            .unwrap()
    }

    #[test]
    fn binds_the_figure_1_query_and_canonicalizes_names() {
        let q = parse(
            "SELECT PACKAGE(*) FROM Stock_Investments SUCH THAT \
             SUM(PRICE) <= 1000 AND SUM(gain) >= -10 WITH PROBABILITY >= 0.95 \
             MAXIMIZE EXPECTED SUM(gain)",
        )
        .unwrap();
        let bound = bind(&q, &relation()).unwrap();
        // Attribute names take the schema casing.
        match &bound.query.constraints[0] {
            ConstraintExpr::Deterministic { agg, .. } => {
                assert_eq!(agg.to_string(), "SUM(price)");
            }
            other => panic!("unexpected {other:?}"),
        }
        match &bound.query.constraints[1] {
            ConstraintExpr::Probabilistic { agg, .. } => {
                assert_eq!(agg.to_string(), "SUM(Gain)");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(bound.candidate_tuples, vec![0, 1, 2, 3]);
    }

    #[test]
    fn where_clause_filters_candidate_tuples() {
        let q = parse(
            "SELECT PACKAGE(*) FROM t WHERE sell_in = '1 day' AND price <= 200 \
             SUCH THAT COUNT(*) <= 2 MAXIMIZE EXPECTED SUM(Gain)",
        )
        .unwrap();
        let bound = bind(&q, &relation()).unwrap();
        assert_eq!(bound.candidate_tuples, vec![2]);
    }

    #[test]
    fn unknown_attribute_is_rejected() {
        let q = parse("SELECT PACKAGE(*) FROM t SUCH THAT SUM(missing) <= 1").unwrap();
        assert_eq!(
            bind(&q, &relation()).unwrap_err(),
            SpaqlError::UnknownAttribute("missing".into())
        );
    }

    #[test]
    fn deterministic_sum_over_stochastic_attribute_is_rejected() {
        let q = parse("SELECT PACKAGE(*) FROM t SUCH THAT SUM(Gain) <= 1").unwrap();
        assert!(matches!(
            bind(&q, &relation()).unwrap_err(),
            SpaqlError::AttributeKindMismatch { .. }
        ));
    }

    #[test]
    fn probabilistic_constraint_over_deterministic_attribute_is_rejected() {
        let q = parse("SELECT PACKAGE(*) FROM t SUCH THAT SUM(price) <= 1 WITH PROBABILITY >= 0.9")
            .unwrap();
        assert!(matches!(
            bind(&q, &relation()).unwrap_err(),
            SpaqlError::AttributeKindMismatch { .. }
        ));
    }

    #[test]
    fn probability_bounds_are_validated() {
        for p in ["0", "1", "1.5"] {
            let q = parse(&format!(
                "SELECT PACKAGE(*) FROM t SUCH THAT SUM(Gain) >= 0 WITH PROBABILITY >= {p}"
            ))
            .unwrap();
            assert!(matches!(
                bind(&q, &relation()).unwrap_err(),
                SpaqlError::InvalidProbability(_)
            ));
        }
    }

    #[test]
    fn empty_query_is_rejected() {
        let q = parse("SELECT PACKAGE(*) FROM t").unwrap();
        assert!(matches!(
            bind(&q, &relation()).unwrap_err(),
            SpaqlError::Semantic(_)
        ));
    }

    #[test]
    fn where_on_stochastic_attribute_is_rejected() {
        let q = parse("SELECT PACKAGE(*) FROM t WHERE Gain >= 0 SUCH THAT COUNT(*) <= 2").unwrap();
        assert!(matches!(
            bind(&q, &relation()).unwrap_err(),
            SpaqlError::AttributeKindMismatch { .. }
        ));
    }

    #[test]
    fn expected_constraint_on_deterministic_attribute_is_allowed() {
        let q = parse("SELECT PACKAGE(*) FROM t SUCH THAT EXPECTED SUM(price) <= 500").unwrap();
        assert!(bind(&q, &relation()).is_ok());
    }

    #[test]
    fn probability_objective_requires_stochastic_attribute() {
        let q =
            parse("SELECT PACKAGE(*) FROM t MAXIMIZE PROBABILITY OF SUM(price) >= 100").unwrap();
        assert!(matches!(
            bind(&q, &relation()).unwrap_err(),
            SpaqlError::AttributeKindMismatch { .. }
        ));
        let ok = parse("SELECT PACKAGE(*) FROM t MAXIMIZE PROBABILITY OF SUM(Gain) >= 0").unwrap();
        assert!(bind(&ok, &relation()).is_ok());
    }

    #[test]
    fn text_predicates_support_inequality() {
        let q = parse("SELECT PACKAGE(*) FROM t WHERE sell_in <> '1 day' SUCH THAT COUNT(*) <= 2")
            .unwrap();
        let bound = bind(&q, &relation()).unwrap();
        assert_eq!(bound.candidate_tuples, vec![1, 3]);
    }

    #[test]
    fn numeric_predicate_operators() {
        assert!(compare_f64(1.0, CompareOp::Lt, 2.0));
        assert!(compare_f64(2.0, CompareOp::Gt, 1.0));
        assert!(compare_f64(2.0, CompareOp::Ne, 1.0));
        assert!(compare_f64(1.0, CompareOp::Eq, 1.0));
        assert!(!predicate_holds(
            &Value::Text("x".into()),
            CompareOp::Le,
            &PredicateValue::Number(1.0)
        ));
        assert!(!predicate_holds(
            &Value::Int(1),
            CompareOp::Eq,
            &PredicateValue::Text("x".into())
        ));
    }
}
