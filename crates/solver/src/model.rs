//! Mixed-integer linear program models.

use crate::error::SolverError;
use crate::Result;
use serde::{Deserialize, Serialize};

/// Identifier of a variable within a [`Model`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct VarId(pub usize);

impl VarId {
    /// The underlying index.
    pub fn index(self) -> usize {
        self.0
    }
}

/// The domain type of a variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum VarType {
    /// Real-valued within its bounds.
    Continuous,
    /// Integer-valued within its bounds.
    Integer,
    /// Binary (integer in `{0, 1}`); bounds are clamped to `[0, 1]`.
    Binary,
}

/// A decision variable. It has no name: diagnostics call the variable of
/// `VarId(i)` `xi`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Variable {
    /// Domain type.
    pub vtype: VarType,
    /// Lower bound (may be `-inf`).
    pub lower: f64,
    /// Upper bound (may be `+inf`).
    pub upper: f64,
    /// Objective coefficient.
    pub objective: f64,
}

impl Variable {
    /// True if the variable must take integral values.
    pub fn is_integral(&self) -> bool {
        matches!(self.vtype, VarType::Integer | VarType::Binary)
    }
}

/// Constraint sense.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Sense {
    /// Less-than-or-equal.
    Le,
    /// Greater-than-or-equal.
    Ge,
    /// Equality.
    Eq,
}

impl Sense {
    /// Evaluate `lhs (sense) rhs` with a small feasibility tolerance.
    pub fn check(self, lhs: f64, rhs: f64, tol: f64) -> bool {
        match self {
            Sense::Le => lhs <= rhs + tol,
            Sense::Ge => lhs >= rhs - tol,
            Sense::Eq => (lhs - rhs).abs() <= tol,
        }
    }

    /// The opposite inequality (equality is its own flip).
    pub fn flip(self) -> Sense {
        match self {
            Sense::Le => Sense::Ge,
            Sense::Ge => Sense::Le,
            Sense::Eq => Sense::Eq,
        }
    }
}

impl std::fmt::Display for Sense {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Sense::Le => write!(f, "<="),
            Sense::Ge => write!(f, ">="),
            Sense::Eq => write!(f, "="),
        }
    }
}

/// A linear expression `sum coeff_k * x_k + constant`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LinearExpr {
    /// Terms as (variable, coefficient) pairs.
    pub terms: Vec<(VarId, f64)>,
    /// Constant offset.
    pub constant: f64,
}

impl LinearExpr {
    /// An empty expression.
    pub fn new() -> Self {
        LinearExpr::default()
    }

    /// Evaluate the expression under an assignment.
    pub fn evaluate(&self, assignment: &[f64]) -> f64 {
        self.constant
            + self
                .terms
                .iter()
                .map(|(v, c)| c * assignment[v.0])
                .sum::<f64>()
    }

    /// Number of terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// True when there are no terms.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }
}

/// A linear constraint `expr (sense) rhs`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Constraint {
    /// Human-readable name.
    pub name: String,
    /// Left-hand-side terms (the constant of the expression is folded into
    /// the right-hand side at build time).
    pub terms: Vec<(VarId, f64)>,
    /// Constraint sense.
    pub sense: Sense,
    /// Right-hand side.
    pub rhs: f64,
}

impl Constraint {
    /// Evaluate the left-hand side under an assignment.
    pub fn lhs(&self, assignment: &[f64]) -> f64 {
        self.terms
            .iter()
            .map(|(v, c)| c * assignment[v.0])
            .sum::<f64>()
    }

    /// Check satisfaction under an assignment.
    pub fn is_satisfied(&self, assignment: &[f64], tol: f64) -> bool {
        self.sense.check(self.lhs(assignment), self.rhs, tol)
    }
}

/// An indicator constraint: when the binary `indicator` variable takes
/// `active_value`, the inner linear constraint must hold. This mirrors the
/// CPLEX indicator-constraint construct used by the SAA formulation
/// (`y_j = 1 => sum_i s_ij x_i ⊙ v`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IndicatorConstraint {
    /// The binary indicator variable.
    pub indicator: VarId,
    /// The value of the indicator that activates the inner constraint.
    pub active_value: bool,
    /// The inner constraint.
    pub constraint: Constraint,
}

/// Optimization direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Direction {
    /// Minimize the objective.
    Minimize,
    /// Maximize the objective.
    Maximize,
}

/// A (mixed-)integer linear program.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Model {
    /// Optimization direction.
    pub direction: Direction,
    variables: Vec<Variable>,
    constraints: Vec<Constraint>,
    indicators: Vec<IndicatorConstraint>,
}

impl Model {
    /// A new minimization model.
    pub fn minimize() -> Self {
        Model {
            direction: Direction::Minimize,
            variables: Vec::new(),
            constraints: Vec::new(),
            indicators: Vec::new(),
        }
    }

    /// A new maximization model.
    pub fn maximize() -> Self {
        Model {
            direction: Direction::Maximize,
            ..Model::minimize()
        }
    }

    /// Add a variable and return its id.
    pub fn add_var(&mut self, vtype: VarType, lower: f64, upper: f64, objective: f64) -> VarId {
        let (lower, upper) = match vtype {
            VarType::Binary => (lower.max(0.0), upper.min(1.0)),
            _ => (lower, upper),
        };
        let id = VarId(self.variables.len());
        self.variables.push(Variable {
            vtype,
            lower,
            upper,
            objective,
        });
        id
    }

    /// Add a linear constraint from (variable, coefficient) terms.
    pub fn add_constraint(
        &mut self,
        name: impl Into<String>,
        terms: Vec<(VarId, f64)>,
        sense: Sense,
        rhs: f64,
    ) -> usize {
        self.constraints.push(Constraint {
            name: name.into(),
            terms,
            sense,
            rhs,
        });
        self.constraints.len() - 1
    }

    /// Add an indicator constraint `indicator = active_value => terms sense rhs`.
    pub fn add_indicator(
        &mut self,
        name: impl Into<String>,
        indicator: VarId,
        active_value: bool,
        terms: Vec<(VarId, f64)>,
        sense: Sense,
        rhs: f64,
    ) -> usize {
        self.indicators.push(IndicatorConstraint {
            indicator,
            active_value,
            constraint: Constraint {
                name: name.into(),
                terms,
                sense,
                rhs,
            },
        });
        self.indicators.len() - 1
    }

    /// The variables.
    pub fn variables(&self) -> &[Variable] {
        &self.variables
    }

    /// The linear constraints (not including indicator constraints).
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// The indicator constraints.
    pub fn indicators(&self) -> &[IndicatorConstraint] {
        &self.indicators
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.variables.len()
    }

    /// Total number of non-zero coefficients, the paper's measure of problem
    /// size (Section 3.1 "Size complexity").
    pub fn num_coefficients(&self) -> usize {
        self.constraints
            .iter()
            .map(|c| c.terms.len())
            .sum::<usize>()
            + self
                .indicators
                .iter()
                .map(|c| c.constraint.terms.len() + 1)
                .sum::<usize>()
    }

    /// Objective value of an assignment.
    pub fn objective_value(&self, assignment: &[f64]) -> f64 {
        self.variables
            .iter()
            .enumerate()
            .map(|(i, v)| v.objective * assignment[i])
            .sum()
    }

    /// Validate internal consistency (bounds, NaN, references).
    pub fn validate(&self) -> Result<()> {
        if self.variables.is_empty() {
            return Err(SolverError::EmptyModel);
        }
        for (i, v) in self.variables.iter().enumerate() {
            if v.lower.is_nan() || v.upper.is_nan() || v.objective.is_nan() {
                return Err(SolverError::NotANumber(format!("variable x{i}")));
            }
            if v.lower > v.upper {
                return Err(SolverError::EmptyDomain {
                    var: i,
                    lower: v.lower,
                    upper: v.upper,
                });
            }
        }
        let check_terms = |name: &str, terms: &[(VarId, f64)], rhs: f64| -> Result<()> {
            if rhs.is_nan() {
                return Err(SolverError::NotANumber(format!("constraint `{name}` rhs")));
            }
            for (v, c) in terms {
                if v.0 >= self.variables.len() {
                    return Err(SolverError::UnknownVariable(v.0));
                }
                if c.is_nan() {
                    return Err(SolverError::NotANumber(format!(
                        "coefficient of x{} in `{name}`",
                        v.0
                    )));
                }
            }
            Ok(())
        };
        for c in &self.constraints {
            check_terms(&c.name, &c.terms, c.rhs)?;
        }
        for ic in &self.indicators {
            if ic.indicator.0 >= self.variables.len() {
                return Err(SolverError::UnknownVariable(ic.indicator.0));
            }
            check_terms(&ic.constraint.name, &ic.constraint.terms, ic.constraint.rhs)?;
        }
        Ok(())
    }

    /// Check whether an assignment is feasible for every constraint, bound,
    /// integrality requirement and indicator constraint.
    pub fn is_feasible(&self, assignment: &[f64], tol: f64) -> bool {
        if assignment.len() != self.variables.len() {
            return false;
        }
        for (i, v) in self.variables.iter().enumerate() {
            let x = assignment[i];
            if x < v.lower - tol || x > v.upper + tol {
                return false;
            }
            if v.is_integral() && (x - x.round()).abs() > tol {
                return false;
            }
        }
        for c in &self.constraints {
            if !c.is_satisfied(assignment, tol) {
                return false;
            }
        }
        for ic in &self.indicators {
            let ind = assignment[ic.indicator.0];
            let active = if ic.active_value {
                ind > 0.5
            } else {
                ind <= 0.5
            };
            if active && !ic.constraint.is_satisfied(assignment, tol) {
                return false;
            }
        }
        true
    }
}

/// A solution returned by the MILP solver.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Solution {
    /// Value per variable, indexed by [`VarId`].
    pub values: Vec<f64>,
    /// Objective value under the model's direction.
    pub objective: f64,
    /// Cumulative simplex pivots across every LP relaxation solved on the
    /// way to this solution — the measure that makes warm-start savings
    /// visible independently of wall clock.
    pub lp_pivots: usize,
}

impl Solution {
    /// The value of one variable.
    pub fn value(&self, var: VarId) -> f64 {
        self.values[var.0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_model() -> (Model, VarId, VarId) {
        let mut m = Model::minimize();
        let x = m.add_var(VarType::Integer, 0.0, 10.0, 1.0);
        let y = m.add_var(VarType::Continuous, 0.0, f64::INFINITY, 2.0);
        m.add_constraint("c0", vec![(x, 1.0), (y, 1.0)], Sense::Ge, 3.0);
        (m, x, y)
    }

    #[test]
    fn sense_check_and_flip() {
        assert!(Sense::Le.check(1.0, 2.0, 1e-9));
        assert!(!Sense::Le.check(2.1, 2.0, 1e-9));
        assert!(Sense::Ge.check(2.0, 2.0, 1e-9));
        assert!(Sense::Eq.check(2.0, 2.0 + 1e-12, 1e-9));
        assert_eq!(Sense::Le.flip(), Sense::Ge);
        assert_eq!(Sense::Eq.flip(), Sense::Eq);
        assert_eq!(Sense::Ge.to_string(), ">=");
    }

    #[test]
    fn linear_expr_evaluation() {
        let mut e = LinearExpr::new();
        assert!(e.is_empty());
        e.terms = vec![(VarId(0), 2.0), (VarId(1), -1.0)];
        e.constant = 5.0;
        assert_eq!(e.len(), 2);
        assert_eq!(e.evaluate(&[3.0, 4.0]), 5.0 + 6.0 - 4.0);
    }

    #[test]
    fn model_counts_and_objective() {
        let (mut m, x, y) = simple_model();
        m.add_indicator("ind", x, true, vec![(y, 1.0)], Sense::Le, 5.0);
        assert_eq!(m.num_vars(), 2);
        assert_eq!((m.constraints().len(), m.indicators().len()), (1, 1));
        assert_eq!(m.num_coefficients(), 2 + 2);
        assert_eq!(m.objective_value(&[1.0, 2.0]), 5.0);
        assert_eq!(m.constraints().len(), 1);
        assert_eq!(m.indicators().len(), 1);
        assert_eq!(x.index(), 0);
    }

    #[test]
    fn binary_bounds_are_clamped() {
        let mut m = Model::minimize();
        let b = m.add_var(VarType::Binary, -5.0, 9.0, 0.0);
        assert_eq!(m.variables()[b.0].lower, 0.0);
        assert_eq!(m.variables()[b.0].upper, 1.0);
        assert!(m.variables()[b.0].is_integral());
    }

    #[test]
    fn validate_catches_errors() {
        let (m, _, _) = simple_model();
        assert!(m.validate().is_ok());

        let empty = Model::minimize();
        assert_eq!(empty.validate().unwrap_err(), SolverError::EmptyModel);

        let mut bad = Model::minimize();
        bad.add_var(VarType::Continuous, 3.0, 1.0, 0.0);
        assert!(matches!(
            bad.validate().unwrap_err(),
            SolverError::EmptyDomain { .. }
        ));

        let mut nan = Model::minimize();
        let v = nan.add_var(VarType::Continuous, 0.0, 1.0, 0.0);
        nan.add_constraint("c", vec![(v, f64::NAN)], Sense::Le, 1.0);
        assert!(matches!(
            nan.validate().unwrap_err(),
            SolverError::NotANumber(_)
        ));

        let mut dangling = Model::minimize();
        dangling.add_var(VarType::Continuous, 0.0, 1.0, 0.0);
        dangling.add_constraint("c", vec![(VarId(7), 1.0)], Sense::Le, 1.0);
        assert_eq!(
            dangling.validate().unwrap_err(),
            SolverError::UnknownVariable(7)
        );
    }

    #[test]
    fn feasibility_checks_bounds_integrality_and_indicators() {
        let (mut m, x, y) = simple_model();
        m.add_indicator("ind", x, true, vec![(y, 1.0)], Sense::Le, 4.0);
        // x=1 activates the indicator, so y must be <= 4 and x+y >= 3.
        assert!(m.is_feasible(&[1.0, 2.0], 1e-9));
        assert!(!m.is_feasible(&[1.0, 5.0], 1e-9)); // violates indicator
        assert!(m.is_feasible(&[0.0, 5.0], 1e-9)); // indicator inactive
        assert!(!m.is_feasible(&[0.5, 5.0], 1e-9)); // x not integral
        assert!(!m.is_feasible(&[-1.0, 5.0], 1e-9)); // bound violation
        assert!(!m.is_feasible(&[1.0, 1.0], 1e-9)); // x + y < 3
        assert!(!m.is_feasible(&[1.0], 1e-9)); // wrong arity
    }

    #[test]
    fn indicator_active_on_zero() {
        let mut m = Model::minimize();
        let b = m.add_var(VarType::Binary, 0.0, 1.0, 0.0);
        let x = m.add_var(VarType::Continuous, 0.0, 10.0, 0.0);
        m.add_indicator("ind0", b, false, vec![(x, 1.0)], Sense::Le, 1.0);
        assert!(!m.is_feasible(&[0.0, 5.0], 1e-9)); // b=0 activates x <= 1
        assert!(m.is_feasible(&[1.0, 5.0], 1e-9));
    }

    #[test]
    fn solution_accessors() {
        let s = Solution {
            values: vec![1.2, 3.0],
            objective: 9.0,
            lp_pivots: 4,
        };
        assert_eq!(s.value(VarId(0)), 1.2);
        assert_eq!(s.value(VarId(1)), 3.0);
    }

    #[test]
    fn constraint_lhs_and_satisfaction() {
        let c = Constraint {
            name: "c".into(),
            terms: vec![(VarId(0), 2.0), (VarId(1), 1.0)],
            sense: Sense::Le,
            rhs: 7.0,
        };
        assert_eq!(c.lhs(&[2.0, 3.0]), 7.0);
        assert!(c.is_satisfied(&[2.0, 3.0], 1e-9));
        assert!(!c.is_satisfied(&[3.0, 3.0], 1e-9));
    }
}
