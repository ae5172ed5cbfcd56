//! Formulation of deterministic ILPs from a SILP: the Sample Average
//! Approximation (SAA, Section 3.1) and the shared machinery reused by the
//! Conservative Summary Approximation (CSA, Section 4.1).
//!
//! Both formulations have the same structure:
//!
//! * one integer decision variable `x_i` per candidate tuple,
//! * deterministic / expectation constraints as plain linear constraints with
//!   coefficients taken from deterministic columns or expectation estimates,
//! * for each probabilistic constraint, one binary indicator `y_j` per
//!   *row* — a row is a scenario (SAA) or a summary (CSA) — with the
//!   indicator constraint `y_j = 1 ⇒ Σ_i row_j[i]·x_i ⊙ v`, and a counting
//!   constraint `Σ_j y_j ≥ required`,
//! * probability objectives handled by epigraphic rewriting: one indicator
//!   per row of the objective block, and the objective maximizes (or
//!   minimizes) the fraction of satisfied rows.

use crate::instance::Instance;
use crate::package::EvaluationStats;
use crate::silp::{CoeffSource, ConstraintKind, SilpObjective};
use crate::Result;
use spq_solver::{solve_full, Basis, Model, Sense, SolveStatus, SolverOptions, VarId, VarType};

/// The realized rows approximating one probabilistic constraint.
#[derive(Debug, Clone)]
pub struct ProbBlock {
    /// Index of the probabilistic constraint in `silp.constraints`.
    pub constraint_index: usize,
    /// One coefficient row per scenario (SAA) or per summary (CSA).
    pub rows: Vec<Vec<f64>>,
    /// Minimum number of rows the package must satisfy (`⌈p·M⌉` or `⌈p·Z⌉`).
    pub required: usize,
}

impl ProbBlock {
    /// Build a block with `required = ⌈p · rows.len()⌉`, computed through
    /// [`crate::validation::required_successes`] so integral products are
    /// not rounded up by floating-point noise.
    pub fn with_probability(constraint_index: usize, rows: Vec<Vec<f64>>, p: f64) -> Self {
        let required = crate::validation::required_successes(p, rows.len());
        ProbBlock {
            constraint_index,
            rows,
            required,
        }
    }
}

/// Realized rows for a probability *objective* (epigraphic rewriting).
#[derive(Debug, Clone)]
pub struct ObjectiveBlock {
    /// One coefficient row per scenario/summary.
    pub rows: Vec<Vec<f64>>,
    /// Inner comparison of the probability objective.
    pub sense: Sense,
    /// Inner threshold of the probability objective.
    pub threshold: f64,
}

/// A formulated DILP together with its variable mapping.
#[derive(Debug, Clone)]
pub struct Formulation {
    /// The MILP handed to the solver.
    pub model: Model,
    /// Decision variables `x_i`, parallel to the candidate tuples.
    pub x_vars: Vec<VarId>,
    /// Per probabilistic block, the indicator variables `y_j`.
    pub indicator_vars: Vec<Vec<VarId>>,
    /// Indicator variables of the probability-objective block, if any.
    pub objective_indicators: Vec<VarId>,
}

impl Formulation {
    /// Extract the tuple multiplicities from a solver solution.
    pub fn multiplicities(&self, solution: &spq_solver::Solution) -> Vec<f64> {
        self.x_vars
            .iter()
            .map(|v| solution.value(*v).round().max(0.0))
            .collect()
    }

    /// Number of coefficients in the model (the paper's size measure).
    pub fn num_coefficients(&self) -> usize {
        self.model.num_coefficients()
    }

    /// Solve the model warm-started from `basis` and count the solve into
    /// `stats` (one problem, its nodes and pivots, and its size). `basis` is
    /// refreshed only when the solve returns one, so the incumbent survives
    /// a solve that stops before its root relaxation is optimal. Returns the
    /// solver status and the multiplicities of the solution, if any.
    pub fn solve(
        &self,
        solver: &SolverOptions,
        basis: &mut Option<Basis>,
        stats: &mut EvaluationStats,
    ) -> Result<(SolveStatus, Option<Vec<f64>>)> {
        stats.max_problem_coefficients =
            stats.max_problem_coefficients.max(self.num_coefficients());
        let mut solver = solver.clone();
        solver.warm_start = basis.clone();
        let res = {
            let _span = spq_obs::span("milp");
            solve_full(&self.model, &solver)?
        };
        stats.problems_solved += 1;
        stats.solver_nodes += res.nodes;
        stats.lp_pivots += res.lp_iterations;
        if res.basis.is_some() {
            *basis = res.basis;
        }
        Ok((res.status, res.solution.map(|s| self.multiplicities(&s))))
    }
}

/// Build a DILP from an instance, the realized rows for each probabilistic
/// constraint, and (optionally) the realized rows for a probability
/// objective.
pub fn build_model(
    instance: &Instance<'_>,
    prob_blocks: &[ProbBlock],
    objective_block: Option<&ObjectiveBlock>,
) -> Result<Formulation> {
    let silp = &instance.silp;
    let n = silp.num_vars();
    let direction = silp.objective.direction();
    let mut model = match direction {
        crate::silp::Direction::Minimize => Model::minimize(),
        crate::silp::Direction::Maximize => Model::maximize(),
    };

    // Decision variables with their objective coefficients.
    let obj_coeffs = match &silp.objective {
        SilpObjective::Linear { coeff, .. } => instance.coefficients(coeff)?,
        SilpObjective::Probability { .. } => vec![0.0; n].into(),
    };
    let bounds = instance.multiplicity_bounds();
    let floors = instance.multiplicity_floors();
    let mut x_vars = Vec::with_capacity(n);
    for i in 0..n {
        let x = model.add_var(VarType::Integer, floors[i], bounds[i], obj_coeffs[i]);
        x_vars.push(x);
    }

    // Deterministic and expectation constraints.
    for (ci, c) in silp.constraints.iter().enumerate() {
        match c.kind {
            ConstraintKind::Probabilistic { .. } => continue,
            ConstraintKind::Deterministic | ConstraintKind::Expectation => {
                let terms = match c.coeff {
                    // `COUNT(*)` and other constants: no n-long row to read.
                    CoeffSource::Constant(co) if co != 0.0 => {
                        x_vars.iter().map(|x| (*x, co)).collect()
                    }
                    CoeffSource::Constant(_) => Vec::new(),
                    _ => row_terms(&x_vars, &instance.coefficients(&c.coeff)?),
                };
                model.add_constraint(format!("{}_{ci}", c.name), terms, c.sense, c.rhs);
            }
        }
    }

    // Probabilistic constraint blocks.
    let mut indicator_vars = Vec::with_capacity(prob_blocks.len());
    for block in prob_blocks {
        let c = &silp.constraints[block.constraint_index];
        let mut ys = Vec::with_capacity(block.rows.len());
        for (j, row) in block.rows.iter().enumerate() {
            let y = model.add_var(VarType::Binary, 0.0, 1.0, 0.0);
            let terms = row_terms(&x_vars, row);
            model.add_indicator(format!("{}_row{j}", c.name), y, true, terms, c.sense, c.rhs);
            ys.push(y);
        }
        model.add_constraint(
            format!("{}_count", c.name),
            ys.iter().map(|y| (*y, 1.0)).collect(),
            Sense::Ge,
            block.required as f64,
        );
        indicator_vars.push(ys);
    }

    // Probability objective (epigraphic rewriting): maximize/minimize the
    // fraction of satisfied rows.
    let mut objective_indicators = Vec::new();
    if let Some(ob) = objective_block {
        let weight = if ob.rows.is_empty() {
            0.0
        } else {
            1.0 / ob.rows.len() as f64
        };
        for (j, row) in ob.rows.iter().enumerate() {
            let y = model.add_var(VarType::Binary, 0.0, 1.0, weight);
            let terms = row_terms(&x_vars, row);
            model.add_indicator(
                format!("obj_row{j}"),
                y,
                true,
                terms,
                ob.sense,
                ob.threshold,
            );
            objective_indicators.push(y);
        }
    }

    Ok(Formulation {
        model,
        x_vars,
        indicator_vars,
        objective_indicators,
    })
}

/// The `(x_i, row[i])` terms of a row's non-zero coefficients, in one
/// allocation of exactly their number.
fn row_terms(x_vars: &[VarId], row: &[f64]) -> Vec<(VarId, f64)> {
    let mut terms = Vec::with_capacity(row.iter().filter(|&&co| co != 0.0).count());
    terms.extend(
        x_vars
            .iter()
            .zip(row)
            .filter(|(_, &co)| co != 0.0)
            .map(|(x, &co)| (*x, co)),
    );
    terms
}

/// Formulate the full SAA `SAA_{Q,M}` with `m` optimization scenarios
/// (Section 3.1).
pub fn formulate_saa(instance: &Instance<'_>, m: usize) -> Result<Formulation> {
    let silp = &instance.silp;
    let mut blocks = Vec::new();
    for (ci, c) in silp.constraints.iter().enumerate() {
        if let ConstraintKind::Probabilistic { probability } = c.kind {
            let column = c.coeff.column().ok_or_else(|| {
                crate::error::SpqError::Internal("probabilistic constraint without a column".into())
            })?;
            let matrix = instance.optimization_matrix(column, m)?;
            let rows: Vec<Vec<f64>> = (0..m).map(|j| matrix.scenario(j).to_vec()).collect();
            blocks.push(ProbBlock::with_probability(ci, rows, probability));
        }
    }
    let objective_block = probability_objective_block(instance, m)?;
    build_model(instance, &blocks, objective_block.as_ref())
}

/// Formulate the probabilistically-unconstrained problem `Q0` used by
/// SummarySearch for its warm start `x⁽⁰⁾` (Algorithm 2, line 2).
///
/// Probabilistic constraints are dropped; a probability objective is still
/// approximated over `objective_scenarios` optimization scenarios.
pub fn formulate_unconstrained(
    instance: &Instance<'_>,
    objective_scenarios: usize,
) -> Result<Formulation> {
    let objective_block = probability_objective_block(instance, objective_scenarios)?;
    build_model(instance, &[], objective_block.as_ref())
}

/// Realize the objective block for probability objectives, if the SILP has
/// one.
pub fn probability_objective_block(
    instance: &Instance<'_>,
    m: usize,
) -> Result<Option<ObjectiveBlock>> {
    match &instance.silp.objective {
        SilpObjective::Probability {
            attribute,
            sense,
            threshold,
            ..
        } => {
            let matrix = instance.optimization_matrix(attribute, m)?;
            let rows: Vec<Vec<f64>> = (0..m).map(|j| matrix.scenario(j).to_vec()).collect();
            Ok(Some(ObjectiveBlock {
                rows,
                sense: *sense,
                threshold: *threshold,
            }))
        }
        SilpObjective::Linear { .. } => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::SpqOptions;
    use crate::silp::{CoeffSource, Direction, Silp, SilpConstraint};
    use spq_mcdb::vg::NormalNoise;
    use spq_mcdb::{Relation, RelationBuilder};

    fn relation() -> Relation {
        RelationBuilder::new("t")
            .deterministic_f64("price", vec![100.0, 200.0, 50.0, 75.0])
            .stochastic("gain", NormalNoise::around(vec![5.0, 12.0, 2.0, 4.0], 1.0))
            .build()
            .unwrap()
    }

    fn base_silp() -> Silp {
        Silp {
            relation: "t".into(),
            tuples: vec![0, 1, 2, 3],
            repeat_bound: None,
            constraints: vec![
                SilpConstraint {
                    name: "budget".into(),
                    coeff: CoeffSource::Deterministic("price".into()),
                    sense: Sense::Le,
                    rhs: 300.0,
                    kind: ConstraintKind::Deterministic,
                },
                SilpConstraint {
                    name: "risk".into(),
                    coeff: CoeffSource::Stochastic("gain".into()),
                    sense: Sense::Ge,
                    rhs: 0.0,
                    kind: ConstraintKind::Probabilistic { probability: 0.9 },
                },
            ],
            objective: SilpObjective::Linear {
                direction: Direction::Maximize,
                coeff: CoeffSource::Stochastic("gain".into()),
                expectation: true,
            },
        }
    }

    #[test]
    fn saa_has_one_indicator_per_scenario_and_a_counting_constraint() {
        let rel = relation();
        let inst = Instance::new(&rel, base_silp(), SpqOptions::for_tests()).unwrap();
        let m = 10;
        let f = formulate_saa(&inst, m).unwrap();
        assert_eq!(f.x_vars.len(), 4);
        assert_eq!(f.indicator_vars.len(), 1);
        assert_eq!(f.indicator_vars[0].len(), m);
        // ceil(0.9 * 10) = 9 scenarios must be satisfied.
        let counting = f
            .model
            .constraints()
            .iter()
            .find(|c| c.name.contains("count"))
            .unwrap();
        assert_eq!(counting.rhs, 9.0);
        // Size complexity Θ(NMK): indicators carry N coefficients each.
        assert!(f.num_coefficients() >= 4 * m);
    }

    #[test]
    fn saa_size_grows_linearly_in_m() {
        let rel = relation();
        let inst = Instance::new(&rel, base_silp(), SpqOptions::for_tests()).unwrap();
        let small = formulate_saa(&inst, 5).unwrap().num_coefficients();
        let large = formulate_saa(&inst, 20).unwrap().num_coefficients();
        assert!(large > 3 * small);
    }

    #[test]
    fn solving_the_saa_yields_a_feasible_package() {
        let rel = relation();
        let inst = Instance::new(&rel, base_silp(), SpqOptions::for_tests()).unwrap();
        let f = formulate_saa(&inst, 15).unwrap();
        let res = solve_full(&f.model, &SolverOptions::default()).unwrap();
        assert!(res.status.has_solution(), "status {:?}", res.status);
        let sol = res.solution.unwrap();
        let x = f.multiplicities(&sol);
        // Budget constraint must hold.
        let prices = [100.0, 200.0, 50.0, 75.0];
        let total: f64 = x.iter().zip(prices.iter()).map(|(a, b)| a * b).sum();
        assert!(total <= 300.0 + 1e-6);
        // With strongly positive gains, the optimal package is non-empty.
        assert!(x.iter().sum::<f64>() > 0.0);
    }

    #[test]
    fn unconstrained_formulation_drops_probabilistic_constraints() {
        let rel = relation();
        let inst = Instance::new(&rel, base_silp(), SpqOptions::for_tests()).unwrap();
        let f = formulate_unconstrained(&inst, 5).unwrap();
        assert!(f.indicator_vars.is_empty());
        assert!(f.model.indicators().is_empty());
        // Only the budget constraint remains.
        assert_eq!(f.model.constraints().len(), 1);
    }

    #[test]
    fn probability_objective_uses_indicator_fraction() {
        let rel = relation();
        let mut silp = base_silp();
        silp.constraints.truncate(1); // keep only the budget constraint
        silp.constraints.push(SilpConstraint {
            name: "size".into(),
            coeff: CoeffSource::Constant(1.0),
            sense: Sense::Le,
            rhs: 3.0,
            kind: ConstraintKind::Deterministic,
        });
        silp.objective = SilpObjective::Probability {
            direction: Direction::Maximize,
            attribute: "gain".into(),
            sense: Sense::Ge,
            threshold: 10.0,
        };
        let inst = Instance::new(&rel, silp, SpqOptions::for_tests()).unwrap();
        let f = formulate_saa(&inst, 8).unwrap();
        assert_eq!(f.objective_indicators.len(), 8);
        let res = solve_full(&f.model, &SolverOptions::default()).unwrap();
        assert!(res.status.has_solution());
        let sol = res.solution.unwrap();
        // The objective is a fraction of satisfied scenarios, hence in [0, 1].
        assert!(sol.objective >= -1e-9 && sol.objective <= 1.0 + 1e-9);
        // Tuple 1 has mean gain 12 > 10, so a package achieving a high
        // fraction exists; the solver should find a strictly positive value.
        assert!(sol.objective > 0.5, "objective {}", sol.objective);
    }

    #[test]
    fn prob_block_required_rounding() {
        let b = ProbBlock::with_probability(0, vec![vec![0.0]; 10], 0.95);
        assert_eq!(b.required, 10);
        let b = ProbBlock::with_probability(0, vec![vec![0.0]; 10], 0.9);
        assert_eq!(b.required, 9);
        let b = ProbBlock::with_probability(0, vec![vec![0.0]; 3], 0.66);
        assert_eq!(b.required, 2);
        let b = ProbBlock::with_probability(0, vec![vec![0.0]; 1], 0.95);
        assert_eq!(b.required, 1);
        // Integral products stay exact: 0.7 * 10 = 7.000000000000001 in
        // f64, whose naive ceil would demand 8 rows.
        let b = ProbBlock::with_probability(0, vec![vec![0.0]; 10], 0.7);
        assert_eq!(b.required, 7);
    }
}
