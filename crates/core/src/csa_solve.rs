//! CSA-Solve (Algorithm 3): optimal summary selection.
//!
//! With the number of optimization scenarios `M` and summaries `Z` fixed,
//! CSA-Solve searches for the best Conservative Summary Approximation: for
//! every probabilistic constraint it looks for the minimally conservative
//! `α_k` (via validation-driven curve fitting, Section 5.2) and the best
//! scenario subsets `G_z(α_k)` (greedy selection by scenario score,
//! Section 5.3), solving a sequence of small reduced DILPs until it finds a
//! feasible, `(1 + ε)`-approximate solution, detects a cycle, or exhausts its
//! iteration budget.

use crate::alpha::{guess_alpha, AlphaHistory};
use crate::bounds::within_epsilon;
use crate::instance::Instance;
use crate::saa::{build_model, probability_objective_block, ProbBlock};
use crate::silp::{Direction, SilpConstraint};
use crate::summary::{build_summaries, partition_scenarios, SummarySpec};
use crate::validation::{validate_with, ValidationReport};
use crate::{Result, SpqError};
use spq_mcdb::ScenarioMatrix;
use spq_solver::{solve_full, Basis};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// The outcome of one CSA-Solve run.
#[derive(Debug, Clone)]
pub struct CsaSolveOutcome {
    /// The returned solution (multiplicities over candidate tuples).
    pub x: Vec<f64>,
    /// Its validation report.
    pub validation: ValidationReport,
    /// Number of inner iterations performed.
    pub iterations: usize,
    /// Number of reduced DILPs solved.
    pub problems_solved: usize,
    /// Branch-and-bound nodes accumulated across solves.
    pub solver_nodes: usize,
    /// Simplex pivots accumulated across solves.
    pub lp_pivots: usize,
    /// Largest formulated problem size (coefficients).
    pub max_coefficients: usize,
    /// Final per-constraint conservativeness levels α.
    pub alphas: Vec<f64>,
    /// Total out-of-sample scenarios evaluated across this run's
    /// validations (adaptive early stopping makes this much smaller than
    /// `iterations × M̂`).
    pub validation_scenarios: usize,
    /// Basis of the last reduced DILP's root relaxation. Successive α
    /// re-solves keep the model shape (same `Z` rows, same variables), so
    /// this basis warm-starts them; callers carry it across (M, Z)
    /// escalations too — the solver drops it whenever the shape changed.
    pub final_basis: Option<Basis>,
}

/// Number of scenarios used to approximate a probability *objective* inside
/// the reduced DILP. Kept small so the CSA stays small; validation always
/// re-estimates the objective on the out-of-sample stream.
const CSA_OBJECTIVE_SCENARIOS: usize = 30;

fn solution_key(x: &[f64], alphas: &[f64]) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    for v in x {
        (v.round() as i64).hash(&mut hasher);
    }
    for a in alphas {
        ((a * 1e6).round() as i64).hash(&mut hasher);
    }
    hasher.finish()
}

fn better(direction: Direction, candidate: f64, incumbent: f64) -> bool {
    match direction {
        Direction::Minimize => candidate < incumbent,
        Direction::Maximize => candidate > incumbent,
    }
}

/// The probability bound of a constraint CSA-Solve treats as probabilistic.
/// A missing bound means the binder or translator misclassified the
/// constraint — surface that as an internal error instead of silently
/// assuming `p = 0.5` (which used to mask such bugs as bad packages).
fn constraint_probability(constraint: &SilpConstraint) -> Result<f64> {
    constraint.probability().ok_or_else(|| {
        SpqError::Internal(format!(
            "constraint `{}` reached CSA-Solve without a probability bound",
            constraint.name
        ))
    })
}

/// Run CSA-Solve for the given `M` optimization scenarios (already realized
/// in `matrices`, one per probabilistic constraint) and `Z` summaries.
///
/// `x0` is the solution of the probabilistically-unconstrained problem
/// (`None` when that problem was unbounded or infeasible, in which case the
/// search starts from a conservativeness level of `p` directly).
///
/// `warm_basis` seeds the first reduced DILP's LP relaxation (e.g. the
/// basis returned by a previous CSA-Solve run at a smaller `M`); it is
/// safely ignored when it does not fit the formulated model.
pub fn csa_solve(
    instance: &Instance<'_>,
    x0: Option<&[f64]>,
    matrices: &HashMap<usize, Arc<ScenarioMatrix>>,
    m: usize,
    z: usize,
    warm_basis: Option<&Basis>,
) -> Result<CsaSolveOutcome> {
    let silp = &instance.silp;
    let opts = &instance.options;
    let direction = silp.objective.direction();
    let prob_indices: Vec<usize> = silp
        .constraints
        .iter()
        .enumerate()
        .filter(|(_, c)| c.kind.is_probabilistic())
        .map(|(i, _)| i)
        .collect();
    let k = prob_indices.len();
    let probs: Vec<f64> = prob_indices
        .iter()
        .map(|&ci| constraint_probability(&silp.constraints[ci]))
        .collect::<Result<_>>()?;
    // More summaries than scenarios are meaningless (each summary covers at
    // least one scenario): clamp Z into [1, M] so the α step and the
    // scenario partitioning stay consistent when a caller over-asks.
    let z = z.clamp(1, m.max(1));
    let partitions = partition_scenarios(m, z);
    let step = (z as f64 / m.max(1) as f64).clamp(1e-9, 1.0);

    let mut histories: Vec<AlphaHistory> = vec![AlphaHistory::new(); k];
    let mut alphas: Vec<f64> = vec![0.0; k];
    let mut seen: HashSet<u64> = HashSet::new();
    let mut best: Option<(Vec<f64>, ValidationReport)> = None;
    let mut last: Option<(Vec<f64>, ValidationReport)> = None;

    let mut problems_solved = 0usize;
    let mut solver_nodes = 0usize;
    let mut lp_pivots = 0usize;
    let mut max_coefficients = 0usize;
    let mut iterations = 0usize;
    // Incumbent basis: seeded by the caller, refreshed after every solve so
    // the next α re-solve (same shape, new summary coefficients) restarts
    // from the previous vertex instead of from scratch.
    let mut basis: Option<Basis> = warm_basis.cloned();

    // Current solution; `None` forces an immediate formulate/solve with the
    // initial α guesses.
    let mut current: Option<Vec<f64>> = x0.map(|x| x.to_vec());
    if current.is_none() {
        for kk in 0..k {
            alphas[kk] = guess_alpha(&histories[kk], probs[kk], step);
        }
    }
    let mut validation_scenarios = 0usize;

    // Feasible, every surplus nonnegative, and within the user's ε bound:
    // the paper's termination test.
    let accepts = |report: &ValidationReport| -> Result<bool> {
        Ok(report.feasible
            && report.constraints.iter().all(|c| c.surplus >= 0.0)
            && within_epsilon(instance, report.objective_estimate)?)
    };

    loop {
        if iterations >= opts.max_csa_iterations || opts.deadline.expired() {
            break;
        }
        iterations += 1;

        // Solve the CSA for the current α when we do not have a solution yet
        // (first iteration without a warm start, or after updating α).
        if current.is_none() {
            let mut blocks = Vec::with_capacity(k);
            // Convergence acceleration is only sound when the previous
            // solution was feasible (the paper applies it when α is being
            // *decreased*); otherwise it would keep an infeasible solution
            // alive in the reduced problem.
            let last_feasible = last.as_ref().map(|(_, r)| r.feasible).unwrap_or(false);
            for (kk, &ci) in prob_indices.iter().enumerate() {
                let constraint = &silp.constraints[ci];
                let prev = last.as_ref().map(|(x, _)| x.as_slice());
                let spec = SummarySpec {
                    alpha: alphas[kk],
                    sense: constraint.sense,
                    previous_solution: prev,
                    accelerate: last_feasible,
                };
                let rows = build_summaries(&matrices[&ci], &partitions, &spec);
                blocks.push(ProbBlock::with_probability(ci, rows, probs[kk]));
            }
            let objective_block = if silp.objective.is_probability() {
                probability_objective_block(instance, CSA_OBJECTIVE_SCENARIOS.min(m.max(1)))?
            } else {
                None
            };
            let formulation = build_model(instance, &blocks, objective_block.as_ref())?;
            max_coefficients = max_coefficients.max(formulation.num_coefficients());
            let mut solver_opts = opts.solver.clone();
            // Clone rather than move: a solve that stops before its root
            // relaxation is optimal returns no basis, and the incumbent
            // must survive for the next re-solve.
            solver_opts.warm_start = basis.clone();
            let res = {
                let _span = spq_obs::span("milp");
                solve_full(&formulation.model, &solver_opts)?
            };
            problems_solved += 1;
            solver_nodes += res.nodes;
            lp_pivots += res.lp_iterations;
            if res.basis.is_some() {
                basis = res.basis;
            }
            match res.solution {
                Some(sol) => current = Some(formulation.multiplicities(&sol)),
                None => break, // over-conservative or genuinely infeasible CSA
            }
        }

        let x = current.clone().expect("solution present");

        // Cycle detection on (x, α).
        let key = solution_key(&x, &alphas);
        if !seen.insert(key) {
            break;
        }

        // Validate (adaptively: far-from-p constraints settle after a few
        // stages) and record the p-surpluses. A candidate the adaptive pass
        // would accept as the final answer is confirmed against the full
        // M̂ budget first, so the returned report is never an early-stopped
        // estimate.
        let mut report = validate_with(instance, &x, &opts.search_validation())?;
        validation_scenarios += report.scenarios_used;
        if report.interrupted && !opts.deadline.is_cancelled() {
            // The wall-clock budget expired mid-validation; this candidate
            // is the last one (the loop breaks at the top next pass), so
            // give it its certificate with one deadline-exempt pass.
            report = validate_with(instance, &x, &opts.certificate_validation())?;
            validation_scenarios += report.scenarios_used;
        } else if report.early_stopped && accepts(&report)? {
            // An accepted candidate terminates the search, so this confirm
            // IS the answer's certificate: run it deadline-exempt (one
            // bounded pass) so a deadline firing mid-confirm cannot leave
            // the returned package with a partial report.
            let confirmed = validate_with(instance, &x, &opts.certificate_validation())?;
            validation_scenarios += confirmed.scenarios_used;
            report = confirmed;
        }
        for (kk, _) in prob_indices.iter().enumerate() {
            if let Some(cv) = report.constraints.get(kk) {
                histories[kk].record(alphas[kk], cv.surplus);
            }
        }
        if report.feasible {
            let replace = match &best {
                None => true,
                Some((_, b)) => {
                    !b.feasible
                        || better(direction, report.objective_estimate, b.objective_estimate)
                }
            };
            if replace {
                best = Some((x.clone(), report.clone()));
            }
        } else if best.is_none() {
            best = Some((x.clone(), report.clone()));
        }
        last = Some((x.clone(), report.clone()));

        // Termination: feasible and (1 + ε)-approximate (already confirmed
        // at the full budget above when the adaptive pass stopped early).
        if accepts(&report)? {
            return Ok(CsaSolveOutcome {
                x,
                validation: report,
                iterations,
                problems_solved,
                solver_nodes,
                lp_pivots,
                max_coefficients,
                alphas,
                validation_scenarios,
                final_basis: basis,
            });
        }

        // Update α and force a re-solve on the next loop iteration.
        for kk in 0..k {
            alphas[kk] = guess_alpha(&histories[kk], probs[kk], step);
        }
        current = None;
    }

    // Out of budget or cycled: return the best solution seen (feasible if one
    // exists, otherwise the most recent candidate).
    let (x, mut validation) = match (best, last) {
        (Some(b), _) => b,
        (None, Some(l)) => l,
        (None, None) => {
            // No CSA produced any solution at all: report an empty, infeasible
            // package.
            let x = vec![0.0; silp.num_vars()];
            let validation = validate_with(instance, &x, &opts.full_validation())?;
            (x, validation)
        }
    };
    // The best candidate may carry an early-stopped report (e.g. its
    // validation was adaptive and the search then ran out of budget).
    // Anchor the returned report to the full M̂ — deadline-exempt, since
    // this is the answer's certificate (cancellation still interrupts, in
    // which case the original report stands).
    if validation.early_stopped && !opts.deadline.is_cancelled() {
        let full = validate_with(instance, &x, &opts.certificate_validation())?;
        validation_scenarios += full.scenarios_used;
        if !full.interrupted {
            validation = full;
        }
    }
    Ok(CsaSolveOutcome {
        x,
        validation,
        iterations,
        problems_solved,
        solver_nodes,
        lp_pivots,
        max_coefficients,
        alphas,
        validation_scenarios,
        final_basis: basis,
    })
}

/// Realize the optimization scenario matrices needed by CSA-Solve (one per
/// probabilistic constraint).
pub fn realize_matrices(
    instance: &Instance<'_>,
    m: usize,
) -> Result<HashMap<usize, Arc<ScenarioMatrix>>> {
    let mut matrices = HashMap::new();
    for (ci, c) in instance.silp.constraints.iter().enumerate() {
        if !c.kind.is_probabilistic() {
            continue;
        }
        let column = c.coeff.column().ok_or_else(|| {
            crate::error::SpqError::Internal("probabilistic constraint without a column".into())
        })?;
        matrices.insert(ci, instance.optimization_matrix(column, m)?);
    }
    Ok(matrices)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::SpqOptions;
    use crate::silp::{CoeffSource, ConstraintKind, Silp, SilpConstraint, SilpObjective};
    use spq_mcdb::vg::NormalNoise;
    use spq_mcdb::{Relation, RelationBuilder};
    use spq_solver::Sense;

    /// A portfolio-like relation where high-mean tuples also carry high
    /// variance, so the unconstrained optimum is typically infeasible for the
    /// risk constraint and CSA-Solve has to search for the right α.
    fn relation() -> Relation {
        let means = vec![6.0, 5.5, 5.0, 1.0, 0.9, 0.8, 0.7, 0.6];
        let sds = vec![8.0, 7.0, 6.5, 0.3, 0.3, 0.3, 0.2, 0.2];
        RelationBuilder::new("p")
            .deterministic_f64("price", vec![100.0; 8])
            .stochastic("gain", NormalNoise::around(means, sds))
            .build()
            .unwrap()
    }

    fn silp() -> Silp {
        Silp {
            relation: "p".into(),
            tuples: (0..8).collect(),
            repeat_bound: None,
            constraints: vec![
                SilpConstraint {
                    name: "count".into(),
                    coeff: CoeffSource::Constant(1.0),
                    sense: Sense::Le,
                    rhs: 4.0,
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
    fn csa_solve_finds_a_feasible_package() {
        let rel = relation();
        let mut opts = SpqOptions::for_tests();
        opts.validation_scenarios = 800;
        let inst = Instance::new(&rel, silp(), opts).unwrap();
        let m = 30;
        let matrices = realize_matrices(&inst, m).unwrap();
        assert_eq!(matrices.len(), 1);
        // Warm start from the unconstrained optimum (all budget on the risky
        // high-mean tuples).
        let x0 = vec![4.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        let outcome = csa_solve(&inst, Some(&x0), &matrices, m, 1, None).unwrap();
        assert!(
            outcome.validation.feasible,
            "expected a feasible package, surpluses {:?}",
            outcome
                .validation
                .constraints
                .iter()
                .map(|c| c.surplus)
                .collect::<Vec<_>>()
        );
        // The package respects the count constraint.
        assert!(outcome.x.iter().sum::<f64>() <= 4.0 + 1e-9);
        assert!(outcome.problems_solved >= 1);
        assert!(outcome.iterations >= 1);
    }

    #[test]
    fn csa_solve_without_warm_start_starts_at_p() {
        let rel = relation();
        let inst = Instance::new(&rel, silp(), SpqOptions::for_tests()).unwrap();
        let m = 20;
        let matrices = realize_matrices(&inst, m).unwrap();
        let outcome = csa_solve(&inst, None, &matrices, m, 1, None).unwrap();
        // Should produce some package and validate it.
        assert_eq!(outcome.x.len(), 8);
        assert!(outcome.validation.scenarios_used > 0);
    }

    #[test]
    fn feasible_warm_start_returns_quickly() {
        // A package of only low-variance tuples is already feasible, so
        // CSA-Solve should accept it on the first validation.
        let rel = relation();
        let inst = Instance::new(&rel, silp(), SpqOptions::for_tests()).unwrap();
        let m = 20;
        let matrices = realize_matrices(&inst, m).unwrap();
        let x0 = vec![0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 0.0];
        let outcome = csa_solve(&inst, Some(&x0), &matrices, m, 1, None).unwrap();
        assert!(outcome.validation.feasible);
        assert_eq!(outcome.iterations, 1);
        assert_eq!(outcome.problems_solved, 0);
        assert_eq!(outcome.x, x0);
    }

    #[test]
    fn reduced_problem_is_much_smaller_than_saa() {
        let rel = relation();
        let inst = Instance::new(&rel, silp(), SpqOptions::for_tests()).unwrap();
        let m = 40;
        let saa = crate::saa::formulate_saa(&inst, m)
            .unwrap()
            .num_coefficients();
        let matrices = realize_matrices(&inst, m).unwrap();
        let x0 = vec![4.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        let outcome = csa_solve(&inst, Some(&x0), &matrices, m, 1, None).unwrap();
        // CSA with Z = 1 formulates problems of size Θ(N·Z·K), far below the
        // SAA's Θ(N·M·K).
        assert!(outcome.max_coefficients > 0);
        assert!(
            outcome.max_coefficients * 4 < saa,
            "csa {} vs saa {}",
            outcome.max_coefficients,
            saa
        );
    }

    #[test]
    fn solver_statistics_are_accumulated() {
        let rel = relation();
        let inst = Instance::new(&rel, silp(), SpqOptions::for_tests()).unwrap();
        let m = 20;
        let matrices = realize_matrices(&inst, m).unwrap();
        let x0 = vec![4.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        let outcome = csa_solve(&inst, Some(&x0), &matrices, m, 2, None).unwrap();
        assert!(outcome.iterations <= inst.options.max_csa_iterations);
        assert_eq!(outcome.alphas.len(), 1);
        assert!(outcome.validation_scenarios > 0);
    }

    #[test]
    fn oversized_summary_counts_are_clamped_to_m() {
        // Z far above M used to drive the α step past 1 and hand the
        // partitioner more summaries than scenarios; the clamp makes the
        // call equivalent to Z = M.
        let rel = relation();
        let inst = Instance::new(&rel, silp(), SpqOptions::for_tests()).unwrap();
        let m = 10;
        let matrices = realize_matrices(&inst, m).unwrap();
        let x0 = vec![4.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        let oversized = csa_solve(&inst, Some(&x0), &matrices, m, 50 * m, None).unwrap();
        let exact = csa_solve(&inst, Some(&x0), &matrices, m, m, None).unwrap();
        assert_eq!(oversized.x, exact.x);
        assert_eq!(oversized.validation.feasible, exact.validation.feasible);
        // Z = 0 is lifted to 1 rather than dividing by zero.
        let zero = csa_solve(&inst, Some(&x0), &matrices, m, 0, None).unwrap();
        assert_eq!(zero.x.len(), 8);
    }

    #[test]
    fn missing_probability_bounds_are_internal_errors() {
        let deterministic = SilpConstraint {
            name: "count".into(),
            coeff: CoeffSource::Constant(1.0),
            sense: Sense::Le,
            rhs: 4.0,
            kind: ConstraintKind::Deterministic,
        };
        let err = constraint_probability(&deterministic).unwrap_err();
        assert!(matches!(err, crate::SpqError::Internal(_)));
        assert!(err.to_string().contains("count"));
        let probabilistic = SilpConstraint {
            kind: ConstraintKind::Probabilistic { probability: 0.9 },
            ..deterministic
        };
        assert_eq!(constraint_probability(&probabilistic).unwrap(), 0.9);
    }

    #[test]
    fn accepted_packages_carry_full_budget_reports() {
        // The warm start is already feasible, so CSA accepts on the first
        // validation; adaptive early stop must have been confirmed away.
        let rel = relation();
        let mut opts = SpqOptions::for_tests();
        opts.validation_scenarios = 5000;
        let inst = Instance::new(&rel, silp(), opts).unwrap();
        let m = 20;
        let matrices = realize_matrices(&inst, m).unwrap();
        let x0 = vec![0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 0.0];
        let outcome = csa_solve(&inst, Some(&x0), &matrices, m, 1, None).unwrap();
        assert!(outcome.validation.feasible);
        assert!(!outcome.validation.early_stopped);
        assert_eq!(outcome.validation.scenarios_used, 5000);
    }
}
