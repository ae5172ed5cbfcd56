//! SummarySearch (Algorithm 2) and CSA-Solve (Algorithm 3): query
//! evaluation with conservative summary approximations.
//!
//! SummarySearch first solves the probabilistically-unconstrained problem
//! `Q0` to obtain the least conservative warm start `x⁽⁰⁾`, then repeatedly
//! invokes CSA-Solve with the current number of optimization scenarios `M`
//! and summaries `Z`. A feasible, `(1 + ε)`-approximate solution terminates
//! the search; a feasible but insufficiently accurate solution increases `Z`
//! (more, less conservative summaries improve the objective); an infeasible
//! outcome increases `M` (more scenarios improve the summaries' coverage of
//! the uncertainty).
//!
//! With `M` and `Z` fixed, CSA-Solve searches for the best Conservative
//! Summary Approximation: for every probabilistic constraint it looks for
//! the minimally conservative `α_k` (via validation-driven curve fitting,
//! Section 5.2) and the best scenario subsets `G_z(α_k)` (greedy selection
//! by scenario score, Section 5.3), solving a sequence of small reduced
//! DILPs until it finds a feasible, `(1 + ε)`-approximate solution, detects
//! a cycle, or exhausts its iteration budget.
//!
//! Alongside the solution-level warm start `x⁽⁰⁾`, the search threads a
//! *basis-level* warm start through every MILP it triggers: the simplex
//! basis of each solve is carried into the next CSA-Solve invocation (and
//! across Z/M escalations), so re-solves of structurally identical models
//! restart from the previous optimal vertex.

use crate::alpha::{guess_alpha, AlphaHistory};
use crate::bounds::within_epsilon;
use crate::instance::Instance;
use crate::package::{keep_best, EvaluationResult, EvaluationStats, Package};
use crate::saa::{build_model, formulate_unconstrained, probability_objective_block, ProbBlock};
use crate::silp::SilpConstraint;
use crate::summary::{build_summaries, partition_scenarios, SummarySpec};
use crate::validation::{validate_candidate, validate_with, ValidationReport};
use crate::{Result, SpqError};
use spq_mcdb::ScenarioMatrix;
use spq_solver::{Basis, SolveStatus};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

/// Summaries added when a feasible package misses the ε bound (the paper's
/// `z`).
pub(crate) const SUMMARY_INCREMENT: usize = 1;

/// CSA-Solve iterations per `(M, Z)` combination.
pub(crate) const MAX_CSA_ITERATIONS: usize = 15;

/// Evaluate a stochastic package query with SummarySearch.
pub fn evaluate_summary_search(instance: &Instance<'_>) -> Result<EvaluationResult> {
    let opts = &instance.options;
    let start = Instant::now();
    let silp = &instance.silp;
    let direction = silp.objective.direction();

    let mut stats = EvaluationStats::default();
    // Basis carried across every solve this evaluation triggers (Q0, each
    // CSA-Solve, each Z/M escalation). The solver ignores it whenever the
    // model shape changed, so threading it unconditionally is safe.
    let mut basis: Option<Basis> = opts.solver.warm_start.clone();

    // --- Warm start: solve the probabilistically-unconstrained problem Q0. --
    let q0 = formulate_unconstrained(instance, opts.initial_scenarios.clamp(1, 50))?;
    let (status, x0) = q0.solve(&opts.solver, &mut basis, &mut stats)?;
    if status == SolveStatus::Infeasible {
        // Even without probabilistic constraints there is no feasible
        // package: the query is infeasible outright.
        stats.wall_time = start.elapsed();
        return Ok(EvaluationResult {
            package: None,
            feasible: false,
            stats,
            final_basis: basis,
        });
    }

    let mut m = opts.initial_scenarios.max(1);
    let mut z = opts.initial_summaries.clamp(1, m);
    let mut best: Option<Package> = None;

    loop {
        // The caller's deadline (timeout and cancellation), handed to the
        // solver by Instance::new and polled inside every LP pivot loop too.
        if opts.deadline.expired() {
            break;
        }
        stats.outer_iterations += 1;
        stats.scenarios_used = m;
        stats.summaries_used = z;

        let (x, report) = csa_solve(instance, x0.as_deref(), m, z, &mut basis, &mut stats)?;
        let package = Package::from_dense(&x, &silp.tuples, report);
        let (feasible, objective) = (package.is_feasible(), package.objective_estimate);
        keep_best(&mut best, package, direction);

        if feasible && within_epsilon(instance, objective)? {
            // Feasible and (1 + ε)-approximate: done.
            break;
        } else if feasible && z < m {
            // Feasible but not accurate enough: use more (therefore less
            // conservative) summaries.
            z += SUMMARY_INCREMENT.min(m - z);
        } else {
            // Infeasible (or Z already equals M): use more scenarios.
            let next = m + opts.scenario_increment.max(1);
            if next > opts.max_scenarios {
                break;
            }
            m = next;
            z = z.min(m);
        }
    }

    stats.wall_time = start.elapsed();
    Ok(EvaluationResult {
        feasible: best.as_ref().is_some_and(Package::is_feasible),
        package: best,
        stats,
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
            SpqError::Internal("probabilistic constraint without a column".into())
        })?;
        matrices.insert(ci, instance.optimization_matrix(column, m)?);
    }
    Ok(matrices)
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

/// CSA-Solve for `M = m` optimization scenarios (realized first, one matrix
/// per probabilistic constraint, under the `scenarios` span) and `Z = z`
/// summaries; returns the chosen solution and its validation report.
///
/// `x0` is the solution of the probabilistically-unconstrained problem
/// (`None` when that problem was unbounded or infeasible, in which case the
/// search starts from a conservativeness level of `p` directly). `basis`
/// warm-starts the first reduced DILP and is refreshed by every solve: the
/// α re-solves keep the model shape (same `Z` rows, same variables), so each
/// restarts from the previous vertex. Solves and validation scenarios are
/// counted into `stats`, and each iteration adds one to `stats.validations`.
fn csa_solve(
    instance: &Instance<'_>,
    x0: Option<&[f64]>,
    m: usize,
    z: usize,
    basis: &mut Option<Basis>,
    stats: &mut EvaluationStats,
) -> Result<(Vec<f64>, ValidationReport)> {
    let matrices = {
        let _span = spq_obs::span("scenarios");
        realize_matrices(instance, m)?
    };
    let _span = spq_obs::span("csa_solve");
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

    // Current solution; `None` forces an immediate formulate/solve with the
    // initial α guesses.
    let mut current: Option<Vec<f64>> = x0.map(|x| x.to_vec());
    if current.is_none() {
        for kk in 0..k {
            alphas[kk] = guess_alpha(&histories[kk], probs[kk], step);
        }
    }

    // Feasible, every surplus nonnegative, and within the user's ε bound:
    // the paper's termination test.
    let accepts = |report: &ValidationReport| -> Result<bool> {
        Ok(report.feasible
            && report.constraints.iter().all(|c| c.surplus >= 0.0)
            && within_epsilon(instance, report.objective_estimate)?)
    };

    for _ in 0..MAX_CSA_ITERATIONS {
        if opts.deadline.expired() {
            break;
        }
        stats.validations += 1;

        // Solve the CSA for the current α when we do not have a solution yet
        // (first iteration without a warm start, or after updating α).
        let x = match current.take() {
            Some(x) => x,
            None => {
                let mut blocks = Vec::with_capacity(k);
                // Convergence acceleration is only sound when the previous
                // solution was feasible (the paper applies it when α is
                // being *decreased*); otherwise it would keep an infeasible
                // solution alive in the reduced problem.
                let last_feasible = last.as_ref().map(|(_, r)| r.feasible).unwrap_or(false);
                for (kk, &ci) in prob_indices.iter().enumerate() {
                    let constraint = &silp.constraints[ci];
                    let spec = SummarySpec {
                        alpha: alphas[kk],
                        sense: constraint.sense,
                        previous_solution: last.as_ref().map(|(x, _)| x.as_slice()),
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
                match formulation.solve(&opts.solver, basis, stats)?.1 {
                    Some(x) => x,
                    None => break, // over-conservative or genuinely infeasible CSA
                }
            }
        };

        // Cycle detection on (x, α).
        if !seen.insert(solution_key(&x, &alphas)) {
            break;
        }

        // Validate (adaptively: far-from-p constraints settle after a few
        // stages) and record the p-surpluses. A candidate the adaptive pass
        // would accept as the final answer is certified against the full M̂
        // budget first, so the returned report is never an early-stopped
        // estimate.
        let (report, _) = validate_candidate(instance, &x, stats, accepts)?;
        for (kk, history) in histories.iter_mut().enumerate() {
            if let Some(cv) = report.constraints.get(kk) {
                history.record(alphas[kk], cv.surplus);
            }
        }
        // Unlike the outer keep-best rule, an infeasible candidate never
        // displaces the first one kept.
        if report.feasible {
            let replace = match &best {
                None => true,
                Some((_, b)) => {
                    !b.feasible || direction.better(report.objective_estimate, b.objective_estimate)
                }
            };
            if replace {
                best = Some((x.clone(), report.clone()));
            }
        } else if best.is_none() {
            best = Some((x.clone(), report.clone()));
        }

        // Termination: feasible and (1 + ε)-approximate (already certified
        // at the full budget above when the adaptive pass stopped early).
        if accepts(&report)? {
            return Ok((x, report));
        }
        last = Some((x, report));

        // Update α and force a re-solve on the next loop iteration.
        for kk in 0..k {
            alphas[kk] = guess_alpha(&histories[kk], probs[kk], step);
        }
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
        stats.validation_scenarios += full.scenarios_used;
        if !full.interrupted {
            validation = full;
        }
    }
    Ok((x, validation))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::SpqOptions;
    use crate::silp::{CoeffSource, ConstraintKind, Direction, Silp, SilpObjective};
    use spq_mcdb::vg::NormalNoise;
    use spq_mcdb::{Relation, RelationBuilder};
    use spq_solver::Sense;

    /// High-mean/high-variance tuples alongside low-mean/low-variance ones:
    /// the unconstrained optimum is risky and must be repaired by the
    /// summaries.
    fn relation() -> Relation {
        let means = vec![6.0, 5.5, 5.0, 1.0, 0.9, 0.8, 0.7, 0.6];
        let sds = vec![8.0, 7.5, 7.0, 0.3, 0.3, 0.2, 0.2, 0.2];
        RelationBuilder::new("p")
            .deterministic_f64("price", vec![100.0; 8])
            .stochastic("gain", NormalNoise::around(means, sds))
            .build()
            .unwrap()
    }

    fn silp(p: f64, v: f64) -> Silp {
        Silp {
            relation: "p".into(),
            tuples: (0..8).collect(),
            repeat_bound: None,
            constraints: vec![
                SilpConstraint {
                    name: "budget".into(),
                    coeff: CoeffSource::Deterministic("price".into()),
                    sense: Sense::Le,
                    rhs: 400.0,
                    kind: ConstraintKind::Deterministic,
                },
                SilpConstraint {
                    name: "risk".into(),
                    coeff: CoeffSource::Stochastic("gain".into()),
                    sense: Sense::Ge,
                    rhs: v,
                    kind: ConstraintKind::Probabilistic { probability: p },
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
    fn summary_search_finds_a_feasible_package() {
        let rel = relation();
        let mut opts = SpqOptions::for_tests();
        opts.initial_scenarios = 25;
        opts.validation_scenarios = 800;
        let inst = Instance::new(&rel, silp(0.9, 0.0), opts).unwrap();
        let result = evaluate_summary_search(&inst).unwrap();
        assert!(result.feasible, "stats: {:?}", result.stats);
        let package = result.package.unwrap();
        assert!(package.is_feasible());
        assert!(package.size() > 0);
        assert!(package.size() <= 4); // budget 400 / price 100
        assert_eq!(result.stats.summaries_used, 1);
        assert!(result.stats.validation_scenarios > 0);
        // The winning package's report covers the full out-of-sample budget
        // (adaptive validation confirms accepted candidates).
        assert!(!package.validation.early_stopped);
        assert_eq!(package.validation.scenarios_used, 800);
    }

    #[test]
    fn summary_search_declares_failure_on_an_impossible_query() {
        let rel = relation();
        let mut opts = SpqOptions::for_tests();
        opts.initial_scenarios = 10;
        opts.scenario_increment = 10;
        opts.max_scenarios = 20;
        opts.validation_scenarios = 300;
        // Gain >= 200 with probability 0.95 is impossible with 4 tuples.
        let inst = Instance::new(&rel, silp(0.95, 200.0), opts).unwrap();
        let result = evaluate_summary_search(&inst).unwrap();
        assert!(!result.feasible);
    }

    #[test]
    fn infeasible_deterministic_constraints_short_circuit() {
        let rel = relation();
        let mut s = silp(0.9, 0.0);
        // COUNT(*) >= 100 cannot be met with a budget of 400 / price 100.
        s.constraints.push(SilpConstraint {
            name: "impossible".into(),
            coeff: CoeffSource::Constant(1.0),
            sense: Sense::Ge,
            rhs: 100.0,
            kind: ConstraintKind::Deterministic,
        });
        let inst = Instance::new(&rel, s, SpqOptions::for_tests()).unwrap();
        let result = evaluate_summary_search(&inst).unwrap();
        assert!(!result.feasible);
        assert!(result.package.is_none());
        // It detected infeasibility at the warm-start stage, without any
        // CSA iterations.
        assert_eq!(result.stats.outer_iterations, 0);
    }

    #[test]
    fn reduced_problems_stay_small_compared_to_saa() {
        let rel = relation();
        let mut opts = SpqOptions::for_tests();
        opts.initial_scenarios = 40;
        opts.validation_scenarios = 500;
        let inst = Instance::new(&rel, silp(0.9, 0.0), opts).unwrap();
        let saa_size = crate::saa::formulate_saa(&inst, 40)
            .unwrap()
            .num_coefficients();
        let result = evaluate_summary_search(&inst).unwrap();
        assert!(result.feasible);
        assert!(
            result.stats.max_problem_coefficients < saa_size,
            "summary search max {} vs SAA {}",
            result.stats.max_problem_coefficients,
            saa_size
        );
    }

    /// A portfolio-like relation where high-mean tuples also carry high
    /// variance, so the unconstrained optimum is typically infeasible for the
    /// risk constraint and CSA-Solve has to search for the right α.
    fn csa_relation() -> Relation {
        let means = vec![6.0, 5.5, 5.0, 1.0, 0.9, 0.8, 0.7, 0.6];
        let sds = vec![8.0, 7.0, 6.5, 0.3, 0.3, 0.3, 0.2, 0.2];
        RelationBuilder::new("p")
            .deterministic_f64("price", vec![100.0; 8])
            .stochastic("gain", NormalNoise::around(means, sds))
            .build()
            .unwrap()
    }

    /// At most four tuples, `Pr(SUM(gain) >= 0) >= 0.9`, maximize gain.
    fn csa_silp() -> Silp {
        let mut s = silp(0.9, 0.0);
        s.constraints[0] = SilpConstraint {
            name: "count".into(),
            coeff: CoeffSource::Constant(1.0),
            sense: Sense::Le,
            rhs: 4.0,
            kind: ConstraintKind::Deterministic,
        };
        s
    }

    /// Run CSA-Solve cold (no basis) and hand back its solution, report and
    /// counters.
    fn run_csa(
        inst: &Instance<'_>,
        x0: Option<&[f64]>,
        m: usize,
        z: usize,
    ) -> (Vec<f64>, ValidationReport, EvaluationStats) {
        let mut stats = EvaluationStats::default();
        let (x, report) = csa_solve(inst, x0, m, z, &mut None, &mut stats).unwrap();
        (x, report, stats)
    }

    #[test]
    fn csa_solve_finds_a_feasible_package() {
        let rel = csa_relation();
        let mut opts = SpqOptions::for_tests();
        opts.validation_scenarios = 800;
        let inst = Instance::new(&rel, csa_silp(), opts).unwrap();
        assert_eq!(realize_matrices(&inst, 30).unwrap().len(), 1);
        // Warm start from the unconstrained optimum (all budget on the risky
        // high-mean tuples).
        let x0 = vec![4.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        let (x, report, stats) = run_csa(&inst, Some(&x0), 30, 1);
        assert!(
            report.feasible,
            "expected a feasible package, surpluses {:?}",
            report
                .constraints
                .iter()
                .map(|c| c.surplus)
                .collect::<Vec<_>>()
        );
        // The package respects the count constraint.
        assert!(x.iter().sum::<f64>() <= 4.0 + 1e-9);
        assert!(stats.problems_solved >= 1);
        assert!(stats.validations >= 1);
    }

    #[test]
    fn csa_solve_without_warm_start_starts_at_p() {
        let rel = csa_relation();
        let inst = Instance::new(&rel, csa_silp(), SpqOptions::for_tests()).unwrap();
        let (x, report, _) = run_csa(&inst, None, 20, 1);
        // Should produce some package and validate it.
        assert_eq!(x.len(), 8);
        assert!(report.scenarios_used > 0);
    }

    #[test]
    fn feasible_warm_start_returns_quickly() {
        // A package of only low-variance tuples is already feasible, so
        // CSA-Solve should accept it on the first validation.
        let rel = csa_relation();
        let inst = Instance::new(&rel, csa_silp(), SpqOptions::for_tests()).unwrap();
        let x0 = vec![0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 0.0];
        let (x, report, stats) = run_csa(&inst, Some(&x0), 20, 1);
        assert!(report.feasible);
        assert_eq!(stats.validations, 1);
        assert_eq!(stats.problems_solved, 0);
        assert_eq!(x, x0);
    }

    #[test]
    fn reduced_problem_is_much_smaller_than_saa() {
        let rel = csa_relation();
        let inst = Instance::new(&rel, csa_silp(), SpqOptions::for_tests()).unwrap();
        let m = 40;
        let saa = crate::saa::formulate_saa(&inst, m)
            .unwrap()
            .num_coefficients();
        let x0 = vec![4.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        let (_, _, stats) = run_csa(&inst, Some(&x0), m, 1);
        // CSA with Z = 1 formulates problems of size Θ(N·Z·K), far below the
        // SAA's Θ(N·M·K).
        let csa = stats.max_problem_coefficients;
        assert!(csa > 0);
        assert!(csa * 4 < saa, "csa {csa} vs saa {saa}");
    }

    #[test]
    fn solver_statistics_are_accumulated() {
        let rel = csa_relation();
        let inst = Instance::new(&rel, csa_silp(), SpqOptions::for_tests()).unwrap();
        let x0 = vec![4.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        let (_, _, stats) = run_csa(&inst, Some(&x0), 20, 2);
        assert!(stats.validations <= MAX_CSA_ITERATIONS);
        assert!(stats.problems_solved >= 1);
        assert!(stats.lp_pivots > 0);
        assert!(stats.validation_scenarios > 0);
    }

    #[test]
    fn oversized_summary_counts_are_clamped_to_m() {
        // Z far above M used to drive the α step past 1 and hand the
        // partitioner more summaries than scenarios; the clamp makes the
        // call equivalent to Z = M.
        let rel = csa_relation();
        let inst = Instance::new(&rel, csa_silp(), SpqOptions::for_tests()).unwrap();
        let m = 10;
        let x0 = vec![4.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        let (oversized, oversized_report, _) = run_csa(&inst, Some(&x0), m, 50 * m);
        let (exact, exact_report, _) = run_csa(&inst, Some(&x0), m, m);
        assert_eq!(oversized, exact);
        assert_eq!(oversized_report.feasible, exact_report.feasible);
        // Z = 0 is lifted to 1 rather than dividing by zero.
        let (zero, _, _) = run_csa(&inst, Some(&x0), m, 0);
        assert_eq!(zero.len(), 8);
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
        assert!(matches!(err, SpqError::Internal(_)));
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
        // validation; adaptive early stop must have been certified away.
        let rel = csa_relation();
        let mut opts = SpqOptions::for_tests();
        opts.validation_scenarios = 5000;
        let inst = Instance::new(&rel, csa_silp(), opts).unwrap();
        let x0 = vec![0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 0.0];
        let (_, report, _) = run_csa(&inst, Some(&x0), 20, 1);
        assert!(report.feasible);
        assert!(!report.early_stopped);
        assert_eq!(report.scenarios_used, 5000);
    }
}
