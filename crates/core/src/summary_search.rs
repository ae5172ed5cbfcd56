//! SummarySearch (Algorithm 2): query evaluation with conservative summary
//! approximations.
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
//! Alongside the solution-level warm start `x⁽⁰⁾`, the search threads a
//! *basis-level* warm start through every MILP it triggers: the simplex
//! basis of each solve is carried into the next CSA-Solve invocation (and
//! across Z/M escalations), so re-solves of structurally identical models
//! restart from the previous optimal vertex.

use crate::bounds::within_epsilon;
use crate::csa_solve::{csa_solve, realize_matrices};
use crate::instance::Instance;
use crate::package::{EvaluationResult, EvaluationStats, Package};
use crate::saa::formulate_unconstrained;
use crate::silp::Direction;
use crate::Result;
use spq_solver::solve_full;
use std::time::Instant;

fn better(direction: Direction, candidate: f64, incumbent: f64) -> bool {
    match direction {
        Direction::Minimize => candidate < incumbent,
        Direction::Maximize => candidate > incumbent,
    }
}

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
    let mut basis: Option<spq_solver::Basis> = opts.solver.warm_start.clone();

    // --- Warm start: solve the probabilistically-unconstrained problem Q0. --
    let x0: Option<Vec<f64>> = {
        let objective_scenarios = opts.initial_scenarios.clamp(1, 50);
        let formulation = formulate_unconstrained(instance, objective_scenarios)?;
        stats.max_problem_coefficients = stats
            .max_problem_coefficients
            .max(formulation.num_coefficients());
        let mut solver_opts = opts.solver.clone();
        // Clone rather than move so the incumbent basis survives solves
        // that return none (e.g. a time-limited root relaxation).
        solver_opts.warm_start = basis.clone();
        let res = {
            let _span = spq_obs::span("milp");
            solve_full(&formulation.model, &solver_opts)?
        };
        stats.problems_solved += 1;
        stats.solver_nodes += res.nodes;
        stats.lp_pivots += res.lp_iterations;
        if res.basis.is_some() {
            basis = res.basis;
        }
        match res.status {
            spq_solver::SolveStatus::Infeasible => {
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
            _ => res.solution.map(|s| formulation.multiplicities(&s)),
        }
    };

    let mut m = opts.initial_scenarios.max(1);
    let mut z = opts.initial_summaries.clamp(1, m);
    let mut best: Option<Package> = None;
    let mut best_feasible = false;

    loop {
        // Armed by Instance::new from `time_limit` plus any cancellation
        // token; also polled inside every LP pivot loop downstream.
        if opts.deadline.expired() {
            break;
        }
        stats.outer_iterations += 1;
        stats.scenarios_used = m;
        stats.summaries_used = z;

        let matrices = {
            let _span = spq_obs::span("scenarios");
            realize_matrices(instance, m)?
        };
        let outcome = {
            let _span = spq_obs::span("csa_solve");
            csa_solve(instance, x0.as_deref(), &matrices, m, z, basis.as_ref())?
        };
        stats.problems_solved += outcome.problems_solved;
        stats.solver_nodes += outcome.solver_nodes;
        stats.lp_pivots += outcome.lp_pivots;
        stats.validations += outcome.iterations;
        stats.validation_scenarios += outcome.validation_scenarios;
        stats.max_problem_coefficients =
            stats.max_problem_coefficients.max(outcome.max_coefficients);
        if outcome.final_basis.is_some() {
            basis = outcome.final_basis.clone();
        }

        let report = outcome.validation.clone();
        let package = Package::from_dense(&outcome.x, &silp.tuples, report.clone());
        let replace = match &best {
            None => true,
            Some(b) => {
                (report.feasible && !best_feasible)
                    || (report.feasible == best_feasible
                        && better(direction, package.objective_estimate, b.objective_estimate))
            }
        };
        if replace {
            best_feasible = report.feasible;
            best = Some(package);
        }

        if report.feasible && within_epsilon(instance, report.objective_estimate)? {
            // Feasible and (1 + ε)-approximate: done.
            break;
        } else if report.feasible && z < m {
            // Feasible but not accurate enough: use more (therefore less
            // conservative) summaries.
            z += opts.summary_increment.max(1).min(m - z);
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
        feasible: best_feasible,
        package: best,
        stats,
        final_basis: basis,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::SpqOptions;
    use crate::silp::{CoeffSource, ConstraintKind, Silp, SilpConstraint, SilpObjective};
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
}
