//! The Naïve algorithm (Algorithm 1): SAA optimize/validate loop.
//!
//! Naïve is the systematic embodiment of the standard stochastic-programming
//! recipe: build the Sample Average Approximation over `M` scenarios, solve
//! the resulting (large) DILP, validate the solution against `M̂`
//! out-of-sample scenarios, and — if validation fails — add `m` more
//! scenarios and repeat. Its problem size grows as Θ(N·M·K), which is
//! exactly what makes it slow or infeasible for large `M` (Section 3).

use crate::instance::Instance;
use crate::package::{keep_best, EvaluationResult, EvaluationStats, Package};
use crate::saa::formulate_saa;
use crate::validation::validate_candidate;
use crate::Result;
use std::time::Instant;

/// Evaluate a stochastic package query with the Naïve algorithm.
pub fn evaluate_naive(instance: &Instance<'_>) -> Result<EvaluationResult> {
    let opts = &instance.options;
    let start = Instant::now();
    let direction = instance.silp.objective.direction();

    let mut stats = EvaluationStats::default();
    let mut m = opts.initial_scenarios.max(1);
    let mut best: Option<Package> = None;
    // Basis carried across M escalations. The SAA's shape changes with M
    // (one indicator per scenario), so the solver usually restarts cold —
    // but threading the basis is free and pays off whenever M repeats.
    let mut basis: Option<spq_solver::Basis> = opts.solver.warm_start.clone();

    loop {
        // The caller's deadline (timeout and cancellation); the solver polls
        // the same deadline inside its pivot loops, so an expiry mid-LP
        // surfaces promptly here too.
        if opts.deadline.expired() {
            break;
        }
        stats.outer_iterations += 1;
        stats.scenarios_used = m;

        // Optimization phase: formulate and solve SAA_{Q,M}.
        let formulation = {
            let _span = spq_obs::span("formulate");
            formulate_saa(instance, m)?
        };
        let (_, solution) = formulation.solve(&opts.solver, &mut basis, &mut stats)?;

        if let Some(x) = solution {
            // Validation phase: adaptive early stop rejects hopeless
            // candidates after a few stages; a feasible candidate ends the
            // loop, so it is certified against the full M̂ budget.
            let (report, passes) =
                validate_candidate(instance, &x, &mut stats, |r| Ok(r.feasible))?;
            stats.validations += passes;
            let package = Package::from_dense(&x, &instance.silp.tuples, report);
            let feasible = package.is_feasible();
            keep_best(&mut best, package, direction);
            if feasible {
                break;
            }
        }

        // Add more optimization scenarios and retry.
        let next = m + opts.scenario_increment.max(1);
        if next > opts.max_scenarios {
            break;
        }
        m = next;
    }

    stats.wall_time = start.elapsed();
    stats.summaries_used = 0;
    Ok(EvaluationResult {
        feasible: best.as_ref().is_some_and(Package::is_feasible),
        package: best,
        stats,
        final_basis: basis,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::SpqOptions;
    use crate::silp::{
        CoeffSource, ConstraintKind, Direction, Silp, SilpConstraint, SilpObjective,
    };
    use spq_mcdb::vg::NormalNoise;
    use spq_mcdb::{Relation, RelationBuilder};
    use spq_solver::Sense;

    fn relation() -> Relation {
        RelationBuilder::new("p")
            .deterministic_f64("price", vec![100.0, 100.0, 100.0, 100.0])
            .stochastic(
                "gain",
                NormalNoise::around(vec![5.0, 4.0, 1.0, 0.5], vec![1.0, 6.0, 0.2, 0.1]),
            )
            .build()
            .unwrap()
    }

    fn silp(p: f64, v: f64) -> Silp {
        Silp {
            relation: "p".into(),
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
    fn naive_finds_a_feasible_package_on_an_easy_query() {
        let rel = relation();
        let mut opts = SpqOptions::for_tests();
        opts.initial_scenarios = 15;
        opts.validation_scenarios = 600;
        let inst = Instance::new(&rel, silp(0.9, 0.0), opts).unwrap();
        let result = evaluate_naive(&inst).unwrap();
        assert!(result.feasible, "stats: {:?}", result.stats);
        let package = result.package.unwrap();
        assert!(package.is_feasible());
        assert!(package.size() > 0);
        assert!(package.size() <= 3); // budget 300 / price 100
        assert!(result.stats.problems_solved >= 1);
        assert!(result.stats.validations >= 1);
        assert!(result.stats.scenarios_used >= 15);
        assert!(result.stats.validation_scenarios >= 600);
        // The reported package is anchored to the full out-of-sample budget
        // even though the search validated adaptively.
        assert!(!package.validation.early_stopped);
        assert_eq!(package.validation.scenarios_used, 600);
    }

    #[test]
    fn naive_gives_up_after_max_scenarios_on_an_impossible_query() {
        let rel = relation();
        let mut opts = SpqOptions::for_tests();
        opts.initial_scenarios = 10;
        opts.scenario_increment = 10;
        opts.max_scenarios = 30;
        opts.validation_scenarios = 400;
        // Require total gain >= 100 with probability 0.95: impossible with at
        // most 3 tuples whose gains are centred near 5.
        let inst = Instance::new(&rel, silp(0.95, 100.0), opts).unwrap();
        let result = evaluate_naive(&inst).unwrap();
        assert!(!result.feasible);
        // It tried several scenario counts before giving up.
        assert!(result.stats.outer_iterations >= 2);
        assert!(result.stats.scenarios_used <= 30);
    }

    #[test]
    fn naive_problem_size_grows_with_iterations() {
        let rel = relation();
        let mut opts = SpqOptions::for_tests();
        opts.initial_scenarios = 10;
        opts.scenario_increment = 20;
        opts.max_scenarios = 30;
        opts.validation_scenarios = 300;
        let inst = Instance::new(&rel, silp(0.99, 12.0), opts).unwrap();
        let result = evaluate_naive(&inst).unwrap();
        // Whether or not it succeeds, the recorded maximum problem size must
        // reflect the N*M*K growth (at least N * M coefficients).
        assert!(result.stats.max_problem_coefficients >= 4 * 10);
    }
}
