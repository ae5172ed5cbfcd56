//! The §5.4 termination path under a finite ε.
//!
//! `SpqOptions::epsilon` defaults to `∞` (feasibility-only termination), so
//! until these tests nothing ran CSA-Solve's acceptance test or
//! SummarySearch's `Z`/`M` escalation with a finite bound. The pinned
//! (outer iterations, final M/Z, DILPs solved, validations, package, ε)
//! tuples were recorded on the commit *before* the certificate became
//! demand-driven (when every validation computed it eagerly), so they pin
//! "same termination, same package at any finite ε".

use spq_core::bounds::certificate;
use spq_core::silp::{CoeffSource, ConstraintKind, Direction, Silp, SilpConstraint, SilpObjective};
use spq_core::summary_search::evaluate_summary_search;
use spq_core::{Instance, SpqOptions};
use spq_mcdb::vg::NormalNoise;
use spq_mcdb::{Relation, RelationBuilder};
use spq_solver::Sense;

fn silp(relation: &str, column: &str, direction: Direction, count: f64, threshold: f64) -> Silp {
    Silp {
        relation: relation.into(),
        tuples: (0..8).collect(),
        repeat_bound: Some(1),
        constraints: vec![
            SilpConstraint {
                name: "count".into(),
                coeff: CoeffSource::Constant(1.0),
                sense: Sense::Le,
                rhs: count,
                kind: ConstraintKind::Deterministic,
            },
            SilpConstraint {
                name: "risk".into(),
                coeff: CoeffSource::Stochastic(column.into()),
                sense: Sense::Ge,
                rhs: threshold,
                kind: ConstraintKind::Probabilistic { probability: 0.9 },
            },
        ],
        objective: SilpObjective::Linear {
            direction,
            coeff: CoeffSource::Stochastic(column.into()),
            expectation: true,
        },
    }
}

/// Galaxy-style: minimize expected flux, *counteracted* by
/// `Pr(SUM(flux) ≥ 40) ≥ 0.9` (so `ω̂ ≥ p·v = 36`, Proposition 2).
fn galaxy() -> (Relation, Silp) {
    let relation = RelationBuilder::new("g")
        .stochastic(
            "flux",
            NormalNoise::around(
                vec![10.0, 12.0, 9.0, 11.0, 14.0, 8.0, 13.0, 10.5],
                vec![2.0, 0.5, 3.0, 1.0, 0.4, 3.5, 0.6, 1.5],
            ),
        )
        .build()
        .unwrap();
    (relation, silp("g", "flux", Direction::Minimize, 6.0, 40.0))
}

/// Portfolio-style: maximize expected gain, *supported* by
/// `Pr(SUM(gain) ≥ 21.3) ≥ 0.9`; the bound is Table 1's `s̄·l̄`
/// (Proposition 4), which reads the sampled value bounds.
fn portfolio() -> (Relation, Silp) {
    let relation = RelationBuilder::new("p")
        .stochastic(
            "gain",
            NormalNoise::around(
                vec![6.0, 5.9, 5.8, 5.7, 5.6, 5.55, 5.5, 5.45],
                vec![0.9, 0.9, 0.8, 0.8, 0.1, 0.1, 0.1, 0.1],
            ),
        )
        .build()
        .unwrap();
    (relation, silp("p", "gain", Direction::Maximize, 4.0, 21.3))
}

/// What one run is pinned on.
#[derive(Debug, PartialEq)]
struct Outcome {
    outer_iterations: usize,
    scenarios: usize,
    summaries: usize,
    problems_solved: usize,
    validations: usize,
    package: Vec<(usize, u32)>,
    epsilon: f64,
}

fn run((relation, silp): &(Relation, Silp), epsilon: f64) -> Outcome {
    let options = SpqOptions {
        initial_scenarios: 10,
        scenario_increment: 10,
        max_scenarios: 30,
        validation_scenarios: 800,
        epsilon,
        ..SpqOptions::for_tests()
    };
    let instance = Instance::new(relation, silp.clone(), options).unwrap();
    let result = evaluate_summary_search(&instance).unwrap();
    assert!(result.feasible);
    let package = result.package.unwrap();
    Outcome {
        outer_iterations: result.stats.outer_iterations,
        scenarios: result.stats.scenarios_used,
        summaries: result.stats.summaries_used,
        problems_solved: result.stats.problems_solved,
        validations: result.stats.validations,
        epsilon: certificate(&instance, package.objective_estimate).unwrap(),
        package: package.multiplicities,
    }
}

/// Far below anything either instance can certify, so the search runs its
/// whole `Z → M` escalation out.
const UNATTAINABLE: f64 = 1e-6;

#[test]
fn galaxy_style_minimization_terminates_as_recorded() {
    let instance = galaxy();
    let first_feasible = Outcome {
        outer_iterations: 1,
        scenarios: 10,
        summaries: 1,
        problems_solved: 2,
        validations: 2,
        package: vec![(0, 1), (1, 1), (4, 1), (7, 1)],
        epsilon: 0.29166666666666674,
    };
    // ε = 0.5 is met by the first feasible package, exactly like ε = ∞.
    assert_eq!(run(&instance, 0.5), first_feasible);
    assert_eq!(run(&instance, f64::INFINITY), first_feasible);
    // An unattainable ε escalates Z to M and M to the cap, and keeps the
    // best feasible package seen on the way.
    assert_eq!(
        run(&instance, UNATTAINABLE),
        Outcome {
            outer_iterations: 32,
            scenarios: 30,
            summaries: 30,
            problems_solved: 95,
            validations: 126,
            package: vec![(0, 1), (3, 1), (6, 1), (7, 1)],
            epsilon: 0.23611111111111116,
        }
    );
}

#[test]
fn portfolio_style_maximization_terminates_as_recorded() {
    let instance = portfolio();
    // ε = ∞ accepts the first feasible package (the four safe tuples)...
    assert_eq!(
        run(&instance, f64::INFINITY),
        Outcome {
            outer_iterations: 1,
            scenarios: 10,
            summaries: 1,
            problems_solved: 2,
            validations: 2,
            package: vec![(4, 1), (5, 1), (6, 1), (7, 1)],
            epsilon: 0.5751927911265737,
        }
    );
    // ...whose ε is above 0.5: CSA-Solve keeps re-solving at new α inside
    // the same outer iteration until a package certifies.
    assert_eq!(
        run(&instance, 0.5),
        Outcome {
            outer_iterations: 1,
            scenarios: 10,
            summaries: 1,
            problems_solved: 5,
            validations: 5,
            package: vec![(0, 1), (1, 1), (2, 1), (4, 1)],
            epsilon: 0.49406698214151423,
        }
    );
    assert_eq!(
        run(&instance, UNATTAINABLE),
        Outcome {
            outer_iterations: 22,
            scenarios: 30,
            summaries: 20,
            problems_solved: 80,
            validations: 101,
            package: vec![(0, 1), (1, 1), (2, 1), (4, 1)],
            epsilon: 0.49406698214151423,
        }
    );
}
