//! Integration tests over the paper's workload suite (Table 3): a sample of
//! queries from each workload is evaluated end to end at a small scale and
//! the outcomes are checked against the specification (feasibility, objective
//! direction, constraint satisfaction).

use stochastic_package_queries::prelude::*;
use stochastic_package_queries::workloads::{self, spec, WorkloadKind};

fn options() -> SpqOptions {
    let mut o = SpqOptions::for_tests();
    o.seed = 2024;
    o.initial_scenarios = 20;
    o.scenario_increment = 20;
    o.max_scenarios = 80;
    o.validation_scenarios = 1200;
    o.expectation_scenarios = 400;
    o
}

fn evaluate(kind: WorkloadKind, q: usize, scale: usize, z: usize) -> (EvaluationResult, f64) {
    let workload = workloads::build_workload(kind, scale, 5);
    let mut opts = options();
    opts.initial_summaries = z;
    let engine = SpqEngine::new(opts);
    let result = engine
        .evaluate(
            &workload.relation,
            workload.query(q),
            Algorithm::SummarySearch,
        )
        .unwrap();
    let p = spec::query_spec(kind, q).p;
    (result, p)
}

#[test]
fn galaxy_counteracted_query_is_feasible_and_meets_probability() {
    let (result, p) = evaluate(WorkloadKind::Galaxy, 1, 80, 1);
    assert!(
        result.feasible,
        "Galaxy Q1 should be feasible: {:?}",
        result.stats
    );
    let package = result.package.unwrap();
    // COUNT(*) BETWEEN 5 AND 10.
    assert!(package.size() >= 5 && package.size() <= 10);
    let cv = &package.validation.constraints[0];
    assert!(
        cv.satisfied_fraction >= p - 0.03,
        "satisfied {} below target {}",
        cv.satisfied_fraction,
        p
    );
}

#[test]
fn galaxy_supported_query_is_feasible() {
    let (result, _) = evaluate(WorkloadKind::Galaxy, 3, 80, 1);
    assert!(result.feasible);
    let package = result.package.unwrap();
    assert!(package.size() >= 5 && package.size() <= 10);
    // Supported objective: minimizing flux with a <= constraint; the expected
    // flux of 5 cheap regions is bounded by the constraint threshold.
    assert!(package.objective_estimate <= 50.0 + 1e-6);
}

#[test]
fn portfolio_low_risk_query_budget_is_respected() {
    let (result, p) = evaluate(WorkloadKind::Portfolio, 1, 100, 1);
    assert!(result.feasible, "Portfolio Q1 should be feasible");
    let package = result.package.unwrap();
    // Budget: SUM(price) <= 1000. Re-check against the relation.
    let workload = workloads::build_workload(WorkloadKind::Portfolio, 100, 5);
    let prices = workload.relation.deterministic_f64("price").unwrap();
    let total: f64 = package
        .multiplicities
        .iter()
        .map(|(t, m)| prices[*t] * f64::from(*m))
        .sum();
    assert!(total <= 1000.0 + 1e-6, "budget violated: {total}");
    let cv = &package.validation.constraints[0];
    assert!(cv.satisfied_fraction >= p - 0.03);
}

#[test]
fn tpch_probability_objective_query_produces_a_small_package() {
    let (result, _) = evaluate(WorkloadKind::Tpch, 5, 80, 2);
    let package = result.package.expect("some package is returned");
    assert!(package.size() >= 1 && package.size() <= 10);
    // The probability-objective estimate is a fraction.
    assert!(package.objective_estimate >= 0.0 && package.objective_estimate <= 1.0);
}

#[test]
fn tpch_q8_is_reported_infeasible() {
    use stochastic_package_queries::workloads::tpch::{build_relation, query, TpchConfig};
    let relation = build_relation(&TpchConfig::for_query(8, 60, 5));
    let mut opts = options();
    opts.initial_summaries = 2;
    opts.max_scenarios = 40;
    let engine = SpqEngine::new(opts);
    let result = engine
        .evaluate(&relation, &query(8), Algorithm::SummarySearch)
        .unwrap();
    assert!(!result.feasible, "TPC-H Q8 must be infeasible");
}

#[test]
fn per_query_galaxy_noise_models_are_honoured() {
    use stochastic_package_queries::workloads::galaxy::{build_relation, GalaxyConfig};
    // Pareto-noise relations (Q5) have heavier upper tails than Gaussian ones
    // (Q1): compare the empirical 99th percentile of realized fluxes.
    let normal = build_relation(&GalaxyConfig::for_query(1, 60, 3));
    let pareto = build_relation(&GalaxyConfig::for_query(5, 60, 3));
    let gen = ScenarioGenerator::new(11);
    let spread = |rel: &Relation| {
        let mut deviations = Vec::new();
        let base = rel.deterministic_f64("base_petromag_r").unwrap();
        let matrix = gen.realize_matrix(rel, "Petromag_r", 50).unwrap();
        for j in 0..50 {
            for (v, b) in matrix.scenario(j).iter().zip(&base) {
                deviations.push(v - b);
            }
        }
        deviations.sort_by(|a, b| a.partial_cmp(b).unwrap());
        deviations[deviations.len() * 99 / 100]
    };
    let normal_tail = spread(&normal);
    let pareto_tail = spread(&pareto);
    assert!(
        pareto_tail > normal_tail,
        "pareto tail {pareto_tail} should exceed normal tail {normal_tail}"
    );
}
