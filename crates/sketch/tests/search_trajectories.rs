//! Pinned search trajectories of all three algorithms.
//!
//! One Galaxy-style and one Portfolio-style seeded instance are evaluated
//! with Naïve, SummarySearch and SketchRefine (with a direct-solve threshold
//! low enough that SketchRefine really partitions). Every work counter of
//! `EvaluationStats` except `wall_time` — problems solved, validation passes
//! and scenarios, branch-and-bound nodes, simplex pivots, the largest model —
//! and the returned package (multiplicities, objective bits, verdict) are
//! asserted exactly, so a refactor of the optimize–validate machinery that
//! moves any of them fails here. Execution is deterministic at every worker
//! count, so the pins hold on any machine.

use spq_core::{Algorithm, EvaluationResult, SketchOptions, SpqEngine, SpqOptions};
use spq_workloads::{build_workload, WorkloadKind};

fn engine() -> SpqEngine {
    spq_sketch::install();
    let mut options = SpqOptions {
        initial_scenarios: 5,
        validation_scenarios: 3000,
        sketch: SketchOptions {
            max_partition_size: 6,
            direct_solve_threshold: 12,
            refine_max_scenarios: 40,
            ..SketchOptions::default()
        },
        ..SpqOptions::for_tests()
    };
    // Naïve's SAA grows fast with M; two escalations keep it to
    // milliseconds while still exercising the M loop.
    options.scenario_increment = 5;
    options.max_scenarios = 10;
    SpqEngine::new(options)
}

/// Every `EvaluationStats` field except `wall_time`, then the package.
fn trajectory(result: &EvaluationResult) -> String {
    let s = &result.stats;
    let package = result.package.as_ref().map(|p| {
        format!(
            "{:?} objective={:#018x} validated={}/{}",
            p.multiplicities,
            p.objective_estimate.to_bits(),
            p.validation.feasible,
            p.validation.scenarios_used
        )
    });
    format!(
        "M={} Z={} outer={} solved={} validations={} validation_scenarios={} nodes={} \
         pivots={} max_coefficients={} feasible={} package={package:?}",
        s.scenarios_used,
        s.summaries_used,
        s.outer_iterations,
        s.problems_solved,
        s.validations,
        s.validation_scenarios,
        s.solver_nodes,
        s.lp_pivots,
        s.max_problem_coefficients,
        result.feasible,
    )
}

fn run(kind: WorkloadKind, scale: usize, seed: u64, query: usize) -> Vec<String> {
    let workload = build_workload(kind, scale, seed);
    let engine = engine();
    [
        Algorithm::Naive,
        Algorithm::SummarySearch,
        Algorithm::SketchRefine,
    ]
    .into_iter()
    .map(|algorithm| {
        let result = engine
            .evaluate(&workload.relation, workload.query(query), algorithm)
            .unwrap();
        trajectory(&result)
    })
    .collect()
}

fn assert_pinned(actual: &[String], expected: &[&str]) {
    for (algorithm, (actual, expected)) in ["Naive", "SummarySearch", "SketchRefine"]
        .iter()
        .zip(actual.iter().zip(expected))
    {
        assert_eq!(actual, expected, "{algorithm} trajectory moved");
    }
}

#[test]
fn galaxy_trajectories_are_pinned() {
    let actual = run(WorkloadKind::Galaxy, 20, 3, 1);
    assert_pinned(
        &actual,
        &[
            // Naive
            concat!(
                "M=10 Z=0 outer=2 solved=2 validations=2 validation_scenarios=2048 nodes=1818 ",
                "pivots=9997 max_coefficients=260 feasible=false package=Some(",
                "\"[(4, 2), (10, 1), (15, 1), (16, 1), (18, 1)] objective=0x4043755935d9dcf5 validated=false/1024\")"
            ),
            // SummarySearch
            concat!(
                "M=10 Z=1 outer=2 solved=5 validations=6 validation_scenarios=12072 nodes=166 ",
                "pivots=232 max_coefficients=62 feasible=true package=Some(",
                "\"[(11, 1), (12, 3), (13, 1)] objective=0x4048b1990a06ae9a validated=true/3000\")"
            ),
            // SketchRefine
            concat!(
                "M=10 Z=1 outer=2 solved=7 validations=9 validation_scenarios=22096 nodes=79 ",
                "pivots=86 max_coefficients=17 feasible=true package=Some(",
                "\"[(4, 1), (9, 4)] objective=0x4049f351a8a23f3e validated=true/3000\")"
            ),
        ],
    );
}

#[test]
fn portfolio_trajectories_are_pinned() {
    let actual = run(WorkloadKind::Portfolio, 24, 7, 4);
    assert_pinned(
        &actual,
        &[
            // Naive
            concat!(
                "M=10 Z=0 outer=2 solved=2 validations=2 validation_scenarios=2048 nodes=297 ",
                "pivots=735 max_coefficients=284 feasible=false package=Some(",
                "\"[(9, 3), (15, 1), (23, 7)] objective=0x4012e389eca50e38 validated=false/1024\")"
            ),
            // SummarySearch
            concat!(
                "M=10 Z=1 outer=2 solved=4 validations=5 validation_scenarios=9072 nodes=48 ",
                "pivots=46 max_coefficients=50 feasible=true package=Some(",
                "\"[(21, 2)] objective=0x3ff99b9f57406c00 validated=true/3000\")"
            ),
            // SketchRefine
            concat!(
                "M=10 Z=1 outer=1 solved=6 validations=8 validation_scenarios=16096 nodes=36 ",
                "pivots=35 max_coefficients=32 feasible=true package=Some(",
                "\"[(21, 2)] objective=0x3ff99b9f57406c00 validated=true/3000\")"
            ),
        ],
    );
}
