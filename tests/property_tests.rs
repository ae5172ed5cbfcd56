//! Property-based tests on the core invariants of the system:
//! α-summary conservativeness (Definition 1 / Proposition 1), scenario
//! generation determinism, solver feasibility of returned solutions, and
//! translation round-trips.

use proptest::prelude::*;
use stochastic_package_queries::core::summary::{
    build_summaries, count_satisfied_scenarios, partition_scenarios, SummarySpec,
};
use stochastic_package_queries::mcdb::vg::NormalNoise;
use stochastic_package_queries::mcdb::{RelationBuilder, ScenarioGenerator, ScenarioMatrix};
use stochastic_package_queries::solver::{
    solve_full, Model, Sense, SolveStatus, SolverOptions, VarType,
};

fn matrix_from(rows: &[Vec<f64>]) -> ScenarioMatrix {
    let n = rows.first().map(|r| r.len()).unwrap_or(0);
    ScenarioMatrix::from_rows(n, rows)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Proposition 1: any solution satisfying an α-summary (with respect to a
    /// `>=` inner constraint) satisfies at least ⌈α·M⌉ of the scenarios.
    #[test]
    fn alpha_summary_guarantee_ge(
        rows in proptest::collection::vec(
            proptest::collection::vec(-10.0f64..10.0, 5),
            2..12,
        ),
        alpha in 0.05f64..1.0,
        x in proptest::collection::vec(0u32..4, 5),
        rhs in -20.0f64..20.0,
    ) {
        let scenarios = matrix_from(&rows);
        let m = scenarios.num_scenarios();
        let partitions = partition_scenarios(m, 1);
        let spec = SummarySpec {
            alpha,
            sense: Sense::Ge,
            previous_solution: None,
            accelerate: false,
        };
        let summaries = build_summaries(&scenarios, &partitions, &spec);
        let summary = &summaries[0];
        let x: Vec<f64> = x.into_iter().map(f64::from).collect();
        let summary_score: f64 = summary.iter().zip(&x).map(|(s, v)| s * v).sum();
        // Only check the guarantee when x actually satisfies the summary.
        prop_assume!(summary_score >= rhs);
        let needed = (alpha * m as f64).ceil() as usize;
        let satisfied = count_satisfied_scenarios(&scenarios, &x, Sense::Ge, rhs);
        prop_assert!(
            satisfied >= needed.min(m),
            "satisfied {satisfied} < needed {needed} (m = {m})"
        );
    }

    /// The mirrored guarantee for `<=` inner constraints (tuple-wise maximum).
    #[test]
    fn alpha_summary_guarantee_le(
        rows in proptest::collection::vec(
            proptest::collection::vec(-10.0f64..10.0, 4),
            2..10,
        ),
        alpha in 0.05f64..1.0,
        x in proptest::collection::vec(0u32..4, 4),
        rhs in -20.0f64..20.0,
    ) {
        let scenarios = matrix_from(&rows);
        let m = scenarios.num_scenarios();
        let partitions = partition_scenarios(m, 1);
        let spec = SummarySpec {
            alpha,
            sense: Sense::Le,
            previous_solution: None,
            accelerate: false,
        };
        let summary = &build_summaries(&scenarios, &partitions, &spec)[0];
        let x: Vec<f64> = x.into_iter().map(f64::from).collect();
        let summary_score: f64 = summary.iter().zip(&x).map(|(s, v)| s * v).sum();
        prop_assume!(summary_score <= rhs);
        let needed = (alpha * m as f64).ceil() as usize;
        let satisfied = count_satisfied_scenarios(&scenarios, &x, Sense::Le, rhs);
        prop_assert!(satisfied >= needed.min(m));
    }

    /// Scenario generation is a pure function of (seed, column, tuple,
    /// scenario index): regenerating any cell gives the identical value, and
    /// tuple-wise generation agrees with scenario-wise generation.
    #[test]
    fn scenario_generation_is_deterministic(
        seed in any::<u64>(),
        n in 1usize..12,
        m in 1usize..12,
    ) {
        let base: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let relation = RelationBuilder::new("t")
            .stochastic("x", NormalNoise::around(base, 1.0))
            .build()
            .unwrap();
        let gen = ScenarioGenerator::new(seed);
        let matrix = gen.realize_matrix(&relation, "x", m).unwrap();
        for tuple in 0..n {
            let per_tuple = gen
                .realize_sparse_matrix_range(&relation, "x", &[tuple], 0..m, 0)
                .unwrap();
            for j in 0..m {
                prop_assert_eq!(per_tuple.value(j, 0), matrix.value(j, tuple));
                let cell = gen
                    .realize_sparse_matrix_range(&relation, "x", &[tuple], j..j + 1, 0)
                    .unwrap();
                prop_assert_eq!(cell.value(0, 0), matrix.value(j, tuple));
            }
        }
    }

    /// Whatever the solver returns as a solution is actually feasible for the
    /// model it was given (bounds, integrality, constraints, indicators).
    #[test]
    fn solver_solutions_are_feasible(
        weights in proptest::collection::vec(1.0f64..9.0, 3..8),
        values in proptest::collection::vec(1.0f64..9.0, 3..8),
        capacity in 5.0f64..30.0,
    ) {
        let n = weights.len().min(values.len());
        let mut model = Model::maximize();
        let vars: Vec<_> = (0..n)
            .map(|i| model.add_var(format!("x{i}"), VarType::Integer, 0.0, 3.0, values[i]))
            .collect();
        model.add_constraint(
            "cap",
            vars.iter().enumerate().map(|(i, v)| (*v, weights[i])).collect(),
            Sense::Le,
            capacity,
        );
        let result = solve_full(&model, &SolverOptions::with_time_limit_secs(10)).unwrap();
        prop_assert!(matches!(
            result.status,
            SolveStatus::Optimal | SolveStatus::FeasibleLimit
        ));
        let solution = result.solution.unwrap();
        prop_assert!(model.is_feasible(&solution.values, 1e-6));
        // And it is at least as good as the trivial empty solution.
        prop_assert!(solution.objective >= -1e-9);
    }

    /// Parsing the printed form of a parsed query yields the same AST
    /// (display/parse round-trip).
    #[test]
    fn spaql_display_parse_round_trip(
        budget in 1.0f64..10_000.0,
        v in -100.0f64..100.0,
        p in 0.01f64..0.99,
        maximize in any::<bool>(),
    ) {
        let direction = if maximize { "MAXIMIZE" } else { "MINIMIZE" };
        let text = format!(
            "SELECT PACKAGE(*) FROM t SUCH THAT SUM(price) <= {budget} AND \
             SUM(gain) >= {v} WITH PROBABILITY >= {p} {direction} EXPECTED SUM(gain)"
        );
        let parsed = stochastic_package_queries::spaql::parse(&text).unwrap();
        let reparsed = stochastic_package_queries::spaql::parse(&parsed.to_string()).unwrap();
        prop_assert_eq!(parsed, reparsed);
    }
}
