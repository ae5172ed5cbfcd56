//! Exactness tests for the from-scratch MILP solver: on small random integer
//! programs, branch-and-bound must match exhaustive enumeration.

use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard};
use stochastic_package_queries::obs::metrics::counter_value;
use stochastic_package_queries::solver::{
    solve_full, Model, Sense, SolveStatus, SolverOptions, VarType,
};

/// The tests of this file take turns, so that a move of the process-wide
/// core-reduction counter belongs to the test that reads it.
fn serial() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Best objective over every integer point of the box `0..=upper[i]` that
/// the model itself accepts (maximization); `None` when there is none.
fn brute_force_model(model: &Model, upper: &[u32]) -> Option<f64> {
    let mut best: Option<f64> = None;
    let mut point = vec![0.0; upper.len()];
    loop {
        if model.is_feasible(&point, 1e-9) {
            let obj = model.objective_value(&point);
            best = Some(best.map_or(obj, |b: f64| b.max(obj)));
        }
        // Advance the mixed-radix counter.
        let mut i = 0;
        loop {
            if i == upper.len() {
                return best;
            }
            if point[i] < f64::from(upper[i]) {
                point[i] += 1.0;
                break;
            }
            point[i] = 0.0;
            i += 1;
        }
    }
}

/// Enumerate every integer point of the box and return the best feasible
/// objective value (maximization).
fn brute_force_best(
    values: &[f64],
    weights: &[Vec<f64>],
    capacities: &[f64],
    upper: u32,
) -> Option<f64> {
    let n = values.len();
    let mut best: Option<f64> = None;
    let mut assignment = vec![0u32; n];
    loop {
        // Check feasibility of the current assignment.
        let feasible = weights.iter().zip(capacities).all(|(w, cap)| {
            let lhs: f64 = w
                .iter()
                .zip(&assignment)
                .map(|(wi, &xi)| wi * f64::from(xi))
                .sum();
            lhs <= *cap + 1e-9
        });
        if feasible {
            let obj: f64 = values
                .iter()
                .zip(&assignment)
                .map(|(vi, &xi)| vi * f64::from(xi))
                .sum();
            best = Some(best.map_or(obj, |b: f64| b.max(obj)));
        }
        // Advance the mixed-radix counter.
        let mut i = 0;
        loop {
            if i == n {
                return best;
            }
            if assignment[i] < upper {
                assignment[i] += 1;
                break;
            }
            assignment[i] = 0;
            i += 1;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Branch-and-bound finds exactly the brute-force optimum on random
    /// multi-constraint integer knapsacks.
    #[test]
    fn branch_and_bound_matches_brute_force(
        values in proptest::collection::vec(0.5f64..10.0, 2..6),
        raw_weights in proptest::collection::vec(
            proptest::collection::vec(0.5f64..5.0, 2..6),
            1..3,
        ),
        caps in proptest::collection::vec(2.0f64..15.0, 1..3),
    ) {
        let _turn = serial();
        let n = values.len();
        let m = raw_weights.len().min(caps.len());
        let weights: Vec<Vec<f64>> = raw_weights
            .iter()
            .take(m)
            .map(|w| (0..n).map(|i| w[i % w.len()]).collect())
            .collect();
        let capacities: Vec<f64> = caps.iter().take(m).cloned().collect();
        let upper = 2u32;

        let expected = brute_force_best(&values, &weights, &capacities, upper)
            .expect("x = 0 is always feasible");

        let mut model = Model::maximize();
        let vars: Vec<_> = values
            .iter()
            .map(|&v| model.add_var(VarType::Integer, 0.0, f64::from(upper), v))
            .collect();
        for (w, cap) in weights.iter().zip(&capacities) {
            model.add_constraint(
                "cap",
                vars.iter().zip(w).map(|(v, &wi)| (*v, wi)).collect(),
                Sense::Le,
                *cap,
            );
        }
        let result = solve_full(&model, &SolverOptions::default()).unwrap();
        prop_assert_eq!(result.status, SolveStatus::Optimal);
        let solution = result.solution.unwrap();
        prop_assert!(model.is_feasible(&solution.values, 1e-6));
        prop_assert!(
            (solution.objective - expected).abs() < 1e-6,
            "solver {} vs brute force {}",
            solution.objective,
            expected
        );
    }

    /// With an indicator counting structure (a miniature SAA), the solver's
    /// answer still satisfies the model and never beats brute force over the
    /// same box.
    #[test]
    fn indicator_solutions_never_beat_relaxed_brute_force(
        values in proptest::collection::vec(0.5f64..5.0, 2..5),
        scenario_rows in proptest::collection::vec(
            proptest::collection::vec(-2.0f64..4.0, 2..5),
            2..5,
        ),
        rhs in -2.0f64..4.0,
    ) {
        let _turn = serial();
        let n = values.len();
        let mut model = Model::maximize();
        let vars: Vec<_> = values
            .iter()
            .map(|&v| model.add_var(VarType::Integer, 0.0, 2.0, v))
            .collect();
        let rows: Vec<Vec<f64>> = scenario_rows
            .iter()
            .map(|r| (0..n).map(|i| r[i % r.len()]).collect())
            .collect();
        let mut indicators = Vec::new();
        for (j, row) in rows.iter().enumerate() {
            let y = model.add_var(VarType::Binary, 0.0, 1.0, 0.0);
            model.add_indicator(
                format!("ind{j}"),
                y,
                true,
                vars.iter().zip(row).map(|(v, &c)| (*v, c)).collect(),
                Sense::Ge,
                rhs,
            );
            indicators.push(y);
        }
        let required = rows.len().div_ceil(2) as f64;
        model.add_constraint(
            "count",
            indicators.iter().map(|y| (*y, 1.0)).collect(),
            Sense::Ge,
            required,
        );
        let result = solve_full(&model, &SolverOptions::default()).unwrap();
        // The unconstrained maximum over the box is sum(2 * values).
        let unconstrained: f64 = values.iter().map(|v| 2.0 * v).sum();
        if let Some(solution) = result.solution {
            prop_assert!(model.is_feasible(&solution.values, 1e-6));
            prop_assert!(solution.objective <= unconstrained + 1e-9);
            // The indicator counting constraint really holds: at least half of
            // the scenario rows are satisfied by the returned x.
            let satisfied = rows
                .iter()
                .filter(|row| {
                    let lhs: f64 = row
                        .iter()
                        .zip(&solution.values[..n])
                        .map(|(c, x)| c * x)
                        .sum();
                    lhs >= rhs - 1e-6
                })
                .count();
            prop_assert!(satisfied as f64 >= required);
        }
    }
}

/// The search on the live core is exact: on knapsacks with 1-3 real-weighted
/// rows and 0-3 indicator rows (both activation values), small enough to
/// enumerate yet with multiplicity bounds wide enough that the first
/// incumbents pin most columns, branch-and-bound matches brute force while
/// moving onto smaller cores.
#[test]
fn core_reducing_search_matches_brute_force() {
    const MAX_ITEMS: usize = 9;
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]
        fn cases(
            values in proptest::collection::vec(0.5f64..10.0, 4..MAX_ITEMS + 1),
            weight_rows in proptest::collection::vec(
                proptest::collection::vec(0.5f64..5.0, MAX_ITEMS),
                1..4,
            ),
            fill in proptest::collection::vec(0.15f64..0.5, 3),
            indicator_rows in proptest::collection::vec(
                proptest::collection::vec(-2.0f64..4.0, MAX_ITEMS),
                0..4,
            ),
            rewards in proptest::collection::vec(0.5f64..6.0, 3),
            rhs in 1.0f64..6.0,
        ) {
            let n = values.len();
            // At most 3^9 * 2^3 = 157k points to enumerate.
            let multiplicity = if n <= 7 { 3u32 } else { 2 };
            let mut model = Model::maximize();
            let items: Vec<_> = values
                .iter()
                .map(|&v| model.add_var(VarType::Integer, 0.0, f64::from(multiplicity), v))
                .collect();
            let mut upper = vec![multiplicity; n];
            for (row, fill) in weight_rows.iter().zip(&fill) {
                let total: f64 = row[..n].iter().sum::<f64>() * f64::from(multiplicity);
                model.add_constraint(
                    "cap",
                    items.iter().zip(row).map(|(x, &w)| (*x, w)).collect(),
                    Sense::Le,
                    fill * total,
                );
            }
            for (j, (row, reward)) in indicator_rows.iter().zip(&rewards).enumerate() {
                // Active on 1: taking y earns the reward and imposes the row.
                // Active on 0: leaving y at 0 avoids the charge and imposes it.
                let active_value = j % 2 == 0;
                let objective = if active_value { *reward } else { -*reward };
                let y = model.add_var(VarType::Binary, 0.0, 1.0, objective);
                model.add_indicator(
                    format!("ind{j}"),
                    y,
                    active_value,
                    items.iter().zip(row).map(|(x, &a)| (*x, a)).collect(),
                    Sense::Ge,
                    rhs,
                );
                upper.push(1);
            }
            let expected = brute_force_model(&model, &upper).expect("x = 0, y inactive is feasible");

            let options = SolverOptions::default();
            let result = solve_full(&model, &options).unwrap();
            prop_assert_eq!(result.status, SolveStatus::Optimal);
            let solution = result.solution.unwrap();
            prop_assert!(model.is_feasible(&solution.values, 1e-6));
            prop_assert!(
                (solution.objective - expected).abs() <= 1e-6 * expected.abs().max(1.0),
                "solver {} vs brute force {}",
                solution.objective,
                expected
            );
        }
    }
    let _turn = serial();
    let reductions = || counter_value("spq_solver_core_restarts").unwrap_or(0);
    let before = reductions();
    cases();
    assert!(
        reductions() > before,
        "no case moved the search onto a smaller core"
    );
}
