//! Hand-solvable LPs and MILPs through the public solver API. Every optimum
//! here is verifiable on paper, so a regression in the simplex pivoting or
//! the branch-and-bound search shows up as a wrong number, not just a
//! violated invariant.

use spq_solver::{solve, solve_full, Model, Sense, SolveStatus, SolverOptions, VarType};

fn opts() -> SolverOptions {
    SolverOptions::default()
}

fn assert_close(a: f64, b: f64) {
    assert!((a - b).abs() < 1e-6, "{a} vs {b}");
}

/// Pure LP (no integer variables): the classic two-resource production
/// problem. max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18.
/// Optimum x = 2, y = 6, objective 36 (Dantzig's textbook example).
#[test]
fn production_lp_optimum() {
    let mut model = Model::maximize();
    let x = model.add_var(VarType::Continuous, 0.0, f64::INFINITY, 3.0);
    let y = model.add_var(VarType::Continuous, 0.0, f64::INFINITY, 5.0);
    model.add_constraint("plant1", vec![(x, 1.0)], Sense::Le, 4.0);
    model.add_constraint("plant2", vec![(y, 2.0)], Sense::Le, 12.0);
    model.add_constraint("plant3", vec![(x, 3.0), (y, 2.0)], Sense::Le, 18.0);
    let solution = solve(&model, &opts()).unwrap();
    assert_close(solution.value(x), 2.0);
    assert_close(solution.value(y), 6.0);
    assert_close(solution.objective, 36.0);
}

/// Degenerate-vertex LP: three constraints meet at the optimum (0, 2).
/// min -y s.t. x + y <= 2, -x + y <= 2, y <= 2. Optimal objective -2.
#[test]
fn degenerate_vertex_lp() {
    let mut model = Model::minimize();
    let x = model.add_var(VarType::Continuous, 0.0, f64::INFINITY, 0.0);
    let y = model.add_var(VarType::Continuous, 0.0, f64::INFINITY, -1.0);
    model.add_constraint("c1", vec![(x, 1.0), (y, 1.0)], Sense::Le, 2.0);
    model.add_constraint("c2", vec![(x, -1.0), (y, 1.0)], Sense::Le, 2.0);
    model.add_constraint("c3", vec![(y, 1.0)], Sense::Le, 2.0);
    let solution = solve(&model, &opts()).unwrap();
    assert_close(solution.objective, -2.0);
    assert_close(solution.value(y), 2.0);
}

/// MILP where rounding the LP relaxation is wrong: values (6, 5, 5),
/// weights (4, 3, 3), capacity 6. The LP relaxation loads item 0 first
/// (best ratio) for 6 + 5·(2/3) = 9.33 fractional, and rounding it down
/// gives 6; the true integer optimum takes items 1 and 2 for 10.
#[test]
fn knapsack_where_lp_rounding_fails() {
    let mut model = Model::maximize();
    let a = model.add_var(VarType::Binary, 0.0, 1.0, 6.0);
    let b = model.add_var(VarType::Binary, 0.0, 1.0, 5.0);
    let c = model.add_var(VarType::Binary, 0.0, 1.0, 5.0);
    model.add_constraint("cap", vec![(a, 4.0), (b, 3.0), (c, 3.0)], Sense::Le, 6.0);
    let result = solve_full(&model, &opts()).unwrap();
    assert_eq!(result.status, SolveStatus::Optimal);
    let solution = result.solution.unwrap();
    assert_close(solution.objective, 10.0);
    assert_eq!(solution.value(a).round(), 0.0);
    assert_eq!(solution.value(b).round(), 1.0);
    assert_eq!(solution.value(c).round(), 1.0);
}

/// Mixed integer/continuous covering problem.
/// min 7n + 2w s.t. 5n + w >= 12, w <= 4, n integer.
/// For n = 2: w >= 2, cost 18. For n = 3: w >= 0, cost 21.
/// For n = 2, w = 2 the optimum is 18.
#[test]
fn mixed_integer_covering() {
    let mut model = Model::minimize();
    let n = model.add_var(VarType::Integer, 0.0, 10.0, 7.0);
    let w = model.add_var(VarType::Continuous, 0.0, 4.0, 2.0);
    model.add_constraint("cover", vec![(n, 5.0), (w, 1.0)], Sense::Ge, 12.0);
    let result = solve_full(&model, &opts()).unwrap();
    assert_eq!(result.status, SolveStatus::Optimal);
    let solution = result.solution.unwrap();
    assert_eq!(solution.value(n).round(), 2.0);
    assert_close(solution.value(w), 2.0);
    assert_close(solution.objective, 18.0);
    assert!(model.is_feasible(&solution.values, 1e-6));
}

/// Equality-constrained MILP: pick exactly 3 of 5 items, maximize value with
/// a weight cap. Values (9, 8, 7, 6, 5), weights (5, 4, 3, 2, 1), cap 9.
/// Two supports attain the optimum 21: {1, 2, 3} and {0, 2, 4}, both at
/// weight exactly 9; every other 3-subset is infeasible or scores lower.
#[test]
fn exact_cardinality_selection() {
    let values = [9.0, 8.0, 7.0, 6.0, 5.0];
    let weights = [5.0, 4.0, 3.0, 2.0, 1.0];
    let mut model = Model::maximize();
    let vars: Vec<_> = values
        .iter()
        .map(|&v| model.add_var(VarType::Binary, 0.0, 1.0, v))
        .collect();
    model.add_constraint(
        "count",
        vars.iter().map(|v| (*v, 1.0)).collect(),
        Sense::Eq,
        3.0,
    );
    model.add_constraint(
        "weight",
        vars.iter().zip(&weights).map(|(v, &w)| (*v, w)).collect(),
        Sense::Le,
        9.0,
    );
    let result = solve_full(&model, &opts()).unwrap();
    assert_eq!(result.status, SolveStatus::Optimal);
    let solution = result.solution.unwrap();
    assert_close(solution.objective, 21.0);
    assert!(model.is_feasible(&solution.values, 1e-6));
    let chosen: Vec<usize> = vars
        .iter()
        .enumerate()
        .filter(|(_, v)| solution.value(**v).round() == 1.0)
        .map(|(i, _)| i)
        .collect();
    assert!(
        chosen == vec![1, 2, 3] || chosen == vec![0, 2, 4],
        "unexpected optimal support {chosen:?}"
    );
}

/// Indicator-driven fixed charge: opening a facility (y = 1) allows up to 10
/// units of supply; maximize 3·units - 12·y. Worth opening (30 - 12 = 18 > 0).
/// The indicator direction used by SAA formulations: y = 0 => units <= 0.
#[test]
fn fixed_charge_indicator() {
    let mut model = Model::maximize();
    let units = model.add_var(VarType::Continuous, 0.0, 10.0, 3.0);
    let open = model.add_var(VarType::Binary, 0.0, 1.0, -12.0);
    model.add_indicator("closed", open, false, vec![(units, 1.0)], Sense::Le, 0.0);
    let result = solve_full(&model, &opts()).unwrap();
    assert_eq!(result.status, SolveStatus::Optimal);
    let solution = result.solution.unwrap();
    assert_eq!(solution.value(open).round(), 1.0);
    assert_close(solution.value(units), 10.0);
    assert_close(solution.objective, 18.0);
}
