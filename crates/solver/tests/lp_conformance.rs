//! LP kernel conformance: the revised simplex against an independent oracle.
//!
//! [`oracle`] is a two-phase dense-tableau simplex that shares nothing with
//! [`RevisedLp`] but the problem type. Over a corpus of directed LPs
//! (degenerate vertices, Beale's cycling instance, free variables,
//! equality-heavy systems, infeasible and unbounded cases), twelve
//! hand-solved LPs and property-generated LPs, the revised simplex — cold,
//! then warm from its own optimal basis — must agree with the oracle:
//!
//! * the same status, and objectives within 1e-6 when optimal;
//! * a primal feasible point (rows and bounds).
//!
//! Branch-and-bound is checked against exhaustive enumeration of the integer
//! box instead of a second search.

mod oracle;

use proptest::prelude::*;
use spq_solver::standard_form::{LpProblem, LpRow};
use spq_solver::{
    solve_full, Basis, Direction, LpStatus, Model, PivotRules, RevisedLp, RevisedSolution, Sense,
    SolveStatus, SolverError, SolverOptions, VarType,
};

fn row(terms: Vec<(usize, f64)>, sense: Sense, rhs: f64) -> LpRow {
    LpRow { terms, sense, rhs }
}

fn assert_close(a: f64, b: f64) {
    assert!((a - b).abs() < 1e-6, "{a} vs {b}");
}

/// Solve `lp` with the revised simplex under the rules branch-and-bound
/// uses, optionally warm-started.
fn revised(lp: &LpProblem, warm: Option<&Basis>) -> RevisedSolution {
    let rlp = RevisedLp::from_problem(lp).expect("revised prepare");
    let rules = PivotRules::for_size(rlp.m, rlp.n_struct + rlp.m, None);
    rlp.solve(&lp.lower, &lp.upper, warm, &rules)
        .expect("revised solve")
}

/// `(status, values, objective)` from the oracle and from the revised
/// simplex.
fn solve_both(lp: &LpProblem) -> [(LpStatus, Vec<f64>, f64); 2] {
    let dense = oracle::solve_lp(lp).expect("oracle solve");
    let sparse = revised(lp, None);
    [
        (dense.status, dense.values, dense.objective),
        (sparse.status, sparse.values, sparse.objective),
    ]
}

/// Check primal feasibility of `x` for `lp` within `tol`.
fn assert_primal_feasible(lp: &LpProblem, x: &[f64], tol: f64, context: &str) {
    assert_eq!(x.len(), lp.lower.len(), "{context}: value vector length");
    for (j, &v) in x.iter().enumerate() {
        assert!(
            v >= lp.lower[j] - tol && v <= lp.upper[j] + tol,
            "{context}: x[{j}] = {v} outside [{}, {}]",
            lp.lower[j],
            lp.upper[j]
        );
    }
    for (i, r) in lp.rows.iter().enumerate() {
        let a: f64 = r.terms.iter().map(|&(j, c)| c * x[j]).sum();
        assert!(
            r.sense.check(a, r.rhs, tol),
            "{context}: row {i} activity {a} violates {:?} {}",
            r.sense,
            r.rhs
        );
    }
}

/// The conformance check: the revised simplex, cold and then warm from its
/// own basis, agrees with the oracle and returns a feasible point.
fn assert_conformance(lp: &LpProblem, context: &str) {
    let reference = oracle::solve_lp(lp).expect("oracle solve");
    let cold = revised(lp, None);
    assert_eq!(cold.status, reference.status, "{context}");
    if reference.status != LpStatus::Optimal {
        return;
    }
    let basis = cold
        .basis
        .clone()
        .expect("an optimal solve returns a basis");
    let warm = revised(lp, Some(&basis));
    for (tag, sol) in [("cold", cold), ("warm", warm)] {
        let tag = format!("{context} ({tag})");
        assert_eq!(sol.status, LpStatus::Optimal, "{tag}");
        assert!(
            (sol.objective - reference.objective).abs() < 1e-6,
            "{tag}: objective {} vs oracle {}",
            sol.objective,
            reference.objective
        );
        assert_primal_feasible(lp, &sol.values, 1e-6, &tag);
    }
}

/// Best objective of a maximization model over every integer point of its
/// (finite) variable box; `None` when no point is feasible.
fn enumerate(model: &Model) -> Option<f64> {
    assert_eq!(model.direction, Direction::Maximize);
    let vars = model.variables();
    let mut point: Vec<f64> = vars.iter().map(|v| v.lower).collect();
    let mut best: Option<f64> = None;
    loop {
        if model.is_feasible(&point, 1e-9) {
            let obj = model.objective_value(&point);
            best = Some(best.map_or(obj, |b: f64| b.max(obj)));
        }
        // Advance the mixed-radix counter.
        let mut i = 0;
        loop {
            if i == point.len() {
                return best;
            }
            if point[i] + 1.0 <= vars[i].upper {
                point[i] += 1.0;
                break;
            }
            point[i] = vars[i].lower;
            i += 1;
        }
    }
}

/// Branch-and-bound reaches the enumerated optimum.
fn assert_matches_enumeration(model: &Model, options: &SolverOptions, context: &str) {
    let res = solve_full(model, options).unwrap_or_else(|e| panic!("{context}: {e}"));
    match enumerate(model) {
        Some(best) => {
            assert_eq!(res.status, SolveStatus::Optimal, "{context}");
            let sol = res.solution.expect("optimal carries a solution");
            assert!(model.is_feasible(&sol.values, 1e-6), "{context}");
            assert!(
                (sol.objective - best).abs() < 1e-6,
                "{context}: {} vs enumerated {best}",
                sol.objective
            );
        }
        None => assert_eq!(res.status, SolveStatus::Infeasible, "{context}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Random bounded LPs with mixed senses match the oracle.
    #[test]
    fn random_bounded_lps_conform(
        n in 2usize..7,
        num_rows in 1usize..6,
        coeff_seed in proptest::collection::vec(-4.0f64..4.0, 60),
        rhs_seed in proptest::collection::vec(-10.0f64..15.0, 8),
        obj_seed in proptest::collection::vec(-3.0f64..3.0, 8),
        bound_seed in proptest::collection::vec(0.5f64..8.0, 8),
        sense_seed in proptest::collection::vec(0u8..3, 8),
    ) {
        let rows: Vec<LpRow> = (0..num_rows)
            .map(|r| {
                let terms: Vec<(usize, f64)> = (0..n)
                    .map(|j| (j, coeff_seed[(r * n + j) % coeff_seed.len()]))
                    .filter(|(_, c)| c.abs() > 0.05)
                    .collect();
                let sense = match sense_seed[r % sense_seed.len()] {
                    0 => Sense::Le,
                    1 => Sense::Ge,
                    _ => Sense::Eq,
                };
                row(terms, sense, rhs_seed[r % rhs_seed.len()])
            })
            .filter(|r| !r.terms.is_empty())
            .collect();
        prop_assume!(!rows.is_empty());
        let lp = LpProblem {
            objective: (0..n).map(|j| obj_seed[j % obj_seed.len()]).collect(),
            lower: vec![0.0; n],
            upper: (0..n).map(|j| bound_seed[j % bound_seed.len()]).collect(),
            rows,
        };
        assert_conformance(&lp, "random bounded LP");
    }

    /// Random integer knapsacks: branch-and-bound finds the enumerated
    /// optimum.
    #[test]
    fn random_milps_conform(
        n in 2usize..6,
        values in proptest::collection::vec(0.5f64..8.0, 6),
        weights in proptest::collection::vec(0.5f64..4.0, 6),
        cap in 3.0f64..14.0,
        ub in 1u32..4,
    ) {
        let mut model = Model::maximize();
        let vars: Vec<_> = (0..n)
            .map(|i| {
                model.add_var(
                    VarType::Integer,
                    0.0,
                    f64::from(ub),
                    values[i % values.len()],
                )
            })
            .collect();
        model.add_constraint(
            "cap",
            vars.iter()
                .enumerate()
                .map(|(i, v)| (*v, weights[i % weights.len()]))
                .collect(),
            Sense::Le,
            cap,
        );
        assert_matches_enumeration(&model, &SolverOptions::default(), "random knapsack MILP");
    }
}

#[test]
fn degenerate_vertex_conforms() {
    // Many redundant constraints through one vertex: classic cycling bait.
    let lp = LpProblem {
        objective: vec![-1.0, -1.0],
        lower: vec![0.0, 0.0],
        upper: vec![f64::INFINITY, f64::INFINITY],
        rows: vec![
            row(vec![(0, 1.0)], Sense::Le, 1.0),
            row(vec![(1, 1.0)], Sense::Le, 1.0),
            row(vec![(0, 1.0), (1, 1.0)], Sense::Le, 2.0),
            row(vec![(0, 1.0), (1, 2.0)], Sense::Le, 3.0),
            row(vec![(0, 2.0), (1, 1.0)], Sense::Le, 3.0),
            row(vec![(0, 3.0), (1, 3.0)], Sense::Le, 6.0),
        ],
    };
    assert_conformance(&lp, "degenerate vertex");
}

#[test]
fn beale_cycling_instance_terminates() {
    // Beale's classic cycling example for Dantzig pricing: both kernels
    // must terminate (via the Bland switchover) at -0.05.
    let lp = LpProblem {
        objective: vec![-0.75, 150.0, -0.02, 6.0],
        lower: vec![0.0; 4],
        upper: vec![f64::INFINITY; 4],
        rows: vec![
            row(
                vec![(0, 0.25), (1, -60.0), (2, -1.0 / 25.0), (3, 9.0)],
                Sense::Le,
                0.0,
            ),
            row(
                vec![(0, 0.5), (1, -90.0), (2, -1.0 / 50.0), (3, 3.0)],
                Sense::Le,
                0.0,
            ),
            row(vec![(2, 1.0)], Sense::Le, 1.0),
        ],
    };
    assert_conformance(&lp, "Beale cycling instance");
    assert_close(oracle::solve_lp(&lp).unwrap().objective, -0.05);
}

#[test]
fn free_variables_conform() {
    // Mix of free, lower-only, upper-only and doubly-bounded variables.
    let lp = LpProblem {
        objective: vec![1.0, -2.0, 0.5, 1.5],
        lower: vec![f64::NEG_INFINITY, 0.0, f64::NEG_INFINITY, -2.0],
        upper: vec![f64::INFINITY, f64::INFINITY, 4.0, 2.0],
        rows: vec![
            row(vec![(0, 1.0), (1, 1.0), (2, 1.0), (3, 1.0)], Sense::Eq, 6.0),
            row(vec![(0, 1.0), (1, -1.0)], Sense::Ge, -3.0),
            row(vec![(2, 1.0), (3, -1.0)], Sense::Le, 5.0),
        ],
    };
    assert_conformance(&lp, "free variables");
}

#[test]
fn equality_heavy_system_conforms() {
    // More equalities than inequalities, including a redundant one.
    let lp = LpProblem {
        objective: vec![1.0, 2.0, 3.0],
        lower: vec![0.0; 3],
        upper: vec![f64::INFINITY; 3],
        rows: vec![
            row(vec![(0, 1.0), (1, 1.0), (2, 1.0)], Sense::Eq, 10.0),
            row(vec![(0, 1.0), (1, -1.0)], Sense::Eq, 2.0),
            row(vec![(0, 2.0), (1, 2.0), (2, 2.0)], Sense::Eq, 20.0),
            row(vec![(2, 1.0)], Sense::Le, 6.0),
        ],
    };
    assert_conformance(&lp, "equality-heavy system");
}

#[test]
fn infeasible_and_unbounded_statuses_conform() {
    let infeasible = LpProblem {
        objective: vec![1.0, 1.0],
        lower: vec![0.0, 0.0],
        upper: vec![2.0, 2.0],
        rows: vec![row(vec![(0, 1.0), (1, 1.0)], Sense::Ge, 10.0)],
    };
    assert_conformance(&infeasible, "infeasible box");
    let unbounded = LpProblem {
        objective: vec![-1.0, 0.0],
        lower: vec![0.0, 0.0],
        upper: vec![f64::INFINITY, 1.0],
        rows: vec![row(vec![(0, -1.0), (1, 1.0)], Sense::Le, 3.0)],
    };
    assert_conformance(&unbounded, "unbounded ray");
}

#[test]
fn known_degenerate_lp_terminates_under_explicit_bland_switch() {
    // The regression pin for the Bland switchover: a known-degenerate LP
    // (optimum 2 at the vertex (1, 1)) must terminate even when the
    // switchover is forced to the very first iteration.
    let mut model = Model::maximize();
    let x = model.add_var(VarType::Continuous, 0.0, 10.0, 1.0);
    let y = model.add_var(VarType::Continuous, 0.0, 10.0, 1.0);
    model.add_constraint("a", vec![(x, 1.0)], Sense::Le, 1.0);
    model.add_constraint("b", vec![(y, 1.0)], Sense::Le, 1.0);
    model.add_constraint("c", vec![(x, 1.0), (y, 1.0)], Sense::Le, 2.0);
    model.add_constraint("d", vec![(x, 1.0), (y, 2.0)], Sense::Le, 3.0);
    model.add_constraint("e", vec![(x, 2.0), (y, 1.0)], Sense::Le, 3.0);
    let options = SolverOptions {
        bland_after: Some(0),
        ..Default::default()
    };
    // The optimal vertex is integral, so the integer box holds it.
    assert_matches_enumeration(&model, &options, "degenerate LP, Bland from the start");
}

#[test]
fn warm_start_cross_check_on_escalating_model() {
    // Re-solve the same MILP shape with perturbed coefficients, feeding the
    // previous basis forward — the pattern CSA-Solve uses across α updates.
    // Every step must reach the enumerated optimum.
    let mut warm = None;
    for step in 0..4 {
        let scale = 1.0 + 0.1 * step as f64;
        let mut model = Model::maximize();
        let vars: Vec<_> = (0..6)
            .map(|i| model.add_var(VarType::Integer, 0.0, 3.0, scale * ((i % 3) as f64 + 1.0)))
            .collect();
        model.add_constraint(
            "w",
            vars.iter()
                .enumerate()
                .map(|(i, v)| (*v, (i % 2) as f64 + 1.0))
                .collect(),
            Sense::Le,
            7.0,
        );
        let options = SolverOptions {
            warm_start: warm.take(),
            ..Default::default()
        };
        assert_matches_enumeration(&model, &options, &format!("step {step}"));
        warm = solve_full(&model, &options).expect("solve").basis;
        assert!(warm.is_some());
    }
}

// Hand-solved LPs: each runs through the oracle and the revised simplex.

#[test]
fn maximize_via_negated_objective() {
    // max 3x + 2y s.t. x + y <= 4, x <= 2, y <= 3: x = 2, y = 2, value 10.
    let lp = LpProblem {
        objective: vec![-3.0, -2.0],
        lower: vec![0.0, 0.0],
        upper: vec![2.0, 3.0],
        rows: vec![row(vec![(0, 1.0), (1, 1.0)], Sense::Le, 4.0)],
    };
    for (status, values, objective) in solve_both(&lp) {
        assert_eq!(status, LpStatus::Optimal);
        assert_close(values[0], 2.0);
        assert_close(values[1], 2.0);
        assert_close(objective, -10.0);
    }
}

#[test]
fn classic_two_variable_lp() {
    // min -x - y s.t. 2x + y <= 4, x + 2y <= 3, x,y >= 0.
    // Optimum at x = 5/3, y = 2/3 with objective -(5/3 + 2/3) = -7/3.
    let lp = LpProblem {
        objective: vec![-1.0, -1.0],
        lower: vec![0.0, 0.0],
        upper: vec![f64::INFINITY, f64::INFINITY],
        rows: vec![
            row(vec![(0, 2.0), (1, 1.0)], Sense::Le, 4.0),
            row(vec![(0, 1.0), (1, 2.0)], Sense::Le, 3.0),
        ],
    };
    for (status, values, objective) in solve_both(&lp) {
        assert_eq!(status, LpStatus::Optimal);
        assert_close(objective, -7.0 / 3.0);
        assert_close(values[0], 5.0 / 3.0);
        assert_close(values[1], 2.0 / 3.0);
    }
}

#[test]
fn ge_constraints_need_phase_one() {
    // min x + y s.t. x + y >= 5, x >= 1, y >= 0. Optimum 5.
    let lp = LpProblem {
        objective: vec![1.0, 1.0],
        lower: vec![1.0, 0.0],
        upper: vec![f64::INFINITY, f64::INFINITY],
        rows: vec![row(vec![(0, 1.0), (1, 1.0)], Sense::Ge, 5.0)],
    };
    for (status, values, objective) in solve_both(&lp) {
        assert_eq!(status, LpStatus::Optimal);
        assert_close(objective, 5.0);
        assert_close(values[0] + values[1], 5.0);
        assert!(values[0] >= 1.0 - 1e-9);
    }
}

#[test]
fn equality_constraints() {
    // min 2x + 3y s.t. x + y = 10, x - y = 2 => x = 6, y = 4, obj 24.
    let lp = LpProblem {
        objective: vec![2.0, 3.0],
        lower: vec![0.0, 0.0],
        upper: vec![f64::INFINITY, f64::INFINITY],
        rows: vec![
            row(vec![(0, 1.0), (1, 1.0)], Sense::Eq, 10.0),
            row(vec![(0, 1.0), (1, -1.0)], Sense::Eq, 2.0),
        ],
    };
    for (status, values, objective) in solve_both(&lp) {
        assert_eq!(status, LpStatus::Optimal);
        assert_close(values[0], 6.0);
        assert_close(values[1], 4.0);
        assert_close(objective, 24.0);
    }
}

#[test]
fn infeasible_problem_detected() {
    // x <= 1 and x >= 3 simultaneously.
    let lp = LpProblem {
        objective: vec![1.0],
        lower: vec![0.0],
        upper: vec![f64::INFINITY],
        rows: vec![
            row(vec![(0, 1.0)], Sense::Le, 1.0),
            row(vec![(0, 1.0)], Sense::Ge, 3.0),
        ],
    };
    for (status, ..) in solve_both(&lp) {
        assert_eq!(status, LpStatus::Infeasible);
    }
}

#[test]
fn infeasible_via_bounds() {
    // x in [0, 2] but x >= 5.
    let lp = LpProblem {
        objective: vec![0.0],
        lower: vec![0.0],
        upper: vec![2.0],
        rows: vec![row(vec![(0, 1.0)], Sense::Ge, 5.0)],
    };
    for (status, ..) in solve_both(&lp) {
        assert_eq!(status, LpStatus::Infeasible);
    }
}

#[test]
fn unbounded_problem_detected() {
    // min -x with x >= 0 unconstrained above.
    let lp = LpProblem {
        objective: vec![-1.0],
        lower: vec![0.0],
        upper: vec![f64::INFINITY],
        rows: vec![row(vec![(0, 1.0)], Sense::Ge, 0.0)],
    };
    for (status, ..) in solve_both(&lp) {
        assert_eq!(status, LpStatus::Unbounded);
    }
}

#[test]
fn free_variable_problem() {
    // min x s.t. x >= -5 with x free => x = -5.
    let lp = LpProblem {
        objective: vec![1.0],
        lower: vec![f64::NEG_INFINITY],
        upper: vec![f64::INFINITY],
        rows: vec![row(vec![(0, 1.0)], Sense::Ge, -5.0)],
    };
    for (status, values, objective) in solve_both(&lp) {
        assert_eq!(status, LpStatus::Optimal);
        assert_close(values[0], -5.0);
        assert_close(objective, -5.0);
    }
}

#[test]
fn degenerate_lp_terminates() {
    // Several redundant constraints through the same vertex.
    let lp = LpProblem {
        objective: vec![-1.0, -1.0],
        lower: vec![0.0, 0.0],
        upper: vec![f64::INFINITY, f64::INFINITY],
        rows: vec![
            row(vec![(0, 1.0)], Sense::Le, 1.0),
            row(vec![(1, 1.0)], Sense::Le, 1.0),
            row(vec![(0, 1.0), (1, 1.0)], Sense::Le, 2.0),
            row(vec![(0, 1.0), (1, 2.0)], Sense::Le, 3.0),
            row(vec![(0, 2.0), (1, 1.0)], Sense::Le, 3.0),
        ],
    };
    for (status, _, objective) in solve_both(&lp) {
        assert_eq!(status, LpStatus::Optimal);
        assert_close(objective, -2.0);
    }
}

#[test]
fn redundant_equalities_are_handled() {
    // x + y = 2 stated twice.
    let lp = LpProblem {
        objective: vec![1.0, 2.0],
        lower: vec![0.0, 0.0],
        upper: vec![f64::INFINITY, f64::INFINITY],
        rows: vec![
            row(vec![(0, 1.0), (1, 1.0)], Sense::Eq, 2.0),
            row(vec![(0, 1.0), (1, 1.0)], Sense::Eq, 2.0),
        ],
    };
    for (status, values, objective) in solve_both(&lp) {
        assert_eq!(status, LpStatus::Optimal);
        assert_close(values[0], 2.0);
        assert_close(objective, 2.0);
    }
}

#[test]
fn bounded_variables_respected() {
    // min -x - 2y, x in [0, 3], y in [1, 2], x + y <= 4.
    let lp = LpProblem {
        objective: vec![-1.0, -2.0],
        lower: vec![0.0, 1.0],
        upper: vec![3.0, 2.0],
        rows: vec![row(vec![(0, 1.0), (1, 1.0)], Sense::Le, 4.0)],
    };
    for (status, values, objective) in solve_both(&lp) {
        assert_eq!(status, LpStatus::Optimal);
        assert_close(values[1], 2.0);
        assert_close(values[0], 2.0);
        assert_close(objective, -6.0);
    }
}

#[test]
fn larger_random_problem_respects_constraints() {
    // A pseudo-random feasibility-heavy LP; check constraint satisfaction
    // of the returned optimum rather than a known objective.
    let n = 30;
    let mut rows = Vec::new();
    let mut state = 12345u64;
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f64) / (u32::MAX as f64)
    };
    for r in 0..15 {
        let terms: Vec<(usize, f64)> = (0..n).map(|j| (j, next() * 2.0)).collect();
        let rhs = 10.0 + next() * 20.0;
        let sense = if r % 3 == 0 { Sense::Ge } else { Sense::Le };
        rows.push(row(terms, sense, rhs));
    }
    let lp = LpProblem {
        objective: (0..n).map(|_| next() * 4.0 - 2.0).collect(),
        lower: vec![0.0; n],
        upper: vec![5.0; n],
        rows,
    };
    for (status, values, _) in solve_both(&lp) {
        if status == LpStatus::Optimal {
            assert_primal_feasible(&lp, &values, 1e-5, "larger random LP");
        }
    }
    assert_conformance(&lp, "larger random LP");
}

// The oracle's standard-form conversion.

#[test]
fn simple_le_problem() {
    // min -x0  s.t. x0 <= 5, 0 <= x0 <= 10
    let lp = LpProblem {
        objective: vec![-1.0],
        lower: vec![0.0],
        upper: vec![10.0],
        rows: vec![row(vec![(0, 1.0)], Sense::Le, 5.0)],
    };
    let sf = oracle::to_standard_form(&lp).unwrap();
    // One constraint row + one bound row; each gets a slack.
    assert_eq!(sf.num_rows, 2);
    assert_eq!(sf.num_cols, 1 + 2);
    assert_eq!(sf.b, vec![5.0, 10.0]);
    assert_eq!(sf.c0, 0.0);
    // Recover maps z back to x unchanged (lower bound 0).
    assert_eq!(sf.recover(&[3.0, 0.0, 0.0]), vec![3.0]);
    assert_eq!(sf.basis_candidate.iter().filter(|s| s.is_some()).count(), 2);
}

#[test]
fn lower_bound_shifting_adjusts_rhs_and_constant() {
    // min 2x  s.t. x >= 4, 3 <= x <= inf
    let lp = LpProblem {
        objective: vec![2.0],
        lower: vec![3.0],
        upper: vec![f64::INFINITY],
        rows: vec![row(vec![(0, 1.0)], Sense::Ge, 4.0)],
    };
    let sf = oracle::to_standard_form(&lp).unwrap();
    assert_eq!(sf.num_rows, 1);
    assert_eq!(sf.b, vec![1.0]); // 4 - 3
    assert_eq!(sf.c0, 6.0); // 2 * 3
    assert_eq!(sf.recover(&[1.0, 0.0]), vec![4.0]);
}

#[test]
fn negative_rhs_rows_are_flipped() {
    // x0 >= -2 with x0 in [0, inf): shifted rhs stays -2, so the row is
    // multiplied by -1 and becomes -x0 <= 2.
    let lp = LpProblem {
        objective: vec![0.0],
        lower: vec![0.0],
        upper: vec![f64::INFINITY],
        rows: vec![row(vec![(0, 1.0)], Sense::Ge, -2.0)],
    };
    let sf = oracle::to_standard_form(&lp).unwrap();
    assert_eq!(sf.b[0], 2.0);
    assert_eq!(sf.at(0, 0), -1.0);
    // The flipped <= row provides an identity slack for the initial basis.
    assert!(sf.basis_candidate[0].is_some());
}

#[test]
fn free_variables_are_split() {
    let lp = LpProblem {
        objective: vec![1.0],
        lower: vec![f64::NEG_INFINITY],
        upper: vec![f64::INFINITY],
        rows: vec![row(vec![(0, 1.0)], Sense::Eq, -3.0)],
    };
    let sf = oracle::to_standard_form(&lp).unwrap();
    assert_eq!(sf.num_cols, 2); // pos + neg, equality row has no slack
    assert_eq!(sf.recover(&[0.0, 3.0]), vec![-3.0]);
    assert_eq!(sf.b[0], 3.0); // flipped
}

#[test]
fn mirrored_variable_with_only_upper_bound() {
    // x <= 5, no lower bound: x = 5 - z.
    let lp = LpProblem {
        objective: vec![1.0],
        lower: vec![f64::NEG_INFINITY],
        upper: vec![5.0],
        rows: vec![row(vec![(0, 1.0)], Sense::Le, 4.0)],
    };
    let sf = oracle::to_standard_form(&lp).unwrap();
    assert_eq!(sf.c0, 5.0);
    assert_eq!(sf.recover(&[2.0, 0.0]), vec![3.0]);
    // Row became 5 - z <= 4  =>  -z <= -1  =>  z >= 1 (flipped).
    assert_eq!(sf.b[0], 1.0);
}

#[test]
fn zero_coefficients_are_dropped() {
    let lp = LpProblem {
        objective: vec![1.0, 1.0],
        lower: vec![0.0, 0.0],
        upper: vec![f64::INFINITY, f64::INFINITY],
        rows: vec![row(vec![(0, 0.0), (1, 2.0)], Sense::Le, 4.0)],
    };
    let sf = oracle::to_standard_form(&lp).unwrap();
    assert_eq!(sf.at(0, 0), 0.0);
    assert_eq!(sf.at(0, 1), 2.0);
}

#[test]
fn rejects_bad_inputs() {
    let lp = |objective: f64, lower: f64, upper: f64, rows| LpProblem {
        objective: vec![objective],
        lower: vec![lower],
        upper: vec![upper],
        rows,
    };
    let empty = LpProblem {
        objective: vec![],
        lower: vec![],
        upper: vec![],
        rows: vec![],
    };
    let dangling = lp(0.0, 0.0, 1.0, vec![row(vec![(3, 1.0)], Sense::Le, 1.0)]);
    let nan = lp(f64::NAN, 0.0, 1.0, vec![]);
    // Both kernels refuse the same malformed models with the same errors.
    for (problem, expected) in [
        (&empty, SolverError::EmptyModel),
        (&dangling, SolverError::UnknownVariable(3)),
    ] {
        assert_eq!(oracle::to_standard_form(problem).unwrap_err(), expected);
        assert_eq!(RevisedLp::from_problem(problem).unwrap_err(), expected);
    }
    assert!(matches!(
        oracle::to_standard_form(&nan).unwrap_err(),
        SolverError::NotANumber(_)
    ));
    assert!(matches!(
        RevisedLp::from_problem(&nan).unwrap_err(),
        SolverError::NotANumber(_)
    ));
    // An empty domain is an error for the oracle and an infeasible LP for
    // the revised simplex, which takes its bounds per solve.
    let bad_domain = lp(0.0, 2.0, 1.0, vec![]);
    assert!(matches!(
        oracle::to_standard_form(&bad_domain).unwrap_err(),
        SolverError::EmptyDomain { .. }
    ));
    assert_eq!(revised(&bad_domain, None).status, LpStatus::Infeasible);
}
