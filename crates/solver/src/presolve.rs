//! Activity-based presolve: constraint-propagation bound tightening.
//!
//! Before branch-and-bound starts, each row's minimum/maximum *activity*
//! (the row value with every variable pushed to its cheapest/dearest bound)
//! is propagated back onto the variable bounds: in `Σ aⱼxⱼ ≤ b`, variable
//! `xⱼ` with `aⱼ > 0` can never exceed `(b − min-activity-of-the-rest)/aⱼ`.
//! Integer variables additionally get their bounds rounded inward. The pass
//! repeats to a fixpoint (or a small pass cap — each pass is `O(nnz)`), and
//! detects infeasibility when a row's minimum activity already exceeds its
//! right-hand side or a variable's domain empties.
//!
//! Tightened bounds shrink the root relaxation box, which both strengthens
//! the LP bound and removes branching candidates; the pass acts on the
//! [`LpRow`] level, before the LP kernel prepares the problem.

use spq_obs::metrics::{Counter, Named};

use crate::model::Sense;
use crate::standard_form::LpRow;

static PRESOLVE_TIGHTENINGS: Named<Counter> =
    Named::new("spq_solver_presolve_tightenings", Counter::new());

/// Tolerance for infeasibility detection and integer rounding: bounds are
/// only moved when the change exceeds this, so the pass cannot oscillate.
const TIGHTEN_EPS: f64 = 1e-9;

/// Upper bound on fixpoint iterations; each pass is `O(nnz)`.
const MAX_PASSES: usize = 10;

/// Outcome of [`tighten_bounds`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PresolveOutcome {
    /// Bounds are consistent; the count says how many were tightened.
    Tightened(usize),
    /// A row or variable domain is provably empty: the problem (and every
    /// branch-and-bound node below it) is infeasible.
    Infeasible,
}

/// Tighten `lower`/`upper` in place by activity propagation over `rows`.
/// `integral[j]` marks variables whose bounds may be rounded inward.
pub fn tighten_bounds(
    rows: &[LpRow],
    lower: &mut [f64],
    upper: &mut [f64],
    integral: &[bool],
) -> PresolveOutcome {
    let mut total_tightened = 0usize;
    // Integer bounds may start fractional; round them inward first.
    for j in 0..lower.len() {
        if integral[j] {
            round_integer_bounds(j, lower, upper);
        }
        if lower[j] > upper[j] + TIGHTEN_EPS {
            return PresolveOutcome::Infeasible;
        }
    }
    for _ in 0..MAX_PASSES {
        let mut tightened = 0usize;
        for row in rows {
            // `Le` bounds activities from above, `Ge` from below, `Eq` both.
            let done = match row.sense {
                Sense::Le => propagate(row, 1.0, lower, upper, integral, &mut tightened),
                Sense::Ge => propagate(row, -1.0, lower, upper, integral, &mut tightened),
                Sense::Eq => {
                    propagate(row, 1.0, lower, upper, integral, &mut tightened)
                        && propagate(row, -1.0, lower, upper, integral, &mut tightened)
                }
            };
            if !done {
                return PresolveOutcome::Infeasible;
            }
        }
        total_tightened += tightened;
        if tightened == 0 {
            break;
        }
    }
    if total_tightened > 0 {
        PRESOLVE_TIGHTENINGS.add(total_tightened as u64);
    }
    PresolveOutcome::Tightened(total_tightened)
}

/// Propagate one direction of a row, viewed as `sign·(terms) ≤ sign·rhs`.
/// Returns `false` on proven infeasibility.
fn propagate(
    row: &LpRow,
    sign: f64,
    lower: &mut [f64],
    upper: &mut [f64],
    integral: &[bool],
    tightened: &mut usize,
) -> bool {
    let rhs = sign * row.rhs;
    // Minimum activity of `sign·terms`: finite part plus the number of
    // infinite contributions. With two or more infinite contributors no
    // finite residual exists for any term; with exactly one, only that term
    // can be tightened.
    let mut min_finite = 0.0f64;
    let mut inf_count = 0usize;
    let mut inf_var = usize::MAX;
    for &(var, coeff) in &row.terms {
        let a = sign * coeff;
        let contrib = if a > 0.0 {
            a * lower[var]
        } else {
            a * upper[var]
        };
        if contrib.is_finite() {
            min_finite += contrib;
        } else {
            inf_count += 1;
            inf_var = var;
        }
    }
    if inf_count == 0 && min_finite > rhs + TIGHTEN_EPS * (1.0 + rhs.abs()) {
        return false;
    }
    if inf_count > 1 {
        return true;
    }
    for &(var, coeff) in &row.terms {
        let a = sign * coeff;
        if a == 0.0 {
            continue;
        }
        // Residual minimum activity of the other terms.
        let residual = if inf_count == 0 {
            min_finite
                - if a > 0.0 {
                    a * lower[var]
                } else {
                    a * upper[var]
                }
        } else if var == inf_var {
            min_finite
        } else {
            continue;
        };
        // a·x ≤ rhs − residual.
        let limit = (rhs - residual) / a;
        if a > 0.0 {
            if limit < upper[var] - TIGHTEN_EPS * (1.0 + limit.abs()) {
                upper[var] = limit;
                if integral[var] {
                    round_integer_bounds(var, lower, upper);
                }
                *tightened += 1;
            }
        } else if limit > lower[var] + TIGHTEN_EPS * (1.0 + limit.abs()) {
            lower[var] = limit;
            if integral[var] {
                round_integer_bounds(var, lower, upper);
            }
            *tightened += 1;
        }
        if lower[var] > upper[var] + TIGHTEN_EPS {
            return false;
        }
    }
    true
}

/// Round an integer variable's bounds inward (with a tolerance so `2.9999999`
/// stays 3, not 2).
fn round_integer_bounds(j: usize, lower: &mut [f64], upper: &mut [f64]) {
    if lower[j].is_finite() {
        lower[j] = (lower[j] - TIGHTEN_EPS * (1.0 + lower[j].abs())).ceil();
    }
    if upper[j].is_finite() {
        upper[j] = (upper[j] + TIGHTEN_EPS * (1.0 + upper[j].abs())).floor();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(terms: Vec<(usize, f64)>, sense: Sense, rhs: f64) -> LpRow {
        LpRow { terms, sense, rhs }
    }

    #[test]
    fn knapsack_row_caps_each_item() {
        // 2x + 3y <= 7, x,y >= 0 integer: x <= 3, y <= 2.
        let rows = vec![row(vec![(0, 2.0), (1, 3.0)], Sense::Le, 7.0)];
        let mut lower = vec![0.0, 0.0];
        let mut upper = vec![f64::INFINITY, f64::INFINITY];
        let out = tighten_bounds(&rows, &mut lower, &mut upper, &[true, true]);
        assert!(matches!(out, PresolveOutcome::Tightened(n) if n >= 2));
        assert_eq!(upper, vec![3.0, 2.0]);
    }

    #[test]
    fn ge_row_raises_lower_bounds() {
        // x + y >= 5 with y <= 2 forces x >= 3.
        let rows = vec![row(vec![(0, 1.0), (1, 1.0)], Sense::Ge, 5.0)];
        let mut lower = vec![0.0, 0.0];
        let mut upper = vec![10.0, 2.0];
        let out = tighten_bounds(&rows, &mut lower, &mut upper, &[false, false]);
        assert!(matches!(out, PresolveOutcome::Tightened(_)));
        assert!((lower[0] - 3.0).abs() < 1e-9, "lower[0] = {}", lower[0]);
    }

    #[test]
    fn infeasible_row_is_detected() {
        // x + y <= 1 with x,y >= 1 is empty.
        let rows = vec![row(vec![(0, 1.0), (1, 1.0)], Sense::Le, 1.0)];
        let mut lower = vec![1.0, 1.0];
        let mut upper = vec![5.0, 5.0];
        let out = tighten_bounds(&rows, &mut lower, &mut upper, &[false, false]);
        assert_eq!(out, PresolveOutcome::Infeasible);
    }

    #[test]
    fn equality_row_propagates_both_directions() {
        // x + y = 4, 0 <= x <= 10, 0 <= y <= 1: x in [3, 4].
        let rows = vec![row(vec![(0, 1.0), (1, 1.0)], Sense::Eq, 4.0)];
        let mut lower = vec![0.0, 0.0];
        let mut upper = vec![10.0, 1.0];
        let out = tighten_bounds(&rows, &mut lower, &mut upper, &[false, false]);
        assert!(matches!(out, PresolveOutcome::Tightened(_)));
        assert!((lower[0] - 3.0).abs() < 1e-9);
        assert!((upper[0] - 4.0).abs() < 1e-9);
    }

    #[test]
    fn fractional_integer_bounds_round_inward() {
        // 2x <= 5 with x integer: x <= 2 (not 2.5).
        let rows = vec![row(vec![(0, 2.0)], Sense::Le, 5.0)];
        let mut lower = vec![0.0];
        let mut upper = vec![f64::INFINITY];
        let out = tighten_bounds(&rows, &mut lower, &mut upper, &[true]);
        assert!(matches!(out, PresolveOutcome::Tightened(_)));
        assert_eq!(upper, vec![2.0]);
    }

    #[test]
    fn free_variables_disable_only_the_blocked_terms() {
        // x + y <= 3 with y free (below): x cannot be capped — the residual
        // activity of y is -inf — but y itself can, because x's finite lower
        // bound 0 gives y's residual: y <= 3.
        let rows = vec![row(vec![(0, 1.0), (1, 1.0)], Sense::Le, 3.0)];
        let mut lower = vec![0.0, f64::NEG_INFINITY];
        let mut upper = vec![f64::INFINITY, f64::INFINITY];
        let out = tighten_bounds(&rows, &mut lower, &mut upper, &[false, false]);
        assert!(matches!(out, PresolveOutcome::Tightened(_)));
        assert!(upper[0].is_infinite());
        assert!((upper[1] - 3.0).abs() < 1e-9);
    }
}
