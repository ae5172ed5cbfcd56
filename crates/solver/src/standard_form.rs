//! The bounded linear program every LP kernel call takes.
//!
//! An [`LpProblem`] is "solver-friendly" but not standard form: variables
//! carry arbitrary (possibly infinite) bounds and rows are `<=`/`>=`/`=`.
//! The revised simplex ([`crate::revised`]) consumes it as is, folding row
//! senses into logical-variable bounds; branch-and-bound narrows it onto its
//! live core with [`LpProblem::restrict`].

use crate::model::Sense;

/// A bound-constrained linear program in "solver-friendly" (but not yet
/// standard) form: minimize `objective · x` subject to `rows` and
/// `lower <= x <= upper`.
#[derive(Debug, Clone)]
pub struct LpProblem {
    /// Objective coefficients (minimization).
    pub objective: Vec<f64>,
    /// Per-variable lower bounds (`-inf` allowed).
    pub lower: Vec<f64>,
    /// Per-variable upper bounds (`+inf` allowed).
    pub upper: Vec<f64>,
    /// Constraint rows.
    pub rows: Vec<LpRow>,
}

/// One constraint row of an [`LpProblem`].
#[derive(Debug, Clone)]
pub struct LpRow {
    /// Sparse terms as (variable index, coefficient).
    pub terms: Vec<(usize, f64)>,
    /// Row sense.
    pub sense: Sense,
    /// Right-hand side.
    pub rhs: f64,
}

impl LpProblem {
    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.objective.len()
    }

    /// The same problem over the columns in `keep` only (renumbered in
    /// `keep` order), plus the objective contribution of the dropped ones.
    /// Every dropped column must be fixed (`lower == upper`): its value is
    /// folded into each row's right-hand side and into the returned
    /// objective offset. Rows keep their order, sense and surviving
    /// coefficients untouched, so a basis of `self` restricted to the kept
    /// columns and the logicals describes the same vertex of the result.
    pub fn restrict(&self, keep: &[usize]) -> (LpProblem, f64) {
        const DROPPED: usize = usize::MAX;
        let mut new_index = vec![DROPPED; self.num_vars()];
        for (k, &j) in keep.iter().enumerate() {
            new_index[j] = k;
        }
        let mut offset = 0.0;
        for (j, &k) in new_index.iter().enumerate() {
            if k == DROPPED {
                debug_assert!(
                    self.lower[j] == self.upper[j],
                    "dropped column {j} not fixed"
                );
                offset += self.objective[j] * self.lower[j];
            }
        }
        let rows = self
            .rows
            .iter()
            .map(|row| {
                let mut rhs = row.rhs;
                let mut terms = Vec::new();
                for &(j, coeff) in &row.terms {
                    match new_index[j] {
                        DROPPED => rhs -= coeff * self.lower[j],
                        k => terms.push((k, coeff)),
                    }
                }
                LpRow {
                    terms,
                    sense: row.sense,
                    rhs,
                }
            })
            .collect();
        let pick = |v: &[f64]| keep.iter().map(|&j| v[j]).collect();
        let restricted = LpProblem {
            objective: pick(&self.objective),
            lower: pick(&self.lower),
            upper: pick(&self.upper),
            rows,
        };
        (restricted, offset)
    }
}

/// Threshold beyond which a bound is treated as infinite. Values this large
/// would only degrade conditioning.
pub const BOUND_INFINITY: f64 = 1e15;

#[cfg(test)]
mod tests {
    use super::*;

    fn row(terms: Vec<(usize, f64)>, sense: Sense, rhs: f64) -> LpRow {
        LpRow { terms, sense, rhs }
    }

    #[test]
    fn restriction_folds_fixed_columns() {
        // min x0 + 2·x1 + 3·x2 with x1 fixed at 4:
        //   x0 + x1 + x2 <= 10,  x1 - x2 >= 1,  5·x1 = 20.
        let lp = LpProblem {
            objective: vec![1.0, 2.0, 3.0],
            lower: vec![0.0, 4.0, -1.0],
            upper: vec![5.0, 4.0, 2.0],
            rows: vec![
                row(vec![(0, 1.0), (1, 1.0), (2, 1.0)], Sense::Le, 10.0),
                row(vec![(1, 1.0), (2, -1.0)], Sense::Ge, 1.0),
                row(vec![(1, 5.0)], Sense::Eq, 20.0),
            ],
        };
        // Kept columns are renumbered in `keep` order.
        let (core, offset) = lp.restrict(&[2, 0]);
        assert_eq!(offset, 8.0);
        assert_eq!(core.objective, vec![3.0, 1.0]);
        assert_eq!(core.lower, vec![-1.0, 0.0]);
        assert_eq!(core.upper, vec![2.0, 5.0]);
        let rows: Vec<_> = core
            .rows
            .iter()
            .map(|r| (r.terms.clone(), r.sense, r.rhs))
            .collect();
        assert_eq!(
            rows,
            [
                (vec![(1, 1.0), (0, 1.0)], Sense::Le, 6.0),
                (vec![(0, -1.0)], Sense::Ge, -3.0),
                // A row left without columns stays, as `0 = 0` here.
                (vec![], Sense::Eq, 0.0),
            ]
        );
    }
}
