//! Conversion of bounded LPs to standard form.
//!
//! The simplex implementation works on the standard form
//! `min c'z  s.t.  Az = b, z >= 0, b >= 0`. This module converts a general
//! LP — variables with arbitrary (possibly infinite) bounds and `<=`/`>=`/`=`
//! rows — into that form by shifting lower bounds, mirroring
//! upper-bounded-only variables, splitting free variables, materializing
//! finite upper bounds as rows, and adding slack/surplus columns.

use crate::error::SolverError;
use crate::model::Sense;
use crate::Result;

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

/// How an original variable maps into standard-form columns.
#[derive(Debug, Clone, Copy)]
enum VarMap {
    /// `x = lower + z[col]`.
    Shifted { col: usize, lower: f64 },
    /// `x = upper - z[col]` (used when only the upper bound is finite).
    Mirrored { col: usize, upper: f64 },
    /// `x = z[pos] - z[neg]` (free variable).
    Split { pos: usize, neg: usize },
}

/// A linear program in standard form.
#[derive(Debug, Clone)]
pub struct StandardForm {
    /// Number of rows.
    pub num_rows: usize,
    /// Number of columns (structural + slack; artificials are added by the
    /// simplex itself).
    pub num_cols: usize,
    /// Dense row-major constraint matrix (`num_rows x num_cols`).
    pub a: Vec<f64>,
    /// Right-hand sides, all nonnegative.
    pub b: Vec<f64>,
    /// Objective coefficients per column (minimization).
    pub c: Vec<f64>,
    /// Constant added to the standard-form objective to recover the original
    /// objective value (from bound shifting).
    pub c0: f64,
    /// For each row, the column index of a slack that forms an identity
    /// column (`+1` in this row, `0` elsewhere), if one exists.
    pub basis_candidate: Vec<Option<usize>>,
    maps: Vec<VarMap>,
    num_original: usize,
}

impl StandardForm {
    /// Entry accessor.
    #[inline]
    pub fn at(&self, row: usize, col: usize) -> f64 {
        self.a[row * self.num_cols + col]
    }

    /// Recover original variable values from a standard-form solution.
    pub fn recover(&self, z: &[f64]) -> Vec<f64> {
        let mut x = vec![0.0; self.num_original];
        for (i, map) in self.maps.iter().enumerate() {
            x[i] = match *map {
                VarMap::Shifted { col, lower } => lower + z[col],
                VarMap::Mirrored { col, upper } => upper - z[col],
                VarMap::Split { pos, neg } => z[pos] - z[neg],
            };
        }
        x
    }
}

/// Threshold beyond which a bound is treated as infinite (no explicit row is
/// generated for it). Values this large would only degrade conditioning.
pub const BOUND_INFINITY: f64 = 1e15;

/// Convert an [`LpProblem`] into standard form.
pub fn to_standard_form(lp: &LpProblem) -> Result<StandardForm> {
    let n = lp.num_vars();
    if n == 0 {
        return Err(SolverError::EmptyModel);
    }

    // --- Map original variables to nonnegative columns. -------------------
    let mut maps = Vec::with_capacity(n);
    let mut num_cols = 0usize;
    // Rows induced by finite upper bounds on shifted variables.
    let mut bound_rows: Vec<(usize, f64)> = Vec::new(); // (col, ub - lb)
    let mut c0 = 0.0;
    let mut col_obj: Vec<f64> = Vec::new();

    for i in 0..n {
        let lo = lp.lower[i];
        let hi = lp.upper[i];
        if lo.is_nan() || hi.is_nan() || lp.objective[i].is_nan() {
            return Err(SolverError::NotANumber(format!("variable {i}")));
        }
        if lo > hi {
            return Err(SolverError::EmptyDomain {
                name: format!("x{i}"),
                lower: lo,
                upper: hi,
            });
        }
        let lo_finite = lo > -BOUND_INFINITY;
        let hi_finite = hi < BOUND_INFINITY;
        if lo_finite {
            let col = num_cols;
            num_cols += 1;
            col_obj.push(lp.objective[i]);
            c0 += lp.objective[i] * lo;
            if hi_finite {
                bound_rows.push((col, hi - lo));
            }
            maps.push(VarMap::Shifted { col, lower: lo });
        } else if hi_finite {
            let col = num_cols;
            num_cols += 1;
            col_obj.push(-lp.objective[i]);
            c0 += lp.objective[i] * hi;
            maps.push(VarMap::Mirrored { col, upper: hi });
        } else {
            let pos = num_cols;
            let neg = num_cols + 1;
            num_cols += 2;
            col_obj.push(lp.objective[i]);
            col_obj.push(-lp.objective[i]);
            maps.push(VarMap::Split { pos, neg });
        }
    }

    // --- Materialize rows with substituted variables. ---------------------
    struct RawRow {
        terms: Vec<(usize, f64)>,
        sense: Sense,
        rhs: f64,
    }
    let mut raw_rows: Vec<RawRow> = Vec::with_capacity(lp.rows.len() + bound_rows.len());

    for row in &lp.rows {
        if row.rhs.is_nan() {
            return Err(SolverError::NotANumber("row rhs".into()));
        }
        let mut rhs = row.rhs;
        let mut terms: Vec<(usize, f64)> = Vec::with_capacity(row.terms.len());
        for &(var, coeff) in &row.terms {
            if var >= n {
                return Err(SolverError::UnknownVariable(var));
            }
            if coeff.is_nan() {
                return Err(SolverError::NotANumber(format!("coefficient of x{var}")));
            }
            if coeff == 0.0 {
                continue;
            }
            match maps[var] {
                VarMap::Shifted { col, lower } => {
                    rhs -= coeff * lower;
                    terms.push((col, coeff));
                }
                VarMap::Mirrored { col, upper } => {
                    rhs -= coeff * upper;
                    terms.push((col, -coeff));
                }
                VarMap::Split { pos, neg } => {
                    terms.push((pos, coeff));
                    terms.push((neg, -coeff));
                }
            }
        }
        raw_rows.push(RawRow {
            terms,
            sense: row.sense,
            rhs,
        });
    }
    for (col, ub) in bound_rows {
        raw_rows.push(RawRow {
            terms: vec![(col, 1.0)],
            sense: Sense::Le,
            rhs: ub,
        });
    }

    // --- Add slack/surplus columns and normalize b >= 0. -------------------
    let num_rows = raw_rows.len();
    // First normalize sign so rhs >= 0 (flip sense when multiplying by -1).
    for r in &mut raw_rows {
        if r.rhs < 0.0 {
            r.rhs = -r.rhs;
            for t in &mut r.terms {
                t.1 = -t.1;
            }
            r.sense = r.sense.flip();
        }
    }
    // Count slack columns.
    let num_slacks = raw_rows.iter().filter(|r| r.sense != Sense::Eq).count();
    let total_cols = num_cols + num_slacks;
    let mut a = vec![0.0; num_rows * total_cols];
    let mut b = vec![0.0; num_rows];
    let mut c = vec![0.0; total_cols];
    c[..num_cols].copy_from_slice(&col_obj);
    let mut basis_candidate = vec![None; num_rows];

    let mut next_slack = num_cols;
    for (ri, r) in raw_rows.iter().enumerate() {
        b[ri] = r.rhs;
        for &(col, coeff) in &r.terms {
            a[ri * total_cols + col] += coeff;
        }
        match r.sense {
            Sense::Le => {
                a[ri * total_cols + next_slack] = 1.0;
                basis_candidate[ri] = Some(next_slack);
                next_slack += 1;
            }
            Sense::Ge => {
                a[ri * total_cols + next_slack] = -1.0;
                next_slack += 1;
            }
            Sense::Eq => {}
        }
    }

    Ok(StandardForm {
        num_rows,
        num_cols: total_cols,
        a,
        b,
        c,
        c0,
        basis_candidate,
        maps,
        num_original: n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(terms: Vec<(usize, f64)>, sense: Sense, rhs: f64) -> LpRow {
        LpRow { terms, sense, rhs }
    }

    #[test]
    fn simple_le_problem() {
        // min -x0  s.t. x0 <= 5, 0 <= x0 <= 10
        let lp = LpProblem {
            objective: vec![-1.0],
            lower: vec![0.0],
            upper: vec![10.0],
            rows: vec![row(vec![(0, 1.0)], Sense::Le, 5.0)],
        };
        let sf = to_standard_form(&lp).unwrap();
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
        let sf = to_standard_form(&lp).unwrap();
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
        let sf = to_standard_form(&lp).unwrap();
        assert!(sf.b[0] >= 0.0);
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
        let sf = to_standard_form(&lp).unwrap();
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
        let sf = to_standard_form(&lp).unwrap();
        assert_eq!(sf.c0, 5.0);
        assert_eq!(sf.recover(&[2.0, 0.0]), vec![3.0]);
        // Row became 5 - z <= 4  =>  -z <= -1  =>  z >= 1 (flipped).
        assert_eq!(sf.b[0], 1.0);
    }

    #[test]
    fn rejects_bad_inputs() {
        let empty = LpProblem {
            objective: vec![],
            lower: vec![],
            upper: vec![],
            rows: vec![],
        };
        assert!(to_standard_form(&empty).is_err());

        let bad_domain = LpProblem {
            objective: vec![0.0],
            lower: vec![2.0],
            upper: vec![1.0],
            rows: vec![],
        };
        assert!(matches!(
            to_standard_form(&bad_domain).unwrap_err(),
            SolverError::EmptyDomain { .. }
        ));

        let dangling = LpProblem {
            objective: vec![0.0],
            lower: vec![0.0],
            upper: vec![1.0],
            rows: vec![row(vec![(3, 1.0)], Sense::Le, 1.0)],
        };
        assert_eq!(
            to_standard_form(&dangling).unwrap_err(),
            SolverError::UnknownVariable(3)
        );

        let nan = LpProblem {
            objective: vec![f64::NAN],
            lower: vec![0.0],
            upper: vec![1.0],
            rows: vec![],
        };
        assert!(matches!(
            to_standard_form(&nan).unwrap_err(),
            SolverError::NotANumber(_)
        ));
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

    #[test]
    fn zero_coefficients_are_dropped() {
        let lp = LpProblem {
            objective: vec![1.0, 1.0],
            lower: vec![0.0, 0.0],
            upper: vec![f64::INFINITY, f64::INFINITY],
            rows: vec![row(vec![(0, 0.0), (1, 2.0)], Sense::Le, 4.0)],
        };
        let sf = to_standard_form(&lp).unwrap();
        assert_eq!(sf.at(0, 0), 0.0);
        assert_eq!(sf.at(0, 1), 2.0);
    }
}
