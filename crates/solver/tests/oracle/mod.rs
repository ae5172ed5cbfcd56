//! The LP oracle: a two-phase primal simplex on a dense tableau.
//!
//! It shares nothing with the revised simplex it checks except the problem
//! type and the iteration budget: the [`LpProblem`] is converted to the
//! standard form `min c·z  s.t.  Az = b, z ≥ 0, b ≥ 0` by shifting lower
//! bounds, mirroring upper-bounded-only variables, splitting free
//! variables, materializing finite upper bounds as rows and adding
//! slack/surplus columns; phase 1 introduces artificial columns to find a
//! basic feasible solution and phase 2 optimizes the true objective, with
//! Dantzig pricing switching to Bland's rule after
//! [`PivotRules::bland_after`] iterations.

use spq_solver::standard_form::{LpProblem, BOUND_INFINITY};
use spq_solver::{LpStatus, PivotRules, Sense, SolverError};

const EPS: f64 = 1e-9;
const FEAS_EPS: f64 = 1e-7;

/// Result of an oracle solve.
#[derive(Debug, Clone)]
pub struct LpSolution {
    pub status: LpStatus,
    /// Values of the original variables (empty unless optimal).
    pub values: Vec<f64>,
    /// Objective of the original problem (0 unless optimal).
    pub objective: f64,
}

/// How an original variable maps into standard-form columns.
#[derive(Debug, Clone, Copy)]
enum VarMap {
    /// `x = lower + z[col]`.
    Shifted { col: usize, lower: f64 },
    /// `x = upper - z[col]` (only the upper bound is finite).
    Mirrored { col: usize, upper: f64 },
    /// `x = z[pos] - z[neg]` (free variable).
    Split { pos: usize, neg: usize },
}

/// A linear program in standard form.
#[derive(Debug, Clone)]
pub struct StandardForm {
    pub num_rows: usize,
    /// Structural + slack columns (the simplex adds the artificials).
    pub num_cols: usize,
    /// Dense row-major `num_rows × num_cols` matrix.
    pub a: Vec<f64>,
    /// Right-hand sides, all nonnegative.
    pub b: Vec<f64>,
    pub c: Vec<f64>,
    /// Constant recovering the original objective (from bound shifting).
    pub c0: f64,
    /// Per row, a slack column forming an identity column, if any.
    pub basis_candidate: Vec<Option<usize>>,
    maps: Vec<VarMap>,
}

impl StandardForm {
    pub fn at(&self, row: usize, col: usize) -> f64 {
        self.a[row * self.num_cols + col]
    }

    /// Original variable values of a standard-form solution.
    pub fn recover(&self, z: &[f64]) -> Vec<f64> {
        self.maps
            .iter()
            .map(|map| match *map {
                VarMap::Shifted { col, lower } => lower + z[col],
                VarMap::Mirrored { col, upper } => upper - z[col],
                VarMap::Split { pos, neg } => z[pos] - z[neg],
            })
            .collect()
    }
}

/// Convert an [`LpProblem`] into standard form.
pub fn to_standard_form(lp: &LpProblem) -> Result<StandardForm, SolverError> {
    let n = lp.num_vars();
    if n == 0 {
        return Err(SolverError::EmptyModel);
    }
    let mut maps = Vec::with_capacity(n);
    let mut c = Vec::new();
    let mut c0 = 0.0;
    // Rows `z[col] <= ub - lb` of doubly bounded variables.
    let mut bound_rows = Vec::new();
    for i in 0..n {
        let (lo, hi, obj) = (lp.lower[i], lp.upper[i], lp.objective[i]);
        if lo.is_nan() || hi.is_nan() || obj.is_nan() {
            return Err(SolverError::NotANumber(format!("variable {i}")));
        }
        if lo > hi {
            return Err(SolverError::EmptyDomain {
                var: i,
                lower: lo,
                upper: hi,
            });
        }
        let col = c.len();
        if lo > -BOUND_INFINITY {
            c.push(obj);
            c0 += obj * lo;
            if hi < BOUND_INFINITY {
                bound_rows.push((vec![(col, 1.0)], Sense::Le, hi - lo));
            }
            maps.push(VarMap::Shifted { col, lower: lo });
        } else if hi < BOUND_INFINITY {
            c.push(-obj);
            c0 += obj * hi;
            maps.push(VarMap::Mirrored { col, upper: hi });
        } else {
            c.extend([obj, -obj]);
            maps.push(VarMap::Split {
                pos: col,
                neg: col + 1,
            });
        }
    }

    // Substitute the column maps into the rows; normalize to b >= 0.
    let mut rows = Vec::with_capacity(lp.rows.len() + bound_rows.len());
    for row in &lp.rows {
        if row.rhs.is_nan() {
            return Err(SolverError::NotANumber("row rhs".into()));
        }
        let mut rhs = row.rhs;
        let mut terms = Vec::with_capacity(row.terms.len());
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
                VarMap::Split { pos, neg } => terms.extend([(pos, coeff), (neg, -coeff)]),
            }
        }
        rows.push((terms, row.sense, rhs));
    }
    rows.extend(bound_rows);
    for (terms, sense, rhs) in &mut rows {
        if *rhs < 0.0 {
            *rhs = -*rhs;
            terms.iter_mut().for_each(|t| t.1 = -t.1);
            *sense = sense.flip();
        }
    }

    // One slack (`<=`) or surplus (`>=`) column per inequality.
    let num_rows = rows.len();
    let structural = c.len();
    let num_cols = structural + rows.iter().filter(|r| r.1 != Sense::Eq).count();
    c.resize(num_cols, 0.0);
    let mut a = vec![0.0; num_rows * num_cols];
    let mut basis_candidate = vec![None; num_rows];
    let mut slack = structural;
    for (ri, (terms, sense, _)) in rows.iter().enumerate() {
        for &(col, coeff) in terms {
            a[ri * num_cols + col] += coeff;
        }
        if *sense != Sense::Eq {
            a[ri * num_cols + slack] = if *sense == Sense::Le { 1.0 } else { -1.0 };
            if *sense == Sense::Le {
                basis_candidate[ri] = Some(slack);
            }
            slack += 1;
        }
    }
    Ok(StandardForm {
        num_rows,
        num_cols,
        a,
        b: rows.iter().map(|r| r.2).collect(),
        c,
        c0,
        basis_candidate,
        maps,
    })
}

struct Tableau {
    m: usize,
    /// Columns including artificials.
    n_total: usize,
    /// Row-major `m × n_total`.
    t: Vec<f64>,
    rhs: Vec<f64>,
    basis: Vec<usize>,
}

impl Tableau {
    fn new(sf: &StandardForm) -> Self {
        let m = sf.num_rows;
        let n_real = sf.num_cols;
        let n_art = sf.basis_candidate.iter().filter(|c| c.is_none()).count();
        let n_total = n_real + n_art;
        let mut t = vec![0.0; m * n_total];
        let mut basis = Vec::with_capacity(m);
        let mut art = n_real;
        for r in 0..m {
            t[r * n_total..r * n_total + n_real]
                .copy_from_slice(&sf.a[r * n_real..(r + 1) * n_real]);
            match sf.basis_candidate[r] {
                Some(col) => basis.push(col),
                None => {
                    t[r * n_total + art] = 1.0;
                    basis.push(art);
                    art += 1;
                }
            }
        }
        Tableau {
            m,
            n_total,
            t,
            rhs: sf.b.clone(),
            basis,
        }
    }

    fn at(&self, r: usize, c: usize) -> f64 {
        self.t[r * self.n_total + c]
    }

    /// Pivot column `j` into row `r`, updating the reduced-cost row `d` and
    /// the objective `z`.
    fn pivot(&mut self, r: usize, j: usize, d: &mut [f64], z: &mut f64) {
        let n = self.n_total;
        let inv = 1.0 / self.at(r, j);
        self.t[r * n..(r + 1) * n]
            .iter_mut()
            .for_each(|v| *v *= inv);
        self.rhs[r] *= inv;
        for i in (0..self.m).filter(|&i| i != r) {
            let factor = self.at(i, j);
            if factor.abs() <= EPS {
                continue;
            }
            for c in 0..n {
                self.t[i * n + c] -= factor * self.t[r * n + c];
            }
            self.rhs[i] -= factor * self.rhs[r];
            if self.rhs[i].abs() < 1e-12 {
                self.rhs[i] = 0.0;
            }
        }
        let factor = d[j];
        if factor != 0.0 {
            for (c, dc) in d.iter_mut().enumerate() {
                *dc -= factor * self.at(r, c);
            }
            *z += factor * self.rhs[r];
        }
        self.basis[r] = j;
    }

    /// Reduced costs and objective value of a cost vector over all columns.
    fn reduced_costs(&self, cost: &[f64]) -> (Vec<f64>, f64) {
        let mut d = cost.to_vec();
        let mut z = 0.0;
        for r in 0..self.m {
            let cb = cost[self.basis[r]];
            if cb != 0.0 {
                z += cb * self.rhs[r];
                for (c, dc) in d.iter_mut().enumerate() {
                    *dc -= cb * self.at(r, c);
                }
            }
        }
        (d, z)
    }

    /// Pivot until optimal or unbounded; only the first `allowed` columns
    /// may enter.
    fn optimize(
        &mut self,
        d: &mut [f64],
        z: &mut f64,
        allowed: usize,
        rules: &PivotRules,
    ) -> Result<LpStatus, SolverError> {
        for iteration in 0.. {
            if iteration >= rules.max_iters {
                return Err(SolverError::Numerical("oracle iteration budget".into()));
            }
            let candidates = d[..allowed].iter().enumerate().filter(|(_, &dj)| dj < -EPS);
            let enter = if iteration >= rules.bland_after {
                candidates.map(|(j, _)| j).next()
            } else {
                // Most negative reduced cost, first index on ties.
                candidates
                    .fold(None, |best: Option<(usize, f64)>, (j, &dj)| match best {
                        Some((_, b)) if b <= dj => best,
                        _ => Some((j, dj)),
                    })
                    .map(|(j, _)| j)
            };
            let Some(j) = enter else {
                return Ok(LpStatus::Optimal);
            };
            // Ratio test; ties go to the smallest basic index.
            let mut leave: Option<(usize, f64)> = None;
            for r in 0..self.m {
                let a = self.at(r, j);
                if a > EPS {
                    let ratio = self.rhs[r] / a;
                    let better = match leave {
                        None => true,
                        Some((lr, best)) => {
                            ratio < best - EPS
                                || (ratio < best + EPS && self.basis[r] < self.basis[lr])
                        }
                    };
                    if better {
                        leave = Some((r, ratio));
                    }
                }
            }
            let Some((r, _)) = leave else {
                return Ok(LpStatus::Unbounded);
            };
            self.pivot(r, j, d, z);
        }
        unreachable!("the loop returns")
    }
}

/// Solve a bounded LP (minimization) with the two-phase dense simplex.
pub fn solve_lp(lp: &LpProblem) -> Result<LpSolution, SolverError> {
    let sf = to_standard_form(lp)?;
    let rules = PivotRules::for_size(sf.num_rows, sf.num_cols, None);
    let mut tab = Tableau::new(&sf);
    let (n_real, n_total) = (sf.num_cols, tab.n_total);
    let failed = |status| {
        Ok(LpSolution {
            status,
            values: Vec::new(),
            objective: 0.0,
        })
    };

    // Phase 1: drive the artificials to zero.
    if n_total > n_real {
        let mut cost = vec![0.0; n_total];
        cost[n_real..].fill(1.0);
        let (mut d, mut z) = tab.reduced_costs(&cost);
        tab.optimize(&mut d, &mut z, n_total, &rules)?;
        if z > FEAS_EPS {
            return failed(LpStatus::Infeasible);
        }
        // Pivot the remaining artificials out where a real column allows;
        // a row without one is redundant and keeps its artificial at 0.
        for r in 0..tab.m {
            if tab.basis[r] >= n_real {
                match (0..n_real).find(|&j| tab.at(r, j).abs() > 1e-7) {
                    Some(j) => tab.pivot(r, j, &mut vec![0.0; n_total], &mut 0.0),
                    None => tab.rhs[r] = 0.0,
                }
            }
        }
    }

    // Phase 2: the true objective over the real columns.
    let mut cost = vec![0.0; n_total];
    cost[..n_real].copy_from_slice(&sf.c);
    let (mut d, mut z) = tab.reduced_costs(&cost);
    if tab.optimize(&mut d, &mut z, n_real, &rules)? == LpStatus::Unbounded {
        return failed(LpStatus::Unbounded);
    }
    let mut zvals = vec![0.0; n_real];
    for (r, &col) in tab.basis.iter().enumerate() {
        if col < n_real {
            zvals[col] = tab.rhs[r];
        }
    }
    Ok(LpSolution {
        status: LpStatus::Optimal,
        values: sf.recover(&zvals),
        objective: z + sf.c0,
    })
}
