//! Sparse revised simplex with native bounded variables and warm starts.
//!
//! This is the solver's LP kernel. Unlike a textbook dense tableau (kept
//! only as the test suite's LP oracle), which materializes every finite
//! variable upper bound as an extra constraint row and splits free variables
//! into two nonnegative columns, the revised simplex works directly on
//! `min c·x  s.t.  A·x + s = b,  l ≤ x ≤ u`, where each row's logical
//! variable `s` encodes the row sense through its bounds (`≤` → `s ≥ 0`,
//! `≥` → `s ≤ 0`, `=` → `s = 0`):
//!
//! * the constraint matrix is stored once in CSC form ([`CscMatrix`]) and
//!   only its nonzeros are touched during pricing, so iteration cost tracks
//!   `nnz` plus the basis dimension `m` (the number of *rows*, not rows plus
//!   per-variable bound rows);
//! * variable bounds are handled by the ratio test itself: a nonbasic
//!   variable whose own opposite bound is the blocking constraint simply
//!   *bound-flips* without any basis change;
//! * the basis inverse is maintained as a sparse LU factorization of the
//!   `m × m` basis matrix plus a product-form eta file
//!   ([`Factorization`]), refactorized periodically into the same storage;
//! * pricing is Dantzig (most negative reduced cost) with a switch to
//!   Bland's rule after [`PivotRules::bland_after`] iterations to guarantee
//!   termination under degeneracy;
//! * phase 1 minimizes the sum of bound violations of the basic variables
//!   (no artificial columns), which makes any [`Basis`] — e.g. one saved
//!   from a related solve — a valid warm start: the solver prices with the
//!   infeasibility costs until the warm basis is repaired, then switches to
//!   the true objective. This is what makes branch-and-bound child nodes,
//!   CSA re-solves with updated summaries, and SketchRefine refine steps
//!   cheap: they typically need a handful of pivots instead of a full
//!   two-phase solve.
//! * every buffer of a solve lives in a [`SimplexWork`] the caller may keep:
//!   [`RevisedLp::solve_with`] reuses it, so a branch-and-bound search that
//!   re-solves one LP per node allocates nothing but each returned solution.

use spq_obs::metrics::{Counter, Histogram, Named};

use crate::basis::{Basis, Factorization, VarStatus};
use crate::deadline::Deadline;
use crate::error::SolverError;
use crate::sparse::CscMatrix;
use crate::standard_form::{LpProblem, BOUND_INFINITY};
use crate::Result;

// Kernel counters (see the README metric catalog). Relaxed atomics only:
// they observe the pivot loop without feeding back into it.
static PIVOTS_DANTZIG: Named<Counter> = Named::new("spq_solver_pivots_dantzig", Counter::new());
static PIVOTS_BLAND: Named<Counter> = Named::new("spq_solver_pivots_bland", Counter::new());
static BOUND_FLIPS: Named<Counter> = Named::new("spq_solver_bound_flips", Counter::new());
static REFACTORIZATIONS: Named<Counter> = Named::new("spq_solver_refactorizations", Counter::new());
static ETA_PUSHES: Named<Counter> = Named::new("spq_solver_eta_pushes", Counter::new());
static ETA_CHAIN_LEN: Named<Histogram> = Named::new("spq_solver_eta_chain_len", Histogram::new());

/// Reduced-cost tolerance.
const EPS: f64 = 1e-9;
/// Bound-feasibility tolerance.
const FEAS_EPS: f64 = 1e-7;
/// Minimum |pivot| for a row to participate in the ratio test.
const PIVOT_TOL: f64 = 1e-7;
/// Tie window of the ratio test.
const RATIO_EPS: f64 = 1e-9;

/// Status of an LP solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LpStatus {
    /// An optimal solution was found.
    Optimal,
    /// The constraints are infeasible.
    Infeasible,
    /// The objective is unbounded below (for minimization).
    Unbounded,
}

/// Iteration budget and pricing-rule switchover of the simplex.
///
/// Dantzig pricing (most negative reduced cost) is fast in practice but can
/// cycle on degenerate problems; after `bland_after` iterations the solver
/// switches to Bland's rule, which is slower per iteration but guarantees
/// termination. The default switchover is **half the iteration budget**
/// (`max_iters / 2`), which keeps Dantzig active on every non-degenerate
/// solve while still bounding degenerate ones; callers can tighten it via
/// [`crate::SolverOptions::bland_after`].
#[derive(Debug, Clone)]
pub struct PivotRules {
    /// Hard cap on simplex iterations before a numerical error is raised.
    pub max_iters: usize,
    /// Iteration index after which pricing switches to Bland's rule.
    pub bland_after: usize,
    /// Deadline checked periodically inside the pivot loop; an expired
    /// deadline (or fired cancellation token) aborts the solve with
    /// [`SolverError::Cancelled`] instead of finishing the LP first.
    pub deadline: Deadline,
}

impl Default for PivotRules {
    /// The rules for a trivially small LP: [`PivotRules::for_size`] with
    /// zero rows and columns, no deadline.
    fn default() -> Self {
        PivotRules::for_size(0, 0, None)
    }
}

impl PivotRules {
    /// Rules for an LP with `rows × cols` constraints: the iteration budget
    /// scales with the problem size, and Bland's rule kicks in after
    /// `bland_after` iterations (default: half the budget).
    pub fn for_size(rows: usize, cols: usize, bland_after: Option<usize>) -> PivotRules {
        let max_iters = 2000 + 60 * (rows + cols);
        PivotRules {
            max_iters,
            bland_after: bland_after.unwrap_or(max_iters / 2),
            deadline: Deadline::none(),
        }
    }

    /// Attach a deadline, returning `self` for chaining.
    pub fn with_deadline(mut self, deadline: Deadline) -> PivotRules {
        self.deadline = deadline;
        self
    }

    /// True when the pivot loop should abort at iteration `iteration`:
    /// deadlines are polled every [`DEADLINE_CHECK_MASK`]+1 iterations so
    /// the `Instant::now()` cost stays negligible next to a pivot.
    #[inline]
    pub fn interrupted(&self, iteration: usize) -> bool {
        iteration & DEADLINE_CHECK_MASK == 0
            && !self.deadline.is_unlimited()
            && self.deadline.expired()
    }
}

/// The pivot loop polls the deadline every 32 iterations (power-of-two mask
/// so the check compiles to a single AND).
pub const DEADLINE_CHECK_MASK: usize = 31;

/// Result of a revised-simplex solve.
#[derive(Debug, Clone)]
pub struct RevisedSolution {
    /// Solve status.
    pub status: LpStatus,
    /// Values of the structural variables (empty unless optimal).
    pub values: Vec<f64>,
    /// Objective value (minimization); meaningful only when optimal.
    pub objective: f64,
    /// Simplex iterations (pivots and bound flips) performed.
    pub iterations: usize,
    /// Reduced costs of the structural columns at the optimum (0 for basic
    /// columns and for columns fixed by `lower == upper`; empty unless
    /// optimal). Minimization sense: a column nonbasic
    /// at its lower bound has `reduced ≥ 0` and moving it up by `t` costs at
    /// least `reduced·t`, which is what reduced-cost fixing exploits.
    pub reduced: Vec<f64>,
    /// The optimal basis, reusable as a warm start for related solves.
    pub basis: Option<Basis>,
}

/// A bounded LP prepared for the revised simplex: the immutable part
/// (matrix, costs, right-hand sides, row senses folded into logical-variable
/// bounds). Variable bounds are supplied per solve so branch-and-bound nodes
/// can share one `RevisedLp`.
#[derive(Debug, Clone)]
pub struct RevisedLp {
    /// Number of structural columns.
    pub n_struct: usize,
    /// Number of rows.
    pub m: usize,
    matrix: CscMatrix,
    /// Minimization costs over all columns (zero for logicals).
    cost: Vec<f64>,
    /// Right-hand sides.
    b: Vec<f64>,
    /// Bounds of the logical column of each row.
    logical_lower: Vec<f64>,
    logical_upper: Vec<f64>,
}

impl RevisedLp {
    /// Prepare a problem. Bounds in `lp` are ignored here (they are passed
    /// to [`RevisedLp::solve`]); rows and the objective are validated.
    ///
    /// The CSC matrix is built in two passes over the rows: the first
    /// validates and counts each column's entries, the second writes them.
    /// Rows are visited in order, so every column's entries arrive sorted by
    /// row; a column repeated within a row is summed into one entry, in term
    /// order, and dropped if the sum is zero.
    pub fn from_problem(lp: &LpProblem) -> Result<RevisedLp> {
        let n = lp.num_vars();
        if n == 0 {
            return Err(SolverError::EmptyModel);
        }
        for (i, c) in lp.objective.iter().enumerate() {
            if c.is_nan() {
                return Err(SolverError::NotANumber(format!("objective of x{i}")));
            }
        }
        let m = lp.rows.len();
        // Pass 1: column `j` gets `col_ptr[j + 1]` entries, then prefix sums.
        let mut col_ptr = vec![0usize; n + m + 1];
        for (ri, row) in lp.rows.iter().enumerate() {
            if row.rhs.is_nan() {
                return Err(SolverError::NotANumber(format!("row {ri} rhs")));
            }
            for &(var, coeff) in &row.terms {
                if var >= n {
                    return Err(SolverError::UnknownVariable(var));
                }
                if coeff.is_nan() {
                    return Err(SolverError::NotANumber(format!(
                        "coefficient of x{var} in row {ri}"
                    )));
                }
                if coeff != 0.0 {
                    col_ptr[var + 1] += 1;
                }
            }
            col_ptr[n + ri + 1] = 1;
        }
        for j in 0..n + m {
            col_ptr[j + 1] += col_ptr[j];
        }
        // Pass 2: `next[j]` is where column `j`'s next entry goes.
        let nnz = col_ptr[n + m];
        let mut row_idx = vec![0usize; nnz];
        let mut values = vec![0.0f64; nnz];
        let mut next = col_ptr[..n + m].to_vec();
        let mut summed = false;
        let mut b = Vec::with_capacity(m);
        let mut logical_lower = Vec::with_capacity(m);
        let mut logical_upper = Vec::with_capacity(m);
        for (ri, row) in lp.rows.iter().enumerate() {
            for &(var, coeff) in row.terms.iter().filter(|t| t.1 != 0.0) {
                let at = next[var];
                if at > col_ptr[var] && row_idx[at - 1] == ri {
                    values[at - 1] += coeff;
                    summed = true;
                } else {
                    row_idx[at] = ri;
                    values[at] = coeff;
                    next[var] += 1;
                }
            }
            row_idx[next[n + ri]] = ri;
            values[next[n + ri]] = 1.0;
            next[n + ri] += 1;
            b.push(row.rhs);
            let (lo, hi) = match row.sense {
                crate::model::Sense::Le => (0.0, f64::INFINITY),
                crate::model::Sense::Ge => (f64::NEG_INFINITY, 0.0),
                crate::model::Sense::Eq => (0.0, 0.0),
            };
            logical_lower.push(lo);
            logical_upper.push(hi);
        }
        if summed {
            // Close the gaps summed entries left and drop cancelled ones.
            let mut kept = 0;
            for j in 0..n + m {
                let start = col_ptr[j];
                col_ptr[j] = kept;
                for at in start..next[j] {
                    if values[at] != 0.0 {
                        row_idx[kept] = row_idx[at];
                        values[kept] = values[at];
                        kept += 1;
                    }
                }
            }
            col_ptr[n + m] = kept;
            row_idx.truncate(kept);
            values.truncate(kept);
        }
        let mut cost = Vec::with_capacity(n + m);
        cost.extend_from_slice(&lp.objective);
        cost.resize(n + m, 0.0);
        Ok(RevisedLp {
            n_struct: n,
            m,
            matrix: CscMatrix::from_parts(m, col_ptr, row_idx, values),
            cost,
            b,
            logical_lower,
            logical_upper,
        })
    }

    /// Estimated resident bytes of a solve: the CSC matrix, the basis
    /// factors, the eta file and the working vectors. The factors are
    /// charged `m²` words, as if the LU were dense: a conservative bound for
    /// the sparse LU, whose factors hold a few nonzeros per column on the
    /// logical-heavy bases the simplex visits.
    pub fn estimated_bytes(&self) -> u64 {
        let nnz = self.matrix.nnz() as u64;
        let m = self.m as u64;
        let cols = (self.n_struct + self.m) as u64;
        nnz * 16 + m * m * 8 + (Factorization::REFACTOR_EVERY as u64) * m * 8 + cols * 8 * 6
    }

    /// Number of stored nonzeros (structural + logical columns).
    pub fn nnz(&self) -> usize {
        self.matrix.nnz()
    }

    /// The constraint matrix: structural columns, then one logical column
    /// per row.
    pub(crate) fn matrix(&self) -> &CscMatrix {
        &self.matrix
    }

    /// Solve with the given structural bounds, optional warm-start basis and
    /// pivot rules: [`RevisedLp::solve_with`] on a fresh workspace.
    pub fn solve(
        &self,
        lower: &[f64],
        upper: &[f64],
        warm: Option<&Basis>,
        rules: &PivotRules,
    ) -> Result<RevisedSolution> {
        self.solve_with(&mut SimplexWork::default(), lower, upper, warm, rules)
    }

    /// Solve in `work`, whatever LP it last served: every buffer is
    /// overwritten before it is read, so the result is bit-identical to
    /// [`RevisedLp::solve`], and once `work` has held an LP of this size the
    /// solve allocates only the returned solution's vectors.
    pub fn solve_with(
        &self,
        work: &mut SimplexWork,
        lower: &[f64],
        upper: &[f64],
        warm: Option<&Basis>,
        rules: &PivotRules,
    ) -> Result<RevisedSolution> {
        if work.load(self, lower, upper, warm)? {
            return Ok(work.finish(self, LpStatus::Infeasible, 0));
        }
        work.run(self, rules)
    }
}

/// What blocked the entering variable's step.
enum Blocking {
    /// The entering variable reached its own opposite bound: flip, no pivot.
    SelfFlip,
    /// Basis position `r` reached the given bound value (`true` = upper).
    Row(usize, bool),
}

/// The state of a revised-simplex solve, kept between solves so that a
/// caller re-solving many small LPs — branch-and-bound, one workspace per
/// search thread — reuses its buffers instead of allocating them per solve.
/// Nothing carries over from one solve to the next: [`RevisedLp::solve_with`]
/// overwrites every field first.
#[derive(Debug, Default)]
pub struct SimplexWork {
    /// Buffers of an earlier solution handed back by [`Self::recycle`]; the
    /// next optimum's values and reduced costs are written into them.
    spare_values: Vec<f64>,
    spare_reduced: Vec<f64>,
    /// Bounds of every column (structurals, then logicals).
    lower: Vec<f64>,
    upper: Vec<f64>,
    status: Vec<VarStatus>,
    /// Column basic in each row.
    basic_vars: Vec<usize>,
    /// Current value of every column.
    x: Vec<f64>,
    /// Pricing vector: basic costs, btran'd to the duals.
    y: Vec<f64>,
    /// Ratio-test column: the entering column, ftran'd.
    w: Vec<f64>,
    /// Right-hand side of the basic-value solve.
    rhs: Vec<f64>,
    fact: Factorization,
}

impl SimplexWork {
    /// Take back the values and reduced costs of a solution the caller is
    /// done with, so the next optimum needs no allocation for them.
    pub(crate) fn recycle(&mut self, values: Vec<f64>, reduced: Vec<f64>) {
        self.spare_values = values;
        self.spare_reduced = reduced;
    }

    /// The columns basic in the last solve's basis (structurals `< n`, then
    /// logicals), in row order. Every other column sits on a bound.
    pub(crate) fn basic_columns(&self) -> &[usize] {
        &self.basic_vars
    }

    /// Load the bound box and the starting basis (the warm one when it fits,
    /// otherwise the all-logical one), factorize it and compute the basic
    /// values. Returns `true` when a column's domain is empty.
    fn load(
        &mut self,
        rlp: &RevisedLp,
        lower_s: &[f64],
        upper_s: &[f64],
        warm: Option<&Basis>,
    ) -> Result<bool> {
        let n = rlp.n_struct;
        let m = rlp.m;
        let total = n + m;
        let clamp = |v: f64, neg: bool| {
            if neg {
                if v <= -BOUND_INFINITY {
                    f64::NEG_INFINITY
                } else {
                    v
                }
            } else if v >= BOUND_INFINITY {
                f64::INFINITY
            } else {
                v
            }
        };
        self.lower.clear();
        self.upper.clear();
        let mut infeasible_domain = false;
        for i in 0..n {
            if lower_s[i].is_nan() || upper_s[i].is_nan() {
                return Err(SolverError::NotANumber(format!("bounds of x{i}")));
            }
            let lo = clamp(lower_s[i], true);
            let hi = clamp(upper_s[i], false);
            if lo > hi {
                infeasible_domain = true;
            }
            self.lower.push(lo);
            self.upper.push(hi);
        }
        self.lower.extend_from_slice(&rlp.logical_lower);
        self.upper.extend_from_slice(&rlp.logical_upper);
        let (lower, upper) = (&self.lower, &self.upper);

        // Adopt the warm basis when it fits; otherwise the all-logical basis.
        let status = &mut self.status;
        status.clear();
        match warm {
            Some(basis) if basis.fits(total, m) => status.extend_from_slice(&basis.statuses),
            _ => {
                status.resize(n, VarStatus::AtLower);
                status.resize(total, VarStatus::Basic);
            }
        }
        // Sanitize nonbasic statuses against the (possibly changed) bounds.
        for j in 0..total {
            status[j] = match status[j] {
                VarStatus::Basic => VarStatus::Basic,
                VarStatus::AtLower if lower[j].is_finite() => VarStatus::AtLower,
                VarStatus::AtUpper if upper[j].is_finite() => VarStatus::AtUpper,
                _ => {
                    if lower[j].is_finite() {
                        VarStatus::AtLower
                    } else if upper[j].is_finite() {
                        VarStatus::AtUpper
                    } else {
                        VarStatus::Free
                    }
                }
            };
        }
        self.basic_vars.clear();
        self.basic_vars
            .extend((0..total).filter(|&j| status[j] == VarStatus::Basic));
        let factored =
            self.basic_vars.len() == m && self.fact.refactor(&rlp.matrix, &self.basic_vars);
        if !factored {
            // Warm basis was structurally or numerically unusable: fall
            // back to the always-nonsingular all-logical basis.
            for j in 0..n {
                status[j] = if lower[j].is_finite() {
                    VarStatus::AtLower
                } else if upper[j].is_finite() {
                    VarStatus::AtUpper
                } else {
                    VarStatus::Free
                };
            }
            for s in status.iter_mut().take(total).skip(n) {
                *s = VarStatus::Basic;
            }
            self.basic_vars.clear();
            self.basic_vars.extend(n..total);
            if !self.fact.refactor(&rlp.matrix, &self.basic_vars) {
                return Err(SolverError::Numerical("logical basis singular".into()));
            }
        }
        self.x.clear();
        self.x.resize(total, 0.0);
        self.compute_values(rlp);
        Ok(infeasible_domain)
    }

    /// Set nonbasic variables to their bound values and solve for the basic
    /// values.
    fn compute_values(&mut self, rlp: &RevisedLp) {
        let total = self.x.len();
        for j in 0..total {
            self.x[j] = match self.status[j] {
                VarStatus::Basic => 0.0,
                VarStatus::AtLower => self.lower[j],
                VarStatus::AtUpper => self.upper[j],
                VarStatus::Free => 0.0,
            };
        }
        self.rhs.clear();
        self.rhs.extend_from_slice(&rlp.b);
        for j in 0..total {
            if self.status[j] != VarStatus::Basic && self.x[j] != 0.0 {
                rlp.matrix.scatter_col(j, -self.x[j], &mut self.rhs);
            }
        }
        self.fact.ftran(&mut self.rhs);
        for (i, &bv) in self.basic_vars.iter().enumerate() {
            self.x[bv] = self.rhs[i];
        }
    }

    fn refactorize(&mut self, rlp: &RevisedLp) -> Result<()> {
        REFACTORIZATIONS.inc();
        ETA_CHAIN_LEN.record(self.fact.num_etas() as u64);
        if !self.fact.refactor(&rlp.matrix, &self.basic_vars) {
            return Err(SolverError::Numerical("basis became singular".into()));
        }
        self.compute_values(rlp);
        Ok(())
    }

    /// Sum of bound violations over basic variables; also the phase test.
    fn infeasibility(&self) -> f64 {
        self.basic_vars
            .iter()
            .map(|&bv| {
                let v = self.x[bv];
                (self.lower[bv] - v).max(0.0) + (v - self.upper[bv]).max(0.0)
            })
            .sum()
    }

    fn run(&mut self, rlp: &RevisedLp, rules: &PivotRules) -> Result<RevisedSolution> {
        let m = rlp.m;
        let total = self.x.len();
        let mut iterations = 0;
        self.y.clear();
        self.y.resize(m, 0.0);
        self.w.clear();
        self.w.resize(m, 0.0);
        loop {
            if iterations >= rules.max_iters {
                return Err(SolverError::Numerical(format!(
                    "revised simplex exceeded {} iterations",
                    rules.max_iters
                )));
            }
            if rules.interrupted(iterations) {
                return Err(SolverError::Cancelled);
            }
            let use_bland = iterations >= rules.bland_after;

            // Phase selection: any basic variable outside its bounds puts us
            // in phase 1 with infeasibility costs.
            let mut phase1 = false;
            self.y.fill(0.0);
            for (i, &bv) in self.basic_vars.iter().enumerate() {
                let v = self.x[bv];
                if v > self.upper[bv] + FEAS_EPS {
                    self.y[i] = 1.0;
                    phase1 = true;
                } else if v < self.lower[bv] - FEAS_EPS {
                    self.y[i] = -1.0;
                    phase1 = true;
                }
            }
            if !phase1 {
                for (i, &bv) in self.basic_vars.iter().enumerate() {
                    self.y[i] = rlp.cost[bv];
                }
            }
            self.fact.btran(&mut self.y);

            // Pricing: pick the entering column.
            let mut enter: Option<(usize, f64, f64)> = None; // (col, |d|, dir)
            if use_bland {
                // Bland's least-index rule overrides Dantzig pricing.
                for j in 0..total {
                    if let Some((d, dir)) = self.price_col(rlp, j, phase1) {
                        enter = Some((j, d.abs(), dir));
                        break;
                    }
                }
            } else {
                for j in 0..total {
                    if let Some((d, dir)) = self.price_col(rlp, j, phase1) {
                        if enter.map(|(_, best, _)| d.abs() > best).unwrap_or(true) {
                            enter = Some((j, d.abs(), dir));
                        }
                    }
                }
            }

            let Some((q, _, dir)) = enter else {
                if phase1 {
                    // The infeasibility sum is at its minimum. Recompute the
                    // basic values exactly before judging: eta-file drift can
                    // manufacture phantom violations. The acceptance
                    // threshold grows only with √m so a genuinely infeasible
                    // large model is never declared optimal (a linear-in-m
                    // threshold would reach ~1e-2 at 100k rows).
                    self.refactorize(rlp)?;
                    if self.infeasibility() > FEAS_EPS * (1.0 + (m as f64).sqrt()) {
                        return Ok(self.finish(rlp, LpStatus::Infeasible, iterations));
                    }
                    // Residual violations are within tolerance: snap the
                    // offending basic values onto their bounds so phase 2
                    // can proceed (the introduced row residual is ≤ the
                    // feasibility tolerance).
                    for i in 0..m {
                        let bv = self.basic_vars[i];
                        self.x[bv] = self.x[bv].clamp(self.lower[bv], self.upper[bv]);
                    }
                    iterations += 1;
                    continue;
                }
                // Optimal: recompute values from a fresh factorization for a
                // clean answer — unless the eta file is empty, in which case
                // the factorization is already fresh and only bound flips
                // (exact assignments) have moved the iterate. Warm-started
                // branch-and-bound nodes that verify optimality in a handful
                // of flips take this fast path.
                if self.fact.num_etas() > 0 {
                    self.refactorize(rlp)?;
                }
                return Ok(self.finish(rlp, LpStatus::Optimal, iterations));
            };

            // Direction of basic-variable change per unit step of x_q.
            self.w.fill(0.0);
            rlp.matrix.scatter_col(q, 1.0, &mut self.w);
            self.fact.ftran(&mut self.w);

            // Ratio test.
            let mut t_best = f64::INFINITY;
            let mut blocking: Option<Blocking> = None;
            let range = self.upper[q] - self.lower[q];
            if range.is_finite() {
                t_best = range;
                blocking = Some(Blocking::SelfFlip);
            }
            for (i, &wi) in self.w.iter().enumerate() {
                let alpha = -dir * wi;
                if alpha.abs() <= PIVOT_TOL {
                    continue;
                }
                let bv = self.basic_vars[i];
                let xi = self.x[bv];
                let (li, ui) = (self.lower[bv], self.upper[bv]);
                // Target bound of this basic variable in the step direction.
                let (t, hit_upper) = if xi < li - FEAS_EPS {
                    // Infeasible below: only a move up toward `li` blocks.
                    if alpha > 0.0 {
                        ((li - xi) / alpha, false)
                    } else {
                        continue;
                    }
                } else if xi > ui + FEAS_EPS {
                    if alpha < 0.0 {
                        ((ui - xi) / alpha, true)
                    } else {
                        continue;
                    }
                } else if alpha > 0.0 {
                    if ui.is_finite() {
                        ((ui - xi) / alpha, true)
                    } else {
                        continue;
                    }
                } else if li.is_finite() {
                    ((li - xi) / alpha, false)
                } else {
                    continue;
                };
                let t = t.max(0.0);
                let take = if t < t_best - RATIO_EPS {
                    true
                } else if t < t_best + RATIO_EPS {
                    match &blocking {
                        // Bland-style anti-cycling tie-break: smallest index.
                        Some(Blocking::Row(r, _)) if use_bland => bv < self.basic_vars[*r],
                        // Stability tie-break: largest pivot magnitude.
                        Some(Blocking::Row(r, _)) => wi.abs() > self.w[*r].abs(),
                        Some(Blocking::SelfFlip) | None => true,
                    }
                } else {
                    false
                };
                if take {
                    t_best = t.min(t_best);
                    blocking = Some(Blocking::Row(i, hit_upper));
                }
            }

            let Some(blocking) = blocking else {
                if phase1 {
                    return Err(SolverError::Numerical(
                        "phase-1 step unblocked (numerical trouble)".into(),
                    ));
                }
                return Ok(self.finish(rlp, LpStatus::Unbounded, iterations));
            };

            // Apply the step.
            let t = t_best;
            if t > 0.0 {
                self.x[q] += dir * t;
                for (i, &wi) in self.w.iter().enumerate() {
                    if wi != 0.0 {
                        let bv = self.basic_vars[i];
                        self.x[bv] -= dir * t * wi;
                    }
                }
            }
            match blocking {
                Blocking::SelfFlip => {
                    BOUND_FLIPS.inc();
                    self.status[q] = if dir > 0.0 {
                        VarStatus::AtUpper
                    } else {
                        VarStatus::AtLower
                    };
                    self.x[q] = if dir > 0.0 {
                        self.upper[q]
                    } else {
                        self.lower[q]
                    };
                }
                Blocking::Row(r, hit_upper) => {
                    if use_bland {
                        PIVOTS_BLAND.inc();
                    } else {
                        PIVOTS_DANTZIG.inc();
                    }
                    let leaving = self.basic_vars[r];
                    self.status[leaving] = if hit_upper {
                        VarStatus::AtUpper
                    } else {
                        VarStatus::AtLower
                    };
                    self.x[leaving] = if hit_upper {
                        self.upper[leaving]
                    } else {
                        self.lower[leaving]
                    };
                    self.status[q] = VarStatus::Basic;
                    self.basic_vars[r] = q;
                    let pushed = self.fact.push_eta(r, &self.w);
                    if pushed {
                        ETA_PUSHES.inc();
                    }
                    if !pushed || self.fact.should_refactorize() {
                        self.refactorize(rlp)?;
                    }
                }
            }
            iterations += 1;
        }
    }

    /// Reduced cost and step direction of column `j`, if it is an eligible
    /// entering candidate under the current (phase-dependent) objective
    /// priced by the duals in `y`.
    #[inline]
    fn price_col(&self, rlp: &RevisedLp, j: usize, phase1: bool) -> Option<(f64, f64)> {
        if self.status[j] == VarStatus::Basic || self.lower[j] == self.upper[j] {
            return None;
        }
        let base_cost = if phase1 { 0.0 } else { rlp.cost[j] };
        let d = base_cost - rlp.matrix.col_dot(j, &self.y);
        let dir = match self.status[j] {
            VarStatus::AtLower if d < -EPS => 1.0,
            VarStatus::AtUpper if d > EPS => -1.0,
            VarStatus::Free if d < -EPS => 1.0,
            VarStatus::Free if d > EPS => -1.0,
            _ => return None,
        };
        Some((d, dir))
    }

    fn finish(&mut self, rlp: &RevisedLp, status: LpStatus, iterations: usize) -> RevisedSolution {
        match status {
            LpStatus::Optimal => {
                let mut values = std::mem::take(&mut self.spare_values);
                values.clear();
                values.extend_from_slice(&self.x[..rlp.n_struct]);
                let objective = rlp
                    .cost
                    .iter()
                    .zip(&self.x)
                    .map(|(c, v)| c * v)
                    .sum::<f64>();
                // Reduced costs of the nonbasic structural columns that can
                // still move (basic and fixed columns get 0): d = c −
                // Aᵀ·B⁻ᵀc_B. One btran plus a pass over the nonzeros of the
                // movable columns; callers use these for reduced-cost bound
                // tightening in branch-and-bound, which has nothing left to
                // tighten on a fixed column.
                self.y.clear();
                self.y
                    .extend(self.basic_vars.iter().map(|&bv| rlp.cost[bv]));
                self.fact.btran(&mut self.y);
                let mut reduced = std::mem::take(&mut self.spare_reduced);
                reduced.clear();
                reduced.extend((0..rlp.n_struct).map(|j| {
                    if self.status[j] == VarStatus::Basic || self.lower[j] == self.upper[j] {
                        0.0
                    } else {
                        rlp.cost[j] - rlp.matrix.col_dot(j, &self.y)
                    }
                }));
                RevisedSolution {
                    status,
                    values,
                    objective,
                    iterations,
                    reduced,
                    basis: Some(Basis {
                        statuses: self.status.clone(),
                    }),
                }
            }
            _ => RevisedSolution {
                status,
                values: Vec::new(),
                objective: 0.0,
                iterations,
                reduced: Vec::new(),
                basis: None,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Sense;
    use crate::standard_form::LpRow;

    fn row(terms: Vec<(usize, f64)>, sense: Sense, rhs: f64) -> LpRow {
        LpRow { terms, sense, rhs }
    }

    fn rules() -> PivotRules {
        PivotRules::for_size(50, 50, None)
    }

    /// Solve an [`LpProblem`] under its own bounds.
    fn solve_problem(
        lp: &LpProblem,
        warm: Option<&Basis>,
        rules: &PivotRules,
    ) -> Result<RevisedSolution> {
        RevisedLp::from_problem(lp)?.solve(&lp.lower, &lp.upper, warm, rules)
    }

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} vs {b}");
    }

    #[test]
    fn repeated_terms_are_summed_into_one_entry() {
        // x0 twice in row 0 (summed), x1 twice in row 1 (cancelling, so
        // dropped): the same matrix `CscMatrix::from_columns` builds.
        let lp = LpProblem {
            objective: vec![1.0; 3],
            lower: vec![0.0; 3],
            upper: vec![1.0; 3],
            rows: vec![
                row(vec![(0, 1.5), (2, 1.0), (0, 2.0)], Sense::Le, 4.0),
                row(vec![(1, 3.0), (2, -1.0), (1, -3.0)], Sense::Ge, 0.0),
            ],
        };
        let rlp = RevisedLp::from_problem(&lp).unwrap();
        let want = CscMatrix::from_columns(
            2,
            &[
                vec![(0, 3.5)],
                vec![],
                vec![(0, 1.0), (1, -1.0)],
                vec![(0, 1.0)],
                vec![(1, 1.0)],
            ],
        );
        assert_eq!(rlp.nnz(), want.nnz());
        for j in 0..5 {
            assert_eq!(rlp.matrix.col(j), want.col(j), "column {j}");
        }
    }

    #[test]
    fn bounded_maximization() {
        // min -3x - 2y s.t. x + y <= 4, x in [0, 2], y in [0, 3].
        let lp = LpProblem {
            objective: vec![-3.0, -2.0],
            lower: vec![0.0, 0.0],
            upper: vec![2.0, 3.0],
            rows: vec![row(vec![(0, 1.0), (1, 1.0)], Sense::Le, 4.0)],
        };
        let sol = solve_problem(&lp, None, &rules()).unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.values[0], 2.0);
        assert_close(sol.values[1], 2.0);
        assert_close(sol.objective, -10.0);
        // No bound rows were materialized: the problem really is 1 row.
        let rlp = RevisedLp::from_problem(&lp).unwrap();
        assert_eq!(rlp.m, 1);
    }

    #[test]
    fn ge_and_eq_rows_need_phase_one() {
        // min 2x + 3y s.t. x + y = 10, x - y >= 2, x,y >= 0.
        let lp = LpProblem {
            objective: vec![2.0, 3.0],
            lower: vec![0.0, 0.0],
            upper: vec![f64::INFINITY, f64::INFINITY],
            rows: vec![
                row(vec![(0, 1.0), (1, 1.0)], Sense::Eq, 10.0),
                row(vec![(0, 1.0), (1, -1.0)], Sense::Ge, 2.0),
            ],
        };
        let sol = solve_problem(&lp, None, &rules()).unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
        // Cheapest: push x as high as possible: x = 10, y = 0 -> 20.
        assert_close(sol.values[0], 10.0);
        assert_close(sol.values[1], 0.0);
        assert_close(sol.objective, 20.0);
    }

    #[test]
    fn infeasible_detected() {
        let lp = LpProblem {
            objective: vec![1.0],
            lower: vec![0.0],
            upper: vec![2.0],
            rows: vec![row(vec![(0, 1.0)], Sense::Ge, 5.0)],
        };
        let sol = solve_problem(&lp, None, &rules()).unwrap();
        assert_eq!(sol.status, LpStatus::Infeasible);
        assert!(sol.basis.is_none());
    }

    #[test]
    fn unbounded_detected() {
        let lp = LpProblem {
            objective: vec![-1.0],
            lower: vec![0.0],
            upper: vec![f64::INFINITY],
            rows: vec![row(vec![(0, 1.0)], Sense::Ge, 0.0)],
        };
        let sol = solve_problem(&lp, None, &rules()).unwrap();
        assert_eq!(sol.status, LpStatus::Unbounded);
    }

    #[test]
    fn free_variables_are_native() {
        // min x s.t. x >= -5, x free: optimum -5, no split columns.
        let lp = LpProblem {
            objective: vec![1.0],
            lower: vec![f64::NEG_INFINITY],
            upper: vec![f64::INFINITY],
            rows: vec![row(vec![(0, 1.0)], Sense::Ge, -5.0)],
        };
        let sol = solve_problem(&lp, None, &rules()).unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.values[0], -5.0);
        assert_close(sol.objective, -5.0);
    }

    #[test]
    fn empty_domain_is_infeasible() {
        let lp = LpProblem {
            objective: vec![0.0],
            lower: vec![3.0],
            upper: vec![1.0],
            rows: vec![row(vec![(0, 1.0)], Sense::Le, 10.0)],
        };
        let sol = solve_problem(&lp, None, &rules()).unwrap();
        assert_eq!(sol.status, LpStatus::Infeasible);
    }

    #[test]
    fn warm_start_reuses_the_parent_basis() {
        // Solve, tighten one bound (a branch-and-bound "down" child), and
        // re-solve from the returned basis: the child needs few iterations.
        let lp = LpProblem {
            objective: vec![-5.0, -4.0, -3.0],
            lower: vec![0.0; 3],
            upper: vec![10.0; 3],
            rows: vec![
                row(vec![(0, 2.0), (1, 3.0), (2, 1.0)], Sense::Le, 5.0),
                row(vec![(0, 4.0), (1, 1.0), (2, 2.0)], Sense::Le, 11.0),
                row(vec![(0, 3.0), (1, 4.0), (2, 2.0)], Sense::Le, 8.0),
            ],
        };
        let rlp = RevisedLp::from_problem(&lp).unwrap();
        let root = rlp.solve(&lp.lower, &lp.upper, None, &rules()).unwrap();
        assert_eq!(root.status, LpStatus::Optimal);
        assert_close(root.objective, -13.0); // classic: x = (2, 0, 1)
        let basis = root.basis.unwrap();
        let mut upper = lp.upper.clone();
        upper[0] = 1.0; // branch x0 <= 1
        let child = rlp
            .solve(&lp.lower, &upper, Some(&basis), &rules())
            .unwrap();
        assert_eq!(child.status, LpStatus::Optimal);
        assert!(
            child.iterations <= root.iterations,
            "warm child took {} iterations vs root {}",
            child.iterations,
            root.iterations
        );
        // And the child optimum respects the tightened bound.
        assert!(child.values[0] <= 1.0 + 1e-9);
    }

    #[test]
    fn mismatched_warm_basis_is_ignored() {
        let lp = LpProblem {
            objective: vec![1.0, 1.0],
            lower: vec![0.0, 0.0],
            upper: vec![5.0, 5.0],
            rows: vec![row(vec![(0, 1.0), (1, 1.0)], Sense::Ge, 3.0)],
        };
        let bogus = Basis {
            statuses: vec![VarStatus::Basic; 7],
        };
        let sol = solve_problem(&lp, Some(&bogus), &rules()).unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.objective, 3.0);
    }

    #[test]
    fn fixed_variables_never_enter() {
        // x1 fixed at 2 by its bounds; optimum moves only x0.
        let lp = LpProblem {
            objective: vec![-1.0, -100.0],
            lower: vec![0.0, 2.0],
            upper: vec![4.0, 2.0],
            rows: vec![row(vec![(0, 1.0), (1, 1.0)], Sense::Le, 5.0)],
        };
        let sol = solve_problem(&lp, None, &rules()).unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.values[1], 2.0);
        assert_close(sol.values[0], 3.0);
    }

    #[test]
    fn degenerate_lp_terminates_with_bland() {
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
        // Force Bland from the first iteration: termination must still hold.
        let tight = PivotRules {
            max_iters: 10_000,
            bland_after: 0,
            ..Default::default()
        };
        let sol = solve_problem(&lp, None, &tight).unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.objective, -2.0);
    }
}
