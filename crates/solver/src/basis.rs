//! Simplex bases: warm-startable variable statuses and the factorized basis
//! inverse used by the revised simplex.
//!
//! A [`Basis`] records, for every column of a linear program (structural
//! variables first, then one logical/slack column per row), whether the
//! variable is basic or sits at one of its bounds. It is deliberately tiny —
//! one byte-sized enum per column — so callers can extract it from a solved
//! LP, store it alongside a solution, and feed it back as a warm start for
//! the next related solve (a branch-and-bound child node, a CSA re-solve
//! with updated summaries, or a refine step of SketchRefine). The revised
//! simplex validates a warm basis against the new problem's shape and falls
//! back to the all-slack cold basis when it does not fit, so threading a
//! basis through is always safe.
//!
//! [`Factorization`] maintains `B⁻¹` implicitly: a **sparse LU** of the
//! `m × m` basis matrix with Markowitz pivoting, plus a product-form eta
//! file for the pivots performed since the last refactorization. Pivot
//! selection minimizes the Markowitz fill-in estimate
//! `(r_i − 1)·(c_j − 1)` among entries that pass a threshold
//! partial-pivoting test (`|a_ij| ≥ τ·max_i |a_ij|`), so the factors stay
//! sparse *and* numerically stable — a small pivot is never accepted while
//! a comfortably large one exists in the same column. `ftran` solves
//! `B·x = b`, `btran` solves `Bᵀ·y = c`; both cost `O(nnz(L) + nnz(U) +
//! nnz(etas))` instead of the dense `O(m²)`, and the eta file is folded
//! back into a fresh LU every [`Factorization::REFACTOR_EVERY`] pivots to
//! bound error growth and solve cost. Logical-heavy simplex bases are
//! extremely sparse, so on wide models the factors hold a few nonzeros per
//! column where the dense LU held `m`.

use crate::sparse::CscMatrix;
use serde::{Deserialize, Serialize};

/// Where a variable sits relative to the current basis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum VarStatus {
    /// In the basis; its value is determined by the constraint system.
    Basic,
    /// Nonbasic at its (finite) lower bound.
    AtLower,
    /// Nonbasic at its (finite) upper bound.
    AtUpper,
    /// Nonbasic free variable, resting at zero.
    Free,
}

/// A simplex basis: one [`VarStatus`] per column (structural variables
/// followed by one logical column per row).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Basis {
    /// Status per column.
    pub statuses: Vec<VarStatus>,
}

impl Basis {
    /// Number of basic columns.
    pub fn num_basic(&self) -> usize {
        self.statuses
            .iter()
            .filter(|s| matches!(s, VarStatus::Basic))
            .count()
    }

    /// True when this basis structurally fits a problem with `cols` total
    /// columns and `rows` rows (exactly one basic column per row).
    pub fn fits(&self, cols: usize, rows: usize) -> bool {
        self.statuses.len() == cols && self.num_basic() == rows
    }
}

const SINGULAR_TOL: f64 = 1e-11;
/// Threshold partial pivoting: an entry is an acceptable pivot only when its
/// magnitude is at least this fraction of the largest magnitude in its
/// (active) column. Markowitz then picks the acceptable entry with the
/// smallest fill-in estimate.
const MARKOWITZ_TAU: f64 = 0.1;

/// One product-form update: column `a_q` (ftran'd through the previous
/// factors as `w = B⁻¹·a_q`) replaced the basic variable of basis position
/// `r`. Stored sparse: its nonzero off-pivot entries `(i, w_i)`, `i != r`,
/// are `eta_ent[start..end]` of the owning [`Factorization`].
#[derive(Debug, Clone)]
struct Eta {
    r: usize,
    /// Pivot entry `w_r`.
    wr: f64,
    start: usize,
    end: usize,
}

/// Sparse LU factors of the basis matrix plus an eta file of recent pivots.
///
/// `P·B·Q = L·U` with row permutation `P` (`perm`) and column permutation
/// `Q` (`cperm`, the Markowitz pivot order). `L` is unit lower triangular
/// and `U` upper triangular, both stored column-wise so that `ftran`
/// (column-oriented forward/backward substitution, skipping zero entries of
/// the working vector) and `btran` (dot products against the same columns,
/// which walk the *rows* of `Lᵀ`/`Uᵀ`) share one data structure.
///
/// Every buffer — factors, eta file, elimination and solve scratch — is
/// kept across [`Factorization::refactor`] calls, so once a factorization
/// has seen bases of a given size, refactorizing and solving allocate
/// nothing.
#[derive(Debug, Clone, Default)]
pub struct Factorization {
    m: usize,
    /// Column `k` of `L` is `l_ent[l_ptr[k]..l_ptr[k + 1]]`: `(i, L[i,k])`
    /// with `i > k`, in LU row coordinates. The unit diagonal is implicit.
    l_ptr: Vec<usize>,
    l_ent: Vec<(usize, f64)>,
    /// Column `k` of `U` is `u_ent[u_ptr[k]..u_ptr[k + 1]]`: `(i, U[i,k])`
    /// with `i < k`.
    u_ptr: Vec<usize>,
    u_ent: Vec<(usize, f64)>,
    /// Diagonal of `U`.
    u_diag: Vec<f64>,
    /// Row permutation: LU row `i` came from basis-matrix row `perm[i]`.
    perm: Vec<usize>,
    /// Column permutation: LU column `k` came from basis position `cperm[k]`.
    cperm: Vec<usize>,
    etas: Vec<Eta>,
    eta_ent: Vec<(usize, f64)>,
    scratch: LuScratch,
}

/// Working storage of the elimination and of `ftran`/`btran`.
#[derive(Debug, Clone, Default)]
struct LuScratch {
    /// Active part of each basis column as a sorted `(row, value)` list.
    /// Only the first `m` are in use; the rest keep their capacity.
    cols: Vec<Vec<(usize, f64)>>,
    /// Output of [`merge_scaled_sub`], copied back into its column.
    merged: Vec<(usize, f64)>,
    row_active: Vec<bool>,
    col_active: Vec<bool>,
    /// Active entries per (active) row, for the Markowitz fill estimate.
    row_count: Vec<usize>,
    perm_inv: Vec<usize>,
    /// The dense working vector of `ftran` and `btran`.
    x: Vec<f64>,
}

/// `col ← col − f·l` over sorted `(row, value)` entry lists, maintaining the
/// active-entry count per row (`l` only touches active rows; entries already
/// eliminated into `U` are carried through untouched). `out` is scratch.
fn merge_scaled_sub(
    col: &mut Vec<(usize, f64)>,
    f: f64,
    l: &[(usize, f64)],
    row_count: &mut [usize],
    out: &mut Vec<(usize, f64)>,
) {
    out.clear();
    let (mut a, mut b) = (0usize, 0usize);
    while a < col.len() || b < l.len() {
        match (col.get(a), l.get(b)) {
            (Some(&(ra, va)), Some(&(rb, vb))) if ra == rb => {
                let nv = va - f * vb;
                if nv != 0.0 {
                    out.push((ra, nv));
                } else {
                    row_count[ra] -= 1;
                }
                a += 1;
                b += 1;
            }
            (Some(&(ra, va)), Some(&(rb, _))) if ra < rb => {
                out.push((ra, va));
                a += 1;
            }
            (Some(_), Some(&(rb, vb))) | (None, Some(&(rb, vb))) => {
                let nv = -f * vb;
                if nv != 0.0 {
                    out.push((rb, nv));
                    row_count[rb] += 1;
                }
                b += 1;
            }
            (Some(&(ra, va)), None) => {
                out.push((ra, va));
                a += 1;
            }
            (None, None) => unreachable!(),
        }
    }
    col.clear();
    col.extend_from_slice(out);
}

/// Reset `v` to `len` copies of `value`, reusing its allocation.
fn refill<T: Clone>(v: &mut Vec<T>, len: usize, value: T) {
    v.clear();
    v.resize(len, value);
}

impl Factorization {
    /// Refactorize after this many eta updates.
    pub const REFACTOR_EVERY: usize = 64;

    /// Factorize the basis matrix whose columns are `basic_cols` of
    /// `matrix` into a new factorization: [`Factorization::refactor`] on an
    /// empty one. Returns `None` when the basis is (numerically) singular.
    pub fn factorize(matrix: &CscMatrix, basic_cols: &[usize]) -> Option<Factorization> {
        let mut fact = Factorization::default();
        fact.refactor(matrix, basic_cols).then_some(fact)
    }

    /// Factorize the basis matrix whose columns are `basic_cols` of
    /// `matrix` in place, with Markowitz pivoting under a threshold
    /// partial-pivoting stability test, and empty the eta file. Returns
    /// `false` when the basis is (numerically) singular — i.e. when some
    /// elimination step finds no pivot candidate above `SINGULAR_TOL`; the
    /// factors are then unusable until the next successful `refactor`.
    pub fn refactor(&mut self, matrix: &CscMatrix, basic_cols: &[usize]) -> bool {
        let m = matrix.num_rows();
        debug_assert_eq!(basic_cols.len(), m, "basis must have one column per row");
        let Factorization {
            m: dim,
            l_ptr,
            l_ent,
            u_ptr,
            u_ent,
            u_diag,
            perm,
            cperm,
            etas,
            eta_ent,
            scratch: s,
        } = self;
        *dim = m;
        etas.clear();
        eta_ent.clear();
        l_ent.clear();
        u_ent.clear();
        refill(l_ptr, 1, 0);
        refill(u_ptr, 1, 0);
        u_diag.clear();
        perm.clear();
        cperm.clear();

        // Working copy of the basis columns as sorted (row, value) lists.
        if s.cols.len() < m {
            s.cols.resize_with(m, Vec::new);
        }
        let cols = &mut s.cols[..m];
        for (col, &j) in cols.iter_mut().zip(basic_cols) {
            let (rows, vals) = matrix.col(j);
            col.clear();
            col.extend(rows.iter().zip(vals).map(|(&r, &v)| (r, v)));
        }

        refill(&mut s.row_active, m, true);
        refill(&mut s.col_active, m, true);
        let (row_active, col_active) = (&mut s.row_active, &mut s.col_active);
        refill(&mut s.row_count, m, 0);
        let row_count = &mut s.row_count;
        for col in cols.iter() {
            for &(r, _) in col {
                row_count[r] += 1;
            }
        }
        refill(&mut s.perm_inv, m, usize::MAX);
        let perm_inv = &mut s.perm_inv;

        for k in 0..m {
            // Pivot selection: among entries passing the threshold test,
            // minimize the Markowitz cost (r_i − 1)(c_j − 1); ties go to the
            // larger magnitude, then to the scan order (deterministic).
            let mut best: Option<(usize, usize, f64, usize)> = None; // (pos, row, val, cost)
            'scan: for (j, col) in cols.iter().enumerate() {
                if !col_active[j] {
                    continue;
                }
                let mut colmax = 0.0f64;
                let mut active_cnt = 0usize;
                for &(r, v) in col {
                    if row_active[r] {
                        colmax = colmax.max(v.abs());
                        active_cnt += 1;
                    }
                }
                if colmax <= SINGULAR_TOL {
                    continue;
                }
                let threshold = MARKOWITZ_TAU * colmax;
                for &(r, v) in col {
                    if !row_active[r] || v.abs() < threshold {
                        continue;
                    }
                    let cost = (row_count[r] - 1) * (active_cnt - 1);
                    let better = match best {
                        None => true,
                        Some((_, _, bv, bc)) => cost < bc || (cost == bc && v.abs() > bv.abs()),
                    };
                    if better {
                        best = Some((j, r, v, cost));
                        if cost == 0 {
                            break 'scan;
                        }
                    }
                }
            }
            let Some((pj, pr, pv, _)) = best else {
                return false;
            };

            perm.push(pr);
            perm_inv[pr] = k;
            cperm.push(pj);
            u_diag.push(pv);

            // Split the pivot column: already-eliminated rows become U
            // entries (their values froze when those rows left the active
            // set), the remaining active rows become L multipliers.
            let l_start = l_ent.len();
            for &(r, v) in &cols[pj] {
                if r == pr {
                    continue;
                }
                if row_active[r] {
                    l_ent.push((r, v / pv));
                } else {
                    u_ent.push((perm_inv[r], v));
                }
            }
            u_ptr.push(u_ent.len());
            for &(r, _) in &cols[pj] {
                if row_active[r] {
                    row_count[r] -= 1;
                }
            }
            col_active[pj] = false;
            row_active[pr] = false;

            // Right-looking update of every active column with an entry in
            // the pivot row. The pivot-row entry itself is kept: it is that
            // column's future U entry, frozen from here on because the
            // multipliers only touch still-active rows.
            let lcol = &l_ent[l_start..];
            if !lcol.is_empty() {
                for j in 0..m {
                    if !col_active[j] {
                        continue;
                    }
                    let Ok(pos) = cols[j].binary_search_by_key(&pr, |e| e.0) else {
                        continue;
                    };
                    let f = cols[j][pos].1;
                    if f != 0.0 {
                        merge_scaled_sub(&mut cols[j], f, lcol, row_count, &mut s.merged);
                    }
                }
            }
            l_ptr.push(l_ent.len());
        }

        // Remap L's row coordinates from original basis rows to LU rows now
        // that the full row permutation is known (every multiplier row is
        // eliminated at a later step, so L stays strictly lower triangular).
        for entry in l_ent.iter_mut() {
            entry.0 = perm_inv[entry.0];
        }
        true
    }

    /// Number of eta updates accumulated since the last refactorization.
    pub fn num_etas(&self) -> usize {
        self.etas.len()
    }

    /// Stored nonzeros of the LU factors (diagnostics; excludes the eta
    /// file).
    pub fn factor_nnz(&self) -> usize {
        self.m + self.l_ent.len() + self.u_ent.len()
    }

    /// True when the eta file is long enough that a refactorization pays
    /// for itself.
    pub fn should_refactorize(&self) -> bool {
        self.etas.len() >= Self::REFACTOR_EVERY
    }

    /// Record a pivot: the ftran'd entering column `w = B⁻¹·a_q` replaced
    /// the basic variable of basis position `r`. Returns `false` (leaving
    /// the factorization untouched) when the pivot element is numerically
    /// unusable. Only the nonzeros of `w` are stored.
    pub fn push_eta(&mut self, r: usize, w: &[f64]) -> bool {
        let wr = w[r];
        if wr.abs() <= SINGULAR_TOL {
            return false;
        }
        let start = self.eta_ent.len();
        self.eta_ent.extend(
            w.iter()
                .enumerate()
                .filter(|&(i, &wi)| i != r && wi != 0.0)
                .map(|(i, &wi)| (i, wi)),
        );
        let end = self.eta_ent.len();
        self.etas.push(Eta { r, wr, start, end });
        true
    }

    /// Solve `B·x = b` in place (`b` becomes `x`).
    pub fn ftran(&mut self, b: &mut [f64]) {
        let m = self.m;
        debug_assert_eq!(b.len(), m);
        // z = P·b.
        let x = &mut self.scratch.x;
        x.clear();
        x.extend(self.perm.iter().map(|&p| b[p]));
        // L·w = z: column-oriented forward substitution, skipping the zeros
        // of the working vector (sparse right-hand sides stay sparse).
        for k in 0..m {
            let xk = x[k];
            if xk != 0.0 {
                for &(i, l) in &self.l_ent[self.l_ptr[k]..self.l_ptr[k + 1]] {
                    x[i] -= l * xk;
                }
            }
        }
        // U·v = w: column-oriented backward substitution.
        for k in (0..m).rev() {
            let xk = x[k] / self.u_diag[k];
            x[k] = xk;
            if xk != 0.0 {
                for &(i, u) in &self.u_ent[self.u_ptr[k]..self.u_ptr[k + 1]] {
                    x[i] -= u * xk;
                }
            }
        }
        // Undo the column permutation: x[cperm[k]] = v[k].
        for k in 0..m {
            b[self.cperm[k]] = x[k];
        }
        // Apply the eta file in order: x ← Eᵢ⁻¹·x.
        for eta in &self.etas {
            let xr = b[eta.r] / eta.wr;
            if xr != 0.0 {
                for &(i, wi) in &self.eta_ent[eta.start..eta.end] {
                    b[i] -= wi * xr;
                }
            }
            b[eta.r] = xr;
        }
    }

    /// Solve `Bᵀ·y = c` in place (`c` becomes `y`).
    pub fn btran(&mut self, c: &mut [f64]) {
        let m = self.m;
        debug_assert_eq!(c.len(), m);
        // Apply the eta file in reverse: solve Eᵢᵀ·z = c, whose only
        // non-identity row is r: Σ wᵢ·zᵢ = c_r.
        for eta in self.etas.iter().rev() {
            let mut dot = 0.0;
            for &(i, wi) in &self.eta_ent[eta.start..eta.end] {
                dot += wi * c[i];
            }
            c[eta.r] = (c[eta.r] - dot) / eta.wr;
        }
        // Bᵀ = Q·Uᵀ·Lᵀ·P, so first z = Qᵀ·c ...
        let y = &mut self.scratch.x;
        y.clear();
        y.extend(self.cperm.iter().map(|&q| c[q]));
        // ... then Uᵀ·w = z (forward; column k of U walks row k of Uᵀ) ...
        for k in 0..m {
            let mut acc = y[k];
            for &(i, u) in &self.u_ent[self.u_ptr[k]..self.u_ptr[k + 1]] {
                acc -= u * y[i];
            }
            y[k] = acc / self.u_diag[k];
        }
        // ... then Lᵀ·v = w (backward, unit diagonal) ...
        for k in (0..m).rev() {
            let mut acc = y[k];
            for &(i, l) in &self.l_ent[self.l_ptr[k]..self.l_ptr[k + 1]] {
                acc -= l * y[i];
            }
            y[k] = acc;
        }
        // ... and y = Pᵀ·v.
        for k in 0..m {
            c[self.perm[k]] = y[k];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: &[f64], b: &[f64]) -> bool {
        a.iter().zip(b).all(|(x, y)| (x - y).abs() < 1e-9)
    }

    /// 3×3 basis matrix columns (of a wider CSC matrix).
    fn matrix() -> CscMatrix {
        // Columns: [2,0,1], [0,1,0], [1,0,3], plus an extra non-basis column.
        CscMatrix::from_columns(
            3,
            &[
                vec![(0, 2.0), (2, 1.0)],
                vec![(1, 1.0)],
                vec![(0, 1.0), (2, 3.0)],
                vec![(0, 9.0), (1, 9.0)],
            ],
        )
    }

    #[test]
    fn ftran_solves_the_basis_system() {
        let m = matrix();
        let mut f = Factorization::factorize(&m, &[0, 1, 2]).unwrap();
        // B = [[2,0,1],[0,1,0],[1,0,3]]; solve B x = [5, 2, 10] -> x = [1, 2, 3].
        let mut b = vec![5.0, 2.0, 10.0];
        f.ftran(&mut b);
        assert!(close(&b, &[1.0, 2.0, 3.0]), "{b:?}");
    }

    #[test]
    fn btran_solves_the_transposed_system() {
        let m = matrix();
        let mut f = Factorization::factorize(&m, &[0, 1, 2]).unwrap();
        // Bᵀ y = c with c = Bᵀ·[1, 2, 3] = [2*1+0+1*3, 2, 1*1+3*3] = [5, 2, 10].
        let mut c = vec![5.0, 2.0, 10.0];
        f.btran(&mut c);
        assert!(close(&c, &[1.0, 2.0, 3.0]), "{c:?}");
    }

    #[test]
    fn eta_updates_track_a_column_swap() {
        let m = matrix();
        let mut f = Factorization::factorize(&m, &[0, 1, 2]).unwrap();
        // Replace basis position 0 (column 0) with column 3: w = B⁻¹·a₃.
        let mut w = vec![0.0; 3];
        m.scatter_col(3, 1.0, &mut w);
        f.ftran(&mut w);
        assert!(f.push_eta(0, &w));
        assert_eq!(f.num_etas(), 1);
        // The updated factorization must agree with a fresh one.
        let mut fresh = Factorization::factorize(&m, &[3, 1, 2]).unwrap();
        let rhs = vec![4.0, -1.0, 7.5];
        let mut via_eta = rhs.clone();
        f.ftran(&mut via_eta);
        let mut via_fresh = rhs.clone();
        fresh.ftran(&mut via_fresh);
        assert!(close(&via_eta, &via_fresh), "{via_eta:?} vs {via_fresh:?}");
        let mut bt_eta = rhs.clone();
        f.btran(&mut bt_eta);
        let mut bt_fresh = rhs;
        fresh.btran(&mut bt_fresh);
        assert!(close(&bt_eta, &bt_fresh), "{bt_eta:?} vs {bt_fresh:?}");
    }

    #[test]
    fn singular_basis_is_rejected() {
        let m = CscMatrix::from_columns(2, &[vec![(0, 1.0)], vec![(0, 2.0)], vec![(1, 1.0)]]);
        assert!(Factorization::factorize(&m, &[0, 1]).is_none());
        assert!(Factorization::factorize(&m, &[0, 2]).is_some());
    }

    #[test]
    fn refactor_into_used_storage_matches_a_fresh_factorization() {
        // A factorization that last held a larger basis, an eta and a failed
        // (singular) refactor must solve bit for bit like a fresh one.
        let wide = CscMatrix::from_columns(
            4,
            &[
                vec![(0, 3.0), (3, 1.0)],
                vec![(1, 2.0), (2, -1.0)],
                vec![(0, 1.0), (2, 4.0)],
                vec![(1, 1.0), (3, 5.0)],
            ],
        );
        let mut used = Factorization::factorize(&wide, &[0, 1, 2, 3]).unwrap();
        let mut w = vec![1.0, 0.0, 2.0, 0.0];
        used.ftran(&mut w);
        assert!(used.push_eta(0, &w));
        let singular = CscMatrix::from_columns(3, &[vec![(0, 1.0)], vec![(0, 2.0)], vec![]]);
        assert!(!used.refactor(&singular, &[0, 1, 2]));

        let m = matrix();
        assert!(used.refactor(&m, &[3, 1, 2]));
        assert_eq!(used.num_etas(), 0);
        let mut fresh = Factorization::factorize(&m, &[3, 1, 2]).unwrap();
        assert_eq!(used.factor_nnz(), fresh.factor_nnz());
        let rhs = [4.0, -1.0, 7.5];
        let (mut a, mut b) = (rhs.to_vec(), rhs.to_vec());
        used.ftran(&mut a);
        fresh.ftran(&mut b);
        assert_eq!(a, b);
        let (mut a, mut b) = (rhs.to_vec(), rhs.to_vec());
        used.btran(&mut a);
        fresh.btran(&mut b);
        assert_eq!(a, b);
    }

    /// Regression pin for the numerical-robustness fix: a basis whose
    /// natural-order elimination meets a catastrophically small pivot.
    /// Without row interchanges, eliminating `[[ε, 1], [1, 1]]` produces a
    /// multiplier of `1/ε` and the computed solution loses every significant
    /// digit; threshold pivoting must refuse the tiny pivot and solve to
    /// full precision.
    #[test]
    fn ill_conditioned_basis_is_solved_accurately() {
        let eps = 1e-12;
        let m = CscMatrix::from_columns(2, &[vec![(0, eps), (1, 1.0)], vec![(0, 1.0), (1, 1.0)]]);
        let mut f = Factorization::factorize(&m, &[0, 1]).unwrap();
        // True solution of B x = b for x = [1, 2]: b = [ε + 2, 3].
        let mut b = vec![eps + 2.0, 3.0];
        f.ftran(&mut b);
        assert!(close(&b, &[1.0, 2.0]), "ftran lost precision: {b:?}");
        // And the transposed system: Bᵀ y = c for y = [3, -1]: c = [3ε - 1, 2].
        let mut c = vec![3.0 * eps - 1.0, 2.0];
        f.btran(&mut c);
        assert!(close(&c, &[3.0, -1.0]), "btran lost precision: {c:?}");
    }

    /// A wider magnitude spread: diagonal dominance hidden behind a badly
    /// scaled leading column. Verified against the exact residual instead of
    /// a precomputed solution.
    #[test]
    fn badly_scaled_basis_keeps_small_residuals() {
        let cols: Vec<Vec<(usize, f64)>> = vec![
            vec![(0, 1e-9), (1, 1.0), (2, 2.0)],
            vec![(0, 1.0), (1, 1e-9), (2, -1.0)],
            vec![(0, 2.0), (1, -1.0), (2, 1e9)],
        ];
        let m = CscMatrix::from_columns(3, &cols);
        let mut f = Factorization::factorize(&m, &[0, 1, 2]).unwrap();
        let x_true = [3.0, -2.0, 1.0];
        // b = B·x_true.
        let mut b = vec![0.0; 3];
        for (j, xv) in x_true.iter().enumerate() {
            m.scatter_col(j, *xv, &mut b);
        }
        let scale = b.iter().fold(1.0f64, |a, v| a.max(v.abs()));
        f.ftran(&mut b);
        for (got, want) in b.iter().zip(&x_true) {
            assert!(
                (got - want).abs() <= 1e-7 * scale,
                "solution drifted: {b:?}"
            );
        }
    }

    /// Near-parallel columns are numerically singular and must be rejected
    /// rather than silently producing garbage.
    #[test]
    fn near_singular_basis_is_rejected() {
        let m = CscMatrix::from_columns(
            2,
            &[vec![(0, 1.0), (1, 1.0)], vec![(0, 1.0), (1, 1.0 + 1e-13)]],
        );
        assert!(Factorization::factorize(&m, &[0, 1]).is_none());
    }

    /// The sparse factors should not fill in on a structurally sparse basis:
    /// a bidiagonal system keeps O(m) stored nonzeros, not O(m²).
    #[test]
    fn sparse_basis_stays_sparse() {
        let n = 64;
        let cols: Vec<Vec<(usize, f64)>> = (0..n)
            .map(|j| {
                let mut c = vec![(j, 2.0)];
                if j + 1 < n {
                    c.push((j + 1, -1.0));
                }
                c
            })
            .collect();
        let m = CscMatrix::from_columns(n, &cols);
        let basic: Vec<usize> = (0..n).collect();
        let mut f = Factorization::factorize(&m, &basic).unwrap();
        assert!(
            f.factor_nnz() <= 3 * n,
            "bidiagonal basis filled in: {} nonzeros",
            f.factor_nnz()
        );
        // And it still solves correctly.
        let mut b = vec![0.0; n];
        for (j, x) in (0..n).map(|j| (j, 1.0 + (j % 3) as f64)) {
            m.scatter_col(j, x, &mut b);
        }
        f.ftran(&mut b);
        for (j, got) in b.iter().enumerate() {
            let want = 1.0 + (j % 3) as f64;
            assert!((got - want).abs() < 1e-9, "x[{j}] = {got}, want {want}");
        }
    }

    #[test]
    fn basis_bookkeeping() {
        let b = Basis {
            statuses: vec![
                VarStatus::Basic,
                VarStatus::AtLower,
                VarStatus::AtUpper,
                VarStatus::Basic,
                VarStatus::Free,
            ],
        };
        assert_eq!(b.statuses.len(), 5);
        assert_eq!(b.num_basic(), 2);
        assert!(b.fits(5, 2));
        assert!(!b.fits(5, 3));
        assert!(!b.fits(4, 2));
    }
}
