//! Compressed sparse column (CSC) matrices for the revised simplex.
//!
//! The revised simplex ([`crate::revised`]) never materializes a dense
//! tableau: it stores the constraint matrix once in CSC layout and touches
//! only the nonzeros during pricing and ratio tests, so its per-iteration
//! cost tracks `nnz` plus the (small) basis dimension instead of the dense
//! `rows × columns` product.

/// A read-only sparse matrix in compressed-sparse-column layout.
#[derive(Debug, Clone)]
pub struct CscMatrix {
    num_rows: usize,
    /// `col_ptr[j]..col_ptr[j + 1]` indexes column `j`'s entries.
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CscMatrix {
    /// Build from per-column `(row, value)` entry lists. Zero entries are
    /// dropped; duplicate rows within a column are summed. The kernel builds
    /// its matrix from rows ([`crate::RevisedLp::from_problem`]); this is the
    /// tests' way to write one down.
    #[cfg(test)]
    pub fn from_columns(num_rows: usize, columns: &[Vec<(usize, f64)>]) -> CscMatrix {
        let mut col_ptr = Vec::with_capacity(columns.len() + 1);
        let mut row_idx = Vec::new();
        let mut values = Vec::new();
        col_ptr.push(0);
        let mut dense = vec![0.0f64; num_rows];
        let mut touched: Vec<usize> = Vec::new();
        for col in columns {
            for &(r, v) in col {
                debug_assert!(r < num_rows, "row index {r} out of range");
                if dense[r] == 0.0 && v != 0.0 {
                    touched.push(r);
                }
                dense[r] += v;
            }
            touched.sort_unstable();
            for &r in &touched {
                if dense[r] != 0.0 {
                    row_idx.push(r);
                    values.push(dense[r]);
                }
                dense[r] = 0.0;
            }
            touched.clear();
            col_ptr.push(row_idx.len());
        }
        CscMatrix {
            num_rows,
            col_ptr,
            row_idx,
            values,
        }
    }

    /// Adopt already-compressed arrays: column `j`'s entries are
    /// `col_ptr[j]..col_ptr[j + 1]` of `row_idx`/`values`, sorted by row,
    /// nonzero and without repeats.
    pub(crate) fn from_parts(
        num_rows: usize,
        col_ptr: Vec<usize>,
        row_idx: Vec<usize>,
        values: Vec<f64>,
    ) -> CscMatrix {
        debug_assert_eq!(col_ptr.last(), Some(&row_idx.len()));
        debug_assert_eq!(row_idx.len(), values.len());
        CscMatrix {
            num_rows,
            col_ptr,
            row_idx,
            values,
        }
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Number of columns.
    pub fn num_cols(&self) -> usize {
        self.col_ptr.len() - 1
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Column `j` as parallel `(row indices, values)` slices.
    #[inline]
    pub fn col(&self, j: usize) -> (&[usize], &[f64]) {
        let lo = self.col_ptr[j];
        let hi = self.col_ptr[j + 1];
        (&self.row_idx[lo..hi], &self.values[lo..hi])
    }

    /// Dot product of column `j` with a dense vector.
    #[inline]
    pub fn col_dot(&self, j: usize, dense: &[f64]) -> f64 {
        let (rows, vals) = self.col(j);
        rows.iter()
            .zip(vals)
            .map(|(&r, &v)| v * dense[r])
            .sum::<f64>()
    }

    /// Accumulate `scale ×` column `j` into a dense vector.
    #[inline]
    pub fn scatter_col(&self, j: usize, scale: f64, into: &mut [f64]) {
        let (rows, vals) = self.col(j);
        for (&r, &v) in rows.iter().zip(vals) {
            into[r] += scale * v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CscMatrix {
        // | 1 0 2 |
        // | 0 3 0 |
        CscMatrix::from_columns(2, &[vec![(0, 1.0)], vec![(1, 3.0)], vec![(0, 2.0)]])
    }

    #[test]
    fn shape_and_nnz() {
        let m = sample();
        assert_eq!(m.num_rows(), 2);
        assert_eq!(m.num_cols(), 3);
        assert_eq!(m.nnz(), 3);
    }

    #[test]
    fn column_access_and_dot() {
        let m = sample();
        let (rows, vals) = m.col(1);
        assert_eq!(rows, &[1]);
        assert_eq!(vals, &[3.0]);
        assert_eq!(m.col_dot(1, &[10.0, 5.0]), 15.0);
        assert_eq!(m.col_dot(0, &[10.0, 5.0]), 10.0);
    }

    #[test]
    fn scatter_accumulates() {
        let m = sample();
        let mut acc = vec![1.0, 1.0];
        m.scatter_col(2, 2.0, &mut acc);
        assert_eq!(acc, vec![5.0, 1.0]);
    }

    #[test]
    fn duplicates_are_summed_and_zeros_dropped() {
        let m = CscMatrix::from_columns(3, &[vec![(1, 2.0), (1, 3.0), (2, 0.0)], vec![]]);
        assert_eq!(m.nnz(), 1);
        let (rows, vals) = m.col(0);
        assert_eq!(rows, &[1]);
        assert_eq!(vals, &[5.0]);
        assert!(m.col(1).0.is_empty());
    }

    #[test]
    fn cancelling_duplicates_vanish() {
        let m = CscMatrix::from_columns(2, &[vec![(0, 1.0), (0, -1.0)]]);
        assert_eq!(m.nnz(), 0);
    }
}
