//! Row-major dense matrix with the handful of operations the stack needs.

use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense, row-major `rows × cols` matrix of `f64`.
///
/// Sized for the paper's use case — stochastic matrices of order `d+1`
/// where `d` is the per-PM VM cap (16 in the paper's experiments) — but
/// correct for any size that fits in memory.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be nonzero");
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds a matrix from a row-major vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length must match dimensions");
        assert!(rows > 0 && cols > 0, "matrix dimensions must be nonzero");
        Self { rows, cols, data }
    }

    /// Builds a matrix by evaluating `f(row, col)` at every entry.
    pub(crate) fn from_fn(
        rows: usize,
        cols: usize,
        mut f: impl FnMut(usize, usize) -> f64,
    ) -> Self {
        let mut m = Self::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// Returns `true` iff the matrix is square.
    #[inline]
    pub(crate) fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Immutable view of row `i`.
    #[inline]
    pub(crate) fn row(&self, i: usize) -> &[f64] {
        debug_assert!(i < self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Swaps rows `a` and `b` in place.
    pub(crate) fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        let (a, b) = (a.min(b), a.max(b));
        let (head, tail) = self.data.split_at_mut(b * self.cols);
        head[a * self.cols..(a + 1) * self.cols].swap_with_slice(&mut tail[..self.cols]);
    }

    /// Row-vector × matrix product: `out[j] = Σᵢ v[i] · self[i][j]`.
    ///
    /// This is one step of a chain's evolution (`Π ← ΠP`).
    ///
    /// # Panics
    /// Panics if `v.len() != self.rows()`.
    pub fn vecmul_left(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.rows, "vector length must match row count");
        let mut out = vec![0.0; self.cols];
        for (i, &vi) in v.iter().enumerate() {
            if vi == 0.0 {
                continue;
            }
            for (o, &m) in out.iter_mut().zip(self.row(i)) {
                *o += vi * m;
            }
        }
        out
    }

    /// Checks whether the matrix is row-stochastic within `tol`:
    /// all entries in `[-tol, 1 + tol]` and every row summing to `1 ± tol`.
    pub fn is_row_stochastic(&self, tol: f64) -> bool {
        (0..self.rows).all(|i| {
            let row = self.row(i);
            let sum: f64 = row.iter().sum();
            (sum - 1.0).abs() <= tol && row.iter().all(|&x| x >= -tol && x <= 1.0 + tol)
        })
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows {
            write!(f, "  [")?;
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:.6}", self[(i, j)])?;
            }
            writeln!(f, "]")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_requested_shape_and_is_zero() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols, 4);
        for i in 0..3 {
            for j in 0..4 {
                assert_eq!(m[(i, j)], 0.0);
            }
        }
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_dimension_panics() {
        let _ = Matrix::zeros(0, 3);
    }

    #[test]
    fn from_fn_matches_closure() {
        let m = Matrix::from_fn(2, 3, |i, j| (i * 3 + j) as f64);
        assert_eq!(m[(0, 0)], 0.0);
        assert_eq!(m[(1, 2)], 5.0);
    }

    #[test]
    #[should_panic(expected = "data length")]
    fn from_vec_rejects_bad_length() {
        let _ = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn vecmul_left_matches_matmul() {
        let a = Matrix::from_fn(3, 3, |i, j| ((i + 1) * (j + 2)) as f64);
        let v = [1.0, -2.0, 0.5];
        let via_vec = a.vecmul_left(&v);
        for j in 0..3 {
            let entry: f64 = (0..3).map(|i| v[i] * a[(i, j)]).sum();
            assert!((via_vec[j] - entry).abs() < 1e-12);
        }
    }

    #[test]
    fn swap_rows_swaps_and_is_noop_on_same_index() {
        let mut a = Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        a.swap_rows(0, 2);
        assert_eq!(a.row(0), &[5.0, 6.0]);
        assert_eq!(a.row(2), &[1.0, 2.0]);
        let before = a.clone();
        a.swap_rows(1, 1);
        assert_eq!(a, before);
    }

    #[test]
    fn row_stochastic_check() {
        let p = Matrix::from_vec(2, 2, vec![0.9, 0.1, 0.4, 0.6]);
        assert!(p.is_row_stochastic(1e-12));
        let bad = Matrix::from_vec(2, 2, vec![0.9, 0.2, 0.4, 0.6]);
        assert!(!bad.is_row_stochastic(1e-12));
        let neg = Matrix::from_vec(2, 2, vec![1.1, -0.1, 0.4, 0.6]);
        assert!(!neg.is_row_stochastic(1e-12));
    }
}
