//! Gaussian elimination with partial pivoting.

use crate::Matrix;
use std::fmt;

/// Errors produced by the linear solvers.
#[derive(Debug, Clone, PartialEq)]
pub enum LinalgError {
    /// The coefficient matrix is (numerically) singular; the field carries
    /// the magnitude of the best available pivot.
    Singular { pivot: f64 },
    /// Dimension mismatch between the matrix and right-hand side.
    DimensionMismatch { rows: usize, rhs: usize },
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::Singular { pivot } => {
                write!(f, "matrix is numerically singular (best pivot {pivot:.3e})")
            }
            LinalgError::DimensionMismatch { rows, rhs } => {
                write!(f, "dimension mismatch: {rows} rows vs rhs of length {rhs}")
            }
        }
    }
}

impl std::error::Error for LinalgError {}

/// Pivot magnitudes below this are treated as zero during elimination.
const PIVOT_EPS: f64 = 1e-13;

/// Solves the square system `A x = b` by Gaussian elimination with partial
/// pivoting, returning `x`.
///
/// `a` is consumed by value because elimination works in place on a copy the
/// caller usually does not need afterwards.
///
/// # Errors
/// [`LinalgError::Singular`] if no acceptable pivot exists in some column,
/// [`LinalgError::DimensionMismatch`] if `b.len() != a.rows()`.
///
/// # Panics
/// Panics if `a` is not square.
pub fn solve(mut a: Matrix, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
    assert!(a.is_square(), "solve requires a square matrix");
    let n = a.rows();
    if b.len() != n {
        return Err(LinalgError::DimensionMismatch {
            rows: n,
            rhs: b.len(),
        });
    }
    let mut x = b.to_vec();

    // Forward elimination with partial pivoting.
    for col in 0..n {
        let (pivot_row, pivot_val) = (col..n)
            .map(|r| (r, a[(r, col)].abs()))
            .max_by(|l, r| l.1.total_cmp(&r.1))
            .expect("nonempty pivot candidates");
        if pivot_val < PIVOT_EPS {
            return Err(LinalgError::Singular { pivot: pivot_val });
        }
        if pivot_row != col {
            a.swap_rows(pivot_row, col);
            x.swap(pivot_row, col);
        }
        let pivot = a[(col, col)];
        for r in col + 1..n {
            let factor = a[(r, col)] / pivot;
            if factor == 0.0 {
                continue;
            }
            a[(r, col)] = 0.0;
            for c in col + 1..n {
                let sub = factor * a[(col, c)];
                a[(r, c)] -= sub;
            }
            x[r] -= factor * x[col];
        }
    }

    // Back substitution.
    for col in (0..n).rev() {
        let mut acc = x[col];
        for c in col + 1..n {
            acc -= a[(col, c)] * x[c];
        }
        x[col] = acc / a[(col, col)];
    }
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_identity() {
        let a = Matrix::from_fn(4, 4, |i, j| if i == j { 1.0 } else { 0.0 });
        let b = [1.0, -2.0, 3.5, 0.0];
        let x = solve(a, &b).unwrap();
        assert_eq!(x, b.to_vec());
    }

    #[test]
    fn solves_known_2x2() {
        // 2x +  y = 5
        //  x + 3y = 10  => x = 1, y = 3
        let a = Matrix::from_vec(2, 2, vec![2.0, 1.0, 1.0, 3.0]);
        let x = solve(a, &[5.0, 10.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn needs_pivoting() {
        // Leading zero forces a row swap.
        let a = Matrix::from_vec(2, 2, vec![0.0, 1.0, 1.0, 0.0]);
        let x = solve(a, &[7.0, 9.0]).unwrap();
        assert!((x[0] - 9.0).abs() < 1e-12);
        assert!((x[1] - 7.0).abs() < 1e-12);
    }

    #[test]
    fn detects_singular() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 2.0, 4.0]);
        match solve(a, &[1.0, 2.0]) {
            Err(LinalgError::Singular { .. }) => {}
            other => panic!("expected Singular, got {other:?}"),
        }
    }

    #[test]
    fn detects_dimension_mismatch() {
        let a = Matrix::from_fn(3, 3, |i, j| if i == j { 1.0 } else { 0.0 });
        assert_eq!(
            solve(a, &[1.0, 2.0]),
            Err(LinalgError::DimensionMismatch { rows: 3, rhs: 2 })
        );
    }

    #[test]
    fn residual_of_exact_solution_is_small() {
        let a = Matrix::from_fn(5, 5, |i, j| {
            if i == j {
                4.0
            } else {
                1.0 / (1 + i + j) as f64
            }
        });
        let b = [1.0, 2.0, 3.0, 4.0, 5.0];
        let x = solve(a.clone(), &b).unwrap();
        // A is symmetric, so `xᵀA` is `Ax`.
        let ax = a.vecmul_left(&x);
        assert!(ax.iter().zip(&b).all(|(ax, b)| (ax - b).abs() < 1e-10));
    }

    #[test]
    fn hilbert_like_moderate_conditioning() {
        // A mildly ill-conditioned system still solves to a tight residual.
        let n = 8;
        let a = Matrix::from_fn(n, n, |i, j| {
            1.0 / (i + j + 1) as f64 + if i == j { 0.5 } else { 0.0 }
        });
        let b: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let x = solve(a.clone(), &b).unwrap();
        // A is symmetric, so `xᵀA` is `Ax`.
        let ax = a.vecmul_left(&x);
        assert!(ax.iter().zip(&b).all(|(ax, b)| (ax - b).abs() < 1e-9));
    }

    #[test]
    fn error_display_is_informative() {
        let e = LinalgError::Singular { pivot: 1e-20 };
        assert!(e.to_string().contains("singular"));
        let e = LinalgError::DimensionMismatch { rows: 3, rhs: 10 };
        assert!(e.to_string().contains("10"));
    }
}
