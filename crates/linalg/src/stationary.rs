//! Stationary distributions of row-stochastic matrices.
//!
//! Implements the paper's Eq. 14: solve the homogeneous system `Π(P − I) = 0`
//! together with the normalization `Σπᵢ = 1`. Transposed, that is
//! `(Pᵀ − I)x = 0`; the system is rank-deficient by exactly one for an
//! irreducible chain, so we overwrite the last row with the normalization
//! equation and hand the now-nonsingular system to the direct solver.

use crate::solve::{solve, LinalgError};
use crate::Matrix;

/// Computes the stationary distribution `Π` of the row-stochastic matrix `p`
/// by direct linear solve (Gaussian elimination), i.e. the paper's Eq. 14.
///
/// Small negative entries caused by roundoff are clamped to zero and the
/// result is renormalized, so the output is always a probability vector.
///
/// # Errors
/// Propagates [`LinalgError::Singular`] when the modified system is singular
/// (e.g. a reducible chain with several closed classes, which has no unique
/// stationary distribution).
///
/// # Panics
/// Panics if `p` is not square or not row-stochastic to within `1e-9`.
pub fn stationary_distribution(p: &Matrix) -> Result<Vec<f64>, LinalgError> {
    assert!(p.is_square(), "transition matrix must be square");
    assert!(
        p.is_row_stochastic(1e-9),
        "transition matrix must be row-stochastic"
    );
    let n = p.rows();

    // Build A = Pᵀ − I, then replace the last row by the normalization row.
    let mut a = Matrix::from_fn(n, n, |i, j| p[(j, i)] - if i == j { 1.0 } else { 0.0 });
    for j in 0..n {
        a[(n - 1, j)] = 1.0;
    }
    let mut b = vec![0.0; n];
    b[n - 1] = 1.0;

    let mut pi = solve(a, &b)?;
    for x in pi.iter_mut() {
        if *x < 0.0 {
            debug_assert!(*x > -1e-9, "large negative stationary mass {x}");
            *x = 0.0;
        }
    }
    let sum: f64 = pi.iter().sum();
    debug_assert!(sum > 0.0);
    for x in pi.iter_mut() {
        *x /= sum;
    }
    Ok(pi)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < tol, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn two_state_closed_form() {
        let (p_on, p_off) = (0.01, 0.09);
        let p = Matrix::from_vec(2, 2, vec![1.0 - p_on, p_on, p_off, 1.0 - p_off]);
        let pi = stationary_distribution(&p).unwrap();
        assert_close(&pi, &[p_off / (p_on + p_off), p_on / (p_on + p_off)], 1e-12);
    }

    #[test]
    fn stationary_is_fixed_point() {
        let p = Matrix::from_vec(3, 3, vec![0.5, 0.25, 0.25, 0.2, 0.6, 0.2, 0.1, 0.3, 0.6]);
        let pi = stationary_distribution(&p).unwrap();
        let pip = p.vecmul_left(&pi);
        assert_close(&pi, &pip, 1e-12);
        let sum: f64 = pi.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn uniform_for_doubly_stochastic() {
        let p = Matrix::from_vec(3, 3, vec![0.2, 0.3, 0.5, 0.5, 0.2, 0.3, 0.3, 0.5, 0.2]);
        let pi = stationary_distribution(&p).unwrap();
        assert_close(&pi, &[1.0 / 3.0; 3], 1e-12);
    }

    #[test]
    #[should_panic(expected = "row-stochastic")]
    fn rejects_non_stochastic_matrix() {
        let p = Matrix::from_vec(2, 2, vec![0.9, 0.2, 0.4, 0.6]);
        let _ = stationary_distribution(&p);
    }

    #[test]
    fn reducible_chain_with_two_closed_classes_is_singular() {
        // Block-diagonal: two absorbing states => no unique stationary dist.
        let p = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        match stationary_distribution(&p) {
            Err(LinalgError::Singular { .. }) => {}
            other => panic!("expected Singular, got {other:?}"),
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn stochastic_matrix(n: usize) -> impl Strategy<Value = Matrix> {
        // Strictly positive rows => irreducible, aperiodic chain.
        proptest::collection::vec(0.05_f64..1.0, n * n).prop_map(move |raw| {
            let mut m = Matrix::from_vec(n, n, raw);
            for i in 0..n {
                let s: f64 = m.row(i).iter().sum();
                for j in 0..n {
                    m[(i, j)] /= s;
                }
            }
            m
        })
    }

    proptest! {
        #[test]
        fn stationary_is_probability_vector_and_fixed_point(p in stochastic_matrix(5)) {
            let pi = stationary_distribution(&p).unwrap();
            let sum: f64 = pi.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-10);
            prop_assert!(pi.iter().all(|&x| (0.0..=1.0 + 1e-12).contains(&x)));
            let pip = p.vecmul_left(&pi);
            for (a, b) in pi.iter().zip(&pip) {
                prop_assert!((a - b).abs() < 1e-10);
            }
        }

    }
}
