//! Numerically robust binomial PMFs.
//!
//! Paper Eq. 12 convolves two binomial distributions; every entry of the
//! aggregate transition matrix is a sum of products of binomial PMF values.
//! For the paper's parameters (`k ≤ d = 16`) naive evaluation would do, but
//! the benches sweep `k` into the hundreds, where `C(n,x)` overflows `f64`
//! long before the PMF itself leaves `(0,1)`. All PMFs are therefore
//! evaluated in log-space via a Lanczos `ln Γ`.

/// Natural log of the gamma function via the Lanczos approximation
/// (g = 7, 9 coefficients). Accurate to ~1e-13 relative error for `x > 0`.
#[allow(clippy::excessive_precision)] // canonical Lanczos coefficients, kept verbatim
pub fn ln_gamma(x: f64) -> f64 {
    // Coefficients from Numerical Recipes / Boost (g = 7).
    const COEFFS: [f64; 8] = [
        676.5203681218851,
        -1259.1392167224028,
        771.32342877765313,
        -176.61502916214059,
        12.507343278686905,
        -0.13857109526572012,
        9.9843695780195716e-6,
        1.5056327351493116e-7,
    ];
    assert!(x > 0.0, "ln_gamma requires a positive argument, got {x}");
    if x < 0.5 {
        // Reflection formula keeps accuracy near zero.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = 0.99999999999980993;
    for (i, &c) in COEFFS.iter().enumerate() {
        acc += c / (x + (i + 1) as f64);
    }
    let t = x + 7.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// `ln C(n, x)` with the paper's convention extended: callers must pass
/// `0 ≤ x ≤ n` (out-of-range values are handled by [`BinomialPmf::pmf`]
/// returning 0 instead).
fn ln_choose(n: u64, x: u64) -> f64 {
    debug_assert!(x <= n);
    ln_gamma(n as f64 + 1.0) - ln_gamma(x as f64 + 1.0) - ln_gamma((n - x) as f64 + 1.0)
}

/// The PMF of a `Binomial(n, p)` random variable.
///
/// Follows the paper's convention that `C(n, x) = 0` when `x > n` (and
/// treats negative arguments as impossible via the signed `pmf_signed`
/// entry point used by Eq. 12's convolution).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BinomialPmf {
    n: u64,
    p: f64,
}

impl BinomialPmf {
    /// Creates the PMF of `Binomial(n, p)`.
    ///
    /// # Panics
    /// Panics unless `p ∈ [0, 1]`.
    pub fn new(n: u64, p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "probability must be in [0,1], got {p}"
        );
        Self { n, p }
    }

    /// `Pr[X = x]`. Zero for `x > n`.
    pub fn pmf(&self, x: u64) -> f64 {
        if x > self.n {
            return 0.0;
        }
        // Degenerate edges first: 0^0 = 1 in the PMF convention.
        if self.p == 0.0 {
            return if x == 0 { 1.0 } else { 0.0 };
        }
        if self.p == 1.0 {
            return if x == self.n { 1.0 } else { 0.0 };
        }
        if self.n == 0 {
            return if x == 0 { 1.0 } else { 0.0 };
        }
        let ln_pmf = ln_choose(self.n, x)
            + x as f64 * self.p.ln()
            + (self.n - x) as f64 * (1.0 - self.p).ln();
        ln_pmf.exp()
    }

    /// `Pr[X = x]` for a possibly-negative `x` — Eq. 12 indexes the entering
    /// count as `j - i + r`, which can be negative; the paper defines those
    /// terms to vanish.
    #[inline]
    pub(crate) fn pmf_signed(&self, x: i64) -> f64 {
        if x < 0 {
            0.0
        } else {
            self.pmf(x as u64)
        }
    }

    /// The full PMF vector `[Pr[X=0], …, Pr[X=n]]`, bit-identical to
    /// [`Self::pmf`] at each `x`: the same terms, with each `ln x!` and the
    /// two logarithms computed once instead of per term — `ln_gamma` was
    /// most of a MapCal table build.
    pub(crate) fn pmf_all(&self) -> Vec<f64> {
        self.pmf_all_with(&ln_factorials(self.n as usize))
    }

    /// [`Self::pmf_all`] over the caller's [`ln_factorials`]`(n)`, for a
    /// caller that expands one `n` at many `p`.
    pub(crate) fn pmf_all_with(&self, ln_fact: &[f64]) -> Vec<f64> {
        let n = self.n as usize;
        if self.p == 0.0 || self.p == 1.0 || n == 0 {
            return (0..=self.n).map(|x| self.pmf(x)).collect();
        }
        let (ln_p, ln_q) = (self.p.ln(), (1.0 - self.p).ln());
        (0..=n)
            .map(|x| {
                let ln_choose = ln_fact[n] - ln_fact[x] - ln_fact[n - x];
                (ln_choose + x as f64 * ln_p + (n - x) as f64 * ln_q).exp()
            })
            .collect()
    }
}

/// `ln x!` (as `ln_gamma(x + 1)`) for `x ∈ [0, n]`.
pub(crate) fn ln_factorials(n: usize) -> Vec<f64> {
    (0..=n).map(|i| ln_gamma(i as f64 + 1.0)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_gamma_matches_factorials() {
        // Γ(n+1) = n!
        let facts = [1.0, 1.0, 2.0, 6.0, 24.0, 120.0, 720.0, 5040.0];
        for (n, &f) in facts.iter().enumerate() {
            let got = ln_gamma(n as f64 + 1.0).exp();
            assert!((got - f).abs() / f < 1e-12, "n={n}: {got} vs {f}");
        }
    }

    #[test]
    fn ln_gamma_half() {
        // Γ(1/2) = √π
        let got = ln_gamma(0.5).exp();
        assert!((got - std::f64::consts::PI.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn pmf_sums_to_one() {
        for &(n, p) in &[(0u64, 0.3), (1, 0.5), (16, 0.01), (16, 0.09), (200, 0.1)] {
            let b = BinomialPmf::new(n, p);
            let sum: f64 = b.pmf_all().iter().sum();
            assert!((sum - 1.0).abs() < 1e-10, "n={n} p={p}: sum={sum}");
        }
    }

    #[test]
    fn pmf_known_values() {
        let b = BinomialPmf::new(4, 0.5);
        assert!((b.pmf(2) - 0.375).abs() < 1e-12);
        assert!((b.pmf(0) - 0.0625).abs() < 1e-12);
        assert_eq!(b.pmf(5), 0.0);
    }

    #[test]
    fn degenerate_probabilities() {
        let b0 = BinomialPmf::new(7, 0.0);
        assert_eq!(b0.pmf(0), 1.0);
        assert_eq!(b0.pmf(1), 0.0);
        let b1 = BinomialPmf::new(7, 1.0);
        assert_eq!(b1.pmf(7), 1.0);
        assert_eq!(b1.pmf(6), 0.0);
    }

    #[test]
    fn zero_trials() {
        let b = BinomialPmf::new(0, 0.42);
        assert_eq!(b.pmf(0), 1.0);
        assert_eq!(b.pmf(1), 0.0);
    }

    #[test]
    fn pmf_all_is_pmf_bit_for_bit() {
        for (n, p) in [(1, 0.5), (16, 0.1), (200, 0.37), (1100, 0.999), (3000, 0.5)] {
            let b = BinomialPmf::new(n, p);
            let all = b.pmf_all();
            for (x, &v) in all.iter().enumerate() {
                assert_eq!(v.to_bits(), b.pmf(x as u64).to_bits(), "n {n} p {p} x {x}");
            }
        }
    }

    #[test]
    fn signed_pmf_handles_negative() {
        let b = BinomialPmf::new(3, 0.4);
        assert_eq!(b.pmf_signed(-1), 0.0);
        assert_eq!(b.pmf_signed(2), b.pmf(2));
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn rejects_out_of_range_probability() {
        let _ = BinomialPmf::new(3, 1.5);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn pmf_is_normalized_and_nonnegative(n in 0u64..120, p in 0.0f64..=1.0) {
            let b = BinomialPmf::new(n, p);
            let all = b.pmf_all();
            prop_assert!(all.iter().all(|&x| (0.0..=1.0 + 1e-12).contains(&x)));
            let sum: f64 = all.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-9);
        }

        #[test]
        fn pmf_mean_matches_analytic(n in 1u64..100, p in 0.01f64..0.99) {
            let b = BinomialPmf::new(n, p);
            let mean: f64 = b.pmf_all().iter().enumerate().map(|(x, &w)| x as f64 * w).sum();
            prop_assert!((mean - n as f64 * p).abs() < 1e-8);
        }

        #[test]
        fn symmetry_under_p_complement(n in 0u64..60, p in 0.0f64..=1.0, x in 0u64..60) {
            prop_assume!(x <= n);
            let b = BinomialPmf::new(n, p);
            let c = BinomialPmf::new(n, 1.0 - p);
            prop_assert!((b.pmf(x) - c.pmf(n - x)).abs() < 1e-10);
        }
    }
}
