//! Statistical inference for simulation-backed claims.
//!
//! The paper's performance constraint is `CVR ≤ ρ`. A simulation measures
//! CVR with sampling error, so "the constraint holds" is a statistical
//! claim. This module provides the pieces to make it honestly: Wilson
//! score intervals for violation proportions, the run length needed to
//! certify a bound at a given confidence, a two-proportion comparison
//! for A/B-style scheme comparisons, and an exact sign test for paired
//! before/after benchmark runs.
//!
//! Note: consecutive simulation steps are *correlated* for bursty
//! workloads (that is the whole point of the model), so the effective
//! sample size is smaller than the step count. [`effective_sample_size`]
//! applies the standard AR(1)-style correction with the chain's known
//! lag-1 autocorrelation.

/// The standard normal quantile for two-sided confidence `conf`
/// (e.g. 0.95 → 1.96). Thin wrapper with the common values exact enough
/// for test assertions.
fn z_for(conf: f64) -> f64 {
    assert!(conf > 0.0 && conf < 1.0, "confidence must be in (0,1)");
    // Reuse the placement crate's quantile? metrics must stay leaf-level,
    // so implement the same Acklam approximation locally.
    inverse_normal_cdf(0.5 + conf / 2.0)
}

#[allow(clippy::excessive_precision)] // canonical Acklam coefficients
fn inverse_normal_cdf(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0);
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383577518672690e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;
    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        -inverse_normal_cdf(1.0 - p)
    }
}

/// A Wilson score confidence interval for a proportion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProportionCi {
    /// Point estimate `successes / trials`.
    pub estimate: f64,
    /// Lower bound.
    pub lo: f64,
    /// Upper bound.
    pub hi: f64,
    /// Confidence level used.
    pub confidence: f64,
}

/// Wilson score interval for `successes` out of `trials` at two-sided
/// confidence `conf`.
///
/// # Examples
/// ```
/// use bursty_metrics::wilson_interval;
///
/// // 12 violating steps out of 10 000 observed: is CVR ≤ 1%?
/// let ci = wilson_interval(12, 10_000, 0.95);
/// assert!(ci.hi < 0.01); // certified with room to spare
/// ```
///
/// # Panics
/// Panics when `trials == 0` or `successes > trials`.
pub fn wilson_interval(successes: u64, trials: u64, conf: f64) -> ProportionCi {
    assert!(trials > 0, "need at least one trial");
    assert!(successes <= trials, "successes cannot exceed trials");
    wilson_interval_fractional(successes as f64, trials as f64, conf)
}

/// Wilson score interval for *fractional* counts — the effective-sample-
/// size variant. Discounting `n` correlated steps to `n_eff` independent
/// ones scales both counts by `n_eff / n`; rounding the scaled success
/// count back to an integer would destroy small-but-nonzero proportions
/// (3 violations at scale 0.005 round to zero successes — an interval
/// anchored at the wrong estimate). The Wilson formula only ever uses
/// `p = successes/trials` and `n = trials` as reals, so this variant
/// accepts them as reals and preserves the empirical proportion exactly.
///
/// Bit-identical to [`wilson_interval`] for integer inputs.
///
/// # Panics
/// Panics when `trials <= 0`, `successes < 0`, or `successes > trials`.
pub fn wilson_interval_fractional(successes: f64, trials: f64, conf: f64) -> ProportionCi {
    assert!(trials > 0.0, "need a positive trial count");
    assert!(
        successes >= 0.0 && successes <= trials,
        "successes must lie in [0, trials]"
    );
    let n = trials;
    let p = successes / n;
    let z = z_for(conf);
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let center = (p + z2 / (2.0 * n)) / denom;
    let half = z * ((p * (1.0 - p) + z2 / (4.0 * n)) / n).sqrt() / denom;
    ProportionCi {
        estimate: p,
        lo: (center - half).max(0.0),
        hi: (center + half).min(1.0),
        confidence: conf,
    }
}

/// Corrects a step count for temporal correlation: with lag-1
/// autocorrelation `r ∈ [0, 1)`, `n` correlated steps carry roughly
/// `n·(1−r)/(1+r)` independent observations (AR(1) variance inflation).
pub fn effective_sample_size(steps: u64, lag1_autocorrelation: f64) -> f64 {
    assert!(
        (0.0..1.0).contains(&lag1_autocorrelation),
        "autocorrelation must be in [0,1) for this correction"
    );
    let r = lag1_autocorrelation;
    steps as f64 * (1.0 - r) / (1.0 + r)
}

/// Verdict of a bound certification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundVerdict {
    /// The upper confidence bound is at or below the target: certified.
    Holds,
    /// The lower confidence bound exceeds the target: refuted.
    Violated,
    /// The interval straddles the target: more data needed.
    Inconclusive,
}

/// Tests `proportion ≤ bound` from `successes`/`trials` at confidence
/// `conf`, optionally discounting for autocorrelation `r` by shrinking the
/// effective trial count.
pub fn certify_bound(
    successes: u64,
    trials: u64,
    bound: f64,
    conf: f64,
    lag1_autocorrelation: f64,
) -> BoundVerdict {
    let ess = effective_sample_size(trials, lag1_autocorrelation).max(1.0);
    // Shrink to the effective sample size while preserving the empirical
    // rate exactly: form the interval at fractional counts rather than
    // rounding, which would zero out (or inflate) small success counts.
    let p_hat = successes as f64 / trials as f64;
    let ci = wilson_interval_fractional(p_hat * ess, ess, conf);
    if ci.hi <= bound {
        BoundVerdict::Holds
    } else if ci.lo > bound {
        BoundVerdict::Violated
    } else {
        BoundVerdict::Inconclusive
    }
}

/// The number of *independent* observations needed so that, if the true
/// proportion is `p_true < bound`, the Wilson upper bound falls below
/// `bound` (planning tool for simulation length; divide by
/// `(1−r)/(1+r)` for correlated steps).
pub fn samples_to_certify(p_true: f64, bound: f64, conf: f64) -> u64 {
    assert!(p_true < bound, "cannot certify a bound the truth violates");
    // The Wilson upper bound is wider than the plain normal-approximation
    // margin (it carries z²/2n continuity terms), so solve against Wilson
    // itself: exponential search for a feasible n, then bisect.
    let certifies = |n: u64| -> bool {
        let successes = (p_true * n as f64).round() as u64;
        wilson_interval(successes.min(n), n, conf).hi <= bound
    };
    let mut hi = 1u64;
    while !certifies(hi) {
        hi = hi.saturating_mul(2);
        assert!(hi < 1 << 40, "certification horizon unreasonably large");
    }
    let mut lo = hi / 2;
    while lo + 1 < hi {
        let mid = lo + (hi - lo) / 2;
        if certifies(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

/// The exact one-sided sign test: the probability of winning at least
/// `wins` of `pairs` paired comparisons (ties already dropped) if either
/// side were equally likely to win each pair, `P(X ≥ wins)` for
/// `X ~ Binomial(pairs, 1/2)`. Small means the wins are unlikely to be
/// chance: 9 of 10 gives 11/1024 ≈ 0.0107.
///
/// The binomial terms are summed in log space, so any pair count works.
///
/// # Panics
/// Panics if `wins > pairs`.
pub fn sign_test(wins: u64, pairs: u64) -> f64 {
    assert!(wins <= pairs, "won {wins} of only {pairs} pairs");
    let n = pairs as f64;
    // ln C(n, wins), then each next term by the ratio (n − i) / (i + 1).
    let mut ln_term = (1..=wins)
        .map(|j| ((n - wins as f64 + j as f64) / j as f64).ln())
        .sum::<f64>()
        - n * std::f64::consts::LN_2;
    let mut tail = 0.0;
    for i in wins..=pairs {
        tail += ln_term.exp();
        ln_term += ((n - i as f64) / (i as f64 + 1.0)).ln();
    }
    tail.min(1.0)
}

/// `P(χ²_df > x)`, the upper regularized gamma `Q(df/2, x/2)`: by its
/// series below `a + 1` and its continued fraction above (Numerical
/// Recipes' `gammq`), with `ln Γ(df/2)` summed exactly from `Γ(1) = 1`
/// or `Γ(1/2) = √π`.
///
/// # Panics
/// Panics if `df == 0`.
pub fn chi_square_sf(x: f64, df: usize) -> f64 {
    assert!(
        df > 0,
        "a chi-square law needs at least one degree of freedom"
    );
    if x <= 0.0 {
        return 1.0;
    }
    let (a, z) = (df as f64 / 2.0, x / 2.0);
    let even = df.is_multiple_of(2);
    let mut ln_gamma_a = if even {
        0.0
    } else {
        0.5 * std::f64::consts::PI.ln()
    };
    let mut t = if even { 1.0 } else { 0.5 };
    while t < a {
        ln_gamma_a += t.ln();
        t += 1.0;
    }
    let front = (a * z.ln() - z - ln_gamma_a).exp();
    if z < a + 1.0 {
        let (mut term, mut sum, mut ap) = (1.0 / a, 1.0 / a, a);
        for _ in 0..10_000 {
            ap += 1.0;
            term *= z / ap;
            sum += term;
            if term.abs() < sum.abs() * 1e-16 {
                break;
            }
        }
        (1.0 - sum * front).clamp(0.0, 1.0)
    } else {
        // Lentz's method on the continued fraction of Q.
        let tiny = 1e-300;
        let mut b = z + 1.0 - a;
        let (mut c, mut d) = (1.0 / tiny, 1.0 / b);
        let mut h = d;
        for i in 1..10_000 {
            let an = -(i as f64) * (i as f64 - a);
            b += 2.0;
            d = an * d + b;
            if d.abs() < tiny {
                d = tiny;
            }
            c = b + an / c;
            if c.abs() < tiny {
                c = tiny;
            }
            d = 1.0 / d;
            let delta = d * c;
            h *= delta;
            if (delta - 1.0).abs() < 1e-16 {
                break;
            }
        }
        (front * h).clamp(0.0, 1.0)
    }
}

/// A chi-square goodness-of-fit result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChiSquare {
    /// `Σ (observed − expected)² / expected` over the pooled bins.
    pub statistic: f64,
    /// Pooled bins minus one.
    pub df: usize,
    /// `P(χ²_df > statistic)`.
    pub p_value: f64,
}

/// Tests the counts `observed` against the law `probs` (same bins, `probs`
/// summing to 1): adjacent bins are pooled left to right until each pool
/// expects at least 5, a short last pool joins the one before it, and
/// the statistic is referred to `χ²` with one degree fewer than pools.
/// `None` when fewer than two pools remain.
///
/// # Panics
/// Panics if the slices differ in length.
pub fn chi_square_gof(observed: &[u64], probs: &[f64]) -> Option<ChiSquare> {
    assert_eq!(observed.len(), probs.len(), "one probability per bin");
    let total: u64 = observed.iter().sum();
    let mut pools: Vec<(f64, f64)> = Vec::new();
    let (mut obs, mut exp) = (0.0, 0.0);
    for (&o, &p) in observed.iter().zip(probs) {
        obs += o as f64;
        exp += p * total as f64;
        if exp >= 5.0 {
            pools.push((obs, exp));
            (obs, exp) = (0.0, 0.0);
        }
    }
    if obs > 0.0 || exp > 0.0 {
        match pools.last_mut() {
            Some(last) => {
                last.0 += obs;
                last.1 += exp;
            }
            None => pools.push((obs, exp)),
        }
    }
    if pools.len() < 2 {
        return None;
    }
    let statistic = pools.iter().map(|(o, e)| (o - e).powi(2) / e).sum();
    let df = pools.len() - 1;
    Some(ChiSquare {
        statistic,
        df,
        p_value: chi_square_sf(statistic, df),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chi_square_tails_match_tables() {
        // (x, df, P(χ² > x)) from standard tables.
        for (x, df, want) in [
            (3.841458820694124, 1, 0.05),
            (6.634896601021213, 1, 0.01),
            (5.991464547107979, 2, 0.05),
            (18.307038053275146, 10, 0.05),
            (23.209251158954356, 10, 0.01),
            (2.0, 2, (-1.0f64).exp()),
            (124.34211340400407, 100, 0.05),
        ] {
            let got = chi_square_sf(x, df);
            assert!(
                (got - want).abs() < 1e-9 * want.max(1e-3),
                "x={x} df={df}: {got}"
            );
        }
        assert_eq!(chi_square_sf(0.0, 3), 1.0);
    }

    #[test]
    fn goodness_of_fit_pools_thin_bins() {
        // Expected 50, 30, 15, 3, 1, 1: the last three make one pool
        // of 5.
        let probs = [0.5, 0.3, 0.15, 0.03, 0.01, 0.01];
        let fit = chi_square_gof(&[50, 30, 15, 3, 1, 1], &probs).unwrap();
        assert_eq!(fit.df, 3);
        // Expected 3 past the last full pool joins it instead.
        let short = chi_square_gof(&[50, 30, 17, 3], &[0.5, 0.3, 0.17, 0.03]).unwrap();
        assert_eq!(short.df, 2);
        assert!(fit.statistic.abs() < 1e-12 && fit.p_value > 0.999);
        let off = chi_square_gof(&[20, 30, 50, 0, 0, 0], &probs).unwrap();
        assert!(off.p_value < 1e-6, "{off:?}");
        assert_eq!(chi_square_gof(&[3, 1], &[0.5, 0.5]), None);
    }

    #[test]
    fn sign_test_matches_hand_computed_tails() {
        // (wins, pairs, Σ_{i ≥ wins} C(pairs, i), as a numerator over
        // 2^pairs).
        let cases: [(u64, u64, u64); 12] = [
            (0, 0, 1),
            (0, 5, 32),
            (5, 5, 1),
            (4, 5, 6),
            (3, 5, 16),
            (9, 10, 11),
            (10, 10, 1),
            (8, 10, 56),
            (12, 15, 576),
            (15, 20, 21_700),
            (18, 20, 211),
            (10, 20, 616_666),
        ];
        for (wins, pairs, numerator) in cases {
            let exact = numerator as f64 / 2f64.powi(pairs as i32);
            let p = sign_test(wins, pairs);
            assert!(
                (p - exact).abs() <= 1e-12 * exact,
                "{wins} of {pairs}: {p} vs {exact}"
            );
        }
        // Fewer wins never make the evidence stronger.
        for pairs in 0..=20 {
            for wins in 1..=pairs {
                assert!(sign_test(wins - 1, pairs) >= sign_test(wins, pairs));
            }
        }
        assert!(sign_test(600, 1000) < 1e-9, "large pair counts work");
    }

    #[test]
    #[should_panic(expected = "pairs")]
    fn sign_test_rejects_more_wins_than_pairs() {
        let _ = sign_test(4, 3);
    }

    #[test]
    fn z_values_match_tables() {
        assert!((z_for(0.95) - 1.959964).abs() < 1e-4);
        assert!((z_for(0.99) - 2.575829).abs() < 1e-4);
    }

    #[test]
    fn wilson_interval_contains_estimate() {
        let ci = wilson_interval(10, 1000, 0.95);
        assert!((ci.estimate - 0.01).abs() < 1e-12);
        assert!(ci.lo < 0.01 && 0.01 < ci.hi);
        assert!(ci.lo > 0.0 && ci.hi < 0.03);
    }

    #[test]
    fn wilson_handles_extremes() {
        let zero = wilson_interval(0, 100, 0.95);
        assert_eq!(zero.estimate, 0.0);
        assert_eq!(zero.lo, 0.0);
        assert!(zero.hi > 0.0 && zero.hi < 0.05);
        let all = wilson_interval(100, 100, 0.95);
        assert_eq!(all.hi, 1.0);
        assert!(all.lo > 0.95);
    }

    #[test]
    fn wilson_narrows_with_more_data() {
        let small = wilson_interval(5, 500, 0.95);
        let large = wilson_interval(500, 50_000, 0.95);
        assert!(large.hi - large.lo < small.hi - small.lo);
    }

    #[test]
    fn effective_sample_size_shrinks_with_correlation() {
        assert_eq!(effective_sample_size(1000, 0.0), 1000.0);
        // Paper parameters: r = 0.9 → ESS ≈ n/19.
        let ess = effective_sample_size(19_000, 0.9);
        assert!((ess - 1000.0).abs() < 1.0);
    }

    #[test]
    fn certify_bound_three_outcomes() {
        // Clearly below the bound with lots of data.
        assert_eq!(
            certify_bound(50, 100_000, 0.01, 0.95, 0.0),
            BoundVerdict::Holds
        );
        // Clearly above.
        assert_eq!(
            certify_bound(5_000, 100_000, 0.01, 0.95, 0.0),
            BoundVerdict::Violated
        );
        // Tiny sample at the boundary: inconclusive.
        assert_eq!(
            certify_bound(1, 100, 0.01, 0.95, 0.0),
            BoundVerdict::Inconclusive
        );
    }

    #[test]
    fn autocorrelation_weakens_certification() {
        // Enough i.i.d. data to certify, but not after the r = 0.9
        // discount (the paper's own burst persistence).
        let (s, n) = (40u64, 8_000u64);
        assert_eq!(certify_bound(s, n, 0.01, 0.95, 0.0), BoundVerdict::Holds);
        assert_eq!(
            certify_bound(s, n, 0.01, 0.95, 0.9),
            BoundVerdict::Inconclusive
        );
    }

    #[test]
    fn sample_planner_is_consistent_with_certification() {
        let (p_true, bound) = (0.005, 0.01);
        let n = samples_to_certify(p_true, bound, 0.95);
        // Simulating that many trials at exactly the true rate certifies.
        let successes = (p_true * n as f64).round() as u64;
        assert_eq!(
            certify_bound(successes, n + 50, bound, 0.95, 0.0),
            BoundVerdict::Holds,
            "planned n = {n}"
        );
        // An order of magnitude fewer does not.
        let n_small = n / 10;
        let s_small = (p_true * n_small as f64).round() as u64;
        assert_ne!(
            certify_bound(s_small, n_small.max(1), bound, 0.95, 0.0),
            BoundVerdict::Holds
        );
    }

    #[test]
    #[should_panic(expected = "cannot certify")]
    fn planner_rejects_impossible_goal() {
        let _ = samples_to_certify(0.02, 0.01, 0.95);
    }

    #[test]
    #[should_panic(expected = "at least one trial")]
    fn wilson_rejects_zero_trials() {
        let _ = wilson_interval(0, 0, 0.95);
    }

    #[test]
    fn fractional_wilson_matches_integer_wilson_exactly() {
        for &(s, n) in &[
            (0u64, 100u64),
            (1, 100),
            (50, 100),
            (100, 100),
            (12, 10_000),
        ] {
            let a = wilson_interval(s, n, 0.95);
            let b = wilson_interval_fractional(s as f64, n as f64, 0.95);
            assert_eq!(a.estimate.to_bits(), b.estimate.to_bits());
            assert_eq!(a.lo.to_bits(), b.lo.to_bits());
            assert_eq!(a.hi.to_bits(), b.hi.to_bits());
        }
    }

    #[test]
    fn fractional_wilson_preserves_small_proportions() {
        // 3 successes discounted to an ESS of ~500 out of 100k trials: the
        // old rounding path collapsed this to 0 effective successes, so the
        // interval's estimate was 0. The fractional path keeps p̂ exact.
        let p_hat = 3.0 / 100_000.0;
        let ess = 502.5;
        let ci = wilson_interval_fractional(p_hat * ess, ess, 0.95);
        assert!((ci.estimate - p_hat).abs() < 1e-15);
        assert!(ci.lo <= p_hat && p_hat <= ci.hi);
        assert!(ci.lo < ci.hi);
    }

    #[test]
    fn certify_bound_does_not_round_away_rare_violations() {
        // 3 violations in 100k steps at r = 0.99 → ESS ≈ 502.5, scale
        // ≈ 0.005. Rounding gave 0 effective successes, which certified a
        // bound of ~0.6% as Holds off a fabricated zero rate; the interval
        // at the true rate 3e-5 with ~502 effective samples cannot
        // distinguish it from 0.6% — Inconclusive is the honest verdict.
        let verdict = certify_bound(3, 100_000, 0.006, 0.95, 0.99);
        assert_ne!(verdict, BoundVerdict::Violated);
        let ess = effective_sample_size(100_000, 0.99);
        let ci = wilson_interval_fractional(3.0 / 100_000.0 * ess, ess, 0.95);
        let expected = if ci.hi <= 0.006 {
            BoundVerdict::Holds
        } else {
            BoundVerdict::Inconclusive
        };
        assert_eq!(verdict, expected);
        assert!(ci.hi > 0.006, "ESS ~502 cannot certify 0.6% from rate 3e-5");
    }
}
