//! Per-PM CVR sampling and the Wilson-interval certification check.
//!
//! The paper's guarantee is analytic: MapCal reserves `r` blocks so that
//! the stationary probability of more than `r` concurrently-ON VMs —
//! `certified_cvr` — is at most ρ (Eq. 12/16/17). This module closes the
//! loop empirically: the engine samples cumulative per-PM violation and
//! active counts through [`Recorder::sample_cvr`](crate::Recorder), and
//! [`certify_cvr`] asks whether the observed violation fraction is
//! statistically consistent with the analytic value, using a Wilson score
//! interval discounted for the ON/OFF chain's lag-1 autocorrelation
//! (consecutive steps are correlated by design — that is the burstiness).

use bursty_metrics::{effective_sample_size, wilson_interval_fractional, ProportionCi};

/// Cumulative CVR samples for one PM: `(step, violations, active)` with
/// both counts cumulative since the start of the run.
#[derive(Debug, Clone, Default)]
pub struct CvrSeries {
    samples: Vec<(u64, usize, usize)>,
}

impl CvrSeries {
    pub(crate) fn push(&mut self, step: u64, violations: usize, active: usize) {
        self.samples.push((step, violations, active));
    }

    pub(crate) fn samples(&self) -> &[(u64, usize, usize)] {
        &self.samples
    }

    /// The final cumulative `(violations, active)` pair, if any sample was
    /// taken.
    pub fn last_counts(&self) -> Option<(u64, u64)> {
        self.samples.last().map(|&(_, v, a)| (v as u64, a as u64))
    }

    /// Encode as a JSONL `cvr_series` record (one line; used in the trace
    /// dump ahead of the event lines).
    pub(crate) fn to_json_line(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("{\"type\":\"cvr_series\",\"samples\":[");
        for (i, &(step, v, a)) in self.samples.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "[{},{},{}]", step, v, a);
        }
        out.push_str("]}\n");
        out
    }
}

/// Result of comparing one PM's empirical CVR against the analytic value.
#[derive(Debug, Clone, Copy)]
pub struct CvrCheck {
    /// The PM index the check concerns.
    pub pm: usize,
    /// Empirical violation fraction `violations / active`.
    pub empirical: f64,
    /// The analytic `certified_cvr` being tested.
    pub analytic: f64,
    /// Wilson interval around the empirical fraction, at the effective
    /// (autocorrelation-discounted) sample size.
    pub ci: ProportionCi,
    /// Effective number of independent observations after the AR(1)
    /// discount.
    pub effective_samples: f64,
}

impl CvrCheck {
    /// Whether the analytic CVR lies inside the empirical CI — the
    /// certification criterion (two-sided: the simulation must neither
    /// under- nor over-shoot the analytic value beyond sampling noise).
    pub fn consistent(&self) -> bool {
        self.ci.lo <= self.analytic && self.analytic <= self.ci.hi
    }

    /// One-line human-readable summary for test output.
    pub fn describe(&self) -> String {
        format!(
            "pm {}: empirical {:.5} in [{:.5}, {:.5}] ({}% CI, ess {:.0}) vs analytic {:.5} -> {}",
            self.pm,
            self.empirical,
            self.ci.lo,
            self.ci.hi,
            (self.ci.confidence * 100.0).round(),
            self.effective_samples,
            self.analytic,
            if self.consistent() { "ok" } else { "FAIL" }
        )
    }
}

/// Wilson check of one PM's empirical CVR against the analytic
/// `certified_cvr`.
///
/// `violations` / `active` are cumulative PM-step counts for the PM,
/// `lag1_autocorrelation` is the workload chain's lag-1 autocorrelation
/// `1 − p_on − p_off` (clamped by the caller into `[0, 1)`), and `conf`
/// the two-sided confidence level (the certification suite uses 0.99).
///
/// The step count is discounted to an effective sample size before the
/// interval is formed: `n_eff = n·(1−r)/(1+r)`, with the success count
/// scaled proportionally so the rate is preserved.
pub fn certify_cvr(
    pm: usize,
    violations: u64,
    active: u64,
    analytic_cvr: f64,
    conf: f64,
    lag1_autocorrelation: f64,
) -> CvrCheck {
    assert!(active > 0, "PM was never active; nothing to certify");
    assert!(
        violations <= active,
        "violations cannot exceed active steps"
    );
    let ess = effective_sample_size(active, lag1_autocorrelation).max(1.0);
    // Form the interval at *fractional* effective counts: rounding the
    // scaled success count would collapse a small-but-nonzero violation
    // count to zero successes (or inflate it) whenever the ESS discount is
    // strong, anchoring the interval at the wrong proportion.
    let p_hat = violations as f64 / active as f64;
    let ci = wilson_interval_fractional(p_hat * ess, ess, conf);
    CvrCheck {
        pm,
        empirical: p_hat,
        analytic: analytic_cvr,
        ci,
        effective_samples: ess,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consistent_when_analytic_inside_ci() {
        // 1% empirical over 100k i.i.d. steps; analytic 1.05% is well
        // inside the interval.
        let check = certify_cvr(0, 1_000, 100_000, 0.0105, 0.99, 0.0);
        assert!(check.consistent(), "{}", check.describe());
        // Analytic 5% is far outside.
        let check = certify_cvr(0, 1_000, 100_000, 0.05, 0.99, 0.0);
        assert!(!check.consistent(), "{}", check.describe());
    }

    #[test]
    fn autocorrelation_widens_interval() {
        let iid = certify_cvr(0, 500, 50_000, 0.01, 0.99, 0.0);
        let corr = certify_cvr(0, 500, 50_000, 0.01, 0.99, 0.9);
        assert!(corr.ci.hi - corr.ci.lo > iid.ci.hi - iid.ci.lo);
        assert!(corr.effective_samples < iid.effective_samples);
        // Same empirical rate either way.
        assert_eq!(iid.empirical, corr.empirical);
    }

    #[test]
    fn zero_violations_still_certifiable() {
        // A PM that never violated is consistent with a tiny analytic CVR
        // (lo = 0), but not with a large one.
        let check = certify_cvr(3, 0, 10_000, 1e-4, 0.99, 0.0);
        assert!(check.consistent(), "{}", check.describe());
        let check = certify_cvr(3, 0, 10_000, 0.05, 0.99, 0.0);
        assert!(!check.consistent(), "{}", check.describe());
    }

    #[test]
    fn series_tracks_cumulative_counts() {
        let mut s = CvrSeries::default();
        s.push(99, 1, 100);
        s.push(199, 3, 200);
        assert_eq!(s.last_counts(), Some((3, 200)));
        let line = s.to_json_line();
        assert!(line.starts_with("{\"type\":\"cvr_series\""));
        assert!(line.contains("[99,1,100],[199,3,200]"));
    }

    #[test]
    #[should_panic(expected = "never active")]
    fn rejects_inactive_pm() {
        let _ = certify_cvr(0, 0, 0, 0.01, 0.99, 0.0);
    }

    #[test]
    fn rare_violations_survive_a_strong_ess_discount() {
        // 3 violations over 100k steps at r = 0.99: ESS ≈ 502.5, so the
        // old rounding path scaled 3 successes down to round(0.015) = 0 —
        // a zero-success interval whose lower bound is exactly 0 and whose
        // estimate contradicts `empirical`. The fractional interval keeps
        // the proportion: the analytic rate 3e-5 must sit inside the CI,
        // and the CI estimate must match the empirical rate bit-for-bit.
        let check = certify_cvr(7, 3, 100_000, 3e-5, 0.99, 0.99);
        assert_eq!(check.empirical.to_bits(), check.ci.estimate.to_bits());
        assert!(
            check.ci.estimate > 0.0,
            "nonzero violations must not vanish"
        );
        assert!(check.consistent(), "{}", check.describe());
        // A far larger analytic value is still rejected — the discount
        // widens the interval but does not destroy its power entirely.
        let check = certify_cvr(7, 3, 100_000, 0.5, 0.99, 0.99);
        assert!(!check.consistent(), "{}", check.describe());
    }
}
