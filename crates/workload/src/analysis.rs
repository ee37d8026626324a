//! Burstiness analysis of demand traces.
//!
//! The related work the paper builds on (Mi et al., Casale et al.)
//! characterizes burstiness with a handful of standard statistics. This
//! module implements them so traces — measured or generated — can be
//! compared quantitatively: sample autocorrelation, the index of
//! dispersion for counts, burst-run statistics, and a composite
//! "burstiness profile".

/// Sample mean.
pub(crate) fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Sample (population) variance.
pub(crate) fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / xs.len() as f64
}

/// Sample autocorrelation at `lag` (0 for degenerate inputs).
///
/// For an ON-OFF chain this should approach `(1 − p_on − p_off)^lag`
/// (see [`crate::spec::VmSpec::chain`] and `OnOffChain::autocorrelation`).
pub(crate) fn autocorrelation(xs: &[f64], lag: usize) -> f64 {
    if xs.len() <= lag || lag == 0 && xs.len() < 2 {
        return if lag == 0 { 1.0 } else { 0.0 };
    }
    let m = mean(xs);
    let var = variance(xs);
    if var == 0.0 {
        return 0.0;
    }
    let cov = xs
        .windows(lag + 1)
        .map(|w| (w[0] - m) * (w[lag] - m))
        .sum::<f64>()
        / (xs.len() - lag) as f64;
    cov / var
}

/// Index of dispersion for counts at window size `w`:
/// `IDC(w) = Var[S_w] / E[S_w]` where `S_w` sums `w` consecutive samples.
///
/// For i.i.d. samples IDC is flat in `w`; positive temporal correlation —
/// burstiness — makes it grow with `w`. Mi et al. use exactly this
/// signature to verify injected burstiness.
pub(crate) fn index_of_dispersion(xs: &[f64], window: usize) -> f64 {
    assert!(window > 0, "window must be positive");
    if xs.len() < 2 * window {
        return f64::NAN;
    }
    let sums: Vec<f64> = xs.chunks_exact(window).map(|c| c.iter().sum()).collect();
    let m = mean(&sums);
    if m == 0.0 {
        return 0.0;
    }
    variance(&sums) / m
}

/// Run statistics of a boolean (ON/OFF) sequence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunStats {
    /// Number of maximal ON runs (spikes).
    pub runs: usize,
    /// Mean ON-run length (0 when there are no runs).
    pub mean_length: f64,
    /// Longest ON run.
    pub max_length: usize,
}

/// Computes ON-run statistics for a state sequence.
pub(crate) fn run_stats(on: &[bool]) -> RunStats {
    let (mut runs, mut total, mut max_len) = (0usize, 0usize, 0usize);
    let mut current = 0usize;
    for &s in on {
        if s {
            if current == 0 {
                runs += 1;
            }
            current += 1;
            total += 1;
            max_len = max_len.max(current);
        } else {
            current = 0;
        }
    }
    RunStats {
        runs,
        mean_length: if runs == 0 {
            0.0
        } else {
            total as f64 / runs as f64
        },
        max_length: max_len,
    }
}

/// A composite burstiness profile of a demand trace.
#[derive(Debug, Clone, PartialEq)]
pub struct BurstinessProfile {
    /// Lag-1 autocorrelation of the demand series.
    pub acf1: f64,
    /// IDC at a moderate window (16 samples).
    pub idc16: f64,
    /// Peak-to-mean demand ratio.
    pub peak_to_mean: f64,
    /// Fraction of samples above the midpoint threshold.
    pub on_fraction: f64,
    /// ON-run statistics at the midpoint threshold.
    pub runs: RunStats,
}

/// Profiles a demand trace. Returns `None` for traces shorter than 32
/// samples (IDC would be meaningless) or holding a NaN or infinite sample
/// (every statistic would be).
pub fn profile(demands: &[f64]) -> Option<BurstinessProfile> {
    if demands.len() < 32 {
        return None;
    }
    let (lo, hi) = crate::fitting::finite_range(demands).ok()?;
    let threshold = (lo + hi) / 2.0;
    let on: Vec<bool> = demands.iter().map(|&d| d > threshold).collect();
    let m = mean(demands);
    Some(BurstinessProfile {
        acf1: autocorrelation(demands, 1),
        idc16: index_of_dispersion(demands, 16),
        peak_to_mean: if m > 0.0 { hi / m } else { 0.0 },
        on_fraction: on.iter().filter(|&&s| s).count() as f64 / on.len() as f64,
        runs: run_stats(&on),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::VmSpec;
    use crate::trace::DemandTrace;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn mean_and_variance_basics() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        assert_eq!(variance(&[5.0]), 0.0);
        assert!((variance(&[1.0, 3.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn autocorrelation_of_constant_is_zero() {
        assert_eq!(autocorrelation(&[4.0; 100], 1), 0.0);
    }

    #[test]
    fn autocorrelation_of_alternating_is_negative() {
        let xs: Vec<f64> = (0..1000)
            .map(|i| if i % 2 == 0 { 0.0 } else { 1.0 })
            .collect();
        assert!(autocorrelation(&xs, 1) < -0.9);
    }

    #[test]
    fn onoff_trace_acf_matches_theory() {
        let vm = VmSpec::new(0, 0.01, 0.09, 10.0, 10.0);
        let mut rng = StdRng::seed_from_u64(5);
        let tr = DemandTrace::sample(vm, 400_000, &mut rng);
        let demands = tr.demands();
        for lag in [1usize, 2, 5] {
            let theory = vm.chain().autocorrelation(lag as u32);
            let sample = autocorrelation(&demands, lag);
            assert!(
                (sample - theory).abs() < 0.01,
                "lag {lag}: {sample:.4} vs {theory:.4}"
            );
        }
    }

    #[test]
    fn idc_grows_with_window_for_bursty_series_only() {
        // Bursty ON-OFF trace: IDC(64) >> IDC(1)-scale.
        let vm = VmSpec::new(0, 0.01, 0.09, 10.0, 10.0);
        let mut rng = StdRng::seed_from_u64(6);
        let bursty = DemandTrace::sample(vm, 200_000, &mut rng).demands();
        let idc_small = index_of_dispersion(&bursty, 2);
        let idc_large = index_of_dispersion(&bursty, 64);
        assert!(
            idc_large > 3.0 * idc_small,
            "bursty: IDC(64)={idc_large:.2} vs IDC(2)={idc_small:.2}"
        );

        // An i.i.d. series with the same marginal: IDC roughly flat.
        let iid: Vec<f64> = (0..200_000)
            .map(|_| if rng.gen::<f64>() < 0.1 { 20.0 } else { 10.0 })
            .collect();
        let flat_small = index_of_dispersion(&iid, 2);
        let flat_large = index_of_dispersion(&iid, 64);
        assert!(
            flat_large < 2.0 * flat_small.max(0.5),
            "iid: IDC(64)={flat_large:.2} vs IDC(2)={flat_small:.2}"
        );
    }

    #[test]
    fn idc_of_short_series_is_nan() {
        assert!(index_of_dispersion(&[1.0; 10], 8).is_nan());
    }

    #[test]
    fn run_stats_counts_runs() {
        let on = [false, true, true, false, true, false, true, true, true];
        let rs = run_stats(&on);
        assert_eq!(rs.runs, 3);
        assert_eq!(rs.max_length, 3);
        assert!((rs.mean_length - 2.0).abs() < 1e-12);
    }

    #[test]
    fn run_stats_empty_and_all_off() {
        assert_eq!(
            run_stats(&[]),
            RunStats {
                runs: 0,
                mean_length: 0.0,
                max_length: 0
            }
        );
        assert_eq!(
            run_stats(&[false; 10]),
            RunStats {
                runs: 0,
                mean_length: 0.0,
                max_length: 0
            }
        );
    }

    #[test]
    fn profile_distinguishes_bursty_from_smooth() {
        let vm = VmSpec::new(0, 0.01, 0.09, 10.0, 10.0);
        let mut rng = StdRng::seed_from_u64(7);
        let bursty = profile(&DemandTrace::sample(vm, 100_000, &mut rng).demands()).unwrap();
        assert!(bursty.acf1 > 0.8, "acf1 {}", bursty.acf1);
        assert!((bursty.peak_to_mean - 20.0 / 11.0).abs() < 0.1);
        assert!((bursty.runs.mean_length - 1.0 / 0.09).abs() < 1.5);

        let smooth: Vec<f64> = (0..100_000)
            .map(|_| if rng.gen::<f64>() < 0.1 { 20.0 } else { 10.0 })
            .collect();
        let smooth_profile = profile(&smooth).unwrap();
        assert!(smooth_profile.acf1.abs() < 0.05);
        // Same marginal statistics, utterly different temporal structure —
        // the reason the paper's Markov model beats i.i.d. SBP models.
        assert!((smooth_profile.on_fraction - bursty.on_fraction).abs() < 0.01);
    }

    #[test]
    fn profile_rejects_short_traces() {
        assert!(profile(&[1.0; 31]).is_none());
        assert!(profile(&[1.0; 32]).is_some());
        let mut gap = [1.0; 40];
        gap[33] = f64::NAN;
        assert!(profile(&gap).is_none());
    }
}
