//! Fitting the ON-OFF model to observed demand traces.
//!
//! The paper assumes every VM's `(p_on, p_off, R_b, R_e)` is known. In
//! production the operator has *traces* — per-interval demand samples from
//! a monitor. This module closes that gap: it classifies each sample as
//! ON/OFF and estimates the four-tuple by maximum likelihood on the
//! two-state chain (transition counts), giving the consolidation pipeline
//! a data-driven entry point.

use crate::spec::VmSpec;
use std::fmt;

/// Why a trace could not be fitted.
#[derive(Debug, Clone, PartialEq)]
pub enum FitError {
    /// Fewer than two samples — no transition information at all.
    TooShort { len: usize },
    /// A sample is NaN or infinite (a monitor's missing value, typically):
    /// it would poison the level estimates or the threshold. `index` is
    /// the first such sample.
    NonFinite { index: usize },
    /// The trace never leaves one state (constant demand, or the split
    /// threshold classifies every sample identically): the switch
    /// probabilities are unidentifiable.
    NoTransitions,
}

impl fmt::Display for FitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FitError::TooShort { len } => {
                write!(f, "trace has {len} samples; at least 2 are required")
            }
            FitError::NonFinite { index } => {
                write!(f, "sample {index} of the trace is NaN or infinite")
            }
            FitError::NoTransitions => {
                write!(
                    f,
                    "trace shows no ON/OFF transitions; model is unidentifiable"
                )
            }
        }
    }
}

impl std::error::Error for FitError {}

/// A fitted ON-OFF model plus fit diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub struct FittedModel {
    /// Estimated OFF→ON switch probability (MLE: ON-entries / OFF-steps).
    pub p_on: f64,
    /// Estimated ON→OFF switch probability.
    pub p_off: f64,
    /// Estimated normal-level demand (mean of OFF-classified samples).
    pub r_b: f64,
    /// Estimated spike size: the ON-demand *envelope* above the normal
    /// level (max ON demand − mean OFF demand). The maximum rather than
    /// the ON mean, because the planner's CVR guarantee needs the fitted
    /// peak `R_b + R_e` to dominate the demand actually observed while
    /// ON; a mean-based spike under-reserves whenever the trace violates
    /// the two-level assumption (e.g. a diurnal base under the bursts).
    /// For genuinely two-level traces the two estimators coincide.
    pub r_e: f64,
    /// The demand threshold used to classify ON vs OFF.
    pub threshold: f64,
    /// Number of OFF→ON transitions observed.
    pub on_entries: usize,
    /// Number of ON→OFF transitions observed.
    pub off_entries: usize,
    /// Fraction of samples classified ON.
    pub on_fraction: f64,
}

impl FittedModel {
    /// Converts the fit into a [`VmSpec`] with the given id.
    ///
    /// Degenerate estimates are nudged into the spec's valid domain:
    /// probabilities are clamped to `(0, 1]` (a state that was never left
    /// gets the smallest resolvable rate, one event per trace length).
    pub fn to_spec(&self, id: usize, trace_len: usize) -> VmSpec {
        let floor = 1.0 / trace_len.max(2) as f64;
        VmSpec::new(
            id,
            self.p_on.clamp(floor, 1.0),
            self.p_off.clamp(floor, 1.0),
            self.r_b.max(f64::MIN_POSITIVE),
            self.r_e.max(0.0),
        )
    }
}

/// Independent accumulators per statistic in [`finite_range`]. Four `f64`
/// lanes are two SSE2 registers each for the three statistics; at eight
/// the sixteen registers of the default target run out and the compiler
/// falls back to scalar `minsd`/`maxsd`.
const LANES: usize = 4;

/// Pass 1: the minimum and maximum of a trace, or the index of its first
/// NaN or infinite sample. The one walk that streams the trace from
/// memory; (`+inf`, `-inf`) for an empty trace.
///
/// `if x < lo` per lane, not `f64::min`: the NaN contract of `min`/`max`
/// keeps a fold over them serial and scalar, while the plain comparison
/// is one `minpd` per vector. It ignores a NaN, so finiteness rides along
/// as `x * 0.0`: a zero for a finite `x`, NaN for NaN and for either
/// infinity, and a NaN never leaves a running sum. One inner loop per
/// statistic, so each becomes its own vector instruction.
pub(crate) fn finite_range(demands: &[f64]) -> Result<(f64, f64), usize> {
    let mut lo = [f64::INFINITY; LANES];
    let mut hi = [f64::NEG_INFINITY; LANES];
    let mut poison = [0.0f64; LANES];
    let chunks = demands.chunks_exact(LANES);
    let rest = chunks.remainder();
    for c in chunks {
        for l in 0..LANES {
            lo[l] = if c[l] < lo[l] { c[l] } else { lo[l] };
        }
        for l in 0..LANES {
            hi[l] = if c[l] > hi[l] { c[l] } else { hi[l] };
        }
        for l in 0..LANES {
            poison[l] += c[l] * 0.0;
        }
    }
    for (l, &x) in rest.iter().enumerate() {
        lo[l] = if x < lo[l] { x } else { lo[l] };
        hi[l] = if x > hi[l] { x } else { hi[l] };
        poison[l] += x * 0.0;
    }
    if poison.iter().any(|p| p.is_nan()) {
        let first = demands.iter().position(|x| !x.is_finite());
        return Err(first.expect("only a non-finite sample poisons a lane"));
    }
    let lo = lo
        .into_iter()
        .fold(f64::INFINITY, |a, b| if b < a { b } else { a });
    let hi = hi
        .into_iter()
        .fold(f64::NEG_INFINITY, |a, b| if b > a { b } else { a });
    Ok((lo, hi))
}

/// Fits the two-state model to a demand trace.
///
/// Classification threshold: midpoint between the trace's minimum and
/// maximum demand — correct for genuinely two-level traces (the model's
/// own output) and a robust default for noisy ones. Use
/// [`fit_trace_with_threshold`] to override.
///
/// # Examples
/// ```
/// use bursty_workload::fit_trace;
///
/// // A hand-made two-level trace: base 10, one 3-step spike to 25.
/// let demands = [10.0, 10.0, 10.0, 25.0, 25.0, 25.0, 10.0, 10.0];
/// let fit = fit_trace(&demands).unwrap();
/// assert_eq!(fit.r_b, 10.0);
/// assert_eq!(fit.r_e, 15.0);
/// assert_eq!(fit.on_entries, 1); // one spike observed
/// ```
///
/// # Errors
/// [`FitError`] for traces too short, holding a NaN or infinite sample,
/// or without transitions.
pub fn fit_trace(demands: &[f64]) -> Result<FittedModel, FitError> {
    let (lo, hi) = checked_range(demands)?;
    classify(demands, (lo + hi) / 2.0, hi)
}

/// Fits with an explicit ON/OFF classification threshold (a sample is ON
/// when `demand > threshold`).
///
/// # Errors
/// [`FitError`] for traces too short, holding a NaN or infinite sample,
/// or without transitions.
pub fn fit_trace_with_threshold(demands: &[f64], threshold: f64) -> Result<FittedModel, FitError> {
    let (_, hi) = checked_range(demands)?;
    classify(demands, threshold, hi)
}

fn checked_range(demands: &[f64]) -> Result<(f64, f64), FitError> {
    if demands.len() < 2 {
        return Err(FitError::TooShort { len: demands.len() });
    }
    finite_range(demands).map_err(|index| FitError::NonFinite { index })
}

/// Pass 2 over a finite trace of at least two samples whose maximum is
/// `hi`: transition counts (MLE for a two-state chain) and the two level
/// estimates, re-reading from L1 what pass 1 just streamed.
fn classify(demands: &[f64], threshold: f64, hi: f64) -> Result<FittedModel, FitError> {
    let n = demands.len();
    // Integer counts over the steps `i -> i + 1`: no sample depends on
    // another, so the compiler vectorises this loop as it stands.
    let (mut on_steps, mut changes) = (0usize, 0usize);
    for (&d, &next) in demands.iter().zip(&demands[1..]) {
        let on = d > threshold;
        on_steps += usize::from(on);
        changes += usize::from(on != (next > threshold));
    }
    if changes == 0 {
        return Err(FitError::NoTransitions);
    }
    // Entries and exits alternate, so they differ by where the trace
    // starts and ends; the last sample has no step out of it.
    let first_on = usize::from(demands[0] > threshold);
    let last_on = usize::from(demands[n - 1] > threshold);
    let on_entries = (changes + last_on - first_on) / 2;
    let off_entries = changes - on_entries;
    let off_steps = n - 1 - on_steps;
    let on_count = on_steps + last_on;
    let rate = |events: usize, steps: usize| {
        if steps > 0 {
            events as f64 / steps as f64
        } else {
            0.0
        }
    };

    // The OFF sum adds the samples in trace order, an ON sample as `+0.0`
    // (the identity on a sum that starts at `+0.0` and so is never
    // `-0.0`): `r_b` is this sum to the bit, and any other association
    // rounds differently. One dependent add per sample is the floor of
    // the whole fit, so nothing else rides on this chain.
    let mut off_sum = 0.0;
    for &d in demands {
        off_sum += if d > threshold { 0.0 } else { d };
    }

    // Level estimates: OFF mean for the normal level, ON *envelope* for
    // the peak (see [`FittedModel::r_e`] — the guarantee consumes the
    // fitted peak, so it must dominate every observed ON demand). A state
    // change means both states occur, and the largest ON sample is then
    // the largest sample.
    let r_b = off_sum / (n - on_count) as f64;
    Ok(FittedModel {
        p_on: rate(on_entries, off_steps),
        p_off: rate(off_entries, on_steps),
        r_b,
        r_e: (hi - r_b).max(0.0),
        threshold,
        on_entries,
        off_entries,
        on_fraction: on_count as f64 / n as f64,
    })
}

/// The five-walk fitter `fit_trace` replaced, kept verbatim as the
/// reference the two-pass kernel is compared against bit for bit.
#[cfg(test)]
mod oracle {
    use super::{FitError, FittedModel};

    pub fn fit_trace(demands: &[f64]) -> Result<FittedModel, FitError> {
        if demands.len() < 2 {
            return Err(FitError::TooShort { len: demands.len() });
        }
        let lo = demands.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = demands.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        fit_trace_with_threshold(demands, (lo + hi) / 2.0)
    }

    pub(crate) fn fit_trace_with_threshold(
        demands: &[f64],
        threshold: f64,
    ) -> Result<FittedModel, FitError> {
        if demands.len() < 2 {
            return Err(FitError::TooShort { len: demands.len() });
        }
        let on: Vec<bool> = demands.iter().map(|&d| d > threshold).collect();

        // Transition counts (MLE for a two-state chain).
        let (mut on_entries, mut off_entries) = (0usize, 0usize);
        let (mut off_steps, mut on_steps) = (0usize, 0usize);
        for w in on.windows(2) {
            match (w[0], w[1]) {
                (false, true) => {
                    on_entries += 1;
                    off_steps += 1;
                }
                (false, false) => off_steps += 1,
                (true, false) => {
                    off_entries += 1;
                    on_steps += 1;
                }
                (true, true) => on_steps += 1,
            }
        }
        if on_entries + off_entries == 0 {
            return Err(FitError::NoTransitions);
        }

        let p_on = if off_steps > 0 {
            on_entries as f64 / off_steps as f64
        } else {
            0.0
        };
        let p_off = if on_steps > 0 {
            off_entries as f64 / on_steps as f64
        } else {
            0.0
        };

        // Level estimates: OFF mean for the normal level, ON *envelope* for
        // the peak (see [`FittedModel::r_e`] — the guarantee consumes the
        // fitted peak, so it must dominate every observed ON demand).
        let mut off_sum = 0.0;
        let mut off_count = 0usize;
        let mut on_max = f64::NEG_INFINITY;
        let mut on_count = 0usize;
        for (&d, &s) in demands.iter().zip(&on) {
            if s {
                on_max = on_max.max(d);
                on_count += 1;
            } else {
                off_sum += d;
                off_count += 1;
            }
        }
        let r_b = if off_count > 0 {
            off_sum / off_count as f64
        } else {
            0.0
        };
        let r_p = if on_count > 0 { on_max } else { 0.0 };

        Ok(FittedModel {
            p_on,
            p_off,
            r_b,
            r_e: (r_p - r_b).max(0.0),
            threshold,
            on_entries,
            off_entries,
            on_fraction: on_count as f64 / on.len() as f64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::DemandTrace;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn recovers_parameters_from_generated_trace() {
        let truth = VmSpec::new(0, 0.02, 0.1, 10.0, 8.0);
        let mut rng = StdRng::seed_from_u64(1);
        let trace = DemandTrace::sample(truth, 300_000, &mut rng);
        let fit = fit_trace(&trace.demands()).unwrap();
        assert!((fit.p_on - 0.02).abs() < 0.002, "p_on {}", fit.p_on);
        assert!((fit.p_off - 0.1).abs() < 0.01, "p_off {}", fit.p_off);
        assert!((fit.r_b - 10.0).abs() < 1e-9);
        assert!((fit.r_e - 8.0).abs() < 1e-9);
    }

    #[test]
    fn fitted_spec_round_trips_through_consolidation_types() {
        let truth = VmSpec::new(0, 0.01, 0.09, 12.0, 6.0);
        let mut rng = StdRng::seed_from_u64(2);
        let trace = DemandTrace::sample(truth, 100_000, &mut rng);
        let fit = fit_trace(&trace.demands()).unwrap();
        let spec = fit.to_spec(7, 100_000);
        assert_eq!(spec.id, 7);
        assert!(spec.p_on > 0.0 && spec.p_on <= 1.0);
        assert!((spec.mean_demand() - truth.mean_demand()).abs() < 0.3);
    }

    #[test]
    fn handles_noisy_levels_with_explicit_threshold() {
        // Two noisy levels around 10 and 20.
        let mut demands = Vec::new();
        for i in 0..1000 {
            let on = (i / 50) % 2 == 1;
            let base = if on { 20.0 } else { 10.0 };
            demands.push(base + ((i * 7) % 5) as f64 * 0.2 - 0.4);
        }
        let fit = fit_trace_with_threshold(&demands, 15.0).unwrap();
        assert!((fit.r_b - 10.0).abs() < 0.5);
        assert!((fit.r_e - 10.0).abs() < 0.8);
        // Deterministic 50-step alternation: p ≈ 1/50.
        assert!((fit.p_on - 0.02).abs() < 0.005);
        assert!((fit.p_off - 0.02).abs() < 0.005);
    }

    #[test]
    fn too_short_and_constant_traces_error() {
        assert_eq!(fit_trace(&[5.0]), Err(FitError::TooShort { len: 1 }));
        assert_eq!(fit_trace(&[]), Err(FitError::TooShort { len: 0 }));
        assert_eq!(fit_trace(&[5.0; 100]), Err(FitError::NoTransitions));
    }

    #[test]
    fn single_step_square_wave() {
        // Alternating every step: p_on = p_off = 1.
        let demands: Vec<f64> = (0..100)
            .map(|i| if i % 2 == 0 { 1.0 } else { 3.0 })
            .collect();
        let fit = fit_trace(&demands).unwrap();
        assert!((fit.p_on - 1.0).abs() < 1e-9);
        assert!((fit.p_off - 1.0).abs() < 1e-9);
        assert!((fit.on_fraction - 0.5).abs() < 0.01);
    }

    #[test]
    fn error_messages_are_informative() {
        assert!(FitError::TooShort { len: 1 }.to_string().contains('1'));
        assert!(FitError::NoTransitions.to_string().contains("transition"));
        assert!(FitError::NonFinite { index: 17 }.to_string().contains("17"));
    }

    #[test]
    fn to_spec_clamps_degenerate_probabilities() {
        // A trace with one ON sample at the very end: p_off estimate is 0
        // (never observed leaving ON); to_spec must clamp it positive.
        let mut demands = vec![1.0; 99];
        demands.push(10.0);
        let fit = fit_trace(&demands).unwrap();
        assert_eq!(fit.p_off, 0.0);
        let spec = fit.to_spec(0, demands.len());
        assert!(spec.p_off > 0.0);
    }

    #[test]
    fn a_sample_equal_to_the_threshold_stays_off() {
        // Midpoint of 0 and 10 is 5: the 5.0 sample is OFF and counts
        // into the normal level.
        let fit = fit_trace(&[0.0, 10.0, 5.0, 10.0, 1.0]).unwrap();
        assert_eq!(fit.threshold, 5.0);
        assert_eq!(fit.r_b, 2.0);
        assert_eq!(fit.on_fraction, 0.4);
        assert_eq!((fit.on_entries, fit.off_entries), (2, 2));
    }

    #[test]
    fn non_finite_samples_are_rejected_at_the_first_one() {
        // A NaN would classify OFF and poison the OFF sum into a spec
        // that reserves nothing; an infinity would drag the threshold
        // along and read as `NoTransitions`.
        let clean: Vec<f64> = (0..3 * LANES + 2)
            .map(|i| if i % 3 == 0 { 9.0 } else { 2.0 })
            .collect();
        assert!(fit_trace(&clean).is_ok());
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for index in 0..clean.len() {
                let mut demands = clean.clone();
                demands[index] = bad;
                let expected = Err(FitError::NonFinite { index });
                assert_eq!(fit_trace(&demands), expected, "{bad} at {index}");
                assert_eq!(fit_trace_with_threshold(&demands, 5.0), expected);
                // The first offender is the one named.
                *demands.last_mut().unwrap() = f64::NAN;
                assert_eq!(fit_trace(&demands), expected);
            }
        }
        // Too short wins over non-finite: there is nothing to fit either way.
        assert_eq!(fit_trace(&[f64::NAN]), Err(FitError::TooShort { len: 1 }));
    }

    #[test]
    fn benchmark_like_traces_fit_to_the_oracles_bits() {
        // The `plan_traces` fleet of `benchmark/src/plan.rs`, fewer VMs.
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(1);
        let vms: Vec<VmSpec> = (0..200)
            .map(|id| {
                VmSpec::new(
                    id,
                    rng.gen_range(0.008..0.02),
                    rng.gen_range(0.06..0.15),
                    rng.gen_range(2.0..20.0),
                    rng.gen_range(2.0..20.0),
                )
            })
            .collect();
        for vm in vms {
            let demands = DemandTrace::sample(vm, 2500, &mut rng).demands();
            let fused = fit_trace(&demands).unwrap();
            let reference = oracle::fit_trace(&demands).unwrap();
            assert_eq!(fused, reference);
            let spec = fused.to_spec(vm.id, demands.len());
            let expected = reference.to_spec(vm.id, demands.len());
            for (a, b) in [
                (spec.p_on, expected.p_on),
                (spec.p_off, expected.p_off),
                (spec.r_b, expected.r_b),
                (spec.r_e, expected.r_e),
            ] {
                assert_eq!(a.to_bits(), b.to_bits(), "VM {}", vm.id);
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::trace::DemandTrace;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Every chunk remainder of pass 1 and of the vectorised count loop,
    /// several times over.
    const MAX_LEN: usize = 6 * LANES + 1;

    /// Any finite `f64`: both signs, subnormals, the extremes.
    fn finite() -> impl Strategy<Value = f64> {
        (0u64..=u64::MAX).prop_map(|bits| {
            let x = f64::from_bits(bits);
            if x.is_finite() {
                x
            } else {
                f64::from_bits(bits & !(1 << 62))
            }
        })
    }

    /// Bit equality, except that two zeros agree whatever their signs:
    /// `f64::min`/`max` in the oracle leave the sign of a zero unspecified.
    fn same_f64(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits() || (a == 0.0 && b == 0.0)
    }

    /// Fused and oracle agree on the error, or on all eight fields.
    fn agree(demands: &[f64], threshold: Option<f64>) -> Result<(), String> {
        let (fused, reference) = match threshold {
            None => (fit_trace(demands), oracle::fit_trace(demands)),
            Some(t) => (
                fit_trace_with_threshold(demands, t),
                oracle::fit_trace_with_threshold(demands, t),
            ),
        };
        let same = match (&fused, &reference) {
            (Ok(a), Ok(b)) => {
                same_f64(a.p_on, b.p_on)
                    && same_f64(a.p_off, b.p_off)
                    && same_f64(a.r_b, b.r_b)
                    && same_f64(a.r_e, b.r_e)
                    && same_f64(a.threshold, b.threshold)
                    && a.on_entries == b.on_entries
                    && a.off_entries == b.off_entries
                    && same_f64(a.on_fraction, b.on_fraction)
            }
            (Err(a), Err(b)) => a == b,
            _ => false,
        };
        if same {
            Ok(())
        } else {
            Err(format!(
                "threshold {threshold:?} on {demands:?}: fused {fused:?}, oracle {reference:?}"
            ))
        }
    }

    /// [`agree`] on every prefix, at the midpoint threshold and at each
    /// explicit one.
    fn agree_on_prefixes(demands: &[f64], thresholds: &[f64]) -> Result<(), String> {
        for len in 0..=demands.len() {
            agree(&demands[..len], None)?;
            for &t in thresholds {
                agree(&demands[..len], Some(t))?;
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn fused_matches_oracle_on_arbitrary_finite_traces(
            demands in proptest::collection::vec(finite(), MAX_LEN),
            threshold in finite(),
            pick in 0usize..MAX_LEN,
        ) {
            // A free threshold, one that a sample equals, and two outside
            // the range of any trace.
            let thresholds = [threshold, demands[pick], f64::MAX, f64::MIN];
            let verdict = agree_on_prefixes(&demands, &thresholds);
            prop_assert!(verdict.is_ok(), "{}", verdict.unwrap_err());
        }

        #[test]
        fn fused_matches_oracle_on_levelled_traces(
            a in -50.0f64..50.0,
            b in -50.0f64..50.0,
            levels in 1usize..=6,
            picks in proptest::collection::vec(0usize..6, MAX_LEN),
        ) {
            // One level is a constant trace, two are the model's own
            // output (starting and ending in either state), the third is
            // the midpoint of the first two and so can sit exactly on the
            // threshold; then the zeros of both signs and a subnormal.
            let palette = [a, b, (a + b) / 2.0, 0.0, -0.0, 5e-324];
            let demands: Vec<f64> = picks.iter().map(|&p| palette[p % levels]).collect();
            let verdict = agree_on_prefixes(&demands, &[(a + b) / 2.0, a.max(b), a.min(b) - 1.0]);
            prop_assert!(verdict.is_ok(), "{}", verdict.unwrap_err());
        }

        #[test]
        fn fused_matches_oracle_on_long_noisy_traces(
            draws in proptest::collection::vec(0.0f64..1.0, 2..600),
            p_on in 0.01f64..0.5,
            threshold in 9.0f64..22.0,
        ) {
            // Long enough for the main loops to run many iterations, with
            // a different value at every sample so the order of the OFF
            // sum shows in its last bits.
            let demands: Vec<f64> = draws
                .iter()
                .map(|&u| if u < p_on { 20.0 + u } else { 10.0 + u })
                .collect();
            for t in [None, Some(threshold)] {
                let verdict = agree(&demands, t);
                prop_assert!(verdict.is_ok(), "{}", verdict.unwrap_err());
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn fit_recovers_levels_exactly_for_clean_traces(
            p_on in 0.02f64..0.5,
            p_off in 0.02f64..0.5,
            r_b in 1.0f64..50.0,
            r_e in 1.0f64..50.0,
            seed in 0u64..1000,
        ) {
            let truth = VmSpec::new(0, p_on, p_off, r_b, r_e);
            let mut rng = StdRng::seed_from_u64(seed);
            let trace = DemandTrace::sample(truth, 50_000, &mut rng);
            // Two-level traces have exact level recovery; probabilities
            // are statistical.
            if let Ok(fit) = fit_trace(&trace.demands()) {
                prop_assert!((fit.r_b - r_b).abs() < 1e-9);
                prop_assert!((fit.r_e - r_e).abs() < 1e-9);
                prop_assert!((fit.p_on - p_on).abs() < 0.15 * p_on.max(0.05));
                prop_assert!((fit.p_off - p_off).abs() < 0.15 * p_off.max(0.05));
            }
        }
    }
}
