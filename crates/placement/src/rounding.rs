//! Rounding heterogeneous switch probabilities to the uniform values
//! MapCal requires (paper §IV-E), with a choice of safety posture.
//!
//! The paper says only "we need to round them to uniform values". Two
//! natural policies differ in what they guarantee:
//!
//! * **Mean rounding** — unbiased, but the resulting mapping table can
//!   under-reserve for the burstier-than-average VMs.
//! * **Conservative rounding** — use the *largest* `p_on` and *smallest*
//!   `p_off` in the group. The rounded chain stochastically dominates
//!   every member (spikes at least as frequent, at least as long), so the
//!   reservation computed from it keeps every PM's CVR within `ρ`
//!   regardless of the mix. The price is extra blocks.
//!
//! `blocks_needed` is monotone in `p_on` and antitone in `p_off` (more
//! traffic ⇒ more reservation), which is what makes the conservative
//! choice a genuine upper bound; `tests` verify the monotonicity.

use bursty_workload::VmSpec;

/// How to collapse heterogeneous `(p_on, p_off)` pairs to one pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoundingPolicy {
    /// Arithmetic mean of each probability — unbiased, not guaranteed.
    Mean,
    /// `(max p_on, min p_off)` — guaranteed-safe over-reservation.
    Conservative,
}

/// Rounds a fleet's probabilities under `policy`. Returns `None` for an
/// empty slice.
pub fn round_with_policy(vms: &[VmSpec], policy: RoundingPolicy) -> Option<(f64, f64)> {
    if vms.is_empty() {
        return None;
    }
    match policy {
        RoundingPolicy::Mean => {
            let n = vms.len() as f64;
            Some((
                vms.iter().map(|v| v.p_on).sum::<f64>() / n,
                vms.iter().map(|v| v.p_off).sum::<f64>() / n,
            ))
        }
        RoundingPolicy::Conservative => Some((
            vms.iter().map(|v| v.p_on).fold(f64::MIN, f64::max),
            vms.iter().map(|v| v.p_off).fold(f64::MAX, f64::min),
        )),
    }
}

/// The spread of a fleet's switch probabilities — how heterogeneous the
/// group is, and therefore how much the two policies will disagree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbabilitySpread {
    /// `(min, max)` of `p_on`.
    pub p_on_range: (f64, f64),
    /// `(min, max)` of `p_off`.
    pub p_off_range: (f64, f64),
    /// Ratio of the conservative stationary ON-fraction to the mean one —
    /// 1.0 for a homogeneous fleet, growing with heterogeneity.
    pub over_reservation_factor: f64,
}

/// Quantifies the heterogeneity of a fleet. Returns `None` when empty.
pub fn spread(vms: &[VmSpec]) -> Option<ProbabilitySpread> {
    if vms.is_empty() {
        return None;
    }
    let (mean_on, mean_off) = round_with_policy(vms, RoundingPolicy::Mean)?;
    let (cons_on, cons_off) = round_with_policy(vms, RoundingPolicy::Conservative)?;
    let stat = |p_on: f64, p_off: f64| p_on / (p_on + p_off);
    Some(ProbabilitySpread {
        p_on_range: (
            vms.iter().map(|v| v.p_on).fold(f64::MAX, f64::min),
            vms.iter().map(|v| v.p_on).fold(f64::MIN, f64::max),
        ),
        p_off_range: (
            vms.iter().map(|v| v.p_off).fold(f64::MAX, f64::min),
            vms.iter().map(|v| v.p_off).fold(f64::MIN, f64::max),
        ),
        over_reservation_factor: stat(cons_on, cons_off) / stat(mean_on, mean_off),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bursty_markov::AggregateChain;

    fn vm(id: usize, p_on: f64, p_off: f64) -> VmSpec {
        VmSpec::new(id, p_on, p_off, 10.0, 10.0)
    }

    #[test]
    fn mean_rounding_averages() {
        let vms = [vm(0, 0.01, 0.05), vm(1, 0.03, 0.15)];
        let (p_on, p_off) = round_with_policy(&vms, RoundingPolicy::Mean).unwrap();
        assert!((p_on - 0.02).abs() < 1e-12);
        assert!((p_off - 0.10).abs() < 1e-12);
    }

    #[test]
    fn conservative_rounding_takes_worst_case() {
        let vms = [vm(0, 0.01, 0.05), vm(1, 0.03, 0.15)];
        let (p_on, p_off) = round_with_policy(&vms, RoundingPolicy::Conservative).unwrap();
        assert_eq!(p_on, 0.03);
        assert_eq!(p_off, 0.05);
    }

    #[test]
    fn empty_fleet_rounds_to_none() {
        assert_eq!(round_with_policy(&[], RoundingPolicy::Mean), None);
        assert_eq!(spread(&[]), None);
    }

    #[test]
    fn homogeneous_fleet_policies_agree() {
        let vms = [vm(0, 0.02, 0.08), vm(1, 0.02, 0.08)];
        let mean = round_with_policy(&vms, RoundingPolicy::Mean).unwrap();
        let cons = round_with_policy(&vms, RoundingPolicy::Conservative).unwrap();
        assert_eq!(mean, cons);
        let s = spread(&vms).unwrap();
        assert!((s.over_reservation_factor - 1.0).abs() < 1e-12);
    }

    #[test]
    fn blocks_needed_monotone_in_traffic() {
        // The safety argument: more p_on / less p_off never needs fewer
        // blocks. Checked across a k grid.
        for k in [4usize, 8, 16] {
            let base = AggregateChain::new(k, 0.02, 0.10).blocks_needed(0.01);
            let hotter = AggregateChain::new(k, 0.04, 0.10).blocks_needed(0.01);
            let longer = AggregateChain::new(k, 0.02, 0.05).blocks_needed(0.01);
            assert!(hotter >= base, "k={k}: more frequent spikes need ≥ blocks");
            assert!(longer >= base, "k={k}: longer spikes need ≥ blocks");
        }
    }

    #[test]
    fn conservative_reservation_covers_every_member() {
        // Reservation computed from the conservative rounding dominates
        // the reservation each member would need alone.
        let vms = [vm(0, 0.01, 0.12), vm(1, 0.04, 0.06), vm(2, 0.02, 0.09)];
        let (p_on, p_off) = round_with_policy(&vms, RoundingPolicy::Conservative).unwrap();
        let k = 10;
        let conservative = AggregateChain::new(k, p_on, p_off).blocks_needed(0.01);
        for v in &vms {
            let own = AggregateChain::new(k, v.p_on, v.p_off).blocks_needed(0.01);
            assert!(
                conservative >= own,
                "conservative {conservative} < member {own} ({}, {})",
                v.p_on,
                v.p_off
            );
        }
    }

    #[test]
    fn mean_rounding_can_under_reserve() {
        // Demonstrates the hazard the conservative policy removes: a
        // half-calm, half-hot fleet rounded by mean reserves fewer blocks
        // than the hot half needs.
        let vms = [vm(0, 0.002, 0.3), vm(1, 0.06, 0.03)];
        let (mean_on, mean_off) = round_with_policy(&vms, RoundingPolicy::Mean).unwrap();
        let k = 12;
        let by_mean = AggregateChain::new(k, mean_on, mean_off).blocks_needed(0.01);
        let hot_needs = AggregateChain::new(k, 0.06, 0.03).blocks_needed(0.01);
        assert!(
            by_mean < hot_needs,
            "expected under-reservation: mean {by_mean} vs hot {hot_needs}"
        );
    }

    #[test]
    fn spread_reports_ranges_and_factor() {
        let vms = [vm(0, 0.01, 0.15), vm(1, 0.05, 0.05)];
        let s = spread(&vms).unwrap();
        assert_eq!(s.p_on_range, (0.01, 0.05));
        assert_eq!(s.p_off_range, (0.05, 0.15));
        assert!(s.over_reservation_factor > 1.0);
    }
}
