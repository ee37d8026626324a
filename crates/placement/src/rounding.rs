//! Rounding heterogeneous switch probabilities to one uniform pair
//! (paper §IV-E: "we need to round them to uniform values").
//!
//! **Conservative rounding** takes the *largest* `p_on` and *smallest*
//! `p_off` in the group. The rounded chain stochastically dominates every
//! member (spikes at least as frequent, at least as long), so the
//! reservation computed from it keeps every PM's CVR within `ρ`
//! regardless of the mix. The price is extra blocks: the pair's `π` is at
//! least every member's, so it over-reserves even against the worst
//! single VM.
//!
//! Nothing in the planner rounds any more. QUEUE prices each PM at the
//! hottest chain it hosts, and `bursty plan`/`simulate` price fit error
//! per VM instead (`FittedModel::to_bounded_spec`). This module stays
//! only because the system benchmark's trace pipeline
//! (`benchmark/src/plan.rs`) names [`round_with_policy`] and
//! [`RoundingPolicy::Conservative`].
//!
//! `blocks_needed` is monotone in `p_on` and antitone in `p_off` (more
//! traffic ⇒ more reservation), which is what makes the conservative
//! choice a genuine upper bound; `tests` verify the monotonicity.

use bursty_workload::VmSpec;

/// How to collapse heterogeneous `(p_on, p_off)` pairs to one pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoundingPolicy {
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
        RoundingPolicy::Conservative => Some((
            vms.iter().map(|v| v.p_on).fold(f64::MIN, f64::max),
            vms.iter().map(|v| v.p_off).fold(f64::MAX, f64::min),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bursty_markov::AggregateChain;

    fn vm(id: usize, p_on: f64, p_off: f64) -> VmSpec {
        VmSpec::new(id, p_on, p_off, 10.0, 10.0)
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
        assert_eq!(round_with_policy(&[], RoundingPolicy::Conservative), None);
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
}
