//! Robustness of the MapCal reservation to parameter estimation error.
//!
//! MapCal's guarantee assumes the fleet's `(p_on, p_off)` are exact. In a
//! deployed system they come from trace fitting (see
//! `bursty-workload::fitting`) and carry sampling error. This module
//! quantifies the safety margin: how much can the *true* parameters
//! deviate from the planned ones before the planned reservation violates
//! `ρ`? Monotonicity (CVR grows with `p_on`, shrinks with `p_off`) makes
//! the boundary well-defined and bisectable.

use crate::aggregate::AggregateChain;

/// The tolerance envelope of a `(k, blocks)` reservation planned for
/// `(p_on, p_off)` at budget `rho`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ToleranceEnvelope {
    /// Planned parameters.
    pub planned: (f64, f64),
    /// Largest true `p_on` (with `p_off` at plan) still meeting `ρ`.
    pub max_p_on: f64,
    /// Smallest true `p_off` (with `p_on` at plan) still meeting `ρ`.
    pub min_p_off: f64,
    /// `max_p_on / planned.0` — the multiplicative headroom on spike
    /// frequency. 1.0 means no slack at all.
    pub p_on_headroom: f64,
    /// `planned.1 / min_p_off` — multiplicative headroom on spike length.
    pub p_off_headroom: f64,
}

/// CVR of a `(k, blocks)` system at given true parameters.
fn cvr_at(k: usize, blocks: usize, p_on: f64, p_off: f64) -> f64 {
    AggregateChain::new(k, p_on, p_off).cvr_with_blocks(blocks)
}

/// Computes the tolerance envelope for the reservation `blocks` on a PM of
/// `k` VMs planned at `(p_on, p_off)` with budget `rho`.
///
/// # Examples
/// ```
/// use bursty_markov::{tolerance_envelope, AggregateChain};
///
/// let blocks = AggregateChain::new(16, 0.01, 0.09).blocks_needed(0.01);
/// let env = tolerance_envelope(16, blocks, 0.01, 0.09, 0.01);
/// // The plan survives ~29% under-estimation of the spike frequency —
/// // comfortably covering trace-fitting error.
/// assert!(env.p_on_headroom > 1.2);
/// ```
///
/// # Panics
/// Panics if the plan itself violates the budget (the envelope would be
/// empty) or parameters are out of range.
pub fn tolerance_envelope(
    k: usize,
    blocks: usize,
    p_on: f64,
    p_off: f64,
    rho: f64,
) -> ToleranceEnvelope {
    assert!(rho > 0.0 && rho < 1.0, "rho must be in (0,1)");
    let at_plan = cvr_at(k, blocks, p_on, p_off);
    assert!(
        at_plan <= rho + 1e-12,
        "plan already violates the budget: CVR {at_plan} > rho {rho}"
    );

    // Largest tolerable p_on: bisect on (p_on, 1].
    let max_p_on = if cvr_at(k, blocks, 1.0, p_off) <= rho {
        1.0
    } else {
        bisect(|x| cvr_at(k, blocks, x, p_off) <= rho, p_on, 1.0)
    };
    // Smallest tolerable p_off: bisect on (0, p_off].
    let min_p_off = {
        // Guard the lower end: p_off → 0 drives CVR → Pr[θ>blocks] with
        // permanent spikes, certainly > ρ for blocks < k.
        let floor = 1e-6;
        if cvr_at(k, blocks, p_on, floor) <= rho {
            floor
        } else {
            bisect(|x| cvr_at(k, blocks, p_on, x) <= rho, floor, p_off).max(floor)
        }
    };
    ToleranceEnvelope {
        planned: (p_on, p_off),
        max_p_on,
        min_p_off,
        p_on_headroom: max_p_on / p_on,
        p_off_headroom: p_off / min_p_off,
    }
}

/// Bisects for the boundary of a monotone predicate: `ok(lo)` must hold;
/// returns the largest `x ∈ [lo, hi]` with `ok(x)` when `ok` flips from
/// true to false moving toward `hi`, or the smallest such `x` moving from
/// `hi` toward `lo` when `ok(hi)` holds instead.
fn bisect(ok: impl Fn(f64) -> bool, lo: f64, hi: f64) -> f64 {
    debug_assert!(lo < hi);
    // Normalize to: find the boundary between an ok-region touching one
    // end and a not-ok region touching the other.
    let ok_lo = ok(lo);
    let ok_hi = ok(hi);
    debug_assert!(ok_lo != ok_hi, "predicate must flip over [lo, hi]");
    let (mut a, mut b) = (lo, hi);
    for _ in 0..80 {
        let mid = 0.5 * (a + b);
        if ok(mid) == ok_lo {
            a = mid;
        } else {
            b = mid;
        }
    }
    // Return the last point on the ok side.
    if ok_lo {
        a
    } else {
        b
    }
}

/// Convenience: does the reservation planned at `(p_on, p_off)` survive a
/// relative estimation error of `eps` in the adversarial direction
/// (`p_on·(1+eps)`, `p_off/(1+eps)`) — the joint worst case?
pub fn survives_relative_error(
    k: usize,
    blocks: usize,
    p_on: f64,
    p_off: f64,
    rho: f64,
    eps: f64,
) -> bool {
    assert!(eps >= 0.0, "error must be nonnegative");
    let worst_on = (p_on * (1.0 + eps)).min(1.0);
    let worst_off = (p_off / (1.0 + eps)).max(1e-9);
    cvr_at(k, blocks, worst_on, worst_off) <= rho
}

#[cfg(test)]
mod tests {
    use super::*;

    const P_ON: f64 = 0.01;
    const P_OFF: f64 = 0.09;
    const RHO: f64 = 0.01;

    fn planned_blocks(k: usize) -> usize {
        AggregateChain::new(k, P_ON, P_OFF).blocks_needed(RHO)
    }

    #[test]
    fn envelope_contains_the_plan() {
        let k = 12;
        let blocks = planned_blocks(k);
        let env = tolerance_envelope(k, blocks, P_ON, P_OFF, RHO);
        assert!(env.max_p_on >= P_ON);
        assert!(env.min_p_off <= P_OFF);
        assert!(env.p_on_headroom >= 1.0);
        assert!(env.p_off_headroom >= 1.0);
    }

    #[test]
    fn boundary_is_tight() {
        let k = 12;
        let blocks = planned_blocks(k);
        let env = tolerance_envelope(k, blocks, P_ON, P_OFF, RHO);
        // Just inside: holds. Just outside: violates.
        assert!(cvr_at(k, blocks, env.max_p_on * 0.999, P_OFF) <= RHO);
        if env.max_p_on < 1.0 {
            assert!(cvr_at(k, blocks, (env.max_p_on * 1.01).min(1.0), P_OFF) > RHO);
        }
        assert!(cvr_at(k, blocks, P_ON, env.min_p_off * 1.001) <= RHO);
        if env.min_p_off > 1e-6 {
            assert!(cvr_at(k, blocks, P_ON, env.min_p_off * 0.99) > RHO);
        }
    }

    #[test]
    fn extra_blocks_widen_the_envelope() {
        let k = 12;
        let blocks = planned_blocks(k);
        let tight = tolerance_envelope(k, blocks, P_ON, P_OFF, RHO);
        let loose = tolerance_envelope(k, blocks + 1, P_ON, P_OFF, RHO);
        assert!(loose.max_p_on >= tight.max_p_on);
        assert!(loose.min_p_off <= tight.min_p_off);
    }

    #[test]
    fn headroom_covers_typical_fitting_error() {
        // Trace fitting at 30k samples estimates p_on within ~5%
        // relative error; the MapCal reservation must tolerate that.
        let k = 16;
        let blocks = planned_blocks(k);
        assert!(
            survives_relative_error(k, blocks, P_ON, P_OFF, RHO, 0.05),
            "5% estimation error must be inside the envelope"
        );
    }

    #[test]
    fn enormous_error_breaks_any_partial_reservation() {
        let k = 12;
        let blocks = planned_blocks(k);
        assert!(blocks < k);
        assert!(!survives_relative_error(k, blocks, P_ON, P_OFF, RHO, 50.0));
        // Full reservation survives anything.
        assert!(survives_relative_error(k, k, P_ON, P_OFF, RHO, 50.0));
    }

    #[test]
    fn full_reservation_envelope_is_maximal() {
        let env = tolerance_envelope(8, 8, P_ON, P_OFF, RHO);
        assert_eq!(env.max_p_on, 1.0);
        assert!(env.min_p_off <= 1e-6 + 1e-9);
    }

    #[test]
    #[should_panic(expected = "plan already violates")]
    fn infeasible_plan_is_rejected() {
        // Zero blocks at 10% ON cannot meet ρ = 1%.
        let _ = tolerance_envelope(8, 0, P_ON, P_OFF, RHO);
    }

    #[test]
    fn plan_exactly_at_budget_has_unit_headroom() {
        // Shrink the budget to the plan's own CVR: the plan sits exactly
        // on the boundary, so the envelope must collapse to the planned
        // point — headroom 1.0 in both directions, not a panic and not a
        // negative margin.
        let k = 12;
        let blocks = planned_blocks(k);
        let tight_rho = cvr_at(k, blocks, P_ON, P_OFF);
        assert!(tight_rho > 0.0 && tight_rho < RHO);
        let env = tolerance_envelope(k, blocks, P_ON, P_OFF, tight_rho);
        assert!(
            (env.p_on_headroom - 1.0).abs() < 1e-6,
            "p_on headroom must collapse to 1.0, got {}",
            env.p_on_headroom
        );
        assert!(
            (env.p_off_headroom - 1.0).abs() < 1e-6,
            "p_off headroom must collapse to 1.0, got {}",
            env.p_off_headroom
        );
        assert!(env.max_p_on >= P_ON, "the plan itself stays inside");
        assert!(env.min_p_off <= P_OFF, "the plan itself stays inside");
    }

    #[test]
    #[should_panic(expected = "plan already violates")]
    fn one_block_short_of_the_minimum_panics() {
        // `blocks_needed` returns the *minimum* compliant reservation, so
        // one block fewer must violate ρ — and the envelope of an empty
        // feasible region is documented to panic rather than fabricate
        // negative headroom.
        let k = 12;
        let blocks = planned_blocks(k);
        assert!(blocks > 0);
        let _ = tolerance_envelope(k, blocks - 1, P_ON, P_OFF, RHO);
    }
}
