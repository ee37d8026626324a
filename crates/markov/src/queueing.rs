//! Queueing-theoretic performance measures of the block system.
//!
//! The paper formalizes its model as a *discrete-time, finite-source
//! `Geom/Geom/K` queue with no waiting room* (citing Tian & Xu's
//! discrete-time queueing text). Beyond the CVR used by MapCal, that model
//! carries the classic loss-system measures implemented here: block
//! utilization, spike-blocking probability, and carried vs offered load.
//!
//! Blocking is *event*-based (the fraction of arriving spikes that find
//! every block busy), distinct from the CVR, which is *time*-based. In
//! discrete time PASTA does not apply, so blocking is computed from the
//! stationary pre-arrival state and the binomial arrival/departure
//! dynamics rather than read off the time-stationary distribution.

use crate::aggregate::AggregateChain;
use crate::binomial::BinomialPmf;

/// Loss-system measures for `k` sources sharing `blocks` serving windows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockSystemMetrics {
    /// Number of sources (VMs), `k`.
    pub k: usize,
    /// Number of serving windows (reserved blocks), `K`.
    pub blocks: usize,
    /// Long-run mean number of ON sources (busy blocks counted without the
    /// `K` cap — the *offered* load in blocks).
    pub offered_load: f64,
    /// Long-run mean number of *occupied* blocks, `E[min(θ, K)]` — the
    /// carried load.
    pub carried_load: f64,
    /// Carried / `K`: the utilization of the reservation.
    pub utilization: f64,
    /// Probability that a newly-arriving spike finds all `K` blocks
    /// already occupied by *other* spikes (loss probability).
    pub blocking_probability: f64,
    /// Time-based violation ratio, `Pr[θ > K]` (the paper's CVR).
    pub cvr: f64,
}

/// Computes the loss-system measures for an aggregate chain with a given
/// reservation level.
pub fn block_system_metrics(chain: &AggregateChain, blocks: usize) -> BlockSystemMetrics {
    let k = chain.k();
    let pi = chain.stationary();
    let (p_on, p_off) = probe_probabilities(chain);

    let offered_load: f64 = pi.iter().enumerate().map(|(m, &p)| m as f64 * p).sum();
    let carried_load: f64 = pi
        .iter()
        .enumerate()
        .map(|(m, &p)| m.min(blocks) as f64 * p)
        .sum();
    let utilization = if blocks == 0 {
        0.0
    } else {
        carried_load / blocks as f64
    };

    // Blocking: condition on the pre-step state θ = i. A tagged OFF source
    // turns ON with probability p_on; it is blocked when the *other*
    // sources' post-step occupancy (departures among the i ON, arrivals
    // among the k−1−i other OFF sources) already fills all K blocks.
    // Average over arriving spikes (weight: number of OFF sources times
    // p_on — uniform across OFF sources, so weight ∝ (k − i)·π_i).
    let mut blocked_weight = 0.0;
    let mut arrival_weight = 0.0;
    for (i, &p_state) in pi.iter().enumerate() {
        let off = k - i;
        if off == 0 {
            continue;
        }
        let weight = p_state * off as f64 * p_on;
        // Distribution of others' occupancy after this step:
        // survivors ~ i − B(i, p_off); other arrivals ~ B(off − 1, p_on).
        let leave = BinomialPmf::new(i as u64, p_off).pmf_all();
        let join = BinomialPmf::new((off - 1) as u64, p_on).pmf_all();
        let mut p_full = 0.0;
        for (r, &pl) in leave.iter().enumerate() {
            let survivors = i - r;
            if survivors >= blocks {
                // Already full without any new arrival.
                p_full += pl;
                continue;
            }
            let need = blocks - survivors; // arrivals that fill the blocks
            let p_join_ge: f64 = join.iter().skip(need).sum();
            p_full += pl * p_join_ge;
        }
        blocked_weight += weight * p_full;
        arrival_weight += weight;
    }
    let blocking_probability = if arrival_weight > 0.0 {
        blocked_weight / arrival_weight
    } else {
        0.0
    };

    let cvr = chain.cvr_with_blocks(blocks);
    BlockSystemMetrics {
        k,
        blocks,
        offered_load,
        carried_load,
        utilization,
        blocking_probability,
        cvr,
    }
}

/// Recovers (p_on, p_off) from a chain by probing its `k = i` transition
/// structure. (The chain stores them privately; probing keeps this module
/// decoupled from its representation.)
fn probe_probabilities(chain: &AggregateChain) -> (f64, f64) {
    // From state 0: Pr[0 → 1, 2, …] determines p_on via the binomial
    // B(k, p_on); Pr[stay at 0] = (1 − p_on)^k.
    let k = chain.k();
    let p_stay0 = chain.transition_prob(0, 0);
    let p_on = 1.0 - p_stay0.powf(1.0 / k as f64);
    // From state k: Pr[stay at k] = (1 − p_off)^k.
    let p_stayk = chain.transition_prob(k, k);
    let p_off = 1.0 - p_stayk.powf(1.0 / k as f64);
    (p_on, p_off)
}

#[cfg(test)]
mod tests {
    use super::*;

    const P_ON: f64 = 0.01;
    const P_OFF: f64 = 0.09;

    #[test]
    fn probe_recovers_probabilities() {
        let chain = AggregateChain::new(7, 0.03, 0.2);
        let (p_on, p_off) = probe_probabilities(&chain);
        assert!((p_on - 0.03).abs() < 1e-9, "p_on {p_on}");
        assert!((p_off - 0.2).abs() < 1e-9, "p_off {p_off}");
    }

    #[test]
    fn offered_load_is_k_times_on_fraction() {
        let chain = AggregateChain::new(10, P_ON, P_OFF);
        let m = block_system_metrics(&chain, 3);
        assert!((m.offered_load - 10.0 * 0.1).abs() < 1e-9);
    }

    #[test]
    fn full_reservation_never_blocks() {
        let chain = AggregateChain::new(8, P_ON, P_OFF);
        let m = block_system_metrics(&chain, 8);
        assert!(m.blocking_probability < 1e-12);
        assert_eq!(m.cvr, 0.0);
        assert!((m.carried_load - m.offered_load).abs() < 1e-9);
    }

    #[test]
    fn zero_blocks_always_blocks() {
        let chain = AggregateChain::new(5, P_ON, P_OFF);
        let m = block_system_metrics(&chain, 0);
        assert!((m.blocking_probability - 1.0).abs() < 1e-9);
        assert_eq!(m.utilization, 0.0);
        assert_eq!(m.carried_load, 0.0);
    }

    #[test]
    fn blocking_decreases_in_blocks() {
        let chain = AggregateChain::new(12, P_ON, P_OFF);
        let mut prev = f64::INFINITY;
        for blocks in 0..=12 {
            let m = block_system_metrics(&chain, blocks);
            assert!(
                m.blocking_probability <= prev + 1e-12,
                "blocks={blocks}: {} > {prev}",
                m.blocking_probability
            );
            prev = m.blocking_probability;
        }
    }

    #[test]
    fn carried_never_exceeds_offered_or_capacity() {
        let chain = AggregateChain::new(16, 0.05, 0.1);
        for blocks in [1usize, 3, 8, 16] {
            let m = block_system_metrics(&chain, blocks);
            assert!(m.carried_load <= m.offered_load + 1e-12);
            assert!(m.carried_load <= blocks as f64 + 1e-12);
            assert!((0.0..=1.0 + 1e-12).contains(&m.utilization));
        }
    }

    #[test]
    fn mapcal_reservation_keeps_blocking_small() {
        // Blocking probability at the MapCal reservation is of the same
        // order as ρ — the loss view agrees with the time view.
        let chain = AggregateChain::new(16, P_ON, P_OFF);
        let blocks = chain.blocks_needed(0.01);
        let m = block_system_metrics(&chain, blocks);
        assert!(
            m.blocking_probability < 0.05,
            "blocking {}",
            m.blocking_probability
        );
        assert!(m.blocking_probability > 0.0);
    }

    #[test]
    fn blocking_vs_monte_carlo() {
        // Simulate the source dynamics and measure the fraction of spike
        // arrivals that find all blocks occupied by other ON sources.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let (k, blocks) = (8usize, 2usize);
        let chain = AggregateChain::new(k, 0.05, 0.15);
        let predicted = block_system_metrics(&chain, blocks).blocking_probability;

        let mut rng = StdRng::seed_from_u64(42);
        let mut on = vec![false; k];
        let (mut arrivals, mut blocked) = (0u64, 0u64);
        for _ in 0..2_000_000 {
            // Simultaneous switches, as the model prescribes.
            let mut next = on.clone();
            for i in 0..k {
                if on[i] {
                    if rng.gen::<f64>() < 0.15 {
                        next[i] = false;
                    }
                } else if rng.gen::<f64>() < 0.05 {
                    next[i] = true;
                }
            }
            for i in 0..k {
                if !on[i] && next[i] {
                    arrivals += 1;
                    let others = (0..k).filter(|&j| j != i && next[j]).count();
                    if others >= blocks {
                        blocked += 1;
                    }
                }
            }
            on = next;
        }
        let empirical = blocked as f64 / arrivals as f64;
        assert!(
            (empirical - predicted).abs() < 0.01,
            "empirical {empirical:.4} vs predicted {predicted:.4}"
        );
    }
}
