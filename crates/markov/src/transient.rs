//! Transient (finite-horizon) analysis of the busy-block chain.
//!
//! The stationary distribution answers "what happens in the long run"; the
//! paper's §V-D additionally observes that the *system stabilizes within
//! about 10 σ*. This module quantifies that: the distribution of busy
//! blocks after exactly `t` steps (`Π_t = Π₀ Pᵗ`), the expected number of
//! violations accumulated over a finite window, and a total-variation
//! mixing-time estimate.

use crate::aggregate::AggregateChain;
use bursty_linalg::Matrix;

/// Finite-horizon analysis of an [`AggregateChain`].
///
/// # Examples
/// ```
/// use bursty_markov::{AggregateChain, TransientAnalysis};
///
/// let analysis = TransientAnalysis::new(AggregateChain::new(16, 0.01, 0.09));
/// // From a cold (all-OFF) start the chain mixes within a few dozen
/// // periods — the paper's "stabilized within ~10 σ" observation.
/// let mixing = analysis.mixing_time(0.01, 1_000).unwrap();
/// assert!(mixing < 100);
/// ```
#[derive(Debug, Clone)]
pub struct TransientAnalysis {
    chain: AggregateChain,
    p: Matrix,
}

impl TransientAnalysis {
    /// Prepares the analysis (builds the transition matrix once).
    pub fn new(chain: AggregateChain) -> Self {
        let p = chain.transition_matrix();
        Self { chain, p }
    }

    /// The underlying chain.
    pub fn chain(&self) -> &AggregateChain {
        &self.chain
    }

    /// `Pᵗ` via exponentiation by squaring (`O(k³ log t)`).
    pub fn matrix_power(&self, t: u32) -> Matrix {
        let n = self.p.rows();
        let mut result = Matrix::identity(n);
        let mut base = self.p.clone();
        let mut exp = t;
        while exp > 0 {
            if exp & 1 == 1 {
                result = result.matmul(&base);
            }
            base = base.matmul(&base);
            exp >>= 1;
        }
        result
    }

    /// The distribution of busy blocks after `t` steps from `start`
    /// (paper Eq. 13's prefix): `Π_t = Π₀ Pᵗ`.
    ///
    /// # Panics
    /// Panics if `start.len() != k + 1`.
    pub fn distribution_at(&self, start: &[f64], t: u32) -> Vec<f64> {
        assert_eq!(start.len(), self.p.rows(), "start must have k+1 entries");
        // Iterated vector-matrix products: O(k² t) beats O(k³ log t) for
        // the small t these analyses use, but matrix_power handles huge t.
        if t as usize <= 4 * self.p.rows() {
            let mut cur = start.to_vec();
            for _ in 0..t {
                cur = self.p.vecmul_left(&cur);
            }
            cur
        } else {
            self.matrix_power(t).vecmul_left(start).to_vec()
        }
    }

    /// Point mass on "all OFF" — the paper's `Π₀ = (1, 0, …, 0)` start,
    /// matching an initial placement made at the normal workload level.
    pub fn cold_start(&self) -> Vec<f64> {
        let mut v = vec![0.0; self.p.rows()];
        v[0] = 1.0;
        v
    }

    /// The probability that more than `blocks` blocks are busy at step `t`
    /// from a cold start — the *instantaneous* violation probability, whose
    /// long-`t` limit is the stationary CVR.
    pub fn violation_probability_at(&self, blocks: usize, t: u32) -> f64 {
        let dist = self.distribution_at(&self.cold_start(), t);
        dist.iter().skip(blocks + 1).sum()
    }

    /// Expected number of violation steps in `[1, horizon]` from a cold
    /// start with `blocks` reserved blocks (linearity of expectation over
    /// the per-step violation probabilities).
    pub fn expected_violations(&self, blocks: usize, horizon: u32) -> f64 {
        let mut dist = self.cold_start();
        let mut acc = 0.0;
        for _ in 1..=horizon {
            dist = self.p.vecmul_left(&dist);
            acc += dist.iter().skip(blocks + 1).sum::<f64>();
        }
        acc
    }

    /// Total-variation distance between the cold-start distribution at `t`
    /// and the stationary distribution.
    pub fn tv_distance_at(&self, t: u32) -> f64 {
        let stationary = self.chain.stationary();
        let dist = self.distribution_at(&self.cold_start(), t);
        0.5 * dist
            .iter()
            .zip(&stationary)
            .map(|(a, b)| (a - b).abs())
            .sum::<f64>()
    }

    /// The smallest `t` with total-variation distance ≤ `eps` (the mixing
    /// time; searches up to `max_t` and returns `None` if not reached).
    ///
    /// For the paper's parameters this lands around 10–40 steps — the
    /// analytic backing for "the system has stabilized merely within 10 σ
    /// or so".
    pub fn mixing_time(&self, eps: f64, max_t: u32) -> Option<u32> {
        assert!(eps > 0.0, "eps must be positive");
        let stationary = self.chain.stationary();
        let mut dist = self.cold_start();
        for t in 0..=max_t {
            let tv = 0.5
                * dist
                    .iter()
                    .zip(&stationary)
                    .map(|(a, b)| (a - b).abs())
                    .sum::<f64>();
            if tv <= eps {
                return Some(t);
            }
            dist = self.p.vecmul_left(&dist);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P_ON: f64 = 0.01;
    const P_OFF: f64 = 0.09;

    fn analysis(k: usize) -> TransientAnalysis {
        TransientAnalysis::new(AggregateChain::new(k, P_ON, P_OFF))
    }

    #[test]
    fn matrix_power_zero_is_identity() {
        let a = analysis(5);
        assert_eq!(a.matrix_power(0), Matrix::identity(6));
    }

    #[test]
    fn matrix_power_one_is_p() {
        let a = analysis(5);
        let p1 = a.matrix_power(1);
        let p = AggregateChain::new(5, P_ON, P_OFF).transition_matrix();
        for i in 0..6 {
            for j in 0..6 {
                assert!((p1[(i, j)] - p[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn matrix_power_matches_repeated_multiplication() {
        let a = analysis(4);
        let mut manual = Matrix::identity(5);
        let p = AggregateChain::new(4, P_ON, P_OFF).transition_matrix();
        for _ in 0..7 {
            manual = manual.matmul(&p);
        }
        let fast = a.matrix_power(7);
        for i in 0..5 {
            for j in 0..5 {
                assert!((manual[(i, j)] - fast[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn distribution_stays_normalized() {
        let a = analysis(8);
        for t in [0u32, 1, 5, 50, 500, 50_000] {
            let d = a.distribution_at(&a.cold_start(), t);
            let sum: f64 = d.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "t={t}: sum {sum}");
            assert!(d.iter().all(|&x| x >= -1e-12));
        }
    }

    #[test]
    fn long_horizon_converges_to_stationary() {
        let a = analysis(8);
        let late = a.distribution_at(&a.cold_start(), 5_000);
        let stationary = a.chain().stationary();
        for (x, y) in late.iter().zip(&stationary) {
            assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn dynamics_differ_even_if_stationary_agrees() {
        // The stationary law is the same binomial a textbook birth-death
        // (one event per slot) chain would give; the dense Eq. 12 matrix
        // earns its keep in the transient. From state 0 the chain can
        // jump straight to state 2 (two VMs spiking in one period)…
        let agg = AggregateChain::new(8, 0.3, 0.3);
        let p02 = agg.transition_prob(0, 2);
        assert!(
            p02 > 0.05,
            "simultaneous spikes must be likely at p_on = 0.3, got {p02}"
        );
        // …so one step after a cold start a single reserved block can
        // already be exceeded, which no single-event walker could do.
        let t = TransientAnalysis::new(agg);
        assert!(t.violation_probability_at(1, 1) > 0.0);
    }

    #[test]
    fn violation_probability_rises_from_zero_to_cvr() {
        let k = 12;
        let a = analysis(k);
        let blocks = a.chain().blocks_needed(0.01);
        assert_eq!(a.violation_probability_at(blocks, 0), 0.0);
        let early = a.violation_probability_at(blocks, 3);
        let late = a.violation_probability_at(blocks, 2_000);
        let cvr = a.chain().cvr_with_blocks(blocks);
        assert!(
            early < late,
            "violation probability must grow from cold start"
        );
        assert!(
            (late - cvr).abs() < 1e-9,
            "late {late} vs stationary CVR {cvr}"
        );
    }

    #[test]
    fn expected_violations_bounded_by_rho_times_horizon() {
        // The transient expectation is *below* ρ·T because the chain
        // starts all-OFF and only approaches stationarity from below.
        let k = 12;
        let a = analysis(k);
        let blocks = a.chain().blocks_needed(0.01);
        let horizon = 100;
        let expected = a.expected_violations(blocks, horizon);
        assert!(expected <= 0.01 * horizon as f64 + 1e-9);
        assert!(expected > 0.0);
    }

    #[test]
    fn expected_violations_additive_in_horizon() {
        let a = analysis(6);
        let e50 = a.expected_violations(2, 50);
        let e100 = a.expected_violations(2, 100);
        assert!(e100 > e50);
        // Increments approach the stationary per-step rate.
        let cvr = a.chain().cvr_with_blocks(2);
        let tail_rate =
            (a.expected_violations(2, 2_000) - a.expected_violations(2, 1_000)) / 1_000.0;
        assert!((tail_rate - cvr).abs() < 1e-6);
    }

    #[test]
    fn mixing_time_matches_papers_stabilization_remark() {
        // With the paper's parameters the chain mixes to within 1% TV in
        // a few tens of steps — consistent with "stabilized within ~10 σ".
        let a = analysis(16);
        let t = a.mixing_time(0.01, 1_000).expect("must mix");
        assert!(t <= 60, "mixing time {t} too large");
        assert!(t >= 5, "cold start cannot mix instantly, got {t}");
    }

    #[test]
    fn mixing_time_monotone_in_eps() {
        let a = analysis(10);
        let loose = a.mixing_time(0.1, 1_000).unwrap();
        let tight = a.mixing_time(0.001, 10_000).unwrap();
        assert!(tight >= loose);
    }

    #[test]
    fn mixing_time_none_when_budget_too_small() {
        let a = analysis(10);
        assert_eq!(a.mixing_time(1e-9, 1), None);
    }

    #[test]
    fn tv_distance_decreases() {
        let a = analysis(8);
        let d1 = a.tv_distance_at(1);
        let d10 = a.tv_distance_at(10);
        let d100 = a.tv_distance_at(100);
        assert!(d1 > d10 && d10 > d100, "{d1} {d10} {d100}");
    }
}
