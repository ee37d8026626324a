//! Demand traces `W_i(t)` generated from a VM's ON-OFF chain (paper Fig. 1).

use crate::spec::VmSpec;
use bursty_markov::VmState;
use rand::Rng;

/// A sampled demand time series for one VM.
#[derive(Debug, Clone, PartialEq)]
pub struct DemandTrace {
    /// The spec the trace was sampled from.
    pub vm: VmSpec,
    /// The ON/OFF state at each step.
    pub states: Vec<VmState>,
}

impl DemandTrace {
    /// Samples a `len`-step trace. The initial state is drawn from the
    /// stationary distribution so traces start "in the middle" of the
    /// process rather than cold.
    pub fn sample<R: Rng + ?Sized>(vm: VmSpec, len: usize, rng: &mut R) -> Self {
        let chain = vm.chain();
        let start = chain.sample_stationary(rng);
        let states = chain.sample_trace(start, len, rng);
        Self { vm, states }
    }

    /// Samples a trace that starts OFF (normal traffic), matching the
    /// paper's assumption that the initial placement happens at `t = 0`
    /// with every VM at its normal level.
    pub fn sample_from_off<R: Rng + ?Sized>(vm: VmSpec, len: usize, rng: &mut R) -> Self {
        let chain = vm.chain();
        let states = chain.sample_trace(VmState::Off, len, rng);
        Self { vm, states }
    }

    /// The full demand series.
    pub fn demands(&self) -> Vec<f64> {
        self.states
            .iter()
            .map(|s| self.vm.demand(s.is_on()))
            .collect()
    }

    /// Fraction of steps spent ON.
    pub fn on_fraction(&self) -> f64 {
        if self.states.is_empty() {
            return 0.0;
        }
        self.states.iter().filter(|s| s.is_on()).count() as f64 / self.states.len() as f64
    }

    /// Number of distinct spikes (maximal ON runs).
    pub fn spike_count(&self) -> usize {
        let mut count = 0;
        let mut prev_on = false;
        for s in &self.states {
            let on = s.is_on();
            if on && !prev_on {
                count += 1;
            }
            prev_on = on;
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn vm() -> VmSpec {
        VmSpec::new(0, 0.01, 0.09, 10.0, 5.0)
    }

    #[test]
    fn demands_are_base_or_peak_only() {
        let mut rng = StdRng::seed_from_u64(1);
        let tr = DemandTrace::sample(vm(), 1000, &mut rng);
        for d in tr.demands() {
            assert!(d == 10.0 || d == 15.0, "unexpected demand {d}");
        }
    }

    #[test]
    fn from_off_starts_at_base_demand() {
        let mut rng = StdRng::seed_from_u64(2);
        let tr = DemandTrace::sample_from_off(vm(), 10, &mut rng);
        assert_eq!(tr.demands()[0], 10.0);
    }

    #[test]
    fn on_fraction_converges_to_stationary() {
        let mut rng = StdRng::seed_from_u64(3);
        let tr = DemandTrace::sample(vm(), 300_000, &mut rng);
        assert!(
            (tr.on_fraction() - 0.1).abs() < 0.01,
            "{}",
            tr.on_fraction()
        );
    }

    #[test]
    fn spike_count_counts_maximal_runs() {
        use VmState::{Off as F, On as N};
        let tr = DemandTrace {
            vm: vm(),
            states: vec![F, N, N, F, N, F, F, N, N, N],
        };
        assert_eq!(tr.spike_count(), 3);
    }

    #[test]
    fn spikes_are_short_and_infrequent_with_paper_parameters() {
        // p_on = 0.01 => ~1 spike per 100 steps of OFF time;
        // p_off = 0.09 => mean spike length ~11 steps.
        let mut rng = StdRng::seed_from_u64(4);
        let tr = DemandTrace::sample_from_off(vm(), 200_000, &mut rng);
        let spikes = tr.spike_count() as f64;
        let on_steps = tr.on_fraction() * tr.states.len() as f64;
        let mean_len = on_steps / spikes;
        assert!(
            (mean_len - 1.0 / 0.09).abs() < 1.0,
            "mean spike length {mean_len}"
        );
    }

    #[test]
    fn empty_trace_edge_cases() {
        let tr = DemandTrace {
            vm: vm(),
            states: vec![],
        };
        assert_eq!(tr.on_fraction(), 0.0);
        assert_eq!(tr.spike_count(), 0);
    }
}
