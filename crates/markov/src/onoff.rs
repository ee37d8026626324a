//! The two-state ON-OFF chain modelling a single VM's bursty demand.

use bursty_linalg::Matrix;
use rand::Rng;

/// The two workload states of a VM (paper Fig. 2).
///
/// `Off` is the normal traffic level (demand `R_b`); `On` is a traffic
/// surge (demand `R_p = R_b + R_e`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VmState {
    /// Normal traffic; the VM demands `R_b`.
    Off,
    /// Traffic surge; the VM demands `R_b + R_e`.
    On,
}

impl VmState {
    /// `true` for [`VmState::On`].
    #[inline]
    pub fn is_on(self) -> bool {
        matches!(self, VmState::On)
    }
}

/// A two-state discrete-time Markov chain with switch probabilities
/// `p_on` (OFF→ON) and `p_off` (ON→OFF).
///
/// Interpretation (paper §III): `R_e` is the spike size, `p_on` the spike
/// frequency, and `1 / p_off` the mean spike duration.
///
/// # Examples
/// ```
/// use bursty_markov::OnOffChain;
///
/// // The paper's parameters: rare spikes (1% per period) lasting ~11
/// // periods, so the VM is ON 10% of the time.
/// let chain = OnOffChain::new(0.01, 0.09);
/// assert!((chain.stationary_on() - 0.1).abs() < 1e-12);
/// assert!((1.0 / chain.p_off() - 11.11).abs() < 0.01);
/// // Burst persistence: lag-1 autocorrelation 0.90.
/// assert!((chain.autocorrelation(1) - 0.9).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnOffChain {
    p_on: f64,
    p_off: f64,
}

impl OnOffChain {
    /// Creates a chain with the given switch probabilities.
    ///
    /// # Panics
    /// Panics unless both probabilities are in `(0, 1]` — the paper requires
    /// `p_on, p_off > 0` so that the aggregate chain is ergodic.
    pub fn new(p_on: f64, p_off: f64) -> Self {
        assert!(
            p_on > 0.0 && p_on <= 1.0,
            "p_on must be in (0,1], got {p_on}"
        );
        assert!(
            p_off > 0.0 && p_off <= 1.0,
            "p_off must be in (0,1], got {p_off}"
        );
        Self { p_on, p_off }
    }

    /// OFF→ON switch probability (spike frequency).
    #[inline]
    pub fn p_on(&self) -> f64 {
        self.p_on
    }

    /// ON→OFF switch probability (reciprocal of mean spike duration).
    #[inline]
    pub fn p_off(&self) -> f64 {
        self.p_off
    }

    /// The 2×2 one-step transition matrix, state order `[Off, On]`.
    pub fn transition_matrix(&self) -> Matrix {
        Matrix::from_vec(
            2,
            2,
            vec![1.0 - self.p_on, self.p_on, self.p_off, 1.0 - self.p_off],
        )
    }

    /// Long-run fraction of time spent ON: `p_on / (p_on + p_off)`.
    #[inline]
    pub fn stationary_on(&self) -> f64 {
        self.p_on / (self.p_on + self.p_off)
    }

    /// Lag-`h` autocorrelation of the ON indicator:
    /// `corr(X_t, X_{t+h}) = (1 − p_on − p_off)^h`.
    ///
    /// A positive value is the signature of burstiness — spikes cluster in
    /// time — which i.i.d. (stochastic-bin-packing) models cannot express.
    #[inline]
    pub fn autocorrelation(&self, lag: u32) -> f64 {
        (1.0 - self.p_on - self.p_off).powi(lag as i32)
    }

    /// One simulated step from `state` using `rng`.
    pub fn step<R: Rng + ?Sized>(&self, state: VmState, rng: &mut R) -> VmState {
        match state {
            VmState::Off => {
                if rng.gen::<f64>() < self.p_on {
                    VmState::On
                } else {
                    VmState::Off
                }
            }
            VmState::On => {
                if rng.gen::<f64>() < self.p_off {
                    VmState::Off
                } else {
                    VmState::On
                }
            }
        }
    }

    /// Samples an initial state from the stationary distribution.
    pub fn sample_stationary<R: Rng + ?Sized>(&self, rng: &mut R) -> VmState {
        if rng.gen::<f64>() < self.stationary_on() {
            VmState::On
        } else {
            VmState::Off
        }
    }

    /// Samples a trace of `len` states starting from `start` (the start
    /// state itself is the first element).
    pub fn sample_trace<R: Rng + ?Sized>(
        &self,
        start: VmState,
        len: usize,
        rng: &mut R,
    ) -> Vec<VmState> {
        let mut out = Vec::with_capacity(len);
        let mut cur = start;
        for _ in 0..len {
            out.push(cur);
            cur = self.step(cur, rng);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn paper_parameters_stationary_split() {
        // p_on = 0.01, p_off = 0.09 => 10% of time ON.
        let c = OnOffChain::new(0.01, 0.09);
        assert!((c.stationary_on() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn transition_matrix_is_stochastic_and_matches_linalg_stationary() {
        let c = OnOffChain::new(0.2, 0.4);
        let p = c.transition_matrix();
        assert!(p.is_row_stochastic(1e-12));
        let pi = bursty_linalg::stationary_distribution(&p).unwrap();
        assert!((pi[1] - c.stationary_on()).abs() < 1e-12);
    }

    #[test]
    fn autocorrelation_decays_geometrically() {
        let c = OnOffChain::new(0.01, 0.09);
        let r = 1.0 - 0.01 - 0.09;
        assert!((c.autocorrelation(0) - 1.0).abs() < 1e-12);
        assert!((c.autocorrelation(1) - r).abs() < 1e-12);
        assert!((c.autocorrelation(3) - r.powi(3)).abs() < 1e-12);
    }

    #[test]
    fn empirical_on_fraction_approaches_stationary() {
        let c = OnOffChain::new(0.01, 0.09);
        let mut rng = StdRng::seed_from_u64(42);
        let trace = c.sample_trace(VmState::Off, 400_000, &mut rng);
        let on = trace.iter().filter(|s| s.is_on()).count() as f64 / trace.len() as f64;
        assert!((on - 0.1).abs() < 0.01, "empirical on fraction {on}");
    }

    #[test]
    fn empirical_spike_duration_matches_mean() {
        let c = OnOffChain::new(0.05, 0.25);
        let mut rng = StdRng::seed_from_u64(7);
        let trace = c.sample_trace(VmState::Off, 300_000, &mut rng);
        // Measure mean ON-run length.
        let (mut runs, mut on_steps, mut in_run) = (0u64, 0u64, false);
        for s in &trace {
            match (s.is_on(), in_run) {
                (true, false) => {
                    runs += 1;
                    on_steps += 1;
                    in_run = true;
                }
                (true, true) => on_steps += 1,
                (false, _) => in_run = false,
            }
        }
        let mean_run = on_steps as f64 / runs as f64;
        assert!((mean_run - 4.0).abs() < 0.15, "mean ON run {mean_run}");
    }

    #[test]
    fn trace_has_requested_length_and_start() {
        let c = OnOffChain::new(0.5, 0.5);
        let mut rng = StdRng::seed_from_u64(3);
        let t = c.sample_trace(VmState::On, 17, &mut rng);
        assert_eq!(t.len(), 17);
        assert_eq!(t[0], VmState::On);
    }

    #[test]
    fn deterministic_with_same_seed() {
        let c = OnOffChain::new(0.3, 0.3);
        let a = c.sample_trace(VmState::Off, 100, &mut StdRng::seed_from_u64(9));
        let b = c.sample_trace(VmState::Off, 100, &mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "p_on")]
    fn rejects_zero_p_on() {
        let _ = OnOffChain::new(0.0, 0.5);
    }

    #[test]
    #[should_panic(expected = "p_off")]
    fn rejects_p_off_above_one() {
        let _ = OnOffChain::new(0.5, 1.5);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    proptest! {
        #[test]
        fn stationary_probabilities_form_distribution(
            p_on in 0.001f64..1.0, p_off in 0.001f64..1.0
        ) {
            let c = OnOffChain::new(p_on, p_off);
            prop_assert!(c.stationary_on() > 0.0 && c.stationary_on() < 1.0);
        }

        #[test]
        fn stationary_is_fixed_point_of_matrix(
            p_on in 0.001f64..1.0, p_off in 0.001f64..1.0
        ) {
            let c = OnOffChain::new(p_on, p_off);
            let p = c.transition_matrix();
            let pi = [1.0 - c.stationary_on(), c.stationary_on()];
            let next = p.vecmul_left(&pi);
            prop_assert!((next[0] - pi[0]).abs() < 1e-12);
            prop_assert!((next[1] - pi[1]).abs() < 1e-12);
        }

        #[test]
        fn step_preserves_state_space(
            p_on in 0.001f64..1.0, p_off in 0.001f64..1.0, seed in 0u64..1000
        ) {
            let c = OnOffChain::new(p_on, p_off);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut s = VmState::Off;
            for _ in 0..64 {
                s = c.step(s, &mut rng);
                prop_assert!(matches!(s, VmState::On | VmState::Off));
            }
        }
    }
}
