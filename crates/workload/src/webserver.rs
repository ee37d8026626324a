//! The §V-D web-server request workload (paper Fig. 8).
//!
//! Each VM simulates a web server visited by a population of users. A user
//! sends a request, then "thinks" for `max(floor, Exp(mean))` seconds and
//! repeats. When the VM's ON-OFF chain is OFF the normal population
//! (`R_b`-level users) is active; a spike (ON) raises the population to the
//! peak level. The workload is quantified by requests per sampling interval.

use bursty_markov::{OnOffChain, VmState};
use rand::Rng;

/// Think-time model parameters. Paper values: negative-exponential with
/// mean 1 s, floored at 0.1 s ("in reality the user think time cannot be
/// infinitely small").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WebServerOptions {
    /// Mean of the exponential think time, seconds.
    pub think_mean: f64,
    /// Lower clamp on think time, seconds.
    pub think_floor: f64,
}

impl Default for WebServerOptions {
    fn default() -> Self {
        Self {
            think_mean: 1.0,
            think_floor: 0.1,
        }
    }
}

impl WebServerOptions {
    /// Mean of the clamped think time `Y = max(floor, Exp(mean))`:
    /// `E[Y] = floor + mean · e^(−floor/mean)`.
    pub(crate) fn mean_think(&self) -> f64 {
        self.think_floor + self.think_mean * (-self.think_floor / self.think_mean).exp()
    }

    /// Steady-state requests per second per user: `1 / E[Y]`.
    pub fn rate_per_user(&self) -> f64 {
        1.0 / self.mean_think()
    }

    /// Draws one clamped think time.
    pub(crate) fn sample_think<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // Inverse-CDF exponential, then clamp.
        let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        let x = -self.think_mean * u.ln();
        x.max(self.think_floor)
    }
}

/// A web-server VM: a user population modulated by an ON-OFF chain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WebServerWorkload {
    /// Users active at the normal (OFF) level — the `R_b` capability.
    pub normal_users: u32,
    /// Users active during a spike (ON) — the `R_p` capability.
    pub peak_users: u32,
    /// The VM's ON-OFF switching chain.
    pub chain: OnOffChain,
    /// Think-time model.
    pub opts: WebServerOptions,
}

impl WebServerWorkload {
    /// Creates a workload; `peak_users ≥ normal_users ≥ 1` is required.
    ///
    /// # Panics
    /// Panics if the populations are inconsistent.
    pub fn new(normal_users: u32, peak_users: u32, chain: OnOffChain) -> Self {
        assert!(normal_users >= 1, "need at least one normal user");
        assert!(
            peak_users >= normal_users,
            "peak population must be ≥ normal ({peak_users} < {normal_users})"
        );
        Self {
            normal_users,
            peak_users,
            chain,
            opts: WebServerOptions::default(),
        }
    }

    /// Active users in the given state.
    #[inline]
    pub(crate) fn active_users(&self, state: VmState) -> u32 {
        if state.is_on() {
            self.peak_users
        } else {
            self.normal_users
        }
    }

    /// Exact renewal-process simulation of the number of requests `users`
    /// users generate in `dt` seconds. Each user's first request lands at a
    /// uniformly-distributed phase of one think interval (stationary start).
    pub fn requests_exact<R: Rng + ?Sized>(&self, users: u32, dt: f64, rng: &mut R) -> u64 {
        let mut total = 0u64;
        for _ in 0..users {
            let mut t = rng.gen::<f64>() * self.opts.sample_think(rng);
            while t < dt {
                total += 1;
                t += self.opts.sample_think(rng);
            }
        }
        total
    }

    /// Generates a Fig.-8-style trace: `(state, requests)` per interval of
    /// `dt` seconds for `len` intervals, starting OFF.
    pub fn generate_trace<R: Rng + ?Sized>(
        &self,
        len: usize,
        dt: f64,
        rng: &mut R,
    ) -> Vec<(VmState, u64)> {
        let mut out = Vec::with_capacity(len);
        let mut state = VmState::Off;
        for _ in 0..len {
            let reqs = self.requests_exact(self.active_users(state), dt, rng);
            out.push((state, reqs));
            state = self.chain.step(state, rng);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn chain() -> OnOffChain {
        OnOffChain::new(0.01, 0.09)
    }

    #[test]
    fn clamped_think_time_moments_match_closed_forms() {
        let o = WebServerOptions::default();
        // E[Y] = 0.1 + e^{-0.1} ≈ 1.004837.
        assert!((o.mean_think() - 1.0048374).abs() < 1e-6);
    }

    #[test]
    fn sampled_think_times_respect_floor_and_mean() {
        let o = WebServerOptions::default();
        let mut rng = StdRng::seed_from_u64(1);
        let n = 200_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let y = o.sample_think(&mut rng);
            assert!(y >= o.think_floor);
            sum += y;
        }
        let mean = sum / n as f64;
        assert!(
            (mean - o.mean_think()).abs() < 0.01,
            "empirical mean {mean}"
        );
    }

    #[test]
    fn exact_request_count_matches_rate() {
        let w = WebServerWorkload::new(400, 800, chain());
        let mut rng = StdRng::seed_from_u64(2);
        let dt = 30.0;
        let reps = 50;
        let total: u64 = (0..reps).map(|_| w.requests_exact(400, dt, &mut rng)).sum();
        let mean = total as f64 / reps as f64;
        let expect = 400.0 * dt * w.opts.rate_per_user();
        assert!(
            (mean - expect).abs() / expect < 0.02,
            "mean {mean} vs expected {expect}"
        );
    }

    #[test]
    fn peak_state_generates_more_requests() {
        let w = WebServerWorkload::new(400, 1600, chain());
        let mut rng = StdRng::seed_from_u64(4);
        let off = w.requests_exact(w.active_users(VmState::Off), 10.0, &mut rng);
        let on = w.requests_exact(w.active_users(VmState::On), 10.0, &mut rng);
        assert!(on > off * 2, "on={on}, off={off}");
    }

    #[test]
    fn trace_has_len_and_starts_off() {
        let w = WebServerWorkload::new(10, 20, chain());
        let mut rng = StdRng::seed_from_u64(5);
        let tr = w.generate_trace(50, 1.0, &mut rng);
        assert_eq!(tr.len(), 50);
        assert_eq!(tr[0].0, VmState::Off);
    }

    #[test]
    fn trace_request_level_tracks_state() {
        let w = WebServerWorkload::new(100, 1600, OnOffChain::new(0.2, 0.2));
        let mut rng = StdRng::seed_from_u64(6);
        let tr = w.generate_trace(400, 1.0, &mut rng);
        let on_mean = {
            let xs: Vec<u64> = tr
                .iter()
                .filter(|(s, _)| s.is_on())
                .map(|&(_, r)| r)
                .collect();
            xs.iter().sum::<u64>() as f64 / xs.len().max(1) as f64
        };
        let off_mean = {
            let xs: Vec<u64> = tr
                .iter()
                .filter(|(s, _)| !s.is_on())
                .map(|&(_, r)| r)
                .collect();
            xs.iter().sum::<u64>() as f64 / xs.len().max(1) as f64
        };
        assert!(on_mean > 4.0 * off_mean, "on {on_mean} vs off {off_mean}");
    }

    #[test]
    #[should_panic(expected = "peak population")]
    fn rejects_peak_below_normal() {
        let _ = WebServerWorkload::new(800, 400, chain());
    }

    #[test]
    fn rate_per_user_is_just_under_one() {
        let o = WebServerOptions::default();
        let r = o.rate_per_user();
        assert!(r > 0.99 && r < 1.0, "rate {r}");
    }
}
