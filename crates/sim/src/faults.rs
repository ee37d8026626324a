//! PM crash/recovery model: a two-state (up/down) chain per fault domain.
//!
//! Each fault domain — a single PM, or a rack of
//! [`FaultConfig::correlated_group_size`] consecutive PMs — alternates
//! between *up* and *down* states with geometric holding times: while up it
//! crashes each step with probability `1 / mtbf_steps`, while down it
//! recovers with probability `1 / mttr_steps`. The chain is driven by its
//! own RNG stream, seeded from [`FaultConfig::seed`], so a fault schedule
//! is a pure function of `(config, fleet size, steps)` — reproducible and
//! completely orthogonal to the workload seed: turning faults on or off, or
//! re-seeding them, never perturbs the VMs' ON-OFF sample paths.
//!
//! The long-run availability of a domain is
//! `mtbf / (mtbf + mttr)`; with the defaults (MTBF 1000σ, MTTR 50σ) a PM is
//! up ≈ 95% of the time, a deliberately harsh regime for studying whether
//! burstiness reservations double as failure headroom.

use crate::config::ConfigError;
use crate::events::{FaultEvent, FaultKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of the PM failure process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Mean steps between failures of one fault domain (geometric, so the
    /// per-step crash probability is `1 / mtbf_steps`). Must be ≥ 1.
    pub mtbf_steps: f64,
    /// Mean steps to repair (geometric; per-step recovery probability
    /// `1 / mttr_steps`). Must be ≥ 1.
    pub mttr_steps: f64,
    /// PMs per fault domain: `1` gives independent per-PM failures; `g > 1`
    /// groups consecutive PMs (`[0..g)`, `[g..2g)`, …) into rack-level
    /// domains that crash and recover together.
    pub correlated_group_size: usize,
    /// Seed of the dedicated fault RNG stream.
    pub seed: u64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self {
            mtbf_steps: 1000.0,
            mttr_steps: 50.0,
            correlated_group_size: 1,
            seed: 0x0fa171,
        }
    }
}

impl FaultConfig {
    /// Validates field ranges.
    ///
    /// # Errors
    /// [`ConfigError`] when a mean holding time is below one step or the
    /// group size is zero.
    pub(crate) fn validate(&self) -> Result<(), ConfigError> {
        if self.mtbf_steps.is_nan() || self.mtbf_steps < 1.0 {
            return Err(ConfigError::FaultMtbfOutOfRange(self.mtbf_steps));
        }
        if self.mttr_steps.is_nan() || self.mttr_steps < 1.0 {
            return Err(ConfigError::FaultMttrOutOfRange(self.mttr_steps));
        }
        if self.correlated_group_size == 0 {
            return Err(ConfigError::ZeroFaultGroup);
        }
        Ok(())
    }

    /// Long-run fraction of time a fault domain is up,
    /// `MTBF / (MTBF + MTTR)`.
    pub fn availability(&self) -> f64 {
        self.mtbf_steps / (self.mtbf_steps + self.mttr_steps)
    }
}

/// The evolving failure state of a fleet of `m` PMs.
#[derive(Debug, Clone)]
pub struct FaultProcess {
    config: FaultConfig,
    rng: StdRng,
    /// Up/down per fault domain.
    domain_up: Vec<bool>,
    m: usize,
}

impl FaultProcess {
    /// Creates the process over `m` PMs; every domain starts up.
    ///
    /// # Panics
    /// Panics on an invalid configuration (callers reach this through
    /// [`crate::SimConfig::validate`], which reports the error as a value).
    pub fn new(config: FaultConfig, m: usize) -> Self {
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid FaultConfig: {e}"));
        let domains = m.div_ceil(config.correlated_group_size);
        Self {
            config,
            rng: StdRng::seed_from_u64(config.seed),
            domain_up: vec![true; domains],
            m,
        }
    }

    /// Whether PM `j` is currently up.
    pub fn is_up(&self, j: usize) -> bool {
        self.domain_up[j / self.config.correlated_group_size]
    }

    /// Advances the chain one step and returns the per-PM transitions, in
    /// ascending PM order. A domain crash emits one [`FaultKind::Crash`]
    /// event per member PM (and symmetrically for recoveries).
    pub fn step(&mut self, step: usize) -> Vec<FaultEvent> {
        let p_crash = 1.0 / self.config.mtbf_steps;
        let p_recover = 1.0 / self.config.mttr_steps;
        let g = self.config.correlated_group_size;
        let mut events = Vec::new();
        for (d, up) in self.domain_up.iter_mut().enumerate() {
            let flip = if *up {
                self.rng.gen::<f64>() < p_crash
            } else {
                self.rng.gen::<f64>() < p_recover
            };
            if !flip {
                continue;
            }
            let kind = if *up {
                FaultKind::Crash
            } else {
                FaultKind::Recovery
            };
            *up = !*up;
            for pm in d * g..((d + 1) * g).min(self.m) {
                events.push(FaultEvent { step, pm, kind });
            }
        }
        events
    }

    /// The generator's xoshiro256++ word state, for durable snapshots.
    pub fn rng_state(&self) -> [u64; 4] {
        self.rng.state()
    }

    /// Current up/down state per fault domain (not per PM), for durable
    /// snapshots.
    pub fn domain_states(&self) -> &[bool] {
        &self.domain_up
    }

    /// Rebuilds a mid-run process from snapshot parts. The restored
    /// process continues the exact event stream: `restore` at step `t`
    /// followed by `step(t..)` equals an uninterrupted run.
    ///
    /// # Errors
    /// A message when the config is invalid, the domain count disagrees
    /// with `(config, m)`, or the RNG state is the impossible all-zero
    /// word vector.
    pub fn restore(
        config: FaultConfig,
        m: usize,
        rng_state: [u64; 4],
        domain_up: Vec<bool>,
    ) -> Result<Self, String> {
        config.validate().map_err(|e| format!("{e}"))?;
        let domains = m.div_ceil(config.correlated_group_size);
        if domain_up.len() != domains {
            return Err(format!(
                "snapshot has {} domains, config implies {domains}",
                domain_up.len()
            ));
        }
        let rng = StdRng::from_state(rng_state)
            .ok_or_else(|| "all-zero RNG state is not reachable from any seed".to_string())?;
        Ok(Self {
            config,
            rng,
            domain_up,
            m,
        })
    }

    /// The full fault schedule over `steps` periods as a flat event list —
    /// a pure function of the configuration and fleet size, used by the
    /// determinism checks and available for offline analysis.
    pub fn schedule(config: FaultConfig, m: usize, steps: usize) -> Vec<FaultEvent> {
        let mut process = Self::new(config, m);
        (0..steps).flat_map(|t| process.step(t)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid_and_mostly_available() {
        let cfg = FaultConfig::default();
        cfg.validate().unwrap();
        assert!((cfg.availability() - 1000.0 / 1050.0).abs() < 1e-12);
    }

    #[test]
    fn validation_rejects_degenerate_parameters() {
        let bad_mtbf = FaultConfig {
            mtbf_steps: 0.0,
            ..Default::default()
        };
        assert_eq!(
            bad_mtbf.validate(),
            Err(ConfigError::FaultMtbfOutOfRange(0.0))
        );
        let bad_mttr = FaultConfig {
            mttr_steps: f64::NAN,
            ..Default::default()
        };
        assert!(matches!(
            bad_mttr.validate(),
            Err(ConfigError::FaultMttrOutOfRange(_))
        ));
        let bad_group = FaultConfig {
            correlated_group_size: 0,
            ..Default::default()
        };
        assert_eq!(bad_group.validate(), Err(ConfigError::ZeroFaultGroup));
    }

    #[test]
    fn schedule_is_deterministic_in_seed() {
        let cfg = FaultConfig {
            mtbf_steps: 50.0,
            mttr_steps: 10.0,
            ..Default::default()
        };
        let a = FaultProcess::schedule(cfg, 20, 500);
        let b = FaultProcess::schedule(cfg, 20, 500);
        assert_eq!(a, b, "same seed must give a byte-identical schedule");
        assert!(!a.is_empty(), "MTBF 50 over 500 steps must produce crashes");
        let c = FaultProcess::schedule(
            FaultConfig {
                seed: cfg.seed + 1,
                ..cfg
            },
            20,
            500,
        );
        assert_ne!(a, c, "different seed, different schedule");
    }

    #[test]
    fn snapshot_restore_resumes_the_exact_event_stream() {
        let cfg = FaultConfig {
            mtbf_steps: 40.0,
            mttr_steps: 8.0,
            correlated_group_size: 3,
            ..Default::default()
        };
        let mut a = FaultProcess::new(cfg, 11);
        for t in 0..250 {
            a.step(t);
        }
        let mut b =
            FaultProcess::restore(cfg, 11, a.rng_state(), a.domain_states().to_vec()).unwrap();
        for t in 250..500 {
            assert_eq!(a.step(t), b.step(t), "divergence at step {t}");
        }
        // Wrong domain count and the degenerate RNG state are rejected.
        assert!(FaultProcess::restore(cfg, 11, a.rng_state(), vec![true; 2]).is_err());
        assert!(FaultProcess::restore(cfg, 11, [0; 4], a.domain_states().to_vec()).is_err());
    }

    #[test]
    fn crashes_and_recoveries_alternate_per_pm() {
        let cfg = FaultConfig {
            mtbf_steps: 20.0,
            mttr_steps: 5.0,
            ..Default::default()
        };
        let events = FaultProcess::schedule(cfg, 10, 2000);
        for pm in 0..10 {
            let mut expect = FaultKind::Crash;
            for e in events.iter().filter(|e| e.pm == pm) {
                assert_eq!(e.kind, expect, "PM {pm} transitions must alternate");
                expect = match expect {
                    FaultKind::Crash => FaultKind::Recovery,
                    FaultKind::Recovery => FaultKind::Crash,
                };
            }
        }
    }

    #[test]
    fn empirical_availability_tracks_the_model() {
        let cfg = FaultConfig {
            mtbf_steps: 100.0,
            mttr_steps: 25.0,
            ..Default::default()
        };
        let mut process = FaultProcess::new(cfg, 50);
        let steps = 20_000;
        let mut up_steps = 0usize;
        for t in 0..steps {
            process.step(t);
            up_steps += (0..50).filter(|&j| process.is_up(j)).count();
        }
        let observed = up_steps as f64 / (steps * 50) as f64;
        assert!(
            (observed - cfg.availability()).abs() < 0.02,
            "observed availability {observed} vs model {}",
            cfg.availability()
        );
    }

    #[test]
    fn correlated_groups_fail_together() {
        let cfg = FaultConfig {
            mtbf_steps: 30.0,
            mttr_steps: 10.0,
            correlated_group_size: 4,
            ..Default::default()
        };
        let mut process = FaultProcess::new(cfg, 10);
        let mut saw_crash = false;
        for t in 0..1000 {
            for e in process.step(t) {
                // Every member of the domain shares the post-event state.
                let d = e.pm / 4;
                for pm in d * 4..((d + 1) * 4).min(10) {
                    assert_eq!(
                        process.is_up(pm),
                        e.kind == FaultKind::Recovery,
                        "group member {pm} must share domain state"
                    );
                }
                saw_crash |= e.kind == FaultKind::Crash;
            }
            // A partial trailing group (PMs 8, 9) still maps to a domain.
            let _ = process.is_up(9);
        }
        assert!(saw_crash);
    }

    #[test]
    fn group_events_cover_all_members() {
        let cfg = FaultConfig {
            mtbf_steps: 10.0,
            mttr_steps: 5.0,
            correlated_group_size: 3,
            ..Default::default()
        };
        let events = FaultProcess::schedule(cfg, 7, 300);
        // Events at one (step, kind) for a domain must list each member.
        for e in &events {
            let d = e.pm / 3;
            let members: Vec<usize> = (d * 3..((d + 1) * 3).min(7)).collect();
            for &pm in &members {
                assert!(
                    events
                        .iter()
                        .any(|x| x.step == e.step && x.kind == e.kind && x.pm == pm),
                    "domain {d} event at step {} missing member {pm}",
                    e.step
                );
            }
        }
    }
}
