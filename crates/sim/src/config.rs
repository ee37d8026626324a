//! Simulation configuration.

use crate::faults::FaultConfig;
use std::fmt;

/// How the migration controller picks which VM to evict from an
/// overloaded PM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VictimPolicy {
    /// The ON VM with the largest current demand — sheds the most load
    /// per migration (the default, used in all paper-figure experiments).
    #[default]
    LargestOnDemand,
    /// The *smallest* ON VM whose departure still clears the current
    /// overload — minimizes the demand in flight per migration (and, with
    /// demand a proxy for memory, the pre-copy cost). Falls back to the
    /// largest ON demand when no single VM suffices.
    SmallestSufficient,
    /// The VM with the smallest base demand — cheapest tenant to move
    /// regardless of its instantaneous state.
    SmallestBase,
}

/// How the engine assigns random-number streams to VM workload chains.
///
/// The layout is part of the *scientific configuration*: it selects which
/// sample path a seed produces, not just how fast the engine runs. Results
/// under either layout are drawn from exactly the same ON-OFF process —
/// only the pairing of seeds to sample paths differs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RngLayout {
    /// One serial generator shared by every VM, consumed in VM order each
    /// step — bit-identical to the engine as it existed before layouts
    /// were introduced (frozen by `sim/tests/golden.rs`). Inherently
    /// sequential: [`SimConfig::threads`] is ignored.
    #[default]
    Shared,
    /// Class-aggregated evolution: one ON-counter per `(PM, VM class)`
    /// cell, stepped with two counter-based binomial draws
    /// (`ON→OFF ~ B(n_on, p_off)`, `OFF→ON ~ B(n_off, p_on)`) keyed on
    /// `(seed, pm, class, step)` — the superposition argument behind the
    /// closed-form MapCal stationary, applied to the hot loop. Per-PM
    /// demand is `counter × class demand`, so the per-step cost scales
    /// with the number of occupied cells, not the fleet size. Outcomes
    /// are `f64::to_bits`-identical for any thread count and invariant
    /// under class enumeration order, but individual VMs no longer own
    /// sample paths: agreement with [`RngLayout::Shared`] is
    /// *distributional* (same per-PM ON-count law, CVR and energy within
    /// certified Wilson intervals), never bit-exact.
    ClassAggregated,
}

/// A structurally invalid [`SimConfig`], [`FaultConfig`], or
/// [`CheckpointConfig`], detected before the run instead of surfacing
/// as NaN CVRs, empty outcomes, or a checkpoint directory that turns
/// out unwritable only after hours of simulation.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// `steps == 0`: the run would observe nothing.
    ZeroSteps,
    /// `rho ∉ (0, 1)`: the CVR budget is a proper probability.
    RhoOutOfRange(f64),
    /// `mtbf_steps < 1` (or NaN): a PM cannot fail more than once a step.
    FaultMtbfOutOfRange(f64),
    /// `mttr_steps < 1` (or NaN): repairs take at least one step.
    FaultMttrOutOfRange(f64),
    /// `correlated_group_size == 0`: fault domains contain at least one PM.
    ZeroFaultGroup,
    /// `CheckpointConfig::every == 0`: a snapshot interval of zero would
    /// checkpoint before any step completes.
    ZeroCheckpointInterval,
    /// `CheckpointConfig::every ≥ steps`: the first snapshot would land
    /// at or past the horizon, so the run could never resume.
    CheckpointIntervalBeyondHorizon {
        /// The configured snapshot interval.
        every: usize,
        /// The run's step horizon.
        steps: usize,
    },
    /// `CheckpointConfig::keep == 0`: rotation must retain at least one
    /// snapshot or every save would immediately delete itself.
    ZeroCheckpointKeep,
    /// The checkpoint directory could not be created or probed for
    /// writability; carries the offending path and the OS error text.
    CheckpointDirUnwritable {
        /// The directory that rejected the write probe.
        path: String,
        /// The underlying OS error, stringified.
        cause: String,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::ZeroSteps => write!(f, "steps must be positive"),
            Self::RhoOutOfRange(r) => write!(f, "rho must be in (0,1), got {r}"),
            Self::FaultMtbfOutOfRange(m) => {
                write!(f, "mtbf_steps must be at least 1, got {m}")
            }
            Self::FaultMttrOutOfRange(m) => {
                write!(f, "mttr_steps must be at least 1, got {m}")
            }
            Self::ZeroFaultGroup => write!(f, "correlated_group_size must be at least 1"),
            Self::ZeroCheckpointInterval => {
                write!(f, "checkpoint interval must be positive")
            }
            Self::CheckpointIntervalBeyondHorizon { every, steps } => write!(
                f,
                "checkpoint interval {every} is not below the {steps}-step horizon; \
                 the first snapshot would never be taken"
            ),
            Self::ZeroCheckpointKeep => {
                write!(f, "checkpoint rotation must keep at least 1 snapshot")
            }
            Self::CheckpointDirUnwritable { path, cause } => {
                write!(f, "checkpoint directory {path:?} is not writable: {cause}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Durable-checkpoint knobs of a run (DESIGN.md §11). Deliberately a
/// separate struct from [`SimConfig`] (which stays `Copy`): snapshots
/// are an I/O concern layered onto the engine, not part of the
/// scientific configuration — the compatibility fingerprint embedded
/// in every snapshot hashes the simulation parameters and fleet only,
/// never these knobs, so resuming with a different interval, retention
/// count, or directory is always legal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointConfig {
    /// Take a snapshot after every `every` completed steps. Must be
    /// positive and below [`SimConfig::steps`] (a snapshot at or past
    /// the horizon would never be written — the run finishes first).
    pub every: usize,
    /// Rotation depth: the newest `keep` snapshots are retained, older
    /// ones deleted after each successful save. Must be at least 1;
    /// values above 1 buy resilience against a torn newest file.
    pub keep: usize,
    /// Directory the snapshot files live in; created on demand.
    pub dir: std::path::PathBuf,
}

impl CheckpointConfig {
    /// A snapshot every `every` steps into `dir`, keeping the newest 2
    /// (one deep enough to survive a torn newest file).
    pub fn new(every: usize, dir: impl Into<std::path::PathBuf>) -> Self {
        Self {
            every,
            keep: 2,
            dir: dir.into(),
        }
    }

    /// Validates the knobs against the run's `steps` horizon, probing
    /// the directory for writability (creating it if absent) so an
    /// unwritable volume is a typed error *before* the run, not a
    /// string of failed saves hours in.
    ///
    /// # Errors
    /// [`ConfigError`] on a zero interval, an interval at or past the
    /// horizon, a zero retention count, or a directory that cannot be
    /// created or written (the probe file is removed on success).
    pub fn validate(&self, steps: usize) -> Result<(), ConfigError> {
        if self.every == 0 {
            return Err(ConfigError::ZeroCheckpointInterval);
        }
        if self.every >= steps {
            return Err(ConfigError::CheckpointIntervalBeyondHorizon {
                every: self.every,
                steps,
            });
        }
        if self.keep == 0 {
            return Err(ConfigError::ZeroCheckpointKeep);
        }
        let unwritable = |cause: std::io::Error| ConfigError::CheckpointDirUnwritable {
            path: self.dir.display().to_string(),
            cause: cause.to_string(),
        };
        std::fs::create_dir_all(&self.dir).map_err(unwritable)?;
        let probe = self.dir.join(".bckp-probe");
        std::fs::write(&probe, b"probe").map_err(unwritable)?;
        std::fs::remove_file(&probe).map_err(unwritable)?;
        Ok(())
    }
}

/// Wall-clock seconds per update period, the paper's `σ = 30 s` (§V).
/// Only scales energy and the time axis of the series, not the dynamics.
pub(crate) const SIGMA_SECS: f64 = 30.0;

/// CUSUM-style allowance on the migration trigger: a PM migrates only
/// once its violation count exceeds `ρ · observations + allowance`. The
/// raw running ratio `violations / observations` sits above `ρ` after a
/// single violation for the first `1/ρ` periods of a run, so comparing
/// it to `ρ` directly evicts VMs from plan-compliant PMs on pure startup
/// noise. With an allowance of `c`, a compliant PM (violation rate ≤ ρ)
/// crosses the threshold with probability exponentially small in `c`,
/// while a PM violating at rate `p > ρ` still triggers within about
/// `c / (p − ρ)` periods.
pub(crate) const VIOLATION_ALLOWANCE: f64 = 5.0;

/// Base delay (in steps) of the migration retry queue: attempt `a` of a
/// deferred placement waits `RETRY_BASE_STEPS · 2^a` steps.
pub(crate) const RETRY_BASE_STEPS: usize = 2;

/// Retry budget. An overload migration's entry is abandoned after this
/// many failed re-attempts (the trigger re-detects a persisting overload
/// anyway); for a crash evacuation the *backoff exponent* saturates here
/// but the entry stays queued — a displaced VM is never silently
/// dropped.
pub(crate) const MAX_RETRIES: usize = 5;

/// Overflow margin `ε` of degraded-mode admission: when a displaced VM
/// fits nowhere under the active policy, admission is re-tried with
/// every capacity inflated to `(1 + ε)·C` before the VM is queued.
/// Violations on a PM hosting such an overflow admission are tagged
/// degraded, not burstiness.
pub(crate) const DEGRADED_EPSILON: f64 = 0.1;

/// Parameters of one simulation run. Defaults mirror the paper's §V-D
/// setup: an evaluation period of `100 σ` and `ρ = 0.01`; `σ` itself and
/// the controller's allowance, retry schedule and degraded margin are
/// the module's constants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Number of update periods to simulate.
    pub steps: usize,
    /// CVR threshold `ρ`: the migration trigger's per-period violation
    /// budget — a PM sheds a VM once its violations exceed `ρ` per active
    /// period plus the trigger's allowance of 5 violations (when
    /// migration is enabled).
    pub rho: f64,
    /// RNG seed; identical configs and seeds reproduce bit-identical runs.
    pub seed: u64,
    /// Whether the live-migration controller is active (§V-D) or the
    /// system relies on local resizing alone (§V-C).
    pub migrations_enabled: bool,
    /// Which VM an overloaded PM evicts.
    pub victim_policy: VictimPolicy,
    /// PM crash/recovery model; `None` (the default) reproduces the
    /// fault-free engine bit for bit.
    pub faults: Option<FaultConfig>,
    /// How workload RNG streams are laid out across VMs. The default
    /// [`RngLayout::Shared`] preserves the historical serial stream;
    /// [`RngLayout::ClassAggregated`] collapses same-class VMs on a PM
    /// into binomial counter cells for class-heavy fleets at scale.
    pub rng_layout: RngLayout,
    /// Worker threads for the [`RngLayout::ClassAggregated`] hot path,
    /// the only one that threads. `0` means "use the machine's available
    /// parallelism". Ignored under [`RngLayout::Shared`], and forced to
    /// 1 inside `runner::replicate_seeds` workers (replication-level
    /// parallelism already owns the cores). Any value yields
    /// bit-identical outcomes.
    pub threads: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            steps: 100,
            rho: 0.01,
            seed: 0,
            migrations_enabled: true,
            victim_policy: VictimPolicy::default(),
            faults: None,
            rng_layout: RngLayout::default(),
            threads: 1,
        }
    }
}

impl SimConfig {
    /// Whether a PM with `violations` violating steps in `active_steps`
    /// active ones has exceeded its compliant budget `ρ · active_steps`
    /// plus [`VIOLATION_ALLOWANCE`], and so sheds a VM — the one
    /// migration trigger of the engine's controller, its retry queue and
    /// `run_churn`.
    pub(crate) fn sheds_vm(&self, violations: usize, active_steps: usize) -> bool {
        violations as f64 > self.rho * active_steps as f64 + VIOLATION_ALLOWANCE
    }

    /// Validates field ranges, returning the first violation found.
    ///
    /// # Errors
    /// [`ConfigError`] on `steps == 0`, `rho ∉ (0,1)`, or an invalid
    /// [`FaultConfig`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.steps == 0 {
            return Err(ConfigError::ZeroSteps);
        }
        if !(self.rho > 0.0 && self.rho < 1.0) {
            return Err(ConfigError::RhoOutOfRange(self.rho));
        }
        if let Some(faults) = &self.faults {
            faults.validate()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = SimConfig::default();
        assert_eq!(c.steps, 100);
        assert_eq!(c.rho, 0.01);
        assert_eq!(SIGMA_SECS, 30.0);
        assert_eq!(VIOLATION_ALLOWANCE, 5.0);
        assert_eq!(RETRY_BASE_STEPS, 2);
        assert_eq!(MAX_RETRIES, 5);
        assert_eq!(DEGRADED_EPSILON, 0.1);
        assert!(c.migrations_enabled);
        assert!(c.faults.is_none(), "faults are off by default");
        c.validate().unwrap();
    }

    #[test]
    fn zero_steps_invalid() {
        let err = SimConfig {
            steps: 0,
            ..Default::default()
        }
        .validate()
        .unwrap_err();
        assert_eq!(err, ConfigError::ZeroSteps);
        assert!(err.to_string().contains("steps"));
    }

    #[test]
    fn bad_rho_invalid() {
        for rho in [0.0, 1.0, -0.5, f64::NAN] {
            let err = SimConfig {
                rho,
                ..Default::default()
            }
            .validate()
            .unwrap_err();
            assert!(
                matches!(err, ConfigError::RhoOutOfRange(_)),
                "rho {rho}: {err}"
            );
            assert!(err.to_string().contains("rho"));
        }
    }

    #[test]
    fn checkpoint_knobs_are_validated() {
        let tmp = std::env::temp_dir().join(format!("bckp-cfg-{}", std::process::id()));
        assert_eq!(
            CheckpointConfig::new(0, &tmp).validate(100),
            Err(ConfigError::ZeroCheckpointInterval)
        );
        assert_eq!(
            CheckpointConfig::new(100, &tmp).validate(100),
            Err(ConfigError::CheckpointIntervalBeyondHorizon {
                every: 100,
                steps: 100
            })
        );
        assert_eq!(
            CheckpointConfig {
                keep: 0,
                ..CheckpointConfig::new(10, &tmp)
            }
            .validate(100),
            Err(ConfigError::ZeroCheckpointKeep)
        );
        // A writable directory validates (and is created on demand)...
        CheckpointConfig::new(10, &tmp).validate(100).unwrap();
        assert!(tmp.is_dir());
        std::fs::remove_dir_all(&tmp).unwrap();
        // ...while a path under a regular file cannot be created.
        let err = CheckpointConfig::new(10, "/dev/null/ckpts")
            .validate(100)
            .unwrap_err();
        match &err {
            ConfigError::CheckpointDirUnwritable { path, .. } => {
                assert!(path.contains("/dev/null/ckpts"), "path {path}");
            }
            other => panic!("want CheckpointDirUnwritable, got {other:?}"),
        }
        assert!(err.to_string().contains("not writable"));
    }

    #[test]
    fn invalid_fault_config_is_caught() {
        let cfg = SimConfig {
            faults: Some(FaultConfig {
                mtbf_steps: 0.5,
                ..FaultConfig::default()
            }),
            ..Default::default()
        };
        assert_eq!(cfg.validate(), Err(ConfigError::FaultMtbfOutOfRange(0.5)));
    }
}
