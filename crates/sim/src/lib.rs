//! A deterministic, time-stepped data-center simulator — the substrate
//! standing in for the paper's Xen Cloud Platform testbed.
//!
//! The simulator advances in update periods of `σ` (the paper uses 30 s):
//! each step every VM's ON-OFF chain evolves, *local resizing* instantly
//! matches each VM's allocation to its demand, capacity violations are
//! tracked per PM, and (optionally) the *live-migration* controller moves a
//! VM off any PM whose running capacity-violation ratio exceeds `ρ`.
//!
//! The controller's target selection is where burstiness-awareness enters:
//!
//! * [`policy::QueuePolicy`] admits by the paper's Eq. 17 (spec-based
//!   reservation — it knows every VM's `R_e`), one instance of
//!   [`policy::SpecPolicy`], which decides by any packing strategy's own
//!   rule;
//! * [`policy::ObservedPolicy`] admits by *currently observed* demand, the
//!   behaviour of a scheduler "unaware of workload burstiness" — this is
//!   what produces the paper's *idle deception* and *cycle migration*
//!   phenomena for RB/RB-EX;
//! * [`policy::PeakPolicy`], the other `SpecPolicy`, admits by peak
//!   demand (never violates).
//!
//! [`replicate`] fans replications out across threads and aggregates
//! mean/min/max, matching the paper's 10-repetition methodology (Fig. 9).

#[doc(hidden)]
pub mod bench_api;
mod checkpoint;
mod config;
mod energy;
mod engine;
pub mod events;
mod faults;
mod members;
pub mod migration_cost;
mod policy;
pub mod rng;
mod runner;
mod scenario;
mod workload_core;

pub use checkpoint::{CheckpointError, CheckpointedRun, Checkpointer, RecoveryReport};
pub use config::{CheckpointConfig, ConfigError, RngLayout, SimConfig, VictimPolicy};
pub use engine::{RecoveryStats, SimOutcome, Simulator};
pub use events::{EvacuationEvent, FaultEvent, FaultKind, MigrationEvent};
pub use faults::{FaultConfig, FaultProcess};
pub use migration_cost::{MigrationCost, MigrationParams};
pub use policy::{
    DegradedAdmission, ObservedPolicy, PeakPolicy, PmRuntime, QueuePolicy, RuntimePolicy,
    SpecPolicy,
};
pub use runner::{replicate, run_indexed};
pub use scenario::{run_churn, ChurnOutcome};
