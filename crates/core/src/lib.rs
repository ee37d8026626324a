//! Burstiness-aware server consolidation via a queuing-theory approach —
//! a from-scratch Rust reproduction of Luo & Qian, IPDPS 2013.
//!
//! VM workloads burst: spikes are aperiodic, infrequent and short. Packing
//! VMs for their *peak* demand wastes machines; packing for their *normal*
//! demand melts down the moment spikes coincide. The paper's answer is to
//! model each VM as a two-state (ON-OFF) Markov chain and reserve, on every
//! physical machine, just enough *blocks* (spike-sized resource windows) so
//! that the PM's capacity-violation ratio stays below a threshold `ρ` —
//! computed exactly from the stationary distribution of a finite-source
//! `Geom/Geom/k` queue.
//!
//! # Quick start
//!
//! ```
//! use bursty_core::prelude::*;
//!
//! // A fleet of bursty VMs and a pool of PMs.
//! let mut gen = FleetGenerator::new(42);
//! let vms = gen.vms(60, WorkloadPattern::EqualSpike);
//! let pms = gen.pms(60);
//!
//! // Consolidate with the paper's QueuingFFD and check the packing.
//! let consolidator = Consolidator::new(Scheme::Queue);
//! let placement = consolidator.place(&vms, &pms).unwrap();
//! assert!(placement.pms_used() < 60);
//!
//! // Run the cluster for 200 update periods with live migration.
//! let outcome = consolidator.simulate(&vms, &pms, &placement, SimConfig {
//!     steps: 200,
//!     seed: 7,
//!     ..SimConfig::default()
//! });
//! assert!(outcome.mean_cvr() <= 0.02); // performance constraint honored
//! ```
//!
//! # Crate map
//!
//! | Module | Contents |
//! |---|---|
//! | [`markov`] | ON-OFF chains, the aggregated busy-block chain (Eq. 12), binomial PMFs |
//! | [`linalg`] | dense matrices, Gaussian elimination (the stationary-law oracle) |
//! | [`workload`] | VM/PM specs, workload patterns, fleet/trace/web-server generators |
//! | [`placement`] | MapCal, QueuingFFD, the RP/RB/RB-EX baselines, online + multi-dim variants |
//! | [`sim`] | the time-stepped data-center simulator with live migration |
//! | [`metrics`] | summary stats, time series, tables, ASCII plots, CSV |
//! | [`obs`] | zero-cost recorders, the structured event journal, CVR certification |

pub use bursty_linalg as linalg;
pub use bursty_markov as markov;
pub use bursty_metrics as metrics;
pub use bursty_obs as obs;
pub use bursty_placement as placement;
pub use bursty_sim as sim;
pub use bursty_workload as workload;

mod consolidator;

pub use consolidator::{Consolidator, Scheme};

/// The convenient single-import surface.
pub mod prelude {
    pub use crate::consolidator::{Consolidator, Scheme};
    pub use bursty_markov::{
        block_system_metrics, AggregateChain, BlockSystemMetrics, OnOffChain, VmState,
    };
    pub use bursty_metrics::{Summary, Table, TimeSeries};
    pub use bursty_obs::{
        certify_cvr, Counter, CvrCheck, Event, EventJournal, Gauge, HistId, MemoryRecorder,
        NoopRecorder, Recorder, TraceReport,
    };
    pub use bursty_placement::{
        first_fit, first_fit_batch, BaseStrategy, MappingTable, OnlineCluster, PeakStrategy,
        Placement, PlacementState, PmLoad, QueueStrategy, ReferenceOnlineCluster, ReserveStrategy,
        StateDigest, Strategy,
    };
    pub use bursty_sim::{
        replicate, run_churn, CheckpointConfig, CheckpointError, CheckpointedRun, ChurnOutcome,
        ConfigError, DegradedAdmission, EvacuationEvent, FaultConfig, FaultEvent, FaultKind,
        FaultProcess, MigrationEvent, ObservedPolicy, PeakPolicy, QueuePolicy, RecoveryReport,
        RecoveryStats, RngLayout, RuntimePolicy, SimConfig, SimOutcome, Simulator,
    };
    pub use bursty_workload::{
        fit_trace, FittedModel, FleetGenerator, PmSpec, SizeClass, VmSpec, WorkloadPattern, TABLE_I,
    };
}
