//! Workload modelling: VM/PM specifications, the paper's workload patterns,
//! fleet generators, demand traces and the web-server request model.
//!
//! A VM is the paper's four-tuple `V_i = (p_on, p_off, R_b, R_e)`
//! ([`spec::VmSpec`]); a PM is its capacity ([`spec::PmSpec`]). The three
//! experimental workload patterns of §V ([`patterns::WorkloadPattern`]) and
//! the Table-I size classes ([`patterns::SizeClass`]) parameterize the
//! seeded [`FleetGenerator`]. [`trace`] turns specs into demand time
//! series `W_i(t)`; [`WebServerWorkload`] reproduces §V-D's
//! user/think-time request workload (Fig. 8); [`multidim`] carries the
//! §IV-E multi-resource extension.

//! [`fitting`] estimates the four-tuple from measured traces and
//! [`analysis`] quantifies burstiness (autocorrelation, index of
//! dispersion, run statistics) the way the paper's related work does.

pub mod analysis;
pub mod classes;
pub mod fitting;
mod fleet;
pub mod multidim;
pub mod patterns;
mod spec;
pub mod trace;
mod webserver;

pub use analysis::{profile, BurstinessProfile};
pub use classes::{class_runs, distinct_classes, intern_classes, ClassRun, VmClass};
pub use fitting::{fit_trace, FitError, FittedModel};
pub use fleet::{FleetGenerator, FleetOptions};
pub use patterns::{SizeClass, TableIRow, WorkloadPattern, TABLE_I};
pub use spec::{PmSpec, SpecError, VmSpec};
pub use trace::DemandTrace;
pub use webserver::{WebServerOptions, WebServerWorkload};
