//! Markov-chain workload models for burstiness-aware consolidation.
//!
//! This crate implements the stochastic machinery of the paper:
//!
//! * [`onoff::OnOffChain`] — the two-state (ON/OFF) chain that models one
//!   VM's bursty demand (paper Fig. 2): `p_on` is the spike frequency,
//!   `p_off` the reciprocal spike duration.
//! * [`aggregate::AggregateChain`] — the `(k+1)`-state chain of the number
//!   of simultaneously-ON VMs among `k` collocated VMs (paper Fig. 4 /
//!   Eq. 12). In queuing terms: a discrete-time, finite-source
//!   `Geom/Geom/k` system with no waiting room. Its stationary distribution
//!   drives the MapCal reservation rule.
//! * [`binomial`] — numerically robust binomial PMFs used by Eq. 12.
//! * [`block_system_metrics`] — loss-system measures of the block system:
//!   utilization, carried vs offered load, spike-blocking probability.

mod aggregate;
pub mod binomial;
mod onoff;
mod queueing;
pub mod robustness;

pub use aggregate::{AggregateChain, Reservation};
pub use binomial::BinomialPmf;
pub use onoff::{OnOffChain, VmState};
pub use queueing::{block_system_metrics, BlockSystemMetrics};
pub use robustness::{survives_relative_error, tolerance_envelope, ToleranceEnvelope};
