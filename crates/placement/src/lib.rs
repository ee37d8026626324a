//! VM consolidation algorithms: the paper's burstiness-aware QueuingFFD
//! (Algorithms 1–2) and the baselines it is evaluated against.
//!
//! The pieces compose as follows:
//!
//! * [`mapcal::MappingTable`] — Algorithm 1 (*MapCal*): for every possible
//!   co-location count `k ≤ d` it stores the minimum number of reserved
//!   blocks `K` that keeps the PM's capacity-violation ratio under `ρ`.
//!   Its `π`-threshold form, one table per `(d, ρ)`, is what
//!   [`QueueStrategy`] prices every load by; the table itself stays as
//!   Algorithm 1's output and the oracle that price is pinned to.
//! * [`strategy::Strategy`] — a packing/admission policy: per-VM sort
//!   keys (the FFD order is a stable sort by them) plus a
//!   set-feasibility predicate for a PM. Implementations:
//!   [`QueueStrategy`] (Eq. 17), and the baselines [`PeakStrategy`] (FFD by
//!   `R_p`), [`BaseStrategy`] (FFD by `R_b`) and [`ReserveStrategy`]
//!   (RB-EX: FFD by `R_b` with a δ-fraction reserve).
//! * [`first_fit_batch`] — First Fit over class runs, the one production
//!   placer (offline packs and every online arrival); with a strategy's
//!   decreasing order it is the paper's FFD family. [`pack::first_fit`]
//!   is the per-VM reference it is held to, each slot found through an
//!   [`index::HeadroomIndex`] segment tree in `O(log m)`.
//! * [`certify::certify_exact`] — the exact stationary CVR of every PM of
//!   a placement (a convolution of the independent ON-OFF laws): the
//!   oracle the table above and both simulator layouts are checked
//!   against.
//! * [`online::OnlineCluster`] — §IV-E's online arrivals/exits, each PM
//!   priced at the hottest chain it hosts.
//! * [`multidim`] — §IV-E's per-dimension reservation with plain First Fit.
//!
//! Beyond the paper's main line: [`sbp`] implements the related-work
//! stochastic-bin-packing baseline, [`rounding`] keeps the fleet-wide
//! conservative probability rounding the system benchmark still calls,
//! and [`exact`] is a
//! branch-and-bound optimum for validating FFD quality on small instances.

mod batch;
mod certify;
pub mod clustering;
pub mod defrag;
mod evacuate;
pub mod exact;
mod index;
mod load;
mod mapcal;
pub mod multidim;
pub mod online;
mod order;
mod pack;
pub mod placement;
pub mod rounding;
pub mod sbp;
mod strategy;
mod stretch;

pub use batch::{first_fit_batch, first_fit_batch_with, PackProfile, PlacementState};
pub use certify::{certify_exact, pm_cvr_exact, CAP_EPS};
pub use evacuate::{evacuate_batch_recorded, EvacuationOutcome};
pub use index::HeadroomIndex;
pub use load::PmLoad;
pub use mapcal::MappingTable;
pub use online::{BatchProfile, OnlineCluster, OnlineEngine, ReferenceOnlineCluster, StateDigest};
pub use order::PmOrder;
pub use pack::{first_fit, PackError};
pub use placement::Placement;
pub use strategy::{BaseStrategy, PeakStrategy, QueueStrategy, ReserveStrategy, Strategy};
