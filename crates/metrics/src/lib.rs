//! Measurement utilities shared by the simulator, experiment binaries and
//! benches: summary statistics, time series, histograms, ASCII rendering
//! and CSV export.
//!
//! The experiment binaries print the same rows/series the paper's figures
//! report; everything here is presentation-side and dependency-free.

pub mod csv;
mod histogram;
pub mod inference;
pub mod plot;
pub mod slo;
mod stats;
mod table;
mod timeseries;

pub use histogram::{Histogram, Log2Histogram};
pub use inference::{
    certify_bound, effective_sample_size, wilson_interval, wilson_interval_fractional,
    BoundVerdict, ProportionCi,
};
pub use plot::{ascii_bars, ascii_series};
pub use stats::Summary;
pub use table::Table;
pub use timeseries::TimeSeries;
