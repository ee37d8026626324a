//! Observability layer for the consolidation stack.
//!
//! Three pieces, matching the three consumers in the workspace:
//!
//! 1. [`Recorder`] — a trait of monotonic counters, gauges and log2-bucketed
//!    histograms that the hot paths (`sim::engine`, `placement`,
//!    `core::consolidator`) accept as a generic parameter. The
//!    [`NoopRecorder`] has `ENABLED = false` and empty inline methods, so
//!    every instrumentation site monomorphizes to nothing and the
//!    uninstrumented entry points keep their exact historical behaviour
//!    (the `Shared`-layout golden pins stay byte-identical by construction:
//!    no recorder method ever touches an RNG or a simulation value).
//! 2. [`EventJournal`] — a bounded ring buffer of typed [`Event`]s with
//!    deterministic sim-time timestamps, serializable as JSONL and parsed
//!    back by [`TraceReport`] for the `trace-report` CLI subcommand.
//! 3. [`certify_cvr`] — per-PM CVR sampling plus a Wilson-interval check
//!    (via `metrics::inference`) that the empirical violation fraction is
//!    statistically consistent with the analytic `certified_cvr`.
//!
//! The crate depends only on `bursty-metrics`, so every other crate in the
//! workspace can depend on it without cycles.

//! A fourth piece, [`durable`], carries the checksummed frame format and
//! the store abstraction (`FsStore` temp+fsync+rename, `MemStore`,
//! fault-injecting `FailingStore`) that `sim::checkpoint` persists
//! snapshots through.

mod certify;
pub mod durable;
mod journal;
mod recorder;
mod report;

pub use certify::{certify_cvr, CvrCheck};
pub use durable::{
    crc64, parse_frames, FailingStore, FrameError, FrameWriter, FsStore, InjectedFault, MemStore,
    Store,
};
pub use journal::{Event, EventJournal, RetryCause};
pub use recorder::{Counter, Gauge, HistId, MemoryRecorder, NoopRecorder, Recorder};
pub use report::TraceReport;
