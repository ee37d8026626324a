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
//! Every record is declared once: [`Counter`], [`Gauge`] and [`HistId`]
//! are each one table of variant, doc and snake_case name (`name()` and
//! `all()` follow from it), and [`Event`] is one table of variant, doc,
//! binary tag, JSONL `type` and fields, from which its JSONL line and its
//! snapshot codec are generated. Adding a record is one entry.
//!
//! The crate depends only on `bursty-metrics`, so every other crate in the
//! workspace can depend on it without cycles.

//! A fourth piece, [`durable`], carries the checksummed frame format, the
//! store abstraction (`FsStore` temp+fsync+rename, `MemStore`,
//! fault-injecting `FailingStore`) that `sim::checkpoint` and the daemon
//! persist snapshots through, and the one payload codec inside every
//! section: [`durable::Wire`], a type's binary layout written once (`put`
//! beside its inverse `get`, plus `MIN_BYTES`, the smallest encoding a
//! sequence length is bounded by). Sim checkpoints, the `OnlineCluster`
//! image, the recorder image and the daemon's meta section are each a
//! list of `Wire` values.

//! A fifth piece, [`json`], is the workspace's one JSON implementation:
//! the [`json::Json`] value, its strict parser and its encoder. The trace
//! JSONL is built and read back through it, and the placement daemon
//! (which re-exports `Json`) parses requests and renders replies with it.

mod certify;
pub mod durable;
mod journal;
pub mod json;
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
