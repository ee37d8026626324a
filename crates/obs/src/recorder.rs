//! The [`Recorder`] trait and its two stock implementations.
//!
//! Instrumented code takes `&mut R` where `R: Recorder` and guards anything
//! that allocates or formats behind `R::ENABLED`. [`NoopRecorder`] sets
//! `ENABLED = false` with empty `#[inline(always)]` methods, so the
//! monomorphized no-op path is byte-for-byte the uninstrumented code.
//! [`MemoryRecorder`] keeps everything in flat arrays (indexed by the
//! `Counter` / `Gauge` / `HistId` enums) plus an [`EventJournal`], and is
//! what the CLI's `--trace-out` and the certification tests use.

use crate::journal::{Event, EventJournal};
use bursty_metrics::Log2Histogram;

/// Monotonic counters. Every variant is a distinct slot in a flat array,
/// so `counter_add` is a single indexed add — cheap enough for per-step
/// call sites even with a recording recorder attached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Simulation steps executed by the engine loop.
    Steps,
    /// PM-steps in violation (capacity exceeded on an active PM).
    ViolationSteps,
    /// Subset of `ViolationSteps` attributable to degraded admissions.
    DegradedViolationSteps,
    /// Successful migrations (immediate trigger path).
    Migrations,
    /// Successful migrations that landed from the retry queue.
    RetriedMigrations,
    /// Migration attempts that found no feasible target.
    FailedMigrations,
    /// PM crash transitions.
    Crashes,
    /// PM recovery transitions.
    Recoveries,
    /// VMs evicted by crashes (displaced into evacuation).
    DisplacedVms,
    /// Evacuated VMs placed under the normal admission rule.
    EvacuationsPlaced,
    /// Evacuated VMs placed only under degraded (epsilon) admission.
    EvacuationsDegraded,
    /// VM-steps spent unhosted while waiting for evacuation retry.
    StrandedVmSteps,
    /// First-time retry enqueues (attempts == 0).
    RetryEnqueued,
    /// Re-enqueues after a failed retry attempt (attempts > 0).
    RetryReenqueued,
    /// Overload retries dropped after exhausting `max_retries`.
    RetryAbandoned,
    /// Overload retries cancelled because the VM was no longer hosted /
    /// no longer over budget when the retry came due.
    RetryCancelled,
    /// Overload retries that landed (== `retried_migrations`).
    RetryLandedOverload,
    /// Evacuation retries that landed a VM on a PM.
    RetryLandedEvacuation,
    /// Overload entries still queued when the run ended.
    RetryResidualOverload,
    /// Evacuation entries still queued when the run ended.
    RetryResidualEvacuation,
    /// Feasibility probes made by the packing first/best-fit search.
    PackProbes,
    /// Probes rejected by the admission check.
    PackRejectedProbes,
    /// VMs placed by the offline packers.
    PackPlacedVms,
    /// VMs placed by the class-collapsed batch packer.
    BatchPlacedVms,
    /// Placement attempts made by the evacuation batch placer.
    EvacProbes,
    /// Evacuation placement attempts refused by the admission rule.
    EvacRefusals,
    /// Online arrivals admitted.
    OnlineArrivals,
    /// Online departures processed.
    OnlineDepartures,
    /// Online recalibration passes.
    OnlineRecalibrations,
    /// Surviving entries visited while rebuilding a PM's load after a
    /// departure (bounded by the per-PM co-location cap `d`, never the
    /// fleet size).
    DepartRebuildVisits,
    /// Online batch-arrival calls.
    OnlineBatches,
    /// Recalibrations whose rounded pair moved less than ε, so the cached
    /// mapping table was kept and no index rebuild happened.
    OnlineRecalibrationsSkipped,
    /// Class-aggregated binomial draws answered from a memoized CDF
    /// table (see `sim::rng::binomial_table`).
    BinomialTableHits,
    /// Class-aggregated binomial draws that built their table first.
    BinomialTableMisses,
    /// Memoized CDF tables dropped by cache generation flushes.
    BinomialTableEvictions,
    /// Requests the placement daemon served under its engine lock
    /// (every op kind, reads included).
    ServeRequests,
    /// Requests rejected before reaching the engine (malformed HTTP,
    /// bad JSON, invalid parameters, unknown routes).
    ServeBadRequests,
    /// Fleet snapshots written by the daemon.
    ServeSnapshots,
    /// Fleet restores performed at daemon startup.
    ServeRestores,
}

impl Counter {
    pub(crate) const COUNT: usize = 39;

    /// Stable snake_case name used in the JSONL meta record.
    pub fn name(self) -> &'static str {
        match self {
            Counter::Steps => "steps",
            Counter::ViolationSteps => "violation_steps",
            Counter::DegradedViolationSteps => "degraded_violation_steps",
            Counter::Migrations => "migrations",
            Counter::RetriedMigrations => "retried_migrations",
            Counter::FailedMigrations => "failed_migrations",
            Counter::Crashes => "crashes",
            Counter::Recoveries => "recoveries",
            Counter::DisplacedVms => "displaced_vms",
            Counter::EvacuationsPlaced => "evacuations_placed",
            Counter::EvacuationsDegraded => "evacuations_degraded",
            Counter::StrandedVmSteps => "stranded_vm_steps",
            Counter::RetryEnqueued => "retry_enqueued",
            Counter::RetryReenqueued => "retry_reenqueued",
            Counter::RetryAbandoned => "retry_abandoned",
            Counter::RetryCancelled => "retry_cancelled",
            Counter::RetryLandedOverload => "retry_landed_overload",
            Counter::RetryLandedEvacuation => "retry_landed_evacuation",
            Counter::RetryResidualOverload => "retry_residual_overload",
            Counter::RetryResidualEvacuation => "retry_residual_evacuation",
            Counter::PackProbes => "pack_probes",
            Counter::PackRejectedProbes => "pack_rejected_probes",
            Counter::PackPlacedVms => "pack_placed_vms",
            Counter::BatchPlacedVms => "batch_placed_vms",
            Counter::EvacProbes => "evac_probes",
            Counter::EvacRefusals => "evac_refusals",
            Counter::OnlineArrivals => "online_arrivals",
            Counter::OnlineDepartures => "online_departures",
            Counter::OnlineRecalibrations => "online_recalibrations",
            Counter::DepartRebuildVisits => "depart_rebuild_visits",
            Counter::OnlineBatches => "online_batches",
            Counter::OnlineRecalibrationsSkipped => "online_recalibrations_skipped",
            Counter::BinomialTableHits => "binomial_table_hits",
            Counter::BinomialTableMisses => "binomial_table_misses",
            Counter::BinomialTableEvictions => "binomial_table_evictions",
            Counter::ServeRequests => "serve_requests",
            Counter::ServeBadRequests => "serve_bad_requests",
            Counter::ServeSnapshots => "serve_snapshots",
            Counter::ServeRestores => "serve_restores",
        }
    }

    /// All variants in declaration order (for reporting).
    pub fn all() -> [Counter; Counter::COUNT] {
        [
            Counter::Steps,
            Counter::ViolationSteps,
            Counter::DegradedViolationSteps,
            Counter::Migrations,
            Counter::RetriedMigrations,
            Counter::FailedMigrations,
            Counter::Crashes,
            Counter::Recoveries,
            Counter::DisplacedVms,
            Counter::EvacuationsPlaced,
            Counter::EvacuationsDegraded,
            Counter::StrandedVmSteps,
            Counter::RetryEnqueued,
            Counter::RetryReenqueued,
            Counter::RetryAbandoned,
            Counter::RetryCancelled,
            Counter::RetryLandedOverload,
            Counter::RetryLandedEvacuation,
            Counter::RetryResidualOverload,
            Counter::RetryResidualEvacuation,
            Counter::PackProbes,
            Counter::PackRejectedProbes,
            Counter::PackPlacedVms,
            Counter::BatchPlacedVms,
            Counter::EvacProbes,
            Counter::EvacRefusals,
            Counter::OnlineArrivals,
            Counter::OnlineDepartures,
            Counter::OnlineRecalibrations,
            Counter::DepartRebuildVisits,
            Counter::OnlineBatches,
            Counter::OnlineRecalibrationsSkipped,
            Counter::BinomialTableHits,
            Counter::BinomialTableMisses,
            Counter::BinomialTableEvictions,
            Counter::ServeRequests,
            Counter::ServeBadRequests,
            Counter::ServeSnapshots,
            Counter::ServeRestores,
        ]
    }
}

/// Point-in-time values overwritten on each set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Gauge {
    /// PMs in use after the initial pack.
    PmsUsedAtPack,
    /// Peak concurrent PMs over the run.
    PeakPmsUsed,
    /// PMs in use at the end of the run.
    FinalPmsUsed,
    /// Total energy of the run in joules.
    EnergyJoules,
}

impl Gauge {
    pub(crate) const COUNT: usize = 4;

    pub fn name(self) -> &'static str {
        match self {
            Gauge::PmsUsedAtPack => "pms_used_at_pack",
            Gauge::PeakPmsUsed => "peak_pms_used",
            Gauge::FinalPmsUsed => "final_pms_used",
            Gauge::EnergyJoules => "energy_joules",
        }
    }

    pub fn all() -> [Gauge; Gauge::COUNT] {
        [
            Gauge::PmsUsedAtPack,
            Gauge::PeakPmsUsed,
            Gauge::FinalPmsUsed,
            Gauge::EnergyJoules,
        ]
    }
}

/// Log2-bucketed histograms (see `metrics::Log2Histogram`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum HistId {
    /// Backoff delays (in steps) chosen for retry enqueues.
    RetryBackoffSteps,
    /// Displaced-VM batch sizes handed to the evacuator per crash step.
    EvacuationBatchSize,
    /// Violating-PM count per step with at least one violation.
    ViolationsPerStep,
    /// Per-arrival admission latency in nanoseconds (recorded by the
    /// churn drivers, not the library — the engines stay clock-free).
    OnlineAdmitNanos,
    /// Per-departure latency in nanoseconds.
    OnlineDepartNanos,
    /// Per-recalibration latency in nanoseconds.
    OnlineRecalibrateNanos,
}

impl HistId {
    pub(crate) const COUNT: usize = 6;

    pub fn name(self) -> &'static str {
        match self {
            HistId::RetryBackoffSteps => "retry_backoff_steps",
            HistId::EvacuationBatchSize => "evacuation_batch_size",
            HistId::ViolationsPerStep => "violations_per_step",
            HistId::OnlineAdmitNanos => "online_admit_nanos",
            HistId::OnlineDepartNanos => "online_depart_nanos",
            HistId::OnlineRecalibrateNanos => "online_recalibrate_nanos",
        }
    }

    pub fn all() -> [HistId; HistId::COUNT] {
        [
            HistId::RetryBackoffSteps,
            HistId::EvacuationBatchSize,
            HistId::ViolationsPerStep,
            HistId::OnlineAdmitNanos,
            HistId::OnlineDepartNanos,
            HistId::OnlineRecalibrateNanos,
        ]
    }
}

/// Sink for instrumentation emitted by the engine, the placement layer and
/// the consolidator facade.
///
/// Contract: implementations must be *passive* — no method may influence
/// the caller's control flow or numeric state. The engine relies on this to
/// keep instrumented and uninstrumented runs `f64::to_bits`-identical
/// (enforced by differential proptests in `sim`).
pub trait Recorder {
    /// `false` only for [`NoopRecorder`]; instrumented code wraps any work
    /// beyond a plain method call (journal event construction, per-PM
    /// sampling loops) in `if R::ENABLED { .. }` so the no-op
    /// monomorphization contains no dead setup code.
    const ENABLED: bool;

    /// Add `by` to a monotonic counter.
    fn counter_add(&mut self, counter: Counter, by: u64);

    /// Increment a monotonic counter by one.
    #[inline(always)]
    fn counter_inc(&mut self, counter: Counter) {
        self.counter_add(counter, 1);
    }

    /// Overwrite a gauge.
    fn gauge_set(&mut self, gauge: Gauge, value: f64);

    /// Record one value into a log2 histogram.
    fn record_value(&mut self, hist: HistId, value: u64);

    /// Append a typed event to the journal (ring-buffered; may evict).
    fn record_event(&mut self, event: Event);

    /// `Some(every)` requests a per-PM CVR sample each `every` steps.
    /// `None` (the default) disables sampling entirely.
    #[inline(always)]
    fn cvr_sample_interval(&self) -> Option<usize> {
        None
    }

    /// Receive a CVR sample: cumulative violation and active PM-step
    /// counts per PM as of `step`. Called only when
    /// [`cvr_sample_interval`](Recorder::cvr_sample_interval) is `Some`,
    /// and once more at end of run.
    #[inline(always)]
    fn sample_cvr(&mut self, _step: u64, _violations: &[usize], _active: &[usize]) {}

    /// Whether per-step `Event::Step` records are wanted (high volume).
    #[inline(always)]
    fn wants_step_events(&self) -> bool {
        false
    }

    /// The recorder's durable self-description, captured at a step
    /// boundary so a resumed run neither loses nor duplicates events
    /// across the checkpoint seam. `None` (the default, and the
    /// [`NoopRecorder`] answer) means the recorder carries no state worth
    /// persisting; [`MemoryRecorder`] returns its
    /// [`to_snapshot_bytes`](MemoryRecorder::to_snapshot_bytes) image.
    #[inline(always)]
    fn snapshot_bytes(&self) -> Option<Vec<u8>> {
        None
    }

    /// Replaces this recorder's state with a snapshot previously
    /// produced by [`snapshot_bytes`](Recorder::snapshot_bytes),
    /// returning whether the restore happened. The default (and the
    /// [`NoopRecorder`] answer) is `false`: a stateless recorder has
    /// nothing to restore, and a resumed run simply records afresh.
    #[inline(always)]
    fn restore_from_snapshot(&mut self, _bytes: &[u8]) -> bool {
        false
    }
}

/// The disabled recorder: every method is an empty `#[inline(always)]`
/// body and `ENABLED = false`, so instrumentation sites compile away.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    const ENABLED: bool = false;

    #[inline(always)]
    fn counter_add(&mut self, _counter: Counter, _by: u64) {}

    #[inline(always)]
    fn gauge_set(&mut self, _gauge: Gauge, _value: f64) {}

    #[inline(always)]
    fn record_value(&mut self, _hist: HistId, _value: u64) {}

    #[inline(always)]
    fn record_event(&mut self, _event: Event) {}
}

/// Number of log2 buckets kept per histogram: values here are step counts
/// and batch sizes, so 33 buckets (up to 2^32) is plenty and keeps the
/// recorder small.
const MEMORY_HIST_BUCKETS: usize = 33;

/// An in-memory recorder: flat counter/gauge arrays, log2 histograms and a
/// bounded event journal. This is the "counting recorder" the overhead
/// gate benchmarks against, and the backing store for `--trace-out`.
#[derive(Debug, Clone)]
pub struct MemoryRecorder {
    counters: [u64; Counter::COUNT],
    gauges: [f64; Gauge::COUNT],
    hists: Vec<Log2Histogram>,
    journal: EventJournal,
    cvr_every: Option<usize>,
    cvr_series: Vec<crate::certify::CvrSeries>,
    step_events: bool,
}

impl MemoryRecorder {
    /// A recorder with a journal capacity of `journal_cap` events (0
    /// disables the journal) and no CVR sampling.
    pub fn new(journal_cap: usize) -> Self {
        MemoryRecorder {
            counters: [0; Counter::COUNT],
            gauges: [0.0; Gauge::COUNT],
            hists: (0..HistId::COUNT)
                .map(|_| Log2Histogram::new(MEMORY_HIST_BUCKETS))
                .collect(),
            journal: EventJournal::new(journal_cap),
            cvr_every: None,
            cvr_series: Vec::new(),
            step_events: false,
        }
    }

    /// Enable per-PM CVR sampling every `every` steps (`every >= 1`).
    pub fn with_cvr_sampling(mut self, every: usize) -> Self {
        assert!(every >= 1, "sampling interval must be >= 1");
        self.cvr_every = Some(every);
        self
    }

    /// Enable per-step `Event::Step` records (high volume; journal may
    /// evict older events).
    pub fn with_step_events(mut self) -> Self {
        self.step_events = true;
        self
    }

    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter as usize]
    }

    pub fn gauge(&self, gauge: Gauge) -> f64 {
        self.gauges[gauge as usize]
    }

    pub fn histogram(&self, hist: HistId) -> &Log2Histogram {
        &self.hists[hist as usize]
    }

    pub fn journal(&self) -> &EventJournal {
        &self.journal
    }

    /// Per-PM CVR sample series, one entry per sampled PM, in PM order.
    pub fn cvr_series(&self) -> &[crate::certify::CvrSeries] {
        &self.cvr_series
    }

    /// Serializes the full recorder state (counters, gauges, histograms,
    /// journal contents + eviction count, CVR sampling config and series,
    /// step-event flag) as a compact binary image for checkpointing.
    /// [`from_snapshot_bytes`](Self::from_snapshot_bytes) restores a
    /// recorder that continues recording exactly where this one stopped.
    pub fn to_snapshot_bytes(&self) -> Vec<u8> {
        use crate::durable::{put_bool, put_f64, put_u64, put_usize};
        let mut buf = Vec::with_capacity(1024);
        put_usize(&mut buf, Counter::COUNT);
        for &c in &self.counters {
            put_u64(&mut buf, c);
        }
        put_usize(&mut buf, Gauge::COUNT);
        for &g in &self.gauges {
            put_f64(&mut buf, g);
        }
        put_usize(&mut buf, self.hists.len());
        for h in &self.hists {
            put_usize(&mut buf, h.counts().len());
            for &n in h.counts() {
                put_u64(&mut buf, n);
            }
        }
        put_usize(&mut buf, self.journal.capacity());
        put_u64(&mut buf, self.journal.dropped());
        put_usize(&mut buf, self.journal.len());
        for event in self.journal.iter() {
            event.encode(&mut buf);
        }
        match self.cvr_every {
            Some(every) => {
                put_bool(&mut buf, true);
                put_usize(&mut buf, every);
            }
            None => put_bool(&mut buf, false),
        }
        put_usize(&mut buf, self.cvr_series.len());
        for series in &self.cvr_series {
            put_usize(&mut buf, series.samples().len());
            for &(step, v, a) in series.samples() {
                put_u64(&mut buf, step);
                put_usize(&mut buf, v);
                put_usize(&mut buf, a);
            }
        }
        put_bool(&mut buf, self.step_events);
        buf
    }

    /// Restores a recorder from a
    /// [`to_snapshot_bytes`](Self::to_snapshot_bytes) image.
    pub fn from_snapshot_bytes(bytes: &[u8]) -> Result<Self, crate::durable::FrameError> {
        use crate::durable::{Cursor, FrameError};
        let mut c = Cursor::new(bytes);
        let n_counters = c.usize()?;
        if n_counters != Counter::COUNT {
            return Err(FrameError::Decode(format!(
                "snapshot has {n_counters} counters, this build has {}",
                Counter::COUNT
            )));
        }
        let mut counters = [0u64; Counter::COUNT];
        for slot in counters.iter_mut() {
            *slot = c.u64()?;
        }
        let n_gauges = c.usize()?;
        if n_gauges != Gauge::COUNT {
            return Err(FrameError::Decode(format!(
                "snapshot has {n_gauges} gauges, this build has {}",
                Gauge::COUNT
            )));
        }
        let mut gauges = [0.0f64; Gauge::COUNT];
        for slot in gauges.iter_mut() {
            *slot = c.f64()?;
        }
        let n_hists = c.seq_len(8)?;
        if n_hists != HistId::COUNT {
            return Err(FrameError::Decode(format!(
                "snapshot has {n_hists} histograms, this build has {}",
                HistId::COUNT
            )));
        }
        let mut hists = Vec::with_capacity(n_hists);
        for _ in 0..n_hists {
            let buckets = c.seq_len(8)?;
            if buckets == 0 || buckets > Log2Histogram::MAX_BUCKETS {
                return Err(FrameError::Decode(format!("bad bucket count {buckets}")));
            }
            let mut counts = Vec::with_capacity(buckets);
            for _ in 0..buckets {
                counts.push(c.u64()?);
            }
            hists.push(Log2Histogram::from_counts(counts));
        }
        let cap = c.usize()?;
        let dropped = c.u64()?;
        let n_events = c.seq_len(9)?;
        if n_events > cap {
            return Err(FrameError::Decode(format!(
                "{n_events} journal events exceed capacity {cap}"
            )));
        }
        let mut events = Vec::with_capacity(n_events);
        for _ in 0..n_events {
            events.push(Event::decode(&mut c)?);
        }
        let cvr_every = if c.boolean()? {
            let every = c.usize()?;
            if every == 0 {
                return Err(FrameError::Decode("zero CVR sampling interval".into()));
            }
            Some(every)
        } else {
            None
        };
        let n_series = c.seq_len(8)?;
        let mut cvr_series = Vec::with_capacity(n_series);
        for _ in 0..n_series {
            let n_samples = c.seq_len(24)?;
            let mut series = crate::certify::CvrSeries::default();
            for _ in 0..n_samples {
                let step = c.u64()?;
                let v = c.usize()?;
                let a = c.usize()?;
                series.push(step, v, a);
            }
            cvr_series.push(series);
        }
        let step_events = c.boolean()?;
        c.expect_done()?;
        Ok(MemoryRecorder {
            counters,
            gauges,
            hists,
            journal: EventJournal::from_parts(cap, events, dropped),
            cvr_every,
            cvr_series,
            step_events,
        })
    }

    /// Serialize the whole recorder as JSONL: one meta record carrying the
    /// counters, gauges, histograms and CVR samples, then one line per
    /// journal event in chronological order. Hand-rolled (the workspace
    /// has no serde); `report::TraceReport` parses this exact format back.
    pub fn to_jsonl(&self) -> String {
        use std::fmt::Write as _;

        let mut out = String::new();
        out.push_str("{\"type\":\"meta\",\"version\":1,\"counters\":{");
        let mut first = true;
        for c in Counter::all() {
            let v = self.counter(c);
            if v == 0 {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "\"{}\":{}", c.name(), v);
        }
        out.push_str("},\"gauges\":{");
        let mut first = true;
        for g in Gauge::all() {
            let v = self.gauge(g);
            if v == 0.0 {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "\"{}\":{}", g.name(), v);
        }
        out.push_str("},\"histograms\":{");
        let mut first = true;
        for h in HistId::all() {
            let hist = self.histogram(h);
            if hist.total() == 0 {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "\"{}\":[", h.name());
            let mut first_bucket = true;
            for (b, &n) in hist.counts().iter().enumerate() {
                if n == 0 {
                    continue;
                }
                if !first_bucket {
                    out.push(',');
                }
                first_bucket = false;
                let (lo, hi) = hist.bucket_range(b);
                let _ = write!(out, "[{},{},{}]", lo, hi, n);
            }
            out.push(']');
        }
        out.push_str("},\"journal_dropped\":");
        let _ = write!(out, "{}", self.journal.dropped());
        out.push_str("}\n");

        for series in &self.cvr_series {
            let _ = write!(out, "{}", series.to_json_line());
        }
        for event in self.journal.iter() {
            let _ = write!(out, "{}", event.to_json_line());
        }
        out
    }
}

impl Recorder for MemoryRecorder {
    const ENABLED: bool = true;

    #[inline]
    fn counter_add(&mut self, counter: Counter, by: u64) {
        self.counters[counter as usize] += by;
    }

    #[inline]
    fn gauge_set(&mut self, gauge: Gauge, value: f64) {
        self.gauges[gauge as usize] = value;
    }

    #[inline]
    fn record_value(&mut self, hist: HistId, value: u64) {
        self.hists[hist as usize].record(value);
    }

    #[inline]
    fn record_event(&mut self, event: Event) {
        self.journal.push(event);
    }

    #[inline]
    fn cvr_sample_interval(&self) -> Option<usize> {
        self.cvr_every
    }

    fn sample_cvr(&mut self, step: u64, violations: &[usize], active: &[usize]) {
        if self.cvr_series.len() < violations.len() {
            self.cvr_series
                .resize_with(violations.len(), crate::certify::CvrSeries::default);
        }
        for (pm, series) in self.cvr_series.iter_mut().enumerate() {
            series.push(step, violations[pm], active[pm]);
        }
    }

    #[inline]
    fn wants_step_events(&self) -> bool {
        self.step_events
    }

    fn snapshot_bytes(&self) -> Option<Vec<u8>> {
        Some(self.to_snapshot_bytes())
    }

    fn restore_from_snapshot(&mut self, bytes: &[u8]) -> bool {
        match Self::from_snapshot_bytes(bytes) {
            Ok(restored) => {
                *self = restored;
                true
            }
            Err(_) => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_is_disabled_and_inert() {
        const { assert!(!NoopRecorder::ENABLED) };
        let mut r = NoopRecorder;
        r.counter_inc(Counter::Steps);
        r.gauge_set(Gauge::EnergyJoules, 1.0);
        r.record_value(HistId::RetryBackoffSteps, 7);
        r.record_event(Event::Recovery { step: 0, pm: 0 });
        assert_eq!(r, NoopRecorder);
    }

    #[test]
    fn memory_recorder_accumulates() {
        let mut r = MemoryRecorder::new(16);
        r.counter_inc(Counter::Migrations);
        r.counter_add(Counter::Migrations, 2);
        r.gauge_set(Gauge::FinalPmsUsed, 5.0);
        r.record_value(HistId::EvacuationBatchSize, 3);
        r.record_event(Event::Recovery { step: 4, pm: 1 });
        assert_eq!(r.counter(Counter::Migrations), 3);
        assert_eq!(r.gauge(Gauge::FinalPmsUsed), 5.0);
        assert_eq!(r.histogram(HistId::EvacuationBatchSize).total(), 1);
        assert_eq!(r.journal().len(), 1);
    }

    #[test]
    fn counter_enum_names_are_unique_and_complete() {
        let all = Counter::all();
        assert_eq!(all.len(), Counter::COUNT);
        for (i, c) in all.iter().enumerate() {
            assert_eq!(*c as usize, i, "declaration order must match repr");
        }
        let mut names: Vec<&str> = all.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Counter::COUNT);
    }

    #[test]
    fn cvr_sampling_builds_series() {
        let mut r = MemoryRecorder::new(0).with_cvr_sampling(10);
        assert_eq!(r.cvr_sample_interval(), Some(10));
        r.sample_cvr(9, &[1, 0], &[10, 10]);
        r.sample_cvr(19, &[2, 0], &[20, 20]);
        assert_eq!(r.cvr_series().len(), 2);
        assert_eq!(r.cvr_series()[0].samples().len(), 2);
        let (step, vio, act) = r.cvr_series()[0].samples()[1];
        assert_eq!((step, vio, act), (19, 2, 20));
    }

    #[test]
    fn snapshot_round_trip_preserves_everything() {
        let mut r = MemoryRecorder::new(4)
            .with_cvr_sampling(10)
            .with_step_events();
        r.counter_add(Counter::Steps, 123);
        r.counter_inc(Counter::RetryAbandoned);
        r.gauge_set(Gauge::EnergyJoules, 98.5);
        r.record_value(HistId::RetryBackoffSteps, 7);
        r.record_value(HistId::RetryBackoffSteps, 900);
        // Overfill the journal so head/dropped state is nontrivial.
        for step in 0..6 {
            r.record_event(Event::Recovery { step, pm: 1 });
        }
        r.record_event(Event::RetryEnqueued {
            step: 6,
            vm: 3,
            cause: crate::RetryCause::Evacuation,
            attempts: 2,
            due_step: 14,
        });
        r.sample_cvr(9, &[1, 0], &[10, 10]);

        let bytes = r.to_snapshot_bytes();
        let mut restored = MemoryRecorder::from_snapshot_bytes(&bytes).expect("decodes");
        assert_eq!(restored.counter(Counter::Steps), 123);
        assert_eq!(restored.gauge(Gauge::EnergyJoules), 98.5);
        assert_eq!(
            restored.histogram(HistId::RetryBackoffSteps).counts(),
            r.histogram(HistId::RetryBackoffSteps).counts()
        );
        assert_eq!(restored.journal().dropped(), r.journal().dropped());
        assert_eq!(restored.cvr_sample_interval(), Some(10));
        assert!(restored.wants_step_events());
        // The JSONL dump — the externally visible surface — must match
        // exactly, and continued recording must behave identically.
        assert_eq!(restored.to_jsonl(), r.to_jsonl());
        r.record_event(Event::Recovery { step: 7, pm: 2 });
        restored.record_event(Event::Recovery { step: 7, pm: 2 });
        assert_eq!(restored.to_jsonl(), r.to_jsonl());

        // Corruption in the image must fail cleanly, never panic.
        for cut in 0..bytes.len() {
            let _ = MemoryRecorder::from_snapshot_bytes(&bytes[..cut]);
        }
    }

    #[test]
    fn jsonl_meta_first_then_events() {
        let mut r = MemoryRecorder::new(8);
        r.counter_add(Counter::Steps, 100);
        r.record_event(Event::Recovery { step: 3, pm: 2 });
        let text = r.to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"type\":\"meta\""));
        assert!(lines[0].contains("\"steps\":100"));
        assert!(lines[1].contains("\"type\":\"recovery\""));
    }
}
