//! The [`Recorder`] trait and its two stock implementations.
//!
//! Instrumented code takes `&mut R` where `R: Recorder` and guards anything
//! that allocates or formats behind `R::ENABLED`. [`NoopRecorder`] sets
//! `ENABLED = false` with empty `#[inline(always)]` methods, so the
//! monomorphized no-op path is byte-for-byte the uninstrumented code.
//! [`MemoryRecorder`] keeps everything in flat arrays (indexed by the
//! `Counter` / `Gauge` / `HistId` enums) plus an [`EventJournal`], and is
//! what the CLI's `--trace-out` and the certification tests use.

use crate::durable::{write_seq, Cursor, FrameError, Wire};
use crate::journal::{Event, EventJournal};
use crate::json::{obj, Json};
use bursty_metrics::Log2Histogram;

/// Declares a record enum once: each variant with its doc comment and its
/// stable snake_case name (the key of the JSONL meta record and of the
/// daemon's `/metrics` text). `COUNT`, `all()` and `name()` are derived
/// from that one list, and the `repr(usize)` discriminant is the
/// variant's slot in the recorder's flat arrays, so a new record is one
/// entry. A new entry goes at the end of its table: a recorder image
/// lists each table in slot order, so an image written before the entry
/// existed restores with the new record at zero.
macro_rules! records {
    ($(#[$meta:meta])* pub enum $name:ident {
        $($(#[$doc:meta])* $variant:ident = $label:literal,)*
    }) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(usize)]
        pub enum $name {
            $($(#[$doc])* $variant,)*
        }

        impl $name {
            pub(crate) const COUNT: usize = [$($name::$variant),*].len();

            /// Stable snake_case name used in the JSONL meta record.
            pub fn name(self) -> &'static str {
                match self {
                    $($name::$variant => $label,)*
                }
            }

            /// All variants in declaration order (for reporting).
            pub fn all() -> [$name; $name::COUNT] {
                [$($name::$variant),*]
            }
        }
    };
}

records! {
    /// Monotonic counters. Every variant is a distinct slot in a flat array,
    /// so `counter_add` is a single indexed add — cheap enough for per-step
    /// call sites even with a recording recorder attached.
    pub enum Counter {
        /// Simulation steps executed by the engine loop.
        Steps = "steps",
        /// PM-steps in violation (capacity exceeded on an active PM).
        ViolationSteps = "violation_steps",
        /// Subset of `ViolationSteps` attributable to degraded admissions.
        DegradedViolationSteps = "degraded_violation_steps",
        /// Successful migrations (immediate trigger path).
        Migrations = "migrations",
        /// Successful migrations that landed from the retry queue.
        RetriedMigrations = "retried_migrations",
        /// Migration attempts that found no feasible target.
        FailedMigrations = "failed_migrations",
        /// PM crash transitions.
        Crashes = "crashes",
        /// PM recovery transitions.
        Recoveries = "recoveries",
        /// VMs evicted by crashes (displaced into evacuation).
        DisplacedVms = "displaced_vms",
        /// Evacuated VMs placed under the normal admission rule.
        EvacuationsPlaced = "evacuations_placed",
        /// Evacuated VMs placed only under degraded (epsilon) admission.
        EvacuationsDegraded = "evacuations_degraded",
        /// VM-steps spent unhosted while waiting for evacuation retry.
        StrandedVmSteps = "stranded_vm_steps",
        /// First-time retry enqueues (attempts == 0).
        RetryEnqueued = "retry_enqueued",
        /// Re-enqueues after a failed retry attempt (attempts > 0).
        RetryReenqueued = "retry_reenqueued",
        /// Overload retries dropped after exhausting the retry budget.
        RetryAbandoned = "retry_abandoned",
        /// Overload retries cancelled because the VM was no longer hosted /
        /// no longer over budget when the retry came due.
        RetryCancelled = "retry_cancelled",
        /// Overload retries that landed (== `retried_migrations`).
        RetryLandedOverload = "retry_landed_overload",
        /// Evacuation retries that landed a VM on a PM.
        RetryLandedEvacuation = "retry_landed_evacuation",
        /// Overload entries still queued when the run ended.
        RetryResidualOverload = "retry_residual_overload",
        /// Evacuation entries still queued when the run ended.
        RetryResidualEvacuation = "retry_residual_evacuation",
        /// Feasibility probes made by the packing first/best-fit search.
        PackProbes = "pack_probes",
        /// Probes rejected by the admission check.
        PackRejectedProbes = "pack_rejected_probes",
        /// VMs placed by the offline packers.
        PackPlacedVms = "pack_placed_vms",
        /// VMs placed by the class-collapsed batch packer.
        BatchPlacedVms = "batch_placed_vms",
        /// Placement attempts made by the evacuation batch placer.
        EvacProbes = "evac_probes",
        /// Evacuation placement attempts refused by the admission rule.
        EvacRefusals = "evac_refusals",
        /// Online arrivals admitted.
        OnlineArrivals = "online_arrivals",
        /// Online departures processed.
        OnlineDepartures = "online_departures",
        /// Online recalibration passes.
        OnlineRecalibrations = "online_recalibrations",
        /// Surviving entries visited while rebuilding a PM's load after a
        /// departure (bounded by the per-PM co-location cap `d`, never the
        /// fleet size).
        DepartRebuildVisits = "depart_rebuild_visits",
        /// Online batch-arrival calls.
        OnlineBatches = "online_batches",
        /// Class-aggregated binomial draws answered from a memoized CDF
        /// table (see `sim::rng::binomial_table`).
        BinomialTableHits = "binomial_table_hits",
        /// Class-aggregated binomial draws that built their table first.
        BinomialTableMisses = "binomial_table_misses",
        /// Memoized CDF tables dropped by cache generation flushes.
        BinomialTableEvictions = "binomial_table_evictions",
        /// Requests the placement daemon served under its engine lock
        /// (every op kind, reads included).
        ServeRequests = "serve_requests",
        /// Requests rejected before reaching the engine (malformed HTTP,
        /// bad JSON, invalid parameters, unknown routes).
        ServeBadRequests = "serve_bad_requests",
        /// Fleet snapshots written by the daemon.
        ServeSnapshots = "serve_snapshots",
        /// Fleet restores performed at daemon startup.
        ServeRestores = "serve_restores",
    }
}

records! {
    /// Point-in-time values overwritten on each set.
    pub enum Gauge {
        /// PMs in use after the initial pack.
        PmsUsedAtPack = "pms_used_at_pack",
        /// Peak concurrent PMs over the run.
        PeakPmsUsed = "peak_pms_used",
        /// PMs in use at the end of the run.
        FinalPmsUsed = "final_pms_used",
        /// Total energy of the run in joules.
        EnergyJoules = "energy_joules",
    }
}

records! {
    /// Log2-bucketed histograms (see `metrics::Log2Histogram`).
    pub enum HistId {
        /// Backoff delays (in steps) chosen for retry enqueues.
        RetryBackoffSteps = "retry_backoff_steps",
        /// Displaced-VM batch sizes handed to the evacuator per crash step.
        EvacuationBatchSize = "evacuation_batch_size",
        /// Violating-PM count per step with at least one violation.
        ViolationsPerStep = "violations_per_step",
        /// Per-arrival admission latency in nanoseconds (recorded by the
        /// churn programs, not the library — the engines stay clock-free).
        OnlineAdmitNanos = "online_admit_nanos",
        /// Per-departure latency in nanoseconds.
        OnlineDepartNanos = "online_depart_nanos",
        /// Per-recalibration latency in nanoseconds.
        OnlineRecalibrateNanos = "online_recalibrate_nanos",
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
        let mut buf = Vec::with_capacity(1024);
        write_seq(&mut buf, self.counters.iter().copied());
        write_seq(&mut buf, self.gauges.iter().copied());
        self.hists.put(&mut buf);
        self.journal.put(&mut buf);
        self.cvr_every.put(&mut buf);
        self.cvr_series.put(&mut buf);
        self.step_events.put(&mut buf);
        buf
    }

    /// Restores a recorder from a
    /// [`to_snapshot_bytes`](Self::to_snapshot_bytes) image. An image
    /// from a build with fewer counters, gauges or histograms (new
    /// records are appended to their table) reads the missing ones as
    /// zero; one with more is refused.
    pub fn from_snapshot_bytes(bytes: &[u8]) -> Result<Self, FrameError> {
        let mut c = Cursor::new(bytes);
        let counters: Vec<u64> = Wire::get(&mut c)?;
        let gauges: Vec<f64> = Wire::get(&mut c)?;
        let hists: Vec<Log2Histogram> = Wire::get(&mut c)?;
        for (what, n, build) in [
            ("counters", counters.len(), Counter::COUNT),
            ("gauges", gauges.len(), Gauge::COUNT),
            ("histograms", hists.len(), HistId::COUNT),
        ] {
            if n > build {
                let msg = format!("snapshot has {n} {what}, this build has {build}");
                return Err(FrameError::Decode(msg));
            }
        }
        let journal = Wire::get(&mut c)?;
        let cvr_every = Wire::get(&mut c)?;
        if cvr_every == Some(0) {
            return Err(FrameError::Decode("zero CVR sampling interval".into()));
        }
        let mut r = MemoryRecorder {
            journal,
            cvr_every,
            cvr_series: Wire::get(&mut c)?,
            step_events: Wire::get(&mut c)?,
            ..MemoryRecorder::new(0)
        };
        c.expect_done()?;
        r.counters[..counters.len()].copy_from_slice(&counters);
        r.gauges[..gauges.len()].copy_from_slice(&gauges);
        r.hists.splice(..hists.len(), hists);
        Ok(r)
    }

    /// Serialize the whole recorder as JSONL: one meta record carrying the
    /// counters, gauges, histograms and CVR samples, then one line per
    /// journal event in chronological order; `report::TraceReport` parses
    /// it back. Each record is a [`Json`] value, so every line is JSON: a
    /// non-finite gauge is `null`, and so is the open upper bound of the
    /// top histogram bucket (`u64::MAX`, which a JSON number cannot hold;
    /// counts and ids are exact below 2^53).
    pub fn to_jsonl(&self) -> String {
        let int = |n: u64| Json::Num(n as f64);
        let counters = Counter::all()
            .into_iter()
            .filter(|&c| self.counter(c) != 0)
            .map(|c| (c.name().to_string(), int(self.counter(c))));
        let gauges = Gauge::all()
            .into_iter()
            .filter(|&g| self.gauge(g) != 0.0)
            .map(|g| (g.name().to_string(), Json::Num(self.gauge(g))));
        let histograms = HistId::all()
            .into_iter()
            .filter(|&h| self.histogram(h).total() != 0)
            .map(|h| {
                let hist = self.histogram(h);
                let buckets = hist.counts().iter().enumerate().filter(|&(_, &n)| n != 0);
                let buckets = buckets.map(|(b, &n)| {
                    let (lo, hi) = hist.bucket_range(b);
                    let hi = if hi == u64::MAX { Json::Null } else { int(hi) };
                    Json::Arr(vec![int(lo), hi, int(n)])
                });
                (h.name().to_string(), Json::Arr(buckets.collect()))
            });
        let meta = obj(vec![
            ("type", Json::Str("meta".to_string())),
            ("version", int(1)),
            ("counters", Json::Obj(counters.collect())),
            ("gauges", Json::Obj(gauges.collect())),
            ("histograms", Json::Obj(histograms.collect())),
            ("journal_dropped", int(self.journal.dropped())),
        ]);
        let mut out = meta.encode();
        out.push('\n');
        for series in &self.cvr_series {
            out.push_str(&series.to_json_line());
        }
        for event in self.journal.iter() {
            out.push_str(&event.to_json_line());
        }
        out
    }
}

/// The bucket counts' `Vec` layout; a histogram has 1 to
/// `MAX_BUCKETS` buckets.
impl Wire for Log2Histogram {
    const MIN_BYTES: usize = 8;
    fn put(&self, buf: &mut Vec<u8>) {
        write_seq(buf, self.counts().iter().copied());
    }
    fn get(c: &mut Cursor<'_>) -> Result<Self, FrameError> {
        let counts: Vec<u64> = Wire::get(c)?;
        match counts.len() {
            1..=Log2Histogram::MAX_BUCKETS => Ok(Log2Histogram::from_counts(counts)),
            n => Err(FrameError::Decode(format!("bad bucket count {n}"))),
        }
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

    /// An image written before a counter, gauge or histogram was
    /// appended to its table restores with that record at zero; an image
    /// with one more than this build has is refused.
    #[test]
    fn an_image_with_fewer_records_restores_the_missing_ones_as_zero() {
        let mut r = MemoryRecorder::new(4);
        for c in Counter::all() {
            r.counter_add(c, 7);
        }
        for g in Gauge::all() {
            r.gauge_set(g, 1.5);
        }
        for h in HistId::all() {
            r.record_value(h, 3);
        }
        let image = r.to_snapshot_bytes();
        let empty = MemoryRecorder::new(4).to_snapshot_bytes();
        let gauges_at = 8 + 8 * Counter::COUNT;
        let hists_at = gauges_at + 8 + 8 * Gauge::COUNT;
        let hist_bytes = 8 + 8 * MEMORY_HIST_BUCKETS;
        let hists_end = hists_at + 8 + hist_bytes * HistId::COUNT;
        // (where the table's count is, where it ends, one entry's size)
        for (at, end, entry) in [
            (0, gauges_at, 8),
            (gauges_at, hists_at, 8),
            (hists_at, hists_end, hist_bytes),
        ] {
            let n = (end - at - 8) / entry;
            let with = |count: usize, entries: &[u8]| {
                let mut v = image[..at].to_vec();
                (count as u64).put(&mut v);
                v.extend_from_slice(entries);
                v.extend_from_slice(&image[end..]);
                v
            };
            let entries = &image[at + 8..end];
            let fewer = with(n - 1, &entries[..entries.len() - entry]);
            let restored = MemoryRecorder::from_snapshot_bytes(&fewer).expect("an older image");
            let mut want = image.clone();
            want[end - entry..end].copy_from_slice(&empty[end - entry..end]);
            assert_eq!(restored.to_snapshot_bytes(), want, "table at {at}");

            let more = with(n + 1, &[entries, &entries[..entry]].concat());
            let err = MemoryRecorder::from_snapshot_bytes(&more).unwrap_err();
            assert!(err.to_string().contains("this build has"), "{err}");
        }
    }

    #[test]
    fn non_finite_gauges_and_the_open_top_bucket_write_json() {
        let mut r = MemoryRecorder::new(4);
        r.gauge_set(Gauge::EnergyJoules, f64::NAN);
        r.gauge_set(Gauge::PeakPmsUsed, f64::INFINITY);
        r.gauge_set(Gauge::FinalPmsUsed, f64::NEG_INFINITY);
        // A 2.2 s latency in ns is past 2^31: the last, open bucket.
        r.record_value(HistId::OnlineAdmitNanos, 2_200_000_000);
        r.record_event(Event::Recovery { step: 1, pm: 0 });
        let text = r.to_jsonl();
        for line in text.lines() {
            crate::json::Json::parse(line.as_bytes()).unwrap_or_else(|e| panic!("{e}: {line}"));
        }
        let meta = text.lines().next().unwrap();
        assert!(
            meta.contains(
                r#""gauges":{"peak_pms_used":null,"final_pms_used":null,"energy_joules":null}"#
            ),
            "{meta}"
        );
        assert!(
            meta.contains(r#""online_admit_nanos":[[2147483648,null,1]]"#),
            "{meta}"
        );
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
