//! Crash-safe checkpoint/resume: durable snapshots of the full
//! simulation state with bit-identical restart (DESIGN.md §11).
//!
//! A checkpoint is one file in the [`bursty_obs::durable`] frame
//! format — magic, version, CRC64-guarded sections — holding a
//! serialization of the engine's [`RunState`] at a step boundary,
//! plus (optionally) the attached recorder's own snapshot. Resuming
//! reconstructs the `RunState` and re-enters the step loop via
//! [`Simulator::run_from`]; because every piece of evolving state
//! travels — both RNG layouts, the fault process, the retry
//! queue with its backoff exponents, the displaced-VM pools, the
//! accumulated accounting, and the recorder journal — a resumed run
//! finishes `f64::to_bits`-identical to one that never stopped
//! (proptested in `sim/tests/checkpoint_resume.rs`).
//!
//! What a snapshot does *not* carry is anything derivable from the
//! specs: flattened chain parameters, cell stream keys, the class table,
//! headroom indexes. Those are rebuilt from the `Simulator`'s own
//! fleet on load, and a fingerprint over the scientific configuration
//! (config fields, power model, and the exact spec bit patterns —
//! *not* the thread count, which never changes results) rejects a
//! snapshot from a different experiment before any state is trusted.
//! The runtime policy is a `dyn` trait object and cannot be hashed;
//! resuming under a different policy than the one that wrote the
//! snapshot is undetectable and on the caller, as documented on
//! [`Simulator::resume_with_checkpoints`].
//!
//! Failure tolerance runs in both directions. Saves go through
//! [`Store::write_atomic`] (temp + fsync + rename for the filesystem
//! store); a failed save is recorded and the run continues — a
//! checkpointer can degrade, never corrupt the science. Loads walk
//! the retained snapshots newest-first and take the first one that
//! verifies end to end (frame CRCs, fingerprint, structural
//! validation of every section); torn, truncated, or bit-flipped
//! files are discarded with a reason into the [`RecoveryReport`].

use crate::config::{
    CheckpointConfig, RngLayout, VictimPolicy, DEGRADED_EPSILON, MAX_RETRIES, RETRY_BASE_STEPS,
    SIGMA_SECS, VIOLATION_ALLOWANCE,
};
use crate::engine::{
    CrashRecord, FaultState, PmIndexes, RecoveryStats, RetryEntry, RunState, SimOutcome, Simulator,
    StepHook,
};
use crate::events::{EvacuationEvent, FaultEvent, FaultKind, MigrationEvent};
use crate::faults::FaultProcess;
use crate::rng::mix64;
use crate::workload_core::{CoreSnapshot, WorkloadCore};
use bursty_metrics::TimeSeries;
use bursty_obs::durable::{parse_frames, write_seq, Cursor, FrameError, FrameWriter, Store, Wire};
use bursty_obs::{Recorder, RetryCause};
use bursty_placement::{Placement, PmLoad};
use std::fmt;

// Section tags of a checkpoint file, in write order. Tag 7 is retired:
// it held the live-migration copy charges, always empty in a file that
// names it, and the decoder (which finds sections by tag) skips it.
const SEC_META: u32 = 1;
const SEC_STEP: u32 = 2;
const SEC_CORE: u32 = 3;
const SEC_FAULTPROC: u32 = 4;
const SEC_FAULTSTATE: u32 = 5;
const SEC_PLACE: u32 = 6;
const SEC_ACCT: u32 = 8;
const SEC_REC: u32 = 9;

/// Width of the zero-padded step number in checkpoint file names —
/// what makes lexicographic order equal numeric order during rotation
/// and newest-first recovery.
const STEP_DIGITS: usize = 12;

/// Why a checkpoint operation failed.
#[derive(Debug)]
pub enum CheckpointError {
    /// The store could not be read or listed.
    Io(std::io::Error),
    /// The file failed frame verification (bad magic, CRC mismatch,
    /// truncation) or a section failed structural validation.
    Frame(FrameError),
    /// The snapshot was written by a different experiment: its
    /// configuration/fleet fingerprint does not match this simulator.
    FingerprintMismatch {
        /// Fingerprint of this simulator's configuration and fleet.
        expected: u64,
        /// Fingerprint recorded in the snapshot.
        found: u64,
    },
    /// No retained snapshot survived verification; each discarded file
    /// is listed with the reason it was rejected.
    NoUsableCheckpoint {
        /// `(file name, rejection reason)` of every discarded file.
        discarded: Vec<(String, String)>,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "checkpoint store I/O error: {e}"),
            Self::Frame(e) => write!(f, "checkpoint verification failed: {e}"),
            Self::FingerprintMismatch { expected, found } => write!(
                f,
                "checkpoint belongs to a different experiment \
                 (fingerprint {found:#018x}, this run is {expected:#018x})"
            ),
            Self::NoUsableCheckpoint { discarded } => {
                write!(f, "no usable checkpoint ({} discarded", discarded.len())?;
                for (name, why) in discarded {
                    write!(f, "; {name}: {why}")?;
                }
                write!(f, ")")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<FrameError> for CheckpointError {
    fn from(e: FrameError) -> Self {
        Self::Frame(e)
    }
}

/// What a recovery walk found: which snapshot was loaded and which
/// files were discarded on the way there (newest first), each with the
/// verification failure that disqualified it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// File name of the snapshot the run resumed from.
    pub loaded: String,
    /// The step the loaded snapshot was taken at (= completed steps).
    pub step: usize,
    /// `(file name, rejection reason)` of newer files that failed
    /// verification and were skipped.
    pub discarded: Vec<(String, String)>,
}

/// Outcome of a checkpointed run: the simulation result plus the
/// checkpointer's own accounting. Save failures never abort the run —
/// they are tolerated and surfaced here.
#[derive(Debug)]
pub struct CheckpointedRun {
    /// The simulation outcome, bit-identical to an uncheckpointed run.
    pub outcome: SimOutcome,
    /// Snapshots written successfully.
    pub saves: usize,
    /// `(step, error)` of snapshot writes that failed; the run
    /// continued past each.
    pub save_errors: Vec<(usize, String)>,
}

/// Fingerprint of the scientific configuration: a mix64 chain over
/// every config field that selects the sample path or the accounting,
/// the controller's constants (in the order they were once fields, so
/// fingerprints have not moved), the power model, and the exact bit
/// patterns of the fleet specs.
/// `threads` is deliberately excluded — any thread count produces
/// `to_bits`-identical results (the core's determinism contract), so a
/// snapshot may be resumed at a different parallelism. The `dyn`
/// runtime policy cannot participate; see the module docs.
pub(crate) fn fingerprint(sim: &Simulator<'_>) -> u64 {
    let mut h: u64 = 0x4243_4b50; // "BCKP"
    let mut eat = |w: u64| h = mix64(h ^ w);
    let cfg = &sim.config;
    eat(cfg.steps as u64);
    eat(SIGMA_SECS.to_bits());
    eat(cfg.rho.to_bits());
    eat(cfg.seed);
    eat(u64::from(cfg.migrations_enabled));
    eat(0); // the retired copy-charge window, always 0 steps
    eat(match cfg.victim_policy {
        VictimPolicy::LargestOnDemand => 0,
        VictimPolicy::SmallestSufficient => 1,
        VictimPolicy::SmallestBase => 2,
    });
    eat(VIOLATION_ALLOWANCE.to_bits());
    eat(RETRY_BASE_STEPS as u64);
    eat(MAX_RETRIES as u64);
    eat(DEGRADED_EPSILON.to_bits());
    match &cfg.faults {
        None => eat(0),
        Some(fc) => {
            eat(1);
            eat(fc.mtbf_steps.to_bits());
            eat(fc.mttr_steps.to_bits());
            eat(fc.correlated_group_size as u64);
            eat(fc.seed);
        }
    }
    // 1 is retired (the per-VM layout); existing snapshots pin 0 and 2.
    eat(match cfg.rng_layout {
        RngLayout::Shared => 0,
        RngLayout::ClassAggregated => 2,
    });
    eat(sim.power.idle_watts.to_bits());
    eat(sim.power.peak_watts.to_bits());
    eat(sim.vms.len() as u64);
    eat(sim.pms.len() as u64);
    for vm in sim.vms {
        eat(vm.id as u64);
        eat(vm.p_on.to_bits());
        eat(vm.p_off.to_bits());
        eat(vm.r_b.to_bits());
        eat(vm.r_e.to_bits());
    }
    for pm in sim.pms {
        eat(pm.id as u64);
        eat(pm.capacity.to_bits());
    }
    h
}

// ---------------------------------------------------------------------
// Record layouts.
// ---------------------------------------------------------------------

/// A checkpoint's optional index: a presence byte, then the value or 0 —
/// always 9 bytes. The journal's `Option<usize>` writes the value only
/// when present; both forms are in existing images, so both stay.
struct FixedIndex(Option<usize>);

impl Wire for FixedIndex {
    const MIN_BYTES: usize = 1 + 8;
    fn put(&self, buf: &mut Vec<u8>) {
        (self.0.is_some(), self.0.unwrap_or(0)).put(buf);
    }
    fn get(c: &mut Cursor<'_>) -> Result<Self, FrameError> {
        let (some, v): (bool, usize) = Wire::get(c)?;
        Ok(FixedIndex(some.then_some(v)))
    }
}

/// Writes `Vec<Option<usize>>` as a sequence of [`FixedIndex`].
fn write_fixed(buf: &mut Vec<u8>, vs: &[Option<usize>]) {
    write_seq(buf, vs.iter().map(|&v| FixedIndex(v)));
}

/// Reads a sequence of [`FixedIndex`] that must hold `want` entries.
fn read_fixed(
    c: &mut Cursor<'_>,
    want: usize,
    what: &str,
) -> Result<Vec<Option<usize>>, FrameError> {
    let vs: Vec<FixedIndex> = sized(c, want, what)?;
    Ok(vs.into_iter().map(|v| v.0).collect())
}

/// Reads a `Vec<T>` that must hold `want` entries.
fn sized<T: Wire>(c: &mut Cursor<'_>, want: usize, what: &str) -> Result<Vec<T>, FrameError> {
    let vs: Vec<T> = Wire::get(c)?;
    if vs.len() != want {
        return Err(bad(format!(
            "{what} has {} entries, expected {want}",
            vs.len()
        )));
    }
    Ok(vs)
}

fn bad(msg: impl Into<String>) -> FrameError {
    FrameError::Decode(msg.into())
}

/// A layout tag byte (`0` shared; `1`, the per-VM layout, is retired
/// and must stay unknown; `2` class-aggregated), then the layout's state.
impl Wire for CoreSnapshot {
    const MIN_BYTES: usize = 1 + 8;
    fn put(&self, buf: &mut Vec<u8>) {
        match self {
            CoreSnapshot::Shared(words) => (0u8, *words).put(buf),
            CoreSnapshot::ClassAggregated(locs) => {
                2u8.put(buf);
                locs.put(buf);
            }
        }
    }
    fn get(c: &mut Cursor<'_>) -> Result<Self, FrameError> {
        match u8::get(c)? {
            0 => Wire::get(c).map(CoreSnapshot::Shared),
            2 => Wire::get(c).map(CoreSnapshot::ClassAggregated),
            t => Err(bad(format!("unknown core layout tag {t}"))),
        }
    }
}

/// One byte: `0` for a crash, `1` for a recovery.
impl Wire for FaultKind {
    const MIN_BYTES: usize = 1;
    fn put(&self, buf: &mut Vec<u8>) {
        u8::from(*self == FaultKind::Recovery).put(buf);
    }
    fn get(c: &mut Cursor<'_>) -> Result<Self, FrameError> {
        match u8::get(c)? {
            0 => Ok(FaultKind::Crash),
            1 => Ok(FaultKind::Recovery),
            t => Err(bad(format!("unknown fault kind {t}"))),
        }
    }
}

impl Wire for EvacuationEvent {
    const MIN_BYTES: usize = 3 * 8 + FixedIndex::MIN_BYTES + 1;
    fn put(&self, buf: &mut Vec<u8>) {
        let to_pm = FixedIndex(self.to_pm);
        ([self.step, self.vm_id, self.from_pm], to_pm, self.degraded).put(buf);
    }
    fn get(c: &mut Cursor<'_>) -> Result<Self, FrameError> {
        let ([step, vm_id, from_pm], to_pm, degraded): (_, FixedIndex, _) = Wire::get(c)?;
        Ok(EvacuationEvent {
            step,
            vm_id,
            from_pm,
            to_pm: to_pm.0,
            degraded,
        })
    }
}

/// Implements [`Wire`] for each record as its fields in order.
macro_rules! wire_records {
    ($($ty:ident { $($field:ident: $fty:ty),* })*) => {$(
        impl Wire for $ty {
            const MIN_BYTES: usize = 0 $(+ <$fty as Wire>::MIN_BYTES)*;
            fn put(&self, buf: &mut Vec<u8>) {
                $(self.$field.put(buf);)*
            }
            fn get(c: &mut Cursor<'_>) -> Result<Self, FrameError> {
                Ok($ty { $($field: <$fty>::get(c)?,)* })
            }
        }
    )*};
}

wire_records! {
    CrashRecord { pm: usize, step: usize, pending: usize }
    RetryEntry { vm: usize, cause: RetryCause, attempts: usize, next_step: usize }
    FaultEvent { step: usize, pm: usize, kind: FaultKind }
    MigrationEvent { step: usize, vm_id: usize, from_pm: usize, to_pm: usize }
    RecoveryStats {
        crashes: usize, recoveries: usize, time_to_restore: Vec<usize>,
        unrestored_crashes: usize, stranded_vm_steps: usize,
        degraded_admissions: usize, degraded_violation_steps: usize
    }
}

// ---------------------------------------------------------------------
// Encoding.
// ---------------------------------------------------------------------

/// Serializes a [`RunState`] (plus optional recorder snapshot) into
/// the durable frame format.
pub(crate) fn encode_state(
    sim: &Simulator<'_>,
    st: &RunState,
    rec_bytes: Option<Vec<u8>>,
) -> Vec<u8> {
    let mut w = FrameWriter::new();
    let mut section = |tag: u32, put: &dyn Fn(&mut Vec<u8>)| {
        let mut buf = Vec::new();
        put(&mut buf);
        w.section(tag, &buf);
    };
    section(SEC_META, &|b| fingerprint(sim).put(b));
    section(SEC_STEP, &|b| st.next_step.put(b));
    section(SEC_CORE, &|b| {
        st.core.on.put(b);
        st.core.snapshot_mode().put(b);
    });
    section(SEC_FAULTPROC, &|b| {
        st.fault_process.is_some().put(b);
        if let Some(process) = &st.fault_process {
            process.rng_state().put(b);
            write_seq(b, process.domain_states().iter().copied());
        }
    });
    section(SEC_FAULTSTATE, &|b| {
        let fs = &st.fs;
        fs.pm_up.put(b);
        fs.vm_degraded.put(b);
        fs.pm_overflow.put(b);
        write_fixed(b, &fs.crash_of_vm);
        fs.crash_records.put(b);
        fs.retry_queue.put(b);
        fs.fault_events.put(b);
        fs.evacuations.put(b);
        fs.recovery.put(b);
    });
    // Loads are serialized field-exact, never rebuilt on load: the
    // incremental `add` fold and a fresh `rebuild` can differ by ulps,
    // and bit-identity of the resumed run hinges on these exact sums.
    section(SEC_PLACE, &|b| {
        write_fixed(b, &st.host);
        st.hosted.put(b);
        st.loads.put(b);
    });
    section(SEC_ACCT, &|b| {
        st.vio_steps.put(b);
        st.indexes.active_steps().put(b);
        st.migrations.put(b);
        [st.failed_migrations, st.retried_migrations].put(b);
        st.pms_used_series.values.put(b);
        [st.peak_pms_used, st.total_violation_steps].put(b);
        st.vm_violation_steps.put(b);
        st.energy.put(b);
        st.observed.put(b);
    });
    if let Some(bytes) = rec_bytes {
        section(SEC_REC, &|b| bytes.put(b));
    }
    w.finish()
}

// ---------------------------------------------------------------------
// Decoding.
// ---------------------------------------------------------------------

/// Deserializes and validates a checkpoint file against `sim`,
/// returning the restored [`RunState`] and the recorder snapshot bytes
/// (when the writing run had a stateful recorder attached).
pub(crate) fn decode_state(
    sim: &Simulator<'_>,
    bytes: &[u8],
) -> Result<(RunState, Option<Vec<u8>>), CheckpointError> {
    let n = sim.vms.len();
    let m = sim.pms.len();
    let frames = parse_frames(bytes)?;
    let section = |tag: u32| -> Result<Cursor<'_>, CheckpointError> {
        frames
            .iter()
            .find(|(t, _)| *t == tag)
            .map(|(_, payload)| Cursor::new(payload))
            .ok_or_else(|| bad(format!("missing section {tag}")).into())
    };

    let mut c = section(SEC_META)?;
    let found = u64::get(&mut c)?;
    c.expect_done()?;
    let expected = fingerprint(sim);
    if found != expected {
        return Err(CheckpointError::FingerprintMismatch { expected, found });
    }

    let mut c = section(SEC_STEP)?;
    let next_step = usize::get(&mut c)?;
    c.expect_done()?;
    if next_step == 0 || next_step >= sim.config.steps {
        return Err(bad(format!(
            "snapshot step {next_step} outside (0, {})",
            sim.config.steps
        ))
        .into());
    }

    // Core: a fresh core is built from the specs, then the evolving
    // state is grafted in. `restore_mode` performs the deep structural
    // validation of the class-aggregated counters.
    let mut c = section(SEC_CORE)?;
    let on: Vec<bool> = sized(&mut c, n, "on")?;
    let snap = CoreSnapshot::get(&mut c)?;
    c.expect_done()?;
    let mut core = WorkloadCore::new(
        sim.vms,
        m,
        sim.config.seed,
        sim.config.rng_layout,
        sim.config.threads,
    );
    core.restore_mode(snap).map_err(bad)?;
    core.on.copy_from_slice(&on);

    let mut c = section(SEC_FAULTPROC)?;
    let fault_process = if bool::get(&mut c)? {
        let Some(cfg) = sim.config.faults else {
            return Err(bad("snapshot has a fault process, config does not").into());
        };
        let (words, domains) = Wire::get(&mut c)?;
        Some(FaultProcess::restore(cfg, m, words, domains).map_err(bad)?)
    } else {
        if sim.config.faults.is_some() {
            return Err(bad("config has faults, snapshot has no fault process").into());
        }
        None
    };
    c.expect_done()?;

    let mut c = section(SEC_FAULTSTATE)?;
    let pm_up = sized(&mut c, m, "pm_up")?;
    let vm_degraded = sized(&mut c, n, "vm_degraded")?;
    let pm_overflow = sized(&mut c, m, "pm_overflow")?;
    let crash_of_vm = read_fixed(&mut c, n, "crash_of_vm")?;
    let crash_records: Vec<CrashRecord> = Wire::get(&mut c)?;
    let retry_queue: Vec<RetryEntry> = Wire::get(&mut c)?;
    let fault_events = Wire::get(&mut c)?;
    let evacuations = Wire::get(&mut c)?;
    let recovery = Wire::get(&mut c)?;
    c.expect_done()?;

    // Structural validation of the fault state before trusting it.
    let mut in_retry = vec![false; n];
    for e in &retry_queue {
        if e.vm >= n {
            return Err(bad(format!("retry entry for VM {} out of range", e.vm)).into());
        }
        if in_retry[e.vm] {
            return Err(bad(format!("VM {} queued twice for retry", e.vm)).into());
        }
        in_retry[e.vm] = true;
    }
    for r in &crash_records {
        if r.pm >= m {
            return Err(bad(format!("crash record for PM {} out of range", r.pm)).into());
        }
    }
    for (i, c) in crash_of_vm.iter().enumerate() {
        if let Some(r) = c {
            if *r >= crash_records.len() {
                return Err(bad(format!("VM {i} points at crash record {r} out of range")).into());
            }
        }
    }

    let mut c = section(SEC_PLACE)?;
    let host = read_fixed(&mut c, n, "host")?;
    let hosted: Vec<Vec<usize>> = sized(&mut c, m, "hosted")?;
    let mut loads: Vec<PmLoad> = sized(&mut c, m, "loads")?;
    c.expect_done()?;

    // host and hosted must be exact inverses — including the order of
    // each hosted list, which victim tie-breaking depends on.
    let mut seen = vec![false; n];
    for (j, vs) in hosted.iter().enumerate() {
        for &i in vs {
            if i >= n {
                return Err(bad(format!("hosted VM {i} out of range")).into());
            }
            if seen[i] {
                return Err(bad(format!("VM {i} hosted twice")).into());
            }
            seen[i] = true;
            if host[i] != Some(j) {
                return Err(
                    bad(format!("VM {i} hosted on {j} but host says {:?}", host[i])).into(),
                );
            }
        }
        if loads[j].count != vs.len() {
            return Err(bad(format!(
                "PM {j} load counts {} VMs, hosted list has {}",
                loads[j].count,
                vs.len()
            ))
            .into());
        }
    }
    for (i, h) in host.iter().enumerate() {
        match h {
            Some(j) if *j >= m => {
                return Err(bad(format!("VM {i} hosted on PM {j} out of range")).into())
            }
            Some(_) if !seen[i] => {
                return Err(bad(format!("VM {i} hosted but missing from hosted list")).into())
            }
            _ => {}
        }
    }
    // The hottest chain is a pure max over the hosted set, so it is
    // refolded here rather than carried in the image.
    for (load, vs) in loads.iter_mut().zip(&hosted) {
        load.max_pi = PmLoad::rebuild(vs.iter().map(|&i| &sim.vms[i])).max_pi;
    }

    let mut c = section(SEC_ACCT)?;
    let vio_steps = sized(&mut c, m, "vio_steps")?;
    let active_steps = sized(&mut c, m, "active_steps")?;
    let migrations = Wire::get(&mut c)?;
    let [failed_migrations, retried_migrations] = Wire::get(&mut c)?;
    let mut pms_used_series = TimeSeries::new(0.0, SIGMA_SECS);
    pms_used_series.values = sized(&mut c, next_step, "pms_used_series")?;
    let [peak_pms_used, total_violation_steps] = Wire::get(&mut c)?;
    let vm_violation_steps = sized(&mut c, n, "vm_violation_steps")?;
    let energy = Wire::get(&mut c)?;
    let observed = sized(&mut c, m, "observed")?;
    c.expect_done()?;

    let rec_bytes = match section(SEC_REC) {
        Err(_) => None,
        Ok(mut c) => {
            let bytes = Wire::get(&mut c)?;
            c.expect_done()?;
            Some(bytes)
        }
    };

    let stranded = host.iter().filter(|h| h.is_none()).count();
    Ok((
        RunState {
            core,
            fault_process,
            host,
            hosted,
            fs: FaultState {
                pm_up,
                vm_degraded,
                pm_overflow,
                crash_of_vm,
                crash_records,
                retry_queue,
                in_retry,
                stranded,
                fault_events,
                evacuations,
                recovery,
            },
            vio_steps,
            migrations,
            failed_migrations,
            retried_migrations,
            pms_used_series,
            peak_pms_used,
            total_violation_steps,
            vm_violation_steps,
            energy,
            observed,
            next_step,
            // Derived state, rebuilt from the restored loads; the lazy
            // active-step counts restart from the materialised ones.
            indexes: PmIndexes::new(&loads, active_steps, next_step),
            loads,
            overloaded: Vec::new(),
        },
        rec_bytes,
    ))
}

// ---------------------------------------------------------------------
// The checkpointer.
// ---------------------------------------------------------------------

/// The [`StepHook`] that persists snapshots: every
/// [`CheckpointConfig::every`] completed steps it serializes the
/// [`RunState`] (and the recorder, when stateful), writes it
/// atomically, and rotates old files down to
/// [`CheckpointConfig::keep`]. Write failures are recorded in
/// [`Checkpointer::save_errors`] and never interrupt the run.
pub struct Checkpointer<S: Store> {
    store: S,
    every: usize,
    keep: usize,
    saves: usize,
    save_errors: Vec<(usize, String)>,
}

impl<S: Store> Checkpointer<S> {
    /// Wraps `store` with the given cadence and retention.
    pub(crate) fn new(store: S, cfg: &CheckpointConfig) -> Self {
        Self {
            store,
            every: cfg.every,
            keep: cfg.keep,
            saves: 0,
            save_errors: Vec::new(),
        }
    }

    /// File name of the snapshot taken after `step` completed steps.
    fn name_of(step: usize) -> String {
        format!("ckpt-{step:0STEP_DIGITS$}")
    }

    /// Parses a file name produced by [`Self::name_of`].
    fn step_of(name: &str) -> Option<usize> {
        let digits = name.strip_prefix("ckpt-")?;
        if digits.len() != STEP_DIGITS {
            return None;
        }
        digits.parse().ok()
    }

    /// Snapshot file names in the store, sorted ascending by step.
    fn snapshot_names(&self) -> std::io::Result<Vec<String>> {
        let mut names: Vec<String> = self
            .store
            .list()?
            .into_iter()
            .filter(|n| Self::step_of(n).is_some())
            .collect();
        names.sort();
        Ok(names)
    }

    fn save<R: Recorder>(&mut self, sim: &Simulator<'_>, st: &RunState, rec: &R) {
        let bytes = encode_state(sim, st, rec.snapshot_bytes());
        match self
            .store
            .write_atomic(&Self::name_of(st.next_step), &bytes)
        {
            Ok(()) => {
                self.saves += 1;
                self.rotate();
            }
            Err(e) => self.save_errors.push((st.next_step, e.to_string())),
        }
    }

    /// Deletes all but the newest [`Self::keep`] snapshots. Rotation
    /// failures are tolerated like save failures: extra files cost
    /// disk, never correctness.
    fn rotate(&mut self) {
        let Ok(names) = self.snapshot_names() else {
            return;
        };
        let excess = names.len().saturating_sub(self.keep);
        for name in &names[..excess] {
            let _ = self.store.remove(name);
        }
    }

    /// Walks the retained snapshots newest-first and returns the first
    /// that verifies in full against `sim`, alongside the recorder
    /// bytes it carried and the report of everything discarded.
    ///
    /// # Errors
    /// [`CheckpointError::Io`] when the store cannot be listed;
    /// [`CheckpointError::NoUsableCheckpoint`] when every retained file
    /// fails verification (each with its reason).
    pub(crate) fn load_latest(
        &self,
        sim: &Simulator<'_>,
    ) -> Result<(RunState, Option<Vec<u8>>, RecoveryReport), CheckpointError> {
        let names = self.snapshot_names()?;
        let mut discarded: Vec<(String, String)> = Vec::new();
        for name in names.into_iter().rev() {
            let verdict = self
                .store
                .read(&name)
                .map_err(CheckpointError::from)
                .and_then(|bytes| decode_state(sim, &bytes));
            match verdict {
                Ok((st, rec_bytes)) => {
                    let report = RecoveryReport {
                        loaded: name,
                        step: st.next_step,
                        discarded,
                    };
                    return Ok((st, rec_bytes, report));
                }
                Err(e) => discarded.push((name, e.to_string())),
            }
        }
        Err(CheckpointError::NoUsableCheckpoint { discarded })
    }
}

impl<S: Store> StepHook for Checkpointer<S> {
    fn after_step<R: Recorder>(&mut self, sim: &Simulator<'_>, st: &RunState, rec: &R) {
        // `next_step` has already been advanced: it equals the number
        // of completed steps. The final step needs no snapshot — the
        // run is finishing anyway.
        if st.next_step.is_multiple_of(self.every) && st.next_step < sim.config.steps {
            self.save(sim, st, rec);
        }
    }
}

// ---------------------------------------------------------------------
// Simulator entry points.
// ---------------------------------------------------------------------

impl Simulator<'_> {
    /// [`run_recorded`](Simulator::run_recorded) with durable
    /// checkpoints: a snapshot lands in `store` every
    /// [`CheckpointConfig::every`] completed steps. The outcome is
    /// `f64::to_bits`-identical to an uncheckpointed run — snapshots
    /// observe the state, never perturb it — and save failures are
    /// tolerated (surfaced in [`CheckpointedRun::save_errors`]).
    ///
    /// Call [`CheckpointConfig::validate`] first to reject bad knobs
    /// as typed errors; this method asserts only `every > 0`.
    pub fn run_with_checkpoints<S: Store, R: Recorder>(
        &self,
        initial: &Placement,
        cfg: &CheckpointConfig,
        store: S,
        rec: &mut R,
    ) -> CheckpointedRun {
        assert!(cfg.every > 0, "checkpoint interval must be positive");
        let st = self.init_state(initial);
        let mut ck = Checkpointer::new(store, cfg);
        let outcome = self.run_from(st, rec, &mut ck);
        CheckpointedRun {
            outcome,
            saves: ck.saves,
            save_errors: ck.save_errors,
        }
    }

    /// Resumes from the newest verifying snapshot in `store` and runs
    /// to the horizon, continuing to checkpoint on the way. A snapshot
    /// that carries a recorder section restores it into a recording
    /// `rec` ([`Recorder::restore_from_snapshot`]), so journaled events
    /// are neither lost nor duplicated across the seam; a disabled
    /// recorder ignores the section.
    ///
    /// The snapshot fingerprint covers the config, power model, and
    /// fleet — but not the runtime policy, which is a trait object the
    /// engine cannot hash. Resuming under a different policy than the
    /// one that wrote the snapshot silently changes the remainder of
    /// the run; keeping the policy identical is the caller's contract.
    ///
    /// # Errors
    /// [`CheckpointError`] when the store is unreadable or no retained
    /// snapshot verifies; the report inside
    /// [`CheckpointError::NoUsableCheckpoint`] lists every discard.
    /// [`CheckpointError::Frame`] when `R::ENABLED` and `rec` refuses the
    /// loaded snapshot's recorder section.
    pub fn resume_with_checkpoints<S: Store, R: Recorder>(
        &self,
        cfg: &CheckpointConfig,
        store: S,
        rec: &mut R,
    ) -> Result<(CheckpointedRun, RecoveryReport), CheckpointError> {
        assert!(cfg.every > 0, "checkpoint interval must be positive");
        let mut ck = Checkpointer::new(store, cfg);
        let (st, rec_bytes, report) = ck.load_latest(self)?;
        if let Some(bytes) = rec_bytes {
            // A recording recorder that cannot take the journal the run
            // wrote would restart its counters and events mid-run.
            if R::ENABLED && !rec.restore_from_snapshot(&bytes) {
                return Err(CheckpointError::Frame(bad(format!(
                    "{}: recorder section {SEC_REC} does not restore",
                    report.loaded
                ))));
            }
        }
        let outcome = self.run_from(st, rec, &mut ck);
        Ok((
            CheckpointedRun {
                outcome,
                saves: ck.saves,
                save_errors: ck.save_errors,
            },
            report,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::faults::FaultConfig;
    use crate::policy::QueuePolicy;
    use bursty_obs::durable::{FailingStore, MemStore};
    use bursty_obs::{MemoryRecorder, NoopRecorder};
    use bursty_placement::{first_fit, QueueStrategy};
    use bursty_workload::{PmSpec, VmSpec};

    fn fleet() -> (Vec<VmSpec>, Vec<PmSpec>) {
        let vms = (0..30)
            .map(|i| VmSpec::new(i, 0.01, 0.09, 10.0, 10.0))
            .collect();
        let pms = (0..30).map(|j| PmSpec::new(j, 100.0)).collect();
        (vms, pms)
    }

    fn config() -> SimConfig {
        SimConfig {
            steps: 60,
            seed: 7,
            faults: Some(FaultConfig {
                mtbf_steps: 25.0,
                mttr_steps: 6.0,
                correlated_group_size: 2,
                seed: 3,
            }),
            ..SimConfig::default()
        }
    }

    fn knobs(every: usize, keep: usize) -> CheckpointConfig {
        CheckpointConfig {
            every,
            keep,
            dir: std::path::PathBuf::new(), // unused with an explicit store
        }
    }

    #[track_caller]
    pub(crate) fn assert_same_outcome(a: &SimOutcome, b: &SimOutcome) {
        assert_eq!(a.energy_joules.to_bits(), b.energy_joules.to_bits());
        assert_eq!(a.cvr_per_pm.len(), b.cvr_per_pm.len());
        for ((ja, ca), (jb, cb)) in a.cvr_per_pm.iter().zip(&b.cvr_per_pm) {
            assert_eq!(ja, jb);
            assert_eq!(ca.to_bits(), cb.to_bits());
        }
        assert_eq!(a.migrations, b.migrations);
        assert_eq!(a.failed_migrations, b.failed_migrations);
        assert_eq!(a.retried_migrations, b.retried_migrations);
        assert_eq!(a.final_pms_used, b.final_pms_used);
        assert_eq!(a.peak_pms_used, b.peak_pms_used);
        assert_eq!(a.total_violation_steps, b.total_violation_steps);
        assert_eq!(a.vm_violation_steps, b.vm_violation_steps);
        assert_eq!(a.fault_events, b.fault_events);
        assert_eq!(a.evacuations, b.evacuations);
        assert_eq!(a.recovery, b.recovery);
    }

    #[test]
    fn checkpointed_run_matches_plain_run_and_resume_matches_both() {
        let (vms, pms) = fleet();
        let strategy = QueueStrategy::build(16, 0.01, 0.09, 0.01);
        let placement = first_fit(&vms, &pms, &strategy).unwrap();
        let policy = QueuePolicy::new(strategy);
        // Both layouts: in this build every step of the resumed tail
        // also checks the carried per-PM sums against a full fold.
        for rng_layout in [RngLayout::Shared, RngLayout::ClassAggregated] {
            let cfg = SimConfig {
                rng_layout,
                ..config()
            };
            let sim = Simulator::new(&vms, &pms, &policy, cfg);

            let baseline = sim.run(&placement);
            let run = sim.run_with_checkpoints(
                &placement,
                &knobs(10, 2),
                MemStore::new(),
                &mut NoopRecorder,
            );
            assert_same_outcome(&baseline, &run.outcome);
            assert_eq!(run.saves, 5, "steps 10..=50 each snapshot");
            assert!(run.save_errors.is_empty());

            // Re-run keeping the store, then resume from its newest
            // file: the tail re-executes and the outcome is identical
            // again.
            let mut store = MemStore::new();
            sim.run_with_checkpoints(&placement, &knobs(10, 2), &mut store, &mut NoopRecorder);
            let (resumed, report) = sim
                .resume_with_checkpoints(&knobs(10, 2), store, &mut NoopRecorder)
                .unwrap();
            assert_eq!(report.step, 50);
            assert_eq!(report.loaded, "ckpt-000000000050");
            assert!(report.discarded.is_empty());
            assert_same_outcome(&baseline, &resumed.outcome);
        }
    }

    #[test]
    fn recorder_travels_through_the_checkpoint() {
        let (vms, pms) = fleet();
        let strategy = QueueStrategy::build(16, 0.01, 0.09, 0.01);
        let placement = first_fit(&vms, &pms, &strategy).unwrap();
        let policy = QueuePolicy::new(strategy);
        let sim = Simulator::new(&vms, &pms, &policy, config());

        let mut full = MemoryRecorder::new(4096);
        sim.run_recorded(&placement, &mut full);

        let mut store = MemStore::new();
        let mut rec = MemoryRecorder::new(4096);
        sim.run_with_checkpoints(&placement, &knobs(15, 3), &mut store, &mut rec);
        let mut resumed = MemoryRecorder::new(4096);
        sim.resume_with_checkpoints(&knobs(15, 3), store, &mut resumed)
            .unwrap();
        // Events before the snapshot come from the restored journal,
        // events after from the re-run tail — the journal is exactly
        // the uninterrupted run's, neither losing nor duplicating.
        assert_eq!(full.to_jsonl(), resumed.to_jsonl());
    }

    #[test]
    fn rotation_keeps_only_the_newest_snapshots() {
        let (vms, pms) = fleet();
        let strategy = QueueStrategy::build(16, 0.01, 0.09, 0.01);
        let placement = first_fit(&vms, &pms, &strategy).unwrap();
        let policy = QueuePolicy::new(strategy);
        let sim = Simulator::new(&vms, &pms, &policy, config());

        let mut store = MemStore::new();
        sim.run_with_checkpoints(&placement, &knobs(10, 2), &mut store, &mut NoopRecorder);
        let names = store.list().unwrap();
        assert_eq!(names, vec!["ckpt-000000000040", "ckpt-000000000050"]);
    }

    #[test]
    fn fingerprint_rejects_a_different_experiment() {
        let (vms, pms) = fleet();
        let strategy = QueueStrategy::build(16, 0.01, 0.09, 0.01);
        let placement = first_fit(&vms, &pms, &strategy).unwrap();
        let policy = QueuePolicy::new(strategy);
        let sim = Simulator::new(&vms, &pms, &policy, config());

        let mut store = MemStore::new();
        sim.run_with_checkpoints(&placement, &knobs(10, 2), &mut store, &mut NoopRecorder);

        let other = Simulator::new(
            &vms,
            &pms,
            &policy,
            SimConfig {
                seed: 8,
                ..config()
            },
        );
        let err = other
            .resume_with_checkpoints(&knobs(10, 2), store, &mut NoopRecorder)
            .unwrap_err();
        let CheckpointError::NoUsableCheckpoint { discarded } = err else {
            panic!("want NoUsableCheckpoint");
        };
        assert_eq!(discarded.len(), 2);
        assert!(discarded[0].1.contains("different experiment"));
    }

    /// Layout value `1` (the per-VM layout) is retired; `0` and `2`
    /// must keep the fingerprints they had while it existed, or every
    /// snapshot written before would be rejected as a different
    /// experiment. The literals are the parent commit's values.
    #[test]
    fn fingerprints_of_both_layouts_are_pinned() {
        let (vms, pms) = fleet();
        let policy = QueuePolicy::new(QueueStrategy::build(16, 0.01, 0.09, 0.01));
        for (layout, want) in [
            (RngLayout::Shared, 0x624b_dd0b_e2fa_2f79_u64),
            (RngLayout::ClassAggregated, 0x2200_30b2_9e0f_82cc_u64),
        ] {
            let cfg = SimConfig {
                rng_layout: layout,
                ..config()
            };
            let got = fingerprint(&Simulator::new(&vms, &pms, &policy, cfg));
            assert_eq!(got, want, "{layout:?}: fingerprint is {got:#018x}");
        }
    }

    #[test]
    fn retired_core_layout_tag_is_a_typed_decode_error() {
        let (vms, pms) = fleet();
        let strategy = QueueStrategy::build(16, 0.01, 0.09, 0.01);
        let placement = first_fit(&vms, &pms, &strategy).unwrap();
        let policy = QueuePolicy::new(strategy);
        let sim = Simulator::new(&vms, &pms, &policy, config());
        let mut store = MemStore::new();
        sim.run_with_checkpoints(&placement, &knobs(10, 1), &mut store, &mut NoopRecorder);
        let good = store.file_mut("ckpt-000000000050").unwrap().clone();
        assert!(decode_state(&sim, &good).is_ok());

        // Re-frame the snapshot (fresh CRCs) with the core section's
        // layout tag — the byte after the length-prefixed `on` flags —
        // set to the retired per-VM value.
        let mut w = FrameWriter::new();
        for (tag, mut payload) in parse_frames(&good).unwrap() {
            if tag == SEC_CORE {
                let at = 8 + vms.len();
                assert_eq!(payload[at], 0, "shared-layout tag");
                payload[at] = 1;
            }
            w.section(tag, &payload);
        }
        let Err(err) = decode_state(&sim, &w.finish()) else {
            panic!("a tag-1 core section must not decode");
        };
        assert!(
            matches!(&err, CheckpointError::Frame(FrameError::Decode(msg))
                if msg == "unknown core layout tag 1"),
            "{err}"
        );
    }

    /// A recorder section the attached recorder refuses — here an image
    /// with one counter more than this build has, re-framed with valid
    /// CRCs — fails the resume instead of restarting the journal; a
    /// disabled recorder ignores the section and resumes.
    #[test]
    fn a_recorder_section_that_does_not_restore_fails_the_resume() {
        let (vms, pms) = fleet();
        let strategy = QueueStrategy::build(16, 0.01, 0.09, 0.01);
        let placement = first_fit(&vms, &pms, &strategy).unwrap();
        let policy = QueuePolicy::new(strategy);
        let sim = Simulator::new(&vms, &pms, &policy, config());
        let mut store = MemStore::new();
        let mut rec = MemoryRecorder::new(64);
        sim.run_with_checkpoints(&placement, &knobs(10, 1), &mut store, &mut rec);
        let file = store.file_mut("ckpt-000000000050").unwrap();
        let mut w = FrameWriter::new();
        for (tag, payload) in parse_frames(file).unwrap() {
            if tag != SEC_REC {
                w.section(tag, &payload);
                continue;
            }
            let image: Vec<u8> = Wire::get(&mut Cursor::new(&payload)).unwrap();
            let counters = usize::get(&mut Cursor::new(&image)).unwrap();
            let mut longer = Vec::new();
            (counters + 1).put(&mut longer);
            longer.extend_from_slice(&image[8..8 + 8 * counters]);
            0u64.put(&mut longer);
            longer.extend_from_slice(&image[8 + 8 * counters..]);
            let mut section = Vec::new();
            longer.put(&mut section);
            w.section(tag, &section);
        }
        *file = w.finish();

        let err = sim
            .resume_with_checkpoints(&knobs(10, 1), store.clone(), &mut MemoryRecorder::new(64))
            .unwrap_err();
        assert!(
            matches!(&err, CheckpointError::Frame(FrameError::Decode(msg))
                if msg == "ckpt-000000000050: recorder section 9 does not restore"),
            "{err}"
        );
        let (_, report) = sim
            .resume_with_checkpoints(&knobs(10, 1), store, &mut NoopRecorder)
            .unwrap();
        assert_eq!(report.step, 50);
    }

    fn encoded_len<T: Wire>(v: &T) -> usize {
        let mut buf = Vec::new();
        v.put(&mut buf);
        let mut c = Cursor::new(&buf);
        T::get(&mut c).unwrap();
        c.expect_done().unwrap();
        buf.len()
    }

    /// Every record a checkpoint holds in a sequence, in every variant:
    /// a `MIN_BYTES` above some encoding would refuse a valid image.
    #[test]
    fn record_min_bytes_match_their_encodings() {
        for to in [None, Some(3)] {
            assert_eq!(encoded_len(&FixedIndex(to)), FixedIndex::MIN_BYTES);
            let evacuation = EvacuationEvent {
                step: 1,
                vm_id: 2,
                from_pm: 3,
                to_pm: to,
                degraded: to.is_some(),
            };
            assert_eq!(encoded_len(&evacuation), EvacuationEvent::MIN_BYTES);
        }
        for cause in [RetryCause::Overload, RetryCause::Evacuation] {
            let entry = RetryEntry {
                vm: 1,
                cause,
                attempts: 2,
                next_step: 3,
            };
            assert_eq!(encoded_len(&entry), RetryEntry::MIN_BYTES);
        }
        for kind in [FaultKind::Crash, FaultKind::Recovery] {
            let event = FaultEvent {
                step: 1,
                pm: 2,
                kind,
            };
            assert_eq!(encoded_len(&event), FaultEvent::MIN_BYTES);
        }
        let crash = CrashRecord {
            pm: 1,
            step: 2,
            pending: 3,
        };
        assert_eq!(encoded_len(&crash), CrashRecord::MIN_BYTES);
        let migration = MigrationEvent {
            step: 1,
            vm_id: 2,
            from_pm: 3,
            to_pm: 4,
        };
        assert_eq!(encoded_len(&migration), MigrationEvent::MIN_BYTES);
        for snap in [
            CoreSnapshot::Shared([1, 2, 3, 4]),
            CoreSnapshot::ClassAggregated(vec![vec![(1, 2, 1)], vec![]]),
        ] {
            assert!(encoded_len(&snap) >= CoreSnapshot::MIN_BYTES);
        }
        assert_eq!(
            encoded_len(&RecoveryStats::default()),
            RecoveryStats::MIN_BYTES
        );
    }

    #[test]
    fn save_failures_are_tolerated_and_reported() {
        let (vms, pms) = fleet();
        let strategy = QueueStrategy::build(16, 0.01, 0.09, 0.01);
        let placement = first_fit(&vms, &pms, &strategy).unwrap();
        let policy = QueuePolicy::new(strategy);
        let sim = Simulator::new(&vms, &pms, &policy, config());

        let baseline = sim.run(&placement);
        // Every write's rename fails: zero snapshots land, every save
        // is reported, and the outcome is untouched.
        let store = FailingStore::new(MemStore::new(), 1, 0, 255, 0);
        let run = sim.run_with_checkpoints(&placement, &knobs(10, 2), store, &mut NoopRecorder);
        assert_same_outcome(&baseline, &run.outcome);
        assert_eq!(run.saves + run.save_errors.len(), 5);
        assert!(!run.save_errors.is_empty());
    }

    #[test]
    fn corrupted_newest_falls_back_to_older_snapshot() {
        let (vms, pms) = fleet();
        let strategy = QueueStrategy::build(16, 0.01, 0.09, 0.01);
        let placement = first_fit(&vms, &pms, &strategy).unwrap();
        let policy = QueuePolicy::new(strategy);
        let sim = Simulator::new(&vms, &pms, &policy, config());

        let baseline = sim.run(&placement);
        let mut store = MemStore::new();
        sim.run_with_checkpoints(&placement, &knobs(10, 2), &mut store, &mut NoopRecorder);
        // Flip one bit in the newest snapshot.
        let newest = store.file_mut("ckpt-000000000050").unwrap();
        let mid = newest.len() / 2;
        newest[mid] ^= 0x10;
        let (resumed, report) = sim
            .resume_with_checkpoints(&knobs(10, 2), store, &mut NoopRecorder)
            .unwrap();
        assert_eq!(report.loaded, "ckpt-000000000040");
        assert_eq!(report.discarded.len(), 1);
        assert_eq!(report.discarded[0].0, "ckpt-000000000050");
        assert_same_outcome(&baseline, &resumed.outcome);
    }

    #[test]
    fn empty_store_is_a_typed_error() {
        let (vms, pms) = fleet();
        let strategy = QueueStrategy::build(16, 0.01, 0.09, 0.01);
        let policy = QueuePolicy::new(strategy);
        let sim = Simulator::new(&vms, &pms, &policy, config());
        let err = sim
            .resume_with_checkpoints(&knobs(10, 2), MemStore::new(), &mut NoopRecorder)
            .unwrap_err();
        assert!(matches!(
            err,
            CheckpointError::NoUsableCheckpoint { ref discarded } if discarded.is_empty()
        ));
    }

    #[test]
    fn file_names_round_trip_and_sort_by_step() {
        type Ck = Checkpointer<MemStore>;
        assert_eq!(Ck::name_of(50), "ckpt-000000000050");
        assert_eq!(Ck::step_of("ckpt-000000000050"), Some(50));
        assert_eq!(Ck::step_of("ckpt-50"), None);
        assert_eq!(Ck::step_of("other"), None);
        assert!(Ck::name_of(99) < Ck::name_of(100));
    }
}
