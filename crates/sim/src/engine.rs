//! The time-stepped simulation engine.

use crate::config::{
    SimConfig, VictimPolicy, DEGRADED_EPSILON, MAX_RETRIES, RETRY_BASE_STEPS, SIGMA_SECS,
};
use crate::energy::PowerModel;
use crate::events::{EvacuationEvent, FaultEvent, FaultKind, MigrationEvent};
use crate::faults::FaultProcess;
use crate::members::Members;
use crate::policy::{DegradedAdmission, PmRuntime, RuntimePolicy};
use crate::workload_core::WorkloadCore;
use bursty_metrics::TimeSeries;
use bursty_obs::{Counter, Event, Gauge, HistId, NoopRecorder, Recorder, RetryCause};
use bursty_placement::{
    evacuate_batch_recorded, HeadroomIndex, Placement, PmLoad, PmOrder, CAP_EPS,
};
use bursty_workload::{PmSpec, VmSpec};
use std::sync::Arc;

/// Recovery and degradation accounting of one run. All fields stay zero
/// when [`SimConfig::faults`] is `None` and no migration ever fails.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryStats {
    /// PM crash transitions.
    pub crashes: usize,
    /// PM recovery transitions.
    pub recoveries: usize,
    /// Steps from each displacing crash until its last displaced VM was
    /// re-placed (0 = the whole batch landed within the crash step). One
    /// entry per crash that displaced at least one VM and was fully
    /// restored before the run ended.
    pub time_to_restore: Vec<usize>,
    /// Crashes whose displaced VMs were not all re-placed by the end of
    /// the run: their VMs are still in the retry queue — queued, not lost.
    pub unrestored_crashes: usize,
    /// VM-steps spent displaced, waiting in the retry queue.
    pub stranded_vm_steps: usize,
    /// Displaced VMs admitted only through the degraded-mode overflow
    /// margin `(1 + ε)·C`.
    pub degraded_admissions: usize,
    /// PM-step violations on PMs currently hosting a degraded admission —
    /// SLA exposure attributable to failures rather than to burstiness.
    pub degraded_violation_steps: usize,
}

impl RecoveryStats {
    /// Mean steps to restore a displacing crash; `None` when no crash was
    /// fully restored.
    pub fn mean_time_to_restore(&self) -> Option<f64> {
        if self.time_to_restore.is_empty() {
            None
        } else {
            Some(
                self.time_to_restore.iter().sum::<usize>() as f64
                    / self.time_to_restore.len() as f64,
            )
        }
    }
}

/// What one simulation run produced.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// `(pm index, CVR)` for every PM that hosted at least one VM at some
    /// point; CVR is violations over the steps the PM was active.
    pub cvr_per_pm: Vec<(usize, f64)>,
    /// All live migrations, in time order (including those that succeeded
    /// on a retry-queue re-attempt).
    pub migrations: Vec<MigrationEvent>,
    /// Trigger-time migrations for which no target PM could be found (pool
    /// exhausted); the VM stayed put, the violation persisted, and a
    /// retry-queue entry was scheduled with exponential backoff.
    pub failed_migrations: usize,
    /// Migrations that succeeded only on a retry-queue re-attempt, after
    /// the trigger-time attempt found no admitting PM.
    pub retried_migrations: usize,
    /// Number of non-empty PMs after each update period.
    pub pms_used_series: TimeSeries,
    /// PMs in use at the end of the evaluation period (the paper's energy
    /// proxy, Fig. 9(b)).
    pub final_pms_used: usize,
    /// Peak concurrent PMs in use.
    pub peak_pms_used: usize,
    /// Total PM-step capacity violations (burstiness and degraded-mode
    /// combined; see [`SimOutcome::burstiness_violation_steps`]).
    pub total_violation_steps: usize,
    /// Per-VM SLA exposure: how many steps each VM spent on a PM that was
    /// violating its capacity (indexed like the input fleet). The basis
    /// for tenant-fairness analysis: RB's violations concentrate on
    /// whoever shares a PM with the spikers.
    pub vm_violation_steps: Vec<usize>,
    /// Integrated energy over the run, joules.
    pub energy_joules: f64,
    /// PM crash/recovery transitions, in time order (empty without
    /// [`SimConfig::faults`]).
    pub fault_events: Vec<FaultEvent>,
    /// Displaced-VM re-placement attempts, in time order. A VM that found
    /// no PM appears with `to_pm: None` and again with `Some` once a
    /// retry lands it.
    pub evacuations: Vec<EvacuationEvent>,
    /// Failure-recovery accounting.
    pub recovery: RecoveryStats,
}

impl SimOutcome {
    /// Total number of migrations (Fig. 9(a)).
    pub fn total_migrations(&self) -> usize {
        self.migrations.len()
    }

    /// Mean CVR over PMs that were ever active (0 if none).
    pub fn mean_cvr(&self) -> f64 {
        if self.cvr_per_pm.is_empty() {
            return 0.0;
        }
        self.cvr_per_pm.iter().map(|(_, c)| c).sum::<f64>() / self.cvr_per_pm.len() as f64
    }

    /// Worst per-PM CVR (0 if none).
    pub fn max_cvr(&self) -> f64 {
        self.cvr_per_pm.iter().map(|&(_, c)| c).fold(0.0, f64::max)
    }

    /// Violation steps not attributable to failures: the total minus
    /// [`RecoveryStats::degraded_violation_steps`].
    pub fn burstiness_violation_steps(&self) -> usize {
        self.total_violation_steps - self.recovery.degraded_violation_steps
    }
}

/// One deferred placement attempt.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RetryEntry {
    pub(crate) vm: usize,
    /// `Overload`: a trigger-time migration off an over-budget PM found no
    /// target; the VM is still hosted there. Abandoned after
    /// `MAX_RETRIES` failed re-attempts (the trigger
    /// re-detects a persisting overload anyway). `Evacuation`: the VM was
    /// displaced by a PM crash and no PM admitted it. Never abandoned: the
    /// backoff exponent saturates but the entry stays until the VM lands
    /// somewhere.
    pub(crate) cause: RetryCause,
    /// Failed re-attempts so far (0 right after the initial failure).
    pub(crate) attempts: usize,
    /// First step at which the entry is due again.
    pub(crate) next_step: usize,
}

/// Restoration bookkeeping for one displacing crash.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CrashRecord {
    pub(crate) pm: usize,
    pub(crate) step: usize,
    /// Displaced VMs still waiting for a new home.
    pub(crate) pending: usize,
}

/// Mutable fault/recovery state of a run, bundled so the evacuation
/// helpers can borrow it alongside the placement state.
pub(crate) struct FaultState {
    pub(crate) pm_up: Vec<bool>,
    /// Whether each VM currently occupies a degraded-mode admission.
    pub(crate) vm_degraded: Vec<bool>,
    /// Degraded admissions currently hosted per PM.
    pub(crate) pm_overflow: Vec<usize>,
    /// For a displaced VM, the crash record it belongs to.
    pub(crate) crash_of_vm: Vec<Option<usize>>,
    pub(crate) crash_records: Vec<CrashRecord>,
    pub(crate) retry_queue: Vec<RetryEntry>,
    /// Per-VM membership flag for `retry_queue` — the O(1) replacement
    /// for scanning the queue on every failed migration. Invariant:
    /// `in_retry[i]` iff some entry with `vm == i` is in `retry_queue`
    /// (a VM never holds two entries: overload retries are deduplicated
    /// on push, and a displaced VM's overload entry is dropped before
    /// its evacuation entry is queued).
    pub(crate) in_retry: Vec<bool>,
    /// Displaced VMs not yet re-placed, `|{i : host(i) == None}|`: moved
    /// where a crash displaces and where an evacuation lands.
    pub(crate) stranded: usize,
    pub(crate) fault_events: Vec<FaultEvent>,
    pub(crate) evacuations: Vec<EvacuationEvent>,
    pub(crate) recovery: RecoveryStats,
}

impl FaultState {
    pub(crate) fn new(n: usize, m: usize) -> Self {
        Self {
            pm_up: vec![true; m],
            vm_degraded: vec![false; n],
            pm_overflow: vec![0; m],
            crash_of_vm: vec![None; n],
            crash_records: Vec::new(),
            retry_queue: Vec::new(),
            in_retry: vec![false; n],
            stranded: 0,
            fault_events: Vec::new(),
            evacuations: Vec::new(),
            recovery: RecoveryStats::default(),
        }
    }

    /// Adds a retry entry for a VM not currently queued, maintaining the
    /// `in_retry` flag. The debug assertion is the duplicate-entry
    /// regression guard: it re-runs the old O(queue) scan in test builds
    /// to certify the flag never drifts from actual queue membership.
    fn enqueue_retry(&mut self, entry: RetryEntry) {
        debug_assert!(
            !self.in_retry[entry.vm] && !self.retry_queue.iter().any(|r| r.vm == entry.vm),
            "VM {} already has a retry entry",
            entry.vm
        );
        self.in_retry[entry.vm] = true;
        self.retry_queue.push(entry);
    }
}

/// Headroom indexes over the PM pool for migration target selection,
/// split into *active* (hosting at least one VM) and *empty* PMs so
/// [`Simulator::pick_target`] keeps its two-phase first-fit semantics.
/// Down PMs carry `NEG_INFINITY` in both indexes and are never probed.
/// Like every per-PM array of a run, they are by position in the pool's
/// First-Fit [`PmOrder`] ([`Simulator`]), so a migration and a wake-up
/// go to the largest PM that admits the VM.
///
/// Derived run state: built at the first target query of a run (or of a
/// resumed run — it is never serialized) and kept from then on. Every
/// site that changes `loads[j]` or `pm_up[j]` point-updates PM `j`
/// ([`PmIndexes::pm_changed`]), which is all a policy whose headroom
/// reads only the load needs. A policy whose headroom reads
/// `pm.observed` sees every leaf move each step, so its index is
/// re-derived in place at the first query of each step
/// ([`TargetFinder::rebuild`]).
pub(crate) struct TargetFinder {
    active: HeadroomIndex,
    empty: HeadroomIndex,
    /// The step whose observed demands the leaves were last derived
    /// from.
    step: usize,
}

impl TargetFinder {
    fn new(
        sim: &Simulator<'_>,
        step: usize,
        loads: &[PmLoad],
        observed: &[f64],
        pm_up: &[bool],
    ) -> Self {
        let mut finder = Self {
            active: HeadroomIndex::new(&[]),
            empty: HeadroomIndex::new(&[]),
            step,
        };
        finder.rebuild(sim, step, loads, observed, pm_up);
        finder
    }

    /// PM `j`'s `(active, empty)` leaves under the current state.
    fn leaves(
        sim: &Simulator<'_>,
        j: usize,
        loads: &[PmLoad],
        observed: &[f64],
        pm_up: &[bool],
    ) -> (f64, f64) {
        if !pm_up[j] {
            return (f64::NEG_INFINITY, f64::NEG_INFINITY);
        }
        let pm = PmRuntime {
            load: loads[j],
            observed: observed[j],
        };
        let h = sim.policy.headroom(&pm, sim.capacity(j));
        if loads[j].is_empty() {
            (f64::NEG_INFINITY, h)
        } else {
            (h, f64::NEG_INFINITY)
        }
    }

    /// Re-derives every leaf straight into the trees, reusing their
    /// allocations.
    fn rebuild(
        &mut self,
        sim: &Simulator<'_>,
        step: usize,
        loads: &[PmLoad],
        observed: &[f64],
        pm_up: &[bool],
    ) {
        let Self { active, empty, .. } = self;
        active.rebuild_with(loads.len(), |active| {
            empty.rebuild_with(loads.len(), |empty| {
                for j in 0..loads.len() {
                    let (a, e) = Self::leaves(sim, j, loads, observed, pm_up);
                    active.push(a);
                    empty.push(e);
                }
            });
        });
        self.step = step;
    }

    /// Re-derives PM `j`'s entries after its load, observed demand or
    /// up/down state changed (it may have crossed the active/empty
    /// boundary).
    fn refresh(
        &mut self,
        sim: &Simulator<'_>,
        j: usize,
        loads: &[PmLoad],
        observed: &[f64],
        pm_up: &[bool],
    ) {
        let (a, e) = Self::leaves(sim, j, loads, observed, pm_up);
        self.active.update(j, a);
        self.empty.update(j, e);
    }
}

/// A set of PMs as a bitset, walked in ascending PM order: what the
/// per-step passes iterate instead of testing every PM of the pool.
pub(crate) struct PmSet {
    words: Vec<u64>,
    len: usize,
}

impl PmSet {
    fn new(m: usize) -> Self {
        Self {
            words: vec![0; m.div_ceil(64)],
            len: 0,
        }
    }

    fn contains(&self, j: usize) -> bool {
        self.words[j / 64] & (1u64 << (j % 64)) != 0
    }

    /// Puts `j` in or out of the set; returns whether that changed it.
    fn set(&mut self, j: usize, member: bool) -> bool {
        let flipped = self.contains(j) != member;
        if flipped {
            self.words[j / 64] ^= 1u64 << (j % 64);
            if member {
                self.len += 1;
            } else {
                self.len -= 1;
            }
        }
        flipped
    }

    fn len(&self) -> usize {
        self.len
    }

    /// The members of one word, ascending.
    fn members_of(w: usize, word: u64) -> impl Iterator<Item = usize> {
        let mut rest = word;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let j = w * 64 + rest.trailing_zeros() as usize;
                rest &= rest - 1;
                j
            })
        })
    }

    /// The members in ascending order.
    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words
            .iter()
            .enumerate()
            .flat_map(|(w, &word)| Self::members_of(w, word))
    }
}

/// What the engine keeps per PM so that a step costs what changed, not
/// what exists. All of it is derived from `loads`, `observed` and
/// `fs.pm_up` and never serialized, except the active-step counts, which
/// the checkpoint writes materialised ([`PmIndexes::active_steps`]) and
/// [`PmIndexes::new`] takes back: a fresh run and a resumed one are
/// built alike, and the first step — which re-derives every PM's
/// `observed` — fills the ledger. The feeds that keep it exact
/// (DESIGN.md §8):
///
/// * every site that changes `loads[j]` or `pm_up[j]` reports it through
///   [`PmIndexes::pm_changed`];
/// * every write to `observed[j]` before the violation pass reaches
///   [`PmIndexes::observed_changed`], because the core re-derives — and
///   lists — exactly the entries that were written.
pub(crate) struct PmIndexes {
    /// The PMs hosting at least one VM, `{j : !loads[j].is_empty()}`.
    occupied: PmSet,
    /// `{j occupied : observed[j] > C_j + CAP_EPS}` as of the last
    /// ledger update: the violation pass is a walk of this set.
    over: PmSet,
    /// Per PM, `power.energy(observed[j] / C_j, σ)`: what the PM adds to
    /// the run's energy each step it is occupied. Current at the energy
    /// sum for every occupied PM.
    term: Vec<f64>,
    /// PMs handed to [`PmIndexes::pm_changed`] since the last energy
    /// sum: the commit sites edit `observed[j]` after the ledger update,
    /// so these terms are derived once more before they are added.
    touched: Vec<u32>,
    /// Violation passes run so far (one per completed step).
    passes: usize,
    /// Lazy active-step counts: `active[j]` is PM `j`'s count of passes
    /// it was occupied in, up to pass `since[j]`; while it stays occupied
    /// every later pass counts too. Credited when occupancy flips.
    active: Vec<usize>,
    since: Vec<usize>,
    /// The per-step counter the lazy counts replace.
    #[cfg(test)]
    dense_active: Vec<usize>,
    /// `None` until the first migration-target query builds it.
    finder: Option<TargetFinder>,
}

impl PmIndexes {
    /// The indexes of a run about to execute step `next_step`, whose PMs
    /// have been active for `active_steps` passes so far.
    pub(crate) fn new(loads: &[PmLoad], active_steps: Vec<usize>, next_step: usize) -> Self {
        let m = loads.len();
        let mut occupied = PmSet::new(m);
        for (j, load) in loads.iter().enumerate() {
            occupied.set(j, !load.is_empty());
        }
        Self {
            occupied,
            over: PmSet::new(m),
            term: vec![0.0; m],
            touched: Vec::new(),
            passes: next_step,
            #[cfg(test)]
            dense_active: active_steps.clone(),
            active: active_steps,
            since: vec![next_step; m],
            finder: None,
        }
    }

    fn pm_changed(
        &mut self,
        sim: &Simulator<'_>,
        j: usize,
        loads: &[PmLoad],
        observed: &[f64],
        pm_up: &[bool],
    ) {
        let occupied = !loads[j].is_empty();
        if self.occupied.set(j, occupied) {
            if occupied {
                self.since[j] = self.passes;
            } else {
                self.active[j] += self.passes - self.since[j];
                self.over.set(j, false);
            }
        }
        self.touched.push(j as u32);
        if let Some(f) = self.finder.as_mut() {
            f.refresh(sim, j, loads, observed, pm_up);
        }
    }

    /// The ledger update: `observed[j]` was written since the last one.
    #[inline]
    fn observed_changed(&mut self, sim: &Simulator<'_>, j: usize, observed: &[f64]) {
        // Occupied: a PM its last tenant just left is still charged the
        // copy, and was never walked by the pass this set replaces.
        let over = self.occupied.contains(j) && sim.is_over(j, observed[j]);
        self.over.set(j, over);
        self.term[j] = sim.energy_term(j, observed[j]);
    }

    /// The ledger update after the core re-derived every entry: a walk
    /// of the occupied PMs, which is where `over` (emptied PMs leave it
    /// in [`PmIndexes::pm_changed`]) and the terms that are read live.
    fn every_observed_changed(&mut self, sim: &Simulator<'_>, observed: &[f64]) {
        for w in 0..self.occupied.words.len() {
            for j in PmSet::members_of(w, self.occupied.words[w]) {
                self.observed_changed(sim, j, observed);
            }
        }
    }

    /// Books one violation pass: every occupied PM was active in it.
    fn count_pass(&mut self) {
        self.passes += 1;
        #[cfg(test)]
        for j in self.occupied.iter() {
            self.dense_active[j] += 1;
        }
    }

    /// How many passes PM `j` has been occupied in.
    fn active_steps_of(&self, j: usize) -> usize {
        if self.occupied.contains(j) {
            self.active[j] + (self.passes - self.since[j])
        } else {
            self.active[j]
        }
    }

    /// [`PmIndexes::active_steps_of`] for the whole pool.
    pub(crate) fn active_steps(&self) -> Vec<usize> {
        (0..self.active.len())
            .map(|j| self.active_steps_of(j))
            .collect()
    }

    /// `energy` plus this step's term of every occupied PM, added one by
    /// one in ascending PM order — the additions of the pass that
    /// recomputed each term, so the running sum keeps its bits.
    fn add_energy(&mut self, sim: &Simulator<'_>, observed: &[f64], mut energy: f64) -> f64 {
        for j in self.touched.drain(..) {
            self.term[j as usize] = sim.energy_term(j as usize, observed[j as usize]);
        }
        #[cfg(test)]
        self.assert_terms_are_current(sim, observed);
        for (w, &word) in self.occupied.words.iter().enumerate() {
            if word == u64::MAX {
                for term in &self.term[w * 64..(w + 1) * 64] {
                    energy += term;
                }
            } else {
                for j in PmSet::members_of(w, word) {
                    energy += self.term[j];
                }
            }
        }
        energy
    }
}

/// The differential checks every engine test runs on the ledger: each
/// carried quantity against the per-step pass it replaced.
#[cfg(test)]
impl PmIndexes {
    fn assert_over_is_the_scan(&self, sim: &Simulator<'_>, loads: &[PmLoad], observed: &[f64]) {
        let scan =
            (0..loads.len()).filter(|&j| !loads[j].is_empty() && sim.is_over(j, observed[j]));
        assert!(
            self.over.iter().eq(scan),
            "over-capacity set stale at pass {}",
            self.passes
        );
        assert_eq!(self.over.len(), self.over.iter().count());
    }

    fn assert_terms_are_current(&self, sim: &Simulator<'_>, observed: &[f64]) {
        for j in self.occupied.iter() {
            assert_eq!(
                self.term[j].to_bits(),
                sim.energy_term(j, observed[j]).to_bits(),
                "PM {j}: carried energy term stale after pass {}",
                self.passes
            );
        }
    }

    fn assert_active_steps_are_the_dense_count(&self) {
        assert_eq!(
            self.active_steps(),
            self.dense_active,
            "lazy active-step counts drifted by pass {}",
            self.passes
        );
    }
}

/// A configured simulator, ready to run from an initial placement.
///
/// # Examples
/// ```
/// use bursty_placement::{first_fit, QueueStrategy};
/// use bursty_sim::{QueuePolicy, SimConfig, Simulator};
/// use bursty_workload::{PmSpec, VmSpec};
///
/// let vms: Vec<VmSpec> =
///     (0..14).map(|i| VmSpec::new(i, 0.01, 0.09, 10.0, 10.0)).collect();
/// let pms: Vec<PmSpec> = (0..14).map(|j| PmSpec::new(j, 100.0)).collect();
/// let strategy = QueueStrategy::build(16, 0.01, 0.09, 0.01);
/// let placement = first_fit(&vms, &pms, &strategy).unwrap();
///
/// let policy = QueuePolicy::new(strategy);
/// let cfg = SimConfig { steps: 500, seed: 7, ..SimConfig::default() };
/// let outcome = Simulator::new(&vms, &pms, &policy, cfg).run(&placement);
/// assert!(outcome.mean_cvr() <= 0.02);       // performance constraint
/// assert!(outcome.total_migrations() <= 2);  // reservation absorbs spikes
/// ```
pub struct Simulator<'a> {
    pub(crate) vms: &'a [VmSpec],
    pub(crate) pms: &'a [PmSpec],
    /// The pool's First-Fit order. A run names each PM by its position
    /// in it — every per-PM array, the members, the workload core's
    /// chunks, the target indexes — so the PMs a capacity-ordered
    /// placement uses are the low positions, and a migration target
    /// search walks the order the packers walk. A PM index goes in
    /// (the initial placement, the fault process's crashes) or comes out
    /// (events, [`SimOutcome`], CVR samples) through it.
    pub(crate) order: Arc<PmOrder>,
    pub(crate) policy: &'a dyn RuntimePolicy,
    pub(crate) power: PowerModel,
    pub(crate) config: SimConfig,
}

/// The complete mutable state of a run between two step boundaries —
/// everything [`Simulator::step_once`] reads or writes. Bundling it in
/// one struct is what makes the engine checkpointable: a durable
/// snapshot is a serialization of `RunState` (plus the recorder), and
/// resume is [`Simulator::run_from`] on a restored value. Constructed
/// by [`Simulator::init_state`]; never leaves the crate.
pub(crate) struct RunState {
    pub(crate) core: WorkloadCore,
    pub(crate) fault_process: Option<FaultProcess>,
    /// Each VM's PM and each PM's VMs in arrival order. A displaced
    /// (stranded) VM, waiting in the retry queue after a crash, has no
    /// PM.
    pub(crate) members: Members,
    pub(crate) loads: Vec<PmLoad>,
    pub(crate) fs: FaultState,
    pub(crate) vio_steps: Vec<usize>,
    pub(crate) migrations: Vec<MigrationEvent>,
    pub(crate) failed_migrations: usize,
    pub(crate) retried_migrations: usize,
    pub(crate) pms_used_series: TimeSeries,
    pub(crate) peak_pms_used: usize,
    pub(crate) total_violation_steps: usize,
    pub(crate) vm_violation_steps: Vec<usize>,
    pub(crate) energy: f64,
    /// Per-PM observed demand of the *last completed* step. Read by the
    /// next step's fault/evacuation phase before the workload evolves,
    /// and carried through it: the core re-derives only the entries
    /// that were written since (`workload_core` module docs), so every
    /// engine-side write is reported to it.
    pub(crate) observed: Vec<f64>,
    /// The next step to execute (== completed steps so far).
    pub(crate) next_step: usize,
    /// Occupied and over-capacity sets, per-PM energy terms and active
    /// steps, migration-target index.
    pub(crate) indexes: PmIndexes,
    /// Scratch: the PMs in violation this step, refilled by every step.
    pub(crate) overloaded: Vec<usize>,
}

/// A callback the engine drives after every completed step — the seam
/// the checkpointer hangs off. [`NoopHook`] is the zero-cost default:
/// its empty body inlines away, so [`Simulator::run`] compiles to the
/// same loop it was before the seam existed.
pub(crate) trait StepHook {
    fn after_step<R: Recorder>(&mut self, sim: &Simulator<'_>, st: &RunState, rec: &R);
}

/// The do-nothing [`StepHook`] of plain (non-checkpointed) runs.
pub(crate) struct NoopHook;

impl StepHook for NoopHook {
    #[inline(always)]
    fn after_step<R: Recorder>(&mut self, _: &Simulator<'_>, _: &RunState, _: &R) {}
}

impl<'a> Simulator<'a> {
    /// Creates a simulator. `pms` should include spare (initially empty)
    /// machines — the pool the migration controller can power on.
    ///
    /// # Panics
    /// Panics when `config` fails [`SimConfig::validate`]; call it first
    /// to handle the [`crate::ConfigError`] as a value.
    pub fn new(
        vms: &'a [VmSpec],
        pms: &'a [PmSpec],
        policy: &'a dyn RuntimePolicy,
        config: SimConfig,
    ) -> Self {
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid SimConfig: {e}"));
        Self {
            vms,
            pms,
            order: PmOrder::of(pms),
            policy,
            power: PowerModel::default(),
            config,
        }
    }

    /// The capacity of the PM at position `p`.
    #[inline]
    fn capacity(&self, p: usize) -> f64 {
        self.order.capacities()[p]
    }

    /// The index of the PM at position `p`.
    #[inline]
    fn pm(&self, p: usize) -> usize {
        self.order.pm(p)
    }

    /// Per-position violation steps and the active-step counts of
    /// `indexes`, each by PM index: what a CVR sample carries.
    fn by_pm(&self, vio_steps: &[usize], indexes: &PmIndexes) -> (Vec<usize>, Vec<usize>) {
        (0..vio_steps.len())
            .map(|j| {
                let p = self.order.position(j);
                (vio_steps[p], indexes.active_steps_of(p))
            })
            .unzip()
    }

    /// Whether demand `observed` violates the capacity at position `j`.
    #[inline]
    fn is_over(&self, j: usize, observed: f64) -> bool {
        observed > self.capacity(j) + CAP_EPS
    }

    /// Energy the PM at position `j` consumes over one step at demand
    /// `observed`.
    #[inline]
    fn energy_term(&self, j: usize, observed: f64) -> f64 {
        let util = observed / self.capacity(j);
        self.power.energy(util, SIGMA_SECS)
    }

    /// Backoff delay before re-attempt number `attempts + 1`:
    /// `RETRY_BASE_STEPS · 2^attempts`, with the exponent saturated at
    /// `MAX_RETRIES`.
    fn backoff(&self, attempts: usize) -> usize {
        RETRY_BASE_STEPS << attempts.min(MAX_RETRIES)
    }

    /// Queues VM `i` for a retry after `attempts` failed re-attempts (0 on
    /// the initial failure), due one [`backoff`](Self::backoff) from
    /// `step`. Books the enqueue (`RetryEnqueued` on the first,
    /// `RetryReenqueued` after), the backoff and the `RetryEnqueued`
    /// event.
    fn enqueue_retry<R: Recorder>(
        &self,
        step: usize,
        i: usize,
        cause: RetryCause,
        attempts: usize,
        fs: &mut FaultState,
        rec: &mut R,
    ) {
        let delay = self.backoff(attempts);
        rec.counter_inc(if attempts == 0 {
            Counter::RetryEnqueued
        } else {
            Counter::RetryReenqueued
        });
        rec.record_value(HistId::RetryBackoffSteps, delay as u64);
        if R::ENABLED {
            rec.record_event(Event::RetryEnqueued {
                step: step as u64,
                vm: self.vms[i].id,
                cause,
                attempts: attempts as u32,
                due_step: (step + delay) as u64,
            });
        }
        fs.enqueue_retry(RetryEntry {
            vm: i,
            cause,
            attempts,
            next_step: step + delay,
        });
    }

    /// Books the cancellation of VM `i`'s overload retry.
    fn cancel_retry<R: Recorder>(&self, step: usize, i: usize, rec: &mut R) {
        rec.counter_inc(Counter::RetryCancelled);
        if R::ENABLED {
            rec.record_event(Event::RetryCancelled {
                step: step as u64,
                vm: self.vms[i].id,
            });
        }
    }

    /// Runs the simulation from `initial` and returns the outcome.
    ///
    /// Every VM starts OFF (the initial placement is made at the normal
    /// workload level, paper §III: the capacity constraint is imposed at
    /// `t = 0`).
    ///
    /// # Panics
    /// Panics if `initial` is incomplete or inconsistent with the specs.
    pub fn run(&self, initial: &Placement) -> SimOutcome {
        self.run_recorded(initial, &mut NoopRecorder)
    }

    /// [`run`](Self::run) with an observability [`Recorder`] attached:
    /// counters, gauges and histograms accumulate at each decision point,
    /// typed [`Event`]s flow into the recorder's journal, and — when the
    /// recorder requests it — cumulative per-PM CVR inputs are sampled on
    /// a fixed step interval.
    ///
    /// The recorder is *write-only*: no recorder method can influence
    /// control flow, RNG draws or any `f64` the simulation computes, so
    /// `run_recorded(p, &mut any_recorder)` returns a [`SimOutcome`]
    /// bit-identical to `run(p)` (differentially proptested in
    /// `tests/obs_differential.rs`). With [`NoopRecorder`]
    /// (`R::ENABLED == false`) every instrumentation site monomorphizes to
    /// nothing — [`run`](Self::run) *is* this function at zero cost.
    ///
    /// # Panics
    /// Panics if `initial` is incomplete or inconsistent with the specs.
    pub fn run_recorded<R: Recorder>(&self, initial: &Placement, rec: &mut R) -> SimOutcome {
        let st = self.init_state(initial);
        self.run_from(st, rec, &mut NoopHook)
    }

    /// Builds the step-0 [`RunState`] from an initial placement.
    ///
    /// # Panics
    /// Panics if `initial` is incomplete or inconsistent with the specs.
    pub(crate) fn init_state(&self, initial: &Placement) -> RunState {
        assert_eq!(
            initial.n_vms(),
            self.vms.len(),
            "placement/VM count mismatch"
        );
        assert_eq!(initial.n_pms, self.pms.len(), "placement/PM count mismatch");
        assert!(
            initial.is_complete(),
            "initial placement must place every VM"
        );

        let n = self.vms.len();
        let m = self.pms.len();
        let fault_process = self.config.faults.map(|cfg| FaultProcess::new(cfg, m));

        // The structure-of-arrays hot path: flattened chain parameters,
        // per-VM ON/OFF state, and the configured RNG layout.
        let mut core = WorkloadCore::new(
            self.vms,
            m,
            self.config.seed,
            self.config.rng_layout,
            self.config.threads,
        );
        let members = Members::from_hosts(
            initial
                .assignment
                .iter()
                .map(|host| host.map(|j| self.order.position(j))),
            m,
        );
        let loads: Vec<PmLoad> = (0..m)
            .map(|j| PmLoad::rebuild(members.iter(j).map(|i| &self.vms[i])))
            .collect();
        // The run's arrays are allocated in this order, and the class
        // counters last: the order decides where they sit in the
        // allocator's heap, and so whether the memory a finished run
        // frees holds one hole the size of the fleet (DESIGN.md §8,
        // "What a paper-density run holds").
        let vm_violation_steps = vec![0usize; n];
        let fs = FaultState::new(n, m);
        let vio_steps = vec![0usize; m];
        let observed = vec![0.0f64; m];
        let indexes = PmIndexes::new(&loads, vec![0usize; m], 0);
        // Class-aggregated layout only: build the (PM, class) counters
        // from the initial placement. A no-op for the other layouts.
        core.class_init(&members);

        RunState {
            core,
            fault_process,
            members,
            fs,
            vio_steps,
            migrations: Vec::new(),
            failed_migrations: 0,
            retried_migrations: 0,
            pms_used_series: TimeSeries::new(0.0, SIGMA_SECS),
            peak_pms_used: 0,
            total_violation_steps: 0,
            vm_violation_steps,
            energy: 0.0,
            observed,
            next_step: 0,
            indexes,
            loads,
            overloaded: Vec::new(),
        }
    }

    /// Drives `st` to the horizon, invoking `hook` after every completed
    /// step, then closes out the run. `run_recorded` is exactly this
    /// with [`NoopHook`]; the checkpointer enters here with a restored
    /// mid-run state.
    pub(crate) fn run_from<R: Recorder, H: StepHook>(
        &self,
        mut st: RunState,
        rec: &mut R,
        hook: &mut H,
    ) -> SimOutcome {
        while st.next_step < self.config.steps {
            self.step_once(&mut st, rec);
            hook.after_step(self, &st, rec);
        }
        self.finish(st, rec)
    }

    /// Executes exactly one simulation step — the body of the historical
    /// `run_recorded` loop, verbatim (the golden pins certify the
    /// extraction changed no operation order).
    fn step_once<R: Recorder>(&self, st: &mut RunState, rec: &mut R) {
        let step = st.next_step;
        let RunState {
            core,
            fault_process,
            members,
            loads,
            fs,
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
            indexes,
            overloaded,
        } = st;
        {
            // 0. Fault transitions, then immediate batch evacuation of the
            //    VMs the crashes displaced. Driven by the dedicated fault
            //    RNG stream, so the workload sample paths below are
            //    untouched whether or not faults are configured.
            if let Some(process) = fault_process.as_mut() {
                let events = process.step(step);
                let mut displaced: Vec<usize> = Vec::new();
                for e in &events {
                    // The fault process names PMs by index.
                    let p = self.order.position(e.pm);
                    match e.kind {
                        FaultKind::Crash => {
                            fs.recovery.crashes += 1;
                            fs.pm_up[p] = false;
                            fs.pm_overflow[p] = 0;
                            let evicted = members.evict_all(p);
                            core.pm_crashed(p, &evicted);
                            loads[p] = PmLoad::empty();
                            observed[p] = 0.0;
                            indexes.pm_changed(self, p, loads, observed, &fs.pm_up);
                            rec.counter_inc(Counter::Crashes);
                            rec.counter_add(Counter::DisplacedVms, evicted.len() as u64);
                            if R::ENABLED {
                                rec.record_event(Event::Crash {
                                    step: step as u64,
                                    pm: e.pm,
                                    displaced: evicted.len(),
                                });
                            }
                            if evicted.is_empty() {
                                continue;
                            }
                            let record = fs.crash_records.len();
                            fs.crash_records.push(CrashRecord {
                                pm: e.pm,
                                step,
                                pending: evicted.len(),
                            });
                            fs.stranded += evicted.len();
                            for &i in &evicted {
                                fs.crash_of_vm[i] = Some(record);
                                fs.vm_degraded[i] = false;
                            }
                            displaced.extend(evicted);
                        }
                        FaultKind::Recovery => {
                            fs.recovery.recoveries += 1;
                            fs.pm_up[p] = true;
                            indexes.pm_changed(self, p, loads, observed, &fs.pm_up);
                            rec.counter_inc(Counter::Recoveries);
                            if R::ENABLED {
                                rec.record_event(Event::Recovery {
                                    step: step as u64,
                                    pm: e.pm,
                                });
                            }
                        }
                    }
                }
                fs.fault_events.extend(events);
                // Displaced VMs abandon any pending overload retry — the
                // evacuation path owns them now.
                if !displaced.is_empty() && !fs.retry_queue.is_empty() {
                    let queue = std::mem::take(&mut fs.retry_queue);
                    for r in queue {
                        if r.cause == RetryCause::Overload && members.host(r.vm).is_none() {
                            fs.in_retry[r.vm] = false;
                            self.cancel_retry(step, r.vm, rec);
                        } else {
                            fs.retry_queue.push(r);
                        }
                    }
                }
                if !displaced.is_empty() {
                    rec.record_value(HistId::EvacuationBatchSize, displaced.len() as u64);
                    let unplaced = self.evacuate_displaced(
                        step, &displaced, core, members, loads, observed, fs, indexes, rec,
                    );
                    for i in unplaced {
                        let from_pm = fs.crash_records
                            [fs.crash_of_vm[i].expect("displaced VM has a crash record")]
                        .pm;
                        fs.evacuations.push(EvacuationEvent {
                            step,
                            vm_id: self.vms[i].id,
                            from_pm,
                            to_pm: None,
                            degraded: false,
                        });
                        if R::ENABLED {
                            rec.record_event(Event::Evacuation {
                                step: step as u64,
                                vm: self.vms[i].id,
                                from: from_pm,
                                to: None,
                                degraded: false,
                            });
                        }
                        self.enqueue_retry(step, i, RetryCause::Evacuation, 0, fs, rec);
                    }
                }
            }

            // 1.+2. Workload evolution (state switches happen at interval
            //    boundaries, paper §IV-B) and local resizing (allocation
            //    == demand, so observed PM load is the sum of current
            //    demands). Every VM's chain advances — including stranded
            //    ones — so the RNG streams are identical regardless of
            //    fault and migration decisions. Draw order and summation
            //    order per layout are the core's determinism contract
            //    (DESIGN.md §8).
            core.step(step as u64, members, observed);
            #[cfg(test)]
            {
                // Every engine test doubles as a differential test of
                // the derived state: the shared core's per-PM sums
                // against a from-scratch accumulation, the occupied set
                // against the scan it replaced, each member list's
                // length against its PM's load.
                core.assert_observed_is_full_accumulation(members, observed);
                assert!(
                    indexes
                        .occupied
                        .iter()
                        .eq((0..loads.len()).filter(|&j| !loads[j].is_empty())),
                    "occupied set stale at step {step}"
                );
                assert_eq!(indexes.occupied.len(), indexes.occupied.iter().count());
                for (j, load) in loads.iter().enumerate() {
                    assert_eq!(
                        members.iter(j).count(),
                        load.count,
                        "PM {j}'s list against its load at step {step}"
                    );
                }
            }
            // The ledger follows `observed`: the core wrote exactly the
            // entries that anyone has written since the last update.
            if core.rederived_all() {
                indexes.every_observed_changed(self, observed);
            } else {
                core.for_each_rederived(|j| indexes.observed_changed(self, j, observed));
            }
            #[cfg(test)]
            indexes.assert_over_is_the_scan(self, loads, observed);

            // 3. Violation tracking: the over-capacity PMs, ascending.
            //    Violations on PMs currently hosting a degraded admission
            //    are additionally tagged as failure-attributable.
            overloaded.clear();
            overloaded.extend(indexes.over.iter());
            indexes.count_pass();
            for &j in overloaded.iter() {
                vio_steps[j] += 1;
                *total_violation_steps += 1;
                rec.counter_inc(Counter::ViolationSteps);
                if fs.pm_overflow[j] > 0 {
                    fs.recovery.degraded_violation_steps += 1;
                    rec.counter_inc(Counter::DegradedViolationSteps);
                }
                if R::ENABLED {
                    rec.record_event(Event::Violation {
                        step: step as u64,
                        pm: self.pm(j),
                        observed: observed[j],
                        capacity: self.capacity(j),
                        degraded: fs.pm_overflow[j] > 0,
                    });
                }
                for i in members.iter(j) {
                    vm_violation_steps[i] += 1;
                }
            }
            if R::ENABLED && !overloaded.is_empty() {
                rec.record_value(HistId::ViolationsPerStep, overloaded.len() as u64);
            }

            // 4. Live migration: a PM whose violation count exceeds the
            //    compliant budget ρ·t plus the CUSUM allowance sheds one
            //    VM (at most one per PM per period). The allowance keeps
            //    startup noise — where a single violation puts the running
            //    ratio above ρ — from evicting VMs off compliant PMs.
            if self.config.migrations_enabled {
                for &j in overloaded.iter() {
                    let active = indexes.active_steps_of(j);
                    if !self.config.sheds_vm(vio_steps[j], active) {
                        continue; // tolerated fluctuation
                    }
                    let overload = observed[j] - self.capacity(j);
                    // Class mode: re-materialize this PM's per-VM ON
                    // flags from its counters before reading them.
                    core.class_sync_pm(j, members.iter(j));
                    let on = &core.on;
                    let candidates = members.iter(j).map(|i| (i, &self.vms[i], on[i]));
                    let Some(victim) = pick_victim(self.config.victim_policy, candidates, overload)
                    else {
                        continue;
                    };
                    let vm = &self.vms[victim];
                    let vm_demand = vm.demand(core.on[victim]);
                    match self.pick_target(
                        &mut indexes.finder,
                        step,
                        j,
                        vm,
                        vm_demand,
                        loads,
                        observed,
                        &fs.pm_up,
                    ) {
                        Some(target) => self.migrate(
                            step, victim, j, target, vm_demand, false, core, members, loads,
                            observed, fs, migrations, indexes, rec,
                        ),
                        None => {
                            *failed_migrations += 1;
                            rec.counter_inc(Counter::FailedMigrations);
                            if R::ENABLED {
                                rec.record_event(Event::MigrationFailed {
                                    step: step as u64,
                                    vm: vm.id,
                                    pm: self.pm(j),
                                });
                            }
                            if !fs.in_retry[victim] {
                                self.enqueue_retry(step, victim, RetryCause::Overload, 0, fs, rec);
                            }
                        }
                    }
                }
            }

            // 5. Retry queue: due overload entries re-attempt a single
            //    placement; due evacuation entries re-attempt as a batch
            //    (normal admission first, then the degraded margin).
            if fs.retry_queue.iter().any(|r| r.next_step <= step) {
                let queue = std::mem::take(&mut fs.retry_queue);
                let mut due_overload = Vec::new();
                let mut due_evac: Vec<RetryEntry> = Vec::new();
                for e in queue {
                    if e.next_step > step {
                        // Not due: stays queued, membership flag unchanged.
                        fs.retry_queue.push(e);
                    } else {
                        // Popped for processing; only another failure below
                        // re-queues it (and re-raises the flag).
                        fs.in_retry[e.vm] = false;
                        if e.cause == RetryCause::Overload {
                            due_overload.push(e);
                        } else {
                            due_evac.push(e);
                        }
                    }
                }

                for e in due_overload {
                    // Displaced meanwhile: the evacuation path owns it.
                    let Some(j) = members.host(e.vm) else {
                        self.cancel_retry(step, e.vm, rec);
                        continue;
                    };
                    let active = indexes.active_steps_of(j);
                    if !self.config.sheds_vm(vio_steps[j], active) {
                        self.cancel_retry(step, e.vm, rec);
                        continue; // overload cleared itself; cancel
                    }
                    let vm = &self.vms[e.vm];
                    core.class_sync_pm(j, members.iter(j));
                    let vm_demand = vm.demand(core.on[e.vm]);
                    match self.pick_target(
                        &mut indexes.finder,
                        step,
                        j,
                        vm,
                        vm_demand,
                        loads,
                        observed,
                        &fs.pm_up,
                    ) {
                        Some(target) => {
                            self.migrate(
                                step, e.vm, j, target, vm_demand, true, core, members, loads,
                                observed, fs, migrations, indexes, rec,
                            );
                            *retried_migrations += 1;
                        }
                        None => {
                            let attempts = e.attempts + 1;
                            if attempts < MAX_RETRIES {
                                self.enqueue_retry(
                                    step,
                                    e.vm,
                                    RetryCause::Overload,
                                    attempts,
                                    fs,
                                    rec,
                                );
                            } else {
                                // Abandoned; the trigger re-detects a
                                // persisting overload (the VM is hosted).
                                rec.counter_inc(Counter::RetryAbandoned);
                                if R::ENABLED {
                                    rec.record_event(Event::RetryAbandoned {
                                        step: step as u64,
                                        vm: vm.id,
                                        attempts: attempts as u32,
                                    });
                                }
                            }
                        }
                    }
                }

                if !due_evac.is_empty() {
                    let vms_due: Vec<usize> = due_evac.iter().map(|e| e.vm).collect();
                    // Class mode: the limbo counters have evolved since
                    // these VMs were displaced — refresh their flags.
                    core.class_sync_displaced(members);
                    let unplaced = self.evacuate_displaced(
                        step, &vms_due, core, members, loads, observed, fs, indexes, rec,
                    );
                    rec.counter_add(
                        Counter::RetryLandedEvacuation,
                        (vms_due.len() - unplaced.len()) as u64,
                    );
                    for i in unplaced {
                        let attempts = due_evac
                            .iter()
                            .find(|e| e.vm == i)
                            .expect("unplaced VM came from the due batch")
                            .attempts
                            + 1;
                        self.enqueue_retry(step, i, RetryCause::Evacuation, attempts, fs, rec);
                    }
                }
            }

            // 6. Bookkeeping. Energy over the occupied PMs (post-migration
            //    state, so it cannot fold into the violation loop above).
            let used = indexes.occupied.len();
            *energy = indexes.add_energy(self, observed, *energy);
            *peak_pms_used = (*peak_pms_used).max(used);
            pms_used_series.push(used as f64);
            if fault_process.is_some() {
                debug_assert_eq!(fs.stranded, members.displaced().count());
                fs.recovery.stranded_vm_steps += fs.stranded;
                rec.counter_add(Counter::StrandedVmSteps, fs.stranded as u64);
            }
            #[cfg(test)]
            indexes.assert_active_steps_are_the_dense_count();
            rec.counter_inc(Counter::Steps);
            if R::ENABLED {
                if rec.wants_step_events() {
                    rec.record_event(Event::Step {
                        step: step as u64,
                        pms_used: used,
                        violations: overloaded.len(),
                    });
                }
                if let Some(every) = rec.cvr_sample_interval() {
                    if (step + 1).is_multiple_of(every) {
                        let (violations, active) = self.by_pm(vio_steps, indexes);
                        rec.sample_cvr(step as u64, &violations, &active);
                    }
                }
            }
        }
        *next_step += 1;
    }

    /// Closes out a finished run: final CVR sample, residual retry
    /// counters, end-of-run gauges, and the assembled [`SimOutcome`].
    fn finish<R: Recorder>(&self, st: RunState, rec: &mut R) -> SimOutcome {
        let m = self.pms.len();
        let RunState {
            core,
            indexes,
            mut fs,
            vio_steps,
            migrations,
            failed_migrations,
            retried_migrations,
            pms_used_series,
            peak_pms_used,
            total_violation_steps,
            vm_violation_steps,
            energy,
            ..
        } = st;

        fs.recovery.unrestored_crashes = fs.crash_records.iter().filter(|r| r.pending > 0).count();

        if R::ENABLED {
            // Close out the recorder: a final CVR sample when the horizon
            // did not land on the sampling grid, residual retry-queue
            // depths, and the end-of-run gauges.
            if let Some(every) = rec.cvr_sample_interval() {
                if self.config.steps > 0 && !self.config.steps.is_multiple_of(every) {
                    let (violations, active) = self.by_pm(&vio_steps, &indexes);
                    rec.sample_cvr((self.config.steps - 1) as u64, &violations, &active);
                }
            }
            for e in &fs.retry_queue {
                rec.counter_inc(match e.cause {
                    RetryCause::Overload => Counter::RetryResidualOverload,
                    RetryCause::Evacuation => Counter::RetryResidualEvacuation,
                });
            }
            rec.gauge_set(Gauge::FinalPmsUsed, indexes.occupied.len() as f64);
            rec.gauge_set(Gauge::PeakPmsUsed, peak_pms_used as f64);
            rec.gauge_set(Gauge::EnergyJoules, energy);
            // Class-aggregated sampler-cache counters (zero under the
            // other layouts, and left unrecorded to keep traces sparse).
            if let Some(stats) = core.class_cache_stats() {
                rec.counter_add(Counter::BinomialTableHits, stats.hits);
                rec.counter_add(Counter::BinomialTableMisses, stats.misses);
                rec.counter_add(Counter::BinomialTableEvictions, stats.evictions);
            }
        }

        // Sized by a counting pass before it is filled: a `filter` gives
        // `collect` no size hint, and at paper density the vector (~3.7 MB)
        // would grow by doubling at the run's memory peak (DESIGN §8).
        // Listed by PM index, each read at its position.
        let active = |p: usize| indexes.active_steps_of(p);
        let mut cvr_per_pm = Vec::with_capacity((0..m).filter(|&p| active(p) > 0).count());
        cvr_per_pm.extend(
            (0..m)
                .map(|j| (j, self.order.position(j)))
                .filter(|&(_, p)| active(p) > 0)
                .map(|(j, p)| (j, vio_steps[p] as f64 / active(p) as f64)),
        );
        let final_pms_used = indexes.occupied.len();
        SimOutcome {
            cvr_per_pm,
            migrations,
            failed_migrations,
            retried_migrations,
            pms_used_series,
            final_pms_used,
            peak_pms_used,
            total_violation_steps,
            vm_violation_steps,
            energy_joules: energy,
            fault_events: fs.fault_events,
            evacuations: fs.evacuations,
            recovery: fs.recovery,
        }
    }

    /// Moves hosted VM `victim` from PM `j` to `target` — the one commit
    /// site of a live migration, shared by the violation trigger
    /// (`retried == false`) and the overload-retry path. Every piece of
    /// state a move touches is updated here, the target index included.
    #[allow(clippy::too_many_arguments)]
    fn migrate<R: Recorder>(
        &self,
        step: usize,
        victim: usize,
        j: usize,
        target: usize,
        vm_demand: f64,
        retried: bool,
        core: &mut WorkloadCore,
        members: &mut Members,
        loads: &mut [PmLoad],
        observed: &mut [f64],
        fs: &mut FaultState,
        migrations: &mut Vec<MigrationEvent>,
        indexes: &mut PmIndexes,
        rec: &mut R,
    ) {
        let vm = &self.vms[victim];
        core.vm_moved(victim, Some(j), Some(target));
        members.leave(victim);
        members.land(victim, target);
        loads[j] = PmLoad::rebuild(members.iter(j).map(|i| &self.vms[i]));
        loads[target].add(vm);
        observed[j] -= vm_demand;
        observed[target] += vm_demand;
        indexes.pm_changed(self, j, loads, observed, &fs.pm_up);
        indexes.pm_changed(self, target, loads, observed, &fs.pm_up);
        if fs.vm_degraded[victim] {
            // Normal admission elsewhere ends the degraded occupancy.
            fs.vm_degraded[victim] = false;
            fs.pm_overflow[j] -= 1;
        }
        migrations.push(MigrationEvent {
            step,
            vm_id: vm.id,
            from_pm: self.pm(j),
            to_pm: self.pm(target),
        });
        rec.counter_inc(Counter::Migrations);
        if retried {
            rec.counter_inc(Counter::RetriedMigrations);
            rec.counter_inc(Counter::RetryLandedOverload);
        }
        if R::ENABLED {
            rec.record_event(Event::Migration {
                step: step as u64,
                vm: vm.id,
                from: self.pm(j),
                to: self.pm(target),
                retried,
            });
        }
    }

    /// Re-places a batch of displaced VMs: one pass under the active
    /// policy, then — for whatever is left — one pass through the
    /// [`DegradedAdmission`] overflow margin. Successful placements emit
    /// [`EvacuationEvent`]s and settle their crash records; the returned
    /// VMs found no PM under either rule.
    #[allow(clippy::too_many_arguments)]
    fn evacuate_displaced<R: Recorder>(
        &self,
        step: usize,
        displaced: &[usize],
        core: &mut WorkloadCore,
        members: &mut Members,
        loads: &mut [PmLoad],
        observed: &mut [f64],
        fs: &mut FaultState,
        indexes: &mut PmIndexes,
        rec: &mut R,
    ) -> Vec<usize> {
        let leftover = self.evacuate_pass(
            step,
            displaced,
            self.policy,
            false,
            core,
            members,
            loads,
            observed,
            fs,
            indexes,
            rec,
        );
        if leftover.is_empty() {
            return leftover;
        }
        let degraded = DegradedAdmission::new(self.policy, DEGRADED_EPSILON);
        self.evacuate_pass(
            step, &leftover, &degraded, true, core, members, loads, observed, fs, indexes, rec,
        )
    }

    /// One admission pass of [`Self::evacuate_displaced`] under `policy`,
    /// driven by [`evacuate_batch_recorded`] over a fresh
    /// [`HeadroomIndex`] (down PMs enter as `NEG_INFINITY` and are never
    /// probed).
    #[allow(clippy::too_many_arguments)]
    fn evacuate_pass<R: Recorder>(
        &self,
        step: usize,
        displaced: &[usize],
        policy: &dyn RuntimePolicy,
        degraded: bool,
        core: &mut WorkloadCore,
        members: &mut Members,
        loads: &mut [PmLoad],
        observed: &mut [f64],
        fs: &mut FaultState,
        indexes: &mut PmIndexes,
        rec: &mut R,
    ) -> Vec<usize> {
        let demands: Vec<f64> = displaced
            .iter()
            .map(|&i| policy.demand_measure(&self.vms[i], self.vms[i].demand(core.on[i])))
            .collect();
        let headrooms: Vec<f64> = (0..self.pms.len())
            .map(|j| {
                if !fs.pm_up[j] {
                    return f64::NEG_INFINITY;
                }
                let pm = PmRuntime {
                    load: loads[j],
                    observed: observed[j],
                };
                policy.headroom(&pm, self.capacity(j))
            })
            .collect();
        let mut index = HeadroomIndex::new(&headrooms);
        let out = evacuate_batch_recorded(&demands, &mut index, rec, |j, slot| {
            let i = displaced[slot];
            let vm = &self.vms[i];
            let vm_demand = vm.demand(core.on[i]);
            let pm = PmRuntime {
                load: loads[j],
                observed: observed[j],
            };
            if !policy.admits(vm, vm_demand, &pm, self.capacity(j)) {
                return None;
            }
            core.vm_moved(i, None, Some(j));
            members.land(i, j);
            loads[j].add(vm);
            observed[j] += vm_demand;
            indexes.pm_changed(self, j, loads, observed, &fs.pm_up);
            let pm = PmRuntime {
                load: loads[j],
                observed: observed[j],
            };
            Some(policy.headroom(&pm, self.capacity(j)))
        });
        fs.stranded -= out.placed.len();
        for &(slot, j) in &out.placed {
            let i = displaced[slot];
            let record = fs.crash_of_vm[i]
                .take()
                .expect("displaced VM has a crash record");
            fs.evacuations.push(EvacuationEvent {
                step,
                vm_id: self.vms[i].id,
                from_pm: fs.crash_records[record].pm,
                to_pm: Some(self.pm(j)),
                degraded,
            });
            rec.counter_inc(if degraded {
                Counter::EvacuationsDegraded
            } else {
                Counter::EvacuationsPlaced
            });
            if R::ENABLED {
                rec.record_event(Event::Evacuation {
                    step: step as u64,
                    vm: self.vms[i].id,
                    from: fs.crash_records[record].pm,
                    to: Some(self.pm(j)),
                    degraded,
                });
                if degraded {
                    rec.record_event(Event::Admission {
                        step: step as u64,
                        vm: self.vms[i].id,
                        pm: self.pm(j),
                        degraded: true,
                    });
                }
            }
            if degraded {
                fs.vm_degraded[i] = true;
                fs.pm_overflow[j] += 1;
                fs.recovery.degraded_admissions += 1;
            }
            fs.crash_records[record].pending -= 1;
            if fs.crash_records[record].pending == 0 {
                fs.recovery
                    .time_to_restore
                    .push(step - fs.crash_records[record].step);
            }
        }
        out.unplaced.iter().map(|&slot| displaced[slot]).collect()
    }

    /// Target selection: first *active* up PM (other than the source) the
    /// policy admits the VM on, else the first empty up PM in the pool.
    ///
    /// Candidates come from the run's [`TargetFinder`] headroom indexes
    /// rather than a linear scan over all m PMs: a PM whose headroom is
    /// below `demand_measure(vm)` cannot admit the VM (the
    /// [`RuntimePolicy`] headroom contract), so `first_at_least` skips
    /// straight to the next plausible index and the full `admits` check
    /// runs only there. By that contract the result is identical to the
    /// linear scan — certified by the differential test
    /// `indexed_target_selection_matches_linear_scan` (in test builds
    /// every call here re-checks itself against the linear oracle and a
    /// freshly built index) and by the golden pins, whose constants
    /// predate the index.
    ///
    /// The finder is made current here, before it is read: built on
    /// first use, and re-derived at the first query of each later step
    /// when the policy's headroom follows observed demand. Load-only
    /// policies need nothing — the mutation sites keep it current.
    #[allow(clippy::too_many_arguments)]
    fn pick_target(
        &self,
        finder: &mut Option<TargetFinder>,
        step: usize,
        source: usize,
        vm: &VmSpec,
        vm_demand: f64,
        loads: &[PmLoad],
        observed: &[f64],
        pm_up: &[bool],
    ) -> Option<usize> {
        let f = match finder {
            Some(f) => {
                if f.step != step && self.policy.headroom_reads_observed() {
                    f.rebuild(self, step, loads, observed, pm_up);
                }
                f
            }
            None => finder.insert(TargetFinder::new(self, step, loads, observed, pm_up)),
        };
        let threshold = self.policy.demand_measure(vm, vm_demand);
        let admit = |j: usize| {
            let pm = PmRuntime {
                load: loads[j],
                observed: observed[j],
            };
            self.policy.admits(vm, vm_demand, &pm, self.capacity(j))
        };
        let mut found = None;
        'search: for index in [&f.active, &f.empty] {
            let mut from = 0;
            while let Some(j) = index.first_at_least(from, threshold) {
                if j != source && admit(j) {
                    found = Some(j);
                    break 'search;
                }
                from = j + 1;
            }
        }
        #[cfg(test)]
        {
            let fresh = TargetFinder::new(self, step, loads, observed, pm_up);
            for j in 0..self.pms.len() {
                assert_eq!(
                    (f.active.value(j).to_bits(), f.empty.value(j).to_bits()),
                    (
                        fresh.active.value(j).to_bits(),
                        fresh.empty.value(j).to_bits()
                    ),
                    "kept index stale at position {j}, step {step} ({})",
                    self.policy.name()
                );
            }
            assert_eq!(
                found,
                self.pick_target_linear(source, vm, vm_demand, loads, observed, pm_up),
                "indexed target differs from the linear scan at step {step} ({})",
                self.policy.name()
            );
        }
        found
    }

    /// Reference implementation of [`Self::pick_target`]: the pre-index
    /// linear scan over every PM, kept as the oracle for the
    /// differential test.
    #[cfg(test)]
    fn pick_target_linear(
        &self,
        source: usize,
        vm: &VmSpec,
        vm_demand: f64,
        loads: &[PmLoad],
        observed: &[f64],
        pm_up: &[bool],
    ) -> Option<usize> {
        let admit = |j: usize| {
            let pm = PmRuntime {
                load: loads[j],
                observed: observed[j],
            };
            self.policy.admits(vm, vm_demand, &pm, self.capacity(j))
        };
        let active = (0..self.pms.len())
            .find(|&j| j != source && pm_up[j] && !loads[j].is_empty() && admit(j));
        active.or_else(|| {
            (0..self.pms.len())
                .find(|&j| j != source && pm_up[j] && loads[j].is_empty() && admit(j))
        })
    }
}

/// The VM an overloaded PM evicts under `policy`, among its hosted
/// `(index, spec, ON)` candidates, `overload` being its observed demand
/// above capacity; `None` for an empty PM. Ties go to the later
/// candidate for the largest ON demand, to the earlier for the two
/// smallest picks. The engine and `scenario::run_churn` both decide here.
pub(crate) fn pick_victim<'a>(
    policy: VictimPolicy,
    candidates: impl Iterator<Item = (usize, &'a VmSpec, bool)> + Clone,
    overload: f64,
) -> Option<usize> {
    let largest_on = || {
        candidates.clone().max_by(|&(_, a, a_on), &(_, b, b_on)| {
            let demand = a.demand(a_on).total_cmp(&b.demand(b_on));
            a_on.cmp(&b_on).then(demand)
        })
    };
    let victim = match policy {
        VictimPolicy::LargestOnDemand => largest_on(),
        VictimPolicy::SmallestSufficient => candidates
            .clone()
            .filter(|&(_, vm, on)| on && vm.demand(true) >= overload)
            .min_by(|(_, a, _), (_, b, _)| a.demand(true).total_cmp(&b.demand(true)))
            .or_else(largest_on),
        VictimPolicy::SmallestBase => candidates
            .clone()
            .min_by(|(_, a, _), (_, b, _)| a.r_b.total_cmp(&b.r_b)),
    };
    victim.map(|(i, _, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RngLayout;
    use crate::faults::FaultConfig;
    use crate::policy::{ObservedPolicy, QueuePolicy};
    use bursty_placement::{first_fit, BaseStrategy, QueueStrategy};

    fn vm(id: usize, r_b: f64, r_e: f64) -> VmSpec {
        VmSpec::new(id, 0.01, 0.09, r_b, r_e)
    }

    fn farm(count: usize, cap: f64) -> Vec<PmSpec> {
        (0..count).map(|j| PmSpec::new(j, cap)).collect()
    }

    fn config(steps: usize, seed: u64, migrations: bool) -> SimConfig {
        SimConfig {
            steps,
            seed,
            migrations_enabled: migrations,
            ..Default::default()
        }
    }

    #[test]
    fn queue_placement_respects_rho_without_migration() {
        let vms: Vec<VmSpec> = (0..48).map(|i| vm(i, 10.0, 10.0)).collect();
        let pms = farm(48, 100.0);
        let strategy = QueueStrategy::build(16, 0.01, 0.09, 0.01);
        let placement = first_fit(&vms, &pms, &strategy).unwrap();
        let policy = QueuePolicy::new(strategy);
        let sim = Simulator::new(&vms, &pms, &policy, config(20_000, 1, false));
        let out = sim.run(&placement);
        // Mean CVR must honor ρ with margin; individual PMs may exceed it
        // slightly (the paper observes the same).
        assert!(out.mean_cvr() <= 0.012, "mean CVR {}", out.mean_cvr());
        assert!(out.max_cvr() <= 0.05, "max CVR {}", out.max_cvr());
        assert!(out.migrations.is_empty());
    }

    #[test]
    fn base_placement_violates_massively_without_migration() {
        let vms: Vec<VmSpec> = (0..48).map(|i| vm(i, 10.0, 10.0)).collect();
        let pms = farm(48, 100.0);
        let placement = first_fit(&vms, &pms, &BaseStrategy).unwrap();
        let policy = ObservedPolicy::rb();
        let sim = Simulator::new(&vms, &pms, &policy, config(5_000, 1, false));
        let out = sim.run(&placement);
        // 10 VMs per PM at Σ R_b = C: any spike violates. Pr[≥1 ON] ≈ 65%.
        assert!(out.mean_cvr() > 0.3, "mean CVR {}", out.mean_cvr());
    }

    #[test]
    fn queue_incurs_far_fewer_migrations_than_rb() {
        let vms: Vec<VmSpec> = (0..64).map(|i| vm(i, 10.0, 10.0)).collect();
        let pms = farm(200, 100.0);

        let qs = QueueStrategy::build(16, 0.01, 0.09, 0.01);
        let q_placement = first_fit(&vms, &pms, &qs).unwrap();
        let q_policy = QueuePolicy::new(qs);
        let q_out = Simulator::new(&vms, &pms, &q_policy, config(100, 7, true)).run(&q_placement);

        let b_placement = first_fit(&vms, &pms, &BaseStrategy).unwrap();
        let b_policy = ObservedPolicy::rb();
        let b_out = Simulator::new(&vms, &pms, &b_policy, config(100, 7, true)).run(&b_placement);

        assert!(
            b_out.total_migrations() > 5 * q_out.total_migrations().max(1),
            "RB {} vs QUEUE {}",
            b_out.total_migrations(),
            q_out.total_migrations()
        );
    }

    #[test]
    fn rb_pm_count_grows_from_overtight_packing() {
        let vms: Vec<VmSpec> = (0..64).map(|i| vm(i, 10.0, 10.0)).collect();
        let pms = farm(200, 100.0);
        let placement = first_fit(&vms, &pms, &BaseStrategy).unwrap();
        let initial = placement.pms_used();
        let policy = ObservedPolicy::rb();
        let out = Simulator::new(&vms, &pms, &policy, config(100, 3, true)).run(&placement);
        assert!(
            out.final_pms_used > initial,
            "RB must spill to extra PMs: {} vs initial {initial}",
            out.final_pms_used
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let vms: Vec<VmSpec> = (0..32).map(|i| vm(i, 10.0, 8.0)).collect();
        let pms = farm(100, 90.0);
        let placement = first_fit(&vms, &pms, &BaseStrategy).unwrap();
        let policy = ObservedPolicy::rb();
        let run =
            |seed| Simulator::new(&vms, &pms, &policy, config(80, seed, true)).run(&placement);
        let (a, b) = (run(11), run(11));
        assert_eq!(a.migrations, b.migrations);
        assert_eq!(a.final_pms_used, b.final_pms_used);
        assert_eq!(a.total_violation_steps, b.total_violation_steps);
        let c = run(12);
        // Different seed, different sample path (overwhelmingly likely).
        assert!(a.migrations != c.migrations || a.total_violation_steps != c.total_violation_steps);
    }

    #[test]
    fn a_run_is_its_run_on_the_pool_renumbered_by_capacity() {
        // The engine works in PM order positions: a pool and the same pool
        // renumbered so that index order is capacity order run the same
        // steps, and every PM the outcome names is the first run's index
        // of the second run's PM. Capacities repeat, so ties are crossed.
        let pms: Vec<PmSpec> = (0..60)
            .map(|j| PmSpec::new(j, 80.0 + ((j * 7) % 5) as f64 * 5.0))
            .collect();
        let order = PmOrder::of(&pms);
        assert!(
            (0..pms.len()).any(|p| order.pm(p) != p),
            "the pool is reordered"
        );
        let renumbered: Vec<PmSpec> = order
            .pms()
            .enumerate()
            .map(|(p, j)| PmSpec::new(p, pms[j].capacity))
            .collect();
        let vms: Vec<VmSpec> = (0..64).map(|i| vm(i, 10.0, 10.0)).collect();
        let placement = first_fit(&vms, &pms, &BaseStrategy).unwrap();
        let moved = Placement {
            assignment: placement
                .assignment
                .iter()
                .map(|host| host.map(|j| order.position(j)))
                .collect(),
            n_pms: pms.len(),
        };
        assert_eq!(first_fit(&vms, &renumbered, &BaseStrategy).unwrap(), moved);
        let policy = ObservedPolicy::rb();
        let cfg = config(300, 5, true);
        let out = Simulator::new(&vms, &pms, &policy, cfg).run(&placement);
        let twin = Simulator::new(&vms, &renumbered, &policy, cfg).run(&moved);
        assert!(
            out.total_migrations() > 10,
            "{} migrations",
            out.total_migrations()
        );
        let mut cvr: Vec<(usize, f64)> = twin
            .cvr_per_pm
            .iter()
            .map(|&(p, c)| (order.pm(p), c))
            .collect();
        cvr.sort_by_key(|&(j, _)| j);
        assert_eq!(out.cvr_per_pm, cvr);
        let migrations: Vec<MigrationEvent> = twin
            .migrations
            .iter()
            .map(|m| MigrationEvent {
                from_pm: order.pm(m.from_pm),
                to_pm: order.pm(m.to_pm),
                ..*m
            })
            .collect();
        assert_eq!(out.migrations, migrations);
        assert_eq!(out.vm_violation_steps, twin.vm_violation_steps);
        assert_eq!(out.energy_joules.to_bits(), twin.energy_joules.to_bits());
        assert_eq!(out.pms_used_series.values, twin.pms_used_series.values);
    }

    #[test]
    fn energy_scales_with_pms_used() {
        let vms: Vec<VmSpec> = (0..10).map(|i| vm(i, 10.0, 5.0)).collect();
        let pms = farm(20, 100.0);
        // One PM for everything vs one VM per PM.
        let consolidated = Placement {
            assignment: vec![Some(0); 10],
            n_pms: 20,
        };
        let spread = Placement {
            assignment: (0..10).map(Some).collect(),
            n_pms: 20,
        };
        let policy = ObservedPolicy::rb();
        let cfg = config(50, 5, false);
        let e1 = Simulator::new(&vms, &pms, &policy, cfg)
            .run(&consolidated)
            .energy_joules;
        let e2 = Simulator::new(&vms, &pms, &policy, cfg)
            .run(&spread)
            .energy_joules;
        assert!(e2 > 3.0 * e1, "spread {e2} vs consolidated {e1}");
    }

    #[test]
    fn pool_exhaustion_counts_failed_migrations() {
        // Overloaded tiny farm with zero spare capacity anywhere.
        let vms: Vec<VmSpec> = (0..8).map(|i| vm(i, 10.0, 10.0)).collect();
        let pms = farm(1, 80.0);
        let placement = Placement {
            assignment: vec![Some(0); 8],
            n_pms: 1,
        };
        let policy = ObservedPolicy::rb();
        let out = Simulator::new(&vms, &pms, &policy, config(2_000, 2, true)).run(&placement);
        assert_eq!(out.total_migrations(), 0, "nowhere to go");
        assert!(out.failed_migrations > 0);
        assert_eq!(out.retried_migrations, 0, "retries fail on a 1-PM farm");
    }

    #[test]
    fn series_lengths_match_steps() {
        let vms = vec![vm(0, 5.0, 5.0)];
        let pms = farm(2, 50.0);
        let placement = Placement {
            assignment: vec![Some(0)],
            n_pms: 2,
        };
        let policy = ObservedPolicy::rb();
        let out = Simulator::new(&vms, &pms, &policy, config(37, 1, true)).run(&placement);
        assert_eq!(out.pms_used_series.len(), 37);
        assert_eq!(out.final_pms_used, 1);
        assert_eq!(out.peak_pms_used, 1);
        assert_eq!(out.cvr_per_pm.len(), 1);
    }

    #[test]
    #[should_panic(expected = "place every VM")]
    fn incomplete_placement_rejected() {
        let vms = vec![vm(0, 5.0, 5.0)];
        let pms = farm(1, 50.0);
        let placement = Placement::empty(1, 1);
        let policy = ObservedPolicy::rb();
        let _ = Simulator::new(&vms, &pms, &policy, config(5, 1, false)).run(&placement);
    }

    #[test]
    fn vm_violation_exposure_sums_to_pm_accounting() {
        let vms: Vec<VmSpec> = (0..30).map(|i| vm(i, 10.0, 10.0)).collect();
        let pms = farm(30, 100.0);
        let placement = first_fit(&vms, &pms, &BaseStrategy).unwrap();
        let policy = ObservedPolicy::rb();
        let out = Simulator::new(&vms, &pms, &policy, config(2_000, 4, false)).run(&placement);
        // Each violating PM-step exposes exactly its hosted VMs: with the
        // static 10-per-PM packing, Σ per-VM exposure = 10 × PM-steps.
        let total_exposure: usize = out.vm_violation_steps.iter().sum();
        assert_eq!(total_exposure, 10 * out.total_violation_steps);
        assert!(out.vm_violation_steps.iter().any(|&v| v > 0));
        assert_eq!(out.vm_violation_steps.len(), vms.len());
    }

    #[test]
    fn victim_policies_all_run_and_differ() {
        use crate::config::VictimPolicy;
        // Heterogeneous sizes so the policies actually pick differently.
        let vms: Vec<VmSpec> = (0..40)
            .map(|i| vm(i, 6.0 + (i % 5) as f64 * 3.0, 4.0 + (i % 3) as f64 * 8.0))
            .collect();
        let pms = farm(120, 100.0);
        let placement = first_fit(&vms, &pms, &BaseStrategy).unwrap();
        let policy = ObservedPolicy::rb();
        let run = |vp: VictimPolicy| {
            let cfg = SimConfig {
                steps: 100,
                seed: 13,
                victim_policy: vp,
                ..Default::default()
            };
            Simulator::new(&vms, &pms, &policy, cfg).run(&placement)
        };
        let largest = run(VictimPolicy::LargestOnDemand);
        let smallest = run(VictimPolicy::SmallestSufficient);
        let base = run(VictimPolicy::SmallestBase);
        // All three stay structurally sound and actually migrate.
        for out in [&largest, &smallest, &base] {
            assert!(out.total_migrations() > 0);
            for e in &out.migrations {
                assert_ne!(e.from_pm, e.to_pm);
            }
        }
        // Policy choice changes the event stream for this fleet/seed.
        assert!(
            largest.migrations != smallest.migrations || largest.migrations != base.migrations,
            "policies should not coincide on a heterogeneous fleet"
        );
        // SmallestSufficient moves less demand per migration on average.
        let moved = |out: &SimOutcome| -> f64 {
            out.migrations
                .iter()
                .map(|e| vms[e.vm_id].r_p())
                .sum::<f64>()
                / out.total_migrations().max(1) as f64
        };
        assert!(
            moved(&smallest) <= moved(&largest) + 1e-9,
            "smallest-sufficient should move lighter VMs: {} vs {}",
            moved(&smallest),
            moved(&largest)
        );
    }

    // ---- fault injection and recovery ----

    /// A VM that switches ON at the first step and (effectively) never
    /// switches OFF — deterministic demand, for scenario construction.
    /// (`p_off = 0` is rejected by [`VmSpec::new`], so use a probability
    /// far below anything a fixed-seed run of this length can sample.)
    fn pinned_on(id: usize, r_b: f64, r_e: f64) -> VmSpec {
        VmSpec::new(id, 1.0, 1e-12, r_b, r_e)
    }

    #[test]
    fn fault_free_runs_have_empty_fault_accounting() {
        let vms: Vec<VmSpec> = (0..16).map(|i| vm(i, 10.0, 10.0)).collect();
        let pms = farm(40, 100.0);
        let placement = first_fit(&vms, &pms, &BaseStrategy).unwrap();
        let policy = ObservedPolicy::rb();
        let out = Simulator::new(&vms, &pms, &policy, config(500, 6, true)).run(&placement);
        assert!(out.fault_events.is_empty());
        assert!(out.evacuations.is_empty());
        assert_eq!(out.recovery, RecoveryStats::default());
        assert_eq!(out.burstiness_violation_steps(), out.total_violation_steps);
    }

    #[test]
    fn faulty_runs_are_deterministic_and_workload_stream_is_unperturbed() {
        let vms: Vec<VmSpec> = (0..24).map(|i| vm(i, 10.0, 10.0)).collect();
        let pms = farm(60, 100.0);
        let placement = first_fit(&vms, &pms, &BaseStrategy).unwrap();
        let policy = ObservedPolicy::rb();
        let faulty = SimConfig {
            faults: Some(FaultConfig {
                mtbf_steps: 120.0,
                mttr_steps: 20.0,
                ..Default::default()
            }),
            ..config(600, 21, true)
        };
        let a = Simulator::new(&vms, &pms, &policy, faulty).run(&placement);
        let b = Simulator::new(&vms, &pms, &policy, faulty).run(&placement);
        assert_eq!(a.fault_events, b.fault_events);
        assert_eq!(a.evacuations, b.evacuations);
        assert_eq!(a.migrations, b.migrations);
        assert_eq!(a.recovery, b.recovery);
        assert_eq!(a.energy_joules.to_bits(), b.energy_joules.to_bits());
        assert!(a.recovery.crashes > 0, "MTBF 120 over 600 steps must crash");

        // A different fault seed reshuffles the schedule but must not touch
        // the workload RNG: the ON-OFF sample paths stay the same, which we
        // can observe through a placement-independent statistic on a run
        // without migrations (violations depend only on demands).
        let frozen = |fault_seed| {
            let cfg = SimConfig {
                migrations_enabled: false,
                faults: Some(FaultConfig {
                    mtbf_steps: 1e12, // effectively never crashes
                    seed: fault_seed,
                    ..Default::default()
                }),
                ..config(600, 21, false)
            };
            Simulator::new(&vms, &pms, &policy, cfg).run(&placement)
        };
        let (x, y) = (frozen(1), frozen(2));
        assert_eq!(x.total_violation_steps, y.total_violation_steps);
        assert_eq!(x.vm_violation_steps, y.vm_violation_steps);
    }

    #[test]
    fn crashes_with_ample_capacity_restore_instantly() {
        let vms: Vec<VmSpec> = (0..12).map(|i| vm(i, 10.0, 10.0)).collect();
        let pms = farm(60, 100.0);
        let placement = first_fit(&vms, &pms, &BaseStrategy).unwrap();
        let policy = ObservedPolicy::rb();
        let cfg = SimConfig {
            faults: Some(FaultConfig {
                mtbf_steps: 80.0,
                mttr_steps: 15.0,
                ..Default::default()
            }),
            ..config(800, 5, true)
        };
        let out = Simulator::new(&vms, &pms, &policy, cfg).run(&placement);
        assert!(out.recovery.crashes > 0);
        assert!(
            !out.evacuations.is_empty(),
            "crashes on a populated fleet must displace VMs"
        );
        // 60 PMs for 12 small VMs: every displaced VM lands immediately.
        assert!(out.evacuations.iter().all(|e| e.to_pm.is_some()));
        assert_eq!(out.recovery.unrestored_crashes, 0);
        assert!(out.recovery.time_to_restore.iter().all(|&t| t == 0));
        assert_eq!(out.recovery.mean_time_to_restore(), Some(0.0));
        assert_eq!(out.recovery.stranded_vm_steps, 0);
        assert_eq!(out.recovery.degraded_admissions, 0);
        // Evacuations never target a crashed-and-still-down PM.
        for e in &out.evacuations {
            assert_ne!(e.to_pm, Some(e.from_pm), "landed back on the crash step");
        }
    }

    #[test]
    fn displaced_vms_are_queued_never_dropped_when_pool_is_exhausted() {
        // Two PMs, both nearly full of always-ON tenants; no spares. A
        // crash strands VMs: 90 + 45 is past even the degraded margin's
        // 110, so nothing admits them until the PM recovers.
        let vms: Vec<VmSpec> = (0..4).map(|i| pinned_on(i, 45.0, 0.0)).collect();
        let pms = farm(2, 100.0);
        let placement = Placement {
            assignment: vec![Some(0), Some(0), Some(1), Some(1)],
            n_pms: 2,
        };
        let policy = ObservedPolicy::rb();
        let mut found = None;
        for fault_seed in 0..300 {
            let cfg = SimConfig {
                faults: Some(FaultConfig {
                    mtbf_steps: 60.0,
                    mttr_steps: 12.0,
                    seed: fault_seed,
                    ..Default::default()
                }),
                ..config(200, 3, false)
            };
            let out = Simulator::new(&vms, &pms, &policy, cfg).run(&placement);
            if out.recovery.crashes > 0 && out.recovery.stranded_vm_steps > 0 {
                found = Some(out);
                break;
            }
        }
        let out = found.expect("some fault seed must strand a VM");
        // The stranded VMs entered the retry queue (queued-with-None
        // events), and every eventual landing is a later Some event.
        assert!(out.evacuations.iter().any(|e| e.to_pm.is_none()));
        let displaced_total: usize = out
            .fault_events
            .iter()
            .filter(|e| e.kind == FaultKind::Crash)
            .count(); // upper bound context only; the real check follows
        let _ = displaced_total;
        // Conservation: every crash record is either fully restored or
        // still counted as unrestored — no displaced VM vanishes.
        let displacing_crashes =
            out.recovery.time_to_restore.len() + out.recovery.unrestored_crashes;
        assert!(displacing_crashes > 0);
        // Any restored crash on this starved farm took at least one step.
        assert!(out.recovery.time_to_restore.iter().all(|&t| t > 0));
    }

    #[test]
    fn degraded_admission_spills_into_overflow_margin_and_tags_violations() {
        // Two PMs at 70/100 observed with always-ON tenants. A crash of
        // one PM displaces two 35-demand VMs; the survivor admits one only
        // through the ε = 0.1 margin (70 + 35 = 105 ≤ 110), the other is
        // queued until the crashed PM returns.
        let vms: Vec<VmSpec> = (0..4).map(|i| pinned_on(i, 35.0, 0.0)).collect();
        let pms = farm(2, 100.0);
        let placement = Placement {
            assignment: vec![Some(0), Some(0), Some(1), Some(1)],
            n_pms: 2,
        };
        let policy = ObservedPolicy::rb();
        let mut found = None;
        for fault_seed in 0..300 {
            let cfg = SimConfig {
                faults: Some(FaultConfig {
                    mtbf_steps: 60.0,
                    mttr_steps: 12.0,
                    seed: fault_seed,
                    ..Default::default()
                }),
                ..config(200, 3, false)
            };
            let out = Simulator::new(&vms, &pms, &policy, cfg).run(&placement);
            if out.recovery.degraded_admissions > 0 && out.recovery.degraded_violation_steps > 0 {
                found = Some(out);
                break;
            }
        }
        let out = found.expect("some fault seed must exercise the degraded margin");
        assert!(out
            .evacuations
            .iter()
            .any(|e| e.degraded && e.to_pm.is_some()));
        // Degraded exposure is reported separately from burstiness.
        assert!(out.recovery.degraded_violation_steps <= out.total_violation_steps);
        assert_eq!(
            out.burstiness_violation_steps() + out.recovery.degraded_violation_steps,
            out.total_violation_steps
        );
    }

    #[test]
    fn pending_overload_migrant_lands_on_later_freed_pm_via_retry_queue() {
        // PM 0 hosts a permanent 60-demand tenant plus a burster that
        // overloads it; PM 1 hosts an oscillating tenant that sometimes
        // leaves room. The trigger only re-attempts while PM 0 is
        // *currently* violating; the retry queue re-attempts on its own
        // backoff schedule and lands the migrant on PM 1 once it frees up.
        let vms = vec![
            pinned_on(0, 30.0, 30.0),               // B: ON forever, demand 60
            VmSpec::new(1, 0.05, 0.15, 5.0, 40.0),  // A: bursty trigger, 5→45
            VmSpec::new(2, 0.30, 0.05, 30.0, 30.0), // C: PM 1 occupant, 30→60
        ];
        let pms = farm(2, 100.0);
        let placement = Placement {
            assignment: vec![Some(0), Some(0), Some(1)],
            n_pms: 2,
        };
        let policy = ObservedPolicy::rb();
        let mut witnessed = false;
        for seed in 0..1000 {
            let cfg = SimConfig {
                steps: 120,
                seed,
                ..Default::default()
            };
            let with = Simulator::new(&vms, &pms, &policy, cfg).run(&placement);
            if with.failed_migrations == 0 || with.total_migrations() == 0 {
                continue; // the trigger never failed, or nothing ever moved
            }
            if with.retried_migrations < with.total_migrations() {
                continue; // the trigger itself moved a VM
            }
            // The retry queue — and only it — placed the migrant, onto the
            // later-freed PM 1.
            assert!(with.retried_migrations > 0, "seed {seed}");
            assert_eq!(with.migrations[0].to_pm, 1, "seed {seed}");
            assert_eq!(with.migrations[0].from_pm, 0, "seed {seed}");
            witnessed = true;
            break;
        }
        assert!(
            witnessed,
            "no seed in 0..1000 moved VMs through the retry queue alone"
        );
    }

    #[test]
    fn repeated_failed_migrations_never_duplicate_retry_entries() {
        // A single overcommitted PM with no escape target: the trigger
        // fails a migration on (nearly) every violating step, each
        // failure tries to enqueue the victim, and retries themselves
        // keep failing and re-enqueueing until the budget runs out. The
        // `debug_assert` in `FaultState::enqueue_retry` cross-checks the
        // `in_retry` flag against an actual queue scan on every push, so
        // this run is the regression proof that the O(1) flag never lets
        // a VM hold two entries.
        let vms: Vec<VmSpec> = (0..10).map(|i| vm(i, 10.0, 10.0)).collect();
        let pms = farm(1, 80.0);
        let placement = Placement {
            assignment: vec![Some(0); 10],
            n_pms: 1,
        };
        let policy = ObservedPolicy::rb();
        let cfg = config(3_000, 11, true);
        let out = Simulator::new(&vms, &pms, &policy, cfg).run(&placement);
        assert!(
            out.failed_migrations > 100,
            "scenario must exercise the dedup path heavily, got {}",
            out.failed_migrations
        );
        assert_eq!(out.total_migrations(), 0);
    }

    #[test]
    fn indexed_target_selection_matches_linear_scan() {
        use crate::policy::PeakPolicy;
        let rb = ObservedPolicy::rb();
        let rb_ex = ObservedPolicy::rb_ex();
        let queue = QueuePolicy::new(QueueStrategy::build(16, 0.02, 0.08, 0.01));
        let policies: [&dyn RuntimePolicy; 4] = [&queue, &PeakPolicy::default(), &rb, &rb_ex];

        // Static sweep. Heterogeneous pool: varying capacities,
        // occupancy, up/down state, plus source exclusion — swept across
        // the policies and every VM as the migrant. The indexed path
        // must agree with the linear oracle exactly, per the
        // RuntimePolicy headroom contract.
        let vms: Vec<VmSpec> = (0..40)
            .map(|i| {
                VmSpec::new(
                    i,
                    0.02 + (i % 5) as f64 * 0.015,
                    0.08,
                    6.0 + (i % 4) as f64,
                    9.0,
                )
            })
            .collect();
        let pms: Vec<PmSpec> = (0..24)
            .map(|j| PmSpec::new(j, 40.0 + (j % 7) as f64 * 12.0))
            .collect();
        let mut hosted: Vec<Vec<usize>> = vec![Vec::new(); pms.len()];
        for (i, vm) in vms.iter().enumerate() {
            // Pack unevenly and leave PMs 5, 11, 17, 23 empty.
            let j = (i * 7 + i / 3) % pms.len();
            let j = if j % 6 == 5 { (j + 1) % pms.len() } else { j };
            hosted[j].push(vm.id);
        }
        let loads: Vec<PmLoad> = hosted
            .iter()
            .map(|vs| PmLoad::rebuild(vs.iter().map(|&i| &vms[i])))
            .collect();
        let observed: Vec<f64> = hosted
            .iter()
            .map(|vs| vs.iter().map(|&i| vms[i].demand(i % 2 == 0)).sum())
            .collect();
        let pm_up: Vec<bool> = (0..pms.len()).map(|j| j % 9 != 4).collect();
        for (p, policy) in policies.iter().enumerate() {
            let sim = Simulator::new(&vms, &pms, *policy, config(10, 1, true));
            // One finder across the whole sweep: nothing moves, so a
            // kept index must keep answering like the oracle.
            let mut finder = None;
            for (i, vm) in vms.iter().enumerate() {
                for source in [0usize, 7, 23] {
                    for &on in &[false, true] {
                        let demand = vm.demand(on);
                        let fast = sim.pick_target(
                            &mut finder,
                            0,
                            source,
                            vm,
                            demand,
                            &loads,
                            &observed,
                            &pm_up,
                        );
                        let slow =
                            sim.pick_target_linear(source, vm, demand, &loads, &observed, &pm_up);
                        assert_eq!(fast, slow, "policy {p}, vm {i}, source {source}, on {on}");
                    }
                }
            }
        }

        // Kept index under a moving fleet. Full engine runs on an
        // over-tight farm (RB-packed, four spare PMs), so the controller
        // migrates, runs out of targets, retries, and — with faults on —
        // crashes, recovers and evacuates through the degraded margin,
        // under both the shared-stream and the class-counter cores. In this
        // build every `pick_target` call asserts that its answer equals
        // the linear scan's and that the kept leaves equal a fresh
        // build's, so the runs finishing is the proof; the tallies below
        // only certify that each kind of index-mutating event happened.
        let vms: Vec<VmSpec> = (0..72)
            .map(|i| VmSpec::new(i, 0.02, 0.08, 7.0 + (i % 4) as f64 * 2.0, 9.0))
            .collect();
        let pms = farm(12, 100.0);
        let placement = first_fit(&vms, &pms, &BaseStrategy).unwrap();
        assert!(placement.pms_used() + 4 <= pms.len());
        #[derive(Default, Debug)]
        struct Tally {
            migrations: usize,
            failed: usize,
            retried: usize,
            crashes: usize,
            recoveries: usize,
            evacuated: usize,
            degraded: usize,
        }
        for policy in policies {
            let mut tally = Tally::default();
            for layout in [RngLayout::Shared, RngLayout::ClassAggregated] {
                for faults in [false, true] {
                    let cfg = SimConfig {
                        rng_layout: layout,
                        faults: faults.then_some(FaultConfig {
                            mtbf_steps: 60.0,
                            mttr_steps: 10.0,
                            ..Default::default()
                        }),
                        ..config(400, 17, true)
                    };
                    let out = Simulator::new(&vms, &pms, policy, cfg).run(&placement);
                    tally.migrations += out.total_migrations();
                    tally.failed += out.failed_migrations;
                    tally.retried += out.retried_migrations;
                    tally.crashes += out.recovery.crashes;
                    tally.recoveries += out.recovery.recoveries;
                    tally.evacuated += out.evacuations.iter().filter(|e| e.to_pm.is_some()).count();
                    tally.degraded += out.recovery.degraded_admissions;
                    if !faults {
                        assert_eq!(out.recovery, RecoveryStats::default());
                    }
                }
            }
            let name = policy.name();
            assert!(tally.migrations > 0, "{name}: {tally:?}");
            assert!(tally.failed > 0, "{name}: {tally:?}");
            assert!(tally.retried > 0, "{name}: {tally:?}");
            assert!(
                tally.crashes > 0 && tally.recoveries > 0,
                "{name}: {tally:?}"
            );
            assert!(tally.evacuated > 0, "{name}: {tally:?}");
            assert!(tally.degraded > 0, "{name}: {tally:?}");
        }
    }

    // ---- ledger sites no other test reaches ----

    /// What the ledger tests pin: `(migrations, energy bits, violation
    /// steps, crc64 over cvr_per_pm and vm_violation_steps)`.
    fn outcome_pin(out: &SimOutcome) -> (usize, u64, usize, u64) {
        let mut bytes = Vec::new();
        for &(j, cvr) in &out.cvr_per_pm {
            bytes.extend_from_slice(&(j as u64).to_le_bytes());
            bytes.extend_from_slice(&cvr.to_bits().to_le_bytes());
        }
        for &v in &out.vm_violation_steps {
            bytes.extend_from_slice(&(v as u64).to_le_bytes());
        }
        (
            out.total_migrations(),
            out.energy_joules.to_bits(),
            out.total_violation_steps,
            bursty_obs::durable::crc64(&bytes),
        )
    }

    /// `(step, from, to)` of every migration, in order.
    fn moves(out: &SimOutcome) -> Vec<(usize, usize, usize)> {
        out.migrations
            .iter()
            .map(|e| (e.step, e.from_pm, e.to_pm))
            .collect()
    }

    /// Five bursty tenants that fill a 100-capacity PM to 90–100: never
    /// over, never admitting a migrant, but flipping all the time, so
    /// the runs below carry energy terms that move.
    fn fillers(first_id: usize) -> Vec<VmSpec> {
        (first_id..first_id + 5)
            .map(|i| VmSpec::new(i, 0.1, 0.3, 18.0, 2.0))
            .collect()
    }

    const LAYOUTS: [RngLayout; 2] = [RngLayout::Shared, RngLayout::ClassAggregated];

    #[test]
    fn a_pm_emptied_by_migration_and_refilled_keeps_its_cvr_denominator() {
        // PM 0's only tenant overloads it alone (120 on 100); PM 2 is two
        // tenants over (140 on 100). Both run out of allowance at step 5:
        // PM 0 sheds its tenant to the empty PM 1 (capacity 140) and is
        // empty itself, PM 2 tops PM 1 up to 140; at step 6 PM 2 sheds
        // again, no active PM admits, and the first empty one is PM 0.
        // PM 0 was active for passes 0–5 and from pass 7 on: its six
        // violations are over 29 active steps of 30, not 30 and not 23.
        let mut vms = vec![pinned_on(0, 50.0, 70.0)];
        vms.extend((1..8).map(|i| pinned_on(i, 10.0, 10.0)));
        vms.extend(fillers(8));
        vms.extend(fillers(13));
        let pms: Vec<PmSpec> = [100.0, 140.0, 100.0, 100.0, 100.0]
            .into_iter()
            .enumerate()
            .map(|(j, cap)| PmSpec::new(j, cap))
            .collect();
        let placement = Placement {
            assignment: (0..18)
                .map(|i| {
                    Some(match i {
                        0 => 0,
                        1..=7 => 2,
                        _ => 3 + (i - 8) / 5,
                    })
                })
                .collect(),
            n_pms: 5,
        };
        let policy = ObservedPolicy::rb();
        for (layout, pin) in LAYOUTS.into_iter().zip(REFILL_PINS) {
            let cfg = SimConfig {
                rng_layout: layout,
                ..config(30, 3, true)
            };
            let out = Simulator::new(&vms, &pms, &policy, cfg).run(&placement);
            assert_eq!(moves(&out), [(5, 0, 1), (5, 2, 1), (6, 2, 0)], "{layout:?}");
            assert_eq!(out.cvr_per_pm[0], (0, 6.0 / 29.0), "{layout:?}");
            assert_eq!(outcome_pin(&out), pin, "{layout:?}");
        }
    }

    /// The run above per layout: the shared one at the commit before
    /// the ledger, the class one since its next-event kernel.
    const REFILL_PINS: [(usize, u64, usize, u64); 2] = [
        (3, 4696924420420141056, 13, 9817093670488479483),
        (3, 4696917720271159296, 13, 9817093670488479483),
    ];

    #[test]
    fn crash_limbo_landing_and_recovery_keep_the_ledger_exact() {
        // Three PMs, each two thirds full of bursty tenants, crashing
        // every ~40 steps: a crash empties a PM (credit its active steps,
        // drop it from the over set), its tenants land at once or wait in
        // limbo, still evolving, until a survivor has room or the PM
        // recovers and refills.
        let vms: Vec<VmSpec> = (0..9)
            .map(|i| VmSpec::new(i, 0.2, 0.3, 15.0, 20.0))
            .collect();
        let pms = farm(3, 100.0);
        let placement = Placement {
            assignment: (0..9).map(|i| Some(i / 3)).collect(),
            n_pms: 3,
        };
        let policy = ObservedPolicy::rb();
        for (layout, pin) in LAYOUTS.into_iter().zip(FAULT_PINS) {
            let cfg = SimConfig {
                rng_layout: layout,
                faults: Some(FaultConfig {
                    mtbf_steps: 40.0,
                    mttr_steps: 10.0,
                    seed: FAULT_SEED,
                    ..Default::default()
                }),
                ..config(300, 3, true)
            };
            let out = Simulator::new(&vms, &pms, &policy, cfg).run(&placement);
            let queued = out.evacuations.iter().filter(|e| e.to_pm.is_none()).count();
            let landed_late = out
                .evacuations
                .iter()
                .filter(|e| e.to_pm.is_some())
                .filter(|e| {
                    out.evacuations
                        .iter()
                        .any(|q| q.vm_id == e.vm_id && q.to_pm.is_none() && q.step < e.step)
                })
                .count();
            assert!(out.recovery.crashes > 0, "{layout:?}");
            assert!(out.recovery.recoveries > 0, "{layout:?}");
            assert!(
                queued > 0 && landed_late > 0,
                "{layout:?}: {queued}, {landed_late}"
            );
            assert!(out.recovery.stranded_vm_steps > 0, "{layout:?}");
            assert!(out.total_migrations() > 0, "{layout:?}");
            assert_eq!(
                (outcome_pin(&out), out.recovery.stranded_vm_steps),
                pin,
                "{layout:?}"
            );
        }
    }

    const FAULT_SEED: u64 = 0;
    /// The run above, per layout, with its stranded VM-steps: the shared
    /// one computed at the commit before the degraded margin became a
    /// constant, with that margin set to the constant's 0.1; the class
    /// one since its next-event kernel.
    const FAULT_PINS: [((usize, u64, usize, u64), usize); 2] = [
        ((59, 4706795202306637824, 132, 991737271586783062), 191),
        ((56, 4706813563291828224, 145, 7625000903114606326), 172),
    ];
}
