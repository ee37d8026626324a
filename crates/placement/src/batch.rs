//! Class-collapsed batch First Fit: the million-VM fast path.
//!
//! Production fleets are built from a handful of instance types, so the
//! placement order produced by any of the paper's strategies consists of
//! long *runs* of bit-identical VMs ([`bursty_workload::class_runs`]). The
//! per-VM packer ([`crate::pack::first_fit`]) pays an index probe and an
//! `O(log m)` index update for every VM; [`first_fit_batch`] pays them once
//! per *(run, PM)* pair instead, computing the largest admissible copy
//! count on each candidate PM in one shot.
//!
//! On the fast path the packer never materializes a per-VM order at all:
//! one linear pass collapses the fleet into a class table
//! ([`MAX_TRACKED_CLASSES`] distinct specs at most — beyond that the
//! collapsing cannot pay and the packer falls back to the strategy's own
//! sort), the *classes* are sorted by the strategy's
//! [`Strategy::class_order_keys`] (`k log k` work for `k` classes instead
//! of `n log n` for `n` VMs), whole classes are placed as single runs
//! recording `(PM, copies)` fill segments, and a final linear pass scatters
//! the per-VM assignments straight from those segments.
//!
//! # What a decision costs
//!
//! One class pass plus work proportional to the fills. The class pass
//! ([`collapse_classes`], on [`bursty_workload::intern_classes`]) is a scan
//! of a small key table per VM — no hashing up to the tracked-class cap —
//! and it is the only time the fleet is read for its classes:
//! [`first_fit_auto_recorded`], the entry point behind
//! `Consolidator::place`, reads the batch-or-per-VM rule (`2·k ≤ n`) off
//! the same table it then packs from. Every fill then needs the next
//! admitting PM, and the run placer — [`place_run`], the one First Fit
//! over class runs, which `OnlineCluster`'s batch arrival runs too — asks
//! the shared lazy search, [`HeadroomIndex::first_admitting`], which looks
//! before it climbs: it reads a bounded window of the flat headroom array
//! and falls back to the lazily maintained segment tree only for a gap
//! longer than the window, so on a consolidation-dense fleet (the 1M-VM
//! Table-I fleet on 250k PMs: 419 091 fills, longest gap under 32 PMs)
//! the tree is never built. [`PlacementState::last_pack`] reports the
//! split — collapse, reset, runs, scatter, tree climbs — and
//! `BENCH_packing.json` holds it for the measured fleets.
//!
//! # Why the results are byte-identical to `first_fit`
//!
//! Within a run every VM has the same spec, so the per-VM packer's
//! decisions have a rigid structure the batch packer replays wholesale:
//!
//! * Once a candidate PM rejects one copy, it rejects every later copy of
//!   the run — its load only changes when *we* add copies, and a PM we
//!   filled was filled to its maximum (the next copy was rejected under
//!   its final load). PMs the probe skipped are provably infeasible by the
//!   headroom contract. Hence the per-VM First-Fit slot for the next copy
//!   is always at or after the current PM, and scanning candidates with a
//!   monotonically advancing `from` cursor visits exactly the per-VM
//!   slots.
//! * On one PM, the largest admissible copy count is found by [`admit_run`]
//!   with the *same arithmetic* the per-VM packer uses at the decision
//!   boundary (an exact per-copy `admits` fold), so the count — and the
//!   final stored [`PmLoad`] — match the per-VM fold bit for bit.
//! * The class schedule reproduces the strategy's *stable* sort: classes
//!   are emitted in descending key order and, within one class, VMs keep
//!   their original indices (exactly what a stable sort does with equal
//!   keys). Two *distinct* classes sharing an exact sort key would have
//!   their members interleaved by a stable sort, which fill segments
//!   cannot express — [`class_schedule`] detects that (rare, bit-equal
//!   keys across different specs) and the packer falls back to the
//!   strategy's own sort rather than risk a divergence.
//!
//! # The ulp gap between closed-form and folded sums
//!
//! [`PmLoad::with_copies`] computes `Σ + c·x`, which can differ from `c`
//! repeated additions by a few ulps — enough to flip an admission at the
//! boundary. [`admit_run`] therefore uses the closed form only under a
//! safety margin ([`BATCH_SLACK`]) to *bracket* the answer (binary search
//! over the monotone Eq. 17 left-hand side), replays that many exact
//! `add`s unchecked — justified by a worst-case rounding-drift bound
//! checked at runtime, with a fall back to a fully checked fold when the
//! bound is not met — and then extends copy by copy with the exact per-VM
//! `admits` check until the true boundary. Closed form for speed, exact
//! fold for the decision: never a diverging placement.

use crate::index::HeadroomIndex;
use crate::load::PmLoad;
use crate::pack::{first_fit_recorded, PackError, PRUNE_SLACK};
use crate::placement::Placement;
use crate::strategy::Strategy;
use bursty_obs::{Counter, Gauge, NoopRecorder, Recorder};
use bursty_workload::{
    class_runs, distinct_classes, intern_classes, ClassRun, PmSpec, VmClass, VmSpec,
};
use std::time::Instant;

/// Safety margin for the closed-form feasibility probe: the binary-search
/// bracket tests `feasible(with_copies(c), capacity − BATCH_SLACK)`, so a
/// copy count the bracket accepts is feasible under the *exact* fold too
/// (the fold differs from the closed form by far less than this margin —
/// enforced by a runtime drift bound). Bracketing slightly low costs a few
/// extra exact checks at the boundary; bracketing high would change
/// results, and cannot happen.
const BATCH_SLACK: f64 = 1e-6;

/// Reusable arena for batch packing: per-PM load accounting in
/// structure-of-arrays form plus the headroom index, all kept between
/// packs so repeated consolidations over same-sized farms allocate
/// nothing after the first.
///
/// Two tricks keep the reset cost of a million-PM farm off the packing
/// critical path:
///
/// * The load arrays are *generation-tagged* rather than zeroed: a reset
///   bumps `generation`, and the arena's `load` treats any PM whose
///   `epoch` tag is older as empty. Only the headroom leaves (the array
///   the First-Fit cursor reads) are rewritten per pack.
/// * The headroom tree is maintained *lazily*, behind a bounded
///   look-ahead — the index's own lazy mode (see [`crate::index`]): a
///   reset loads the leaves and builds nothing, the run placer's `set`
///   marks what a fill writes, and the one candidate search is
///   [`HeadroomIndex::first_admitting`]. The tree is built the first time
///   a gap outgrows the window and not before: a pack whose gaps all fit
///   — the paper-density and all-duplicate fleets of `BENCH_packing.json`
///   — never builds it, and what the final run marked is never flushed
///   (the next reset discards it).
#[derive(Debug)]
pub struct PlacementState {
    generation: u32,
    epoch: Vec<u32>,
    vm_count: Vec<usize>,
    max_re: Vec<f64>,
    sum_rb: Vec<f64>,
    sum_rp: Vec<f64>,
    index: HeadroomIndex,
    /// The `(PM, copies)` fills the current pack's runs committed.
    fills: Vec<(u32, u32)>,
    profile: PackProfile,
}

/// Where the last pack on a [`PlacementState`] spent its time — the
/// per-phase attribution `packing_bench` writes to `BENCH_packing.json`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PackProfile {
    /// The class pass over the fleet; off the collapsed path also the
    /// strategy's own sort and its run-length encoding.
    pub collapse_s: f64,
    /// Resetting the arena to the empty farm.
    pub reset_s: f64,
    /// Placing the runs: candidate searches, admissions, stores.
    pub runs_s: f64,
    /// Scattering per-VM assignments from the fill segments (zero off the
    /// collapsed path, which assigns while it places).
    pub scatter_s: f64,
    /// Candidate searches that had to climb the headroom tree: the whole
    /// look-ahead window rejected and the farm went on past it.
    pub tree_probes: u64,
}

impl PlacementState {
    /// An empty arena; capacity grows on first use.
    pub fn new() -> Self {
        Self {
            generation: 0,
            epoch: Vec::new(),
            vm_count: Vec::new(),
            max_re: Vec::new(),
            sum_rb: Vec::new(),
            sum_rp: Vec::new(),
            index: HeadroomIndex::new(&[]),
            fills: Vec::new(),
            profile: PackProfile::default(),
        }
    }

    /// Resets the arena to an empty farm of `pms` under `strategy`.
    fn reset<S: Strategy + ?Sized>(&mut self, pms: &[PmSpec], strategy: &S) {
        let m = pms.len();
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // Generation wrap (once per 2³² resets): hard-clear the tags
            // so no stale entry can collide with the restarted counter.
            self.epoch.clear();
            self.generation = 1;
        }
        if self.epoch.len() < m {
            self.epoch.resize(m, 0);
            self.vm_count.resize(m, 0);
            self.max_re.resize(m, 0.0);
            self.sum_rb.resize(m, 0.0);
            self.sum_rp.resize(m, 0.0);
        }
        self.index
            .reset_lazy(|leaves| strategy.empty_headrooms(pms, leaves));
        self.fills.clear();
    }

    /// The phase times and tree climbs of the last pack on this arena.
    pub fn last_pack(&self) -> PackProfile {
        PackProfile {
            tree_probes: self.index.probes(),
            ..self.profile
        }
    }
}

impl Default for PlacementState {
    fn default() -> Self {
        Self::new()
    }
}

impl RunPool for PlacementState {
    fn index(&mut self) -> &mut HeadroomIndex {
        &mut self.index
    }

    /// The load of PM `j`, materialized from the arrays. The offline
    /// strategies price every PM with one table and never read
    /// [`PmLoad::max_pi`], so the arena keeps no array for it (nor a
    /// field in its image): its loads report 0 there.
    fn load(&self, j: usize) -> PmLoad {
        if self.epoch[j] != self.generation {
            return PmLoad::empty();
        }
        PmLoad {
            count: self.vm_count[j],
            max_re: self.max_re[j],
            sum_rb: self.sum_rb[j],
            sum_rp: self.sum_rp[j],
            max_pi: 0.0,
        }
    }

    fn commit(&mut self, j: usize, load: PmLoad, copies: usize) {
        self.epoch[j] = self.generation;
        self.vm_count[j] = load.count;
        self.max_re[j] = load.max_re;
        self.sum_rb[j] = load.sum_rb;
        self.sum_rp[j] = load.sum_rp;
        self.fills.push((j as u32, copies as u32));
    }
}

/// The largest number of copies of `vm` (up to `want`) admissible on a PM
/// carrying `load` under `capacity`, together with the resulting load —
/// computed by the *exact* incremental fold at the decision boundary, so
/// both the count and the returned load are bit-identical to `want`
/// capped repetitions of the per-VM `admits`-then-`add` sequence.
///
/// Fast path: a binary search over the closed-form
/// [`PmLoad::with_copies`] probe under [`BATCH_SLACK`] margin brackets the
/// answer in `O(log want)` feasibility tests — valid because every
/// quantity in each strategy's feasibility predicate (`Σ R_b`, `Σ R_p`,
/// `max R_e`, `mapping(count)`) is nondecreasing in the copy count. The
/// bracketed copies are then replayed as unchecked exact `add`s: margin
/// feasibility of the closed form plus a worst-case rounding-drift bound
/// (checked at runtime; on failure the fold runs fully checked) implies
/// exact feasibility of the folded load at the bracket, and since the
/// fold's sums are nondecreasing copy over copy, every intermediate
/// admission the per-VM packer would have tested holds as well.
///
/// `hint` seeds the bracket search (0 = no guess). Consecutive PMs in one
/// run admit near-identical copy counts (capacities are similar, loads
/// evolve in lockstep), so the previous PM's count usually pins the
/// bracket in two probes instead of `O(log admitted)`. The hint only
/// steers *where* the monotone predicate is probed — the bracket it
/// converges to, and hence the placement, is identical for every hint.
///
/// `chain` is the run's memo of exact folds from an empty load: `chain[c]`
/// is the `c`-fold of `vm` from `PmLoad::empty()`, grown on demand (one
/// chain per run, empty at first). An empty seed reads its folds from it
/// instead of re-folding per PM — the identical serial `add` sequence, so
/// a run over a farm of empty PMs folds each copy count once, and every
/// count and load stays bit-identical to the fold.
fn admit_run<S: Strategy + ?Sized>(
    load: PmLoad,
    vm: &VmSpec,
    capacity: f64,
    want: usize,
    hint: usize,
    chain: &mut Vec<PmLoad>,
    strategy: &S,
) -> (PmLoad, usize) {
    debug_assert!(want > 0);
    if want == 1 {
        // Single copy: the bracket machinery cannot beat one exact check.
        return if strategy.admits(&load, vm, capacity) {
            (load.with(vm), 1)
        } else {
            (load, 0)
        };
    }

    // Phase 1: bracket the copy count with the margin-tightened closed
    // form. `lo` is feasible under the margin (or 0); `lo + 1` may or may
    // not be admissible exactly — phase 2 decides. Galloping out from the
    // hint keeps the probe count at O(log |admitted − hint|) rather than
    // O(log want): a run can span most of the fleet while a single PM
    // admits only a handful of copies.
    let feasible = |c: usize| strategy.feasible(&load.with_copies(vm, c), capacity - BATCH_SLACK);
    let start = hint.clamp(1, want);
    let (mut lo, mut hi) = (0, start - 1);
    if feasible(start) {
        (lo, hi) = (start, want);
        let mut step = 1;
        while lo < hi {
            let p = (lo + step).min(want);
            if !feasible(p) {
                hi = p - 1;
                break;
            }
            lo = p;
            step *= 2;
        }
    }
    while lo < hi {
        let mid = lo + (hi - lo).div_ceil(2);
        if feasible(mid) {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }

    // Trust the bracket only when the worst-case drift between the closed
    // form and the exact fold is provably below the margin (each of the
    // `lo` folded additions and the closed form's two operations round
    // once, against partial sums bounded by `scale`), and the monotone
    // replay argument applies (nonnegative demands).
    let scale = load.sum_rb.abs() + load.sum_rp.abs() + lo as f64 * (vm.r_b.abs() + vm.r_p().abs());
    let drift = 4.0 * (lo as f64 + 2.0) * f64::EPSILON * scale;
    let trusted = drift < BATCH_SLACK && vm.r_b >= 0.0 && vm.r_e >= 0.0;
    let skip = if trusted { lo } else { 0 };

    // Phase 2: the exact fold — read from the memo chain on an empty
    // seed, by `add` otherwise. The first `skip` copies are admitted
    // without re-testing; past the bracket every copy runs the same
    // `admits` arithmetic the per-VM packer runs.
    let memo = load.is_empty();
    let mut current = load;
    if memo {
        current = chain_fold(chain, vm, skip);
    } else {
        current.add_copies(vm, skip);
    }
    debug_assert!(
        skip == 0 || strategy.feasible(&current, capacity),
        "margin-bracketed load must be exactly feasible"
    );
    let mut placed = skip;
    while placed < want && strategy.admits(&current, vm, capacity) {
        placed += 1;
        if memo {
            current = chain_fold(chain, vm, placed);
        } else {
            current.add(vm);
        }
    }
    (current, placed)
}

/// `chain[c]`, the exact `c`-fold of `vm` from an empty load, extending
/// the chain (seeded with the empty load) as far as `c`.
fn chain_fold(chain: &mut Vec<PmLoad>, vm: &VmSpec, c: usize) -> PmLoad {
    while chain.len() <= c {
        let next = chain.last().map_or(PmLoad::empty(), |last| last.with(vm));
        chain.push(next);
    }
    chain[c]
}

/// The PMs a class run is placed on, as [`place_run`] sees them: the
/// headroom index it searches and sets, each PM's load, and where a fill
/// goes. The offline arena ([`PlacementState`]) and `OnlineCluster`
/// implement it.
pub(crate) trait RunPool {
    /// The headroom index over the pool, searched and set lazily.
    fn index(&mut self) -> &mut HeadroomIndex;
    /// PM `j`'s current load.
    fn load(&self, j: usize) -> PmLoad;
    /// Commits a fill: `copies` more of the run on PM `j`, whose load is
    /// now `load`. The pool keeps the `(PM, copies)` fills of the run in
    /// PM order for its caller.
    fn commit(&mut self, j: usize, load: PmLoad, copies: usize);
}

/// First Fit for one class run, and the one place that algorithm lives:
/// both offline routes and `OnlineCluster`'s batch arrival call it.
/// Places up to `want` copies of `vm` on `pool`, committing each fill to
/// it, and returns the copies placed — fewer than `want` means no PM
/// admits the next one.
///
/// Each fill goes to the lowest PM at or after the cursor that admits a
/// copy ([`HeadroomIndex::first_admitting`] under the `demand −
/// PRUNE_SLACK` threshold), with as many copies as [`admit_run`] finds
/// room for, its count hinting the next PM's. The cursor only advances:
/// every PM behind it rejected this class under a load that does not
/// change while the run is placed (loads only grow, and a filled PM was
/// filled to its maximum), so a per-VM First Fit could place no later
/// copy there either. Each candidate PM counts one
/// [`Counter::PackProbes`], each that admits nothing one
/// [`Counter::PackRejectedProbes`].
#[inline]
pub(crate) fn place_run<P: RunPool, S: Strategy + ?Sized, R: Recorder>(
    pool: &mut P,
    pms: &[PmSpec],
    strategy: &S,
    vm: &VmSpec,
    want: usize,
    rec: &mut R,
) -> usize {
    let threshold = strategy.demand(vm) - PRUNE_SLACK;
    let mut chain = Vec::new();
    let (mut placed, mut hint, mut from) = (0, 0, 0);
    while placed < want {
        let Some(j) = pool.index().first_admitting(from, threshold) else {
            break;
        };
        rec.counter_inc(Counter::PackProbes);
        let (seed, cap) = (pool.load(j), pms[j].capacity);
        let (load, c) = admit_run(seed, vm, cap, want - placed, hint, &mut chain, strategy);
        if c > 0 {
            pool.commit(j, load, c);
            pool.index().set(j, strategy.headroom(&load, cap));
            placed += c;
            hint = c;
        } else {
            rec.counter_inc(Counter::PackRejectedProbes);
        }
        from = j + 1;
    }
    placed
}

/// Hands `host` each placed member of a run, in order, with the PM its
/// fill put it on.
pub(crate) fn fill_hosts(
    fills: &[(u32, u32)],
    members: &[usize],
    mut host: impl FnMut(usize, usize),
) {
    let mut rest = members;
    for &(j, c) in fills {
        let (filled, tail) = rest.split_at(c as usize);
        for &i in filled {
            host(i, j as usize);
        }
        rest = tail;
    }
}

/// Cap on the distinct classes the collapsing pass tracks before falling
/// back to the strategy's comparison sort. Production fleets have tens of
/// instance types; a fleet with more distinct classes than this gains
/// little from collapsing anyway, and up to here the shared interner
/// ([`intern_classes`]) never hashes.
const MAX_TRACKED_CLASSES: usize = 96;

/// A fleet collapsed to its distinct classes: one representative spec per
/// class (the first occurrence), per-class multiplicities, and the per-VM
/// class id — everything the fast path needs, gathered in one linear pass.
pub(crate) struct ClassTable {
    pub(crate) reps: Vec<VmSpec>,
    pub(crate) counts: Vec<u32>,
    pub(crate) kid: Vec<u32>,
}

/// Collapses `vms` into a [`ClassTable`], or `None` once more than
/// [`MAX_TRACKED_CLASSES`] distinct classes appear.
pub(crate) fn collapse_classes(vms: &[VmSpec]) -> Option<ClassTable> {
    let mut table = ClassTable {
        reps: Vec::new(),
        counts: Vec::new(),
        kid: Vec::with_capacity(vms.len()),
    };
    intern_classes(vms, MAX_TRACKED_CLASSES, |i, id| {
        if id as usize == table.reps.len() {
            table.reps.push(vms[i]);
            table.counts.push(0);
        }
        table.counts[id as usize] += 1;
        table.kid.push(id);
    })?;
    Some(table)
}

/// Class ids sorted by `(band descending, key descending)` — the order in
/// which whole classes are placed — or `None` when two *distinct* classes
/// share an exact `(band, key)`: a stable sort would interleave their
/// members by original index across class boundaries, which per-class
/// fill segments cannot express, so the caller falls back to the
/// strategy's own sort.
fn class_schedule(keys: &[(u32, f64)]) -> Option<Vec<u32>> {
    let mut by_key: Vec<u32> = (0..keys.len() as u32).collect();
    by_key.sort_by(|&a, &b| {
        let (band_a, key_a) = keys[a as usize];
        let (band_b, key_b) = keys[b as usize];
        band_b.cmp(&band_a).then(key_b.total_cmp(&key_a))
    });
    let tied = by_key.windows(2).any(|w| {
        let (band_a, key_a) = keys[w[0] as usize];
        let (band_b, key_b) = keys[w[1] as usize];
        band_a == band_b && key_a.to_bits() == key_b.to_bits()
    });
    (!tied).then_some(by_key)
}

/// The id of the `nth` (0-based) member of class `cid` in original fleet
/// order — error-path only, so the linear rescan is fine.
#[cold]
fn nth_member_id(vms: &[VmSpec], kid: &[u32], cid: u32, nth: usize) -> usize {
    let mut seen = 0usize;
    for (i, &k) in kid.iter().enumerate() {
        if k == cid {
            if seen == nth {
                return vms[i].id;
            }
            seen += 1;
        }
    }
    unreachable!("class {cid} has fewer than {nth} members")
}

/// Class-collapsed batch First Fit: places `vms` onto `pms` in the order
/// chosen by `strategy`, producing a placement **byte-identical** to
/// [`crate::pack::first_fit`] (the same `Result`, down to the error's
/// `vm_id`) — differentially property-tested below at 0%, 50% and 100%
/// duplicate ratios.
///
/// Cost on the fast path (at most [`MAX_TRACKED_CLASSES`] distinct
/// classes, per-class sort keys available, no cross-class key ties):
/// `O(n·k + k log k)` ordering and scatter plus `O(u·(log d + g))`
/// placement, where `u` counts (run, candidate PM) encounters — for a
/// fleet of `k` classes packing into `P` PMs, `u` is `O(k·P)` in the
/// worst case and `O(k + P)` typically — and `g` is the gap to the next
/// admitting PM, read from the flat headroom array up to the look-ahead
/// window and found by the tree (`O(log m)` plus its deferred
/// maintenance) beyond it. The per-VM packer pays `O(n log n)` ordering
/// and `n` index probes and updates instead; on duplicate-heavy fleets
/// (`k ≪ n`) the batch packer's index work vanishes and throughput is
/// dominated by the linear collapse and scatter passes. Off the fast path
/// it degrades to the strategy's own sort with per-run placement — never
/// worse than a small constant over per-VM packing.
///
/// # Errors
/// [`PackError`] naming the first VM (in placement order) that fits on no
/// PM; the partial placement is discarded, exactly as in `first_fit`.
pub fn first_fit_batch<S: Strategy + ?Sized>(
    vms: &[VmSpec],
    pms: &[PmSpec],
    strategy: &S,
) -> Result<Placement, PackError> {
    first_fit_batch_with(&mut PlacementState::new(), vms, pms, strategy)
}

/// [`first_fit_batch`] against a caller-held [`PlacementState`] arena —
/// repeated packs over same-sized farms reuse every allocation.
///
/// # Errors
/// [`PackError`] naming the first unplaceable VM.
pub fn first_fit_batch_with<S: Strategy + ?Sized>(
    state: &mut PlacementState,
    vms: &[VmSpec],
    pms: &[PmSpec],
    strategy: &S,
) -> Result<Placement, PackError> {
    let table = timed_collapse(state, vms);
    pack_collapsed_or_ordered(state, vms, pms, strategy, table)
}

/// First Fit through the packer the fleet's class census names: the
/// class-collapsed batch packer when the fleet collapses at least twofold
/// (`2·k ≤ n` for `k` distinct classes among `n` VMs), the per-VM packer
/// ([`first_fit_recorded`]) otherwise. Both produce byte-identical
/// placements, so the choice is only about speed.
///
/// The census *is* the batch packer's own class pass: the fleet is
/// collapsed once, the decision is read off that [`ClassTable`], and the
/// same table is handed on to the packer — a class-heavy fleet is read
/// once and never hashed. Only a fleet that overflows the tracked table
/// (more than [`MAX_TRACKED_CLASSES`] classes, where collapsing cannot
/// help) pays the hashed count, [`distinct_classes`], to settle the
/// rule.
///
/// On the batch path only aggregate facts are recorded, *after* the pack:
/// [`Counter::BatchPlacedVms`] (every VM, on success) and the
/// [`Gauge::PmsUsedAtPack`] gauge — nothing inside the run-placement hot
/// loop.
///
/// # Errors
/// [`PackError`] naming the first unplaceable VM.
pub fn first_fit_auto_recorded<R: Recorder>(
    vms: &[VmSpec],
    pms: &[PmSpec],
    strategy: &dyn Strategy,
    rec: &mut R,
) -> Result<Placement, PackError> {
    let mut state = PlacementState::new();
    let table = timed_collapse(&mut state, vms);
    let classes = match &table {
        Some(table) => table.reps.len(),
        None => distinct_classes(vms),
    };
    if 2 * classes > vms.len() {
        return first_fit_recorded(vms, pms, strategy, rec);
    }
    let placement = pack_collapsed_or_ordered(&mut state, vms, pms, strategy, table)?;
    rec.counter_add(Counter::BatchPlacedVms, vms.len() as u64);
    if R::ENABLED {
        rec.gauge_set(Gauge::PmsUsedAtPack, placement.pms_used() as f64);
    }
    Ok(placement)
}

/// Seconds since `*since`, which moves to now: one stopwatch lap of a
/// pack's [`PackProfile`].
fn lap(since: &mut Instant) -> f64 {
    let now = Instant::now();
    let secs = now.duration_since(*since).as_secs_f64();
    *since = now;
    secs
}

/// The class pass that opens a pack: restarts the arena's profile with
/// its time.
fn timed_collapse(state: &mut PlacementState, vms: &[VmSpec]) -> Option<ClassTable> {
    let mut clock = Instant::now();
    let table = collapse_classes(vms);
    state.profile = PackProfile {
        collapse_s: lap(&mut clock),
        ..PackProfile::default()
    };
    table
}

/// The collapsed route's class table and schedule, given the class pass
/// of `vms` — or `None`, which sends the batch to the ordered route (the
/// strategy's own order and its class runs): too many classes to track,
/// no per-class sort keys, or two distinct classes sharing a key. The
/// offline packer and `OnlineCluster` choose their route here.
fn collapsed_schedule<S: Strategy + ?Sized>(
    vms: &[VmSpec],
    strategy: &S,
    table: Option<ClassTable>,
) -> Option<(ClassTable, Vec<u32>)> {
    let table = table?;
    let keys = strategy.class_order_keys(vms.len(), &table.reps)?;
    let schedule = class_schedule(&keys)?;
    Some((table, schedule))
}

/// The ordered route's placement order: the strategy's own sort and its
/// class runs.
fn strategy_runs<S: Strategy + ?Sized>(
    vms: &[VmSpec],
    strategy: &S,
) -> (Vec<usize>, Vec<ClassRun>) {
    let order = strategy.order(vms);
    let runs = class_runs(vms, &order);
    (order, runs)
}

/// A batch's placement order as class runs, by the route
/// [`collapsed_schedule`] picks: on the collapsed route the class
/// schedule spelled out member by member — one run per class, members in
/// fleet order, as a stable sort keeps them — else [`strategy_runs`].
/// `OnlineCluster` places a batch arrival from it; the offline packer
/// scatters from its fills instead and never builds the order.
pub(crate) fn batch_runs<S: Strategy + ?Sized>(
    vms: &[VmSpec],
    strategy: &S,
) -> (Vec<usize>, Vec<ClassRun>) {
    let Some((table, schedule)) = collapsed_schedule(vms, strategy, collapse_classes(vms)) else {
        return strategy_runs(vms, strategy);
    };
    let mut next = vec![0usize; table.reps.len()];
    let mut runs = Vec::with_capacity(schedule.len());
    let mut start = 0;
    for &cid in &schedule {
        let c = cid as usize;
        let len = table.counts[c] as usize;
        next[c] = start;
        runs.push(ClassRun {
            class: VmClass::of(&table.reps[c]),
            start,
            len,
        });
        start += len;
    }
    let mut order = vec![0; vms.len()];
    for (i, &cid) in table.kid.iter().enumerate() {
        order[next[cid as usize]] = i;
        next[cid as usize] += 1;
    }
    (order, runs)
}

/// Packs `vms` given their class pass (`None`: too many classes to track):
/// whole classes as single runs when the strategy can order classes
/// without cross-class ties, the strategy's own per-VM order otherwise.
fn pack_collapsed_or_ordered<S: Strategy + ?Sized>(
    state: &mut PlacementState,
    vms: &[VmSpec],
    pms: &[PmSpec],
    strategy: &S,
    table: Option<ClassTable>,
) -> Result<Placement, PackError> {
    if let Some((table, schedule)) = collapsed_schedule(vms, strategy, table) {
        return batch_collapsed(state, vms, pms, strategy, &table, &schedule);
    }
    let mut clock = Instant::now();
    let (order, runs) = strategy_runs(vms, strategy);
    state.profile.collapse_s += lap(&mut clock);
    batch_ordered(state, vms, pms, strategy, &order, &runs)
}

/// The fast path: whole classes placed as single runs, per-VM assignments
/// scattered from the recorded `(PM, copies)` fill segments afterwards.
/// No per-VM order ever exists.
fn batch_collapsed<S: Strategy + ?Sized>(
    state: &mut PlacementState,
    vms: &[VmSpec],
    pms: &[PmSpec],
    strategy: &S,
    table: &ClassTable,
    schedule: &[u32],
) -> Result<Placement, PackError> {
    let mut clock = Instant::now();
    state.reset(pms, strategy);
    state.profile.reset_s = lap(&mut clock);
    let k = table.reps.len();
    // The fills accumulate across classes, each class's contiguous.
    let mut fill_start = vec![0u32; k];
    for &cid in schedule {
        let c = cid as usize;
        let (vm, want) = (&table.reps[c], table.counts[c] as usize);
        fill_start[c] = state.fills.len() as u32;
        let placed = place_run(state, pms, strategy, vm, want, &mut NoopRecorder);
        if placed < want {
            return Err(PackError {
                vm_id: nth_member_id(vms, &table.kid, cid, placed),
            });
        }
    }

    state.profile.runs_s = lap(&mut clock);

    // Scatter: VMs in original order consume their class's fill segments
    // front to back — within a class the stable sort keeps original
    // index order, so the i-th member takes the i-th filled slot.
    let mut assignment: Vec<Option<usize>> = Vec::with_capacity(vms.len());
    let mut next_seg = fill_start;
    let mut pm_cur = vec![0u32; k];
    let mut rem = vec![0u32; k];
    for &kidx in &table.kid {
        let c = kidx as usize;
        if rem[c] == 0 {
            let (pm, copies) = state.fills[next_seg[c] as usize];
            pm_cur[c] = pm;
            rem[c] = copies;
            next_seg[c] += 1;
        }
        assignment.push(Some(pm_cur[c] as usize));
        rem[c] -= 1;
    }
    state.profile.scatter_s = lap(&mut clock);
    Ok(Placement {
        assignment,
        n_pms: pms.len(),
    })
}

/// The general path: an explicit per-VM order and its class runs (either
/// from the strategy's own sort, or because cross-class key ties demand
/// the full stable-sort semantics).
fn batch_ordered<S: Strategy + ?Sized>(
    state: &mut PlacementState,
    vms: &[VmSpec],
    pms: &[PmSpec],
    strategy: &S,
    order: &[usize],
    runs: &[ClassRun],
) -> Result<Placement, PackError> {
    let mut clock = Instant::now();
    state.reset(pms, strategy);
    state.profile.reset_s = lap(&mut clock);
    let mut placement = Placement::empty(vms.len(), pms.len());
    for run in runs {
        let members = &order[run.start..run.start + run.len];
        state.fills.clear();
        let vm = &vms[members[0]];
        let placed = place_run(state, pms, strategy, vm, run.len, &mut NoopRecorder);
        fill_hosts(&state.fills, members, |i, j| {
            placement.assignment[i] = Some(j)
        });
        if placed < run.len {
            return Err(PackError {
                vm_id: vms[members[placed]].id,
            });
        }
    }
    state.profile.runs_s = lap(&mut clock);
    Ok(placement)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::LOOKAHEAD;
    use crate::pack::first_fit;
    use crate::strategy::{BaseStrategy, PeakStrategy, QueueStrategy, ReserveStrategy};

    fn vm(id: usize, r_b: f64, r_e: f64) -> VmSpec {
        VmSpec::new(id, 0.01, 0.09, r_b, r_e)
    }

    fn pms(caps: &[f64]) -> Vec<PmSpec> {
        caps.iter()
            .enumerate()
            .map(|(j, &c)| PmSpec::new(j, c))
            .collect()
    }

    fn all_strategies() -> (QueueStrategy, ReserveStrategy) {
        (
            QueueStrategy::build(16, 0.01, 0.09, 0.01),
            ReserveStrategy::new(0.3),
        )
    }

    /// Whether the orderless collapsed path would handle this fleet.
    fn fast_path_engages<S: Strategy + ?Sized>(vms: &[VmSpec], strategy: &S) -> bool {
        collapse_classes(vms)
            .and_then(|table| {
                let keys = strategy.class_order_keys(vms.len(), &table.reps)?;
                class_schedule(&keys)
            })
            .is_some()
    }

    #[test]
    fn admit_run_matches_repeated_admits() {
        let (q, rbex) = all_strategies();
        let strategies: [&dyn Strategy; 4] = [&q, &PeakStrategy, &BaseStrategy, &rbex];
        let template = vm(0, 7.0, 5.0);
        for s in strategies {
            for cap in [10.0, 33.0, 70.0, 100.0, 250.0] {
                for want in [1usize, 2, 5, 40] {
                    let mut refr = PmLoad::empty();
                    let mut count = 0;
                    while count < want && s.admits(&refr, &template, cap) {
                        refr.add(&template);
                        count += 1;
                    }
                    // Any hint — absent, exact, low, high, out of range —
                    // must land on the same count and load, bit for bit,
                    // whatever state the memo chain arrives in.
                    for hint in [0usize, 1, count, count + 1, want / 2, want, want + 9] {
                        for prefill in [0usize, 1, count + 1, want + 2] {
                            let mut chain = Vec::new();
                            if prefill > 0 {
                                chain_fold(&mut chain, &template, prefill - 1);
                            }
                            let (memo_load, memo_count) = admit_run(
                                PmLoad::empty(),
                                &template,
                                cap,
                                want,
                                hint,
                                &mut chain,
                                s,
                            );
                            assert_eq!(
                                (memo_count, memo_load),
                                (count, refr),
                                "{} cap={cap} want={want} hint={hint} prefill={prefill}",
                                s.name()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn admit_run_from_preloaded_pm() {
        let q = QueueStrategy::build(16, 0.01, 0.09, 0.01);
        let seed = PmLoad::rebuild(&[vm(90, 11.0, 9.0), vm(91, 4.0, 2.0)]);
        let template = vm(0, 6.0, 4.0);
        let mut chain = Vec::new();
        let (load, count) = admit_run(seed, &template, 95.0, 30, 4, &mut chain, &q);
        assert!(chain.is_empty(), "a loaded seed never reads the memo chain");
        let mut refr = seed;
        let mut expect = 0;
        while expect < 30 && q.admits(&refr, &template, 95.0) {
            refr.add(&template);
            expect += 1;
        }
        assert_eq!(count, expect);
        assert_eq!(load, refr);
    }

    #[test]
    fn batch_matches_per_vm_on_duplicate_heavy_fleet() {
        use bursty_workload::{FleetGenerator, WorkloadPattern};
        let (q, rbex) = all_strategies();
        let strategies: [&dyn Strategy; 4] = [&q, &PeakStrategy, &BaseStrategy, &rbex];
        let mut g = FleetGenerator::new(42);
        let vms = g.vms_table_i(600, WorkloadPattern::LargeSpike);
        let farm = g.pms(400);
        for s in strategies {
            assert!(
                fast_path_engages(&vms, s),
                "Table-I fleet must collapse for {}",
                s.name()
            );
            assert_eq!(
                first_fit_batch(&vms, &farm, s),
                first_fit(&vms, &farm, s),
                "batch diverged for {}",
                s.name()
            );
        }
    }

    #[test]
    fn batch_matches_per_vm_on_all_distinct_fleet() {
        use bursty_workload::{FleetGenerator, WorkloadPattern};
        let (q, rbex) = all_strategies();
        let strategies: [&dyn Strategy; 4] = [&q, &PeakStrategy, &BaseStrategy, &rbex];
        let mut g = FleetGenerator::new(7);
        let vms = g.vms(300, WorkloadPattern::EqualSpike);
        let farm = g.pms(300);
        // 300 continuous-draw specs exceed the tracked-class cap, so this
        // also exercises the collapse bail-out into the ordered path.
        assert!(!fast_path_engages(&vms, &q));
        for s in strategies {
            assert_eq!(
                first_fit_batch(&vms, &farm, s),
                first_fit(&vms, &farm, s),
                "batch diverged for {}",
                s.name()
            );
        }
    }

    #[test]
    fn tied_keys_across_classes_use_the_stable_sort_path() {
        // Two *distinct* classes (different spike sizes) sharing an exact
        // R_b: under RB (single band, key = R_b) a stable sort interleaves
        // their members by original index, which fill segments cannot
        // express — the packer must detect the tie, fall back, and still
        // match the per-VM packer bit for bit.
        let vms = vec![
            vm(0, 5.0, 2.0),
            vm(1, 5.0, 9.0),
            vm(2, 5.0, 2.0),
            vm(3, 5.0, 9.0),
            vm(4, 5.0, 2.0),
        ];
        let farm = pms(&[11.0, 11.0, 11.0]);
        assert!(!fast_path_engages(&vms, &BaseStrategy));
        let (q, rbex) = all_strategies();
        let strategies: [&dyn Strategy; 4] = [&q, &PeakStrategy, &BaseStrategy, &rbex];
        for s in strategies {
            assert_eq!(
                first_fit_batch(&vms, &farm, s),
                first_fit(&vms, &farm, s),
                "batch diverged for {}",
                s.name()
            );
        }
    }

    #[test]
    fn class_schedule_sorts_descending_and_rejects_ties() {
        let keys = vec![(0u32, 3.0f64), (1, 1.0), (0, 7.0), (1, 2.0)];
        // Bands descending first, then keys descending within a band.
        assert_eq!(class_schedule(&keys), Some(vec![3, 1, 2, 0]));
        let tied = vec![(0u32, 3.0f64), (0, 3.0)];
        assert_eq!(class_schedule(&tied), None);
        // Same key in *different* bands is not a tie.
        let split = vec![(1u32, 3.0f64), (0, 3.0)];
        assert_eq!(class_schedule(&split), Some(vec![0, 1]));
    }

    #[test]
    fn collapse_bails_past_the_class_cap() {
        let many: Vec<VmSpec> = (0..MAX_TRACKED_CLASSES + 1)
            .map(|i| vm(i, 1.0 + i as f64 * 0.01, 1.0))
            .collect();
        assert!(collapse_classes(&many).is_none());
        let table = collapse_classes(&many[..MAX_TRACKED_CLASSES]).unwrap();
        assert_eq!(table.reps.len(), MAX_TRACKED_CLASSES);
        assert!(table.counts.iter().all(|&c| c == 1));
    }

    #[test]
    fn batch_error_matches_per_vm_error() {
        // Two PMs fill up; the run's remaining copies overflow. The error
        // must name the same VM the per-VM packer names.
        let vms: Vec<VmSpec> = (0..10).map(|i| vm(i, 6.0, 0.0)).collect();
        let farm = pms(&[10.0, 10.0]);
        let batch = first_fit_batch(&vms, &farm, &BaseStrategy);
        let per_vm = first_fit(&vms, &farm, &BaseStrategy);
        assert!(batch.is_err());
        assert_eq!(batch, per_vm);
    }

    #[test]
    fn batch_error_matches_on_the_collapsed_path_mid_class() {
        // Three classes, the middle one overflows after placing some
        // copies: the error must name the exact member (in original fleet
        // order) the per-VM packer names.
        let mut vms = Vec::new();
        for i in 0..4 {
            vms.push(vm(i, 9.0, 1.0));
        }
        for i in 4..12 {
            vms.push(vm(i, 6.0, 2.0));
        }
        for i in 12..14 {
            vms.push(vm(i, 2.0, 3.0));
        }
        let farm = pms(&[20.0, 20.0]);
        let q = QueueStrategy::build(16, 0.01, 0.09, 0.01);
        let strategies: [&dyn Strategy; 2] = [&BaseStrategy, &q];
        for s in strategies {
            let batch = first_fit_batch(&vms, &farm, s);
            let per_vm = first_fit(&vms, &farm, s);
            assert!(per_vm.is_err(), "{}", s.name());
            assert_eq!(batch, per_vm, "error diverged for {}", s.name());
        }
    }

    #[test]
    fn empty_inputs() {
        let p = first_fit_batch(&[], &pms(&[10.0]), &BaseStrategy).unwrap();
        assert_eq!(p.pms_used(), 0);
        assert!(first_fit_batch(&[vm(0, 1.0, 0.0)], &[], &BaseStrategy).is_err());
    }

    #[test]
    fn arena_reuse_is_stateless() {
        use bursty_workload::{FleetGenerator, WorkloadPattern};
        let q = QueueStrategy::build(16, 0.01, 0.09, 0.01);
        let mut state = PlacementState::new();
        let mut g = FleetGenerator::new(3);
        // Different sizes back to back: results must match fresh packs.
        for (n, m) in [(200, 150), (50, 40), (400, 300)] {
            let vms = g.vms_table_i(n, WorkloadPattern::EqualSpike);
            let farm = g.pms(m);
            assert_eq!(
                first_fit_batch_with(&mut state, &vms, &farm, &q),
                first_fit_batch(&vms, &farm, &q),
                "arena reuse changed results at n={n} m={m}"
            );
        }
    }

    #[test]
    fn generation_tags_survive_many_resets() {
        // The epoch machinery must keep packs independent across many
        // arena reuses (stale loads from an earlier pack would corrupt
        // admission arithmetic silently).
        use bursty_workload::{FleetGenerator, WorkloadPattern};
        let q = QueueStrategy::build(16, 0.01, 0.09, 0.01);
        let mut state = PlacementState::new();
        let mut g = FleetGenerator::new(9);
        let vms = g.vms_table_i(120, WorkloadPattern::LargeSpike);
        let farm = g.pms(90);
        let fresh = first_fit_batch(&vms, &farm, &q);
        for round in 0..50 {
            assert_eq!(
                first_fit_batch_with(&mut state, &vms, &farm, &q),
                fresh,
                "drift after {round} arena reuses"
            );
        }
    }

    /// A farm where each entry of `gaps` contributes that many PMs too
    /// small for any test VM (capacity 1 against `R_b ≥ 2`: below every
    /// strategy's threshold even when empty) followed by one roomy PM —
    /// so `gaps[i]` is exactly the distance the First-Fit cursor has to
    /// cross between admitting PMs.
    fn gapped_farm(gaps: &[usize]) -> Vec<PmSpec> {
        let mut farm = Vec::new();
        for &gap in gaps {
            for _ in 0..gap {
                farm.push(PmSpec::new(farm.len(), 1.0));
            }
            farm.push(PmSpec::new(farm.len(), 100.0));
        }
        farm
    }

    /// `per_class` copies each of three classes, interleaved in fleet
    /// order, ids offset so an error's `vm_id` is not its index.
    fn three_class_fleet(per_class: usize) -> Vec<VmSpec> {
        let specs = [(9.0, 5.0), (6.0, 4.0), (3.0, 2.0)];
        (0..3 * per_class)
            .map(|i| vm(1000 + i, specs[i % 3].0, specs[i % 3].1))
            .collect()
    }

    /// The four strategies' packs of `vms` on `farm` through `state`,
    /// each checked against `first_fit`; returns the tree climbs of each.
    fn assert_matches_first_fit(
        state: &mut PlacementState,
        vms: &[VmSpec],
        farm: &[PmSpec],
        what: &str,
    ) -> [u64; 4] {
        let (q, rbex) = all_strategies();
        let strategies: [&dyn Strategy; 4] = [&q, &PeakStrategy, &BaseStrategy, &rbex];
        strategies.map(|s| {
            assert_eq!(
                first_fit_batch_with(state, vms, farm, s),
                first_fit(vms, farm, s),
                "{what}: batch diverged for {}",
                s.name()
            );
            state.last_pack().tree_probes
        })
    }

    #[test]
    fn lookahead_gap_boundaries_match_first_fit() {
        // Gaps of exactly W-1, W, W+1 and > 4W rejecting PMs between
        // admitting ones: the last gap the window covers, the first it
        // does not, and ones far past it. A single class keeps every gap
        // what the farm says (no PM filled by an earlier class in the
        // way), so the tree is climbed exactly when a gap reaches W.
        let one_class: Vec<VmSpec> = (0..40).map(|i| vm(i, 6.0, 4.0)).collect();
        let mut state = PlacementState::new();
        for gap in [LOOKAHEAD - 1, LOOKAHEAD, LOOKAHEAD + 1, 4 * LOOKAHEAD + 5] {
            let farm = gapped_farm(&[gap; 8]);
            let probes = assert_matches_first_fit(&mut state, &one_class, &farm, "one class");
            for p in probes {
                assert_eq!(p > 0, gap >= LOOKAHEAD, "gap {gap}: {p} tree climbs");
            }
            // Several classes: later ones start over at PM 0 behind PMs
            // the earlier ones filled, with dirt pending on the tree.
            assert_matches_first_fit(&mut state, &three_class_fleet(12), &farm, "three classes");
        }
        // Every boundary in one farm, window hits and tree climbs mixed.
        let w = LOOKAHEAD;
        let farm = gapped_farm(&[0, w - 1, w, w + 1, 4 * w + 5, w, w - 1, 0, w + 1, w]);
        assert_matches_first_fit(&mut state, &one_class, &farm, "mixed gaps");
        assert_matches_first_fit(&mut state, &three_class_fleet(15), &farm, "mixed gaps");
    }

    #[test]
    fn only_the_last_pm_admits() {
        let fleet = three_class_fleet(1);
        let mut state = PlacementState::new();
        for len in [1, LOOKAHEAD, LOOKAHEAD + 1, LOOKAHEAD + 2, 5 * LOOKAHEAD] {
            let farm = gapped_farm(&[len - 1]);
            let probes = assert_matches_first_fit(&mut state, &fleet, &farm, "last PM only");
            // Each class finds the one roomy PM from PM 0: inside the
            // window while the farm is no longer than it, by the tree past
            // that — never by running off the end.
            for p in probes {
                assert_eq!(p > 0, len > LOOKAHEAD, "farm of {len}: {p} tree climbs");
            }
        }
    }

    #[test]
    fn no_admitting_pm_names_the_vm_first_fit_names() {
        let fleet = three_class_fleet(4);
        let mut state = PlacementState::new();
        for len in [1, LOOKAHEAD - 1, LOOKAHEAD, LOOKAHEAD + 1, 5 * LOOKAHEAD] {
            let farm: Vec<PmSpec> = (0..len).map(|j| PmSpec::new(j, 1.0)).collect();
            assert!(first_fit(&fleet, &farm, &BaseStrategy).is_err());
            assert_matches_first_fit(&mut state, &fleet, &farm, "nothing admits");
        }
        // Admitting PMs that run out mid-class, the rest of the farm
        // rejecting: by the window (short tail) and by the tree (long).
        let big = three_class_fleet(60);
        for tail in [3, LOOKAHEAD - 1, LOOKAHEAD, 4 * LOOKAHEAD] {
            let mut farm = gapped_farm(&[LOOKAHEAD, 2, LOOKAHEAD + 1]);
            let roomy_end = farm.len();
            farm.extend((roomy_end..roomy_end + tail).map(|j| PmSpec::new(j, 1.0)));
            assert!(first_fit(&big, &farm, &BaseStrategy).is_err());
            assert_matches_first_fit(&mut state, &big, &farm, "farm runs out");
        }
    }

    #[test]
    fn arena_reused_across_gapped_farms_of_different_sizes() {
        // A long farm that builds the tree, then a shorter one whose gaps
        // all fit the window (the old, larger tree must not be consulted),
        // then a longer one again.
        let fleet = three_class_fleet(12);
        let mut state = PlacementState::new();
        let w = LOOKAHEAD;
        for gaps in [
            vec![4 * w + 5; 6],
            vec![w - 1; 5],
            vec![w + 1; 10],
            vec![0; 7],
        ] {
            let farm = gapped_farm(&gaps);
            assert_matches_first_fit(&mut state, &fleet, &farm, "reused arena");
        }
    }

    #[test]
    fn dirty_arena_searches_match_a_linear_scan() {
        // Mid-pack state: a pack leaves loads, headrooms, a built tree and
        // pending dirt behind. Every candidate search from there on —
        // window hits, tree climbs, off-the-end — must go the way a
        // linear scan over the leaves goes, before and after a hand-driven
        // continuation stores more fills.
        let (q, rbex) = all_strategies();
        let strategies: [&dyn Strategy; 4] = [&q, &PeakStrategy, &BaseStrategy, &rbex];
        let w = LOOKAHEAD;
        let farm = gapped_farm(&[0, w - 1, w, w + 1, 4 * w + 5, 0, w, 2 * w, 3, w + 1]);
        let fleet = three_class_fleet(14);
        let thresholds = [0.5, 2.0, 9.0, 40.0, 99.0, 101.0];
        let search_all = |state: &mut PlacementState, name: &str| {
            for from in 0..=farm.len() {
                for t in thresholds {
                    let linear = (from..farm.len()).find(|&j| state.index.value(j) >= t);
                    assert_eq!(state.index.first_admitting(from, t), linear, "{name}");
                }
            }
        };
        for s in strategies {
            let mut state = PlacementState::new();
            first_fit_batch_with(&mut state, &fleet, &farm, s).unwrap();
            search_all(&mut state, s.name());
            // Continue the pack by hand: one more class, copy by copy.
            let extra = vm(9000, 4.0, 3.0);
            let threshold = s.demand(&extra) - PRUNE_SLACK;
            let mut from = 0;
            for _ in 0..25 {
                let Some(j) = state.index.first_admitting(from, threshold) else {
                    break;
                };
                let (load, c) = admit_run(
                    state.load(j),
                    &extra,
                    farm[j].capacity,
                    1,
                    0,
                    &mut Vec::new(),
                    s,
                );
                if c > 0 {
                    state.commit(j, load, c);
                    state.index.set(j, s.headroom(&load, farm[j].capacity));
                }
                from = j + 1;
            }
            search_all(&mut state, s.name());
        }
    }

    #[test]
    fn paper_density_pack_stays_off_the_tree() {
        // The benchmark's class-heavy shape at a size a debug build packs
        // in milliseconds: Table-I VMs, four to a PM. Every gap between
        // admitting PMs fits the window, so the tree is never built
        // (`packing_bench` asserts the same of the full 1M-VM fleet).
        use bursty_workload::{FleetGenerator, WorkloadPattern};
        let q = QueueStrategy::build(16, 0.01, 0.09, 0.01);
        let mut g = FleetGenerator::new(1);
        let vms = g.vms_table_i(20_000, WorkloadPattern::EqualSpike);
        let farm = g.pms(5_000);
        let mut state = PlacementState::new();
        assert_eq!(
            first_fit_batch_with(&mut state, &vms, &farm, &q),
            first_fit(&vms, &farm, &q)
        );
        assert_eq!(state.last_pack().tree_probes, 0);
        assert!(!state.index.is_clean(), "the tree was never built");
    }

    #[test]
    fn golden_pin_table_i_queue_pack() {
        // Frozen behavior pin: seeded Table-I fleet under QUEUE. If this
        // moves, either the generator, the ordering, or the admission
        // arithmetic changed — all of which are load-bearing for the
        // byte-identical contract.
        use bursty_workload::{FleetGenerator, WorkloadPattern};
        let q = QueueStrategy::build(16, 0.01, 0.09, 0.01);
        let mut g = FleetGenerator::new(42);
        let vms = g.vms_table_i(500, WorkloadPattern::EqualSpike);
        let farm = g.pms(400);
        let batch = first_fit_batch(&vms, &farm, &q).unwrap();
        let per_vm = first_fit(&vms, &farm, &q).unwrap();
        assert_eq!(batch, per_vm);
        let checksum: usize = batch
            .assignment
            .iter()
            .enumerate()
            .map(|(i, a)| i.wrapping_mul(a.unwrap() + 1))
            .fold(0usize, |acc, x| acc.wrapping_add(x));
        assert_eq!(
            (batch.pms_used(), checksum),
            (GOLDEN_PMS_USED, GOLDEN_CHECKSUM)
        );
    }

    // Pinned from the current implementation; see golden_pin_table_i_queue_pack.
    const GOLDEN_PMS_USED: usize = 119;
    const GOLDEN_CHECKSUM: usize = 11_194_963;

    #[test]
    fn all_distinct_overhead_is_bounded() {
        // Regression guard: on a fleet with no duplicate classes every run
        // has length one, so the batch path degenerates to the per-VM path
        // plus O(1) run-length-encoding per VM — it must stay within ~1.2x
        // of the per-VM packer's time.
        use bursty_workload::{FleetGenerator, WorkloadPattern};
        use std::time::Instant;
        let q = QueueStrategy::build(16, 0.01, 0.09, 0.01);
        let mut g = FleetGenerator::new(11);
        let vms = g.vms(4000, WorkloadPattern::EqualSpike);
        let farm = g.pms(3000);
        let mut state = PlacementState::new();
        let mut per_vm = f64::INFINITY;
        let mut batch = f64::INFINITY;
        for _ in 0..5 {
            let t = Instant::now();
            let a = first_fit(&vms, &farm, &q).unwrap();
            per_vm = per_vm.min(t.elapsed().as_secs_f64());
            let t = Instant::now();
            let b = first_fit_batch_with(&mut state, &vms, &farm, &q).unwrap();
            batch = batch.min(t.elapsed().as_secs_f64());
            assert_eq!(a, b);
        }
        assert!(
            batch <= per_vm * 1.2 + 2e-3,
            "batch {batch:.6}s vs per-VM {per_vm:.6}s on an all-distinct fleet"
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::pack::first_fit;
    use crate::strategy::{BaseStrategy, PeakStrategy, QueueStrategy, ReserveStrategy};
    use proptest::prelude::{prop_assert_eq, proptest, ProptestConfig};
    use proptest::strategy::Strategy as PropStrategy;

    /// A fleet where roughly `dup_pct`% of the VMs reuse the spec of an
    /// earlier VM (100% collapses to one class, 0% leaves all distinct —
    /// up to accidental collisions, which the batch packer must survive
    /// anyway).
    fn fleet_with_duplicates(dup_pct: u8) -> impl PropStrategy<Value = Vec<VmSpec>> {
        proptest::collection::vec((2.0f64..20.0, 2.0f64..20.0, 0u8..100, 0usize..64), 1..80)
            .prop_map(move |raw| {
                let mut vms: Vec<VmSpec> = Vec::with_capacity(raw.len());
                for (i, (rb, re, roll, pick)) in raw.into_iter().enumerate() {
                    let vm = if i > 0 && roll < dup_pct {
                        let donor = vms[pick % i];
                        VmSpec::new(i, donor.p_on, donor.p_off, donor.r_b, donor.r_e)
                    } else {
                        VmSpec::new(i, 0.01, 0.09, rb, re)
                    };
                    vms.push(vm);
                }
                vms
            })
    }

    fn hetero_farm() -> impl PropStrategy<Value = Vec<PmSpec>> {
        proptest::collection::vec(40.0f64..140.0, 4..48).prop_map(|caps| {
            caps.into_iter()
                .enumerate()
                .map(|(j, c)| PmSpec::new(j, c))
                .collect()
        })
    }

    fn assert_batch_matches(
        vms: &[VmSpec],
        farm: &[PmSpec],
    ) -> Result<(), proptest::test_runner::TestCaseError> {
        let q = QueueStrategy::build(16, 0.01, 0.09, 0.01);
        let rbex = ReserveStrategy::new(0.3);
        let strategies: [&dyn Strategy; 4] = [&q, &PeakStrategy, &BaseStrategy, &rbex];
        for strategy in strategies {
            prop_assert_eq!(
                first_fit_batch(vms, farm, strategy),
                first_fit(vms, farm, strategy),
                "batch diverged for {}",
                strategy.name()
            );
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn batch_identical_all_distinct(
            vms in fleet_with_duplicates(0),
            farm in hetero_farm(),
        ) {
            assert_batch_matches(&vms, &farm)?;
        }

        #[test]
        fn batch_identical_half_duplicates(
            vms in fleet_with_duplicates(50),
            farm in hetero_farm(),
        ) {
            assert_batch_matches(&vms, &farm)?;
        }

        #[test]
        fn batch_identical_all_duplicates(
            vms in fleet_with_duplicates(100),
            farm in hetero_farm(),
        ) {
            assert_batch_matches(&vms, &farm)?;
        }
    }
}
