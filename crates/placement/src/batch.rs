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
//! collapsing cannot pay and the packer falls back to the per-VM FFD
//! order), the *classes* are sorted by the strategy's
//! [`Strategy::sort_keys`] of the class representatives (`k log k` work
//! for `k` classes instead of `n log n` for `n` VMs), whole classes are placed as single runs
//! recording `(PM, copies)` fill segments, and a final linear pass scatters
//! the per-VM assignments straight from those segments.
//!
//! # What a decision costs
//!
//! One class pass, then work per fill. The class pass ([`collapse_classes`],
//! on [`bursty_workload::intern_classes`]) scans a small key table per VM
//! — without an early exit, so a randomly ordered three-class fleet does
//! not mispredict — and is the only time the fleet is read for its
//! classes. No census picks a packer: `Consolidator::place` packs every
//! fleet here, one of at most [`MAX_TRACKED_CLASSES`] classes without a
//! cross-class key tie on the collapsed route, any other on the ordered
//! route (the per-VM FFD order in class runs; one run per VM when all are
//! distinct, within a few percent of the per-VM packer). Each fill of
//! [`place_run`] (the one production First Fit: `OnlineCluster`'s single
//! and batch arrivals run it too) finds its PM with
//! [`HeadroomIndex::first_admitting`], which reads a bounded window of the
//! flat headroom array before it reads on or climbs the lazily built tree
//! (never built for the 1M-VM Table-I fleet on 250k PMs: three searches
//! leave the window, each where a run meets the stretch of PMs an earlier
//! class filled, and read on), and its copy count from a [`RunMemo`]: a
//! run meets few distinct
//! PM loads, folds its VM onto each once, and gallops over that chain
//! against the PM's [`Strategy::budget`] — no Eq. 17 evaluation per fill,
//! except for a fill that wants one copy, which is one admission check.
//! A fill found that way starts a *stretch*: the positions after it that
//! carry the same seed and take the same count under their own budgets
//! (two peaks of the chain against each budget) are filled with no
//! search and no fold, and the stretch is committed at once. The offline
//! arena keeps its loads as stretches of equal loads
//! ([`LoadStretches`]), so finding where a stretch ends reads bits, not
//! loads, and committing it writes two loads however many PMs it covers;
//! what is left per PM is a budget test, its headroom leaf and its fill.
//! The 1M-VM Table-I pack places 475 792 fills in 13 stretches.
//! [`PlacementState::last_pack`] reports the split and the candidate
//! counts, and `BENCH_packing.json` holds it for the measured fleets.
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
//! * On one PM the per-VM packer adds copy `i` iff
//!   `need(S_i) ≤ budget(C)`, `S_i` the seed after `i` serial `add`s. The
//!   memo's chain is that fold, bit for bit, and its running maximum of
//!   the needs is within the budget at step `c` iff all `c` copies were
//!   admitted, so the largest such `c` and `S_c` are the per-VM count and
//!   [`PmLoad`] — for any `need`, monotone or not (a NaN need leaves the
//!   maximum NaN, which no budget admits).
//! * A stretch places what a search and a fold per PM would have: a
//!   position that takes `c ≥ 1` copies admits one, so by the headroom
//!   contract its leaf is at or above the threshold and the search from
//!   the position before would have returned it — the stretch skips no
//!   PM First Fit would have tried. It carries the seed's bits, so its
//!   fold would read the same chain, and step `c` of the chain fits its
//!   budget while step `c + 1` does not (or `c` copies are all the run
//!   has left), so that fold would return `c` and `S_c`. Each position a
//!   stretch covers still counts as one candidate.
//! * The class schedule reproduces the strategy's *stable* sort: classes
//!   are emitted in descending key order and, within one class, VMs keep
//!   their original indices (exactly what a stable sort does with equal
//!   keys). Two *distinct* classes sharing an exact sort key would have
//!   their members interleaved by a stable sort, which fill segments
//!   cannot express — [`class_schedule`] detects that (rare, bit-equal
//!   keys across different specs) and the packer falls back to the
//!   per-VM FFD order rather than risk a divergence.

use crate::index::HeadroomIndex;
use crate::load::PmLoad;
use crate::order::PmOrder;
use crate::pack::{PackError, PRUNE_SLACK};
use crate::placement::Placement;
use crate::strategy::{ffd_cmp, ffd_order, Strategy};
use crate::stretch::LoadStretches;
use bursty_workload::{class_runs, intern_classes, ClassRun, PmSpec, VmSpec};
use std::ops::Range;
use std::time::Instant;

/// Reusable arena for batch packing: per-PM loads, the headroom index, the
/// run memo and the fill list, all kept between packs so repeated
/// consolidations over same-sized farms allocate nothing after the first.
/// Loads, leaves and fills are by position in the pool's [`PmOrder`]; the
/// loads are kept as stretches of equal loads (`LoadStretches`), so a
/// stretch of fills writes its load once, not once per PM.
///
/// A reset makes the loads one stretch of empty loads and rewrites the
/// headroom leaves; the headroom tree is maintained *lazily*, behind a
/// bounded look-ahead — the index's own lazy mode (see [`crate::index`]):
/// a reset loads the leaves and builds nothing, the run placer's `set`
/// marks what a fill writes, and the one
/// candidate search is [`HeadroomIndex::first_admitting`]. The tree is
/// built the first time a gap outgrows the window and not before: a pack
/// whose gaps all fit — the paper-density and all-duplicate fleets of
/// `BENCH_packing.json` — never builds it, and what the final run marked
/// is never flushed (the next reset discards it).
#[derive(Debug)]
pub struct PlacementState {
    loads: LoadStretches,
    index: HeadroomIndex,
    memo: RunMemo,
    /// The `(position, copies)` fills the current pack's runs committed;
    /// the collapsed route turns each position into its PM index before
    /// it scatters.
    fills: Vec<(u32, u32)>,
    profile: PackProfile,
}

/// Where the last pack on a [`PlacementState`] spent its time — the
/// per-phase attribution `packing_bench` writes to `BENCH_packing.json`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PackProfile {
    /// The class pass over the fleet; off the collapsed path also the
    /// per-VM FFD order and its run-length encoding.
    pub collapse_s: f64,
    /// Resetting the arena to the empty farm.
    pub reset_s: f64,
    /// Placing the runs: candidate searches, admissions, stores.
    pub runs_s: f64,
    /// Scattering per-VM assignments from the fill segments (zero off the
    /// collapsed path, which assigns while it places).
    pub scatter_s: f64,
    /// Candidate searches that went past the look-ahead window: the whole
    /// window rejected and the farm went on past it. Each read on over
    /// the leaves or climbed the headroom tree.
    pub tree_probes: u64,
    /// Times the pack built the headroom tree: 0 when every search past
    /// the window read on.
    pub tree_builds: u64,
    /// Candidate PMs the run placer tried, one per (run, candidate PM):
    /// what `Consolidator::place_recorded` books as
    /// [`bursty_obs::Counter::PackProbes`].
    pub probes: u64,
    /// Candidates that admitted no copy
    /// ([`bursty_obs::Counter::PackRejectedProbes`]).
    pub rejected_probes: u64,
    /// Fills placed by a search and a fold: each starts a stretch, which
    /// the like PMs after it join with neither (see `place_run`). The
    /// admitting candidates less this are the fills a stretch placed.
    pub stretches: u64,
}

impl PlacementState {
    /// An empty arena; capacity grows on first use.
    pub fn new() -> Self {
        Self {
            loads: LoadStretches::default(),
            index: HeadroomIndex::new(&[]),
            memo: RunMemo::default(),
            fills: Vec::new(),
            profile: PackProfile::default(),
        }
    }

    /// Resets the arena to an empty farm of `order`'s PMs under
    /// `strategy`.
    fn reset<S: Strategy + ?Sized>(&mut self, order: &PmOrder, strategy: &S) {
        self.loads.reset(order.len());
        let caps = order.capacities();
        self.index.reset_lazy(caps.len(), |leaves| {
            leaves.extend(
                caps.iter()
                    .map(|&cap| strategy.headroom(&PmLoad::empty(), cap)),
            )
        });
        self.fills.clear();
    }

    /// The phase times, past-window searches and tree builds of the last
    /// pack on this arena.
    pub fn last_pack(&self) -> PackProfile {
        PackProfile {
            tree_probes: self.index.probes(),
            tree_builds: self.index.builds(),
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

    fn memo(&mut self) -> &mut RunMemo {
        &mut self.memo
    }

    fn load(&self, p: usize) -> PmLoad {
        self.loads.load(p)
    }

    fn like_until(&self, p: usize, _seed: &PmLoad, limit: usize) -> usize {
        self.loads.end(p, limit)
    }

    fn commit<S: Strategy + ?Sized>(
        &mut self,
        at: Range<usize>,
        load: PmLoad,
        copies: usize,
        caps: &[f64],
        strategy: &S,
    ) {
        self.loads.write(at.clone(), load);
        // One push per fill, not a reserving `extend`: the vector grows by
        // doubling, whose sizes decide where later allocations land
        // (DESIGN §8, `setup_s`).
        for p in at {
            self.fills.push((p as u32, copies as u32));
            self.index.set(p, strategy.headroom(&load, caps[p]));
        }
        self.profile.stretches += 1;
    }

    fn probed(&mut self, candidates: u64, rejected: u64) {
        self.profile.probes += candidates;
        self.profile.rejected_probes += rejected;
    }
}

/// Distinct seed loads a run keeps folds from; a run that meets more
/// recycles the oldest entry. The 1M-VM Table-I pack meets a handful per
/// run, nearly all its fills on the empty seed.
pub(crate) const MEMO_SEEDS: usize = 8;

/// Copies a memo entry keeps the fold of. QUEUE's chains end by `d + 1`
/// (17 at the paper's `d = 16`); a PM that takes more than this many
/// copies (RP or RB with small VMs on large PMs) folds the rest itself.
const CHAIN_STEPS: usize = 32;

/// The exact serial folds of one run's VM from the distinct seed loads the
/// run meets, the copy-count oracle of [`place_run`]. Entries are keyed by
/// the seed's bits and live inline, so the memo allocates nothing;
/// [`place_run`] clears it when it starts, since the chains are folds of
/// one VM.
#[derive(Debug, Default)]
pub(crate) struct RunMemo {
    /// The seed bits of each live entry, scanned in full on every fill.
    keys: [[u64; 5]; MEMO_SEEDS],
    /// Entry `e`'s fold: step `c < lens[e]` is its seed after `c` serial
    /// [`PmLoad::add`]s of the run's VM.
    chains: [[Step; CHAIN_STEPS]; MEMO_SEEDS],
    lens: [usize; MEMO_SEEDS],
    /// Entries holding a fold of the current run.
    live: usize,
    /// The entry the last fold of more than one copy read.
    last: usize,
    /// The entry a miss recycles once all [`MEMO_SEEDS`] are live.
    oldest: usize,
}

/// Step `c` of a fold: the load after `c` copies, and `peak`, the largest
/// [`Strategy::need`] among steps `1..=c` (`-∞` at `c = 0`; NaN from the
/// first NaN need on).
#[derive(Debug, Clone, Copy, Default)]
struct Step {
    load: PmLoad,
    peak: f64,
}

impl Step {
    /// Whether every copy up to this step fits `budget`.
    fn fits(&self, budget: f64) -> bool {
        self.peak <= budget
    }

    /// The next step of a fold of `vm`.
    fn next<S: Strategy + ?Sized>(&self, vm: &VmSpec, strategy: &S) -> Self {
        let load = self.load.with(vm);
        let need = strategy.need(&load);
        let peak = if need <= self.peak || self.peak.is_nan() {
            self.peak
        } else {
            need
        };
        Self { load, peak }
    }
}

impl RunMemo {
    /// Forgets every fold: the next run folds another VM.
    fn clear(&mut self) {
        self.live = 0;
        self.oldest = 0;
    }

    /// The largest number of copies of `vm`, up to `want`, that a PM
    /// carrying `seed` under `budget` admits one at a time, and the load
    /// they leave: bit-identical to `want` capped repetitions of the
    /// per-VM `admits`-then-`add` sequence. `hint`, the previous fill's
    /// count, only steers where the chain is probed: the gallop from it
    /// lands on the same count for every hint.
    fn fold<S: Strategy + ?Sized>(
        &mut self,
        seed: PmLoad,
        vm: &VmSpec,
        budget: f64,
        want: usize,
        hint: usize,
        strategy: &S,
    ) -> (PmLoad, usize) {
        if want == 1 {
            // One copy is one admission: no chain to share.
            let load = seed.with(vm);
            return if strategy.need(&load) <= budget {
                (load, 1)
            } else {
                (seed, 0)
            };
        }
        let entry = self.entry(seed);
        self.last = entry;
        let (chain, len) = (&mut self.chains[entry], &mut self.lens[entry]);
        // Whether `c` copies fit: step `c` peaks within the budget, the
        // chain folding on as far as `c` while its last step does.
        let mut fit = |c: usize| {
            while *len <= c {
                let last = chain[*len - 1];
                if !last.fits(budget) {
                    return false;
                }
                chain[*len] = last.next(vm, strategy);
                *len += 1;
            }
            chain[c].fits(budget)
        };
        let most = want.min(CHAIN_STEPS - 1);
        let start = hint.clamp(1, most);
        let (mut lo, mut hi) = (0, start - 1);
        if fit(start) {
            (lo, hi) = (start, most);
            let mut step = 1;
            while lo < hi {
                let p = (lo + step).min(most);
                if !fit(p) {
                    hi = p - 1;
                    break;
                }
                lo = p;
                step *= 2;
            }
        }
        while lo < hi {
            let mid = lo + (hi - lo).div_ceil(2);
            if fit(mid) {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        // Every memoised copy fits and more are wanted: fold on copy by
        // copy.
        let mut at = chain[lo];
        if lo == CHAIN_STEPS - 1 {
            while lo < want {
                let next = at.next(vm, strategy);
                if !next.fits(budget) {
                    break;
                }
                at = next;
                lo += 1;
            }
        }
        (at.load, lo)
    }

    /// Steps `c` and `c + 1` of the chain the last fold of more than one
    /// copy read, or `None` when that chain does not hold step `c + 1`. A
    /// PM carrying that fold's seed takes exactly `c` copies under a
    /// budget iff the first fits it and the second does not (or `c`
    /// copies are all the run has left).
    fn stretch_steps(&self, c: usize) -> Option<(Step, Step)> {
        let (chain, len) = (&self.chains[self.last], self.lens[self.last]);
        (len > c + 1).then(|| (chain[c], chain[c + 1]))
    }

    /// The entry folded from `seed`, started on a miss. The lookup reads
    /// every live key and selects the match without branching on it: a
    /// run's fills alternate between seeds in no predictable order.
    fn entry(&mut self, seed: PmLoad) -> usize {
        let key = seed.bits();
        let mut hit = usize::MAX;
        for (at, k) in self.keys[..self.live].iter().enumerate() {
            let diff = k.iter().zip(&key).fold(0, |d, (a, b)| d | (a ^ b));
            hit = if diff == 0 { at } else { hit };
        }
        if hit == usize::MAX {
            hit = if self.live < MEMO_SEEDS {
                self.live += 1;
                self.live - 1
            } else {
                let at = self.oldest;
                self.oldest = (at + 1) % MEMO_SEEDS;
                at
            };
            self.keys[hit] = key;
            self.chains[hit][0] = Step {
                load: seed,
                peak: f64::NEG_INFINITY,
            };
            self.lens[hit] = 1;
        }
        hit
    }
}

/// The PMs a class run is placed on, as [`place_run`] sees them, each
/// named by its position in the pool's [`PmOrder`]: the headroom index
/// it searches and sets, the memo it counts copies with, each PM's load,
/// where a fill goes, and where a candidate is counted. The offline
/// arena ([`PlacementState`]) and `OnlineCluster` implement it.
pub(crate) trait RunPool {
    /// The headroom index over the pool, searched and set lazily.
    fn index(&mut self) -> &mut HeadroomIndex;
    /// The run memo, kept by the pool between runs.
    fn memo(&mut self) -> &mut RunMemo;
    /// Position `p`'s current load.
    fn load(&self, p: usize) -> PmLoad;
    /// The end (exclusive, at most `limit`) of the stretch of positions
    /// from `p` on that carry `p`'s load, `seed`, bit for bit — or an
    /// earlier end: a pool may stop at any position whose load it does
    /// not know to be the same. By default the loads are compared one by
    /// one; the offline arena reads the end off its [`LoadStretches`].
    fn like_until(&self, p: usize, seed: &PmLoad, limit: usize) -> usize {
        let key = seed.bits();
        (p + 1..limit)
            .find(|&q| self.load(q).bits() != key)
            .unwrap_or(limit)
    }
    /// Commits a stretch of fills: `copies` more of the run at every
    /// position of `at`, each of whose loads is now `load`, and sets their
    /// headroom leaves under `strategy`, position `p`'s capacity being
    /// `caps[p]`. The pool keeps the `(position, copies)` fills of the run
    /// in position order for its caller. Both pools write the loads of a
    /// stretch as one range and set its leaves one by one.
    fn commit<S: Strategy + ?Sized>(
        &mut self,
        at: Range<usize>,
        load: PmLoad,
        copies: usize,
        caps: &[f64],
        strategy: &S,
    );
    /// Books a run's candidate PMs, `rejected` of which admitted no
    /// copy: the arena tallies them in its [`PackProfile`], the online
    /// engine books them into its caller's recorder.
    fn probed(&mut self, candidates: u64, rejected: u64);
}

/// First Fit for one class run, and the one place that algorithm lives
/// in production: both offline routes, `OnlineCluster`'s batch arrival
/// and its single arrival (a one-VM run) call it. Places up to `want`
/// copies of `vm` on `pool`, whose position `p` has capacity `caps[p]`,
/// committing each fill to it, and returns the copies placed — fewer than
/// `want` means no PM admits the next one.
///
/// Each fill goes to the lowest position at or after the cursor that
/// admits a copy ([`HeadroomIndex::first_admitting`] under the `demand −
/// PRUNE_SLACK` threshold), with as many copies as the [`RunMemo`] finds
/// room for, its count hinting the next PM's. The fill then runs on as a
/// *stretch* ([`stretch_end`]) over the positions after it that carry
/// the same seed and take the same count, with no search and no fold of
/// their own; the stretch is committed in one [`RunPool::commit`].
/// The cursor only advances: every PM behind it rejected this class under
/// a load that does not change while the run is placed (loads only grow,
/// and a filled PM was filled to its maximum), so a per-VM First Fit
/// could place no later copy there either. The run's candidate PMs (one
/// per position a search returned or a stretch covered) and rejections
/// are booked once, at its end, through [`RunPool::probed`].
#[inline]
pub(crate) fn place_run<P: RunPool, S: Strategy + ?Sized>(
    pool: &mut P,
    caps: &[f64],
    strategy: &S,
    vm: &VmSpec,
    want: usize,
) -> usize {
    let threshold = strategy.demand(vm) - PRUNE_SLACK;
    pool.memo().clear();
    let (mut placed, mut hint, mut from) = (0, 0, 0);
    let (mut candidates, mut rejected) = (0, 0);
    while placed < want {
        let Some(j) = pool.index().first_admitting(from, threshold) else {
            break;
        };
        let (seed, cap) = (pool.load(j), caps[j]);
        let budget = strategy.budget(cap);
        let (load, c) = pool
            .memo()
            .fold(seed, vm, budget, want - placed, hint, strategy);
        if c == 0 {
            candidates += 1;
            rejected += 1;
            from = j + 1;
            continue;
        }
        let end = stretch_end(pool, caps, strategy, j, seed, c, want - placed - c);
        pool.commit(j..end, load, c, caps, strategy);
        candidates += (end - j) as u64;
        placed += c * (end - j);
        hint = c;
        from = end;
    }
    pool.probed(candidates, rejected);
    placed
}

/// The end of the stretch that a fill of `c` copies from `seed` at
/// position `j` starts, `left` copies of the run still to place after it:
/// the first position past `j` that does not carry `seed` bit for bit
/// ([`RunPool::like_until`]), does not take exactly `c` copies under its
/// own budget (read off the memo's chain from `seed`, which the fill at
/// `j` folded: step `c` fits, step `c + 1` does not or the run has no
/// copies left after `c`), or would find fewer than `c` copies left — or
/// `j + 1` where the chain does not hold step `c + 1`. Each position
/// inside is one the per-PM loop would have searched for and found at
/// once (it admits, so its headroom leaf is at or above the threshold),
/// then folded from the same chain to the same count and load.
fn stretch_end<P: RunPool, S: Strategy + ?Sized>(
    pool: &mut P,
    caps: &[f64],
    strategy: &S,
    j: usize,
    seed: PmLoad,
    c: usize,
    mut left: usize,
) -> usize {
    let mut end = j + 1;
    if left < c {
        return end;
    }
    let Some((at_c, past_c)) = pool.memo().stretch_steps(c) else {
        return end;
    };
    // Every position short of `like` has `c` copies left for it.
    let like = pool.like_until(j, &seed, caps.len().min(end + left / c));
    while end < like {
        let budget = strategy.budget(caps[end]);
        if !(at_c.fits(budget) && (left == c || !past_c.fits(budget))) {
            break;
        }
        left -= c;
        end += 1;
    }
    end
}

/// Hands `host` each placed member of a run, in order, with the PM
/// position its fill put it on.
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
pub(crate) const MAX_TRACKED_CLASSES: usize = 96;

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
    collapse_classes_seeing(vms, |_| {})
}

/// [`collapse_classes`] handing `seen` each VM it interns, in fleet order,
/// for a caller that folds something more from the same pass
/// (`OnlineCluster` takes the largest id that sizes its id table).
pub(crate) fn collapse_classes_seeing(
    vms: &[VmSpec],
    mut seen: impl FnMut(&VmSpec),
) -> Option<ClassTable> {
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
        seen(&vms[i]);
    })?;
    Some(table)
}

/// Per-class cursors into a pack's fills, for the scatter that hands
/// each member of a collapsed fleet its slot in one fleet-order pass:
/// class `c`'s fills are contiguous from the one its cursor starts at, and
/// the `i`-th member of `c` in fleet order takes the `i`-th copy of them —
/// within a class the stable sort keeps fleet order. The offline packer
/// and `OnlineCluster`'s collapsed route scatter through it.
pub(crate) struct FillCursors {
    /// Class `c`'s current fill.
    next: [u32; MAX_TRACKED_CLASSES],
    /// Copies of that fill handed out so far.
    handed: [u32; MAX_TRACKED_CLASSES],
}

impl FillCursors {
    pub(crate) fn new() -> Self {
        Self {
            next: [0; MAX_TRACKED_CLASSES],
            handed: [0; MAX_TRACKED_CLASSES],
        }
    }

    /// Starts class `c`'s cursor at fill `at`.
    pub(crate) fn start(&mut self, c: usize, at: usize) {
        self.next[c] = at as u32;
        self.handed[c] = 0;
    }

    /// The PM (as the fill names it) of class `c`'s next member, moving
    /// the cursor on without a branch: consecutive members' classes follow
    /// no pattern.
    #[inline]
    pub(crate) fn take(&mut self, fills: &[(u32, u32)], c: usize) -> u32 {
        let (pm, copies) = fills[self.next[c] as usize];
        let now = self.handed[c] + 1;
        let done = now == copies;
        self.next[c] += u32::from(done);
        self.handed[c] = now * u32::from(!done);
        pm
    }
}

/// Class ids sorted by `(band descending, key descending)` — the order in
/// which whole classes are placed — or `None` when two *distinct* classes
/// share an exact `(band, key)`: a stable sort would interleave their
/// members by original index across class boundaries, which per-class
/// fill segments cannot express, so the caller falls back to the
/// per-VM FFD order.
fn class_schedule(keys: &[(u32, f64)]) -> Option<Vec<u32>> {
    let mut by_key: Vec<u32> = (0..keys.len() as u32).collect();
    by_key.sort_by(|&a, &b| ffd_cmp(keys[a as usize], keys[b as usize]));
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
pub(crate) fn nth_member_id(vms: &[VmSpec], kid: &[u32], cid: u32, nth: usize) -> usize {
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
/// it degrades to the per-VM FFD order with per-run placement — never
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
/// repeated packs over same-sized farms reuse every allocation. The
/// arena's [`PlacementState::last_pack`] then holds the pack's phase
/// times and candidate counts, which `Consolidator::place_recorded` books
/// into its recorder.
///
/// Whole classes are placed as single runs when the fleet collapses (at
/// most [`MAX_TRACKED_CLASSES`] classes) and the strategy's keys order
/// them without cross-class ties; otherwise the per-VM FFD order is
/// placed in its class runs.
///
/// # Errors
/// [`PackError`] naming the first unplaceable VM.
pub fn first_fit_batch_with<S: Strategy + ?Sized>(
    state: &mut PlacementState,
    vms: &[VmSpec],
    pms: &[PmSpec],
    strategy: &S,
) -> Result<Placement, PackError> {
    first_fit_batch_in(state, vms, &PmOrder::of(pms), strategy)
}

/// [`first_fit_batch_with`] over the PMs in `order`.
pub(crate) fn first_fit_batch_in<S: Strategy + ?Sized>(
    state: &mut PlacementState,
    vms: &[VmSpec],
    order: &PmOrder,
    strategy: &S,
) -> Result<Placement, PackError> {
    let mut clock = Instant::now();
    let table = collapse_classes(vms);
    state.profile = PackProfile {
        collapse_s: lap(&mut clock),
        ..PackProfile::default()
    };
    if let Some((table, schedule)) = collapsed_schedule(vms, strategy, table) {
        return batch_collapsed(state, vms, order, strategy, &table, &schedule);
    }
    let mut clock = Instant::now();
    let (members, runs) = strategy_runs(vms, strategy);
    state.profile.collapse_s += lap(&mut clock);
    batch_ordered(state, vms, order, strategy, &members, &runs)
}

/// Seconds since `*since`, which moves to now: one stopwatch lap of a
/// pack's [`PackProfile`].
pub(crate) fn lap(since: &mut Instant) -> f64 {
    let now = Instant::now();
    let secs = now.duration_since(*since).as_secs_f64();
    *since = now;
    secs
}

/// The collapsed route's class table and schedule, given the class pass
/// of `vms` — or `None`, which sends the batch to the ordered route (the
/// per-VM FFD order and its class runs): too many classes to track, or
/// two distinct classes sharing a key. The
/// offline packer and `OnlineCluster` choose their route here.
pub(crate) fn collapsed_schedule<S: Strategy + ?Sized>(
    vms: &[VmSpec],
    strategy: &S,
    table: Option<ClassTable>,
) -> Option<(ClassTable, Vec<u32>)> {
    let table = table?;
    let schedule = class_schedule(&strategy.sort_keys(vms.len(), &table.reps))?;
    Some((table, schedule))
}

/// The ordered route's placement order: the per-VM FFD order and its
/// class runs.
pub(crate) fn strategy_runs<S: Strategy + ?Sized>(
    vms: &[VmSpec],
    strategy: &S,
) -> (Vec<usize>, Vec<ClassRun>) {
    let order = ffd_order(strategy, vms);
    let runs = class_runs(vms, &order);
    (order, runs)
}

/// A batch's placement order as class runs, by the route
/// [`collapsed_schedule`] picks: on the collapsed route the class
/// schedule spelled out member by member — one run per class, members in
/// fleet order, as a stable sort keeps them — else [`strategy_runs`].
/// Neither production route builds it on a collapsing fleet (both scatter
/// from their fills); the tests read it as the placement order.
#[cfg(test)]
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
            class: bursty_workload::VmClass::of(&table.reps[c]),
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

/// The fast path: whole classes placed as single runs, per-VM assignments
/// scattered from the recorded `(PM, copies)` fill segments afterwards.
/// No per-VM order ever exists.
fn batch_collapsed<S: Strategy + ?Sized>(
    state: &mut PlacementState,
    vms: &[VmSpec],
    order: &PmOrder,
    strategy: &S,
    table: &ClassTable,
    schedule: &[u32],
) -> Result<Placement, PackError> {
    let mut clock = Instant::now();
    state.reset(order, strategy);
    state.profile.reset_s = lap(&mut clock);
    let mut cursors = FillCursors::new();
    for &cid in schedule {
        let c = cid as usize;
        let (vm, want) = (&table.reps[c], table.counts[c] as usize);
        cursors.start(c, state.fills.len());
        let placed = place_run(state, order.capacities(), strategy, vm, want);
        if placed < want {
            return Err(PackError {
                vm_id: nth_member_id(vms, &table.kid, cid, placed),
            });
        }
    }
    // Positions become PM indexes once per fill, not per member.
    for fill in &mut state.fills {
        fill.0 = order.pm(fill.0 as usize) as u32;
    }

    state.profile.runs_s = lap(&mut clock);

    // Scatter: VMs in original order take their class's filled slots
    // front to back.
    let fills = &state.fills;
    let assignment = table
        .kid
        .iter()
        .map(|&cid| Some(cursors.take(fills, cid as usize) as usize))
        .collect();
    state.profile.scatter_s = lap(&mut clock);
    Ok(Placement {
        assignment,
        n_pms: order.len(),
    })
}

/// The general path: an explicit per-VM order and its class runs (either
/// from the per-VM FFD order, or because cross-class key ties demand
/// the full stable-sort semantics).
fn batch_ordered<S: Strategy + ?Sized>(
    state: &mut PlacementState,
    vms: &[VmSpec],
    order: &PmOrder,
    strategy: &S,
    members: &[usize],
    runs: &[ClassRun],
) -> Result<Placement, PackError> {
    let mut clock = Instant::now();
    state.reset(order, strategy);
    state.profile.reset_s = lap(&mut clock);
    let mut placement = Placement::empty(vms.len(), order.len());
    for run in runs {
        let members = &members[run.start..run.start + run.len];
        state.fills.clear();
        let vm = &vms[members[0]];
        let placed = place_run(state, order.capacities(), strategy, vm, run.len);
        fill_hosts(&state.fills, members, |i, p| {
            placement.assignment[i] = Some(order.pm(p))
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
    use crate::pack::{first_fit, first_fit_in};
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
        (QueueStrategy::build(16, 0.01, 0.09, 0.01), ReserveStrategy)
    }

    #[test]
    fn a_nan_need_leaves_the_running_maximum_nan() {
        // Once a step's need is NaN no later step may fit, whatever its
        // own need: the per-VM packer stops at the NaN rejection.
        let x = vm(0, 1.0, 1.0);
        let start = Step {
            load: PmLoad::default(),
            peak: f64::NEG_INFINITY,
        };
        assert_eq!(start.next(&x, &BaseStrategy).peak, 1.0);
        let poisoned = Step {
            peak: f64::NAN,
            ..start
        };
        let next = poisoned.next(&x, &BaseStrategy);
        assert!(next.peak.is_nan());
        assert!(!next.fits(f64::INFINITY));
    }

    /// Whether the orderless collapsed path would handle this fleet.
    fn fast_path_engages<S: Strategy + ?Sized>(vms: &[VmSpec], strategy: &S) -> bool {
        collapse_classes(vms)
            .and_then(|table| class_schedule(&strategy.sort_keys(vms.len(), &table.reps)))
            .is_some()
    }

    /// `want` capped repetitions of the per-VM `admits`-then-`add`
    /// sequence from `seed`: the count and load the memo must reproduce.
    fn repeated_admits(
        s: &dyn Strategy,
        seed: PmLoad,
        vm: &VmSpec,
        cap: f64,
        want: usize,
    ) -> (PmLoad, usize) {
        let (mut load, mut count) = (seed, 0);
        while count < want && s.admits(&load, vm, cap) {
            load.add(vm);
            count += 1;
        }
        (load, count)
    }

    /// Holds a run's fold from `seed` to the per-VM sequence for every
    /// hint, with a fresh memo, one kept across capacities as a run keeps
    /// it across PMs, and one whose chain for `seed` was grown first under
    /// a larger budget.
    fn assert_run_matches_repeated_admits(s: &dyn Strategy, seed: PmLoad, template: &VmSpec) {
        let mut kept = RunMemo::default();
        for cap in [10.0, 33.0, 70.0, 100.0, 250.0, 1000.0] {
            for want in [1usize, 2, 5, 40, 300] {
                let expect = repeated_admits(s, seed, template, cap, want);
                for hint in [0, 1, expect.1, expect.1 + 1, want / 2, want, want + 9] {
                    let what = format!("{} cap={cap} want={want} hint={hint}", s.name());
                    let budget = s.budget(cap);
                    let fresh = RunMemo::default().fold(seed, template, budget, want, hint, s);
                    assert_eq!(fresh, expect, "fresh memo: {what}");
                    let reused = kept.fold(seed, template, budget, want, hint, s);
                    assert_eq!(reused, expect, "kept memo: {what}");
                    let mut primed = RunMemo::default();
                    primed.fold(seed, template, s.budget(1000.0), 300, 0, s);
                    let grown = primed.fold(seed, template, budget, want, hint, s);
                    assert_eq!(grown, expect, "primed memo: {what}");
                }
            }
        }
    }

    #[test]
    fn admit_run_matches_repeated_admits() {
        let (q, rbex) = all_strategies();
        let strategies: [&dyn Strategy; 4] = [&q, &PeakStrategy, &BaseStrategy, &rbex];
        let template = vm(0, 7.0, 5.0);
        for s in strategies {
            assert_run_matches_repeated_admits(s, PmLoad::empty(), &template);
        }
        // Chains well past QUEUE's d cap: RP and RB fold a hundred copies.
        let long =
            RunMemo::default().fold(PmLoad::empty(), &template, 1000.0, 300, 0, &BaseStrategy);
        assert_eq!(long.1, 142);
        assert_eq!(
            long,
            repeated_admits(&BaseStrategy, PmLoad::empty(), &template, 1000.0, 300)
        );
    }

    #[test]
    fn admit_run_from_preloaded_pm() {
        let (q, rbex) = all_strategies();
        let strategies: [&dyn Strategy; 4] = [&q, &PeakStrategy, &BaseStrategy, &rbex];
        let template = vm(0, 7.0, 5.0);
        let seeds = [
            PmLoad::rebuild(&[vm(90, 11.0, 9.0), vm(91, 4.0, 2.0)]),
            PmLoad::rebuild(&[template; 3]),
        ];
        for s in strategies {
            for seed in seeds {
                assert_run_matches_repeated_admits(s, seed, &template);
            }
        }
        // A loaded seed met after the empty one gets an entry of its own.
        let mut memo = RunMemo::default();
        let budget = q.budget(95.0);
        memo.fold(PmLoad::empty(), &template, budget, 30, 4, &q);
        let got = memo.fold(seeds[0], &template, budget, 30, 4, &q);
        assert_eq!(memo.live, 2);
        assert_eq!(got, repeated_admits(&q, seeds[0], &template, 95.0, 30));
        assert!(got.1 > 0, "the preloaded PM still takes copies");
    }

    #[test]
    fn runs_meeting_more_seeds_than_the_memo_holds_match_first_fit() {
        // A big class leaves PM j with j + 1 copies (capacities 6·(j+1) +
        // 5 under RB), so the small class that follows meets a different
        // seed on every one of MEMO_SEEDS + 5 PMs and recycles five memo
        // entries.
        let pms_n = MEMO_SEEDS + 5;
        let farm: Vec<PmSpec> = (0..pms_n)
            .map(|j| PmSpec::new(j, 6.0 * (j + 1) as f64 + 5.0))
            .collect();
        let big = pms_n * (pms_n + 1) / 2;
        let mut fleet: Vec<VmSpec> = (0..big).map(|i| vm(i, 6.0, 3.0)).collect();
        fleet.extend((big..big + 2 * pms_n).map(|i| vm(i, 2.0, 1.0)));
        let mut state = PlacementState::new();
        assert_matches_first_fit(&mut state, &fleet, &farm, "memo overflow");
        first_fit_batch_with(&mut state, &fleet, &farm, &BaseStrategy).unwrap();
        assert_eq!((state.memo.live, state.memo.oldest), (MEMO_SEEDS, 5));
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

    /// A farm where each entry of `gaps` contributes that many PMs too
    /// small for any test VM (capacity 1 against `R_b ≥ 2`: below every
    /// strategy's threshold even when empty) followed by one roomy PM —
    /// so, packed in index order ([`PmOrder::by_index`]), `gaps[i]` is
    /// exactly the distance the First-Fit cursor has to cross between
    /// admitting PMs. (The pool's own order puts every roomy PM first:
    /// the window and the tree work in positions, so these tests lay the
    /// positions out themselves.)
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

    /// The four strategies' packs of `vms` on `farm` in index order
    /// through `state`, each checked against `first_fit` in the same
    /// order (and, in the pool's own order, the two public packers
    /// against each other); returns the tree climbs of each index-order
    /// pack.
    fn assert_matches_first_fit(
        state: &mut PlacementState,
        vms: &[VmSpec],
        farm: &[PmSpec],
        what: &str,
    ) -> [u64; 4] {
        let (q, rbex) = all_strategies();
        let strategies: [&dyn Strategy; 4] = [&q, &PeakStrategy, &BaseStrategy, &rbex];
        let by_index = PmOrder::by_index(farm);
        strategies.map(|s| {
            assert_eq!(
                first_fit_batch(vms, farm, s),
                first_fit(vms, farm, s),
                "{what}: batch diverged for {}",
                s.name()
            );
            assert_eq!(
                first_fit_batch_in(state, vms, &by_index, s),
                first_fit_in(vms, &by_index, s),
                "{what}: batch diverged in index order for {}",
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
        let by_index = PmOrder::by_index(&farm);
        for s in strategies {
            let mut state = PlacementState::new();
            first_fit_batch_in(&mut state, &fleet, &by_index, s).unwrap();
            search_all(&mut state, s.name());
            // Continue the pack by hand: one more class, copy by copy.
            let extra = vm(9000, 4.0, 3.0);
            let threshold = s.demand(&extra) - PRUNE_SLACK;
            let mut from = 0;
            for _ in 0..25 {
                let Some(j) = state.index.first_admitting(from, threshold) else {
                    break;
                };
                let load = state.load(j);
                if s.admits(&load, &extra, farm[j].capacity) {
                    let load = load.with(&extra);
                    state.commit(j..j + 1, load, 1, by_index.capacities(), s);
                }
                from = j + 1;
            }
            search_all(&mut state, s.name());
        }
    }

    #[test]
    fn paper_density_pack_stays_off_the_tree() {
        // The benchmark's class-heavy shape at a size a debug build packs
        // in milliseconds: Table-I VMs, four to a PM. In capacity order a
        // run searches past the window where it meets a stretch of PMs an
        // earlier class filled (three such stretches here), and reads on
        // there: the tree is never built. Every other gap fits the window
        // (`packing_bench` holds the full 1M-VM fleet to the same counts).
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
        assert_eq!(state.last_pack().tree_probes, 3);
        assert_eq!(state.last_pack().tree_builds, 0, "the tree was never built");
        assert!(!state.index.is_clean());
    }

    /// The candidate PMs and rejections of a per-PM First Fit over the
    /// runs `place_run` is given: each fill's PM is the first position at
    /// or after the cursor whose headroom reaches the threshold, found by
    /// a linear scan, and its copies are counted by repeated admits — one
    /// candidate per PM, with no stretch, memo or index.
    pub(super) fn per_pm_candidates(
        vms: &[VmSpec],
        order: &PmOrder,
        s: &dyn Strategy,
    ) -> (u64, u64) {
        let (members, runs) = batch_runs(vms, s);
        let caps = order.capacities();
        let mut loads = vec![PmLoad::empty(); caps.len()];
        let (mut candidates, mut rejected) = (0, 0);
        for run in &runs {
            let vm = &vms[members[run.start]];
            let threshold = s.demand(vm) - PRUNE_SLACK;
            let (mut placed, mut from) = (0, 0);
            while placed < run.len {
                let Some(j) =
                    (from..caps.len()).find(|&p| s.headroom(&loads[p], caps[p]) >= threshold)
                else {
                    return (candidates, rejected);
                };
                let (load, c) = repeated_admits(s, loads[j], vm, caps[j], run.len - placed);
                candidates += 1;
                rejected += u64::from(c == 0);
                (loads[j], placed, from) = (load, placed + c, j + 1);
            }
        }
        (candidates, rejected)
    }

    /// Packs `vms` on `order` through `state` and holds the result to
    /// `first_fit` in the same order and the candidate counts to
    /// [`per_pm_candidates`]; returns the pack's profile.
    fn assert_stretched_pack_matches(
        state: &mut PlacementState,
        vms: &[VmSpec],
        order: &PmOrder,
        s: &dyn Strategy,
        what: &str,
    ) -> PackProfile {
        assert_eq!(
            first_fit_batch_in(state, vms, order, s),
            first_fit_in(vms, order, s),
            "{what}: batch diverged for {}",
            s.name()
        );
        let pack = state.last_pack();
        assert_eq!(
            (pack.probes, pack.rejected_probes),
            per_pm_candidates(vms, order, s),
            "{what}: candidate counts for {}",
            s.name()
        );
        assert!(pack.stretches <= pack.probes - pack.rejected_probes);
        pack
    }

    #[test]
    fn table_i_fleet_fills_in_tens_of_stretches() {
        // 10k Table-I VMs on a U(80, 100) pool: the paper-density pack's
        // shape. Every fill that starts a stretch is a search and a fold;
        // the like PMs after it take the same copies with neither, and
        // still count one candidate each.
        use bursty_workload::{FleetGenerator, WorkloadPattern};
        let q = QueueStrategy::build(16, 0.01, 0.09, 0.01);
        let mut g = FleetGenerator::new(1);
        let vms = g.vms_table_i(10_000, WorkloadPattern::EqualSpike);
        let farm = g.pms(2_500);
        let order = PmOrder::of(&farm);
        let mut state = PlacementState::new();
        assert_eq!(
            first_fit_batch_with(&mut state, &vms, &farm, &q),
            first_fit(&vms, &farm, &q)
        );
        let pack = assert_stretched_pack_matches(&mut state, &vms, &order, &q, "table-i");
        let fills = pack.probes - pack.rejected_probes;
        assert!(fills >= 1_000, "{fills} fills");
        assert!(
            (10..100).contains(&pack.stretches),
            "{} stretches of {fills} fills",
            pack.stretches
        );
        let (rbex, by_index) = (ReserveStrategy, PmOrder::by_index(&farm));
        let strategies: [&dyn Strategy; 4] = [&q, &PeakStrategy, &BaseStrategy, &rbex];
        for s in strategies {
            assert_stretched_pack_matches(&mut state, &vms, &order, s, "table-i");
            assert_stretched_pack_matches(&mut state, &vms, &by_index, s, "table-i by index");
        }
    }

    #[test]
    fn a_run_cut_mid_stretch_ends_on_a_fold() {
        // Ten like PMs that each take ten copies under RB. 30 copies fill
        // three in one stretch, the last of them with exactly the copies
        // left; 35 stretch over three and fold five onto the fourth.
        let farm = pms(&[100.0; 10]);
        let order = PmOrder::of(&farm);
        let mut state = PlacementState::new();
        for (want, stretches, fills) in [(30, 1, 3), (35, 2, 4), (1, 1, 1), (100, 1, 10)] {
            let vms: Vec<VmSpec> = (0..want).map(|i| vm(i, 10.0, 1.0)).collect();
            let pack =
                assert_stretched_pack_matches(&mut state, &vms, &order, &BaseStrategy, "cut");
            assert_eq!(
                (pack.stretches, pack.probes, pack.rejected_probes),
                (stretches, fills, 0),
                "want {want}"
            );
        }
        // One copy too many: the stretch covers the farm and the run
        // fails on the copy after it, naming the VM `first_fit` names.
        let vms: Vec<VmSpec> = (0..101).map(|i| vm(i, 10.0, 1.0)).collect();
        let err = first_fit_batch_in(&mut state, &vms, &order, &BaseStrategy);
        assert_eq!(err, first_fit_in(&vms, &order, &BaseStrategy));
        assert_eq!(err.unwrap_err().vm_id, 100);
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
    const GOLDEN_PMS_USED: usize = 108;
    const GOLDEN_CHECKSUM: usize = 26_050_763;

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
        let rbex = ReserveStrategy;
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

    /// A pool whose capacities repeat: a few levels, each held by a
    /// random number of PMs in random index order, so the pool's order
    /// lays out stretches of like PMs.
    fn repeated_capacity_farm() -> impl PropStrategy<Value = Vec<PmSpec>> {
        proptest::collection::vec(0usize..4, 2..120).prop_map(|levels| {
            levels
                .into_iter()
                .enumerate()
                .map(|(j, l)| PmSpec::new(j, [45.0, 60.0, 60.5, 100.0][l]))
                .collect()
        })
    }

    /// One to four classes of a few copies to a few hundred each, members
    /// interleaved by index, so runs end anywhere in a stretch.
    fn mixed_class_fleet() -> impl PropStrategy<Value = Vec<VmSpec>> {
        const SPECS: [(f64, f64); 5] =
            [(5.0, 3.0), (10.0, 4.0), (4.0, 9.0), (20.0, 2.0), (7.5, 7.5)];
        proptest::collection::vec((0usize..5, 1usize..300), 1..5).prop_map(|classes| {
            let mut picks: Vec<usize> = classes
                .iter()
                .flat_map(|&(spec, count)| std::iter::repeat_n(spec, count))
                .collect();
            // A fixed shuffle: stride through the picks by a step prime
            // to their number.
            let n = picks.len();
            let gcd = |mut a: usize, mut b: usize| {
                while b != 0 {
                    (a, b) = (b, a % b);
                }
                a
            };
            let stride = (7..).find(|&s| gcd(s, n) == 1).unwrap();
            picks = (0..n).map(|i| picks[(i * stride) % n]).collect();
            picks
                .into_iter()
                .enumerate()
                .map(|(i, k)| VmSpec::new(i, 0.01, 0.09, SPECS[k].0, SPECS[k].1))
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn stretches_match_first_fit_on_repeated_capacities(
            vms in mixed_class_fleet(),
            farm in repeated_capacity_farm(),
        ) {
            use crate::pack::first_fit_in;
            let q = QueueStrategy::build(16, 0.01, 0.09, 0.01);
            let rbex = ReserveStrategy;
            let strategies: [&dyn Strategy; 4] = [&q, &PeakStrategy, &BaseStrategy, &rbex];
            let (order, by_index) = (PmOrder::of(&farm), PmOrder::by_index(&farm));
            let mut state = PlacementState::new();
            for s in strategies {
                for order in [&*order, &by_index] {
                    prop_assert_eq!(
                        first_fit_batch_in(&mut state, &vms, order, s),
                        first_fit_in(&vms, order, s),
                        "batch diverged for {}",
                        s.name()
                    );
                    let pack = state.last_pack();
                    prop_assert_eq!(
                        (pack.probes, pack.rejected_probes),
                        super::tests::per_pm_candidates(&vms, order, s),
                        "candidate counts for {}",
                        s.name()
                    );
                }
            }
        }
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
