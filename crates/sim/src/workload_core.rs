//! Structure-of-arrays fast path for the engine's per-step hot loop.
//!
//! [`Simulator::run`] spends almost all of its time on two per-VM jobs:
//! evolving every ON-OFF chain and keeping the per-PM `observed` vector
//! equal to the sum of hosted demands. [`WorkloadCore`] flattens the VM
//! specs once per run, in the form each layout's arm reads: integer
//! flip thresholds and a demand table under `Shared`, a class table
//! under `ClassAggregated`.
//!
//! Two layouts, one determinism contract (DESIGN.md §8):
//!
//! * [`RngLayout::Shared`] — one sequential `StdRng`, drawn in VM order,
//!   each PM's demands summed from `0.0` in ascending VM order. These
//!   are *exactly* the draws and sums of the pre-SoA engine, so outcomes
//!   stay bit-identical (frozen by `sim/tests/golden.rs`) — but a step
//!   does `n` draws and then work in proportion to what changed: a flip
//!   is an integer compare (`flip_threshold`), and a PM's sum is
//!   re-derived only when one of its VMs flipped or the engine reported
//!   a membership change (`SharedState`; DESIGN.md §8 has the exactness
//!   arguments). Bursty VMs flip rarely, so most sums carry over.
//! * [`RngLayout::ClassAggregated`] — same-class VMs on a PM share one
//!   ON-counter cell, evolving by the paper's Eq. 12 chain; per-PM
//!   demand is `counter × class demand`. The kernel
//!   (`ClassKernel::evolve_chunk`) is *next-event*: each cell stores the
//!   step of its next ON-count change, each location the least of its
//!   cells', and a step scans the locations and touches only the cells
//!   due. At a change the cell jumps by its Eq. 12 row conditional on
//!   leaving (one keyed draw) and draws the geometric skip to its next
//!   change (a second); a *dense* cell — a change likelier than not, or
//!   a count past the jump tables — draws `ON→OFF ~ B(n_on, p_off)` and
//!   `OFF→ON ~ B(n_off, p_on)` every step instead. Every draw is keyed
//!   on `(seed, location, class, counter)`. Cost scales with locations
//!   scanned and cells that change, not fleet size. Thread-count invariant (each PM's demand is computed
//!   wholly by one worker from its own cells) and invariant under class
//!   enumeration order (the class table is sorted by content, cell keys
//!   hash class *contents*). Individual VMs no longer own sample paths:
//!   the engine re-materializes per-VM ON flags lazily at decision
//!   points via the `class_sync_*` hooks (canonical rule: lowest VM
//!   indices of a class at a location are ON first), and agreement with
//!   `Shared` is distributional — per-PM ON-count marginals, CVR and
//!   energy within certified Wilson intervals — never bit-exact.
//!
//! The class layout's workers are plain `std::thread::scope` spawns (the
//! workspace vendors no thread-pool crate), so each step pays a
//! spawn/join round trip — profitable for large fleets, pure overhead
//! for small ones.
//!
//! **The `observed` buffer is the carried state.** Neither layout keeps
//! a private copy of the per-PM sums: [`WorkloadCore::step`] re-derives
//! `observed[j]` in place (the same fold, from `0.0`, in the same
//! order) only for PMs it knows to be stale, and leaves every other
//! entry as the previous step left it. So the caller hands in the *same*
//! buffer on every step and reports every write of its own:
//! [`WorkloadCore::vm_moved`] and [`WorkloadCore::pm_crashed`] mark the
//! PMs whose membership changed, and the engine writes no other entry.
//! The first step of a fresh core, and
//! the first after [`WorkloadCore::class_init`] or
//! [`WorkloadCore::restore_mode`], re-derives every PM from whatever the
//! buffer holds. [`WorkloadCore::rederived_all`] and
//! [`WorkloadCore::for_each_rederived`] say which entries the last step
//! wrote, which is what lets the engine keep its own per-PM derived
//! state without a pass over the pool.
//!
//! [`Simulator::run`]: crate::engine::Simulator::run
//! [`RngLayout::Shared`]: crate::config::RngLayout::Shared
//! [`RngLayout::ClassAggregated`]: crate::config::RngLayout::ClassAggregated

use crate::config::RngLayout;
use crate::members::Members;
use crate::rng::binomial_table::{CacheStats, TableCache, DEFAULT_ENTRY_BUDGET};
use crate::rng::{
    binomial_from_u01, bits_to_u01, class_cell_key, class_hash, flip_threshold, keyed_bits,
};
use bursty_markov::AggregateChain;
use bursty_workload::classes::{intern_classes, VmClass};
use bursty_workload::VmSpec;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::thread;

/// Fixed PM-chunk width of the class-aggregated layout. Each PM's
/// demand is produced entirely inside one chunk (cells never span PMs),
/// so any chunking is thread-count invariant; the fixed width just
/// keeps scheduling deterministic and cache-sized.
pub(crate) const CLASS_PM_CHUNK: usize = 512;

/// Per-class chain parameters of the class-aggregated layout, one entry
/// per *distinct* VM class in canonical order (sorted by the exact
/// [`VmClass::key`] bit patterns — a function of the class *contents*,
/// so indices are invariant under fleet enumeration order).
struct ClassInfo {
    p_on: f64,
    p_off: f64,
    demand_off: f64,
    demand_on: f64,
    /// Content hash of the class key, the class axis of every cell's
    /// stream coordinates.
    hash: u64,
    /// Index of `p_off` in the per-chunk table caches' `p` registry.
    slot_off: u32,
    /// Index of `p_on` in the per-chunk table caches' `p` registry.
    slot_on: u32,
    /// The largest cell count the jump tables cover (0 for a class with
    /// a degenerate probability): a cell past it is dense.
    cap: u32,
    /// Index of the class's `(count 1, n_on 0)` entry in
    /// [`JumpTables::entries`].
    base: u32,
}

/// Registry of the distinct switch probabilities of `classes`, ascending:
/// the axis the sampler caches index tables by (alongside `n`), so the
/// hot loop never hashes.
fn p_registry(classes: &[ClassInfo]) -> Vec<f64> {
    let mut p_values: Vec<f64> = classes.iter().flat_map(|c| [c.p_off, c.p_on]).collect();
    p_values.sort_by(f64::total_cmp);
    p_values.dedup_by(|a, b| a.to_bits() == b.to_bits());
    p_values
}

/// One `(location, class)` ON-counter of the class-aggregated layout:
/// `count` resident VMs of `class`, `n_on` of them currently ON, the
/// pre-mixed stream key of the cell's draws, and `next`, the step of the
/// cell's next ON-count change. A location is a PM or the displaced-VM
/// limbo pool; each location's cells stay sorted by class index so
/// evolution and demand accumulation order are canonical. The location
/// itself is not stored: it is the chunk's CSR run the cell sits in.
///
/// `next` is [`UNSCHEDULED`] for a cell the coming step must visit
/// whatever it draws: a dense one, and one whose counts changed since
/// its schedule was drawn (built, moved into or out of, merged into the
/// limbo pool), which draws its schedule then. [`NEVER`] is a schedule
/// past any run. Run state: a checkpoint carries it.
///
/// Layout: 24 bytes, no padding — `key` (8), `class`, `count`, `n_on`,
/// `next` (4 each).
struct Cell {
    key: u64,
    class: u32,
    count: u32,
    n_on: u32,
    next: u32,
}

impl Cell {
    fn new(
        class: u32,
        count: u32,
        n_on: u32,
        loc: usize,
        seed: u64,
        classes: &[ClassInfo],
    ) -> Self {
        Self {
            key: class_cell_key(seed, loc as u64, classes[class as usize].hash),
            class,
            count,
            n_on,
            next: UNSCHEDULED,
        }
    }
}

/// The `next` of a cell the coming step visits and, if it is sparse,
/// schedules: its counts changed, or it is dense. No schedule is ever
/// left at 0: a cell scheduled for step 0 is stepped at once.
const UNSCHEDULED: u32 = 0;

/// The `next` of a cell whose change lies past any run, and the
/// location step of a location without cells.
const NEVER: u32 = u32::MAX;

/// The counter space of the draws that schedule a cell afresh (its
/// counts changed since its last draw, or it left a dense state): the
/// high half, apart from the per-step pair `2·step`, `2·step + 1`. A
/// cell draws at most one schedule per step, at its visit, so no
/// counter of its stream is drawn twice.
const RESCHEDULE: u64 = 1 << 63;

/// The largest cell count a class's jump tables cover, before the
/// fleet-wide budget below shrinks it.
const JUMP_CAP: u32 = 32;

/// The most thresholds the jump tables of a run may hold (8 MiB): a
/// fleet of many large classes gets a lower common cap, so more of its
/// cells are dense.
const JUMP_BUDGET: usize = 1 << 20;

/// A state that changes with probability above this in one step (an
/// expected skip under two steps) is dense: drawing its binomial pair
/// every step is cheaper than a jump and a skip every other step.
const DENSE_ABOVE: f64 = 0.5;

/// The threshold count of a class capped at `cap`, an upper bound (a
/// dense state stores none): `Σ_{k ≤ cap} k·(k + 1)`.
fn threshold_bound(cap: u32) -> usize {
    let k = cap as usize;
    k * (k + 1) * (k + 2) / 3
}

/// The index of state `(count, n_on)` among a class's entries, counts
/// `1..` in order, each with its `count + 1` states.
#[inline]
fn state_index(count: u32, n_on: u32) -> usize {
    let k = count as usize;
    (k - 1) * (k + 2) / 2 + n_on as usize
}

/// Sparse state `(count, n_on)` of `info`: returns its skip factor
/// `1 / ln_1p(−h)`, `h = Σ_{j ≠ i} p_ij` the chance its ON count
/// changes in one step (Eq. 12 row `i`; a compensating ON and OFF flip
/// leaves the count where it is), and appends its jump thresholds to
/// `out`: over the `count` states a change reaches (`j ≠ n_on`,
/// ascending), the cumulative row conditional on leaving, `p_ij / h`,
/// in 53-bit draw units, the last `u64::MAX` so every draw lands.
/// `None`, with nothing appended, when the state is dense: past the
/// class's cap, a degenerate class, or `h` above [`DENSE_ABOVE`].
fn sparse_state(info: &ClassInfo, count: u32, n_on: u32, out: &mut Vec<u64>) -> Option<f64> {
    if count > info.cap {
        return None;
    }
    let i = n_on as usize;
    let row = AggregateChain::new(count as usize, info.p_on, info.p_off).transition_row(i);
    let leave: f64 = row
        .iter()
        .enumerate()
        .filter(|&(j, _)| j != i)
        .map(|(_, p)| p)
        .sum();
    if !(leave > 0.0 && leave <= DENSE_ABOVE) {
        return None;
    }
    let mut cum = 0.0;
    for (j, p) in row.iter().enumerate() {
        if j != i {
            cum += p;
            out.push(flip_threshold(cum / leave));
        }
    }
    *out.last_mut().expect("a cell of one VM or more") = u64::MAX;
    Some((-leave).ln_1p().recip())
}

/// The steps from the one a schedule is drawn for to the change it
/// draws, from a 53-bit draw: `G ≥ 1` geometric with
/// `P(G > g) = stay^g`, by inversion of `u = (bits + 1)·2⁻⁵³ ∈ (0, 1]`.
/// Saturates past every run.
#[inline]
fn skip(bits: u64, inv_ln_stay: f64) -> u64 {
    let u = (bits + 1) as f64 * (1.0 / (1u64 << 53) as f64);
    (u.ln() * inv_ln_stay) as u64 + 1
}

/// The ON count a change from `n_on` lands on, by the thresholds of
/// [`sparse_state`].
#[inline]
fn jump(bits: u64, thresholds: &[u64], n_on: u32) -> u32 {
    let at = thresholds
        .iter()
        .position(|&t| bits < t)
        .expect("the last threshold takes every draw") as u32;
    at + u32::from(at >= n_on)
}

/// `step + steps` as a `next`, [`NEVER`] past a run.
#[inline]
fn step_plus(step: u64, steps: u64) -> u32 {
    step.saturating_add(steps).min(u64::from(NEVER)) as u32
}

/// One state's entry in the jump tables.
#[derive(Clone, Copy)]
struct Jump {
    /// [`sparse_state`]'s skip factor (unread when dense).
    inv_ln_stay: f64,
    /// Offset of the state's `count` thresholds in
    /// [`JumpTables::thresholds`], or [`DENSE`].
    off: u32,
}

/// The `off` of a dense state's entry.
const DENSE: u32 = u32::MAX;

/// Every class's jump tables, built once per run from the fleet alone
/// ([`WorkloadCore::new`]): for each class, each count up to its cap
/// and each ON count, the state's skip factor and the thresholds of its
/// jump. Read-only while the kernel runs, shared by every worker.
struct JumpTables {
    entries: Vec<Jump>,
    thresholds: Vec<u64>,
}

impl JumpTables {
    /// Sets each class's `cap` and `base` from its population and builds
    /// the tables.
    fn build(classes: &mut [ClassInfo], class_of: &[u32]) -> Self {
        let mut population = vec![0u32; classes.len()];
        for &c in class_of {
            population[c as usize] += 1;
        }
        let degenerate = |info: &ClassInfo| {
            !(info.p_on > 0.0 && info.p_on < 1.0 && info.p_off > 0.0 && info.p_off < 1.0)
        };
        let caps = |cap: u32| {
            classes
                .iter()
                .zip(&population)
                .map(move |(info, &pop)| if degenerate(info) { 0 } else { cap.min(pop) })
        };
        let mut cap = JUMP_CAP;
        while cap > 0 && caps(cap).map(threshold_bound).sum::<usize>() > JUMP_BUDGET {
            cap -= 1;
        }
        let caps: Vec<u32> = caps(cap).collect();
        let mut tables = Self {
            entries: Vec::new(),
            thresholds: Vec::new(),
        };
        for (info, cap) in classes.iter_mut().zip(caps) {
            info.cap = cap;
            info.base = tables.entries.len() as u32;
            for count in 1..=cap {
                for n_on in 0..=count {
                    let off = tables.thresholds.len() as u32;
                    let entry = match sparse_state(info, count, n_on, &mut tables.thresholds) {
                        Some(inv_ln_stay) => Jump { inv_ln_stay, off },
                        None => Jump {
                            inv_ln_stay: f64::NAN,
                            off: DENSE,
                        },
                    };
                    tables.entries.push(entry);
                }
            }
        }
        tables
    }
}

/// What one fixed chunk of [`CLASS_PM_CHUNK`] locations owns: its cells,
/// its sampler, each location's next change and its stale-PM lists.
/// Each chunk is evolved by exactly one worker per step, and the chunk
/// partition is a function of `m` only, so the summed counters are
/// invariant in the thread count — and a structural edit (a move, a
/// crash) shifts one chunk's arrays, never the fleet's.
struct ClassChunk {
    /// The chunk's cells, location by location, sorted by class within
    /// each location. The hot loop only mutates `n_on` and `next`.
    cells: Vec<Cell>,
    /// CSR offsets over `cells`, local to the chunk: the location `l`
    /// places past the chunk's first owns
    /// `cells[offsets[l] as usize..offsets[l + 1] as usize]`.
    offsets: Vec<u32>,
    /// Per location, the least `next` of its cells ([`NEVER`] without
    /// cells, [`UNSCHEDULED`] after an edit): the step the location is
    /// next due. The only array a step reads in full.
    due: Vec<u32>,
    /// The chunk's memoized binomial sampler, for dense cells.
    cache: TableCache,
    /// Jumps drawn from the jump tables since construction.
    jumps: u64,
    /// Cells drawn for since construction: jumps and dense steps.
    events: u64,
    /// The chunk's PMs whose `observed` entry is stale: a cell changed
    /// `n_on` this step, or the engine reported a write since the last
    /// one. Duplicates are harmless (a re-fold is idempotent); handed to
    /// `refolded` by every step.
    dirty: Vec<u32>,
    /// The locations the last step folded again (the limbo pool, which
    /// has no `observed` entry, may be listed).
    refolded: Vec<u32>,
}

impl ClassChunk {
    fn new(locations: usize, p_values: &[f64]) -> Self {
        Self {
            cells: Vec::new(),
            offsets: vec![0; locations + 1],
            due: vec![NEVER; locations],
            cache: TableCache::new(p_values, DEFAULT_ENTRY_BUDGET),
            jumps: 0,
            events: 0,
            dirty: Vec::new(),
            refolded: Vec::new(),
        }
    }

    /// The cell range of the chunk's `l`-th location.
    #[inline]
    fn range(&self, l: usize) -> std::ops::Range<usize> {
        self.offsets[l] as usize..self.offsets[l + 1] as usize
    }

    /// Takes one VM of `class`, ON iff `was_on`, out of location `l`.
    fn take_vm(&mut self, l: usize, class: u32, was_on: bool) {
        let range = self.range(l);
        let at = range.start
            + self.cells[range]
                .binary_search_by_key(&class, |cell| cell.class)
                .expect("moving VM has a source cell");
        let cell = &mut self.cells[at];
        cell.count -= 1;
        cell.n_on -= u32::from(was_on);
        cell.next = UNSCHEDULED;
        self.due[l] = UNSCHEDULED;
        if cell.count == 0 {
            self.cells.remove(at);
            for o in &mut self.offsets[l + 1..] {
                *o -= 1;
            }
        }
    }

    /// Adds the residents of `cell` to its class's counter at location
    /// `l`, inserting the cell where none exists yet.
    fn put(&mut self, l: usize, cell: Cell) {
        let range = self.range(l);
        self.due[l] = UNSCHEDULED;
        match self.cells[range.clone()].binary_search_by_key(&cell.class, |c| c.class) {
            Ok(at) => {
                let into = &mut self.cells[range.start + at];
                into.count += cell.count;
                into.n_on += cell.n_on;
                into.next = UNSCHEDULED;
            }
            Err(at) => {
                // A full chunk grows by a sixteenth, not by doubling:
                // migrations land in chunks all over the pool, and a
                // doubled 12k-cell chunk per landing would hold ~10 MB
                // of empty cells at paper density. The insert already
                // shifts the chunk's tail, so the extra copies are noise.
                if self.cells.len() == self.cells.capacity() {
                    self.cells.reserve_exact(self.cells.len() / 16 + 16);
                }
                self.cells.insert(range.start + at, cell);
                for o in &mut self.offsets[l + 1..] {
                    *o += 1;
                }
            }
        }
    }

    /// Sets every location's `due` from its cells.
    fn recompute_due(&mut self) {
        for l in 0..self.due.len() {
            self.due[l] = self.cells[self.range(l)]
                .iter()
                .map(|cell| cell.next)
                .min()
                .unwrap_or(NEVER);
        }
    }
}

/// Which kernel implementation steps the class layout.
#[derive(Clone, Copy)]
enum Sampler {
    /// The jump tables and the memoized binomial tables, visiting only
    /// the locations due (what the engine runs).
    Tables,
    /// The same stream computed the slow way: every location visited,
    /// each jump row and skip factor derived from Eq. 12 where it is
    /// used, each dense draw by the pmf-recurrence walk. The tables'
    /// oracle, bit for bit.
    Walk,
}

/// What differs between the two kernel implementations: where a
/// state's skip factor and jump come from, and how a dense cell draws.
trait CellDraws {
    /// [`sparse_state`]'s skip factor.
    fn stay(&mut self, info: &ClassInfo, count: u32, n_on: u32) -> Option<f64>;
    /// The ON count a change from sparse state `(count, n_on)` lands on.
    fn jump(&mut self, info: &ClassInfo, count: u32, n_on: u32, bits: u64) -> u32;
    /// A dense step's `B(n_on, p_off)` and `B(n_off, p_on)` draws.
    fn pair(&mut self, info: &ClassInfo, bits: [u64; 2], n_on: u32, n_off: u32) -> (u32, u32);
}

/// [`Sampler::Tables`]' draws.
struct TableDraws<'a> {
    tables: &'a JumpTables,
    cache: &'a mut TableCache,
    jumps: u64,
}

impl TableDraws<'_> {
    #[inline(always)]
    fn entry(&self, info: &ClassInfo, count: u32, n_on: u32) -> Option<Jump> {
        if count > info.cap {
            return None;
        }
        let entry = self.tables.entries[info.base as usize + state_index(count, n_on)];
        (entry.off != DENSE).then_some(entry)
    }
}

impl CellDraws for TableDraws<'_> {
    #[inline]
    fn stay(&mut self, info: &ClassInfo, count: u32, n_on: u32) -> Option<f64> {
        self.entry(info, count, n_on).map(|e| e.inv_ln_stay)
    }

    #[inline]
    fn jump(&mut self, info: &ClassInfo, count: u32, n_on: u32, bits: u64) -> u32 {
        let off = self.entry(info, count, n_on).expect("a sparse state").off as usize;
        self.jumps += 1;
        jump(
            bits,
            &self.tables.thresholds[off..off + count as usize],
            n_on,
        )
    }

    #[inline]
    fn pair(
        &mut self,
        info: &ClassInfo,
        [k_out, k_in]: [u64; 2],
        n_on: u32,
        n_off: u32,
    ) -> (u32, u32) {
        (
            self.cache.draw_bits(info.slot_off as usize, k_out, n_on),
            self.cache.draw_bits(info.slot_on as usize, k_in, n_off),
        )
    }
}

/// [`Sampler::Walk`]'s draws; `row` is the scratch a jump's thresholds
/// are derived into.
struct WalkDraws {
    row: Vec<u64>,
}

impl CellDraws for WalkDraws {
    fn stay(&mut self, info: &ClassInfo, count: u32, n_on: u32) -> Option<f64> {
        self.row.clear();
        sparse_state(info, count, n_on, &mut self.row)
    }

    fn jump(&mut self, info: &ClassInfo, count: u32, n_on: u32, bits: u64) -> u32 {
        self.stay(info, count, n_on).expect("a sparse state");
        jump(bits, &self.row, n_on)
    }

    fn pair(
        &mut self,
        info: &ClassInfo,
        [k_out, k_in]: [u64; 2],
        n_on: u32,
        n_off: u32,
    ) -> (u32, u32) {
        (
            binomial_from_u01(bits_to_u01(k_out), n_on, info.p_off),
            binomial_from_u01(bits_to_u01(k_in), n_off, info.p_on),
        )
    }
}

/// One step's read-only view of the class layout, as each worker sees it.
struct ClassKernel<'a> {
    classes: &'a [ClassInfo],
    tables: &'a JumpTables,
    step: u64,
    sampler: Sampler,
    primed: bool,
}

impl ClassKernel<'_> {
    /// Evolves `chunk`, whose first location is `lo`, one step; `obs` is
    /// the chunk's own slice of `observed` (the limbo pool has no
    /// entry). Only a stale PM's entry is folded again (DESIGN.md §8).
    fn evolve_chunk(&self, lo: usize, chunk: &mut ClassChunk, obs: &mut [f64]) {
        let ClassChunk {
            cells,
            offsets,
            due,
            cache,
            jumps,
            events,
            dirty,
            refolded,
        } = chunk;
        // The PMs the engine wrote since the last step; the step folds
        // the ones whose counters move as it goes.
        let marked = dirty.len();
        match self.sampler {
            Sampler::Tables => {
                // The locations due this step, found without a branch on
                // the test: each index is written, and kept when due.
                let step = self.step as u32;
                let mut list = [0u16; CLASS_PM_CHUNK];
                let mut n = 0;
                for (l, &next) in due.iter().enumerate() {
                    list[n] = l as u16;
                    n += usize::from(next <= step);
                }
                let mut draws = TableDraws {
                    tables: self.tables,
                    cache,
                    jumps: 0,
                };
                *events += self.step_locations(
                    lo,
                    cells,
                    offsets,
                    due,
                    dirty,
                    obs,
                    &list[..n],
                    &mut draws,
                );
                *jumps += draws.jumps;
            }
            Sampler::Walk => {
                let mut draws = WalkDraws { row: Vec::new() };
                let every: Vec<u16> = (0..due.len() as u16).collect();
                *events +=
                    self.step_locations(lo, cells, offsets, due, dirty, obs, &every, &mut draws);
            }
        }

        if self.primed {
            for &j in &dirty[..marked] {
                // The limbo pool (the last location) has no entry.
                let l = j as usize - lo;
                if let Some(sum) = obs.get_mut(l) {
                    *sum = self.fold(cells, offsets, l);
                }
            }
        } else {
            for (l, sum) in obs.iter_mut().enumerate() {
                *sum = self.fold(cells, offsets, l);
            }
        }
        refolded.clear();
        std::mem::swap(dirty, refolded);
    }

    /// Location `l`'s demand: its cells' `n_on × demand_on + n_off ×
    /// demand_off`, folded from `0.0` in class order.
    #[inline]
    fn fold(&self, cells: &[Cell], offsets: &[u32], l: usize) -> f64 {
        cells[offsets[l] as usize..offsets[l + 1] as usize]
            .iter()
            .fold(0.0, |demand, cell| {
                let info = &self.classes[cell.class as usize];
                demand
                    + (f64::from(cell.n_on) * info.demand_on
                        + f64::from(cell.count - cell.n_on) * info.demand_off)
            })
    }

    /// Steps the due cells of `locations` (chunk-local, ascending), sets
    /// each one's `due` again, and where a counter moved lists it stale
    /// and, once primed, folds its `obs` entry while its cells are in
    /// cache. Returns the cells drawn for.
    #[allow(clippy::too_many_arguments)]
    fn step_locations<D: CellDraws>(
        &self,
        lo: usize,
        cells: &mut [Cell],
        offsets: &[u32],
        due: &mut [u32],
        dirty: &mut Vec<u32>,
        obs: &mut [f64],
        locations: &[u16],
        draws: &mut D,
    ) -> u64 {
        let step = self.step as u32;
        let mut events = 0;
        // When the due locations are few, their cells sit far apart:
        // each one's first cell is loaded `LOOKAHEAD` locations early, so
        // its cache miss is in flight while earlier ones are stepped.
        // When most are due (dense cells) the cells stream in order and
        // the extra loads only cost.
        const LOOKAHEAD: usize = 12;
        let spread = 4 * locations.len() < due.len();
        let first_next = |cells: &[Cell], l: u16| {
            cells
                .get(offsets[usize::from(l)] as usize)
                .map_or(0, |cell| cell.next)
        };
        let mut ahead = 0;
        if spread {
            for &l in &locations[..locations.len().min(LOOKAHEAD)] {
                ahead ^= first_next(cells, l);
            }
        }
        for (i, &l) in locations.iter().enumerate() {
            if let (true, Some(&later)) = (spread, locations.get(i + LOOKAHEAD)) {
                ahead ^= first_next(cells, later);
            }
            let l = usize::from(l);
            let (mut changed, mut next) = (false, NEVER);
            for cell in &mut cells[offsets[l] as usize..offsets[l + 1] as usize] {
                if cell.next <= step {
                    let n_on = cell.n_on;
                    events += u64::from(self.visit(cell, draws));
                    changed |= cell.n_on != n_on;
                }
                next = next.min(cell.next);
            }
            due[l] = next;
            if changed {
                dirty.push((lo + l) as u32);
                if let (true, Some(sum)) = (self.primed, obs.get_mut(l)) {
                    *sum = self.fold(cells, offsets, l);
                }
            }
        }
        std::hint::black_box(ahead);
        events
    }

    /// Steps one cell due this step. A dense cell draws its departures
    /// and arrivals, `B(n_on, p_off)` and `B(n_off, p_on)` at counters
    /// `2·step` and `2·step + 1`, and stays due. A sparse one first draws
    /// its schedule if it has none; at its change it jumps (counter
    /// `2·step`) and draws the skip to its next change from the state it
    /// lands in (counter `2·step + 1`). Between changes `p_ii` is fixed
    /// by the counts, so the geometric skip is exact. Returns whether
    /// the cell drew a step.
    #[inline(always)]
    fn visit<D: CellDraws>(&self, cell: &mut Cell, draws: &mut D) -> bool {
        let info = &self.classes[cell.class as usize];
        let step = self.step;
        let Some(inv_ln_stay) = draws.stay(info, cell.count, cell.n_on) else {
            let bits = [
                keyed_bits(cell.key, 2 * step),
                keyed_bits(cell.key, 2 * step + 1),
            ];
            let (out, inn) = draws.pair(info, bits, cell.n_on, cell.count - cell.n_on);
            cell.n_on = cell.n_on - out + inn;
            cell.next = UNSCHEDULED;
            return true;
        };
        if cell.next == UNSCHEDULED {
            // From this step on, the first change is `G − 1` steps away.
            let g = skip(keyed_bits(cell.key, RESCHEDULE | step), inv_ln_stay);
            cell.next = step_plus(step, g - 1);
            if u64::from(cell.next) > step {
                return false;
            }
        }
        cell.n_on = draws.jump(info, cell.count, cell.n_on, keyed_bits(cell.key, 2 * step));
        cell.next = match draws.stay(info, cell.count, cell.n_on) {
            Some(inv_ln_stay) => {
                step_plus(step, skip(keyed_bits(cell.key, 2 * step + 1), inv_ln_stay))
            }
            None => UNSCHEDULED,
        };
        true
    }
}

/// Every chunk with its first location and its own slice of `observed`.
/// The limbo pool has no entry: alone in the last chunk (`m` a multiple
/// of the chunk width), it gets an empty slice.
fn chunk_shares<'a>(
    chunks: &'a mut [ClassChunk],
    observed: &'a mut [f64],
) -> impl Iterator<Item = (usize, &'a mut ClassChunk, &'a mut [f64])> {
    let no_pms: &mut [f64] = &mut [];
    let slices = observed
        .chunks_mut(CLASS_PM_CHUNK)
        .chain(std::iter::once(no_pms));
    chunks
        .iter_mut()
        .zip(slices)
        .enumerate()
        .map(|(c, (chunk, obs))| (c * CLASS_PM_CHUNK, chunk, obs))
}

/// A set of PMs with O(1) insert, listed in insertion order.
struct DirtyPms {
    marked: Vec<bool>,
    list: Vec<u32>,
}

impl DirtyPms {
    fn mark(&mut self, j: usize) {
        if !self.marked[j] {
            self.marked[j] = true;
            self.list.push(j as u32);
        }
    }

    /// Empties the set, leaving what it listed in `out`.
    fn drain_into(&mut self, out: &mut Vec<u32>) {
        for &j in &self.list {
            self.marked[j as usize] = false;
        }
        out.clear();
        std::mem::swap(&mut self.list, out);
    }
}

/// The `Shared` layout: one sequential stream, and per-PM demand
/// re-derived in `observed` only where it can have changed.
struct SharedState {
    rng: StdRng,
    /// `[flip_threshold(p_on), flip_threshold(p_off)]` and `[demand
    /// while OFF, demand while ON]` per VM: a VM's `on` flag is the
    /// index, so reading either takes no branch on the chain's state.
    thr_by_state: Vec<[u64; 2]>,
    demand_by_state: Vec<[f64; 2]>,
    /// PMs whose `observed` entry is stale: a hosted VM flipped, or the
    /// engine reported a write of its own.
    dirty: DirtyPms,
    /// The PMs the last step re-derived one by one (it may instead have
    /// re-derived all of them; the step says which).
    rederived: Vec<u32>,
    /// Scratch: the VMs that flipped this step, ascending.
    flips: Vec<u32>,
    /// Scratch: a migrant-reordered member list, sorted for the re-sum.
    ascending: Vec<usize>,
}

impl SharedState {
    fn new(vms: &[VmSpec], m: usize, seed: u64) -> Self {
        let n = vms.len();
        assert!(
            n <= u32::MAX as usize && m <= u32::MAX as usize,
            "the shared layout indexes VMs and PMs with u32"
        );
        Self {
            rng: StdRng::seed_from_u64(seed),
            thr_by_state: vms
                .iter()
                .map(|vm| [flip_threshold(vm.p_on), flip_threshold(vm.p_off)])
                .collect(),
            demand_by_state: vms
                .iter()
                .map(|vm| [vm.demand(false), vm.demand(true)])
                .collect(),
            dirty: DirtyPms {
                marked: vec![false; m],
                list: Vec::new(),
            },
            rederived: Vec::new(),
            flips: vec![0; n],
            ascending: Vec::new(),
        }
    }

    /// One step: `n` draws, then work in proportion to what changed.
    /// Stream, draw order, decisions and every `f64` are those of one
    /// evolution pass followed by one ascending-VM accumulation pass
    /// (the oracle in `shared_layout_matches_legacy_loop_bit_for_bit`).
    /// `primed` says the entries of `observed` not marked stale are
    /// current; returns whether every PM was re-derived (else the ones
    /// in `rederived` were).
    fn step(
        &mut self,
        primed: bool,
        on: &mut [bool],
        members: &Members,
        observed: &mut [f64],
    ) -> bool {
        let Self {
            rng,
            thr_by_state,
            demand_by_state,
            dirty,
            rederived,
            flips,
            ascending,
        } = self;
        // The draws. The generator is a local for the loop, so its four
        // words stay in registers (behind `&mut self` every draw reloads
        // and stores them: the `flips` store may alias). `flips[count]`
        // is written unconditionally and kept only when the VM flipped:
        // no branch on the draw.
        let flips = flips.as_mut_slice();
        let mut stream = rng.clone();
        let mut count = 0usize;
        for (i, (thr, &state)) in thr_by_state.iter().zip(on.iter()).enumerate() {
            let k = stream.next_u64() >> 11;
            flips[count] = i as u32;
            count += usize::from(k < thr[usize::from(state)]);
        }
        *rng = stream;

        for &i in &flips[..count] {
            let i = i as usize;
            on[i] = !on[i];
            if let Some(j) = members.host(i) {
                dirty.mark(j);
            }
        }

        // Re-derive the stale sums. A PM's entry is `0.0` plus its
        // members' demands in ascending VM index either way — exactly
        // what the one-pass accumulation computes for it — so which
        // branch runs changes no bit. Once the dirty PMs host half the
        // fleet, the one pass is the bounded way to the same sums: it
        // reads the VMs in order and needs no member list sorted. The
        // lists do not store their lengths, so the PM-by-PM re-sum
        // counts as it goes and hands over to the one pass at that
        // bound: it has then read under half the fleet in vain.
        let demand = |i: usize| demand_by_state[i][usize::from(on[i])];
        let mut all = !primed;
        let mut stale_vms = 0usize;
        for &j in &dirty.list {
            if all {
                break;
            }
            // Fold along the list while it ascends. The list keeps
            // arrival order (victim tie-breaking reads it), so a migrant
            // can leave it out of VM order: then the members are sorted
            // in a scratch and folded from `0.0` again.
            let (mut sum, mut len, mut prev) = (0.0, 0usize, None);
            for i in members.iter(j as usize) {
                if prev.is_some_and(|p| p > i) {
                    ascending.clear();
                    ascending.extend(members.iter(j as usize));
                    ascending.sort_unstable();
                    len = ascending.len();
                    sum = ascending.iter().fold(0.0, |sum, &i| sum + demand(i));
                    break;
                }
                sum += demand(i);
                len += 1;
                prev = Some(i);
            }
            stale_vms += len;
            all = 2 * stale_vms >= on.len();
            observed[j as usize] = sum;
        }
        if all {
            observed.fill(0.0);
            for (i, &j) in members.hosts().iter().enumerate() {
                // A displaced VM's host is past every PM.
                if let Some(sum) = observed.get_mut(j as usize) {
                    *sum += demand(i);
                }
            }
        }
        dirty.drain_into(rederived);
        all
    }
}

enum Mode {
    Shared(SharedState),
    ClassAggregated {
        /// Canonical class table (sorted by class key bit patterns).
        classes: Vec<ClassInfo>,
        /// The classes' jump tables.
        tables: JumpTables,
        /// Canonical class index per VM.
        class_of: Vec<u32>,
        /// The cells, in chunks of [`CLASS_PM_CHUNK`] locations.
        /// Locations `0..m` are the PMs, location `m` the limbo pool of
        /// displaced VMs (which evolve but contribute no demand): it
        /// rides in the last chunk. Populated by
        /// [`WorkloadCore::class_init`].
        chunks: Vec<ClassChunk>,
        /// The limbo pool's location, `m`.
        limbo: usize,
        /// [`Sampler::Tables`] (always, in the engine), or the walk
        /// it is bit-identical to (`WorkloadCore::set_cached_sampler`).
        sampler: Sampler,
        /// Resolved worker count (≥ 1). Purely a throughput knob.
        threads: usize,
        seed: u64,
        /// Scratch of the sync hooks: the synced VMs as `(class, VM)`
        /// pairs. A member list does not know its length, so a fresh
        /// vector per sync would grow as it is filled.
        by_class: Vec<(u32, usize)>,
    },
}

/// Mode-specific evolving state captured for a checkpoint. The
/// flattened spec tables and the class table are pure
/// functions of the fleet and seed — [`WorkloadCore::new`] rebuilds
/// them on restore — so only the state that advances step-to-step
/// travels. The `on` flags live outside [`Mode`] and are snapshotted
/// by the caller.
pub(crate) enum CoreSnapshot {
    /// The shared `StdRng`'s four xoshiro256++ state words.
    Shared([u64; 4]),
    /// Per-location `(class, count, n_on, next)` quadruples in cell
    /// order (locations `0..m` are the PMs, location `m` the limbo
    /// pool); cell keys are rebuilt from the seed and class hashes, each
    /// location's `due` from its cells.
    ClassAggregated(Vec<Vec<(u32, u32, u32, u32)>>),
}

/// The engine's per-step hot path in structure-of-arrays form.
pub(crate) struct WorkloadCore {
    /// Current ON/OFF state per VM; read freely by the engine between
    /// steps (victim selection, demand queries, evacuation sizing).
    pub(crate) on: Vec<bool>,
    mode: Mode,
    /// Whether the caller's `observed` holds this core's sums wherever no
    /// PM is marked stale. `false` until the first step derives every
    /// entry — at the start of a run and after a cell rebuild or a
    /// restore alike: the sums are derived state, never serialized.
    primed: bool,
    /// Whether the last step re-derived every PM, or only the ones its
    /// layout lists.
    rederived_all: bool,
}

impl WorkloadCore {
    /// Flattens `vms` and prepares the RNG layout. `m` is the PM count;
    /// `threads` follows [`crate::config::SimConfig::threads`] semantics
    /// and is resolved here for the class layout: `0` → available
    /// parallelism, always `1` inside a `replicate_seeds` worker, and
    /// capped at the chunk count.
    pub(crate) fn new(
        vms: &[VmSpec],
        m: usize,
        seed: u64,
        layout: RngLayout,
        threads: usize,
    ) -> Self {
        let mode = match layout {
            RngLayout::Shared => Mode::Shared(SharedState::new(vms, m, seed)),
            RngLayout::ClassAggregated => {
                // Canonical class table: distinct class keys sorted by
                // their exact bit patterns. Sorting by *content* (never
                // first-appearance order) is what makes cell streams —
                // and with them every outcome — invariant under the
                // order VMs are enumerated in the fleet. Dedupe first
                // (the workload crate's interner: ids in first-appearance
                // order, one representative VM each, no hashing for a
                // class-heavy fleet), then sort only the distinct keys
                // and renumber.
                let mut distinct: Vec<([u64; 4], usize)> = Vec::new();
                let mut class_of: Vec<u32> = Vec::with_capacity(vms.len());
                intern_classes(vms, usize::MAX, |i, id| {
                    if id as usize == distinct.len() {
                        distinct.push((VmClass::of(&vms[i]).key(), i));
                    }
                    class_of.push(id);
                });
                let mut order: Vec<u32> = (0..distinct.len() as u32).collect();
                order.sort_unstable_by_key(|&c| distinct[c as usize].0);
                let mut canonical = vec![0u32; distinct.len()];
                for (rank, &c) in order.iter().enumerate() {
                    canonical[c as usize] = rank as u32;
                }
                for c in &mut class_of {
                    *c = canonical[*c as usize];
                }
                // Demands via the spec's own accessor (bit-identical for
                // every member of a class, so any representative works).
                let mut classes: Vec<ClassInfo> = order
                    .iter()
                    .map(|&c| {
                        let (k, rep) = distinct[c as usize];
                        ClassInfo {
                            p_on: f64::from_bits(k[0]),
                            p_off: f64::from_bits(k[1]),
                            demand_off: vms[rep].demand(false),
                            demand_on: vms[rep].demand(true),
                            hash: class_hash(k),
                            slot_off: 0,
                            slot_on: 0,
                            cap: 0,
                            base: 0,
                        }
                    })
                    .collect();
                let p_values = p_registry(&classes);
                let slot_of = |p: f64| {
                    p_values
                        .binary_search_by(|v| v.total_cmp(&p))
                        .expect("registered probability") as u32
                };
                for info in &mut classes {
                    info.slot_off = slot_of(info.p_off);
                    info.slot_on = slot_of(info.p_on);
                }
                // Built here, before the run's other arrays and the
                // cells (DESIGN.md §8 on the allocation order).
                let tables = JumpTables::build(&mut classes, &class_of);
                // One chunk per CLASS_PM_CHUNK locations (the m PMs plus
                // the limbo pool, which rides in the last chunk).
                let chunks = (m + 1).div_ceil(CLASS_PM_CHUNK);
                let requested = if crate::runner::in_replication_worker() {
                    1
                } else if threads == 0 {
                    thread::available_parallelism().map_or(1, |p| p.get())
                } else {
                    threads
                };
                assert!(m < u32::MAX as usize, "cells index locations with u32");
                Mode::ClassAggregated {
                    classes,
                    tables,
                    class_of,
                    chunks: (0..chunks)
                        .map(|c| {
                            let locations = (m + 1 - c * CLASS_PM_CHUNK).min(CLASS_PM_CHUNK);
                            ClassChunk::new(locations, &p_values)
                        })
                        .collect(),
                    limbo: m,
                    sampler: Sampler::Tables,
                    threads: requested.clamp(1, chunks),
                    seed,
                    by_class: Vec::new(),
                }
            }
        };
        Self {
            on: vec![false; vms.len()],
            mode,
            primed: false,
            rederived_all: false,
        }
    }

    /// Advances every chain one step and brings `observed` up to the sum
    /// of hosted demands per PM. `observed` must be the buffer the
    /// previous step wrote, every caller-side write to it reported since
    /// (module docs): only stale entries are re-derived. Displaced VMs
    /// (no host in `members`) still evolve — the draw sequence must not
    /// depend on fault or migration decisions. Only the `Shared` arm
    /// reads `members`.
    pub(crate) fn step(&mut self, step: u64, members: &Members, observed: &mut [f64]) {
        let Self {
            on,
            mode,
            primed,
            rederived_all,
        } = self;
        match mode {
            Mode::Shared(shared) => {
                *rederived_all = shared.step(*primed, on, members, observed);
            }
            Mode::ClassAggregated {
                classes,
                tables,
                chunks,
                sampler,
                threads,
                ..
            } => {
                // Each (location, class) cell is touched only at the
                // steps its ON count changes (and every step while
                // dense): a jump and a skip at a change, the binomial
                // pair of its departures and arrivals when dense. Draw
                // coordinates are pure functions of (seed, location,
                // class, counter), so any thread can evolve any
                // location, and each PM's demand is produced entirely
                // by its own cells in canonical class order:
                // thread-count invariance needs no reduction tree.
                // Locations are cut into fixed CLASS_PM_CHUNK chunks (a
                // function of m only); the limbo pool is the last
                // location and rides in the last chunk — displaced VMs
                // keep evolving (the draw sequence must not depend on
                // fault decisions) but have no demand entry.
                assert!(step < u64::from(NEVER), "class cells schedule steps as u32");
                let kernel = ClassKernel {
                    classes,
                    tables,
                    step,
                    sampler: *sampler,
                    primed: *primed,
                };
                if *threads <= 1 {
                    for (lo, chunk, obs) in chunk_shares(chunks, observed) {
                        kernel.evolve_chunk(lo, chunk, obs);
                    }
                } else {
                    // Whole chunks to each worker, cut where the cell
                    // count crosses the worker's even share.
                    let cell_total: usize = chunks.iter().map(|c| c.cells.len()).sum();
                    let mut takes = vec![0usize; *threads];
                    let (mut t, mut before) = (0usize, 0usize);
                    for chunk in chunks.iter() {
                        while t + 1 < *threads && before * *threads >= cell_total * (t + 1) {
                            t += 1;
                        }
                        takes[t] += 1;
                        before += chunk.cells.len();
                    }
                    let mut shares = chunk_shares(chunks, observed);
                    thread::scope(|scope| {
                        let kernel = &kernel;
                        for take in takes {
                            let share: Vec<_> = shares.by_ref().take(take).collect();
                            if !share.is_empty() {
                                scope.spawn(move || {
                                    for (lo, chunk, obs) in share {
                                        kernel.evolve_chunk(lo, chunk, obs);
                                    }
                                });
                            }
                        }
                    });
                }
                *rederived_all = !*primed;
            }
        }
        *primed = true;
    }

    /// Whether the last [`WorkloadCore::step`] re-derived every PM's
    /// `observed` entry: an unprimed step, or the `Shared` one-pass
    /// re-sum. Otherwise [`WorkloadCore::for_each_rederived`] lists the
    /// entries it wrote.
    pub(crate) fn rederived_all(&self) -> bool {
        self.rederived_all
    }

    /// Calls `f` with every PM whose `observed` entry the last
    /// [`WorkloadCore::step`] found stale and re-derived, in no
    /// particular order and possibly more than once.
    pub(crate) fn for_each_rederived(&self, mut f: impl FnMut(usize)) {
        match &self.mode {
            Mode::Shared(shared) => shared.rederived.iter().for_each(|&j| f(j as usize)),
            Mode::ClassAggregated { chunks, limbo, .. } => {
                for chunk in chunks {
                    for &j in chunk.refolded.iter().filter(|&&j| (j as usize) < *limbo) {
                        f(j as usize);
                    }
                }
            }
        }
    }

    /// `observed[j]` was written outside [`WorkloadCore::step`]: the next
    /// step re-derives it. [`WorkloadCore::vm_moved`] and
    /// [`WorkloadCore::pm_crashed`] report their PMs through here.
    fn pm_stale(&mut self, j: usize) {
        match &mut self.mode {
            Mode::Shared(shared) => shared.dirty.mark(j),
            Mode::ClassAggregated { chunks, .. } => chunks[j / CLASS_PM_CHUNK].dirty.push(j as u32),
        }
    }

    /// Builds the class-aggregated counters from the placement in
    /// `members` (every VM OFF, matching the all-`false` `on` vector).
    /// Must be called once before the first [`WorkloadCore::step`] under
    /// [`RngLayout::ClassAggregated`]; a no-op for the other layouts.
    pub(crate) fn class_init(&mut self, members: &Members) {
        let Mode::ClassAggregated {
            classes,
            class_of,
            chunks,
            limbo,
            seed,
            ..
        } = &mut self.mode
        else {
            return;
        };
        self.primed = false;
        // Location by location: sort the residents' class ids, emit one
        // cell per distinct class into the chunk's scratch, then move
        // the scratch's cells into an exact-capacity vector.
        let (mut run, mut cells): (Vec<u32>, Vec<Cell>) = (Vec::new(), Vec::new());
        for (c, chunk) in chunks.iter_mut().enumerate() {
            for l in 0..chunk.offsets.len() - 1 {
                let loc = c * CLASS_PM_CHUNK + l;
                run.clear();
                if loc == *limbo {
                    run.extend(members.displaced().map(|i| class_of[i]));
                } else {
                    run.extend(members.iter(loc).map(|i| class_of[i]));
                }
                run.sort_unstable();
                let first = cells.len();
                for &class in &run {
                    match cells[first..].last_mut() {
                        Some(cell) if cell.class == class => cell.count += 1,
                        _ => cells.push(Cell::new(class, 1, 0, loc, *seed, classes)),
                    }
                }
                chunk.offsets[l + 1] = cells.len() as u32;
            }
            chunk.cells = Vec::with_capacity(cells.len());
            chunk.cells.append(&mut cells);
            chunk.recompute_due();
        }
    }

    /// The cells of location `loc`.
    #[inline]
    fn cells_at(chunks: &[ClassChunk], loc: usize) -> &[Cell] {
        let chunk = &chunks[loc / CLASS_PM_CHUNK];
        &chunk.cells[chunk.range(loc % CLASS_PM_CHUNK)]
    }

    /// Refreshes the `on` flags of PM `j`'s hosted VMs from its cell
    /// counters, using the canonical disaggregation rule: within each
    /// class at one location, the `n_on` members with the lowest VM
    /// indices are ON. The engine calls this before any decision that
    /// reads per-VM state (victim selection, demand queries); a no-op
    /// for the other layouts, whose `on` vector is always current.
    pub(crate) fn class_sync_pm(&mut self, j: usize, members: impl IntoIterator<Item = usize>) {
        let Self { on, mode, .. } = self;
        let Mode::ClassAggregated {
            class_of,
            chunks,
            by_class,
            ..
        } = mode
        else {
            return;
        };
        let cells = Self::cells_at(chunks, j);
        Self::class_assign_flags(on, class_of, cells, members.into_iter(), by_class);
    }

    /// Refreshes the `on` flags of every displaced VM (no host in
    /// `members`) from the limbo-pool counters — the displaced-side
    /// counterpart of [`WorkloadCore::class_sync_pm`], called before
    /// evacuation passes.
    pub(crate) fn class_sync_displaced(&mut self, members: &Members) {
        let Self { on, mode, .. } = self;
        let Mode::ClassAggregated {
            class_of,
            chunks,
            limbo,
            by_class,
            ..
        } = mode
        else {
            return;
        };
        let cells = Self::cells_at(chunks, *limbo);
        Self::class_assign_flags(on, class_of, cells, members.displaced(), by_class);
    }

    /// Shared flag-assignment pass of the two sync hooks: group `members`
    /// by class, sort each group ascending, flag the first `n_on` of the
    /// matching cell ON.
    fn class_assign_flags(
        on: &mut [bool],
        class_of: &[u32],
        cells: &[Cell],
        members: impl Iterator<Item = usize>,
        by_class: &mut Vec<(u32, usize)>,
    ) {
        if cells.is_empty() {
            return;
        }
        // (class, vm index) sorted: classes ascending, indices ascending
        // within a class — one pass pairs each cell with its contiguous
        // member group (cells are sorted by class too).
        by_class.clear();
        by_class.extend(members.map(|i| (class_of[i], i)));
        by_class.sort_unstable();
        let mut pos = 0usize;
        for cell in cells {
            debug_assert!(pos >= by_class.len() || by_class[pos].0 >= cell.class);
            let start = pos;
            while pos < by_class.len() && by_class[pos].0 == cell.class {
                pos += 1;
            }
            let group = &by_class[start..pos];
            debug_assert_eq!(
                group.len(),
                cell.count as usize,
                "cell membership out of sync"
            );
            for (g, &(_, i)) in group.iter().enumerate() {
                on[i] = g < cell.n_on as usize;
            }
        }
    }

    /// The engine moved VM `i` between locations (`None` = displaced).
    /// Both PMs' `observed` entries go stale. `ClassAggregated` also
    /// moves the VM between the locations' counters, carrying its
    /// current `on` flag — the caller must have synced `i`'s source
    /// location since the last evolution step so the flag matches the
    /// source counters. Each end of the move edits its own chunk only.
    pub(crate) fn vm_moved(&mut self, i: usize, from: Option<usize>, to: Option<usize>) {
        for j in [from, to].into_iter().flatten() {
            self.pm_stale(j);
        }
        let Mode::ClassAggregated {
            classes,
            class_of,
            chunks,
            limbo,
            seed,
            ..
        } = &mut self.mode
        else {
            return;
        };
        let (c, was_on) = (class_of[i], self.on[i]);
        let src = from.unwrap_or(*limbo);
        chunks[src / CLASS_PM_CHUNK].take_vm(src % CLASS_PM_CHUNK, c, was_on);
        let dst = to.unwrap_or(*limbo);
        chunks[dst / CLASS_PM_CHUNK].put(
            dst % CLASS_PM_CHUNK,
            Cell::new(c, 1, u32::from(was_on), dst, *seed, classes),
        );
    }

    /// PM `j` crashed and is about to lose `members`: its `observed`
    /// entry goes stale. `ClassAggregated` also fixes each member's flag
    /// from the current counters (the flags displaced VMs carry into
    /// evacuation), then merges the PM's cells wholesale into the limbo
    /// pool.
    pub(crate) fn pm_crashed(&mut self, j: usize, members: &[usize]) {
        self.pm_stale(j);
        self.class_sync_pm(j, members.iter().copied());
        let Mode::ClassAggregated {
            classes,
            chunks,
            limbo,
            seed,
            ..
        } = &mut self.mode
        else {
            return;
        };
        let (chunk, l) = (&mut chunks[j / CLASS_PM_CHUNK], j % CLASS_PM_CHUNK);
        let moved: Vec<Cell> = chunk.cells.drain(chunk.range(l)).collect();
        for o in &mut chunk.offsets[l + 1..] {
            *o -= moved.len() as u32;
        }
        chunk.due[l] = NEVER;
        let pool = &mut chunks[*limbo / CLASS_PM_CHUNK];
        for cell in moved {
            pool.put(
                *limbo % CLASS_PM_CHUNK,
                Cell::new(cell.class, cell.count, cell.n_on, *limbo, *seed, classes),
            );
        }
    }

    /// Selects the class kernel's implementation: the tables (`true`,
    /// what the engine always runs) or the walk, the same stream
    /// computed without them and the tables' bit-for-bit oracle. Only
    /// the kernel bench (`bench_api`) and this module's tests pick the
    /// walk. A no-op for the shared layout.
    pub(crate) fn set_cached_sampler(&mut self, use_tables: bool) {
        if let Mode::ClassAggregated { sampler, .. } = &mut self.mode {
            *sampler = if use_tables {
                Sampler::Tables
            } else {
                Sampler::Walk
            };
        }
    }

    /// Summed sampler counters across the chunks (`None` for the other
    /// layouts): the binomial caches' own, with every jump drawn from
    /// the jump tables counted a hit (a draw answered from a table built
    /// before it). The chunk partition is a function of `m` only, so the
    /// sums are thread-count invariant.
    pub(crate) fn class_cache_stats(&self) -> Option<CacheStats> {
        let Mode::ClassAggregated { chunks, .. } = &self.mode else {
            return None;
        };
        Some(chunks.iter().fold(CacheStats::default(), |acc, c| {
            let s = c.cache.stats();
            CacheStats {
                hits: acc.hits + s.hits + c.jumps,
                misses: acc.misses + s.misses,
                evictions: acc.evictions + s.evictions,
            }
        }))
    }

    /// Cells the class kernel drew for since construction, summed over
    /// the chunks (`None` for the other layouts): jumps and dense steps.
    pub(crate) fn class_events(&self) -> Option<u64> {
        let Mode::ClassAggregated { chunks, .. } = &self.mode else {
            return None;
        };
        Some(chunks.iter().map(|chunk| chunk.events).sum())
    }

    /// Occupied `(location, class)` cell count under the
    /// class-aggregated layout (`None` otherwise): the unit the hot
    /// loop's cost actually scales with.
    pub(crate) fn class_occupied_cells(&self) -> Option<usize> {
        match &self.mode {
            Mode::ClassAggregated { chunks, .. } => {
                Some(chunks.iter().map(|chunk| chunk.cells.len()).sum())
            }
            _ => None,
        }
    }

    /// Rebuilds every chunk's sampler cache empty with a budget of
    /// `budget` live entries, so a test can make it flush mid-chunk.
    #[cfg(test)]
    fn set_entry_budget(&mut self, budget: usize) {
        if let Mode::ClassAggregated {
            classes, chunks, ..
        } = &mut self.mode
        {
            let p_values = p_registry(classes);
            for chunk in chunks.iter_mut() {
                chunk.cache = TableCache::new(&p_values, budget);
            }
        }
    }

    /// Asserts that `observed` — fresh out of [`WorkloadCore::step`] — is
    /// `to_bits`-equal to the from-scratch accumulation the carried sums
    /// replace: one pass over all VMs under `Shared`, a fold of every
    /// PM's cells under `ClassAggregated`. This is what catches a write
    /// to `observed` the caller did not report.
    #[cfg(test)]
    pub(crate) fn assert_observed_is_full_accumulation(&self, members: &Members, observed: &[f64]) {
        let mut full = vec![0.0f64; observed.len()];
        match &self.mode {
            Mode::Shared(shared) => {
                for i in 0..self.on.len() {
                    if let Some(j) = members.host(i) {
                        full[j] += shared.demand_by_state[i][usize::from(self.on[i])];
                    }
                }
            }
            Mode::ClassAggregated {
                classes,
                chunks,
                seed,
                ..
            } => {
                for (j, sum) in full.iter_mut().enumerate() {
                    for cell in Self::cells_at(chunks, j) {
                        let info = &classes[cell.class as usize];
                        assert_eq!(
                            cell.key,
                            class_cell_key(*seed, j as u64, info.hash),
                            "cell filed under the wrong PM"
                        );
                        *sum += f64::from(cell.n_on) * info.demand_on
                            + f64::from(cell.count - cell.n_on) * info.demand_off;
                    }
                }
            }
        }
        for (j, (got, want)) in observed.iter().zip(&full).enumerate() {
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "PM {j}: carried sum {got} differs from the full accumulation {want}"
            );
        }
    }

    /// Captures the mode-specific evolving state for a checkpoint.
    pub(crate) fn snapshot_mode(&self) -> CoreSnapshot {
        match &self.mode {
            Mode::Shared(shared) => CoreSnapshot::Shared(shared.rng.state()),
            Mode::ClassAggregated { chunks, .. } => CoreSnapshot::ClassAggregated(
                chunks
                    .iter()
                    .flat_map(|chunk| {
                        chunk.offsets.windows(2).map(|w| {
                            chunk.cells[w[0] as usize..w[1] as usize]
                                .iter()
                                .map(|c| (c.class, c.count, c.n_on, c.next))
                                .collect()
                        })
                    })
                    .collect(),
            ),
        }
    }

    /// Restores the mode-specific state captured by
    /// [`WorkloadCore::snapshot_mode`] into a freshly built core of the
    /// same fleet, seed, and layout. Rejects layout mismatches and any
    /// structurally impossible counter state (unsorted or out-of-range
    /// cells, `n_on > count`, membership not summing to the fleet) so a
    /// corrupted snapshot can never become a silently wrong run.
    pub(crate) fn restore_mode(&mut self, snap: CoreSnapshot) -> Result<(), String> {
        match (&mut self.mode, snap) {
            (Mode::Shared(shared), CoreSnapshot::Shared(words)) => {
                shared.rng = StdRng::from_state(words)
                    .ok_or_else(|| "shared rng state is the all-zero fixed point".to_string())?;
                self.primed = false;
                Ok(())
            }
            (
                Mode::ClassAggregated {
                    classes,
                    chunks,
                    limbo,
                    seed,
                    ..
                },
                CoreSnapshot::ClassAggregated(locs),
            ) => {
                if locs.len() != *limbo + 1 {
                    return Err(format!(
                        "class snapshot has {} locations, core expects {}",
                        locs.len(),
                        *limbo + 1
                    ));
                }
                let mut total: u64 = 0;
                for (loc, cs) in locs.iter().enumerate() {
                    let mut prev: Option<u32> = None;
                    for &(class, count, n_on, _) in cs {
                        if class as usize >= classes.len() {
                            return Err(format!("class index {class} out of range"));
                        }
                        if count == 0 || n_on > count {
                            return Err(format!(
                                "cell ({loc}, {class}) has count {count}, n_on {n_on}"
                            ));
                        }
                        if prev.is_some_and(|p| p >= class) {
                            return Err(format!("cells of location {loc} not sorted by class"));
                        }
                        prev = Some(class);
                        total += u64::from(count);
                    }
                }
                if total != self.on.len() as u64 {
                    return Err(format!(
                        "cell membership sums to {total}, fleet has {} VMs",
                        self.on.len()
                    ));
                }
                self.primed = false;
                for chunk in chunks.iter_mut() {
                    chunk.cells.clear();
                }
                for (loc, src) in locs.into_iter().enumerate() {
                    let chunk = &mut chunks[loc / CLASS_PM_CHUNK];
                    chunk
                        .cells
                        .extend(src.into_iter().map(|(class, count, n_on, next)| Cell {
                            next,
                            ..Cell::new(class, count, n_on, loc, *seed, classes)
                        }));
                    chunk.offsets[loc % CLASS_PM_CHUNK + 1] = chunk.cells.len() as u32;
                }
                chunks.iter_mut().for_each(ClassChunk::recompute_due);
                Ok(())
            }
            _ => Err("snapshot layout does not match the configured rng layout".to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fleet(n: usize) -> Vec<VmSpec> {
        (0..n)
            .map(|i| VmSpec::new(i, 0.02 + (i % 7) as f64 * 0.01, 0.08, 8.0, 12.0))
            .collect()
    }

    fn run_core(core: &mut WorkloadCore, host: &[Option<usize>], m: usize, steps: u64) -> Vec<f64> {
        let members = Members::from_assignment(host, m);
        let mut observed = vec![0.0; m];
        let mut trace = Vec::new();
        for step in 0..steps {
            core.step(step, &members, &mut observed);
            core.assert_observed_is_full_accumulation(&members, &observed);
            trace.extend_from_slice(&observed);
        }
        trace
    }

    #[test]
    fn shared_layout_matches_legacy_loop_bit_for_bit() {
        // Bursty VMs plus the threshold edge cases: chains that flip on
        // every draw (p = 1) and chains that never will (p tiny).
        let mut vms = fleet(133);
        let n = vms.len();
        vms.push(VmSpec::new(n, 1.0, 1.0, 3.0, 4.0));
        vms.push(VmSpec::new(n + 1, 1.0, f64::MIN_POSITIVE, 5.0, 2.5));
        vms.push(VmSpec::new(n + 2, 2f64.powi(-53), 0.5, 1.5, 7.0));
        vms.push(VmSpec::new(n + 3, 0.5, 1.0, 2.0, 2.0));
        // PMs 9 and 10 start empty; every 11th VM is unhosted.
        let m = 11;
        let host: Vec<Option<usize>> = (0..vms.len())
            .map(|i| (i % 11 != 5).then_some(i % 9))
            .collect();
        let mut members = Members::from_assignment(&host, m);
        let mut core = WorkloadCore::new(&vms, m, 99, RngLayout::Shared, 1);

        // Legacy loop: per-VM chain stepping off one shared StdRng, then
        // a from-zero accumulation in VM order.
        let mut rng = StdRng::seed_from_u64(99);
        let mut on = vec![false; vms.len()];
        let mut observed = vec![0.0; m];
        for step in 0..60u64 {
            for (i, vm) in vms.iter().enumerate() {
                let state = if on[i] {
                    bursty_markov::VmState::On
                } else {
                    bursty_markov::VmState::Off
                };
                on[i] = vm.chain().step(state, &mut rng).is_on();
            }
            let mut legacy = vec![0.0; m];
            for (i, vm) in vms.iter().enumerate() {
                if let Some(j) = members.host(i) {
                    legacy[j] += vm.demand(on[i]);
                }
            }
            core.step(step, &members, &mut observed);
            assert_eq!(core.on, on, "flags diverged at step {step}");
            for (j, (a, b)) in legacy.iter().zip(&observed).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "PM {j} at step {step}");
            }
            // The engine edits `observed` between steps and reports
            // the PM: the next step must not see the edit.
            observed[step as usize % m] += 1.0;
            core.pm_stale(step as usize % m);

            if step == 20 {
                // Migrations the way the engine commits them: the
                // migrant joins the end of the target's list, so PM 9's
                // and PM 2's lists are no longer ascending.
                for (i, to) in [(40usize, 9usize), (12, 9), (100, 2), (3, 2)] {
                    core.vm_moved(i, members.host(i), Some(to));
                    members.leave(i);
                    members.land(i, to);
                }
            }
            if step == 35 {
                // A crash empties PM 4; one displaced VM lands on PM 10.
                let evicted = members.evict_all(4);
                core.pm_crashed(4, &evicted);
                let i = 4;
                core.vm_moved(i, None, Some(10));
                members.land(i, 10);
            }
        }
        for j in [9, 2] {
            assert!(!members.iter(j).collect::<Vec<_>>().is_sorted());
        }
    }

    #[test]
    fn an_unreported_write_to_observed_is_caught_by_the_full_accumulation() {
        // `observed` is the carried state: an entry the caller wrote and
        // did not report survives the next step (no VM of a fleet that
        // never flips makes its PM stale), and the differential check
        // every engine test runs after `step` says so.
        let vms: Vec<VmSpec> = (0..8)
            .map(|i| VmSpec::new(i, 2f64.powi(-53), 0.5, 1.5, 7.0))
            .collect();
        let m = 2;
        let members = Members::from_assignment(&[Some(0); 8], m);
        for layout in [RngLayout::Shared, RngLayout::ClassAggregated] {
            for reported in [true, false] {
                let mut core = WorkloadCore::new(&vms, m, 5, layout, 1);
                core.class_init(&members);
                let mut observed = vec![0.0; m];
                core.step(0, &members, &mut observed);
                core.assert_observed_is_full_accumulation(&members, &observed);
                observed[1] += 1.0;
                if reported {
                    core.pm_stale(1);
                }
                core.step(1, &members, &mut observed);
                let check = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    core.assert_observed_is_full_accumulation(&members, &observed)
                }));
                assert_eq!(check.is_ok(), reported, "{layout:?}, reported: {reported}");
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// `k < flip_threshold(p)` is the float compare `k · 2⁻⁵³ < p`
        /// for every draw `k`, at the places a rounding slip would show:
        /// `p` on the draw grid `g · 2⁻⁵³` and at both neighbouring
        /// floats, at 1, at the smallest normal and at one grid step;
        /// `k` at both ends and around the threshold.
        #[test]
        fn integer_threshold_decides_like_the_float_compare(
            anywhere in 0.0f64..1.0,
            on_grid in 1u64..=(1u64 << 53),
            pick in 0u8..5,
            nudge in 0u8..3,
        ) {
            let scale = 2f64.powi(-53);
            let centre = match pick {
                0 => anywhere,
                1 => on_grid as f64 * scale,
                2 => 1.0,
                3 => f64::MIN_POSITIVE,
                _ => scale,
            };
            let p = match nudge {
                0 => centre,
                1 => centre.next_down(),
                _ => centre.next_up(),
            };
            proptest::prop_assume!(p > 0.0 && p <= 1.0);
            let thr = flip_threshold(p);
            proptest::prop_assert!(thr <= 1 << 53, "p = {p:e}: threshold {thr}");
            for k in [0, thr.wrapping_sub(1), thr, thr + 1, (1 << 53) - 1] {
                if k < 1 << 53 {
                    proptest::prop_assert_eq!(
                        (k as f64) * scale < p,
                        k < thr,
                        "p = {:e} (threshold {}), k = {}", p, thr, k
                    );
                }
            }
        }
    }

    /// A class-heavy fleet: `n` VMs drawn from 3 distinct classes.
    fn class_fleet(n: usize) -> Vec<VmSpec> {
        (0..n)
            .map(|i| match i % 3 {
                0 => VmSpec::new(i, 0.02, 0.08, 8.0, 12.0),
                1 => VmSpec::new(i, 0.05, 0.05, 4.0, 20.0),
                _ => VmSpec::new(i, 0.10, 0.02, 2.0, 6.0),
            })
            .collect()
    }

    #[test]
    fn class_layout_is_thread_count_invariant() {
        // Enough PMs for several CLASS_PM_CHUNK chunks so the parallel
        // path actually splits, plus some displaced VMs in limbo — which
        // shares the last chunk with PMs, or (m a multiple of the chunk
        // width) has it to itself and no `observed` slice with it.
        for m in [2 * CLASS_PM_CHUNK + 91, 2 * CLASS_PM_CHUNK] {
            let vms = class_fleet(3 * m);
            let host: Vec<Option<usize>> = (0..vms.len())
                .map(|i| (i % 17 != 0).then_some(i % m))
                .collect();
            let mut reference = None;
            for threads in [1usize, 2, 8] {
                let mut core = WorkloadCore::new(&vms, m, 7, RngLayout::ClassAggregated, threads);
                core.class_init(&Members::from_assignment(&host, m));
                let trace = run_core(&mut core, &host, m, 12);
                let bits: Vec<u64> = trace.iter().map(|v| v.to_bits()).collect();
                match &reference {
                    None => reference = Some(bits),
                    Some(r) => assert_eq!(r, &bits, "m = {m}: divergence at {threads} threads"),
                }
            }
        }
    }

    #[test]
    fn class_layout_is_invariant_under_fleet_enumeration_order() {
        // Reversing the fleet (and its placement with it) permutes the
        // order classes are first encountered, but every (PM, class)
        // cell keeps the same composition — so the per-PM demand trace
        // must be bit-identical: the class table is sorted by content
        // and cell streams are keyed by content hashes, never by
        // first-appearance indices.
        let m = 11;
        let vms = class_fleet(200);
        let host: Vec<Option<usize>> = (0..vms.len())
            .map(|i| (i % 13 != 0).then_some(i % m))
            .collect();
        let mut fwd = WorkloadCore::new(&vms, m, 3, RngLayout::ClassAggregated, 1);
        fwd.class_init(&Members::from_assignment(&host, m));
        let trace_fwd = run_core(&mut fwd, &host, m, 30);

        let vms_rev: Vec<VmSpec> = vms.iter().rev().cloned().collect();
        let host_rev: Vec<Option<usize>> = host.iter().rev().copied().collect();
        let mut rev = WorkloadCore::new(&vms_rev, m, 3, RngLayout::ClassAggregated, 1);
        rev.class_init(&Members::from_assignment(&host_rev, m));
        let trace_rev = run_core(&mut rev, &host_rev, m, 30);

        for (a, b) in trace_fwd.iter().zip(&trace_rev) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn class_counters_follow_the_stationary_law() {
        // One PM hosting k same-class chains: the ON count must settle
        // on Binomial(k, p_on/(p_on+p_off)) — mean and variance both.
        // r_b = 1, r_e = 1 makes the observed demand k + ON count.
        let k = 50usize;
        let vms: Vec<VmSpec> = (0..k).map(|i| VmSpec::new(i, 0.3, 0.2, 1.0, 1.0)).collect();
        let members = Members::from_assignment(&vec![Some(0); k], 1);
        let mut core = WorkloadCore::new(&vms, 1, 11, RngLayout::ClassAggregated, 1);
        core.class_init(&members);
        let mut observed = vec![0.0; 1];
        let steps = 6000u64;
        let (mut sum, mut sum_sq) = (0.0, 0.0);
        for step in 0..steps {
            core.step(step, &members, &mut observed);
            let n_on = observed[0] - k as f64;
            sum += n_on;
            sum_sq += n_on * n_on;
        }
        let mean = sum / steps as f64;
        let var = sum_sq / steps as f64 - mean * mean;
        let pi = 0.3 / 0.5;
        let (want_mean, want_var) = (k as f64 * pi, k as f64 * pi * (1.0 - pi));
        assert!((mean - want_mean).abs() < 0.03 * want_mean, "mean {mean}");
        assert!((var - want_var).abs() < 0.25 * want_var, "var {var}");
    }

    #[test]
    fn cached_and_walk_samplers_are_bit_identical() {
        // The memoized tables must reproduce the walk exactly — same
        // demand trace, same counters, same flags — including across
        // structural churn (moves and a crash merge) that retargets
        // cells at fresh n values.
        let m = 7;
        let vms = class_fleet(300);
        let host: Vec<Option<usize>> = (0..vms.len())
            .map(|i| (i % 19 != 0).then_some(i % m))
            .collect();
        let run = |cached: bool| {
            let mut core = WorkloadCore::new(&vms, m, 13, RngLayout::ClassAggregated, 1);
            let mut members = Members::from_assignment(&host, m);
            core.set_cached_sampler(cached);
            core.class_init(&members);
            let mut observed = vec![0.0; m];
            let mut trace = Vec::new();
            for step in 0..60u64 {
                core.step(step, &members, &mut observed);
                core.assert_observed_is_full_accumulation(&members, &observed);
                trace.extend(observed.iter().map(|v| v.to_bits()));
                if step == 20 {
                    // Move a few hosted VMs to their neighbouring PM.
                    for &i in &[1usize, 7, 14] {
                        let from = members.host(i).unwrap();
                        core.class_sync_pm(from, members.iter(from));
                        let to = (from + 1) % m;
                        core.vm_moved(i, Some(from), Some(to));
                        members.leave(i);
                        members.land(i, to);
                    }
                }
                if step == 40 {
                    // Crash PM 3: everyone there merges into limbo.
                    let evicted = members.evict_all(3);
                    core.pm_crashed(3, &evicted);
                }
            }
            core.class_sync_displaced(&members);
            (trace, core.on.clone())
        };
        let (trace_walk, on_walk) = run(false);
        let (trace_cached, on_cached) = run(true);
        assert_eq!(trace_walk, trace_cached, "demand traces diverged");
        assert_eq!(on_walk, on_cached, "synced flags diverged");
    }

    #[test]
    fn cache_counters_are_thread_count_invariant() {
        // One cache per location chunk, chunks a function of m only —
        // so the summed hit/miss/evict counters must not depend on the
        // worker count.
        let m = 2 * CLASS_PM_CHUNK + 33;
        let vms = class_fleet(3 * m);
        let host: Vec<Option<usize>> = (0..vms.len())
            .map(|i| (i % 23 != 0).then_some(i % m))
            .collect();
        let mut reference = None;
        for threads in [1usize, 3, 8] {
            let members = Members::from_assignment(&host, m);
            let mut core = WorkloadCore::new(&vms, m, 7, RngLayout::ClassAggregated, threads);
            core.class_init(&members);
            let mut observed = vec![0.0; m];
            for step in 0..10u64 {
                core.step(step, &members, &mut observed);
            }
            let stats = core.class_cache_stats().unwrap();
            assert!(stats.hits > 0, "steady state must hit the cache");
            assert!(stats.misses > 0, "first draws must build tables");
            match &reference {
                None => reference = Some(stats),
                Some(r) => assert_eq!(r, &stats, "divergence at {threads} threads"),
            }
        }
    }

    #[test]
    fn walk_sampler_records_no_cache_traffic() {
        // m coprime to the 3-class cycle, so every PM hosts all 3
        // classes: 3·m occupied cells.
        let m = 4;
        let vms = class_fleet(60);
        let host: Vec<Option<usize>> = (0..vms.len()).map(|i| Some(i % m)).collect();
        let members = Members::from_assignment(&host, m);
        let mut core = WorkloadCore::new(&vms, m, 5, RngLayout::ClassAggregated, 1);
        core.set_cached_sampler(false);
        core.class_init(&members);
        let mut observed = vec![0.0; m];
        for step in 0..10u64 {
            core.step(step, &members, &mut observed);
        }
        assert_eq!(
            core.class_cache_stats(),
            Some(crate::rng::binomial_table::CacheStats::default())
        );
        assert_eq!(core.class_occupied_cells(), Some(3 * m));
    }

    #[test]
    fn class_sync_and_move_keep_flags_consistent_with_counters() {
        // Sync must flag exactly n_on members ON per cell, and a move
        // must carry the flag so counters never underflow.
        let m = 2;
        let vms = class_fleet(30);
        let host: Vec<Option<usize>> = (0..vms.len()).map(|i| Some(i % m)).collect();
        let placed = Members::from_assignment(&host, m);
        let mut core = WorkloadCore::new(&vms, m, 5, RngLayout::ClassAggregated, 1);
        core.class_init(&placed);
        let mut observed = vec![0.0; m];
        for step in 0..20 {
            core.step(step, &placed, &mut observed);
        }
        let members: Vec<usize> = placed.iter(0).collect();
        core.class_sync_pm(0, members.iter().copied());
        // Flag-sum == counter-sum: the demand implied by the synced
        // per-VM flags must reproduce the counter-computed observed load
        // (same addends, possibly different grouping — so approximate).
        let demand: f64 = members.iter().map(|&i| vms[i].demand(core.on[i])).sum();
        assert!(
            (demand - observed[0]).abs() < 1e-9 * observed[0].max(1.0),
            "flags imply {demand}, counters observed {}",
            observed[0]
        );
        // Move every PM-0 member to PM 1 and back; counters must absorb
        // the round trip without panicking, and the flags (which the
        // moves carry) must survive unchanged.
        let on_before: Vec<bool> = members.iter().map(|&i| core.on[i]).collect();
        for &i in &members {
            core.vm_moved(i, Some(0), Some(1));
        }
        for &i in &members {
            core.vm_moved(i, Some(1), Some(0));
        }
        core.class_sync_pm(0, members.iter().copied());
        let on_after: Vec<bool> = members.iter().map(|&i| core.on[i]).collect();
        assert_eq!(on_before, on_after);
    }

    #[test]
    fn snapshot_restore_resumes_every_layout_bit_for_bit() {
        let m = 7;
        let vms = class_fleet(150);
        let host: Vec<Option<usize>> = (0..vms.len())
            .map(|i| (i % 13 != 0).then_some(i % m))
            .collect();
        let members = Members::from_assignment(&host, m);
        for layout in [RngLayout::Shared, RngLayout::ClassAggregated] {
            let mut a = WorkloadCore::new(&vms, m, 42, layout, 1);
            a.class_init(&members);
            let mut observed = vec![0.0; m];
            for step in 0..40 {
                a.step(step, &members, &mut observed);
            }
            // Rebuild a fresh core from specs, then restore the evolving
            // state — exactly what checkpoint load does.
            let mut b = WorkloadCore::new(&vms, m, 42, layout, 1);
            b.class_init(&members);
            b.restore_mode(a.snapshot_mode()).unwrap();
            b.on.copy_from_slice(&a.on);
            // `a` keeps the buffer its sums are carried in; the restored,
            // unprimed `b` derives every entry and may take any.
            let mut ob = vec![f64::NAN; m];
            for step in 40..70 {
                a.step(step, &members, &mut observed);
                b.step(step, &members, &mut ob);
                for (x, y) in observed.iter().zip(&ob) {
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "layout {layout:?} diverged at step {step}"
                    );
                }
            }
        }
    }

    #[test]
    fn carried_sums_do_not_outlive_a_cell_rebuild() {
        // `restore_mode` and `class_init` replace every cell, on a core
        // that has stepped as well as on a fresh one: the sums folded
        // from the old cells must all go.
        let m = 7;
        let vms = class_fleet(150);
        let host: Vec<Option<usize>> = (0..vms.len()).map(|i| Some(i % m)).collect();
        let members = Members::from_assignment(&host, m);
        let mut core = WorkloadCore::new(&vms, m, 42, RngLayout::ClassAggregated, 1);
        core.class_init(&members);
        let at_5 = run_core(&mut core, &host, m, 5);
        let snap = core.snapshot_mode();
        let mut observed = vec![0.0; m];
        for step in 5..30 {
            core.step(step, &members, &mut observed);
        }
        core.restore_mode(snap).unwrap();
        core.step(5, &members, &mut observed);
        core.assert_observed_is_full_accumulation(&members, &observed);

        let rotated: Vec<Option<usize>> = (0..vms.len()).map(|i| Some((i + 1) % m)).collect();
        core.class_init(&Members::from_assignment(&rotated, m));
        assert_eq!(run_core(&mut core, &rotated, m, 5).len(), at_5.len());
    }

    #[test]
    fn restore_rejects_mismatched_and_corrupt_snapshots() {
        let vms = class_fleet(30);
        let host: Vec<Option<usize>> = (0..vms.len()).map(|i| Some(i % 3)).collect();
        let mut shared = WorkloadCore::new(&vms, 3, 1, RngLayout::Shared, 1);
        assert!(shared
            .restore_mode(CoreSnapshot::Shared([0, 0, 0, 0]))
            .is_err());
        let mut class = WorkloadCore::new(&vms, 3, 1, RngLayout::ClassAggregated, 1);
        class.class_init(&Members::from_assignment(&host, 3));
        let CoreSnapshot::ClassAggregated(good) = class.snapshot_mode() else {
            panic!("wrong snapshot variant");
        };
        // The other layout's snapshot.
        assert!(shared
            .restore_mode(CoreSnapshot::ClassAggregated(good.clone()))
            .is_err());
        // n_on above count.
        let mut bad = good.clone();
        bad[0][0].2 = bad[0][0].1 + 1;
        assert!(class
            .restore_mode(CoreSnapshot::ClassAggregated(bad))
            .is_err());
        // Out-of-range class index.
        let mut bad = good.clone();
        bad[0][0].0 = 999;
        assert!(class
            .restore_mode(CoreSnapshot::ClassAggregated(bad))
            .is_err());
        // Membership no longer sums to the fleet.
        let mut bad = good.clone();
        bad[0][0].1 += 1;
        assert!(class
            .restore_mode(CoreSnapshot::ClassAggregated(bad))
            .is_err());
        // Wrong location count.
        let mut bad = good.clone();
        bad.pop();
        assert!(class
            .restore_mode(CoreSnapshot::ClassAggregated(bad))
            .is_err());
        // The pristine snapshot still restores.
        assert!(class
            .restore_mode(CoreSnapshot::ClassAggregated(good))
            .is_ok());
    }

    #[test]
    fn displaced_vms_keep_evolving_without_contributing_demand() {
        let vms = fleet(40);
        let members = Members::new(vms.len(), 3);
        for layout in [RngLayout::Shared, RngLayout::ClassAggregated] {
            let mut core = WorkloadCore::new(&vms, 3, 1, layout, 1);
            core.class_init(&members);
            let mut observed = vec![1.0; 3];
            for step in 0..10 {
                core.step(step, &members, &mut observed);
            }
            core.class_sync_displaced(&members);
            assert!(observed.iter().all(|&o| o == 0.0));
            assert!(
                core.on.iter().any(|&b| b),
                "{layout:?}: chains must still evolve"
            );
        }
    }

    #[test]
    fn a_cell_is_24_bytes() {
        assert_eq!(std::mem::size_of::<Cell>(), 24);
    }

    /// Five classes, bursty to busy, on `m` PMs at uneven density: PM
    /// `j` hosts `j % 7` VMs of mixed classes, except every 97th (from
    /// PM 3), which hosts 60 of one class; every 29th VM starts
    /// displaced. Returns the fleet and its placement.
    fn uneven_fleet(m: usize) -> (Vec<VmSpec>, Vec<Option<usize>>) {
        const CLASSES: [(f64, f64, f64, f64); 5] = [
            (0.02, 0.08, 8.0, 12.0),
            (0.05, 0.05, 4.0, 20.0),
            (0.10, 0.02, 2.0, 6.0),
            (0.01, 0.09, 1.0, 3.0),
            (0.3, 0.2, 5.0, 5.0),
        ];
        let (mut vms, mut host) = (Vec::new(), Vec::new());
        for j in 0..m {
            let big = j % 97 == 3;
            for v in 0..if big { 60 } else { j % 7 } {
                let (p_on, p_off, r_b, r_e) = CLASSES[if big { 3 } else { (j + v) % 5 }];
                let i = vms.len();
                vms.push(VmSpec::new(i, p_on, p_off, r_b, r_e));
                host.push((i % 29 != 0).then_some(j));
            }
        }
        (vms, host)
    }

    /// The VMs `host` places on `at` (`None`: the displaced ones).
    fn members_at(host: &[Option<usize>], at: Option<usize>) -> Vec<usize> {
        (0..host.len()).filter(|&i| host[i] == at).collect()
    }

    /// Two class-layout cores over one fleet, stepped side by side: the
    /// next-event kernel on its tables at `threads` workers, and its walk
    /// oracle ([`Sampler::Walk`]) at one. The kernel's chunk caches hold
    /// `budget` live entries.
    struct KernelPair {
        cores: [WorkloadCore; 2],
        observed: [Vec<f64>; 2],
    }

    impl KernelPair {
        fn new(
            vms: &[VmSpec],
            m: usize,
            host: &[Option<usize>],
            threads: usize,
            budget: usize,
        ) -> Self {
            let core = |threads, tables| {
                let mut core = WorkloadCore::new(vms, m, 17, RngLayout::ClassAggregated, threads);
                core.set_entry_budget(budget);
                core.set_cached_sampler(tables);
                core.class_init(&Members::from_assignment(host, m));
                core
            };
            Self {
                cores: [core(threads, true), core(1, false)],
                observed: [vec![0.0; m], vec![0.0; m]],
            }
        }

        /// Applies one edit to both cores.
        fn edit(&mut self, f: impl FnMut(&mut WorkloadCore)) {
            self.cores.iter_mut().for_each(f);
        }

        /// Moves `vms` from `from` to `to` in both cores, syncing the
        /// source's flags first as the engine does, and in `host`.
        fn move_vms(
            &mut self,
            host: &mut [Option<usize>],
            vms: &[usize],
            from: Option<usize>,
            to: Option<usize>,
        ) {
            let m = self.observed[0].len();
            let placed = Members::from_assignment(host, m);
            self.edit(|core| match from {
                Some(j) => core.class_sync_pm(j, placed.iter(j)),
                None => core.class_sync_displaced(&placed),
            });
            for &i in vms {
                assert_eq!(host[i], from);
                self.edit(|core| core.vm_moved(i, from, to));
                host[i] = to;
            }
        }

        /// Steps both cores and compares every cell's counters and
        /// schedule, every observed sum and the cells drawn for.
        fn step(&mut self, step: u64, host: &[Option<usize>]) {
            let members = Members::from_assignment(host, self.observed[0].len());
            for (core, observed) in self.cores.iter_mut().zip(&mut self.observed) {
                core.step(step, &members, observed);
                core.assert_observed_is_full_accumulation(&members, observed);
            }
            let cells = |core: &WorkloadCore| match core.snapshot_mode() {
                CoreSnapshot::ClassAggregated(locs) => locs,
                CoreSnapshot::Shared(_) => unreachable!("class layout"),
            };
            assert!(
                cells(&self.cores[0]) == cells(&self.cores[1]),
                "cell counters or schedules diverged at step {step}"
            );
            assert_eq!(
                self.cores[0].class_events(),
                self.cores[1].class_events(),
                "cells drawn for diverged at step {step}"
            );
            let bits = |observed: &[f64]| observed.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&self.observed[0]), bits(&self.observed[1]));
        }
    }

    /// Four chunks, so four workers each take one.
    const PAIR_PMS: usize = 4 * CLASS_PM_CHUNK - 100;

    #[test]
    fn next_event_kernel_matches_the_walk_across_mid_chunk_flushes() {
        // A 96-entry budget flushes each chunk's binomial cache many
        // times per pass, between the dense cells of one chunk: a
        // rebuilt table must draw what the walk draws.
        let (vms, host) = uneven_fleet(PAIR_PMS);
        for threads in [1, 4] {
            let mut pair = KernelPair::new(&vms, PAIR_PMS, &host, threads, 96);
            let evictions =
                |pair: &KernelPair| pair.cores[0].class_cache_stats().unwrap().evictions;
            let mut warm = 0;
            for step in 0..30 {
                pair.step(step, &host);
                if step == 20 {
                    warm = evictions(&pair);
                }
            }
            let stats = pair.cores[0].class_cache_stats().unwrap();
            assert!(stats.misses > 0, "test premise: dense cells");
            let Mode::ClassAggregated { chunks, .. } = &pair.cores[0].mode else {
                unreachable!("class layout")
            };
            let jumps: u64 = chunks.iter().map(|chunk| chunk.jumps).sum();
            assert!(jumps > 0, "test premise: sparse cells jump");
            assert!(evictions(&pair) > warm, "test premise: flushes once warm");
        }
    }

    #[test]
    fn next_event_kernel_matches_the_walk_across_moves_crashes_and_landings() {
        let (vms, host) = uneven_fleet(PAIR_PMS);
        let bigs: Vec<usize> = (3..PAIR_PMS).step_by(97).collect();
        for (threads, budget) in [
            (1, DEFAULT_ENTRY_BUDGET),
            (4, DEFAULT_ENTRY_BUDGET),
            (4, 400),
        ] {
            let mut host = host.clone();
            let mut pair = KernelPair::new(&vms, PAIR_PMS, &host, threads, budget);
            for step in 0..40 {
                pair.step(step, &host);
                match step {
                    // Each big (dense) cell loses 25 VMs (`take_vm`) to
                    // a fresh cell next door, within the jump tables'
                    // cap (sparse).
                    12 => {
                        for &j in &bigs {
                            let out = members_at(&host, Some(j))[..25].to_vec();
                            pair.move_vms(&mut host, &out, Some(j), Some(j + 1));
                        }
                    }
                    // Ten of them go back into the big cell (`put` into
                    // an occupied cell).
                    16 => {
                        for &j in &bigs {
                            let back: Vec<usize> = members_at(&host, Some(j + 1))
                                .into_iter()
                                .filter(|&i| vms[i].p_on == 0.01)
                                .take(10)
                                .collect();
                            pair.move_vms(&mut host, &back, Some(j + 1), Some(j));
                        }
                    }
                    // Two crashes merge whole PMs into the limbo pool.
                    20 => {
                        for j in [bigs[1], 704] {
                            let members = members_at(&host, Some(j));
                            pair.edit(|core| core.pm_crashed(j, &members));
                            for &i in &members {
                                host[i] = None;
                            }
                        }
                    }
                    // Displaced VMs land, some in occupied cells.
                    26 => {
                        let landing: Vec<usize> =
                            members_at(&host, None).into_iter().step_by(3).collect();
                        for &i in &landing {
                            pair.move_vms(&mut host, &[i], None, Some(i % PAIR_PMS));
                        }
                    }
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn next_event_kernel_matches_the_walk_after_restore_and_class_init() {
        let (vms, host) = uneven_fleet(PAIR_PMS);
        let rotated: Vec<Option<usize>> =
            host.iter().map(|h| h.map(|j| (j + 1) % PAIR_PMS)).collect();
        for (threads, budget) in [
            (1, DEFAULT_ENTRY_BUDGET),
            (4, DEFAULT_ENTRY_BUDGET),
            (4, 400),
        ] {
            let mut pair = KernelPair::new(&vms, PAIR_PMS, &host, threads, budget);
            let mut at_10 = None;
            for step in 0..20 {
                if step == 10 {
                    at_10 = Some(pair.cores[0].snapshot_mode());
                }
                pair.step(step, &host);
            }
            // Back to step 10's counters and schedules, on caches warm
            // from step 19.
            let CoreSnapshot::ClassAggregated(locs) = at_10.unwrap() else {
                unreachable!("class layout")
            };
            pair.edit(|core| {
                core.restore_mode(CoreSnapshot::ClassAggregated(locs.clone()))
                    .unwrap()
            });
            for step in 10..20 {
                pair.step(step, &host);
            }
            let rotated_members = Members::from_assignment(&rotated, PAIR_PMS);
            pair.edit(|core| core.class_init(&rotated_members));
            for step in 20..30 {
                pair.step(step, &rotated);
            }
        }
    }
}

#[cfg(test)]
mod transient_law {
    use super::*;
    use bursty_markov::AggregateChain;
    use bursty_metrics::chi_square_gof;

    /// `m` PMs each hosting `count` VMs of one class (demand 1 OFF, 2
    /// ON, so a PM's observed load is `count + n_on`), all OFF at the
    /// start; returns each step's `n_on` per PM for `steps` steps.
    fn run_cells(count: usize, p_on: f64, p_off: f64, m: usize, steps: u64) -> Vec<Vec<u32>> {
        let vms: Vec<VmSpec> = (0..count * m)
            .map(|i| VmSpec::new(i, p_on, p_off, 1.0, 1.0))
            .collect();
        let host: Vec<Option<usize>> = (0..vms.len()).map(|i| Some(i / count)).collect();
        let members = Members::from_assignment(&host, m);
        let mut core = WorkloadCore::new(&vms, m, 2024, RngLayout::ClassAggregated, 1);
        core.class_init(&members);
        let mut observed = vec![0.0; m];
        (0..steps)
            .map(|step| {
                core.step(step, &members, &mut observed);
                observed
                    .iter()
                    .map(|&o| (o - count as f64) as u32)
                    .collect()
            })
            .collect()
    }

    /// `v·P`.
    fn forward(v: &[f64], p: &[Vec<f64>]) -> Vec<f64> {
        (0..v.len())
            .map(|j| v.iter().zip(p).map(|(vi, row)| vi * row[j]).sum())
            .collect()
    }

    #[test]
    fn transient_law_matches_the_eq12_matrix_power() {
        // 20 000 independent cells started all OFF: `n_on` after steps
        // 1, 3, 10, 40 and 150 against `e_0·P^t`, and the pair of steps
        // (10, 11) and (150, 151) against `e_0·P^10` times `P`.
        let m = 20_000;
        let mut worst = f64::INFINITY;
        for (p_on, p_off) in [(0.01, 0.09), (0.09, 0.01)] {
            for count in [1usize, 2, 5, 16] {
                let chain = AggregateChain::new(count, p_on, p_off);
                let p: Vec<Vec<f64>> = (0..=count).map(|i| chain.transition_row(i)).collect();
                let trace = run_cells(count, p_on, p_off, m, 152);
                let mut law = vec![0.0; count + 1];
                law[0] = 1.0;
                let mut laws = Vec::new();
                for _ in 0..152 {
                    law = forward(&law, &p);
                    laws.push(law.clone());
                }
                let label = format!("count {count}, ({p_on}, {p_off})");
                let mut check = |observed: &[u64], probs: &[f64], what: &str| {
                    let fit = chi_square_gof(observed, probs)
                        .unwrap_or_else(|| panic!("{label}, {what}: one pooled bin"));
                    worst = worst.min(fit.p_value);
                    assert!(fit.p_value > 1e-4, "{label}, {what}: {fit:?}");
                };
                for t in [1usize, 3, 10, 40, 150] {
                    let mut hist = vec![0u64; count + 1];
                    for &n_on in &trace[t - 1] {
                        hist[n_on as usize] += 1;
                    }
                    check(&hist, &laws[t - 1], &format!("step {t}"));
                }
                for t in [10usize, 150] {
                    let states = count + 1;
                    let mut hist = vec![0u64; states * states];
                    for (&a, &b) in trace[t - 1].iter().zip(&trace[t]) {
                        hist[a as usize * states + b as usize] += 1;
                    }
                    let probs: Vec<f64> = (0..states * states)
                        .map(|ab| laws[t - 1][ab / states] * p[ab / states][ab % states])
                        .collect();
                    check(&hist, &probs, &format!("steps ({t}, {})", t + 1));
                }
            }
        }
        eprintln!("smallest chi-square p-value: {worst:.4}");
    }
}
