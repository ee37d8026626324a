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
//!   ON-counter cell; a step is two counter-based binomial draws per
//!   occupied cell (`ON→OFF ~ B(n_on, p_off)`, `OFF→ON ~ B(n_off,
//!   p_on)`) keyed on `(seed, pm, class, step)`, and per-PM demand is
//!   `counter × class demand`. Cost scales with occupied cells, not
//!   fleet size, and past the two hashes per cell with the cells whose
//!   counter moved (`ClassKernel::evolve_chunk`). Thread-count invariant (each PM's demand is computed
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
use crate::rng::binomial_table::{CacheStats, TableCache, DEFAULT_ENTRY_BUDGET};
use crate::rng::{class_cell_key, class_hash, flip_threshold, keyed_binomial, keyed_bits};
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
/// `count` resident VMs of `class`, `n_on` of them currently ON, and the
/// pre-mixed stream key of the cell's binomial draws. A location is a PM
/// or the displaced-VM limbo pool; each location's cells stay sorted by
/// class index so evolution and demand accumulation order are canonical.
/// The location itself is not stored: it is the chunk's CSR run the cell
/// sits in.
///
/// `thr` caches the quiet test (`ClassKernel::evolve_chunk`):
/// `quiet_thr` of the zero-outcome thresholds of the departure draw
/// (`p_off`, `n_on`) and the arrival draw (`p_on`, `count − n_on`), as
/// the chunk's cache stood at the end of the cell's last slow-path
/// visit. `[0, 0]` is *stale* (no draw passes): every change of the
/// counts and every flush of the chunk's cache resets it. Derived state,
/// never serialized.
///
/// Layout: 24 bytes, no padding — `key` (8), `class`, `count`, `n_on`
/// (4 each), `thr` (2 × 2).
struct Cell {
    key: u64,
    class: u32,
    count: u32,
    n_on: u32,
    thr: [u16; 2],
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
            thr: STALE,
        }
    }
}

/// The cached quiet thresholds of a cell whose counts just changed, or
/// whose chunk's cache just flushed: no draw passes.
const STALE: [u16; 2] = [0, 0];

/// How far the cached quiet test shifts a 53-bit draw: `k >> 37` is a
/// 16-bit number.
const QUIET_SHIFT: u32 = 37;

/// A zero-outcome threshold (`TableCache::zero_threshold`) narrowed to
/// the cached 16-bit form. Conservative: `(k >> QUIET_SHIFT) <
/// quiet_thr(thr)` implies `k < thr`, and it gives up at most `2⁻¹⁶` of
/// probability per draw to a needless (and harmless) slow path.
#[inline]
fn quiet_thr(thr: u64) -> u16 {
    (thr >> QUIET_SHIFT).min(u64::from(u16::MAX)) as u16
}

/// What one fixed chunk of [`CLASS_PM_CHUNK`] locations owns: its cells,
/// its sampler and its stale-PM lists. Each chunk is evolved by exactly
/// one worker per step, and the chunk partition is a function of `m`
/// only, so the summed cache counters are invariant in the thread count
/// — and a structural edit (a move, a crash) shifts one chunk's arrays,
/// never the fleet's.
struct ClassChunk {
    /// The chunk's cells, location by location, sorted by class within
    /// each location. The hot loop only mutates `n_on`.
    cells: Vec<Cell>,
    /// CSR offsets over `cells`, local to the chunk: the location `l`
    /// places past the chunk's first owns
    /// `cells[offsets[l] as usize..offsets[l + 1] as usize]`.
    offsets: Vec<u32>,
    /// The chunk's memoized binomial sampler.
    cache: TableCache,
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
            cache: TableCache::new(p_values, DEFAULT_ENTRY_BUDGET),
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
        cell.thr = STALE;
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
        match self.cells[range.clone()].binary_search_by_key(&cell.class, |c| c.class) {
            Ok(at) => {
                let into = &mut self.cells[range.start + at];
                into.count += cell.count;
                into.n_on += cell.n_on;
                into.thr = STALE;
            }
            Err(at) => {
                self.cells.insert(range.start + at, cell);
                for o in &mut self.offsets[l + 1..] {
                    *o += 1;
                }
            }
        }
    }
}

/// Which binomial sampler the class kernel draws through.
#[derive(Clone, Copy)]
enum Sampler {
    /// The memoized tables, a quiet cell tested against its cached
    /// thresholds (what the engine runs).
    Tables,
    /// The pmf-recurrence walk on every draw: the reference kernel the
    /// tables are bit-identical to.
    Walk,
    /// The tables, with the quiet test's thresholds looked up in the
    /// cache for every cell on every step: the kernel the per-cell
    /// thresholds replaced, kept as their oracle.
    #[cfg(test)]
    Lookup,
}

/// One step's read-only view of the class layout, as each worker sees it.
struct ClassKernel<'a> {
    classes: &'a [ClassInfo],
    step: u64,
    sampler: Sampler,
    primed: bool,
}

/// Lists, on its chunk's stale list, the location of each cell whose
/// counter moved. Cells are visited in ascending order, so a cursor over
/// the chunk's CSR offsets finds the location, and consecutive cells of
/// one location list it once.
struct StaleMarker<'a> {
    offsets: &'a [u32],
    /// The chunk's first location.
    lo: usize,
    /// The cursor: the chunk-local location of the cell marked last (0
    /// before the first).
    l: usize,
    /// The chunk-local location listed last, or `usize::MAX`.
    last: usize,
    dirty: &'a mut Vec<u32>,
}

impl StaleMarker<'_> {
    /// The counter of the chunk's cell `at` moved.
    #[inline]
    fn mark(&mut self, at: usize) {
        while self.offsets[self.l + 1] as usize <= at {
            self.l += 1;
        }
        if self.l != self.last {
            self.last = self.l;
            self.dirty.push((self.lo + self.l) as u32);
        }
    }
}

impl ClassKernel<'_> {
    /// Evolves `chunk`, whose first location is `lo`, one step; `obs` is
    /// the chunk's own slice of `observed` (the limbo pool has no
    /// entry). Only a stale PM's entry is folded again (DESIGN.md §8).
    fn evolve_chunk(&self, lo: usize, chunk: &mut ClassChunk, obs: &mut [f64]) {
        let ClassChunk {
            cells,
            offsets,
            cache,
            dirty,
            refolded,
        } = chunk;
        let mut stale = StaleMarker {
            offsets,
            lo,
            l: 0,
            last: usize::MAX,
            dirty,
        };
        match self.sampler {
            Sampler::Tables => self.draw_tables(cells, cache, &mut stale),
            Sampler::Walk => self.draw_walk(cells, &mut stale),
            #[cfg(test)]
            Sampler::Lookup => self.draw_lookup(cells, cache, &mut stale),
        }

        let fold = |l: usize| {
            cells[offsets[l] as usize..offsets[l + 1] as usize]
                .iter()
                .fold(0.0, |demand, cell| {
                    let info = &self.classes[cell.class as usize];
                    demand
                        + (f64::from(cell.n_on) * info.demand_on
                            + f64::from(cell.count - cell.n_on) * info.demand_off)
                })
        };
        if self.primed {
            for &j in dirty.iter() {
                // The limbo pool (the last location) has no entry.
                let l = j as usize - lo;
                if let Some(sum) = obs.get_mut(l) {
                    *sum = fold(l);
                }
            }
        } else {
            for (l, sum) in obs.iter_mut().enumerate() {
                *sum = fold(l);
            }
        }
        refolded.clear();
        std::mem::swap(dirty, refolded);
    }

    /// The memoized-table kernel. A *quiet* cell — both draws under its
    /// cached zero-outcome thresholds, all but a few percent of cells
    /// for bursty chains — costs two hashes and two integer compares,
    /// reads only `key`, `thr`, `n_on` and `count`, and is left
    /// untouched; the rest take [`ClassKernel::visit`].
    fn draw_tables(&self, cells: &mut [Cell], cache: &mut TableCache, stale: &mut StaleMarker) {
        let (out_at, in_at) = (2 * self.step, 2 * self.step + 1);
        let mut quiet_hits = 0u64;
        let mut evictions = cache.stats().evictions;
        for at in 0..cells.len() {
            let cell = &cells[at];
            let (k_out, k_in) = (keyed_bits(cell.key, out_at), keyed_bits(cell.key, in_at));
            if ((k_out >> QUIET_SHIFT) < u64::from(cell.thr[0]))
                & ((k_in >> QUIET_SHIFT) < u64::from(cell.thr[1]))
            {
                quiet_hits += u64::from(cell.n_on != 0) + u64::from(cell.n_on != cell.count);
                continue;
            }
            self.visit(cells, at, [k_out, k_in], cache, &mut evictions, stale);
        }
        cache.count_hits(quiet_hits);
    }

    /// The slow path of cell `at`: both draws through the sampler, then
    /// the cell's thresholds cached again from the cache as it now
    /// stands. `evictions` is the cache's eviction count as the pass last
    /// saw it: a flush during the draws first resets every cell of the
    /// chunk to stale, since the tables their thresholds came from are
    /// gone. A flush that evicts nothing may go unseen: every table
    /// built since the last flush seen would have been evicted by it, so
    /// no cell holds a threshold from a table (the `n = 0` entry
    /// survives flushes).
    #[inline]
    fn visit(
        &self,
        cells: &mut [Cell],
        at: usize,
        [k_out, k_in]: [u64; 2],
        cache: &mut TableCache,
        evictions: &mut u64,
        stale: &mut StaleMarker,
    ) {
        let cell = &cells[at];
        let info = &self.classes[cell.class as usize];
        let (slot_off, slot_on) = (info.slot_off as usize, info.slot_on as usize);
        let (n_on, n_off) = (cell.n_on, cell.count - cell.n_on);
        let out = cache.draw_bits(slot_off, k_out, n_on);
        let inn = cache.draw_bits(slot_on, k_in, n_off);
        if cache.stats().evictions != *evictions {
            *evictions = cache.stats().evictions;
            cells.iter_mut().for_each(|cell| cell.thr = STALE);
        }
        let cell = &mut cells[at];
        if out != inn {
            cell.n_on = n_on - out + inn;
            stale.mark(at);
        }
        cell.thr = [
            quiet_thr(cache.zero_threshold(slot_off, cell.n_on)),
            quiet_thr(cache.zero_threshold(slot_on, cell.count - cell.n_on)),
        ];
    }

    /// The walk kernel: `keyed_binomial` on every draw, no quiet test.
    fn draw_walk(&self, cells: &mut [Cell], stale: &mut StaleMarker) {
        let (out_at, in_at) = (2 * self.step, 2 * self.step + 1);
        for (at, cell) in cells.iter_mut().enumerate() {
            let info = &self.classes[cell.class as usize];
            let (n_on, n_off) = (cell.n_on, cell.count - cell.n_on);
            let out = keyed_binomial(cell.key, out_at, n_on, info.p_off);
            let inn = keyed_binomial(cell.key, in_at, n_off, info.p_on);
            if out != inn {
                cell.n_on = n_on - out + inn;
                stale.mark(at);
            }
        }
    }

    /// The oracle of [`ClassKernel::draw_tables`]: the same quiet test,
    /// with each threshold looked up in the cache where it is used.
    #[cfg(test)]
    fn draw_lookup(&self, cells: &mut [Cell], cache: &mut TableCache, stale: &mut StaleMarker) {
        let (out_at, in_at) = (2 * self.step, 2 * self.step + 1);
        let mut quiet_hits = 0u64;
        for (at, cell) in cells.iter_mut().enumerate() {
            let info = &self.classes[cell.class as usize];
            let (slot_off, slot_on) = (info.slot_off as usize, info.slot_on as usize);
            let (n_on, n_off) = (cell.n_on, cell.count - cell.n_on);
            let (k_out, k_in) = (keyed_bits(cell.key, out_at), keyed_bits(cell.key, in_at));
            if (k_out < cache.zero_threshold(slot_off, n_on))
                & (k_in < cache.zero_threshold(slot_on, n_off))
            {
                quiet_hits += u64::from(n_on != 0) + u64::from(n_off != 0);
                continue;
            }
            let out = cache.draw_bits(slot_off, k_out, n_on);
            let inn = cache.draw_bits(slot_on, k_in, n_off);
            if out != inn {
                cell.n_on = n_on - out + inn;
                stale.mark(at);
            }
        }
        cache.count_hits(quiet_hits);
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
        host: &[Option<usize>],
        hosted: &[Vec<usize>],
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
            if let Some(j) = host[i] {
                dirty.mark(j);
            }
        }

        // Re-derive the stale sums. A PM's entry is `0.0` plus its
        // members' demands in ascending VM index either way — exactly
        // what the one-pass accumulation computes for it — so which
        // branch runs changes no bit. Once the dirty PMs host half the
        // fleet, the one pass is the bounded way to the same sums: it
        // reads the VMs in order and needs no member list sorted.
        let demand = |i: usize| demand_by_state[i][usize::from(on[i])];
        let stale_vms: usize = dirty.list.iter().map(|&j| hosted[j as usize].len()).sum();
        let all = !primed || 2 * stale_vms >= on.len();
        if all {
            observed.fill(0.0);
            for (i, j) in host.iter().enumerate() {
                if let Some(j) = *j {
                    observed[j] += demand(i);
                }
            }
        } else {
            for &j in &dirty.list {
                // `hosted[j]` keeps arrival order (victim tie-breaking
                // reads it); a migrant can leave it non-ascending.
                let mut members = &hosted[j as usize];
                if !members.is_sorted() {
                    ascending.clone_from(members);
                    ascending.sort_unstable();
                    members = ascending;
                }
                observed[j as usize] = members.iter().fold(0.0, |sum, &i| sum + demand(i));
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
        /// the tables are bit-identical to
        /// (`WorkloadCore::set_cached_sampler`).
        sampler: Sampler,
        /// Resolved worker count (≥ 1). Purely a throughput knob.
        threads: usize,
        seed: u64,
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
    /// Per-location `(class, count, n_on)` triples in cell order
    /// (locations `0..m` are the PMs, location `m` the limbo pool);
    /// cell keys are rebuilt from the seed and class hashes.
    ClassAggregated(Vec<Vec<(u32, u32, u32)>>),
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
    /// (`host[i] == None`) still evolve — the draw sequence must not
    /// depend on fault or migration decisions. `hosted` is the inverse
    /// of `host` (member lists per PM); only the `Shared` arm reads it.
    pub(crate) fn step(
        &mut self,
        step: u64,
        host: &[Option<usize>],
        hosted: &[Vec<usize>],
        observed: &mut [f64],
    ) {
        let Self {
            on,
            mode,
            primed,
            rederived_all,
        } = self;
        match mode {
            Mode::Shared(shared) => {
                *rederived_all = shared.step(*primed, on, host, hosted, observed);
            }
            Mode::ClassAggregated {
                classes,
                chunks,
                sampler,
                threads,
                ..
            } => {
                // Two binomial draws per occupied (location, class)
                // cell: the ON→OFF departures and OFF→ON arrivals of the
                // cell's superposed chains. Draw coordinates are pure
                // functions of (seed, location, class, step) — counters
                // 2·step and 2·step + 1 of the cell's keyed stream — so
                // any thread can evolve any location, and each PM's
                // demand is produced entirely by its own cells in
                // canonical class order: thread-count invariance needs
                // no reduction tree. Locations are cut into fixed
                // CLASS_PM_CHUNK chunks (a function of m only); the
                // limbo pool is the last location and rides in the last
                // chunk — displaced VMs keep evolving (the draw sequence
                // must not depend on fault decisions) but have no
                // demand entry.
                let kernel = ClassKernel {
                    classes,
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

    /// Builds the class-aggregated counters from the initial placement
    /// (every VM OFF, matching the all-`false` `on` vector). Must be
    /// called once before the first [`WorkloadCore::step`] under
    /// [`RngLayout::ClassAggregated`]; a no-op for the other layouts.
    pub(crate) fn class_init(&mut self, host: &[Option<usize>]) {
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
        let locations = *limbo + 1;
        let loc_of = |h: &Option<usize>| h.unwrap_or(*limbo);
        // Counting pass: group the VMs' class ids by location in one
        // flat array (`starts` are the per-location write cursors), then
        // sort each location's short run and emit one cell per distinct
        // class straight into the location's chunk.
        let mut starts = vec![0u32; locations + 1];
        for h in host {
            starts[loc_of(h) + 1] += 1;
        }
        for loc in 0..locations {
            starts[loc + 1] += starts[loc];
        }
        let mut by_loc = vec![0u32; host.len()];
        for (i, h) in host.iter().enumerate() {
            let cursor = &mut starts[loc_of(h)];
            by_loc[*cursor as usize] = class_of[i];
            *cursor += 1;
        }
        // Every cursor now sits at its location's end, i.e. the next
        // location's start.
        let mut lo = 0usize;
        for (c, chunk) in chunks.iter_mut().enumerate() {
            chunk.cells.clear();
            for l in 0..chunk.offsets.len() - 1 {
                let loc = c * CLASS_PM_CHUNK + l;
                let hi = starts[loc] as usize;
                let run = &mut by_loc[lo..hi];
                run.sort_unstable();
                let first = chunk.cells.len();
                for &class in run.iter() {
                    match chunk.cells[first..].last_mut() {
                        Some(cell) if cell.class == class => cell.count += 1,
                        _ => chunk
                            .cells
                            .push(Cell::new(class, 1, 0, loc, *seed, classes)),
                    }
                }
                chunk.offsets[l + 1] = chunk.cells.len() as u32;
                lo = hi;
            }
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
    pub(crate) fn class_sync_pm(&mut self, j: usize, members: &[usize]) {
        let Self { on, mode, .. } = self;
        let Mode::ClassAggregated {
            class_of, chunks, ..
        } = mode
        else {
            return;
        };
        let cells = Self::cells_at(chunks, j);
        Self::class_assign_flags(on, class_of, cells, members.iter().copied());
    }

    /// Refreshes the `on` flags of every displaced VM (`host[i] == None`)
    /// from the limbo-pool counters — the displaced-side counterpart of
    /// [`WorkloadCore::class_sync_pm`], called before evacuation passes.
    pub(crate) fn class_sync_displaced(&mut self, host: &[Option<usize>]) {
        let Self { on, mode, .. } = self;
        let Mode::ClassAggregated {
            class_of,
            chunks,
            limbo,
            ..
        } = mode
        else {
            return;
        };
        let displaced = host
            .iter()
            .enumerate()
            .filter(|(_, h)| h.is_none())
            .map(|(i, _)| i);
        let cells = Self::cells_at(chunks, *limbo);
        Self::class_assign_flags(on, class_of, cells, displaced);
    }

    /// Shared flag-assignment pass of the two sync hooks: group `members`
    /// by class, sort each group ascending, flag the first `n_on` of the
    /// matching cell ON.
    fn class_assign_flags(
        on: &mut [bool],
        class_of: &[u32],
        cells: &[Cell],
        members: impl Iterator<Item = usize>,
    ) {
        if cells.is_empty() {
            return;
        }
        // (class, vm index) sorted: classes ascending, indices ascending
        // within a class — one pass pairs each cell with its contiguous
        // member group (cells are sorted by class too).
        let mut by_class: Vec<(u32, usize)> = members.map(|i| (class_of[i], i)).collect();
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
        self.class_sync_pm(j, members);
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
        let pool = &mut chunks[*limbo / CLASS_PM_CHUNK];
        for cell in moved {
            pool.put(
                *limbo % CLASS_PM_CHUNK,
                Cell::new(cell.class, cell.count, cell.n_on, *limbo, *seed, classes),
            );
        }
    }

    /// Selects the class-aggregated binomial sampler: the memoized
    /// tables (`true`, what the engine always runs) or the plain
    /// pmf-recurrence walk, the reference the tables are bit-identical
    /// to. Only the kernel bench (`bench_api`) and this module's tests
    /// pick the walk. A no-op for the shared layout.
    pub(crate) fn set_cached_sampler(&mut self, use_tables: bool) {
        self.set_sampler(if use_tables {
            Sampler::Tables
        } else {
            Sampler::Walk
        });
    }

    /// Switches the class kernel's sampler. Only [`Sampler::Tables`]
    /// keeps the cells' cached thresholds current, so every cell starts
    /// stale under the new one.
    fn set_sampler(&mut self, to: Sampler) {
        if let Mode::ClassAggregated {
            sampler, chunks, ..
        } = &mut self.mode
        {
            *sampler = to;
            for cell in chunks.iter_mut().flat_map(|chunk| chunk.cells.iter_mut()) {
                cell.thr = STALE;
            }
        }
    }

    /// Summed sampler-cache counters across the per-chunk caches
    /// (`None` for the other layouts). The chunk partition is a
    /// function of `m` only, so the sums are thread-count invariant.
    pub(crate) fn class_cache_stats(&self) -> Option<CacheStats> {
        let Mode::ClassAggregated { chunks, .. } = &self.mode else {
            return None;
        };
        Some(chunks.iter().fold(CacheStats::default(), |acc, c| {
            let s = c.cache.stats();
            CacheStats {
                hits: acc.hits + s.hits,
                misses: acc.misses + s.misses,
                evictions: acc.evictions + s.evictions,
            }
        }))
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
                chunk.cells.iter_mut().for_each(|cell| cell.thr = STALE);
            }
        }
    }

    /// Asserts that `observed` — fresh out of [`WorkloadCore::step`] — is
    /// `to_bits`-equal to the from-scratch accumulation the carried sums
    /// replace: one pass over all VMs under `Shared`, a fold of every
    /// PM's cells under `ClassAggregated`. This is what catches a write
    /// to `observed` the caller did not report.
    #[cfg(test)]
    pub(crate) fn assert_observed_is_full_accumulation(
        &self,
        host: &[Option<usize>],
        observed: &[f64],
    ) {
        let mut full = vec![0.0f64; observed.len()];
        match &self.mode {
            Mode::Shared(shared) => {
                for (i, j) in host.iter().enumerate() {
                    if let Some(j) = *j {
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
                                .map(|c| (c.class, c.count, c.n_on))
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
                    for &(class, count, n_on) in cs {
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
                        .extend(src.into_iter().map(|(class, count, n_on)| {
                            Cell::new(class, count, n_on, loc, *seed, classes)
                        }));
                    chunk.offsets[loc % CLASS_PM_CHUNK + 1] = chunk.cells.len() as u32;
                }
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

    /// The per-PM member lists of `host`, ascending.
    fn hosted_of(host: &[Option<usize>], m: usize) -> Vec<Vec<usize>> {
        let mut hosted = vec![Vec::new(); m];
        for (i, j) in host.iter().enumerate() {
            if let Some(j) = *j {
                hosted[j].push(i);
            }
        }
        hosted
    }

    fn run_core(core: &mut WorkloadCore, host: &[Option<usize>], m: usize, steps: u64) -> Vec<f64> {
        let hosted = hosted_of(host, m);
        let mut observed = vec![0.0; m];
        let mut trace = Vec::new();
        for step in 0..steps {
            core.step(step, host, &hosted, &mut observed);
            core.assert_observed_is_full_accumulation(host, &observed);
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
        let mut host: Vec<Option<usize>> = (0..vms.len())
            .map(|i| (i % 11 != 5).then_some(i % 9))
            .collect();
        let mut hosted = hosted_of(&host, m);
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
            for (i, j) in host.iter().enumerate() {
                if let Some(j) = *j {
                    legacy[j] += vms[i].demand(on[i]);
                }
            }
            core.step(step, &host, &hosted, &mut observed);
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
                    let from = host[i].unwrap();
                    core.vm_moved(i, Some(from), Some(to));
                    hosted[from].retain(|&v| v != i);
                    hosted[to].push(i);
                    host[i] = Some(to);
                }
            }
            if step == 35 {
                // A crash empties PM 4; one displaced VM lands on PM 10.
                core.pm_crashed(4, &hosted[4]);
                for i in std::mem::take(&mut hosted[4]) {
                    host[i] = None;
                }
                let i = 4;
                core.vm_moved(i, None, Some(10));
                hosted[10].push(i);
                host[i] = Some(10);
            }
        }
        assert!(!hosted[9].is_sorted() && !hosted[2].is_sorted());
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
        let (m, host) = (2, vec![Some(0); 8]);
        let hosted = hosted_of(&host, m);
        for layout in [RngLayout::Shared, RngLayout::ClassAggregated] {
            for reported in [true, false] {
                let mut core = WorkloadCore::new(&vms, m, 5, layout, 1);
                core.class_init(&host);
                let mut observed = vec![0.0; m];
                core.step(0, &host, &hosted, &mut observed);
                core.assert_observed_is_full_accumulation(&host, &observed);
                observed[1] += 1.0;
                if reported {
                    core.pm_stale(1);
                }
                core.step(1, &host, &hosted, &mut observed);
                let check = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    core.assert_observed_is_full_accumulation(&host, &observed)
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
                core.class_init(&host);
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
        fwd.class_init(&host);
        let trace_fwd = run_core(&mut fwd, &host, m, 30);

        let vms_rev: Vec<VmSpec> = vms.iter().rev().cloned().collect();
        let host_rev: Vec<Option<usize>> = host.iter().rev().copied().collect();
        let mut rev = WorkloadCore::new(&vms_rev, m, 3, RngLayout::ClassAggregated, 1);
        rev.class_init(&host_rev);
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
        let host: Vec<Option<usize>> = vec![Some(0); k];
        let mut core = WorkloadCore::new(&vms, 1, 11, RngLayout::ClassAggregated, 1);
        core.class_init(&host);
        let mut observed = vec![0.0; 1];
        let steps = 6000u64;
        let (mut sum, mut sum_sq) = (0.0, 0.0);
        for step in 0..steps {
            core.step(step, &host, &[], &mut observed);
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
            core.set_cached_sampler(cached);
            core.class_init(&host);
            let mut host = host.clone();
            let mut observed = vec![0.0; m];
            let mut trace = Vec::new();
            for step in 0..60u64 {
                core.step(step, &host, &[], &mut observed);
                core.assert_observed_is_full_accumulation(&host, &observed);
                trace.extend(observed.iter().map(|v| v.to_bits()));
                if step == 20 {
                    // Move a few hosted VMs to their neighbouring PM.
                    for &i in &[1usize, 7, 14] {
                        let members: Vec<usize> =
                            (0..vms.len()).filter(|&v| host[v] == host[i]).collect();
                        core.class_sync_pm(host[i].unwrap(), &members);
                        let to = host[i].map(|j| (j + 1) % m);
                        core.vm_moved(i, host[i], to);
                        host[i] = to;
                    }
                }
                if step == 40 {
                    // Crash PM 3: everyone there merges into limbo.
                    let members: Vec<usize> =
                        (0..vms.len()).filter(|&v| host[v] == Some(3)).collect();
                    core.pm_crashed(3, &members);
                    for &i in &members {
                        host[i] = None;
                    }
                }
            }
            core.class_sync_displaced(&host);
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
            let mut core = WorkloadCore::new(&vms, m, 7, RngLayout::ClassAggregated, threads);
            core.class_init(&host);
            let mut observed = vec![0.0; m];
            for step in 0..10u64 {
                core.step(step, &host, &[], &mut observed);
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
        let mut core = WorkloadCore::new(&vms, m, 5, RngLayout::ClassAggregated, 1);
        core.set_cached_sampler(false);
        core.class_init(&host);
        let mut observed = vec![0.0; m];
        for step in 0..10u64 {
            core.step(step, &host, &[], &mut observed);
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
        let mut core = WorkloadCore::new(&vms, m, 5, RngLayout::ClassAggregated, 1);
        core.class_init(&host);
        let mut observed = vec![0.0; m];
        for step in 0..20 {
            core.step(step, &host, &[], &mut observed);
        }
        let members: Vec<usize> = (0..vms.len()).filter(|i| i % m == 0).collect();
        core.class_sync_pm(0, &members);
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
        core.class_sync_pm(0, &members);
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
        let hosted = hosted_of(&host, m);
        for layout in [RngLayout::Shared, RngLayout::ClassAggregated] {
            let mut a = WorkloadCore::new(&vms, m, 42, layout, 1);
            a.class_init(&host);
            let mut observed = vec![0.0; m];
            for step in 0..40 {
                a.step(step, &host, &hosted, &mut observed);
            }
            // Rebuild a fresh core from specs, then restore the evolving
            // state — exactly what checkpoint load does.
            let mut b = WorkloadCore::new(&vms, m, 42, layout, 1);
            b.class_init(&host);
            b.restore_mode(a.snapshot_mode()).unwrap();
            b.on.copy_from_slice(&a.on);
            // `a` keeps the buffer its sums are carried in; the restored,
            // unprimed `b` derives every entry and may take any.
            let mut ob = vec![f64::NAN; m];
            for step in 40..70 {
                a.step(step, &host, &hosted, &mut observed);
                b.step(step, &host, &hosted, &mut ob);
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
        let mut core = WorkloadCore::new(&vms, m, 42, RngLayout::ClassAggregated, 1);
        core.class_init(&host);
        let at_5 = run_core(&mut core, &host, m, 5);
        let snap = core.snapshot_mode();
        let mut observed = vec![0.0; m];
        for step in 5..30 {
            core.step(step, &host, &[], &mut observed);
        }
        core.restore_mode(snap).unwrap();
        core.step(5, &host, &[], &mut observed);
        core.assert_observed_is_full_accumulation(&host, &observed);

        let rotated: Vec<Option<usize>> = (0..vms.len()).map(|i| Some((i + 1) % m)).collect();
        core.class_init(&rotated);
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
        class.class_init(&host);
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
        let host = vec![None; vms.len()];
        for layout in [RngLayout::Shared, RngLayout::ClassAggregated] {
            let mut core = WorkloadCore::new(&vms, 3, 1, layout, 1);
            core.class_init(&host);
            let mut observed = vec![1.0; 3];
            for step in 0..10 {
                core.step(step, &host, &[], &mut observed);
            }
            core.class_sync_displaced(&host);
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

    /// Two class-layout cores over one fleet, stepped side by side: one
    /// on the per-cell cached thresholds at `threads` workers, the other
    /// on the in-loop lookup they replaced ([`Sampler::Lookup`]) at one.
    /// Both chunk caches hold `budget` live entries.
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
            let core = |threads, sampler| {
                let mut core = WorkloadCore::new(vms, m, 17, RngLayout::ClassAggregated, threads);
                core.set_entry_budget(budget);
                core.set_sampler(sampler);
                core.class_init(host);
                core
            };
            Self {
                cores: [core(threads, Sampler::Tables), core(1, Sampler::Lookup)],
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
            let members = members_at(host, from);
            self.edit(|core| match from {
                Some(j) => core.class_sync_pm(j, &members),
                None => core.class_sync_displaced(host),
            });
            for &i in vms {
                assert_eq!(host[i], from);
                self.edit(|core| core.vm_moved(i, from, to));
                host[i] = to;
            }
        }

        /// Steps both cores and compares every cell's counters, every
        /// observed sum and the cache counters.
        fn step(&mut self, step: u64, host: &[Option<usize>]) {
            for (core, observed) in self.cores.iter_mut().zip(&mut self.observed) {
                core.step(step, host, &[], observed);
                core.assert_observed_is_full_accumulation(host, observed);
            }
            let cells = |core: &WorkloadCore| match core.snapshot_mode() {
                CoreSnapshot::ClassAggregated(locs) => locs,
                CoreSnapshot::Shared(_) => unreachable!("class layout"),
            };
            assert!(
                cells(&self.cores[0]) == cells(&self.cores[1]),
                "cell counters diverged at step {step}"
            );
            assert_eq!(
                self.cores[0].class_cache_stats(),
                self.cores[1].class_cache_stats(),
                "cache counters diverged at step {step}"
            );
            let bits = |observed: &[f64]| observed.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&self.observed[0]), bits(&self.observed[1]));
        }
    }

    /// Four chunks, so four workers each take one.
    const PAIR_PMS: usize = 4 * CLASS_PM_CHUNK - 100;

    #[test]
    fn cached_thresholds_match_the_lookup_oracle_across_mid_chunk_flushes() {
        // A 96-entry budget flushes each chunk's cache many times per
        // pass, after cells earlier in the chunk cached thresholds from
        // the tables it drops: a cell after the flush must take the slow
        // path, as the lookup finds no table for it either.
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
            assert!(stats.hits > stats.misses, "test premise: quiet cells");
            assert!(evictions(&pair) > warm, "test premise: flushes once warm");
        }
    }

    #[test]
    fn cached_thresholds_match_the_lookup_oracle_across_moves_crashes_and_landings() {
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
                    // Each big cell drops to a count no table covers yet
                    // (`take_vm`), and a fresh cell of 25 opens next door.
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
    fn cached_thresholds_match_the_lookup_oracle_after_restore_and_class_init() {
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
            // Back to step 10's counters, on caches warm from step 19.
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
            pair.edit(|core| core.class_init(&rotated));
            for step in 20..30 {
                pair.step(step, &rotated);
            }
        }
    }
}
