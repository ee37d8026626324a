//! O(1)-expected exact binomial sampling for the class-aggregated hot
//! loop: memoized CDF prefix tables with Chen–Asau guide tables.
//!
//! [`super::keyed_binomial`] inverts one uniform through the binomial
//! CDF by an ordered pmf-recurrence walk — `O(E[X] + 1)` f64 recurrence
//! iterations per draw. The class-aggregated engine issues two such
//! draws per occupied `(PM, class)` cell per step, and the `(n, p)` key
//! space those draws range over is tiny: `p` comes from the class table
//! (≤ ~100 distinct values) and `n` is a cell's ON (or OFF) count,
//! which fluctuates in a narrow band around `count · π`. A
//! [`BinomialTable`] snapshots the walk's CDF prefix once per `(n, p)`
//! and answers every later draw with one guide-table jump plus an
//! expected O(1) scan.
//!
//! **Bit-identity contract** (DESIGN.md §8): the table stores the
//! *exact* f64 partial sums the walk produces — same anchor (including
//! the `q^n`-underflow `ln_gamma` regime, via [`super::walk_anchor`]),
//! same recurrence, same accumulation order — so
//! `table.sample_u01(u) == binomial_from_u01(u, n, p)` for every `u`,
//! bitwise, not approximately. The prefix is truncated only when every
//! later partial sum is provably the same f64 (the next addend is
//! absorbed by the running sum *and* the pmf is past its mode, so all
//! later addends are no larger and absorbed too); past the stored
//! prefix the walk provably runs to `k == n`, which is what the lookup
//! returns. The cache's zero-outcome fast path is covered by the same
//! contract: it returns 0 exactly when `u < cdf[0]` of a table anchored
//! at 0, which is the walk's first comparison.
//!
//! Tables never go stale: a table is a pure function of `(n, p)`, valid
//! under any placement, churn, or restored checkpoint. Churn only makes
//! entries *cold* (cell counts move to new `n` values), so the cache is
//! bounded by a generation flush — when the live f64/u32 entries exceed
//! the budget, every table is dropped and rebuilding starts from the
//! draws that still happen. Hit/miss/evict counts are exposed for the
//! `obs` layer.

use super::{bits_to_u01, flip_threshold, keyed_u01, walk_anchor};

/// Default per-cache budget of live table entries (`cdf` f64s plus
/// `guide` u32s). Typical steady state is a few hundred tables of a few
/// dozen entries each; 2^16 entries (~0.75 MB) is far above that while
/// keeping even a pathological churn storm bounded.
pub(crate) const DEFAULT_ENTRY_BUDGET: usize = 1 << 16;

/// The memoized inverse CDF of one `Binomial(n, p)` with `n ≥ 1` and
/// `0 < p < 1`: the exact f64 partial sums of the pmf-recurrence walk,
/// plus a guide table for O(1)-expected lookup.
#[derive(Debug)]
pub struct BinomialTable {
    n: u32,
    /// First value covered by `cdf[0]` (0 unless `q^n` underflowed and
    /// the walk anchored at the lower 12σ edge).
    start: u32,
    /// `cdf[i]` = the walk's running sum after value `start + i`, in
    /// the walk's own accumulation order. Non-decreasing.
    cdf: Vec<f64>,
    /// Chen–Asau guide: `guide[g]` is a lower bound on the answer index
    /// for any `u` with `floor(u·G) == g`. Only a search accelerator —
    /// the lookup walks both directions, so a conservative entry can
    /// cost a step, never correctness.
    guide: Vec<u32>,
}

impl BinomialTable {
    /// Builds the table by running the walk's recurrence to absorption.
    ///
    /// # Panics
    /// Debug-asserts `n ≥ 1` and `0 < p < 1`; the degenerate cells are
    /// the caller's short-circuits (they never consult a table).
    pub fn build(n: u32, p: f64) -> Self {
        debug_assert!(n >= 1 && p > 0.0 && p < 1.0);
        let q = 1.0 - p;
        let ratio = p / q;
        let (start, mut pmf) = walk_anchor(n, p, q);
        let mut cdf = pmf;
        let mut sums = vec![cdf];
        let mut k = start;
        while k < n {
            let r = (n - k) as f64 / (k + 1) as f64 * ratio;
            let next = pmf * r;
            // Sound truncation: if the next addend is absorbed bitwise
            // and the recurrence multiplier is ≤ 1 (the pmf is past its
            // mode, so every later addend is no larger and therefore
            // absorbed too), the walk's running sum never changes again
            // and it provably proceeds to k == n — exactly what the
            // lookup returns past the stored prefix.
            if next == 0.0 || (r <= 1.0 && cdf + next == cdf) {
                break;
            }
            pmf = next;
            k += 1;
            cdf += pmf;
            sums.push(cdf);
        }
        let len = sums.len();
        let mut guide = vec![len as u32; len];
        let mut i = 0usize;
        for (g, slot) in guide.iter_mut().enumerate() {
            let threshold = g as f64 / len as f64;
            while i < len && sums[i] <= threshold {
                i += 1;
            }
            *slot = i as u32;
        }
        Self {
            n,
            start,
            cdf: sums,
            guide,
        }
    }

    /// Inverts `u ∈ [0, 1)` through the stored CDF: the smallest value
    /// whose partial sum exceeds `u`, or `n` past the stored prefix.
    /// Bit-identical to [`binomial_from_u01`] for this table's `(n, p)`.
    #[inline]
    pub fn sample_u01(&self, u: f64) -> u32 {
        let len = self.cdf.len();
        let g = ((u * len as f64) as usize).min(len - 1);
        let mut i = self.guide[g] as usize;
        while i < len && u >= self.cdf[i] {
            i += 1;
        }
        // Guard against a guide entry past the answer (possible only
        // through f64 rounding in the bucket index); in practice this
        // loop never iterates.
        while i > 0 && u < self.cdf[i - 1] {
            i -= 1;
        }
        if i == len {
            self.n
        } else {
            self.start + i as u32
        }
    }

    /// Live entries this table holds against a cache budget (`cdf` f64s
    /// plus `guide` u32s).
    pub(crate) fn entries(&self) -> usize {
        self.cdf.len() + self.guide.len()
    }
}

/// Cache counters, summed across caches for the `obs` layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Draws answered from an existing table.
    pub hits: u64,
    /// Draws that had to build a table first.
    pub misses: u64,
    /// Tables dropped by generation flushes.
    pub evictions: u64,
}

/// One memoized table's location inside its slot's arenas.
#[derive(Debug, Clone, Copy)]
struct TableMeta {
    /// The table's `n` (the lookup answer past the stored prefix).
    n: u32,
    /// First value covered by the prefix (the walk's anchor).
    start: u32,
    /// Offset of this table's segment in both `cdf` and `guide`.
    off: u32,
    /// Segment length (the stored prefix length).
    len: u32,
}

/// Sentinel in the per-`n` index: no table built for this `n` yet.
const ABSENT: u32 = u32::MAX;

/// Tables of one distinct success probability, arena-packed: all CDF
/// prefixes in one `Vec<f64>`, all guide tables in one `Vec<u32>`, and
/// a dense per-`n` index into the metadata — one dependent load fewer
/// per draw than boxed per-table storage, and no per-table allocation.
#[derive(Debug)]
struct PSlot {
    p: f64,
    /// `index[n]` = position in `metas`, or [`ABSENT`].
    index: Vec<u32>,
    /// `zero_cut[n]` = the table's first partial sum `cdf[0]` when the
    /// table for `n` exists and is anchored at 0, else `-inf` (no table
    /// yet, or the `q^n`-underflow anchor `start > 0`). Same length as
    /// `index`. `u < zero_cut[n]` is exactly "the smallest value whose
    /// partial sum exceeds `u` is 0", so the draw is answered from this
    /// one load.
    zero_cut: Vec<f64>,
    /// `flip_threshold(zero_cut[n])`, the same test on the 53-bit draw
    /// itself: `k < zero_thr[n]` ⇔ `k · 2⁻⁵³ < zero_cut[n]`, so it is 0
    /// wherever `zero_cut` is `-inf`. Index 0 alone is `u64::MAX` (a
    /// draw over no chains is 0 whatever `k`), and always present.
    zero_thr: Vec<u64>,
    metas: Vec<TableMeta>,
    cdf: Vec<f64>,
    guide: Vec<u32>,
}

impl PSlot {
    /// The arena-resident equivalent of [`BinomialTable::sample_u01`].
    #[inline]
    fn lookup(&self, ix: u32, u: f64) -> u32 {
        let meta = self.metas[ix as usize];
        let off = meta.off as usize;
        let len = meta.len as usize;
        let g = ((u * len as f64) as usize).min(len - 1);
        let mut i = self.guide[off + g] as usize;
        while i < len && u >= self.cdf[off + i] {
            i += 1;
        }
        while i > 0 && u < self.cdf[off + i - 1] {
            i -= 1;
        }
        if i == len {
            meta.n
        } else {
            meta.start + i as u32
        }
    }
}

/// A bounded memo of [`BinomialTable`]s over a fixed registry of `p`
/// values (registered at construction — the engine's class table is
/// known up front), indexed by `(slot, n)` with no hashing on the hot
/// path. The kernel owns one cache per PM chunk, so a chunk's counters
/// are produced by exactly one worker and their sum is invariant in the
/// thread count.
#[derive(Debug)]
pub struct TableCache {
    slots: Vec<PSlot>,
    live_entries: usize,
    budget_entries: usize,
    stats: CacheStats,
}

impl TableCache {
    /// A cache over the given `p` registry, bounded to `budget_entries`
    /// live table entries (a generation flush drops every table when a
    /// build would exceed the budget).
    pub fn new(ps: &[f64], budget_entries: usize) -> Self {
        Self {
            slots: ps
                .iter()
                .map(|&p| PSlot {
                    p,
                    index: Vec::new(),
                    zero_cut: Vec::new(),
                    zero_thr: vec![u64::MAX],
                    metas: Vec::new(),
                    cdf: Vec::new(),
                    guide: Vec::new(),
                })
                .collect(),
            live_entries: 0,
            budget_entries,
            stats: CacheStats::default(),
        }
    }

    /// The deterministic `Binomial(n, p_slot)` draw at `(key, counter)`
    /// — bit-identical to `keyed_binomial(key, counter, n, p_slot)`,
    /// answered from the memoized table (building it on first use).
    #[inline]
    pub fn draw(&mut self, slot: usize, key: u64, counter: u64, n: u32) -> u32 {
        self.draw_with(slot, n, || keyed_u01(key, counter))
    }

    /// [`TableCache::draw`] on the 53-bit draw `bits` itself, for a
    /// caller that already hashed the coordinates.
    #[inline]
    pub(crate) fn draw_bits(&mut self, slot: usize, bits: u64, n: u32) -> u32 {
        self.draw_with(slot, n, || bits_to_u01(bits))
    }

    /// The quiet test: a 53-bit draw `k < zero_threshold(slot, n)` makes
    /// `draw` return 0 without touching the cache — except that for
    /// `n ≥ 1` it would have counted one hit, which the caller owes to
    /// [`TableCache::count_hits`]. 0 (no `k` passes) wherever `draw`
    /// has to do more: no table for `n` yet, one anchored above zero,
    /// or a degenerate `p`.
    #[inline]
    pub fn zero_threshold(&self, slot: usize, n: u32) -> u64 {
        self.slots[slot]
            .zero_thr
            .get(n as usize)
            .copied()
            .unwrap_or(0)
    }

    /// Books `hits` draws the caller answered by the quiet test.
    #[inline]
    pub(crate) fn count_hits(&mut self, hits: u64) {
        self.stats.hits += hits;
    }

    /// [`TableCache::draw`] on an explicit uniform — bit-identical to
    /// `binomial_from_u01(u, n, p_slot)`. Exposed so the fast path's
    /// boundary can be differential-tested at chosen `u` values.
    pub fn draw_u01(&mut self, slot: usize, u: f64, n: u32) -> u32 {
        self.draw_with(slot, n, || u)
    }

    /// The draw proper; `u` is only evaluated past the short-circuits,
    /// so degenerate cells never pay for the hash.
    #[inline]
    fn draw_with(&mut self, slot: usize, n: u32, u: impl FnOnce() -> f64) -> u32 {
        let p = self.slots[slot].p;
        // The walk's degenerate short-circuits, verbatim.
        if n == 0 || p <= 0.0 {
            return 0;
        }
        if p >= 1.0 {
            return n;
        }
        let u = u();
        let slot_ref = &self.slots[slot];
        // Zero-outcome hit: the table's own answer for `u` below its
        // first partial sum, without walking index → metas → guide → cdf.
        if slot_ref
            .zero_cut
            .get(n as usize)
            .is_some_and(|&cut| u < cut)
        {
            self.stats.hits += 1;
            return 0;
        }
        // Hit path: index probe, metadata, guide jump, prefix scan.
        if let Some(&ix) = slot_ref.index.get(n as usize) {
            if ix != ABSENT {
                self.stats.hits += 1;
                return slot_ref.lookup(ix, u);
            }
        }
        self.build_and_sample(slot, u, n)
    }

    /// Miss path: builds the table into the slot's arenas (flushing
    /// first if the build would exceed the entry budget), then answers
    /// the draw.
    #[cold]
    fn build_and_sample(&mut self, slot: usize, u: f64, n: u32) -> u32 {
        self.stats.misses += 1;
        let table = BinomialTable::build(n, self.slots[slot].p);
        let cost = table.entries();
        if self.live_entries + cost > self.budget_entries {
            self.flush();
        }
        self.live_entries += cost;
        let s = &mut self.slots[slot];
        let ni = n as usize;
        if s.index.len() <= ni {
            s.index.resize(ni + 1, ABSENT);
            s.zero_cut.resize(ni + 1, f64::NEG_INFINITY);
            s.zero_thr.resize(ni + 1, 0);
        }
        let ix = s.metas.len() as u32;
        s.index[ni] = ix;
        if table.start == 0 {
            s.zero_cut[ni] = table.cdf[0];
            s.zero_thr[ni] = flip_threshold(table.cdf[0]);
        }
        s.metas.push(TableMeta {
            n: table.n,
            start: table.start,
            off: s.cdf.len() as u32,
            len: table.cdf.len() as u32,
        });
        s.cdf.extend_from_slice(&table.cdf);
        s.guide.extend_from_slice(&table.guide);
        s.lookup(ix, u)
    }

    /// Generation flush: drop every table, counting each as an
    /// eviction. Purely a memory bound — tables are pure functions of
    /// `(n, p)`, so nothing can become *wrong*, only cold.
    fn flush(&mut self) {
        for s in &mut self.slots {
            self.stats.evictions += s.metas.len() as u64;
            s.index.clear();
            s.zero_cut.clear();
            s.zero_thr.truncate(1);
            s.metas.clear();
            s.cdf.clear();
            s.guide.clear();
        }
        self.live_entries = 0;
    }

    /// Hit/miss/evict counters since construction.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::super::{binomial_from_u01, class_cell_key, class_hash, keyed_binomial};
    use super::*;

    /// The smallest `n` whose `q^n` underflows to 0.0 — the boundary
    /// between the direct anchor and the `ln_gamma` log-space anchor.
    fn underflow_cutoff(p: f64) -> u32 {
        let q = 1.0 - p;
        let mut lo = 1u32;
        let mut hi = 1u32;
        while q.powi(hi as i32) > 0.0 {
            hi *= 2;
        }
        while lo + 1 < hi {
            let mid = lo + (hi - lo) / 2;
            if q.powi(mid as i32) > 0.0 {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        hi
    }

    #[test]
    fn table_matches_walk_on_a_u_grid() {
        // Dense deterministic u grid per (n, p), both anchor regimes.
        for &p in &[1e-6, 0.01, 0.09, 0.25, 0.5, 0.91, 0.999] {
            for &n in &[1u32, 2, 7, 64, 141, 1000] {
                let t = BinomialTable::build(n, p);
                for i in 0..4096u64 {
                    let u = i as f64 / 4096.0;
                    assert_eq!(
                        t.sample_u01(u),
                        binomial_from_u01(u, n, p),
                        "n={n} p={p} u={u}"
                    );
                }
                // The rightmost representable u exercises the truncated
                // tail / saturation path.
                let u = 1.0 - f64::EPSILON / 2.0;
                assert_eq!(t.sample_u01(u), binomial_from_u01(u, n, p));
            }
        }
    }

    #[test]
    fn table_matches_walk_across_the_underflow_boundary() {
        for &p in &[0.09, 0.4] {
            let cutoff = underflow_cutoff(p);
            for n in cutoff - 2..=cutoff + 2 {
                let t = BinomialTable::build(n, p);
                for i in 0..2048u64 {
                    let u = (2 * i + 1) as f64 / 4096.0;
                    assert_eq!(
                        t.sample_u01(u),
                        binomial_from_u01(u, n, p),
                        "n={n} p={p} u={u} (cutoff {cutoff})"
                    );
                }
            }
        }
    }

    #[test]
    fn cache_draw_is_bit_identical_to_keyed_binomial() {
        let ps = [0.0, 0.01, 0.09, 0.5, 1.0];
        let mut cache = TableCache::new(&ps, DEFAULT_ENTRY_BUDGET);
        for (slot, &p) in ps.iter().enumerate() {
            for &n in &[0u32, 1, 5, 40, 141] {
                let key = class_cell_key(7, slot as u64, class_hash([n as u64, 1, 2, 3]));
                for counter in 0..500u64 {
                    assert_eq!(
                        cache.draw(slot, key, counter, n),
                        keyed_binomial(key, counter, n, p),
                        "slot={slot} p={p} n={n} counter={counter}"
                    );
                }
            }
        }
        let s = cache.stats();
        assert!(s.hits > 0 && s.misses > 0);
        assert_eq!(s.evictions, 0);
    }

    #[test]
    fn flush_bounds_memory_and_counts_evictions() {
        // A budget small enough that distinct n values force flushes.
        let mut cache = TableCache::new(&[0.3], 64);
        let key = class_cell_key(1, 0, class_hash([9, 9, 9, 9]));
        for round in 0..4u64 {
            for n in 1..=32u32 {
                cache.draw(0, key, round * 64 + u64::from(n), n);
            }
        }
        let s = cache.stats();
        assert!(s.evictions > 0, "budget 64 must force flushes");
        assert!(
            cache.live_entries <= 64 + BinomialTable::build(32, 0.3).entries(),
            "live entries {} exceed budget + one table",
            cache.live_entries
        );
        // Correctness survives every flush.
        for n in 1..=32u32 {
            assert_eq!(
                cache.draw(0, key, 10_000 + u64::from(n), n),
                keyed_binomial(key, 10_000 + u64::from(n), n, 0.3)
            );
        }
    }

    #[test]
    fn guide_table_is_a_valid_lower_bound() {
        for &(n, p) in &[(141u32, 0.09f64), (17, 0.5), (1000, 0.01)] {
            let t = BinomialTable::build(n, p);
            for (g, &start) in t.guide.iter().enumerate() {
                let threshold = g as f64 / t.guide.len() as f64;
                for i in 0..start as usize {
                    assert!(t.cdf[i] <= threshold, "guide[{g}] skips cdf[{i}]");
                }
            }
        }
    }
}
