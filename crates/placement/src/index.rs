//! The headroom index for O(log m) packing.
//!
//! It indexes one scalar per PM — the strategy's *headroom* measure
//! ([`crate::Strategy::headroom`]) — and answers the query the packers
//! need: the lowest position (at or after a start position) whose
//! headroom reaches a threshold — the First-Fit probe. Positions are the
//! PMs' places in the pool's [`crate::PmOrder`]; the index knows only
//! positions. A segment tree over
//! subtree maxima descends to the answer in `O(log m)` instead of scanning
//! all `m` PMs.
//!
//! The headroom contract (`admits ⇒ headroom ≥ demand`) makes skipped PMs
//! provably infeasible, so the index only *prunes*; the strategy's
//! `admits` remains the sole arbiter at every returned candidate and the
//! results stay identical to a linear scan. Read the other way, a PM that
//! admits has a leaf at or above the threshold (`demand` less a slack),
//! so a search whose start has reached it returns it: the run placer
//! fills a stretch of PMs that each admit without searching for them,
//! and skips none that First Fit would have tried.
//!
//! # Eager and lazy callers
//!
//! The leaves are a flat array of the headrooms; the internal nodes are
//! maxima over them. Two ways of keeping the two in step share the one
//! tree:
//!
//! * **Eager** — [`HeadroomIndex::update`] writes a leaf and repairs its
//!   path to the root, so [`HeadroomIndex::first_at_least`] works on
//!   `&self`. The per-VM packers, evacuation, defragmentation, the
//!   simulator and the online engine's departures change one PM per
//!   search and use this pair.
//! * **Lazy** — a pass that changes many PMs between searches (the batch
//!   packer's runs, the online engine's arrivals, single ones included:
//!   each is a run of the same placer)
//!   calls [`HeadroomIndex::set`], which writes the leaf and only *marks*
//!   it, and searches with [`HeadroomIndex::first_admitting`], which looks
//!   before it climbs: it reads the next [`LOOKAHEAD`] leaves and pays for
//!   the tree — first [`HeadroomIndex::flush`], then the descent — only
//!   when that whole window rejects and the farm goes on past it:
//!   `O(gap)` reads for a gap inside the window, `O(LOOKAHEAD + log m)`
//!   plus the deferred maintenance beyond — or, while the tree is unbuilt
//!   or stale, by reading on past the window for as long as the leaves
//!   read so since the reset stay under the `n` a rebuild would cost. On
//!   a consolidation-dense fleet (1M Table-I VMs on 250k PMs) three
//!   searches leave the window, each where a run meets the stretch of
//!   PMs an earlier class filled, and all three read on: the tree is
//!   never built.
//!
//! `flush` repairs by whichever is cheaper: it replays the marked leaves'
//! climbs while they are few, and once a quarter of the leaves are marked
//! (`4·dirty ≥ m`) the list is dropped, the index is *stale*, and the
//! repair is one `O(m)` rebuild of the internal nodes. A lazy pass ends
//! with `flush` before an eager caller or a `&self` reader sees the index
//! (`first_at_least` and `update` check in debug builds). Results never
//! depend on the route: the window and the tree search the same leaves
//! for the same predicate, lowest index first.

/// How many PMs past the First-Fit cursor [`HeadroomIndex::first_admitting`]
/// reads from the flat leaf array before it pays for the tree. Chosen
/// from the `fleets` rows of `BENCH_packing.json`, which hold the batch
/// packer built with 8, 16, 64 and 256 here: at paper density 8 leaves 734
/// tree climbs (each replaying the stores since the last) and 16 leaves 4;
/// 64 leaves none with a factor of two to spare over the longest gap
/// measured, and is still eight cache lines — a window that rejects costs
/// less than the descent it precedes — where 256 buys nothing more. The
/// 0 % and 50 % duplicate fleets do not tell the widths apart: their runs
/// start behind full PMs and go to the tree either way.
pub(crate) const LOOKAHEAD: usize = 64;

/// A segment tree over per-PM headroom values supporting point updates and
/// "first index ≥ `from` with value ≥ `threshold`" queries, both
/// `O(log m)`, with a lazy mode for passes that write many leaves between
/// searches (see the module docs).
#[derive(Debug, Clone)]
pub struct HeadroomIndex {
    /// Number of indexed PMs.
    n: usize,
    /// Leaf offset; the power of two ≥ `n` (≥ 1).
    base: usize,
    /// Heap-numbered nodes — 1 is the root, node `h` holds the max over
    /// its subtree, `base + j` is leaf `j` — with node `h` stored at slot
    /// `h ^ base`: the leaves come first (slots `0..n`, then `-∞` padding
    /// up to `base` that is never returned), the internal nodes after
    /// them. An index whose internal nodes were never built holds the `n`
    /// leaves and nothing else.
    tree: Vec<f64>,
    /// The internal nodes are unbuilt (since [`Self::reset_lazy`]) or
    /// out of date past listing: the next flush rebuilds them all.
    stale: bool,
    /// Leaves [`Self::set`] since the internal nodes were last right;
    /// empty while `stale`, always shorter than `n / 4`.
    dirty: Vec<u32>,
    /// Leaves a stale index may still read past the window, one by one,
    /// before a search builds the tree: `n` at a reset, so the scans
    /// cost at most what one rebuild would.
    scan_budget: usize,
    /// Searches that went past the window since the last
    /// [`Self::reset_lazy`].
    probes: u64,
    /// Times the internal nodes were built from the leaves since the last
    /// [`Self::reset_lazy`].
    builds: u64,
}

impl HeadroomIndex {
    /// Builds the index over the given per-PM headroom values.
    pub fn new(values: &[f64]) -> Self {
        let mut index = Self {
            n: 0,
            base: 1,
            tree: Vec::new(),
            stale: true,
            dirty: Vec::new(),
            scan_budget: 0,
            probes: 0,
            builds: 0,
        };
        index.rebuild(values);
        index
    }

    /// Rebuilds the index over new values in place, reusing the tree
    /// allocation whenever the required size fits.
    pub fn rebuild(&mut self, values: &[f64]) {
        self.rebuild_with(values.len(), |leaves| leaves.extend_from_slice(values));
    }

    /// [`Self::rebuild`] over the `n` values `fill` appends to the
    /// emptied leaf vector: a caller that derives its leaves writes them
    /// in place instead of staging them in a vector of its own.
    ///
    /// # Panics
    /// Panics if `fill` appends other than `n` values.
    pub fn rebuild_with(&mut self, n: usize, fill: impl FnOnce(&mut Vec<f64>)) {
        self.reset_lazy(n, fill);
        assert_eq!(self.n, n, "the fill appended {} leaves, not {n}", self.n);
        self.flush();
    }

    /// Replaces the leaves with the `n` values `fill` appends to the
    /// emptied vector and leaves the internal nodes unbuilt (stale) — the
    /// batch packer's reset, which on a dense fleet needs them for a few
    /// searches at most — reusing the allocation and restarting the climb
    /// count. Room for the whole tree is reserved up front, so building
    /// it later moves nothing; the pages it never writes are never
    /// touched.
    pub(crate) fn reset_lazy(&mut self, n: usize, fill: impl FnOnce(&mut Vec<f64>)) {
        self.tree.clear();
        self.tree.reserve_exact(2 * n.next_power_of_two().max(1));
        fill(&mut self.tree);
        self.n = self.tree.len();
        self.base = self.n.next_power_of_two().max(1);
        self.stale = true;
        self.dirty.clear();
        self.scan_budget = self.n;
        self.probes = 0;
        self.builds = 0;
    }

    /// The value of heap-numbered node `h`.
    fn node(&self, h: usize) -> f64 {
        self.tree[h ^ self.base]
    }

    /// Recomputes internal node `h` from its children.
    fn pull(&mut self, h: usize) {
        self.tree[h ^ self.base] = self.node(2 * h).max(self.node(2 * h + 1));
    }

    /// The current headroom value of PM `j`.
    pub fn value(&self, j: usize) -> f64 {
        assert!(j < self.n, "PM {j} out of {}", self.n);
        self.tree[j]
    }

    /// Nothing marked, nothing stale: `&self` searches may run.
    pub(crate) fn is_clean(&self) -> bool {
        !self.stale && self.dirty.is_empty()
    }

    /// The internal nodes were never built: the state [`Self::reset_lazy`]
    /// leaves, which the next [`Self::flush`] builds whole.
    pub(crate) fn is_unbuilt(&self) -> bool {
        self.stale && self.tree.len() < 2 * self.base
    }

    /// [`Self::is_clean`], and every internal node is its children's max.
    pub(crate) fn check_flushed(&self) -> Result<(), String> {
        if !self.is_clean() {
            return Err("headroom index holds unflushed leaves".into());
        }
        match (1..self.base).find(|&h| self.node(h) != self.node(2 * h).max(self.node(2 * h + 1))) {
            Some(h) => Err(format!("headroom index node {h} is not its children's max")),
            None => Ok(()),
        }
    }

    /// Searches that went past the window (it rejected and the farm went
    /// on past it) since the last [`Self::reset_lazy`], whether they read
    /// on or climbed the tree.
    pub(crate) fn probes(&self) -> u64 {
        self.probes
    }

    /// Times the internal nodes were built from the leaves since the last
    /// [`Self::reset_lazy`]: 0 for a lazy pass that never needed the tree.
    pub(crate) fn builds(&self) -> u64 {
        self.builds
    }

    /// Sets PM `j`'s headroom and repairs the path to the root (eager).
    pub fn update(&mut self, j: usize, value: f64) {
        assert!(j < self.n, "PM {j} out of {}", self.n);
        debug_assert!(self.is_clean(), "eager update inside a lazy pass");
        self.tree[j] = value;
        self.climb(j);
    }

    /// Recomputes the ancestors of leaf `j` from their children.
    fn climb(&mut self, j: usize) {
        let mut h = self.base + j;
        while h > 1 {
            h /= 2;
            self.pull(h);
        }
    }

    /// Sets PM `j`'s headroom and marks the leaf for the next
    /// [`Self::flush`] (lazy). Once a quarter of the leaves are marked a
    /// rebuild is cheaper than replaying them: the index goes stale.
    #[inline]
    pub fn set(&mut self, j: usize, value: f64) {
        assert!(j < self.n, "PM {j} out of {}", self.n);
        self.tree[j] = value;
        if !self.stale {
            self.dirty.push(j as u32);
            if 4 * self.dirty.len() >= self.n {
                self.stale = true;
                self.dirty.clear();
            }
        }
    }

    /// Brings the internal nodes up to date with the leaves: a full
    /// rebuild when the index is stale, a replay of the marked leaves'
    /// climbs otherwise. Every lazy pass ends here.
    pub fn flush(&mut self) {
        if self.stale {
            // Padding and internal slots, if this index never had them.
            self.tree.resize(2 * self.base, f64::NEG_INFINITY);
            for h in (1..self.base).rev() {
                self.pull(h);
            }
            self.stale = false;
            self.builds += 1;
        } else {
            for at in 0..self.dirty.len() {
                self.climb(self.dirty[at] as usize);
            }
            self.dirty.clear();
        }
    }

    /// The smallest PM index `j ≥ from` with `value(j) ≥ threshold`, or
    /// `None`. This is the First-Fit probe; callers re-issue it with
    /// `from = j + 1` when the candidate rejects (index-guided skip-ahead).
    pub fn first_at_least(&self, from: usize, threshold: f64) -> Option<usize> {
        debug_assert!(self.is_clean(), "search of an unflushed index");
        if from >= self.n {
            return None;
        }
        self.descend(1, 0, self.base, from, threshold)
    }

    /// [`Self::first_at_least`] for a lazy pass: the same answer, read
    /// from the next [`LOOKAHEAD`] leaves when it is there — a hit, or a
    /// window that ran into the end of the farm, never touches the tree —
    /// and found past the window otherwise: by reading on while the tree
    /// is unbuilt or stale and the leaves read so since the reset stay
    /// under the `n` one rebuild costs, by `flush` plus the descent beyond
    /// that.
    ///
    /// One search narrows the window to the PM at the cursor: a run's
    /// first (`from == 0`) while the tree is built. It starts behind every
    /// PM the earlier runs filled, so where gaps have outgrown the window
    /// at all — an all-distinct fleet, one run per VM; a small batch onto
    /// a populated cluster — its window is the one that predictably
    /// rejects, and reading it would tax every run (`BENCH_packing.json`,
    /// `dup_0`). A pass that starts on a reset index or has marked a
    /// quarter of the farm has no built tree: its runs open at the window.
    #[inline]
    pub fn first_admitting(&mut self, from: usize, threshold: f64) -> Option<usize> {
        if from >= self.n {
            return None;
        }
        let width = if from == 0 && !self.stale {
            1
        } else {
            LOOKAHEAD
        };
        let end = (from + width).min(self.n);
        let window = &self.tree[from..end];
        if let Some(at) = window.iter().position(|&h| h >= threshold) {
            return Some(from + at);
        }
        if end == self.n {
            return None;
        }
        self.climb_and_descend(end, threshold)
    }

    /// [`Self::first_admitting`] past its window, out of line: one counted
    /// search. While the tree is unbuilt or stale and the leaves read past
    /// windows since the reset add up to less than one rebuild's `n`, it
    /// reads on linearly; once they would not, it flushes and descends.
    fn climb_and_descend(&mut self, mut from: usize, threshold: f64) -> Option<usize> {
        self.probes += 1;
        if self.stale && self.scan_budget > 0 {
            let end = (from + self.scan_budget).min(self.n);
            let found = self.tree[from..end].iter().position(|&h| h >= threshold);
            self.scan_budget -= found.map_or(end - from, |at| at + 1);
            if let Some(at) = found {
                return Some(from + at);
            }
            if end == self.n {
                return None;
            }
            from = end;
        }
        self.flush();
        self.descend(1, 0, self.base, from, threshold)
    }

    /// Finds the leftmost qualifying leaf under `node` (covering
    /// `[lo, lo + width)`), pruning subtrees entirely left of `from` or
    /// with max below `threshold`.
    fn descend(
        &self,
        node: usize,
        lo: usize,
        width: usize,
        from: usize,
        threshold: f64,
    ) -> Option<usize> {
        if lo + width <= from || self.node(node) < threshold {
            return None;
        }
        if width == 1 {
            return Some(lo);
        }
        let half = width / 2;
        self.descend(2 * node, lo, half, from, threshold)
            .or_else(|| self.descend(2 * node + 1, lo + half, half, from, threshold))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_at_least_matches_linear_scan() {
        let values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0];
        let idx = HeadroomIndex::new(&values);
        for from in 0..=values.len() {
            for t in [0.0, 1.0, 2.5, 4.0, 5.0, 8.9, 9.0, 9.1] {
                let linear = (from..values.len()).find(|&j| values[j] >= t);
                assert_eq!(idx.first_at_least(from, t), linear, "from={from} t={t}");
            }
        }
    }

    #[test]
    fn update_moves_the_answer() {
        let mut idx = HeadroomIndex::new(&[5.0, 5.0, 5.0]);
        assert_eq!(idx.first_at_least(0, 4.0), Some(0));
        idx.update(0, 1.0);
        assert_eq!(idx.first_at_least(0, 4.0), Some(1));
        idx.update(1, f64::NEG_INFINITY);
        assert_eq!(idx.first_at_least(0, 4.0), Some(2));
        assert_eq!(idx.value(1), f64::NEG_INFINITY);
        idx.update(2, 3.0);
        assert_eq!(idx.first_at_least(0, 4.0), None);
        assert_eq!(idx.first_at_least(0, 3.0), Some(2));
    }

    #[test]
    fn non_power_of_two_and_empty_sizes() {
        for n in [0usize, 1, 2, 3, 5, 6, 7, 13] {
            let values: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let idx = HeadroomIndex::new(&values);
            assert_eq!(idx.n, n);
            // The padding leaves must never surface.
            assert_eq!(idx.first_at_least(0, (n as f64) + 1.0), None);
            if n > 0 {
                assert_eq!(idx.first_at_least(0, (n - 1) as f64), Some(n - 1));
            }
        }
    }

    #[test]
    fn rebuild_matches_fresh_construction() {
        let mut idx = HeadroomIndex::new(&[3.0, 1.0, 4.0, 1.0, 5.0]);
        // Shrink, grow within capacity, grow beyond capacity.
        for values in [
            vec![2.0, 9.0],
            vec![1.0, 2.0, 3.0, 4.0],
            (0..37).map(|i| i as f64).collect::<Vec<_>>(),
        ] {
            idx.rebuild(&values);
            let fresh = HeadroomIndex::new(&values);
            assert_eq!(idx.n, fresh.n);
            for from in 0..=values.len() {
                for t in [0.0, 1.5, 3.0, 8.0, 40.0] {
                    assert_eq!(
                        idx.first_at_least(from, t),
                        fresh.first_at_least(from, t),
                        "values={values:?} from={from} t={t}"
                    );
                }
            }
        }
    }

    #[test]
    fn neg_infinity_marks_pms_unavailable() {
        let idx = HeadroomIndex::new(&[f64::NEG_INFINITY, 2.0]);
        assert_eq!(idx.first_at_least(0, f64::MIN), Some(1));
        assert_eq!(idx.first_at_least(0, -1.0), Some(1));
    }

    #[test]
    fn lazy_writes_are_searched_through_window_and_tree() {
        // One admitting PM behind a gap the window covers, then one behind
        // a gap it does not: the first is a leaf read, the second a search
        // past the window, which the stale index answers by reading on.
        let w = LOOKAHEAD;
        let mut idx = HeadroomIndex::new(&vec![5.0; 3 * w]);
        for j in 0..3 * w {
            idx.set(j, if j == w - 1 || j == 2 * w { 9.0 } else { 1.0 });
        }
        assert!(!idx.is_clean());
        assert_eq!(idx.first_admitting(1, 9.0), Some(w - 1));
        assert_eq!(idx.probes(), 0, "inside the window: no climb");
        assert_eq!(idx.first_admitting(w, 9.0), Some(2 * w));
        assert_eq!(idx.probes(), 1, "a gap of LOOKAHEAD leaves the window");
        assert!(!idx.is_clean(), "read on: nothing built");
        // Each further search past the window reads on (w leaves here)
        // until the leaves read since the reset would pass the 3w one
        // rebuild costs: that search reads what is left, then climbs.
        let mut searches = 0;
        while !idx.is_clean() {
            assert_eq!(idx.first_admitting(w, 10.0), None);
            searches += 1;
        }
        assert_eq!(searches, 3, "1 + 2w leaves read before the climb");
        assert_eq!(idx.probes(), 4);
        assert_eq!(
            idx.builds(),
            2,
            "the eager build at `new`, then the climb's"
        );
        idx.check_flushed().unwrap();
        // A run opening at a built tree reads only the PM at the cursor.
        assert_eq!(idx.first_admitting(0, 9.0), Some(w - 1));
        assert_eq!(idx.probes(), 5);
    }

    mod lazy_vs_linear {
        use super::*;
        use proptest::prelude::{prop_assert, prop_assert_eq, proptest, ProptestConfig};
        use proptest::strategy::Strategy as PropStrategy;

        #[derive(Debug, Clone)]
        enum Op {
            Set(usize, f64),
            /// A burst of `set`s over a stretch of leaves: `len` of them
            /// from `start`, so the marked share lands on both sides of
            /// `4·dirty ≥ n`.
            SetRun(usize, usize, f64),
            Update(usize, f64),
            Search(usize, f64),
            Flush,
        }

        fn op_gen() -> impl PropStrategy<Value = Op> {
            (0u8..10, 0usize..4096, 0usize..4096, 0u8..8).prop_map(|(which, a, b, level)| {
                let h = f64::from(level);
                match which {
                    0..=2 => Op::Set(a, h),
                    3 => Op::SetRun(a, b, h),
                    4 => Op::Update(a, h),
                    5..=8 => Op::Search(a, h),
                    _ => Op::Flush,
                }
            })
        }

        /// Farm sizes around the window and the quarter rule, and the
        /// distance between admitting leaves of the starting pattern.
        fn farm_gen() -> impl PropStrategy<Value = (usize, usize)> {
            const W: usize = LOOKAHEAD;
            const SIZES: [usize; 8] = [1, 3, W - 1, W, W + 1, 4 * W, 4 * W + 3, 9 * W];
            const GAPS: [usize; 6] = [1, 7, W - 1, W, W + 1, 3 * W];
            (0..SIZES.len(), 0..GAPS.len()).prop_map(|(s, g)| (SIZES[s], GAPS[g]))
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]
            #[test]
            fn any_interleaving_matches_a_linear_scan(
                farm in farm_gen(),
                ops in proptest::collection::vec(op_gen(), 1..120),
            ) {
                let (n, gap) = farm;
                // Level 7 every `gap + 1` leaves, level 0 between: a
                // search for 7 crosses exactly `gap` rejecting leaves.
                let mut shadow: Vec<f64> = (0..n)
                    .map(|j| if j % (gap + 1) == gap { 7.0 } else { 0.0 })
                    .collect();
                let mut idx = HeadroomIndex::new(&shadow);
                for op in ops {
                    match op {
                        Op::Set(j, h) => {
                            idx.set(j % n, h);
                            shadow[j % n] = h;
                        }
                        Op::SetRun(start, len, h) => {
                            for j in (start % n..n).take(len % (n / 2 + 2)) {
                                idx.set(j, h);
                                shadow[j] = h;
                            }
                        }
                        Op::Update(j, h) => {
                            // Eager writes belong to a flushed index.
                            idx.flush();
                            idx.update(j % n, h);
                            shadow[j % n] = h;
                            prop_assert!(idx.is_clean());
                        }
                        Op::Search(from, t) => {
                            let from = from % (n + 2);
                            let linear = (from..n).find(|&j| shadow[j] >= t);
                            prop_assert_eq!(idx.first_admitting(from, t), linear);
                        }
                        Op::Flush => {
                            idx.flush();
                            prop_assert!(idx.check_flushed().is_ok());
                            for from in [0, n / 2, n] {
                                let linear = (from..n).find(|&j| shadow[j] >= 4.0);
                                prop_assert_eq!(idx.first_at_least(from, 4.0), linear);
                            }
                        }
                    }
                    prop_assert!(4 * idx.dirty.len() < n);
                    for (j, &h) in shadow.iter().enumerate() {
                        prop_assert_eq!(idx.value(j), h);
                    }
                }
                idx.flush();
                prop_assert!(idx.check_flushed().is_ok());
            }
        }
    }
}
