//! The headroom index for O(log m) packing.
//!
//! It indexes one scalar per PM — the strategy's *headroom* measure
//! ([`crate::Strategy::headroom`]) — and answers the query the packers
//! need: [`HeadroomIndex::first_at_least`], the lowest-numbered PM (at or
//! after a start position) whose headroom reaches a threshold — the
//! First-Fit probe. A segment tree over subtree maxima descends to the
//! answer in `O(log m)` instead of scanning all `m` PMs.
//!
//! The headroom contract (`admits ⇒ headroom ≥ demand`) makes skipped PMs
//! provably infeasible, so the index only *prunes*; the strategy's
//! `admits` remains the sole arbiter at every returned candidate and the
//! results stay identical to a linear scan.

/// A segment tree over per-PM headroom values supporting point updates and
/// "first index ≥ `from` with value ≥ `threshold`" queries, both
/// `O(log m)`.
#[derive(Debug, Clone)]
pub struct HeadroomIndex {
    /// Number of indexed PMs.
    n: usize,
    /// Leaf offset; the power of two ≥ `n` (≥ 1).
    base: usize,
    /// `tree[1]` is the root; node `i` holds the max over its subtree.
    /// Leaves beyond `n` are `-∞` and never returned.
    tree: Vec<f64>,
}

impl HeadroomIndex {
    /// Builds the index over the given per-PM headroom values.
    pub fn new(values: &[f64]) -> Self {
        let n = values.len();
        let base = n.next_power_of_two().max(1);
        let mut tree = vec![f64::NEG_INFINITY; 2 * base];
        tree[base..base + n].copy_from_slice(values);
        for i in (1..base).rev() {
            tree[i] = tree[2 * i].max(tree[2 * i + 1]);
        }
        Self { n, base, tree }
    }

    /// Rebuilds the index over new values in place, reusing the tree
    /// allocation whenever the required size fits (the arena-reuse path of
    /// the batch packer: repeated packs over same-sized farms allocate
    /// nothing after the first).
    pub fn rebuild(&mut self, values: &[f64]) {
        let n = values.len();
        let base = n.next_power_of_two().max(1);
        if 2 * base > self.tree.capacity() {
            *self = Self::new(values);
            return;
        }
        self.n = n;
        self.base = base;
        self.tree.clear();
        self.tree.resize(2 * base, f64::NEG_INFINITY);
        self.tree[base..base + n].copy_from_slice(values);
        for i in (1..base).rev() {
            self.tree[i] = self.tree[2 * i].max(self.tree[2 * i + 1]);
        }
    }

    /// The current headroom value of PM `j`.
    pub fn value(&self, j: usize) -> f64 {
        assert!(j < self.n, "PM {j} out of {}", self.n);
        self.tree[self.base + j]
    }

    /// Sets PM `j`'s headroom and repairs the path to the root.
    pub fn update(&mut self, j: usize, value: f64) {
        assert!(j < self.n, "PM {j} out of {}", self.n);
        let mut i = self.base + j;
        self.tree[i] = value;
        while i > 1 {
            i /= 2;
            self.tree[i] = self.tree[2 * i].max(self.tree[2 * i + 1]);
        }
    }

    /// The smallest PM index `j ≥ from` with `value(j) ≥ threshold`, or
    /// `None`. This is the First-Fit probe; callers re-issue it with
    /// `from = j + 1` when the candidate rejects (index-guided skip-ahead).
    pub fn first_at_least(&self, from: usize, threshold: f64) -> Option<usize> {
        if from >= self.n {
            return None;
        }
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
        if lo + width <= from || self.tree[node] < threshold {
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
}
