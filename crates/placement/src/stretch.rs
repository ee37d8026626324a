//! The offline arena's PM loads, kept as stretches of equal loads.
//!
//! First Fit at paper density fills long stretches of like PMs: the same
//! seed load, the same copy count, so the same load after the fill (the
//! 1M-VM Table-I pack commits 475 792 fills in 13 stretches). A dense
//! per-position array would be read and written once per PM and fill;
//! [`LoadStretches`] stores each stretch's load once, at its first
//! position, and marks in one bit per position whether the next position
//! belongs to the same stretch. Reading a load walks the bits back to the
//! stretch's start, and the end of a stretch is a forward walk of the
//! bits, 64 positions a word; committing a stretch of fills inside one
//! stretch of loads writes two loads and clears two bits, however long
//! it is.
//!
//! A set bit `p` promises that positions `p` and `p + 1` carry the same
//! load bit for bit; a clear bit promises nothing. So a stretch may end
//! between equal loads — the run placer then searches and folds at the
//! next position as it would anyway, with the same result — but never
//! runs over a change of load.

use crate::load::PmLoad;
use std::ops::Range;

/// Per-position PM loads as stretches of equal loads (see the module
/// docs).
#[derive(Debug, Default)]
pub(crate) struct LoadStretches {
    /// The bits ([`PmLoad::bits`]) of each stretch's load at the
    /// stretch's first position; the other slots hold stale bits that are
    /// never read. All-zero bits are the empty load, so a new map is one
    /// zeroed allocation whose pages are touched only where a stretch
    /// starts.
    starts: Vec<[u64; 5]>,
    /// Bit `p % 64` of word `p / 64` is set when positions `p` and `p + 1`
    /// belong to one stretch. The bit of the last position, and the
    /// padding past it, are clear.
    joined: Vec<u64>,
    /// The number of positions.
    len: usize,
}

impl LoadStretches {
    /// One stretch of `n` empty loads. Reuses the allocations when they
    /// are large enough; only a larger pool allocates anew (zeroed).
    pub(crate) fn reset(&mut self, n: usize) {
        if self.starts.len() < n {
            self.starts = vec![[0; 5]; n];
        }
        if n > 0 {
            self.starts[0] = PmLoad::empty().bits();
        }
        self.joined.clear();
        self.joined.resize(n.div_ceil(64), u64::MAX);
        if n > 0 {
            // Clear the last position's bit and the padding after it.
            let last = n - 1;
            self.joined[last / 64] &= (1u64 << (last % 64)) - 1;
        }
        self.len = n;
    }

    /// Whether positions `p` and `p + 1` are known to share a stretch.
    fn is_joined(&self, p: usize) -> bool {
        self.joined[p / 64] >> (p % 64) & 1 == 1
    }

    /// Ends the stretch at position `p`: `p + 1` starts another.
    fn split(&mut self, p: usize) {
        self.joined[p / 64] &= !(1u64 << (p % 64));
    }

    /// The first position of the stretch holding position `p`.
    fn start(&self, p: usize) -> usize {
        // The last clear bit below `p`, if any, ends the stretch before.
        let mut w = p / 64;
        let mut open = !self.joined[w] & ((1u64 << (p % 64)) - 1);
        loop {
            if open != 0 {
                return w * 64 + (63 - open.leading_zeros() as usize) + 1;
            }
            if w == 0 {
                return 0;
            }
            w -= 1;
            open = !self.joined[w];
        }
    }

    /// The end (exclusive) of the stretch holding position `p`, at most
    /// `limit`.
    pub(crate) fn end(&self, p: usize, limit: usize) -> usize {
        assert!(p < self.len, "position {p} out of {}", self.len);
        // The first clear bit at or past `p`; the last position's is.
        let mut w = p / 64;
        let mut open = !self.joined[w] & (u64::MAX << (p % 64));
        while open == 0 && w * 64 + 64 < limit {
            w += 1;
            open = !self.joined[w];
        }
        if open == 0 {
            return limit;
        }
        (w * 64 + open.trailing_zeros() as usize + 1).min(limit)
    }

    /// Position `p`'s load.
    pub(crate) fn load(&self, p: usize) -> PmLoad {
        assert!(p < self.len, "position {p} out of {}", self.len);
        PmLoad::from_bits(self.starts[self.start(p)])
    }

    /// Sets the load of every position of `at` to `load`. `at` lies inside
    /// one stretch, as a stretch of fills always does; the positions
    /// before and after it keep their loads, each part a stretch of its
    /// own.
    ///
    /// # Panics
    /// Panics if `at` is empty or runs past the end of the pool.
    pub(crate) fn write(&mut self, at: Range<usize>, load: PmLoad) {
        let (a, b) = (at.start, at.end);
        assert!(
            a < b && b <= self.len,
            "positions {a}..{b} out of {}",
            self.len
        );
        debug_assert!(self.end(a, b) == b, "positions {a}..{b} span stretches");
        // The positions from `b` on keep the load they had; read it while
        // `b`'s stretch still starts where it did.
        let tail = (b < self.len && self.is_joined(b - 1)).then(|| self.starts[self.start(b)]);
        if a > 0 {
            self.split(a - 1);
        }
        self.split(b - 1);
        self.starts[a] = load.bits();
        if let Some(bits) = tail {
            self.starts[b] = bits;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bursty_workload::VmSpec;

    fn loaded(k: usize) -> PmLoad {
        let vm = VmSpec::new(0, 0.01, 0.09, 3.0, 2.0);
        PmLoad::rebuild(&vec![vm; k])
    }

    #[test]
    fn the_empty_load_is_all_zero_bits() {
        assert_eq!(PmLoad::empty().bits(), [0; 5]);
        let load = loaded(3);
        assert_eq!(PmLoad::from_bits(load.bits()), load);
    }

    #[test]
    fn a_reset_map_is_one_stretch_of_empty_loads() {
        let mut map = LoadStretches::default();
        for n in [1, 63, 64, 65, 200] {
            map.reset(n);
            for p in 0..n {
                assert_eq!(map.load(p), PmLoad::empty());
                assert_eq!(map.end(p, n), n, "n={n} p={p}");
                assert_eq!(map.end(p, p + 1), p + 1);
            }
        }
    }

    #[test]
    fn writes_split_a_stretch_in_three() {
        let mut map = LoadStretches::default();
        map.reset(300);
        map.write(70..190, loaded(2));
        assert_eq!(map.end(0, 300), 70);
        assert_eq!(map.end(69, 300), 70);
        assert_eq!(map.end(70, 300), 190);
        assert_eq!(map.end(100, 150), 150, "the limit caps the end");
        assert_eq!(map.end(190, 300), 300);
        assert_eq!(map.load(69), PmLoad::empty());
        assert_eq!(map.load(70), loaded(2));
        assert_eq!(map.load(189), loaded(2));
        assert_eq!(map.load(190), PmLoad::empty());
        // A write at a stretch's start and one at its end.
        map.write(70..71, loaded(3));
        map.write(189..190, loaded(4));
        assert_eq!(map.load(70), loaded(3));
        assert_eq!((map.end(71, 300), map.load(71)), (189, loaded(2)));
        assert_eq!((map.end(189, 300), map.load(189)), (190, loaded(4)));
        assert_eq!(map.load(299), PmLoad::empty());
    }

    mod dense_oracle {
        use super::*;
        use proptest::prelude::{prop_assert, prop_assert_eq, proptest, ProptestConfig};

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]
            #[test]
            fn writes_read_back_as_a_dense_array(
                n in 1usize..400,
                writes in proptest::collection::vec((0usize..400, 1usize..150, 0usize..6), 0..60),
            ) {
                let mut map = LoadStretches::default();
                // Reused at another size first, so stale starts are about.
                map.reset(n + 37);
                map.write(0..n + 37, loaded(9));
                map.reset(n);
                let mut dense = vec![PmLoad::empty(); n];
                for (start, len, k) in writes {
                    let a = start % n;
                    let b = map.end(a, (a + len).min(n));
                    map.write(a..b, loaded(k));
                    dense[a..b].fill(loaded(k));
                    for p in 0..n {
                        prop_assert_eq!(map.load(p), dense[p]);
                        let end = map.end(p, n);
                        prop_assert!(end > p);
                        for q in p..end {
                            prop_assert_eq!(dense[q].bits(), dense[p].bits());
                        }
                    }
                }
            }
        }
    }
}
