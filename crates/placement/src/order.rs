//! The PM order every First Fit walks: capacity descending, ties by
//! ascending index.
//!
//! Algorithm 2 fixes which VM goes first, not which PM is "first". Walking
//! the pool by index lets small PMs fill as readily as big ones; walking it
//! largest first puts each VM where the most room is left, which on a
//! Table-I fleet over `U(80, 100)` capacities packs to the configuration
//! LP's floor (EXPERIMENTS.md, "The PM order"). The order is a permutation
//! that depends only on the capacities, so a homogeneous pool keeps index
//! order.
//!
//! The packers work in *position* space: the headroom index's leaves (and,
//! where the packer owns them, the loads) are laid out in this order, so
//! the hot loops read them front to back (the simulator keeps its whole
//! run state by position too); a position becomes a PM index
//! only where an assignment or a host is written out ([`PmOrder::pm`]),
//! and a caller that holds a PM index finds its leaf through
//! [`PmOrder::position`].
//!
//! Sorting a 250k-PM pool costs milliseconds, a paper-density decision
//! tens of them, so [`PmOrder::of`] keeps the last pool's order in one
//! process-wide entry checked against the caller's capacities bit for bit
//! (the idiom of [`crate::MappingTable::cached`]): the offline packer, the
//! simulator and the online engine share it, and a hit costs one pass
//! over the pool.

use bursty_workload::PmSpec;
use std::sync::{Arc, Mutex, PoisonError};

/// A pool's First-Fit order (see the module docs).
#[derive(Debug, PartialEq)]
pub struct PmOrder {
    /// Position → PM index.
    pms: Vec<u32>,
    /// PM index → position.
    positions: Vec<u32>,
    /// Capacity by position: what the packers' hot loops read, and what
    /// the memo is checked against.
    caps: Vec<f64>,
}

/// The last pool's order (see the module docs).
static MEMO: Mutex<Option<Arc<PmOrder>>> = Mutex::new(None);

/// `x`'s place in [`f64::total_cmp`]'s order, as an unsigned key.
fn total_order_key(x: f64) -> u64 {
    let bits = x.to_bits();
    // Negative values count down from the sign bit, positive ones up.
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// `0..n` by capacity descending in [`f64::total_cmp`]'s order, ties by
/// ascending index, index `j` having capacity `cap(j)`: a stable LSD
/// radix sort on `!total_order_key`, one byte a pass from the lowest. One
/// read of the capacities counts all eight bytes; a byte that every key
/// shares is skipped (a `U(80, 100)` pool sorts in seven passes, a
/// uniform one in none). Stability across passes keeps tied capacities
/// in index order. `spare` is the scatter buffer and comes back holding
/// stale indexes; the keys are read again each pass rather than kept in
/// a scratch vector, since a freed multi-megabyte temporary would raise
/// glibc's mmap threshold and move later allocations (DESIGN §8,
/// `setup_s`).
fn descending(n: usize, cap: impl Fn(usize) -> f64, spare: &mut Vec<u32>) -> Vec<u32> {
    let n = u32::try_from(n).expect("a pool of more than u32::MAX PMs");
    let key = |j: u32| !total_order_key(cap(j as usize));
    let mut counts = [[0usize; 256]; 8];
    for j in 0..n {
        let k = key(j);
        for (byte, count) in counts.iter_mut().enumerate() {
            count[(k >> (8 * byte) & 0xff) as usize] += 1;
        }
    }
    let mut order: Vec<u32> = (0..n).collect();
    spare.clear();
    spare.resize(order.len(), 0);
    for (byte, next) in counts.iter_mut().enumerate() {
        if next.contains(&order.len()) {
            continue;
        }
        let mut at = 0;
        for slot in next.iter_mut() {
            (*slot, at) = (at, at + *slot);
        }
        for &j in &order {
            let b = (key(j) >> (8 * byte) & 0xff) as usize;
            spare[next[b]] = j;
            next[b] += 1;
        }
        std::mem::swap(&mut order, spare);
    }
    order
}

impl PmOrder {
    /// The order of `pms`, from the memo when it holds this pool's
    /// capacities bit for bit, else sorted and memoised.
    ///
    /// # Panics
    /// Panics if `pms` holds more than `u32::MAX` PMs.
    pub fn of(pms: &[PmSpec]) -> Arc<Self> {
        let mut memo = MEMO.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(order) = memo.as_ref().filter(|order| order.orders(pms)) {
            return Arc::clone(order);
        }
        let order = Arc::new(Self::sort(pms));
        *memo = Some(Arc::clone(&order));
        order
    }

    /// Sorts `pms` by capacity descending, ties by ascending index.
    fn sort(pms: &[PmSpec]) -> Self {
        let m = u32::try_from(pms.len()).expect("a pool of more than u32::MAX PMs");
        let specs = pms;
        let mut positions = Vec::new();
        let pms = descending(specs.len(), |j| specs[j].capacity, &mut positions);
        positions.resize(pms.len(), 0);
        for (p, &j) in (0..m).zip(&pms) {
            positions[j as usize] = p;
        }
        let caps = pms.iter().map(|&j| specs[j as usize].capacity).collect();
        Self {
            pms,
            positions,
            caps,
        }
    }

    /// `pms` in index order, whatever their capacities: for tests of
    /// mechanics that live in position space, where a farm's layout is
    /// the gaps under test.
    #[cfg(test)]
    pub(crate) fn by_index(pms: &[PmSpec]) -> Self {
        let m = pms.len() as u32;
        Self {
            pms: (0..m).collect(),
            positions: (0..m).collect(),
            caps: pms.iter().map(|pm| pm.capacity).collect(),
        }
    }

    /// Whether this is the order of `pms`: the same capacities, bit for
    /// bit, in the same PM slots.
    fn orders(&self, pms: &[PmSpec]) -> bool {
        pms.len() == self.caps.len()
            && self
                .pms
                .iter()
                .zip(&self.caps)
                .all(|(&j, cap)| pms[j as usize].capacity.to_bits() == cap.to_bits())
    }

    /// The number of PMs ordered.
    pub(crate) fn len(&self) -> usize {
        self.pms.len()
    }

    /// The PM index at position `p`.
    #[inline]
    pub fn pm(&self, p: usize) -> usize {
        self.pms[p] as usize
    }

    /// The position of PM index `j`.
    #[inline]
    pub fn position(&self, j: usize) -> usize {
        self.positions[j] as usize
    }

    /// The capacities in position order.
    #[inline]
    pub fn capacities(&self) -> &[f64] {
        &self.caps
    }

    /// The PM indexes in position order.
    pub fn pms(&self) -> impl ExactSizeIterator<Item = usize> + '_ {
        self.pms.iter().map(|&j| j as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(caps: &[f64]) -> Vec<PmSpec> {
        caps.iter()
            .enumerate()
            .map(|(j, &c)| PmSpec::new(j, c))
            .collect()
    }

    #[test]
    fn larger_pms_come_first_and_ties_keep_index_order() {
        let order = PmOrder::of(&pool(&[80.0, 95.0, 80.0, 100.0, 95.0]));
        assert_eq!(order.pms().collect::<Vec<_>>(), [3, 1, 4, 0, 2]);
        assert_eq!(order.capacities(), [100.0, 95.0, 95.0, 80.0, 80.0]);
        for p in 0..order.len() {
            assert_eq!(order.position(order.pm(p)), p);
        }
    }

    #[test]
    fn the_memo_answers_only_for_the_same_capacities() {
        let a = pool(&[90.0, 91.0, 92.0]);
        let first = PmOrder::of(&a);
        // Other ids over the same capacities share the order; another
        // capacity or length does not.
        let renamed: Vec<PmSpec> = a
            .iter()
            .map(|pm| PmSpec::new(pm.id + 7, pm.capacity))
            .collect();
        assert_eq!(*PmOrder::of(&renamed), *first);
        let moved = pool(&[90.0, 91.0, 92.5]);
        assert_eq!(PmOrder::of(&moved).pms().collect::<Vec<_>>(), [2, 1, 0]);
        assert_eq!(PmOrder::of(&moved).capacities()[2], 90.0);
        assert_eq!(PmOrder::of(&a[..2]).len(), 2);
    }

    /// The comparison sort the radix sort replaced.
    pub(super) fn compared(caps: &[f64]) -> Vec<u32> {
        let mut order: Vec<u32> = (0..caps.len() as u32).collect();
        order.sort_unstable_by_key(|&j| (!total_order_key(caps[j as usize]), j));
        order
    }

    #[test]
    fn the_radix_sort_is_the_comparison_sort() {
        let tiny = f64::from_bits(1);
        let edge: Vec<f64> = [
            0.0,
            -0.0,
            tiny,
            -tiny,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 2.0,
            -f64::MIN_POSITIVE,
            1e-300,
            90.0,
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            90.0,
            -0.0,
            tiny,
            0.0,
        ]
        .to_vec();
        let mut spare = vec![7; 3];
        for caps in [
            vec![],
            vec![5.0],
            vec![80.0; 9],
            edge.clone(),
            edge.iter().rev().copied().collect(),
            (0..1000)
                .map(|i| [80.0, 95.5, 80.0 + i as f64 / 64.0][i % 3])
                .collect(),
        ] {
            assert_eq!(
                descending(caps.len(), |j| caps[j], &mut spare),
                compared(&caps),
                "{caps:?}"
            );
        }
        // +0.0 before -0.0, each tie in index order.
        let caps = [-0.0, 0.0, tiny, -0.0, 0.0];
        let order = descending(caps.len(), |j| caps[j], &mut spare);
        assert_eq!(order, [2, 1, 4, 0, 3]);
    }

    #[test]
    fn the_total_order_key_sorts_as_total_cmp() {
        let xs = [
            -1.5,
            -0.0,
            0.0,
            1e-300,
            80.0,
            80.000_000_000_000_01,
            f64::MAX,
        ];
        for w in xs.windows(2) {
            assert!(total_order_key(w[0]) < total_order_key(w[1]), "{w:?}");
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn the_order_is_a_stable_capacity_descending_permutation(
            // Continuous capacities with a few values repeated, so ties
            // occur.
            caps in proptest::collection::vec(
                (0u8..3, 80.0f64..100.0).prop_map(|(k, c)| [80.0, 90.0, c][k as usize]),
                0..200,
            ),
        ) {
            let pms: Vec<PmSpec> =
                caps.iter().enumerate().map(|(j, &c)| PmSpec::new(j, c)).collect();
            let order = PmOrder::of(&pms);
            let perm: Vec<usize> = order.pms().collect();
            let mut seen = perm.clone();
            seen.sort_unstable();
            prop_assert_eq!(seen, (0..pms.len()).collect::<Vec<_>>());
            for w in perm.windows(2) {
                let (a, b) = (pms[w[0]].capacity, pms[w[1]].capacity);
                prop_assert!(a > b || (a == b && w[0] < w[1]), "{} then {}", w[0], w[1]);
            }
            for (p, &j) in perm.iter().enumerate() {
                prop_assert_eq!(order.position(j), p);
            }
            let mut spare = Vec::new();
            prop_assert_eq!(
                descending(caps.len(), |j| caps[j], &mut spare),
                tests::compared(&caps)
            );
            let uniform: Vec<PmSpec> = (0..pms.len()).map(|j| PmSpec::new(j, 90.0)).collect();
            prop_assert_eq!(
                PmOrder::of(&uniform).pms().collect::<Vec<_>>(),
                (0..pms.len()).collect::<Vec<_>>()
            );
        }
    }
}
