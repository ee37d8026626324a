//! Algorithm 1 (*MapCal*) and its `mapping(k)` table, plus a process-wide
//! memoized table cache.

use bursty_markov::AggregateChain;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// The `mapping(k)` table of Algorithm 2, lines 1–6: `mapping[k]` is the
/// minimum number of blocks a PM hosting `k` VMs must reserve so that its
/// capacity-violation ratio stays within `ρ` (computed by Algorithm 1 /
/// [`AggregateChain::reservation`]).
///
/// Building the table costs `O(d²)`: the aggregate chain's stationary law
/// is the closed-form `Binomial(k, p_on/(p_on+p_off))` (superposition of
/// `k` independent two-state chains), so Algorithm 1 is an `O(k)` PMF
/// evaluation per `k ∈ [1, d]` — the original `O(k³)` Gaussian solve
/// survives only as a cross-validation oracle
/// ([`bursty_markov::AggregateChain::stationary_by_solver`]). Every lookup
/// is `O(1)`. Each `k` costs exactly one stationary evaluation: the block
/// count *and* the certified CVR are read off the same `π` (see
/// [`MappingTable::certified_cvr`]).
/// Repeated consolidation runs over the same parameter set should go
/// through [`MappingTable::cached`], which memoizes built tables for the
/// lifetime of the process.
///
/// # Examples
/// ```
/// use bursty_placement::MappingTable;
///
/// let mapping = MappingTable::build(16, 0.01, 0.09, 0.01);
/// assert_eq!(mapping.blocks_for(0), 0);
/// assert_eq!(mapping.blocks_for(16), 5);
/// // Reservation grows sublinearly in the co-location count:
/// assert!(mapping.blocks_for(16) < 2 * mapping.blocks_for(8));
/// assert_eq!(mapping.blocks_saved(16), 11);
/// // The bound is certified, not merely targeted:
/// assert!(mapping.certified_cvr(16) <= 0.01);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MappingTable {
    p_on: f64,
    p_off: f64,
    rho: f64,
    /// `mapping[k]` for `k ∈ [0, d]`; `mapping[0] = 0` by convention
    /// (Algorithm 2, line 1).
    blocks: Vec<usize>,
    /// The CVR certified by `blocks[k]` (from the same stationary solve);
    /// `cvrs[0] = 0` by the same convention.
    cvrs: Vec<f64>,
}

impl MappingTable {
    /// Builds the table for up to `d` VMs per PM with common switch
    /// probabilities and CVR bound `rho`.
    ///
    /// # Panics
    /// Panics if `d == 0`, probabilities are outside `(0, 1]`, or
    /// `rho ∉ (0, 1)`.
    pub fn build(d: usize, p_on: f64, p_off: f64, rho: f64) -> Self {
        assert!(d >= 1, "d must be at least 1");
        assert!(rho > 0.0 && rho < 1.0, "rho must be in (0,1), got {rho}");
        let mut blocks = Vec::with_capacity(d + 1);
        let mut cvrs = Vec::with_capacity(d + 1);
        blocks.push(0);
        cvrs.push(0.0);
        for k in 1..=d {
            let chain = AggregateChain::new(k, p_on, p_off);
            // One stationary solve per k yields both quantities.
            let res = chain.reservation(rho);
            blocks.push(res.blocks);
            cvrs.push(res.cvr);
        }
        Self {
            p_on,
            p_off,
            rho,
            blocks,
            cvrs,
        }
    }

    /// A shared, memoized table for `(d, p_on, p_off, rho)`: builds on the
    /// first request and hands out the same `Arc` afterwards, so every
    /// consumer of one parameter set — `QueueStrategy` for packing,
    /// `QueuePolicy` for runtime admission, repeated `Consolidator`
    /// evaluations — pays the `O(d²)` build exactly once per process.
    ///
    /// Keys are the exact bit patterns of the probabilities/ρ, so only
    /// bit-identical parameters share a table (no tolerance matching).
    ///
    /// # Panics
    /// Same parameter validation as [`MappingTable::build`].
    pub fn cached(d: usize, p_on: f64, p_off: f64, rho: f64) -> Arc<Self> {
        let key = (d, p_on.to_bits(), p_off.to_bits(), rho.to_bits());
        let cache = mapping_cache().lock().expect("mapping cache poisoned");
        if let Some(table) = cache.get(&key) {
            CACHE_HITS.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(table);
        }
        // Build outside the lock: a table build must not serialize other
        // parameter sets behind this one. A racing builder of the same key
        // may duplicate the work once; the map keeps the first insert.
        drop(cache);
        let built = Arc::new(Self::build(d, p_on, p_off, rho));
        let mut cache = mapping_cache().lock().expect("mapping cache poisoned");
        let entry = cache.entry(key).or_insert_with(|| {
            CACHE_MISSES.fetch_add(1, Ordering::Relaxed);
            built
        });
        Arc::clone(entry)
    }

    /// Maximum co-location count `d` the table covers.
    #[inline]
    pub(crate) fn d(&self) -> usize {
        self.blocks.len() - 1
    }

    /// The switch probabilities the table was built for.
    #[inline]
    pub(crate) fn probabilities(&self) -> (f64, f64) {
        (self.p_on, self.p_off)
    }

    /// `mapping(k)`: blocks needed for `k` collocated VMs.
    ///
    /// # Panics
    /// Panics if `k > d`.
    #[inline]
    pub fn blocks_for(&self, k: usize) -> usize {
        assert!(
            k <= self.d(),
            "k = {k} exceeds table bound d = {}",
            self.d()
        );
        self.blocks[k]
    }

    /// The CVR that `blocks_for(k)` blocks actually certify for `k`
    /// collocated VMs (Eq. 16 evaluated at the chosen reservation) — always
    /// `≤ rho`, and usually well below it because the block count is
    /// integral.
    ///
    /// # Panics
    /// Panics if `k > d`.
    #[inline]
    pub fn certified_cvr(&self, k: usize) -> f64 {
        assert!(
            k <= self.d(),
            "k = {k} exceeds table bound d = {}",
            self.d()
        );
        self.cvrs[k]
    }

    /// Blocks *saved* versus peak provisioning at co-location level `k`
    /// (peak provisioning reserves one block per VM).
    #[inline]
    pub fn blocks_saved(&self, k: usize) -> usize {
        k - self.blocks_for(k)
    }
}

type CacheKey = (usize, u64, u64, u64);

static CACHE: OnceLock<Mutex<HashMap<CacheKey, Arc<MappingTable>>>> = OnceLock::new();
static CACHE_HITS: AtomicU64 = AtomicU64::new(0);
static CACHE_MISSES: AtomicU64 = AtomicU64::new(0);

fn mapping_cache() -> &'static Mutex<HashMap<CacheKey, Arc<MappingTable>>> {
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Hit/miss counters of the process-wide [`MappingTable::cached`] memo.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MappingCacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to build a table.
    pub misses: u64,
}

/// Snapshot of the mapping-cache counters. Counters only ever grow, so
/// concurrent tests can assert on deltas of their own unique parameter
/// sets without interference.
pub fn mapping_cache_stats() -> MappingCacheStats {
    MappingCacheStats {
        hits: CACHE_HITS.load(Ordering::Relaxed),
        misses: CACHE_MISSES.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P_ON: f64 = 0.01;
    const P_OFF: f64 = 0.09;
    const RHO: f64 = 0.01;

    #[test]
    fn mapping_zero_is_zero() {
        let t = MappingTable::build(4, P_ON, P_OFF, RHO);
        assert_eq!(t.blocks_for(0), 0);
        assert_eq!(t.certified_cvr(0), 0.0);
    }

    #[test]
    fn table_is_monotone_and_bounded_by_k() {
        let t = MappingTable::build(16, P_ON, P_OFF, RHO);
        let mut prev = 0;
        for k in 0..=16 {
            let b = t.blocks_for(k);
            assert!(b <= k, "mapping({k}) = {b} > {k}");
            assert!(b >= prev, "mapping must be nondecreasing");
            prev = b;
        }
    }

    #[test]
    fn certified_cvrs_hold_the_bound() {
        let t = MappingTable::build(16, P_ON, P_OFF, RHO);
        for k in 0..=16 {
            assert!(t.certified_cvr(k) <= RHO + 1e-12, "k={k}");
        }
        // And they match an independent recomputation.
        let cvr =
            bursty_markov::AggregateChain::new(16, P_ON, P_OFF).cvr_with_blocks(t.blocks_for(16));
        assert!((t.certified_cvr(16) - cvr).abs() < 1e-12);
    }

    #[test]
    fn paper_parameters_save_blocks_at_d16() {
        // At 10% stationary ON probability and ρ = 1%, a 16-VM PM needs
        // far fewer than 16 blocks — the consolidation gain of the paper.
        let t = MappingTable::build(16, P_ON, P_OFF, RHO);
        assert!(
            t.blocks_for(16) <= 7,
            "expected ≤ 7 blocks for k=16, got {}",
            t.blocks_for(16)
        );
        assert!(t.blocks_saved(16) >= 9);
    }

    #[test]
    fn single_vm_still_needs_its_block() {
        // One VM ON 10% of the time: dropping its block gives CVR 0.1 > ρ.
        let t = MappingTable::build(2, P_ON, P_OFF, RHO);
        assert_eq!(t.blocks_for(1), 1);
    }

    #[test]
    fn loose_rho_saves_more() {
        let strict = MappingTable::build(12, P_ON, P_OFF, 0.001);
        let loose = MappingTable::build(12, P_ON, P_OFF, 0.2);
        for k in 0..=12 {
            assert!(loose.blocks_for(k) <= strict.blocks_for(k));
        }
    }

    #[test]
    fn heavy_traffic_reserves_nearly_everything() {
        let t = MappingTable::build(8, 0.09, 0.01, 0.01);
        assert!(t.blocks_for(8) >= 7, "got {}", t.blocks_for(8));
    }

    #[test]
    fn accessors_round_trip() {
        let t = MappingTable::build(5, 0.02, 0.08, 0.05);
        assert_eq!(t.d(), 5);
        assert_eq!(t.rho, 0.05);
        assert_eq!(t.probabilities(), (0.02, 0.08));
        assert_eq!(t.blocks.len(), 6);
    }

    #[test]
    fn cached_returns_the_same_table_once() {
        // Parameters unique to this test so parallel tests cannot race on
        // the entry. Two lookups must share one allocation and register at
        // least one hit; only the first can miss.
        let before = mapping_cache_stats();
        let a = MappingTable::cached(7, 0.013, 0.087, 0.019);
        let b = MappingTable::cached(7, 0.013, 0.087, 0.019);
        assert!(
            Arc::ptr_eq(&a, &b),
            "same parameter set must share one table"
        );
        assert_eq!(*a, MappingTable::build(7, 0.013, 0.087, 0.019));
        let after = mapping_cache_stats();
        assert!(after.hits > before.hits);
        assert!(after.misses > before.misses);
    }

    #[test]
    fn cached_distinguishes_bit_distinct_parameters() {
        let a = MappingTable::cached(4, 0.021, 0.079, 0.011);
        let b = MappingTable::cached(4, 0.021, 0.079, 0.012);
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(a.rho, 0.011);
        assert_eq!(b.rho, 0.012);
    }

    #[test]
    #[should_panic(expected = "exceeds table bound")]
    fn lookup_beyond_d_panics() {
        let t = MappingTable::build(3, P_ON, P_OFF, RHO);
        let _ = t.blocks_for(4);
    }

    #[test]
    #[should_panic(expected = "rho")]
    fn rejects_bad_rho() {
        let _ = MappingTable::build(3, P_ON, P_OFF, 0.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn mapping_is_valid_for_random_parameters(
            d in 1usize..12,
            p_on in 0.005f64..0.5,
            p_off in 0.005f64..0.5,
            rho in 0.005f64..0.3,
        ) {
            let t = MappingTable::build(d, p_on, p_off, rho);
            for k in 1..=d {
                let blocks = t.blocks_for(k);
                prop_assert!(blocks <= k);
                // The certified CVR bound must actually hold.
                let cvr = bursty_markov::AggregateChain::new(k, p_on, p_off)
                    .cvr_with_blocks(blocks);
                prop_assert!(cvr <= rho + 1e-9, "k={k} blocks={blocks} cvr={cvr}");
                // …and the stored certificate must be that same number.
                prop_assert!((t.certified_cvr(k) - cvr).abs() < 1e-9);
            }
        }
    }
}
