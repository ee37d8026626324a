//! Algorithm 1 (*MapCal*) and its `mapping(k)` table, plus a process-wide
//! memoized table cache, and the same table as a function of `π`
//! ([`PiThresholds`]), which is what QUEUE prices every load by.

use bursty_markov::AggregateChain;
use std::collections::HashMap;
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
///
/// The table is Algorithm 1's output (the CLI's `table`, certification,
/// Fig. 7) and the oracle QUEUE's price is held to: `QueueStrategy` reads
/// the same `mapping(k)` off [`PiThresholds`], which equals this table at
/// every pair the workspace configures.
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
    pub(crate) rho: f64,
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
        check_d_and_rho(d, rho);
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
        Self { rho, blocks, cvrs }
    }

    /// A shared, memoized table for `(d, p_on, p_off, rho)`: builds on the
    /// first request and hands out the same `Arc` afterwards, so repeated
    /// lookups of one parameter set pay the `O(d²)` build once per
    /// process. The system benchmark's certification step is its caller;
    /// QUEUE's packing and runtime admission price through
    /// [`PiThresholds`] instead.
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
            return Arc::clone(table);
        }
        // Build outside the lock: a table build must not serialize other
        // parameter sets behind this one. A racing builder of the same key
        // may duplicate the work once; the map keeps the first insert.
        drop(cache);
        let built = Arc::new(Self::build(d, p_on, p_off, rho));
        let mut cache = mapping_cache().lock().expect("mapping cache poisoned");
        Arc::clone(cache.entry(key).or_insert(built))
    }

    /// Maximum co-location count `d` the table covers.
    #[inline]
    pub(crate) fn d(&self) -> usize {
        self.blocks.len() - 1
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

fn mapping_cache() -> &'static Mutex<HashMap<CacheKey, Arc<MappingTable>>> {
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// MapCal's refusal of a co-location cap or CVR bound it cannot table.
fn check_d_and_rho(d: usize, rho: f64) {
    assert!(d >= 1, "d must be at least 1");
    assert!(rho > 0.0 && rho < 1.0, "rho must be in (0,1), got {rho}");
}

/// MapCal as a function of `π` alone, for one `(d, ρ)`: row `k` holds the
/// ascending `π` at which `K(k, ·)` — [`MappingTable`]'s `mapping(k)` at
/// `π = p_on/(p_on+p_off)` — steps up, so `blocks(k, π)` is the number
/// of thresholds at or below `π`. `K(k, ·)` has at most `k` steps, so
/// the whole family is at most `d(d+1)/2` floats (136 at d = 16).
///
/// # Rounding up where the fold flickers
/// In exact arithmetic `K(k, ·)` never decreases. The computed fold
/// ([`AggregateChain::reservations`]: log-space PMF, Eq. 15 sum) does,
/// in windows of a few hundred to a few thousand ulps around each step,
/// where its cumulative sum is within rounding noise of `1 − ρ`
/// (EXPERIMENTS.md, "The offline pair is a floor"). Each threshold is therefore
/// found by bisection over f64 bit patterns with the same fold run at
/// `ρ − margin(k)`, `margin(k) = 256·k·ε` above the measured noise
/// (≈ `k·ε`): the point just below a crossing of the shifted fold has
/// its cumulative sum at least `margin` above `1 − ρ`, so every `π`
/// below it reserves fewer blocks under the real fold too. The lookup
/// thus never reserves fewer blocks than the fold at that exact `π`,
/// and reserves more only in a band just above a step: at most 9.1e-11
/// of `π` wide (relative) at d = 16, ρ = 0.01, and 1.1e-7 on the d = 200
/// rows measured at ρ = 1e-4.
///
/// Rows are built on first use (a row costs `k` bisections of ≤ 62 folds,
/// each bracketed from the row's previous threshold), and one table per
/// `(d, ρ)` is shared per process ([`PiThresholds::shared`]); both are
/// bounded by the configurations a process prices under, not by the
/// `π`s it is offered.
#[derive(Debug)]
pub(crate) struct PiThresholds {
    pub(crate) d: usize,
    pub(crate) rho: f64,
    /// `rows[k]`: row `k`'s `k` ascending thresholds.
    rows: Vec<OnceLock<Box<[f64]>>>,
}

/// Noise margin of the threshold search, in units of `k·ε`.
const FOLD_NOISE_ULPS: f64 = 256.0;

impl PiThresholds {
    /// The process-wide table for `(d, rho)`, created (empty) on first
    /// request.
    ///
    /// # Panics
    /// Panics if `d == 0` or `rho ∉ (0, 1)`.
    pub(crate) fn shared(d: usize, rho: f64) -> Arc<Self> {
        type Tables = Mutex<HashMap<(usize, u64), Arc<PiThresholds>>>;
        static TABLES: OnceLock<Tables> = OnceLock::new();
        check_d_and_rho(d, rho);
        let mut tables = TABLES
            .get_or_init(Default::default)
            .lock()
            .expect("threshold tables poisoned");
        let table = tables.entry((d, rho.to_bits())).or_insert_with(|| {
            let rows = (0..=d).map(|_| OnceLock::new()).collect();
            Arc::new(Self { d, rho, rows })
        });
        Arc::clone(table)
    }

    /// `mapping(k)` for `k ≤ d` chains whose stationary ON probability is
    /// at most `pi`. A forward scan, not a binary search: it stops at the
    /// load's own level, a branch the predictor learns while a run fills
    /// PMs of one `π` (about 2 ns over an indexed table per headroom at
    /// d = 16, against 5–7 ns for `partition_point`).
    #[inline]
    pub(crate) fn blocks(&self, k: usize, pi: f64) -> usize {
        self.row(k).iter().take_while(|&&t| t <= pi).count()
    }

    /// Row `k`'s thresholds, built on first use.
    fn row(&self, k: usize) -> &[f64] {
        self.rows[k]
            .get_or_init(|| build_row(k, self.rho - FOLD_NOISE_ULPS * k as f64 * f64::EPSILON))
    }
}

/// Row `k` of [`PiThresholds`] under the shifted bound `rho`: for each
/// level `j ≤ k`, a bisection over the bit patterns between the previous
/// threshold and 1 (where every chain is ON and `K = k`) for a point whose
/// fold reaches `j` while the one below it does not. A step that jumps
/// several levels gives them one threshold.
fn build_row(k: usize, rho: f64) -> Box<[f64]> {
    let blocks_at = AggregateChain::reservations(k, rho);
    let mut row = Vec::with_capacity(k);
    // π = 0 keeps every chain OFF: no blocks.
    let (mut lo, mut at_lo) = (0u64, 0usize);
    while row.len() < k {
        if at_lo <= row.len() {
            let (mut below, mut above, mut at_above) = (lo, 1.0f64.to_bits(), k);
            while above - below > 1 {
                let mid = below + (above - below) / 2;
                let at = blocks_at(f64::from_bits(mid)).blocks;
                if at > row.len() {
                    (above, at_above) = (mid, at);
                } else {
                    below = mid;
                }
            }
            (lo, at_lo) = (above, at_above);
        }
        row.push(f64::from_bits(lo));
    }
    row.into()
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
        assert_eq!(t.blocks.len(), 6);
    }

    #[test]
    fn cached_returns_the_same_table_once() {
        // Two lookups of one parameter set share one allocation, and it
        // holds the table a fresh build computes.
        let a = MappingTable::cached(7, 0.013, 0.087, 0.019);
        let b = MappingTable::cached(7, 0.013, 0.087, 0.019);
        assert!(
            Arc::ptr_eq(&a, &b),
            "same parameter set must share one table"
        );
        assert_eq!(*a, MappingTable::build(7, 0.013, 0.087, 0.019));
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The lemma the online engines' per-PM rule rests on, plus the
        /// two monotonicities a packer assumes: `mapping(k)` does not
        /// decrease as `π = p_on/(p_on+p_off)` grows (d, k, ρ fixed), does
        /// not decrease as `k` grows, and does not increase as `ρ` grows.
        /// `d` runs to 200 and past 1029, where `k` alone stops fitting the
        /// stationary law's naive range (the PMF is log-space throughout).
        #[test]
        fn blocks_are_monotone_in_pi_k_and_rho(
            which_d in 0usize..3,
            a in (0.0f64..1.0, 0.0f64..1.0),
            b in (0.0f64..1.0, 0.0f64..1.0),
            rhos in (1e-5f64..0.5, 1e-5f64..0.5),
        ) {
            let d = [16, 200, 1100][which_d];
            // Probabilities anywhere in (0, 1].
            let (mut cool, mut hot) = ((1.0 - a.0, 1.0 - a.1), (1.0 - b.0, 1.0 - b.1));
            let pi = |(p_on, p_off): (f64, f64)| p_on / (p_on + p_off);
            if pi(cool) > pi(hot) {
                std::mem::swap(&mut cool, &mut hot);
            }
            let (strict, loose) = (rhos.0.min(rhos.1), rhos.0.max(rhos.1));
            let base = MappingTable::build(d, cool.0, cool.1, strict);
            let hotter = MappingTable::build(d, hot.0, hot.1, strict);
            let looser = MappingTable::build(d, cool.0, cool.1, loose);
            for k in 0..=d {
                let blocks = base.blocks_for(k);
                prop_assert!(
                    blocks <= hotter.blocks_for(k),
                    "d {d}, k {k}: π {} needs {blocks} blocks, π {} only {}",
                    pi(cool), pi(hot), hotter.blocks_for(k)
                );
                prop_assert!(
                    looser.blocks_for(k) <= blocks,
                    "d {d}, k {k}: ρ {loose} needs more blocks than ρ {strict}"
                );
                if k < d {
                    prop_assert!(
                        blocks <= base.blocks_for(k + 1),
                        "d {d}: mapping({k}) > mapping({})", k + 1
                    );
                }
            }
        }
    }
}

/// Differential tests of [`PiThresholds`] against the fold it tabulates,
/// [`AggregateChain::reservations`] at the exact `π` of each probe.
#[cfg(test)]
mod thresholds {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The lookup at `pi` against the fold there: never fewer blocks, and
    /// `true` when the lookup rounds up.
    fn rounds_up(table: &PiThresholds, k: usize, pi: f64) -> bool {
        let got = table.blocks(k, pi);
        let fold = AggregateChain::reservations(k, table.rho)(pi).blocks;
        assert!(
            got >= fold,
            "d {}, rho {}, k {k}, pi {pi:e}: lookup {got} under the fold's {fold}",
            table.d,
            table.rho
        );
        got > fold
    }

    /// Probes every threshold of `rows` at up to `ulps` bit patterns on
    /// either side, then 1 000 random `π` (half uniform on `[0, 1)`, half
    /// log-uniform down to 1e-6), where the lookup must equal the fold.
    /// Returns the probes that rounded up and the widest distance, in
    /// ulps above a threshold, at which one did.
    fn probe(d: usize, rho: f64, rows: &[usize], ulps: i64) -> (usize, i64) {
        let table = PiThresholds::shared(d, rho);
        let (mut up, mut widest) = (0, 0);
        for &k in rows {
            let row = table.row(k);
            assert_eq!(row.len(), k, "row {k} has one threshold per level");
            assert!(row[0] > 0.0 && row[k - 1] <= 1.0);
            assert!(row.windows(2).all(|w| w[0] <= w[1]), "row {k} ascends");
            for &t in row {
                for delta in -ulps..=ulps {
                    let pi = f64::from_bits((t.to_bits() as i64 + delta) as u64);
                    if pi <= 1.0 && rounds_up(&table, k, pi) {
                        up += 1;
                        widest = widest.max(delta);
                    }
                }
            }
        }
        let mut rng = StdRng::seed_from_u64(d as u64 ^ rho.to_bits());
        for i in 0..1000 {
            let k = rows[rng.gen_range(0..rows.len())];
            let u: f64 = rng.gen();
            let pi = if i % 2 == 0 { u } else { 10f64.powf(-6.0 * u) };
            assert!(!rounds_up(&table, k, pi), "k {k}, pi {pi:e}");
        }
        (up, widest)
    }

    #[test]
    fn thresholds_never_under_reserve_at_d16() {
        let rows: Vec<usize> = (1..=16).collect();
        for rho in [1e-2, 1e-4] {
            let (up, widest) = probe(16, rho, &rows, 64);
            eprintln!("d 16, rho {rho}: {up} of 136 x 129 probes round up, up to +{widest} ulps");
            // The pairs this workspace configures sit on no step.
            for (p_on, p_off) in [(0.01, 0.09), (0.02, 0.08), (0.03, 0.07), (0.05, 0.05)] {
                let pair = MappingTable::build(16, p_on, p_off, rho);
                let table = PiThresholds::shared(16, rho);
                for k in 0..=16 {
                    assert_eq!(table.blocks(k, p_on / (p_on + p_off)), pair.blocks_for(k));
                }
            }
        }
    }

    /// The price QUEUE charges, `blocks(k, π)` at the pair's own `π`,
    /// against Algorithm 1's table of that pair, at every `k ≤ d`.
    fn assert_prices_as_mapcal(d: usize, p_on: f64, p_off: f64, rho: f64) {
        let table = PiThresholds::shared(d, rho);
        let pair = MappingTable::build(d, p_on, p_off, rho);
        for k in 0..=d {
            assert_eq!(
                table.blocks(k, p_on / (p_on + p_off)),
                pair.blocks_for(k),
                "d {d}, ({p_on}, {p_off}), rho {rho}, k {k}"
            );
        }
    }

    /// Every pair the workspace prices at: the sensitivity sweep's ρ grid
    /// at the default pair, its d grid, and its four burst pairs over
    /// both grids, then 3 000 seeded random pairs at the default `(d, ρ)`.
    #[test]
    fn thresholds_price_every_configured_pair_as_mapcal() {
        let rhos = [0.001, 0.005, 0.01, 0.05, 0.1];
        let ds = [4, 8, 16, 24, 32];
        for rho in rhos {
            assert_prices_as_mapcal(16, 0.01, 0.09, rho);
        }
        for d in ds {
            assert_prices_as_mapcal(d, 0.01, 0.09, 0.01);
        }
        for (p_on, p_off) in [(0.02, 0.18), (0.01, 0.09), (0.005, 0.045), (0.002, 0.018)] {
            for rho in rhos {
                for d in ds {
                    assert_prices_as_mapcal(d, p_on, p_off, rho);
                }
            }
        }
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..3000 {
            // Probabilities anywhere in (0, 1].
            let (p_on, p_off) = (1.0 - rng.gen::<f64>(), 1.0 - rng.gen::<f64>());
            assert_prices_as_mapcal(16, p_on, p_off, 0.01);
        }
    }

    #[test]
    fn thresholds_never_under_reserve_on_d200_rows() {
        for rho in [1e-2, 1e-4] {
            let (up, widest) = probe(200, rho, &[1, 2, 17, 100, 199, 200], 2);
            eprintln!("d 200, rho {rho}: {up} probes round up, up to +{widest} ulps");
        }
    }

    #[test]
    fn one_table_per_d_and_rho() {
        let a = PiThresholds::shared(5, 0.037);
        assert!(Arc::ptr_eq(&a, &PiThresholds::shared(5, 0.037)));
        assert!(!Arc::ptr_eq(&a, &PiThresholds::shared(6, 0.037)));
        assert_eq!(a.blocks(0, 1.0), 0);
        assert_eq!(a.blocks(5, 0.0), 0, "π = 0 keeps every chain OFF");
        assert_eq!(a.blocks(5, 1.0), 5, "π = 1 keeps every chain ON");
    }
}
