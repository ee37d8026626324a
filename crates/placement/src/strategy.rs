//! Packing/admission strategies: QUEUE (the paper's Eq. 17) and the
//! baselines RP, RB and RB-EX.

use crate::clustering::{cluster_bands, default_buckets};
use crate::load::PmLoad;
use crate::mapcal::PiThresholds;
use bursty_workload::VmSpec;
use std::cmp::Ordering;
use std::sync::Arc;

/// A consolidation strategy: its per-VM sort keys, which order the VMs
/// for First-Fit-Decreasing, and when a *set* of VMs fits on a PM — the
/// set's [`Strategy::need`] is at most the PM's [`Strategy::budget`].
///
/// Set feasibility (rather than an incremental admit) is the primitive
/// because every strategy in the paper — including Eq. 17 — depends only on
/// the hosted set, not on insertion order; this keeps runtime admission
/// checks (migration targeting) and initial packing trivially consistent.
pub trait Strategy: Send + Sync {
    /// Display name as used in the paper's figures (QUEUE, RP, RB, RB-EX).
    fn name(&self) -> &'static str;

    /// The `(cluster band, primary key)` of every VM in `vms`; the FFD
    /// order is a *stable* sort by band descending, then key descending
    /// by total order (the crate's `ffd_order`, behind every packer). This
    /// is the strategy's only statement of its order.
    ///
    /// `fleet_size` is the full fleet's VM count `n`, of which `vms` may
    /// be just the distinct class representatives: a key may depend on
    /// the fleet (QUEUE's default bucket count is `⌈√n⌉`), but must be a
    /// pure function of a VM's spec bits given the fleet, so that
    /// bit-identical `(p_on, p_off, R_b, R_e)` specs get bit-identical
    /// keys and a representative's key equals what its duplicates would
    /// be assigned from the full fleet (QUEUE's band edges depend only on
    /// the min/max spike size, a function of the *support* of the spec
    /// distribution, which the representatives span). The batch packer
    /// then sorts only the `k ≪ n` distinct classes and stays
    /// byte-identical to the per-VM order.
    fn sort_keys(&self, fleet_size: usize, vms: &[VmSpec]) -> Vec<(u32, f64)>;

    /// What a PM hosting `load` must have: the left side of the
    /// strategy's feasibility rule, `+∞` for a load no capacity admits.
    fn need(&self, load: &PmLoad) -> f64;

    /// What a PM of capacity `capacity` offers against [`Strategy::need`];
    /// the capacity itself unless the strategy holds some of it back.
    fn budget(&self, capacity: f64) -> f64 {
        capacity
    }

    /// Whether a PM with aggregate load `load` is feasible under capacity
    /// `capacity`: `need(load) ≤ budget(capacity)`.
    fn feasible(&self, load: &PmLoad, capacity: f64) -> bool {
        self.need(load) <= self.budget(capacity)
    }

    /// Whether `vm` can be added to a PM currently carrying `load`.
    fn admits(&self, load: &PmLoad, vm: &VmSpec, capacity: f64) -> bool {
        self.feasible(&load.with(vm), capacity)
    }

    /// Scalar *headroom* of a PM under this strategy — how much more of
    /// the strategy's scarce quantity the PM can still absorb. This is
    /// what the packers index ([`crate::index::HeadroomIndex`]) and what
    /// Best Fit minimizes.
    ///
    /// Contract with [`Strategy::demand`]: whenever
    /// `admits(load, vm, capacity)` holds,
    /// `headroom(load, capacity) ≥ demand(vm)` must hold too (the packers
    /// additionally leave a small slack below `demand` before pruning, so
    /// an ulp-level float discrepancy cannot skip an admissible PM). A PM
    /// that can admit nothing — e.g. a QUEUE PM at the `d` cap — should
    /// report `f64::NEG_INFINITY`.
    fn headroom(&self, load: &PmLoad, capacity: f64) -> f64;

    /// Load-independent lower bound on the headroom `vm` needs on *any*
    /// PM — the threshold the indexed packers search with. Must be
    /// conservative (never exceed the true requirement on any PM state);
    /// see the contract on [`Strategy::headroom`].
    fn demand(&self, vm: &VmSpec) -> f64;
}

/// The FFD comparator over `(band, key)` sort keys: band descending, then
/// key descending by total order.
pub(crate) fn ffd_cmp((band_a, key_a): (u32, f64), (band_b, key_b): (u32, f64)) -> Ordering {
    band_b.cmp(&band_a).then(key_b.total_cmp(&key_a))
}

/// The order (as indices into `vms`) in which First Fit places the VMs
/// under `strategy`: a stable sort of `0..n` by [`ffd_cmp`] over the
/// strategy's [`Strategy::sort_keys`].
pub(crate) fn ffd_order<S: Strategy + ?Sized>(strategy: &S, vms: &[VmSpec]) -> Vec<usize> {
    let keys = strategy.sort_keys(vms.len(), vms);
    let mut order: Vec<usize> = (0..vms.len()).collect();
    order.sort_by(|&a, &b| ffd_cmp(keys[a], keys[b]));
    order
}

/// The paper's burstiness-aware strategy (Algorithm 2): cluster by spike
/// size, sort, and admit per Eq. 17 —
/// `max R_e · mapping(|T_j|+1) + Σ R_b ≤ C_j`, subject to at most `d` VMs
/// per PM.
///
/// The one QUEUE pricing rule, for the offline packers, the simulator's
/// runtime policy and both online engines: a load is priced at
/// `π = max(max_pi, floor_pi)` — its hottest chain ([`PmLoad::max_pi`]),
/// floored at the `π` of the pair the strategy was built with — and
/// reserves `mapping(k)` blocks read from the one `π`-threshold table of
/// its `(d, ρ)` (`mapcal::PiThresholds`), which equals Algorithm 1's
/// [`MappingTable`] at every pair the workspace configures. A PM's ON
/// count is stochastically below `Binomial(k, max π)` (DESIGN §12), so a
/// PM feasible under that `π` keeps its exact CVR ≤ ρ whatever it hosts.
/// Fitted specs carry their own margin for fit error (each VM at its
/// Wilson bounds, `FittedModel::to_bounded_spec`), so `bursty plan`
/// floors at the coldest of them and the floor never binds; pricing
/// point estimates instead lets fit error through (EXPERIMENTS.md, "The
/// offline pair is a floor"). The online engines build the strategy
/// with no floor (`floor_pi = 0`).
///
/// [`MappingTable`]: crate::MappingTable
#[derive(Debug, Clone)]
pub struct QueueStrategy {
    /// The floor pair's `π`; `0.0` prices every load at its own `π`.
    floor_pi: f64,
    /// The `π`-threshold table of `(d, ρ)`.
    pub(crate) thresholds: Arc<PiThresholds>,
    buckets: Option<usize>,
}

impl QueueStrategy {
    /// The strategy over `(d, rho)` with no floor: every load is priced at
    /// its own hottest chain (the online engines).
    pub(crate) fn unfloored(d: usize, rho: f64) -> Self {
        Self {
            floor_pi: 0.0,
            thresholds: PiThresholds::shared(d, rho),
            buckets: None,
        }
    }

    /// Overrides the clustering bucket count (ablation hook; `1` disables
    /// spike-size clustering and yields plain FFD-by-`R_b` ordering).
    pub fn with_buckets(mut self, buckets: usize) -> Self {
        assert!(buckets > 0, "need at least one bucket");
        self.buckets = Some(buckets);
        self
    }

    /// Builds the strategy floored at `(p_on, p_off)`, clustering `R_e`
    /// into the default `⌈√n⌉` bands (see [`QueueStrategy::with_buckets`]).
    /// Repeated builds over one `(d, ρ)` — packing strategy and runtime
    /// policy of one consolidation run, replicated experiments — share one
    /// process-wide threshold table.
    ///
    /// # Panics
    /// Panics where [`MappingTable::build`] does: `d == 0`, a probability
    /// outside `(0, 1]`, or `rho ∉ (0, 1)`.
    ///
    /// [`MappingTable::build`]: crate::MappingTable::build
    pub fn build(d: usize, p_on: f64, p_off: f64, rho: f64) -> Self {
        let strategy = Self::unfloored(d, rho);
        for (name, p) in [("p_on", p_on), ("p_off", p_off)] {
            assert!(p > 0.0 && p <= 1.0, "{name} must be in (0,1], got {p}");
        }
        Self {
            floor_pi: p_on / (p_on + p_off),
            ..strategy
        }
    }

    /// `mapping(count)` under the `π` that prices a load hosting chains
    /// no hotter than `max_pi`.
    #[inline]
    fn blocks(&self, count: usize, max_pi: f64) -> usize {
        self.thresholds.blocks(count, max_pi.max(self.floor_pi))
    }
}

impl Strategy for QueueStrategy {
    fn name(&self) -> &'static str {
        "QUEUE"
    }

    /// Algorithm 2's order: the `R_e` band, then `R_b`. Band edges come
    /// from the min/max spike size, and every fleet member's `R_e` is
    /// some representative's `R_e` — so banding the representatives
    /// reproduces exactly the bands the full fleet gets.
    fn sort_keys(&self, fleet_size: usize, vms: &[VmSpec]) -> Vec<(u32, f64)> {
        let buckets = self.buckets.unwrap_or_else(|| default_buckets(fleet_size));
        let bands = cluster_bands(vms, buckets);
        bands.into_iter().zip(vms.iter().map(|v| v.r_b)).collect()
    }

    /// Eq. 17's left side — reserved blocks plus base demands — or `+∞`
    /// past the `d` cap.
    fn need(&self, load: &PmLoad) -> f64 {
        match load.count {
            0 => 0.0,
            k if k > self.thresholds.d => f64::INFINITY,
            k => load.max_re * self.blocks(k, load.max_pi) as f64 + load.sum_rb,
        }
    }

    /// Residual *admissible base demand*: what is left of Eq. 17 once the
    /// blocks term is charged at the post-admission co-location count
    /// `count + 1`. Admitting `vm` requires
    /// `Σ R_b + R_b + max(max R_e, R_e) · mapping(count+1) ≤ C`, and since
    /// `max(max R_e, R_e) ≥ max R_e` this implies
    /// `R_b ≤ C − Σ R_b − max R_e · mapping(count+1)` — exactly this
    /// measure, giving the contract with `demand` (and a *tight* one when
    /// the newcomer's spike does not exceed the hosted maximum, the common
    /// case under Algorithm 2's decreasing-spike order). The blocks are
    /// the PM's own `π`'s: a hotter newcomer is priced at a `π` that
    /// reserves no fewer (`mapping(k)` does not decrease as `π` grows), so
    /// the bound holds for it too and is exact for one no hotter. A PM at
    /// the `d` cap can admit nothing regardless of capacity.
    fn headroom(&self, load: &PmLoad, capacity: f64) -> f64 {
        if load.count >= self.thresholds.d {
            return f64::NEG_INFINITY;
        }
        let next_blocks = self.blocks(load.count + 1, load.max_pi) as f64;
        capacity - load.sum_rb - load.max_re * next_blocks
    }

    fn demand(&self, vm: &VmSpec) -> f64 {
        vm.r_b
    }
}

/// FFD by peak demand (`R_p`) — the paper's "RP": provisioning for peak
/// workload. Never violates capacity but wastes the spike headroom of
/// every OFF VM.
#[derive(Debug, Clone, Copy, Default)]
pub struct PeakStrategy;

impl Strategy for PeakStrategy {
    fn name(&self) -> &'static str {
        "RP"
    }

    fn sort_keys(&self, _fleet_size: usize, vms: &[VmSpec]) -> Vec<(u32, f64)> {
        vms.iter().map(|v| (0, v.r_p())).collect()
    }

    fn need(&self, load: &PmLoad) -> f64 {
        load.sum_rp
    }

    /// Peak slack: admitting a VM consumes exactly its `R_p`.
    fn headroom(&self, load: &PmLoad, capacity: f64) -> f64 {
        capacity - load.sum_rp
    }

    fn demand(&self, vm: &VmSpec) -> f64 {
        vm.r_p()
    }
}

/// FFD by base demand (`R_b`) — the paper's "RB": provisioning for normal
/// workload. Tightest packing, disastrous CVR under burstiness.
#[derive(Debug, Clone, Copy, Default)]
pub struct BaseStrategy;

impl Strategy for BaseStrategy {
    fn name(&self) -> &'static str {
        "RB"
    }

    fn sort_keys(&self, _fleet_size: usize, vms: &[VmSpec]) -> Vec<(u32, f64)> {
        vms.iter().map(|v| (0, v.r_b)).collect()
    }

    fn need(&self, load: &PmLoad) -> f64 {
        load.sum_rb
    }

    /// Base slack: admitting a VM consumes exactly its `R_b`.
    fn headroom(&self, load: &PmLoad, capacity: f64) -> f64 {
        capacity - load.sum_rb
    }

    fn demand(&self, vm: &VmSpec) -> f64 {
        vm.r_b
    }
}

/// The paper's RB-EX baseline: FFD by `R_b`, but a fixed `δ` fraction of
/// every PM's capacity is kept free for burstiness — the natural policy
/// when nothing is known about the workload except that it bursts.
#[derive(Debug, Clone, Copy)]
pub struct ReserveStrategy {
    delta: f64,
}

impl ReserveStrategy {
    /// Creates the strategy with reserve fraction `delta ∈ [0, 1)`
    /// (the paper evaluates `δ = 0.3`).
    ///
    /// # Panics
    /// Panics for `delta` outside `[0, 1)`.
    pub fn new(delta: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&delta),
            "delta must be in [0,1), got {delta}"
        );
        Self { delta }
    }
}

impl Default for ReserveStrategy {
    fn default() -> Self {
        Self::new(bursty_workload::patterns::defaults::DELTA)
    }
}

impl Strategy for ReserveStrategy {
    fn name(&self) -> &'static str {
        "RB-EX"
    }

    fn sort_keys(&self, _fleet_size: usize, vms: &[VmSpec]) -> Vec<(u32, f64)> {
        vms.iter().map(|v| (0, v.r_b)).collect()
    }

    fn need(&self, load: &PmLoad) -> f64 {
        load.sum_rb
    }

    /// The usable capacity: `δ` of it is held back for bursts.
    fn budget(&self, capacity: f64) -> f64 {
        (1.0 - self.delta) * capacity
    }

    /// Base slack against the usable capacity.
    fn headroom(&self, load: &PmLoad, capacity: f64) -> f64 {
        self.budget(capacity) - load.sum_rb
    }

    fn demand(&self, vm: &VmSpec) -> f64 {
        vm.r_b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapcal::MappingTable;

    fn vm(id: usize, r_b: f64, r_e: f64) -> VmSpec {
        VmSpec::new(id, 0.01, 0.09, r_b, r_e)
    }

    fn queue() -> QueueStrategy {
        QueueStrategy::build(16, 0.01, 0.09, 0.01)
    }

    #[test]
    fn queue_feasibility_is_eq_17() {
        let q = queue();
        let vms = [vm(0, 10.0, 5.0), vm(1, 8.0, 7.0)];
        let load = PmLoad::rebuild(&vms);
        let mapping = MappingTable::build(16, 0.01, 0.09, 0.01);
        let needed = 7.0 * mapping.blocks_for(2) as f64 + 18.0;
        assert!((q.need(&load) - needed).abs() < 1e-12);
        assert!(q.feasible(&load, needed));
        assert!(!q.feasible(&load, needed - 0.01));
    }

    #[test]
    fn queue_prices_a_load_colder_than_its_floor_at_the_floor() {
        // Chains at π = 0.05 under a QUEUE floored at (0.01, 0.09), π = 0.1.
        let q = queue();
        let floor = MappingTable::build(16, 0.01, 0.09, 0.01);
        let own = PiThresholds::shared(16, 0.01);
        let cold: Vec<VmSpec> = (0..16)
            .map(|i| VmSpec::new(i, 0.05, 0.95, 2.0 + i as f64, 1.0 + (i % 4) as f64))
            .collect();
        let mut floor_binds = false;
        for k in 1..=16 {
            let load = PmLoad::rebuild(&cold[..k]);
            assert_eq!(load.max_pi, 0.05);
            let sum_rb: f64 = cold[..k].iter().map(|v| v.r_b).sum();
            let by_floor = load.max_re * floor.blocks_for(k) as f64 + sum_rb;
            assert_eq!(q.need(&load), by_floor, "k {k}");
            let by_own_pi = load.max_re * own.blocks(k, 0.05) as f64 + sum_rb;
            assert!(by_floor >= by_own_pi, "k {k}");
            floor_binds |= by_floor > by_own_pi;
        }
        assert!(
            floor_binds,
            "the floor never reserved more than the load's own π"
        );
    }

    #[test]
    #[should_panic(expected = "p_on must be in (0,1], got 0")]
    fn queue_build_refuses_a_zero_p_on() {
        let _ = QueueStrategy::build(16, 0.0, 0.09, 0.01);
    }

    #[test]
    #[should_panic(expected = "p_off must be in (0,1], got 1.5")]
    fn queue_build_refuses_a_p_off_above_one() {
        let _ = QueueStrategy::build(16, 0.01, 1.5, 0.01);
    }

    #[test]
    #[should_panic(expected = "d must be at least 1")]
    fn queue_build_refuses_d_zero() {
        let _ = QueueStrategy::build(0, 0.01, 0.09, 0.01);
    }

    #[test]
    #[should_panic(expected = "rho must be in (0,1), got 1")]
    fn queue_build_refuses_rho_one() {
        let _ = QueueStrategy::build(16, 0.01, 0.09, 1.0);
    }

    #[test]
    fn queue_rejects_beyond_d() {
        let q = QueueStrategy::build(2, 0.01, 0.09, 0.01);
        let vms: Vec<VmSpec> = (0..3).map(|i| vm(i, 0.1, 0.1)).collect();
        let load = PmLoad::rebuild(&vms);
        assert!(!q.feasible(&load, 1e9), "d cap must bind");
    }

    #[test]
    fn queue_empty_pm_is_feasible() {
        assert!(queue().feasible(&PmLoad::empty(), 0.0));
    }

    #[test]
    fn admits_matches_feasible_of_union() {
        let q = queue();
        let hosted = [vm(0, 30.0, 10.0)];
        let load = PmLoad::rebuild(&hosted);
        let newcomer = vm(1, 25.0, 12.0);
        let combined = load.with(&newcomer);
        for cap in [50.0, 80.0, 100.0, 120.0] {
            assert_eq!(q.admits(&load, &newcomer, cap), q.feasible(&combined, cap));
        }
    }

    #[test]
    fn rp_orders_by_peak_and_packs_by_peak() {
        let s = PeakStrategy;
        let vms = [vm(0, 10.0, 1.0), vm(1, 5.0, 9.0), vm(2, 2.0, 2.0)];
        // Peaks: 11, 14, 4.
        assert_eq!(ffd_order(&s, &vms), vec![1, 0, 2]);
        let load = PmLoad::rebuild(&vms[..2]);
        assert!(s.feasible(&load, 25.0));
        assert!(!s.feasible(&load, 24.9));
    }

    #[test]
    fn rb_orders_by_base_and_ignores_spikes() {
        let s = BaseStrategy;
        let vms = [vm(0, 3.0, 100.0), vm(1, 5.0, 0.5)];
        assert_eq!(ffd_order(&s, &vms), vec![1, 0]);
        let load = PmLoad::rebuild(&vms);
        assert!(s.feasible(&load, 8.0), "RB must ignore the huge spike");
    }

    #[test]
    fn rbex_reserves_fraction() {
        let s = ReserveStrategy::new(0.3);
        let load = PmLoad::rebuild(&[vm(0, 70.0, 1.0)]);
        assert!(s.feasible(&load, 100.0));
        assert!(!s.feasible(&load, 99.0), "70 > 0.7 · 99");
    }

    #[test]
    fn rbex_default_uses_paper_delta() {
        assert_eq!(ReserveStrategy::default().delta, 0.3);
    }

    #[test]
    fn names_match_paper_labels() {
        assert_eq!(queue().name(), "QUEUE");
        assert_eq!(PeakStrategy.name(), "RP");
        assert_eq!(BaseStrategy.name(), "RB");
        assert_eq!(ReserveStrategy::default().name(), "RB-EX");
    }

    #[test]
    fn queue_with_one_bucket_orders_by_rb() {
        let q = queue().with_buckets(1);
        let vms = [vm(0, 2.0, 20.0), vm(1, 8.0, 2.0)];
        assert_eq!(ffd_order(&q, &vms), vec![1, 0]);
    }

    #[test]
    #[should_panic(expected = "delta")]
    fn rbex_rejects_delta_one() {
        let _ = ReserveStrategy::new(1.0);
    }

    #[test]
    fn headroom_is_the_strategy_slack() {
        let load = PmLoad::rebuild(&[vm(0, 10.0, 5.0), vm(1, 8.0, 7.0)]);
        assert_eq!(PeakStrategy.headroom(&load, 100.0), 100.0 - 30.0);
        assert_eq!(BaseStrategy.headroom(&load, 100.0), 100.0 - 18.0);
        let rbex = ReserveStrategy::new(0.3);
        assert!((rbex.headroom(&load, 100.0) - (70.0 - 18.0)).abs() < 1e-12);
        let q = queue();
        // QUEUE charges the blocks term at the post-admission count.
        let mapping = MappingTable::build(16, 0.01, 0.09, 0.01);
        let expected =
            100.0 - load.sum_rb - load.max_re * mapping.blocks_for(load.count + 1) as f64;
        assert!((q.headroom(&load, 100.0) - expected).abs() < 1e-12);
        // Never above the plain Eq.-17 slack (blocks are nondecreasing).
        assert!(q.headroom(&load, 100.0) <= 100.0 - q.need(&load) + 1e-12);
    }

    #[test]
    fn queue_headroom_is_neg_infinity_at_d_cap() {
        let q = QueueStrategy::build(2, 0.01, 0.09, 0.01);
        let full = PmLoad::rebuild(&[vm(0, 0.1, 0.1), vm(1, 0.1, 0.1)]);
        assert_eq!(q.headroom(&full, 1e9), f64::NEG_INFINITY);
        // One slot left: finite headroom again.
        let one = PmLoad::rebuild(&[vm(0, 0.1, 0.1)]);
        assert!(q.headroom(&one, 1e9).is_finite());
    }

    #[test]
    fn admits_implies_headroom_covers_demand() {
        // The pruning contract the indexed packers rely on, exercised over
        // a grid of loads, newcomers, and capacities for all strategies.
        let q = queue();
        let strategies: [&dyn Strategy; 4] =
            [&q, &PeakStrategy, &BaseStrategy, &ReserveStrategy::new(0.3)];
        let hosted: Vec<Vec<VmSpec>> = vec![
            vec![],
            vec![vm(0, 12.0, 4.0)],
            vec![vm(0, 30.0, 10.0), vm(1, 25.0, 12.0)],
            (0..6).map(|i| vm(i, 8.0, 6.0)).collect(),
        ];
        for s in strategies {
            for set in &hosted {
                let load = PmLoad::rebuild(set);
                for newcomer in [vm(90, 2.0, 1.0), vm(91, 15.0, 20.0), vm(92, 40.0, 3.0)] {
                    for cap in [20.0, 55.0, 90.0, 140.0] {
                        if s.admits(&load, &newcomer, cap) {
                            assert!(
                                s.headroom(&load, cap) >= s.demand(&newcomer),
                                "{}: headroom {} < demand {} (cap {cap}, load {load:?})",
                                s.name(),
                                s.headroom(&load, cap),
                                s.demand(&newcomer),
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn built_strategies_share_cached_tables() {
        let a = QueueStrategy::build(11, 0.014, 0.086, 0.023);
        let b = QueueStrategy::build(11, 0.014, 0.086, 0.023);
        assert!(
            Arc::ptr_eq(&a.thresholds, &b.thresholds),
            "same parameters must share one table"
        );
        // The table is a function of (d, ρ) alone: another floor pair
        // prices through the same one.
        let c = QueueStrategy::build(11, 0.02, 0.08, 0.023);
        assert!(Arc::ptr_eq(&a.thresholds, &c.thresholds));
    }

    #[test]
    fn queue_reservation_grows_sublinearly() {
        // Key paper property: required capacity for k identical VMs grows
        // slower than peak provisioning.
        let q = queue();
        let vms: Vec<VmSpec> = (0..10).map(|i| vm(i, 10.0, 10.0)).collect();
        let load = PmLoad::rebuild(&vms);
        let queue_need = q.need(&load);
        let rp_need = load.sum_rp;
        assert!(
            queue_need < 0.75 * rp_need,
            "queue {queue_need} vs peak {rp_need}"
        );
        // …but never below base provisioning.
        assert!(queue_need >= load.sum_rb);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::clustering::cluster_order;
    use proptest::prelude::{prop_assert_eq, proptest, ProptestConfig};
    use proptest::strategy::Strategy as PropStrategy;

    /// Fleets of up to 60 VMs; on a grid fleet (half of them) `R_b` and
    /// `R_e` take one of four values each, so keys and bands tie across most VMs and the
    /// stable sort's index order decides.
    fn fleet() -> impl PropStrategy<Value = Vec<VmSpec>> {
        (
            0u8..2,
            proptest::collection::vec((0u8..4, 0u8..4, 1.0f64..20.0, 0.0f64..20.0), 0..60),
        )
            .prop_map(|(grid, raw)| {
                raw.into_iter()
                    .enumerate()
                    .map(|(i, (gb, ge, rb, re))| match grid {
                        0 => {
                            VmSpec::new(i, 0.01, 0.09, 2.0 + 3.0 * gb as f64, 1.0 + 4.0 * ge as f64)
                        }
                        _ => VmSpec::new(i, 0.01, 0.09, rb, re),
                    })
                    .collect()
            })
    }

    fn stable_desc_by(vms: &[VmSpec], key: impl Fn(&VmSpec) -> f64) -> Vec<usize> {
        let mut order: Vec<usize> = (0..vms.len()).collect();
        order.sort_by(|&a, &b| key(&vms[b]).total_cmp(&key(&vms[a])));
        order
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        #[test]
        fn ffd_order_matches_cluster_order_and_the_stable_key_sorts(vms in fleet()) {
            let q = QueueStrategy::build(16, 0.01, 0.09, 0.01);
            let queues = [
                (1, q.clone().with_buckets(1)),
                (5, q.clone().with_buckets(5)),
                (default_buckets(vms.len()), q),
            ];
            for (buckets, q) in &queues {
                prop_assert_eq!(ffd_order(q, &vms), cluster_order(&vms, *buckets), "{} buckets", buckets);
            }
            prop_assert_eq!(ffd_order(&PeakStrategy, &vms), stable_desc_by(&vms, |v| v.r_p()));
            let by_rb = stable_desc_by(&vms, |v| v.r_b);
            prop_assert_eq!(&ffd_order(&BaseStrategy, &vms), &by_rb);
            prop_assert_eq!(&ffd_order(&ReserveStrategy::new(0.3), &vms), &by_rb);
        }
    }
}
