//! Packing/admission strategies: QUEUE (the paper's Eq. 17) and the
//! baselines RP, RB and RB-EX.

use crate::clustering::{cluster_bands, cluster_order, default_buckets};
use crate::load::PmLoad;
use crate::mapcal::MappingTable;
use bursty_workload::{PmSpec, VmSpec};
use std::sync::Arc;

/// A consolidation strategy: how to order VMs for First-Fit-Decreasing and
/// when a *set* of VMs fits on a PM.
///
/// Set feasibility (rather than an incremental admit) is the primitive
/// because every strategy in the paper — including Eq. 17 — depends only on
/// the hosted set, not on insertion order; this keeps runtime admission
/// checks (migration targeting) and initial packing trivially consistent.
pub trait Strategy: Send + Sync {
    /// Display name as used in the paper's figures (QUEUE, RP, RB, RB-EX).
    fn name(&self) -> &'static str;

    /// The order (as indices into `vms`) in which First Fit should place
    /// the VMs.
    fn order(&self, vms: &[VmSpec]) -> Vec<usize>;

    /// Whether a PM with aggregate load `load` is feasible under capacity
    /// `capacity`.
    fn feasible(&self, load: &PmLoad, capacity: f64) -> bool;

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
    ///
    /// The default (`+∞`) honors the contract trivially and disables
    /// pruning: indexed packing degrades to the linear scan, never to a
    /// wrong answer.
    fn headroom(&self, _load: &PmLoad, _capacity: f64) -> f64 {
        f64::INFINITY
    }

    /// Load-independent lower bound on the headroom `vm` needs on *any*
    /// PM — the threshold the indexed packers search with. Must be
    /// conservative (never exceed the true requirement on any PM state);
    /// see the contract on [`Strategy::headroom`]. The default (`0`)
    /// disables pruning.
    fn demand(&self, _vm: &VmSpec) -> f64 {
        0.0
    }

    /// `(cluster band, primary key)` sort keys for a set of distinct VM
    /// *class representatives*, or `None` when the strategy's order is
    /// not expressible as per-class keys.
    ///
    /// `fleet_size` is the full fleet's VM count `n` — key computation
    /// may depend on it (QUEUE's default bucket count is `⌈√n⌉`) even
    /// though only `representatives.len()` keys are produced.
    ///
    /// Contract: when this returns `Some(keys)`, the key must be a pure
    /// function of a VM's spec bits given the fleet — bit-identical
    /// `(p_on, p_off, R_b, R_e)` specs get bit-identical keys, and a
    /// representative's key must equal what its duplicates would be
    /// assigned from the full fleet (QUEUE satisfies this because its
    /// band edges depend only on the min/max spike size, a function of
    /// the *support* of the spec distribution, which the representatives
    /// span). Further, [`Strategy::order`] must equal a *stable* sort of
    /// `0..n` by `(band descending, key descending by total order)` over
    /// the per-VM keys these induce. The batch packer then reproduces the
    /// order by sorting only the `k ≪ n` distinct classes — while staying
    /// byte-identical to `order` (differentially property-tested in
    /// `batch.rs`). The default (`None`) keeps arbitrary `order`
    /// implementations correct: the batch packer falls back to calling
    /// `order` itself.
    fn class_order_keys(
        &self,
        _fleet_size: usize,
        _representatives: &[VmSpec],
    ) -> Option<Vec<(u32, f64)>> {
        None
    }

    /// Appends the empty-farm headroom of every PM to `out` — a batched
    /// form of `headroom(&PmLoad::empty(), pm.capacity)`. The default
    /// body is monomorphized per implementing type, so the inner
    /// `headroom` calls dispatch statically even when the strategy is
    /// held behind `dyn`: one virtual call per farm instead of one per
    /// PM, which matters when the batch packer resets a million-PM arena.
    fn empty_headrooms(&self, pms: &[PmSpec], out: &mut Vec<f64>) {
        out.extend(
            pms.iter()
                .map(|pm| self.headroom(&PmLoad::empty(), pm.capacity)),
        );
    }
}

/// The paper's burstiness-aware strategy (Algorithm 2): cluster by spike
/// size, sort, and admit per Eq. 17 —
/// `max R_e · mapping(|T_j|+1) + Σ R_b ≤ C_j`, subject to at most `d` VMs
/// per PM.
#[derive(Debug, Clone)]
pub struct QueueStrategy {
    mapping: Arc<MappingTable>,
    buckets: Option<usize>,
}

impl QueueStrategy {
    /// Creates the strategy from a prebuilt mapping table. `buckets`
    /// controls the `R_e` clustering granularity (`None` = `⌈√n⌉`).
    pub fn new(mapping: MappingTable) -> Self {
        Self::from_shared(Arc::new(mapping))
    }

    /// Creates the strategy around an already-shared mapping table (e.g.
    /// one obtained from [`MappingTable::cached`]) without copying it.
    pub(crate) fn from_shared(mapping: Arc<MappingTable>) -> Self {
        Self {
            mapping,
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

    /// Builds the strategy directly from the parameters of Algorithm 2,
    /// through the process-wide [`MappingTable::cached`] memo — repeated
    /// builds over one parameter set (packing strategy + runtime policy of
    /// the same consolidation run, replicated experiments, …) share a
    /// single `O(d⁴)` table.
    pub fn build(d: usize, p_on: f64, p_off: f64, rho: f64) -> Self {
        Self::from_shared(MappingTable::cached(d, p_on, p_off, rho))
    }

    /// The underlying mapping table.
    pub fn mapping(&self) -> &MappingTable {
        &self.mapping
    }

    /// The shared handle to the mapping table (for cache-identity checks
    /// and zero-copy sharing with runtime policies).
    pub fn mapping_arc(&self) -> &Arc<MappingTable> {
        &self.mapping
    }

    /// The resources a PM with load `load` must dedicate under this
    /// strategy: reserved blocks plus base demands (the left side of
    /// Eq. 17).
    pub(crate) fn required_capacity(&self, load: &PmLoad) -> f64 {
        if load.count == 0 {
            return 0.0;
        }
        load.max_re * self.mapping.blocks_for(load.count) as f64 + load.sum_rb
    }
}

impl Strategy for QueueStrategy {
    fn name(&self) -> &'static str {
        "QUEUE"
    }

    fn order(&self, vms: &[VmSpec]) -> Vec<usize> {
        let buckets = self.buckets.unwrap_or_else(|| default_buckets(vms.len()));
        cluster_order(vms, buckets)
    }

    fn feasible(&self, load: &PmLoad, capacity: f64) -> bool {
        load.count <= self.mapping.d() && self.required_capacity(load) <= capacity
    }

    /// Residual *admissible base demand*: what is left of Eq. 17 once the
    /// blocks term is charged at the post-admission co-location count
    /// `count + 1`. Admitting `vm` requires
    /// `Σ R_b + R_b + max(max R_e, R_e) · mapping(count+1) ≤ C`, and since
    /// `max(max R_e, R_e) ≥ max R_e` this implies
    /// `R_b ≤ C − Σ R_b − max R_e · mapping(count+1)` — exactly this
    /// measure, giving the contract with `demand` (and a *tight* one when
    /// the newcomer's spike does not exceed the hosted maximum, the common
    /// case under Algorithm 2's decreasing-spike order). A PM at the `d`
    /// cap can admit nothing regardless of capacity.
    fn headroom(&self, load: &PmLoad, capacity: f64) -> f64 {
        if load.count >= self.mapping.d() {
            return f64::NEG_INFINITY;
        }
        let next_blocks = self.mapping.blocks_for(load.count + 1) as f64;
        capacity - load.sum_rb - load.max_re * next_blocks
    }

    fn demand(&self, vm: &VmSpec) -> f64 {
        vm.r_b
    }

    /// Band edges come from the min/max spike size, and every fleet
    /// member's `R_e` is some representative's `R_e` — so banding the
    /// representatives reproduces exactly the bands `cluster_order`
    /// assigns over the full fleet.
    fn class_order_keys(
        &self,
        fleet_size: usize,
        representatives: &[VmSpec],
    ) -> Option<Vec<(u32, f64)>> {
        let buckets = self.buckets.unwrap_or_else(|| default_buckets(fleet_size));
        let bands = cluster_bands(representatives, buckets);
        Some(
            bands
                .into_iter()
                .zip(representatives.iter().map(|v| v.r_b))
                .collect(),
        )
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

    fn order(&self, vms: &[VmSpec]) -> Vec<usize> {
        sorted_desc_by(vms, |v| v.r_p())
    }

    fn class_order_keys(
        &self,
        _fleet_size: usize,
        representatives: &[VmSpec],
    ) -> Option<Vec<(u32, f64)>> {
        Some(representatives.iter().map(|v| (0, v.r_p())).collect())
    }

    fn feasible(&self, load: &PmLoad, capacity: f64) -> bool {
        load.sum_rp <= capacity
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

    fn order(&self, vms: &[VmSpec]) -> Vec<usize> {
        sorted_desc_by(vms, |v| v.r_b)
    }

    fn class_order_keys(
        &self,
        _fleet_size: usize,
        representatives: &[VmSpec],
    ) -> Option<Vec<(u32, f64)>> {
        Some(representatives.iter().map(|v| (0, v.r_b)).collect())
    }

    fn feasible(&self, load: &PmLoad, capacity: f64) -> bool {
        load.sum_rb <= capacity
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

    fn order(&self, vms: &[VmSpec]) -> Vec<usize> {
        sorted_desc_by(vms, |v| v.r_b)
    }

    fn class_order_keys(
        &self,
        _fleet_size: usize,
        representatives: &[VmSpec],
    ) -> Option<Vec<(u32, f64)>> {
        Some(representatives.iter().map(|v| (0, v.r_b)).collect())
    }

    fn feasible(&self, load: &PmLoad, capacity: f64) -> bool {
        load.sum_rb <= (1.0 - self.delta) * capacity
    }

    /// Base slack against the *usable* (reserve-reduced) capacity.
    fn headroom(&self, load: &PmLoad, capacity: f64) -> f64 {
        (1.0 - self.delta) * capacity - load.sum_rb
    }

    fn demand(&self, vm: &VmSpec) -> f64 {
        vm.r_b
    }
}

fn sorted_desc_by(vms: &[VmSpec], key: impl Fn(&VmSpec) -> f64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..vms.len()).collect();
    order.sort_by(|&a, &b| key(&vms[b]).total_cmp(&key(&vms[a])));
    order
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let needed = 7.0 * q.mapping().blocks_for(2) as f64 + 18.0;
        assert!((q.required_capacity(&load) - needed).abs() < 1e-12);
        assert!(q.feasible(&load, needed));
        assert!(!q.feasible(&load, needed - 0.01));
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
        assert_eq!(s.order(&vms), vec![1, 0, 2]);
        let load = PmLoad::rebuild(&vms[..2]);
        assert!(s.feasible(&load, 25.0));
        assert!(!s.feasible(&load, 24.9));
    }

    #[test]
    fn rb_orders_by_base_and_ignores_spikes() {
        let s = BaseStrategy;
        let vms = [vm(0, 3.0, 100.0), vm(1, 5.0, 0.5)];
        assert_eq!(s.order(&vms), vec![1, 0]);
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
        assert_eq!(q.order(&vms), vec![1, 0]);
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
        let expected =
            100.0 - load.sum_rb - load.max_re * q.mapping().blocks_for(load.count + 1) as f64;
        assert!((q.headroom(&load, 100.0) - expected).abs() < 1e-12);
        // Never above the plain Eq.-17 slack (blocks are nondecreasing).
        assert!(q.headroom(&load, 100.0) <= 100.0 - q.required_capacity(&load) + 1e-12);
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
            std::sync::Arc::ptr_eq(a.mapping_arc(), b.mapping_arc()),
            "same parameters must share one table"
        );
    }

    #[test]
    fn queue_reservation_grows_sublinearly() {
        // Key paper property: required capacity for k identical VMs grows
        // slower than peak provisioning.
        let q = queue();
        let vms: Vec<VmSpec> = (0..10).map(|i| vm(i, 10.0, 10.0)).collect();
        let load = PmLoad::rebuild(&vms);
        let queue_need = q.required_capacity(&load);
        let rp_need = load.sum_rp;
        assert!(
            queue_need < 0.75 * rp_need,
            "queue {queue_need} vs peak {rp_need}"
        );
        // …but never below base provisioning.
        assert!(queue_need >= load.sum_rb);
    }
}
