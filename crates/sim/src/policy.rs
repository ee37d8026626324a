//! Runtime admission policies for migration targeting.
//!
//! During a live migration the controller must choose a target PM. What the
//! controller *knows* differs by consolidation scheme:
//!
//! * QUEUE knows every VM's spike size and reserves blocks (Eq. 17) — its
//!   admission check is exact with respect to the performance constraint.
//! * RB/RB-EX observe only *current* demands. A PM whose tenants are
//!   momentarily OFF looks idle — the paper's *idle deception* — and
//!   accepting a migrant on that evidence seeds the next overload, the
//!   *cycle migration* feedback loop.

use bursty_placement::{PeakStrategy, PmLoad, QueueStrategy, Strategy};
use bursty_workload::VmSpec;

/// A PM's state as visible to the runtime controller.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PmRuntime {
    /// Spec-level aggregates of the hosted set (known to spec-aware
    /// policies only).
    pub load: PmLoad,
    /// Sum of the hosted VMs' *current* demands (what a burstiness-unaware
    /// monitor observes).
    pub observed: f64,
}

/// An admission rule for placing VM `vm` (with current demand
/// `vm_demand`) onto a PM in state `pm` with capacity `capacity`.
pub trait RuntimePolicy: Send + Sync {
    /// Label used in reports.
    fn name(&self) -> &'static str;

    /// Whether the controller would accept the VM on this PM.
    fn admits(&self, vm: &VmSpec, vm_demand: f64, pm: &PmRuntime, capacity: f64) -> bool;

    /// Scalar headroom of the PM under this policy — the same pruning
    /// contract as [`bursty_placement::Strategy::headroom`]: whenever
    /// `admits(vm, vm_demand, pm, capacity)` holds,
    /// `headroom(pm, capacity) ≥ demand_measure(vm, vm_demand)` must hold
    /// too. The batch evacuation controller indexes this value
    /// ([`bursty_placement::HeadroomIndex`]) to find feasible targets in
    /// `O(log m)`; the default (observed slack) is exact for
    /// observed-demand policies and conservative for any policy at least
    /// as strict as "current demands must fit".
    fn headroom(&self, pm: &PmRuntime, capacity: f64) -> f64 {
        capacity - pm.observed
    }

    /// The load-independent headroom requirement of `vm` paired with
    /// [`RuntimePolicy::headroom`] (see the contract there). The default
    /// is the VM's current demand.
    fn demand_measure(&self, _vm: &VmSpec, vm_demand: f64) -> f64 {
        vm_demand
    }

    /// Whether [`RuntimePolicy::headroom`] reads `pm.observed`. The
    /// default `true` is the safe answer: the engine then re-derives
    /// every PM's headroom at the first target query of each step,
    /// because observed demand moves everywhere every step. A policy
    /// whose headroom is a function of `pm.load` and the capacity only
    /// may return `false`; the engine then keeps its target index across
    /// steps and updates only the PMs whose load or up/down state
    /// changed.
    fn headroom_reads_observed(&self) -> bool {
        true
    }
}

impl RuntimePolicy for &dyn RuntimePolicy {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn admits(&self, vm: &VmSpec, vm_demand: f64, pm: &PmRuntime, capacity: f64) -> bool {
        (**self).admits(vm, vm_demand, pm, capacity)
    }
    fn headroom(&self, pm: &PmRuntime, capacity: f64) -> f64 {
        (**self).headroom(pm, capacity)
    }
    fn demand_measure(&self, vm: &VmSpec, vm_demand: f64) -> f64 {
        (**self).demand_measure(vm, vm_demand)
    }
    fn headroom_reads_observed(&self) -> bool {
        (**self).headroom_reads_observed()
    }
}

/// Degraded-mode admission: the wrapped policy's rule evaluated with every
/// capacity inflated to `(1 + ε)·C`. This is the principled relaxation
/// order's first stage when the pool is exhausted — the *shape* of the
/// guarantee (Eq. 17 for QUEUE, observed slack for RB/RB-EX, peak for RP)
/// is preserved, only its budget is stretched by a known, configurable
/// margin; every placement admitted this way is tagged so reports can
/// separate "guarantee held" from "guarantee suspended" time.
#[derive(Debug, Clone)]
pub struct DegradedAdmission<P> {
    inner: P,
    epsilon: f64,
}

impl<P: RuntimePolicy> DegradedAdmission<P> {
    /// Wraps `inner` with overflow margin `epsilon ≥ 0`.
    ///
    /// # Panics
    /// Panics for a negative (or NaN) `epsilon`.
    pub(crate) fn new(inner: P, epsilon: f64) -> Self {
        assert!(epsilon >= 0.0, "epsilon must be nonnegative, got {epsilon}");
        Self { inner, epsilon }
    }
}

impl<P: RuntimePolicy> RuntimePolicy for DegradedAdmission<P> {
    fn name(&self) -> &'static str {
        "DEGRADED"
    }

    fn admits(&self, vm: &VmSpec, vm_demand: f64, pm: &PmRuntime, capacity: f64) -> bool {
        self.inner
            .admits(vm, vm_demand, pm, capacity * (1.0 + self.epsilon))
    }

    fn headroom(&self, pm: &PmRuntime, capacity: f64) -> f64 {
        self.inner.headroom(pm, capacity * (1.0 + self.epsilon))
    }

    fn demand_measure(&self, vm: &VmSpec, vm_demand: f64) -> f64 {
        self.inner.demand_measure(vm, vm_demand)
    }

    fn headroom_reads_observed(&self) -> bool {
        self.inner.headroom_reads_observed()
    }
}

/// Spec-aware admission by a packing [`Strategy`]: the runtime decides by
/// the very rule the initial packing used, on [`PmRuntime::load`] alone
/// (`pm.observed` plays no part). [`QueuePolicy`] is the QUEUE runtime:
/// a target is priced as the packer prices it, at the hottest chain it
/// would host, migrant included ([`PmLoad::max_pi`]), never below the
/// strategy's floor pair. [`PeakPolicy`] is the runtime counterpart of
/// RP: it never admits a VM that could ever overload the PM.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpecPolicy<S> {
    strategy: S,
}

/// The QUEUE runtime, deciding by [`QueueStrategy`]'s Eq. 17.
pub type QueuePolicy = SpecPolicy<QueueStrategy>;

/// Peak-demand admission, deciding by [`PeakStrategy`]'s rule.
pub type PeakPolicy = SpecPolicy<PeakStrategy>;

impl<S: Strategy> SpecPolicy<S> {
    /// Wraps a strategy (for QUEUE, the initial packing's rule and floor:
    /// [`QueueStrategy::build`] prices through the process-wide
    /// `π`-threshold table of its `(d, ρ)`, the one the packer read).
    pub fn new(strategy: S) -> Self {
        Self { strategy }
    }

    /// The wrapped strategy.
    pub fn strategy(&self) -> &S {
        &self.strategy
    }
}

impl<S: Strategy> RuntimePolicy for SpecPolicy<S> {
    fn name(&self) -> &'static str {
        self.strategy.name()
    }

    fn admits(&self, vm: &VmSpec, _vm_demand: f64, pm: &PmRuntime, capacity: f64) -> bool {
        self.strategy.admits(&pm.load, vm, capacity)
    }

    fn headroom(&self, pm: &PmRuntime, capacity: f64) -> f64 {
        self.strategy.headroom(&pm.load, capacity)
    }

    fn demand_measure(&self, vm: &VmSpec, _vm_demand: f64) -> f64 {
        self.strategy.demand(vm)
    }

    fn headroom_reads_observed(&self) -> bool {
        false
    }
}

/// Observed-demand admission with a headroom fraction — the behaviour of a
/// burstiness-unaware controller. `headroom = 0` models RB;
/// `headroom = δ` models RB-EX.
#[derive(Debug, Clone, Copy)]
pub struct ObservedPolicy {
    headroom: f64,
    name: &'static str,
}

impl ObservedPolicy {
    /// RB: accept whenever current demands fit the full capacity.
    pub fn rb() -> Self {
        Self {
            headroom: 0.0,
            name: "RB",
        }
    }

    /// RB-EX: keep a `delta` fraction of capacity free at admission time.
    ///
    /// # Panics
    /// Panics for `delta` outside `[0, 1)`.
    pub fn rb_ex(delta: f64) -> Self {
        assert!((0.0..1.0).contains(&delta), "delta must be in [0,1)");
        Self {
            headroom: delta,
            name: "RB-EX",
        }
    }
}

impl RuntimePolicy for ObservedPolicy {
    fn name(&self) -> &'static str {
        self.name
    }

    fn admits(&self, _vm: &VmSpec, vm_demand: f64, pm: &PmRuntime, capacity: f64) -> bool {
        pm.observed + vm_demand <= (1.0 - self.headroom) * capacity
    }

    fn headroom(&self, pm: &PmRuntime, capacity: f64) -> f64 {
        (1.0 - self.headroom) * capacity - pm.observed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bursty_placement::{BaseStrategy, ReserveStrategy};

    fn vm(id: usize, r_b: f64, r_e: f64) -> VmSpec {
        VmSpec::new(id, 0.01, 0.09, r_b, r_e)
    }

    fn runtime(hosted: &[VmSpec], observed: f64) -> PmRuntime {
        PmRuntime {
            load: PmLoad::rebuild(hosted),
            observed,
        }
    }

    #[test]
    fn queue_policy_matches_eq17() {
        let strategy = QueueStrategy::build(16, 0.01, 0.09, 0.01);
        let policy = QueuePolicy::new(strategy.clone());
        let hosted = [vm(0, 30.0, 10.0)];
        let pm = runtime(&hosted, 30.0);
        let newcomer = vm(1, 25.0, 12.0);
        for cap in [60.0, 70.0, 100.0] {
            assert_eq!(
                policy.admits(&newcomer, 37.0, &pm, cap),
                strategy.admits(&pm.load, &newcomer, cap),
            );
        }
    }

    #[test]
    fn a_migrant_hotter_than_target_and_floor_is_priced_at_its_own_chain() {
        use bursty_placement::{pm_cvr_exact, MappingTable};
        // A calm tenant at the floor pair (π = 0.1) and a migrant at
        // π = 0.9. Priced by the pair alone, the capacity that holds the
        // two under the floor's table admitted it, and the landing broke
        // ρ by the exact law; priced at the migrant's own chain, that PM
        // rejects it, and one sized for that chain admits it within ρ.
        let rho = 0.01;
        let q = QueuePolicy::new(QueueStrategy::build(16, 0.01, 0.09, rho));
        let hosted = [vm(0, 10.0, 10.0)];
        let pm = runtime(&hosted, 10.0);
        let migrant = VmSpec::new(1, 0.9, 0.1, 10.0, 10.0);
        let landing = [hosted[0], migrant];
        let blocks = |p_on, p_off| MappingTable::build(16, p_on, p_off, rho).blocks_for(2) as f64;
        let by_floor = 20.0 + 10.0 * blocks(0.01, 0.09);
        let cvr_at = |cap| pm_cvr_exact(&landing, cap).unwrap();
        assert!(cvr_at(by_floor) > rho, "the floor's table under-reserves");
        assert!(!q.admits(&migrant, 10.0, &pm, by_floor));
        let by_own_chain = 20.0 + 10.0 * blocks(0.9, 0.1);
        assert!(q.admits(&migrant, 10.0, &pm, by_own_chain));
        assert!(cvr_at(by_own_chain) <= rho);
    }

    #[test]
    fn observed_policy_suffers_idle_deception() {
        // Tenants hold Σ R_b = 90 on a 100-capacity PM but are all OFF with
        // observed demand 90; their spikes (R_e = 10 each) make the true
        // peak 180. The RB controller still admits a 10-unit migrant —
        // the deception the paper describes.
        let hosted: Vec<VmSpec> = (0..9).map(|i| vm(i, 10.0, 10.0)).collect();
        let pm = runtime(&hosted, 90.0);
        let migrant = vm(9, 10.0, 10.0);
        assert!(ObservedPolicy::rb().admits(&migrant, 10.0, &pm, 100.0));
        // The peak-aware policy refuses.
        assert!(!PeakPolicy::default().admits(&migrant, 10.0, &pm, 100.0));
        // And Eq. 17 refuses too (blocks for 10 VMs would not fit).
        let q = QueuePolicy::new(QueueStrategy::build(16, 0.01, 0.09, 0.01));
        assert!(!q.admits(&migrant, 10.0, &pm, 100.0));
    }

    #[test]
    fn rb_ex_headroom_blocks_marginal_admissions() {
        let hosted = [vm(0, 50.0, 5.0)];
        let pm = runtime(&hosted, 50.0);
        let migrant = vm(1, 25.0, 5.0);
        // 50 + 25 = 75 ≤ 100 → RB admits; 75 > 0.7·100 → RB-EX refuses.
        assert!(ObservedPolicy::rb().admits(&migrant, 25.0, &pm, 100.0));
        assert!(!ObservedPolicy::rb_ex(0.3).admits(&migrant, 25.0, &pm, 100.0));
    }

    #[test]
    fn observed_policy_sees_spikes_while_they_last() {
        // Same tenants, but currently spiking: observed 180 > 100 — even RB
        // refuses now. Deception is specifically about OFF tenants.
        let hosted: Vec<VmSpec> = (0..9).map(|i| vm(i, 10.0, 10.0)).collect();
        let pm = runtime(&hosted, 180.0);
        assert!(!ObservedPolicy::rb().admits(&vm(9, 10.0, 10.0), 10.0, &pm, 100.0));
    }

    #[test]
    fn names() {
        assert_eq!(ObservedPolicy::rb().name(), "RB");
        assert_eq!(ObservedPolicy::rb_ex(0.3).name(), "RB-EX");
        assert_eq!(PeakPolicy::default().name(), "RP");
        assert_eq!(
            QueuePolicy::new(QueueStrategy::build(2, 0.1, 0.1, 0.1)).name(),
            "QUEUE"
        );
    }

    #[test]
    fn empty_pm_admits_anything_that_fits() {
        let pm = PmRuntime::default();
        let migrant = vm(0, 10.0, 10.0);
        assert!(ObservedPolicy::rb().admits(&migrant, 20.0, &pm, 25.0));
        assert!(PeakPolicy::default().admits(&migrant, 20.0, &pm, 25.0));
        assert!(!ObservedPolicy::rb().admits(&migrant, 30.0, &pm, 25.0));
    }

    #[test]
    #[should_panic(expected = "delta")]
    fn rb_ex_rejects_bad_delta() {
        let _ = ObservedPolicy::rb_ex(1.0);
    }

    #[test]
    fn admits_implies_headroom_covers_demand_measure() {
        // The pruning contract the evacuation controller's index relies
        // on, over a grid of PM states, newcomers, and capacities.
        let q = QueuePolicy::new(QueueStrategy::build(16, 0.01, 0.09, 0.01));
        let policies: [&dyn RuntimePolicy; 6] = [
            &q,
            &ObservedPolicy::rb(),
            &ObservedPolicy::rb_ex(0.3),
            &PeakPolicy::default(),
            &SpecPolicy::new(BaseStrategy),
            &SpecPolicy::new(ReserveStrategy::new(0.3)),
        ];
        let states: Vec<(Vec<VmSpec>, f64)> = vec![
            (vec![], 0.0),
            (vec![vm(0, 12.0, 4.0)], 12.0),
            (vec![vm(0, 30.0, 10.0), vm(1, 25.0, 12.0)], 67.0),
            ((0..6).map(|i| vm(i, 8.0, 6.0)).collect(), 62.0),
        ];
        for policy in policies {
            for (hosted, observed) in &states {
                let pm = runtime(hosted, *observed);
                for newcomer in [vm(90, 2.0, 1.0), vm(91, 15.0, 20.0), vm(92, 40.0, 3.0)] {
                    for demand in [newcomer.r_b, newcomer.r_p()] {
                        for cap in [20.0, 55.0, 90.0, 140.0] {
                            if policy.admits(&newcomer, demand, &pm, cap) {
                                assert!(
                                    policy.headroom(&pm, cap)
                                        >= policy.demand_measure(&newcomer, demand),
                                    "{}: headroom {} < demand {} (cap {cap})",
                                    policy.name(),
                                    policy.headroom(&pm, cap),
                                    policy.demand_measure(&newcomer, demand),
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn load_only_policies_really_ignore_observed_demand() {
        // The engine keeps its target index across steps for a policy
        // that says its headroom does not read `pm.observed`; the claim
        // must be true, and must survive every wrapper.
        let q = QueuePolicy::new(QueueStrategy::build(16, 0.01, 0.09, 0.01));
        let hosted: Vec<VmSpec> = (0..5).map(|i| vm(i, 8.0, 6.0)).collect();
        let load_only: [&dyn RuntimePolicy; 2] = [&q, &PeakPolicy::default()];
        for policy in load_only {
            assert!(!policy.headroom_reads_observed(), "{}", policy.name());
            let degraded = DegradedAdmission::new(policy, 0.2);
            assert!(!degraded.headroom_reads_observed());
            for cap in [55.0, 90.0] {
                let calm = policy.headroom(&runtime(&hosted, 40.0), cap);
                let spiking = policy.headroom(&runtime(&hosted, 70.0), cap);
                assert_eq!(calm.to_bits(), spiking.to_bits(), "{}", policy.name());
                assert_eq!(
                    degraded.headroom(&runtime(&hosted, 40.0), cap).to_bits(),
                    degraded.headroom(&runtime(&hosted, 70.0), cap).to_bits()
                );
            }
        }
        for policy in [ObservedPolicy::rb(), ObservedPolicy::rb_ex(0.3)] {
            assert!(policy.headroom_reads_observed());
            assert!(DegradedAdmission::new(policy, 0.2).headroom_reads_observed());
        }
        let boxed: [Box<dyn RuntimePolicy>; 2] =
            [Box::new(PeakPolicy::default()), Box::new(q.clone())];
        assert!(boxed.iter().all(|b| !b.headroom_reads_observed()));
    }

    #[test]
    fn degraded_admission_inflates_capacity() {
        // Observed 90 on a 100-capacity PM: a 15-unit migrant is refused
        // normally but admitted with a 10% overflow margin (fits in 110).
        let hosted: Vec<VmSpec> = (0..9).map(|i| vm(i, 10.0, 10.0)).collect();
        let pm = runtime(&hosted, 90.0);
        let migrant = vm(9, 15.0, 5.0);
        let rb = ObservedPolicy::rb();
        assert!(!rb.admits(&migrant, 15.0, &pm, 100.0));
        let degraded = DegradedAdmission::new(rb, 0.1);
        assert!(degraded.admits(&migrant, 15.0, &pm, 100.0));
        assert_eq!(degraded.name(), "DEGRADED");
        assert_eq!(degraded.epsilon, 0.1);
        // ε = 0 degenerates to the wrapped policy.
        let strict = DegradedAdmission::new(ObservedPolicy::rb(), 0.0);
        assert!(!strict.admits(&migrant, 15.0, &pm, 100.0));
        // The contract survives wrapping.
        assert!(degraded.headroom(&pm, 100.0) >= degraded.demand_measure(&migrant, 15.0));
    }

    #[test]
    fn degraded_admission_preserves_the_inner_rule_shape() {
        // QUEUE wrapped: still refuses what even a stretched Eq. 17
        // cannot certify, admits what the margin covers.
        let q = QueuePolicy::new(QueueStrategy::build(16, 0.01, 0.09, 0.01));
        let hosted: Vec<VmSpec> = (0..9).map(|i| vm(i, 10.0, 10.0)).collect();
        let pm = runtime(&hosted, 90.0);
        let migrant = vm(9, 10.0, 10.0);
        assert!(!q.admits(&migrant, 10.0, &pm, 100.0));
        // Eq. 17 for 10 VMs at R_e = 10 needs 100 + 10·mapping(10);
        // a 50% margin covers it on a 100-capacity PM.
        let wide = DegradedAdmission::new(q.clone(), 0.5);
        assert!(wide.admits(&migrant, 10.0, &pm, 100.0));
        let narrow = DegradedAdmission::new(q, 0.01);
        assert!(!narrow.admits(&migrant, 10.0, &pm, 100.0));
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn degraded_admission_rejects_negative_epsilon() {
        let _ = DegradedAdmission::new(ObservedPolicy::rb(), -0.1);
    }
}
