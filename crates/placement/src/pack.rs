//! The shared First-Fit driver (Algorithm 2, lines 10–12), backed by the
//! headroom index.
//!
//! [`first_fit`] finds each slot through the index; the `O(n · m)` linear
//! scan it replaces lives on in this file's test modules only, as the
//! reference whose results the indexed form must reproduce exactly
//! (property-tested below).

use crate::index::HeadroomIndex;
use crate::load::PmLoad;
use crate::order::PmOrder;
use crate::placement::Placement;
use crate::strategy::{ffd_order, Strategy};
use bursty_workload::{PmSpec, VmSpec};
use std::fmt;

/// Packing failure: some VM fits on no PM.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackError {
    /// Id of the first VM that could not be placed.
    pub vm_id: usize,
}

impl fmt::Display for PackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VM {} fits on no available PM", self.vm_id)
    }
}

impl std::error::Error for PackError {}

/// Safety margin below [`Strategy::demand`] when pruning via the headroom
/// index: a PM is skipped only when its headroom is *strictly* below
/// `demand − PRUNE_SLACK`, so an ulp-level difference between the
/// incremental `admits` arithmetic and the subtractive `headroom`
/// arithmetic can never hide an admissible PM. Pruning slightly less is
/// one wasted probe; pruning slightly more would change results.
pub(crate) const PRUNE_SLACK: f64 = 1e-6;

/// The First-Fit probe over the index: the lowest position whose PM
/// `admits` the VM, skipping (provably infeasible) positions below the
/// VM's `demand` and skipping ahead past candidates that reject on the
/// full admission check. The per-VM loops that keep it — [`first_fit`]
/// (the oracle the batch packer is held to), `ReferenceOnlineCluster` and
/// `defrag` — count nothing; production placement is
/// [`crate::batch::place_run`].
pub(crate) fn probe_first_fit(
    index: &HeadroomIndex,
    demand: f64,
    mut admits: impl FnMut(usize) -> bool,
) -> Option<usize> {
    let threshold = demand - PRUNE_SLACK;
    let mut from = 0;
    while let Some(p) = index.first_at_least(from, threshold) {
        if admits(p) {
            return Some(p);
        }
        from = p + 1;
    }
    None
}

/// Places `vms` onto `pms` with First Fit in the order chosen by
/// `strategy` — with a decreasing order this is the paper's FFD family
/// (QueuingFFD, RP, RB, RB-EX are all instances). PMs are tried in the
/// pool's [`PmOrder`]: largest capacity first, ties by index.
///
/// This is the per-VM reference: one probe and one index update per VM.
/// Production packs go through the class-run placer
/// ([`crate::first_fit_batch`], behind `Consolidator::place`), which is
/// held to this function's result on every input.
///
/// Cost: `O(n log n)` for the ordering plus `O((n + r) log m)` for
/// placement, where `r` counts index candidates rejected by the full
/// admission check — the segment tree finds each First-Fit slot in
/// `O(log m)` instead of an `O(m)` scan, with identical results.
///
/// # Examples
/// ```
/// use bursty_placement::{first_fit, PeakStrategy, QueueStrategy};
/// use bursty_workload::{PmSpec, VmSpec};
///
/// let vms: Vec<VmSpec> =
///     (0..20).map(|i| VmSpec::new(i, 0.01, 0.09, 10.0, 10.0)).collect();
/// let pms: Vec<PmSpec> = (0..20).map(|j| PmSpec::new(j, 100.0)).collect();
///
/// let queue = QueueStrategy::build(16, 0.01, 0.09, 0.01);
/// let ours = first_fit(&vms, &pms, &queue).unwrap();   // 7 VMs per PM
/// let peak = first_fit(&vms, &pms, &PeakStrategy).unwrap(); // 5 per PM
/// assert_eq!(ours.pms_used(), 3);
/// assert_eq!(peak.pms_used(), 4);
/// ```
///
/// # Errors
/// [`PackError`] naming the first VM that fits on no PM. The partial
/// placement built before the failure is discarded — the function returns
/// either a complete placement or an error, never a partial one.
pub fn first_fit(
    vms: &[VmSpec],
    pms: &[PmSpec],
    strategy: &dyn Strategy,
) -> Result<Placement, PackError> {
    first_fit_in(vms, &PmOrder::of(pms), strategy)
}

/// [`first_fit`] over the PMs in `order`, with the loads and the index
/// leaves by position in it.
pub(crate) fn first_fit_in(
    vms: &[VmSpec],
    order: &PmOrder,
    strategy: &dyn Strategy,
) -> Result<Placement, PackError> {
    let mut placement = Placement::empty(vms.len(), order.len());
    let caps = order.capacities();
    let mut loads = vec![PmLoad::empty(); caps.len()];
    let empty: Vec<f64> = caps
        .iter()
        .map(|&cap| strategy.headroom(&PmLoad::empty(), cap))
        .collect();
    let mut index = HeadroomIndex::new(&empty);
    for &i in &ffd_order(strategy, vms) {
        let vm = &vms[i];
        let p = probe_first_fit(&index, strategy.demand(vm), |p| {
            strategy.admits(&loads[p], vm, caps[p])
        })
        .ok_or(PackError { vm_id: vm.id })?;
        loads[p].add(vm);
        index.update(p, strategy.headroom(&loads[p], caps[p]));
        placement.assignment[i] = Some(order.pm(p));
    }
    Ok(placement)
}

/// The linear-scan packer the headroom index replaced — the reference
/// the differential tests below hold [`first_fit`] to.
#[cfg(test)]
mod linear {
    use super::*;

    /// Linear-scan First Fit: same results as [`first_fit`], `O(n · m)`,
    /// walking the PMs by index in the pool's order.
    pub(super) fn first_fit_linear(
        vms: &[VmSpec],
        pms: &[PmSpec],
        strategy: &dyn Strategy,
    ) -> Result<Placement, PackError> {
        let mut placement = Placement::empty(vms.len(), pms.len());
        let mut loads = vec![PmLoad::empty(); pms.len()];
        let order = PmOrder::of(pms);
        for &i in &ffd_order(strategy, vms) {
            let vm = &vms[i];
            let slot = order
                .pms()
                .find(|&j| strategy.admits(&loads[j], vm, pms[j].capacity));
            match slot {
                Some(j) => {
                    loads[j].add(vm);
                    placement.assignment[i] = Some(j);
                }
                None => return Err(PackError { vm_id: vm.id }),
            }
        }
        Ok(placement)
    }
}

#[cfg(test)]
mod tests {
    use super::linear::first_fit_linear;
    use super::*;
    use crate::strategy::{BaseStrategy, PeakStrategy, QueueStrategy};

    fn vm(id: usize, r_b: f64, r_e: f64) -> VmSpec {
        VmSpec::new(id, 0.01, 0.09, r_b, r_e)
    }

    fn pms(caps: &[f64]) -> Vec<PmSpec> {
        caps.iter()
            .enumerate()
            .map(|(j, &c)| PmSpec::new(j, c))
            .collect()
    }

    #[test]
    fn ffd_by_peak_packs_exactly() {
        // Peaks 6, 6, 4, 4 onto capacity 10 → two PMs.
        let vms = vec![
            vm(0, 5.0, 1.0),
            vm(1, 5.0, 1.0),
            vm(2, 3.0, 1.0),
            vm(3, 3.0, 1.0),
        ];
        let p = first_fit(&vms, &pms(&[10.0, 10.0, 10.0]), &PeakStrategy).unwrap();
        assert!(p.is_complete());
        assert_eq!(p.pms_used(), 2);
        assert!(p
            .validate(&vms, &pms(&[10.0, 10.0, 10.0]), &PeakStrategy)
            .is_ok());
    }

    #[test]
    fn decreasing_order_beats_arrival_order_case() {
        // Classic FFD win: sizes 5,5,3,3,2,2 on capacity 10.
        let vms = vec![
            vm(0, 2.0, 0.0),
            vm(1, 5.0, 0.0),
            vm(2, 3.0, 0.0),
            vm(3, 5.0, 0.0),
            vm(4, 2.0, 0.0),
            vm(5, 3.0, 0.0),
        ];
        let p = first_fit(&vms, &pms(&[10.0, 10.0, 10.0]), &BaseStrategy).unwrap();
        assert_eq!(p.pms_used(), 2);
    }

    #[test]
    fn queue_packs_tighter_than_peak() {
        let q = QueueStrategy::build(16, 0.01, 0.09, 0.01);
        let vms: Vec<VmSpec> = (0..64).map(|i| vm(i, 10.0, 10.0)).collect();
        let farm = pms(&vec![100.0; 64]);
        let queue_used = first_fit(&vms, &farm, &q).unwrap().pms_used();
        let peak_used = first_fit(&vms, &farm, &PeakStrategy).unwrap().pms_used();
        let base_used = first_fit(&vms, &farm, &BaseStrategy).unwrap().pms_used();
        assert!(
            queue_used < peak_used,
            "queue {queue_used} vs peak {peak_used}"
        );
        assert!(queue_used >= base_used, "queue can never beat base packing");
    }

    #[test]
    fn error_names_unplaceable_vm() {
        let vms = vec![vm(42, 50.0, 0.0)];
        let err = first_fit(&vms, &pms(&[10.0]), &BaseStrategy).unwrap_err();
        assert_eq!(err.vm_id, 42);
        assert!(err.to_string().contains("42"));
    }

    #[test]
    fn empty_vm_list_is_trivially_placed() {
        let p = first_fit(&[], &pms(&[10.0]), &BaseStrategy).unwrap();
        assert!(p.is_complete());
        assert_eq!(p.pms_used(), 0);
    }

    #[test]
    fn no_pms_fails_immediately() {
        let vms = vec![vm(0, 1.0, 0.0)];
        assert!(first_fit(&vms, &[], &BaseStrategy).is_err());
    }

    #[test]
    fn indexed_matches_linear_on_the_doc_example() {
        let vms: Vec<VmSpec> = (0..20).map(|i| vm(i, 10.0, 10.0)).collect();
        let farm = pms(&[100.0; 20]);
        let q = QueueStrategy::build(16, 0.01, 0.09, 0.01);
        assert_eq!(
            first_fit(&vms, &farm, &q),
            first_fit_linear(&vms, &farm, &q)
        );
    }

    #[test]
    fn recorded_packers_match_and_balance_their_probe_accounting() {
        // The production packer counts its candidate PMs in the arena's
        // profile (what `Consolidator::place_recorded` books), on both
        // routes: a collapsing fleet and one past the tracked classes.
        // Each candidate either took one fill of a run or was rejected,
        // and a run's fills are the distinct PMs its members landed on.
        // The small VMs sit a hair over the room the big ones leave, inside
        // the index's pruning slack: the index offers those PMs and the
        // admission check rejects them.
        use crate::batch::{batch_runs, first_fit_batch_with, PlacementState};
        let farm = pms(&[10.0; 120]);
        let pairs = |n: usize, step: f64| -> Vec<VmSpec> {
            (0..2 * n)
                .map(|i| match i % 2 {
                    0 => vm(i, 6.0 + (i / 2) as f64 * step, 1.0),
                    _ => vm(i, 4.0 - (i / 2) as f64 * step + 5e-7, 1.0),
                })
                .collect()
        };
        for vms in [&pairs(3, 0.0), &pairs(60, 1e-4)] {
            let mut state = PlacementState::new();
            let packed = first_fit_batch_with(&mut state, vms, &farm, &BaseStrategy).unwrap();
            assert_eq!(packed, first_fit(vms, &farm, &BaseStrategy).unwrap());
            let (order, runs) = batch_runs(vms, &BaseStrategy);
            let fills: usize = runs
                .iter()
                .map(|run| {
                    let mut hosts: Vec<usize> = order[run.start..run.start + run.len]
                        .iter()
                        .map(|&i| packed.assignment[i].unwrap())
                        .collect();
                    hosts.dedup();
                    hosts.len()
                })
                .sum();
            let pack = state.last_pack();
            assert!(pack.rejected_probes > 0, "some candidate rejects");
            assert_eq!(pack.probes, pack.rejected_probes + fills as u64);
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::linear::first_fit_linear;
    use super::*;
    use crate::strategy::{BaseStrategy, PeakStrategy, QueueStrategy, ReserveStrategy};
    use proptest::prelude::{prop_assert, prop_assert_eq, proptest, ProptestConfig};
    use proptest::strategy::Strategy as PropStrategy;

    fn fleet() -> impl PropStrategy<Value = Vec<VmSpec>> {
        proptest::collection::vec((2.0f64..20.0, 2.0f64..20.0), 1..60).prop_map(|raw| {
            raw.into_iter()
                .enumerate()
                .map(|(i, (rb, re))| VmSpec::new(i, 0.01, 0.09, rb, re))
                .collect()
        })
    }

    fn hetero_farm() -> impl PropStrategy<Value = Vec<PmSpec>> {
        proptest::collection::vec(40.0f64..140.0, 4..48).prop_map(|caps| {
            caps.into_iter()
                .enumerate()
                .map(|(j, c)| PmSpec::new(j, c))
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn packed_placements_always_validate(vms in fleet()) {
            let farm: Vec<PmSpec> =
                (0..vms.len()).map(|j| PmSpec::new(j, 100.0)).collect();
            let q = QueueStrategy::build(16, 0.01, 0.09, 0.01);
            for strategy in [&q as &dyn Strategy, &PeakStrategy, &BaseStrategy] {
                let p = first_fit(&vms, &farm, strategy).unwrap();
                prop_assert!(p.is_complete());
                prop_assert_eq!(p.validate(&vms, &farm, strategy), Ok(()));
            }
        }

        #[test]
        fn pm_ordering_invariant_queue_between_base_and_peak(vms in fleet()) {
            let farm: Vec<PmSpec> =
                (0..vms.len()).map(|j| PmSpec::new(j, 100.0)).collect();
            let q = QueueStrategy::build(16, 0.01, 0.09, 0.01);
            let queue = first_fit(&vms, &farm, &q).unwrap().pms_used();
            let peak = first_fit(&vms, &farm, &PeakStrategy).unwrap().pms_used();
            let base = first_fit(&vms, &farm, &BaseStrategy).unwrap().pms_used();
            prop_assert!(base <= peak);
            prop_assert!(queue <= peak, "queue {queue} must not exceed peak {peak}");
        }

        #[test]
        fn indexed_packers_match_linear_reference(
            vms in fleet(),
            farm in hetero_farm(),
        ) {
            // The headline equivalence: on random fleets over heterogeneous
            // PM capacities, the indexed packer must return bit-identical
            // results (success or failure) to the linear-scan reference,
            // for all four paper strategies.
            let q = QueueStrategy::build(16, 0.01, 0.09, 0.01);
            let rbex = ReserveStrategy;
            let strategies: [&dyn Strategy; 4] =
                [&q, &PeakStrategy, &BaseStrategy, &rbex];
            for strategy in strategies {
                prop_assert_eq!(
                    first_fit(&vms, &farm, strategy),
                    first_fit_linear(&vms, &farm, strategy),
                    "first_fit diverged for {}", strategy.name()
                );
            }
        }
    }
}
