//! The exact stationary capacity-violation ratio of a placed PM.
//!
//! The paper's guarantee (per-PM CVR ≤ ρ under Eq. 17) is a statement
//! about a stationary law, and for independent ON-OFF chains that law is
//! a product: VM `i` is ON with probability `p_onᵢ / (p_onᵢ + p_offᵢ)`,
//! independently of its neighbours. The spike demand `Σ R_eᵢ·ONᵢ` of a PM
//! is therefore a finite convolution, and its tail above the PM's spare
//! capacity is the PM's CVR — exactly, for heterogeneous probabilities and
//! spike sizes, with no table, no rounding and no simulation.
//!
//! This is the oracle the MapCal table and both simulator layouts are
//! checked against. It shares the violation predicate ([`CAP_EPS`]) with
//! the engine and nothing else: no binomial PMF, no mapping table, no rng.

use crate::placement::Placement;
use bursty_workload::{PmSpec, VmSpec};

/// Tolerance when comparing aggregate demand to capacity, so exact-fit
/// packings are not flagged by floating-point noise: a PM is over
/// capacity when `demand > C + CAP_EPS`.
pub const CAP_EPS: f64 = 1e-9;

/// Largest support the convolution may grow to before [`pm_cvr_exact`]
/// gives up: `k` pairwise-incommensurable spike sizes reach `2^k` points.
const MAX_SUPPORT: usize = 1 << 20;

/// The stationary law of `Σ R_eᵢ·ONᵢ` over `hosted`, as `(sum,
/// probability)` points in ascending order of `sum`; `None` once it has
/// more than [`MAX_SUPPORT`] points.
///
/// Each VM merges two ascending lists — the law so far with the VM OFF,
/// and the same law shifted by `R_e` with it ON — and equal sums share a
/// point, so identical VMs cost one point each rather than a doubling: a
/// fleet of classes stays within `Π (n_c + 1)` points.
fn spike_law<'a>(hosted: impl IntoIterator<Item = &'a VmSpec>) -> Option<Vec<(f64, f64)>> {
    let mut law = vec![(0.0, 1.0)];
    for vm in hosted {
        let on = vm.p_on / (vm.p_on + vm.p_off);
        let mut next: Vec<(f64, f64)> = Vec::with_capacity(2 * law.len());
        let mut push = |sum: f64, p: f64| match next.last_mut() {
            Some(last) if last.0 == sum => last.1 += p,
            _ => next.push((sum, p)),
        };
        // `law[b].0 + r_e >= law[b].0`, so the OFF cursor `a` never
        // trails the ON cursor `b` and both lists end together.
        let (mut a, mut b) = (0, 0);
        while b < law.len() {
            let shifted = law[b].0 + vm.r_e;
            if a < law.len() && law[a].0 <= shifted {
                push(law[a].0, law[a].1 * (1.0 - on));
                a += 1;
            } else {
                push(shifted, law[b].1 * on);
                b += 1;
            }
        }
        if next.len() > MAX_SUPPORT {
            return None;
        }
        law = next;
    }
    Some(law)
}

/// The exact stationary CVR of one PM of `capacity` hosting `hosted`:
/// `Pr[Σ R_b + Σ R_e·ON > C + CAP_EPS]` under independent stationary
/// ON-OFF chains. `Some(0.0)` (sign bit clear) when even the peak fits.
///
/// `None` when the law of the spike sum is not enumerable — more than
/// 2²⁰ distinct sums, which takes over twenty VMs with pairwise distinct
/// spike sizes on one PM; fleets built from size classes never get there.
pub fn pm_cvr_exact<'a>(
    hosted: impl IntoIterator<Item = &'a VmSpec>,
    capacity: f64,
) -> Option<f64> {
    let mut base = 0.0;
    let law = spike_law(hosted.into_iter().inspect(|vm| base += vm.r_b))?;
    // Folding from `0.0` (an empty `sum()` is `-0.0`), smallest masses
    // first: the tail is the top of the ascending list.
    Some(
        law.iter()
            .rev()
            .take_while(|&&(spikes, _)| base + spikes > capacity + CAP_EPS)
            .fold(0.0, |tail, &(_, p)| tail + p),
    )
}

/// [`pm_cvr_exact`] for every occupied PM of `placement`, in ascending PM
/// order: `(pm index, exact CVR)`, with `None` where the PM's law is not
/// enumerable. PMs hosting nothing are not listed.
///
/// # Panics
/// Panics if the placement refers to a VM or PM outside `vms` / `pms`.
pub fn certify_exact(
    vms: &[VmSpec],
    pms: &[PmSpec],
    placement: &Placement,
) -> Vec<(usize, Option<f64>)> {
    placement
        .per_pm()
        .iter()
        .enumerate()
        .filter(|(_, hosted)| !hosted.is_empty())
        .map(|(j, hosted)| {
            let specs = hosted.iter().map(|&i| &vms[i]);
            (j, pm_cvr_exact(specs, pms[j].capacity))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapcal::MappingTable;
    use bursty_workload::SizeClass;
    use proptest::prelude::*;

    /// `Pr[demand > C + CAP_EPS]` summed over all `2^k` ON-sets — the
    /// definition, sharing nothing with the merge above. Kahan-summed:
    /// 2¹⁶ naive additions alone drift by more than the 1e-12 compared.
    fn brute_force(hosted: &[VmSpec], capacity: f64) -> f64 {
        let k = hosted.len();
        let (mut cvr, mut lost) = (0.0, 0.0);
        for on_set in 0u32..1 << k {
            let (mut demand, mut p) = (0.0, 1.0);
            for (i, vm) in hosted.iter().enumerate() {
                let q = vm.p_on / (vm.p_on + vm.p_off);
                if on_set >> i & 1 == 1 {
                    demand += vm.r_b + vm.r_e;
                    p *= q;
                } else {
                    demand += vm.r_b;
                    p *= 1.0 - q;
                }
            }
            if demand > capacity + CAP_EPS {
                let term = p - lost;
                let sum = cvr + term;
                lost = (sum - cvr) - term;
                cvr = sum;
            }
        }
        cvr
    }

    #[test]
    fn tight_cells_match_the_mapping_tables_certified_cvr() {
        // The six cells of `sim/tests/cvr_certification.rs`: k identical
        // VMs on C = k·R_b + mapping(k)·R_e violate iff more than
        // mapping(k) are ON — the event `certified_cvr(k)` prices through
        // the closed-form binomial.
        for &(p_on, p_off) in &[(0.01, 0.09), (0.02, 0.18), (0.05, 0.15)] {
            for rho in [0.01, 0.05] {
                let mapping = MappingTable::build(16, p_on, p_off, rho);
                for k in 1..=16 {
                    let vms: Vec<VmSpec> = (0..k)
                        .map(|i| VmSpec::new(i, p_on, p_off, 10.0, 10.0))
                        .collect();
                    let capacity = 10.0 * k as f64 + 10.0 * mapping.blocks_for(k) as f64;
                    let exact = pm_cvr_exact(&vms, capacity).unwrap();
                    let table = mapping.certified_cvr(k);
                    assert!(
                        (exact - table).abs() < 1e-12,
                        "({p_on}, {p_off}, {rho}) k = {k}: exact {exact} vs table {table}"
                    );
                    assert!(exact <= rho + 1e-12);
                }
            }
        }
    }

    fn table_i_vms(counts: [usize; 3]) -> Vec<VmSpec> {
        let classes = [SizeClass::Small, SizeClass::Medium, SizeClass::Large];
        let mut vms = Vec::new();
        // Interleaved, so the merge cannot rely on classes arriving in runs.
        for round in 0..*counts.iter().max().unwrap() {
            for (class, &n) in classes.iter().zip(&counts) {
                if round < n {
                    let r = class.resource_units();
                    vms.push(VmSpec::new(vms.len(), 0.01, 0.09, r, r));
                }
            }
        }
        vms
    }

    #[test]
    fn class_fleets_merge_equal_sums() {
        // 16 VMs of the three Table-I size classes (R_e = 5, 10, 20).
        // (1, 1, 14): no two class mixes share a sum, so the support is
        // exactly Π (n_c + 1) = 2·2·15. (5, 5, 6): sums collide across
        // classes as well (2·5 = 10), so the support is every multiple of
        // 5 up to the peak — either way nowhere near 2¹⁶.
        for (counts, support) in [([1, 1, 14], 60), ([5, 5, 6], 40)] {
            let vms = table_i_vms(counts);
            assert_eq!(vms.len(), 16);
            let law = spike_law(&vms).unwrap();
            assert_eq!(law.len(), support, "{counts:?}");
            assert!(law.len() <= counts.iter().map(|n| n + 1).product());
            assert!(law.windows(2).all(|w| w[0].0 < w[1].0), "ascending");
            let total: f64 = law.iter().map(|&(_, p)| p).sum();
            assert!((total - 1.0).abs() < 1e-12);
            let base: f64 = vms.iter().map(|v| v.r_b).sum();
            for spare in [0.0, 12.5, 20.0, 45.0, 400.0] {
                let exact = pm_cvr_exact(&vms, base + spare).unwrap();
                let brute = brute_force(&vms, base + spare);
                assert!(
                    (exact - brute).abs() < 1e-12,
                    "{counts:?} spare {spare}: {exact} vs {brute}"
                );
            }
        }
    }

    #[test]
    fn unenumerable_empty_and_never_violating_pms() {
        // 45 pairwise distinct spike sizes (what RB packs on one
        // `plan_traces` PM): 2⁴⁵ sums, so the kernel declines.
        let vms: Vec<VmSpec> = (0..45)
            .map(|i| VmSpec::new(i, 0.01, 0.09, 1.0, 1.0 + (i as f64).sqrt() * 0.37))
            .collect();
        let pms = vec![PmSpec::new(0, 60.0), PmSpec::new(1, 60.0)];
        let mut placement = Placement::empty(45, 2);
        placement.assignment.fill(Some(1));
        assert_eq!(pm_cvr_exact(&vms, 60.0), None);
        // PM 0 hosts nothing and is not listed.
        assert_eq!(certify_exact(&vms, &pms, &placement), vec![(1, None)]);

        // A PM whose peak fits never violates: +0.0, not the -0.0 of an
        // empty float sum.
        let cvr = pm_cvr_exact(&vms[..4], 100.0).unwrap();
        assert_eq!(cvr.to_bits(), 0.0f64.to_bits());
        // …and one whose base alone overflows always does.
        let cvr = pm_cvr_exact(&vms[..4], 3.0).unwrap();
        assert!((cvr - 1.0).abs() < 1e-12);
    }

    fn vm() -> impl Strategy<Value = VmSpec> {
        // p = 1 − u lands anywhere in (0, 1]; `kind` forces the edges the
        // ranges alone would never hit.
        (0.0f64..1.0, 0.0f64..1.0, 0.1f64..20.0, 0.0f64..20.0, 0u8..8).prop_map(
            |(u_on, u_off, r_b, r_e, kind)| {
                let (p_on, p_off) = (1.0 - u_on, 1.0 - u_off);
                match kind {
                    0 => VmSpec::new(0, p_on, p_off, r_b, 0.0),
                    1 => VmSpec::new(0, 1.0, p_off, r_b, r_e),
                    2 => VmSpec::new(0, p_on, 1.0, r_b, r_e),
                    _ => VmSpec::new(0, p_on, p_off, r_b, r_e),
                }
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn heterogeneous_pms_match_brute_force(
            hosted in proptest::collection::vec(vm(), 1..13),
            fill in 0.0f64..1.1,
        ) {
            // Capacity anywhere from "base only" to "peak fits".
            let base: f64 = hosted.iter().map(|v| v.r_b).sum();
            let spikes: f64 = hosted.iter().map(|v| v.r_e).sum();
            let capacity = base + fill * spikes;
            let exact = pm_cvr_exact(&hosted, capacity).unwrap();
            let brute = brute_force(&hosted, capacity);
            prop_assert!(
                (exact - brute).abs() < 1e-12,
                "exact {} vs brute force {}", exact, brute
            );
            prop_assert!((0.0..=1.0 + 1e-12).contains(&exact));
        }
    }
}
