//! Multi-dimensional consolidation (paper §IV-E).
//!
//! For uncorrelated resource dimensions the paper prescribes applying the
//! queuing reservation *per dimension* and replacing the two-step
//! cluster/sort scheme with plain First Fit, requiring the performance
//! constraint on every dimension. For correlated dimensions, project to
//! one dimension (see [`bursty_workload::multidim::MultiDimVmSpec::project`])
//! and use the scalar pipeline.

use crate::load::PmLoad;
use crate::pack::PackError;
use crate::strategy::{QueueStrategy, Strategy};
use bursty_workload::multidim::{MultiDimVmSpec, ResourceVec};

/// A PM with a capacity per resource dimension.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiDimPmSpec {
    /// Caller-assigned id.
    pub id: usize,
    /// Capacity per dimension.
    pub capacity: ResourceVec,
}

/// The multi-dimensional packing result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiDimPlacement {
    /// Per-VM host PM index (position-aligned with the input slice).
    pub assignment: Vec<usize>,
    /// Number of PMs available.
    pub n_pms: usize,
}

impl MultiDimPlacement {
    /// Number of PMs hosting at least one VM.
    pub fn pms_used(&self) -> usize {
        let mut used = vec![false; self.n_pms];
        for &j in &self.assignment {
            used[j] = true;
        }
        used.iter().filter(|&&u| u).count()
    }
}

/// First-Fit packing with per-dimension queuing reservation: VM `v` fits on
/// a PM iff for *every* dimension `d` the PM's scalar load on `d`, `v`
/// included, is feasible under `strategy` at capacity `C[d]` — Eq. 17
/// priced at the hottest chain the PM would host, floored at the
/// strategy's pair, with at most `d_max` VMs per PM: the rule every QUEUE
/// path shares ([`QueueStrategy`]), so VMs may differ in their switch
/// probabilities.
///
/// # Errors
/// [`PackError`] at the first unplaceable VM.
///
/// # Panics
/// Panics on dimension mismatches between VMs and PMs.
pub fn first_fit_multidim(
    vms: &[MultiDimVmSpec],
    pms: &[MultiDimPmSpec],
    strategy: &QueueStrategy,
) -> Result<MultiDimPlacement, PackError> {
    let dims = match vms.first() {
        Some(v) => v.dims(),
        None => {
            return Ok(MultiDimPlacement {
                assignment: Vec::new(),
                n_pms: pms.len(),
            })
        }
    };
    for v in vms {
        assert_eq!(v.dims(), dims, "all VMs must share dimensionality");
    }
    for p in pms {
        assert_eq!(p.capacity.dims(), dims, "PM dimensionality mismatch");
    }

    // One scalar load per (PM, dimension).
    let mut loads = vec![vec![PmLoad::empty(); dims]; pms.len()];
    let mut assignment = Vec::with_capacity(vms.len());
    for vm in vms {
        let slot = (0..pms.len()).find(|&j| {
            (0..dims).all(|d| {
                let load = loads[j][d].with(&vm.dimension(d));
                strategy.feasible(&load, pms[j].capacity.get(d))
            })
        });
        match slot {
            Some(j) => {
                for (d, load) in loads[j].iter_mut().enumerate() {
                    load.add(&vm.dimension(d));
                }
                assignment.push(j);
            }
            None => return Err(PackError { vm_id: vm.id }),
        }
    }
    Ok(MultiDimPlacement {
        assignment,
        n_pms: pms.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rv(xs: &[f64]) -> ResourceVec {
        ResourceVec::new(xs.to_vec())
    }

    fn vm(id: usize, r_b: &[f64], r_e: &[f64]) -> MultiDimVmSpec {
        MultiDimVmSpec::new(id, 0.01, 0.09, rv(r_b), rv(r_e))
    }

    fn pm(id: usize, caps: &[f64]) -> MultiDimPmSpec {
        MultiDimPmSpec {
            id,
            capacity: rv(caps),
        }
    }

    fn strategy() -> QueueStrategy {
        QueueStrategy::build(16, 0.01, 0.09, 0.01)
    }

    #[test]
    fn packs_when_both_dimensions_fit() {
        let vms = vec![
            vm(0, &[10.0, 5.0], &[5.0, 2.0]),
            vm(1, &[10.0, 5.0], &[5.0, 2.0]),
        ];
        let pms = vec![pm(0, &[100.0, 50.0])];
        let p = first_fit_multidim(&vms, &pms, &strategy()).unwrap();
        assert_eq!(p.assignment, vec![0, 0]);
        assert_eq!(p.pms_used(), 1);
    }

    #[test]
    fn tight_dimension_forces_spill() {
        // Dimension 1 is the bottleneck: each VM needs ~7 of 10 units.
        let vms = vec![
            vm(0, &[1.0, 6.0], &[1.0, 1.0]),
            vm(1, &[1.0, 6.0], &[1.0, 1.0]),
        ];
        let pms = vec![pm(0, &[100.0, 10.0]), pm(1, &[100.0, 10.0])];
        let p = first_fit_multidim(&vms, &pms, &strategy()).unwrap();
        assert_eq!(p.pms_used(), 2, "dimension-1 contention must split them");
    }

    #[test]
    fn reservation_is_per_dimension() {
        // One block is shared per dimension independently: the spike-heavy
        // dimension reserves big blocks, the flat one almost none.
        let vms: Vec<MultiDimVmSpec> = (0..4).map(|i| vm(i, &[5.0, 5.0], &[20.0, 0.0])).collect();
        let s = strategy();
        // k=4 needs mapping(4) blocks of 20 in dim 0: 20·m(4)+20 ≤ C0.
        let dim0: Vec<_> = vms.iter().map(|v| v.dimension(0)).collect();
        let c0 = s.need(&PmLoad::rebuild(&dim0));
        let pms = vec![pm(0, &[c0, 20.0])];
        let p = first_fit_multidim(&vms, &pms, &s).unwrap();
        assert_eq!(p.pms_used(), 1);
        // Shrinking dim 0 by any margin must fail.
        let pms_tight = vec![pm(0, &[c0 - 0.5, 20.0])];
        assert!(first_fit_multidim(&vms, &pms_tight, &s).is_err());
    }

    #[test]
    fn empty_input_is_ok() {
        let p = first_fit_multidim(&[], &[pm(0, &[1.0])], &strategy()).unwrap();
        assert_eq!(p.pms_used(), 0);
    }

    #[test]
    fn d_cap_applies() {
        let s = QueueStrategy::build(2, 0.01, 0.09, 0.01);
        let vms: Vec<MultiDimVmSpec> = (0..3).map(|i| vm(i, &[0.1], &[0.1])).collect();
        let pms = vec![pm(0, &[1000.0]), pm(1, &[1000.0])];
        let p = first_fit_multidim(&vms, &pms, &s).unwrap();
        assert_eq!(p.pms_used(), 2, "at most d = 2 VMs per PM");
    }

    #[test]
    fn error_names_vm() {
        let vms = vec![vm(9, &[50.0], &[1.0])];
        let pms = vec![pm(0, &[10.0])];
        assert_eq!(
            first_fit_multidim(&vms, &pms, &strategy())
                .unwrap_err()
                .vm_id,
            9
        );
    }

    #[test]
    #[should_panic(expected = "dimensionality")]
    fn mixed_dimensionality_panics() {
        let vms = vec![vm(0, &[1.0], &[1.0]), vm(1, &[1.0, 1.0], &[1.0, 1.0])];
        let pms = vec![pm(0, &[10.0])];
        let _ = first_fit_multidim(&vms, &pms, &strategy());
    }
}
