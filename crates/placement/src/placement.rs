//! The VM-to-PM mapping `X` (paper Eq. 3 context) and its validation.

use crate::load::PmLoad;
use crate::strategy::Strategy;
use bursty_workload::{PmSpec, VmSpec};

/// A VM-to-PM mapping: `assignment[i] = Some(j)` places VM `i` (by position
/// in the spec slice) on PM `j`. The paper's binary matrix `X = [x_ij]` in
/// sparse form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    /// Per-VM host PM index.
    pub assignment: Vec<Option<usize>>,
    /// Total number of PMs that were available (`m`).
    pub n_pms: usize,
}

impl Placement {
    /// An empty placement of `n_vms` VMs over `n_pms` PMs.
    pub fn empty(n_vms: usize, n_pms: usize) -> Self {
        Self {
            assignment: vec![None; n_vms],
            n_pms,
        }
    }

    /// Number of VMs covered by the mapping.
    pub fn n_vms(&self) -> usize {
        self.assignment.len()
    }

    /// Indices of PMs hosting at least one VM.
    fn used_pms(&self) -> Vec<usize> {
        let mut used = vec![false; self.n_pms];
        for a in self.assignment.iter().flatten() {
            used[*a] = true;
        }
        used.iter()
            .enumerate()
            .filter_map(|(j, &u)| u.then_some(j))
            .collect()
    }

    /// The paper's objective (Eq. 6): number of PMs in use.
    pub fn pms_used(&self) -> usize {
        self.used_pms().len()
    }

    /// `true` when every VM is placed.
    pub fn is_complete(&self) -> bool {
        self.assignment.iter().all(Option::is_some)
    }

    /// Hosted VM indices per PM: `result[j]` lists the VMs on PM `j`.
    pub fn per_pm(&self) -> Vec<Vec<usize>> {
        let mut by_pm = vec![Vec::new(); self.n_pms];
        for (i, a) in self.assignment.iter().enumerate() {
            if let Some(j) = a {
                by_pm[*j].push(i);
            }
        }
        by_pm
    }

    /// The VMs on PM `j`.
    pub fn vms_on(&self, j: usize) -> Vec<usize> {
        self.assignment
            .iter()
            .enumerate()
            .filter_map(|(i, a)| (*a == Some(j)).then_some(i))
            .collect()
    }

    /// Verifies that every used PM's hosted set is feasible under
    /// `strategy`, returning the offending PM index on failure.
    ///
    /// # Errors
    /// `Err(j)` for the first infeasible PM `j`.
    pub fn validate(
        &self,
        vms: &[VmSpec],
        pms: &[PmSpec],
        strategy: &dyn Strategy,
    ) -> Result<(), usize> {
        for (j, hosted) in self.per_pm().iter().enumerate() {
            if hosted.is_empty() {
                continue;
            }
            let load = PmLoad::rebuild(hosted.iter().map(|&i| &vms[i]));
            if !strategy.feasible(&load, pms[j].capacity) {
                return Err(j);
            }
        }
        Ok(())
    }
}

/// The headline metric of Fig. 5: the fractional reduction in PMs used by
/// `ours` relative to `baseline` (e.g. QUEUE vs RP). Positive = we save.
pub fn consolidation_improvement(ours: usize, baseline: usize) -> f64 {
    if baseline == 0 {
        return 0.0;
    }
    1.0 - ours as f64 / baseline as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::BaseStrategy;

    fn vm(id: usize, r_b: f64, r_e: f64) -> VmSpec {
        VmSpec::new(id, 0.01, 0.09, r_b, r_e)
    }

    fn pm(id: usize, c: f64) -> PmSpec {
        PmSpec::new(id, c)
    }

    #[test]
    fn empty_placement_uses_no_pms() {
        let p = Placement::empty(3, 5);
        assert_eq!(p.pms_used(), 0);
        assert!(!p.is_complete());
        assert_eq!(p.n_vms(), 3);
    }

    #[test]
    fn used_pms_and_per_pm_agree() {
        let p = Placement {
            assignment: vec![Some(1), Some(1), Some(3), None],
            n_pms: 4,
        };
        assert_eq!(p.used_pms(), vec![1, 3]);
        assert_eq!(p.pms_used(), 2);
        let by_pm = p.per_pm();
        assert_eq!(by_pm[1], vec![0, 1]);
        assert_eq!(by_pm[3], vec![2]);
        assert!(by_pm[0].is_empty());
        assert_eq!(p.vms_on(1), vec![0, 1]);
    }

    #[test]
    fn validate_accepts_feasible_and_flags_overload() {
        let vms = vec![vm(0, 6.0, 0.1), vm(1, 6.0, 0.1)];
        let pms = vec![pm(0, 10.0), pm(1, 10.0)];
        let ok = Placement {
            assignment: vec![Some(0), Some(1)],
            n_pms: 2,
        };
        assert_eq!(ok.validate(&vms, &pms, &BaseStrategy), Ok(()));
        let bad = Placement {
            assignment: vec![Some(0), Some(0)],
            n_pms: 2,
        };
        assert_eq!(bad.validate(&vms, &pms, &BaseStrategy), Err(0));
    }

    #[test]
    fn improvement_fraction() {
        assert!((consolidation_improvement(7, 10) - 0.3).abs() < 1e-12);
        assert_eq!(consolidation_improvement(5, 0), 0.0);
        assert!(consolidation_improvement(12, 10) < 0.0);
    }
}
