//! Incremental per-PM load accounting shared by all packing strategies.

use bursty_workload::VmSpec;

/// The aggregate quantities a packing strategy needs about the VMs already
/// placed on one PM. Adding a VM is `O(1)`; removal requires the hosted set
/// (to recompute the max) and is provided by [`PmLoad::rebuild`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PmLoad {
    /// Number of hosted VMs (`|T_j|`).
    pub count: usize,
    /// Largest spike size among hosted VMs (`max R_e`), 0 when empty.
    pub max_re: f64,
    /// Sum of base demands (`Σ R_b`).
    pub sum_rb: f64,
    /// Sum of peak demands (`Σ R_p`).
    pub sum_rp: f64,
}

impl PmLoad {
    /// The empty load.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Load of a hosted set.
    pub fn rebuild<'a>(vms: impl IntoIterator<Item = &'a VmSpec>) -> Self {
        let mut load = Self::empty();
        for vm in vms {
            load.add(vm);
        }
        load
    }

    /// Adds one VM.
    pub fn add(&mut self, vm: &VmSpec) {
        self.count += 1;
        self.max_re = self.max_re.max(vm.r_e);
        self.sum_rb += vm.r_b;
        self.sum_rp += vm.r_p();
    }

    /// The load after adding `vm` (non-mutating — used for feasibility
    /// probes).
    pub(crate) fn with(&self, vm: &VmSpec) -> Self {
        let mut next = *self;
        next.add(vm);
        next
    }

    /// Adds `c` copies of `vm` by the *exact* incremental fold — `c`
    /// repeated [`PmLoad::add`] calls, bit-identical to placing the copies
    /// one at a time (unlike the closed-form [`PmLoad::with_copies`],
    /// which may differ by ulps). The online engines use this to rebuild a
    /// PM's load from its class-count cells in a canonical order.
    pub(crate) fn add_copies(&mut self, vm: &VmSpec, c: usize) {
        for _ in 0..c {
            self.add(vm);
        }
    }

    /// Closed-form load after adding `c` copies of `vm` in `O(1)` — the
    /// probe the batch packer's binary search uses. The sums are computed
    /// as `Σ + c · x` rather than by `c` repeated additions, so they can
    /// differ from the incremental [`PmLoad::add`] fold by a few ulps;
    /// every quantity is monotone in `c`, which is what makes a binary
    /// search over the feasibility predicate valid (see
    /// [`crate::batch::first_fit_batch`] for how the ulp gap is closed).
    pub(crate) fn with_copies(&self, vm: &VmSpec, c: usize) -> Self {
        if c == 0 {
            return *self;
        }
        Self {
            count: self.count + c,
            max_re: self.max_re.max(vm.r_e),
            sum_rb: self.sum_rb + c as f64 * vm.r_b,
            sum_rp: self.sum_rp + c as f64 * vm.r_p(),
        }
    }

    /// `true` when no VMs are hosted.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vm(id: usize, r_b: f64, r_e: f64) -> VmSpec {
        VmSpec::new(id, 0.01, 0.09, r_b, r_e)
    }

    #[test]
    fn add_accumulates() {
        let mut l = PmLoad::empty();
        l.add(&vm(0, 10.0, 5.0));
        l.add(&vm(1, 4.0, 8.0));
        assert_eq!(l.count, 2);
        assert_eq!(l.max_re, 8.0);
        assert_eq!(l.sum_rb, 14.0);
        assert_eq!(l.sum_rp, 27.0);
    }

    #[test]
    fn with_does_not_mutate() {
        let l = PmLoad::rebuild(&[vm(0, 3.0, 1.0)]);
        let probed = l.with(&vm(1, 2.0, 4.0));
        assert_eq!(l.count, 1);
        assert_eq!(probed.count, 2);
        assert_eq!(probed.max_re, 4.0);
    }

    #[test]
    fn rebuild_matches_incremental() {
        let vms = [vm(0, 1.0, 2.0), vm(1, 3.0, 0.5), vm(2, 2.0, 2.5)];
        let rebuilt = PmLoad::rebuild(&vms);
        let mut inc = PmLoad::empty();
        for v in &vms {
            inc.add(v);
        }
        assert_eq!(rebuilt, inc);
    }

    #[test]
    fn with_copies_matches_the_fold_semantically() {
        let base = PmLoad::rebuild(&[vm(0, 3.0, 1.5)]);
        let v = vm(1, 2.0, 4.0);
        let closed = base.with_copies(&v, 3);
        let folded = base.with(&v).with(&v).with(&v);
        assert_eq!(closed.count, folded.count);
        assert_eq!(closed.max_re, folded.max_re);
        assert!((closed.sum_rb - folded.sum_rb).abs() < 1e-12);
        assert!((closed.sum_rp - folded.sum_rp).abs() < 1e-12);
        assert_eq!(base.with_copies(&v, 0), base);
    }

    #[test]
    fn empty_is_empty() {
        assert!(PmLoad::empty().is_empty());
        assert!(!PmLoad::rebuild(&[vm(0, 1.0, 0.0)]).is_empty());
    }
}
