//! Incremental per-PM load accounting shared by all packing strategies.

use bursty_obs::durable::{Cursor, FrameError, Wire};
use bursty_workload::VmSpec;

/// The aggregate quantities a packing strategy needs about the VMs already
/// placed on one PM. Adding a VM is `O(1)`; removal requires the hosted set
/// (to recompute the max) and is provided by [`PmLoad::rebuild`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PmLoad {
    /// Number of hosted VMs (`|T_j|`).
    pub count: usize,
    /// Largest spike size among hosted VMs (`max R_e`), 0 when empty.
    pub max_re: f64,
    /// Sum of base demands (`Σ R_b`).
    pub sum_rb: f64,
    /// Sum of peak demands (`Σ R_p`).
    pub sum_rp: f64,
    /// The hottest hosted chain: the largest stationary ON probability
    /// `π = p_on / (p_on + p_off)` among hosted VMs, 0 when empty. QUEUE
    /// prices the PM at it, floored at the strategy's pair
    /// ([`crate::QueueStrategy`]).
    pub max_pi: f64,
}

/// A VM's stationary ON probability `π = p_on / (p_on + p_off)`, computed
/// exactly as MapCal's closed form computes it, so equal `π` bits mean
/// bit-identical mapping tables.
#[inline]
pub(crate) fn stationary_on(vm: &VmSpec) -> f64 {
    vm.p_on / (vm.p_on + vm.p_off)
}

impl Default for PmLoad {
    fn default() -> Self {
        Self::EMPTY
    }
}

impl PmLoad {
    /// The empty load: what every PM that hosts nothing reads.
    pub(crate) const EMPTY: Self = Self {
        count: 0,
        max_re: 0.0,
        sum_rb: 0.0,
        sum_rp: 0.0,
        max_pi: 0.0,
    };

    /// The empty load.
    pub fn empty() -> Self {
        Self::EMPTY
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
        self.max_pi = self.max_pi.max(stationary_on(vm));
    }

    /// The load after adding `vm` (non-mutating — used for feasibility
    /// probes).
    pub(crate) fn with(&self, vm: &VmSpec) -> Self {
        let mut next = *self;
        next.add(vm);
        next
    }

    /// Adds `c` copies of `vm`: `c` repeated [`PmLoad::add`] calls. The
    /// online engines use this to rebuild a PM's load from its class-count
    /// cells in a canonical order.
    pub(crate) fn add_copies(&mut self, vm: &VmSpec, c: usize) {
        for _ in 0..c {
            self.add(vm);
        }
    }

    /// `true` when no VMs are hosted.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The five fields' bits: loads with equal bits fold, price and
    /// index alike under every strategy.
    #[inline]
    pub(crate) fn bits(&self) -> [u64; 5] {
        [
            self.count as u64,
            self.max_re.to_bits(),
            self.sum_rb.to_bits(),
            self.sum_rp.to_bits(),
            self.max_pi.to_bits(),
        ]
    }

    /// The load whose [`PmLoad::bits`] are `bits`.
    #[inline]
    pub(crate) fn from_bits(bits: [u64; 5]) -> Self {
        let [count, max_re, sum_rb, sum_rp, max_pi] = bits;
        Self {
            count: count as usize,
            max_re: f64::from_bits(max_re),
            sum_rb: f64::from_bits(sum_rb),
            sum_rp: f64::from_bits(sum_rp),
            max_pi: f64::from_bits(max_pi),
        }
    }
}

/// `(count, max_re, sum_rb, sum_rp)`, the sums as their exact bits: a
/// re-fold can differ from an incremental one by ulps, so snapshots carry
/// them verbatim. [`PmLoad::max_pi`] is a pure max over the hosted set and
/// is not written; it reads as 0, and the reader refolds it.
impl Wire for PmLoad {
    const MIN_BYTES: usize = 4 * 8;
    fn put(&self, buf: &mut Vec<u8>) {
        (self.count, [self.max_re, self.sum_rb, self.sum_rp]).put(buf);
    }
    fn get(c: &mut Cursor<'_>) -> Result<Self, FrameError> {
        let (count, [max_re, sum_rb, sum_rp]) = Wire::get(c)?;
        Ok(PmLoad {
            count,
            max_re,
            sum_rb,
            sum_rp,
            max_pi: 0.0,
        })
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
        assert_eq!(l.max_pi, 0.01 / (0.01 + 0.09));
        l.add(&VmSpec::new(2, 0.5, 0.5, 1.0, 1.0));
        assert_eq!(l.max_pi, 0.5, "the hottest chain wins");
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
    fn wire_image_is_min_bytes_and_leaves_max_pi_to_the_reader() {
        let load = PmLoad::rebuild(&[vm(0, 3.0, 1.0), vm(1, 2.0, 4.0)]);
        let mut buf = Vec::new();
        load.put(&mut buf);
        assert_eq!(buf.len(), PmLoad::MIN_BYTES);
        let mut c = Cursor::new(&buf);
        let back = PmLoad::get(&mut c).unwrap();
        c.expect_done().unwrap();
        assert_eq!(
            back,
            PmLoad {
                max_pi: 0.0,
                ..load
            }
        );
    }

    #[test]
    fn empty_is_empty() {
        assert!(PmLoad::empty().is_empty());
        assert!(!PmLoad::rebuild(&[vm(0, 1.0, 0.0)]).is_empty());
    }
}
