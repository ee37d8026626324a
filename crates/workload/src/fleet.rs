//! Seeded random generation of VM and PM fleets (Fig. 5 / Table I setups).

use crate::patterns::{defaults, SizeClass, TableIRow, WorkloadPattern, TABLE_I};
use crate::spec::{PmSpec, VmSpec};
use rand::distributions::{Distribution, Uniform};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Options for [`FleetGenerator`]. Defaults match the paper's captions:
/// `p_on = 0.01`, `p_off = 0.09`, `C_j ∈ [80, 100]`.
#[derive(Debug, Clone)]
pub struct FleetOptions {
    /// Spike frequency, uniform across the fleet (the base algorithm
    /// assumes common switch probabilities).
    pub p_on: f64,
    /// Reciprocal spike duration.
    pub p_off: f64,
    /// PM capacity sampling range.
    pub pm_capacity: std::ops::Range<f64>,
}

impl Default for FleetOptions {
    fn default() -> Self {
        Self {
            p_on: defaults::P_ON,
            p_off: defaults::P_OFF,
            pm_capacity: defaults::PM_CAPACITY_RANGE,
        }
    }
}

/// Deterministic (seeded) generator of experiment fleets.
///
/// # Examples
/// ```
/// use bursty_workload::{FleetGenerator, WorkloadPattern};
///
/// let mut gen = FleetGenerator::new(42);
/// let vms = gen.vms(100, WorkloadPattern::LargeSpike);
/// let pms = gen.pms(100);
/// assert!(vms.iter().all(|v| v.r_b < v.r_e)); // large spikes
/// assert!(pms.iter().all(|p| (80.0..100.0).contains(&p.capacity)));
/// // Same seed, same fleet — every experiment is reproducible.
/// assert_eq!(FleetGenerator::new(42).vms(100, WorkloadPattern::LargeSpike), vms);
/// ```
#[derive(Debug)]
pub struct FleetGenerator {
    rng: StdRng,
    opts: FleetOptions,
}

impl FleetGenerator {
    /// Creates a generator with the paper-default options.
    pub fn new(seed: u64) -> Self {
        Self::with_options(seed, FleetOptions::default())
    }

    /// Creates a generator with explicit options.
    pub fn with_options(seed: u64, opts: FleetOptions) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
            opts,
        }
    }

    /// Samples `n` VMs with `R_b`/`R_e` drawn uniformly from the pattern's
    /// Fig.-5 ranges. Ids are `0..n`.
    pub fn vms(&mut self, n: usize, pattern: WorkloadPattern) -> Vec<VmSpec> {
        let rb = Uniform::from(pattern.r_b_range());
        let re = Uniform::from(pattern.r_e_range());
        (0..n)
            .map(|id| {
                VmSpec::new(
                    id,
                    self.opts.p_on,
                    self.opts.p_off,
                    rb.sample(&mut self.rng),
                    re.sample(&mut self.rng),
                )
            })
            .collect()
    }

    /// Samples `n` VMs whose `(R_b, R_e)` size classes are drawn uniformly
    /// from the Table-I rows of `pattern` (the §V-D setup).
    pub fn vms_table_i(&mut self, n: usize, pattern: WorkloadPattern) -> Vec<VmSpec> {
        let rows: Vec<&TableIRow> = TABLE_I.iter().filter(|r| r.pattern == pattern).collect();
        assert!(!rows.is_empty(), "no Table I rows for {pattern}");
        (0..n)
            .map(|id| {
                let row = rows[self.rng.gen_range(0..rows.len())];
                VmSpec::new(
                    id,
                    self.opts.p_on,
                    self.opts.p_off,
                    row.r_b.resource_units(),
                    row.r_e.resource_units(),
                )
            })
            .collect()
    }

    /// Samples `m` PMs with capacities from the configured range.
    /// Ids are `0..m`.
    pub fn pms(&mut self, m: usize) -> Vec<PmSpec> {
        let cap = Uniform::from(self.opts.pm_capacity.clone());
        (0..m)
            .map(|id| PmSpec::new(id, cap.sample(&mut self.rng)))
            .collect()
    }

    /// Samples a single VM of explicit size classes (used by online-arrival
    /// scenarios).
    pub fn vm_of_classes(&mut self, id: usize, r_b: SizeClass, r_e: SizeClass) -> VmSpec {
        VmSpec::new(
            id,
            self.opts.p_on,
            self.opts.p_off,
            r_b.resource_units(),
            r_e.resource_units(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_draws_stay_in_pattern_ranges() {
        let mut g = FleetGenerator::new(1);
        for pattern in WorkloadPattern::ALL {
            for v in g.vms(200, pattern) {
                assert!(pattern.r_b_range().contains(&v.r_b), "{pattern}: {v:?}");
                assert!(pattern.r_e_range().contains(&v.r_e), "{pattern}: {v:?}");
                assert_eq!(v.p_on, defaults::P_ON);
                assert_eq!(v.p_off, defaults::P_OFF);
            }
        }
    }

    #[test]
    fn small_spike_pattern_guarantees_inequality() {
        let mut g = FleetGenerator::new(2);
        for v in g.vms(500, WorkloadPattern::SmallSpike) {
            assert!(v.r_b > v.r_e);
        }
        for v in g.vms(500, WorkloadPattern::LargeSpike) {
            assert!(v.r_b < v.r_e);
        }
    }

    #[test]
    fn ids_are_sequential() {
        let mut g = FleetGenerator::new(3);
        let vms = g.vms(10, WorkloadPattern::EqualSpike);
        for (i, v) in vms.iter().enumerate() {
            assert_eq!(v.id, i);
        }
        let pms = g.pms(4);
        for (j, h) in pms.iter().enumerate() {
            assert_eq!(h.id, j);
        }
    }

    #[test]
    fn pm_capacities_in_default_range() {
        let mut g = FleetGenerator::new(4);
        for h in g.pms(100) {
            assert!((80.0..100.0).contains(&h.capacity));
        }
    }

    #[test]
    fn same_seed_same_fleet() {
        let a = FleetGenerator::new(7).vms(50, WorkloadPattern::LargeSpike);
        let b = FleetGenerator::new(7).vms(50, WorkloadPattern::LargeSpike);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seed_different_fleet() {
        let a = FleetGenerator::new(7).vms(50, WorkloadPattern::LargeSpike);
        let b = FleetGenerator::new(8).vms(50, WorkloadPattern::LargeSpike);
        assert_ne!(a, b);
    }

    #[test]
    fn table_i_vms_use_class_units() {
        let mut g = FleetGenerator::new(5);
        let vms = g.vms_table_i(300, WorkloadPattern::EqualSpike);
        for v in vms {
            // Equal pattern rows: (S,S), (M,M), (L,L).
            assert_eq!(v.r_b, v.r_e);
            assert!([5.0, 10.0, 20.0].contains(&v.r_b));
        }
    }

    #[test]
    fn table_i_vms_respect_pattern() {
        let mut g = FleetGenerator::new(6);
        for v in g.vms_table_i(300, WorkloadPattern::SmallSpike) {
            assert!(v.r_b > v.r_e);
        }
        for v in g.vms_table_i(300, WorkloadPattern::LargeSpike) {
            assert!(v.r_b < v.r_e);
        }
    }

    #[test]
    fn custom_options_are_respected() {
        let opts = FleetOptions {
            p_on: 0.2,
            p_off: 0.5,
            pm_capacity: 10.0..11.0,
        };
        let mut g = FleetGenerator::with_options(1, opts);
        let v = &g.vms(1, WorkloadPattern::EqualSpike)[0];
        assert_eq!(v.p_on, 0.2);
        assert_eq!(v.p_off, 0.5);
        assert!((10.0..11.0).contains(&g.pms(1)[0].capacity));
    }

    #[test]
    fn vm_of_classes_builds_expected_spec() {
        let mut g = FleetGenerator::new(9);
        let v = g.vm_of_classes(42, SizeClass::Small, SizeClass::Large);
        assert_eq!(v.id, 42);
        assert_eq!(v.r_b, 5.0);
        assert_eq!(v.r_e, 20.0);
    }
}
