//! Property-based fuzzing of the simulation engine: random fleets,
//! placements and configurations must never violate structural invariants,
//! whatever the workload does.

use bursty_core::prelude::*;
use proptest::prelude::{prop_assert, prop_assert_eq, proptest, ProptestConfig};
use proptest::strategy::{Just, Strategy as PropStrategy};

#[derive(Debug, Clone)]
struct Instance {
    vms: Vec<VmSpec>,
    pms: Vec<PmSpec>,
    placement: Placement,
    seed: u64,
    steps: usize,
}

fn instance() -> impl PropStrategy<Value = Instance> {
    (2usize..30, 1usize..200, 1usize..60)
        .prop_flat_map(|(n, seed, steps)| {
            (
                proptest::collection::vec(
                    (1.0f64..20.0, 0.0f64..20.0, 0.005f64..0.5, 0.01f64..0.9),
                    n,
                ),
                proptest::collection::vec(0usize..n, n), // host per VM (≤ n PMs)
                Just(seed as u64),
                Just(steps),
            )
        })
        .prop_map(|(raw, hosts, seed, steps)| {
            let vms: Vec<VmSpec> = raw
                .into_iter()
                .enumerate()
                .map(|(i, (rb, re, p_on, p_off))| VmSpec::new(i, p_on, p_off, rb, re))
                .collect();
            let n = vms.len();
            // Deliberately arbitrary (often overloaded) placements over a
            // pool of n small-to-medium PMs: the engine must stay sound
            // even when the packing is nonsense.
            let pms: Vec<PmSpec> = (0..n)
                .map(|j| PmSpec::new(j, 20.0 + (j % 7) as f64 * 15.0))
                .collect();
            let placement = Placement {
                assignment: hosts.into_iter().map(Some).collect(),
                n_pms: n,
            };
            Instance {
                vms,
                pms,
                placement,
                seed,
                steps,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn stepped_engine_invariants(inst in instance()) {
        let policy = ObservedPolicy::rb();
        let cfg = SimConfig {
            steps: inst.steps,
            seed: inst.seed,
            migrations_enabled: true,
            ..Default::default()
        };
        let out = Simulator::new(&inst.vms, &inst.pms, &policy, cfg).run(&inst.placement);

        // CVRs are proportions.
        for &(pm, cvr) in &out.cvr_per_pm {
            prop_assert!(pm < inst.pms.len());
            prop_assert!((0.0..=1.0).contains(&cvr), "PM {pm} CVR {cvr}");
        }
        // Series length matches the horizon; PM counts stay within pool.
        prop_assert_eq!(out.pms_used_series.len(), inst.steps);
        for &v in &out.pms_used_series.values {
            prop_assert!(v >= 0.0 && v <= inst.pms.len() as f64);
        }
        prop_assert!(out.final_pms_used <= out.peak_pms_used);
        prop_assert!(out.peak_pms_used <= inst.pms.len());
        // Migration events reference real PMs and steps, never self-moves.
        for e in &out.migrations {
            prop_assert!(e.step < inst.steps);
            prop_assert!(e.from_pm < inst.pms.len());
            prop_assert!(e.to_pm < inst.pms.len());
            prop_assert!(e.from_pm != e.to_pm);
        }
        // Energy is nonnegative and bounded by everything-on-at-peak.
        let max_energy = inst.pms.len() as f64 * 250.0 * 30.0 * inst.steps as f64;
        prop_assert!(out.energy_joules >= 0.0 && out.energy_joules <= max_energy);
    }

    #[test]
    fn engines_are_individually_deterministic(inst in instance()) {
        let policy = ObservedPolicy::rb();
        let cfg = SimConfig {
            steps: inst.steps,
            seed: inst.seed,
            ..Default::default()
        };
        let a = Simulator::new(&inst.vms, &inst.pms, &policy, cfg).run(&inst.placement);
        let b = Simulator::new(&inst.vms, &inst.pms, &policy, cfg).run(&inst.placement);
        prop_assert_eq!(a.migrations, b.migrations);
        prop_assert_eq!(a.total_violation_steps, b.total_violation_steps);
        prop_assert_eq!(a.pms_used_series.values, b.pms_used_series.values);
    }

    #[test]
    fn migration_conserves_vms(inst in instance()) {
        // Replay the migration log against the initial placement: every
        // VM must end somewhere, exactly once, and moves must chain.
        let policy = ObservedPolicy::rb();
        let cfg = SimConfig {
            steps: inst.steps,
            seed: inst.seed,
            ..Default::default()
        };
        let out = Simulator::new(&inst.vms, &inst.pms, &policy, cfg).run(&inst.placement);
        let mut host: Vec<usize> = inst
            .placement
            .assignment
            .iter()
            .map(|a| a.unwrap())
            .collect();
        for e in &out.migrations {
            // Id equals index in these fleets.
            prop_assert_eq!(host[e.vm_id], e.from_pm, "move chain broken for VM {}", e.vm_id);
            host[e.vm_id] = e.to_pm;
        }
        prop_assert_eq!(host.len(), inst.vms.len());
    }
}
