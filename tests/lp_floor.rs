//! QUEUE's pack of a Table-I fleet held to the configuration LP's floor.
//!
//! A PM's *configuration* is the count of each VM class it hosts
//! (Stolyar, arXiv:1205.4271; Stolyar & Zhong, arXiv:1212.0875). The LP
//! over configurations lower-bounds the PMs any packing uses, and its dual
//! is a certificate that needs no solver to check: if every configuration
//! `c` a PM of capacity `C` admits has `c·y − z(C) ≤ 1`, with `y, z ≥ 0`,
//! then a packing of `n` VMs uses at least `Σᵢ nᵢyᵢ − Σⱼ z(Cⱼ)` PMs, at
//! any fleet size. The dual below is the one solved for seed 1's fleet;
//! this test rechecks it against every configuration of at most `d` VMs
//! on every PM of each pool, then holds `Consolidator::place` to the
//! bound it proves.

use bursty_core::prelude::*;

/// The co-location cap: QUEUE's need is infinite past it.
const D: usize = 16;

/// `y` for the 5-, 10- and 20-unit classes.
const Y: [f64; 3] = [1.0 / 12.0, 1.0 / 5.0, 1.0 / 2.0];

/// `z` for the PMs of capacity at least 80, 85, 90 and 95: each PM is
/// charged the entry of the largest threshold at or below its capacity.
const Z: [(f64, f64); 4] = [
    (80.0, 0.0),
    (85.0, 1.0 / 12.0),
    (90.0, 1.0 / 5.0),
    (95.0, 17.0 / 60.0),
];

fn z(capacity: f64) -> f64 {
    Z.iter()
        .rev()
        .find(|&&(at, _)| capacity >= at)
        .map(|&(_, z)| z)
        .expect("Table-I pools hold PMs of capacity 80 and up")
}

/// Every class-count vector of at most `D` VMs over three classes, with
/// QUEUE's need of the load it folds to.
fn configurations(reps: &[VmSpec; 3], strategy: &dyn Strategy) -> Vec<([usize; 3], f64)> {
    let mut out = Vec::new();
    for a in 0..=D {
        for b in 0..=D - a {
            for c in 0..=D - a - b {
                let mut load = PmLoad::empty();
                for (vm, &k) in reps.iter().zip(&[a, b, c]) {
                    for _ in 0..k {
                        load.add(vm);
                    }
                }
                out.push(([a, b, c], strategy.need(&load)));
            }
        }
    }
    out
}

/// The fleet's three classes, smallest first.
fn classes(vms: &[VmSpec]) -> [VmSpec; 3] {
    let mut reps: Vec<VmSpec> = Vec::new();
    for vm in vms {
        if !reps.iter().any(|r| (r.r_b, r.r_e) == (vm.r_b, vm.r_e)) {
            reps.push(*vm);
        }
    }
    reps.sort_by(|a, b| a.r_b.total_cmp(&b.r_b));
    let sizes: Vec<(f64, f64)> = reps.iter().map(|r| (r.r_b, r.r_e)).collect();
    assert_eq!(sizes, [(5.0, 5.0), (10.0, 10.0), (20.0, 20.0)]);
    [reps[0], reps[1], reps[2]]
}

#[test]
fn queue_packs_table_i_within_one_pm_of_the_configuration_lp_floor() {
    let consolidator = Consolidator::new(Scheme::Queue);
    let strategy = consolidator.strategy();
    for seed in 1..=3 {
        let mut gen = FleetGenerator::new(seed);
        let vms = gen.vms_table_i(10_000, WorkloadPattern::EqualSpike);
        let pms = gen.pms(2_500);
        let reps = classes(&vms);
        let configs = configurations(&reps, strategy.as_ref());
        assert_eq!(configs.len(), 969);

        // The certificate: no admitted configuration earns more than one.
        for pm in &pms {
            let budget = strategy.budget(pm.capacity);
            for &(c, need) in &configs {
                if need <= budget {
                    let earned: f64 = c.iter().zip(&Y).map(|(&k, y)| k as f64 * y).sum();
                    assert!(
                        earned - z(pm.capacity) <= 1.0 + 1e-9,
                        "seed {seed}: {c:?} earns {earned} on PM {} of capacity {}",
                        pm.id,
                        pm.capacity
                    );
                }
            }
        }

        let mut n = [0usize; 3];
        for vm in &vms {
            n[reps.iter().position(|r| r.r_b == vm.r_b).unwrap()] += 1;
        }
        let bound = n.iter().zip(&Y).map(|(&k, y)| k as f64 * y).sum::<f64>()
            - pms.iter().map(|pm| z(pm.capacity)).sum::<f64>();
        let floor = (bound - 1e-9).ceil() as usize;
        let used = consolidator.place(&vms, &pms).unwrap().pms_used();
        assert!(
            floor <= used && used <= floor + 1,
            "seed {seed}: {used} PMs used against the LP floor {floor}"
        );
    }
}
