//! Online (§IV-E) vs offline (Algorithm 2) consolidation equivalences and
//! churn-stress checks.

use bursty_core::placement::clustering::default_buckets;
use bursty_core::placement::online::OnlineCluster;
use bursty_core::placement::pm_cvr_exact;
use bursty_core::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn pms(m: usize, cap: f64) -> Vec<PmSpec> {
    (0..m).map(|j| PmSpec::new(j, cap)).collect()
}

/// The largest exact stationary CVR over the PMs hosting `live`.
fn worst_exact_cvr(online: &OnlineCluster, live: &[VmSpec], farm: &[PmSpec]) -> f64 {
    let mut hosted: Vec<Vec<VmSpec>> = vec![Vec::new(); farm.len()];
    for vm in live {
        hosted[online.host_of(vm.id).expect("live VM is hosted")].push(*vm);
    }
    hosted
        .iter()
        .zip(farm)
        .filter(|(vms, _)| !vms.is_empty())
        .map(|(vms, pm)| pm_cvr_exact(vms, pm.capacity).expect("at most 2^20 spike sums"))
        .fold(0.0, f64::max)
}

#[test]
fn batch_from_empty_equals_offline_algorithm_2() {
    let mut gen = FleetGenerator::new(500);
    let vms = gen.vms(90, WorkloadPattern::EqualSpike);
    let farm = pms(90, 95.0);

    let mut online = OnlineCluster::new(farm.clone(), 16, 0.01, 0.09, 0.01);
    online.arrive_batch(vms.clone()).unwrap();

    let strategy =
        QueueStrategy::build(16, 0.01, 0.09, 0.01).with_buckets(default_buckets(vms.len()));
    let offline = first_fit(&vms, &farm, &strategy).unwrap();

    assert_eq!(online.pms_used(), offline.pms_used());
    for (i, vm) in vms.iter().enumerate() {
        assert_eq!(online.host_of(vm.id), offline.assignment[i], "VM {}", vm.id);
    }
}

#[test]
fn sequential_arrivals_match_first_fit_without_sorting() {
    // One-at-a-time arrivals are First Fit in arrival order (no FFD
    // benefit) — still feasible everywhere, possibly more PMs.
    let mut gen = FleetGenerator::new(501);
    let vms = gen.vms(60, WorkloadPattern::SmallSpike);
    let farm = pms(120, 95.0);
    let mut online = OnlineCluster::new(farm.clone(), 16, 0.01, 0.09, 0.01);
    for vm in &vms {
        online.arrive(*vm).unwrap();
    }
    online.check_consistency().unwrap();
    assert!(worst_exact_cvr(&online, &vms, &farm) <= 0.01 + 1e-9);
    assert_eq!(online.n_vms(), 60);
}

#[test]
fn churn_preserves_feasibility_invariants() {
    let farm = pms(150, 90.0);
    let mut online = OnlineCluster::new(farm.clone(), 16, 0.01, 0.09, 0.01);
    let mut rng = StdRng::seed_from_u64(99);
    let mut live: Vec<VmSpec> = Vec::new();
    let mut next_id = 0usize;
    for round in 0..400 {
        if rng.gen_bool(0.55) || live.is_empty() {
            let vm = VmSpec::new(
                next_id,
                0.01,
                0.09,
                rng.gen_range(2.0..20.0),
                rng.gen_range(2.0..20.0),
            );
            next_id += 1;
            if online.arrive(vm).is_ok() {
                live.push(vm);
            }
        } else {
            let idx = rng.gen_range(0..live.len());
            let id = live.swap_remove(idx).id;
            assert!(online.depart(id).is_some());
        }
        if round % 50 == 0 {
            online.check_consistency().unwrap();
            let worst = worst_exact_cvr(&online, &live, &farm);
            assert!(
                worst <= 0.01 + 1e-9,
                "round {round}: every admission respected Eq. 17, yet a PM is at {worst}"
            );
        }
    }
    assert_eq!(online.n_vms(), live.len());
}

#[test]
fn online_cluster_survives_full_drain() {
    let farm = pms(20, 90.0);
    let mut online = OnlineCluster::new(farm, 16, 0.01, 0.09, 0.01);
    let mut gen = FleetGenerator::new(502);
    let vms = gen.vms(30, WorkloadPattern::EqualSpike);
    for vm in &vms {
        online.arrive(*vm).unwrap();
    }
    for vm in &vms {
        online.depart(vm.id);
    }
    assert_eq!(online.n_vms(), 0);
    assert_eq!(online.pms_used(), 0);
    online.check_consistency().unwrap();
    // The drained cluster accepts fresh arrivals again.
    online
        .arrive(VmSpec::new(999, 0.01, 0.09, 5.0, 5.0))
        .unwrap();
    assert_eq!(online.pms_used(), 1);
}

#[test]
fn online_placement_behaves_under_simulation() {
    // Hosts chosen online keep CVR near ρ when simulated — the online path
    // yields placements just as sound as the offline one.
    let mut gen = FleetGenerator::new(503);
    let vms = gen.vms(60, WorkloadPattern::EqualSpike);
    let farm = pms(120, 95.0);
    let mut online = OnlineCluster::new(farm.clone(), 16, 0.01, 0.09, 0.01);
    for vm in &vms {
        online.arrive(*vm).unwrap();
    }
    let assignment: Vec<Option<usize>> = vms.iter().map(|vm| online.host_of(vm.id)).collect();
    let placement = Placement {
        assignment,
        n_pms: farm.len(),
    };
    assert!(placement.is_complete());

    let policy = QueuePolicy::new(QueueStrategy::build(16, 0.01, 0.09, 0.01));
    let cfg = SimConfig {
        steps: 30_000,
        seed: 1,
        migrations_enabled: false,
        ..Default::default()
    };
    let out = Simulator::new(&vms, &farm, &policy, cfg).run(&placement);
    assert!(out.mean_cvr() <= 0.012, "mean CVR {}", out.mean_cvr());
}
