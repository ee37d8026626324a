//! Cross-validation between independent implementations of the same
//! quantities — the strongest correctness evidence the workspace has:
//! two things built separately must agree or one is wrong.

use bursty_core::metrics::slo;
use bursty_core::placement::multidim::{first_fit_multidim, MultiDimPmSpec};
use bursty_core::placement::pm_cvr_exact;
use bursty_core::prelude::*;
use bursty_core::workload::multidim::{MultiDimVmSpec, ResourceVec};

#[test]
fn diurnal_fit_plan_simulate_stays_conservative() {
    // Model mismatch end to end: fit two-level models to diurnal+burst
    // traces, plan with QueuingFFD, then simulate the *actual* diurnal
    // workloads against the plan by replaying fresh samples.
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let chain = OnOffChain::new(0.01, 0.09);
    // A daily sinusoid under the bursts, which the two-level model lacks:
    // `base + 2.5·sin(2πt/2880) + 10·[ON]`, starting OFF at phase 0.
    let sample = |base: f64, len: usize, rng: &mut StdRng| -> Vec<f64> {
        let mut state = VmState::Off;
        let mut demands = Vec::with_capacity(len);
        for t in 0..len {
            let phase = 2.0 * std::f64::consts::PI * t as f64 / 2880.0;
            demands.push(base + 2.5 * phase.sin() + if state.is_on() { 10.0 } else { 0.0 });
            state = chain.step(state, rng);
        }
        demands
    };
    let bases: Vec<f64> = (0..24).map(|i| 10.0 + (i % 4) as f64).collect();
    let mut rng = StdRng::seed_from_u64(5);
    let fitted: Vec<VmSpec> = bases
        .iter()
        .enumerate()
        .map(|(id, &base)| {
            let trace = sample(base, 30_000, &mut rng);
            fit_trace(&trace).unwrap().to_spec(id, trace.len())
        })
        .collect();
    // The midpoint threshold puts part of the crest in the "ON" class, so
    // the fitted envelope covers crest + spike (12.5 + 10) up to slack,
    // and the fitted base stays inside the swing (packing stays feasible).
    let (r_b, r_e) = (fitted[0].r_b, fitted[0].r_e);
    assert!(r_b + r_e >= 0.8 * 22.5, "fitted envelope {}", r_b + r_e);
    assert!((7.5..=12.5).contains(&r_b), "fitted R_b {r_b}");
    let mut gen = FleetGenerator::new(6);
    let pms = gen.pms(48);
    let consolidator = Consolidator::new(Scheme::Queue);
    let placement = consolidator.place(&fitted, &pms).unwrap();

    // Replay the true diurnal processes against the placement and count
    // violations manually.
    let steps = 20_000usize;
    let per_pm = placement.per_pm();
    let traces: Vec<Vec<f64>> = bases
        .iter()
        .map(|&base| sample(base, steps, &mut rng))
        .collect();
    let mut violations = 0usize;
    let mut active = 0usize;
    #[allow(clippy::needless_range_loop)] // t indexes a column across rows
    for t in 0..steps {
        for (j, hosted) in per_pm.iter().enumerate() {
            if hosted.is_empty() {
                continue;
            }
            active += 1;
            let demand: f64 = hosted.iter().map(|&i| traces[i][t]).sum();
            if demand > pms[j].capacity + 1e-9 {
                violations += 1;
            }
        }
    }
    let cvr = violations as f64 / active as f64;
    assert!(
        cvr <= 0.01,
        "conservative fit must keep the true diurnal fleet within rho: {cvr}"
    );
}

/// The largest exact stationary CVR over every (PM, dimension) of a
/// two-dimensional assignment: each dimension of a PM is a scalar PM.
fn worst_dimension_cvr(vms: &[MultiDimVmSpec], capacity: [f64; 2], assignment: &[usize]) -> f64 {
    let mut worst = 0.0_f64;
    for j in 0..vms.len() {
        for (d, &cap) in capacity.iter().enumerate() {
            let hosted: Vec<VmSpec> = (vms.iter().zip(assignment))
                .filter(|&(_, &host)| host == j)
                .map(|(vm, _)| vm.dimension(d))
                .collect();
            worst = worst.max(pm_cvr_exact(&hosted, cap).unwrap());
        }
    }
    worst
}

#[test]
fn multidim_pack_honors_rho_on_every_dimension() {
    // §IV-E asks for the constraint "on all dimensions". Three fleets: a
    // mixed one, identical VMs, and CPU-heavy next to memory-heavy.
    let vm = |i, r_b: [f64; 2], r_e: [f64; 2]| {
        let (r_b, r_e) = (
            ResourceVec::new(r_b.to_vec()),
            ResourceVec::new(r_e.to_vec()),
        );
        MultiDimVmSpec::new(i, 0.01, 0.09, r_b, r_e)
    };
    let mixed = |i| vm(i, [8.0 + (i % 3) as f64, 5.0], [6.0, 4.0 + (i % 2) as f64]);
    let skewed = |i| match i % 2 {
        0 => vm(i, [20.0, 2.0], [20.0, 2.0]),
        _ => vm(i, [2.0, 20.0], [2.0, 20.0]),
    };
    let fleets: [(Vec<MultiDimVmSpec>, [f64; 2]); 3] = [
        ((0..30).map(mixed).collect(), [70.0, 45.0]),
        (
            (0..48).map(|i| vm(i, [10.0, 6.0], [10.0, 4.0])).collect(),
            [100.0, 60.0],
        ),
        ((0..24).map(skewed).collect(), [100.0, 100.0]),
    ];
    let strategy = QueueStrategy::build(16, 0.01, 0.09, 0.01);
    for (vms, capacity) in &fleets {
        let pms: Vec<MultiDimPmSpec> = (0..vms.len())
            .map(|id| MultiDimPmSpec {
                id,
                capacity: ResourceVec::new(capacity.to_vec()),
            })
            .collect();
        let placement = first_fit_multidim(vms, &pms, &strategy).unwrap();
        assert!(placement.pms_used() < vms.len(), "must consolidate");
        let worst = worst_dimension_cvr(vms, *capacity, &placement.assignment);
        assert!(worst <= 0.01, "capacity {capacity:?}: exact CVR {worst}");
    }
    // Negative control: eight to a PM fits the skewed fleet by its scalar
    // projection (88 of 100 on each side) and breaks the CPU dimension.
    let (vms, capacity) = &fleets[2];
    let by_projection: Vec<usize> = (0..24).map(|i| i / 8).collect();
    assert!(worst_dimension_cvr(vms, *capacity, &by_projection) > 0.1);
}

#[test]
fn multidim_holds_rho_when_a_third_of_the_fleet_is_hotter_than_the_floor() {
    // Every third VM switches at (0.03, 0.07), π = 0.3 against the floor
    // pair's 0.1. Priced at one pair, the packer let 2 of 6, 6 of 7 and
    // 40 of 69 PMs exceed ρ on some dimension; each dimension priced at
    // its hottest chain keeps every one within it.
    let vm = |i: usize, r_b: [f64; 2], r_e: [f64; 2]| {
        let (p_on, p_off) = if i.is_multiple_of(3) {
            (0.03, 0.07)
        } else {
            (0.01, 0.09)
        };
        let (r_b, r_e) = (
            ResourceVec::new(r_b.to_vec()),
            ResourceVec::new(r_e.to_vec()),
        );
        MultiDimVmSpec::new(i, p_on, p_off, r_b, r_e)
    };
    let mixed = |i| vm(i, [8.0 + (i % 3) as f64, 5.0], [6.0, 4.0 + (i % 2) as f64]);
    let large = |i| {
        let r_b = [4.0 + (i % 5) as f64, 3.0 + (i % 4) as f64];
        vm(i, r_b, [6.0 + (i % 7) as f64, 5.0 + (i % 3) as f64])
    };
    let fleets: [(Vec<MultiDimVmSpec>, [f64; 2]); 3] = [
        ((0..30).map(mixed).collect(), [70.0, 45.0]),
        (
            (0..48).map(|i| vm(i, [10.0, 6.0], [10.0, 4.0])).collect(),
            [100.0, 60.0],
        ),
        ((0..600).map(large).collect(), [90.0, 80.0]),
    ];
    let strategy = QueueStrategy::build(16, 0.01, 0.09, 0.01);
    for (vms, capacity) in &fleets {
        let pms: Vec<MultiDimPmSpec> = (0..vms.len())
            .map(|id| MultiDimPmSpec {
                id,
                capacity: ResourceVec::new(capacity.to_vec()),
            })
            .collect();
        let placement = first_fit_multidim(vms, &pms, &strategy).unwrap();
        assert!(placement.pms_used() < vms.len(), "must consolidate");
        let worst = worst_dimension_cvr(vms, *capacity, &placement.assignment);
        assert!(worst <= 0.01, "capacity {capacity:?}: exact CVR {worst}");
    }
}

#[test]
fn slo_language_matches_measured_cvr() {
    let mut gen = FleetGenerator::new(8);
    let vms = gen.vms(80, WorkloadPattern::EqualSpike);
    let pms = gen.pms(80);
    let cfg = SimConfig {
        steps: 20_000,
        seed: 9,
        migrations_enabled: false,
        ..Default::default()
    };
    let (_, out) = Consolidator::new(Scheme::Queue)
        .evaluate(&vms, &pms, cfg)
        .unwrap();
    let summary = slo::summarize(out.mean_cvr());
    // ρ = 1% ⇒ at least two nines; measured CVR is usually ~0.4%, i.e.
    // two-to-three nines and ≤ ~435 violation-min/month.
    assert!(summary.nines >= 2, "nines {}", summary.nines);
    assert!(summary.violation_mins_per_month <= slo::violation_secs_per_month(0.01) / 60.0);
    // Round trip through the budget parser.
    let budget = slo::cvr_budget_from_availability("99").unwrap();
    assert!(out.mean_cvr() <= budget);
}

#[test]
fn fig7_complexity_shape_holds_empirically() {
    // The table build is O(d²) — one O(k) closed-form stationary law per
    // k ≤ d (the paper's O(d⁴) is the Gaussian solve this repo keeps only
    // as an oracle) — so quadrupling d from 8 to 32 must grow its cost
    // more than linearly. Coarse wall-clock check with generous slack —
    // the Criterion benches carry the precise numbers. Each size is built
    // once untimed first: the first build in a process pays first-use
    // costs (allocator, caches) that would otherwise swamp t(8).
    use std::time::Instant;
    let time_build = |d: usize| {
        let _ = MappingTable::build(d, 0.01, 0.09, 0.01);
        let start = Instant::now();
        for _ in 0..3 {
            let _ = MappingTable::build(d, 0.01, 0.09, 0.01);
        }
        start.elapsed().as_secs_f64() / 3.0
    };
    let t8 = time_build(8);
    let t32 = time_build(32);
    assert!(
        t32 > 4.0 * t8,
        "d² scaling should show: t(8) = {t8:.2e}, t(32) = {t32:.2e}"
    );
}
