//! Cross-validation between independent implementations of the same
//! quantities — the strongest correctness evidence the workspace has:
//! two things built separately must agree or one is wrong.

use bursty_core::metrics::slo;
use bursty_core::placement::multidim::{first_fit_multidim, MultiDimPmSpec};
use bursty_core::prelude::*;
use bursty_core::sim::multidim::simulate_multidim;
use bursty_core::workload::diurnal::DiurnalSpec;
use bursty_core::workload::multidim::{MultiDimVmSpec, ResourceVec};

#[test]
fn diurnal_fit_plan_simulate_stays_conservative() {
    // Model mismatch end to end: fit two-level models to diurnal+burst
    // traces, plan with QueuingFFD, then simulate the *actual* diurnal
    // workloads against the plan by replaying fresh samples.
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let chain = OnOffChain::new(0.01, 0.09);
    let specs: Vec<DiurnalSpec> = (0..24)
        .map(|i| DiurnalSpec::new(10.0 + (i % 4) as f64, 2.5, 2880.0, 10.0, chain))
        .collect();
    let mut rng = StdRng::seed_from_u64(5);
    let fitted: Vec<VmSpec> = specs
        .iter()
        .enumerate()
        .map(|(id, s)| {
            let trace = s.sample(30_000, &mut rng);
            fit_trace(&trace).unwrap().to_spec(id, trace.len())
        })
        .collect();
    let mut gen = FleetGenerator::new(6);
    let pms = gen.pms(48);
    let consolidator = Consolidator::new(Scheme::Queue);
    let placement = consolidator.place(&fitted, &pms).unwrap();

    // Replay the true diurnal processes against the placement and count
    // violations manually.
    let steps = 20_000usize;
    let per_pm = placement.per_pm();
    let traces: Vec<Vec<f64>> = specs.iter().map(|s| s.sample(steps, &mut rng)).collect();
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

#[test]
fn multidim_pack_and_simulate_close_the_loop() {
    let vms: Vec<MultiDimVmSpec> = (0..30)
        .map(|i| {
            MultiDimVmSpec::new(
                i,
                0.01,
                0.09,
                ResourceVec::new(vec![8.0 + (i % 3) as f64, 5.0]),
                ResourceVec::new(vec![6.0, 4.0 + (i % 2) as f64]),
            )
        })
        .collect();
    let pms: Vec<MultiDimPmSpec> = (0..30)
        .map(|id| MultiDimPmSpec {
            id,
            capacity: ResourceVec::new(vec![70.0, 45.0]),
        })
        .collect();
    let mapping = MappingTable::build(16, 0.01, 0.09, 0.01);
    let placement = first_fit_multidim(&vms, &pms, &mapping).unwrap();
    assert!(placement.pms_used() < 30, "must consolidate");
    let out = simulate_multidim(&vms, &pms, &placement, 20_000, 7);
    assert!(out.mean_cvr() <= 0.012, "multidim CVR {}", out.mean_cvr());
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
    // the Criterion benches carry the precise numbers.
    use std::time::Instant;
    let time_build = |d: usize| {
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
