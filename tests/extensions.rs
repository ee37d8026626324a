//! Integration tests for the extension subsystems working together:
//! trace fitting → fit-error bounds → consolidation, SBP comparison, exact-optimum
//! validation, churn to steady state, and the loss-system metrics.

use bursty_core::placement::certify_exact;
use bursty_core::placement::exact::{optimal_packing, ExactResult};
use bursty_core::placement::rounding::{round_with_policy, RoundingPolicy};
use bursty_core::placement::sbp::{pack_sbp, pms_used as sbp_pms_used};
use bursty_core::prelude::*;
use bursty_core::workload::trace::DemandTrace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The two-sided Wilson level `bursty plan` bounds every fitted switch
/// probability at (one-sided alpha = 0.005 per probability).
const FIT_CONFIDENCE: f64 = 0.99;

/// QUEUE floored at the coldest spec's own pair: no PM's hottest chain is
/// colder, so every PM is priced at the hottest chain it hosts.
fn priced_per_pm(specs: &[VmSpec]) -> Consolidator {
    let coldest = specs
        .iter()
        .min_by(|a, b| {
            let (a, b) = (a.chain().stationary_on(), b.chain().stationary_on());
            a.total_cmp(&b)
        })
        .unwrap();
    Consolidator::new(Scheme::Queue).with_probabilities(coldest.p_on, coldest.p_off)
}

#[test]
fn fit_round_place_simulate_pipeline_holds_the_bound() {
    // End-to-end data-driven pipeline against the true workloads: each
    // VM priced at its own fit-error bounds, as `bursty plan` does.
    let mut rng = StdRng::seed_from_u64(1);
    let truth: Vec<VmSpec> = (0..40)
        .map(|id| {
            VmSpec::new(
                id,
                rng.gen_range(0.008..0.015),
                rng.gen_range(0.07..0.12),
                rng.gen_range(4.0..16.0),
                rng.gen_range(4.0..16.0),
            )
        })
        .collect();
    let fitted: Vec<VmSpec> = truth
        .iter()
        .map(|vm| {
            let demands = DemandTrace::sample(*vm, 30_000, &mut rng).demands();
            fit_trace(&demands)
                .unwrap()
                .to_bounded_spec(vm.id, demands.len(), FIT_CONFIDENCE)
        })
        .collect();
    let consolidator = priced_per_pm(&fitted);
    let mut gen = FleetGenerator::new(2);
    let pms = gen.pms(80);
    let placement = consolidator.place(&fitted, &pms).unwrap();

    let policy = consolidator.policy();
    let cfg = SimConfig {
        steps: 20_000,
        seed: 3,
        migrations_enabled: false,
        ..Default::default()
    };
    let out = Simulator::new(&truth, &pms, policy.as_ref(), cfg).run(&placement);
    assert!(
        out.mean_cvr() <= 0.011,
        "pipeline mean CVR {}",
        out.mean_cvr()
    );
}

#[test]
fn bounded_fits_hold_rho_on_the_true_specs_of_plan_traces_fleets() {
    // `plan_traces`-shaped fleets (the system benchmark's generator
    // ranges and 2 500-sample traces, fewer VMs) at seeds 1-10. Priced
    // at each VM's Wilson bounds, every PM's exact stationary CVR under
    // the *true* specs stays within rho. The point estimates, priced the
    // same way, are the negative control: their fit error must push some
    // PM over rho, or this test could not see a break. The conservative
    // pair is printed for comparison (`--nocapture`).
    const RHO: f64 = 0.01;
    const TRACE_LEN: usize = 2_500;
    let over = |truth: &[VmSpec], pms: &[PmSpec], placement: &Placement| {
        let cvrs: Vec<f64> = certify_exact(truth, pms, placement)
            .iter()
            .map(|&(_, cvr)| cvr.expect("enumerable"))
            .collect();
        let n_over = cvrs.iter().filter(|&&c| c > RHO).count();
        (n_over, cvrs.into_iter().fold(0.0, f64::max))
    };
    let mut point_broke = false;
    println!("seed: PMs, over rho, worst true CVR of the conservative | bounded | point plan");
    for seed in 1..=10u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let truth: Vec<VmSpec> = (0..1_000)
            .map(|id| {
                VmSpec::new(
                    id,
                    rng.gen_range(0.008..0.02),
                    rng.gen_range(0.06..0.15),
                    rng.gen_range(2.0..20.0),
                    rng.gen_range(2.0..20.0),
                )
            })
            .collect();
        let fits: Vec<FittedModel> = truth
            .iter()
            .map(|vm| fit_trace(&DemandTrace::sample(*vm, TRACE_LEN, &mut rng).demands()).unwrap())
            .collect();
        let point: Vec<VmSpec> = fits
            .iter()
            .enumerate()
            .map(|(id, fit)| fit.to_spec(id, TRACE_LEN))
            .collect();
        let bounded: Vec<VmSpec> = fits
            .iter()
            .enumerate()
            .map(|(id, fit)| fit.to_bounded_spec(id, TRACE_LEN, FIT_CONFIDENCE))
            .collect();
        let pms = FleetGenerator::new(seed).pms(truth.len());
        let plan = |specs: &[VmSpec], consolidator: Consolidator| {
            consolidator.with_rho(RHO).place(specs, &pms).unwrap()
        };

        let b = plan(&bounded, priced_per_pm(&bounded));
        let (b_over, b_worst) = over(&truth, &pms, &b);
        let p = plan(&point, priced_per_pm(&point));
        let (p_over, p_worst) = over(&truth, &pms, &p);
        let (p_on, p_off) = round_with_policy(&point, RoundingPolicy::Conservative).unwrap();
        let conservative = Consolidator::new(Scheme::Queue).with_probabilities(p_on, p_off);
        let c = plan(&point, conservative);
        let (c_over, c_worst) = over(&truth, &pms, &c);
        println!(
            "{seed}: {}, {c_over}, {c_worst:.2e} | {}, {b_over}, {b_worst:.2e} | {}, {p_over}, {p_worst:.2e}",
            c.pms_used(),
            b.pms_used(),
            p.pms_used()
        );
        assert_eq!(
            b_over, 0,
            "seed {seed}: bounded plan breaks rho (worst {b_worst})"
        );
        point_broke |= p_over > 0;
    }
    assert!(
        point_broke,
        "the point-estimate plan held rho on every seed: the test sees no break"
    );
}

#[test]
fn sbp_packs_comparably_but_violates_more() {
    let mut gen = FleetGenerator::new(4);
    let vms = gen.vms(120, WorkloadPattern::EqualSpike);
    let pms = gen.pms(120);
    let caps: Vec<f64> = pms.iter().map(|p| p.capacity).collect();

    let queue = Consolidator::new(Scheme::Queue);
    let q_placement = queue.place(&vms, &pms).unwrap();
    let sbp_assignment = pack_sbp(&vms, &caps, 0.01).unwrap();
    let sbp_count = sbp_pms_used(&sbp_assignment, pms.len());

    // PM counts in the same ballpark (within 20%).
    let q_count = q_placement.pms_used();
    assert!(
        (sbp_count as f64 - q_count as f64).abs() / q_count as f64 <= 0.2,
        "QUEUE {q_count} vs SBP {sbp_count}"
    );

    // Simulated CVR: SBP overruns its budget, QUEUE does not.
    let cfg = SimConfig {
        steps: 8_000,
        seed: 5,
        migrations_enabled: false,
        ..Default::default()
    };
    let q_out = queue.simulate(&vms, &pms, &q_placement, cfg);
    let sbp_placement = Placement {
        assignment: sbp_assignment.iter().map(|&j| Some(j)).collect(),
        n_pms: pms.len(),
    };
    let policy = ObservedPolicy::rb();
    let sbp_out = Simulator::new(&vms, &pms, &policy, cfg).run(&sbp_placement);
    assert!(q_out.mean_cvr() <= 0.011, "QUEUE CVR {}", q_out.mean_cvr());
    assert!(
        sbp_out.mean_cvr() > 1.5 * q_out.mean_cvr(),
        "SBP {} vs QUEUE {}",
        sbp_out.mean_cvr(),
        q_out.mean_cvr()
    );
}

#[test]
fn queueing_ffd_is_near_optimal_on_small_instances() {
    let strategy = QueueStrategy::build(16, 0.01, 0.09, 0.01);
    for seed in 0..6u64 {
        let mut gen = FleetGenerator::new(600 + seed);
        let vms = gen.vms(12, WorkloadPattern::EqualSpike);
        let pms: Vec<PmSpec> = (0..12).map(|j| PmSpec::new(j, 90.0)).collect();
        let ffd = first_fit(&vms, &pms, &strategy).unwrap().pms_used();
        match optimal_packing(&vms, 90.0, &strategy, 2_000_000) {
            ExactResult::Optimal(opt) => {
                assert!(ffd >= opt, "seed {seed}: FFD {ffd} below optimum {opt}??");
                assert!(
                    ffd as f64 <= 1.34 * opt as f64,
                    "seed {seed}: FFD {ffd} vs OPT {opt}"
                );
            }
            other => panic!("seed {seed}: exact search did not finish: {other:?}"),
        }
    }
}

#[test]
fn churned_cluster_holds_a_six_pm_band_and_the_cvr_bound() {
    let mut gen = FleetGenerator::new(7);
    let pms = gen.pms(300);
    let policy = QueuePolicy::new(QueueStrategy::build(16, 0.01, 0.09, 0.01));
    let out = run_churn(
        &pms,
        &policy,
        SimConfig {
            steps: 1_200,
            seed: 8,
            ..Default::default()
        },
    );
    // Population ramps then holds; the PMs-used series must stabilize to
    // a ±3 band once arrivals ≈ departures (after ~5 mean lifetimes).
    let tail = out.pms_used_series.values[500..].iter();
    let (lo, hi) = tail.fold((f64::MAX, f64::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)));
    assert!(hi - lo <= 6.0, "steady-state PMs used swing {lo}..{hi}");
    assert!(out.fleet_cvr() <= 0.012, "fleet CVR {}", out.fleet_cvr());
}

#[test]
fn block_metrics_are_consistent_with_mapcal() {
    // For every k, the metrics at the MapCal reservation must show
    // CVR ≤ ρ and nonzero utilization; the loss view is a coherent
    // companion to the time view.
    for k in [2usize, 6, 12, 20] {
        let chain = AggregateChain::new(k, 0.01, 0.09);
        let blocks = chain.blocks_needed(0.01);
        let metrics = block_system_metrics(&chain, blocks);
        assert!(metrics.cvr <= 0.01 + 1e-9, "k={k}");
        assert!(metrics.utilization > 0.0 && metrics.utilization <= 1.0);
        assert!(metrics.carried_load <= metrics.offered_load + 1e-12);
    }
}
