//! The data-driven pipeline: from raw monitoring traces to a consolidated,
//! SLA-guaranteed cluster.
//!
//! The paper assumes each VM's `(p_on, p_off, R_b, R_e)` is known. Here we
//! start one step earlier: "measured" demand traces (sampled, in reality,
//! from a monitor) are fitted to the ON-OFF model, burstiness is profiled,
//! and the fitted specs drive QueuingFFD twice: once floored at the
//! fleet-wide conservative pair `(max p_on, min p_off)` of the point
//! estimates, once with each VM at its own Wilson bounds (the pricing
//! `bursty plan` uses). The exact stationary law of every PM and a
//! simulation, both on the *true* (generating) workloads, confirm the
//! CVR bound holds for both plans.
//!
//! ```text
//! cargo run --example trace_fitting --release
//! ```

use bursty_core::placement::certify_exact;
use bursty_core::placement::rounding::{round_with_policy, RoundingPolicy};
use bursty_core::prelude::*;
use bursty_core::workload::analysis;
use bursty_core::workload::trace::DemandTrace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    // --- Step 0: the "truth" — heterogeneous VMs we pretend not to know.
    let mut rng = StdRng::seed_from_u64(60);
    let truth: Vec<VmSpec> = (0..60)
        .map(|id| {
            VmSpec::new(
                id,
                rng.gen_range(0.008..0.02),
                rng.gen_range(0.06..0.15),
                rng.gen_range(4.0..16.0),
                rng.gen_range(4.0..16.0),
            )
        })
        .collect();

    // --- Step 1: "monitoring" — sample a demand trace per VM.
    let traces: Vec<Vec<f64>> = truth
        .iter()
        .map(|vm| DemandTrace::sample(*vm, 20_000, &mut rng).demands())
        .collect();

    // --- Step 2: profile and fit.
    let sample_profile = analysis::profile(&traces[0]).unwrap();
    println!(
        "trace 0 burstiness: lag-1 autocorrelation {:.3}, IDC(16) {:.1}, \
         mean spike length {:.1} periods",
        sample_profile.acf1, sample_profile.idc16, sample_profile.runs.mean_length
    );

    // Point estimates, and each VM at its two-sided 0.99 Wilson bounds
    // (one-sided alpha = 0.005 per switch probability).
    let mut fitted = Vec::new();
    let mut bounded = Vec::new();
    for (id, trace) in traces.iter().enumerate() {
        let model = fit_trace(trace).expect("bursty traces are fittable");
        fitted.push(model.to_spec(id, trace.len()));
        bounded.push(model.to_bounded_spec(id, trace.len(), 0.99));
    }
    let fit_err: f64 = fitted
        .iter()
        .zip(&truth)
        .map(|(f, t)| ((f.p_on - t.p_on) / t.p_on).abs())
        .sum::<f64>()
        / truth.len() as f64;
    println!(
        "fitted {} VMs; mean relative p_on error {:.1}%",
        fitted.len(),
        fit_err * 100.0
    );

    // --- Step 3: two plans on one pool. The conservative pair floors
    // every PM; the bounded specs are floored at their coldest member's
    // own pair, which never binds, so each PM is priced at its hottest
    // chain.
    let (p_on, p_off) =
        round_with_policy(&fitted, RoundingPolicy::Conservative).expect("60 fitted VMs");
    let coldest = bounded
        .iter()
        .min_by(|a, b| {
            a.chain()
                .stationary_on()
                .total_cmp(&b.chain().stationary_on())
        })
        .expect("60 bounded VMs");
    let plans = [
        (
            format!("conservative pair ({p_on:.3}, {p_off:.3})"),
            &fitted,
            Consolidator::new(Scheme::Queue).with_probabilities(p_on, p_off),
        ),
        (
            "per-VM Wilson bounds".to_string(),
            &bounded,
            Consolidator::new(Scheme::Queue).with_probabilities(coldest.p_on, coldest.p_off),
        ),
    ];
    let mut gen = FleetGenerator::new(61);
    let pms = gen.pms(120);
    for (label, specs, consolidator) in plans {
        let placement = consolidator.place(specs, &pms).expect("pool suffices");

        // --- Step 4: certify against the TRUE workloads, exactly and by
        // simulation.
        let worst = certify_exact(&truth, &pms, &placement)
            .iter()
            .map(|&(_, cvr)| cvr.expect("a few VMs per PM are enumerable"))
            .fold(0.0, f64::max);
        let policy = consolidator.policy();
        let cfg = SimConfig {
            steps: 20_000,
            seed: 62,
            migrations_enabled: false,
            ..SimConfig::default()
        };
        let out = Simulator::new(&truth, &pms, policy.as_ref(), cfg).run(&placement);
        println!(
            "{label}: {} PMs; on the generating workloads the worst exact \
             stationary CVR is {worst:.5} and the simulated mean CVR {:.4} \
             (bound rho = 0.01)",
            placement.pms_used(),
            out.mean_cvr()
        );
        assert!(worst <= 0.01, "{label}: the pipeline's guarantee must hold");
        assert!(out.mean_cvr() <= 0.01, "{label}: simulated CVR over rho");
    }
}
