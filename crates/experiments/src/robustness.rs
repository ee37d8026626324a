//! Robustness analysis (extension): how much parameter estimation error
//! the MapCal reservation tolerates, and what simulation length certifies
//! the CVR bound statistically.

use crate::common::{banner, Ctx, CtxError};
use bursty_core::markov::robustness::{survives_relative_error, tolerance_envelope};
use bursty_core::metrics::csv::CsvWriter;
use bursty_core::metrics::inference::{certify_bound, samples_to_certify, BoundVerdict};
use bursty_core::metrics::Table;
use bursty_core::prelude::*;

pub fn run(ctx: &Ctx) -> Result<(), CtxError> {
    banner(
        "Robustness & certification (extension)",
        "Left: the (p_on, p_off) envelope within which the planned\n\
         reservation still meets rho = 1%. Right: certifying the bound\n\
         from finite simulation, with the burst-autocorrelation discount.",
    );

    // --- Tolerance envelopes --------------------------------------------
    let mut table = Table::new(&[
        "k",
        "blocks",
        "max p_on (plan 0.01)",
        "min p_off (plan 0.09)",
        "p_on headroom",
        "survives 10% error",
    ]);
    let mut csv = CsvWriter::new();
    csv.record(&[
        "k",
        "blocks",
        "max_p_on",
        "min_p_off",
        "p_on_headroom",
        "survives_10pct",
    ]);
    for k in [4usize, 8, 16, 32] {
        let chain = AggregateChain::new(k, 0.01, 0.09);
        let blocks = chain.blocks_needed(0.01);
        let env = tolerance_envelope(k, blocks, 0.01, 0.09, 0.01);
        let survives = survives_relative_error(k, blocks, 0.01, 0.09, 0.01, 0.10);
        table.row(&[
            k.to_string(),
            blocks.to_string(),
            format!("{:.4}", env.max_p_on),
            format!("{:.4}", env.min_p_off),
            format!("×{:.2}", env.p_on_headroom),
            if survives { "yes".into() } else { "no".into() },
        ]);
        csv.record_display(&[
            k.to_string(),
            blocks.to_string(),
            format!("{:.5}", env.max_p_on),
            format!("{:.5}", env.min_p_off),
            format!("{:.3}", env.p_on_headroom),
            survives.to_string(),
        ]);
    }
    println!("{}", table.render());

    // --- Statistical certification ---------------------------------------
    let chain = OnOffChain::new(0.01, 0.09);
    let r = chain.autocorrelation(1);
    let agg = AggregateChain::new(16, 0.01, 0.09);
    let blocks = agg.blocks_needed(0.01);
    let true_cvr = agg.cvr_with_blocks(blocks);
    let iid_samples = samples_to_certify(true_cvr, 0.01, 0.95);
    let corrected = (iid_samples as f64 * (1.0 + r) / (1.0 - r)).ceil() as u64;
    println!(
        "true CVR at the k=16 reservation: {true_cvr:.5}; certifying CVR ≤ 1% at\n\
         95% confidence needs ~{iid_samples} independent samples — i.e.\n\
         ~{corrected} correlated steps after the lag-1 = {r:.2} discount\n\
         (≈ {:.0} hours of 30-second periods).",
        corrected as f64 * 30.0 / 3600.0
    );

    // Demonstrate on an actual simulation of that PM.
    let vms: Vec<VmSpec> = (0..16)
        .map(|i| VmSpec::new(i, 0.01, 0.09, 10.0, 10.0))
        .collect();
    let capacity = 16.0 * 10.0 + blocks as f64 * 10.0;
    let pms = vec![PmSpec::new(0, capacity)];
    let placement = Placement {
        assignment: vec![Some(0); 16],
        n_pms: 1,
    };
    let policy = ObservedPolicy::rb();
    for steps in [2_000usize, 20_000, 200_000] {
        let cfg = SimConfig {
            steps,
            seed: 17,
            migrations_enabled: false,
            ..Default::default()
        };
        let out = Simulator::new(&vms, &pms, &policy, cfg).run(&placement);
        let violations = (out.cvr_per_pm[0].1 * steps as f64).round() as u64;
        let verdict = certify_bound(violations, steps as u64, 0.01, 0.95, r);
        println!(
            "  simulated {steps:>6} steps: measured CVR {:.5} → verdict {:?}",
            out.cvr_per_pm[0].1, verdict
        );
        if steps == 200_000 {
            assert_eq!(verdict, BoundVerdict::Holds, "long run must certify");
        }
    }
    ctx.write_csv("robustness_envelope", &csv)
}
