//! Churn scenario (extension): the §IV-E online situation under sustained
//! arrivals/departures with live migration running.

use crate::common::{banner, Ctx, CtxError};
use bursty_core::metrics::csv::CsvWriter;
use bursty_core::metrics::Table;
use bursty_core::prelude::*;

pub fn run(ctx: &Ctx) -> Result<(), CtxError> {
    banner(
        "Churn scenario (extension)",
        "Empty cluster; Poisson(1) arrivals per period, geometric VM\n\
         lifetimes (mean 100 periods), 2000 periods, migration on.\n\
         Admission and migration targeting both use each scheme's policy.",
    );

    let mut table = Table::new(&[
        "scheme",
        "admitted",
        "rejected",
        "migrations",
        "fleet CVR",
        "steady PMs",
    ]);
    let mut csv = CsvWriter::new();
    csv.record(&[
        "scheme",
        "admitted",
        "rejected",
        "migrations",
        "fleet_cvr",
        "steady_pms",
    ]);

    let mut gen = FleetGenerator::new(0);
    let pms = gen.pms(400);
    let sim = SimConfig {
        steps: 2_000,
        seed: 8,
        ..Default::default()
    };

    let policies: Vec<(&str, Box<dyn RuntimePolicy>)> = vec![
        (
            "QUEUE",
            Box::new(QueuePolicy::new(QueueStrategy::build(16, 0.01, 0.09, 0.01))),
        ),
        ("RB", Box::new(ObservedPolicy::rb())),
        ("RB-EX", Box::new(ObservedPolicy::rb_ex())),
    ];

    for (label, policy) in &policies {
        let out = run_churn(&pms, policy.as_ref(), sim);
        let steady: f64 = out.pms_used_series.values[1_500..].iter().sum::<f64>() / 500.0;
        table.row(&[
            (*label).into(),
            out.admitted.to_string(),
            out.rejected.to_string(),
            out.migrations.len().to_string(),
            format!("{:.4}", out.fleet_cvr()),
            format!("{steady:.1}"),
        ]);
        csv.record_display(&[
            label.to_string(),
            out.admitted.to_string(),
            out.rejected.to_string(),
            out.migrations.len().to_string(),
            format!("{:.6}", out.fleet_cvr()),
            format!("{steady:.2}"),
        ]);
    }
    println!("{}", table.render());
    println!(
        "Reading: QUEUE's reservation admits slightly fewer VMs per PM but\n\
         keeps every PM within rho, so the migration trigger (rho per period\n\
         plus the CUSUM allowance) stays quiet even while the population\n\
         churns; the observed-demand policies admit greedily and pay in\n\
         violations and migration traffic."
    );
    ctx.write_csv("churn_scenario", &csv)
}
