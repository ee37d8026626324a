//! Fig. 10: time-order pattern of migration events — cumulative migration
//! curves for QUEUE, RB and RB-EX over one R_b = R_e run.

use crate::common::{banner, Ctx, CtxError};
use bursty_core::metrics::csv::CsvWriter;
use bursty_core::metrics::plot::ascii_series;
use bursty_core::metrics::TimeSeries;
use bursty_core::prelude::*;
use bursty_core::sim::events::migrations_per_step;

const N_VMS: usize = 120;
const SEED: u64 = 99;

pub fn run(ctx: &Ctx) -> Result<(), CtxError> {
    banner(
        "Figure 10 — time-order pattern of migration events",
        "One R_b = R_e run, 120 VMs, 100 update periods. Cumulative\n\
         migrations per scheme. Paper expectation: RB climbs steadily all\n\
         run long (cycle migration); RB-EX climbs early then either keeps\n\
         climbing slowly or flattens; QUEUE stays near zero.",
    );

    let mut csv = CsvWriter::new();
    csv.record(&["step", "QUEUE", "RB", "RB-EX"]);
    let mut curves: Vec<(String, Vec<f64>)> = Vec::new();

    for scheme in [Scheme::Queue, Scheme::Rb, Scheme::RbEx] {
        let consolidator = Consolidator::new(scheme);
        let mut gen = FleetGenerator::new(SEED);
        let vms = gen.vms_table_i(N_VMS, WorkloadPattern::EqualSpike);
        let pms = gen.pms(3 * N_VMS);
        let cfg = SimConfig {
            seed: SEED,
            ..Default::default()
        };
        let (_, out) = consolidator.evaluate(&vms, &pms, cfg).unwrap();
        let per_step = migrations_per_step(&out.migrations, cfg.steps);
        let mut series = TimeSeries::new(0.0, 1.0);
        per_step.iter().for_each(|&c| series.push(c as f64));
        let cumulative = series.cumulative();
        println!(
            "{}: {} migrations total, {} PMs at end",
            scheme.label(),
            out.total_migrations(),
            out.final_pms_used
        );
        println!("{}", ascii_series(&cumulative.values, 100, 6));
        curves.push((scheme.label().to_string(), cumulative.values));
    }

    let steps = curves[0].1.len();
    for t in 0..steps {
        csv.record_display(&[
            t.to_string(),
            format!("{:.0}", curves[0].1[t]),
            format!("{:.0}", curves[1].1[t]),
            format!("{:.0}", curves[2].1[t]),
        ]);
    }
    ctx.write_csv("fig10_migration_timeline", &csv)
}
