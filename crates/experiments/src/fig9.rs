//! Fig. 9: the live-migration experiment — total migrations (performance)
//! and PMs used at the end of the evaluation period (energy) for QUEUE,
//! RB and RB-EX, averaged over 10 runs with min/max whiskers.

use crate::common::{banner, Ctx, CtxError};
use bursty_core::metrics::csv::CsvWriter;
use bursty_core::metrics::{Summary, Table};
use bursty_core::prelude::*;

const N_VMS: usize = 120;
const RUNS: usize = 10;

fn schemes() -> [Scheme; 3] {
    [Scheme::Queue, Scheme::Rb, Scheme::RbEx]
}

pub fn run(ctx: &Ctx) -> Result<(), CtxError> {
    banner(
        "Figure 9 — migrations and PMs used with live migration",
        "rho = 0.01, p_on = 0.01, p_off = 0.09, sigma = 30 s, horizon 100\n\
         sigma, delta = 0.3, VM sizes from Table I, 120 VMs, 10 runs.\n\
         Bars: mean [min, max]. Paper expectation: RB migrates constantly\n\
         (cycle migration), RB-EX intermediate, QUEUE near zero; RB ends\n\
         with the fewest PMs, QUEUE slightly more.",
    );

    let mut table = Table::new(&[
        "pattern",
        "scheme",
        "migrations mean [min,max]",
        "final PMs mean [min,max]",
        "energy kWh",
    ]);
    let mut csv = CsvWriter::new();
    csv.record(&[
        "pattern",
        "scheme",
        "migrations_mean",
        "migrations_min",
        "migrations_max",
        "final_pms_mean",
        "final_pms_min",
        "final_pms_max",
        "energy_kwh_mean",
    ]);

    for pattern in WorkloadPattern::ALL {
        for scheme in schemes() {
            let consolidator = Consolidator::new(scheme);
            let outs = replicate(RUNS, 424242, |seed| {
                let mut gen = FleetGenerator::new(seed * 31 + pattern as u64);
                let vms = gen.vms_table_i(N_VMS, pattern);
                let pms = gen.pms(3 * N_VMS); // generous spare pool
                let cfg = SimConfig {
                    seed: seed ^ 0xF00D,
                    ..Default::default()
                };
                let (_, out) = consolidator.evaluate(&vms, &pms, cfg).unwrap();
                out
            });
            let migrations: Vec<f64> = outs.iter().map(|o| o.total_migrations() as f64).collect();
            let final_pms: Vec<f64> = outs.iter().map(|o| o.final_pms_used as f64).collect();
            let energy_kwh: Vec<f64> = outs.iter().map(|o| o.energy_joules / 3.6e6).collect();
            let (ms, ps, es) = (
                Summary::of(&migrations),
                Summary::of(&final_pms),
                Summary::of(&energy_kwh),
            );
            table.row(&[
                pattern.label().into(),
                scheme.label().into(),
                format!("{:.1} [{:.0}, {:.0}]", ms.mean, ms.min, ms.max),
                format!("{:.1} [{:.0}, {:.0}]", ps.mean, ps.min, ps.max),
                format!("{:.2}", es.mean),
            ]);
            csv.record_display(&[
                pattern.label().to_string(),
                scheme.label().to_string(),
                format!("{:.2}", ms.mean),
                format!("{:.0}", ms.min),
                format!("{:.0}", ms.max),
                format!("{:.2}", ps.mean),
                format!("{:.0}", ps.min),
                format!("{:.0}", ps.max),
                format!("{:.3}", es.mean),
            ]);
        }
    }
    println!("{}", table.render());
    ctx.write_csv("fig9_migration", &csv)
}
