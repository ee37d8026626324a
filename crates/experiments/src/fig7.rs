//! Fig. 7: computation cost of Algorithm 2 (building the placement matrix)
//! for various `d` and `n`.

use crate::common::{banner, Ctx, CtxError};
use bursty_core::metrics::csv::CsvWriter;
use bursty_core::metrics::Table;
use bursty_core::placement::{first_fit, MappingTable, QueueStrategy};
use bursty_core::prelude::*;
use bursty_core::workload::patterns::defaults;
use std::time::Instant;

const DS: [usize; 5] = [4, 8, 16, 24, 32];
const NS: [usize; 5] = [200, 400, 800, 1600, 3200];

pub fn run(ctx: &Ctx) -> Result<(), CtxError> {
    banner(
        "Figure 7 — computation cost of Algorithm 2",
        "Wall-clock time to produce the placement matrix X (mapping table +\n\
         clustering + sort + first fit), excluding the actual migration of\n\
         VMs, as in the paper. Expect O(d^4 + n log n + mn) scaling and\n\
         millisecond-level cost at moderate d, n.",
    );

    let mut table = Table::new(&["d \\ n", "200", "400", "800", "1600", "3200"]);
    let mut csv = CsvWriter::new();
    csv.record(&["d", "n", "millis"]);

    for &d in &DS {
        let mut row = vec![d.to_string()];
        for &n in &NS {
            let mut gen = FleetGenerator::new(7 * d as u64 + n as u64);
            let vms = gen.vms(n, WorkloadPattern::EqualSpike);
            let pms = gen.pms(n);
            let start = Instant::now();
            // Build the table uncached so every cell charges the full
            // MapCal cost the figure is about — the process-wide memo
            // would otherwise make all but the first cell per d free. The
            // packer prices through the strategy's shared π-threshold
            // table, which equals this one at the default pair.
            let mapping = MappingTable::build(d, defaults::P_ON, defaults::P_OFF, defaults::RHO);
            std::hint::black_box(&mapping);
            let strategy = QueueStrategy::build(d, defaults::P_ON, defaults::P_OFF, defaults::RHO);
            let placement = first_fit(&vms, &pms, &strategy).unwrap();
            let elapsed = start.elapsed();
            assert!(placement.is_complete());
            let ms = elapsed.as_secs_f64() * 1e3;
            row.push(format!("{ms:.2} ms"));
            csv.record_display(&[d.to_string(), n.to_string(), format!("{ms:.4}")]);
        }
        table.row(&row);
    }
    println!("{}", table.render());
    ctx.write_csv("fig7_cost", &csv)
}
