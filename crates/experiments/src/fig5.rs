//! Fig. 5: packing result — number of PMs used by QUEUE vs RP vs RB (plus
//! the RB-EX baseline) for the three workload patterns.
//!
//! Settings from the paper's caption: ρ = 0.01, d = 16, p_on = 0.01,
//! p_off = 0.09, C_j ∈ [80, 100], R_b/R_e from the per-pattern ranges.
//!
//! The (pattern × n × scheme) grid is embarrassingly parallel, so it fans
//! out through [`bursty_core::sim::run_indexed`]; results come back in
//! ascending grid order, so the table is identical to the sequential one.

use crate::common::{banner, Ctx, CtxError};
use bursty_core::metrics::csv::CsvWriter;
use bursty_core::metrics::plot::ascii_bars;
use bursty_core::metrics::Table;
use bursty_core::placement::placement::consolidation_improvement;
use bursty_core::prelude::*;
use bursty_core::sim::run_indexed;

const SIZES: [usize; 3] = [100, 200, 400];
const REPS: u64 = 5;
const SCHEMES: [Scheme; 4] = [Scheme::Queue, Scheme::Rp, Scheme::Rb, Scheme::RbEx];

pub fn run(ctx: &Ctx) -> Result<(), CtxError> {
    banner(
        "Figure 5 — packing result (PMs used)",
        "rho = 0.01, d = 16, p_on = 0.01, p_off = 0.09, C in [80,100];\n\
         mean over 5 seeded fleets per (pattern, n, scheme).",
    );

    let mut table = Table::new(&[
        "pattern",
        "n",
        "QUEUE",
        "RP",
        "RB",
        "RB-EX",
        "QUEUE vs RP",
        "paper",
    ]);
    let mut csv = CsvWriter::new();
    csv.record(&[
        "pattern",
        "n",
        "queue",
        "rp",
        "rb",
        "rbex",
        "improvement_vs_rp",
    ]);

    let paper_expect = |p: WorkloadPattern| match p {
        WorkloadPattern::EqualSpike => "~30%",
        WorkloadPattern::SmallSpike => "~18%",
        WorkloadPattern::LargeSpike => "~45%",
    };

    // The flat evaluation grid, then the parallel fan-out: each point is
    // one scheme's 5-seed mean. `run_indexed` returns results in grid
    // order regardless of completion order, so everything downstream is
    // deterministic.
    let mut grid: Vec<(WorkloadPattern, usize, Scheme)> = Vec::new();
    for pattern in WorkloadPattern::ALL {
        for &n in &SIZES {
            for scheme in SCHEMES {
                grid.push((pattern, n, scheme));
            }
        }
    }
    let means = run_indexed(grid.len(), |idx| {
        let (pattern, n, scheme) = grid[idx];
        let mut total = 0.0;
        for seed in 0..REPS {
            let mut gen = FleetGenerator::new(1000 * seed + n as u64);
            let vms = gen.vms(n, pattern);
            let pms = gen.pms(n); // one PM per VM is always enough
            total += Consolidator::new(scheme)
                .place(&vms, &pms)
                .expect("one PM per VM always packs")
                .pms_used() as f64;
        }
        total / REPS as f64
    });

    let mut headline: Vec<(String, f64)> = Vec::new();
    for (row, chunk) in means.chunks(SCHEMES.len()).enumerate() {
        let (pattern, n, _) = grid[row * SCHEMES.len()];
        let (q, rp, rb, rbex) = (chunk[0], chunk[1], chunk[2], chunk[3]);
        let improvement = consolidation_improvement(q.round() as usize, rp.round() as usize);
        table.row(&[
            pattern.label().into(),
            n.to_string(),
            format!("{q:.1}"),
            format!("{rp:.1}"),
            format!("{rb:.1}"),
            format!("{rbex:.1}"),
            format!("{:.0}%", improvement * 100.0),
            paper_expect(pattern).into(),
        ]);
        csv.record_display(&[
            pattern.label().to_string(),
            n.to_string(),
            format!("{q:.2}"),
            format!("{rp:.2}"),
            format!("{rb:.2}"),
            format!("{rbex:.2}"),
            format!("{improvement:.4}"),
        ]);
        if n == 400 {
            headline.push((format!("{} QUEUE", pattern.label()), q));
            headline.push((format!("{} RP   ", pattern.label()), rp));
            headline.push((format!("{} RB   ", pattern.label()), rb));
        }
    }
    println!("{}", table.render());
    println!("PMs used at n = 400 (bars):");
    println!("{}", ascii_bars(&headline, 48));
    ctx.write_csv("fig5_packing", &csv)
}
