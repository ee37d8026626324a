//! Fault-tolerance scenario (extension): PM crash/recovery under the four
//! schemes, sweeping failure frequency.
//!
//! The paper assumes PMs never fail; this extension asks what each
//! scheme's reservation buys when they do. Crashed PMs evict their VMs;
//! the engine evacuates the displaced set under the scheme's own admission
//! policy (spilling into the ε overflow margin if the pool is full) and
//! queues the rest with exponential backoff. Because RP reserves for peak
//! and QUEUE reserves Eq.-17 blocks, both leave evacuation headroom that
//! the observed-demand baselines lack — the sweep measures that gap as
//! time-to-restore and stranded VM-steps, and splits SLA violations into
//! burstiness-caused vs degraded-mode (failure-caused).

use crate::common::{banner, Ctx, CtxError};
use bursty_core::metrics::csv::CsvWriter;
use bursty_core::metrics::Table;
use bursty_core::prelude::*;

pub fn run(ctx: &Ctx) -> Result<(), CtxError> {
    banner(
        "Fault tolerance (extension)",
        "96 heterogeneous VMs, 2000 periods, migration on. Each scheme runs\n\
         on its own packing footprint plus 2 spare PMs (a consolidated\n\
         fleet powers idle machines off, so recovery capacity = spares +\n\
         whatever headroom the scheme reserved). PM crashes: geometric\n\
         MTBF sweep at MTTR = 50 periods, independent per-PM domains,\n\
         overflow margin eps = 0.1. Violations split into burstiness-\n\
         caused vs degraded-mode (failure-caused).",
    );

    let mut gen = FleetGenerator::new(4);
    let vms = gen.vms(96, WorkloadPattern::EqualSpike);
    let ample = gen.pms(192);
    // Spare PMs beyond the packing footprint — the fleet's parked
    // recovery capacity.
    const SPARES: usize = 2;

    let schemes = [Scheme::Queue, Scheme::Rp, Scheme::Rb, Scheme::RbEx];
    let mtbf_sweep = [250.0, 500.0, 1000.0, 2000.0];

    let mut table = Table::new(&[
        "scheme",
        "MTBF",
        "crashes",
        "mean TTR",
        "stranded",
        "degr. vio",
        "burst vio",
        "migr (retried)",
        "fleet CVR",
    ]);
    let mut csv = CsvWriter::new();
    csv.record(&[
        "scheme",
        "mtbf_steps",
        "crashes",
        "recoveries",
        "mean_time_to_restore",
        "unrestored_crashes",
        "stranded_vm_steps",
        "degraded_admissions",
        "degraded_violation_steps",
        "burstiness_violation_steps",
        "migrations",
        "retried_migrations",
        "fleet_cvr",
    ]);

    for scheme in schemes {
        let consolidator = Consolidator::new(scheme);
        // First-fit fills PMs in index order, so truncating the ample pool
        // to the footprint + spares leaves the packing itself unchanged.
        let footprint = consolidator
            .place(&vms, &ample)
            .expect("192 PMs are ample for every scheme")
            .pms_used();
        let pms = &ample[..(footprint + SPARES).min(ample.len())];
        for mtbf in mtbf_sweep {
            let cfg = SimConfig {
                steps: 2_000,
                seed: 11,
                faults: Some(FaultConfig {
                    mtbf_steps: mtbf,
                    mttr_steps: 50.0,
                    correlated_group_size: 1,
                    seed: 0xfau64,
                }),
                ..Default::default()
            };
            let (_, out) = consolidator
                .evaluate(&vms, pms, cfg)
                .expect("the truncated pool still holds the footprint");
            let ttr = out
                .recovery
                .mean_time_to_restore()
                .map_or_else(|| "-".to_string(), |t| format!("{t:.1}"));
            table.row(&[
                scheme.label().into(),
                format!("{mtbf:.0}"),
                out.recovery.crashes.to_string(),
                ttr.clone(),
                out.recovery.stranded_vm_steps.to_string(),
                out.recovery.degraded_violation_steps.to_string(),
                out.burstiness_violation_steps().to_string(),
                format!("{} ({})", out.total_migrations(), out.retried_migrations),
                format!("{:.4}", out.mean_cvr()),
            ]);
            csv.record_display(&[
                scheme.label().to_string(),
                format!("{mtbf:.0}"),
                out.recovery.crashes.to_string(),
                out.recovery.recoveries.to_string(),
                ttr,
                out.recovery.unrestored_crashes.to_string(),
                out.recovery.stranded_vm_steps.to_string(),
                out.recovery.degraded_admissions.to_string(),
                out.recovery.degraded_violation_steps.to_string(),
                out.burstiness_violation_steps().to_string(),
                out.total_migrations().to_string(),
                out.retried_migrations.to_string(),
                format!("{:.6}", out.mean_cvr()),
            ]);
        }
    }
    println!("{}", table.render());
    println!(
        "Reading: the fault RNG stream is orthogonal to the workload's, so\n\
         turning the sweep knob never perturbs the VMs' ON-OFF paths.\n\
         Denser packings concentrate more VMs per crash and lean harder on\n\
         the overflow margin: RB evacuates into PMs that were already full,\n\
         so most of its SLA damage is degraded-mode (failure-induced), on\n\
         top of the burstiness violations it was already paying. QUEUE's\n\
         Eq.-17 blocks double as evacuation headroom — it absorbs crashes\n\
         with an order of magnitude fewer degraded violations at a\n\
         footprint far below RP's."
    );
    ctx.write_csv("fault_tolerance", &csv)
}
