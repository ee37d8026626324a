//! Packing-throughput benchmark with machine-readable output.
//!
//! Times the class-collapsed batch packer (`first_fit_batch_with`, arena
//! reused across runs) against the per-VM indexed `first_fit` on a
//! duplicate-heavy fleet (the small-instance segment of Table I),
//! verifying byte-identical placements at every size, then writes the
//! results as JSON — the `BENCH_packing.json` artifact CI uploads for
//! trending.
//!
//! ```text
//! packing-bench [--sizes N1,N2,...] [--repeats R] [--out PATH]
//!               [--dup-n N] [--paper-n N] [--before PATH] [--commit LABEL]
//! ```
//!
//! Defaults: sizes 10000,100000,1000000, 3 repeats (best kept), output
//! to `BENCH_packing.json`. Every timing of the `sizes` rows is the
//! minimum over the repeats — throughput questions want the
//! least-interfered run, not the mean. An all-distinct control row shows
//! what the batch path costs when class collapsing cannot help.
//!
//! The `fleets` section attributes the batch packer's time instead of
//! racing it: one row per fleet shape, each led by the commit it was
//! measured at (`--commit`, default `git describe --always --dirty`), with
//! `max(R, 5)` repeats reported as q1 / median / q3, the packer's own
//! per-phase seconds ([`PackProfile`]: collapse, reset, runs, scatter —
//! medians) and the number of candidate searches that had to climb the
//! headroom tree. `--before PATH` copies the `fleets` rows of an earlier
//! output in front of the new ones: that is how the checked-in file holds
//! the parent commit's rows (`crates/bench/src` copied into a clone of the
//! parent commit and run there) and the look-ahead sweep (the same source
//! built with the private window constant set to 8, 16 and 256) beside
//! this commit's. The `sizes` rows are led by the commit and the host's
//! `available_parallelism` too, but `--before` does not carry them. The
//! shapes:
//!
//! * `dup_0` / `dup_50` / `dup_100` — `--dup-n` VMs (default 100000) on
//!   as many PMs with none, half, or all of the fleet drawn from the two
//!   small Table-I classes and the rest from continuous draws.
//! * `paper_density` — `--paper-n` Table-I VMs (default 1000000; 0 skips
//!   the row) on a quarter as many PMs: the fleet of the system
//!   benchmark's `plan_classheavy`. Its pack runs on a fresh arena, as
//!   `Consolidator::place` does, and the row adds `place_secs` (the whole
//!   decision), `census_s` (median `place` minus median pack: what the
//!   decision spends on choosing the packer, beyond the pack's own class
//!   pass) and `uses_batch_secs` (the same question asked on its own, as
//!   the harness and `bursty plan` do).
//!
//! The process exits nonzero (assert) if any row's batch placement
//! differs from the per-VM packer's on the full assignment vector, if a
//! size at n >= 1e6 falls below the 10x acceptance bar, or if the
//! paper-density pack climbs the tree at all — so CI can gate on the exit
//! code alone. A flag that is not declared above, given twice, without a
//! value or with an unparsable one exits 2.

use bursty_bench::{
    best_secs, quartiles, row, spread, timed, write_report, Before, Flags, Obj, ToJson,
};
use bursty_core::placement::{
    first_fit, first_fit_batch_with, PackProfile, PlacementState, QueueStrategy,
};
use bursty_core::prelude::*;
use bursty_core::workload::SizeClass;
use bursty_server::Json;

/// The two small Table-I classes, 50/50 — the duplicate-heavy fleet of
/// the `sizes` rows.
fn small_rows_vm(gen: &mut FleetGenerator, id: usize) -> VmSpec {
    if id.is_multiple_of(2) {
        gen.vm_of_classes(id, SizeClass::Small, SizeClass::Small)
    } else {
        gen.vm_of_classes(id, SizeClass::Small, SizeClass::Medium)
    }
}

/// One measured fleet of the `fleets` section.
struct FleetRow {
    /// The row, led by its commit.
    row: Obj,
    /// Median seconds of one batch pack.
    pack_median: f64,
    /// Whether batch and per-VM agreed on the full assignment vector.
    identical: bool,
    /// Tree climbs of one pack (the same on every repeat).
    tree_probes: u64,
}

/// One `fleets` row: the batch packer against the per-VM packer on the
/// full assignment vector, then `repeats` timed packs with their phase
/// profiles. `fresh_arena` packs each repeat on a new arena (what
/// `Consolidator::place` does) instead of the reused one.
fn fleet_row(
    commit: &str,
    fleet: &str,
    vms: &[VmSpec],
    pms: &[PmSpec],
    strategy: &QueueStrategy,
    repeats: usize,
    fresh_arena: bool,
) -> FleetRow {
    let mut arena = PlacementState::new();
    let (reference, per_vm_secs) = timed(|| first_fit(vms, pms, strategy));
    let batched = first_fit_batch_with(&mut arena, vms, pms, strategy);
    let identical = reference == batched;
    let pms_used = reference.as_ref().map(|p| p.pms_used()).unwrap_or(0);
    let mut secs = Vec::with_capacity(repeats);
    let mut profiles: Vec<PackProfile> = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        if fresh_arena {
            arena = PlacementState::new();
        }
        let (_, s) = timed(|| first_fit_batch_with(&mut arena, vms, pms, strategy));
        secs.push(s);
        profiles.push(arena.last_pack());
    }
    let tree_probes = profiles[0].tree_probes;
    assert!(
        profiles.iter().all(|p| p.tree_probes == tree_probes),
        "{fleet}: tree climbs differ between repeats of one pack"
    );
    let phase =
        |get: fn(&PackProfile) -> f64| quartiles(&profiles.iter().map(get).collect::<Vec<_>>())[1];
    let pack_median = quartiles(&secs)[1];
    eprintln!(
        "  {fleet} n={}: batch {pack_median:.4}s (per-VM {per_vm_secs:.4}s), {tree_probes} tree \
         climbs, identical={identical}",
        vms.len()
    );
    let phases = Obj::default()
        .field("collapse", phase(|p| p.collapse_s))
        .field("reset", phase(|p| p.reset_s))
        .field("runs", phase(|p| p.runs_s))
        .field("scatter", phase(|p| p.scatter_s));
    let row = row(commit)
        .field("fleet", fleet)
        .field("n", vms.len())
        .field("m_pms", pms.len())
        .field(
            "distinct_classes",
            bursty_core::workload::distinct_classes(vms),
        )
        .field("pms_used", pms_used)
        .field("identical_placements", identical)
        .field("repeats", repeats)
        .field("per_vm_secs", per_vm_secs)
        .field("batch_secs", spread(&secs))
        .field("tree_probes", tree_probes)
        .field("phases_median_s", phases);
    FleetRow {
        row,
        pack_median,
        identical,
        tree_probes,
    }
}

fn main() {
    let flags = Flags::from_env(&[
        "sizes", "repeats", "out", "dup-n", "paper-n", "before", "commit",
    ]);
    let sizes = flags
        .list("sizes")
        .unwrap_or_else(|| vec![10_000, 100_000, 1_000_000]);
    let repeats = flags.get("repeats").unwrap_or(3usize).max(1);
    let out: String = flags
        .get("out")
        .unwrap_or_else(|| "BENCH_packing.json".into());
    let dup_n: usize = flags.get("dup-n").unwrap_or(100_000);
    let paper_n: usize = flags.get("paper-n").unwrap_or(1_000_000);
    let before = Before::load(flags.get::<String>("before").as_deref());
    let commit = bursty_bench::commit_label(flags.get("commit"));
    let cores = bursty_bench::available_parallelism();
    eprintln!("packing-bench: sizes {sizes:?}, {repeats} repeats, {cores} cores");

    // Build (and thereby cache) the mapping table before any timing so
    // both sides measure pure packing.
    let strategy = QueueStrategy::build(16, 0.01, 0.09, 0.01);
    let mut arena = PlacementState::new();

    let mut size_rows: Vec<Json> = Vec::new();
    // `(n, identical, speedup)` per size, asserted once the file is written.
    let mut size_checks: Vec<(usize, bool, f64)> = Vec::new();
    for &n in &sizes {
        // Duplicate-heavy fleet: the small-instance segment of Table I —
        // a 50/50 mix of the two `R_b = small` rows (small/small and
        // small/medium). Two discrete classes at any n, ~11 VMs per PM,
        // the consolidation-dense workload the batch path is built for.
        let mut gen = FleetGenerator::new(n as u64);
        let vms: Vec<_> = (0..n).map(|id| small_rows_vm(&mut gen, id)).collect();
        let pms = gen.pms(n);
        let distinct = bursty_core::workload::distinct_classes(&vms);

        let per_vm_secs = best_secs(repeats, || first_fit(&vms, &pms, &strategy));
        let batch_secs = best_secs(repeats, || {
            first_fit_batch_with(&mut arena, &vms, &pms, &strategy)
        });

        let reference = first_fit(&vms, &pms, &strategy);
        let batched = first_fit_batch_with(&mut arena, &vms, &pms, &strategy);
        let identical = reference == batched;
        let pms_used = reference.as_ref().map(|p| p.pms_used()).unwrap_or(0);
        let speedup = per_vm_secs / batch_secs;
        eprintln!(
            "  n={n} ({distinct} classes): per-VM {per_vm_secs:.4}s vs batch {batch_secs:.4}s \
             ({speedup:.1}x), identical={identical}"
        );
        let row = row(&commit)
            .field("n", n)
            .field("m_pms", pms.len())
            .field("distinct_classes", distinct)
            .field("pms_used", pms_used)
            .field("identical_placements", identical)
            .field("per_vm_secs", per_vm_secs)
            .field("batch_secs", batch_secs)
            .field("speedup", speedup);
        size_rows.push(row.to_json());
        size_checks.push((n, identical, speedup));
    }

    // All-distinct control: continuous demand draws give every VM its own
    // class, so the batch path degenerates to per-VM admission and only
    // its run-detection overhead shows.
    let control_n = sizes.iter().copied().min().unwrap_or(10_000);
    let mut gen = FleetGenerator::new(control_n as u64);
    let distinct_vms = gen.vms(control_n, WorkloadPattern::EqualSpike);
    let distinct_pms = gen.pms(control_n);
    let control_per_vm = best_secs(repeats, || {
        first_fit(&distinct_vms, &distinct_pms, &strategy)
    });
    let control_batch = best_secs(repeats, || {
        first_fit_batch_with(&mut arena, &distinct_vms, &distinct_pms, &strategy)
    });
    let control_identical = first_fit(&distinct_vms, &distinct_pms, &strategy)
        == first_fit_batch_with(&mut arena, &distinct_vms, &distinct_pms, &strategy);
    let control_overhead = control_batch / control_per_vm;
    eprintln!(
        "  all-distinct n={control_n}: per-VM {control_per_vm:.4}s vs batch {control_batch:.4}s \
         ({control_overhead:.2}x overhead), identical={control_identical}"
    );

    // The attribution rows: duplicate ratios 0 / 50 / 100 %, then the
    // paper-density fleet.
    let attributed = repeats.max(5);
    let mut fleet_rows = before.rows("fleets");
    let mut all_identical = true;
    for dup_pct in [0usize, 50, 100] {
        let mut gen = FleetGenerator::new(dup_n as u64 + dup_pct as u64);
        let drawn = gen.vms(dup_n, WorkloadPattern::EqualSpike);
        let vms: Vec<VmSpec> = (0..dup_n)
            .map(|id| {
                if (id % 100) < dup_pct {
                    small_rows_vm(&mut gen, id)
                } else {
                    drawn[id]
                }
            })
            .collect();
        let pms = gen.pms(dup_n);
        let name = format!("dup_{dup_pct}");
        let row = fleet_row(&commit, &name, &vms, &pms, &strategy, attributed, false);
        all_identical &= row.identical;
        fleet_rows.push(row.row.to_json());
    }
    let mut paper_tree_probes = None;
    if paper_n > 0 {
        let mut gen = FleetGenerator::new(1);
        let vms = gen.vms_table_i(paper_n, WorkloadPattern::EqualSpike);
        let pms = gen.pms(paper_n / 4);
        let row = fleet_row(
            &commit,
            "paper_density",
            &vms,
            &pms,
            &strategy,
            attributed,
            true,
        );
        all_identical &= row.identical;
        paper_tree_probes = Some(row.tree_probes);
        let consolidator = Consolidator::new(Scheme::Queue);
        let mut place_secs = Vec::with_capacity(attributed);
        let mut census_secs = Vec::with_capacity(attributed);
        for _ in 0..attributed {
            place_secs.push(timed(|| consolidator.place(&vms, &pms)).1);
            census_secs.push(timed(|| consolidator.uses_batch(&vms)).1);
        }
        let census_s = quartiles(&place_secs)[1] - row.pack_median;
        eprintln!(
            "  paper_density: place {:.4}s, of which census {census_s:.4}s; uses_batch alone {:.4}s",
            quartiles(&place_secs)[1],
            quartiles(&census_secs)[1]
        );
        let row = row
            .row
            .field("place_secs", spread(&place_secs))
            .field("census_s", census_s)
            .field("uses_batch_secs", spread(&census_secs));
        fleet_rows.push(row.to_json());
    }

    let config = Obj::default()
        .field("repeats", repeats)
        .field("strategy", "QUEUE")
        .field(
            "fleet",
            "table-i r_b-small rows (small/small + small/medium, 50/50)",
        )
        .field("d", 16usize)
        .field("p_on", 0.01)
        .field("p_off", 0.09)
        .field("rho", 0.01);
    let control = Obj::default()
        .field("n", control_n)
        .field("per_vm_secs", control_per_vm)
        .field("batch_secs", control_batch)
        .field("overhead", control_overhead)
        .field("identical_placements", control_identical);
    let report = bursty_bench::report("packing-bench")
        .field("config", config)
        .field("sizes", size_rows)
        .field("all_distinct_control", control)
        .field("fleets", fleet_rows);
    println!("{}", write_report(&out, report));

    for (n, identical, speedup) in size_checks {
        assert!(identical, "batch placements diverged from per-VM at n={n}");
        assert!(
            n < 1_000_000 || speedup >= 10.0,
            "batch speedup {speedup:.2}x at n={n} below the 10x acceptance bar"
        );
    }
    assert!(
        control_identical,
        "batch placements diverged from per-VM on the all-distinct control"
    );
    assert!(
        all_identical,
        "batch placements diverged from per-VM on a `fleets` row"
    );
    assert!(
        paper_tree_probes.unwrap_or(0) == 0,
        "the paper-density pack climbed the headroom tree {paper_tree_probes:?} times: \
         its gaps no longer fit the look-ahead window"
    );
}
