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
//! the parent commit's rows and the look-ahead sweep (the same source
//! built with the private window constant set to 8, 16 and 256) beside
//! this commit's. The shapes:
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
//! code alone.

use bursty_bench::quartiles;
use bursty_core::placement::{
    first_fit, first_fit_batch_with, PackProfile, PlacementState, QueueStrategy,
};
use bursty_core::prelude::*;
use bursty_core::workload::SizeClass;
use std::fmt::Write as _;
use std::time::Instant;

struct SizeRow {
    n: usize,
    m_pms: usize,
    distinct_classes: usize,
    pms_used: usize,
    identical: bool,
    per_vm_secs: f64,
    batch_secs: f64,
    speedup: f64,
}

struct Args {
    sizes: Vec<usize>,
    repeats: usize,
    out: String,
    dup_n: usize,
    paper_n: usize,
    before: Option<String>,
    commit: Option<String>,
}

fn parse_args() -> Args {
    let mut parsed = Args {
        sizes: vec![10_000usize, 100_000, 1_000_000],
        repeats: 3,
        out: "BENCH_packing.json".to_string(),
        dup_n: 100_000,
        paper_n: 1_000_000,
        before: None,
        commit: None,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1).unwrap_or_else(|| {
            eprintln!("missing value for {}", args[i]);
            std::process::exit(2);
        });
        match args[i].as_str() {
            "--sizes" => {
                parsed.sizes = value
                    .split(',')
                    .map(|s| s.trim().parse().expect("--sizes"))
                    .collect()
            }
            "--repeats" => parsed.repeats = value.parse::<usize>().expect("--repeats").max(1),
            "--out" => parsed.out = value.clone(),
            "--dup-n" => parsed.dup_n = value.parse().expect("--dup-n"),
            "--paper-n" => parsed.paper_n = value.parse().expect("--paper-n"),
            "--before" => parsed.before = Some(value.clone()),
            "--commit" => parsed.commit = Some(value.clone()),
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
        i += 2;
    }
    parsed
}

fn best_secs<R>(repeats: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..repeats {
        let start = Instant::now();
        std::hint::black_box(f());
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

fn spread_json(samples: &[f64]) -> String {
    let [q1, median, q3] = quartiles(samples);
    format!("{{\"q1\": {q1:.6}, \"median\": {median:.6}, \"q3\": {q3:.6}}}")
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = std::hint::black_box(f());
    (out, start.elapsed().as_secs_f64())
}

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
    /// The row's JSON fields, without the leading commit.
    fields: String,
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
    let fields = format!(
        "\"fleet\": \"{fleet}\", \"n\": {}, \"m_pms\": {}, \"distinct_classes\": {}, \
         \"pms_used\": {pms_used}, \"identical_placements\": {identical}, \"repeats\": {repeats}, \
         \"per_vm_secs\": {per_vm_secs:.6}, \"batch_secs\": {}, \"tree_probes\": {tree_probes}, \
         \"phases_median_s\": {{\"collapse\": {:.6}, \"reset\": {:.6}, \"runs\": {:.6}, \
         \"scatter\": {:.6}}}",
        vms.len(),
        pms.len(),
        bursty_core::workload::distinct_classes(vms),
        spread_json(&secs),
        phase(|p| p.collapse_s),
        phase(|p| p.reset_s),
        phase(|p| p.runs_s),
        phase(|p| p.scatter_s),
    );
    FleetRow {
        fields,
        pack_median,
        identical,
        tree_probes,
    }
}

fn main() {
    let Args {
        sizes,
        repeats,
        out: out_path,
        dup_n,
        paper_n,
        before,
        commit,
    } = parse_args();
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    eprintln!("packing-bench: sizes {sizes:?}, {repeats} repeats, {cores} cores");

    // Build (and thereby cache) the mapping table before any timing so
    // both sides measure pure packing.
    let strategy = QueueStrategy::build(16, 0.01, 0.09, 0.01);
    let mut arena = PlacementState::new();

    let mut rows: Vec<SizeRow> = Vec::new();
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
        rows.push(SizeRow {
            n,
            m_pms: pms.len(),
            distinct_classes: distinct,
            pms_used,
            identical,
            per_vm_secs,
            batch_secs,
            speedup,
        });
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
    let commit = bursty_bench::commit_label(commit);
    let attributed = repeats.max(5);
    let mut fleet_lines: Vec<String> = match &before {
        Some(path) => bursty_bench::section_rows_led_by_commit(path, "fleets"),
        None => Vec::new(),
    };
    let mut all_identical = true;
    let lead = |fields: String| {
        format!("{{\"commit\": \"{commit}\", \"available_parallelism\": {cores}, {fields}}}")
    };
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
        let row = fleet_row(&name, &vms, &pms, &strategy, attributed, false);
        all_identical &= row.identical;
        fleet_lines.push(lead(row.fields));
    }
    let mut paper_tree_probes = None;
    if paper_n > 0 {
        let mut gen = FleetGenerator::new(1);
        let vms = gen.vms_table_i(paper_n, WorkloadPattern::EqualSpike);
        let pms = gen.pms(paper_n / 4);
        let row = fleet_row("paper_density", &vms, &pms, &strategy, attributed, true);
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
        fleet_lines.push(lead(format!(
            "{}, \"place_secs\": {}, \"census_s\": {census_s:.6}, \"uses_batch_secs\": {}",
            row.fields,
            spread_json(&place_secs),
            spread_json(&census_secs)
        )));
    }

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"generated_by\": \"packing-bench\",");
    let _ = writeln!(json, "  \"available_parallelism\": {cores},");
    let _ = writeln!(
        json,
        "  \"config\": {{\"repeats\": {repeats}, \"strategy\": \"QUEUE\", \
         \"fleet\": \"table-i r_b-small rows (small/small + small/medium, 50/50)\", \
         \"d\": 16, \"p_on\": 0.01, \"p_off\": 0.09, \"rho\": 0.01}},"
    );
    json.push_str("  \"sizes\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"n\": {}, \"m_pms\": {}, \"distinct_classes\": {}, \"pms_used\": {}, \
             \"identical_placements\": {}, \"per_vm_secs\": {:.6}, \"batch_secs\": {:.6}, \
             \"speedup\": {:.2}}}",
            r.n,
            r.m_pms,
            r.distinct_classes,
            r.pms_used,
            r.identical,
            r.per_vm_secs,
            r.batch_secs,
            r.speedup
        );
        json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"all_distinct_control\": {{\"n\": {control_n}, \"per_vm_secs\": {control_per_vm:.6}, \
         \"batch_secs\": {control_batch:.6}, \"overhead\": {control_overhead:.2}, \
         \"identical_placements\": {control_identical}}},"
    );
    json.push_str("  \"fleets\": [\n");
    for (i, line) in fleet_lines.iter().enumerate() {
        json.push_str("    ");
        json.push_str(line);
        json.push_str(if i + 1 < fleet_lines.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    json.push_str("  ]\n");
    json.push_str("}\n");

    std::fs::write(&out_path, &json).expect("write BENCH_packing.json");
    println!("{json}");
    eprintln!("wrote {out_path}");

    for r in &rows {
        assert!(
            r.identical,
            "batch placements diverged from per-VM at n={}",
            r.n
        );
        assert!(
            r.n < 1_000_000 || r.speedup >= 10.0,
            "batch speedup {:.2}x at n={} below the 10x acceptance bar",
            r.speedup,
            r.n
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
