//! Engine-throughput benchmark with machine-readable output.
//!
//! Measures the simulator's step throughput under both RNG layouts
//! (the shared serial stream on distinct and on class-heavy fleets, the
//! class-aggregated counters on the latter) and the MapCal
//! stationary-distribution build (closed-form Binomial vs the retained
//! Gaussian-elimination oracle), then writes the results as JSON — the
//! `BENCH_engine.json` artifact CI uploads for trending.
//!
//! ```text
//! engine-bench [--steps S] [--fleets N1,N2,...] [--repeats R]
//!              [--mapcal-d D] [--out PATH] [--obs-gate PCT]
//!              [--paper-fleets N1,N2,...] [--sweep-steps S]
//!              [--before PATH] [--commit LABEL]
//!              [--pair-against BINARY --pair-label LABEL [--pairs P]]
//! ```
//!
//! Defaults: 200 steps, fleet of 800 VMs, 3 repeats (best kept),
//! MapCal d = 200, output to `BENCH_engine.json`. Every timing is the
//! minimum over the repeats — throughput questions want the
//! least-interfered run, not the mean.
//!
//! The observability section times `run()` (which *is* the
//! `NoopRecorder` monomorphization) against an explicit
//! `run_recorded::<NoopRecorder>` call and against a fully active
//! `MemoryRecorder`. `--obs-gate PCT` turns the Noop comparison into a
//! pass/fail check: exit nonzero if the explicit-Noop path is more than
//! PCT percent slower — a drift alarm for accidental de-monomorphization
//! or instrumentation leaking out of `if R::ENABLED` guards.
//!
//! `--paper-fleets` adds the paper-density rows: a Table-I fleet of `n`
//! VMs placed by `Consolidator::place` on `n / 4` PMs (d = 16, ≈ 4.4 VMs
//! per PM — the `plan_classheavy` workload of `BENCHMARK.json`), run
//! under the QUEUE policy with migrations on for [`PAPER_STEPS`] steps.
//! Unlike the dense class rows above them these report min/median/max
//! over at least five repeats, take their rates from the median, and
//! exit nonzero if any two repeats disagree on the outcome digest
//! (migrations, energy bits, violation steps). The cell kernel pays per
//! cell for two hashes and per *changed* cell for the rest, so each row
//! also carries the event rate it was measured at: cells whose ON count
//! moved and distinct PMs hosting one, per step. What the run spends
//! outside the kernel is `controller_s` (median run − kernel: the
//! violation walk, migrations, the energy sum and set-up), beside the
//! PMs over capacity per step that the violation walk visits.
//!
//! The `shared_flip_sweep` rows time the shared layout where its cost
//! depends on the input: [`SWEEP_VMS`] VMs, four to a PM on a quarter of
//! the pool, [`SWEEP_POINTS`] from the paper's bursty regime up to a coin
//! flip per step, `--sweep-steps` steps each (default 20 000; 0 skips the
//! group). A shared step is `n` draws plus work in proportion to the VMs
//! that flipped and the PMs hosting them, so each row carries both counts
//! beside its min/median/max. The binary exits nonzero if two repeats of
//! a point disagree on the outcome digest.
//!
//! Engine, paper-density, sweep and cell-kernel rows carry the commit they
//! were measured at (`--commit`, default `git describe --always --dirty`).
//! `--before PATH` copies an earlier output file's paper-density, sweep
//! and cell-kernel rows and the engine rows of the layouts this run
//! measures in front of this run's, which
//! is how the checked-in file carries before/after pairs: this source
//! builds against the parent commit too (it uses the public API only).
//!
//! `--pair-against BINARY` adds the `paired` section: this binary and
//! `BINARY` (this source built at another commit, named by
//! `--pair-label`) run as child processes `--pairs` times (default 10),
//! alternating which goes first, each child measuring the paper-density
//! and sweep rows of this invocation. A row of the section compares one
//! measurement across the pairs: the children's `secs_median` as
//! quartiles per side, the pairs this side won, and — the binary exits
//! nonzero otherwise — one outcome digest across all `2·P` children.

use bursty_bench::quartiles;
use bursty_core::prelude::*;
use bursty_core::sim::bench_api::{class_occupancy, ClassCoreBench};
use bursty_core::sim::rng::{class_cell_key, class_hash, keyed_binomial};
use bursty_core::workload::classes::VmClass;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use std::time::Instant;

struct EngineRow {
    n: usize,
    layout: &'static str,
    secs: f64,
    steps_per_sec: f64,
    vm_steps_per_sec: f64,
    /// `(occupied cells, cells touched per step, mean VMs per cell)` —
    /// present on class-heavy rows only, where the kernel's cost scales
    /// with cells rather than fleet size.
    occupancy: Option<(usize, f64, f64)>,
}

/// One paper-density measurement (see the module docs).
struct PaperRow {
    n: usize,
    m: usize,
    pms_used: usize,
    /// `(migrations, energy bits, violation steps)`, equal across repeats.
    digest: (usize, u64, usize),
    changed_cells_per_step: f64,
    dirty_pms_per_step: f64,
    repeats: usize,
    secs_min: f64,
    secs_median: f64,
    secs_max: f64,
    active_pm_steps: f64,
    kernel_secs: f64,
}

/// One `shared_flip_sweep` measurement (see the module docs).
struct SweepRow {
    p_on: f64,
    p_off: f64,
    repeats: usize,
    secs_min: f64,
    secs_median: f64,
    secs_max: f64,
    flips_per_step: f64,
    dirty_pms_per_step: f64,
    /// `(migrations, energy bits, violation steps)`, equal across repeats.
    digest: (usize, u64, usize),
}

/// Fleet of the flip sweep: `plan_traces`' size and host density.
const SWEEP_VMS: usize = 4000;
const SWEEP_VMS_PER_PM: usize = 4;

/// `(p_on, p_off)` of the sweep: Table I, the top of EXPERIMENTS.md's
/// range, and two points far outside the bursty regime.
const SWEEP_POINTS: [(f64, f64); 4] = [(0.01, 0.09), (0.05, 0.09), (0.2, 0.2), (0.5, 0.5)];

/// The sweep never reports fewer repeats than this.
const SWEEP_MIN_REPEATS: usize = 5;

/// Horizon of the paper-density rows: `plan_classheavy`'s, so the row
/// and the system benchmark describe the same run.
const PAPER_STEPS: usize = 200;

/// The paper-density rows never report fewer repeats than this.
const PAPER_MIN_REPEATS: usize = 5;

struct Args {
    steps: usize,
    fleets: Vec<usize>,
    class_fleets: Option<Vec<usize>>,
    repeats: usize,
    mapcal_d: usize,
    out: String,
    obs_gate: Option<f64>,
    class_gate: Option<f64>,
    paper_fleets: Vec<usize>,
    sweep_steps: usize,
    before: Option<String>,
    commit: Option<String>,
    /// `(other binary, its commit label, pairs)`.
    pair: Option<(String, String, usize)>,
}

/// A comma-separated list of fleet sizes.
fn parse_sizes(value: &str, flag: &str) -> Vec<usize> {
    value
        .split(',')
        .map(|s| s.trim().parse().expect(flag))
        .collect()
}

fn parse_args() -> Args {
    let mut steps = 200usize;
    let mut fleets = vec![800usize];
    let mut class_fleets: Option<Vec<usize>> = None;
    let mut repeats = 3usize;
    let mut mapcal_d = 200usize;
    let mut out = "BENCH_engine.json".to_string();
    let mut obs_gate: Option<f64> = None;
    let mut class_gate: Option<f64> = None;
    let mut paper_fleets: Vec<usize> = Vec::new();
    let mut sweep_steps = 20_000usize;
    let mut before: Option<String> = None;
    let mut commit: Option<String> = None;
    let (mut pair_against, mut pair_label, mut pairs) = (None, None, 10usize);
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1).unwrap_or_else(|| {
            eprintln!("missing value for {}", args[i]);
            std::process::exit(2);
        });
        match args[i].as_str() {
            "--steps" => steps = value.parse().expect("--steps"),
            "--fleets" => fleets = parse_sizes(value, "--fleets"),
            "--class-fleets" => class_fleets = Some(parse_sizes(value, "--class-fleets")),
            "--repeats" => repeats = value.parse().expect("--repeats"),
            "--mapcal-d" => mapcal_d = value.parse().expect("--mapcal-d"),
            "--out" => out = value.clone(),
            "--obs-gate" => obs_gate = Some(value.parse().expect("--obs-gate")),
            "--class-gate" => class_gate = Some(value.parse().expect("--class-gate")),
            "--paper-fleets" => paper_fleets = parse_sizes(value, "--paper-fleets"),
            "--sweep-steps" => sweep_steps = value.parse().expect("--sweep-steps"),
            "--before" => before = Some(value.clone()),
            "--commit" => commit = Some(value.clone()),
            "--pair-against" => pair_against = Some(value.clone()),
            "--pair-label" => pair_label = Some(value.clone()),
            "--pairs" => pairs = value.parse().expect("--pairs"),
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
        i += 2;
    }
    Args {
        steps,
        fleets,
        class_fleets,
        repeats: repeats.max(1),
        mapcal_d,
        out,
        obs_gate,
        class_gate,
        paper_fleets,
        sweep_steps,
        before,
        commit,
        pair: pair_against.map(|bin| {
            let label = pair_label.expect("--pair-against needs --pair-label");
            (bin, label, pairs.max(1))
        }),
    }
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

/// `(migrations, energy bits, violation steps)`: what two repeats of one
/// seeded run must agree on.
fn outcome_digest(out: &SimOutcome) -> (usize, u64, usize) {
    (
        out.total_migrations(),
        out.energy_joules.to_bits(),
        out.total_violation_steps,
    )
}

/// `(min, median, max)` of a row's repeat timings.
fn min_median_max(mut secs: Vec<f64>) -> (f64, f64, f64) {
    secs.sort_by(f64::total_cmp);
    (secs[0], secs[secs.len() / 2], secs[secs.len() - 1])
}

/// `(cells whose ON count moved, distinct PMs hosting one)` per step of
/// the kernel run: the class layout's cells and draws rebuilt from its
/// public stream functions (one cell per `(PM, class)`, counters
/// `2·step` and `2·step + 1` of the cell's keyed stream), counted.
fn class_event_rates(
    vms: &[VmSpec],
    host: &[Option<usize>],
    seed: u64,
    steps: usize,
) -> (f64, f64) {
    // (pm, class key) → (members, p_on, p_off); a BTreeMap keeps each
    // PM's cells adjacent, which is all the PM count below needs.
    let mut members: std::collections::BTreeMap<(usize, [u64; 4]), (u32, f64, f64)> =
        std::collections::BTreeMap::new();
    for (vm, pm) in vms.iter().zip(host) {
        let pm = pm.expect("paper-density placement is complete");
        members
            .entry((pm, VmClass::of(vm).key()))
            .or_insert((0, vm.p_on, vm.p_off))
            .0 += 1;
    }
    // (pm, stream key, members, ON count, p_on, p_off) per cell.
    let mut cells: Vec<(usize, u64, u32, u32, f64, f64)> = members
        .into_iter()
        .map(|((pm, class), (count, p_on, p_off))| {
            let key = class_cell_key(seed, pm as u64, class_hash(class));
            (pm, key, count, 0, p_on, p_off)
        })
        .collect();
    let (mut changed, mut dirty_pms) = (0usize, 0usize);
    for step in 0..steps as u64 {
        let mut last_dirty = usize::MAX;
        for (pm, key, count, n_on, p_on, p_off) in &mut cells {
            let out = keyed_binomial(*key, 2 * step, *n_on, *p_off);
            let inn = keyed_binomial(*key, 2 * step + 1, *count - *n_on, *p_on);
            if out != inn {
                *n_on = *n_on - out + inn;
                changed += 1;
                if *pm != last_dirty {
                    last_dirty = *pm;
                    dirty_pms += 1;
                }
            }
        }
    }
    (
        changed as f64 / steps as f64,
        dirty_pms as f64 / steps as f64,
    )
}

/// One paper-density row at fleet size `n`; exits nonzero when two
/// repeats of the same seeded run disagree on the outcome digest.
fn paper_row(n: usize, repeats: usize) -> PaperRow {
    let mut gen = FleetGenerator::new(1);
    let vms = gen.vms_table_i(n, WorkloadPattern::EqualSpike);
    let pms = gen.pms((n / 4).max(1));
    let consolidator = Consolidator::new(Scheme::Queue);
    let placement = consolidator
        .place(&vms, &pms)
        .expect("paper-density placement");
    let cfg = SimConfig {
        steps: PAPER_STEPS,
        seed: 1,
        migrations_enabled: true,
        rng_layout: RngLayout::ClassAggregated,
        threads: 1,
        ..Default::default()
    };
    let repeats = repeats.max(PAPER_MIN_REPEATS);
    let mut secs: Vec<f64> = Vec::with_capacity(repeats);
    let mut digests: Vec<(usize, u64, usize)> = Vec::with_capacity(repeats);
    let mut active_pm_steps = 0.0;
    for _ in 0..repeats {
        let start = Instant::now();
        let out = consolidator.simulate(&vms, &pms, &placement, cfg);
        secs.push(start.elapsed().as_secs_f64());
        digests.push(outcome_digest(&out));
        active_pm_steps = out.pms_used_series.values.iter().sum();
    }
    if digests.iter().any(|d| *d != digests[0]) {
        eprintln!("FAIL: paper-density n={n}: repeats disagree on the digest: {digests:?}");
        std::process::exit(1);
    }
    let (secs_min, secs_median, secs_max) = min_median_max(secs);
    // The cell kernel alone over the same placement and horizon: what is
    // left of the run is controller, bookkeeping and set-up.
    let mut kernel = ClassCoreBench::new(&vms, pms.len(), &placement.assignment, 1, 1, true);
    let kernel_secs = best_secs(repeats, || {
        let mut acc = 0.0;
        for _ in 0..PAPER_STEPS {
            acc += kernel.step();
        }
        acc
    });
    let (changed_cells_per_step, dirty_pms_per_step) =
        class_event_rates(&vms, &placement.assignment, 1, PAPER_STEPS);
    PaperRow {
        n,
        m: pms.len(),
        pms_used: placement.pms_used(),
        digest: digests[0],
        changed_cells_per_step,
        dirty_pms_per_step,
        repeats,
        secs_min,
        secs_median,
        secs_max,
        active_pm_steps,
        kernel_secs,
    }
}

/// One flip-sweep row at `(p_on, p_off)`; exits nonzero when two
/// repeats of the same seeded run disagree on the outcome digest.
fn sweep_row(p_on: f64, p_off: f64, steps: usize, repeats: usize) -> SweepRow {
    let n = SWEEP_VMS;
    // Demand 10 OFF, 20 ON on capacity 75: a PM violates only with all
    // four tenants ON, so the violation count moves with the point.
    let vms: Vec<VmSpec> = (0..n)
        .map(|i| VmSpec::new(i, p_on, p_off, 10.0, 10.0))
        .collect();
    let pms: Vec<PmSpec> = (0..n).map(|j| PmSpec::new(j, 75.0)).collect();
    let placement = Placement {
        assignment: (0..n).map(|i| Some(i / SWEEP_VMS_PER_PM)).collect(),
        n_pms: n,
    };
    let consolidator = Consolidator::new(Scheme::Queue);
    // Migrations off, as in `plan_traces`: the placement stays put, so
    // the flip and dirty-PM counts below describe every step of the run.
    let cfg = SimConfig {
        steps,
        seed: 1,
        migrations_enabled: false,
        rng_layout: RngLayout::Shared,
        ..Default::default()
    };
    let repeats = repeats.max(SWEEP_MIN_REPEATS);
    let mut secs: Vec<f64> = Vec::with_capacity(repeats);
    let mut digests: Vec<(usize, u64, usize)> = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        let start = Instant::now();
        let out = consolidator.simulate(&vms, &pms, &placement, cfg);
        secs.push(start.elapsed().as_secs_f64());
        digests.push(outcome_digest(&out));
    }
    if digests.iter().any(|d| *d != digests[0]) {
        eprintln!(
            "FAIL: flip sweep ({p_on}, {p_off}): repeats disagree on the digest: {digests:?}"
        );
        std::process::exit(1);
    }
    let (secs_min, secs_median, secs_max) = min_median_max(secs);
    // The same chains off the same stream (the shared layout draws once
    // per VM per step, in VM order), counted: VMs that switched state,
    // and distinct PMs hosting one.
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut on = vec![false; n];
    let mut last_dirty = vec![usize::MAX; n / SWEEP_VMS_PER_PM];
    let (mut flips, mut dirty_pms) = (0usize, 0usize);
    for step in 0..steps {
        for (i, state) in on.iter_mut().enumerate() {
            if rng.gen::<f64>() < if *state { p_off } else { p_on } {
                *state = !*state;
                flips += 1;
                let pm = &mut last_dirty[i / SWEEP_VMS_PER_PM];
                if *pm != step {
                    *pm = step;
                    dirty_pms += 1;
                }
            }
        }
    }
    SweepRow {
        p_on,
        p_off,
        repeats,
        secs_min,
        secs_median,
        secs_max,
        flips_per_step: flips as f64 / steps as f64,
        dirty_pms_per_step: dirty_pms as f64 / steps as f64,
        digest: digests[0],
    }
}

/// The value of `"name": value` in a one-line JSON row.
fn field<'a>(row: &'a str, name: &str) -> &'a str {
    let open = format!("\"{name}\": ");
    let from = row.find(&open).expect("row has the field") + open.len();
    let len = row[from..].find([',', '}']).expect("field ends");
    &row[from..from + len]
}

/// The `paired` rows (module docs): this binary against `other`,
/// alternating, one row per paper-density fleet and per sweep point.
fn paired_rows(
    commit: &str,
    (other, other_label, pairs): &(String, String, usize),
    paper_fleets: &[usize],
    sweep_steps: usize,
) -> Vec<String> {
    let bins = [
        std::env::current_exe().expect("own path"),
        other.as_str().into(),
    ];
    let tmp = std::env::temp_dir().join(format!("engine-bench-pair-{}.json", std::process::id()));
    let tmp = tmp.to_str().expect("utf-8 temp path");
    let mut child_args = format!(
        "--steps 20 --fleets 800 --class-fleets 2000 --repeats 1 --mapcal-d 20 --commit pair \
         --sweep-steps {sweep_steps}"
    );
    if !paper_fleets.is_empty() {
        let sizes: Vec<String> = paper_fleets.iter().map(usize::to_string).collect();
        child_args += &format!(" --paper-fleets {}", sizes.join(","));
    }
    // Measurement → (per-side child timings in pair order, digests seen).
    type Sides = ([Vec<f64>; 2], Vec<String>);
    let mut measured: std::collections::BTreeMap<String, Sides> = Default::default();
    for pair in 0..*pairs {
        for side in if pair % 2 == 0 { [0, 1] } else { [1, 0] } {
            let status = std::process::Command::new(&bins[side])
                .args(child_args.split(' '))
                .args(["--out", tmp])
                .stderr(std::process::Stdio::null())
                .status()
                .expect("spawn the paired binary");
            assert!(status.success(), "{:?} failed", bins[side]);
            for section in ["paper_density", "shared_flip_sweep"] {
                for row in bursty_bench::section_rows_led_by_commit(tmp, section) {
                    let what = if section == "paper_density" {
                        format!("\"n\": {}", field(&row, "n"))
                    } else {
                        let (p_on, p_off) = (field(&row, "p_on"), field(&row, "p_off"));
                        format!("\"p_on\": {p_on}, \"p_off\": {p_off}")
                    };
                    let entry = measured
                        .entry(format!("\"section\": \"{section}\", {what}"))
                        .or_default();
                    entry.0[side].push(field(&row, "secs_median").parse().expect("seconds"));
                    entry.1.push(format!(
                        "{} {} {}",
                        field(&row, "migrations"),
                        field(&row, "energy_bits"),
                        field(&row, "violation_steps")
                    ));
                }
            }
        }
        eprintln!("  pair {} of {pairs} against {other_label} done", pair + 1);
    }
    let _ = std::fs::remove_file(tmp);
    measured
        .into_iter()
        .map(|(what, ([ours, theirs], digests))| {
            if digests.iter().any(|d| *d != digests[0]) {
                eprintln!("FAIL: paired {what}: children disagree on the digest: {digests:?}");
                std::process::exit(1);
            }
            let won = ours.iter().zip(&theirs).filter(|(a, b)| a < b).count();
            let (q, against_q) = (quartiles(&ours), quartiles(&theirs));
            eprintln!(
                "  paired {what}: {:.4} [{:.4}, {:.4}] s against {:.4} [{:.4}, {:.4}] s \
                 ({:.2}x), {won} of {pairs} pairs",
                q[1],
                q[0],
                q[2],
                against_q[1],
                against_q[0],
                against_q[2],
                against_q[1] / q[1]
            );
            format!(
                "{{\"commit\": \"{commit}\", \"against\": \"{other_label}\", {what}, \
                 \"pairs\": {pairs}, \"pairs_won\": {won}, \
                 \"secs_q1_median_q3\": [{:.6}, {:.6}, {:.6}], \
                 \"against_secs_q1_median_q3\": [{:.6}, {:.6}, {:.6}], \
                 \"speedup\": {:.3}, \"digests_identical\": true}}",
                q[0],
                q[1],
                q[2],
                against_q[0],
                against_q[1],
                against_q[2],
                against_q[1] / q[1]
            )
        })
        .collect()
}

fn main() {
    let Args {
        steps,
        fleets,
        class_fleets,
        repeats,
        mapcal_d,
        out: out_path,
        obs_gate,
        class_gate,
        paper_fleets,
        sweep_steps,
        before,
        commit,
        pair,
    } = parse_args();
    let class_fleets = class_fleets.unwrap_or_else(|| fleets.clone());
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    eprintln!(
        "engine-bench: {steps} steps, fleets {fleets:?}, class fleets {class_fleets:?}, \
         {repeats} repeats, {cores} cores"
    );

    let mut rows: Vec<EngineRow> = Vec::new();
    for &n in &fleets {
        let mut gen = FleetGenerator::new(n as u64);
        let vms = gen.vms(n, WorkloadPattern::EqualSpike);
        let pms = gen.pms(n);
        let consolidator = Consolidator::new(Scheme::Queue);
        let placement = consolidator.place(&vms, &pms).expect("placement");
        let secs = best_secs(repeats, || {
            let cfg = SimConfig {
                steps,
                seed: 1,
                migrations_enabled: true,
                ..Default::default()
            };
            consolidator
                .simulate(&vms, &pms, &placement, cfg)
                .final_pms_used
        });
        eprintln!(
            "  n={n} shared: {secs:.4}s ({:.0} steps/s)",
            steps as f64 / secs
        );
        rows.push(EngineRow {
            n,
            layout: "shared",
            secs,
            steps_per_sec: steps as f64 / secs,
            vm_steps_per_sec: (steps * n) as f64 / secs,
            occupancy: None,
        });
    }

    // Class-heavy fleets: the Table-I mix (three distinct classes) on a
    // pool of big hosts (d = 256, ~200 VMs per PM). The class-aggregated
    // layout collapses each PM to at most one binomial ON-counter per
    // class, so its evolution cost scales with occupied cells (~ PMs ×
    // classes) rather than fleet size — hundreds of same-class VMs per
    // counter is exactly the shape dense consolidation produces, and
    // these rows pin the resulting ratio against the shared layout on
    // the *same* fleet and placement. A separate fleet list because the
    // class path scales to fleet sizes (10^6) the distinct-fleet rows
    // cannot reach in bench time.
    let cell_n = class_fleets.iter().copied().max().unwrap_or(10_000);
    let mut cell_assignment: Vec<Option<usize>> = Vec::new();
    let mut cell_m = 1usize;
    for &n in &class_fleets {
        let mut gen = FleetGenerator::new(n as u64);
        let vms = gen.vms_table_i(n, WorkloadPattern::EqualSpike);
        let m = (n / 200).max(1);
        let pms: Vec<PmSpec> = (0..m).map(|j| PmSpec::new(j, 4000.0)).collect();
        let consolidator = Consolidator::new(Scheme::Queue).with_d(256);
        let placement = consolidator
            .place(&vms, &pms)
            .expect("class-heavy placement");
        let (occupied_cells, mean_cell_n) = class_occupancy(&vms, m, &placement.assignment);
        let occupancy = Some((occupied_cells, occupied_cells as f64, mean_cell_n));
        if n == cell_n {
            cell_assignment = placement.assignment.clone();
            cell_m = m;
        }
        eprintln!("  n={n} m={m}: {occupied_cells} occupied cells, {mean_cell_n:.1} VMs/cell");
        // `class_aggregated_cached` is the class layout as the engine
        // runs it, on the memoized tables; the name is the one earlier
        // reports used for it.
        let cases: [(&'static str, RngLayout); 2] = [
            ("shared_classheavy", RngLayout::Shared),
            ("class_aggregated_cached", RngLayout::ClassAggregated),
        ];
        for (layout, rng_layout) in cases {
            let secs = best_secs(repeats, || {
                let cfg = SimConfig {
                    steps,
                    seed: 1,
                    migrations_enabled: true,
                    rng_layout,
                    threads: 1,
                    ..Default::default()
                };
                consolidator
                    .simulate(&vms, &pms, &placement, cfg)
                    .final_pms_used
            });
            eprintln!(
                "  n={n} {layout}: {secs:.4}s ({:.0} steps/s)",
                steps as f64 / secs
            );
            rows.push(EngineRow {
                n,
                layout,
                secs,
                steps_per_sec: steps as f64 / secs,
                vm_steps_per_sec: (steps * n) as f64 / secs,
                occupancy,
            });
        }
    }

    // Paper-density rows (module docs): the same Table-I mix at d = 16.
    let commit = bursty_bench::commit_label(commit);
    let paper_rows: Vec<PaperRow> = paper_fleets
        .iter()
        .map(|&n| {
            let r = paper_row(n, repeats);
            eprintln!(
                "  paper density n={n} m={}: {} PMs used, {} migrations, \
                 {:.4}/{:.4}/{:.4}s min/median/max ({:.3e} vm·steps/s, kernel share {:.2}, \
                 controller {:.4}s), {:.1} changed cells, {:.1} dirty PMs and {:.1} PMs over \
                 capacity per step",
                r.m,
                r.pms_used,
                r.digest.0,
                r.secs_min,
                r.secs_median,
                r.secs_max,
                (PAPER_STEPS * n) as f64 / r.secs_median,
                r.kernel_secs / r.secs_median,
                r.secs_median - r.kernel_secs,
                r.changed_cells_per_step,
                r.dirty_pms_per_step,
                r.digest.2 as f64 / PAPER_STEPS as f64
            );
            r
        })
        .collect();

    let sweep_rows: Vec<SweepRow> = if sweep_steps == 0 {
        Vec::new()
    } else {
        SWEEP_POINTS
            .iter()
            .map(|&(p_on, p_off)| {
                let r = sweep_row(p_on, p_off, sweep_steps, repeats);
                eprintln!(
                    "  flip sweep ({p_on}, {p_off}): {:.4}/{:.4}/{:.4}s min/median/max \
                     ({:.3e} vm·steps/s), {:.1} flips and {:.1} dirty PMs per step",
                    r.secs_min,
                    r.secs_median,
                    r.secs_max,
                    (sweep_steps * SWEEP_VMS) as f64 / r.secs_median,
                    r.flips_per_step,
                    r.dirty_pms_per_step
                );
                r
            })
            .collect()
    };

    // Raw cell-kernel microbenchmark: the class-aggregated evolution
    // pass alone — controller, policies and demand bookkeeping stripped
    // away — stepped over the largest class fleet with the walk sampler
    // and with the memoized tables, on the same QueuingFFD placement the
    // class rows ran (so the cell density matches the engine regime).
    // `cell_steps_per_sec` is the kernel-native unit (cells touched per
    // second); `vm_steps_per_sec` is the fleet-facing one the headline
    // targets quote.
    let cell_vms = {
        let mut gen = FleetGenerator::new(cell_n as u64);
        gen.vms_table_i(cell_n, WorkloadPattern::EqualSpike)
    };
    if cell_assignment.is_empty() {
        // No class fleets ran (empty --class-fleets): fall back to a
        // round-robin spread so the section still reports.
        cell_m = (cell_n / 200).max(1);
        cell_assignment = (0..cell_n).map(|i| Some(i % cell_m)).collect();
    }
    let kernel =
        |cached: bool| ClassCoreBench::new(&cell_vms, cell_m, &cell_assignment, 1, 1, cached);
    // The tables memoize the walk: the two kernels must agree to the bit
    // on every step, or the walk row times a different computation.
    let (mut walk_bench, mut cached_bench) = (kernel(false), kernel(true));
    for step in 0..steps {
        let (walk, cached) = (walk_bench.step(), cached_bench.step());
        if walk.to_bits() != cached.to_bits() {
            eprintln!(
                "FAIL: cached sampler diverged from the walk at n={cell_n}, step {step}: \
                 PM 0 demand {walk} (walk) vs {cached} (cached)"
            );
            std::process::exit(1);
        }
    }
    let mut walk_bench = kernel(false);
    let cell_walk_secs = best_secs(repeats, || {
        let mut acc = 0.0;
        for _ in 0..steps {
            acc += walk_bench.step();
        }
        acc
    });
    let mut cached_bench = kernel(true);
    let cell_cached_secs = best_secs(repeats, || {
        let mut acc = 0.0;
        for _ in 0..steps {
            acc += cached_bench.step();
        }
        acc
    });
    let cell_occupied = cached_bench.occupied_cells();
    let (cache_hits, cache_misses, cache_evictions) = cached_bench.cache_stats();
    let cache_hit_rate = cache_hits as f64 / (cache_hits + cache_misses).max(1) as f64;
    let cell_walk_vmsps = (steps * cell_n) as f64 / cell_walk_secs;
    let cell_cached_vmsps = (steps * cell_n) as f64 / cell_cached_secs;
    eprintln!(
        "  cell kernel n={cell_n} ({cell_occupied} cells): walk {cell_walk_secs:.4}s \
         ({cell_walk_vmsps:.3e} vm·steps/s) vs cached {cell_cached_secs:.4}s \
         ({cell_cached_vmsps:.3e} vm·steps/s, {:.2}x, hit rate {:.4})",
        cell_walk_secs / cell_cached_secs,
        cache_hit_rate
    );

    // Observability overhead: run() is the NoopRecorder monomorphization,
    // so run() vs run_recorded::<NoopRecorder> is an A/A comparison that
    // measures pure noise unless zero-cost dispatch has regressed; the
    // MemoryRecorder row shows what turning everything on actually costs.
    let obs_n = fleets.iter().copied().max().unwrap_or(800);
    let (obs_vms, obs_pms, obs_placement) = {
        let mut gen = FleetGenerator::new(obs_n as u64);
        let vms = gen.vms(obs_n, WorkloadPattern::EqualSpike);
        let pms = gen.pms(obs_n);
        let placement = Consolidator::new(Scheme::Queue)
            .place(&vms, &pms)
            .expect("placement");
        (vms, pms, placement)
    };
    let obs_cfg = SimConfig {
        steps,
        seed: 1,
        migrations_enabled: true,
        ..Default::default()
    };
    let obs_consolidator = Consolidator::new(Scheme::Queue);
    let obs_noop = best_secs(repeats, || {
        obs_consolidator
            .simulate(&obs_vms, &obs_pms, &obs_placement, obs_cfg)
            .final_pms_used
    });
    let obs_noop_explicit = best_secs(repeats, || {
        let mut rec = NoopRecorder;
        obs_consolidator
            .simulate_recorded(&obs_vms, &obs_pms, &obs_placement, obs_cfg, &mut rec)
            .final_pms_used
    });
    let obs_memory = best_secs(repeats, || {
        let mut rec = MemoryRecorder::new(65_536).with_cvr_sampling((steps / 100).max(1));
        obs_consolidator
            .simulate_recorded(&obs_vms, &obs_pms, &obs_placement, obs_cfg, &mut rec)
            .final_pms_used
    });
    let obs_noop_overhead_pct = (obs_noop_explicit / obs_noop - 1.0) * 100.0;
    let obs_memory_overhead_pct = (obs_memory / obs_noop - 1.0) * 100.0;
    eprintln!(
        "  obs n={obs_n}: noop {obs_noop:.4}s, explicit-noop {obs_noop_explicit:.4}s \
         ({obs_noop_overhead_pct:+.2}%), memory {obs_memory:.4}s ({obs_memory_overhead_pct:+.2}%)"
    );

    // MapCal stationary build: every aggregate size 1..=d, exactly the
    // loop MappingTable::build drives through reservation().
    let mapcal_closed = best_secs(repeats, || {
        (1..=mapcal_d)
            .map(|k| AggregateChain::new(k, 0.01, 0.09).stationary()[0])
            .sum::<f64>()
    });
    let mapcal_gauss = best_secs(1, || {
        (1..=mapcal_d)
            .map(|k| {
                AggregateChain::new(k, 0.01, 0.09)
                    .stationary_by_solver()
                    .unwrap()[0]
            })
            .sum::<f64>()
    });
    eprintln!(
        "  mapcal d={mapcal_d}: closed {mapcal_closed:.4}s vs gaussian {mapcal_gauss:.4}s \
         ({:.0}x)",
        mapcal_gauss / mapcal_closed
    );

    let speedup_of = |n: usize, a: &str, b: &str| -> f64 {
        let secs = |layout: &str| {
            rows.iter()
                .find(|r| r.n == n && r.layout == layout)
                .map(|r| r.secs)
                .unwrap_or(f64::NAN)
        };
        secs(a) / secs(b)
    };

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"generated_by\": \"engine-bench\",");
    let _ = writeln!(json, "  \"available_parallelism\": {cores},");
    let _ = writeln!(json, "  \"commit\": \"{commit}\",");
    let _ = writeln!(
        json,
        "  \"config\": {{\"steps\": {steps}, \"repeats\": {repeats}, \"seed\": 1}},"
    );
    // Rows of an earlier file that go in front of this run's, per
    // section. One row per line, each led by its commit: `--before`
    // re-reads exactly these lines.
    let before_rows = |section: &str| match &before {
        Some(path) => bursty_bench::section_rows_led_by_commit(path, section),
        None => Vec::new(),
    };
    let push_section = |json: &mut String, section: &str, lines: &[String]| {
        let _ = writeln!(json, "  \"{section}\": [");
        for (i, line) in lines.iter().enumerate() {
            let _ = writeln!(
                json,
                "    {line}{}",
                if i + 1 < lines.len() { "," } else { "" }
            );
        }
        json.push_str("  ],\n");
    };
    // Of the earlier engine rows, those of a layout this run measures
    // are kept: each row then has its before/after pair.
    let mut lines = before_rows("engine");
    lines.retain(|l| {
        rows.iter()
            .any(|r| l.contains(&format!("\"layout\": \"{}\"", r.layout)))
    });
    for r in &rows {
        let mut line = format!(
            "{{\"commit\": \"{commit}\", \"n\": {}, \"layout\": \"{}\", \"threads\": 1, \
             \"secs\": {:.6}, \"steps_per_sec\": {:.1}, \"vm_steps_per_sec\": {:.1}",
            r.n, r.layout, r.secs, r.steps_per_sec, r.vm_steps_per_sec
        );
        if let Some((cells, cells_per_step, mean_n)) = r.occupancy {
            let _ = write!(
                line,
                ", \"occupied_cells\": {cells}, \"cells_per_step\": {cells_per_step:.1}, \
                 \"mean_cell_n\": {mean_n:.2}"
            );
        }
        line.push('}');
        lines.push(line);
    }
    push_section(&mut json, "engine", &lines);
    json.push_str("  \"speedups\": {\n");
    let mut class_ns = class_fleets.clone();
    class_ns.sort_unstable();
    class_ns.dedup();
    for (i, &n) in class_ns.iter().enumerate() {
        let _ = write!(
            json,
            "    \"n{n}\": {{\"class_cached_over_shared_classheavy\": {:.3}}}",
            speedup_of(n, "shared_classheavy", "class_aggregated_cached")
        );
        json.push_str(if i + 1 < class_ns.len() { ",\n" } else { "\n" });
    }
    json.push_str("  },\n");
    let mut lines = before_rows("paper_density");
    if !paper_rows.is_empty() || !lines.is_empty() {
        for r in &paper_rows {
            lines.push(format!(
                "{{\"commit\": \"{commit}\", \"available_parallelism\": {cores}, \
                 \"n\": {}, \"m\": {}, \"pms_used\": {}, \"steps\": {PAPER_STEPS}, \
                 \"migrations\": {}, \"repeats\": {}, \"secs_min\": {:.6}, \
                 \"secs_median\": {:.6}, \"secs_max\": {:.6}, \"rates_from\": \"secs_median\", \
                 \"vm_steps_per_sec\": {:.1}, \"ns_per_pm_step\": {:.2}, \
                 \"kernel_secs\": {:.6}, \"kernel_share\": {:.3}, \"controller_s\": {:.6}, \
                 \"changed_cells_per_step\": {:.2}, \"dirty_pms_per_step\": {:.2}, \
                 \"over_pms_per_step\": {:.2}, \
                 \"energy_bits\": \"{:016x}\", \"violation_steps\": {}}}",
                r.n,
                r.m,
                r.pms_used,
                r.digest.0,
                r.repeats,
                r.secs_min,
                r.secs_median,
                r.secs_max,
                (PAPER_STEPS * r.n) as f64 / r.secs_median,
                r.secs_median * 1e9 / r.active_pm_steps,
                r.kernel_secs,
                r.kernel_secs / r.secs_median,
                r.secs_median - r.kernel_secs,
                r.changed_cells_per_step,
                r.dirty_pms_per_step,
                r.digest.2 as f64 / PAPER_STEPS as f64,
                r.digest.1,
                r.digest.2
            ));
        }
        push_section(&mut json, "paper_density", &lines);
    }
    let mut lines = before_rows("shared_flip_sweep");
    if !sweep_rows.is_empty() || !lines.is_empty() {
        for r in &sweep_rows {
            lines.push(format!(
                "{{\"commit\": \"{commit}\", \"available_parallelism\": {cores}, \
                 \"n\": {SWEEP_VMS}, \"m\": {SWEEP_VMS}, \"pms_used\": {}, \
                 \"steps\": {sweep_steps}, \"p_on\": {}, \"p_off\": {}, \"repeats\": {}, \
                 \"secs_min\": {:.6}, \"secs_median\": {:.6}, \"secs_max\": {:.6}, \
                 \"rates_from\": \"secs_median\", \"vm_steps_per_sec\": {:.1}, \
                 \"us_per_step\": {:.3}, \"flips_per_step\": {:.2}, \
                 \"dirty_pms_per_step\": {:.2}, \"migrations\": {}, \
                 \"energy_bits\": \"{:016x}\", \"violation_steps\": {}}}",
                SWEEP_VMS / SWEEP_VMS_PER_PM,
                r.p_on,
                r.p_off,
                r.repeats,
                r.secs_min,
                r.secs_median,
                r.secs_max,
                (sweep_steps * SWEEP_VMS) as f64 / r.secs_median,
                r.secs_median * 1e6 / sweep_steps as f64,
                r.flips_per_step,
                r.dirty_pms_per_step,
                r.digest.0,
                r.digest.1,
                r.digest.2
            ));
        }
        push_section(&mut json, "shared_flip_sweep", &lines);
    }
    let mut lines = before_rows("paired");
    if let Some(pair) = &pair {
        lines.extend(paired_rows(&commit, pair, &paper_fleets, sweep_steps));
    }
    if !lines.is_empty() {
        push_section(&mut json, "paired", &lines);
    }
    let mut lines = before_rows("cell_kernel");
    lines.push(format!(
        "{{\"commit\": \"{commit}\", \"available_parallelism\": {cores}, \
         \"n\": {cell_n}, \"m\": {cell_m}, \
         \"occupied_cells\": {cell_occupied}, \"steps\": {steps}, \
         \"walk_secs\": {cell_walk_secs:.6}, \"cached_secs\": {cell_cached_secs:.6}, \
         \"speedup\": {:.3}, \
         \"walk_vm_steps_per_sec\": {cell_walk_vmsps:.1}, \
         \"cached_vm_steps_per_sec\": {cell_cached_vmsps:.1}, \
         \"walk_cell_steps_per_sec\": {:.1}, \
         \"cached_cell_steps_per_sec\": {:.1}, \
         \"cache\": {{\"hits\": {cache_hits}, \"misses\": {cache_misses}, \
         \"evictions\": {cache_evictions}, \"hit_rate\": {cache_hit_rate:.6}}}}}",
        cell_walk_secs / cell_cached_secs,
        (steps * cell_occupied) as f64 / cell_walk_secs,
        (steps * cell_occupied) as f64 / cell_cached_secs
    ));
    push_section(&mut json, "cell_kernel", &lines);
    let _ = writeln!(
        json,
        "  \"obs\": {{\"n\": {obs_n}, \"noop_secs\": {obs_noop:.6}, \
         \"noop_recorded_secs\": {obs_noop_explicit:.6}, \"memory_secs\": {obs_memory:.6}, \
         \"noop_overhead_pct\": {obs_noop_overhead_pct:.2}, \
         \"memory_overhead_pct\": {obs_memory_overhead_pct:.2}}},"
    );
    let _ = writeln!(
        json,
        "  \"mapcal\": {{\"d\": {mapcal_d}, \"closed_form_secs\": {mapcal_closed:.6}, \
         \"gaussian_secs\": {mapcal_gauss:.6}, \"speedup\": {:.1}}}",
        mapcal_gauss / mapcal_closed
    );
    json.push_str("}\n");

    std::fs::write(&out_path, &json).expect("write BENCH_engine.json");
    eprintln!("wrote {out_path}");

    if let Some(gate) = obs_gate {
        if obs_noop_overhead_pct > gate {
            eprintln!(
                "FAIL: NoopRecorder overhead {obs_noop_overhead_pct:.2}% exceeds the \
                 --obs-gate {gate}% budget"
            );
            std::process::exit(1);
        }
        eprintln!("obs gate: NoopRecorder overhead {obs_noop_overhead_pct:+.2}% <= {gate}%");
    }

    // Throughput regression gate for the memoized-table kernel: the
    // cached class layout must beat the shared layout on the largest
    // class fleet by at least the given factor, end to end (controller
    // included) — catches both a sampler regression and a cache that
    // stopped hitting.
    if let Some(gate) = class_gate {
        let n = class_fleets.iter().copied().max().unwrap_or(0);
        let speedup = speedup_of(n, "shared_classheavy", "class_aggregated_cached");
        // NaN (missing rows) must fail the gate, not slip past it.
        if speedup.is_nan() || speedup < gate {
            eprintln!(
                "FAIL: class_aggregated_cached speedup {speedup:.2}x over shared_classheavy \
                 at n={n} is below the --class-gate {gate}x floor"
            );
            std::process::exit(1);
        }
        eprintln!("class gate: cached speedup {speedup:.2}x >= {gate}x at n={n}");
    }
}
