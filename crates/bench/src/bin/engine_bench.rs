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
//! location for one compare and per *drawn* cell for the rest (a jump
//! at a sparse cell's change, a binomial pair at each step of a dense
//! one), so each row also carries the event rate it was measured at:
//! cells whose ON count moved under the per-step binomial pair (rebuilt
//! here from the public stream functions) and distinct PMs hosting one,
//! and the cells the kernel drew for (`events_per_step`), per step.
//! The `cell_kernel` section has a dense row (the largest class fleet,
//! every cell dense) and, with `--paper-fleets`, a sparse one (the
//! largest paper-density fleet), each the walk oracle against the
//! kernel with the quartiles of its repeats. What the run spends
//! outside the kernel is `controller_s` (median run − kernel: the
//! violation walk, migrations, the energy sum and set-up), beside the
//! PMs over capacity per step that the violation walk visits. On Linux
//! a row also carries `hwm_mib`, the process's peak resident set
//! (`VmHWM`) once the row is done: a high-water mark of the whole
//! process, so it reads one row's own peak only when nothing before it
//! held more (a run with small `--fleets` and `--class-fleets`).
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
//! Every row of a section (`engine`, `paper_density`, `shared_flip_sweep`,
//! `paired`, `cell_kernel`) is led by the commit it was measured at
//! (`--commit`, default `git describe --always --dirty`) and the host's
//! `available_parallelism`. `--before PATH` copies an earlier output
//! file's paper-density, sweep, paired and cell-kernel rows and the
//! engine rows of the layouts this run measures in front of this run's,
//! which is how the checked-in file carries before/after pairs:
//! `crates/bench/src` copied into a clone of the parent commit builds
//! there too (it uses the public API only). A flag that is not declared
//! above, given twice, without a value or with an unparsable one exits 2.
//!
//! `--pair-against BINARY` adds the `paired` section: this binary and
//! `BINARY` (this source built at another commit, named by
//! `--pair-label`) run as child processes `--pairs` times (default 10),
//! alternating which goes first, each child measuring the paper-density
//! and sweep rows of this invocation. A row of the section compares one
//! measurement across the pairs: the children's `secs_median` as
//! quartiles per side, the pairs this side won, and — the binary exits
//! nonzero otherwise — one outcome digest across all `2·P` children.

use bursty_bench::{best_secs, quartiles, row, timed, write_report, Before, Flags, Obj, ToJson};
use bursty_core::prelude::*;
use bursty_core::sim::bench_api::{class_occupancy, ClassCoreBench};
use bursty_core::sim::rng::{class_cell_key, class_hash, keyed_binomial};
use bursty_core::workload::classes::VmClass;
use bursty_server::Json;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

/// `(migrations, energy bits, violation steps)`: what two repeats of one
/// seeded run must agree on.
fn outcome_digest(out: &SimOutcome) -> (usize, u64, usize) {
    (
        out.total_migrations(),
        out.energy_joules.to_bits(),
        out.total_violation_steps,
    )
}

/// Times `repeats` runs of one seeded simulation and returns each run's
/// seconds and the last run's outcome; exits nonzero when two runs
/// disagree on the outcome digest.
fn repeated_runs(
    what: &str,
    repeats: usize,
    mut run: impl FnMut() -> SimOutcome,
) -> (Vec<f64>, SimOutcome) {
    let mut runs: Vec<(SimOutcome, f64)> = (0..repeats).map(|_| timed(&mut run)).collect();
    let digests: Vec<_> = runs.iter().map(|(out, _)| outcome_digest(out)).collect();
    if digests.iter().any(|d| *d != digests[0]) {
        eprintln!("FAIL: {what}: repeats disagree on the digest: {digests:?}");
        std::process::exit(1);
    }
    let secs = runs.iter().map(|(_, s)| *s).collect();
    (secs, runs.pop().expect("at least one repeat").0)
}

/// A row's repeat count and the min / median / max of its timings; its
/// rates come from the median.
fn with_timings(row: Obj, secs: &[f64]) -> Obj {
    let (min, max) = (f64::min, f64::max);
    row.field("repeats", secs.len())
        .field("secs_min", secs.iter().copied().fold(f64::INFINITY, min))
        .field("secs_median", quartiles(secs)[1])
        .field("secs_max", secs.iter().copied().fold(0.0, max))
        .field("rates_from", "secs_median")
}

/// The digest's energy bits as a row writes them.
fn energy_hex(bits: u64) -> String {
    format!("{bits:016x}")
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

/// One `cell_kernel` row: the walk oracle and the kernel over the same
/// placement, stepped side by side first (exits nonzero if any step's
/// output differs: the walk row would time another computation), then
/// each timed over `repeats` runs of `steps` steps on one core that
/// steps on (min as `walk_secs`/`cached_secs`, quartiles beside), with
/// the cells the kernel drew for per step.
fn cell_kernel_row(
    commit: &str,
    fleet: &str,
    vms: &[VmSpec],
    m: usize,
    assignment: &[Option<usize>],
    steps: usize,
    repeats: usize,
) -> Json {
    let n = vms.len();
    let kernel = |cached: bool| ClassCoreBench::new(vms, m, assignment, 1, 1, cached);
    let (mut walk_bench, mut cached_bench) = (kernel(false), kernel(true));
    for step in 0..steps {
        let (walk, cached) = (walk_bench.step(), cached_bench.step());
        if walk.to_bits() != cached.to_bits() {
            eprintln!(
                "FAIL: the kernel diverged from its walk at n={n} ({fleet}), step {step}: \
                 PM 0 demand {walk} (walk) vs {cached} (kernel)"
            );
            std::process::exit(1);
        }
    }
    let time = |cached: bool| {
        let mut bench = kernel(cached);
        let secs: Vec<f64> = (0..repeats.max(1))
            .map(|_| {
                timed(|| {
                    let mut acc = 0.0;
                    for _ in 0..steps {
                        acc += bench.step();
                    }
                    acc
                })
                .1
            })
            .collect();
        (secs, bench)
    };
    let (walk_secs, _) = time(false);
    let (cached_secs, cached_bench) = time(true);
    let best = |secs: &[f64]| secs.iter().copied().fold(f64::INFINITY, f64::min);
    let (walk_best, cached_best) = (best(&walk_secs), best(&cached_secs));
    let occupied = cached_bench.occupied_cells();
    let events_per_step = cached_bench.events() as f64 / (cached_secs.len() * steps) as f64;
    let (hits, misses, evictions) = cached_bench.cache_stats();
    let hit_rate = hits as f64 / (hits + misses).max(1) as f64;
    eprintln!(
        "  cell kernel ({fleet}) n={n} ({occupied} cells, {events_per_step:.1} drawn per step): \
         walk {walk_best:.4}s vs kernel {cached_best:.4}s ({:.2}x, hit rate {hit_rate:.4})",
        walk_best / cached_best
    );
    let spread = |secs: &[f64]| {
        let [q1, median, q3] = quartiles(secs);
        Obj::default()
            .field("q1", q1)
            .field("median", median)
            .field("q3", q3)
    };
    row(commit)
        .field("fleet", fleet)
        .field("n", n)
        .field("m", m)
        .field("occupied_cells", occupied)
        .field("steps", steps)
        .field("repeats", walk_secs.len())
        .field("walk_secs", walk_best)
        .field("cached_secs", cached_best)
        .field("walk_secs_spread", spread(&walk_secs))
        .field("cached_secs_spread", spread(&cached_secs))
        .field("speedup", walk_best / cached_best)
        .field("walk_vm_steps_per_sec", (steps * n) as f64 / walk_best)
        .field("cached_vm_steps_per_sec", (steps * n) as f64 / cached_best)
        .field(
            "walk_cell_steps_per_sec",
            (steps * occupied) as f64 / walk_best,
        )
        .field(
            "cached_cell_steps_per_sec",
            (steps * occupied) as f64 / cached_best,
        )
        .field("events_per_step", events_per_step)
        .field(
            "cache",
            Obj::default()
                .field("hits", hits)
                .field("misses", misses)
                .field("evictions", evictions)
                .field("hit_rate", hit_rate),
        )
        .to_json()
}

/// One paper-density row at fleet size `n`; exits nonzero when two
/// repeats of the same seeded run disagree on the outcome digest.
fn paper_row(commit: &str, n: usize, repeats: usize) -> Json {
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
    let (secs, out) = repeated_runs(&format!("paper-density n={n}"), repeats, || {
        consolidator.simulate(&vms, &pms, &placement, cfg)
    });
    let (migrations, energy_bits, violation_steps) = outcome_digest(&out);
    let active_pm_steps: f64 = out.pms_used_series.values.iter().sum();
    let median = quartiles(&secs)[1];
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
    let events_per_step = kernel.events() as f64 / (repeats * PAPER_STEPS) as f64;
    let (changed_cells_per_step, dirty_pms_per_step) =
        class_event_rates(&vms, &placement.assignment, 1, PAPER_STEPS);
    let over_pms_per_step = violation_steps as f64 / PAPER_STEPS as f64;
    let vm_steps_per_sec = (PAPER_STEPS * n) as f64 / median;
    eprintln!(
        "  paper density n={n} m={}: {} PMs used, {migrations} migrations, {median:.4}s median \
         of {repeats} ({vm_steps_per_sec:.3e} vm·steps/s, kernel share {:.2}, controller \
         {:.4}s), {changed_cells_per_step:.1} changed cells, {events_per_step:.1} cells drawn \
         for, {dirty_pms_per_step:.1} dirty PMs and {over_pms_per_step:.1} PMs over capacity \
         per step",
        pms.len(),
        placement.pms_used(),
        kernel_secs / median,
        median - kernel_secs,
    );
    let row = row(commit)
        .field("n", n)
        .field("m", pms.len())
        .field("pms_used", placement.pms_used())
        .field("steps", PAPER_STEPS)
        .field("migrations", migrations);
    let row = with_timings(row, &secs)
        .field("vm_steps_per_sec", vm_steps_per_sec)
        .field("ns_per_pm_step", median * 1e9 / active_pm_steps)
        .field("kernel_secs", kernel_secs)
        .field("kernel_share", kernel_secs / median)
        .field("controller_s", median - kernel_secs)
        .field("changed_cells_per_step", changed_cells_per_step)
        .field("events_per_step", events_per_step)
        .field("dirty_pms_per_step", dirty_pms_per_step)
        .field("over_pms_per_step", over_pms_per_step)
        .field("energy_bits", energy_hex(energy_bits))
        .field("violation_steps", violation_steps);
    match bursty_bench::peak_rss_mib() {
        Some(hwm_mib) => row.field("hwm_mib", hwm_mib),
        None => row,
    }
    .to_json()
}

/// One flip-sweep row at `(p_on, p_off)`; exits nonzero when two
/// repeats of the same seeded run disagree on the outcome digest.
fn sweep_row(commit: &str, p_on: f64, p_off: f64, steps: usize, repeats: usize) -> Json {
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
    let what = format!("flip sweep ({p_on}, {p_off})");
    let (secs, out) = repeated_runs(&what, repeats.max(SWEEP_MIN_REPEATS), || {
        consolidator.simulate(&vms, &pms, &placement, cfg)
    });
    let (migrations, energy_bits, violation_steps) = outcome_digest(&out);
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
    let median = quartiles(&secs)[1];
    let (flips_per_step, dirty_pms_per_step) =
        (flips as f64 / steps as f64, dirty_pms as f64 / steps as f64);
    let vm_steps_per_sec = (steps * n) as f64 / median;
    eprintln!(
        "  {what}: {median:.4}s median of {} ({vm_steps_per_sec:.3e} vm·steps/s), \
         {flips_per_step:.1} flips and {dirty_pms_per_step:.1} dirty PMs per step",
        secs.len()
    );
    let row = row(commit)
        .field("n", n)
        .field("m", n)
        .field("pms_used", n / SWEEP_VMS_PER_PM)
        .field("steps", steps)
        .field("p_on", p_on)
        .field("p_off", p_off);
    with_timings(row, &secs)
        .field("vm_steps_per_sec", vm_steps_per_sec)
        .field("us_per_step", median * 1e6 / steps as f64)
        .field("flips_per_step", flips_per_step)
        .field("dirty_pms_per_step", dirty_pms_per_step)
        .field("migrations", migrations)
        .field("energy_bits", energy_hex(energy_bits))
        .field("violation_steps", violation_steps)
        .to_json()
}

/// The `paired` rows (module docs): this binary against `other`,
/// alternating, one row per paper-density fleet and per sweep point.
fn paired_rows(
    commit: &str,
    (other, other_label, pairs): &(String, String, usize),
    paper_fleets: &[usize],
    sweep_steps: usize,
) -> Vec<Json> {
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
    // Per measurement (its section and point, in first-seen order): the
    // per-side child timings in pair order and the digests seen.
    let mut measured: Vec<(Json, [Vec<f64>; 2], Vec<Json>)> = Vec::new();
    for pair in 0..*pairs {
        for side in if pair % 2 == 0 { [0, 1] } else { [1, 0] } {
            let status = std::process::Command::new(&bins[side])
                .args(child_args.split(' '))
                .args(["--out", tmp])
                .stderr(std::process::Stdio::null())
                .status()
                .expect("spawn the paired binary");
            assert!(status.success(), "{:?} failed", bins[side]);
            let child = Before::load(Some(tmp));
            for (section, point) in [
                ("paper_density", &["n"][..]),
                ("shared_flip_sweep", &["p_on", "p_off"][..]),
            ] {
                for row in child.rows(section) {
                    let field = |key: &str| row.get(key).cloned().unwrap_or(Json::Null);
                    let mut what = vec![("section".to_string(), section.to_json())];
                    what.extend(point.iter().map(|&key| (key.to_string(), field(key))));
                    let what = Json::Obj(what);
                    let at = match measured.iter().position(|m| m.0 == what) {
                        Some(at) => at,
                        None => {
                            measured.push((what, Default::default(), Vec::new()));
                            measured.len() - 1
                        }
                    };
                    let secs = field("secs_median").as_f64().expect("seconds");
                    measured[at].1[side].push(secs);
                    let digest = ["migrations", "energy_bits", "violation_steps"].map(field);
                    measured[at].2.push(Json::Arr(digest.to_vec()));
                }
            }
        }
        eprintln!("  pair {} of {pairs} against {other_label} done", pair + 1);
    }
    let _ = std::fs::remove_file(tmp);
    measured
        .into_iter()
        .map(|(what, [ours, theirs], digests)| {
            let name = what.encode();
            if digests.iter().any(|d| *d != digests[0]) {
                eprintln!("FAIL: paired {name}: children disagree on the digest: {digests:?}");
                std::process::exit(1);
            }
            let won = ours.iter().zip(&theirs).filter(|(a, b)| a < b).count();
            let (q, against_q) = (quartiles(&ours), quartiles(&theirs));
            let speedup = against_q[1] / q[1];
            eprintln!(
                "  paired {name}: {:.4} [{:.4}, {:.4}] s against {:.4} [{:.4}, {:.4}] s \
                 ({speedup:.2}x), {won} of {pairs} pairs",
                q[1], q[0], q[2], against_q[1], against_q[0], against_q[2],
            );
            let mut row = row(commit).field("against", other_label.as_str());
            if let Json::Obj(point) = what {
                for (key, value) in point {
                    row.push(&key, value);
                }
            }
            row.field("pairs", *pairs)
                .field("pairs_won", won)
                .field("secs_q1_median_q3", q)
                .field("against_secs_q1_median_q3", against_q)
                .field("speedup", speedup)
                .field("digests_identical", true)
                .to_json()
        })
        .collect()
}

fn main() {
    let flags = Flags::from_env(&[
        "steps",
        "fleets",
        "class-fleets",
        "repeats",
        "mapcal-d",
        "out",
        "obs-gate",
        "class-gate",
        "paper-fleets",
        "sweep-steps",
        "before",
        "commit",
        "pair-against",
        "pair-label",
        "pairs",
    ]);
    let steps: usize = flags.get("steps").unwrap_or(200);
    let fleets = flags.list("fleets").unwrap_or_else(|| vec![800]);
    let class_fleets = flags.list("class-fleets").unwrap_or_else(|| fleets.clone());
    let repeats = flags.get("repeats").unwrap_or(3usize).max(1);
    let mapcal_d: usize = flags.get("mapcal-d").unwrap_or(200);
    let out: String = flags
        .get("out")
        .unwrap_or_else(|| "BENCH_engine.json".into());
    let obs_gate: Option<f64> = flags.get("obs-gate");
    let class_gate: Option<f64> = flags.get("class-gate");
    let paper_fleets = flags.list("paper-fleets").unwrap_or_default();
    let sweep_steps: usize = flags.get("sweep-steps").unwrap_or(20_000);
    let before = Before::load(flags.get::<String>("before").as_deref());
    let commit = bursty_bench::commit_label(flags.get("commit"));
    // `(other binary, its commit label, pairs)`.
    let pair = flags.get::<String>("pair-against").map(|bin| {
        let label = flags
            .get("pair-label")
            .unwrap_or_else(|| bursty_bench::usage("--pair-against needs --pair-label"));
        (bin, label, flags.get("pairs").unwrap_or(10usize).max(1))
    });
    let cores = bursty_bench::available_parallelism();
    eprintln!(
        "engine-bench: {steps} steps, fleets {fleets:?}, class fleets {class_fleets:?}, \
         {repeats} repeats, {cores} cores"
    );

    // `(n, layout, best seconds)` of every engine row, and the rows.
    let mut measured: Vec<(usize, &'static str, f64)> = Vec::new();
    let mut engine_rows: Vec<Json> = Vec::new();
    let mut engine_row = |n: usize, layout: &'static str, secs: f64| {
        eprintln!(
            "  n={n} {layout}: {secs:.4}s ({:.0} steps/s)",
            steps as f64 / secs
        );
        measured.push((n, layout, secs));
        row(&commit)
            .field("n", n)
            .field("layout", layout)
            .field("threads", 1usize)
            .field("secs", secs)
            .field("steps_per_sec", steps as f64 / secs)
            .field("vm_steps_per_sec", (steps * n) as f64 / secs)
    };
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
        engine_rows.push(engine_row(n, "shared", secs).to_json());
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
            let row = engine_row(n, layout, secs)
                .field("occupied_cells", occupied_cells)
                .field("cells_per_step", occupied_cells as f64)
                .field("mean_cell_n", mean_cell_n);
            engine_rows.push(row.to_json());
        }
    }

    // Paper-density rows (module docs): the same Table-I mix at d = 16.
    let paper_rows: Vec<Json> = paper_fleets
        .iter()
        .map(|&n| paper_row(&commit, n, repeats))
        .collect();
    let sweep_rows: Vec<Json> = if sweep_steps == 0 {
        Vec::new()
    } else {
        SWEEP_POINTS
            .iter()
            .map(|&(p_on, p_off)| sweep_row(&commit, p_on, p_off, sweep_steps, repeats))
            .collect()
    };

    // Raw cell-kernel microbenchmark: the class-aggregated evolution
    // pass alone — controller, policies and demand bookkeeping stripped
    // away — stepped with the walk oracle and with the kernel's tables.
    // The dense row is the largest class fleet on the QueuingFFD
    // placement the class rows ran (~220 VMs a cell, every cell dense);
    // the sparse row is the largest paper-density fleet (~1.8 cells a
    // PM, a few VMs each), at its horizon. `cell_steps_per_sec` is the
    // kernel-native unit (cells stepped per second); `vm_steps_per_sec`
    // is the fleet-facing one the headline targets quote.
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
    let mut cell_rows = vec![cell_kernel_row(
        &commit,
        "dense",
        &cell_vms,
        cell_m,
        &cell_assignment,
        steps,
        repeats,
    )];
    if let Some(&n) = paper_fleets.iter().max() {
        let mut gen = FleetGenerator::new(1);
        let vms = gen.vms_table_i(n, WorkloadPattern::EqualSpike);
        let pms = gen.pms((n / 4).max(1));
        let placement = Consolidator::new(Scheme::Queue)
            .place(&vms, &pms)
            .expect("paper-density placement");
        cell_rows.push(cell_kernel_row(
            &commit,
            "sparse",
            &vms,
            pms.len(),
            &placement.assignment,
            PAPER_STEPS,
            repeats,
        ));
    }

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
            measured
                .iter()
                .find(|r| r.0 == n && r.1 == layout)
                .map_or(f64::NAN, |r| r.2)
        };
        secs(a) / secs(b)
    };
    let mut speedups = Obj::default();
    let mut class_ns = class_fleets.clone();
    class_ns.sort_unstable();
    class_ns.dedup();
    for n in class_ns {
        let speedup = speedup_of(n, "shared_classheavy", "class_aggregated_cached");
        speedups.push(
            &format!("n{n}"),
            Obj::default().field("class_cached_over_shared_classheavy", speedup),
        );
    }
    let paired = match &pair {
        Some(pair) => paired_rows(&commit, pair, &paper_fleets, sweep_steps),
        None => Vec::new(),
    };

    let config = Obj::default()
        .field("steps", steps)
        .field("repeats", repeats)
        .field("seed", 1usize);
    let mut report = bursty_bench::report("engine-bench")
        .field("commit", commit.as_str())
        .field("config", config);
    // Of the earlier engine rows, those of a layout this run measures
    // are kept: each row then has its before/after pair.
    let mut engine = before.rows("engine");
    engine.retain(|r| {
        let layout = r.get("layout").and_then(Json::as_str);
        measured.iter().any(|m| layout == Some(m.1))
    });
    engine.extend(engine_rows);
    report.push("engine", engine);
    report.push("speedups", speedups);
    for (section, rows) in [
        ("paper_density", paper_rows),
        ("shared_flip_sweep", sweep_rows),
        ("paired", paired),
        ("cell_kernel", cell_rows),
    ] {
        let mut all = before.rows(section);
        all.extend(rows);
        if !all.is_empty() {
            report.push(section, all);
        }
    }
    let obs = Obj::default()
        .field("n", obs_n)
        .field("noop_secs", obs_noop)
        .field("noop_recorded_secs", obs_noop_explicit)
        .field("memory_secs", obs_memory)
        .field("noop_overhead_pct", obs_noop_overhead_pct)
        .field("memory_overhead_pct", obs_memory_overhead_pct);
    let mapcal = Obj::default()
        .field("d", mapcal_d)
        .field("closed_form_secs", mapcal_closed)
        .field("gaussian_secs", mapcal_gauss)
        .field("speedup", mapcal_gauss / mapcal_closed);
    write_report(&out, report.field("obs", obs).field("mapcal", mapcal));
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
