//! The subcommands behind the `bursty` binary.

use crate::parse::Args;
use crate::traces::{fit_dir, read_trace, FIT_CONFIDENCE};
use crate::{err, CliError};
use bursty_core::metrics::Log2Histogram;
use bursty_core::placement::{certify_exact, PackError};
use bursty_core::prelude::*;
use bursty_core::workload::analysis;
use bursty_server::{apply_op, Applied};
use std::io::Write;
use std::path::Path;

const DEFAULT_P_ON: f64 = 0.01;
const DEFAULT_P_OFF: f64 = 0.09;
const DEFAULT_RHO: f64 = 0.01;
/// The one-sided level of each fit-error bound `fit_dir` prices.
const FIT_ALPHA: f64 = (1.0 - FIT_CONFIDENCE) / 2.0;

fn probabilities(args: &Args) -> Result<(f64, f64, f64), CliError> {
    let p_on = args.get_f64("p-on")?.unwrap_or(DEFAULT_P_ON);
    let p_off = args.get_f64("p-off")?.unwrap_or(DEFAULT_P_OFF);
    let rho = args.get_f64("rho")?.unwrap_or(DEFAULT_RHO);
    if !(p_on > 0.0 && p_on <= 1.0 && p_off > 0.0 && p_off <= 1.0) {
        return Err(err("probabilities must be in (0, 1]"));
    }
    if !(rho > 0.0 && rho < 1.0) {
        return Err(err("--rho must be in (0, 1)"));
    }
    Ok((p_on, p_off, rho))
}

fn workload_pattern(args: &Args) -> Result<WorkloadPattern, CliError> {
    match args.get_str("pattern") {
        None | Some("equal") => Ok(WorkloadPattern::EqualSpike),
        Some("small") => Ok(WorkloadPattern::SmallSpike),
        Some("large") => Ok(WorkloadPattern::LargeSpike),
        Some(other) => Err(err(format!(
            "unknown --pattern '{other}' (expected 'equal', 'small' or 'large')"
        ))),
    }
}

/// QUEUE for a fleet of bounded fitted specs, floored at its coldest
/// spec's own pair: no PM's hottest chain is colder, so the floor never
/// binds and each PM is priced at the hottest chain it hosts.
fn bounded_queue(specs: &[VmSpec], rho: f64) -> Consolidator {
    let coldest = specs
        .iter()
        .min_by(|a, b| {
            let (a, b) = (a.chain().stationary_on(), b.chain().stationary_on());
            a.total_cmp(&b)
        })
        .expect("at least one trace");
    Consolidator::new(Scheme::Queue)
        .with_probabilities(coldest.p_on, coldest.p_off)
        .with_rho(rho)
}

/// `bursty reserve --k K [--p-on P] [--p-off P] [--rho R]`
pub fn reserve(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let args = Args::parse(args, &["k", "p-on", "p-off", "rho"], &[])?;
    let k = args.require_usize("k")?;
    if k == 0 {
        return Err(err("--k must be at least 1"));
    }
    let (p_on, p_off, rho) = probabilities(&args)?;
    let chain = AggregateChain::new(k, p_on, p_off);
    let blocks = chain.blocks_needed(rho);
    let cvr = chain.cvr_with_blocks(blocks);
    writeln!(
        out,
        "k = {k}, p_on = {p_on}, p_off = {p_off}, rho = {rho}: reserve {blocks} blocks \
         (CVR {cvr:.5}, saving {} blocks vs peak provisioning)",
        k - blocks
    )?;
    Ok(())
}

/// `bursty table --d D [--p-on P] [--p-off P] [--rho R]`
pub fn table(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let args = Args::parse(args, &["d", "p-on", "p-off", "rho"], &[])?;
    let d = args.require_usize("d")?;
    if d == 0 {
        return Err(err("--d must be at least 1"));
    }
    let (p_on, p_off, rho) = probabilities(&args)?;
    let mapping = MappingTable::build(d, p_on, p_off, rho);
    let mut t = Table::new(&["k", "mapping(k)", "saved vs peak"]);
    for k in 1..=d {
        t.row(&[
            k.to_string(),
            mapping.blocks_for(k).to_string(),
            mapping.blocks_saved(k).to_string(),
        ]);
    }
    write!(out, "{}", t.render())?;
    Ok(())
}

/// `bursty fit <trace.csv>`
pub fn fit(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let args = Args::parse(args, &[], &[])?;
    let [path] = args.positional() else {
        return Err(err("fit expects exactly one trace file"));
    };
    let demands = read_trace(Path::new(path))?;
    let model = fit_trace(&demands).map_err(|e| err(format!("{path}: {e}")))?;
    writeln!(
        out,
        "{path}: p_on = {:.4}, p_off = {:.4}, R_b = {:.2}, R_e = {:.2} \
         ({} samples, {:.1}% ON, {} spikes seen)",
        model.p_on,
        model.p_off,
        model.r_b,
        model.r_e,
        demands.len(),
        model.on_fraction * 100.0,
        model.on_entries,
    )?;
    let bounded = model.to_bounded_spec(0, demands.len(), FIT_CONFIDENCE);
    writeln!(
        out,
        "planned at p_on = {:.4}, p_off = {:.4} (one-sided alpha = {FIT_ALPHA:.3} Wilson bounds)",
        bounded.p_on, bounded.p_off,
    )?;
    if let Some(profile) = analysis::profile(&demands) {
        writeln!(
            out,
            "burstiness: lag-1 autocorrelation {:.3}, IDC(16) {:.1}, \
             peak/mean {:.2}, mean spike length {:.1}",
            profile.acf1, profile.idc16, profile.peak_to_mean, profile.runs.mean_length
        )?;
    }
    Ok(())
}

/// `bursty plan --traces DIR --capacity C [--pms N] [--rho R] [--out F]`
pub fn plan(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let args = Args::parse(args, &["traces", "capacity", "pms", "rho", "out"], &[])?;
    let dir = args
        .get_str("traces")
        .ok_or_else(|| err("missing required flag --traces <dir>"))?;
    let capacity = args.require_f64("capacity")?;
    if capacity <= 0.0 {
        return Err(err("--capacity must be positive"));
    }
    let rho = args.get_f64("rho")?.unwrap_or(DEFAULT_RHO);

    let (specs, names) = fit_dir(Path::new(dir))?;

    // Each VM at its own fit-error bounds, then QueuingFFD.
    let n_pms = args.get_usize("pms")?.unwrap_or(specs.len());
    let pms: Vec<PmSpec> = (0..n_pms).map(|j| PmSpec::new(j, capacity)).collect();
    let placement = bounded_queue(&specs, rho)
        .place(&specs, &pms)
        .map_err(|e| err(format!("planning failed: {e} — add PMs or capacity")))?;

    writeln!(
        out,
        "fitted {} traces; plan uses {} of {n_pms} PMs at capacity {capacity}",
        specs.len(),
        placement.pms_used(),
    )?;
    // CVR is monotone in p_on and antitone in p_off, so a PM whose k VMs
    // all sit inside their 2k one-sided bounds holds rho: a union bound.
    writeln!(
        out,
        "guarantee: each VM's (p_on, p_off) at its one-sided alpha = {FIT_ALPHA:.3} Wilson \
         bounds, so a PM hosting k VMs holds rho with probability >= 1 - 2k·alpha = 1 - {:.2}·k \
         (switch probabilities only; sizes are the envelope fit's)",
        2.0 * FIT_ALPHA,
    )?;
    // The guarantee at the bounded specs, with no simulation: how far
    // under rho each PM's exact stationary law landed.
    let exact = certify_exact(&specs, &pms, &placement);
    let cvrs: Vec<f64> = exact.iter().filter_map(|&(_, cvr)| cvr).collect();
    if cvrs.len() < exact.len() {
        writeln!(
            out,
            "exact stationary CVR per PM at the bounded specs: not enumerable on {} PMs",
            exact.len() - cvrs.len()
        )?;
    } else {
        let Summary { max, mean, .. } = Summary::of(&cvrs);
        writeln!(
            out,
            "exact stationary CVR per PM at the bounded specs: max {max:.6}, mean {mean:.6} \
             (rho {rho})"
        )?;
    }
    for (i, name) in names.iter().enumerate() {
        writeln!(
            out,
            "  {name}  (R_b {:.1}, R_e {:.1})  ->  PM {}",
            specs[i].r_b,
            specs[i].r_e,
            placement.assignment[i].expect("complete"),
        )?;
    }

    if let Some(out_path) = args.get_str("out") {
        let mut csv = bursty_core::metrics::csv::CsvWriter::new();
        csv.record(&["vm", "r_b", "r_e", "pm"]);
        for (i, name) in names.iter().enumerate() {
            csv.record_display(&[
                name.clone(),
                format!("{:.3}", specs[i].r_b),
                format!("{:.3}", specs[i].r_e),
                placement.assignment[i].unwrap().to_string(),
            ]);
        }
        std::fs::write(out_path, csv.as_str())
            .map_err(|e| err(format!("cannot write {out_path}: {e}")))?;
        writeln!(out, "plan written to {out_path}")?;
    }
    Ok(())
}

/// `bursty consolidate --vms N [--pms M] [--pattern equal|small|large]
/// [--scheme queue|rp|rb|rbex] [--seed S] [--p-on P] [--p-off P] [--rho R]`
///
/// Generates a seeded synthetic fleet and packs it with the batch packer
/// (`Consolidator::place`); the report counts the fleet's classes and
/// times the pack.
pub fn consolidate(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let args = Args::parse(
        args,
        &[
            "vms", "pms", "pattern", "scheme", "seed", "p-on", "p-off", "rho",
        ],
        &[],
    )?;
    let n = args.require_usize("vms")?;
    if n == 0 {
        return Err(err("--vms must be at least 1"));
    }
    let pattern = workload_pattern(&args)?;
    let scheme = match args.get_str("scheme") {
        None | Some("queue") => Scheme::Queue,
        Some("rp") => Scheme::Rp,
        Some("rb") => Scheme::Rb,
        Some("rbex") => Scheme::RbEx,
        Some(other) => {
            return Err(err(format!(
                "unknown --scheme '{other}' (expected 'queue', 'rp', 'rb' or 'rbex')"
            )))
        }
    };
    let seed = args.get_usize("seed")?.unwrap_or(42) as u64;
    let (p_on, p_off, rho) = probabilities(&args)?;

    let mut gen = FleetGenerator::new(seed);
    let vms = gen.vms_table_i(n, pattern);
    let n_pms = args.get_usize("pms")?.unwrap_or(n);
    let pms = gen.pms(n_pms);
    let consolidator = Consolidator::new(scheme)
        .with_probabilities(p_on, p_off)
        .with_rho(rho);
    let classes = bursty_core::workload::distinct_classes(&vms);
    let start = std::time::Instant::now();
    let placement = consolidator
        .place(&vms, &pms)
        .map_err(|e| err(format!("packing failed: {e} — add PMs or capacity")))?;
    let elapsed = start.elapsed();
    writeln!(
        out,
        "{n} VMs ({classes} classes) packed onto {} of {n_pms} PMs by {} in {:.1} ms",
        placement.pms_used(),
        scheme.label(),
        elapsed.as_secs_f64() * 1e3,
    )?;
    Ok(())
}

/// `bursty simulate --traces DIR --capacity C [--pms N] [--steps S]
/// [--rho R] [--availability PCT] [--mtbf S [--mttr S] [--fault-group G]
/// [--fault-seed N]]`
///
/// Fits the traces, plans with QueuingFFD, then *verifies* the plan by
/// simulating the fitted workloads and certifying the CVR bound
/// statistically (Wilson interval with the burst-autocorrelation
/// discount). `--availability` overrides `--rho` in SLO terms.
///
/// `--mtbf` turns on PM crash/recovery injection (geometric holding
/// times, mean `--mtbf`/`--mttr` periods, `--fault-group` PMs per fault
/// domain); the report then adds recovery metrics and splits violations
/// into burstiness-caused vs degraded-mode.
///
/// `--trace-out <file>` attaches a [`MemoryRecorder`] to the packing and
/// the simulation and dumps the structured trace (counters, gauges,
/// histograms, per-PM CVR series, event journal) as JSONL; summarize it
/// with `bursty trace-report <file>`.
pub fn simulate(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    use bursty_core::metrics::inference::{certify_bound, BoundVerdict};
    use bursty_core::metrics::slo;

    let args = Args::parse(
        args,
        &[
            "traces",
            "capacity",
            "pms",
            "steps",
            "rho",
            "availability",
            "mtbf",
            "mttr",
            "fault-group",
            "fault-seed",
            "rng-layout",
            "threads",
            "checkpoint-every",
            "checkpoint-dir",
            "checkpoint-keep",
            "trace-out",
        ],
        &["resume"],
    )?;
    let dir = args
        .get_str("traces")
        .ok_or_else(|| err("missing required flag --traces <dir>"))?;
    let capacity = args.require_f64("capacity")?;
    let steps = args.get_usize("steps")?.unwrap_or(20_000);
    let rho = match args.get_str("availability") {
        Some(a) => slo::cvr_budget_from_availability(a).map_err(CliError)?,
        None => args.get_f64("rho")?.unwrap_or(DEFAULT_RHO),
    };
    if !(rho > 0.0 && rho < 1.0) {
        return Err(err("the CVR budget must be in (0, 1)"));
    }
    let rng_layout = match args.get_str("rng-layout") {
        None | Some("shared") => RngLayout::Shared,
        Some("class-aggregated") | Some("classaggregated") => RngLayout::ClassAggregated,
        Some(other) => {
            return Err(err(format!(
                "unknown --rng-layout '{other}' (expected 'shared' or 'class-aggregated')"
            )))
        }
    };
    let threads = args.get_usize("threads")?.unwrap_or(1);
    if threads > 1 && rng_layout == RngLayout::Shared {
        return Err(err("--threads requires --rng-layout class-aggregated \
             (the shared stream is sequential)"));
    }
    let faults = match args.get_f64("mtbf")? {
        Some(mtbf_steps) => {
            let defaults = FaultConfig::default();
            Some(FaultConfig {
                mtbf_steps,
                mttr_steps: args.get_f64("mttr")?.unwrap_or(defaults.mttr_steps),
                correlated_group_size: args
                    .get_usize("fault-group")?
                    .unwrap_or(defaults.correlated_group_size),
                seed: args
                    .get_usize("fault-seed")?
                    .map_or(defaults.seed, |s| s as u64),
            })
        }
        None => {
            for orphan in ["mttr", "fault-group", "fault-seed"] {
                if args.get_str(orphan).is_some() {
                    return Err(err(format!(
                        "--{orphan} only makes sense with --mtbf <steps>"
                    )));
                }
            }
            None
        }
    };
    let ckpt = match args.get_usize("checkpoint-every")? {
        Some(every) => {
            let ckpt_dir = args.get_str("checkpoint-dir").ok_or_else(|| {
                err("--checkpoint-every requires --checkpoint-dir <dir> for the snapshots")
            })?;
            let mut cc = CheckpointConfig::new(every, ckpt_dir);
            if let Some(keep) = args.get_usize("checkpoint-keep")? {
                cc.keep = keep;
            }
            cc.validate(steps)
                .map_err(|e| err(format!("invalid checkpoint setup: {e}")))?;
            Some(cc)
        }
        None => {
            for orphan in ["checkpoint-dir", "checkpoint-keep"] {
                if args.get_str(orphan).is_some() {
                    return Err(err(format!(
                        "--{orphan} only makes sense with --checkpoint-every <steps>"
                    )));
                }
            }
            if args.has("resume") {
                return Err(err(
                    "--resume needs --checkpoint-every <steps> and --checkpoint-dir <dir> \
                     to locate the snapshots",
                ));
            }
            None
        }
    };

    // Fit and plan (same path as `plan`).
    let (specs, _) = fit_dir(Path::new(dir))?;
    let n_pms = args.get_usize("pms")?.unwrap_or(specs.len());
    let pms: Vec<PmSpec> = (0..n_pms).map(|j| PmSpec::new(j, capacity)).collect();
    let consolidator = bounded_queue(&specs, rho);
    // `--trace-out` attaches a bounded-journal recorder to both phases;
    // the default path stays on the zero-cost NoopRecorder.
    let trace_out = args.get_str("trace-out");
    let mut rec = trace_out.map(|_| {
        let every = (steps / 256).max(1);
        MemoryRecorder::new(65_536).with_cvr_sampling(every)
    });
    let placement = match rec.as_mut() {
        Some(r) => consolidator.place_recorded(&specs, &pms, r),
        None => consolidator.place(&specs, &pms),
    }
    .map_err(|e| err(format!("planning failed: {e} — add PMs or capacity")))?;

    // Simulate the fitted workloads against the plan.
    let cfg = SimConfig {
        steps,
        seed: 20130527, // the paper's conference date — fixed for reproducibility
        migrations_enabled: false,
        faults,
        rng_layout,
        threads,
        ..SimConfig::default()
    };
    cfg.validate()
        .map_err(|e| err(format!("invalid simulation setup: {e}")))?;
    let outcome = if let Some(cc) = &ckpt {
        let run = if args.has("resume") {
            let resumed = match rec.as_mut() {
                Some(r) => consolidator.resume_checkpointed(&specs, &pms, cfg, cc, r),
                None => consolidator.resume_checkpointed(&specs, &pms, cfg, cc, &mut NoopRecorder),
            };
            let (run, report) =
                resumed.map_err(|e| err(format!("cannot resume from checkpoints: {e}")))?;
            writeln!(
                out,
                "resumed from {} at step {} ({} newer snapshot(s) discarded)",
                report.loaded,
                report.step,
                report.discarded.len(),
            )?;
            for (name, why) in &report.discarded {
                writeln!(out, "  discarded {name}: {why}")?;
            }
            run
        } else {
            match rec.as_mut() {
                Some(r) => consolidator.simulate_checkpointed(&specs, &pms, &placement, cfg, cc, r),
                None => consolidator.simulate_checkpointed(
                    &specs,
                    &pms,
                    &placement,
                    cfg,
                    cc,
                    &mut NoopRecorder,
                ),
            }
            .map_err(|e| err(format!("cannot open checkpoint dir: {e}")))?
        };
        writeln!(
            out,
            "checkpoints: {} written to {} (every {} steps, keep {})",
            run.saves,
            cc.dir.display(),
            cc.every,
            cc.keep,
        )?;
        for (step, e) in &run.save_errors {
            writeln!(out, "  snapshot at step {step} failed (run continued): {e}")?;
        }
        run.outcome
    } else {
        match rec.as_mut() {
            Some(r) => consolidator.simulate_recorded(&specs, &pms, &placement, cfg, r),
            None => consolidator.simulate(&specs, &pms, &placement, cfg),
        }
    };
    if ckpt.is_some() {
        // Bit-exact digests for CI's crash/resume identity check: a resumed
        // run must reprint exactly these words.
        writeln!(
            out,
            "digest: energy {:#018x} mean-cvr {:#018x}",
            outcome.energy_joules.to_bits(),
            outcome.mean_cvr().to_bits(),
        )?;
    }

    // The burstiest chain's lag-1 autocorrelation discounts every step.
    let r = specs
        .iter()
        .map(|vm| vm.chain().autocorrelation(1))
        .fold(0.0, f64::max)
        .min(0.999);
    let violations: u64 = outcome
        .cvr_per_pm
        .iter()
        .map(|&(_, c)| (c * steps as f64).round() as u64)
        .sum();
    let trials = (outcome.cvr_per_pm.len() * steps) as u64;
    let verdict = certify_bound(violations, trials.max(1), rho, 0.95, r);
    let summary = slo::summarize(outcome.mean_cvr());

    writeln!(
        out,
        "plan: {} VMs on {} PMs; simulated {steps} periods per PM",
        specs.len(),
        placement.pms_used(),
    )?;
    let nines = summary.nines.map_or_else(
        || "no violation observed".to_string(),
        |n| format!("{n} nines"),
    );
    writeln!(
        out,
        "mean CVR {:.5} (budget {rho}) → availability {:.4} ({nines}), \
         ~{:.0} violation-min/month",
        summary.cvr, summary.availability, summary.violation_mins_per_month,
    )?;
    let verdict_str = match verdict {
        BoundVerdict::Holds => "HOLDS at 95% confidence",
        BoundVerdict::Violated => "VIOLATED at 95% confidence",
        BoundVerdict::Inconclusive => "INCONCLUSIVE — simulate longer (--steps)",
    };
    writeln!(out, "bound certification: {verdict_str}")?;
    if let Some(fc) = &faults {
        let r = &outcome.recovery;
        let ttr = r
            .mean_time_to_restore()
            .map_or_else(|| "-".to_string(), |t| format!("{t:.1} periods"));
        writeln!(
            out,
            "faults (MTBF {:.0}, MTTR {:.0}, group {}): {} crashes, {} recoveries",
            fc.mtbf_steps, fc.mttr_steps, fc.correlated_group_size, r.crashes, r.recoveries,
        )?;
        writeln!(
            out,
            "recovery: mean time-to-restore {ttr}; {} stranded VM-steps; \
             {} degraded admissions",
            r.stranded_vm_steps, r.degraded_admissions,
        )?;
        writeln!(
            out,
            "violation split: {} burstiness-caused, {} degraded-mode",
            outcome.burstiness_violation_steps(),
            r.degraded_violation_steps,
        )?;
    }
    if let (Some(path), Some(r)) = (trace_out, rec.as_ref()) {
        std::fs::write(path, r.to_jsonl()).map_err(|e| err(format!("cannot write {path}: {e}")))?;
        writeln!(
            out,
            "trace written to {path} ({} journal events, {} dropped)",
            r.journal().len(),
            r.journal().dropped(),
        )?;
    }
    Ok(())
}

/// `bursty trace-report <trace.jsonl>`
///
/// Parses a trace produced by `simulate --trace-out` and prints a human
/// summary: counters, gauges, event counts by type, the per-PM violation
/// leaderboard, overload/displacement percentile sketches and the
/// CVR-series coverage. Streams the file line-at-a-time, so traces far
/// larger than memory summarize fine.
pub fn trace_report(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let args = Args::parse(args, &[], &[])?;
    let [path] = args.positional() else {
        return Err(err("trace-report expects exactly one trace file"));
    };
    let file = std::fs::File::open(path).map_err(|e| err(format!("cannot read {path}: {e}")))?;
    let report = TraceReport::from_reader(std::io::BufReader::new(file))
        .map_err(|e| err(format!("{path}: {e}")))?;
    write!(out, "{}", report.render())?;
    Ok(())
}

/// `bursty online-replay --vms N [--pms M] [--ops K] [--pattern ..]
/// [--d D] [--seed S] [--p-on P] [--p-off P] [--rho R] [--trace-out FILE]`
///
/// The engine-direct half of `serve-replay`: warms an [`OnlineCluster`]
/// to the fleet `serve` builds from the same flags, then replays
/// `serve-replay`'s program ([`bursty_server::build_program`] of `(seed,
/// K, N)`: single admits, a departure every third op, a 12-VM batch every
/// 64 ops, a recalibration every 256), each op timed through
/// [`apply_op`]. Its `digest:` equals the `digest match:` that
/// `serve-replay` prints for the same flags. Reports sustained throughput
/// and per-op p50/p99 latency.
///
/// `--trace-out <file>` attaches a [`MemoryRecorder`] and writes the
/// journal — [`Event::Admission`], [`Event::OnlineDeparture`] and
/// [`Event::Recalibration`] with the op index as `step` — plus the
/// per-op latency histograms, as JSONL digestible by `trace-report`.
pub fn online_replay(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let mut flags = SERVE_FLEET_FLAGS.to_vec();
    flags.extend(["ops", "trace-out"]);
    let args = Args::parse(args, &flags, &[])?;
    if args.require_usize("vms")? == 0 {
        return Err(err("--vms must be at least 1"));
    }
    let fleet = serve_fleet(&args)?;
    let ops = args.get_usize("ops")?.unwrap_or(1024);
    let trace_out = args.get_str("trace-out");

    let m = fleet.pms.len();
    let mut cluster = OnlineCluster::new(fleet.pms, fleet.d, fleet.p_on, fleet.p_off, fleet.rho);
    let mut rec = trace_out.map(|_| MemoryRecorder::new(65_536));
    let warm = cluster.arrive_batch_unpaired(fleet.initial, &mut NoopRecorder);
    warm.map_err(|PackError { vm_id }| err(format!("fleet VM {vm_id} does not fit: add PMs")))?;

    let program = bursty_server::build_program(fleet.seed, ops, fleet.n);
    let total = program.ops.len();
    let mut admit_hist = Log2Histogram::new(Log2Histogram::MAX_BUCKETS);
    let mut depart_hist = Log2Histogram::new(Log2Histogram::MAX_BUCKETS);
    let (mut admissions, mut departures, mut recals, mut refused) = (0, 0, 0, 0);
    let mut placed = Vec::new();
    let start = std::time::Instant::now();
    for (step, op) in program.ops.into_iter().enumerate() {
        let step = step as u64;
        let started = std::time::Instant::now();
        let applied = match rec.as_mut() {
            Some(r) => apply_op(&mut cluster, op, r),
            None => apply_op(&mut cluster, op, &mut NoopRecorder),
        };
        let nanos = started.elapsed().as_nanos() as u64;
        match applied {
            Some(Applied::Admitted { id, host }) => placed.push((id, host)),
            Some(Applied::AdmittedBatch(vms)) => placed.extend(vms),
            Some(Applied::Departed { id, host }) => {
                departures += 1;
                depart_hist.record(nanos);
                if let Some(r) = rec.as_mut() {
                    r.record_value(HistId::OnlineDepartNanos, nanos);
                    r.record_event(Event::OnlineDeparture {
                        step,
                        vm: id,
                        pm: host,
                    });
                }
            }
            Some(Applied::Recalibrated { p_on, p_off }) => {
                recals += 1;
                if let Some(r) = rec.as_mut() {
                    r.record_value(HistId::OnlineRecalibrateNanos, nanos);
                    r.record_event(Event::Recalibration { step, p_on, p_off });
                }
            }
            _ => refused += 1,
        }
        // A batch's members share its time.
        let per_vm = nanos / placed.len().max(1) as u64;
        for (vm, pm) in placed.drain(..) {
            admissions += 1;
            admit_hist.record(per_vm);
            if let Some(r) = rec.as_mut() {
                r.record_value(HistId::OnlineAdmitNanos, per_vm);
                let degraded = false;
                r.record_event(Event::Admission {
                    step,
                    vm,
                    pm,
                    degraded,
                });
            }
        }
    }
    let elapsed = start.elapsed().as_secs_f64();

    cluster
        .check_consistency()
        .map_err(|e| err(format!("post-replay consistency check failed: {e}")))?;
    writeln!(out, "digest: {:016x}", cluster.state_digest().combined())?;
    writeln!(
        out,
        "replayed {total} ops ({admissions} admissions, {departures} departures, \
         {recals} recalibrations, {refused} refused) in {:.1} ms — {:.0} ops/s",
        elapsed * 1e3,
        total as f64 / elapsed,
    )?;
    writeln!(
        out,
        "population {} VMs on {} of {m} PMs; admit p50/p99 ~{:.0}/~{:.0} ns, \
         depart p50/p99 ~{:.0}/~{:.0} ns",
        cluster.n_vms(),
        cluster.pms_used(),
        admit_hist.quantile_interpolated(0.5).unwrap_or(0.0),
        admit_hist.quantile_interpolated(0.99).unwrap_or(0.0),
        depart_hist.quantile_interpolated(0.5).unwrap_or(0.0),
        depart_hist.quantile_interpolated(0.99).unwrap_or(0.0),
    )?;
    if let (Some(path), Some(r)) = (trace_out, rec.as_ref()) {
        std::fs::write(path, r.to_jsonl()).map_err(|e| err(format!("cannot write {path}: {e}")))?;
        writeln!(
            out,
            "trace written to {path} ({} journal events, {} dropped)",
            r.journal().len(),
            r.journal().dropped(),
        )?;
    }
    Ok(())
}

/// Shared fleet-construction flags for `serve`, `serve-replay` and
/// `online-replay`: every side must build the identical initial fleet
/// for the transport-equivalence digest comparison to mean anything.
struct ServeFleet {
    initial: Vec<VmSpec>,
    pms: Vec<PmSpec>,
    d: usize,
    p_on: f64,
    p_off: f64,
    rho: f64,
    seed: u64,
    n: usize,
}

/// The flags [`serve_fleet`] reads, shared by `serve`, `serve-replay` and
/// `online-replay`.
const SERVE_FLEET_FLAGS: [&str; 8] = ["vms", "pms", "pattern", "d", "seed", "p-on", "p-off", "rho"];

fn serve_fleet(args: &Args) -> Result<ServeFleet, CliError> {
    let n = args.get_usize("vms")?.unwrap_or(0);
    let m = args.get_usize("pms")?.unwrap_or(n.max(64));
    let d = args.get_usize("d")?.unwrap_or(16);
    if d == 0 {
        return Err(err("--d must be at least 1"));
    }
    let seed = args.get_usize("seed")?.unwrap_or(42) as u64;
    let (p_on, p_off, rho) = probabilities(args)?;
    let pattern = workload_pattern(args)?;
    let mut gen = FleetGenerator::new(seed);
    let initial = if n > 0 {
        gen.vms_table_i(n, pattern)
    } else {
        Vec::new()
    };
    let pms = gen.pms(m);
    Ok(ServeFleet {
        initial,
        pms,
        d,
        p_on,
        p_off,
        rho,
        seed,
        n,
    })
}

pub fn serve(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let mut flags = SERVE_FLEET_FLAGS.to_vec();
    flags.extend([
        "addr",
        "workers",
        "pending-ttl-ms",
        "state-dir",
        "snapshot-keep",
    ]);
    let args = Args::parse(args, &flags, &["restore"])?;
    let fleet = serve_fleet(&args)?;
    let addr = args.get_str("addr").unwrap_or("127.0.0.1:0");
    let workers = args.get_usize("workers")?.unwrap_or(4);
    let snapshot_keep = args.get_usize("snapshot-keep")?.unwrap_or(4);
    let pending_ttl_ms = args.get_usize("pending-ttl-ms")?.unwrap_or(30_000);
    if pending_ttl_ms == 0 {
        return Err(err("--pending-ttl-ms must be at least 1"));
    }
    let state_dir = args.get_str("state-dir");
    let restore = args.has("restore");
    if restore && state_dir.is_none() {
        return Err(err("--restore requires --state-dir"));
    }

    let mut config =
        bursty_server::ServerConfig::new(fleet.pms, fleet.d, fleet.p_on, fleet.p_off, fleet.rho);
    config.addr = addr.to_string();
    config.workers = workers.max(1);
    config.snapshot_keep = snapshot_keep;
    config.pending_ttl = std::time::Duration::from_millis(pending_ttl_ms as u64);
    config.initial = fleet.initial;
    if let Some(dir) = state_dir {
        let store = bursty_core::obs::FsStore::open(dir)
            .map_err(|e| err(format!("cannot open --state-dir {dir}: {e}")))?;
        config.store = Some(Box::new(store));
        config.restore = restore;
    }

    let handle =
        bursty_server::spawn(config).map_err(|e| err(format!("cannot start daemon: {e}")))?;
    if let Some(report) = handle.restore_report() {
        match &report.loaded_from {
            Some(file) => writeln!(
                out,
                "restored {file} ({} applied ops, {} newer snapshots discarded)",
                report.applied,
                report.discarded.len()
            )?,
            None => writeln!(
                out,
                "no usable snapshot ({} discarded) — starting fresh",
                report.discarded.len()
            )?,
        }
        for (name, reason) in &report.discarded {
            writeln!(out, "  discarded {name}: {reason:?}")?;
        }
    }
    writeln!(out, "listening on {}", handle.addr())?;
    // A parent process (the CI smoke job) reads this line through a pipe;
    // without the flush it sits in the block buffer until exit.
    out.flush()?;
    handle.wait();
    Ok(())
}

pub fn serve_replay(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let mut flags = SERVE_FLEET_FLAGS.to_vec();
    flags.extend(["addr", "ops", "clients", "seq-base"]);
    let args = Args::parse(args, &flags, &["shutdown"])?;
    let addr_s = args
        .get_str("addr")
        .ok_or_else(|| err("--addr is required (where the daemon listens)"))?;
    let addr: std::net::SocketAddr = {
        use std::net::ToSocketAddrs;
        addr_s
            .to_socket_addrs()
            .ok()
            .and_then(|mut a| a.next())
            .ok_or_else(|| err(format!("cannot resolve --addr {addr_s}")))?
    };
    let fleet = serve_fleet(&args)?;
    let ops = args.get_usize("ops")?.unwrap_or(512);
    let clients = args.get_usize("clients")?.unwrap_or(2).max(1);
    let seq_base = args.get_usize("seq-base")?.unwrap_or(0) as u64;
    let shutdown = args.has("shutdown");

    // The oracle: identical construction and warm-up to what
    // `bursty serve` did with the same flags, then the same churn
    // program engine-direct.
    let mut engine = OnlineCluster::new(fleet.pms, fleet.d, fleet.p_on, fleet.p_off, fleet.rho);
    if !fleet.initial.is_empty() {
        engine.arrive_batch(fleet.initial).map_err(|e| {
            err(format!(
                "oracle fleet does not fit (VM {}) — flags must match the daemon's",
                e.vm_id
            ))
        })?;
    }
    let program = bursty_server::build_program(fleet.seed, ops, fleet.n);
    let expected = bursty_server::apply_engine(&mut engine, &program.ops);

    let outcome = bursty_server::drive_http(addr, &program.ops, clients, seq_base)
        .map_err(|e| err(format!("replay against {addr_s} failed: {e}")))?;
    writeln!(
        out,
        "replayed {} ops over {clients} clients ({} accepted, {} engine-rejected)",
        program.ops.len(),
        outcome.ok,
        outcome.rejected
    )?;
    if shutdown {
        let mut client = bursty_server::Client::connect(addr)
            .map_err(|e| err(format!("shutdown connect failed: {e}")))?;
        client
            .post("/v1/shutdown", &bursty_server::Json::Obj(Vec::new()))
            .map_err(|e| err(format!("shutdown request failed: {e}")))?;
    }
    if outcome.digest != expected {
        return Err(err(format!(
            "digest DIVERGENCE: daemon {:016x} vs engine-direct oracle {:016x}",
            outcome.digest.combined(),
            expected.combined()
        )));
    }
    writeln!(out, "digest match: {:016x}", expected.combined())?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_cmd(
        f: fn(&[String], &mut dyn Write) -> Result<(), CliError>,
        args: &[&str],
    ) -> Result<String, CliError> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut buf = Vec::new();
        f(&args, &mut buf)?;
        Ok(String::from_utf8(buf).unwrap())
    }

    #[test]
    fn reserve_prints_paper_value() {
        let s = run_cmd(reserve, &["--k", "16"]).unwrap();
        assert!(s.contains("reserve 5 blocks"), "{s}");
        assert!(s.contains("saving 11"), "{s}");
    }

    #[test]
    fn reserve_rejects_bad_args() {
        assert!(run_cmd(reserve, &[]).is_err());
        assert!(run_cmd(reserve, &["--k", "0"]).is_err());
        assert!(run_cmd(reserve, &["--k", "4", "--rho", "1.5"]).is_err());
        assert!(run_cmd(reserve, &["--k", "4", "--p-on", "0"]).is_err());
    }

    #[test]
    fn table_has_d_rows() {
        let s = run_cmd(table, &["--d", "6"]).unwrap();
        let data_rows = s
            .lines()
            .filter(|l| l.trim_start().starts_with(char::is_numeric))
            .count();
        assert_eq!(data_rows, 6);
    }

    #[test]
    fn fit_requires_one_positional() {
        assert!(run_cmd(fit, &[]).is_err());
        assert!(run_cmd(fit, &["a", "b"]).is_err());
    }

    #[test]
    fn consolidate_batch_paths_agree() {
        // The per-VM packer on the command's seeded fleet (its defaults:
        // seed 42, as many PMs as VMs) must use as many PMs, and the
        // report counts the fleet's classes.
        let report = run_cmd(consolidate, &["--vms", "300"]).unwrap();
        assert!(report.contains("300 VMs (3 classes)"), "{report}");
        let mut gen = FleetGenerator::new(42);
        let vms = gen.vms_table_i(300, WorkloadPattern::EqualSpike);
        let pms = gen.pms(300);
        let strategy = Consolidator::new(Scheme::Queue).strategy();
        let per_vm = first_fit(&vms, &pms, strategy.as_ref()).unwrap();
        let expected = format!("packed onto {} of 300 PMs", per_vm.pms_used());
        assert!(report.contains(&expected), "{report}: want {expected}");
    }

    #[test]
    fn online_replay_reports_sustained_churn() {
        let s = run_cmd(online_replay, &["--vms", "400", "--ops", "300"]).unwrap();
        assert!(s.contains("replayed"), "{s}");
        assert!(s.contains("recalibrations"), "{s}");
        assert!(s.contains("admit p50/p99"), "{s}");
    }

    #[test]
    fn online_replay_digest_is_apply_engine_over_the_serve_replay_program() {
        // 90 PMs cannot hold the program's growth, so refusals are replayed
        // too.
        let flags = ["--vms", "300", "--pms", "90", "--seed", "7", "--ops", "600"];
        let report = run_cmd(online_replay, &flags).unwrap();
        let argv: Vec<String> = flags.iter().map(|f| f.to_string()).collect();
        let mut declared = SERVE_FLEET_FLAGS.to_vec();
        declared.push("ops");
        let fleet = serve_fleet(&Args::parse(&argv, &declared, &[]).unwrap()).unwrap();
        let (d, p_on, p_off, rho) = (fleet.d, fleet.p_on, fleet.p_off, fleet.rho);
        let mut engine = OnlineCluster::new(fleet.pms, d, p_on, p_off, rho);
        engine.arrive_batch(fleet.initial).unwrap();
        let program = bursty_server::build_program(7, 600, 300);
        let expected = bursty_server::apply_engine(&mut engine, &program.ops);
        let digest = format!("digest: {:016x}\n", expected.combined());
        assert!(report.contains(&digest), "{report}: want {digest}");
        assert!(!report.contains(" 0 refused"), "{report}");
    }

    #[test]
    fn online_replay_rejects_bad_args() {
        assert!(run_cmd(online_replay, &[]).is_err());
        assert!(run_cmd(online_replay, &["--vms", "0"]).is_err());
        assert!(run_cmd(online_replay, &["--vms", "10", "--d", "0"]).is_err());
        assert!(run_cmd(online_replay, &["--vms", "10", "--pattern", "wavy"]).is_err());
    }

    #[test]
    fn consolidate_rejects_bad_args() {
        assert!(run_cmd(consolidate, &[]).is_err());
        assert!(run_cmd(consolidate, &["--vms", "0"]).is_err());
        assert!(run_cmd(consolidate, &["--vms", "10", "--pattern", "wavy"]).is_err());
        assert!(run_cmd(consolidate, &["--vms", "10", "--scheme", "magic"]).is_err());
    }
}
