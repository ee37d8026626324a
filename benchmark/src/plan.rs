//! The two offline workloads: inputs → placement → simulation → checked
//! CVR report, timed phase by phase from the harness.

use std::time::Instant;

use bursty_core::placement::rounding::{round_with_policy, RoundingPolicy};
use bursty_core::prelude::*;
use bursty_core::sim::bench_api::ClassCoreBench;
use bursty_core::workload::trace::DemandTrace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::env::peak_rss_mb;
use crate::metrics::Outcome;
use crate::stats::best_low;
use crate::trace::Tracer;
use crate::RunCfg;

const RHO: f64 = 0.01;
/// Two-sided confidence of the per-PM Wilson interval.
const CONF: f64 = 0.99;
/// Generation takes tens of milliseconds, so it can afford many tries.
const SETUPS: usize = 12;
/// A traced run's extra single-layer passes run this many times and
/// report the best, like every other figure.
const LAYER_PASSES: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanKind {
    ClassHeavy,
    Traces,
}

#[derive(Debug, Clone, Copy)]
pub struct PlanScale {
    pub vms: usize,
    pub pms: usize,
    pub steps: usize,
    /// Samples per demand trace (`Traces` only).
    pub trace_len: usize,
    /// How many of the timed repeats are followed by another set-up;
    /// `setup_s` reports the best of those and the first.
    pub setups: usize,
}

impl PlanKind {
    pub fn full(self) -> PlanScale {
        match self {
            PlanKind::ClassHeavy => PlanScale {
                vms: 1_000_000,
                pms: 250_000,
                steps: 200,
                trace_len: 0,
                setups: SETUPS,
            },
            PlanKind::Traces => PlanScale {
                vms: 4000,
                pms: 4000,
                steps: 20_000,
                trace_len: 2500,
                setups: SETUPS,
            },
        }
    }

    pub fn smoke(self) -> PlanScale {
        match self {
            PlanKind::ClassHeavy => PlanScale {
                vms: 2000,
                pms: 600,
                steps: 100,
                trace_len: 0,
                setups: 1,
            },
            PlanKind::Traces => PlanScale {
                vms: 200,
                pms: 200,
                steps: 4000,
                trace_len: 1500,
                setups: 1,
            },
        }
    }
}

/// What the program under test receives.
#[derive(Default)]
struct Inputs {
    /// The VMs the simulator runs. For `Traces` these are the hidden
    /// true specs; the planner only ever sees `traces`.
    vms: Vec<VmSpec>,
    pms: Vec<PmSpec>,
    traces: Vec<Vec<f64>>,
}

fn generate(kind: PlanKind, scale: PlanScale, seed: u64) -> Inputs {
    match kind {
        PlanKind::ClassHeavy => {
            let mut gen = FleetGenerator::new(seed);
            let vms = gen.vms_table_i(scale.vms, WorkloadPattern::EqualSpike);
            let pms = gen.pms(scale.pms);
            Inputs {
                vms,
                pms,
                traces: Vec::new(),
            }
        }
        PlanKind::Traces => {
            let mut rng = StdRng::seed_from_u64(seed);
            let vms: Vec<VmSpec> = (0..scale.vms)
                .map(|id| {
                    VmSpec::new(
                        id,
                        rng.gen_range(0.008..0.02),
                        rng.gen_range(0.06..0.15),
                        rng.gen_range(2.0..20.0),
                        rng.gen_range(2.0..20.0),
                    )
                })
                .collect();
            let traces = vms
                .iter()
                .map(|vm| DemandTrace::sample(*vm, scale.trace_len, &mut rng).demands())
                .collect();
            let pms = (0..scale.pms).map(|j| PmSpec::new(j, 90.0)).collect();
            Inputs { vms, pms, traces }
        }
    }
}

/// Phase times and results of one pipeline run.
#[derive(Default)]
struct Repeat {
    fit_s: f64,
    rounding_s: f64,
    place_s: f64,
    sim_s: f64,
    certify_s: f64,
    pipeline_s: f64,
    batch_path: bool,
    pms_used: usize,
    active_pm_steps: f64,
    migrations: usize,
    cvr_mean: f64,
    cvr_max: f64,
    unplaced: usize,
    errors: Vec<String>,
}

impl Repeat {
    /// fit + round + MapCal + place: the time until the caller holds a
    /// placement decision.
    fn plan_s(&self) -> f64 {
        self.fit_s + self.rounding_s + self.place_s
    }
}

fn pipeline(
    kind: PlanKind,
    scale: PlanScale,
    seed: u64,
    inputs: &Inputs,
    tracer: &mut Tracer,
) -> Repeat {
    let mut r = Repeat::default();
    let root = tracer.open("pipeline", None);
    let start = Instant::now();

    // Plan: the class-heavy fleet is planned from its specs at the
    // paper's uniform probabilities; traces are fitted and rounded first.
    let mut consolidator = Consolidator::new(Scheme::Queue).with_rho(RHO);
    let fitted: Vec<VmSpec>;
    let planned: &[VmSpec] = if kind == PlanKind::Traces {
        let fit = tracer.open("workload.fit", root);
        let t = Instant::now();
        fitted = inputs
            .traces
            .iter()
            .enumerate()
            .map(|(id, demands)| {
                let span = tracer.open("workload.fit_trace", fit);
                let spec = fit_trace(demands)
                    .expect("an ON-OFF trace has two demand levels")
                    .to_spec(id, demands.len());
                tracer.close(span);
                spec
            })
            .collect();
        r.fit_s = t.elapsed().as_secs_f64();
        tracer.close(fit);
        let ((p_on, p_off), secs) = tracer.time("placement.rounding", root, || {
            round_with_policy(&fitted, RoundingPolicy::Conservative).expect("non-empty fleet")
        });
        r.rounding_s = secs;
        consolidator = consolidator.with_probabilities(p_on, p_off);
        &fitted
    } else {
        &inputs.vms
    };
    r.batch_path = consolidator.uses_batch(planned);
    let (placed, secs) = tracer.time("placement.place", root, || {
        consolidator.place(planned, &inputs.pms)
    });
    r.place_s = secs;
    let placement = match placed {
        Ok(p) => p,
        Err(e) => {
            r.unplaced = planned.len();
            r.errors.push(format!("placement failed: {e}"));
            r.pipeline_s = start.elapsed().as_secs_f64();
            tracer.close(root);
            return r;
        }
    };

    // Simulate the true VMs against the plan.
    let config = match kind {
        PlanKind::ClassHeavy => SimConfig {
            steps: scale.steps,
            seed,
            rho: RHO,
            migrations_enabled: true,
            rng_layout: RngLayout::ClassAggregated,
            threads: 1,
            ..SimConfig::default()
        },
        PlanKind::Traces => SimConfig {
            steps: scale.steps,
            seed,
            rho: RHO,
            migrations_enabled: false,
            rng_layout: RngLayout::Shared,
            ..SimConfig::default()
        },
    };
    let (outcome, secs) = tracer.time("sim.run", root, || {
        consolidator.simulate(&inputs.vms, &inputs.pms, &placement, config)
    });
    r.sim_s = secs;

    // Report: fleet CVR summary, and for the trace pipeline the paper's
    // one-sided guarantee on every used PM. Conservative rounding makes
    // the true fleet undershoot the analytic value by design, so the
    // check is `ci.lo <= rho`, not the two-sided `consistent()`.
    let certify = tracer.open("obs.certify", root);
    let t = Instant::now();
    r.cvr_mean = outcome.mean_cvr();
    r.cvr_max = outcome.max_cvr();
    r.migrations = outcome.total_migrations();
    r.active_pm_steps = outcome.pms_used_series.values.iter().sum();
    if kind == PlanKind::Traces {
        let table =
            MappingTable::cached(consolidator.d, consolidator.p_on, consolidator.p_off, RHO);
        let lag1 = (1.0 - consolidator.p_on - consolidator.p_off).clamp(0.0, 0.999);
        let mut hosted = vec![0usize; inputs.pms.len()];
        for pm in placement.assignment.iter().flatten() {
            hosted[*pm] += 1;
        }
        let steps = scale.steps as u64;
        for &(pm, cvr) in &outcome.cvr_per_pm {
            let span = tracer.open("obs.certify_pm", certify);
            let violations = (cvr * steps as f64).round() as u64;
            let check = certify_cvr(
                pm,
                violations,
                steps,
                table.certified_cvr(hosted[pm]),
                CONF,
                lag1,
            );
            if check.ci.lo > RHO {
                r.errors
                    .push(format!("CVR guarantee broken: {}", check.describe()));
            }
            tracer.close(span);
        }
    }
    r.certify_s = t.elapsed().as_secs_f64();
    tracer.close(certify);
    r.pipeline_s = start.elapsed().as_secs_f64();
    tracer.close(root);

    // Checks, off the clock.
    r.pms_used = placement.pms_used();
    r.unplaced = placement.assignment.iter().filter(|a| a.is_none()).count();
    if let Err(pm) = placement.validate(planned, &inputs.pms, consolidator.strategy().as_ref()) {
        r.errors.push(format!("PM {pm} is infeasible under Eq. 17"));
    }
    if r.cvr_mean > RHO {
        r.errors
            .push(format!("mean CVR {} exceeds rho {RHO}", r.cvr_mean));
    }
    r
}

/// Generates the inputs and books the generation as a `setup_s` sample.
fn timed_setup(kind: PlanKind, scale: PlanScale, seed: u64, out: &mut Outcome) -> Inputs {
    let t = Instant::now();
    let inputs = generate(kind, scale, seed);
    out.sample("setup_s", t.elapsed().as_secs_f64());
    inputs
}

pub fn run(kind: PlanKind, scale: PlanScale, cfg: &RunCfg, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();

    let mut inputs = timed_setup(kind, scale, cfg.seed, &mut out);

    // One discarded warm-up (fills the MapCal memo and the allocator),
    // then timed repeats for `cfg.seconds`. A traced run alternates
    // untraced and traced repeats so it can price the tracing itself.
    let trace = tracer.enabled();
    tracer.set_enabled(false);
    pipeline(kind, scale, cfg.seed, &inputs, tracer);
    let mut plain: Vec<Repeat> = Vec::new();
    let mut traced: Vec<Repeat> = Vec::new();
    let clock = Instant::now();
    loop {
        let traced_turn = trace && plain.len() > traced.len();
        tracer.set_enabled(traced_turn);
        tracer.set_repeat((plain.len() + traced.len() + 1) as u32);
        let r = pipeline(kind, scale, cfg.seed, &inputs, tracer);
        if traced_turn {
            traced.push(r);
        } else {
            plain.push(r);
        }
        if plain.len() + traced.len() == 1 {
            // Later repeats only add allocator wear, and how many there
            // are depends on the clock.
            out.sample("peak_rss_mb", peak_rss_mb());
        }
        if plain.len() + traced.len() <= scale.setups {
            // Set up again between repeats, spread over the run: set-ups
            // all in one instant would read that instant's share of the
            // host's noise. The old inputs go first, so that two sets
            // are never held at once.
            drop(std::mem::take(&mut inputs));
            inputs = timed_setup(kind, scale, cfg.seed, &mut out);
        }
        let balanced = !trace || plain.len() == traced.len();
        if balanced && clock.elapsed().as_secs_f64() >= cfg.seconds {
            break;
        }
    }
    tracer.set_enabled(trace);

    let vm_steps = (scale.vms * scale.steps) as f64;
    let first = &plain[0];
    for r in plain.iter().chain(&traced) {
        out.attempted += scale.vms as u64;
        out.failed += r.unplaced as u64;
        out.errors.extend(r.errors.iter().cloned());
        out.check(
            r.pms_used == first.pms_used && r.migrations == first.migrations,
            || {
                format!(
                    "repeats disagree: {} PMs / {} migrations vs {} / {}",
                    r.pms_used, r.migrations, first.pms_used, first.migrations
                )
            },
        );
    }
    for r in &plain {
        out.sample("pipeline_s", r.pipeline_s);
        // One placement decision per repeat, so its latency is the p50.
        out.sample("decision_p50_ms", r.plan_s() * 1e3);
        out.sample("throughput_per_s", vm_steps / r.sim_s);
    }
    out.sample("pms_used", first.pms_used as f64);

    if trace {
        layers(kind, scale, cfg, &inputs, &plain, &traced, tracer, &mut out);
    }
    out
}

#[allow(clippy::too_many_arguments)]
fn layers(
    kind: PlanKind,
    scale: PlanScale,
    cfg: &RunCfg,
    inputs: &Inputs,
    plain: &[Repeat],
    traced: &[Repeat],
    tracer: &mut Tracer,
    out: &mut Outcome,
) {
    // The same estimator as the end-to-end figures, phase by phase. The
    // harness times the phases the same way whether or not it keeps
    // spans, so every repeat counts, and the phases' best times can only
    // sum to less than the best whole run.
    let of = |rs: &[Repeat], f: fn(&Repeat) -> f64| best_low(&rs.iter().map(f).collect::<Vec<_>>());
    let both = |f: fn(&Repeat) -> f64| of(plain, f).min(of(traced, f));
    let first = &traced[0];
    let (fit_s, rounding_s, place_s) = (
        both(|r| r.fit_s),
        both(|r| r.rounding_s),
        both(|r| r.place_s),
    );
    let (sim_s, certify_s) = (both(|r| r.sim_s), both(|r| r.certify_s));
    let vm_steps = (scale.vms * scale.steps) as f64;

    if kind == PlanKind::Traces {
        out.layer("workload.fit_s", fit_s);
        out.layer(
            "workload.fit_ns_per_sample",
            fit_s * 1e9 / (scale.vms * scale.trace_len) as f64,
        );
        out.layer("obs.certify_s", certify_s);
    }
    out.layer("placement.rounding_s", rounding_s);
    // `place` finds its table in the process-wide memo after the
    // warm-up; this is what one uncached Algorithm-1 build costs.
    let (_, mapcal_s) = tracer.time("placement.mapcal_build", None, || {
        std::hint::black_box(MappingTable::build(16, 0.01, 0.09, RHO))
    });
    out.layer("placement.mapcal_build_s", mapcal_s);
    out.layer("placement.place_s", place_s);
    out.layer(
        "placement.place_ns_per_vm",
        place_s * 1e9 / scale.vms as f64,
    );
    out.layer(
        "placement.batch_path",
        f64::from(u8::from(first.batch_path)),
    );
    out.layer("placement.pms_used", first.pms_used as f64);
    out.layer("sim.run_s", sim_s);
    out.layer("sim.ns_per_vm_step", sim_s * 1e9 / vm_steps);
    out.layer("sim.ns_per_pm_step", sim_s * 1e9 / first.active_pm_steps);
    out.layer("sim.migrations", first.migrations as f64);
    out.layer("sim.cvr_mean", first.cvr_mean);
    out.layer("sim.cvr_max_pm", first.cvr_max);

    match kind {
        PlanKind::ClassHeavy => {
            // The cell kernel alone, stepping the same placement for the
            // same number of steps: what is left of `sim.run_s` is the
            // migration controller and bookkeeping.
            let placement = Consolidator::new(Scheme::Queue)
                .place(&inputs.vms, &inputs.pms)
                .expect("placed in every repeat above");
            let mut kernel = ClassCoreBench::new(
                &inputs.vms,
                inputs.pms.len(),
                &placement.assignment,
                cfg.seed,
                1,
                true,
            );
            // Stepping on from where the last pass stopped is the same
            // work: the chains are stationary.
            let kernel_s = (0..LAYER_PASSES)
                .map(|_| {
                    tracer
                        .time("sim.kernel", None, || {
                            for _ in 0..scale.steps {
                                std::hint::black_box(kernel.step());
                            }
                        })
                        .1
                })
                .fold(f64::INFINITY, f64::min);
            let (hits, misses, _) = kernel.cache_stats();
            out.layer("sim.kernel_s", kernel_s);
            out.layer("sim.kernel_share", kernel_s / sim_s);
            out.layer(
                "sim.cache_hit_rate",
                hits as f64 / (hits + misses).max(1) as f64,
            );
        }
        PlanKind::Traces => {
            // The same simulation with the full in-memory recorder on.
            let fitted: Vec<VmSpec> = inputs
                .traces
                .iter()
                .enumerate()
                .map(|(id, d)| fit_trace(d).expect("fitted above").to_spec(id, d.len()))
                .collect();
            let (p_on, p_off) =
                round_with_policy(&fitted, RoundingPolicy::Conservative).expect("non-empty");
            let consolidator = Consolidator::new(Scheme::Queue)
                .with_rho(RHO)
                .with_probabilities(p_on, p_off);
            let placement = consolidator
                .place(&fitted, &inputs.pms)
                .expect("placed in every repeat above");
            let config = SimConfig {
                steps: scale.steps,
                seed: cfg.seed,
                rho: RHO,
                migrations_enabled: false,
                ..SimConfig::default()
            };
            let recorded_s = (0..LAYER_PASSES)
                .map(|_| {
                    let mut rec =
                        MemoryRecorder::new(65_536).with_cvr_sampling((scale.steps / 256).max(1));
                    tracer
                        .time("obs.memory_recorder_run", None, || {
                            consolidator.simulate_recorded(
                                &inputs.vms,
                                &inputs.pms,
                                &placement,
                                config,
                                &mut rec,
                            )
                        })
                        .1
                })
                .fold(f64::INFINITY, f64::min);
            out.layer(
                "obs.memory_recorder_overhead_pct",
                (recorded_s / sim_s - 1.0) * 100.0,
            );
        }
    }

    let untraced = of(plain, |r| r.pipeline_s);
    let traced_total = of(traced, |r| r.pipeline_s);
    out.layer(
        "trace.overhead_pct",
        (traced_total / untraced - 1.0) * 100.0,
    );
    let attributed = fit_s + rounding_s + place_s + sim_s + certify_s;
    out.layer("plan.unattributed_s", untraced - attributed);
    out.ladder = vec![
        ("workload.fit", fit_s),
        ("placement.rounding", rounding_s),
        ("placement.place", place_s),
        ("sim.run", sim_s),
        ("obs.certify", certify_s),
        ("plan.unattributed", untraced - attributed),
    ];
    out.ladder_total = untraced;
}
