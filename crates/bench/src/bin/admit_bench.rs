//! Sustained online-admission churn benchmark with machine-readable output.
//!
//! Replays one deterministic churn program — departures, class-heavy batch
//! arrivals, single arrive/depart pairs, periodic recalibration — against
//! both online engines at several fleet sizes and writes the results as
//! JSON: the `BENCH_admit.json` artifact CI uploads for trending, schema
//! cousin of `BENCH_engine.json`.
//!
//! ```text
//! admit-bench [--fleets N1,N2,...] [--rounds R] [--batch B] [--singles S]
//!             [--recal-every K] [--seed SEED] [--out PATH]
//!             [--gate-speedup X] [--before PATH] [--commit LABEL]
//! ```
//!
//! Defaults: fleets `10000,100000,1000000`, 24 rounds, 512-VM batches,
//! 64 single pairs per round, recalibrate every round, seed 1,
//! output to `BENCH_admit.json`. The fleet is duplicate-heavy Table-I
//! EqualSpike (three VM classes), the regime the SoA engine's class cells
//! are built for.
//!
//! Every other round one of the single arrivals carries jittered switch
//! probabilities (one of [`JITTER_LEVELS`] levels, the step the system
//! benchmark's mixed program uses): the PM it lands on is priced by its
//! hotter chain's table from then on, built on the first arrival of that
//! level. A recalibration only names the hottest live class, so
//! `recal_p50_ns`/`_p99_ns` are an `O(k)` walk of the class registry,
//! whatever the fleet size. `batch_p50_ns` is the median whole batch
//! arrival, one sample per batch (the admit percentiles spread each batch
//! over its members).
//!
//! Both engines replay the *same* program, driven through the one
//! [`OnlineEngine`] trait with the recorder off, so their final states
//! must be bit-identical; the bench always exits nonzero if hosts, loads or used-PM
//! counts disagree. `--gate-speedup X` additionally requires the SoA
//! engine's sustained churn throughput to beat the reference by at least
//! `X`× at the largest fleet size. Rows of both sections (`admit`,
//! `pairs`) are one per line, each led by the commit it was measured at
//! (`--commit`, default `git describe --always --dirty`) and the host's
//! `available_parallelism`; `--before OLD.json` copies OLD's rows of both
//! in front of this run's, which is how the checked-in file holds a
//! parent and a change row per engine and fleet (copy `crates/bench/src`
//! into a clone of the parent commit and run it there first; it uses the
//! public API only, and needs a parent that has [`OnlineEngine`]). A flag that is not declared above, given twice,
//! without a value or with an unparsable one exits 2.

use bursty_bench::{quantile_ns, timed, write_report, Before, Flags, Obj, ToJson};
use bursty_core::placement::OnlineEngine;
use bursty_core::prelude::*;
use bursty_server::Json;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// The Table-I EqualSpike class templates churn arrivals are drawn from
/// (`R_b = R_e`, generator-default probabilities).
const TEMPLATES: [(f64, f64); 3] = [(5.0, 5.0), (10.0, 10.0), (20.0, 20.0)];
const P_ON: f64 = 0.01;
const P_OFF: f64 = 0.09;
/// Discrete probability jitter of the odd rounds' one hot VM: level
/// `l` of `1..=8` is `(P_ON + 0.004·l/8, P_OFF + 0.01·l/8)` — the system
/// benchmark's step, without its level 0, so the VM is always hotter
/// than the fleet. A continuous jitter would add a class to the engines'
/// registries per draw.
const JITTER_LEVELS: u64 = 8;
const D: usize = 16;
const RHO: f64 = 0.01;

/// One step of the pre-generated churn program. Victim ids are fixed at
/// generation time so both engines see the identical op sequence.
enum ChurnOp {
    /// Single departures, timed one by one.
    Departs(Vec<usize>),
    /// One batch arrival (class-heavy, hits the collapsed fast path).
    Batch(Vec<VmSpec>),
    /// A single departure immediately followed by a single arrival.
    Single { victim: usize, vm: VmSpec },
    /// Periodic recalibration: a report of the hottest live class.
    Recalibrate,
}

struct Program {
    ops: Vec<ChurnOp>,
    admissions: u64,
    departures: u64,
    recalibrations: u64,
}

/// Generates the deterministic churn program for a fleet of `n` VMs.
/// Membership evolution depends only on the op sequence (never on where an
/// engine placed a VM), so a single shadow live-set replay suffices.
fn build_program(
    n: usize,
    rounds: usize,
    batch: usize,
    singles: usize,
    recal_every: usize,
    rng: &mut StdRng,
) -> Program {
    let mut live: Vec<usize> = (0..n).collect();
    let mut next_id = n;
    let fresh = |rng: &mut StdRng, next_id: &mut usize, jitter: bool| {
        let (r_b, r_e) = TEMPLATES[rng.gen_range(0..TEMPLATES.len())];
        let level = if jitter {
            (1 + rng.gen_range(0..JITTER_LEVELS)) as f64 / JITTER_LEVELS as f64
        } else {
            0.0
        };
        let vm = VmSpec::new(
            *next_id,
            P_ON + 0.004 * level,
            P_OFF + 0.01 * level,
            r_b,
            r_e,
        );
        *next_id += 1;
        vm
    };
    let mut ops = Vec::new();
    let (mut admissions, mut departures, mut recalibrations) = (0u64, 0u64, 0u64);
    for round in 0..rounds {
        let victims: Vec<usize> = (0..batch.min(live.len()))
            .map(|_| live.swap_remove(rng.gen_range(0..live.len())))
            .collect();
        departures += victims.len() as u64;
        ops.push(ChurnOp::Departs(victims));

        let arrivals: Vec<VmSpec> = (0..batch)
            .map(|_| fresh(rng, &mut next_id, false))
            .collect();
        live.extend(arrivals.iter().map(|vm| vm.id));
        admissions += arrivals.len() as u64;
        ops.push(ChurnOp::Batch(arrivals));

        for single in 0..singles {
            let victim = live.swap_remove(rng.gen_range(0..live.len()));
            let vm = fresh(rng, &mut next_id, single == 0 && round % 2 == 0);
            live.push(vm.id);
            departures += 1;
            admissions += 1;
            ops.push(ChurnOp::Single { victim, vm });
        }

        if recal_every > 0 && (round + 1) % recal_every == 0 {
            recalibrations += 1;
            ops.push(ChurnOp::Recalibrate);
        }
    }
    Program {
        ops,
        admissions,
        departures,
        recalibrations,
    }
}

/// Per-op latency record. Keeps every amortized per-op sample (a few tens
/// of thousands per run — small enough to hold exactly) so the reported
/// percentiles are true order statistics in nanoseconds, not `Log2Histogram`
/// bucket upper bounds (511, 8191, …) as earlier revisions printed.
struct LatencyStats {
    samples: Vec<u64>,
    total_ns: u128,
    count: u64,
}

impl LatencyStats {
    fn new() -> Self {
        Self {
            samples: Vec::new(),
            total_ns: 0,
            count: 0,
        }
    }

    /// Records `elapsed` spread over `ops` operations (batch members get the
    /// amortized per-member cost).
    fn record(&mut self, elapsed_ns: u128, ops: u64) {
        if ops == 0 {
            return;
        }
        let per_op = (elapsed_ns / ops as u128) as u64;
        self.samples
            .extend(std::iter::repeat_n(per_op, ops as usize));
        self.total_ns += elapsed_ns;
        self.count += ops;
    }

    fn per_sec(&self) -> f64 {
        if self.total_ns == 0 {
            return 0.0;
        }
        self.count as f64 / (self.total_ns as f64 / 1e9)
    }

    /// Exact nearest-rank quantile over the recorded samples.
    fn quantile_ns(&self, q: f64) -> u64 {
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        quantile_ns(&sorted, q)
    }

    fn p50(&self) -> u64 {
        self.quantile_ns(0.5)
    }

    fn p99(&self) -> u64 {
        self.quantile_ns(0.99)
    }
}

/// Warms the engine to the initial fleet and replays the program with
/// per-op timing; returns the engine's `admit` row, its churn ops/sec and
/// its end-state digest.
fn run_engine<E: OnlineEngine>(
    commit: &str,
    name: &str,
    mut engine: E,
    initial: Vec<VmSpec>,
    program: &Program,
    m: usize,
) -> (Json, f64, StateDigest) {
    let n = initial.len();
    let rec = &mut NoopRecorder;
    let (warmed, warmup_secs) = timed(|| engine.arrive_batch(initial, rec));
    warmed.unwrap_or_else(|e| panic!("{name}: warm-up fleet does not fit (VM {})", e.vm_id));

    let mut admit = LatencyStats::new();
    let mut batch = LatencyStats::new();
    let mut depart = LatencyStats::new();
    let mut recal = LatencyStats::new();
    let churn_start = Instant::now();
    for op in &program.ops {
        match op {
            ChurnOp::Departs(victims) => {
                for &id in victims {
                    let t = Instant::now();
                    let host = engine.depart(id, rec);
                    depart.record(t.elapsed().as_nanos(), 1);
                    assert!(host.is_some(), "{name}: departing VM {id} not found");
                }
            }
            ChurnOp::Batch(vms) => {
                let members = vms.len() as u64;
                let t = Instant::now();
                let placed = engine.arrive_batch(vms.clone(), rec);
                let elapsed = t.elapsed().as_nanos();
                admit.record(elapsed, members);
                batch.record(elapsed, 1);
                placed
                    .unwrap_or_else(|e| panic!("{name}: batch arrival rejected (VM {})", e.vm_id));
            }
            ChurnOp::Single { victim, vm } => {
                let t = Instant::now();
                let host = engine.depart(*victim, rec);
                depart.record(t.elapsed().as_nanos(), 1);
                assert!(host.is_some(), "{name}: departing VM {victim} not found");
                let t = Instant::now();
                let placed = engine.arrive(*vm, rec);
                admit.record(t.elapsed().as_nanos(), 1);
                placed
                    .unwrap_or_else(|e| panic!("{name}: single arrival rejected (VM {})", e.vm_id));
            }
            ChurnOp::Recalibrate => {
                let t = Instant::now();
                let pair = engine.recalibrate(rec);
                recal.record(t.elapsed().as_nanos(), 1);
                assert!(pair.is_some(), "{name}: recalibrated an empty cluster");
            }
        }
    }
    let churn_secs = churn_start.elapsed().as_secs_f64();

    engine
        .check_consistency()
        .unwrap_or_else(|e| panic!("{name}: post-churn consistency check failed: {e}"));
    let digest = engine.state_digest();

    let ops = program.admissions + program.departures + program.recalibrations;
    let ops_per_sec = ops as f64 / churn_secs;
    eprintln!(
        "  {name:<9} {ops_per_sec:.0} ops/s (churn {churn_secs:.3}s, warm-up {warmup_secs:.3}s, \
         {} recalibrations, p50 {} ns)",
        recal.count,
        recal.p50(),
    );
    let row = bursty_bench::row(commit)
        .field("n", n)
        .field("m", m)
        .field("engine", name)
        .field("warmup_secs", warmup_secs)
        .field("churn_secs", churn_secs)
        .field("ops", ops)
        .field("ops_per_sec", ops_per_sec)
        .field("admissions", admit.count)
        .field("admissions_per_sec", admit.per_sec())
        .field("departures", depart.count)
        .field("departures_per_sec", depart.per_sec())
        .field("admit_p50_ns", admit.p50())
        .field("admit_p99_ns", admit.p99())
        .field("batch_p50_ns", batch.p50())
        .field("depart_p50_ns", depart.p50())
        .field("depart_p99_ns", depart.p99())
        .field("recalibrations", recal.count)
        .field("recal_p50_ns", recal.p50())
        .field("recal_p99_ns", recal.p99());
    (row.to_json(), ops_per_sec, digest)
}

fn main() {
    let flags = Flags::from_env(&[
        "fleets",
        "rounds",
        "batch",
        "singles",
        "recal-every",
        "seed",
        "out",
        "gate-speedup",
        "before",
        "commit",
    ]);
    let fleets = flags
        .list("fleets")
        .unwrap_or_else(|| vec![10_000, 100_000, 1_000_000]);
    let rounds: usize = flags.get("rounds").unwrap_or(24);
    let batch: usize = flags.get("batch").unwrap_or(512);
    let singles: usize = flags.get("singles").unwrap_or(64);
    let recal_every: usize = flags.get("recal-every").unwrap_or(1);
    let seed: u64 = flags.get("seed").unwrap_or(1);
    let out: String = flags
        .get("out")
        .unwrap_or_else(|| "BENCH_admit.json".into());
    let gate_speedup: Option<f64> = flags.get("gate-speedup");
    let before = Before::load(flags.get::<String>("before").as_deref());
    let commit = bursty_bench::commit_label(flags.get("commit"));

    let (mut rows, mut pairs) = (before.rows("admit"), before.rows("pairs"));
    let mut disagreed = false;
    let mut last_speedup: Option<(usize, f64)> = None;

    for &n in &fleets {
        let m = (n / 4).max(64);
        let mut gen = FleetGenerator::new(seed.wrapping_add(n as u64));
        let initial = gen.vms_table_i(n, WorkloadPattern::EqualSpike);
        let pms = gen.pms(m);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
        let program = build_program(n, rounds, batch, singles, recal_every, &mut rng);

        eprintln!(
            "admit-bench: n={n} m={m} ops={} ({} admissions, {} departures, {} recalibrations)",
            program.admissions + program.departures + program.recalibrations,
            program.admissions,
            program.departures,
            program.recalibrations,
        );

        // Engines run one at a time (digests carry the comparison) so the
        // 1M-VM size never holds two full clusters in memory.
        let reference = ReferenceOnlineCluster::new(pms.clone(), D, RHO);
        let (ref_row, ref_ops_per_sec, ref_digest) = run_engine(
            &commit,
            "reference",
            reference,
            initial.clone(),
            &program,
            m,
        );
        let soa = OnlineCluster::new(pms, D, P_ON, P_OFF, RHO);
        let (soa_row, soa_ops_per_sec, soa_digest) =
            run_engine(&commit, "soa", soa, initial, &program, m);

        let agree = ref_digest == soa_digest;
        if !agree {
            eprintln!("  DISAGREEMENT at n={n}: reference {ref_digest:?} vs soa {soa_digest:?}");
            disagreed = true;
        }
        let speedup = soa_ops_per_sec / ref_ops_per_sec;
        last_speedup = Some((n, speedup));
        let pair = bursty_bench::row(&commit)
            .field("n", n)
            .field("speedup", speedup)
            .field("agreement", agree);
        pairs.push(pair.to_json());
        rows.extend([ref_row, soa_row]);
    }

    let config = Obj::default()
        .field("rounds", rounds)
        .field("batch", batch)
        .field("singles", singles)
        .field("recal_every", recal_every)
        .field("jitter_levels", JITTER_LEVELS)
        .field("seed", seed)
        .field("d", D)
        .field("rho", RHO)
        .field("workload", "table_i_equal_spike");
    let report = bursty_bench::report("admit-bench")
        .field("config", config)
        .field("admit", rows)
        .field("pairs", pairs);
    write_report(&out, report);

    if disagreed {
        eprintln!("admit-bench: FAIL — engines disagreed on at least one fleet size");
        std::process::exit(1);
    }
    if let (Some(gate), Some((n, ratio))) = (gate_speedup, last_speedup) {
        if ratio < gate {
            eprintln!(
                "admit-bench: FAIL — churn speedup {ratio:.2}x at n={n} below the {gate}x gate"
            );
            std::process::exit(1);
        }
        eprintln!("admit-bench: speedup gate passed ({ratio:.2}x >= {gate}x at n={n})");
    }
}
