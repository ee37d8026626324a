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
//!             [--recal-every K] [--epsilon E] [--seed SEED] [--out PATH]
//!             [--gate-speedup X]
//! ```
//!
//! Defaults: fleets `10000,100000,1000000`, 24 rounds, 512-VM batches,
//! 64 single pairs per round, recalibrate every 2 rounds, ε = 0, seed 1,
//! output to `BENCH_admit.json`. The fleet is duplicate-heavy Table-I
//! EqualSpike (three VM classes), the regime the SoA engine's class cells
//! are built for.
//!
//! Both engines replay the *same* program, so their final states must be
//! bit-identical; the bench always exits nonzero if hosts, loads or used-PM
//! counts disagree. `--gate-speedup X` additionally requires the SoA
//! engine's sustained churn throughput to beat the reference by at least
//! `X`× at the largest fleet size.

use bursty_bench::quantile_ns;
use bursty_core::placement::PackError;
use bursty_core::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use std::time::Instant;

/// The Table-I EqualSpike class templates churn arrivals are drawn from
/// (`R_b = R_e`, generator-default probabilities).
const TEMPLATES: [(f64, f64); 3] = [(5.0, 5.0), (10.0, 10.0), (20.0, 20.0)];
const P_ON: f64 = 0.01;
const P_OFF: f64 = 0.09;
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
    /// Periodic probability recalibration.
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
    let fresh = |rng: &mut StdRng, next_id: &mut usize| {
        let (r_b, r_e) = TEMPLATES[rng.gen_range(0..TEMPLATES.len())];
        let vm = VmSpec::new(*next_id, P_ON, P_OFF, r_b, r_e);
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

        let arrivals: Vec<VmSpec> = (0..batch).map(|_| fresh(rng, &mut next_id)).collect();
        live.extend(arrivals.iter().map(|vm| vm.id));
        admissions += arrivals.len() as u64;
        ops.push(ChurnOp::Batch(arrivals));

        for _ in 0..singles {
            let victim = live.swap_remove(rng.gen_range(0..live.len()));
            let vm = fresh(rng, &mut next_id);
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

/// Uniform driver over the two engines so the replay loop is written once.
enum Engine {
    Soa(OnlineCluster),
    Reference(ReferenceOnlineCluster),
}

impl Engine {
    fn name(&self) -> &'static str {
        match self {
            Engine::Soa(_) => "soa",
            Engine::Reference(_) => "reference",
        }
    }

    fn arrive(&mut self, vm: VmSpec) -> Result<usize, PackError> {
        match self {
            Engine::Soa(c) => c.arrive(vm),
            Engine::Reference(c) => c.arrive(vm),
        }
    }

    fn depart(&mut self, vm_id: usize) -> Option<usize> {
        match self {
            Engine::Soa(c) => c.depart(vm_id),
            Engine::Reference(c) => c.depart(vm_id),
        }
    }

    fn arrive_batch(&mut self, batch: Vec<VmSpec>) -> Result<Vec<(usize, usize)>, PackError> {
        match self {
            Engine::Soa(c) => c.arrive_batch(batch),
            Engine::Reference(c) => c.arrive_batch(batch),
        }
    }

    fn recalibrate(&mut self) -> Option<(f64, f64)> {
        match self {
            Engine::Soa(c) => c.recalibrate(),
            Engine::Reference(c) => c.recalibrate(),
        }
    }

    fn check_consistency(&self) -> Result<(), String> {
        match self {
            Engine::Soa(c) => c.check_consistency(),
            Engine::Reference(c) => c.check_consistency(),
        }
    }

    /// The engine's library [`StateDigest`] — lets the bench compare end
    /// states without holding both engines in memory at once.
    fn state_digest(&self) -> StateDigest {
        match self {
            Engine::Soa(c) => c.state_digest(),
            Engine::Reference(c) => c.state_digest(),
        }
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

struct ChurnRow {
    n: usize,
    m: usize,
    engine: &'static str,
    warmup_secs: f64,
    churn_secs: f64,
    ops: u64,
    ops_per_sec: f64,
    admit: LatencyStats,
    depart: LatencyStats,
    recal: LatencyStats,
}

/// Warms the engine to the initial fleet, replays the program with per-op
/// timing, and returns the row plus the end-state digest.
fn run_engine(
    mut engine: Engine,
    initial: Vec<VmSpec>,
    program: &Program,
    m: usize,
) -> (ChurnRow, StateDigest) {
    let n = initial.len();
    let name = engine.name();
    let warm_start = Instant::now();
    engine
        .arrive_batch(initial)
        .unwrap_or_else(|e| panic!("{name}: warm-up fleet does not fit (VM {})", e.vm_id));
    let warmup_secs = warm_start.elapsed().as_secs_f64();

    let mut admit = LatencyStats::new();
    let mut depart = LatencyStats::new();
    let mut recal = LatencyStats::new();
    let churn_start = Instant::now();
    for op in &program.ops {
        match op {
            ChurnOp::Departs(victims) => {
                for &id in victims {
                    let t = Instant::now();
                    let host = engine.depart(id);
                    depart.record(t.elapsed().as_nanos(), 1);
                    assert!(host.is_some(), "{name}: departing VM {id} not found");
                }
            }
            ChurnOp::Batch(batch) => {
                let members = batch.len() as u64;
                let t = Instant::now();
                let placed = engine.arrive_batch(batch.clone());
                admit.record(t.elapsed().as_nanos(), members);
                placed
                    .unwrap_or_else(|e| panic!("{name}: batch arrival rejected (VM {})", e.vm_id));
            }
            ChurnOp::Single { victim, vm } => {
                let t = Instant::now();
                let host = engine.depart(*victim);
                depart.record(t.elapsed().as_nanos(), 1);
                assert!(host.is_some(), "{name}: departing VM {victim} not found");
                let t = Instant::now();
                let placed = engine.arrive(*vm);
                admit.record(t.elapsed().as_nanos(), 1);
                placed
                    .unwrap_or_else(|e| panic!("{name}: single arrival rejected (VM {})", e.vm_id));
            }
            ChurnOp::Recalibrate => {
                let t = Instant::now();
                let pair = engine.recalibrate();
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
    let row = ChurnRow {
        n,
        m,
        engine: name,
        warmup_secs,
        churn_secs,
        ops,
        ops_per_sec: ops as f64 / churn_secs,
        admit,
        depart,
        recal,
    };
    (row, digest)
}

#[allow(clippy::type_complexity)]
fn parse_args() -> (
    Vec<usize>,
    usize,
    usize,
    usize,
    usize,
    f64,
    u64,
    String,
    Option<f64>,
) {
    let mut fleets = vec![10_000usize, 100_000, 1_000_000];
    let mut rounds = 24usize;
    let mut batch = 512usize;
    let mut singles = 64usize;
    let mut recal_every = 2usize;
    let mut epsilon = 0.0f64;
    let mut seed = 1u64;
    let mut out = "BENCH_admit.json".to_string();
    let mut gate_speedup: Option<f64> = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--fleets" => {
                fleets = args[i + 1]
                    .split(',')
                    .map(|s| s.parse().expect("--fleets wants comma-separated sizes"))
                    .collect();
                i += 2;
            }
            "--rounds" => {
                rounds = args[i + 1].parse().expect("--rounds wants an integer");
                i += 2;
            }
            "--batch" => {
                batch = args[i + 1].parse().expect("--batch wants an integer");
                i += 2;
            }
            "--singles" => {
                singles = args[i + 1].parse().expect("--singles wants an integer");
                i += 2;
            }
            "--recal-every" => {
                recal_every = args[i + 1].parse().expect("--recal-every wants an integer");
                i += 2;
            }
            "--epsilon" => {
                epsilon = args[i + 1].parse().expect("--epsilon wants a float");
                i += 2;
            }
            "--seed" => {
                seed = args[i + 1].parse().expect("--seed wants an integer");
                i += 2;
            }
            "--out" => {
                out = args[i + 1].clone();
                i += 2;
            }
            "--gate-speedup" => {
                gate_speedup = Some(args[i + 1].parse().expect("--gate-speedup wants a float"));
                i += 2;
            }
            other => {
                eprintln!("unknown flag: {other}");
                std::process::exit(2);
            }
        }
    }
    (
        fleets,
        rounds,
        batch,
        singles,
        recal_every,
        epsilon,
        seed,
        out,
        gate_speedup,
    )
}

fn push_row(json: &mut String, row: &ChurnRow, last: bool) {
    writeln!(
        json,
        "    {{\"n\": {}, \"m\": {}, \"engine\": \"{}\", \"warmup_secs\": {:.6}, \"churn_secs\": {:.6}, \"ops\": {}, \"ops_per_sec\": {:.1}, \"admissions\": {}, \"admissions_per_sec\": {:.1}, \"departures\": {}, \"departures_per_sec\": {:.1}, \"admit_p50_ns\": {}, \"admit_p99_ns\": {}, \"depart_p50_ns\": {}, \"depart_p99_ns\": {}, \"recal_p50_ns\": {}, \"recal_p99_ns\": {}}}{}",
        row.n,
        row.m,
        row.engine,
        row.warmup_secs,
        row.churn_secs,
        row.ops,
        row.ops_per_sec,
        row.admit.count,
        row.admit.per_sec(),
        row.depart.count,
        row.depart.per_sec(),
        row.admit.p50(),
        row.admit.p99(),
        row.depart.p50(),
        row.depart.p99(),
        row.recal.p50(),
        row.recal.p99(),
        if last { "" } else { "," }
    )
    .unwrap();
}

fn main() {
    let (fleets, rounds, batch, singles, recal_every, epsilon, seed, out_path, gate_speedup) =
        parse_args();
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());

    let mut rows: Vec<ChurnRow> = Vec::new();
    let mut agreements: Vec<(usize, bool)> = Vec::new();
    let mut speedups: Vec<(usize, f64)> = Vec::new();

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
        let reference = Engine::Reference(
            ReferenceOnlineCluster::new(pms.clone(), D, P_ON, P_OFF, RHO)
                .with_recalibration_epsilon(epsilon),
        );
        let (ref_row, ref_digest) = run_engine(reference, initial.clone(), &program, m);
        eprintln!(
            "  reference: {:.0} ops/s (churn {:.3}s, warm-up {:.3}s)",
            ref_row.ops_per_sec, ref_row.churn_secs, ref_row.warmup_secs
        );

        let soa = Engine::Soa(
            OnlineCluster::new(pms, D, P_ON, P_OFF, RHO).with_recalibration_epsilon(epsilon),
        );
        let (soa_row, soa_digest) = run_engine(soa, initial, &program, m);
        eprintln!(
            "  soa:       {:.0} ops/s (churn {:.3}s, warm-up {:.3}s)",
            soa_row.ops_per_sec, soa_row.churn_secs, soa_row.warmup_secs
        );

        let agree = ref_digest == soa_digest;
        if !agree {
            eprintln!("  DISAGREEMENT at n={n}: reference {ref_digest:?} vs soa {soa_digest:?}");
        }
        agreements.push((n, agree));
        speedups.push((n, soa_row.ops_per_sec / ref_row.ops_per_sec));
        rows.push(ref_row);
        rows.push(soa_row);
    }

    let mut json = String::new();
    writeln!(json, "{{").unwrap();
    writeln!(json, "  \"generated_by\": \"admit-bench\",").unwrap();
    writeln!(json, "  \"available_parallelism\": {cores},").unwrap();
    writeln!(
        json,
        "  \"config\": {{\"rounds\": {rounds}, \"batch\": {batch}, \"singles\": {singles}, \"recal_every\": {recal_every}, \"epsilon\": {epsilon}, \"seed\": {seed}, \"d\": {D}, \"rho\": {RHO}, \"workload\": \"table_i_equal_spike\"}},"
    )
    .unwrap();
    writeln!(json, "  \"admit\": [").unwrap();
    for (i, row) in rows.iter().enumerate() {
        push_row(&mut json, row, i + 1 == rows.len());
    }
    writeln!(json, "  ],").unwrap();
    writeln!(json, "  \"speedups\": {{").unwrap();
    for (i, (n, ratio)) in speedups.iter().enumerate() {
        writeln!(
            json,
            "    \"n{n}\": {ratio:.2}{}",
            if i + 1 == speedups.len() { "" } else { "," }
        )
        .unwrap();
    }
    writeln!(json, "  }},").unwrap();
    writeln!(json, "  \"agreement\": {{").unwrap();
    for (i, (n, agree)) in agreements.iter().enumerate() {
        writeln!(
            json,
            "    \"n{n}\": {agree}{}",
            if i + 1 == agreements.len() { "" } else { "," }
        )
        .unwrap();
    }
    writeln!(json, "  }}").unwrap();
    writeln!(json, "}}").unwrap();

    std::fs::write(&out_path, &json).expect("write benchmark JSON");
    eprintln!("admit-bench: wrote {out_path}");

    if agreements.iter().any(|&(_, agree)| !agree) {
        eprintln!("admit-bench: FAIL — engines disagreed on at least one fleet size");
        std::process::exit(1);
    }
    if let Some(gate) = gate_speedup {
        if let Some(&(n, ratio)) = speedups.last() {
            if ratio < gate {
                eprintln!(
                    "admit-bench: FAIL — churn speedup {ratio:.2}x at n={n} below the {gate}x gate"
                );
                std::process::exit(1);
            }
            eprintln!("admit-bench: speedup gate passed ({ratio:.2}x >= {gate}x at n={n})");
        }
    }
}
