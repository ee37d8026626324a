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
//!             [--gate-speedup X] [--before PATH] [--commit LABEL]
//! ```
//!
//! Defaults: fleets `10000,100000,1000000`, 24 rounds, 512-VM batches,
//! 64 single pairs per round, recalibrate every round, ε = 0, seed 1,
//! output to `BENCH_admit.json`. The fleet is duplicate-heavy Table-I
//! EqualSpike (three VM classes), the regime the SoA engine's class cells
//! are built for.
//!
//! Every other round one of the single arrivals carries jittered switch
//! probabilities (one of [`JITTER_LEVELS`] levels, the step the system
//! benchmark's mixed program uses), so the rounded pair moves and
//! the recalibration that follows rebuilds the mapping table and rewrites
//! the occupied PMs' headrooms; the round after admits the base pair only
//! and its recalibration returns at the ε-gate. `recal_p50_ns`/`_p99_ns`
//! cover all recalibrations, `recal_rebuild_p50_ns`/`_p99_ns` the
//! `recal_rebuilds` of them that changed the table. (A program whose VMs
//! all share one pair re-rounds to the bit-equal pair every time: every
//! recalibration is the gate's few hundred nanoseconds, whatever the
//! fleet size.)
//!
//! Both engines replay the *same* program, so their final states must be
//! bit-identical; the bench always exits nonzero if hosts, loads or used-PM
//! counts disagree. `--gate-speedup X` additionally requires the SoA
//! engine's sustained churn throughput to beat the reference by at least
//! `X`× at the largest fleet size. Rows are one per line, each led by the
//! commit it was measured at (`--commit`, default `git describe --always
//! --dirty`); `--before OLD.json` copies OLD's rows in front of this
//! run's, which is how the checked-in file holds a parent and a change
//! row per engine and fleet (copy this source into a clone of the parent
//! commit and run it there first; it uses the public API only).

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
/// Discrete probability jitter of the rebuild rounds' one odd VM: level
/// `l` of `1..=8` is `(P_ON + 0.004·l/8, P_OFF + 0.01·l/8)` — the system
/// benchmark's step, without its level 0, so the pair always moves. A
/// continuous jitter would add a class to the engines' registries per
/// draw.
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
    /// The recalibrations that rebuilt the table (the pair moved).
    recal_rebuild: LatencyStats,
}

/// Warms the engine to the initial fleet, replays the program with per-op
/// timing, and returns the row plus the end-state digest.
fn run_engine(
    mut engine: Engine,
    initial: Vec<VmSpec>,
    program: &Program,
    m: usize,
    epsilon: f64,
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
    let mut recal_rebuild = LatencyStats::new();
    let mut table_for = (P_ON, P_OFF);
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
                let elapsed = t.elapsed().as_nanos();
                let pair = pair.unwrap_or_else(|| panic!("{name}: recalibrated an empty cluster"));
                recal.record(elapsed, 1);
                // The engines' own gate: the table is rebuilt iff the
                // rounded pair left the ε-box around the one it holds.
                let moved = |new: f64, held: f64| (new - held).abs() > epsilon;
                if moved(pair.0, table_for.0) || moved(pair.1, table_for.1) {
                    recal_rebuild.record(elapsed, 1);
                    table_for = pair;
                }
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
        recal_rebuild,
    };
    (row, digest)
}

struct Args {
    fleets: Vec<usize>,
    rounds: usize,
    batch: usize,
    singles: usize,
    recal_every: usize,
    epsilon: f64,
    seed: u64,
    out: String,
    gate_speedup: Option<f64>,
    before: Option<String>,
    commit: Option<String>,
}

fn parse_args() -> Args {
    let mut parsed = Args {
        fleets: vec![10_000, 100_000, 1_000_000],
        rounds: 24,
        batch: 512,
        singles: 64,
        recal_every: 1,
        epsilon: 0.0,
        seed: 1,
        out: "BENCH_admit.json".to_string(),
        gate_speedup: None,
        before: None,
        commit: None,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            eprintln!("{} wants a value", pair[0]);
            std::process::exit(2);
        };
        match flag.as_str() {
            "--fleets" => {
                parsed.fleets = value
                    .split(',')
                    .map(|s| s.parse().expect("--fleets wants comma-separated sizes"))
                    .collect();
            }
            "--rounds" => parsed.rounds = value.parse().expect("--rounds wants an integer"),
            "--batch" => parsed.batch = value.parse().expect("--batch wants an integer"),
            "--singles" => parsed.singles = value.parse().expect("--singles wants an integer"),
            "--recal-every" => {
                parsed.recal_every = value.parse().expect("--recal-every wants an integer");
            }
            "--epsilon" => parsed.epsilon = value.parse().expect("--epsilon wants a float"),
            "--seed" => parsed.seed = value.parse().expect("--seed wants an integer"),
            "--out" => parsed.out = value.clone(),
            "--gate-speedup" => {
                parsed.gate_speedup = Some(value.parse().expect("--gate-speedup wants a float"));
            }
            "--before" => parsed.before = Some(value.clone()),
            "--commit" => parsed.commit = Some(value.clone()),
            other => {
                eprintln!("unknown flag: {other}");
                std::process::exit(2);
            }
        }
    }
    parsed
}

/// One `admit` row, led by the commit it was measured at.
fn row_json(commit: &str, row: &ChurnRow) -> String {
    format!(
        "{{\"commit\": \"{commit}\", \"n\": {}, \"m\": {}, \"engine\": \"{}\", \"warmup_secs\": {:.6}, \"churn_secs\": {:.6}, \"ops\": {}, \"ops_per_sec\": {:.1}, \"admissions\": {}, \"admissions_per_sec\": {:.1}, \"departures\": {}, \"departures_per_sec\": {:.1}, \"admit_p50_ns\": {}, \"admit_p99_ns\": {}, \"depart_p50_ns\": {}, \"depart_p99_ns\": {}, \"recalibrations\": {}, \"recal_p50_ns\": {}, \"recal_p99_ns\": {}, \"recal_rebuilds\": {}, \"recal_rebuild_p50_ns\": {}, \"recal_rebuild_p99_ns\": {}}}",
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
        row.recal.count,
        row.recal.p50(),
        row.recal.p99(),
        row.recal_rebuild.count,
        row.recal_rebuild.p50(),
        row.recal_rebuild.p99(),
    )
}

/// A JSON array of one-per-line rows under `key`.
fn push_section(json: &mut String, key: &str, rows: &[String], last: bool) {
    writeln!(json, "  \"{key}\": [").unwrap();
    for (i, row) in rows.iter().enumerate() {
        let sep = if i + 1 == rows.len() { "" } else { "," };
        writeln!(json, "    {row}{sep}").unwrap();
    }
    writeln!(json, "  ]{}", if last { "" } else { "," }).unwrap();
}

fn main() {
    let args = parse_args();
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let commit = bursty_bench::commit_label(args.commit.clone());

    // One row per line, each led by its commit: `--before` re-reads
    // exactly those lines of both sections.
    let (mut rows, mut pairs) = match &args.before {
        Some(path) => (
            bursty_bench::section_rows_led_by_commit(path, "admit"),
            bursty_bench::section_rows_led_by_commit(path, "pairs"),
        ),
        None => (Vec::new(), Vec::new()),
    };
    let mut disagreed = false;
    let mut last_speedup: Option<(usize, f64)> = None;

    for &n in &args.fleets {
        let m = (n / 4).max(64);
        let mut gen = FleetGenerator::new(args.seed.wrapping_add(n as u64));
        let initial = gen.vms_table_i(n, WorkloadPattern::EqualSpike);
        let pms = gen.pms(m);
        let mut rng = StdRng::seed_from_u64(args.seed ^ 0x9e37_79b9_7f4a_7c15);
        let program = build_program(
            n,
            args.rounds,
            args.batch,
            args.singles,
            args.recal_every,
            &mut rng,
        );

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
                .with_recalibration_epsilon(args.epsilon),
        );
        let (ref_row, ref_digest) =
            run_engine(reference, initial.clone(), &program, m, args.epsilon);
        let soa = Engine::Soa(
            OnlineCluster::new(pms, D, P_ON, P_OFF, RHO).with_recalibration_epsilon(args.epsilon),
        );
        let (soa_row, soa_digest) = run_engine(soa, initial, &program, m, args.epsilon);
        for row in [&ref_row, &soa_row] {
            eprintln!(
                "  {:<9} {:.0} ops/s (churn {:.3}s, warm-up {:.3}s, {} of {} recalibrations rebuilt, p50 {} ns)",
                row.engine,
                row.ops_per_sec,
                row.churn_secs,
                row.warmup_secs,
                row.recal_rebuild.count,
                row.recal.count,
                row.recal_rebuild.p50(),
            );
        }

        let agree = ref_digest == soa_digest;
        if !agree {
            eprintln!("  DISAGREEMENT at n={n}: reference {ref_digest:?} vs soa {soa_digest:?}");
            disagreed = true;
        }
        let speedup = soa_row.ops_per_sec / ref_row.ops_per_sec;
        last_speedup = Some((n, speedup));
        pairs.push(format!(
            "{{\"commit\": \"{commit}\", \"n\": {n}, \"speedup\": {speedup:.2}, \"agreement\": {agree}}}"
        ));
        rows.push(row_json(&commit, &ref_row));
        rows.push(row_json(&commit, &soa_row));
    }

    let mut json = String::new();
    writeln!(json, "{{").unwrap();
    writeln!(json, "  \"generated_by\": \"admit-bench\",").unwrap();
    writeln!(json, "  \"available_parallelism\": {cores},").unwrap();
    writeln!(
        json,
        "  \"config\": {{\"rounds\": {}, \"batch\": {}, \"singles\": {}, \"recal_every\": {}, \"jitter_levels\": {JITTER_LEVELS}, \"epsilon\": {}, \"seed\": {}, \"d\": {D}, \"rho\": {RHO}, \"workload\": \"table_i_equal_spike\"}},",
        args.rounds, args.batch, args.singles, args.recal_every, args.epsilon, args.seed
    )
    .unwrap();
    push_section(&mut json, "admit", &rows, false);
    push_section(&mut json, "pairs", &pairs, true);
    writeln!(json, "}}").unwrap();

    std::fs::write(&args.out, &json).expect("write benchmark JSON");
    eprintln!("admit-bench: wrote {}", args.out);

    if disagreed {
        eprintln!("admit-bench: FAIL — engines disagreed on at least one fleet size");
        std::process::exit(1);
    }
    if let (Some(gate), Some((n, ratio))) = (args.gate_speedup, last_speedup) {
        if ratio < gate {
            eprintln!(
                "admit-bench: FAIL — churn speedup {ratio:.2}x at n={n} below the {gate}x gate"
            );
            std::process::exit(1);
        }
        eprintln!("admit-bench: speedup gate passed ({ratio:.2}x >= {gate}x at n={n})");
    }
}
