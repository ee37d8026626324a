//! Service-level benchmark for the placement daemon: sustained
//! admissions/sec and exact order-statistic admit latency, measured over
//! real loopback HTTP against a fleet-scale warm state.
//!
//! ```text
//! serve-bench [--fleets N1,N2,...] [--ops OPS] [--clients C1,C2,...]
//!             [--workers W] [--seed SEED] [--out PATH]
//!             [--before PATH] [--commit LABEL]
//! ```
//!
//! Defaults: fleets `1000000`, 20000 churn ops, client fan-outs `1,2,8`,
//! 10 workers, seed 1, output to `BENCH_serve.json`. Every row carries
//! the commit it was measured at (`--commit`, default `git describe
//! --always --dirty`) and the host's `available_parallelism`; `--before
//! PATH` copies the rows of an earlier output of this same source in
//! front of the new ones, which is how the checked-in file holds a
//! before/after pair.
//!
//! For each fleet size the bench first replays the churn program
//! engine-direct on a warmed `OnlineCluster` (the oracle digest), drops
//! that engine, then spawns the daemon in-process with the same initial
//! fleet and drives the identical program over N concurrent keep-alive
//! connections. Every request's latency is sampled client-side in
//! nanoseconds; percentiles are exact nearest-rank order statistics, not
//! histogram bucket bounds.
//!
//! The seeded program overfills its pool on purpose, so a share of its
//! requests is *refused* by the engine (409 `no_capacity`, 404 for a
//! departure whose admit was refused). A refusal is an applied op but
//! not served work: rows count `ok` (2xx) and `refused` apart,
//! `admissions_per_sec` and the admit percentiles cover 2xx admits only,
//! and `ops_per_sec` is every answered request, refusals included —
//! read it next to `refused_share`. The run exits nonzero if any HTTP
//! replay's end-state digest disagrees with the oracle — throughput
//! numbers from a divergent daemon are meaningless.

use bursty_bench::quantile_ns;
use bursty_core::prelude::*;
use bursty_server::{build_program, fetch_digest, op_request, Client, Op, ServerConfig};
use std::fmt::Write as _;
use std::time::Instant;

const P_ON: f64 = 0.01;
const P_OFF: f64 = 0.09;
const D: usize = 16;
const RHO: f64 = 0.01;

struct Args {
    fleets: Vec<usize>,
    ops: usize,
    clients: Vec<usize>,
    workers: usize,
    seed: u64,
    out: String,
    before: Option<String>,
    commit: Option<String>,
}

fn parse_args() -> Args {
    let mut parsed = Args {
        fleets: vec![1_000_000],
        ops: 20_000,
        clients: vec![1, 2, 8],
        workers: 10,
        seed: 1,
        out: "BENCH_serve.json".to_string(),
        before: None,
        commit: None,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let list = |s: &str, flag: &str| -> Vec<usize> {
        s.split(',')
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| panic!("{flag} wants comma-separated integers"))
            })
            .collect()
    };
    while i < args.len() {
        match args[i].as_str() {
            "--fleets" => {
                parsed.fleets = list(&args[i + 1], "--fleets");
                i += 2;
            }
            "--ops" => {
                parsed.ops = args[i + 1].parse().expect("--ops wants an integer");
                i += 2;
            }
            "--clients" => {
                parsed.clients = list(&args[i + 1], "--clients");
                i += 2;
            }
            "--workers" => {
                parsed.workers = args[i + 1].parse().expect("--workers wants an integer");
                i += 2;
            }
            "--seed" => {
                parsed.seed = args[i + 1].parse().expect("--seed wants an integer");
                i += 2;
            }
            "--out" => {
                parsed.out = args[i + 1].clone();
                i += 2;
            }
            "--before" => {
                parsed.before = Some(args[i + 1].clone());
                i += 2;
            }
            "--commit" => {
                parsed.commit = Some(args[i + 1].clone());
                i += 2;
            }
            other => {
                eprintln!("unknown flag: {other}");
                std::process::exit(2);
            }
        }
    }
    parsed
}

struct ServeRow {
    n: usize,
    m: usize,
    clients: usize,
    ops: usize,
    /// VMs the program offers (single admits plus batch members).
    admissions: usize,
    /// VMs placed by a 2xx admit or admit-batch.
    admitted: usize,
    ok: usize,
    refused: usize,
    wall_secs: f64,
    ops_per_sec: f64,
    admissions_per_sec: f64,
    admit_p50_ns: u64,
    admit_p99_ns: u64,
    request_p50_ns: u64,
    request_p99_ns: u64,
    digest_match: bool,
}

/// What the clients saw, summed over all connections.
#[derive(Default)]
struct Drive {
    /// Latency of every 2xx single admit, ns.
    admit_ns: Vec<u64>,
    /// Latency of every answered request, refused ones included, ns.
    all_ns: Vec<u64>,
    ok: usize,
    refused: usize,
    admitted: usize,
}

/// Drives `ops` over `clients` keep-alive connections, timing every
/// request; returns what the clients saw and the wall-clock seconds.
/// Op `i` carries seq `i` and goes to client `i % clients`; each client
/// sends ascending, so the daemon's reorder window reassembles program
/// order — same scheme the integration suite proves deterministic.
fn drive_timed(
    addr: std::net::SocketAddr,
    ops: &[Op],
    clients: usize,
) -> std::io::Result<(Drive, f64)> {
    let mut shares: Vec<Vec<(u64, Op)>> = vec![Vec::new(); clients];
    for (i, op) in ops.iter().enumerate() {
        shares[i % clients].push((i as u64, op.clone()));
    }
    let start = Instant::now();
    let mut joins = Vec::with_capacity(clients);
    for share in shares {
        joins.push(std::thread::spawn(move || -> std::io::Result<Drive> {
            let mut client = Client::connect(addr)?;
            let mut seen = Drive::default();
            seen.all_ns.reserve(share.len());
            for (seq, op) in share {
                let (path, body) = op_request(&op, seq);
                let t = Instant::now();
                let resp = client.post(path, &body)?;
                let ns = t.elapsed().as_nanos() as u64;
                seen.all_ns.push(ns);
                match resp.status {
                    200 => {
                        seen.ok += 1;
                        match &op {
                            Op::Admit(_) => {
                                seen.admitted += 1;
                                seen.admit_ns.push(ns);
                            }
                            Op::AdmitBatch(vms) => seen.admitted += vms.len(),
                            _ => {}
                        }
                    }
                    404 | 409 => seen.refused += 1,
                    status => {
                        return Err(std::io::Error::other(format!(
                            "status {status} on {path}: {}",
                            resp.text()
                        )))
                    }
                }
            }
            Ok(seen)
        }));
    }
    let mut total = Drive::default();
    for j in joins {
        let seen = j
            .join()
            .map_err(|_| std::io::Error::other("bench client panicked"))??;
        total.admit_ns.extend(seen.admit_ns);
        total.all_ns.extend(seen.all_ns);
        total.ok += seen.ok;
        total.refused += seen.refused;
        total.admitted += seen.admitted;
    }
    Ok((total, start.elapsed().as_secs_f64()))
}

fn main() {
    let args = parse_args();
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let mut rows: Vec<ServeRow> = Vec::new();
    let mut all_match = true;

    for &n in &args.fleets {
        let m = (n / 4).max(64);
        let mut gen = FleetGenerator::new(args.seed.wrapping_add(n as u64));
        let initial = gen.vms_table_i(n, WorkloadPattern::EqualSpike);
        let pms = gen.pms(m);
        // Program ids start at n so churn never collides with the warm fleet.
        let program = build_program(args.seed, args.ops, n);
        eprintln!(
            "serve-bench: n={n} m={m} ops={} ({} admissions, {} departures, {} batches, {} recalibrations)",
            program.ops.len(),
            program.admissions,
            program.departures,
            program.batches,
            program.recalibrations,
        );

        // Oracle first, then dropped, so a 1M-VM state is never held twice.
        let oracle = {
            let mut engine = OnlineCluster::new(pms.clone(), D, P_ON, P_OFF, RHO);
            engine
                .arrive_batch(initial.clone())
                .unwrap_or_else(|e| panic!("oracle warm-up does not fit (VM {})", e.vm_id));
            bursty_server::apply_engine(&mut engine, &program.ops)
        };
        eprintln!("  oracle digest {:016x}", oracle.combined());

        for &clients in &args.clients {
            let mut config = ServerConfig::new(pms.clone(), D, P_ON, P_OFF, RHO);
            config.workers = args.workers;
            config.initial = initial.clone();
            let warm_start = Instant::now();
            let handle = bursty_server::spawn(config).expect("daemon starts");
            let warm_secs = warm_start.elapsed().as_secs_f64();

            let (mut seen, wall_secs) =
                drive_timed(handle.addr(), &program.ops, clients).expect("http replay runs");
            let digest = {
                let mut client = Client::connect(handle.addr()).expect("digest connect");
                fetch_digest(&mut client).expect("digest read")
            };
            handle.shutdown();

            seen.admit_ns.sort_unstable();
            seen.all_ns.sort_unstable();
            let digest_match = digest == oracle;
            if !digest_match {
                all_match = false;
                eprintln!(
                    "  DIVERGENCE at n={n} clients={clients}: daemon {:016x} vs oracle {:016x}",
                    digest.combined(),
                    oracle.combined()
                );
            }
            let row = ServeRow {
                n,
                m,
                clients,
                ops: program.ops.len(),
                admissions: program.admissions,
                admitted: seen.admitted,
                ok: seen.ok,
                refused: seen.refused,
                wall_secs,
                ops_per_sec: program.ops.len() as f64 / wall_secs,
                admissions_per_sec: seen.admitted as f64 / wall_secs,
                admit_p50_ns: quantile_ns(&seen.admit_ns, 0.5),
                admit_p99_ns: quantile_ns(&seen.admit_ns, 0.99),
                request_p50_ns: quantile_ns(&seen.all_ns, 0.5),
                request_p99_ns: quantile_ns(&seen.all_ns, 0.99),
                digest_match,
            };
            eprintln!(
                "  clients={clients}: {:.0} ops/s ({} ok, {} refused), {:.0} admissions/s, admit p50 {}ns p99 {}ns (warm-up {warm_secs:.2}s)",
                row.ops_per_sec, row.ok, row.refused, row.admissions_per_sec, row.admit_p50_ns, row.admit_p99_ns
            );
            rows.push(row);
        }
    }

    let commit = bursty_bench::commit_label(args.commit.clone());
    // One row per line, each led by its commit: `--before` re-reads
    // exactly these lines from an earlier file.
    let mut lines: Vec<String> = match &args.before {
        Some(path) => bursty_bench::rows_led_by_commit(path),
        None => Vec::new(),
    };
    for r in &rows {
        lines.push(format!(
            "{{\"commit\": \"{commit}\", \"available_parallelism\": {cores}, \"n\": {}, \"m\": {}, \
             \"clients\": {}, \"ops\": {}, \"ok\": {}, \"refused\": {}, \"refused_share\": {:.4}, \
             \"admissions\": {}, \"admitted\": {}, \"wall_secs\": {:.6}, \"ops_per_sec\": {:.1}, \
             \"admissions_per_sec\": {:.1}, \"admit_p50_ns\": {}, \"admit_p99_ns\": {}, \
             \"request_p50_ns\": {}, \"request_p99_ns\": {}, \"digest_match\": {}}}",
            r.n,
            r.m,
            r.clients,
            r.ops,
            r.ok,
            r.refused,
            r.refused as f64 / r.ops as f64,
            r.admissions,
            r.admitted,
            r.wall_secs,
            r.ops_per_sec,
            r.admissions_per_sec,
            r.admit_p50_ns,
            r.admit_p99_ns,
            r.request_p50_ns,
            r.request_p99_ns,
            r.digest_match,
        ));
    }

    let mut json = String::new();
    writeln!(json, "{{").unwrap();
    writeln!(json, "  \"generated_by\": \"serve-bench\",").unwrap();
    writeln!(json, "  \"available_parallelism\": {cores},").unwrap();
    writeln!(
        json,
        "  \"config\": {{\"ops\": {}, \"workers\": {}, \"seed\": {}, \"d\": {D}, \"rho\": {RHO}, \"workload\": \"table_i_equal_spike\"}},",
        args.ops, args.workers, args.seed
    )
    .unwrap();
    writeln!(json, "  \"serve\": [").unwrap();
    for (i, line) in lines.iter().enumerate() {
        let sep = if i + 1 == lines.len() { "" } else { "," };
        writeln!(json, "    {line}{sep}").unwrap();
    }
    writeln!(json, "  ]").unwrap();
    writeln!(json, "}}").unwrap();

    std::fs::write(&args.out, &json).expect("write benchmark JSON");
    eprintln!("serve-bench: wrote {}", args.out);
    if !all_match {
        eprintln!("serve-bench: FAIL — daemon digest diverged from the engine-direct oracle");
        std::process::exit(1);
    }
}
