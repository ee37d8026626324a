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
//! 10 workers, seed 1, output to `BENCH_serve.json`. Every row of the
//! `serve` section is led by the commit it was measured at (`--commit`,
//! default `git describe --always --dirty`) and the host's
//! `available_parallelism`; `--before PATH` copies the `serve` rows of an
//! earlier output in front of the new ones, which is how the checked-in
//! file holds a before/after pair (`crates/bench/src` copied into a clone
//! of the parent commit and run there first). A flag that is not
//! declared above, given twice, without a value or with an unparsable
//! one exits 2.
//!
//! For each fleet size the bench first replays the churn program
//! engine-direct on a warmed `OnlineCluster` (the oracle digest), drops
//! that engine, then spawns the daemon in-process with the same initial
//! fleet and drives the identical program over N concurrent keep-alive
//! connections through `bursty_server::drive_http`, the replay the
//! transport-equivalence suite runs. Every request's latency is sampled
//! client-side in nanoseconds; percentiles are exact nearest-rank order
//! statistics, not histogram bucket bounds. `wall_secs` runs from
//! spawning the first client to joining the last.
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

use bursty_bench::{quantile_ns, row, timed, write_report, Before, Flags, Obj, ToJson};
use bursty_core::prelude::*;
use bursty_server::{build_program, drive_http, ServerConfig};

const P_ON: f64 = 0.01;
const P_OFF: f64 = 0.09;
const D: usize = 16;
const RHO: f64 = 0.01;

fn main() {
    let flags = Flags::from_env(&[
        "fleets", "ops", "clients", "workers", "seed", "out", "before", "commit",
    ]);
    let fleets = flags.list("fleets").unwrap_or_else(|| vec![1_000_000]);
    let ops: usize = flags.get("ops").unwrap_or(20_000);
    let fan_outs = flags.list("clients").unwrap_or_else(|| vec![1, 2, 8]);
    let workers: usize = flags.get("workers").unwrap_or(10);
    let seed: u64 = flags.get("seed").unwrap_or(1);
    let out: String = flags
        .get("out")
        .unwrap_or_else(|| "BENCH_serve.json".into());
    let before = Before::load(flags.get::<String>("before").as_deref());
    let commit = bursty_bench::commit_label(flags.get("commit"));
    let mut rows = before.rows("serve");
    let mut all_match = true;

    for &n in &fleets {
        let m = (n / 4).max(64);
        let mut gen = FleetGenerator::new(seed.wrapping_add(n as u64));
        let initial = gen.vms_table_i(n, WorkloadPattern::EqualSpike);
        let pms = gen.pms(m);
        // Program ids start at n so churn never collides with the warm fleet.
        let program = build_program(seed, ops, n);
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

        for &clients in &fan_outs {
            let mut config = ServerConfig::new(pms.clone(), D, P_ON, P_OFF, RHO);
            config.workers = workers;
            config.initial = initial.clone();
            let (handle, warm_secs) =
                timed(|| bursty_server::spawn(config).expect("daemon starts"));
            let mut seen =
                drive_http(handle.addr(), &program.ops, clients, 0).expect("http replay runs");
            handle.shutdown();

            seen.admit_latencies_ns.sort_unstable();
            seen.latencies_ns.sort_unstable();
            let digest_match = seen.digest == oracle;
            if !digest_match {
                all_match = false;
                eprintln!(
                    "  DIVERGENCE at n={n} clients={clients}: daemon {:016x} vs oracle {:016x}",
                    seen.digest.combined(),
                    oracle.combined()
                );
            }
            let wall_secs = seen.wall_secs;
            let ops_per_sec = program.ops.len() as f64 / wall_secs;
            let admissions_per_sec = seen.admitted as f64 / wall_secs;
            let admit_p50_ns = quantile_ns(&seen.admit_latencies_ns, 0.5);
            let admit_p99_ns = quantile_ns(&seen.admit_latencies_ns, 0.99);
            eprintln!(
                "  clients={clients}: {ops_per_sec:.0} ops/s ({} ok, {} refused), \
                 {admissions_per_sec:.0} admissions/s, admit p50 {admit_p50_ns}ns p99 \
                 {admit_p99_ns}ns (warm-up {warm_secs:.2}s)",
                seen.ok, seen.rejected,
            );
            let row = row(&commit)
                .field("n", n)
                .field("m", m)
                .field("clients", clients)
                .field("ops", program.ops.len())
                .field("ok", seen.ok)
                .field("refused", seen.rejected)
                .field(
                    "refused_share",
                    seen.rejected as f64 / program.ops.len() as f64,
                )
                .field("admissions", program.admissions)
                .field("admitted", seen.admitted)
                .field("wall_secs", wall_secs)
                .field("ops_per_sec", ops_per_sec)
                .field("admissions_per_sec", admissions_per_sec)
                .field("admit_p50_ns", admit_p50_ns)
                .field("admit_p99_ns", admit_p99_ns)
                .field("request_p50_ns", quantile_ns(&seen.latencies_ns, 0.5))
                .field("request_p99_ns", quantile_ns(&seen.latencies_ns, 0.99))
                .field("digest_match", digest_match);
            rows.push(row.to_json());
        }
    }

    let config = Obj::default()
        .field("ops", ops)
        .field("workers", workers)
        .field("seed", seed)
        .field("d", D)
        .field("rho", RHO)
        .field("workload", "table_i_equal_spike");
    let report = bursty_bench::report("serve-bench")
        .field("config", config)
        .field("serve", rows);
    write_report(&out, report);
    if !all_match {
        eprintln!("serve-bench: FAIL — daemon digest diverged from the engine-direct oracle");
        std::process::exit(1);
    }
}
