//! Library backing the `bursty` command-line tool.
//!
//! The binary is a thin wrapper over these functions so that everything —
//! argument handling, trace parsing, planning, output formatting — is unit
//! and integration testable without spawning processes.
//!
//! ```text
//! bursty reserve --k 16 [--p-on 0.01] [--p-off 0.09] [--rho 0.01]
//! bursty table   --d 16 [--p-on ..] [--p-off ..] [--rho ..]
//! bursty fit     <trace.csv>
//! bursty plan    --traces <dir> --capacity <C> [--pms N] [--rho ..] [--out plan.csv]
//! bursty consolidate --vms <N> [--pms M] [--scheme queue|rp|rb|rbex]
//! bursty online-replay --vms <N> [--ops K] [--trace-out FILE]
//! bursty serve [--addr A] [--vms N] [--state-dir DIR [--restore]]
//! bursty serve-replay --addr A [--ops K] [--clients C] [--shutdown]
//! ```

pub mod commands;
pub mod parse;
pub mod traces;

use std::fmt;

/// A user-facing CLI failure.
#[derive(Debug, Clone, PartialEq)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError(format!("I/O error: {e}"))
    }
}

/// Convenience constructor.
pub fn err(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

/// Entry point shared by the binary and tests: dispatches `args`
/// (excluding the program name) and writes human output to `out`.
///
/// # Errors
/// [`CliError`] with a message suitable for direct printing.
pub fn run(args: &[String], out: &mut dyn std::io::Write) -> Result<(), CliError> {
    let Some((cmd, rest)) = args.split_first() else {
        return Err(err(USAGE));
    };
    match cmd.as_str() {
        "reserve" => commands::reserve(rest, out),
        "table" => commands::table(rest, out),
        "fit" => commands::fit(rest, out),
        "plan" => commands::plan(rest, out),
        "consolidate" => commands::consolidate(rest, out),
        "simulate" => commands::simulate(rest, out),
        "online-replay" => commands::online_replay(rest, out),
        "serve" => commands::serve(rest, out),
        "serve-replay" => commands::serve_replay(rest, out),
        "trace-report" => commands::trace_report(rest, out),
        "--help" | "-h" | "help" => {
            writeln!(out, "{USAGE}")?;
            Ok(())
        }
        other => Err(err(format!("unknown command `{other}`\n{USAGE}"))),
    }
}

/// The usage banner.
pub const USAGE: &str = "\
bursty — burstiness-aware consolidation toolkit (IPDPS'13 reproduction)

USAGE:
  bursty reserve --k <K> [--p-on P] [--p-off P] [--rho R]
      blocks to reserve for K collocated VMs
  bursty table --d <D> [--p-on P] [--p-off P] [--rho R]
      the full mapping(k) table for k = 1..D
  bursty fit <trace.csv>
      fit the ON-OFF model to a demand trace (last CSV column)
  bursty plan --traces <dir> --capacity <C> [--pms N] [--rho R] [--out plan.csv]
      fit every *.csv in <dir>, round probabilities conservatively,
      consolidate with QueuingFFD, optionally write the VM→PM plan
  bursty consolidate --vms <N> [--pms M] [--pattern equal|small|large]
                  [--scheme queue|rp|rb|rbex] [--seed S] [--p-on P] [--p-off P]
                  [--rho R]
      pack a seeded synthetic fleet with the batch packer and report
      its class count, PMs used and packing time
  bursty simulate --traces <dir> --capacity <C> [--steps S] [--rho R | --availability PCT]
                  [--mtbf S [--mttr S] [--fault-group G] [--fault-seed N]]
                  [--rng-layout shared|class-aggregated [--threads T]]
                  [--checkpoint-every N --checkpoint-dir DIR [--checkpoint-keep K] [--resume]]
                  [--trace-out FILE]
      plan as above, then simulate the fitted fleet and certify the
      CVR bound statistically (Wilson interval, correlation-discounted);
      --mtbf injects PM crashes (mean time between failures / to repair
      in periods, --fault-group PMs failing together) and reports
      recovery metrics and the burstiness/degraded violation split;
      --rng-layout class-aggregated evolves one binomial ON-counter per
      (PM, class) cell instead of per-VM coins off the one shared stream
      — O(PMs x classes) per step, distributionally equivalent to shared
      (same stationary law, certified CVR/energy) but not bit-equal, and
      --threads T (0 = all cores) parallelizes it with results
      identical at any thread count;
      --trace-out dumps the structured observability trace (counters,
      event journal, per-PM CVR series) as JSONL;
      --checkpoint-every writes a crash-safe snapshot of the full
      simulation state to --checkpoint-dir every N steps (atomic
      temp+fsync+rename, CRC-guarded, newest K retained); --resume
      restarts an interrupted run from the newest verifying snapshot
      and finishes bit-identical to a run that never stopped (the
      printed digest line is the proof)
  bursty online-replay --vms <N> [--pms M] [--ops K] [--batch-every B]
                  [--batch-size S] [--recal-every R]
                  [--pattern equal|small|large] [--d D] [--seed S]
                  [--p-on P] [--p-off P] [--rho R] [--trace-out FILE]
      warm the fleet-scale online admission engine to an N-VM Table-I
      fleet, then replay K seeded churn ops (single arrivals and
      departures, a class-heavy batch every B ops, a recalibration —
      a report of the hottest live class — every R ops; each PM is
      priced by its own hottest chain) and report sustained throughput
      plus p50/p99 per-op latency; --trace-out dumps the admission/
      departure/recalibration journal and latency histograms as JSONL
  bursty serve [--addr HOST:PORT] [--vms N] [--pms M] [--pattern ...]
                  [--d D] [--seed S] [--p-on P] [--p-off P] [--rho R]
                  [--workers W] [--pending-ttl-ms T]
                  [--state-dir DIR [--restore] [--snapshot-keep K]]
      run the placement daemon: warm an N-VM Table-I fleet into the
      online engine, then serve admit/depart/recalibrate over HTTP
      (/v1/admit, /v1/admit-batch, /v1/depart, /v1/recalibrate,
      /v1/digest, /v1/fleet, /v1/snapshot, /metrics, /healthz,
      /v1/shutdown); prints `listening on ADDR` once ready and blocks
      until /v1/shutdown; --state-dir enables CRC-framed atomic
      snapshots, --restore boots from the newest verifying one;
      --pending-ttl-ms (default 30000) bounds how long a seq'd op may
      wait for its missing predecessors before a retryable 503
  bursty serve-replay --addr HOST:PORT [--ops K] [--clients C]
                  [--seq-base B] [--shutdown] [+ the fleet flags above]
      drive a seeded churn program against a running daemon over C
      concurrent connections, then compare the daemon's end-state
      digest with an engine-direct oracle built from the same flags
      (they must match the daemon's); exits nonzero on divergence;
      --shutdown stops the daemon afterwards
  bursty trace-report <trace.jsonl>
      summarize a --trace-out dump: counters, gauges, events by type,
      the per-PM violation leaderboard and CVR-series coverage";

#[cfg(test)]
mod tests {
    use super::*;

    fn run_to_string(args: &[&str]) -> Result<String, CliError> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut buf = Vec::new();
        run(&args, &mut buf)?;
        Ok(String::from_utf8(buf).unwrap())
    }

    #[test]
    fn no_args_prints_usage_error() {
        let e = run_to_string(&[]).unwrap_err();
        assert!(e.to_string().contains("USAGE"));
    }

    #[test]
    fn unknown_command_is_an_error() {
        let e = run_to_string(&["frobnicate"]).unwrap_err();
        assert!(e.to_string().contains("frobnicate"));
    }

    #[test]
    fn help_prints_usage() {
        let s = run_to_string(&["--help"]).unwrap();
        assert!(s.contains("bursty reserve"));
    }

    #[test]
    fn reserve_happy_path() {
        let s = run_to_string(&["reserve", "--k", "16"]).unwrap();
        assert!(s.contains("blocks"), "{s}");
        assert!(
            s.contains('5'),
            "paper parameters give 5 blocks at k=16: {s}"
        );
    }

    #[test]
    fn table_happy_path() {
        let s = run_to_string(&["table", "--d", "4"]).unwrap();
        // Four data rows.
        assert_eq!(
            s.lines()
                .filter(|l| l.trim_start().starts_with(char::is_numeric))
                .count(),
            4
        );
    }
}
