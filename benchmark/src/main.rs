//! The repository's one system benchmark.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! benchmark run   [--seed S] [--seconds N] [--out results/run.json]
//! benchmark trace [--seed S] [--seconds N] [--out results/trace.json]
//! benchmark compare <a.json> <b.json>
//! ```
//!
//! The first form is what `BENCHMARK.json` names: one workload, one
//! process, pinned to one CPU, a JSON result on the last line. `run`
//! and `trace` start that form once per workload and gather the results
//! under an environment block; `compare` judges two such files.

mod compare;
mod env;
mod metrics;
mod plan;
mod programs;
mod serve;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use metrics::{MetricDef, Outcome, END_TO_END, PER_LAYER, WORKLOADS};
use plan::PlanKind;
use serve::ServeKind;
use trace::Tracer;

/// What every workload is told.
pub struct RunCfg {
    pub seed: u64,
    /// How long the timed repeats go on for (the repeat in flight when
    /// the time is up still finishes).
    pub seconds: f64,
}

/// Default measuring time, as in `BENCHMARK.json`.
const RUN_SECONDS: f64 = 24.0;

/// Where result and trace files go, relative to the working directory:
/// the benchmark is run from the repository root, and a path compiled in
/// would point into whichever checkout happened to build the binary.
fn results_dir() -> PathBuf {
    PathBuf::from("benchmark/results")
}

fn run_workload(name: &str, cfg: &RunCfg, smoke: bool, tracer: &mut Tracer) -> Option<Outcome> {
    let plan = |kind: PlanKind, tracer: &mut Tracer| {
        let scale = if smoke { kind.smoke() } else { kind.full() };
        plan::run(kind, scale, cfg, tracer)
    };
    let serve = |kind: ServeKind, tracer: &mut Tracer| {
        let scale = if smoke { kind.smoke() } else { kind.full() };
        serve::run(kind, scale, cfg, tracer)
    };
    Some(match name {
        "plan_classheavy" => plan(PlanKind::ClassHeavy, tracer),
        "plan_traces" => plan(PlanKind::Traces, tracer),
        "serve_churn" => serve(ServeKind::Churn, tracer),
        "serve_mixed" => serve(ServeKind::Mixed, tracer),
        _ => return None,
    })
}

/// `{"name": {"value": v, "unit": "u"}, ...}` over `defs`; a metric the
/// workload did not produce reads 0.
fn metrics_json(defs: &[MetricDef], value: impl Fn(&str) -> f64) -> String {
    let mut s = String::from("{");
    for (i, m) in defs.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            value(m.name),
            m.unit
        );
    }
    s.push('}');
    s
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// The contract form: one workload, result on the last line.
fn one(args: &[String]) -> ExitCode {
    let usage = "usage: benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>";
    let (Some(workload), Some(trace)) = (flag(args, "--workload"), flag(args, "--trace")) else {
        eprintln!("{usage}");
        return ExitCode::from(2);
    };
    let seed = flag(args, "--seed").map_or(Ok(1), str::parse::<u64>);
    let seconds = flag(args, "--seconds").map_or(Ok(RUN_SECONDS), str::parse::<f64>);
    let (Ok(seed), Ok(seconds), true) = (seed, seconds, trace == "0" || trace == "1") else {
        eprintln!("{usage}");
        return ExitCode::from(2);
    };
    let trace = trace == "1";
    let smoke = args.iter().any(|a| a == "--smoke");
    let pinned = env::pin_to_one_cpu();
    if pinned.is_none() {
        eprintln!("warning: could not confine the run to one CPU; serving figures will be bimodal");
    }

    let cfg = RunCfg { seed, seconds };
    let mut tracer = Tracer::new(trace);
    let Some(def) = WORKLOADS.iter().find(|w| w.name == workload) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "unknown workload '{workload}' (expected one of {})",
            names.join(", ")
        );
        return ExitCode::from(2);
    };
    println!("{workload}: {}", def.why);
    let mut out = run_workload(workload, &cfg, smoke, &mut tracer).expect("a listed workload");
    println!(
        "{workload}: seed {seed}, pinned to cpu {}, {} of {} operations failed",
        pinned.map_or("none".to_string(), |c| c.to_string()),
        out.failed,
        out.attempted
    );
    for m in END_TO_END {
        if let (Some(v), Some(s)) = (out.value(m.name), out.summary(m.name)) {
            println!(
                "  {:<18} {:>16.6} {:<6} of {} repeats (min {:.6}, q1 {:.6}, median {:.6}, q3 {:.6}, max {:.6})",
                m.name, v, m.unit, s.n, s.min, s.q1, s.median, s.q3, s.max
            );
        }
    }
    if trace {
        for m in PER_LAYER {
            if let Some(v) = out.layers.get(m.name) {
                println!("  {:<42} {:>18.6} {}", m.name, v, m.unit);
            }
        }
        println!(
            "  ladder ({:.9} s per {}):",
            out.ladder_total,
            ladder_unit(workload)
        );
        for (name, secs) in &out.ladder {
            println!(
                "    {:<30} {:>14.9} s  {:>6.2} %",
                name,
                secs,
                secs / out.ladder_total * 100.0
            );
            for (_, part, secs) in out.ladder_within.iter().filter(|(row, ..)| row == name) {
                println!(
                    "      of which {:<19} {:>14.9} s  {:>6.2} %",
                    part,
                    secs,
                    secs / out.ladder_total * 100.0
                );
            }
        }
        let path = results_dir().join(format!("trace-{workload}.jsonl"));
        match tracer.write_jsonl(&path, workload) {
            Ok(()) => println!(
                "  {} spans written to {}",
                tracer.spans().len(),
                path.display()
            ),
            Err(e) => out
                .errors
                .push(format!("cannot write {}: {e}", path.display())),
        }
    }
    for e in &out.errors {
        eprintln!("FAILED: {e}");
    }
    if !out.correct() {
        // A wrong answer has no speed: no result line, nonzero exit.
        return ExitCode::FAILURE;
    }

    // Everything `run`/`trace` keep beyond the driver's line.
    let mut detail = format!(
        "{{\"pinned_cpu\": {}, \"repeats\": {{",
        pinned.map_or("null".to_string(), |c| c.to_string())
    );
    for (i, (name, values)) in out.samples.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let list: Vec<String> = values.iter().map(f64::to_string).collect();
        let _ = write!(detail, "{sep}\"{name}\": [{}]", list.join(", "));
    }
    detail.push_str("}}");
    println!("detail {detail}");

    let metrics = if trace {
        metrics_json(PER_LAYER, |name| {
            out.layers.get(name).copied().unwrap_or(0.0)
        })
    } else {
        metrics_json(END_TO_END, |name| out.value(name).unwrap_or(0.0))
    };
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        out.attempted, out.failed
    );
    ExitCode::SUCCESS
}

fn ladder_unit(workload: &str) -> &'static str {
    if workload.starts_with("plan") {
        "pipeline run"
    } else {
        "request"
    }
}

/// `run` / `trace`: every workload in a child of its own (so peak RSS
/// is per workload), results gathered into one file.
fn all(trace: bool, args: &[String]) -> ExitCode {
    let seed = flag(args, "--seed").unwrap_or("1");
    let seconds = flag(args, "--seconds").map_or(RUN_SECONDS.to_string(), str::to_string);
    let default_out = results_dir().join(if trace { "trace.json" } else { "run.json" });
    let out_path = flag(args, "--out").map_or(default_out, PathBuf::from);
    let exe = std::env::current_exe().expect("own path");

    let mut file = String::from("{\n  \"env\": {");
    // The children pin themselves and all pick the same CPU.
    let pinned = env::allowed_cpus().last().copied();
    for (i, (key, value)) in env::environment(pinned).iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(file, "{sep}\"{key}\": {value}");
    }
    let _ = write!(
        file,
        "}},\n  \"seed\": {seed},\n  \"seconds\": {seconds},\n  \"trace\": {trace},\n  \"workloads\": {{"
    );
    let mut ok = true;
    for (i, w) in WORKLOADS.iter().enumerate() {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name, "--seed", seed, "--seconds", &seconds]);
        cmd.args(["--trace", if trace { "1" } else { "0" }]);
        if args.iter().any(|a| a == "--smoke") {
            cmd.arg("--smoke");
        }
        let output = cmd
            .stderr(std::process::Stdio::inherit())
            .output()
            .expect("start a child of this binary");
        let stdout = String::from_utf8_lossy(&output.stdout);
        print!("{stdout}");
        let mut lines = stdout.lines().rev();
        let (result, detail) = (lines.next(), lines.next());
        let (Some(result), Some(detail), true) = (result, detail, output.status.success()) else {
            eprintln!("{}: FAILED", w.name);
            ok = false;
            continue;
        };
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            file,
            "{sep}\n    \"{}\": {{\"result\": {result}, \"detail\": {}}}",
            w.name,
            detail.trim_start_matches("detail ")
        );
    }
    file.push_str("\n  }\n}\n");
    if !ok {
        return ExitCode::FAILURE;
    }
    if let Some(dir) = out_path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(&out_path, file) {
        Ok(()) => {
            println!("wrote {}", out_path.display());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cannot write {}: {e}", out_path.display());
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => all(false, &args[1..]),
        Some("trace") => all(true, &args[1..]),
        Some("compare") => match (args.get(1), args.get(2)) {
            (Some(a), Some(b)) => compare::main(Path::new(a), Path::new(b)),
            _ => {
                eprintln!("usage: benchmark compare <a.json> <b.json>");
                ExitCode::from(2)
            }
        },
        _ => one(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// All four workloads at smoke size: they must pass their own
    /// correctness checks and produce every end-to-end metric, nonzero.
    #[test]
    fn smoke_size_of_every_workload_is_correct() {
        let cfg = RunCfg {
            seed: 3,
            seconds: 0.0,
        };
        for w in WORKLOADS {
            let mut tracer = Tracer::new(false);
            let out = run_workload(w.name, &cfg, true, &mut tracer).expect("known workload");
            assert!(out.correct(), "{}: {:?}", w.name, out.errors);
            assert!(out.attempted > 0 && out.failed == 0, "{}", w.name);
            for m in END_TO_END {
                let s = out
                    .summary(m.name)
                    .unwrap_or_else(|| panic!("{} lacks {}", w.name, m.name));
                assert!(s.median > 0.0, "{}: {} is {}", w.name, m.name, s.median);
            }
        }
    }

    /// The traced form fills every layer on the workload's path and its
    /// ladder sums to the figure it explains.
    #[test]
    fn traced_smoke_runs_fill_their_ladders() {
        let cfg = RunCfg {
            seed: 4,
            seconds: 0.0,
        };
        for w in WORKLOADS {
            let mut tracer = Tracer::new(true);
            let out = run_workload(w.name, &cfg, true, &mut tracer).expect("known workload");
            assert!(out.correct(), "{}: {:?}", w.name, out.errors);
            let sum: f64 = out.ladder.iter().map(|(_, s)| s).sum();
            assert!(
                (sum - out.ladder_total).abs() <= 1e-9 * out.ladder_total.max(1.0),
                "{}: ladder sums to {sum}, total {}",
                w.name,
                out.ladder_total
            );
            assert!(out.layers.contains_key("trace.overhead_pct"), "{}", w.name);
            assert!(!tracer.spans().is_empty(), "{}", w.name);
            let expected = if w.name.starts_with("plan") {
                "placement.place_s"
            } else {
                "server.listener.residual_ns_per_req"
            };
            assert!(
                out.layers.contains_key(expected),
                "{} lacks {expected}",
                w.name
            );
        }
    }

    /// Satellite: an undersized PM pool must fail the run, not report
    /// throughput.
    #[test]
    fn an_undersized_pool_fails_the_run() {
        let cfg = RunCfg {
            seed: 3,
            seconds: 0.0,
        };
        let mut scale = ServeKind::Churn.smoke();
        // Room for the warm fleet (about 460 PMs) and almost nothing else.
        scale.pms = 470;
        scale.live = 256;
        let out = serve::run(ServeKind::Churn, scale, &cfg, &mut Tracer::new(false));
        assert!(out.failed > 0, "refusals must be counted as failures");
        assert!(!out.correct());
    }
}
