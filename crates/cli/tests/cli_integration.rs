//! End-to-end CLI tests: synthesize trace files on disk, run the full
//! fit → round → plan pipeline through the public `run` entry point, and
//! check both the human output and the written plan CSV.

use bursty_cli::run;
use bursty_core::prelude::*;
use bursty_core::workload::trace::DemandTrace;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fs;
use std::path::{Path, PathBuf};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bursty-cli-e2e-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn run_ok(args: &[String]) -> String {
    let mut buf = Vec::new();
    run(args, &mut buf).unwrap_or_else(|e| panic!("command failed: {e}\nargs: {args:?}"));
    String::from_utf8(buf).unwrap()
}

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| s.to_string()).collect()
}

fn write_generated_traces(dir: &Path, count: usize) {
    let mut rng = StdRng::seed_from_u64(1234);
    for i in 0..count {
        let vm = VmSpec::new(i, 0.01, 0.09, 10.0 + i as f64, 8.0 + (i % 3) as f64);
        let demands = DemandTrace::sample(vm, 30_000, &mut rng).demands();
        let mut csv = String::from("t,demand\n");
        for (t, d) in demands.iter().enumerate() {
            csv.push_str(&format!("{t},{d}\n"));
        }
        fs::write(dir.join(format!("vm{i:02}.csv")), csv).unwrap();
    }
}

#[test]
fn fit_command_recovers_model_from_file() {
    let dir = scratch("fit");
    write_generated_traces(&dir, 1);
    let path = dir.join("vm00.csv");
    let out = run_ok(&args(&["fit", path.to_str().unwrap()]));
    assert!(out.contains("R_b = 10.00"), "{out}");
    assert!(out.contains("R_e = 8.00"), "{out}");
    // The pair the planner prices sits above the point estimate's p_on.
    let p_on = |prefix: &str| -> f64 {
        let rest = out.split(prefix).nth(1).unwrap_or_else(|| panic!("{out}"));
        rest.split(',').next().unwrap().parse().unwrap()
    };
    assert!(p_on("planned at p_on = ") > p_on(": p_on = "), "{out}");
    assert!(out.contains("one-sided alpha = 0.005"), "{out}");
    assert!(out.contains("burstiness"), "{out}");
}

#[test]
fn plan_pipeline_writes_a_consistent_plan() {
    let dir = scratch("plan");
    write_generated_traces(&dir, 8);
    let plan_path = dir.join("plan.csv");
    let out = run_ok(&args(&[
        "plan",
        "--traces",
        dir.to_str().unwrap(),
        "--capacity",
        "90",
        "--out",
        plan_path.to_str().unwrap(),
    ]));
    assert!(out.contains("fitted 8 traces"), "{out}");
    assert!(out.contains("plan written"), "{out}");
    // Each VM is priced at its own one-sided alpha = 0.005 fit-error
    // bounds, and the plan states the per-PM union bound that buys.
    let guarantee = out
        .lines()
        .find_map(|l| l.strip_prefix("guarantee: "))
        .unwrap_or_else(|| panic!("no guarantee line in:\n{out}"));
    assert!(guarantee.contains("one-sided alpha = 0.005"), "{guarantee}");
    assert!(
        guarantee
            .contains("a PM hosting k VMs holds rho with probability >= 1 - 2k·alpha = 1 - 0.01·k"),
        "{guarantee}"
    );
    // The exact per-PM law of the bounded fleet: the paper's guarantee,
    // stated without simulating.
    let exact = out
        .lines()
        .find_map(|l| l.strip_prefix("exact stationary CVR per PM at the bounded specs: max "))
        .unwrap_or_else(|| panic!("no exact-CVR line in:\n{out}"));
    let (max, rest) = exact.split_once(", mean ").unwrap();
    let (mean, rho) = rest.split_once(" (rho ").unwrap();
    let max: f64 = max.parse().unwrap();
    let mean: f64 = mean.parse().unwrap();
    assert_eq!(rho, "0.01)");
    assert!(mean <= max && max <= 0.01, "{exact}");

    let plan = fs::read_to_string(&plan_path).unwrap();
    let lines: Vec<&str> = plan.lines().collect();
    assert_eq!(lines[0], "vm,r_b,r_e,pm");
    assert_eq!(lines.len(), 9, "header + 8 VMs");
    // Feasibility re-check: Σ R_b per PM plus the largest R_e times one
    // block must fit in 90 (weaker necessary condition; the planner
    // enforced the full Eq. 17).
    let mut per_pm: std::collections::HashMap<u32, f64> = Default::default();
    for l in &lines[1..] {
        let cells: Vec<&str> = l.split(',').collect();
        let r_b: f64 = cells[1].parse().unwrap();
        let pm: u32 = cells[3].parse().unwrap();
        *per_pm.entry(pm).or_default() += r_b;
    }
    for (&pm, &rb) in &per_pm {
        assert!(rb <= 90.0, "PM {pm} overcommitted on base demand: {rb}");
    }
    // Uses fewer PMs than one-per-VM.
    assert!(
        per_pm.len() < 8,
        "consolidation must share PMs, used {}",
        per_pm.len()
    );
}

#[test]
fn plan_fails_cleanly_when_capacity_too_small() {
    let dir = scratch("tiny");
    write_generated_traces(&dir, 2);
    let a = args(&["plan", "--traces", dir.to_str().unwrap(), "--capacity", "5"]);
    let mut buf = Vec::new();
    let e = run(&a, &mut buf).unwrap_err();
    assert!(e.to_string().contains("planning failed"), "{e}");
}

#[test]
fn a_missing_value_in_a_trace_is_refused_with_file_and_line() {
    // One `nan` used to fit as an OFF sample, poison the OFF mean and
    // plan as a VM with R_b = 2.2e-308 and R_e = 0 that reserves nothing;
    // one `inf` dragged the threshold along and read as "no transitions".
    let dir = scratch("gap");
    write_generated_traces(&dir, 2);
    let path = dir.join("vm01.csv");
    for gap in ["nan", "inf"] {
        let csv = fs::read_to_string(&path).unwrap();
        let mut lines: Vec<&str> = csv.lines().collect();
        let row = format!("40,{gap}");
        lines[41] = &row;
        fs::write(&path, lines.join("\n")).unwrap();
        for command in [
            args(&["fit", path.to_str().unwrap()]),
            args(&[
                "plan",
                "--traces",
                dir.to_str().unwrap(),
                "--capacity",
                "90",
            ]),
            args(&[
                "simulate",
                "--traces",
                dir.to_str().unwrap(),
                "--capacity",
                "90",
            ]),
        ] {
            let e = run(&command, &mut Vec::new()).unwrap_err().to_string();
            assert!(e.contains("vm01.csv:42:") && e.contains(gap), "{e}");
        }
    }
}

#[test]
fn plan_rejects_missing_flags() {
    let mut buf = Vec::new();
    let e = run(&args(&["plan", "--capacity", "90"]), &mut buf).unwrap_err();
    assert!(e.to_string().contains("--traces"), "{e}");
    let e = run(&args(&["plan", "--traces", "/tmp"]), &mut buf).unwrap_err();
    assert!(e.to_string().contains("--capacity"), "{e}");
}

#[test]
fn every_command_rejects_an_undeclared_flag_by_name() {
    // One row per command: otherwise-valid arguments plus a flag the
    // command does not declare (`--batch` and `--class-sampler` were
    // real flags once, and kept "working" as ignored pairs). The parser
    // rejects before any command work starts, so no row needs its
    // traces, daemon or trace file to exist.
    let rows: [&[&str]; 10] = [
        &["reserve", "--k", "16", "--d", "4"],
        &["table", "--d", "4", "--k", "16"],
        &["fit", "trace.csv", "--rho", "0.01"],
        &["plan", "--traces", "t", "--capacity", "90", "--steps", "10"],
        &["consolidate", "--vms", "100", "--batch", "x"],
        &[
            "simulate",
            "--traces",
            "t",
            "--capacity",
            "90",
            "--class-sampler",
            "walk",
        ],
        &["online-replay", "--vms", "100", "--clients", "2"],
        &["serve", "--vms", "10", "--ops", "5"],
        &["serve-replay", "--addr", "127.0.0.1:1", "--workers", "2"],
        &["trace-report", "trace.jsonl", "--top", "3"],
    ];
    for row in rows {
        let undeclared = row[row.len() - 2];
        let mut buf = Vec::new();
        let e = run(&args(row), &mut buf).unwrap_err().to_string();
        assert!(
            e.starts_with(&format!("unknown flag {undeclared} ")),
            "{}: {e}",
            row[0]
        );
        assert!(buf.is_empty(), "{}: wrote output before failing", row[0]);
    }
    // The same pairs under their own commands still parse.
    let out = run_ok(&args(&["consolidate", "--vms", "100", "--seed", "3"]));
    assert!(out.contains("PMs"), "{out}");
}

#[test]
fn reserve_and_table_agree() {
    let reserve_out = run_ok(&args(&["reserve", "--k", "12"]));
    let table_out = run_ok(&args(&["table", "--d", "12"]));
    // The reserve answer for k=12 must appear as the last table row.
    let last = table_out.lines().last().unwrap();
    let blocks_from_table: usize = last.split_whitespace().nth(1).unwrap().parse().unwrap();
    assert!(
        reserve_out.contains(&format!("reserve {blocks_from_table} blocks")),
        "reserve: {reserve_out} table last row: {last}"
    );
}

#[test]
fn simulate_certifies_a_sound_plan() {
    let dir = scratch("simulate");
    write_generated_traces(&dir, 6);
    let out = run_ok(&args(&[
        "simulate",
        "--traces",
        dir.to_str().unwrap(),
        "--capacity",
        "90",
        "--steps",
        "30000",
    ]));
    assert!(out.contains("mean CVR"), "{out}");
    assert!(out.contains("HOLDS"), "{out}");
    assert!(out.contains("nines"), "{out}");
}

#[test]
fn simulate_with_fault_injection_reports_recovery_metrics() {
    let dir = scratch("simulate-faults");
    write_generated_traces(&dir, 6);
    let out = run_ok(&args(&[
        "simulate",
        "--traces",
        dir.to_str().unwrap(),
        "--capacity",
        "90",
        "--steps",
        "5000",
        "--mtbf",
        "400",
        "--mttr",
        "40",
        "--fault-seed",
        "9",
    ]));
    assert!(out.contains("faults (MTBF 400, MTTR 40, group 1)"), "{out}");
    assert!(out.contains("crashes"), "{out}");
    assert!(out.contains("time-to-restore"), "{out}");
    assert!(out.contains("violation split"), "{out}");
}

#[test]
fn simulate_rejects_orphan_fault_flags_and_bad_mtbf() {
    let dir = scratch("simulate-badfaults");
    write_generated_traces(&dir, 2);
    let base = ["simulate", "--traces", dir.to_str().unwrap(), "--capacity"];
    let mut buf = Vec::new();
    let e = run(
        &args(&[&base[..], &["120", "--mttr", "40"][..]].concat()),
        &mut buf,
    )
    .unwrap_err();
    assert!(e.to_string().contains("--mtbf"), "{e}");
    let e = run(
        &args(&[&base[..], &["120", "--mtbf", "0.2"][..]].concat()),
        &mut buf,
    )
    .unwrap_err();
    assert!(e.to_string().contains("mtbf_steps"), "{e}");
}

#[test]
fn simulate_accepts_rng_layout_and_threads() {
    let dir = scratch("simulate-rng");
    write_generated_traces(&dir, 4);
    let base = ["simulate", "--traces", dir.to_str().unwrap(), "--capacity"];
    // The class-aggregated layout with explicit thread counts runs fine;
    // outcomes are thread-count invariant, so both reports must match
    // exactly.
    let run_with = |threads: &str| {
        run_ok(&args(
            &[
                &base[..],
                &[
                    "120",
                    "--steps",
                    "3000",
                    "--rng-layout",
                    "class-aggregated",
                    "--threads",
                    threads,
                ][..],
            ]
            .concat(),
        ))
    };
    let one = run_with("1");
    assert!(one.contains("mean CVR"), "{one}");
    assert_eq!(one, run_with("4"), "report must not depend on threads");

    // The shared (default) stream is sequential: --threads is rejected.
    let mut buf = Vec::new();
    let e = run(
        &args(&[&base[..], &["120", "--threads", "4"][..]].concat()),
        &mut buf,
    )
    .unwrap_err();
    assert_eq!(
        e.to_string(),
        "--threads requires --rng-layout class-aggregated (the shared stream is sequential)"
    );

    // Unknown layout names — the retired per-VM layout among them — are
    // rejected up front with the two that exist.
    for name in "weird per-vm".split(' ') {
        let e = run(
            &args(&[&base[..], &["120", "--rng-layout", name][..]].concat()),
            &mut buf,
        )
        .unwrap_err();
        assert_eq!(
            e.to_string(),
            format!("unknown --rng-layout '{name}' (expected 'shared' or 'class-aggregated')")
        );
    }
}

#[test]
fn simulate_trace_out_round_trips_through_trace_report() {
    let dir = scratch("simulate-trace");
    write_generated_traces(&dir, 4);
    let trace_path = dir.join("trace.jsonl");
    let out = run_ok(&args(&[
        "simulate",
        "--traces",
        dir.to_str().unwrap(),
        "--capacity",
        "90",
        "--steps",
        "2000",
        "--mtbf",
        "400",
        "--mttr",
        "40",
        "--trace-out",
        trace_path.to_str().unwrap(),
    ]));
    assert!(out.contains("trace written to"), "{out}");

    let text = fs::read_to_string(&trace_path).unwrap();
    let first = text.lines().next().unwrap();
    assert!(first.contains("\"type\":\"meta\""), "{first}");
    // The dump carries the step counter and CVR series lines.
    assert!(text.contains("\"steps\":2000"), "missing steps counter");
    assert!(text.contains("\"type\":\"cvr_series\""), "missing series");

    let report = run_ok(&args(&["trace-report", trace_path.to_str().unwrap()]));
    assert!(report.contains("trace report"), "{report}");
    assert!(report.contains("steps"), "{report}");
    assert!(report.contains("cvr series"), "{report}");
}

#[test]
fn trace_report_rejects_garbage_and_missing_files() {
    let dir = scratch("trace-report-bad");
    let mut buf = Vec::new();
    let missing = dir.join("nope.jsonl");
    let e = run(
        &args(&["trace-report", missing.to_str().unwrap()]),
        &mut buf,
    )
    .unwrap_err();
    assert!(e.to_string().contains("cannot read"), "{e}");

    let junk = dir.join("junk.jsonl");
    fs::write(&junk, "not a trace\n").unwrap();
    let e = run(&args(&["trace-report", junk.to_str().unwrap()]), &mut buf).unwrap_err();
    assert!(e.to_string().contains("junk.jsonl"), "{e}");
}

#[test]
fn simulate_checkpoints_resume_to_the_same_digest() {
    let dir = scratch("simulate-ckpt");
    write_generated_traces(&dir, 4);
    let ckpts = dir.join("ckpts");
    let base = args(&[
        "simulate",
        "--traces",
        dir.to_str().unwrap(),
        "--capacity",
        "90",
        "--steps",
        "600",
        "--mtbf",
        "150",
        "--checkpoint-every",
        "100",
        "--checkpoint-dir",
        ckpts.to_str().unwrap(),
    ]);
    let first = run_ok(&base);
    assert!(first.contains("checkpoints: 5 written"), "{first}");
    let digest = first
        .lines()
        .find(|l| l.starts_with("digest:"))
        .expect("checkpointed runs print a digest line")
        .to_string();

    // The snapshots are still on disk: --resume re-runs the tail from
    // the newest one and must land on the exact same digest.
    let resumed = run_ok(&[base.clone(), args(&["--resume"])].concat());
    assert!(
        resumed.contains("resumed from ckpt-000000000500 at step 500"),
        "{resumed}"
    );
    assert!(resumed.contains(&digest), "{resumed}\nexpected {digest}");

    // A corrupted newest snapshot is discarded with a reason; the run
    // falls back to the older retained one and still matches.
    let newest = ckpts.join("ckpt-000000000500");
    let mut bytes = fs::read(&newest).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    fs::write(&newest, bytes).unwrap();
    let fallback = run_ok(&[base, args(&["--resume"])].concat());
    assert!(
        fallback.contains("resumed from ckpt-000000000400 at step 400"),
        "{fallback}"
    );
    assert!(
        fallback.contains("discarded ckpt-000000000500"),
        "{fallback}"
    );
    assert!(fallback.contains(&digest), "{fallback}\nexpected {digest}");
}

#[test]
fn simulate_rejects_orphan_checkpoint_flags() {
    let dir = scratch("simulate-badckpt");
    write_generated_traces(&dir, 2);
    let base = [
        "simulate",
        "--traces",
        dir.to_str().unwrap(),
        "--capacity",
        "120",
    ];
    let mut buf = Vec::new();
    let e = run(
        &args(&[&base[..], &["--checkpoint-dir", "/tmp/x"][..]].concat()),
        &mut buf,
    )
    .unwrap_err();
    assert!(e.to_string().contains("--checkpoint-every"), "{e}");
    let e = run(&args(&[&base[..], &["--resume"][..]].concat()), &mut buf).unwrap_err();
    assert!(e.to_string().contains("--checkpoint-every"), "{e}");
    let e = run(
        &args(
            &[
                &base[..],
                &["--checkpoint-every", "0", "--checkpoint-dir", "/tmp/x"][..],
            ]
            .concat(),
        ),
        &mut buf,
    )
    .unwrap_err();
    assert!(e.to_string().contains("interval"), "{e}");
}

#[test]
fn simulate_accepts_availability_budget() {
    let dir = scratch("simulate-slo");
    write_generated_traces(&dir, 4);
    let out = run_ok(&args(&[
        "simulate",
        "--traces",
        dir.to_str().unwrap(),
        "--capacity",
        "120",
        "--steps",
        "5000",
        "--availability",
        "99",
    ]));
    assert!(out.contains("budget 0.01"), "{out}");
}

#[test]
fn online_replay_trace_round_trips_through_trace_report() {
    let dir = scratch("online-replay");
    let trace = dir.join("churn.jsonl");
    let out = run_ok(&args(&[
        "online-replay",
        "--vms",
        "600",
        "--ops",
        "400",
        "--batch-every",
        "50",
        "--recal-every",
        "128",
        "--trace-out",
        trace.to_str().unwrap(),
    ]));
    assert!(out.contains("replayed"), "{out}");
    assert!(out.contains("trace written"), "{out}");

    let body = fs::read_to_string(&trace).unwrap();
    assert!(
        body.contains("\"type\":\"admission\""),
        "missing admissions"
    );
    assert!(
        body.contains("\"type\":\"online_departure\""),
        "missing departures"
    );
    assert!(
        body.contains("\"type\":\"recalibration\""),
        "missing recalibrations"
    );
    assert!(body.contains("online_admit_nanos"), "missing latency hist");

    let report = run_ok(&args(&["trace-report", trace.to_str().unwrap()]));
    assert!(report.contains("admission"), "{report}");
    assert!(report.contains("online_departure"), "{report}");
}
