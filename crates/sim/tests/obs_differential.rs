//! Differential tests for the observability layer: attaching any
//! [`Recorder`](bursty_obs::Recorder) — including the fully active
//! [`MemoryRecorder`] with the event journal, histograms, step events and
//! CVR sampling all enabled — must leave every simulation outcome
//! `f64::to_bits`-identical to the uninstrumented run, under both RNG
//! layouts and at any thread count.
//!
//! `Simulator::run` *is* `run_recorded::<NoopRecorder>`, so these tests
//! pin the stronger claim: the live recorder observes the run without
//! perturbing it (no RNG draws, no reordering, no float arithmetic on
//! simulation state).

use bursty_obs::MemoryRecorder;
use bursty_placement::{first_fit, BaseStrategy};
use bursty_sim::{FaultConfig, ObservedPolicy, RngLayout, SimConfig, SimOutcome, Simulator};
use bursty_workload::{PmSpec, VmSpec};
use proptest::prelude::*;

fn fleet(n: usize) -> (Vec<VmSpec>, Vec<PmSpec>) {
    let vms = (0..n)
        .map(|i| VmSpec::new(i, 0.01, 0.09, 10.0, 10.0))
        .collect();
    let pms = (0..4 * n).map(|j| PmSpec::new(j, 100.0)).collect();
    (vms, pms)
}

/// Field-by-field bit equality; `==` on floats would also accept
/// `-0.0 == 0.0`, which is exactly the kind of drift this suite exists
/// to catch.
fn assert_bit_identical(a: &SimOutcome, b: &SimOutcome, what: &str) {
    assert_eq!(a.cvr_per_pm.len(), b.cvr_per_pm.len(), "{what}: cvr len");
    for (x, y) in a.cvr_per_pm.iter().zip(&b.cvr_per_pm) {
        assert_eq!(x.0, y.0, "{what}: cvr pm index");
        assert_eq!(x.1.to_bits(), y.1.to_bits(), "{what}: cvr bits pm {}", x.0);
    }
    assert_eq!(a.migrations, b.migrations, "{what}: migrations");
    assert_eq!(a.failed_migrations, b.failed_migrations, "{what}");
    assert_eq!(a.retried_migrations, b.retried_migrations, "{what}");
    assert_eq!(a.final_pms_used, b.final_pms_used, "{what}");
    assert_eq!(a.peak_pms_used, b.peak_pms_used, "{what}");
    assert_eq!(a.total_violation_steps, b.total_violation_steps, "{what}");
    assert_eq!(a.vm_violation_steps, b.vm_violation_steps, "{what}");
    assert_eq!(
        a.energy_joules.to_bits(),
        b.energy_joules.to_bits(),
        "{what}: energy bits"
    );
    assert_eq!(a.fault_events, b.fault_events, "{what}: fault events");
    assert_eq!(a.evacuations, b.evacuations, "{what}: evacuations");
    assert_eq!(a.recovery, b.recovery, "{what}: recovery stats");
    assert_eq!(
        a.pms_used_series.len(),
        b.pms_used_series.len(),
        "{what}: series len"
    );
    for ((t1, v1), (t2, v2)) in a.pms_used_series.points().zip(b.pms_used_series.points()) {
        assert_eq!(t1.to_bits(), t2.to_bits(), "{what}: series time bits");
        assert_eq!(v1.to_bits(), v2.to_bits(), "{what}: series value bits");
    }
}

/// A recorder with every optional feature switched on, so the
/// instrumented run exercises the journal, the histograms, per-step
/// events and periodic CVR sampling.
fn loud_recorder() -> MemoryRecorder {
    MemoryRecorder::new(4096)
        .with_cvr_sampling(7)
        .with_step_events()
}

fn config(steps: usize, seed: u64, faults: bool, layout: RngLayout, threads: usize) -> SimConfig {
    SimConfig {
        steps,
        seed,
        faults: faults.then(|| FaultConfig {
            mtbf_steps: 120.0,
            mttr_steps: 20.0,
            ..Default::default()
        }),
        rng_layout: layout,
        threads,
        ..Default::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The tentpole invariant: a fully active MemoryRecorder never
    /// changes the outcome, for either RNG layout, at 1/2/8 threads,
    /// with and without fault injection.
    #[test]
    fn recorded_runs_are_bit_identical_to_plain_runs(
        n in 8usize..24,
        steps in 60usize..200,
        seed in 0u64..1_000,
        fault_bit in 0u8..2,
    ) {
        let faults = fault_bit == 1;
        let (vms, pms) = fleet(n);
        let placement = first_fit(&vms, &pms, &BaseStrategy).unwrap();
        let policy = ObservedPolicy::rb();
        for layout in [RngLayout::Shared, RngLayout::ClassAggregated] {
            for threads in [1usize, 2, 8] {
                let cfg = config(steps, seed, faults, layout, threads);
                let plain = Simulator::new(&vms, &pms, &policy, cfg).run(&placement);
                let mut rec = loud_recorder();
                let recorded = Simulator::new(&vms, &pms, &policy, cfg)
                    .run_recorded(&placement, &mut rec);
                assert_bit_identical(
                    &plain,
                    &recorded,
                    &format!("{layout:?}/{threads}t/faults={faults}"),
                );
            }
        }
    }

    /// Under the class-aggregated layout (the one that threads) the
    /// recorder must be thread-count invariant: every recorder call sits
    /// in a serial engine section, so counters, journal contents and CVR
    /// samples match exactly. Per VM in name only: the id is kept stable.
    #[test]
    fn per_vm_recorder_state_is_thread_count_invariant(
        n in 8usize..20,
        steps in 60usize..160,
        seed in 0u64..1_000,
        fault_bit in 0u8..2,
    ) {
        let faults = fault_bit == 1;
        let (vms, mut pms) = fleet(n);
        // Workers are capped at the count of 512-PM chunks: three chunks,
        // so 2 and 8 threads really fan out.
        pms.extend((pms.len()..1100).map(|j| PmSpec::new(j, 100.0)));
        let placement = first_fit(&vms, &pms, &BaseStrategy).unwrap();
        let policy = ObservedPolicy::rb();
        let dump_at = |threads: usize| {
            let cfg = config(steps, seed, faults, RngLayout::ClassAggregated, threads);
            let mut rec = loud_recorder();
            Simulator::new(&vms, &pms, &policy, cfg).run_recorded(&placement, &mut rec);
            rec.to_jsonl()
        };
        let one = dump_at(1);
        prop_assert_eq!(&one, &dump_at(2), "2 threads");
        prop_assert_eq!(&one, &dump_at(8), "8 threads");
    }
}

/// Deterministic pin of the same invariant on the golden faults
/// scenario, so a violation fails fast (and on every run) rather than
/// only under proptest's sampling.
#[test]
fn golden_faults_scenario_is_unperturbed_by_recording() {
    let (vms, pms) = fleet(64);
    let placement = first_fit(&vms, &pms, &BaseStrategy).unwrap();
    let policy = ObservedPolicy::rb();
    let cfg = SimConfig {
        steps: 400,
        seed: 7,
        faults: Some(FaultConfig {
            mtbf_steps: 150.0,
            mttr_steps: 25.0,
            ..Default::default()
        }),
        ..Default::default()
    };
    let plain = Simulator::new(&vms, &pms, &policy, cfg).run(&placement);
    let mut rec = loud_recorder();
    let recorded = Simulator::new(&vms, &pms, &policy, cfg).run_recorded(&placement, &mut rec);
    assert_bit_identical(&plain, &recorded, "golden faults");
    // And the recorder saw the run: the step counter matches exactly.
    use bursty_obs::Counter;
    assert_eq!(rec.counter(Counter::Steps), 400);
    assert_eq!(
        rec.counter(Counter::Crashes) as usize,
        plain.recovery.crashes
    );
    assert_eq!(
        rec.counter(Counter::Migrations) as usize,
        plain.total_migrations()
    );
}
