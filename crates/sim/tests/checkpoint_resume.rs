//! The crash-safety tentpole's two load-bearing properties
//! (DESIGN.md §11):
//!
//! 1. **Resume identity** — for every RNG layout, thread count, and
//!    fault setting, a run interrupted at any checkpoint boundary and
//!    resumed from the durable snapshot finishes `f64::to_bits`-
//!    identical to a run that never stopped. The checkpoint must carry
//!    *everything* that evolves: the workload RNG (both layouts),
//!    the fault process mid-chain, the retry queue with its backoff
//!    exponents, the displaced pools, and every accumulated statistic.
//!
//! 2. **No injected I/O failure yields corrupt state** — writing
//!    through a [`FailingStore`] that tears files, fails renames, and
//!    silently flips bits, a later resume either loads a snapshot that
//!    verifies end to end (and then reproduces the exact baseline
//!    outcome) or reports a typed error. There is no third outcome:
//!    a corrupted file can delay recovery, never skew it.

use bursty_obs::durable::{crc64, parse_frames, FailingStore, FrameWriter, MemStore, Store};
use bursty_obs::{MemoryRecorder, NoopRecorder};
use bursty_placement::{first_fit, BaseStrategy, Placement, QueueStrategy};
use bursty_sim::{
    CheckpointConfig, CheckpointError, FaultConfig, FaultKind, ObservedPolicy, QueuePolicy,
    RngLayout, SimConfig, SimOutcome, Simulator,
};
use bursty_workload::{PmSpec, VmSpec};
use proptest::prelude::*;

fn fleet(n: usize) -> (Vec<VmSpec>, Vec<PmSpec>) {
    let vms = (0..n)
        .map(|i| VmSpec::new(i, 0.01, 0.09, 10.0, 10.0))
        .collect();
    let pms = (0..n).map(|j| PmSpec::new(j, 100.0)).collect();
    (vms, pms)
}

fn config(steps: usize, seed: u64, faults: bool, layout: RngLayout, threads: usize) -> SimConfig {
    SimConfig {
        steps,
        seed,
        faults: faults.then_some(FaultConfig {
            mtbf_steps: 30.0,
            mttr_steps: 8.0,
            correlated_group_size: 2,
            seed: seed ^ 0x5EED,
        }),
        rng_layout: layout,
        threads,
        ..Default::default()
    }
}

/// Checkpoint knobs with an unused directory: every test here passes an
/// explicit in-memory store.
fn knobs(every: usize, keep: usize) -> CheckpointConfig {
    CheckpointConfig {
        every,
        keep,
        dir: std::path::PathBuf::new(),
    }
}

/// Field-by-field bit equality — `==` on floats would accept
/// `-0.0 == 0.0`, masking exactly the drift this suite exists to catch.
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

fn queue_setup(vms: &[VmSpec], pms: &[PmSpec]) -> (Placement, QueuePolicy) {
    let strategy = QueueStrategy::build(16, 0.01, 0.09, 0.01);
    let placement = first_fit(vms, pms, &strategy).unwrap();
    (placement, QueuePolicy::new(strategy))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Resume identity across every rng layout × 1/2/8 threads ×
    /// faults on/off. The checkpointed run itself must also match the
    /// plain run (the step hook observes, never perturbs).
    #[test]
    fn resume_is_bit_identical_to_an_uninterrupted_run(
        n in 8usize..20,
        steps in 40usize..120,
        seed in 0u64..1_000,
        every in 7usize..23,
        fault_bit in 0u8..2,
    ) {
        let faults = fault_bit == 1;
        let (vms, pms) = fleet(n);
        let (placement, policy) = queue_setup(&vms, &pms);
        for layout in [RngLayout::Shared, RngLayout::ClassAggregated] {
            for threads in [1usize, 2, 8] {
                if layout == RngLayout::Shared && threads > 1 {
                    continue; // the shared stream is sequential by contract
                }
                let cfg = config(steps, seed, faults, layout, threads);
                let sim = Simulator::new(&vms, &pms, &policy, cfg);
                let what = format!("{layout:?}/{threads}t/faults={faults}/every={every}");

                let baseline = sim.run(&placement);
                let mut store = MemStore::new();
                let run = sim.run_with_checkpoints(
                    &placement, &knobs(every, 2), &mut store, &mut NoopRecorder);
                prop_assert!(run.save_errors.is_empty(), "{what}: save errors");
                assert_bit_identical(&baseline, &run.outcome, &format!("{what}: hooked run"));

                if steps > every {
                    // Snapshots exist: resuming re-runs the tail to the
                    // same bits — possibly at a *different* thread count
                    // (the fingerprint deliberately ignores threads).
                    let resume_threads = if layout == RngLayout::Shared { 1 } else { 4 };
                    let resumed_sim = Simulator::new(
                        &vms, &pms, &policy,
                        SimConfig { threads: resume_threads, ..cfg });
                    let (resumed, report) = resumed_sim
                        .resume_with_checkpoints(&knobs(every, 2), &mut store, &mut NoopRecorder)
                        .unwrap();
                    prop_assert!(report.discarded.is_empty(), "{what}: discards");
                    prop_assert_eq!(report.step % every, 0, "boundary snapshot");
                    assert_bit_identical(&baseline, &resumed.outcome, &format!("{what}: resumed"));
                }
            }
        }
    }

    /// A recorder attached across the interruption reproduces the
    /// uninterrupted journal exactly: events before the snapshot come
    /// from the restored journal, events after from the re-run tail —
    /// none lost, none duplicated.
    #[test]
    fn resumed_journal_equals_uninterrupted_journal(
        n in 8usize..16,
        steps in 40usize..90,
        seed in 0u64..500,
        every in 9usize..17,
    ) {
        let (vms, pms) = fleet(n);
        let (placement, policy) = queue_setup(&vms, &pms);
        let cfg = config(steps, seed, true, RngLayout::Shared, 1);
        let sim = Simulator::new(&vms, &pms, &policy, cfg);

        let mut full = MemoryRecorder::new(8192).with_cvr_sampling(5);
        sim.run_recorded(&placement, &mut full);

        let mut store = MemStore::new();
        let mut rec = MemoryRecorder::new(8192).with_cvr_sampling(5);
        sim.run_with_checkpoints(&placement, &knobs(every, 2), &mut store, &mut rec);
        if steps > every {
            let mut resumed = MemoryRecorder::new(8192).with_cvr_sampling(5);
            sim.resume_with_checkpoints(&knobs(every, 2), &mut store, &mut resumed)
                .unwrap();
            prop_assert_eq!(full.to_jsonl(), resumed.to_jsonl());
        }
    }

    /// The fault-injection property: no torn write, failed rename, or
    /// silent bit flip can make resume produce anything but (a) the
    /// exact baseline outcome from an older verifying snapshot or (b) a
    /// typed error. Sweeps fault probabilities from rare to brutal.
    #[test]
    fn injected_store_faults_never_yield_corrupt_state(
        seed in 0u64..2_000,
        p_short in 0u8..96,
        p_rename in 0u8..96,
        p_flip in 0u8..96,
    ) {
        let (vms, pms) = fleet(12);
        let (placement, policy) = queue_setup(&vms, &pms);
        let cfg = config(80, seed, true, RngLayout::Shared, 1);
        let sim = Simulator::new(&vms, &pms, &policy, cfg);
        let baseline = sim.run(&placement);

        let mut store = FailingStore::new(MemStore::new(), seed, p_short, p_rename, p_flip);
        let run = sim.run_with_checkpoints(
            &placement, &knobs(10, 2), &mut store, &mut NoopRecorder);
        // Whatever the store did, the run itself is never perturbed.
        assert_bit_identical(&baseline, &run.outcome, "run through failing store");

        match sim.resume_with_checkpoints(&knobs(10, 2), store.inner_mut(), &mut NoopRecorder) {
            Ok((resumed, report)) => {
                // Every discard must carry a reason; the loaded snapshot
                // reproduces the baseline bits exactly.
                for (name, why) in &report.discarded {
                    prop_assert!(!why.is_empty(), "{name}: empty discard reason");
                }
                assert_bit_identical(&baseline, &resumed.outcome, "resumed after faults");
            }
            Err(CheckpointError::NoUsableCheckpoint { discarded }) => {
                // Legal only when no write survived intact enough to
                // verify; every leftover file must carry a reason.
                for (name, why) in &discarded {
                    prop_assert!(!why.is_empty(), "{name}: empty discard reason");
                }
            }
            Err(other) => prop_assert!(false, "unexpected error kind: {other}"),
        }
    }
}

/// Deterministic spot check outside proptest: a specific brutal fault
/// pattern (every write torn) must leave resume with the typed
/// no-usable-checkpoint error, never a panic or a bogus outcome.
#[test]
fn all_writes_torn_is_a_typed_error() {
    let (vms, pms) = fleet(10);
    let (placement, policy) = queue_setup(&vms, &pms);
    let cfg = config(50, 3, false, RngLayout::Shared, 1);
    let sim = Simulator::new(&vms, &pms, &policy, cfg);

    let mut store = FailingStore::new(MemStore::new(), 7, 255, 0, 0);
    let run = sim.run_with_checkpoints(&placement, &knobs(10, 2), &mut store, &mut NoopRecorder);
    assert_eq!(run.saves, 0, "every save must have failed");
    assert!(!run.save_errors.is_empty());

    let err = sim
        .resume_with_checkpoints(&knobs(10, 2), store.inner_mut(), &mut NoopRecorder)
        .unwrap_err();
    match err {
        CheckpointError::NoUsableCheckpoint { discarded } => {
            assert!(!discarded.is_empty(), "torn files must be listed");
        }
        other => panic!("expected NoUsableCheckpoint, got {other}"),
    }
}

/// `image` re-framed as a file written before section 7 was retired:
/// an empty section 7 (an empty sequence: 28 bytes with its tag, length
/// and CRC) between the placement and accounting sections.
fn with_retired_section(image: &[u8]) -> Vec<u8> {
    let mut w = FrameWriter::new();
    for (tag, payload) in parse_frames(image).unwrap() {
        assert_ne!(tag, 7, "a fresh image writes no section 7");
        if tag == 8 {
            w.section(7, &0u64.to_le_bytes());
        }
        w.section(tag, &payload);
    }
    w.finish()
}

/// Asserts that `store` holds exactly the snapshots `pinned` lists, as
/// `(file, length, crc64)` digested at the commit before the derived
/// state under test existed: nothing new may be persisted. Those files
/// still carried the retired section 7, which is put back before the
/// digest, so nothing else may have changed either.
fn assert_snapshots_pinned(store: &MemStore, pinned: &[(&str, usize, u64)]) {
    let digests: Vec<(String, usize, u64)> = store
        .list()
        .unwrap()
        .into_iter()
        .map(|name| {
            let bytes = with_retired_section(&store.read(&name).unwrap());
            (name, bytes.len(), crc64(&bytes))
        })
        .collect();
    assert_eq!(digests.len(), pinned.len());
    for ((name, len, crc), &(want_name, want_len, want_crc)) in digests.iter().zip(pinned) {
        assert_eq!(
            (name.as_str(), *len, *crc),
            (want_name, want_len, want_crc),
            "snapshot encoding changed"
        );
    }
}

/// The migration-target index the engine keeps across steps is derived
/// state: it is not in the snapshot, and a resumed run rebuilds it at its
/// first target query. An RB-tight packing under the QUEUE policy keeps
/// the controller migrating for dozens of steps, so the run is cut where
/// load has already moved *and* more moves follow — the resumed index
/// must be rebuilt from the moved loads and then kept current, at any
/// thread count, to the same bits as a run that never stopped. The
/// snapshot digests are the parent commit's: nothing new is persisted.
#[test]
fn kept_target_index_is_rebuilt_on_resume_and_never_persisted() {
    let vms: Vec<VmSpec> = (0..60)
        .map(|i| VmSpec::new(i, 0.01, 0.09, 8.0 + (i % 3) as f64 * 2.0, 10.0))
        .collect();
    let pms: Vec<PmSpec> = (0..20).map(|j| PmSpec::new(j, 100.0)).collect();
    let placement = first_fit(&vms, &pms, &BaseStrategy).unwrap();
    let policy = QueuePolicy::new(QueueStrategy::build(16, 0.01, 0.09, 0.01));
    let cfg = config(120, 5, false, RngLayout::ClassAggregated, 1);
    let sim = Simulator::new(&vms, &pms, &policy, cfg);

    let baseline = sim.run(&placement);
    let cut = 20usize;
    let moved_before = baseline.migrations.iter().filter(|e| e.step < cut).count();
    let moved_after = baseline.migrations.len() - moved_before;
    assert!(
        moved_before >= 1 && moved_after >= 1,
        "cut must split the migrations: {moved_before} before, {moved_after} after"
    );

    let mut store = MemStore::new();
    let run = sim.run_with_checkpoints(&placement, &knobs(cut, 8), &mut store, &mut NoopRecorder);
    assert!(run.save_errors.is_empty());
    assert_bit_identical(&baseline, &run.outcome, "hooked run");

    assert_snapshots_pinned(&store, &PINNED_SNAPSHOTS);

    // Interrupt right after step `cut`: drop every later snapshot.
    for name in store.list().unwrap() {
        if name.as_str() > PINNED_SNAPSHOTS[0].0 {
            store.remove(&name).unwrap();
        }
    }
    for threads in [1usize, 4] {
        let resumed_sim = Simulator::new(&vms, &pms, &policy, SimConfig { threads, ..cfg });
        let (resumed, report) = resumed_sim
            .resume_with_checkpoints(&knobs(cut, 8), store.clone(), &mut NoopRecorder)
            .unwrap();
        assert_eq!(report.step, cut);
        assert_bit_identical(
            &baseline,
            &resumed.outcome,
            &format!("resumed at {threads}t"),
        );
    }
}

/// `(file, length, crc64)` of every snapshot the fixed run above writes,
/// computed when the class layout's cells came to carry their next
/// change (each cell 4 bytes longer).
const PINNED_SNAPSHOTS: [(&str, usize, u64); 5] = [
    ("ckpt-000000000020", 4666, 12648450863116145569),
    ("ckpt-000000000040", 5002, 4376102720693942530),
    ("ckpt-000000000060", 5274, 15397272631651649218),
    ("ckpt-000000000080", 5514, 4568478254546391275),
    ("ckpt-000000000100", 5722, 5649195391474379515),
];

/// Both layouts carry per-PM demand sums across steps as derived state
/// (the shared layout with its dirty marks, the class layout with its
/// per-chunk stale lists), beside the engine's occupied-PM set: none of
/// it is in the snapshot, and a resumed run rebuilds it from the restored
/// `on` flags or cell counters, `host` and `loads` at its first step. An
/// RB-tight farm under the RB policy with faults on keeps migrating,
/// crashing and evacuating, so the cut lands after membership has moved
/// both ways (migrant-reordered member lists, emptied and re-filled PMs,
/// cells merged into the limbo pool and split back out) with more of
/// each to come.
fn carried_sums_are_rebuilt_on_resume_and_never_persisted(
    layout: RngLayout,
    pinned: &[(&str, usize, u64); 2],
    resume_threads: &[usize],
) {
    let vms: Vec<VmSpec> = (0..60)
        .map(|i| VmSpec::new(i, 0.01, 0.09, 8.0 + (i % 3) as f64 * 2.0, 10.0))
        .collect();
    let pms: Vec<PmSpec> = (0..20).map(|j| PmSpec::new(j, 100.0)).collect();
    let placement = first_fit(&vms, &pms, &BaseStrategy).unwrap();
    let policy = ObservedPolicy::rb();
    let cfg = config(150, 5, true, layout, 1);
    let sim = Simulator::new(&vms, &pms, &policy, cfg);

    let baseline = sim.run(&placement);
    let cut = 50usize;
    let split = |steps: &mut dyn Iterator<Item = usize>| {
        let (before, after): (Vec<usize>, Vec<usize>) = steps.partition(|&s| s < cut);
        (before.len(), after.len())
    };
    let moves = split(&mut baseline.migrations.iter().map(|e| e.step));
    let crashes = split(
        &mut baseline
            .fault_events
            .iter()
            .filter(|e| e.kind == FaultKind::Crash)
            .map(|e| e.step),
    );
    let landings = split(
        &mut baseline
            .evacuations
            .iter()
            .filter(|e| e.to_pm.is_some())
            .map(|e| e.step),
    );
    for (what, (before, after)) in [
        ("migrations", moves),
        ("crashes", crashes),
        ("landings", landings),
    ] {
        assert!(
            before >= 1 && after >= 1,
            "cut must split the {what}: {before} before, {after} after"
        );
    }

    let mut store = MemStore::new();
    let run = sim.run_with_checkpoints(&placement, &knobs(cut, 8), &mut store, &mut NoopRecorder);
    assert!(run.save_errors.is_empty());
    assert_bit_identical(&baseline, &run.outcome, "hooked run");
    assert_snapshots_pinned(&store, pinned);

    // Interrupt right after step `cut`: drop the later snapshot.
    store.remove(pinned[1].0).unwrap();
    for &threads in resume_threads {
        let resumed_sim = Simulator::new(&vms, &pms, &policy, SimConfig { threads, ..cfg });
        let (resumed, report) = resumed_sim
            .resume_with_checkpoints(&knobs(cut, 8), store.clone(), &mut NoopRecorder)
            .unwrap();
        assert_eq!(report.step, cut);
        assert_bit_identical(
            &baseline,
            &resumed.outcome,
            &format!("resumed at {threads}t"),
        );
    }
}

#[test]
fn shared_layout_sums_and_occupied_set_are_rebuilt_on_resume_and_never_persisted() {
    carried_sums_are_rebuilt_on_resume_and_never_persisted(
        RngLayout::Shared,
        &PINNED_SHARED_SNAPSHOTS,
        &[1],
    );
}

#[test]
fn class_layout_sums_are_rebuilt_on_resume_and_never_persisted() {
    carried_sums_are_rebuilt_on_resume_and_never_persisted(
        RngLayout::ClassAggregated,
        &PINNED_CLASS_SNAPSHOTS,
        &[1, 4],
    );
}

/// `(file, length, crc64)` of the snapshots the fixed run above writes,
/// computed at the commit before the shared layout kept per-PM sums.
const PINNED_SHARED_SNAPSHOTS: [(&str, usize, u64); 2] = [
    ("ckpt-000000000050", 8056, 10240044588388130596),
    ("ckpt-000000000100", 12566, 4103400976211420776),
];

/// The same for the class layout, computed when its cells came to carry
/// their next change.
const PINNED_CLASS_SNAPSHOTS: [(&str, usize, u64); 2] = [
    ("ckpt-000000000050", 8596, 10847444458844766584),
    ("ckpt-000000000100", 13372, 14067513179582991553),
];

/// Runs `cfg` under both layouts, interrupts each run right after step
/// `cut` and resumes it at 1 worker (and at 4 under the class layout):
/// every resumed outcome must equal the uninterrupted run's. `at_cut`
/// checks, on the uninterrupted outcome, that the cut lands where the
/// caller says it does.
fn resumed_at_cut_equals_uninterrupted(
    vms: &[VmSpec],
    pms: &[PmSpec],
    placement: &Placement,
    cfg: SimConfig,
    cut: usize,
    at_cut: impl Fn(&SimOutcome),
) {
    let policy = ObservedPolicy::rb();
    for (layout, resume_threads) in [
        (RngLayout::Shared, &[1usize][..]),
        (RngLayout::ClassAggregated, &[1, 4][..]),
    ] {
        let cfg = SimConfig {
            rng_layout: layout,
            ..cfg
        };
        let sim = Simulator::new(vms, pms, &policy, cfg);
        let baseline = sim.run(placement);
        at_cut(&baseline);

        let mut store = MemStore::new();
        let run =
            sim.run_with_checkpoints(placement, &knobs(cut, 64), &mut store, &mut NoopRecorder);
        assert!(run.save_errors.is_empty());
        assert_bit_identical(&baseline, &run.outcome, "hooked run");
        let first = store.list().unwrap().into_iter().min().unwrap();
        for name in store.list().unwrap() {
            if name != first {
                store.remove(&name).unwrap();
            }
        }
        for &threads in resume_threads {
            let resumed_sim = Simulator::new(vms, pms, &policy, SimConfig { threads, ..cfg });
            let (resumed, report) = resumed_sim
                .resume_with_checkpoints(&knobs(cut, 64), store.clone(), &mut NoopRecorder)
                .unwrap();
            assert_eq!(report.step, cut);
            assert_bit_identical(
                &baseline,
                &resumed.outcome,
                &format!("{layout:?} resumed at {threads}t"),
            );
        }
    }
}

/// `(step, from, to)` of every migration, in order.
fn moves(out: &SimOutcome) -> Vec<(usize, usize, usize)> {
    out.migrations
        .iter()
        .map(|e| (e.step, e.from_pm, e.to_pm))
        .collect()
}

/// A tenant that switches ON at step 0 and (in effect) never OFF again.
fn pinned_on(id: usize, r_b: f64, r_e: f64) -> VmSpec {
    VmSpec::new(id, 1.0, 1e-12, r_b, r_e)
}

/// Five bursty tenants filling a 100-capacity PM to 90–100: never over,
/// never admitting a migrant, always flipping.
fn fillers(first_id: usize) -> impl Iterator<Item = VmSpec> {
    (first_id..first_id + 5).map(|i| VmSpec::new(i, 0.1, 0.3, 18.0, 2.0))
}

/// The lazy active-step counts are written materialised and restart from
/// the resumed step: PM 0 is emptied by a migration at step 5 and
/// refilled as a target at step 6 (the engine test
/// `a_pm_emptied_by_migration_and_refilled_keeps_its_cvr_denominator`
/// walks through the fleet), and the run is cut between the two — the
/// snapshot holds an empty PM with six active steps to its credit, and
/// the resumed run must count it again from pass 7 only.
#[test]
fn a_cut_between_a_pm_emptying_and_refilling_resumes_its_active_steps() {
    let mut vms = vec![pinned_on(0, 50.0, 70.0)];
    vms.extend((1..8).map(|i| pinned_on(i, 10.0, 10.0)));
    vms.extend(fillers(8));
    vms.extend(fillers(13));
    let pms: Vec<PmSpec> = [100.0, 140.0, 100.0, 100.0, 100.0]
        .into_iter()
        .enumerate()
        .map(|(j, cap)| PmSpec::new(j, cap))
        .collect();
    let placement = Placement {
        assignment: (0..18)
            .map(|i| {
                Some(match i {
                    0 => 0,
                    1..=7 => 2,
                    _ => 3 + (i - 8) / 5,
                })
            })
            .collect(),
        n_pms: 5,
    };
    let cfg = config(30, 3, false, RngLayout::Shared, 1);
    resumed_at_cut_equals_uninterrupted(&vms, &pms, &placement, cfg, 6, |out| {
        assert_eq!(moves(out), [(5, 0, 1), (5, 2, 1), (6, 2, 0)]);
        assert_eq!(out.cvr_per_pm[0], (0, 6.0 / 29.0));
    });
}

/// A checkpoint written before the copy-charge section was retired still
/// resumes: the decoder finds sections by tag and skips the old file's
/// empty section 7, and the fingerprint hashes the retired window's 0 as
/// before. The old image is a fresh one re-framed with that section put
/// back.
#[test]
fn a_checkpoint_with_the_retired_copy_charge_section_still_resumes() {
    let (vms, pms) = fleet(12);
    let (placement, policy) = queue_setup(&vms, &pms);
    for layout in [RngLayout::Shared, RngLayout::ClassAggregated] {
        let cfg = config(90, 4, true, layout, 1);
        let sim = Simulator::new(&vms, &pms, &policy, cfg);
        let baseline = sim.run(&placement);
        let mut store = MemStore::new();
        let run =
            sim.run_with_checkpoints(&placement, &knobs(30, 2), &mut store, &mut NoopRecorder);
        assert!(run.save_errors.is_empty());

        let newest = store.list().unwrap().into_iter().max().unwrap();
        let fresh = store.read(&newest).unwrap();
        let old = with_retired_section(&fresh);
        assert_eq!(old.len(), fresh.len() + 28);
        store.write_atomic(&newest, &old).unwrap();

        let (resumed, report) = sim
            .resume_with_checkpoints(&knobs(30, 2), store, &mut NoopRecorder)
            .unwrap();
        assert!(
            report.discarded.is_empty(),
            "{layout:?}: {:?}",
            report.discarded
        );
        assert_eq!(report.step, 60, "{layout:?}");
        assert_bit_identical(
            &baseline,
            &resumed.outcome,
            &format!("{layout:?} old image"),
        );
    }
}
