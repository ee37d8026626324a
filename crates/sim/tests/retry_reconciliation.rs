//! Retry-queue accounting reconciliation (satellite of the observability
//! PR): the journal-derived view of the retry queue — enqueues,
//! re-enqueues, abandons, cancellations, landings, end-of-run residue —
//! must reconcile *exactly* with the counters and with the engine's own
//! [`RecoveryStats`] / [`SimOutcome`] accounting. Any drift means an
//! instrumentation site was missed or double-counted.

use bursty_obs::{Counter, Event, MemoryRecorder, RetryCause};
use bursty_placement::{first_fit, BaseStrategy};
use bursty_sim::{FaultConfig, ObservedPolicy, SimConfig, SimOutcome, Simulator};
use bursty_workload::{PmSpec, VmSpec};

/// A pool with no spare headroom: 32 identical VMs base-fill 4 PMs
/// (10 + 10 + 10 + 2), so a crash displaces VMs into a pool that mostly
/// cannot take them and overload migrations usually find no target —
/// maximal retry-queue pressure on both the overload and the
/// evacuation causes.
fn tight_cluster() -> (Vec<VmSpec>, Vec<PmSpec>) {
    let vms = (0..32)
        .map(|i| VmSpec::new(i, 0.01, 0.09, 10.0, 10.0))
        .collect();
    let pms = (0..4).map(|j| PmSpec::new(j, 100.0)).collect();
    (vms, pms)
}

fn run_recorded(cfg: SimConfig) -> (SimOutcome, MemoryRecorder) {
    let (vms, pms) = tight_cluster();
    let placement = first_fit(&vms, &pms, &BaseStrategy).unwrap();
    let policy = ObservedPolicy::rb();
    let mut rec = MemoryRecorder::new(262_144);
    let out = Simulator::new(&vms, &pms, &policy, cfg).run_recorded(&placement, &mut rec);
    assert_eq!(rec.journal().dropped(), 0, "journal must hold the full run");
    (out, rec)
}

/// Journal-derived retry tallies.
#[derive(Default, Debug)]
struct JournalTally {
    initial_overload: u64,
    initial_evacuation: u64,
    reenqueues: u64,
    abandons: u64,
    cancels: u64,
    retried_landings: u64,
    unplaced_evacuations: u64,
}

fn tally(rec: &MemoryRecorder) -> JournalTally {
    let mut t = JournalTally::default();
    for e in rec.journal().iter() {
        match e {
            Event::RetryEnqueued {
                attempts, cause, ..
            } => match (attempts, cause) {
                (0, RetryCause::Overload) => t.initial_overload += 1,
                (0, RetryCause::Evacuation) => t.initial_evacuation += 1,
                _ => t.reenqueues += 1,
            },
            Event::RetryAbandoned { .. } => t.abandons += 1,
            Event::RetryCancelled { .. } => t.cancels += 1,
            Event::Migration { retried: true, .. } => t.retried_landings += 1,
            Event::Evacuation { to: None, .. } => t.unplaced_evacuations += 1,
            _ => {}
        }
    }
    t
}

#[test]
fn faulted_tight_pool_reconciles_journal_counters_and_recovery_stats() {
    let cfg = SimConfig {
        steps: 600,
        seed: 11,
        faults: Some(FaultConfig {
            mtbf_steps: 80.0,
            mttr_steps: 30.0,
            ..Default::default()
        }),
        ..Default::default()
    };
    let (out, rec) = run_recorded(cfg);
    let t = tally(&rec);
    let c = |x| rec.counter(x);

    // The scenario actually exercises the queue on both causes.
    assert!(c(Counter::RetryEnqueued) > 0, "no retry pressure generated");
    assert!(
        t.initial_evacuation > 0,
        "no evacuation retries generated: {t:?}"
    );

    // Journal ↔ counters: every event class matches its counter exactly.
    assert_eq!(
        t.initial_overload + t.initial_evacuation,
        c(Counter::RetryEnqueued)
    );
    assert_eq!(t.reenqueues, c(Counter::RetryReenqueued));
    assert_eq!(t.abandons, c(Counter::RetryAbandoned));
    assert_eq!(t.cancels, c(Counter::RetryCancelled));
    assert_eq!(t.retried_landings, c(Counter::RetriedMigrations));
    assert_eq!(
        t.unplaced_evacuations,
        c(Counter::RetryEnqueued) - t.initial_overload
    );

    // Conservation: every initial enqueue terminates in exactly one of
    // landing, abandonment, cancellation, or end-of-run residue.
    assert_eq!(
        c(Counter::RetryEnqueued),
        c(Counter::RetryLandedOverload)
            + c(Counter::RetryLandedEvacuation)
            + c(Counter::RetryAbandoned)
            + c(Counter::RetryCancelled)
            + c(Counter::RetryResidualOverload)
            + c(Counter::RetryResidualEvacuation),
        "retry-queue conservation law broken: {t:?}"
    );

    // Counters ↔ the engine's own outcome accounting.
    assert_eq!(
        c(Counter::RetryLandedOverload) as usize,
        out.retried_migrations
    );
    assert_eq!(c(Counter::Migrations) as usize, out.total_migrations());
    assert_eq!(c(Counter::FailedMigrations) as usize, out.failed_migrations);
    assert_eq!(c(Counter::Crashes) as usize, out.recovery.crashes);
    assert_eq!(c(Counter::Recoveries) as usize, out.recovery.recoveries);
    assert_eq!(
        c(Counter::StrandedVmSteps) as usize,
        out.recovery.stranded_vm_steps
    );
    assert_eq!(
        c(Counter::EvacuationsDegraded) as usize,
        out.recovery.degraded_admissions
    );
    assert_eq!(
        c(Counter::ViolationSteps) as usize,
        out.total_violation_steps
    );
    assert_eq!(
        c(Counter::DegradedViolationSteps) as usize,
        out.recovery.degraded_violation_steps
    );

    // A failed trigger-time migration seeds an overload retry entry only
    // when the VM is not already queued, so the enqueues are bounded by
    // (not equal to) the failures.
    assert!(t.initial_overload <= c(Counter::FailedMigrations));
}

/// Journal-side lifecycle replay (the conservation law re-proven from
/// events alone, without trusting any counter): every retry entry's
/// history — open, back off, re-enqueue at the due step, then land,
/// abandon, cancel, or survive to the end of the run — must be fully
/// reconstructible from the journal, with the exponential-backoff law
/// `due = step + base·2^min(attempts, max_retries)` holding on every
/// enqueue and abandonment firing at exactly `max_retries` attempts —
/// the engine's constants, base 2 steps and 5 retries.
#[test]
fn journal_replays_the_full_retry_lifecycle_per_vm() {
    use std::collections::HashMap;

    let cfg = SimConfig {
        steps: 600,
        seed: 11,
        faults: Some(FaultConfig {
            mtbf_steps: 80.0,
            mttr_steps: 30.0,
            ..Default::default()
        }),
        ..Default::default()
    };
    let (_, rec) = run_recorded(cfg);
    let (base, max_retries) = (2u64, 5u32);

    struct OpenEntry {
        cause: RetryCause,
        attempts: u32,
        due: u64,
    }
    let mut open: HashMap<usize, OpenEntry> = HashMap::new();
    let (mut opens, mut abandons) = (0u64, 0u64);
    for e in rec.journal().iter() {
        match *e {
            Event::RetryEnqueued {
                step,
                vm,
                cause,
                attempts,
                due_step,
            } => {
                let exp = attempts.min(max_retries);
                assert_eq!(
                    due_step,
                    step + (base << exp),
                    "backoff law broken for vm {vm} at step {step}"
                );
                match open.remove(&vm) {
                    None => {
                        assert_eq!(attempts, 0, "re-enqueue of vm {vm} without an open entry");
                        opens += 1;
                    }
                    Some(prev) => {
                        assert_eq!(attempts, prev.attempts + 1, "vm {vm} skipped an attempt");
                        assert_eq!(cause, prev.cause, "vm {vm} switched cause mid-flight");
                        assert_eq!(step, prev.due, "vm {vm} re-enqueued off its due step");
                    }
                }
                open.insert(
                    vm,
                    OpenEntry {
                        cause,
                        attempts,
                        due: due_step,
                    },
                );
            }
            Event::RetryAbandoned { step, vm, attempts } => {
                let prev = open
                    .remove(&vm)
                    .unwrap_or_else(|| panic!("abandon of vm {vm} without an open entry"));
                assert_eq!(
                    prev.cause,
                    RetryCause::Overload,
                    "evacuations never abandon"
                );
                assert_eq!(attempts, prev.attempts + 1);
                assert_eq!(attempts, max_retries, "abandoned before exhausting retries");
                assert_eq!(step, prev.due, "abandoned off the due step");
                abandons += 1;
            }
            Event::RetryCancelled { step, vm } => {
                let prev = open
                    .remove(&vm)
                    .unwrap_or_else(|| panic!("cancel of vm {vm} without an open entry"));
                assert_eq!(prev.cause, RetryCause::Overload, "evacuations never cancel");
                // Due-time cancels fire at the due step; crash-time
                // cancels (the evacuation path taking over) fire early.
                assert!(step <= prev.due, "cancel after the due step");
            }
            Event::Migration {
                step,
                vm,
                retried: true,
                ..
            } => {
                let prev = open
                    .remove(&vm)
                    .unwrap_or_else(|| panic!("retried landing of vm {vm} without an entry"));
                assert_eq!(prev.cause, RetryCause::Overload);
                assert_eq!(step, prev.due, "retried landing off the due step");
            }
            // Closes an evacuation retry only when one is due now;
            // crash-step placements never have an open entry.
            Event::Evacuation {
                step,
                vm,
                to: Some(_),
                ..
            } if open
                .get(&vm)
                .is_some_and(|p| p.cause == RetryCause::Evacuation && p.due == step) =>
            {
                open.remove(&vm);
            }
            _ => {}
        }
    }

    // The fold's terminal states reconcile with the counters: entries
    // opened, abandoned, and left open at the end of the run.
    assert!(opens > 0, "scenario generated no retry traffic");
    assert_eq!(opens, rec.counter(Counter::RetryEnqueued));
    assert_eq!(abandons, rec.counter(Counter::RetryAbandoned));
    assert_eq!(
        open.len() as u64,
        rec.counter(Counter::RetryResidualOverload) + rec.counter(Counter::RetryResidualEvacuation),
        "journal-derived residue disagrees with the end-of-run flush"
    );
}

#[test]
fn fault_free_run_keeps_every_retry_counter_at_zero() {
    let cfg = SimConfig {
        steps: 400,
        seed: 5,
        ..Default::default()
    };
    let (out, rec) = run_recorded(cfg);
    for counter in [
        Counter::RetryLandedEvacuation,
        Counter::RetryResidualEvacuation,
        Counter::Crashes,
        Counter::Recoveries,
        Counter::StrandedVmSteps,
        Counter::DisplacedVms,
        Counter::EvacuationsPlaced,
        Counter::EvacuationsDegraded,
    ] {
        assert_eq!(rec.counter(counter), 0, "{counter:?}");
    }
    // Overload retries still occur (tight pool, migrations enabled) and
    // may re-enqueue or abandon; they must reconcile without the fault
    // machinery.
    let t = tally(&rec);
    assert_eq!(t.initial_evacuation, 0);
    assert_eq!(t.initial_overload, rec.counter(Counter::RetryEnqueued));
    assert_eq!(
        rec.counter(Counter::RetryEnqueued),
        rec.counter(Counter::RetryLandedOverload)
            + rec.counter(Counter::RetryAbandoned)
            + rec.counter(Counter::RetryCancelled)
            + rec.counter(Counter::RetryResidualOverload)
    );
    assert_eq!(
        rec.counter(Counter::RetryLandedOverload) as usize,
        out.retried_migrations
    );
}
