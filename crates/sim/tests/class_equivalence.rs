//! Distributional-equivalence harness for [`RngLayout::ClassAggregated`]
//! (PR 6 tentpole): the class-aggregated layout replaces per-VM coin
//! flips with two binomial draws per (PM, class) cell, so it can never be
//! bit-identical to the `Shared` layout, its oracle (one coin per VM off
//! the golden-pinned serial stream) — the contract is *distributional*
//! (DESIGN.md §8). This harness pins each clause of that contract:
//!
//! 1. per-PM ON-count marginals follow the superposed chain's stationary
//!    law `Binomial(k, p_on/(p_on+p_off))` — a chi-square goodness-of-fit
//!    over the cell chain itself;
//! 2. the empirical CVR of exactly-tight PMs stays statistically
//!    consistent with the analytic `certified_cvr` (Wilson interval at
//!    the AR(1)-discounted effective sample size) — the same
//!    certification the `Shared` oracle passes, run against both
//!    layouts side by side;
//! 3. integrated energy agrees with the oracle to within the long-run
//!    averaging noise;
//! 4. outcomes are `to_bits`-identical across thread counts (the layout
//!    is deterministic even though it is only distributionally faithful).

use bursty_obs::certify_cvr;
use bursty_placement::{first_fit, MappingTable, QueueStrategy};
use bursty_sim::rng::{class_cell_key, class_hash, keyed_binomial};
use bursty_sim::{FaultConfig, QueuePolicy, RngLayout, SimConfig, SimOutcome, Simulator};
use bursty_workload::{PmSpec, VmSpec};

const K: usize = 16;
const PMS: usize = 3;
const STEPS: usize = 40_000;
const P_ON: f64 = 0.01;
const P_OFF: f64 = 0.09;
const RHO: f64 = 0.05;
const CONF: f64 = 0.99;

/// Exactly-tight single-class fleet: every PM hosts `K` identical VMs on
/// a capacity admitting `r = mapping(K)` concurrent spikes with zero
/// slack, so a violation step is precisely "more than `r` VMs ON" — the
/// event `certified_cvr` computes. Identical VMs also mean the whole
/// fleet is ONE class: the layout under test collapses each PM to a
/// single binomial counter.
fn tight_fleet() -> (Vec<VmSpec>, Vec<PmSpec>, QueueStrategy, f64) {
    let mapping = MappingTable::build(K, P_ON, P_OFF, RHO);
    let r = mapping.blocks_for(K);
    let analytic = mapping.certified_cvr(K);
    assert!(analytic <= RHO + 1e-12, "MapCal bound broken analytically");
    let capacity = (K as f64) * 10.0 + (r as f64) * 10.0;
    let vms: Vec<VmSpec> = (0..K * PMS)
        .map(|i| VmSpec::new(i, P_ON, P_OFF, 10.0, 10.0))
        .collect();
    let pms: Vec<PmSpec> = (0..PMS).map(|j| PmSpec::new(j, capacity)).collect();
    let strategy = QueueStrategy::build(K, P_ON, P_OFF, RHO);
    (vms, pms, strategy, analytic)
}

fn run_layout(layout: RngLayout, threads: usize, seed: u64) -> SimOutcome {
    let (vms, pms, strategy, _) = tight_fleet();
    let placement = first_fit(&vms, &pms, &strategy).unwrap();
    let policy = QueuePolicy::new(strategy);
    let cfg = SimConfig {
        steps: STEPS,
        seed,
        migrations_enabled: false,
        rng_layout: layout,
        threads,
        ..Default::default()
    };
    Simulator::new(&vms, &pms, &policy, cfg).run(&placement)
}

/// Certifies every PM's empirical CVR against the analytic bound, the
/// same check `cvr_certification.rs` applies to the other layouts.
fn certify_outcome(outcome: &SimOutcome, analytic: f64, label: &str) {
    let lag1 = (1.0 - P_ON - P_OFF).clamp(0.0, 0.999);
    assert_eq!(outcome.cvr_per_pm.len(), PMS, "{label}: all PMs active");
    for &(pm, cvr) in &outcome.cvr_per_pm {
        let violations = (cvr * STEPS as f64).round() as u64;
        let check = certify_cvr(pm, violations, STEPS as u64, analytic, CONF, lag1);
        assert!(check.consistent(), "{label}: {}", check.describe());
    }
}

#[test]
fn class_layout_certifies_the_analytic_cvr() {
    let (.., analytic) = tight_fleet();
    let outcome = run_layout(RngLayout::ClassAggregated, 1, 2013);
    certify_outcome(&outcome, analytic, "class-aggregated");
}

#[test]
fn class_layout_matches_the_shared_oracle_distributionally() {
    // Same fleet, same seed, both layouts: each must certify against the
    // same analytic CVR, and long-run energy must agree to within the
    // averaging noise of a 40k-step run (the draws themselves differ —
    // the layouts share no sample paths).
    let (.., analytic) = tight_fleet();
    let oracle = run_layout(RngLayout::Shared, 1, 2013);
    let class = run_layout(RngLayout::ClassAggregated, 1, 2013);
    certify_outcome(&oracle, analytic, "shared oracle");
    certify_outcome(&class, analytic, "class-aggregated");
    let rel = (class.energy_joules - oracle.energy_joules).abs() / oracle.energy_joules;
    assert!(
        rel < 0.02,
        "energy drift {rel:.4} (class {} vs oracle {})",
        class.energy_joules,
        oracle.energy_joules
    );
    assert_eq!(class.final_pms_used, oracle.final_pms_used);
}

#[test]
fn class_layout_on_count_marginal_passes_chi_square() {
    // Drive one (PM, class) cell chain directly — k chains superposed,
    // `n_on' = n_on − B(n_on, p_off) + B(n_off, p_on)` — and test its
    // stationary marginal against Binomial(k, π) with a chi-square
    // goodness-of-fit. Samples are taken every 10 steps so the AR(1)
    // correlation (lag-1 = 1 − p_on − p_off = 0.5 here) has decayed to
    // ~1e-3 and the counts are effectively independent.
    let (k, p_on, p_off) = (16u32, 0.3, 0.2);
    let pi = p_on / (p_on + p_off);
    let key = class_cell_key(7, 0, class_hash([1, 2, 3, 4]));
    let mut n_on = 0u32;
    let mut counts = vec![0u64; k as usize + 1];
    let (burn_in, thin, samples) = (500u64, 10u64, 4000u64);
    for step in 0..burn_in + thin * samples {
        let out = keyed_binomial(key, 2 * step, n_on, p_off);
        let inn = keyed_binomial(key, 2 * step + 1, k - n_on, p_on);
        n_on = n_on - out + inn;
        if step >= burn_in && (step - burn_in) % thin == thin - 1 {
            counts[n_on as usize] += 1;
        }
    }
    assert_eq!(counts.iter().sum::<u64>(), samples);

    // Binomial(k, π) pmf by the standard recurrence.
    let q = 1.0 - pi;
    let mut pmf = vec![q.powi(k as i32)];
    for j in 0..k {
        let last = *pmf.last().unwrap();
        pmf.push(last * (k - j) as f64 / (j + 1) as f64 * pi / q);
    }

    // Pool bins until every pooled cell expects ≥ 5 counts, then sum
    // (observed − expected)² / expected.
    let mut chi2 = 0.0;
    let mut df = 0usize;
    let (mut obs_pool, mut exp_pool) = (0.0f64, 0.0f64);
    for j in 0..=k as usize {
        obs_pool += counts[j] as f64;
        exp_pool += pmf[j] * samples as f64;
        if exp_pool >= 5.0 && j < k as usize {
            chi2 += (obs_pool - exp_pool).powi(2) / exp_pool;
            df += 1;
            obs_pool = 0.0;
            exp_pool = 0.0;
        }
    }
    if exp_pool > 0.0 {
        chi2 += (obs_pool - exp_pool).powi(2) / exp_pool;
        df += 1;
    }
    df -= 1;
    // 99.9% critical values for the df this pooling yields sit below 35;
    // a wrong marginal (e.g. the saturated-sampler bug class) lands in
    // the hundreds. The run is seeded, so this is a frozen regression
    // check, not a flaky statistical one.
    assert!(
        df >= 5,
        "pooling collapsed too far (df = {df}) — test lost its power"
    );
    assert!(chi2 < 35.0, "chi-square {chi2:.1} at {df} df");
}

#[test]
fn class_layout_outcome_is_thread_count_invariant() {
    // End-to-end determinism with churn in the counters: faults crash
    // PMs (cells merge into limbo), evacuations move VMs back out, and
    // migrations shuttle victims — all while worker threads split the
    // PM range. Outcomes must be identical at every thread count.
    // 1100 PMs spans three CLASS_PM_CHUNK chunks, so two workers really
    // do run concurrently.
    let m = 1100usize;
    let per_pm = 8usize;
    let vms: Vec<VmSpec> = (0..m * per_pm)
        .map(|i| match i % 3 {
            0 => VmSpec::new(i, 0.02, 0.08, 8.0, 12.0),
            1 => VmSpec::new(i, 0.05, 0.05, 4.0, 20.0),
            _ => VmSpec::new(i, 0.10, 0.02, 2.0, 6.0),
        })
        .collect();
    let pms: Vec<PmSpec> = (0..m).map(|j| PmSpec::new(j, 200.0)).collect();
    let strategy = QueueStrategy::build(per_pm, 0.05, 0.05, RHO);
    let placement = first_fit(&vms, &pms, &strategy).unwrap();
    let policy = QueuePolicy::new(strategy);
    let run = |threads: usize| {
        let cfg = SimConfig {
            steps: 1200,
            seed: 77,
            rng_layout: RngLayout::ClassAggregated,
            threads,
            faults: Some(FaultConfig {
                mtbf_steps: 200_000.0,
                ..Default::default()
            }),
            ..Default::default()
        };
        Simulator::new(&vms, &pms, &policy, cfg).run(&placement)
    };
    let base = run(1);
    assert!(
        !base.fault_events.is_empty(),
        "faults must fire for the invariance check to exercise crashes"
    );
    for threads in [2usize, 8] {
        let other = run(threads);
        assert_eq!(
            base.energy_joules.to_bits(),
            other.energy_joules.to_bits(),
            "energy diverged at {threads} threads"
        );
        assert_eq!(base.cvr_per_pm, other.cvr_per_pm);
        assert_eq!(base.total_violation_steps, other.total_violation_steps);
        assert_eq!(base.migrations.len(), other.migrations.len());
        assert_eq!(base.fault_events, other.fault_events);
        assert_eq!(base.final_pms_used, other.final_pms_used);
    }
}
