//! Churn scenarios: the online situation of §IV-E under runtime dynamics.
//!
//! The base simulator runs a fixed population. Real clouds churn: tenants
//! arrive and leave while spikes come and go and the migration controller
//! does its job. This scenario simulator combines all three processes —
//! a geometric arrival/lifetime model, the ON-OFF workload dynamics, and
//! threshold-triggered live migration — to study how each consolidation
//! scheme behaves under sustained churn (an extension beyond the paper's
//! static-population evaluation).
//!
//! The churn process is fixed: about one arrival per update period,
//! geometric lifetimes of mean 100 periods (so a steady population of
//! about 100 VMs), newcomers with `R_b` and `R_e` drawn uniformly from
//! `[2, 20)` and the paper's switch probabilities `(p_on, p_off) =
//! (0.01, 0.09)`.

use crate::config::{RngLayout, SimConfig, VictimPolicy, SIGMA_SECS};
use crate::engine::pick_victim;
use crate::events::MigrationEvent;
use crate::policy::{PmRuntime, RuntimePolicy};
use bursty_metrics::TimeSeries;
use bursty_placement::{PmLoad, PmOrder, CAP_EPS};
use bursty_workload::patterns::defaults::{P_OFF, P_ON};
use bursty_workload::{PmSpec, VmSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Expected VM arrivals per update period.
const ARRIVAL_RATE: f64 = 1.0;
/// Per-step departure probability of each live VM (geometric lifetimes
/// with mean `1 / DEPARTURE_PROB`).
const DEPARTURE_PROB: f64 = 0.01;
/// The range a newcomer's `R_b` and, independently, its `R_e` are drawn
/// from.
const DEMAND_RANGE: std::ops::Range<f64> = 2.0..20.0;

/// Outcome of a churn run.
#[derive(Debug, Clone)]
pub struct ChurnOutcome {
    /// Total arrivals admitted.
    pub admitted: usize,
    /// Arrivals rejected (no PM admitted the newcomer).
    pub rejected: usize,
    /// Departures processed.
    pub departed: usize,
    /// Live migrations performed.
    pub migrations: Vec<MigrationEvent>,
    /// PM-step violations observed.
    pub violation_steps: usize,
    /// PM-steps observed (denominator for the fleet-wide CVR).
    pub active_pm_steps: usize,
    /// PMs in use per step.
    pub pms_used_series: TimeSeries,
    /// VMs live per step.
    pub population_series: TimeSeries,
}

impl ChurnOutcome {
    /// Fleet-wide CVR: violating PM-steps over active PM-steps.
    pub fn fleet_cvr(&self) -> f64 {
        if self.active_pm_steps == 0 {
            0.0
        } else {
            self.violation_steps as f64 / self.active_pm_steps as f64
        }
    }
}

/// Runs the module's churn process on `pms` under `policy` (which
/// doubles as the admission rule for newcomers and migration targets),
/// starting from an empty cluster.
///
/// Of `sim` it honours `steps`, `seed`, and the engine's migration
/// controller: `migrations_enabled`, the trigger `rho` (plus the
/// engine's allowance) and `victim_policy`. A migration moves at once
/// and one that finds no target is not queued, so the engine's retry
/// queue and degraded margin play no part, nor does `threads`.
///
/// # Panics
/// On an invalid `sim`, and on `faults: Some(_)` or a `rng_layout`
/// other than [`RngLayout::Shared`], which a churn run does not model.
///
/// # Examples
/// ```
/// use bursty_placement::QueueStrategy;
/// use bursty_sim::{run_churn, QueuePolicy, SimConfig};
/// use bursty_workload::PmSpec;
///
/// let pms: Vec<PmSpec> = (0..100).map(|j| PmSpec::new(j, 90.0)).collect();
/// let policy = QueuePolicy::new(QueueStrategy::build(16, 0.01, 0.09, 0.01));
/// let sim = SimConfig { steps: 300, seed: 1, ..SimConfig::default() };
/// let out = run_churn(&pms, &policy, sim);
/// assert!(out.admitted > 0);
/// assert!(out.fleet_cvr() <= 0.02); // Eq.-17 admission keeps churn safe
/// ```
pub fn run_churn(pms: &[PmSpec], policy: &dyn RuntimePolicy, sim: SimConfig) -> ChurnOutcome {
    sim.validate()
        .unwrap_or_else(|e| panic!("invalid SimConfig: {e}"));
    assert!(
        sim.rng_layout == RngLayout::Shared,
        "churn chains draw from the shared stream: rng_layout must be Shared"
    );
    assert!(
        sim.faults.is_none(),
        "churn runs inject no faults: faults must be None"
    );
    let mut rng = StdRng::seed_from_u64(sim.seed);
    let m = pms.len();
    let order = PmOrder::of(pms);

    // Live population: spec, host PM, ON flag.
    let mut live: Vec<(VmSpec, usize, bool)> = Vec::new();
    let mut loads: Vec<PmLoad> = vec![PmLoad::empty(); m];
    let mut next_id = 0usize;

    let mut outcome = ChurnOutcome {
        admitted: 0,
        rejected: 0,
        departed: 0,
        migrations: Vec::new(),
        violation_steps: 0,
        active_pm_steps: 0,
        pms_used_series: TimeSeries::new(0.0, SIGMA_SECS),
        population_series: TimeSeries::new(0.0, SIGMA_SECS),
    };
    let mut vio = vec![0usize; m];
    let mut active = vec![0usize; m];

    let rebuild = |loads: &mut Vec<PmLoad>, live: &[(VmSpec, usize, bool)], j: usize| {
        loads[j] = PmLoad::rebuild(live.iter().filter(|&&(_, h, _)| h == j).map(|(v, _, _)| v));
    };

    for step in 0..sim.steps {
        // 1. Departures (geometric lifetimes).
        let mut touched: Vec<usize> = Vec::new();
        live.retain(|&(_, host, _)| {
            if rng.gen::<f64>() < DEPARTURE_PROB {
                touched.push(host);
                outcome.departed += 1;
                false
            } else {
                true
            }
        });
        for j in touched {
            rebuild(&mut loads, &live, j);
        }

        // 2. Arrivals (Poisson via per-step thinning into unit draws).
        let mut arrivals = 0usize;
        // Sample a Poisson(ARRIVAL_RATE) count by inversion (rate is small).
        let l = (-ARRIVAL_RATE).exp();
        let mut p = 1.0;
        loop {
            p *= rng.gen::<f64>();
            if p <= l {
                break;
            }
            arrivals += 1;
        }
        for _ in 0..arrivals {
            let vm = VmSpec::new(
                next_id,
                P_ON,
                P_OFF,
                rng.gen_range(DEMAND_RANGE),
                rng.gen_range(DEMAND_RANGE),
            );
            next_id += 1;
            // Newcomers start OFF and are admitted by the policy's rule
            // on spec-aggregates and observed demand, First Fit over the
            // pool's PM order.
            let observed: Vec<f64> = observed_demands(&live, &loads, m);
            let slot = order.pms().find(|&j| {
                let pm = PmRuntime {
                    load: loads[j],
                    observed: observed[j],
                };
                policy.admits(&vm, vm.r_b, &pm, pms[j].capacity)
            });
            match slot {
                Some(j) => {
                    loads[j].add(&vm);
                    live.push((vm, j, false));
                    outcome.admitted += 1;
                }
                None => outcome.rejected += 1,
            }
        }

        // 3. Workload evolution: the chains draw from the same stream as
        //    the churn control plane, in live order.
        for (vm, _, on) in live.iter_mut() {
            let state = if *on {
                bursty_markov::VmState::On
            } else {
                bursty_markov::VmState::Off
            };
            *on = vm.chain().step(state, &mut rng).is_on();
        }

        // 4. Violations + migration.
        let observed = observed_demands(&live, &loads, m);
        for j in 0..m {
            if loads[j].is_empty() {
                continue;
            }
            active[j] += 1;
            outcome.active_pm_steps += 1;
            if observed[j] > pms[j].capacity + CAP_EPS {
                vio[j] += 1;
                outcome.violation_steps += 1;
                if sim.migrations_enabled && sim.sheds_vm(vio[j], active[j]) {
                    migrate_one(
                        j,
                        sim.victim_policy,
                        &mut live,
                        &mut loads,
                        &observed,
                        pms,
                        &order,
                        policy,
                        step,
                        &mut outcome.migrations,
                    );
                }
            }
        }

        outcome
            .pms_used_series
            .push(loads.iter().filter(|l| !l.is_empty()).count() as f64);
        outcome.population_series.push(live.len() as f64);
    }
    outcome
}

fn observed_demands(live: &[(VmSpec, usize, bool)], loads: &[PmLoad], m: usize) -> Vec<f64> {
    let mut observed = vec![0.0; m];
    for &(vm, host, on) in live {
        observed[host] += vm.demand(on);
    }
    debug_assert_eq!(loads.len(), m);
    observed
}

#[allow(clippy::too_many_arguments)]
fn migrate_one(
    source: usize,
    victim_policy: VictimPolicy,
    live: &mut [(VmSpec, usize, bool)],
    loads: &mut [PmLoad],
    observed: &[f64],
    pms: &[PmSpec],
    order: &PmOrder,
    policy: &dyn RuntimePolicy,
    step: usize,
    migrations: &mut Vec<MigrationEvent>,
) {
    let candidates = (live.iter().enumerate())
        .filter(|&(_, &(_, host, _))| host == source)
        .map(|(i, (vm, _, on))| (i, vm, *on));
    let overload = observed[source] - pms[source].capacity;
    let Some(vi) = pick_victim(victim_policy, candidates, overload) else {
        return;
    };
    let (vm, _, on) = live[vi];
    let vm_demand = vm.demand(on);

    let admit = |j: usize| {
        let pm = PmRuntime {
            load: loads[j],
            observed: observed[j],
        };
        policy.admits(&vm, vm_demand, &pm, pms[j].capacity)
    };
    let target = (order.pms())
        .find(|&j| j != source && !loads[j].is_empty() && admit(j))
        .or_else(|| (order.pms()).find(|&j| j != source && loads[j].is_empty() && admit(j)));
    if let Some(t) = target {
        live[vi].1 = t;
        loads[t].add(&vm);
        loads[source] = PmLoad::rebuild(
            live.iter()
                .filter(|&&(_, h, _)| h == source)
                .map(|(v, _, _)| v),
        );
        migrations.push(MigrationEvent {
            step,
            vm_id: vm.id,
            from_pm: source,
            to_pm: t,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{ObservedPolicy, QueuePolicy};
    use bursty_placement::QueueStrategy;

    fn pms(m: usize, cap: f64) -> Vec<PmSpec> {
        (0..m).map(|j| PmSpec::new(j, cap)).collect()
    }

    fn sim(steps: usize, seed: u64) -> SimConfig {
        SimConfig {
            steps,
            seed,
            ..Default::default()
        }
    }

    fn queue_policy() -> QueuePolicy {
        QueuePolicy::new(QueueStrategy::build(16, 0.01, 0.09, 0.01))
    }

    #[test]
    fn population_reaches_balance() {
        // λ = 1 arrival/step, mean lifetime 100 steps → ~100 live VMs.
        let policy = queue_policy();
        let out = run_churn(&pms(300, 90.0), &policy, sim(2_000, 1));
        let tail: f64 = out.population_series.values[1_500..].iter().sum::<f64>() / 500.0;
        assert!((tail - 100.0).abs() < 25.0, "steady population {tail}");
        assert_eq!(out.population_series.len(), 2_000);
    }

    #[test]
    fn queue_policy_keeps_fleet_cvr_bounded_under_churn() {
        let policy = queue_policy();
        let out = run_churn(&pms(300, 90.0), &policy, sim(3_000, 2));
        assert!(out.fleet_cvr() <= 0.012, "fleet CVR {}", out.fleet_cvr());
        assert!(
            out.rejected * 19 < out.admitted,
            "admitted {} rejected {}",
            out.admitted,
            out.rejected
        );
        assert!(out.migrations.len() < out.admitted / 10);
    }

    #[test]
    fn rb_policy_violates_and_migrates_under_churn() {
        let policy = ObservedPolicy::rb();
        let out = run_churn(&pms(300, 90.0), &policy, sim(3_000, 2));
        assert!(out.fleet_cvr() > 0.02, "RB fleet CVR {}", out.fleet_cvr());
        assert!(!out.migrations.is_empty());
    }

    #[test]
    fn tiny_pool_rejects_overflow_arrivals() {
        // The steady population is ~100 VMs; one PM holds a handful.
        let out = run_churn(&pms(1, 90.0), &queue_policy(), sim(500, 4));
        assert!(out.rejected > 0, "a 1-PM pool must reject under λ=1 churn");
    }

    #[test]
    fn compliant_queue_pms_are_not_evicted_on_startup_noise() {
        // A PM sheds a VM only once its violations pass ρ·t plus the
        // allowance, so a run whose whole fleet violates no more than the
        // allowance never migrates. The raw ratio `violations / active > ρ`
        // fired on a PM's first violation in its first 1/ρ steps: seeds 1,
        // 2 and 6 below saw at most 4 violations and migrated all the same.
        let policy = queue_policy();
        let config = sim(500, 0);
        let mut quiet = 0;
        for seed in 1..=7 {
            let out = run_churn(&pms(100, 90.0), &policy, SimConfig { seed, ..config });
            assert!(out.violation_steps > 0, "seed {seed}");
            if out.violation_steps as f64 <= crate::config::VIOLATION_ALLOWANCE {
                quiet += 1;
                assert!(
                    out.migrations.is_empty(),
                    "seed {seed}: {:?}",
                    out.migrations
                );
            }
        }
        assert!(quiet >= 3, "only {quiet} runs stayed within the allowance");
    }

    #[test]
    fn victim_policy_picks_the_migrating_vms() {
        let policy = ObservedPolicy::rb();
        let moved = |victim_policy| {
            let cfg = SimConfig {
                victim_policy,
                ..sim(500, 3)
            };
            let out = run_churn(&pms(100, 90.0), &policy, cfg);
            assert!(!out.migrations.is_empty());
            out.migrations.iter().map(|e| e.vm_id).collect::<Vec<_>>()
        };
        assert_ne!(
            moved(VictimPolicy::SmallestBase),
            moved(VictimPolicy::default())
        );
    }

    #[test]
    #[should_panic(expected = "faults must be None")]
    fn faults_are_rejected() {
        let cfg = SimConfig {
            faults: Some(crate::faults::FaultConfig::default()),
            ..sim(10, 1)
        };
        run_churn(&pms(4, 90.0), &queue_policy(), cfg);
    }

    #[test]
    #[should_panic(expected = "rng_layout must be Shared")]
    fn class_layout_is_rejected() {
        let cfg = SimConfig {
            rng_layout: RngLayout::ClassAggregated,
            ..sim(10, 1)
        };
        run_churn(&pms(4, 90.0), &queue_policy(), cfg);
    }

    #[test]
    fn deterministic_in_seed() {
        let policy = queue_policy();
        let run = |seed| {
            let out = run_churn(&pms(100, 90.0), &policy, sim(500, seed));
            (
                out.admitted,
                out.departed,
                out.migrations.len(),
                out.violation_steps,
            )
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }
}
