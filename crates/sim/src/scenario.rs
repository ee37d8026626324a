//! Churn scenarios: the online situation of §IV-E under runtime dynamics.
//!
//! The base simulator runs a fixed population. Real clouds churn: tenants
//! arrive and leave while spikes come and go and the migration controller
//! does its job. This scenario simulator combines all three processes —
//! a geometric arrival/lifetime model, the ON-OFF workload dynamics, and
//! threshold-triggered live migration — to study how each consolidation
//! scheme behaves under sustained churn (an extension beyond the paper's
//! static-population evaluation).

use crate::config::{RngLayout, SimConfig};
use crate::events::MigrationEvent;
use crate::policy::{PmRuntime, RuntimePolicy};
use bursty_metrics::TimeSeries;
use bursty_placement::PmLoad;
use bursty_workload::{PmSpec, VmSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Churn parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnConfig {
    /// Expected VM arrivals per update period.
    pub arrival_rate: f64,
    /// Per-step departure probability of each live VM (geometric
    /// lifetimes with mean `1 / departure_prob`).
    pub departure_prob: f64,
    /// Sampling ranges for newcomers' demands.
    pub r_b_range: std::ops::Range<f64>,
    /// Spike-size range for newcomers.
    pub r_e_range: std::ops::Range<f64>,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        Self {
            arrival_rate: 1.0,
            departure_prob: 0.01,
            r_b_range: 2.0..20.0,
            r_e_range: 2.0..20.0,
        }
    }
}

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

/// Runs a churn scenario on `pms` under `policy` (which doubles as the
/// admission rule for newcomers and migration targets).
///
/// Switch probabilities for newcomers are `(p_on, p_off)`; the run starts
/// from an empty cluster.
///
/// # Examples
/// ```
/// use bursty_placement::QueueStrategy;
/// use bursty_sim::{run_churn, ChurnConfig, QueuePolicy, SimConfig};
/// use bursty_workload::PmSpec;
///
/// let pms: Vec<PmSpec> = (0..100).map(|j| PmSpec::new(j, 90.0)).collect();
/// let policy = QueuePolicy::new(QueueStrategy::build(16, 0.01, 0.09, 0.01));
/// let sim = SimConfig { steps: 300, seed: 1, ..SimConfig::default() };
/// let out = run_churn(&pms, &policy, sim, ChurnConfig::default(), 0.01, 0.09);
/// assert!(out.admitted > 0);
/// assert!(out.fleet_cvr() <= 0.02); // Eq.-17 admission keeps churn safe
/// ```
pub fn run_churn(
    pms: &[PmSpec],
    policy: &dyn RuntimePolicy,
    sim: SimConfig,
    churn: ChurnConfig,
    p_on: f64,
    p_off: f64,
) -> ChurnOutcome {
    sim.validate()
        .unwrap_or_else(|e| panic!("invalid SimConfig: {e}"));
    assert!(
        churn.arrival_rate >= 0.0,
        "arrival rate must be nonnegative"
    );
    assert!(
        (0.0..=1.0).contains(&churn.departure_prob),
        "departure probability must be in [0,1]"
    );
    let mut rng = StdRng::seed_from_u64(sim.seed);
    let m = pms.len();

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
        pms_used_series: TimeSeries::new(0.0, sim.sigma_secs),
        population_series: TimeSeries::new(0.0, sim.sigma_secs),
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
            if rng.gen::<f64>() < churn.departure_prob {
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
        // Sample a Poisson(arrival_rate) count by inversion (rate is small).
        let l = (-churn.arrival_rate).exp();
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
                p_on,
                p_off,
                rng.gen_range(churn.r_b_range.clone()),
                rng.gen_range(churn.r_e_range.clone()),
            );
            next_id += 1;
            // Newcomers start OFF and are admitted by the policy's rule
            // on spec-aggregates and observed demand.
            let observed: Vec<f64> = observed_demands(&live, &loads, m);
            let slot = (0..m).find(|&j| {
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

        // 3. Workload evolution. Under the shared layout the chains draw
        //    from the same sequential stream as the churn control plane
        //    (the historical behaviour, unchanged bit for bit). Under
        //    the class layout the chains draw from counter-based cell
        //    streams; arrival, departure, and demand-sampling draws
        //    always stay on the shared stream.
        match sim.rng_layout {
            RngLayout::Shared => {
                for (vm, _, on) in live.iter_mut() {
                    let state = if *on {
                        bursty_markov::VmState::On
                    } else {
                        bursty_markov::VmState::Off
                    };
                    *on = vm.chain().step(state, &mut rng).is_on();
                }
            }
            RngLayout::ClassAggregated => {
                // Group the live population into (host, class) cells and
                // evolve each with one pair of binomial draws — the same
                // aggregation the engine's class layout uses, applied to
                // a churning population. Cell streams are keyed by
                // (seed, host, class contents, step), so arrivals and
                // departures never shift another cell's draws; the new
                // ON count disaggregates back to member flags with the
                // canonical lowest-id-first rule. Continuous-sampled
                // newcomers form singleton cells (Binomial(1, p) is just
                // Bernoulli), so the arm stays exact for any class mix.
                use crate::rng::{class_cell_key, class_hash, keyed_binomial};
                use bursty_workload::VmClass;
                let mut cells: Vec<(usize, [u64; 4], usize, usize)> = live
                    .iter()
                    .enumerate()
                    .map(|(v, (vm, host, _))| (*host, VmClass::of(vm).key(), vm.id, v))
                    .collect();
                cells.sort_unstable();
                let mut at = 0;
                while at < cells.len() {
                    let (host0, key0, _, v0) = cells[at];
                    let mut end = at + 1;
                    while end < cells.len() && cells[end].0 == host0 && cells[end].1 == key0 {
                        end += 1;
                    }
                    let group = &cells[at..end];
                    let n_on = group.iter().filter(|&&(_, _, _, v)| live[v].2).count() as u32;
                    let n_off = group.len() as u32 - n_on;
                    let (cls_p_on, cls_p_off) = (live[v0].0.p_on, live[v0].0.p_off);
                    let key = class_cell_key(sim.seed, host0 as u64, class_hash(key0));
                    let out = keyed_binomial(key, 2 * step as u64, n_on, cls_p_off);
                    let inn = keyed_binomial(key, 2 * step as u64 + 1, n_off, cls_p_on);
                    let new_on = (n_on - out + inn) as usize;
                    for (g, &(_, _, _, v)) in group.iter().enumerate() {
                        live[v].2 = g < new_on;
                    }
                    at = end;
                }
            }
        }

        // 4. Violations + migration.
        let observed = observed_demands(&live, &loads, m);
        for j in 0..m {
            if loads[j].is_empty() {
                continue;
            }
            active[j] += 1;
            outcome.active_pm_steps += 1;
            if observed[j] > pms[j].capacity + 1e-9 {
                vio[j] += 1;
                outcome.violation_steps += 1;
                if sim.migrations_enabled && vio[j] as f64 / active[j] as f64 > sim.rho {
                    migrate_one(
                        j,
                        &mut live,
                        &mut loads,
                        &observed,
                        pms,
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
    live: &mut [(VmSpec, usize, bool)],
    loads: &mut [PmLoad],
    observed: &[f64],
    pms: &[PmSpec],
    policy: &dyn RuntimePolicy,
    step: usize,
    migrations: &mut Vec<MigrationEvent>,
) {
    // Victim: largest-demand ON VM on the source.
    let victim = live
        .iter()
        .enumerate()
        .filter(|(_, &(_, h, _))| h == source)
        .max_by(|(_, a), (_, b)| {
            let key = |e: &(VmSpec, usize, bool)| (e.2 as u8, e.0.demand(e.2));
            let (ka, kb) = (key(a), key(b));
            ka.0.cmp(&kb.0).then(ka.1.total_cmp(&kb.1))
        })
        .map(|(i, _)| i);
    let Some(vi) = victim else { return };
    let (vm, _, on) = live[vi];
    let vm_demand = vm.demand(on);

    let admit = |j: usize| {
        let pm = PmRuntime {
            load: loads[j],
            observed: observed[j],
        };
        policy.admits(&vm, vm_demand, &pm, pms[j].capacity)
    };
    let target = (0..pms.len())
        .find(|&j| j != source && !loads[j].is_empty() && admit(j))
        .or_else(|| (0..pms.len()).find(|&j| j != source && loads[j].is_empty() && admit(j)));
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
        let out = run_churn(
            &pms(300, 90.0),
            &policy,
            sim(2_000, 1),
            ChurnConfig::default(),
            0.01,
            0.09,
        );
        let tail: f64 = out.population_series.values[1_500..].iter().sum::<f64>() / 500.0;
        assert!((tail - 100.0).abs() < 25.0, "steady population {tail}");
        assert_eq!(out.population_series.len(), 2_000);
    }

    #[test]
    fn queue_policy_keeps_fleet_cvr_bounded_under_churn() {
        let policy = queue_policy();
        let out = run_churn(
            &pms(300, 90.0),
            &policy,
            sim(3_000, 2),
            ChurnConfig::default(),
            0.01,
            0.09,
        );
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
        let out = run_churn(
            &pms(300, 90.0),
            &policy,
            sim(3_000, 2),
            ChurnConfig::default(),
            0.01,
            0.09,
        );
        assert!(out.fleet_cvr() > 0.02, "RB fleet CVR {}", out.fleet_cvr());
        assert!(!out.migrations.is_empty());
    }

    #[test]
    fn zero_arrival_rate_is_an_empty_run() {
        let policy = queue_policy();
        let churn = ChurnConfig {
            arrival_rate: 0.0,
            ..Default::default()
        };
        let out = run_churn(&pms(10, 90.0), &policy, sim(200, 3), churn, 0.01, 0.09);
        assert_eq!(out.admitted, 0);
        assert_eq!(out.departed, 0);
        assert_eq!(out.fleet_cvr(), 0.0);
        assert_eq!(out.rejected, 0);
        assert!(out.pms_used_series.values.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn tiny_pool_rejects_overflow_arrivals() {
        let policy = queue_policy();
        let churn = ChurnConfig {
            arrival_rate: 2.0,
            departure_prob: 0.001,
            ..Default::default()
        };
        let out = run_churn(&pms(2, 90.0), &policy, sim(500, 4), churn, 0.01, 0.09);
        assert!(out.rejected > 0, "a 2-PM pool must reject under λ=2 churn");
    }

    #[test]
    fn class_layout_under_churn_is_deterministic_and_distinct() {
        let policy = queue_policy();
        let run = |layout: RngLayout, seed: u64| {
            let cfg = SimConfig {
                rng_layout: layout,
                ..sim(800, seed)
            };
            let out = run_churn(
                &pms(100, 90.0),
                &policy,
                cfg,
                ChurnConfig::default(),
                0.01,
                0.09,
            );
            (
                out.admitted,
                out.departed,
                out.migrations.len(),
                out.violation_steps,
            )
        };
        // Reproducible per seed, and a different sample path than the
        // shared layout under the same seed (binomial cell draws, not
        // one coin per VM).
        assert_eq!(
            run(RngLayout::ClassAggregated, 5),
            run(RngLayout::ClassAggregated, 5)
        );
        assert_ne!(
            run(RngLayout::ClassAggregated, 5),
            run(RngLayout::Shared, 5)
        );
    }

    #[test]
    fn deterministic_in_seed() {
        let policy = queue_policy();
        let run = |seed| {
            let out = run_churn(
                &pms(100, 90.0),
                &policy,
                sim(500, seed),
                ChurnConfig::default(),
                0.01,
                0.09,
            );
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
