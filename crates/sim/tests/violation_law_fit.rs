//! Fleet-level goodness of fit of the violation count: over every PM of
//! a migration-free Table-I run, the histogram of `V_T` (a PM's
//! violation steps in `T`) must match the mixture, PM by PM, of the
//! exact finite-horizon laws of its configuration
//! (`bursty_markov::ViolationLaw`, started all OFF as the simulator
//! starts). A kernel that drew the Eq. 12 chain with the wrong
//! transition law, or the wrong law of time between changes, shifts
//! this histogram even where each step's marginal looks right.
//!
//! Three samplers of the same chains are held to it: the engine under
//! `ClassAggregated` (the next-event cell kernel; its walk oracle draws
//! the same bits, `workload_core`'s `next_event_kernel_matches_the_walk`
//! tests), the engine under `Shared` (one coin per VM per step), and the
//! per-step binomial pair `B(n_on, p_off)`, `B(n_off, p_on)` per cell
//! driven here from the public stream functions — the kernel the
//! class layout ran before the next-event one.

use bursty_markov::{ClassChain, InitialLaw, ViolationLaw};
use bursty_metrics::{chi_square_gof, ChiSquare};
use bursty_placement::{first_fit, QueueStrategy, CAP_EPS};
use bursty_sim::rng::{class_cell_key, class_hash, keyed_binomial};
use bursty_sim::{QueuePolicy, RngLayout, SimConfig, Simulator};
use bursty_workload::{FleetGenerator, PmSpec, VmClass, VmSpec, WorkloadPattern};
use std::collections::BTreeMap;

const STEPS: usize = 200;
/// Violation counts at or above this share the histogram's last bin.
const TOP: usize = 24;

/// A PM's classes (canonical order: by key bits) with their counts.
type Classes = Vec<([u64; 4], u32)>;

/// One used PM: its classes and its capacity.
struct PmConfig {
    classes: Classes,
    capacity: f64,
}

/// The load of a PM at per-class ON counts `x`, folded as the class
/// kernel folds a PM's cells (canonical class order, from 0.0; a VM
/// demands `r_b` OFF and `r_b + r_e` ON).
fn load(classes: &[([u64; 4], u32)], x: &[usize]) -> f64 {
    classes.iter().zip(x).fold(0.0, |sum, ((key, count), &on)| {
        let (r_b, r_e) = (f64::from_bits(key[2]), f64::from_bits(key[3]));
        sum + (on as f64 * (r_b + r_e) + f64::from(*count - on as u32) * r_b)
    })
}

/// A Table-I fleet at paper density, packed by QUEUE: the fleet, the
/// pool, the strategy and each used PM's configuration.
fn fixture() -> (
    Vec<VmSpec>,
    Vec<PmSpec>,
    QueueStrategy,
    bursty_placement::Placement,
) {
    let n = 12_000;
    let mut gen = FleetGenerator::new(3);
    let vms = gen.vms_table_i(n, WorkloadPattern::EqualSpike);
    let pms = gen.pms(n / 4);
    let strategy = QueueStrategy::build(16, 0.01, 0.09, 0.01);
    let placement = first_fit(&vms, &pms, &strategy).unwrap();
    (vms, pms, strategy, placement)
}

/// The used PMs of `placement`, in PM index order.
fn configs(vms: &[VmSpec], pms: &[PmSpec], host: &[Option<usize>]) -> BTreeMap<usize, PmConfig> {
    let mut by_pm: BTreeMap<usize, BTreeMap<[u64; 4], u32>> = BTreeMap::new();
    for (vm, &j) in vms.iter().zip(host) {
        *by_pm
            .entry(j.expect("a complete placement"))
            .or_default()
            .entry(VmClass::of(vm).key())
            .or_default() += 1;
    }
    by_pm
        .into_iter()
        .map(|(j, classes)| {
            let config = PmConfig {
                classes: classes.into_iter().collect(),
                capacity: pms[j].capacity,
            };
            (j, config)
        })
        .collect()
}

/// The mixture over `configs` of each PM's law of `min(V_T, TOP)`,
/// one law per distinct (counts, violating states).
fn mixture(configs: &BTreeMap<usize, PmConfig>) -> Vec<f64> {
    let mut groups: BTreeMap<(Classes, Vec<bool>), usize> = BTreeMap::new();
    for config in configs.values() {
        let dims: Vec<usize> = config
            .classes
            .iter()
            .map(|&(_, n)| n as usize + 1)
            .collect();
        let states: usize = dims.iter().product();
        let violating = (0..states)
            .map(|mut s| {
                let x: Vec<usize> = dims
                    .iter()
                    .map(|&d| {
                        let xc = s % d;
                        s /= d;
                        xc
                    })
                    .collect();
                load(&config.classes, &x) > config.capacity + CAP_EPS
            })
            .collect();
        *groups
            .entry((config.classes.clone(), violating))
            .or_default() += 1;
    }
    let mut mix = [0.0; TOP + 1];
    for ((classes, violating), pms) in &groups {
        let chains: Vec<ClassChain> = classes
            .iter()
            .map(|&(key, n)| ClassChain {
                count: n as usize,
                p_on: f64::from_bits(key[0]),
                p_off: f64::from_bits(key[1]),
            })
            .collect();
        let dims: Vec<usize> = classes.iter().map(|&(_, n)| n as usize + 1).collect();
        let law = ViolationLaw::new(&chains, |x| {
            let flat = x
                .iter()
                .zip(&dims)
                .rev()
                .fold(0, |acc, (&xc, &d)| acc * d + xc);
            violating[flat]
        })
        .distribution(InitialLaw::AllOff, STEPS, TOP)
        .expect("a Table-I PM's law fits the cap");
        for (m, p) in mix.iter_mut().zip(law) {
            *m += p * *pms as f64;
        }
    }
    let total = configs.len() as f64;
    mix.iter().map(|m| m / total).collect()
}

/// `min(V_T, TOP)` histogram of per-PM violation counts.
fn histogram(counts: impl Iterator<Item = usize>) -> Vec<u64> {
    let mut hist = vec![0u64; TOP + 1];
    for v in counts {
        hist[v.min(TOP)] += 1;
    }
    hist
}

/// The per-step binomial pair per (PM, class) cell, from the public
/// stream functions: each PM's violation steps.
fn per_step_pair(configs: &BTreeMap<usize, PmConfig>, seed: u64) -> Vec<usize> {
    configs
        .iter()
        .map(|(&j, config)| {
            let keys: Vec<u64> = config
                .classes
                .iter()
                .map(|(key, _)| class_cell_key(seed, j as u64, class_hash(*key)))
                .collect();
            let mut on = vec![0usize; config.classes.len()];
            let mut violations = 0;
            for step in 0..STEPS as u64 {
                for ((x, &key), &(class, count)) in on.iter_mut().zip(&keys).zip(&config.classes) {
                    let (p_on, p_off) = (f64::from_bits(class[0]), f64::from_bits(class[1]));
                    let out = keyed_binomial(key, 2 * step, *x as u32, p_off);
                    let inn = keyed_binomial(key, 2 * step + 1, count - *x as u32, p_on);
                    *x = *x - out as usize + inn as usize;
                }
                violations += usize::from(load(&config.classes, &on) > config.capacity + CAP_EPS);
            }
            violations
        })
        .collect()
}

#[test]
fn violation_counts_match_the_exact_law_mixture_over_the_fleet() {
    let (vms, pms, strategy, placement) = fixture();
    let configs = configs(&vms, &pms, &placement.assignment);
    let expected = mixture(&configs);
    eprintln!("{} PMs, expected law {expected:.4?}", configs.len());

    let policy = QueuePolicy::new(strategy);
    let mut fits: Vec<(&str, ChiSquare)> = Vec::new();
    for (label, layout) in [
        ("next-event kernel", RngLayout::ClassAggregated),
        ("shared", RngLayout::Shared),
    ] {
        let cfg = SimConfig {
            steps: STEPS,
            seed: 1,
            migrations_enabled: false,
            rng_layout: layout,
            threads: 1,
            ..Default::default()
        };
        let out = Simulator::new(&vms, &pms, &policy, cfg).run(&placement);
        assert_eq!(out.cvr_per_pm.len(), configs.len(), "{label}");
        let hist = histogram(
            out.cvr_per_pm
                .iter()
                .map(|&(_, cvr)| (cvr * STEPS as f64).round() as usize),
        );
        fits.push((label, chi_square_gof(&hist, &expected).expect("bins")));
    }
    let hist = histogram(per_step_pair(&configs, 1).into_iter());
    fits.push((
        "per-step binomial pair",
        chi_square_gof(&hist, &expected).expect("bins"),
    ));
    for (label, fit) in &fits {
        eprintln!(
            "{label}: chi-square {:.2} at {} df, p = {:.4}",
            fit.statistic, fit.df, fit.p_value
        );
        assert!(fit.df >= 5, "{label}: pooling left {} df", fit.df);
        assert!(fit.p_value > 1e-3, "{label}: {fit:?}");
    }
}

/// Guards the fixture: a law shifted by one violation step per PM is
/// refused by the same test.
#[test]
fn a_shifted_law_is_refused() {
    let (vms, pms, _, placement) = fixture();
    let configs = configs(&vms, &pms, &placement.assignment);
    let expected = mixture(&configs);
    let shifted = histogram(per_step_pair(&configs, 1).into_iter().map(|v| v + 1));
    let fit = chi_square_gof(&shifted, &expected).expect("bins");
    assert!(fit.p_value < 1e-6, "{fit:?}");
}
