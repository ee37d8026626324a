//! Cross-validation of the queuing theory against brute-force simulation —
//! the scientific core of the reproduction.
//!
//! Algorithm 1's promise is that reserving `K = mapping(k)` blocks bounds a
//! PM's capacity-violation ratio by `ρ`. These tests verify that promise
//! empirically: the analytic stationary distribution of the busy-block
//! chain must match the simulated long-run occupancy, and the predicted CVR
//! must match the violation rate an actual simulated PM experiences.
//!
//! The PM-level half goes through `placement::certify_exact`, the exact
//! stationary CVR of every PM of a placement: QueuingFFD must keep it
//! within `ρ` on every fleet (and mean rounding must not), and both
//! simulator layouts must reproduce it PM by PM — an oracle that shares
//! the violation predicate with the engine and nothing else.

use bursty_core::placement::rounding::{round_with_policy, RoundingPolicy};
use bursty_core::placement::{certify_exact, pm_cvr_exact};
use bursty_core::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const P_ON: f64 = 0.01;
const P_OFF: f64 = 0.09;
/// Lag-1 autocorrelation of one ON-OFF chain, `1 − p_on − p_off`: the
/// discount `certify_cvr` applies to the step count.
const LAG1: f64 = 1.0 - P_ON - P_OFF;

/// The exact CVR of every occupied PM, all of them enumerable.
fn exact_cvrs(vms: &[VmSpec], pms: &[PmSpec], placement: &Placement) -> Vec<(usize, f64)> {
    certify_exact(vms, pms, placement)
        .into_iter()
        .map(|(j, cvr)| (j, cvr.expect("class fleets and d ≤ 16 stay enumerable")))
        .collect()
}

/// Fleet-mean exact CVR over the occupied PMs.
fn mean_of(exact: &[(usize, f64)]) -> f64 {
    exact.iter().map(|&(_, cvr)| cvr).sum::<f64>() / exact.len() as f64
}

/// Wilson check of a migration-free run's per-PM CVR against the exact
/// value (every PM is active on every step, so the violation count is
/// `cvr · steps`).
fn check_pm(pm: usize, simulated_cvr: f64, steps: usize, exact: f64) -> CvrCheck {
    let violations = (simulated_cvr * steps as f64).round() as u64;
    certify_cvr(pm, violations, steps as u64, exact, 0.99, LAG1)
}

/// Simulates k independent ON-OFF chains and histograms the number
/// simultaneously ON.
fn empirical_busy_distribution(k: usize, steps: usize, seed: u64) -> Vec<f64> {
    let chain = OnOffChain::new(P_ON, P_OFF);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut states: Vec<VmState> = (0..k).map(|_| chain.sample_stationary(&mut rng)).collect();
    let mut counts = vec![0u64; k + 1];
    for _ in 0..steps {
        for s in states.iter_mut() {
            *s = chain.step(*s, &mut rng);
        }
        let busy = states.iter().filter(|s| s.is_on()).count();
        counts[busy] += 1;
    }
    counts.iter().map(|&c| c as f64 / steps as f64).collect()
}

#[test]
fn stationary_distribution_matches_monte_carlo() {
    for k in [4usize, 8, 16] {
        let analytic = AggregateChain::new(k, P_ON, P_OFF).stationary();
        let empirical = empirical_busy_distribution(k, 400_000, 17 + k as u64);
        for (m, (&a, &e)) in analytic.iter().zip(&empirical).enumerate() {
            assert!(
                (a - e).abs() < 0.01,
                "k={k} state {m}: analytic {a:.4} vs empirical {e:.4}"
            );
        }
    }
}

#[test]
fn predicted_cvr_matches_simulated_violation_rate() {
    // One PM hosting k identical VMs sized so that exactly K spikes fit:
    // capacity = k·R_b + K·R_e. Analytic CVR = Pr[θ > K]; the simulator
    // must observe the same violation fraction.
    let k = 12;
    let rho = 0.01;
    let chain = AggregateChain::new(k, P_ON, P_OFF);
    let blocks = chain.blocks_needed(rho);
    let predicted_cvr = chain.cvr_with_blocks(blocks);

    let (r_b, r_e) = (10.0, 10.0);
    let vms: Vec<VmSpec> = (0..k)
        .map(|i| VmSpec::new(i, P_ON, P_OFF, r_b, r_e))
        .collect();
    let capacity = k as f64 * r_b + blocks as f64 * r_e;
    let pms = vec![PmSpec::new(0, capacity)];
    let placement = Placement {
        assignment: vec![Some(0); k],
        n_pms: 1,
    };

    let policy = ObservedPolicy::rb();
    let cfg = SimConfig {
        steps: 300_000,
        seed: 5,
        migrations_enabled: false,
        ..Default::default()
    };
    let out = Simulator::new(&vms, &pms, &policy, cfg).run(&placement);
    let simulated_cvr = out.cvr_per_pm[0].1;

    assert!(
        (simulated_cvr - predicted_cvr).abs() < 0.002,
        "predicted {predicted_cvr:.5} vs simulated {simulated_cvr:.5}"
    );
    assert!(
        simulated_cvr <= rho + 0.002,
        "constraint must hold empirically"
    );
}

#[test]
fn one_block_fewer_breaks_the_constraint() {
    // Minimality check, end to end: with K−1 blocks the simulated CVR must
    // exceed ρ — the reservation is tight, not padded.
    let k = 12;
    let rho = 0.01;
    let chain = AggregateChain::new(k, P_ON, P_OFF);
    let blocks = chain.blocks_needed(rho);
    assert!(blocks >= 1);

    let (r_b, r_e) = (10.0, 10.0);
    let vms: Vec<VmSpec> = (0..k)
        .map(|i| VmSpec::new(i, P_ON, P_OFF, r_b, r_e))
        .collect();
    let capacity = k as f64 * r_b + (blocks - 1) as f64 * r_e;
    let pms = vec![PmSpec::new(0, capacity)];
    let placement = Placement {
        assignment: vec![Some(0); k],
        n_pms: 1,
    };
    let policy = ObservedPolicy::rb();
    let cfg = SimConfig {
        steps: 200_000,
        seed: 6,
        migrations_enabled: false,
        ..Default::default()
    };
    let out = Simulator::new(&vms, &pms, &policy, cfg).run(&placement);
    assert!(
        out.cvr_per_pm[0].1 > rho,
        "CVR with K-1 blocks must exceed rho, got {}",
        out.cvr_per_pm[0].1
    );
}

#[test]
fn every_queue_packed_pm_honors_rho_in_simulation() {
    // The full pipeline: every PM of a QueuingFFD placement has exact CVR
    // ≤ ρ — no sampling slack — and the simulated violation count of each
    // sits inside the Wilson interval around that exact value.
    let mut gen = FleetGenerator::new(404);
    let vms = gen.vms(80, WorkloadPattern::EqualSpike);
    let pms = gen.pms(80);
    let consolidator = Consolidator::new(Scheme::Queue);
    let placement = consolidator.place(&vms, &pms).unwrap();
    let exact = exact_cvrs(&vms, &pms, &placement);
    let cfg = SimConfig {
        steps: 60_000,
        seed: 9,
        migrations_enabled: false,
        ..Default::default()
    };
    let out = consolidator.simulate(&vms, &pms, &placement, cfg);
    assert_eq!(out.cvr_per_pm.len(), exact.len());
    for (&(pm, cvr), &(j, exact)) in out.cvr_per_pm.iter().zip(&exact) {
        assert_eq!(pm, j);
        assert!(exact <= 0.01 + 1e-9, "PM {pm} exact CVR {exact} above rho");
        let check = check_pm(pm, cvr, cfg.steps, exact);
        assert!(check.consistent(), "{}", check.describe());
    }
}

/// `n` VMs with Table-I sizes of all three patterns, or sizes drawn from
/// the patterns' Fig.-5 ranges, and the generator's `(p_on, p_off)`.
fn sized_fleet(gen: &mut FleetGenerator, n: usize, table_i: bool) -> Vec<VmSpec> {
    let mut vms = Vec::with_capacity(n);
    for (i, pattern) in WorkloadPattern::ALL.into_iter().enumerate() {
        let share = (n + 2 - i) / 3; // thirds, the remainder to the first patterns
        vms.extend(if table_i {
            gen.vms_table_i(share, pattern)
        } else {
            gen.vms(share, pattern)
        });
    }
    for (id, vm) in vms.iter_mut().enumerate() {
        vm.id = id;
    }
    vms
}

/// QueuingFFD of `packed` by `consolidator`; the largest exact per-PM
/// CVR of the plan under the fleet's true specs `vms` (`packed` is `vms`
/// or a relabelled copy of it).
fn worst_exact_cvr(
    vms: &[VmSpec],
    packed: &[VmSpec],
    pms: &[PmSpec],
    consolidator: Consolidator,
) -> f64 {
    let placement = consolidator.place(packed, pms).unwrap();
    let exact = certify_exact(vms, pms, &placement);
    assert_eq!(exact.len(), placement.pms_used());
    exact
        .iter()
        .map(|&(_, cvr)| cvr.expect("at most 64 VMs of mixed sizes on 100 units"))
        .fold(0.0, f64::max)
}

/// QUEUE at `(rho, d)` floored at the pair `(p_on, p_off)`.
fn floored((p_on, p_off): (f64, f64), rho: f64, d: usize) -> Consolidator {
    Consolidator::new(Scheme::Queue)
        .with_probabilities(p_on, p_off)
        .with_rho(rho)
        .with_d(d)
}

#[test]
fn queue_placements_honor_rho_exactly_and_mean_rounding_does_not() {
    // The paper's guarantee as a statement about the stationary law, with
    // no simulation: every PM of every QueuingFFD placement has exact CVR
    // ≤ ρ — when heterogeneous probabilities are rounded conservatively,
    // and when the default pair, cooler than most of these fleets, is the
    // floor with no rounding at all (each PM is priced at its hottest
    // chain) — over five probability regimes (paper-like, near 0,
    // anywhere in (0, 1], p_off = 1, p_on = 1), ρ from 1e-4 to 0.3, d
    // from 1 to 64, Table-I and continuous sizes. The 1e-9 is
    // `reservation`'s tie slack. Mean rounding is the negative control: a
    // copy of the fleet relabelled to the mean pair, packed and certified
    // on the true specs, promises nothing for the hotter-than-average VMs,
    // and the oracle must say so on some of them.
    type Regime = fn(&mut StdRng) -> (f64, f64);
    let regimes: [Regime; 5] = [
        |r| (r.gen_range(0.005..0.02), r.gen_range(0.05..0.15)),
        |r| (r.gen_range(1e-4..1e-3), r.gen_range(1e-3..1e-2)),
        |r| (1.0 - r.gen_range(0.0..1.0), 1.0 - r.gen_range(0.0..1.0)),
        |r| (r.gen_range(0.01..0.3), 1.0),
        |r| (1.0, 1.0 - r.gen_range(0.0..0.5)),
    ];
    let (mut fleets, mut mean_over) = (0, 0);
    for (regime, draw) in regimes.iter().enumerate() {
        for rho in [1e-4, 0.01, 0.3] {
            for d in [1, 16, 64] {
                for table_i in [true, false] {
                    let seed = fleets as u64;
                    let mut gen = FleetGenerator::new(seed);
                    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
                    let mut vms = sized_fleet(&mut gen, 90, table_i);
                    for vm in &mut vms {
                        (vm.p_on, vm.p_off) = draw(&mut rng);
                    }
                    let pms = gen.pms(vms.len());
                    let case = format!("regime {regime}, rho {rho}, d {d}, table_i {table_i}");
                    let conservative = floored(
                        round_with_policy(&vms, RoundingPolicy::Conservative).unwrap(),
                        rho,
                        d,
                    );
                    let worst = worst_exact_cvr(&vms, &vms, &pms, conservative);
                    assert!(worst <= rho + 1e-9, "{case}: a PM has exact CVR {worst}");
                    let default_pair = Consolidator::new(Scheme::Queue).with_rho(rho).with_d(d);
                    let worst = worst_exact_cvr(&vms, &vms, &pms, default_pair);
                    assert!(
                        worst <= rho + 1e-9,
                        "{case}, default pair: a PM has exact CVR {worst}"
                    );
                    fleets += 1;
                    let n = vms.len() as f64;
                    let mean_pair = (
                        vms.iter().map(|v| v.p_on).sum::<f64>() / n,
                        vms.iter().map(|v| v.p_off).sum::<f64>() / n,
                    );
                    let mean = floored(mean_pair, rho, d);
                    let relabelled: Vec<VmSpec> = vms
                        .iter()
                        .map(|vm| VmSpec::new(vm.id, mean.p_on, mean.p_off, vm.r_b, vm.r_e))
                        .collect();
                    if worst_exact_cvr(&vms, &relabelled, &pms, mean) > rho + 1e-9 {
                        mean_over += 1;
                    }
                }
            }
        }
    }
    assert!(
        mean_over > 0,
        "mean rounding stayed within rho on all {fleets} fleets: the oracle sees nothing"
    );

    // The paper's own setting: homogeneous Table-I fleets at each ρ. Every
    // PM of the pack is within ρ. Whether the pack also lands a PM near ρ
    // depends on the PMs First Fit reaches: in capacity order this fleet
    // uses only the PMs of capacity 96 and up, whose tightest PM reads
    // 0.27ρ at ρ = 0.01 (above ρ/2 at the other two). So the non-vacuity
    // premise is held at the rule instead, where the PM order plays no
    // part: every configuration of at most d Table-I VMs that QUEUE admits
    // on a PM of the pool is within ρ, and the tightest of them is above
    // ρ/2. A configuration's exact CVR falls as the capacity grows, and
    // QUEUE's admission only widens, so each is checked at the smallest
    // capacity of the pool that admits it.
    for rho in [1e-4, 0.01, 0.3] {
        let mut gen = FleetGenerator::new(1);
        let vms = gen.vms_table_i(2_000, WorkloadPattern::EqualSpike);
        let pms = gen.pms(2_000);
        let conservative = floored(
            round_with_policy(&vms, RoundingPolicy::Conservative).unwrap(),
            rho,
            16,
        );
        let worst = worst_exact_cvr(&vms, &vms, &pms, conservative);
        assert!(worst <= rho + 1e-9, "Table I at rho {rho}: {worst}");

        let strategy = conservative.strategy();
        let mut classes: Vec<VmSpec> = Vec::new();
        for vm in &vms {
            if !classes.iter().any(|c| (c.r_b, c.r_e) == (vm.r_b, vm.r_e)) {
                classes.push(*vm);
            }
        }
        assert_eq!(classes.len(), 3, "Table I's three EqualSpike classes");
        let mut caps: Vec<f64> = pms.iter().map(|pm| pm.capacity).collect();
        caps.sort_by(f64::total_cmp);
        let mut tightest = 0.0f64;
        for a in 0..=16 {
            for b in 0..=16 - a {
                for c in 0..=16 - a - b {
                    let mut hosted = Vec::new();
                    for (vm, &k) in classes.iter().zip(&[a, b, c]) {
                        hosted.extend(std::iter::repeat_n(*vm, k));
                    }
                    let load = PmLoad::rebuild(hosted.iter());
                    let at = caps.partition_point(|&cap| !strategy.feasible(&load, cap));
                    let Some(&cap) = caps.get(at) else { continue };
                    let cvr = pm_cvr_exact(&hosted, cap).unwrap();
                    assert!(
                        cvr <= rho + 1e-9,
                        "Table I at rho {rho}: QUEUE admits {a}/{b}/{c} on capacity {cap} at CVR {cvr}"
                    );
                    tightest = tightest.max(cvr);
                }
            }
        }
        assert!(
            tightest > rho / 2.0,
            "Table I at rho {rho}: QUEUE admits nothing near rho: {tightest}"
        );
    }
}

#[test]
fn a_default_pair_cooler_than_a_third_of_the_fleet_holds_rho() {
    // 600 Table-I VMs, every third at (0.03, 0.07) — π = 0.3 against the
    // default pair's 0.1 — packed by the default `Consolidator` with no
    // rounding. Priced by the pair alone, 23 of the 136 PMs it used had
    // exact CVR above ρ = 0.01 (worst 9.3e-2); priced at each PM's hottest
    // chain, none may.
    let mut gen = FleetGenerator::new(1);
    let mut vms = gen.vms_table_i(600, WorkloadPattern::EqualSpike);
    for vm in vms.iter_mut().step_by(3) {
        (vm.p_on, vm.p_off) = (0.03, 0.07);
    }
    let pms = gen.pms(600);
    let placement = Consolidator::new(Scheme::Queue).place(&vms, &pms).unwrap();
    let over: Vec<(usize, f64)> = exact_cvrs(&vms, &pms, &placement)
        .into_iter()
        .filter(|&(_, cvr)| cvr > 0.01 + 1e-9)
        .collect();
    assert!(
        over.is_empty(),
        "{} of {} PMs over rho: {over:?}",
        over.len(),
        placement.pms_used()
    );
}

/// A 4 000-VM fleet of all seven Table-I rows on 4 000 candidate PMs.
fn mixed_table_i_fleet() -> (Vec<VmSpec>, Vec<PmSpec>) {
    let mut gen = FleetGenerator::new(1);
    let vms = sized_fleet(&mut gen, 4_000, true);
    let pms = gen.pms(4_000);
    (vms, pms)
}

/// 50 000 migration-free steps of `placement` under `layout`.
fn long_run(
    vms: &[VmSpec],
    pms: &[PmSpec],
    placement: &Placement,
    layout: RngLayout,
    seed: u64,
) -> SimOutcome {
    let cfg = SimConfig {
        steps: 50_000,
        seed,
        migrations_enabled: false,
        rng_layout: layout,
        ..Default::default()
    };
    let policy = ObservedPolicy::rb();
    Simulator::new(vms, pms, &policy, cfg).run(placement)
}

#[test]
fn both_layouts_reproduce_the_exact_law_pm_by_pm() {
    // A QueuingFFD placement of the mixed fleet (≈ 930 PMs): per PM, a PM
    // whose exact CVR is 0 must never violate, and the rest must fall in
    // the 99 % Wilson interval around their exact CVR (≤ 2 % may miss: 1 %
    // by construction, and the ESS discount is itself an estimate); the
    // fleet mean must agree within 3 %.
    let (vms, pms) = mixed_table_i_fleet();
    let placement = Consolidator::new(Scheme::Queue).place(&vms, &pms).unwrap();
    let exact = exact_cvrs(&vms, &pms, &placement);
    let exact_mean = mean_of(&exact);
    let positive = exact.iter().filter(|&&(_, c)| c > 0.0).count();
    assert!(positive > exact.len() / 2 && positive < exact.len());
    assert!(exact.iter().all(|&(_, c)| c <= 0.01 + 1e-9));

    for layout in [RngLayout::Shared, RngLayout::ClassAggregated] {
        let out = long_run(&vms, &pms, &placement, layout, 1);
        assert_eq!(out.cvr_per_pm.len(), exact.len());
        let mut outside = 0;
        for (&(pm, cvr), &(j, exact)) in out.cvr_per_pm.iter().zip(&exact) {
            assert_eq!(pm, j);
            if exact == 0.0 {
                assert_eq!(cvr, 0.0, "{layout:?}: PM {pm} cannot violate, yet did");
            } else if !check_pm(pm, cvr, 50_000, exact).consistent() {
                outside += 1;
            }
        }
        assert!(
            outside * 50 <= positive,
            "{layout:?}: {outside} of {positive} PMs outside their 99 % interval"
        );
        let mean = out.mean_cvr();
        assert!(
            (mean - exact_mean).abs() <= 0.03 * exact_mean,
            "{layout:?}: simulated fleet mean {mean} vs exact {exact_mean}"
        );
    }
}

#[test]
fn both_layouts_reproduce_the_exact_law_far_above_rho() {
    // The same fleet packed by RB (base demand only, ≈ 540 PMs) violates
    // about half the time — exact mean CVR far above 10ρ — and both
    // layouts must land on it within 1 %: the oracle is checked where
    // violations are the rule, not only where they are rare.
    let (vms, pms) = mixed_table_i_fleet();
    let placement = Consolidator::new(Scheme::Rb).place(&vms, &pms).unwrap();
    let exact = exact_cvrs(&vms, &pms, &placement);
    let exact_mean = mean_of(&exact);
    assert!(exact_mean > 10.0 * 0.01, "RB exact mean CVR {exact_mean}");
    for layout in [RngLayout::Shared, RngLayout::ClassAggregated] {
        let mean = long_run(&vms, &pms, &placement, layout, 1).mean_cvr();
        assert!(
            (mean - exact_mean).abs() <= 0.01 * exact_mean,
            "{layout:?}: simulated fleet mean {mean} vs exact {exact_mean}"
        );
    }
}

#[test]
fn autocorrelation_separates_markov_from_iid() {
    // The reason SBP (i.i.d.) models under-serve bursty workloads: the
    // ON-OFF chain's demand is autocorrelated in time. Verify the sampled
    // lag-1 autocorrelation matches theory and is far from zero.
    let chain = OnOffChain::new(P_ON, P_OFF);
    let mut rng = StdRng::seed_from_u64(33);
    let trace = chain.sample_trace(VmState::Off, 500_000, &mut rng);
    let xs: Vec<f64> = trace.iter().map(|s| s.is_on() as u8 as f64).collect();
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
    let cov1 = xs
        .windows(2)
        .map(|w| (w[0] - mean) * (w[1] - mean))
        .sum::<f64>()
        / (xs.len() - 1) as f64;
    let rho1 = cov1 / var;
    let theory = chain.autocorrelation(1);
    assert!(
        (rho1 - theory).abs() < 0.01,
        "lag-1 {rho1:.4} vs theory {theory:.4}"
    );
    assert!(
        rho1 > 0.85,
        "paper parameters imply strong burst persistence"
    );
}
