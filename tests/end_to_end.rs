//! End-to-end integration across all crates: place → simulate → report,
//! determinism, constraint validation, and baseline relationships.

use bursty_core::placement::placement::consolidation_improvement;
use bursty_core::prelude::*;

fn fleet(n: usize, pattern: WorkloadPattern, seed: u64) -> (Vec<VmSpec>, Vec<PmSpec>) {
    let mut gen = FleetGenerator::new(seed);
    let vms = gen.vms(n, pattern);
    let pms = gen.pms(3 * n);
    (vms, pms)
}

#[test]
fn full_pipeline_is_deterministic() {
    let (vms, pms) = fleet(100, WorkloadPattern::EqualSpike, 1);
    let consolidator = Consolidator::new(Scheme::Queue);
    let cfg = SimConfig {
        seed: 42,
        ..Default::default()
    };
    let (p1, o1) = consolidator.evaluate(&vms, &pms, cfg).unwrap();
    let (p2, o2) = consolidator.evaluate(&vms, &pms, cfg).unwrap();
    assert_eq!(p1, p2);
    assert_eq!(o1.migrations, o2.migrations);
    assert_eq!(o1.final_pms_used, o2.final_pms_used);
    assert_eq!(o1.total_violation_steps, o2.total_violation_steps);
    assert_eq!(o1.energy_joules, o2.energy_joules);
}

#[test]
fn queue_placement_validates_against_eq17_on_every_pattern() {
    for pattern in WorkloadPattern::ALL {
        let (vms, pms) = fleet(150, pattern, 7);
        let consolidator = Consolidator::new(Scheme::Queue);
        let placement = consolidator.place(&vms, &pms).unwrap();
        assert!(placement.is_complete());
        let strategy = consolidator.strategy();
        assert_eq!(
            placement.validate(&vms, &pms, strategy.as_ref()),
            Ok(()),
            "pattern {pattern}"
        );
        // Per-PM co-location never exceeds d.
        for hosted in placement.per_pm() {
            assert!(hosted.len() <= 16);
        }
    }
}

#[test]
fn packing_order_rb_leq_queue_leq_rp_on_all_patterns() {
    for pattern in WorkloadPattern::ALL {
        for seed in [3u64, 11, 19] {
            let (vms, pms) = fleet(120, pattern, seed);
            let q = Consolidator::new(Scheme::Queue)
                .place(&vms, &pms)
                .unwrap()
                .pms_used();
            let rp = Consolidator::new(Scheme::Rp)
                .place(&vms, &pms)
                .unwrap()
                .pms_used();
            let rb = Consolidator::new(Scheme::Rb)
                .place(&vms, &pms)
                .unwrap()
                .pms_used();
            assert!(rb <= q, "{pattern} seed {seed}: RB {rb} > QUEUE {q}");
            assert!(q <= rp, "{pattern} seed {seed}: QUEUE {q} > RP {rp}");
        }
    }
}

#[test]
fn rbex_packs_between_rb_and_peak_in_pm_count() {
    let (vms, pms) = fleet(120, WorkloadPattern::EqualSpike, 13);
    let rb = Consolidator::new(Scheme::Rb)
        .place(&vms, &pms)
        .unwrap()
        .pms_used();
    let rbex = Consolidator::new(Scheme::RbEx)
        .place(&vms, &pms)
        .unwrap()
        .pms_used();
    let rp = Consolidator::new(Scheme::Rp)
        .place(&vms, &pms)
        .unwrap()
        .pms_used();
    assert!(rb <= rbex, "reserving space cannot reduce PM count");
    assert!(
        rbex <= rp + 2,
        "30% reserve should not exceed peak provisioning much"
    );
}

#[test]
fn migration_dynamics_rank_schemes_like_the_paper() {
    // Fig. 9 shape over a replicated run: RB ≫ RB-EX ≥ QUEUE in
    // migrations; RB ≤ QUEUE in final PMs.
    let mut gen = FleetGenerator::new(2024);
    let vms = gen.vms_table_i(120, WorkloadPattern::EqualSpike);
    let pms = gen.pms(360);

    let run = |scheme: Scheme| {
        let consolidator = Consolidator::new(scheme);
        let outs = replicate(6, 555, |seed| {
            let cfg = SimConfig {
                seed,
                ..Default::default()
            };
            let (_, out) = consolidator.evaluate(&vms, &pms, cfg).unwrap();
            out
        });
        let migrations = outs
            .iter()
            .map(|o| o.total_migrations() as f64)
            .sum::<f64>()
            / outs.len() as f64;
        let pms_final =
            outs.iter().map(|o| o.final_pms_used as f64).sum::<f64>() / outs.len() as f64;
        (migrations, pms_final)
    };

    let (queue_migrations, queue_pms) = run(Scheme::Queue);
    let (rb_migrations, rb_pms) = run(Scheme::Rb);
    let (rbex_migrations, _) = run(Scheme::RbEx);

    assert!(
        rb_migrations > 5.0 * queue_migrations.max(0.5),
        "RB {rb_migrations} vs QUEUE {queue_migrations}"
    );
    assert!(
        rbex_migrations < rb_migrations,
        "RB-EX {rbex_migrations} must migrate less than RB {rb_migrations}"
    );
    assert!(
        rb_pms <= queue_pms,
        "RB final PMs {rb_pms} vs QUEUE {queue_pms}"
    );
    assert!(queue_migrations <= 3.0, "QUEUE must migrate rarely");
}

#[test]
fn improvement_metric_matches_fig5_bounds() {
    // At n = 200 the measured QUEUE-vs-RP improvement must land in the
    // paper's ballpark per pattern (generous ±10-point bands).
    let bands = [
        (WorkloadPattern::EqualSpike, 0.18, 0.40),
        (WorkloadPattern::SmallSpike, 0.05, 0.28),
        (WorkloadPattern::LargeSpike, 0.32, 0.55),
    ];
    for (pattern, lo, hi) in bands {
        let (vms, pms) = fleet(200, pattern, 31);
        let q = Consolidator::new(Scheme::Queue)
            .place(&vms, &pms)
            .unwrap()
            .pms_used();
        let rp = Consolidator::new(Scheme::Rp)
            .place(&vms, &pms)
            .unwrap()
            .pms_used();
        let improvement = consolidation_improvement(q, rp);
        assert!(
            (lo..=hi).contains(&improvement),
            "{pattern}: improvement {improvement:.2} outside [{lo}, {hi}]"
        );
    }
}

#[test]
fn energy_tracks_pm_count_across_schemes() {
    let (vms, pms) = fleet(100, WorkloadPattern::EqualSpike, 5);
    let cfg = SimConfig {
        seed: 77,
        ..Default::default()
    };
    let (qp, qo) = Consolidator::new(Scheme::Queue)
        .evaluate(&vms, &pms, cfg)
        .unwrap();
    let (rp_p, rp_o) = Consolidator::new(Scheme::Rp)
        .evaluate(&vms, &pms, cfg)
        .unwrap();
    assert!(qp.pms_used() < rp_p.pms_used());
    assert!(
        qo.energy_joules < rp_o.energy_joules,
        "fewer PMs must mean less energy: {} vs {}",
        qo.energy_joules,
        rp_o.energy_joules
    );
}

#[test]
fn replicated_runs_are_order_independent() {
    let (vms, pms) = fleet(60, WorkloadPattern::LargeSpike, 8);
    let consolidator = Consolidator::new(Scheme::Rb);
    let f = |seed: u64| {
        let cfg = SimConfig {
            seed,
            ..Default::default()
        };
        let (_, out) = consolidator.evaluate(&vms, &pms, cfg).unwrap();
        out.total_migrations()
    };
    let parallel = replicate(8, 100, f);
    let sequential: Vec<usize> = (100..108).map(f).collect();
    assert_eq!(parallel, sequential);
}
