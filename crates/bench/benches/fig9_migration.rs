//! Figs. 9/10 bench: the full live-migration experiment — one complete
//! 100-period run per scheme (placement + simulation + event logging),
//! matching a single bar/curve of the figures.

use bursty_core::prelude::*;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_migration_run(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig9_migration_run");
    for scheme in [Scheme::Queue, Scheme::Rb, Scheme::RbEx] {
        let mut gen = FleetGenerator::new(3);
        let vms = gen.vms_table_i(120, WorkloadPattern::EqualSpike);
        let pms = gen.pms(360);
        let consolidator = Consolidator::new(scheme);
        group.bench_with_input(BenchmarkId::from_parameter(scheme.label()), &(), |b, _| {
            b.iter(|| {
                let cfg = SimConfig {
                    seed: 4,
                    ..Default::default()
                };
                let (_, out) = consolidator.evaluate(&vms, &pms, cfg).unwrap();
                black_box((out.total_migrations(), out.final_pms_used))
            })
        });
    }
    group.finish();
}

fn bench_replicated_fig9_cell(c: &mut Criterion) {
    // One full Fig.-9 cell: 10 replications, parallel fan-out included.
    let mut gen = FleetGenerator::new(5);
    let vms = gen.vms_table_i(120, WorkloadPattern::EqualSpike);
    let pms = gen.pms(360);
    let consolidator = Consolidator::new(Scheme::Rb);
    c.bench_function("fig9_cell_10_replications", |b| {
        b.iter(|| {
            let outs = replicate(10, 1000, |seed| {
                let cfg = SimConfig {
                    seed,
                    ..Default::default()
                };
                consolidator
                    .evaluate(&vms, &pms, cfg)
                    .unwrap()
                    .1
                    .total_migrations()
            });
            black_box(outs)
        })
    });
}

criterion_group!(benches, bench_migration_run, bench_replicated_fig9_cell);
criterion_main!(benches);
