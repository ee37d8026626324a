//! HPC-side benches: simulator step throughput scaling with fleet size,
//! and the parallel-replication speedup of the runner.

use bursty_core::prelude::*;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

fn bench_step_throughput_vs_fleet(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_step_throughput");
    const STEPS: usize = 500;
    for n in [50usize, 200, 800] {
        let mut gen = FleetGenerator::new(n as u64);
        let vms = gen.vms(n, WorkloadPattern::EqualSpike);
        let pms = gen.pms(n);
        let consolidator = Consolidator::new(Scheme::Queue);
        let placement = consolidator.place(&vms, &pms).unwrap();
        // VM-steps per second is the meaningful throughput unit.
        group.throughput(Throughput::Elements((STEPS * n) as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let cfg = SimConfig {
                    steps: STEPS,
                    seed: 1,
                    migrations_enabled: true,
                    ..Default::default()
                };
                black_box(
                    consolidator
                        .simulate(&vms, &pms, &placement, cfg)
                        .final_pms_used,
                )
            })
        });
    }
    group.finish();
}

fn bench_mapcal_stationary(c: &mut Criterion) {
    // Closed-form Binomial stationary vs the retained Gaussian solver,
    // per reservation() call at a production-sized block count.
    let mut group = c.benchmark_group("mapcal_stationary");
    for k in [50usize, 200] {
        let chain = AggregateChain::new(k, 0.01, 0.09);
        group.bench_with_input(BenchmarkId::new("closed_form", k), &k, |b, _| {
            b.iter(|| black_box(chain.stationary()))
        });
        group.bench_with_input(BenchmarkId::new("gaussian_solver", k), &k, |b, _| {
            b.iter(|| black_box(chain.stationary_by_solver().unwrap()))
        });
    }
    group.finish();
}

fn bench_parallel_replication(c: &mut Criterion) {
    // The Fig.-9 pattern: 10 independent replications. Sequential vs the
    // scoped-thread fan-out. (Criterion reports both; the ratio is the
    // effective speedup on this machine.)
    let mut gen = FleetGenerator::new(3);
    let vms = gen.vms_table_i(120, WorkloadPattern::EqualSpike);
    let pms = gen.pms(360);
    let consolidator = Consolidator::new(Scheme::Rb);
    let placement = consolidator.place(&vms, &pms).unwrap();
    let one = |seed: u64| {
        let cfg = SimConfig {
            seed,
            ..Default::default()
        };
        consolidator
            .simulate(&vms, &pms, &placement, cfg)
            .total_migrations()
    };

    let mut group = c.benchmark_group("replication_fan_out");
    group.bench_function("sequential_10", |b| {
        b.iter(|| {
            let outs: Vec<usize> = (0..10u64).map(one).collect();
            black_box(outs)
        })
    });
    group.bench_function("parallel_10", |b| {
        b.iter(|| black_box(replicate(10, 0, one)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_step_throughput_vs_fleet,
    bench_mapcal_stationary,
    bench_parallel_replication
);
criterion_main!(benches);
