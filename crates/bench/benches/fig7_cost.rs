//! Fig. 7 bench: computation cost of Algorithm 2 versus `d` and `n` —
//! the figure itself is a timing plot, so this bench *is* the experiment
//! at Criterion-grade rigor.
//!
//! Expected scaling: `O(d⁴)` in the mapping table (Algorithm 1 is `O(k³)`
//! per `k ≤ d`) plus `O(n log n + mn)` for clustering/sort/first-fit.

use bursty_core::prelude::*;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_mapping_table_vs_d(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig7_mapping_table_vs_d");
    for d in [4usize, 8, 16, 32, 64] {
        group.bench_with_input(BenchmarkId::from_parameter(d), &d, |b, &d| {
            b.iter(|| black_box(MappingTable::build(d, 0.01, 0.09, 0.01)))
        });
    }
    group.finish();
}

fn bench_algorithm2_vs_n(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig7_algorithm2_vs_n");
    for n in [100usize, 400, 1600] {
        let mut gen = FleetGenerator::new(n as u64);
        let vms = gen.vms(n, WorkloadPattern::EqualSpike);
        let pms = gen.pms(n);
        let consolidator = Consolidator::new(Scheme::Queue);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| black_box(consolidator.place(&vms, &pms).unwrap()))
        });
    }
    group.finish();
}

fn bench_mapcal_single_k(c: &mut Criterion) {
    // Algorithm 1 in isolation: transition matrix + Gaussian elimination +
    // threshold scan, at the paper's d and at stress scale.
    let mut group = c.benchmark_group("fig7_mapcal_single_k");
    for k in [16usize, 64, 128] {
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            let chain = AggregateChain::new(k, 0.01, 0.09);
            b.iter(|| black_box(chain.blocks_needed(0.01)))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_mapping_table_vs_d,
    bench_algorithm2_vs_n,
    bench_mapcal_single_k
);
criterion_main!(benches);
