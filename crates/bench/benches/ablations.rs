//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * spike-size clustering granularity (Algorithm 2's two-step placement)
//!   vs no clustering — both cost and packing quality;
//! * web-workload generation: exact renewal simulation vs the Gaussian
//!   approximation used at Table-I population scales.

use bursty_core::markov::OnOffChain;
use bursty_core::prelude::*;
use bursty_core::workload::WebServerWorkload;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_clustering_granularity(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_clustering_buckets");
    let mut gen = FleetGenerator::new(6);
    let vms = gen.vms(400, WorkloadPattern::EqualSpike);
    let pms = gen.pms(400);
    for buckets in [1usize, 4, 20, 100] {
        let strategy = QueueStrategy::build(16, 0.01, 0.09, 0.01).with_buckets(buckets);
        group.bench_with_input(
            BenchmarkId::from_parameter(buckets),
            &strategy,
            |b, strategy| b.iter(|| black_box(first_fit(&vms, &pms, strategy).unwrap().pms_used())),
        );
    }
    group.finish();
}

fn bench_web_workload_exact_vs_fast(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_web_requests");
    let w = WebServerWorkload::new(800, 2400, OnOffChain::new(0.01, 0.09));
    for users in [400u32, 1600] {
        group.bench_with_input(BenchmarkId::new("exact_renewal", users), &users, |b, &u| {
            let mut rng = StdRng::seed_from_u64(7);
            b.iter(|| black_box(w.requests_exact(u, 30.0, &mut rng)))
        });
        group.bench_with_input(
            BenchmarkId::new("gaussian_approx", users),
            &users,
            |b, &u| {
                let mut rng = StdRng::seed_from_u64(7);
                b.iter(|| black_box(w.requests_fast(u, 30.0, &mut rng)))
            },
        );
    }
    group.finish();
}

fn bench_exact_vs_ffd(c: &mut Criterion) {
    use bursty_core::placement::exact::optimal_packing;
    let strategy = QueueStrategy::build(16, 0.01, 0.09, 0.01);
    let mut gen = FleetGenerator::new(9);
    let vms = gen.vms(12, WorkloadPattern::EqualSpike);
    let pms: Vec<PmSpec> = (0..12).map(|j| PmSpec::new(j, 90.0)).collect();
    let mut group = c.benchmark_group("ablation_exact_packing");
    group.bench_function("ffd_n12", |b| {
        b.iter(|| black_box(first_fit(&vms, &pms, &strategy).unwrap().pms_used()))
    });
    group.bench_function("branch_and_bound_n12", |b| {
        b.iter(|| black_box(optimal_packing(&vms, 90.0, &strategy, 2_000_000)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_clustering_granularity,
    bench_web_workload_exact_vs_fast,
    bench_exact_vs_ffd
);
criterion_main!(benches);
