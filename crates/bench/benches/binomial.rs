//! Ablation: exact binomial tail vs normal approximation (§5.1.3).

use cn_stats::binomial::{binomial_test, binomial_test_normal_approx};
use cn_stats::Tail;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_binomial(c: &mut Criterion) {
    let mut group = c.benchmark_group("binomial_test");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(8));
    for y in [100u64, 1_000, 10_000, 100_000] {
        let x = y / 4;
        let theta = 0.2;
        group.bench_with_input(BenchmarkId::new("exact", y), &y, |b, &y| {
            b.iter(|| black_box(binomial_test(black_box(x), y, theta, Tail::Upper)))
        });
        group.bench_with_input(BenchmarkId::new("normal_approx", y), &y, |b, &y| {
            b.iter(|| black_box(binomial_test_normal_approx(black_box(x), y, theta, Tail::Upper)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_binomial);
criterion_main!(benches);
