//! Ablation: O(n²) reference vs O(n log² n) CDQ violation-pair counting.

use cn_chain::FeeRate;
use cn_core::pairs::{count_violations, count_violations_reference, PairObservation};
use cn_stats::SimRng;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn observations(n: usize, seed: u64) -> Vec<PairObservation> {
    let mut rng = SimRng::seed_from_u64(seed);
    (0..n)
        .map(|_| PairObservation {
            received: rng.next_below(100_000),
            fee_rate: FeeRate::from_sat_per_kvb(1_000 + rng.next_below(200_000)),
            height: rng.next_below(120),
        })
        .collect()
}

fn bench_pairs(c: &mut Criterion) {
    let mut group = c.benchmark_group("violation_pairs");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(8));
    for n in [500usize, 2_000, 8_000] {
        let obs = observations(n, 42);
        group.bench_with_input(BenchmarkId::new("reference_quadratic", n), &obs, |b, obs| {
            b.iter(|| black_box(count_violations_reference(black_box(obs), 10)))
        });
        group.bench_with_input(BenchmarkId::new("cdq", n), &obs, |b, obs| {
            b.iter(|| black_box(count_violations(black_box(obs), 10)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_pairs);
criterion_main!(benches);
