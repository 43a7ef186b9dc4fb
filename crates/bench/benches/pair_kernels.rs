//! Ablation: the cross-block pair-counting kernel against its oracle.
//!
//! The streaming auditor charges every sealed block against up to W
//! window partners. This bench compares two ways to count one
//! sealed-vs-partner pair of blocks:
//!
//! * `reference_quadratic` — the literal per-pair probe the kernel
//!   replaced (every (later, earlier) row pair compared);
//! * `bitset` — [`count_cross_block`]: fee-descending sweep +
//!   arrival-rank bitset prefix popcount, O(m·n/64) with a tiny constant.
//!
//! Regimes: block size (rows per side) × arrival overlap. `disjoint`
//! separates the two blocks' arrival ranges, `interleaved` fully mixes
//! them (the worst case for eligibility prefixes).

use cn_chain::{FeeRate, Timestamp};
use cn_core::pairs::{count_cross_block, count_cross_block_reference, BlockPairSet};
use cn_stats::SimRng;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

const EPSILON: u64 = 10;

/// `n` rows with arrivals drawn from `[t0, t0 + spread)`.
fn rows(n: usize, t0: u64, spread: u64, seed: u64) -> Vec<(Timestamp, FeeRate)> {
    let mut rng = SimRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            (
                t0 + rng.next_below(spread),
                FeeRate::from_sat_per_kvb(1_000 + rng.next_below(200_000)),
            )
        })
        .collect()
}

fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("pair_kernels");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(8));
    for &n in &[256usize, 1_024, 4_096] {
        for (overlap, t0_earlier, t0_later) in
            [("interleaved", 0u64, 0u64), ("disjoint", 0, 120_000)]
        {
            let earlier_rows = rows(n, t0_earlier, 100_000, 7);
            let later_rows = rows(n, t0_later, 100_000, 8);
            let earlier = BlockPairSet::new(earlier_rows.iter().copied());
            let later = BlockPairSet::new(later_rows.iter().copied());
            let label = |kernel: &str| format!("{kernel}/{overlap}");
            assert_eq!(
                count_cross_block(&later, &earlier, EPSILON),
                count_cross_block_reference(&later_rows, &earlier_rows, EPSILON),
                "kernel disagrees with the reference at n={n}/{overlap}"
            );

            // The quadratic probe at n=4096 is 16.7M pair comparisons per
            // direction — keep it, that *is* the ablation.
            group.bench_with_input(
                BenchmarkId::new(label("reference_quadratic"), n),
                &(&later_rows, &earlier_rows),
                |b, (l, e)| b.iter(|| black_box(count_cross_block_reference(l, e, EPSILON))),
            );
            group.bench_with_input(
                BenchmarkId::new(label("bitset"), n),
                &(&later, &earlier),
                |b, (l, e)| b.iter(|| black_box(count_cross_block(l, e, EPSILON))),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
