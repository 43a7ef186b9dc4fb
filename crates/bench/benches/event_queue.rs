//! The simulator's event queue: the binary-heap [`EventQueue`] the world
//! runs on, under the two due-time regimes the simulator produces:
//! *uniform* over a short horizon (relay deliveries, snapshot ticks) and
//! *heavy-tail* (block finds minutes out behind a dense near front).

use cn_sim::event::{EventQueue, SimMillis};
use cn_stats::SimRng;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

/// Uniform due times over a ~an-hour window: the relay/snapshot regime.
fn uniform_dues(n: usize, seed: u64) -> Vec<SimMillis> {
    let mut rng = SimRng::seed_from_u64(seed);
    (0..n).map(|_| rng.next_below(3_600_000)).collect()
}

/// Heavy-tail due times: most within seconds, a fat tail minutes out
/// (the block-find regime).
fn heavy_tail_dues(n: usize, seed: u64) -> Vec<SimMillis> {
    let mut rng = SimRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            if rng.next_below(10) == 0 {
                600_000 + rng.next_below(1_200_000) // 10-30 min out
            } else {
                rng.next_below(5_000) // within 5 s
            }
        })
        .collect()
}

/// Schedules every due time interleaved with pops — a churn pattern close
/// to the world loop's (each popped event schedules successors) — and
/// drains the queue.
fn churn_heap(dues: &[SimMillis]) -> u64 {
    let mut q = EventQueue::new();
    let mut acc = 0u64;
    let mut feed = dues.iter();
    for &d in feed.by_ref().take(dues.len() / 2) {
        q.schedule(d, d);
    }
    while let Some((now, payload)) = q.pop() {
        acc = acc.wrapping_add(now ^ payload);
        if let Some(&d) = feed.next() {
            q.schedule(now + (d % 5_000), d);
        }
    }
    acc
}

fn bench_event_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue");
    group.sample_size(20);
    for (dist, dues) in
        [("uniform", uniform_dues(100_000, 11)), ("heavy_tail", heavy_tail_dues(100_000, 11))]
    {
        group.bench_with_input(BenchmarkId::new("heap", dist), &dues, |b, dues| {
            b.iter(|| black_box(churn_heap(dues)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_event_queue);
criterion_main!(benches);
