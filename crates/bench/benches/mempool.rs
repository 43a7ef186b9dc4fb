//! Mempool operation costs: admission, the two orders the pool builds when
//! read (a detailed snapshot after churn, the first best ancestor keys),
//! and the fee-rate-order ablation (sort on demand vs a naive re-sort).

use cn_chain::{Address, Amount, Transaction, TxOut};
use cn_mempool::{Mempool, MempoolPolicy};
use cn_stats::SimRng;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn transactions(n: usize, seed: u64) -> Vec<(Transaction, Amount)> {
    let mut rng = SimRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let mut bytes = [0u8; 32];
            bytes[..8].copy_from_slice(&(i as u64).to_le_bytes());
            let tx = Transaction::builder()
                .add_input_with_sizes(bytes.into(), 0, 107, 0)
                .add_output(TxOut::to_address(
                    Amount::from_sat(50_000),
                    Address::from_label("r"),
                ))
                .build();
            let fee = Amount::from_sat(tx.vsize() * (1 + rng.next_below(200)));
            (tx, fee)
        })
        .collect()
}

fn filled_pool(txs: &[(Transaction, Amount)]) -> Mempool {
    let mut pool = Mempool::new(MempoolPolicy::default());
    for (i, (tx, fee)) in txs.iter().enumerate() {
        pool.add(tx.clone(), *fee, i as u64).expect("distinct inputs");
    }
    pool
}

/// A pool of `n` residents drawn from a ring of `n + k` transactions: each
/// `churn` admits the next `k` ring members and removes the `k` oldest
/// residents, so the pool stays at `n` and every call changes `2k` rows.
struct Churn {
    ring: Vec<(Transaction, Amount)>,
    k: usize,
    next: usize,
    pool: Mempool,
}

impl Churn {
    fn new(n: usize, k: usize) -> Churn {
        let ring = transactions(n + k, 7);
        let pool = filled_pool(&ring[..n]);
        Churn { ring, k, next: n, pool }
    }

    fn churn(&mut self) {
        let len = self.ring.len();
        for i in 0..self.k {
            let (tx, fee) = &self.ring[(self.next + i) % len];
            self.pool.add(tx.clone(), *fee, 0).expect("not resident");
            // `n` ring places back, which is `k` forward.
            let oldest = &self.ring[(self.next + i + self.k) % len].0;
            self.pool.remove_with_descendants(&oldest.txid());
        }
        self.next = (self.next + self.k) % len;
    }
}

fn bench_mempool(c: &mut Criterion) {
    let mut group = c.benchmark_group("mempool");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(8));
    for n in [1_000usize, 10_000] {
        let txs = transactions(n, 7);
        group.bench_with_input(BenchmarkId::new("add_n", n), &txs, |b, txs| {
            b.iter(|| black_box(filled_pool(txs)))
        });
        // A detailed snapshot merges the rows changed since the previous
        // one; `churn` alone is the baseline to subtract.
        for k in [10usize, 300] {
            let mut churn = Churn::new(n, k);
            group.bench_function(BenchmarkId::new(format!("churn/{k}"), n), |b| {
                b.iter(|| churn.churn())
            });
            let mut churn = Churn::new(n, k);
            churn.pool.snapshot(0);
            group.bench_function(BenchmarkId::new(format!("churn_then_snapshot/{k}"), n), |b| {
                b.iter(|| {
                    churn.churn();
                    black_box(churn.pool.snapshot(1))
                })
            });
        }
        // The assembler's read: heapify every resident's key, pop about a
        // block's worth best-first.
        let pool = filled_pool(&txs);
        group.bench_with_input(BenchmarkId::new("best_keys/300", n), &pool, |b, pool| {
            b.iter(|| black_box(pool.anc_keys_best_first().take(300).count()))
        });
        // Ablation: the pool's on-demand fee-rate order vs sorting all
        // entries by hand (what a naive implementation would do per block
        // template).
        group.bench_with_input(BenchmarkId::new("iter_indexed", n), &pool, |b, pool| {
            b.iter(|| {
                let first = pool.iter_by_fee_rate_desc().take(500).count();
                black_box(first)
            })
        });
        group.bench_with_input(BenchmarkId::new("iter_resort", n), &pool, |b, pool| {
            b.iter(|| {
                let mut entries: Vec<_> =
                    pool.iter().map(|e| (e.fee_rate(), e.sequence(), e.txid())).collect();
                entries.sort_unstable_by(|a, b| b.cmp(a));
                black_box(entries.into_iter().take(500).count())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_mempool);
criterion_main!(benches);
