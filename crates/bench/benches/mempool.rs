//! Mempool operation costs: admission per node role, snapshotting, and
//! the fee-rate-index ablation (maintained index vs re-sorting on demand).

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

/// Primes a fresh pool the way one node role does before admission.
type Prime = fn(&mut Mempool);

/// The priming of each node role, which fixes the derived indexes every
/// admission then keeps current: a relay reads none, a miner hub walks the
/// ancestor-score order, an observer snapshots, and a capped observer also
/// enforces its size limit.
const ROLES: [(&str, Prime); 4] = [
    ("plain", |_| {}),
    ("miner", |pool| {
        let _ = pool.anc_score_iter();
    }),
    ("observer", |pool| {
        pool.snapshot(0);
    }),
    ("capped", |pool| {
        pool.snapshot(0);
        pool.limit_size(u64::MAX);
    }),
];

fn filled_pool(prime: Prime, txs: &[(Transaction, Amount)]) -> Mempool {
    let mut pool = Mempool::new(MempoolPolicy::default());
    prime(&mut pool);
    for (i, (tx, fee)) in txs.iter().enumerate() {
        pool.add(tx.clone(), *fee, i as u64).expect("distinct inputs");
    }
    pool
}

fn bench_mempool(c: &mut Criterion) {
    let mut group = c.benchmark_group("mempool");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(8));
    for n in [1_000usize, 10_000] {
        let txs = transactions(n, 7);
        for (role, prime) in ROLES {
            let id = BenchmarkId::new(format!("add_n/{role}"), n);
            group.bench_with_input(id, &txs, |b, txs| {
                b.iter(|| black_box(filled_pool(prime, txs)))
            });
        }
        let pool = filled_pool(|_| {}, &txs);
        group.bench_with_input(BenchmarkId::new("snapshot", n), &pool, |b, pool| {
            let mut pool = pool.clone();
            let mut t = 0u64;
            b.iter(|| {
                t += 1;
                black_box(pool.snapshot(t))
            })
        });
        // Ablation: reading the maintained fee-rate index vs sorting all
        // entries on demand (what a naive implementation would do per
        // block template).
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
