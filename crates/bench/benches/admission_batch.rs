//! Fan-out admission ablation: per-delivery prechecks vs the shared
//! memoized precheck.
//!
//! The simulator's relay layer fans every broadcast to many node views.
//! Admission splits into a node-independent prefix (txid, vsize,
//! standalone rate, distinct prevout txids — [`AdmissionPrecheck`]) and
//! the node-local graph work (conflict maps, ancestor closure, index
//! maintenance). Two strategies over the same CPFP-heavy workload and
//! the same `K` receiving pools:
//!
//! * `per_delivery` — `add_shared` recomputes the precheck for every
//!   `(tx, node)` pair, the shape before the relay memo.
//! * `precheck_memoized` — one [`RelayPayload`] per transaction; the
//!   first delivery populates the memo, the remaining `K - 1` reuse it.
//!
//! The interesting figure is `per_delivery / precheck_memoized` as `K`
//! grows: the gap is exactly the redundant prefix work the relay memo
//! deletes.

use cn_chain::{Address, Amount, Transaction, Txid};
use cn_mempool::{Mempool, MempoolPolicy};
use cn_net::RelayPayload;
use cn_stats::SimRng;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::sync::Arc;

/// Number of node views every broadcast fans out to.
const FANOUT: usize = 8;

/// One broadcast's inputs: the transaction plus its fee. Same CPFP mix
/// as the `mempool_admission` bench (≈ a third of transactions chain
/// off a resident parent) so ancestor walks run on every pool.
fn workload(n: usize, seed: u64) -> Vec<(Transaction, Amount)> {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut resident: Vec<(Txid, u32)> = Vec::new();
    (0..n)
        .map(|i| {
            let parent = if !resident.is_empty() && rng.next_below(3) == 0 {
                let idx = rng.next_below(resident.len() as u64) as usize;
                (resident[idx].1 < 2).then(|| {
                    let vout = resident[idx].1;
                    resident[idx].1 += 1;
                    (resident[idx].0, vout)
                })
            } else {
                None
            };
            let (src, vout) = parent.unwrap_or_else(|| {
                let mut bytes = [0u8; 32];
                bytes[..8].copy_from_slice(&(i as u64).to_le_bytes());
                bytes[8] = 0xA5;
                (Txid::from(bytes), 0)
            });
            let tx = Transaction::builder()
                .add_input_with_sizes(src, vout, 107, 0)
                .pay_to(Address::from_label(&format!("l{i}")), Amount::from_sat(30_000))
                .pay_to(Address::from_label(&format!("r{i}")), Amount::from_sat(20_000))
                .build();
            let fee = Amount::from_sat(tx.vsize() * (2 + rng.next_below(200)));
            resident.push((tx.txid(), 0));
            (tx, fee)
        })
        .collect()
}

fn fresh_pools() -> Vec<Mempool> {
    (0..FANOUT).map(|_| Mempool::new(MempoolPolicy::default())).collect()
}

fn bench_fanout(c: &mut Criterion) {
    let mut group = c.benchmark_group("admission_batch");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(8));
    for n in [1_000usize, 5_000] {
        let txs: Vec<(Arc<Transaction>, Amount)> =
            workload(n, 17).into_iter().map(|(tx, fee)| (Arc::new(tx), fee)).collect();

        group.bench_with_input(BenchmarkId::new("per_delivery", n), &txs, |b, txs| {
            b.iter(|| {
                let mut pools = fresh_pools();
                for (i, (tx, fee)) in txs.iter().enumerate() {
                    for pool in &mut pools {
                        // Precheck recomputed inside every call.
                        let _ = black_box(pool.add_shared(Arc::clone(tx), *fee, i as u64));
                    }
                }
                black_box(pools.iter().map(Mempool::len).sum::<usize>())
            })
        });

        group.bench_with_input(BenchmarkId::new("precheck_memoized", n), &txs, |b, txs| {
            b.iter(|| {
                let mut pools = fresh_pools();
                for (i, (tx, fee)) in txs.iter().enumerate() {
                    let payload = RelayPayload::new(Arc::clone(tx), *fee);
                    for pool in &mut pools {
                        let _ = black_box(pool.add_prechecked(
                            Arc::clone(&payload.tx),
                            payload.fee,
                            i as u64,
                            payload.precheck(),
                        ));
                    }
                }
                black_box(pools.iter().map(Mempool::len).sum::<usize>())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fanout);
criterion_main!(benches);
