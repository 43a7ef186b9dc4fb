//! Admission-path ablation: interned `u32` handles vs the pre-interned
//! Txid-keyed bookkeeping they replaced.
//!
//! `Mempool::add` resolves each input's parent once through the intern
//! table and then runs every graph step — parent dedup, ancestor closure,
//! package-limit checks, edge insertion — on dense `u32` handles. The
//! baseline here re-implements just that admission *bookkeeping* the way
//! the pre-intern mempool did it: `Txid`-keyed std `HashMap`s and
//! `HashSet` closures, hashing 32-byte keys at every hop. The interned
//! column is the complete admission of a pool that has built no derived
//! index (entry allocation and cached package scores included; the
//! `mempool` bench's `add_n/*` rows price each index), so the baseline is
//! a floor for the old graph cost, not a full-system rival — the figure to
//! watch is how the two *scale* with pool size and chain depth, where
//! the per-hop handle-vs-txid difference compounds. The workload is
//! CPFP-heavy (≈ a third of transactions chain off a resident parent) so
//! ancestor walks actually run; independent admissions mostly measure the
//! conflict/lookup maps.

use cn_chain::{Address, Amount, Transaction, Txid};
use cn_mempool::{Mempool, MempoolPolicy};
use cn_stats::SimRng;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::collections::{HashMap, HashSet};
use std::hint::black_box;

/// One admission's inputs: the transaction plus its fee.
fn workload(n: usize, seed: u64) -> Vec<(Transaction, Amount)> {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut resident: Vec<(Txid, u32)> = Vec::new();
    (0..n)
        .map(|i| {
            // ~1/3 of transactions spend a resident parent's output (two
            // children max per parent, matching mempool child fan-out in
            // the simulated workloads).
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

/// The pre-intern admission bookkeeping, verbatim in shape: every graph
/// edge and closure step keyed by 32-byte `Txid`s in SipHashed std maps.
/// It tracks exactly what admission needs — spent outpoints for conflict
/// checks, parent/child adjacency, and the ancestor closure for package
/// limits — and nothing the interned path doesn't also pay for.
#[derive(Default)]
struct PreInternedGraph {
    parents: HashMap<Txid, Vec<Txid>>,
    children: HashMap<Txid, Vec<Txid>>,
    spent: HashMap<(Txid, u32), Txid>,
    resident: HashSet<Txid>,
}

impl PreInternedGraph {
    fn admit(&mut self, tx: &Transaction, max_ancestors: usize) -> bool {
        let txid = tx.txid();
        if self.resident.contains(&txid) {
            return false;
        }
        for input in tx.inputs() {
            if self.spent.contains_key(&(input.prevout.txid, input.prevout.vout)) {
                return false;
            }
        }
        let mut parents: Vec<Txid> = Vec::new();
        for input in tx.inputs() {
            let p = input.prevout.txid;
            if self.resident.contains(&p) && !parents.contains(&p) {
                parents.push(p);
            }
        }
        // Ancestor closure over Txid keys — the package-limit walk.
        let mut closure: HashSet<Txid> = HashSet::new();
        let mut stack = parents.clone();
        while let Some(t) = stack.pop() {
            if !closure.insert(t) {
                continue;
            }
            if let Some(ps) = self.parents.get(&t) {
                stack.extend(ps.iter().copied());
            }
        }
        if closure.len() >= max_ancestors {
            return false;
        }
        for input in tx.inputs() {
            self.spent.insert((input.prevout.txid, input.prevout.vout), txid);
        }
        for p in &parents {
            self.children.entry(*p).or_default().push(txid);
        }
        self.parents.insert(txid, parents);
        self.resident.insert(txid);
        true
    }
}

fn bench_admission(c: &mut Criterion) {
    let mut group = c.benchmark_group("mempool_admission");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(8));
    for n in [1_000usize, 10_000] {
        let txs = workload(n, 11);
        group.bench_with_input(BenchmarkId::new("interned", n), &txs, |b, txs| {
            b.iter(|| {
                let mut pool = Mempool::new(MempoolPolicy::default());
                for (i, (tx, fee)) in txs.iter().enumerate() {
                    let _ = black_box(pool.add(tx.clone(), *fee, i as u64));
                }
                black_box(pool.len())
            })
        });
        group.bench_with_input(BenchmarkId::new("pre_interned_baseline", n), &txs, |b, txs| {
            b.iter(|| {
                let mut graph = PreInternedGraph::default();
                let mut admitted = 0usize;
                for (tx, _) in txs {
                    if black_box(graph.admit(tx, 25)) {
                        admitted += 1;
                    }
                }
                black_box(admitted)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_admission);
criterion_main!(benches);
