//! Block-template construction cost, and the CPFP ablation: the
//! ancestor-package-aware assembler vs a naive per-transaction greedy.
//! Templates are timed for a norm-following pool and for a dark-fee pool
//! that accelerates a fifth of the transactions, so both the Normal phase
//! alone and the accelerate-then-Normal sequence are measured.

use cn_chain::{Address, Amount, Params, Transaction, TxOut, Txid};
use cn_mempool::{Mempool, MempoolEntry, MempoolPolicy};
use cn_miner::{BlockAssembler, BlockTemplate, Priority};
use cn_stats::SimRng;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

/// Mempool with `n` transactions, ~25 % of which are CPFP children of
/// low-fee parents (the package-aware assembler earns its keep there).
fn build_pool(n: usize, seed: u64) -> Mempool {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut pool = Mempool::new(MempoolPolicy::accept_all());
    let mut parents: Vec<Transaction> = Vec::new();
    for i in 0..n {
        let make_child = !parents.is_empty() && rng.next_bool(0.25);
        let tx = if make_child {
            let parent = &parents[rng.next_below(parents.len() as u64) as usize];
            Transaction::builder()
                .add_input_with_sizes(parent.txid(), 0, 107, 0)
                .add_output(TxOut::to_address(Amount::from_sat(10_000), Address::from_label("c")))
                .build()
        } else {
            let mut bytes = [0u8; 32];
            bytes[..8].copy_from_slice(&(i as u64).to_le_bytes());
            Transaction::builder()
                .add_input_with_sizes(bytes.into(), 0, 107, 0)
                .add_output(TxOut::to_address(Amount::from_sat(50_000), Address::from_label("p")))
                .build()
        };
        let rate = if make_child { 50 + rng.next_below(200) } else { rng.next_below(60) };
        let fee = Amount::from_sat(tx.vsize() * rate);
        if pool.add(tx.clone(), fee, i as u64).is_ok() && !make_child {
            parents.push(tx);
        }
    }
    pool
}

/// Dark-fee classification: about a fifth of txids accelerated, the rest
/// Normal.
fn accelerate_fifth(entry: &MempoolEntry) -> Priority {
    if entry.txid().0.as_bytes()[0].is_multiple_of(5) {
        Priority::Accelerate
    } else {
        Priority::Normal
    }
}

fn txids(template: &BlockTemplate) -> Vec<Txid> {
    template.transactions.iter().map(|t| t.txid()).collect()
}

/// Naive greedy: take transactions in standalone fee-rate order, skipping
/// any whose parent is not yet included (no package scoring).
fn naive_greedy_revenue(pool: &Mempool, params: &Params) -> u64 {
    let budget = params.max_block_weight - params.coinbase_reserved_weight;
    let mut used = 0u64;
    let mut revenue = 0u64;
    let mut included = std::collections::HashSet::new();
    for entry in pool.iter_by_fee_rate_desc() {
        let parents_ok = entry
            .tx()
            .inputs()
            .iter()
            .all(|i| !pool.contains(&i.prevout.txid) || included.contains(&i.prevout.txid));
        if !parents_ok {
            continue;
        }
        let w = entry.tx().weight();
        if used + w > budget {
            continue;
        }
        used += w;
        revenue += entry.fee().to_sat();
        included.insert(entry.txid());
    }
    revenue
}

fn bench_assembler(c: &mut Criterion) {
    let mut group = c.benchmark_group("assembler");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(8));
    let params = Params { max_block_weight: 400_000, ..Params::mainnet() };
    for n in [1_000usize, 5_000] {
        let pool = build_pool(n, 99);
        let mut assembler = BlockAssembler::new(params.clone());
        group.bench_with_input(BenchmarkId::new("gbt_package_aware", n), &pool, |b, pool| {
            b.iter(|| black_box(assembler.assemble(pool, |_| Priority::Normal)))
        });
        group.bench_with_input(BenchmarkId::new("naive_greedy", n), &pool, |b, pool| {
            b.iter(|| black_box(naive_greedy_revenue(pool, &params)))
        });
        let accelerated = assembler.assemble(&pool, accelerate_fifth);
        let reference = assembler.assemble_reference(&pool, accelerate_fifth);
        assert_eq!(
            (txids(&accelerated), &accelerated.fees),
            (txids(&reference), &reference.fees),
            "assembler disagrees with the reference at n={n}"
        );
        group.bench_with_input(BenchmarkId::new("gbt_accelerate_only", n), &pool, |b, pool| {
            b.iter(|| black_box(assembler.assemble(pool, accelerate_fifth)))
        });
        // Report the revenue gap once per size (printed via assertion
        // message if the package-aware assembler ever loses).
        let tpl = assembler.assemble(&pool, |_| Priority::Normal);
        let naive = naive_greedy_revenue(&pool, &params);
        assert!(
            tpl.total_fees.to_sat() >= naive,
            "package-aware assembler must never earn less (gbt {} vs naive {naive})",
            tpl.total_fees.to_sat()
        );
    }
    group.finish();
}

criterion_group!(benches, bench_assembler);
criterion_main!(benches);
