//! Property test: the indexed hot-path assembler produces bit-identical
//! templates to the walk-everything reference across randomized mempools —
//! CPFP packages with shared parents and several parents per child,
//! accelerations, decelerations, and exclusions included.

use cn_chain::{Address, Amount, OutPoint, Params, Transaction, Txid};
use cn_mempool::{Mempool, MempoolPolicy};
use cn_miner::{BlockAssembler, Priority};
use cn_stats::SimRng;

/// A deterministic priority mix keyed on the txid, so both assemblers see
/// the same classification: ~10% accelerated, ~10% decelerated, ~10%
/// excluded, rest normal.
fn classify_by_txid(txid: &Txid) -> Priority {
    match txid.0.as_bytes()[0] % 10 {
        0 => Priority::Accelerate,
        1 => Priority::Decelerate,
        2 => Priority::Exclude,
        _ => Priority::Normal,
    }
}

/// The dark-fee shape: ~20% of txids accelerated, the rest Normal, no
/// deceleration or exclusion.
fn accelerate_by_txid(txid: &Txid) -> Priority {
    match txid.0.as_bytes()[0] % 5 {
        0 => Priority::Accelerate,
        _ => Priority::Normal,
    }
}

/// Outputs per transaction: how many children one parent can have.
const OUTPUTS: u32 = 3;

/// Builds a randomized mempool. Each transaction spends one to three
/// outputs, and each input spends an unspent output of an earlier resident
/// half of the time, so a parent can have several children and a child
/// several in-pool parents. Sizes and fee rates spread wide enough to
/// shuffle package scores.
fn random_mempool(seed: u64) -> Mempool {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut mempool = Mempool::new(MempoolPolicy::accept_all());
    let mut unspent: Vec<OutPoint> = Vec::new(); // resident outputs nobody spends yet
    let n = 40 + rng.next_below(80);
    for i in 0..n {
        let mut builder = Transaction::builder();
        let mut has_parent = false;
        for k in 0..1 + rng.next_below(3) {
            let prevout = if !unspent.is_empty() && rng.next_bool(0.5) {
                has_parent = true;
                unspent.swap_remove(rng.next_below(unspent.len() as u64) as usize)
            } else {
                let mut bytes = [0u8; 32];
                bytes[..8].copy_from_slice(&(seed ^ 0xdead_beef).to_le_bytes());
                bytes[8..16].copy_from_slice(&i.to_le_bytes());
                bytes[16..24].copy_from_slice(&k.to_le_bytes());
                OutPoint { txid: Txid::from(bytes), vout: 0 }
            };
            let script_len = 60 + rng.next_below(1_800) as usize;
            builder = builder.add_input_with_sizes(prevout.txid, prevout.vout, script_len, 0);
        }
        for vout in 0..OUTPUTS {
            let label = format!("r{seed}-{i}-{vout}");
            builder = builder.pay_to(Address::from_label(&label), Amount::from_sat(20_000));
        }
        let tx = builder.build();
        // Rates from below-floor to whale; CPFP children lean high so
        // child-pays-for-parent packages actually outrank their parents.
        let rate = 1 + rng.next_below(if has_parent { 400 } else { 150 });
        let fee = Amount::from_sat(tx.vsize() * rate);
        // The package limits refuse some deep or wide packages; the pool
        // keeps whatever it admits.
        let Ok(txid) = mempool.add(tx, fee, i) else { continue };
        unspent.extend((0..OUTPUTS).map(|vout| OutPoint { txid, vout }));
    }
    mempool
}

fn assert_templates_identical<F>(
    assembler: &mut BlockAssembler,
    mempool: &Mempool,
    classify: F,
    seed: u64,
) where
    F: Fn(&Txid) -> Priority,
{
    let fast = assembler.assemble(mempool, |e| classify(&e.txid()));
    let reference = assembler.assemble_reference(mempool, |e| classify(&e.txid()));
    let fast_ids: Vec<Txid> = fast.transactions.iter().map(|t| t.txid()).collect();
    let ref_ids: Vec<Txid> = reference.transactions.iter().map(|t| t.txid()).collect();
    assert_eq!(fast_ids, ref_ids, "selection/order diverged (seed {seed})");
    assert_eq!(fast.fees, reference.fees, "fees diverged (seed {seed})");
    assert_eq!(fast.total_fees, reference.total_fees, "total fees diverged (seed {seed})");
    assert_eq!(fast.total_weight, reference.total_weight, "weight diverged (seed {seed})");
}

#[test]
fn indexed_assembler_matches_reference_when_everything_fits() {
    let mut assembler = BlockAssembler::new(Params::mainnet());
    for seed in 0..25 {
        assert_templates_identical(&mut assembler, &random_mempool(seed), classify_by_txid, seed);
    }
}

#[test]
fn indexed_assembler_matches_reference_under_contention() {
    // Shrink the budget so only a fraction of the pool fits: exercises
    // budget exhaustion, the min-weight early exit, and package splitting
    // at the boundary.
    let mut params = Params::mainnet();
    params.max_block_weight = 120_000;
    let mut assembler = BlockAssembler::new(params);
    for seed in 100..125 {
        assert_templates_identical(&mut assembler, &random_mempool(seed), classify_by_txid, seed);
    }
}

#[test]
fn indexed_assembler_matches_reference_norm_only() {
    // The pure fee-rate norm (no priority map at all) is the hot path the
    // majority of simulated pools run; cover it separately.
    let mut params = Params::mainnet();
    params.max_block_weight = 200_000;
    let mut assembler = BlockAssembler::new(params);
    for seed in 200..215 {
        let mempool = random_mempool(seed);
        assert_templates_identical(&mut assembler, &mempool, |_| Priority::Normal, seed);
    }
}

#[test]
fn indexed_assembler_matches_reference_accelerate_only_under_contention() {
    // Dark-fee pools accelerate a few transactions and leave the rest
    // Normal. The accelerate phase moves the scores of its selections'
    // descendants — siblings and co-parented children included — before
    // the Normal phase starts, and under a contended budget the order in
    // which the Normal phase meets those candidates decides what fits.
    // A pool here averages ~620,000 WU, so these budgets take about two
    // thirds and one third of it.
    for (weight, seeds) in [(400_000, 0..300), (200_000, 300..600)] {
        let mut params = Params::mainnet();
        params.max_block_weight = weight;
        let mut assembler = BlockAssembler::new(params);
        for seed in seeds {
            let mempool = random_mempool(seed);
            assert_templates_identical(&mut assembler, &mempool, accelerate_by_txid, seed);
        }
        let stats = assembler.stats();
        assert_eq!(stats.rebuilds_with_accelerate, stats.full_rebuilds);
        assert_eq!(stats.rebuilds_with_decelerate + stats.rebuilds_with_exclude, 0);
    }
}
