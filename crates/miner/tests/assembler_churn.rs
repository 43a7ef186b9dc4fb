//! Churn property test: the incremental assembler must stay bit-identical
//! to [`BlockAssembler::assemble_reference`] across a *lifetime* of mempool
//! churn, not just on a freshly built pool.
//!
//! Each round applies a randomized batch of the mutations the pool's cached
//! ancestor scores have to absorb — plain admission, CPFP packages
//! delivered partially or out of order (parent lost or reordered behind its
//! child, per [`FaultPlan::scaled`] link probabilities), parents with two
//! children, BIP-125 replacements, expiry eviction, size-limit eviction —
//! then assembles a block with the incremental path, checks it
//! byte-for-byte against the reference walk, connects it, and checks the
//! *post-connect* pool again. The Normal phase heapifies the pool's keys
//! at their cached scores for each template, and block connect rescores
//! every survivor that lost an ancestor; a stale score is exactly the kind
//! of bug only multi-block churn exposes.

use cn_chain::{
    Address, Amount, Block, BlockHash, CoinbaseBuilder, FeeRate, Hash256, Params, PoolMarker,
    Transaction, Txid,
};
use cn_mempool::{Mempool, MempoolPolicy};
use cn_miner::{AssemblyStats, BlockAssembler, Priority};
use cn_net::FaultPlan;
use cn_stats::SimRng;
use std::sync::Arc;

/// Deterministic priority mix keyed on the txid (same mix as the
/// single-shot identity test): ~10% each of accelerate / decelerate /
/// exclude, rest normal.
fn classify_by_txid(txid: &Txid) -> Priority {
    match txid.0.as_bytes()[0] % 10 {
        0 => Priority::Accelerate,
        1 => Priority::Decelerate,
        2 => Priority::Exclude,
        _ => Priority::Normal,
    }
}

/// Driver state for one churn run.
struct Churn {
    rng: SimRng,
    mempool: Mempool,
    faults: FaultPlan,
    /// Parents whose delivery was dropped by the fault plan: their
    /// children sit in the pool scoring as parentless singletons until a
    /// later round retransmits the parent and the admission path
    /// reconstructs the package edge (the partial-delivery CPFP lock).
    pending_parents: Vec<(Arc<Transaction>, Amount)>,
    next_funding: u64,
    now: u64,
}

impl Churn {
    fn new(seed: u64, intensity: f64) -> Churn {
        Churn {
            rng: SimRng::seed_from_u64(seed),
            mempool: Mempool::new(MempoolPolicy::accept_all()),
            faults: FaultPlan::scaled(intensity),
            pending_parents: Vec::new(),
            next_funding: 0,
            now: 0,
        }
    }

    /// A fresh confirmed-outpoint txid no pool transaction spends yet.
    fn funding_txid(&mut self) -> Txid {
        let mut bytes = [0u8; 32];
        bytes[..8].copy_from_slice(&self.next_funding.to_le_bytes());
        bytes[8] = 0xF0;
        self.next_funding += 1;
        Txid::from(bytes)
    }

    /// Builds a two-output transaction spending `(src, vout)` at `rate`
    /// sat/vB; the label counter keeps txids unique across the run.
    fn make_tx(&mut self, src: Txid, vout: u32, rate: u64) -> (Transaction, Amount) {
        let script_len = 60 + self.rng.next_below(1_500) as usize;
        let n = self.next_funding;
        self.next_funding += 1;
        let tx = Transaction::builder()
            .add_input_with_sizes(src, vout, script_len, 0)
            .pay_to(Address::from_label(&format!("a{n}")), Amount::from_sat(20_000))
            .pay_to(Address::from_label(&format!("b{n}")), Amount::from_sat(15_000))
            .build();
        let fee = Amount::from_sat(tx.vsize() * rate);
        (tx, fee)
    }

    /// One randomized mutation. Admission failures (package limits,
    /// replacement rules) are legal outcomes, not test failures — the
    /// property under test is assembler identity, whatever the pool holds.
    fn step(&mut self, resident: &[Txid]) {
        self.now += 1 + self.rng.next_below(5_000);
        match self.rng.next_below(11) {
            // Independent admission.
            0..=2 => {
                let src = self.funding_txid();
                let rate = 1 + self.rng.next_below(150);
                let (tx, fee) = self.make_tx(src, 0, rate);
                let _ = self.mempool.add(tx, fee, self.now);
            }
            // CPFP package, delivered per the fault plan: intact, child
            // first (reorder), or child only (parent lost until a later
            // retransmission).
            3..=5 => {
                let src = self.funding_txid();
                let parent_rate = 1 + self.rng.next_below(40);
                let (parent, parent_fee) = self.make_tx(src, 0, parent_rate);
                let child_rate = 50 + self.rng.next_below(400);
                let (child, child_fee) = self.make_tx(parent.txid(), 0, child_rate);
                let parent = Arc::new(parent);
                if self.rng.next_bool(self.faults.link.loss_prob) {
                    let _ = self.mempool.add(child, child_fee, self.now);
                    self.pending_parents.push((parent, parent_fee));
                } else if self.rng.next_bool(self.faults.link.reorder_prob) {
                    let _ = self.mempool.add(child, child_fee, self.now);
                    let _ = self.mempool.add_shared(parent, parent_fee, self.now);
                } else {
                    let _ = self.mempool.add_shared(parent, parent_fee, self.now);
                    let _ = self.mempool.add(child, child_fee, self.now);
                }
            }
            // Retransmit a lost parent under an already-resident child.
            6 => {
                if let Some((parent, fee)) = self.pending_parents.pop() {
                    let _ = self.mempool.add_shared(parent, fee, self.now);
                }
            }
            // BIP-125 replacement of a resident transaction (plus its
            // descendants): outbid the displaced package by a margin that
            // also covers the replacement's own relay.
            7..=8 => {
                let Some(&victim) = self.rng.choose(resident) else { return };
                let Some(entry) = self.mempool.get(&victim) else { return };
                let prevout = entry.tx().inputs()[0].prevout;
                let Some((displaced, _)) = self.mempool.descendant_package(&victim) else {
                    return;
                };
                let (tx, _) = self.make_tx(prevout.txid, prevout.vout, 1);
                let fee = displaced
                    + FeeRate::MIN_RELAY.fee_for_vsize(tx.vsize())
                    + Amount::from_sat(1 + self.rng.next_below(5_000));
                let _ = self.mempool.add_with_rbf(Arc::new(tx), fee, self.now);
            }
            // A parent with two children, one per output: selecting
            // either child's package moves its sibling's score.
            9 => {
                let src = self.funding_txid();
                let parent_rate = 1 + self.rng.next_below(40);
                let (parent, parent_fee) = self.make_tx(src, 0, parent_rate);
                let parent_id = parent.txid();
                let _ = self.mempool.add(parent, parent_fee, self.now);
                for vout in 0..2 {
                    let rate = 20 + self.rng.next_below(400);
                    let (child, fee) = self.make_tx(parent_id, vout, rate);
                    let _ = self.mempool.add(child, fee, self.now);
                }
            }
            // Eviction churn: expiry or size-limit trimming.
            _ => {
                if self.rng.next_bool(0.5) {
                    let _ = self.mempool.evict_expired(self.now, 40_000);
                } else {
                    let cap = self.mempool.total_vsize().saturating_mul(3) / 4;
                    let _ = self.mempool.limit_size(cap.max(1_000));
                }
            }
        }
    }
}

/// Asserts the incremental template equals the reference walk bit for bit:
/// same transactions in the same order (checked through the merkle-rooted
/// block hash, so any body divergence flips it), same fee vector, same
/// totals.
fn assert_identical(fast: &cn_miner::BlockTemplate, reference: &cn_miner::BlockTemplate, tag: &str) {
    let seal = |template: &cn_miner::BlockTemplate| {
        let coinbase = CoinbaseBuilder::new(1)
            .marker(PoolMarker::new("churn"))
            .reward(Address::from_label("miner"), Amount::from_sat(625_000_000))
            .build();
        Block::assemble(
            2,
            BlockHash(Hash256::from([0u8; 32])),
            0,
            0,
            coinbase,
            template.transactions.iter().cloned(),
        )
    };
    assert_eq!(
        seal(fast).block_hash(),
        seal(reference).block_hash(),
        "template bodies diverged ({tag})"
    );
    assert_eq!(fast.fees, reference.fees, "fee vector diverged ({tag})");
    assert_eq!(fast.total_fees, reference.total_fees, "total fees diverged ({tag})");
    assert_eq!(fast.total_weight, reference.total_weight, "total weight diverged ({tag})");
}

/// Runs `rounds` churn rounds; after each, assembles with the incremental
/// path under `classify`, checks identity, connects the block, and checks
/// identity again against the post-connect pool.
fn run_churn<F>(
    seed: u64,
    intensity: f64,
    rounds: usize,
    params: Params,
    classify: F,
) -> AssemblyStats
where
    F: Fn(&Txid) -> Priority,
{
    let mut churn = Churn::new(seed, intensity);
    let mut assembler = BlockAssembler::new(params);
    for round in 0..rounds {
        let resident: Vec<Txid> = churn.mempool.iter().map(|e| e.txid()).collect();
        for _ in 0..20 {
            churn.step(&resident);
        }
        let tag = format!("seed {seed} intensity {intensity} round {round}");
        let fast = assembler.assemble(&churn.mempool, |e| classify(&e.txid()));
        let reference = assembler.assemble_reference(&churn.mempool, |e| classify(&e.txid()));
        assert_identical(&fast, &reference, &tag);

        let coinbase = CoinbaseBuilder::new(round as u64 + 1)
            .marker(PoolMarker::new("churn"))
            .reward(Address::from_label("miner"), Amount::from_sat(625_000_000))
            .build();
        let block = Block::assemble(
            2,
            BlockHash(Hash256::from([0u8; 32])),
            churn.now,
            round as u32,
            coinbase,
            fast.transactions.iter().cloned(),
        );
        churn.mempool.apply_block(&block);

        // The connect just rescored the survivors; the very next template,
        // heapified at those scores, must still match the reference over
        // the leftover pool.
        let fast = assembler.assemble(&churn.mempool, |e| classify(&e.txid()));
        let reference = assembler.assemble_reference(&churn.mempool, |e| classify(&e.txid()));
        assert_identical(&fast, &reference, &format!("{tag} post-connect"));
    }
    assembler.stats()
}

#[test]
fn churn_norm_assembler_matches_reference_every_block() {
    // All-Normal classification: every template runs the Normal phase
    // alone, across fault intensities from inert to severe.
    let mut params = Params::mainnet();
    params.max_block_weight = 150_000;
    let mut hits = 0;
    for (seed, intensity) in [(1u64, 0.0), (2, 0.35), (3, 0.85)] {
        let stats = run_churn(seed, intensity, 8, params.clone(), |_| Priority::Normal);
        assert_eq!(stats.full_rebuilds, 0, "all-Normal churn must never force a full rebuild");
        hits += stats.incremental_hits;
    }
    assert!(hits > 0, "incremental path never engaged");
}

#[test]
fn churn_accelerate_only_matches_reference_every_block() {
    // Accelerate-only classification (~20% of txids, no decelerate or
    // exclude), the shape dark-fee pools assemble block after block: the
    // accelerate phase moves the scores of its selections' Normal
    // descendants, siblings included, before the Normal phase walks the
    // keys it heapified for this template, and that walk must hold exactly
    // the reference heap's copies of them. Identity must hold across the
    // same churn as the mixed test.
    let mut params = Params::mainnet();
    params.max_block_weight = 150_000;
    let mut rebuilds = 0;
    for (seed, intensity) in [(21u64, 0.0), (22, 0.4), (23, 0.85)] {
        let stats = run_churn(seed, intensity, 8, params.clone(), |txid| {
            match txid.0.as_bytes()[0] % 5 {
                0 => Priority::Accelerate,
                _ => Priority::Normal,
            }
        });
        assert_eq!(
            stats.rebuilds_with_accelerate, stats.full_rebuilds,
            "accelerate-only churn: every rebuild must be acceleration-driven"
        );
        assert_eq!(stats.rebuilds_with_decelerate, 0);
        assert_eq!(stats.rebuilds_with_exclude, 0);
        rebuilds += stats.full_rebuilds;
    }
    assert!(rebuilds > 0, "accelerate-only churn never exercised the full path");
}

#[test]
fn churn_classified_assembler_matches_reference_every_block() {
    // Mixed priorities run all three phases; identity must hold there
    // under the same churn, partial delivery included.
    let mut params = Params::mainnet();
    params.max_block_weight = 150_000;
    let mut rebuilds = 0;
    for (seed, intensity) in [(11u64, 0.15), (12, 0.6), (13, 0.85)] {
        let stats = run_churn(seed, intensity, 8, params.clone(), classify_by_txid);
        // Every rebuild reason is bounded by the rebuild count, and a
        // rebuild must have at least one reason recorded.
        for reason in [
            stats.rebuilds_with_accelerate,
            stats.rebuilds_with_decelerate,
            stats.rebuilds_with_exclude,
        ] {
            assert!(reason <= stats.full_rebuilds, "reason count exceeds rebuilds");
        }
        if stats.full_rebuilds > 0 {
            assert!(
                stats.rebuilds_with_accelerate
                    + stats.rebuilds_with_decelerate
                    + stats.rebuilds_with_exclude
                    > 0,
                "rebuilds recorded without any reason"
            );
        }
        rebuilds += stats.full_rebuilds;
    }
    assert!(rebuilds > 0, "classified churn never exercised the full path");
}
