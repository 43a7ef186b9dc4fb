//! A derived index built on its first read equals one kept from birth.
//!
//! The pool builds each sorted index (the assembler's ancestor-score
//! order, the `limit_size` eviction order, the snapshot rows) the first
//! time its reader asks, and keeps it current after that. The property
//! drives two pools through one random history. `eager` reads all three
//! before its first mutation, so it maintains them from birth; `late`
//! reads them only at the end, except that a history with size caps
//! builds its eviction order at the first `limit_size`. Every step must
//! return the same result in both pools, and the final reads must agree.

use cn_chain::{Address, Amount, Block, BlockHash, CoinbaseBuilder, Transaction, Txid};
use cn_mempool::{AncKey, Mempool, MempoolPolicy};
use proptest::prelude::*;

/// A two-output transaction spending `inputs`; `value` keeps otherwise
/// identical spends of one outpoint distinct.
fn spend(inputs: &[(Txid, u32)], value: u64) -> Transaction {
    let mut builder = Transaction::builder();
    for &(txid, vout) in inputs {
        builder = builder.add_input_with_sizes(txid, vout, 107, 0);
    }
    builder
        .pay_to(Address::from_label("a"), Amount::from_sat(value))
        .pay_to(Address::from_label("b"), Amount::from_sat(value))
        .build()
}

/// A confirmed outpoint no other transaction in the history spends.
fn fresh_prevout(counter: &mut u32) -> (Txid, u32) {
    *counter += 1;
    let mut bytes = [0xEE; 32];
    bytes[..4].copy_from_slice(&counter.to_le_bytes());
    (bytes.into(), 0)
}

/// The `pick`-th resident in slab order.
fn resident(pool: &Mempool, pick: u32) -> Option<Txid> {
    let n = pool.len();
    (n > 0).then(|| pool.iter().nth(pick as usize % n).expect("in range").txid())
}

fn block(height: u64, body: Vec<Transaction>) -> Block {
    let coinbase = CoinbaseBuilder::new(height)
        .reward(Address::from_label("pool"), Amount::from_btc(6))
        .build();
    Block::assemble(1, BlockHash::ZERO, height, 0, coinbase, body)
}

fn anc_order(pool: &Mempool) -> Vec<AncKey> {
    pool.anc_score_iter().copied().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn late_built_indexes_equal_maintained_ones(
        ops in proptest::collection::vec((0u8..11, any::<u32>(), 1u64..40), 1..120),
        caps in any::<bool>(),
    ) {
        // Small package limits, so refusals are part of the history too.
        let policy =
            MempoolPolicy { max_ancestors: 6, max_descendants: 6, ..MempoolPolicy::accept_all() };
        let mut eager = Mempool::new(policy);
        let _ = eager.anc_score_iter();
        eager.snapshot(0);
        eager.limit_size(u64::MAX);
        let mut late = Mempool::new(policy);

        let mut made: Vec<Transaction> = Vec::new();
        let mut withheld: Vec<Transaction> = Vec::new();
        let mut counter = 0u32;
        let mut height = 0u64;
        for (step, &(kind, pick, rate)) in ops.iter().enumerate() {
            let now = step as u64;
            let admit = match kind {
                // A root spending a confirmed outpoint.
                0..=2 => Some(spend(&[fresh_prevout(&mut counter)], 10_000 + rate)),
                // A child of an earlier transaction, resident or not; every
                // other one also spends a second parent.
                3 | 4 if !made.is_empty() => {
                    let first = &made[pick as usize % made.len()];
                    let mut inputs = vec![(first.txid(), (pick >> 16) % 2)];
                    if pick & 1 == 1 {
                        let second = &made[(pick >> 8) as usize % made.len()];
                        if second.txid() != first.txid() {
                            inputs.push((second.txid(), (pick >> 17) % 2));
                        }
                    }
                    Some(spend(&inputs, 5_000 + rate))
                }
                // A child that arrives before its withheld parent.
                5 => {
                    let parent = spend(&[fresh_prevout(&mut counter)], 10_000 + rate);
                    let child = spend(&[(parent.txid(), 0)], 5_000 + rate);
                    withheld.push(parent);
                    Some(child)
                }
                // A withheld parent arrives and reconnects to its children.
                6 if !withheld.is_empty() => {
                    Some(withheld.swap_remove(pick as usize % withheld.len()))
                }
                // A conflicting spend of an earlier transaction's input.
                7 if !made.is_empty() => {
                    let rival = &made[pick as usize % made.len()];
                    let prevout = rival.inputs()[0].prevout;
                    Some(spend(&[(prevout.txid, prevout.vout)], 7_000 + rate))
                }
                // A block confirming a whole ancestor package, and on odd
                // picks a double spend of another resident's input.
                8 => {
                    if let Some(tip) = resident(&eager, pick) {
                        let mut members = eager.ancestors(&tip);
                        members.push(tip);
                        let mut body: Vec<Transaction> = members
                            .iter()
                            .map(|t| eager.get(t).expect("resident").tx().clone())
                            .collect();
                        if pick & 1 == 1 {
                            if let Some(victim) = resident(&eager, pick >> 8) {
                                let victim = eager.get(&victim).expect("resident");
                                let prevout = victim.tx().inputs()[0].prevout;
                                body.push(spend(&[(prevout.txid, prevout.vout)], 3_000 + rate));
                            }
                        }
                        height += 1;
                        let connected = block(height, body);
                        let counts = eager.apply_block(&connected);
                        prop_assert_eq!(counts, late.apply_block(&connected));
                    }
                    None
                }
                9 => {
                    if let Some(victim) = resident(&eager, pick) {
                        let ids = |removed: Vec<cn_mempool::MempoolEntry>| -> Vec<Txid> {
                            removed.iter().map(|e| e.txid()).collect()
                        };
                        prop_assert_eq!(
                            ids(eager.remove_with_descendants(&victim)),
                            ids(late.remove_with_descendants(&victim))
                        );
                    }
                    None
                }
                10 if caps => {
                    let cap = eager.total_vsize() * (pick % 4) as u64 / 4;
                    prop_assert_eq!(eager.limit_size(cap), late.limit_size(cap));
                    None
                }
                _ => None,
            };
            if let Some(tx) = admit {
                let fee = Amount::from_sat(tx.vsize() * rate);
                made.push(tx.clone());
                prop_assert_eq!(eager.add(tx.clone(), fee, now), late.add(tx, fee, now));
            }
            prop_assert_eq!(eager.total_vsize(), late.total_vsize());
        }

        let end = ops.len() as u64;
        prop_assert_eq!(anc_order(&eager), anc_order(&late));
        prop_assert_eq!(eager.snapshot(end).entries, late.snapshot(end).entries);
        let cap = eager.total_vsize() / 2;
        prop_assert_eq!(eager.limit_size(cap), late.limit_size(cap));
        // Both pools now maintain all three indexes; they still agree.
        prop_assert_eq!(anc_order(&eager), anc_order(&late));
        prop_assert_eq!(eager.snapshot(end + 1).entries, late.snapshot(end + 1).entries);
    }
}
