//! Every order a pool builds when read equals one built from scratch.
//!
//! The pool keeps no ancestor order and no snapshot rows current on
//! admission and removal. Its best-first ancestor keys are heapified from
//! the cached ancestor scores on each read, and a snapshot merges the rows
//! changed since the previous snapshot into that snapshot's rows. Only the
//! `limit_size` eviction order is an index: the first call over the cap
//! builds it, and every mutation after keeps it sorted.
//!
//! The property drives two pools through one random history: roots,
//! children of one or two parents, children that arrive before their
//! parent, conflicting spends, blocks confirming whole ancestor packages or
//! a resident without its resident ancestors, subtree removals and, in half
//! the histories, size caps. At random steps one of the pools is read, and
//! each read must equal a reference built from the resident transactions
//! alone: the snapshot rows equal `MempoolSnapshot::from_entries` over the
//! resident rows, the package scores equal sums over ancestors and
//! descendants found by following prevouts, and the best-first keys equal
//! the keys of those scores, sorted. `eager` builds its eviction order
//! before the history starts and `late` at its first `limit_size` over the
//! cap; every step must return the same result in both pools.

use cn_chain::{Address, Amount, Block, BlockHash, CoinbaseBuilder, Transaction, Txid};
use cn_mempool::{AncKey, Mempool, MempoolPolicy, MempoolSnapshot, SnapshotEntry};
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

/// The resident parents of `txid`, found from its prevouts.
fn parents(pool: &Mempool, txid: &Txid) -> Vec<Txid> {
    let tx = pool.get(txid).expect("resident").tx();
    let mut found: Vec<Txid> = Vec::new();
    for input in tx.inputs() {
        let parent = input.prevout.txid;
        if pool.contains(&parent) && !found.contains(&parent) {
            found.push(parent);
        }
    }
    found
}

/// The resident ancestors of `txid` (excluding itself), found by following
/// prevouts rather than the pool's adjacency.
fn ancestors(pool: &Mempool, txid: &Txid) -> Vec<Txid> {
    let mut found: Vec<Txid> = Vec::new();
    let mut stack = parents(pool, txid);
    while let Some(t) = stack.pop() {
        if !found.contains(&t) {
            stack.extend(parents(pool, &t));
            found.push(t);
        }
    }
    found
}

/// Total fee and vsize of `members`.
fn package(pool: &Mempool, members: impl Iterator<Item = Txid>) -> (Amount, u64) {
    members.fold((Amount::ZERO, 0), |(fee, vsize), t| {
        let e = pool.get(&t).expect("resident");
        (fee + e.fee(), vsize + e.vsize())
    })
}

/// Checks every read of `pool` against its from-scratch reference.
fn check_reads(pool: &mut Mempool, now: u64) {
    let txids: Vec<Txid> = pool.iter().map(|e| e.txid()).collect();
    let ancestry: Vec<Vec<Txid>> = txids.iter().map(|t| ancestors(pool, t)).collect();
    let mut keys: Vec<AncKey> = Vec::with_capacity(txids.len());
    let mut rows: Vec<SnapshotEntry> = Vec::with_capacity(txids.len());
    for (txid, up) in txids.iter().zip(&ancestry) {
        let e = pool.get(txid).expect("resident");
        let (fee, vsize) = package(pool, up.iter().copied().chain([*txid]));
        assert_eq!(pool.ancestor_package(txid), Some((fee, vsize)));
        let down = txids.iter().zip(&ancestry).filter(|(_, up)| up.contains(txid));
        let (desc_fee, desc_vsize) = package(pool, down.map(|(t, _)| *t).chain([*txid]));
        assert_eq!(pool.descendant_package(txid), Some((desc_fee, desc_vsize)));
        let fee = fee.to_sat();
        keys.push(AncKey {
            approx: AncKey::approx_rate(fee, vsize),
            fee,
            vsize,
            seq: e.sequence(),
            txid: *txid,
            handle: pool.handle_of(txid).expect("resident"),
        });
        rows.push(SnapshotEntry {
            txid: *txid,
            received: e.received(),
            fee: e.fee(),
            vsize: e.vsize(),
            has_unconfirmed_parent: !parents(pool, txid).is_empty(),
        });
    }
    keys.sort_unstable_by(|a, b| b.cmp(a));
    assert_eq!(pool.anc_keys_best_first().collect::<Vec<_>>(), keys);
    let expected = MempoolSnapshot::from_entries(now, rows);
    let snap = pool.snapshot(now);
    assert_eq!(&snap.entries, &expected.entries);
    assert_eq!((snap.len(), snap.total_vsize()), (expected.len(), expected.total_vsize()));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn reads_equal_from_scratch_references(
        ops in proptest::collection::vec((0u8..12, any::<u32>(), 1u64..40), 1..120),
        caps in any::<bool>(),
    ) {
        // Small package limits, so refusals are part of the history too.
        let policy =
            MempoolPolicy { max_ancestors: 6, max_descendants: 6, ..MempoolPolicy::accept_all() };
        // Both pools admit one transaction and drop it again: `eager` by
        // evicting it under a zero cap, which builds its eviction order,
        // and `late` by removing it, which builds nothing.
        let mut eager = Mempool::new(policy);
        let mut late = Mempool::new(policy);
        let mut counter = 0u32;
        let first = spend(&[fresh_prevout(&mut counter)], 10_000);
        let fee = Amount::from_sat(first.vsize());
        prop_assert_eq!(eager.add(first.clone(), fee, 0), late.add(first.clone(), fee, 0));
        prop_assert_eq!(eager.limit_size(0), vec![first.txid()]);
        prop_assert_eq!(late.remove_with_descendants(&first.txid()).len(), 1);

        let mut made: Vec<Transaction> = Vec::new();
        let mut withheld: Vec<Transaction> = Vec::new();
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
                // A block confirming a whole ancestor package or, on one
                // pick in four, a resident without its resident ancestors
                // (they survive it and shed it from their descendant
                // packages); on odd picks, also a double spend of another
                // resident's input.
                8 => {
                    if let Some(tip) = resident(&eager, pick) {
                        let mut members =
                            if pick & 6 == 6 { Vec::new() } else { eager.ancestors(&tip) };
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
                // Read one pool, so the two keep different snapshot states.
                11 => {
                    check_reads(if pick & 1 == 0 { &mut eager } else { &mut late }, now);
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
        check_reads(&mut eager, end);
        check_reads(&mut late, end);
        let cap = eager.total_vsize() / 2;
        prop_assert_eq!(eager.limit_size(cap), late.limit_size(cap));
        check_reads(&mut eager, end + 1);
        check_reads(&mut late, end + 1);
    }
}
