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
//! parent, conflicting spends (refused, or admitted after the resident
//! spender's subtree is removed), blocks confirming whole ancestor
//! packages or a resident without its resident ancestors, subtree
//! removals and, in half the histories, size caps. At random steps one of
//! the pools is read, and each read must equal a reference built from the
//! resident transactions alone: the snapshot equals
//! `MempoolSnapshot::from_entries` over the resident rows, the package
//! scores equal sums over ancestors and descendants found by following
//! prevouts, and the best-first keys equal the keys of those scores,
//! sorted. `eager` builds its eviction order before the history starts
//! and `late` at its first `limit_size` over the cap; every step must
//! return the same result in both pools.
//!
//! A view's snapshots share the rows its row store holds, so three more
//! checks guard that sharing. Every snapshot taken is kept, and at the end
//! of the history each must still equal its reference: nothing the view
//! wrote since changed a row under it. Midway through the history both
//! pools are cloned; the clones share their originals' stores, take the
//! rest of the history step for step, and each read of a clone must equal
//! the same read of its original. And each snapshot's delta from the same
//! pool's previous one, applied to that one, must give it back over the
//! previous one's stored rows, and must name exactly the rows the snapshot
//! wrote; a snapshot without a delta (a restarted store, a sorted slab)
//! wrote all of its rows.

use cn_chain::{Address, Amount, Block, BlockHash, CoinbaseBuilder, Transaction, Txid};
use cn_mempool::{AncKey, Mempool, MempoolPolicy, MempoolSnapshot, SnapshotEntry};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

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

/// Runs `op` on every pool; each must return the same result.
fn on_all<T: PartialEq + std::fmt::Debug>(
    pools: &mut [Mempool],
    mut op: impl FnMut(&mut Mempool) -> T,
) -> T {
    let mut results = pools.iter_mut().map(&mut op);
    let first = results.next().expect("a pool");
    for other in results {
        assert_eq!(other, first);
    }
    first
}

/// Checks every read of `pool` against its from-scratch reference, and
/// returns the snapshot read with its reference.
fn check_reads(pool: &mut Mempool, now: u64) -> (MempoolSnapshot, MempoolSnapshot) {
    let txids: Vec<Txid> = pool.iter().map(|e| e.txid()).collect();
    let ancestry: Vec<Vec<Txid>> = txids.iter().map(|t| ancestors(pool, t)).collect();
    let mut keys: Vec<AncKey> = Vec::with_capacity(txids.len());
    let mut rows: Vec<SnapshotEntry> = Vec::with_capacity(txids.len());
    for (txid, up) in txids.iter().zip(&ancestry) {
        let e = pool.get(txid).expect("resident");
        let (fee, vsize) = package(pool, up.iter().copied().chain([*txid]));
        assert_eq!(e.ancestor_score(), (fee, vsize));
        let down = txids.iter().zip(&ancestry).filter(|(_, up)| up.contains(txid));
        let (desc_fee, desc_vsize) = package(pool, down.map(|(t, _)| *t).chain([*txid]));
        assert_eq!(e.descendant_score(), (desc_fee, desc_vsize));
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
    assert_eq!(snap, expected);
    (snap, expected)
}

/// Checks `snap`'s delta from `prev`, the same pool's previous snapshot.
fn check_delta(prev: &MempoolSnapshot, snap: &MempoolSnapshot) {
    let delta = snap.delta_from(prev);
    let mut visited = 0;
    MempoolSnapshot::visit_stored_rows(&[prev.clone(), snap.clone()], |_| visited += 1);
    let written = match &delta {
        Some(delta) => delta.iter().filter(|(_, row)| row.is_some()).count(),
        None => snap.len(),
    };
    assert_eq!(visited, prev.len() + written, "the delta names the rows written");
    let Some(delta) = delta else { return };
    let named: HashSet<Txid> = delta.iter().map(|(txid, _)| *txid).collect();
    let applied = MempoolSnapshot::merged(prev, snap.time, &delta).expect("a delta is sorted");
    assert_eq!(&applied, snap);
    let stored: HashMap<Txid, *const SnapshotEntry> =
        prev.rows().map(|r| (r.txid, r as *const _)).collect();
    for row in applied.rows().filter(|r| !named.contains(&r.txid)) {
        assert_eq!(stored.get(&row.txid), Some(&(row as *const _)), "an unchanged row is prev's");
    }
}

/// [`check_reads`], then [`check_delta`] against `last`, the pool's
/// previous snapshot, which the new one replaces.
fn read(
    pool: &mut Mempool,
    last: &mut Option<MempoolSnapshot>,
    now: u64,
) -> (MempoolSnapshot, MempoolSnapshot) {
    let (snap, expected) = check_reads(pool, now);
    if let Some(prev) = last.replace(snap.clone()) {
        check_delta(&prev, &snap);
    }
    (snap, expected)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn reads_equal_from_scratch_references(
        ops in proptest::collection::vec((0u8..12, any::<u32>(), 1u64..40), 1..120),
        caps in any::<bool>(),
        backlog in 0u64..160,
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

        // `pools[0]` is `eager` and `pools[1]` is `late`; from midway on,
        // `pools[2]` and `pools[3]` are their clones.
        let mut pools = vec![eager, late];
        // A backlog of roots first: a pool of a few dozen rows or more
        // writes a snapshot's changes into its row store as a batch, where
        // a smaller one restarts the store at every change.
        for value in 0..backlog {
            let root = spend(&[fresh_prevout(&mut counter)], 20_000 + value);
            let fee = Amount::from_sat(root.vsize() * (1 + value % 7));
            let _ = on_all(&mut pools, |p| p.add(root.clone(), fee, 0));
        }
        let mut kept: Vec<(MempoolSnapshot, MempoolSnapshot)> = Vec::new();
        // Each pool's last snapshot; a clone's is its original's.
        let mut last: Vec<Option<MempoolSnapshot>> = vec![None, None];
        let mut made: Vec<Transaction> = Vec::new();
        let mut withheld: Vec<Transaction> = Vec::new();
        let mut height = 0u64;
        for (step, &(kind, pick, rate)) in ops.iter().enumerate() {
            if step == ops.len() / 2 {
                let twins = pools.clone();
                pools.extend(twins);
                last.extend(last.clone());
            }
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
                // A conflicting spend of an earlier transaction's input. On
                // half the picks it displaces: the resident spending that
                // outpoint leaves with its descendants first, and the new
                // spend takes the freed outpoint.
                7 if !made.is_empty() => {
                    let rival = &made[pick as usize % made.len()];
                    let prevout = rival.inputs()[0].prevout;
                    if pick >> 31 == 1 {
                        let spender = pools[0].iter().find(|e| {
                            e.tx().inputs().iter().any(|input| input.prevout == prevout)
                        });
                        if let Some(spender) = spender.map(|e| e.txid()) {
                            on_all(&mut pools, |p| {
                                let removed = p.remove_with_descendants(&spender);
                                removed.iter().map(|e| e.txid()).collect::<Vec<Txid>>()
                            });
                        }
                    }
                    Some(spend(&[(prevout.txid, prevout.vout)], 7_000 + rate))
                }
                // A block confirming a whole ancestor package or, on one
                // pick in four, a resident without its resident ancestors
                // (they survive it and shed it from their descendant
                // packages); on odd picks, also a double spend of another
                // resident's input.
                8 => {
                    let eager = &pools[0];
                    if let Some(tip) = resident(eager, pick) {
                        let mut members =
                            if pick & 6 == 6 { Vec::new() } else { eager.ancestors(&tip) };
                        members.push(tip);
                        let mut body: Vec<Transaction> = members
                            .iter()
                            .map(|t| eager.get(t).expect("resident").tx().clone())
                            .collect();
                        if pick & 1 == 1 {
                            if let Some(victim) = resident(eager, pick >> 8) {
                                let victim = eager.get(&victim).expect("resident");
                                let prevout = victim.tx().inputs()[0].prevout;
                                body.push(spend(&[(prevout.txid, prevout.vout)], 3_000 + rate));
                            }
                        }
                        height += 1;
                        let connected = block(height, body);
                        on_all(&mut pools, |p| p.apply_block(&connected));
                    }
                    None
                }
                9 => {
                    if let Some(victim) = resident(&pools[0], pick) {
                        on_all(&mut pools, |p| {
                            let removed = p.remove_with_descendants(&victim);
                            removed.iter().map(|e| e.txid()).collect::<Vec<Txid>>()
                        });
                    }
                    None
                }
                10 if caps => {
                    let cap = pools[0].total_vsize() * (pick % 4) as u64 / 4;
                    on_all(&mut pools, |p| p.limit_size(cap));
                    None
                }
                // Read one pool, so the two keep different snapshot states,
                // and its clone, if taken, which must read the same.
                11 => {
                    let at = (pick & 1) as usize;
                    let (snap, expected) = read(&mut pools[at], &mut last[at], now);
                    if let Some(twin) = pools.get_mut(at + 2) {
                        let (twin_snap, _) = read(twin, &mut last[at + 2], now);
                        prop_assert_eq!(&twin_snap, &snap);
                        kept.push((twin_snap, expected.clone()));
                    }
                    kept.push((snap, expected));
                    None
                }
                _ => None,
            };
            if let Some(tx) = admit {
                let fee = Amount::from_sat(tx.vsize() * rate);
                made.push(tx.clone());
                let _ = on_all(&mut pools, |p| p.add(tx.clone(), fee, now));
            }
            on_all(&mut pools, |p| p.total_vsize());
        }

        let end = ops.len() as u64;
        for (pool, last) in pools.iter_mut().zip(&mut last) {
            kept.push(read(pool, last, end));
        }
        let cap = pools[0].total_vsize() / 2;
        on_all(&mut pools, |p| p.limit_size(cap));
        for (pool, last) in pools.iter_mut().zip(&mut last) {
            kept.push(read(pool, last, end + 1));
        }
        for (snap, expected) in &kept {
            prop_assert_eq!(snap, expected);
        }
    }
}
