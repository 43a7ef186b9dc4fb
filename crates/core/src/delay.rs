//! Commit-delay analysis (§4.1.1, Figures 4a, 5, 12).
//!
//! A transaction's commit delay is measured in *blocks*: how many blocks
//! were mined from the moment the observer first saw it up to and
//! including the one that committed it. "Committed in the next block"
//! is a delay of 1.

use crate::error::AuditError;
use crate::index::ChainIndex;
use cn_chain::{FastMap, FeeRate, Timestamp, Txid};
use cn_mempool::MempoolSnapshot;
use std::collections::HashMap;

/// First time each transaction was observed across a snapshot stream:
/// the minimum `received` over its rows. Each stored row is folded once
/// ([`MempoolSnapshot::visit_stored_rows`]), not once per snapshot listing
/// it; a minimum is idempotent, so the map is the one a fold over every
/// listing builds, with its keys inserted in the same order.
///
/// Refuses a stream where nothing was recorded
/// ([`AuditError::EmptySnapshotStream`]) or only aggregates were
/// ([`AuditError::NoDetailedSnapshots`]), so a damaged stream is not
/// mistaken for one where no transaction was pending.
pub fn first_seen_times(
    snapshots: &[MempoolSnapshot],
) -> Result<FastMap<Txid, Timestamp>, AuditError> {
    if snapshots.is_empty() {
        return Err(AuditError::EmptySnapshotStream);
    }
    if !snapshots.iter().any(|s| s.is_detailed()) {
        return Err(AuditError::NoDetailedSnapshots);
    }
    let mut map: FastMap<Txid, Timestamp> = FastMap::default();
    MempoolSnapshot::visit_stored_rows(snapshots, |entry| {
        map.entry(entry.txid)
            .and_modify(|t| *t = (*t).min(entry.received))
            .or_insert(entry.received);
    });
    Ok(map)
}

/// One transaction's delay record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DelayRecord {
    /// The transaction.
    pub txid: Txid,
    /// First-seen time at the observer.
    pub first_seen: Timestamp,
    /// Commit delay in blocks (≥ 1).
    pub blocks: u64,
    /// The fee rate it offered.
    pub fee_rate: FeeRate,
}

/// Computes block delays for every observed transaction that confirmed.
pub fn commit_delays(
    index: &ChainIndex,
    first_seen: &FastMap<Txid, Timestamp>,
) -> Vec<DelayRecord> {
    let block_times = index.block_times();
    let mut out = Vec::with_capacity(first_seen.len());
    for (&txid, &seen) in first_seen {
        let Some(record) = index.record(&txid) else { continue };
        // Blocks mined strictly after the tx was seen, up to and
        // including the commit block. Simulated block times are
        // monotone, so a partition point suffices.
        let first_candidate = block_times.partition_point(|&t| t <= seen) as u64;
        let blocks = record.height.saturating_sub(first_candidate) + 1;
        out.push(DelayRecord { txid, first_seen: seen, blocks, fee_rate: record.fee_rate() });
    }
    out.sort_by_key(|r| r.txid);
    out
}

/// The paper's fee bands (Figures 5 and 12), in BTC/KB:
/// low < 1e-4 ≤ high < 1e-3 ≤ exorbitant.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FeeBand {
    /// Below 1e-4 BTC/KB (10 sat/vB).
    Low,
    /// Between 1e-4 and 1e-3 BTC/KB.
    High,
    /// Above 1e-3 BTC/KB (100 sat/vB).
    Exorbitant,
}

impl FeeBand {
    /// Classifies a fee rate.
    pub fn of(rate: FeeRate) -> FeeBand {
        let btc_per_kb = rate.btc_per_kb();
        if btc_per_kb < 1e-4 {
            FeeBand::Low
        } else if btc_per_kb < 1e-3 {
            FeeBand::High
        } else {
            FeeBand::Exorbitant
        }
    }
}

/// Partitions delay records into the three fee bands.
pub fn delays_by_fee_band(records: &[DelayRecord]) -> HashMap<FeeBand, Vec<u64>> {
    let mut map: HashMap<FeeBand, Vec<u64>> = HashMap::new();
    for r in records {
        map.entry(FeeBand::of(r.fee_rate)).or_default().push(r.blocks);
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use cn_chain::{
        Address, Amount, Block, Chain, CoinbaseBuilder, Params, Transaction,
    };
    use cn_mempool::SnapshotEntry;

    fn snapshot(time: Timestamp, entries: &[(Txid, Timestamp)]) -> MempoolSnapshot {
        MempoolSnapshot::from_entries(
            time,
            entries
                .iter()
                .map(|&(txid, received)| SnapshotEntry {
                    txid,
                    received,
                    fee: Amount::from_sat(1_000),
                    vsize: 200,
                    has_unconfirmed_parent: false,
                })
                .collect(),
        )
    }

    #[test]
    fn first_seen_takes_minimum() {
        let a = Txid::from([1; 32]);
        let snaps = vec![snapshot(30, &[(a, 25)]), snapshot(45, &[(a, 25)])];
        let seen = first_seen_times(&snaps).expect("detailed snapshots");
        assert_eq!(seen[&a], 25);
        assert_eq!(seen.len(), 1);
        assert_eq!(first_seen_times(&[]), Err(AuditError::EmptySnapshotStream));
        let light = [MempoolSnapshot::light(15, 3, 600)];
        assert_eq!(first_seen_times(&light), Err(AuditError::NoDetailedSnapshots));
    }

    /// Chain with block times 600, 1200, 1800; one tx per block.
    fn chain_three_blocks() -> (Chain, Vec<Txid>) {
        let mut chain = Chain::new(Params::mainnet());
        let fund = Transaction::builder()
            .add_input(cn_chain::TxIn::new(cn_chain::OutPoint::NULL))
            .pay_to(Address::from_label("f"), Amount::from_sat(1_000_000))
            .pay_to(Address::from_label("f"), Amount::from_sat(1_000_000))
            .pay_to(Address::from_label("f"), Amount::from_sat(1_000_000))
            .build();
        chain.seed_utxos(&fund);
        let mut txids = Vec::new();
        for h in 0..3u64 {
            let tx = Transaction::builder()
                .add_input_with_sizes(fund.txid(), h as u32, 107, 0)
                .pay_to(Address::from_label("r"), Amount::from_sat(900_000))
                .build();
            txids.push(tx.txid());
            let cb = CoinbaseBuilder::new(h)
                .reward(Address::from_label("p"), Amount::from_btc(50) + Amount::from_sat(100_000))
                .extra_nonce(h)
                .build();
            let block =
                Block::assemble(2, chain.tip_hash(), (h + 1) * 600, h as u32, cb, vec![tx]);
            chain.connect(block).expect("valid");
        }
        (chain, txids)
    }

    #[test]
    fn next_block_inclusion_is_delay_one() {
        let (chain, txids) = chain_three_blocks();
        let index = ChainIndex::build(&chain);
        // Seen at t=0, committed in block 0 (time 600): delay 1.
        let mut seen = FastMap::default();
        seen.insert(txids[0], 0);
        let delays = commit_delays(&index, &seen);
        assert_eq!(delays.len(), 1);
        assert_eq!(delays[0].blocks, 1);
    }

    #[test]
    fn skipped_blocks_add_to_delay() {
        let (chain, txids) = chain_three_blocks();
        let index = ChainIndex::build(&chain);
        // Seen at t=0 but committed only in block 2 (two blocks passed by).
        let mut seen = FastMap::default();
        seen.insert(txids[2], 0);
        let delays = commit_delays(&index, &seen);
        assert_eq!(delays[0].blocks, 3);
    }

    #[test]
    fn seen_between_blocks() {
        let (chain, txids) = chain_three_blocks();
        let index = ChainIndex::build(&chain);
        // Seen at t=700 (after block 0 at 600), committed in block 1: delay 1.
        let mut seen = FastMap::default();
        seen.insert(txids[1], 700);
        let delays = commit_delays(&index, &seen);
        assert_eq!(delays[0].blocks, 1);
    }

    #[test]
    fn unconfirmed_observations_skipped() {
        let (chain, _) = chain_three_blocks();
        let index = ChainIndex::build(&chain);
        let mut seen = FastMap::default();
        seen.insert(Txid::from([0xdd; 32]), 0);
        assert!(commit_delays(&index, &seen).is_empty());
    }

    #[test]
    fn fee_bands_match_paper_boundaries() {
        // 1e-4 BTC/KB == 10 sat/vB; 1e-3 == 100 sat/vB.
        assert_eq!(FeeBand::of(FeeRate::from_sat_per_vb(9)), FeeBand::Low);
        assert_eq!(FeeBand::of(FeeRate::from_sat_per_vb(10)), FeeBand::High);
        assert_eq!(FeeBand::of(FeeRate::from_sat_per_vb(99)), FeeBand::High);
        assert_eq!(FeeBand::of(FeeRate::from_sat_per_vb(100)), FeeBand::Exorbitant);
        assert_eq!(FeeBand::of(FeeRate::ZERO), FeeBand::Low);
    }

    #[test]
    fn banded_delays_partition_records() {
        let records = vec![
            DelayRecord { txid: Txid::from([1; 32]), first_seen: 0, blocks: 5, fee_rate: FeeRate::from_sat_per_vb(2) },
            DelayRecord { txid: Txid::from([2; 32]), first_seen: 0, blocks: 2, fee_rate: FeeRate::from_sat_per_vb(50) },
            DelayRecord { txid: Txid::from([3; 32]), first_seen: 0, blocks: 1, fee_rate: FeeRate::from_sat_per_vb(500) },
        ];
        let by_band = delays_by_fee_band(&records);
        assert_eq!(by_band[&FeeBand::Low], vec![5]);
        assert_eq!(by_band[&FeeBand::High], vec![2]);
        assert_eq!(by_band[&FeeBand::Exorbitant], vec![1]);
    }
}
