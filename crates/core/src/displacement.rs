//! Displacement analysis: who pays for a norm violation?
//!
//! An extension of the paper's §6 discussion ("norm violations cause
//! irreparable economic harm to users"): every transaction placed *above*
//! its fee-rate rank pushes honestly bidding transactions down — and,
//! under a full block, out. This module quantifies that harm per block:
//! how many positions honest transactions lost, and how many vbytes of
//! honest demand were displaced out of the block entirely by
//! below-marginal-rate insertions.

use crate::index::{BlockInfo, ChainIndex};
use crate::ppe::predicted_positions;
use cn_chain::FeeRate;

/// Harm caused within one block.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct BlockDisplacement {
    /// Transactions placed above their fee-rate rank (the beneficiaries).
    pub promoted: usize,
    /// Positions lost in total by every demoted transaction.
    pub positions_lost: u64,
    /// Virtual bytes consumed by transactions whose fee rate is below the
    /// block's marginal (lowest) decile rate yet sit in the top decile —
    /// space honest bidders competed for and lost.
    pub queue_jumped_vbytes: u64,
}

/// Computes displacement for one block.
pub fn block_displacement(block: &BlockInfo) -> BlockDisplacement {
    let n = block.txs.len();
    if n < 2 {
        return BlockDisplacement::default();
    }
    let subset: Vec<(usize, u64, u64)> =
        block.txs.iter().enumerate().map(|(i, t)| (i, t.fee.to_sat(), t.vsize.max(1))).collect();
    let predicted = predicted_positions(&subset);
    let mut out = BlockDisplacement::default();
    let top_decile = n / 10;
    let bottom_decile_rank = n - 1 - n / 10;
    for (observed, tx) in block.txs.iter().enumerate() {
        let pred = predicted[observed];
        if pred > observed {
            out.promoted += 1;
        } else if pred < observed {
            out.positions_lost += (observed - pred) as u64;
        }
        // Queue jumping: in the top decile while ranked in the bottom one.
        if observed <= top_decile && pred >= bottom_decile_rank {
            out.queue_jumped_vbytes += tx.vsize;
        }
    }
    out
}

/// Aggregate displacement per miner across the chain, with the share of
/// each miner's block space consumed by queue-jumpers.
pub fn displacement_by_miner(index: &ChainIndex) -> Vec<(String, BlockDisplacement, f64)> {
    use std::collections::BTreeMap;
    let mut agg: BTreeMap<String, (BlockDisplacement, u64)> = BTreeMap::new();
    for block in index.blocks() {
        let Some(miner) = &block.miner else { continue };
        let d = block_displacement(block);
        let total_vsize: u64 = block.txs.iter().map(|t| t.vsize).sum();
        let entry = agg.entry(miner.clone()).or_default();
        entry.0.promoted += d.promoted;
        entry.0.positions_lost += d.positions_lost;
        entry.0.queue_jumped_vbytes += d.queue_jumped_vbytes;
        entry.1 += total_vsize;
    }
    agg.into_iter()
        .map(|(miner, (d, vsize))| {
            let share = if vsize == 0 { 0.0 } else { d.queue_jumped_vbytes as f64 / vsize as f64 };
            (miner, d, share)
        })
        .collect()
}

/// Estimated fee premium the displaced would have needed to keep their
/// rank: the gap between the queue-jumpers' rates and the rate at the
/// position they took, summed over jumpers (in satoshi).
pub fn displacement_fee_gap(block: &BlockInfo) -> u64 {
    let n = block.txs.len();
    if n < 2 {
        return 0;
    }
    let subset: Vec<(usize, u64, u64)> =
        block.txs.iter().enumerate().map(|(i, t)| (i, t.fee.to_sat(), t.vsize.max(1))).collect();
    let predicted = predicted_positions(&subset);
    let mut gap = 0u64;
    for (observed, tx) in block.txs.iter().enumerate() {
        if predicted[observed] <= observed + n / 10 {
            continue; // not a meaningful jump
        }
        // The rate the position "deserved": the tx whose predicted rank is
        // the observed position.
        if let Some(deserving) =
            block.txs.iter().enumerate().find(|(i, _)| predicted[*i] == observed)
        {
            let deserved_rate = deserving.1.fee_rate();
            let actual_rate = FeeRate::from_fee_and_vsize(tx.fee, tx.vsize);
            if deserved_rate > actual_rate {
                gap += deserved_rate.fee_for_vsize(tx.vsize).saturating_sub(tx.fee).to_sat();
            }
        }
    }
    gap
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::TxRecord;
    use cn_chain::{Amount, BlockHash, Txid};

    fn block(rates: &[u64]) -> BlockInfo {
        let txs = rates
            .iter()
            .enumerate()
            .map(|(i, &r)| TxRecord {
                txid: Txid::from([(i + 1) as u8; 32]),
                height: 0,
                position: i,
                fee: Amount::from_sat(r * 100),
                vsize: 100,
                is_cpfp: false,
            })
            .collect();
        BlockInfo {
            height: 0,
            hash: BlockHash::ZERO,
            time: 0,
            miner: Some("M".into()),
            coinbase_wallets: vec![],
            txs,
        }
    }

    #[test]
    fn norm_block_causes_no_harm() {
        let b = block(&[100, 90, 80, 70, 60, 50, 40, 30, 20, 10]);
        let d = block_displacement(&b);
        assert_eq!(d, BlockDisplacement::default());
        assert_eq!(displacement_fee_gap(&b), 0);
    }

    #[test]
    fn queue_jumper_accounted() {
        // An 11-tx block whose leader pays the lowest rate.
        let b = block(&[1, 100, 90, 80, 70, 60, 50, 40, 30, 20, 10]);
        let d = block_displacement(&b);
        assert_eq!(d.promoted, 1);
        // Everyone else lost exactly one position.
        assert_eq!(d.positions_lost, 10);
        assert_eq!(d.queue_jumped_vbytes, 100);
        assert!(displacement_fee_gap(&b) > 0);
    }

    #[test]
    fn small_blocks_are_neutral() {
        assert_eq!(block_displacement(&block(&[5])), BlockDisplacement::default());
        assert_eq!(block_displacement(&block(&[])), BlockDisplacement::default());
    }

    #[test]
    fn per_miner_aggregation() {
        // Build a real chain-free aggregation through an empty index.
        let index = ChainIndex::default();
        assert!(displacement_by_miner(&index).is_empty());
    }
}
