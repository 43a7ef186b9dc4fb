//! Dark-fee acceleration detection via SPPE thresholds (§5.4.2, Table 4).
//!
//! An accelerated transaction is placed near the top of a block its
//! public fee never earned, so its SPPE approaches +100. Sweeping an SPPE
//! threshold against an acceleration oracle (BTC.com's public checker in
//! the paper; simulator ground truth here) reproduces Table 4's
//! precision collapse as the threshold drops.

use crate::index::ChainIndex;
use crate::sppe::block_sppes;
use cn_chain::Txid;

/// One row of Table 4.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SppeThresholdRow {
    /// SPPE cutoff (inclusive).
    pub threshold: f64,
    /// Transactions with SPPE ≥ cutoff in the miner's blocks.
    pub total: usize,
    /// Of those, how many the oracle confirms as accelerated.
    pub accelerated: usize,
}

impl SppeThresholdRow {
    /// Precision at this threshold.
    pub fn precision(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.accelerated as f64 / self.total as f64
        }
    }
}

/// SPPE of every transaction in blocks attributed to `miner`.
pub fn miner_tx_sppes(index: &ChainIndex, miner: &str) -> Vec<(Txid, f64)> {
    let mut out = Vec::new();
    for block in index.blocks() {
        if block.miner.as_deref() != Some(miner) {
            continue;
        }
        out.extend(block_sppes(block));
    }
    out
}

/// Builds the Table 4 sweep: for each threshold, how many of the miner's
/// transactions clear it, and how many of those the oracle confirms.
pub fn sppe_threshold_table(
    index: &ChainIndex,
    miner: &str,
    thresholds: &[f64],
    is_accelerated: &dyn Fn(&Txid) -> bool,
) -> Vec<SppeThresholdRow> {
    let sppes = miner_tx_sppes(index, miner);
    thresholds
        .iter()
        .map(|&threshold| {
            let mut total = 0usize;
            let mut accelerated = 0usize;
            for (txid, sppe) in &sppes {
                if *sppe >= threshold {
                    total += 1;
                    if is_accelerated(txid) {
                        accelerated += 1;
                    }
                }
            }
            SppeThresholdRow { threshold, total, accelerated }
        })
        .collect()
}

/// The detector itself: transactions in the miner's blocks with
/// SPPE ≥ `threshold`, flagged as likely accelerated.
pub fn detect_accelerated(index: &ChainIndex, miner: &str, threshold: f64) -> Vec<Txid> {
    miner_tx_sppes(index, miner)
        .into_iter()
        .filter(|(_, s)| *s >= threshold)
        .map(|(t, _)| t)
        .collect()
}

/// Precision/recall of the detector against ground truth over a miner's
/// blocks.
pub fn score_detector(
    index: &ChainIndex,
    miner: &str,
    threshold: f64,
    truth: &dyn Fn(&Txid) -> bool,
) -> (f64, f64) {
    let sppes = miner_tx_sppes(index, miner);
    let mut tp = 0usize;
    let mut fp = 0usize;
    let mut fn_ = 0usize;
    for (txid, sppe) in &sppes {
        let flagged = *sppe >= threshold;
        let actual = truth(txid);
        match (flagged, actual) {
            (true, true) => tp += 1,
            (true, false) => fp += 1,
            (false, true) => fn_ += 1,
            (false, false) => {}
        }
    }
    let precision = if tp + fp == 0 { 0.0 } else { tp as f64 / (tp + fp) as f64 };
    let recall = if tp + fn_ == 0 { 0.0 } else { tp as f64 / (tp + fn_) as f64 };
    (precision, recall)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cn_chain::{Amount, BlockHash};
    use std::collections::HashSet;

    /// Builds an index-like block list without a full chain: one block by
    /// "M" where tx 1 (1 sat/vB) leads whales — the accelerated shape.
    fn handmade_index() -> ChainIndex {
        // ChainIndex fields are private; go through a real chain instead.
        // A compact helper: single block, four txs with chosen fees.
        use cn_chain::{Address, Block, Chain, CoinbaseBuilder, Params, PoolMarker, Transaction};
        let mut chain = Chain::new(Params::mainnet());
        let mut fund = Transaction::builder().add_input(cn_chain::TxIn::new(cn_chain::OutPoint::NULL));
        for _ in 0..4 {
            fund = fund.pay_to(Address::from_label("f"), Amount::from_sat(10_000_000));
        }
        let fund = fund.build();
        chain.seed_utxos(&fund);
        // Fees chosen so tx0 (the block leader) has the lowest fee rate.
        let fees = [1_000u64, 500_000, 400_000, 300_000];
        let mut txs = Vec::new();
        for (i, fee) in fees.iter().enumerate() {
            txs.push(
                Transaction::builder()
                    .add_input_with_sizes(fund.txid(), i as u32, 107, 0)
                    .pay_to(Address::from_label("r"), Amount::from_sat(10_000_000 - fee))
                    .build(),
            );
        }
        let total: u64 = fees.iter().sum();
        let cb = CoinbaseBuilder::new(0)
            .marker(PoolMarker::new("/M/"))
            .reward(Address::from_label("pool:M:0"), Amount::from_btc(50) + Amount::from_sat(total))
            .build();
        let block = Block::assemble(2, BlockHash::ZERO, 600, 0, cb, txs);
        chain.connect(block).expect("valid");
        ChainIndex::build(&chain)
    }

    #[test]
    fn accelerated_leader_found_at_high_threshold() {
        let index = handmade_index();
        let flagged = detect_accelerated(&index, "M", 70.0);
        assert_eq!(flagged.len(), 1, "only the out-of-place leader");
        let all = detect_accelerated(&index, "M", -100.0);
        assert_eq!(all.len(), 4, "zero threshold admits everything");
    }

    #[test]
    fn threshold_table_monotone_and_scored() {
        let index = handmade_index();
        let leader = detect_accelerated(&index, "M", 70.0)[0];
        let truth: HashSet<Txid> = HashSet::from([leader]);
        let rows = sppe_threshold_table(
            &index,
            "M",
            &[70.0, 0.0, -100.0],
            &|t| truth.contains(t),
        );
        assert_eq!(rows[0].total, 1);
        assert_eq!(rows[0].accelerated, 1);
        assert!((rows[0].precision() - 1.0).abs() < 1e-12);
        // Lower thresholds admit more, precision falls.
        assert!(rows[1].total >= rows[0].total);
        assert!(rows[2].total == 4);
        assert!(rows[2].precision() < 1.0);
        // Zero-member row precision defined as 0.
        let empty = SppeThresholdRow { threshold: 200.0, total: 0, accelerated: 0 };
        assert_eq!(empty.precision(), 0.0);
    }

    #[test]
    fn detector_precision_recall() {
        let index = handmade_index();
        let leader = detect_accelerated(&index, "M", 70.0)[0];
        let truth_set: HashSet<Txid> = HashSet::from([leader]);
        let (p, r) = score_detector(&index, "M", 70.0, &|t| truth_set.contains(t));
        assert_eq!((p, r), (1.0, 1.0));
        // At an absurdly low threshold precision drops but recall holds.
        let (p2, r2) = score_detector(&index, "M", -100.0, &|t| truth_set.contains(t));
        assert!(p2 < 1.0);
        assert_eq!(r2, 1.0);
    }

    #[test]
    fn foreign_miner_has_no_rows() {
        let index = handmade_index();
        assert!(miner_tx_sppes(&index, "Other").is_empty());
        let rows = sppe_threshold_table(&index, "Other", &[50.0], &|_| false);
        assert_eq!(rows[0].total, 0);
    }
}
