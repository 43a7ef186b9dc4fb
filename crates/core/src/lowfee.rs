//! Norm III adherence: below-floor transactions (§4.2.3).
//!
//! Default nodes never accept transactions under the 1 sat/vB relay
//! floor, so such transactions should never confirm — yet the paper's
//! no-floor observer saw 1,084 of them, 53 of which were eventually
//! confirmed, by exactly three pools (F2Pool, ViaBTC, BTC.com). This
//! module runs the same analysis against a snapshot stream and chain.

use crate::index::ChainIndex;
use cn_chain::{FastSet, FeeRate, Txid};
use cn_mempool::MempoolSnapshot;
use std::collections::BTreeMap;

/// The §4.2.3 report.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LowFeeReport {
    /// Below-floor transactions the observer saw.
    pub observed: usize,
    /// Of those, zero-fee transactions.
    pub zero_fee: usize,
    /// Below-floor transactions that eventually confirmed.
    pub confirmed: usize,
    /// Confirmations by pool (only pools that deviate appear).
    pub by_miner: BTreeMap<String, usize>,
}

impl LowFeeReport {
    /// Fraction of observed below-floor transactions that confirmed.
    pub fn confirmation_rate(&self) -> f64 {
        if self.observed == 0 {
            0.0
        } else {
            self.confirmed as f64 / self.observed as f64
        }
    }
}

/// Analyzes below-floor transactions: who saw them, who mined them.
///
/// `floor` is the norm-III threshold (1 sat/vB on mainnet). Only detailed
/// snapshots contribute observations.
pub fn low_fee_report(
    snapshots: &[MempoolSnapshot],
    index: &ChainIndex,
    floor: FeeRate,
) -> LowFeeReport {
    let mut seen: FastSet<Txid> = FastSet::default();
    let mut report = LowFeeReport::default();
    for snap in snapshots {
        for entry in snap.rows() {
            if entry.fee_rate() < floor && seen.insert(entry.txid) {
                report.observed += 1;
                if entry.fee.is_zero() {
                    report.zero_fee += 1;
                }
            }
        }
    }
    for txid in &seen {
        if let Some((height, _)) = index.locate(txid) {
            report.confirmed += 1;
            if let Some(miner) = index.block(height).and_then(|b| b.miner.clone()) {
                *report.by_miner.entry(miner).or_default() += 1;
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use cn_chain::{
        Address, Amount, Block, BlockHash, Chain, CoinbaseBuilder, Params, PoolMarker, Transaction,
    };
    use cn_mempool::SnapshotEntry;

    fn entry(txid: Txid, fee: u64, vsize: u64) -> SnapshotEntry {
        SnapshotEntry {
            txid,
            received: 0,
            fee: Amount::from_sat(fee),
            vsize,
            has_unconfirmed_parent: false,
        }
    }

    #[test]
    fn counts_observed_zero_fee_and_confirmed() {
        // A chain where F2Pool mines one zero-fee transaction.
        let mut chain = Chain::new(Params::mainnet());
        let fund = Transaction::builder()
            .add_input(cn_chain::TxIn::new(cn_chain::OutPoint::NULL))
            .pay_to(Address::from_label("f"), Amount::from_sat(100_000))
            .build();
        chain.seed_utxos(&fund);
        let zero_fee_tx = Transaction::builder()
            .add_input_with_sizes(fund.txid(), 0, 107, 0)
            .pay_to(Address::from_label("r"), Amount::from_sat(100_000))
            .build();
        let cb = CoinbaseBuilder::new(0)
            .marker(PoolMarker::new("/F2Pool/"))
            .reward(Address::from_label("p"), Amount::from_btc(50))
            .build();
        let block = Block::assemble(2, BlockHash::ZERO, 600, 0, cb, vec![zero_fee_tx.clone()]);
        chain.connect(block).expect("valid");
        let index = ChainIndex::build(&chain);

        let never_confirmed = Txid::from([9; 32]);
        let snaps = vec![MempoolSnapshot::from_entries(
            0,
            vec![
                entry(zero_fee_tx.txid(), 0, 200),      // zero fee, confirmed
                entry(never_confirmed, 100, 200),       // 0.5 sat/vB, stuck
                entry(Txid::from([8; 32]), 5_000, 200), // healthy fee, ignored
            ],
        )];
        let report = low_fee_report(&snaps, &index, FeeRate::MIN_RELAY);
        assert_eq!(report.observed, 2);
        assert_eq!(report.zero_fee, 1);
        assert_eq!(report.confirmed, 1);
        assert_eq!(report.by_miner.get("F2Pool"), Some(&1));
        assert!((report.confirmation_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn duplicate_observations_counted_once() {
        let index = ChainIndex::default();
        let t = Txid::from([1; 32]);
        let snaps = vec![
            MempoolSnapshot::from_entries(0, vec![entry(t, 0, 200)]),
            MempoolSnapshot::from_entries(15, vec![entry(t, 0, 200)]),
        ];
        let report = low_fee_report(&snaps, &index, FeeRate::MIN_RELAY);
        assert_eq!(report.observed, 1);
        assert_eq!(report.confirmed, 0);
        assert_eq!(report.confirmation_rate(), 0.0);
    }

    #[test]
    fn empty_inputs() {
        let report = low_fee_report(&[], &ChainIndex::default(), FeeRate::MIN_RELAY);
        assert_eq!(report, LowFeeReport::default());
    }
}
