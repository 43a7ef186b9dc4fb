//! Position Prediction Error (§4.2.2, Figures 1 and 7).
//!
//! For a block's non-CPFP transactions, the fee-rate norm predicts their
//! order exactly: descending fee rate. PPE measures how far the observed
//! ordering deviates, as the mean absolute difference between predicted
//! and observed positions expressed in percentile ranks (so a block that
//! reverses the norm entirely scores ~33 % and a norm-following block
//! scores ~0 %).

use crate::index::{BlockInfo, ChainIndex};
use std::collections::HashMap;

/// Percentile rank (0–100) of position `i` among `n` items, mid-ranked.
pub(crate) fn percentile(i: usize, n: usize) -> f64 {
    debug_assert!(n > 0);
    (i as f64 + 0.5) / n as f64 * 100.0
}

/// Predicted position (0-based) of each transaction under the fee-rate
/// norm, among the given subset of a block's transactions. Ties are
/// broken in favour of the observed order (benefit of the doubt — the
/// norm does not specify tie order).
pub(crate) fn predicted_positions(subset: &[(usize, u64, u64)]) -> Vec<usize> {
    // subset entries: (observed_index_in_subset, fee_sat, vsize)
    let mut order: Vec<usize> = (0..subset.len()).collect();
    order.sort_by(|&a, &b| {
        let (oa, fa, va) = subset[a];
        let (ob, fb, vb) = subset[b];
        // fee rate descending: fa/va > fb/vb  <=>  fa*vb > fb*va
        let lhs = fa as u128 * vb as u128;
        let rhs = fb as u128 * va as u128;
        rhs.cmp(&lhs).then_with(|| oa.cmp(&ob))
    });
    // order[k] = index (within subset) of the tx predicted at position k;
    // invert to predicted position per tx.
    let mut predicted = vec![0usize; subset.len()];
    for (rank, &idx) in order.iter().enumerate() {
        predicted[idx] = rank;
    }
    predicted
}

/// PPE of a single block, over its non-CPFP transactions. Returns `None`
/// for blocks with no non-CPFP transactions (the paper keeps the 99.55 %
/// of blocks that have at least one).
pub fn block_ppe(block: &BlockInfo) -> Option<f64> {
    let subset: Vec<(usize, u64, u64)> = block
        .txs
        .iter()
        .filter(|t| !t.is_cpfp)
        .enumerate()
        .map(|(i, t)| (i, t.fee.to_sat(), t.vsize.max(1)))
        .collect();
    if subset.is_empty() {
        return None;
    }
    let n = subset.len();
    let predicted = predicted_positions(&subset);
    let total: f64 = (0..n).map(|i| (percentile(predicted[i], n) - percentile(i, n)).abs()).sum();
    Some(total / n as f64)
}

/// PPE of every block in the chain (Figure 7a's population).
pub fn chain_ppe(index: &ChainIndex) -> Vec<f64> {
    index.blocks().iter().filter_map(block_ppe).collect()
}

/// PPE populations grouped by attributed miner (Figure 7b).
pub fn ppe_by_miner(index: &ChainIndex) -> HashMap<String, Vec<f64>> {
    let mut map: HashMap<String, Vec<f64>> = HashMap::new();
    for block in index.blocks() {
        let (Some(miner), Some(ppe)) = (&block.miner, block_ppe(block)) else {
            continue;
        };
        map.entry(miner.clone()).or_default().push(ppe);
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::TxRecord;
    use cn_chain::{Amount, BlockHash, Txid};

    fn block_with_rates(rates: &[u64], cpfp: &[bool]) -> BlockInfo {
        let txs = rates
            .iter()
            .enumerate()
            .map(|(i, &r)| TxRecord {
                txid: Txid::from([i as u8 + 1; 32]),
                height: 0,
                position: i,
                fee: Amount::from_sat(r * 200),
                vsize: 200,
                is_cpfp: cpfp.get(i).copied().unwrap_or(false),
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
    fn norm_following_block_has_zero_ppe() {
        let b = block_with_rates(&[50, 40, 30, 20, 10], &[]);
        assert_eq!(block_ppe(&b), Some(0.0));
    }

    #[test]
    fn reversed_block_has_large_ppe() {
        let b = block_with_rates(&[10, 20, 30, 40, 50], &[]);
        let ppe = block_ppe(&b).expect("non-empty");
        // Full reversal of 5 items: mean |diff| = (4+2+0+2+4)/5 = 2.4
        // positions -> 2.4/5*100 = 48 percentile points.
        assert!((ppe - 48.0).abs() < 1e-9, "ppe = {ppe}");
    }

    #[test]
    fn single_swap_small_ppe() {
        let b = block_with_rates(&[50, 30, 40, 20], &[]);
        let ppe = block_ppe(&b).expect("non-empty");
        // Two adjacent items swapped among 4: mean |diff| = 0.5 -> 12.5pp.
        assert!((ppe - 12.5).abs() < 1e-9, "ppe = {ppe}");
    }

    #[test]
    fn cpfp_txs_excluded_from_prediction() {
        // The CPFP tx sits early despite a low fee rate; excluding it the
        // rest follow the norm perfectly.
        let b = block_with_rates(&[50, 1, 40, 30], &[false, true, false, false]);
        assert_eq!(block_ppe(&b), Some(0.0));
    }

    #[test]
    fn all_cpfp_block_is_skipped() {
        let b = block_with_rates(&[10, 20], &[true, true]);
        assert_eq!(block_ppe(&b), None);
    }

    #[test]
    fn ties_get_benefit_of_the_doubt() {
        let b = block_with_rates(&[30, 30, 30], &[]);
        assert_eq!(block_ppe(&b), Some(0.0));
    }

    #[test]
    fn single_tx_block_zero() {
        let b = block_with_rates(&[42], &[]);
        assert_eq!(block_ppe(&b), Some(0.0));
    }

    #[test]
    fn ppe_bounded_by_fifty() {
        // Worst case mean displacement is n/2 positions -> 50pp.
        for perm in [vec![1u64, 2, 3, 4, 5, 6], vec![6, 5, 4, 3, 2, 1], vec![3, 1, 4, 1, 5, 9]] {
            let b = block_with_rates(&perm, &[]);
            let ppe = block_ppe(&b).expect("non-empty");
            assert!((0.0..=50.0).contains(&ppe), "ppe = {ppe}");
        }
    }
}
