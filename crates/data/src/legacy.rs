//! The pre-April-2016 ordering era, for the Figure 1 reproduction.
//!
//! Until Bitcoin Core 0.12.1 (April 2016), block space was partly filled
//! by *coin-age priority* — `Σ(input_value × input_age) / size` — rather
//! than fee rate. Figure 1 shows that predicting positions with the
//! fee-rate norm works poorly on pre-2016 blocks and near-perfectly
//! afterwards. This module synthesizes blocks under both regimes so the
//! experiment harness can reproduce that contrast.

use cn_chain::{Amount, BlockHash, Txid};
use cn_core::index::{BlockInfo, TxRecord};
use cn_stats::{LogNormal, SimRng};

/// Which ordering rule a block's miner used.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EraOrdering {
    /// Pre-April-2016: descending coin-age priority.
    CoinAgePriority,
    /// Post-April-2016: descending fee rate (the GBT norm).
    FeeRate,
}

/// One synthetic candidate transaction.
#[derive(Clone, Copy, Debug)]
struct Candidate {
    fee: u64,
    vsize: u64,
    /// Coin-age priority score (value × age / size), arbitrary units.
    priority: f64,
}

/// Synthesizes `n_blocks` block digests of `txs_per_block` transactions
/// each, ordered per `era`. Fee rates and priorities are drawn
/// independently (empirically they correlate weakly), which is exactly
/// why the fee-rate predictor fails on priority-ordered blocks.
pub fn synthetic_blocks(
    era: EraOrdering,
    n_blocks: usize,
    txs_per_block: usize,
    rng: &mut SimRng,
) -> Vec<BlockInfo> {
    let rate_dist = LogNormal::with_median(20_000.0, 1.0); // sat/kvB
    let size_dist = LogNormal::with_median(250.0, 0.4);
    let prio_dist = LogNormal::with_median(1.0, 1.5);
    let mut blocks = Vec::with_capacity(n_blocks);
    for height in 0..n_blocks {
        let mut candidates: Vec<Candidate> = (0..txs_per_block)
            .map(|_| {
                let vsize = size_dist.sample(rng).clamp(120.0, 2_000.0) as u64;
                let rate = rate_dist.sample(rng).clamp(100.0, 10_000_000.0);
                Candidate {
                    fee: (rate * vsize as f64 / 1_000.0) as u64,
                    vsize,
                    priority: prio_dist.sample(rng),
                }
            })
            .collect();
        match era {
            EraOrdering::CoinAgePriority => candidates
                .sort_by(|a, b| b.priority.partial_cmp(&a.priority).expect("finite priorities")),
            EraOrdering::FeeRate => candidates.sort_by(|a, b| {
                let lhs = a.fee as u128 * b.vsize as u128;
                let rhs = b.fee as u128 * a.vsize as u128;
                rhs.cmp(&lhs)
            }),
        }
        let txs: Vec<TxRecord> = candidates
            .iter()
            .enumerate()
            .map(|(position, c)| TxRecord {
                txid: synthetic_txid(height, position),
                height: height as u64,
                position,
                fee: Amount::from_sat(c.fee),
                vsize: c.vsize,
                is_cpfp: false,
            })
            .collect();
        blocks.push(BlockInfo {
            height: height as u64,
            hash: BlockHash::ZERO,
            time: height as u64 * 600,
            miner: None,
            coinbase_wallets: Vec::new(),
            txs,
        });
    }
    blocks
}

fn synthetic_txid(height: usize, position: usize) -> Txid {
    let mut bytes = [0u8; 32];
    bytes[..8].copy_from_slice(&(height as u64).to_le_bytes());
    bytes[8..16].copy_from_slice(&(position as u64).to_le_bytes());
    Txid(cn_chain::Hash256(bytes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cn_core::ppe::block_ppe;

    #[test]
    fn fee_rate_era_has_zero_ppe() {
        let mut rng = SimRng::seed_from_u64(1);
        for b in synthetic_blocks(EraOrdering::FeeRate, 10, 80, &mut rng) {
            let ppe = block_ppe(&b).expect("non-empty");
            assert!(ppe < 1e-9, "fee-ordered block should predict exactly, got {ppe}");
        }
    }

    #[test]
    fn priority_era_has_large_ppe() {
        let mut rng = SimRng::seed_from_u64(2);
        let blocks = synthetic_blocks(EraOrdering::CoinAgePriority, 20, 80, &mut rng);
        let mean: f64 = blocks.iter().filter_map(block_ppe).sum::<f64>() / blocks.len() as f64;
        // Independent orderings put the expected displacement near 33%.
        assert!(mean > 20.0, "priority-era mean PPE {mean}");
    }

    #[test]
    fn deterministic_and_distinct_txids() {
        let mut rng1 = SimRng::seed_from_u64(3);
        let mut rng2 = SimRng::seed_from_u64(3);
        let a = synthetic_blocks(EraOrdering::FeeRate, 3, 10, &mut rng1);
        let b = synthetic_blocks(EraOrdering::FeeRate, 3, 10, &mut rng2);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.txs.len(), y.txs.len());
            for (tx, ty) in x.txs.iter().zip(&y.txs) {
                assert_eq!(tx.txid, ty.txid);
            }
        }
        // Distinct txids across the set.
        let mut all: Vec<Txid> = a.iter().flat_map(|b| b.txs.iter().map(|t| t.txid)).collect();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), 30);
    }
}
