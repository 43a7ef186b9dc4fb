//! The differential-prioritization test of §5.1 (Tables 2 and 3).
//!
//! Given a set of *c-transactions*, the *c-blocks* are the blocks that
//! include at least one of them. If miner `m` (hash rate θ₀) treats
//! c-transactions like everyone else, the number of c-blocks mined by `m`
//! is `Binomial(y, θ₀)`; a fat upper tail (acceleration) or lower tail
//! (deceleration) rejects that null.

use crate::index::ChainIndex;
use cn_chain::{FastSet, Txid};
use cn_stats::{binomial_test, fisher_combine, Tail};

/// The full §5.1 test result for one miner and one transaction set — one
/// row of Table 2/3.
#[derive(Clone, Debug, PartialEq)]
pub struct DifferentialTest {
    /// The miner under test.
    pub miner: String,
    /// Its normalized hash rate (θ₀).
    pub theta0: f64,
    /// c-blocks mined by the miner (x).
    pub x: u64,
    /// Total c-blocks (y).
    pub y: u64,
    /// Acceleration p-value, `Pr(B ≥ x)`.
    pub p_accelerate: f64,
    /// Deceleration p-value, `Pr(B ≤ x)`.
    pub p_decelerate: f64,
}

impl DifferentialTest {
    /// True when the acceleration null is rejected at `alpha`.
    pub fn accelerates_at(&self, alpha: f64) -> bool {
        self.p_accelerate < alpha
    }

    /// True when the deceleration null is rejected at `alpha`.
    pub fn decelerates_at(&self, alpha: f64) -> bool {
        self.p_decelerate < alpha
    }
}

/// Heights of blocks containing at least one c-transaction.
fn c_block_heights(index: &ChainIndex, c_txids: &FastSet<Txid>) -> Vec<u64> {
    let mut heights: Vec<u64> =
        c_txids.iter().filter_map(|t| index.locate(t).map(|(h, _)| h)).collect();
    heights.sort_unstable();
    heights.dedup();
    heights
}

/// Runs the §5.1.1/§5.1.2 exact binomial tests for `miner` over the whole
/// chain.
pub fn differential_prioritization(
    index: &ChainIndex,
    c_txids: &FastSet<Txid>,
    miner: &str,
    theta0: f64,
) -> DifferentialTest {
    let heights = c_block_heights(index, c_txids);
    let y = heights.len() as u64;
    let x = heights
        .iter()
        .filter(|&&h| {
            index.block(h).and_then(|b| b.miner.as_deref()).map(|m| m == miner).unwrap_or(false)
        })
        .count() as u64;
    DifferentialTest {
        miner: miner.to_string(),
        theta0,
        x,
        y,
        p_accelerate: binomial_test(x, y, theta0, Tail::Upper).p_value,
        p_decelerate: binomial_test(x, y, theta0, Tail::Lower).p_value,
    }
}

/// The §5.1.3 variant for drifting hash rates: splits the chain into
/// `windows` equal height ranges, estimates θ₀ *within each window* from
/// the miner's block share there, tests each window, and combines the
/// per-window p-values with Fisher's method. Windows without c-blocks are
/// skipped. Returns `None` when no window had any c-block.
pub fn windowed_prioritization(
    index: &ChainIndex,
    c_txids: &FastSet<Txid>,
    miner: &str,
    windows: usize,
) -> Option<DifferentialTest> {
    assert!(windows > 0, "need at least one window");
    let total = index.len() as u64;
    if total == 0 {
        return None;
    }
    let heights = c_block_heights(index, c_txids);
    let window_len = total.div_ceil(windows as u64).max(1);
    let mut p_upper = Vec::new();
    let mut p_lower = Vec::new();
    let mut x_total = 0u64;
    let mut y_total = 0u64;
    let mut theta_weighted = 0.0;
    for w in 0..windows as u64 {
        let lo = w * window_len;
        let hi = ((w + 1) * window_len).min(total);
        if lo >= hi {
            break;
        }
        // Window-local hash rate estimate.
        let blocks_in_window = hi - lo;
        let mined_by_m = (lo..hi)
            .filter(|&h| {
                index.block(h).and_then(|b| b.miner.as_deref()).map(|m| m == miner) == Some(true)
            })
            .count() as u64;
        let theta = mined_by_m as f64 / blocks_in_window as f64;
        let in_window: Vec<u64> = heights.iter().copied().filter(|&h| h >= lo && h < hi).collect();
        let y = in_window.len() as u64;
        if y == 0 {
            continue;
        }
        let x = in_window
            .iter()
            .filter(|&&h| {
                index.block(h).and_then(|b| b.miner.as_deref()).map(|m| m == miner) == Some(true)
            })
            .count() as u64;
        p_upper.push(binomial_test(x, y, theta, Tail::Upper).p_value);
        p_lower.push(binomial_test(x, y, theta, Tail::Lower).p_value);
        x_total += x;
        y_total += y;
        theta_weighted += theta * y as f64;
    }
    if p_upper.is_empty() {
        return None;
    }
    Some(DifferentialTest {
        miner: miner.to_string(),
        theta0: theta_weighted / y_total as f64,
        x: x_total,
        y: y_total,
        p_accelerate: fisher_combine(&p_upper),
        p_decelerate: fisher_combine(&p_lower),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cn_chain::{
        Address, Amount, Block, Chain, CoinbaseBuilder, Params, PoolMarker, Transaction,
    };

    /// Builds a chain where every block contains one marked c-transaction,
    /// with `miners[i]` mining block i.
    fn chain_with(miners: &[&str]) -> (Chain, FastSet<Txid>) {
        let mut chain = Chain::new(Params::mainnet());
        let mut fund =
            Transaction::builder().add_input(cn_chain::TxIn::new(cn_chain::OutPoint::NULL));
        for _ in miners {
            fund = fund.pay_to(Address::from_label("funder"), Amount::from_sat(1_000_000));
        }
        let fund = fund.build();
        chain.seed_utxos(&fund);
        let mut c_txids = FastSet::default();
        for (h, m) in miners.iter().enumerate() {
            let tx = Transaction::builder()
                .add_input_with_sizes(fund.txid(), h as u32, 107, 0)
                .pay_to(Address::from_label("r"), Amount::from_sat(900_000))
                .build();
            c_txids.insert(tx.txid());
            let cb = CoinbaseBuilder::new(h as u64)
                .marker(PoolMarker::new(format!("/{m}/")))
                .reward(Address::from_label(m), Amount::from_btc(50) + Amount::from_sat(100_000))
                .extra_nonce(h as u64)
                .build();
            let block =
                Block::assemble(2, chain.tip_hash(), h as u64 * 600, h as u32, cb, vec![tx]);
            chain.connect(block).expect("valid");
        }
        (chain, c_txids)
    }

    #[test]
    fn over_representation_flags_acceleration() {
        // Miner M mines 8 of 10 c-blocks with a 20% hash rate.
        let miners = ["M", "M", "M", "M", "M", "M", "M", "M", "O", "O"];
        let (chain, c_txids) = chain_with(&miners);
        let index = ChainIndex::build(&chain);
        let t = differential_prioritization(&index, &c_txids, "M", 0.2);
        assert_eq!(t.x, 8);
        assert_eq!(t.y, 10);
        assert!(t.p_accelerate < 1e-4, "p = {}", t.p_accelerate);
        assert!(t.accelerates_at(0.001));
        assert!(!t.decelerates_at(0.001));
    }

    #[test]
    fn proportional_representation_is_clean() {
        // Miner M mines 2 of 10 c-blocks at a 20% hash rate.
        let miners = ["M", "O", "O", "O", "M", "O", "O", "O", "O", "O"];
        let (chain, c_txids) = chain_with(&miners);
        let index = ChainIndex::build(&chain);
        let t = differential_prioritization(&index, &c_txids, "M", 0.2);
        assert_eq!((t.x, t.y), (2, 10));
        assert!(t.p_accelerate > 0.3);
        assert!(t.p_decelerate > 0.3);
    }

    #[test]
    fn under_representation_flags_deceleration() {
        // Miner M mines 0 of 12 c-blocks despite a 50% hash rate.
        let miners = ["O"; 12];
        let (chain, c_txids) = chain_with(&miners);
        let index = ChainIndex::build(&chain);
        let t = differential_prioritization(&index, &c_txids, "M", 0.5);
        assert_eq!(t.x, 0);
        assert!(t.p_decelerate < 0.001, "p = {}", t.p_decelerate);
        assert!(t.decelerates_at(0.001));
    }

    #[test]
    fn unconfirmed_c_txids_ignored() {
        let (chain, mut c_txids) = chain_with(&["M", "O"]);
        c_txids.insert(Txid::from([0xcc; 32])); // never confirmed
        let index = ChainIndex::build(&chain);
        let t = differential_prioritization(&index, &c_txids, "M", 0.5);
        assert_eq!(t.y, 2);
    }

    #[test]
    fn windowed_variant_agrees_qualitatively() {
        let miners = ["M", "M", "M", "M", "M", "M", "M", "M", "O", "O"];
        let (chain, c_txids) = chain_with(&miners);
        let index = ChainIndex::build(&chain);
        // NOTE: with window-local θ estimated from the same blocks the
        // test is conservative; use one window to compare totals.
        let w = windowed_prioritization(&index, &c_txids, "M", 2).expect("has c-blocks");
        assert_eq!(w.x, 8);
        assert_eq!(w.y, 10);
        assert!(w.theta0 > 0.0);
    }

    #[test]
    fn windowed_none_when_no_c_blocks() {
        let (chain, _) = chain_with(&["M", "O"]);
        let index = ChainIndex::build(&chain);
        let none = windowed_prioritization(&index, &FastSet::default(), "M", 3);
        assert!(none.is_none());
    }

    #[test]
    fn empty_chain_gives_trivial_test() {
        let chain = Chain::new(Params::mainnet());
        let index = ChainIndex::build(&chain);
        let t = differential_prioritization(&index, &FastSet::default(), "M", 0.3);
        assert_eq!((t.x, t.y), (0, 0));
        assert_eq!(t.p_accelerate, 1.0);
        assert_eq!(t.p_decelerate, 1.0);
    }
}
