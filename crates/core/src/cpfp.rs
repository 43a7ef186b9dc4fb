//! Child-pays-for-parent detection, per the paper's §E definition.

use cn_chain::{Block, FastSet, Txid};

/// Returns the txids in `block` that are CPFP transactions per §E: a
/// transaction is CPFP iff at least one of its inputs spends an output of
/// another transaction included in the *same* block.
pub fn cpfp_txids_in_block(block: &Block) -> FastSet<Txid> {
    let in_block: FastSet<Txid> = block.body().iter().map(|t| t.txid()).collect();
    block
        .body()
        .iter()
        .filter(|t| t.inputs().iter().any(|i| in_block.contains(&i.prevout.txid)))
        .map(|t| t.txid())
        .collect()
}

/// Fraction of body transactions in `block` that are CPFP (0 for an empty
/// block).
pub fn cpfp_fraction(block: &Block) -> f64 {
    let n = block.body().len();
    if n == 0 {
        return 0.0;
    }
    cpfp_txids_in_block(block).len() as f64 / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use cn_chain::{Address, Amount, BlockHash, CoinbaseBuilder, Transaction, TxOut};

    fn coinbase() -> Transaction {
        CoinbaseBuilder::new(0).reward(Address::from_label("p"), Amount::from_btc(6)).build()
    }

    fn tx(seed: u8) -> Transaction {
        Transaction::builder()
            .add_input_with_sizes([seed; 32].into(), 0, 107, 0)
            .add_output(TxOut::to_address(Amount::from_sat(10_000), Address::from_label("r")))
            .build()
    }

    fn child_of(parent: &Transaction) -> Transaction {
        Transaction::builder()
            .add_input_with_sizes(parent.txid(), 0, 107, 0)
            .add_output(TxOut::to_address(Amount::from_sat(5_000), Address::from_label("c")))
            .build()
    }

    #[test]
    fn detects_same_block_dependency() {
        let a = tx(1);
        let b = child_of(&a);
        let c = tx(2);
        let block =
            Block::assemble(2, BlockHash::ZERO, 0, 0, coinbase(), vec![a.clone(), b.clone(), c]);
        let cpfp = cpfp_txids_in_block(&block);
        assert_eq!(cpfp, FastSet::from_iter([b.txid()]));
        assert!((cpfp_fraction(&block) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn cross_block_dependency_is_not_cpfp() {
        let a = tx(1);
        let b = child_of(&a);
        // Parent in an earlier block: b alone in this block is not CPFP.
        let block = Block::assemble(2, BlockHash::ZERO, 0, 0, coinbase(), vec![b]);
        assert!(cpfp_txids_in_block(&block).is_empty());
    }

    #[test]
    fn grandchild_chain_all_flagged_but_root() {
        let a = tx(1);
        let b = child_of(&a);
        let c = child_of(&b);
        let block = Block::assemble(
            2,
            BlockHash::ZERO,
            0,
            0,
            coinbase(),
            vec![a.clone(), b.clone(), c.clone()],
        );
        let cpfp = cpfp_txids_in_block(&block);
        assert!(!cpfp.contains(&a.txid()));
        assert!(cpfp.contains(&b.txid()));
        assert!(cpfp.contains(&c.txid()));
    }

    #[test]
    fn coinbase_spend_is_not_cpfp() {
        // Spending the same block's coinbase would be invalid anyway; the
        // coinbase is not part of the body set.
        let block = Block::assemble(2, BlockHash::ZERO, 0, 0, coinbase(), vec![tx(3)]);
        assert!(cpfp_txids_in_block(&block).is_empty());
        assert_eq!(cpfp_fraction(&block), 0.0);
    }

    #[test]
    fn empty_block_fraction_zero() {
        let block =
            Block::assemble(2, BlockHash::ZERO, 0, 0, coinbase(), Vec::<Transaction>::new());
        assert_eq!(cpfp_fraction(&block), 0.0);
    }
}
