//! Stateless and contextual block validity checks.

use crate::amount::Amount;
use crate::block::Block;
use crate::params::Params;
use crate::transaction::OutPoint;
use crate::utxo::{UtxoError, UtxoSet};
use std::collections::HashSet;
use std::fmt;

/// Reasons a block fails validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationError {
    /// First transaction is not a coinbase, or a coinbase appears later.
    BadCoinbasePlacement,
    /// The header's merkle root does not match the transactions.
    BadMerkleRoot,
    /// Total block weight exceeds the consensus limit.
    OversizedBlock {
        /// The offending weight.
        weight: u64,
        /// The consensus limit.
        limit: u64,
    },
    /// Two transactions in the block spend the same output.
    DuplicateSpend(OutPoint),
    /// The same transaction appears twice.
    DuplicateTx,
    /// Coinbase claims more than subsidy plus fees.
    ExcessCoinbaseValue {
        /// What the coinbase claims.
        claimed: Amount,
        /// Subsidy plus collected fees.
        allowed: Amount,
    },
    /// A body transaction failed UTXO rules.
    Utxo(UtxoError),
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::BadCoinbasePlacement => write!(f, "bad coinbase placement"),
            ValidationError::BadMerkleRoot => write!(f, "merkle root mismatch"),
            ValidationError::OversizedBlock { weight, limit } => {
                write!(f, "block weight {weight} exceeds limit {limit}")
            }
            ValidationError::DuplicateSpend(op) => {
                write!(f, "duplicate spend of {}:{}", op.txid, op.vout)
            }
            ValidationError::DuplicateTx => write!(f, "duplicate transaction"),
            ValidationError::ExcessCoinbaseValue { claimed, allowed } => {
                write!(f, "coinbase claims {claimed} but only {allowed} allowed")
            }
            ValidationError::Utxo(e) => write!(f, "utxo error: {e}"),
        }
    }
}

impl std::error::Error for ValidationError {}

impl From<UtxoError> for ValidationError {
    fn from(e: UtxoError) -> Self {
        ValidationError::Utxo(e)
    }
}

/// Checks that hold without chain context: coinbase placement, merkle
/// commitment, weight limit, duplicate txids, intra-block conflicting spends.
pub fn check_block_stateless(block: &Block, params: &Params) -> Result<(), ValidationError> {
    if block.coinbase().is_none() {
        return Err(ValidationError::BadCoinbasePlacement);
    }
    if block.body().iter().any(|t| t.is_coinbase()) {
        return Err(ValidationError::BadCoinbasePlacement);
    }
    if block.computed_merkle_root() != block.header.merkle_root {
        return Err(ValidationError::BadMerkleRoot);
    }
    let weight = block.total_weight();
    if weight > params.max_block_weight {
        return Err(ValidationError::OversizedBlock { weight, limit: params.max_block_weight });
    }
    let mut txids = HashSet::with_capacity(block.transactions.len());
    for tx in &block.transactions {
        if !txids.insert(tx.txid()) {
            return Err(ValidationError::DuplicateTx);
        }
    }
    let mut spends = HashSet::new();
    for tx in block.body() {
        for input in tx.inputs() {
            if !spends.insert(input.prevout) {
                return Err(ValidationError::DuplicateSpend(input.prevout));
            }
        }
    }
    Ok(())
}

/// Validates `block` against `utxos` at `height`, applying it on success and
/// returning each body transaction's fee in block order. On failure `utxos`
/// is left unchanged.
pub fn connect_block(
    block: &Block,
    utxos: &mut UtxoSet,
    height: u64,
    params: &Params,
) -> Result<Vec<Amount>, ValidationError> {
    check_block_stateless(block, params)?;
    // Validate read-only against the live set plus an in-block overlay, so
    // failures cannot corrupt it — without cloning the whole UTXO map the
    // way the old trial-apply did.
    let tx_fees = utxos.check_block_detailed(block)?;
    let fees: Amount = tx_fees.iter().copied().sum();
    let coinbase = block.coinbase().expect("checked by stateless validation");
    let allowed = params.subsidy_at(height) + fees;
    if coinbase.output_value() > allowed {
        return Err(ValidationError::ExcessCoinbaseValue {
            claimed: coinbase.output_value(),
            allowed,
        });
    }
    utxos.commit_checked_block(block);
    Ok(tx_fees)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::Address;
    use crate::block::BlockHash;
    use crate::coinbase::CoinbaseBuilder;
    use crate::transaction::{Transaction, TxIn};

    fn params() -> Params {
        Params::mainnet()
    }

    fn coinbase(height: u64, value: Amount) -> Transaction {
        CoinbaseBuilder::new(height).reward(Address::from_label("pool"), value).build()
    }

    fn funded_set() -> (UtxoSet, Transaction) {
        let mut set = UtxoSet::new();
        let fund = Transaction::builder()
            .add_input(TxIn::new(crate::transaction::OutPoint::NULL))
            .pay_to(Address::from_label("funder"), Amount::from_sat(1_000_000))
            .build();
        set.insert_outputs(&fund);
        (set, fund)
    }

    fn spend(from: &Transaction, out_value: u64) -> Transaction {
        Transaction::builder()
            .add_input_with_sizes(from.txid(), 0, 107, 0)
            .pay_to(Address::from_label("r"), Amount::from_sat(out_value))
            .build()
    }

    #[test]
    fn valid_block_connects() {
        let (mut set, fund) = funded_set();
        let tx = spend(&fund, 990_000);
        let block = Block::assemble(
            2,
            BlockHash::ZERO,
            0,
            0,
            coinbase(0, Amount::from_btc(50) + Amount::from_sat(10_000)),
            vec![tx],
        );
        let fees = connect_block(&block, &mut set, 0, &params()).expect("valid");
        assert_eq!(fees, vec![Amount::from_sat(10_000)]);
    }

    #[test]
    fn missing_coinbase_rejected() {
        let (mut set, fund) = funded_set();
        let tx = spend(&fund, 990_000);
        // Assemble with a "coinbase" that is not actually a coinbase.
        let not_cb = spend(&fund, 1_000);
        let block = Block::assemble(2, BlockHash::ZERO, 0, 0, not_cb, vec![tx]);
        assert_eq!(
            connect_block(&block, &mut set, 0, &params()),
            Err(ValidationError::BadCoinbasePlacement)
        );
    }

    #[test]
    fn tampered_merkle_rejected() {
        let (mut set, fund) = funded_set();
        let tx = spend(&fund, 990_000);
        let mut block = Block::assemble(
            2,
            BlockHash::ZERO,
            0,
            0,
            coinbase(0, Amount::from_btc(50)),
            Vec::<Transaction>::new(),
        );
        // Smuggle in a transaction without recomputing the root.
        block.transactions.push(tx.into());
        assert_eq!(
            connect_block(&block, &mut set, 0, &params()),
            Err(ValidationError::BadMerkleRoot)
        );
    }

    #[test]
    fn greedy_coinbase_rejected_and_set_untouched() {
        let (mut set, fund) = funded_set();
        let before = set.len();
        let tx = spend(&fund, 990_000);
        let block = Block::assemble(
            2,
            BlockHash::ZERO,
            0,
            0,
            coinbase(0, Amount::from_btc(51)), // subsidy is 50, fee 0.0001
            vec![tx],
        );
        assert!(matches!(
            connect_block(&block, &mut set, 0, &params()),
            Err(ValidationError::ExcessCoinbaseValue { .. })
        ));
        assert_eq!(set.len(), before);
    }

    #[test]
    fn conflicting_spends_rejected() {
        let (mut set, fund) = funded_set();
        let t1 = spend(&fund, 990_000);
        let t2 = spend(&fund, 980_000);
        let block = Block::assemble(
            2,
            BlockHash::ZERO,
            0,
            0,
            coinbase(0, Amount::from_btc(50)),
            vec![t1, t2],
        );
        assert!(matches!(
            connect_block(&block, &mut set, 0, &params()),
            Err(ValidationError::DuplicateSpend(_))
        ));
    }

    #[test]
    fn duplicate_tx_rejected() {
        let (mut set, fund) = funded_set();
        let t1 = spend(&fund, 990_000);
        let block = Block::assemble(
            2,
            BlockHash::ZERO,
            0,
            0,
            coinbase(0, Amount::from_btc(50)),
            vec![t1.clone(), t1],
        );
        assert!(matches!(
            connect_block(&block, &mut set, 0, &params()),
            Err(ValidationError::DuplicateTx)
        ));
    }

    #[test]
    fn oversized_block_rejected() {
        let mut small = params();
        small.max_block_weight = 500; // smaller than coinbase + one tx
        let (mut set, fund) = funded_set();
        let tx = spend(&fund, 990_000);
        let block =
            Block::assemble(2, BlockHash::ZERO, 0, 0, coinbase(0, Amount::from_btc(50)), vec![tx]);
        assert!(matches!(
            connect_block(&block, &mut set, 0, &small),
            Err(ValidationError::OversizedBlock { .. })
        ));
    }

    #[test]
    fn coinbase_in_body_rejected() {
        let (mut set, _) = funded_set();
        let rogue_cb = coinbase(1, Amount::from_btc(1));
        let block = Block::assemble(
            2,
            BlockHash::ZERO,
            0,
            0,
            coinbase(0, Amount::from_btc(50)),
            vec![rogue_cb],
        );
        assert_eq!(
            connect_block(&block, &mut set, 0, &params()),
            Err(ValidationError::BadCoinbasePlacement)
        );
    }
}
