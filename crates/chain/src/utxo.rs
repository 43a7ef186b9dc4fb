//! The unspent-transaction-output set, and fee computation.

use crate::amount::Amount;
use crate::block::Block;
use crate::fasthash::FastMap;
use crate::transaction::{OutPoint, Transaction, TxOut};
use std::fmt;

/// Errors from applying transactions to the UTXO set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UtxoError {
    /// An input referenced an unknown or already-spent output.
    MissingInput(OutPoint),
    /// Input value was smaller than output value (negative fee).
    NegativeFee,
    /// The same output was spent twice within the unit being applied.
    DoubleSpend(OutPoint),
}

impl fmt::Display for UtxoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UtxoError::MissingInput(op) => write!(f, "missing input {}:{}", op.txid, op.vout),
            UtxoError::NegativeFee => write!(f, "outputs exceed inputs"),
            UtxoError::DoubleSpend(op) => write!(f, "double spend of {}:{}", op.txid, op.vout),
        }
    }
}

impl std::error::Error for UtxoError {}

/// An in-memory UTXO set.
#[derive(Clone, Debug, Default)]
pub struct UtxoSet {
    utxos: FastMap<OutPoint, TxOut>,
}

impl UtxoSet {
    /// Creates an empty set.
    pub fn new() -> UtxoSet {
        UtxoSet::default()
    }

    /// Number of unspent outputs.
    pub fn len(&self) -> usize {
        self.utxos.len()
    }

    /// True when no outputs are unspent.
    pub fn is_empty(&self) -> bool {
        self.utxos.is_empty()
    }

    /// Looks up an unspent output.
    pub fn get(&self, outpoint: &OutPoint) -> Option<&TxOut> {
        self.utxos.get(outpoint)
    }

    /// True when `outpoint` is unspent.
    pub fn contains(&self, outpoint: &OutPoint) -> bool {
        self.utxos.contains_key(outpoint)
    }

    /// Iterates over all unspent outputs (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = (&OutPoint, &TxOut)> {
        self.utxos.iter()
    }

    /// Total input value of `tx` — the sum of values of the outputs it
    /// spends. Fails if any input is not currently unspent.
    pub fn input_value(&self, tx: &Transaction) -> Result<Amount, UtxoError> {
        let mut total = Amount::ZERO;
        for input in tx.inputs() {
            let prev =
                self.utxos.get(&input.prevout).ok_or(UtxoError::MissingInput(input.prevout))?;
            total = total.checked_add(prev.value).ok_or(UtxoError::NegativeFee)?;
        }
        Ok(total)
    }

    /// The fee `tx` pays: input value minus output value.
    pub fn fee(&self, tx: &Transaction) -> Result<Amount, UtxoError> {
        let in_value = self.input_value(tx)?;
        in_value.checked_sub(tx.output_value()).ok_or(UtxoError::NegativeFee)
    }

    /// Applies a non-coinbase transaction: consumes its inputs, inserts its
    /// outputs. Validates spendability and non-negative fee first, so a
    /// failed apply leaves the set untouched.
    pub fn apply_tx(&mut self, tx: &Transaction) -> Result<Amount, UtxoError> {
        let fee = self.fee(tx)?;
        // Detect intra-tx double spends before mutating.
        for (i, a) in tx.inputs().iter().enumerate() {
            for b in &tx.inputs()[i + 1..] {
                if a.prevout == b.prevout {
                    return Err(UtxoError::DoubleSpend(a.prevout));
                }
            }
        }
        for input in tx.inputs() {
            self.utxos.remove(&input.prevout);
        }
        self.insert_outputs(tx);
        Ok(fee)
    }

    /// Inserts all outputs of `tx` (used for coinbases and initial funding).
    pub fn insert_outputs(&mut self, tx: &Transaction) {
        for (vout, output) in tx.outputs().iter().enumerate() {
            self.utxos.insert(OutPoint::new(tx.txid(), vout as u32), output.clone());
        }
    }

    /// Validates a whole block against `self` plus an in-block overlay and
    /// returns each body transaction's fee in block order — the
    /// per-transaction record the ordering audit needs — without touching
    /// the set. The result (fees, or the first error) is what inserting the
    /// coinbase outputs and then [`UtxoSet::apply_tx`] on each body
    /// transaction in turn would give. The overlay shadows the base set —
    /// `Some(value)` for outputs created in the block, `None` for outputs
    /// it has spent — so in-block chains and re-creations resolve exactly
    /// as that sequential apply would.
    pub fn check_block_detailed(&self, block: &Block) -> Result<Vec<Amount>, UtxoError> {
        let mut overlay: FastMap<OutPoint, Option<Amount>> = FastMap::default();
        if let Some(cb) = block.coinbase() {
            for (vout, output) in cb.outputs().iter().enumerate() {
                overlay.insert(OutPoint::new(cb.txid(), vout as u32), Some(output.value));
            }
        }
        let mut fees = Vec::with_capacity(block.body().len());
        for tx in block.body() {
            let mut in_value = Amount::ZERO;
            for input in tx.inputs() {
                let prev = match overlay.get(&input.prevout) {
                    Some(Some(value)) => *value,
                    Some(None) => return Err(UtxoError::MissingInput(input.prevout)),
                    None => {
                        self.utxos
                            .get(&input.prevout)
                            .ok_or(UtxoError::MissingInput(input.prevout))?
                            .value
                    }
                };
                in_value = in_value.checked_add(prev).ok_or(UtxoError::NegativeFee)?;
            }
            let fee = in_value.checked_sub(tx.output_value()).ok_or(UtxoError::NegativeFee)?;
            // Same intra-tx double-spend scan as `apply_tx`, in the same
            // position (after the fee computation).
            for (i, a) in tx.inputs().iter().enumerate() {
                for b in &tx.inputs()[i + 1..] {
                    if a.prevout == b.prevout {
                        return Err(UtxoError::DoubleSpend(a.prevout));
                    }
                }
            }
            for input in tx.inputs() {
                overlay.insert(input.prevout, None);
            }
            for (vout, output) in tx.outputs().iter().enumerate() {
                overlay.insert(OutPoint::new(tx.txid(), vout as u32), Some(output.value));
            }
            fees.push(fee);
        }
        Ok(fees)
    }

    /// Applies a block already validated by
    /// [`UtxoSet::check_block_detailed`]: consumes inputs and inserts
    /// outputs with no further checks. Calling this with an unchecked block
    /// can corrupt the set.
    pub fn commit_checked_block(&mut self, block: &Block) {
        if let Some(cb) = block.coinbase() {
            self.insert_outputs(cb);
        }
        for tx in block.body() {
            for input in tx.inputs() {
                self.utxos.remove(&input.prevout);
            }
            self.insert_outputs(tx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::Address;
    use crate::block::BlockHash;
    use crate::coinbase::CoinbaseBuilder;
    use crate::transaction::Txid;

    fn funding_tx(value: u64) -> Transaction {
        Transaction::builder()
            .add_input(crate::transaction::TxIn::new(OutPoint::NULL))
            .pay_to(Address::from_label("funder"), Amount::from_sat(value))
            .build()
    }

    fn spend(from: &Transaction, vout: u32, out_value: u64) -> Transaction {
        Transaction::builder()
            .add_input_with_sizes(from.txid(), vout, 107, 0)
            .pay_to(Address::from_label("recipient"), Amount::from_sat(out_value))
            .build()
    }

    /// The reference block apply: the coinbase's outputs, then
    /// [`UtxoSet::apply_tx`] on each body transaction in order. On error
    /// the set may be partially updated.
    fn apply_sequential(set: &mut UtxoSet, block: &Block) -> Result<Vec<Amount>, UtxoError> {
        if let Some(cb) = block.coinbase() {
            set.insert_outputs(cb);
        }
        block.body().iter().map(|tx| set.apply_tx(tx)).collect()
    }

    /// Connects `block` through the check-then-commit path and returns its
    /// total fees.
    fn connect(set: &mut UtxoSet, block: &Block) -> Result<Amount, UtxoError> {
        let fees = set.check_block_detailed(block)?;
        set.commit_checked_block(block);
        Ok(fees.into_iter().sum())
    }

    #[test]
    fn fee_is_inputs_minus_outputs() {
        let mut set = UtxoSet::new();
        let fund = funding_tx(100_000);
        set.insert_outputs(&fund);
        let tx = spend(&fund, 0, 90_000);
        assert_eq!(set.fee(&tx), Ok(Amount::from_sat(10_000)));
        assert_eq!(set.apply_tx(&tx), Ok(Amount::from_sat(10_000)));
        assert!(!set.contains(&OutPoint::new(fund.txid(), 0)));
        assert!(set.contains(&OutPoint::new(tx.txid(), 0)));
    }

    #[test]
    fn missing_input_rejected() {
        let set = UtxoSet::new();
        let tx = spend(&funding_tx(1), 0, 1);
        assert!(matches!(set.fee(&tx), Err(UtxoError::MissingInput(_))));
    }

    #[test]
    fn negative_fee_rejected_without_mutation() {
        let mut set = UtxoSet::new();
        let fund = funding_tx(100);
        set.insert_outputs(&fund);
        let tx = spend(&fund, 0, 200);
        assert_eq!(set.apply_tx(&tx), Err(UtxoError::NegativeFee));
        // Set untouched.
        assert!(set.contains(&OutPoint::new(fund.txid(), 0)));
    }

    #[test]
    fn double_spend_within_tx_rejected() {
        let mut set = UtxoSet::new();
        let fund = funding_tx(100_000);
        set.insert_outputs(&fund);
        let tx = Transaction::builder()
            .add_input_with_sizes(fund.txid(), 0, 107, 0)
            .add_input_with_sizes(fund.txid(), 0, 107, 0)
            .pay_to(Address::from_label("r"), Amount::from_sat(100))
            .build();
        // fee() sums the same prevout twice, so apply must catch it.
        assert!(matches!(set.apply_tx(&tx), Err(UtxoError::DoubleSpend(_))));
    }

    #[test]
    fn sequential_double_spend_rejected() {
        let mut set = UtxoSet::new();
        let fund = funding_tx(100_000);
        set.insert_outputs(&fund);
        let tx1 = spend(&fund, 0, 90_000);
        let tx2 = spend(&fund, 0, 80_000);
        assert!(set.apply_tx(&tx1).is_ok());
        assert!(matches!(set.apply_tx(&tx2), Err(UtxoError::MissingInput(_))));
    }

    #[test]
    fn connect_collects_fees() {
        let mut set = UtxoSet::new();
        let fund1 = funding_tx(100_000);
        let fund2 = Transaction::builder()
            .add_input_with_sizes(Txid::from([9u8; 32]), 9, 1, 0)
            .pay_to(Address::from_label("f2"), Amount::from_sat(50_000))
            .build();
        set.insert_outputs(&fund1);
        set.insert_outputs(&fund2);
        let t1 = spend(&fund1, 0, 95_000);
        let t2 = spend(&fund2, 0, 49_000);
        let cb = CoinbaseBuilder::new(1)
            .reward(Address::from_label("pool"), Amount::from_btc(6))
            .build();
        let block = Block::assemble(2, BlockHash::ZERO, 0, 0, cb.clone(), vec![t1, t2]);
        let fees = connect(&mut set, &block).expect("valid block");
        assert_eq!(fees, Amount::from_sat(6_000));
        assert!(set.contains(&OutPoint::new(cb.txid(), 0)));
    }

    #[test]
    fn check_then_commit_matches_apply() {
        // The read-only check plus blind commit must land the set in the
        // same state (and report the same fees) as the sequential apply.
        let mut applied = UtxoSet::new();
        let fund = funding_tx(100_000);
        applied.insert_outputs(&fund);
        let mut checked = applied.clone();

        let parent = spend(&fund, 0, 90_000);
        let child = spend(&parent, 0, 70_000);
        let cb = CoinbaseBuilder::new(1)
            .reward(Address::from_label("pool"), Amount::from_btc(6))
            .build();
        let block = Block::assemble(2, BlockHash::ZERO, 0, 0, cb, vec![parent, child]);

        let fees_apply = apply_sequential(&mut applied, &block).expect("valid block");
        let fees_check = checked.check_block_detailed(&block).expect("valid block");
        assert_eq!(fees_apply, fees_check);
        checked.commit_checked_block(&block);
        assert_eq!(applied.len(), checked.len());
        for (op, _) in applied.utxos.iter() {
            assert_eq!(applied.get(op).map(|o| o.value), checked.get(op).map(|o| o.value));
        }
    }

    #[test]
    fn check_block_reports_same_errors_as_apply() {
        let mut set = UtxoSet::new();
        let fund = funding_tx(100_000);
        set.insert_outputs(&fund);
        let cb = CoinbaseBuilder::new(1)
            .reward(Address::from_label("pool"), Amount::from_btc(6))
            .build();

        // Sequential double spend inside the block: second tx sees a
        // missing input, exactly like the sequential apply.
        let t1 = spend(&fund, 0, 90_000);
        let t2 = spend(&fund, 0, 80_000);
        let block = Block::assemble(2, BlockHash::ZERO, 0, 0, cb.clone(), vec![t1, t2]);
        let check_err = set.check_block_detailed(&block).unwrap_err();
        let apply_err = apply_sequential(&mut set.clone(), &block).unwrap_err();
        assert_eq!(check_err, apply_err);
        assert!(matches!(check_err, UtxoError::MissingInput(_)));

        // Negative fee.
        let greedy = spend(&fund, 0, 200_000);
        let block = Block::assemble(2, BlockHash::ZERO, 0, 0, cb.clone(), vec![greedy]);
        assert_eq!(set.check_block_detailed(&block), Err(UtxoError::NegativeFee));

        // Intra-tx double spend.
        let dup = Transaction::builder()
            .add_input_with_sizes(fund.txid(), 0, 107, 0)
            .add_input_with_sizes(fund.txid(), 0, 107, 0)
            .pay_to(Address::from_label("r"), Amount::from_sat(100))
            .build();
        let block = Block::assemble(2, BlockHash::ZERO, 0, 0, cb, vec![dup]);
        assert!(matches!(set.check_block_detailed(&block), Err(UtxoError::DoubleSpend(_))));
        // The read-only check never touched the set.
        assert!(set.contains(&OutPoint::new(fund.txid(), 0)));
    }

    #[test]
    fn chained_spend_within_block_is_valid() {
        // CPFP shape: child spends parent's output inside the same block.
        let mut set = UtxoSet::new();
        let fund = funding_tx(100_000);
        set.insert_outputs(&fund);
        let parent = spend(&fund, 0, 90_000);
        let child = spend(&parent, 0, 70_000);
        let cb = CoinbaseBuilder::new(1)
            .reward(Address::from_label("pool"), Amount::from_btc(6))
            .build();
        let block = Block::assemble(2, BlockHash::ZERO, 0, 0, cb, vec![parent, child]);
        let fees = connect(&mut set, &block).expect("valid block");
        assert_eq!(fees, Amount::from_sat(10_000 + 20_000));
    }
}
