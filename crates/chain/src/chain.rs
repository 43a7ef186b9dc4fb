//! An append-only, validated chain of blocks.

use crate::amount::Amount;
use crate::block::{Block, BlockHash};
use crate::params::Params;
use crate::transaction::Txid;
use crate::utxo::UtxoSet;
use crate::validation::{connect_block, ValidationError};
use crate::fasthash::FastSet;
use std::fmt;

/// Errors from extending a [`Chain`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChainError {
    /// The block's `prev_hash` does not match the current tip.
    WrongParent {
        /// The tip the block should have extended.
        expected: BlockHash,
        /// The parent it actually names.
        actual: BlockHash,
    },
    /// The block failed validation.
    Invalid(ValidationError),
}

impl fmt::Display for ChainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChainError::WrongParent { expected, actual } => {
                write!(f, "block extends {actual}, tip is {expected}")
            }
            ChainError::Invalid(e) => write!(f, "invalid block: {e}"),
        }
    }
}

impl std::error::Error for ChainError {}

impl From<ValidationError> for ChainError {
    fn from(e: ValidationError) -> Self {
        ChainError::Invalid(e)
    }
}

/// Per-block bookkeeping the audit pipeline consumes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlockRecord {
    /// Height in the chain (genesis = 0).
    pub height: u64,
    /// The block's hash.
    pub hash: BlockHash,
    /// Fees collected from body transactions.
    pub fees: Amount,
    /// Each body transaction's fee, in block order — what the ordering
    /// audit ranks by.
    pub tx_fees: Vec<Amount>,
    /// Subsidy available at this height.
    pub subsidy: Amount,
}

/// A single-branch, fully validated blockchain with a confirmed-txid index.
///
/// Reorgs are out of scope: the audit operates on the confirmed main chain,
/// exactly as the paper's datasets do.
#[derive(Clone, Debug, Default)]
pub struct Chain {
    params: Params,
    blocks: Vec<Block>,
    records: Vec<BlockRecord>,
    /// Every txid confirmed in the retained blocks.
    tx_index: FastSet<Txid>,
    utxos: UtxoSet,
    seeds: Vec<crate::transaction::Transaction>,
    /// Number of leading blocks dropped by [`Chain::prune_below`];
    /// `blocks[0]` sits at this height. Zero for unpruned chains, so the
    /// in-memory layout and behavior of the batch pipeline are unchanged.
    pruned: u64,
}

impl Chain {
    /// Creates an empty chain with the given parameters.
    pub fn new(params: Params) -> Chain {
        Chain { params, ..Chain::default() }
    }

    /// The chain parameters.
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// Number of blocks ever connected (pruned blocks still count).
    pub fn height(&self) -> u64 {
        self.pruned + self.blocks.len() as u64
    }

    /// True when no blocks have been connected.
    pub fn is_empty(&self) -> bool {
        self.height() == 0
    }

    /// Hash of the tip block, or the zero hash for an empty chain.
    pub fn tip_hash(&self) -> BlockHash {
        self.blocks.last().map_or(BlockHash::ZERO, |b| b.block_hash())
    }

    /// All *retained* blocks in height order (everything, unless
    /// [`Chain::prune_below`] dropped a prefix).
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Per-block records for the retained blocks, in height order.
    pub fn records(&self) -> &[BlockRecord] {
        &self.records
    }

    /// True when `txid` is confirmed in a retained block.
    pub fn contains_tx(&self, txid: &Txid) -> bool {
        self.tx_index.contains(txid)
    }

    /// The current UTXO set.
    pub fn utxos(&self) -> &UtxoSet {
        &self.utxos
    }

    /// Seeds the UTXO set with the outputs of a funding transaction without
    /// putting it in a block — the simulator's stand-in for coins that
    /// predate the observation window. Seeds are remembered so auditors
    /// can replay the chain from its initial state.
    pub fn seed_utxos(&mut self, tx: &crate::transaction::Transaction) {
        self.utxos.insert_outputs(tx);
        self.seeds.push(tx.clone());
    }

    /// The funding transactions seeded before any block, for replay.
    pub fn seeded_transactions(&self) -> &[crate::transaction::Transaction] {
        &self.seeds
    }

    /// Reconstructs the UTXO set as it stood before the first block.
    pub fn initial_utxos(&self) -> UtxoSet {
        let mut set = UtxoSet::new();
        for tx in &self.seeds {
            set.insert_outputs(tx);
        }
        set
    }

    /// Validates and appends `block` at the tip.
    pub fn connect(&mut self, block: Block) -> Result<&BlockRecord, ChainError> {
        let expected = self.tip_hash();
        if block.header.prev_hash != expected {
            return Err(ChainError::WrongParent { expected, actual: block.header.prev_hash });
        }
        let height = self.height();
        let tx_fees = connect_block(&block, &mut self.utxos, height, &self.params)?;
        let fees: Amount = tx_fees.iter().copied().sum();
        let hash = block.block_hash();
        self.tx_index.extend(block.transactions.iter().map(|tx| tx.txid()));
        self.records.push(BlockRecord {
            height,
            hash,
            fees,
            tx_fees,
            subsidy: self.params.subsidy_at(height),
        });
        self.blocks.push(block);
        Ok(self.records.last().expect("just pushed"))
    }

    /// Drops every block strictly below `height` from memory: the block
    /// bodies, their per-block records, and their `tx_index` entries. The
    /// UTXO set, seeds, and tip bookkeeping are untouched, so the chain
    /// keeps validating and connecting new blocks exactly as before — this
    /// is how the chunked simulation keeps resident state O(epoch) instead
    /// of O(chain).
    ///
    /// At least the tip block is always retained. Pruned history is gone:
    /// `blocks` and `records` start above it and `contains_tx` returns
    /// `false` for it — callers that need full history (the batch audit
    /// pipeline) simply never prune. Returns the number of blocks dropped.
    pub fn prune_below(&mut self, height: u64) -> usize {
        let cutoff = height.min(self.height().saturating_sub(1));
        let Some(dropped) = cutoff.checked_sub(self.pruned).map(|d| d as usize) else {
            return 0;
        };
        if dropped == 0 {
            return 0;
        }
        for block in self.blocks.drain(..dropped) {
            for tx in &block.transactions {
                self.tx_index.remove(&tx.txid());
            }
        }
        self.records.drain(..dropped);
        self.pruned = cutoff;
        dropped
    }

    /// Total fees collected across the retained blocks.
    pub fn total_fees(&self) -> Amount {
        self.records.iter().map(|r| r.fees).sum()
    }

    /// Count of retained blocks with no user transactions.
    pub fn empty_block_count(&self) -> usize {
        self.blocks.iter().filter(|b| b.is_empty_block()).count()
    }

    /// Total number of confirmed non-coinbase transactions in the retained
    /// blocks.
    pub fn body_tx_count(&self) -> usize {
        self.blocks.iter().map(|b| b.body().len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::Address;
    use crate::coinbase::CoinbaseBuilder;
    use crate::transaction::{OutPoint, Transaction, TxIn};

    fn coinbase(height: u64) -> Transaction {
        CoinbaseBuilder::new(height)
            .reward(Address::from_label("pool"), Amount::from_btc(50))
            .extra_nonce(height)
            .build()
    }

    fn extend(chain: &mut Chain, body: Vec<Transaction>) -> BlockHash {
        let h = chain.height();
        let block =
            Block::assemble(2, chain.tip_hash(), h * 600, h as u32, coinbase(h), body);
        let hash = block.block_hash();
        chain.connect(block).expect("valid block");
        hash
    }

    #[test]
    fn genesis_then_children_connect() {
        let mut chain = Chain::new(Params::mainnet());
        let g = extend(&mut chain, vec![]);
        let b1 = extend(&mut chain, vec![]);
        assert_eq!(chain.height(), 2);
        assert_eq!(chain.tip_hash(), b1);
        assert_eq!(chain.blocks()[0].block_hash(), g);
        assert_eq!(chain.blocks()[0].header.prev_hash, BlockHash::ZERO);
        assert_eq!(chain.blocks()[1].header.prev_hash, g);
        assert_eq!(chain.empty_block_count(), 2);
    }

    #[test]
    fn wrong_parent_rejected() {
        let mut chain = Chain::new(Params::mainnet());
        extend(&mut chain, vec![]);
        let orphan = Block::assemble(2, BlockHash::ZERO, 0, 99, coinbase(1), Vec::<Transaction>::new());
        assert!(matches!(chain.connect(orphan), Err(ChainError::WrongParent { .. })));
    }

    #[test]
    fn tx_index_tracks_heights() {
        let mut chain = Chain::new(Params::mainnet());
        let fund = Transaction::builder()
            .add_input(TxIn::new(OutPoint::NULL))
            .pay_to(Address::from_label("funder"), Amount::from_sat(500_000))
            .build();
        chain.seed_utxos(&fund);
        extend(&mut chain, vec![]);
        let spend = Transaction::builder()
            .add_input_with_sizes(fund.txid(), 0, 107, 0)
            .pay_to(Address::from_label("r"), Amount::from_sat(400_000))
            .build();
        let txid = spend.txid();
        assert!(!chain.contains_tx(&txid), "not confirmed yet");
        extend(&mut chain, vec![spend]);
        assert!(chain.contains_tx(&txid));
        assert!(chain.blocks()[1].transactions.iter().any(|tx| tx.txid() == txid));
        assert_eq!(chain.body_tx_count(), 1);
        assert_eq!(chain.total_fees(), Amount::from_sat(100_000));
    }

    #[test]
    fn invalid_block_does_not_advance_chain() {
        let mut chain = Chain::new(Params::mainnet());
        extend(&mut chain, vec![]);
        let bad_spend = Transaction::builder()
            .add_input_with_sizes([0xaa; 32].into(), 0, 107, 0)
            .pay_to(Address::from_label("x"), Amount::from_sat(1))
            .build();
        let block = Block::assemble(2, chain.tip_hash(), 600, 1, coinbase(1), vec![bad_spend]);
        assert!(chain.connect(block).is_err());
        assert_eq!(chain.height(), 1);
    }

    #[test]
    fn prune_below_drops_history_but_keeps_connecting() {
        let mut chain = Chain::new(Params::mainnet());
        let fund = Transaction::builder()
            .add_input(TxIn::new(OutPoint::NULL))
            .pay_to(Address::from_label("funder"), Amount::from_sat(500_000))
            .build();
        chain.seed_utxos(&fund);
        let mut hashes = Vec::new();
        for _ in 0..3 {
            hashes.push(extend(&mut chain, vec![]));
        }
        let spend = Transaction::builder()
            .add_input_with_sizes(fund.txid(), 0, 107, 0)
            .pay_to(Address::from_label("r"), Amount::from_sat(400_000))
            .build();
        let txid = spend.txid();
        hashes.push(extend(&mut chain, vec![spend]));

        assert_eq!(chain.prune_below(2), 2);
        assert_eq!(chain.height(), 4, "height counts pruned blocks");
        assert_eq!(chain.tip_hash(), hashes[3]);
        assert_eq!(chain.blocks().len(), 2, "pruned history is gone");
        assert_eq!(chain.blocks()[0].block_hash(), hashes[2]);
        assert!(chain.contains_tx(&txid), "retained txs still indexed");
        assert_eq!(chain.records().first().map(|r| r.height), Some(2));

        // Re-pruning below the current frontier is a no-op; the tip is
        // always retained even when asked to prune everything.
        assert_eq!(chain.prune_below(1), 0);
        assert_eq!(chain.prune_below(u64::MAX), 1);
        assert_eq!(chain.blocks().len(), 1);
        assert_eq!(chain.tip_hash(), hashes[3]);

        // The chain still validates and connects new blocks after pruning.
        let next = extend(&mut chain, vec![]);
        assert_eq!(chain.height(), 5);
        assert_eq!(chain.tip_hash(), next);
        assert_eq!(chain.blocks().last().map(Block::block_hash), Some(next));
    }

    #[test]
    fn records_carry_subsidy_schedule() {
        let mut params = Params::mainnet();
        params.halving_interval = 2;
        let mut chain = Chain::new(params);
        for _ in 0..4 {
            let h = chain.height();
            let cb = CoinbaseBuilder::new(h)
                .reward(Address::from_label("p"), chain.params().subsidy_at(h))
                .extra_nonce(h)
                .build();
            let block = Block::assemble(2, chain.tip_hash(), h * 600, h as u32, cb, Vec::<Transaction>::new());
            chain.connect(block).expect("valid");
        }
        let subsidies: Vec<u64> = chain.records().iter().map(|r| r.subsidy.to_sat()).collect();
        assert_eq!(
            subsidies,
            vec![5_000_000_000, 5_000_000_000, 2_500_000_000, 2_500_000_000]
        );
    }
}
