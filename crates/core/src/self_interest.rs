//! Self-interest transaction identification (§5.2, Figure 8b).
//!
//! A transaction is a *self-interest* transaction of pool `P` when it
//! moves coins **from** or **to** one of `P`'s wallets. Pool wallets come
//! from coinbase reward outputs (`attribution`), known only once the chain
//! is, so the one classifier is a touch log keyed by address and read
//! against the wallets at verdict time. The streaming auditor fills it as
//! blocks replay through its UTXO view; the batch audit, by an
//! address-only replay of the chain.

use crate::attribution::Attribution;
use crate::index::{checked_len, put_address, read_address};
use bytes::{BufMut, Bytes, BytesMut};
use cn_chain::encode::{read_compact_size, write_compact_size, Decodable, DecodeError};
use cn_chain::{Address, Chain, FastMap, FastSet, Hash256, OutPoint, Transaction, Txid};
use std::collections::HashMap;

/// Transactions touching each pool's wallets.
#[derive(Clone, Debug, Default)]
pub struct SelfInterestMap {
    /// Pool name → txids that send from or pay to its wallets.
    pub by_pool: HashMap<String, FastSet<Txid>>,
}

impl SelfInterestMap {
    /// The transactions of one pool.
    pub fn of(&self, pool: &str) -> Option<&FastSet<Txid>> {
        self.by_pool.get(pool)
    }

    /// Total transactions flagged across pools (a tx touching two pools'
    /// wallets counts for both, as in the paper's per-pool counts).
    pub fn total_flagged(&self) -> usize {
        self.by_pool.values().map(|s| s.len()).sum()
    }
}

/// Every confirmed txid under each address it touched, in chain order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct TouchLog {
    by_address: FastMap<Address, Vec<Txid>>,
}

impl TouchLog {
    /// Logs `tx`, once it has replayed, under each distinct address among
    /// `funding` (its inputs' addresses, resolved before the spend) and its
    /// outputs.
    pub(crate) fn record(&mut self, tx: &Transaction, funding: Vec<Address>) {
        let mut touched = funding;
        touched.extend(tx.output_addresses());
        touched.sort_unstable();
        touched.dedup();
        for addr in touched {
            self.by_address.entry(addr).or_default().push(tx.txid());
        }
    }

    /// The log of a validated, unpruned chain, replaying only the address
    /// each unspent output pays.
    pub(crate) fn replay(chain: &Chain) -> TouchLog {
        fn add_outputs(unspent: &mut FastMap<OutPoint, Address>, tx: &Transaction) {
            for (vout, output) in tx.outputs().iter().enumerate() {
                if let Some(addr) = output.address() {
                    unspent.insert(OutPoint::new(tx.txid(), vout as u32), addr);
                }
            }
        }
        assert!(chain.blocks().len() as u64 == chain.height(), "a pruned chain cannot be replayed");
        let mut unspent = FastMap::default();
        for seed in chain.seeded_transactions() {
            add_outputs(&mut unspent, seed);
        }
        let mut log = TouchLog::default();
        for block in chain.blocks() {
            if let Some(cb) = block.coinbase() {
                add_outputs(&mut unspent, cb);
            }
            for tx in block.body() {
                let funding =
                    tx.inputs().iter().filter_map(|i| unspent.remove(&i.prevout)).collect();
                add_outputs(&mut unspent, tx);
                log.record(tx, funding);
            }
        }
        log
    }

    /// Each pool's txids logged under any of its wallets; a wallet several
    /// pools share (like BitDeer/BTC.com in the paper) counts for each.
    pub(crate) fn self_interest(&self, attribution: &Attribution) -> SelfInterestMap {
        let mut map = SelfInterestMap::default();
        for pool in &attribution.pools {
            let txids: FastSet<Txid> = pool
                .wallets
                .iter()
                .filter_map(|wallet| self.by_address.get(wallet))
                .flatten()
                .copied()
                .collect();
            if !txids.is_empty() {
                map.by_pool.insert(pool.name.clone(), txids);
            }
        }
        map
    }

    /// Appends `later`'s entries after this log's, address by address.
    pub(crate) fn extend(&mut self, later: &TouchLog) {
        for (addr, txids) in &later.by_address {
            self.by_address.entry(*addr).or_default().extend_from_slice(txids);
        }
    }

    /// Writes the log with the chain's wire primitives, addresses sorted so
    /// that equal logs encode to equal bytes.
    pub(crate) fn encode(&self, buf: &mut BytesMut) {
        let mut entries: Vec<(&Address, &Vec<Txid>)> = self.by_address.iter().collect();
        entries.sort_unstable_by_key(|(addr, _)| **addr);
        write_compact_size(buf, entries.len() as u64);
        for (addr, txids) in entries {
            put_address(buf, addr);
            write_compact_size(buf, txids.len() as u64);
            for txid in txids {
                buf.put_slice(txid.0.as_bytes());
            }
        }
    }

    /// Decodes an encoding onto this log, after its entries: the inverse
    /// of [`TouchLog::encode`], and [`TouchLog::extend`] without a copy.
    pub(crate) fn decode(&mut self, buf: &mut Bytes) -> Result<(), DecodeError> {
        let addr_count = checked_len(read_compact_size(buf)?)?;
        self.by_address.reserve(addr_count.min(1 << 20));
        for _ in 0..addr_count {
            let addr = read_address(buf)?;
            let n = checked_len(read_compact_size(buf)?)?;
            let txids = self.by_address.entry(addr).or_default();
            txids.reserve(n.min(1 << 20));
            for _ in 0..n {
                txids.push(Txid(Hash256::decode(buf)?));
            }
        }
        Ok(())
    }
}

/// Classifies every body transaction of a validated chain against the
/// pools' wallet inventories, through the streaming auditor's touch log.
///
/// # Panics
/// Panics on a chain pruned by [`Chain::prune_below`].
pub fn find_self_interest_transactions(
    chain: &Chain,
    attribution: &Attribution,
) -> SelfInterestMap {
    TouchLog::replay(chain).self_interest(attribution)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attribution::attribute;
    use crate::coverage::StreamExpectation;
    use crate::index::ChainIndex;
    use crate::streaming::{StreamingAuditor, StreamingConfig};
    use cn_chain::{Amount, Block, BlockHash, CoinbaseBuilder, Params, PoolMarker};

    /// P mines block 0 and Q block 1; in block 1 someone pays P's wallet,
    /// and P spends its block-0 reward.
    fn build() -> (Chain, ChainIndex) {
        build_paying_q_to(Address::from_label("pool:Q:0"))
    }

    /// `build` with Q's block-1 reward paid to `q_wallet`.
    fn build_paying_q_to(q_wallet: Address) -> (Chain, ChainIndex) {
        let mut chain = Chain::new(Params::mainnet());
        let fund = Transaction::builder()
            .add_input(cn_chain::TxIn::new(cn_chain::OutPoint::NULL))
            .pay_to(Address::from_label("user"), Amount::from_sat(5_000_000))
            .pay_to(Address::from_label("user2"), Amount::from_sat(5_000_000))
            .build();
        chain.seed_utxos(&fund);
        let pool_wallet = Address::from_label("pool:P:0");

        // Block 0: P's coinbase reward to its wallet.
        let cb0 = CoinbaseBuilder::new(0)
            .marker(PoolMarker::new("/P/"))
            .reward(pool_wallet, Amount::from_btc(50))
            .build();
        let cb0_txid = cb0.txid();
        let b0 = Block::assemble(2, BlockHash::ZERO, 0, 0, cb0, Vec::<Transaction>::new());
        chain.connect(b0).expect("valid");

        // Block 1 (mined by Q): a user pays P's wallet (to-pool tx) and P
        // spends its reward (from-pool tx); a third tx touches no pool.
        let pay_to_pool = Transaction::builder()
            .add_input_with_sizes(fund.txid(), 0, 107, 0)
            .pay_to(pool_wallet, Amount::from_sat(4_000_000))
            .build();
        let spend_reward = Transaction::builder()
            .add_input_with_sizes(cb0_txid, 0, 107, 0)
            .pay_to(Address::from_label("exchange"), Amount::from_btc(49))
            .build();
        let unrelated = Transaction::builder()
            .add_input_with_sizes(fund.txid(), 1, 107, 0)
            .pay_to(Address::from_label("someone"), Amount::from_sat(4_900_000))
            .build();
        let fees = Amount::from_sat(1_000_000) + Amount::from_btc(1) + Amount::from_sat(100_000);
        let cb1 = CoinbaseBuilder::new(1)
            .marker(PoolMarker::new("/Q/"))
            .reward(q_wallet, Amount::from_btc(50) + fees)
            .build();
        let b1 = Block::assemble(
            2,
            chain.tip_hash(),
            600,
            1,
            cb1,
            vec![pay_to_pool, spend_reward, unrelated],
        );
        chain.connect(b1).expect("valid");
        let index = ChainIndex::build(&chain);
        (chain, index)
    }

    #[test]
    fn finds_from_and_to_pool_transactions() {
        let (chain, index) = build();
        let att = attribute(&index);
        let map = find_self_interest_transactions(&chain, &att);
        let p_txs = map.of("P").expect("pool P flagged");
        assert_eq!(p_txs.len(), 2, "one to-pool and one from-pool tx");
        // Q's wallet only ever received its own coinbase; no body tx
        // touches it.
        assert!(map.of("Q").is_none() || map.of("Q").expect("set").is_empty());
    }

    #[test]
    fn unrelated_tx_not_flagged() {
        let (chain, index) = build();
        let att = attribute(&index);
        let map = find_self_interest_transactions(&chain, &att);
        let all: FastSet<Txid> = map.by_pool.values().flatten().copied().collect();
        // Exactly the two pool-touching transactions, not the third.
        assert_eq!(all.len(), 2);
        assert_eq!(map.total_flagged(), 2);
    }

    #[test]
    fn shared_wallet_classifies_alike_on_batch_and_streaming_paths() {
        // Both pools' coinbases pay P's wallet, so both to- and from-wallet
        // transactions belong to both pools.
        let (chain, index) = build_paying_q_to(Address::from_label("pool:P:0"));
        let attribution = attribute(&index);
        let touching: FastSet<Txid> = index.blocks()[1].txs[..2].iter().map(|t| t.txid).collect();
        let batch = TouchLog::replay(&chain);

        let config = StreamingConfig::new(StreamExpectation::from_run(1_200, 600, 1));
        let mut auditor = StreamingAuditor::new(chain.initial_utxos(), config);
        for block in chain.blocks() {
            auditor.push_block(block).expect("replays");
        }
        let streamed = &auditor.digest.touches;
        assert_eq!(&batch, streamed, "both replays log the same touches");

        let from_batch = find_self_interest_transactions(&chain, &attribution);
        let from_stream = streamed.self_interest(&attribution);
        assert_eq!(from_batch.by_pool, from_stream.by_pool);
        assert_eq!(from_batch.by_pool.len(), 2);
        for pool in ["P", "Q"] {
            assert_eq!(from_batch.of(pool), Some(&touching), "pool {pool}");
        }
    }

    #[test]
    #[should_panic(expected = "a pruned chain cannot be replayed")]
    fn pruned_chain_is_refused() {
        let (mut chain, _) = build();
        chain.prune_below(1);
        TouchLog::replay(&chain);
    }

    #[test]
    #[should_panic(expected = "a pruned chain cannot be indexed")]
    fn pruned_chain_is_not_indexed() {
        let (mut chain, _) = build();
        chain.prune_below(1);
        ChainIndex::build(&chain);
    }
}
