//! One replay of the chain into the per-transaction facts every audit
//! metric consumes, and the chain digest the exact streaming verdict reads.
//!
//! [`ChainIndex`] holds the per-block and per-transaction facts. A
//! streaming audit also keeps two facts the batch audit derives after the
//! fact: the txids its observer saw, and the address→txid log that stands
//! in for the batch auditor's UTXO replay. The crate-private `ChainDigest`
//! holds all three, and it is their only shape. The streaming auditor grows
//! one, a spilling auditor drains its settled prefix into a store through
//! its codec and appends the decoded prefixes back, and the exact verdict
//! reads one digest, live or restored.

use crate::cpfp::cpfp_txids_in_block;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use cn_chain::encode::{
    ensure_remaining, read_compact_size, read_var_bytes, write_compact_size, write_var_bytes,
    Decodable, DecodeError, MAX_DECODE_LEN,
};
use cn_chain::{
    Address, Amount, Block, BlockHash, Chain, FastMap, FastSet, FeeRate, Hash256, PoolMarker,
    Timestamp, Txid,
};

/// Per-transaction audit facts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TxRecord {
    /// The transaction id.
    pub txid: Txid,
    /// Containing block height.
    pub height: u64,
    /// 0-based position within the block body.
    pub position: usize,
    /// The fee actually paid (from validated chain records).
    pub fee: Amount,
    /// Virtual size in vbytes.
    pub vsize: u64,
    /// True under the §E CPFP definition (spends an output created in the
    /// same block).
    pub is_cpfp: bool,
}

impl TxRecord {
    /// Fee rate, the ranking key of the norms.
    pub fn fee_rate(&self) -> FeeRate {
        FeeRate::from_fee_and_vsize(self.fee, self.vsize)
    }
}

/// Per-block audit facts.
#[derive(Clone, Debug)]
pub struct BlockInfo {
    /// Height.
    pub height: u64,
    /// Block hash.
    pub hash: BlockHash,
    /// Block timestamp.
    pub time: Timestamp,
    /// Attributed miner (coinbase marker tag, slashes trimmed), if any.
    pub miner: Option<String>,
    /// Coinbase reward addresses (the pool-wallet signal of Figure 8a).
    pub coinbase_wallets: Vec<Address>,
    /// Body transactions in block order.
    pub txs: Vec<TxRecord>,
}

impl BlockInfo {
    /// Number of body transactions.
    pub fn tx_count(&self) -> usize {
        self.txs.len()
    }

    /// True when the block committed no user transactions.
    pub fn is_empty_block(&self) -> bool {
        self.txs.is_empty()
    }
}

/// The chain, digested for auditing.
///
/// Heights are absolute. A streaming audit that spills its settled prefix
/// keeps an index whose blocks start at some `base` height; such an index
/// answers [`ChainIndex::block`] for the heights it holds and `None` below
/// them.
#[derive(Clone, Debug, Default)]
pub struct ChainIndex {
    /// Heights below this are not held; `blocks[0]` is height `base`.
    base: u64,
    blocks: Vec<BlockInfo>,
    by_txid: FastMap<Txid, (u64, u32)>,
}

impl ChainIndex {
    /// Builds the index from a validated chain.
    ///
    /// # Panics
    /// Panics if the chain's per-block records disagree with its blocks —
    /// impossible for a chain built through [`Chain::connect`].
    pub fn build(chain: &Chain) -> ChainIndex {
        let mut index = ChainIndex::default();
        index.blocks.reserve(chain.blocks().len());
        for (block, record) in chain.blocks().iter().zip(chain.records()) {
            debug_assert_eq!(record.height, index.len() as u64);
            index.push_block(block, &record.tx_fees);
        }
        index
    }

    /// Appends one connected block to the index — the incremental form of
    /// [`ChainIndex::build`], which is now a fold over this method. The
    /// block's height is the current tip height + 1 (blocks must arrive in
    /// connect order), so an index grown block-by-block is identical to one
    /// built from the finished chain.
    ///
    /// # Panics
    /// Panics when `tx_fees` does not line up with the block body.
    pub fn push_block(&mut self, block: &Block, tx_fees: &[Amount]) {
        assert_eq!(
            tx_fees.len(),
            block.body().len(),
            "chain record out of sync with block body"
        );
        let height = self.base + self.blocks.len() as u64;
        let cpfp = cpfp_txids_in_block(block);
        let miner = block
            .coinbase()
            .and_then(PoolMarker::from_coinbase)
            .map(|m| m.0.trim_matches('/').to_string());
        let coinbase_wallets = block
            .coinbase()
            .map(|cb| cb.output_addresses().collect())
            .unwrap_or_default();
        let txs = block
            .body()
            .iter()
            .zip(tx_fees)
            .enumerate()
            .map(|(position, (tx, fee))| {
                let txid = tx.txid();
                TxRecord {
                    txid,
                    height,
                    position,
                    fee: *fee,
                    vsize: tx.vsize(),
                    is_cpfp: cpfp.contains(&txid),
                }
            })
            .collect();
        self.push_info(BlockInfo {
            height,
            hash: block.block_hash(),
            time: block.header.time,
            miner,
            coinbase_wallets,
            txs,
        });
    }

    /// Appends an already digested block, indexing its txids at the height
    /// it carries. `push_block` derives that height and `ChainDigest::drain`
    /// moves blocks in order; the heights of a decoded digest are checked
    /// when `ChainDigest::append` appends it.
    fn push_info(&mut self, info: BlockInfo) {
        for tx in &info.txs {
            self.by_txid.insert(tx.txid, (info.height, tx.position as u32));
        }
        self.blocks.push(info);
    }

    /// The blocks held, by height (every block of the chain unless a
    /// streaming audit spilled a prefix).
    pub fn blocks(&self) -> &[BlockInfo] {
        &self.blocks
    }

    /// The block at `height`, `None` when unknown or not held.
    pub fn block(&self, height: u64) -> Option<&BlockInfo> {
        let offset = height.checked_sub(self.base)?;
        self.blocks.get(offset as usize)
    }

    /// Locates a confirmed transaction as `(height, position)`.
    pub fn locate(&self, txid: &Txid) -> Option<(u64, u32)> {
        self.by_txid.get(txid).copied()
    }

    /// The record of a confirmed transaction.
    pub fn record(&self, txid: &Txid) -> Option<&TxRecord> {
        let (h, p) = self.locate(txid)?;
        self.block(h).and_then(|b| b.txs.get(p as usize))
    }

    /// Chain height covered: any spilled prefix plus the blocks held.
    pub fn len(&self) -> usize {
        self.base as usize + self.blocks.len()
    }

    /// True when the chain was empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total body transactions across the blocks held.
    pub fn tx_count(&self) -> usize {
        self.blocks.iter().map(|b| b.txs.len()).sum()
    }

    /// Fraction of body transactions that are CPFP (Table 1's
    /// "percentage of CPFP-transactions").
    pub fn cpfp_fraction(&self) -> f64 {
        let total = self.tx_count();
        if total == 0 {
            return 0.0;
        }
        let cpfp: usize =
            self.blocks.iter().map(|b| b.txs.iter().filter(|t| t.is_cpfp).count()).sum();
        cpfp as f64 / total as f64
    }

    /// Count of empty blocks (Table 1).
    pub fn empty_block_count(&self) -> usize {
        self.blocks.iter().filter(|b| b.is_empty_block()).count()
    }

    /// Block timestamps in height order (monotone for simulated chains).
    pub fn block_times(&self) -> Vec<Timestamp> {
        self.blocks.iter().map(|b| b.time).collect()
    }
}

/// The exact verdict's chain digest: the [`ChainIndex`], the txids seen in
/// detailed snapshots, and every confirmed txid under each address it
/// touched (resolved input funding addresses and output addresses). Pool
/// wallets are known only at verdict time, because attribution is
/// retroactive, so the log is keyed by address, not by pool.
#[derive(Clone, Debug, Default)]
pub(crate) struct ChainDigest {
    pub(crate) index: ChainIndex,
    pub(crate) observed: FastSet<Txid>,
    pub(crate) addr_txids: FastMap<Address, Vec<Txid>>,
}

/// Why [`ChainDigest::append`] refused a digest: its blocks do not continue
/// the heights of the digest it was appended to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct HeightGap {
    /// The height the next block should have had.
    pub(crate) expected: u64,
    /// The height it had.
    pub(crate) found: u64,
}

impl ChainDigest {
    /// Drains the settled prefix: every block below height `below`, and
    /// all observed txids and address entries. Those two are read only at
    /// verdict time, and appending is a set union and a per-address
    /// concatenation, so a txid observed again later lands in a later
    /// drain without changing the verdict.
    pub(crate) fn drain(&mut self, below: u64) -> ChainDigest {
        let index = &mut self.index;
        let cut = below.clamp(index.base, index.len() as u64);
        let mut settled = ChainIndex { base: index.base, ..ChainIndex::default() };
        for info in index.blocks.drain(..(cut - index.base) as usize) {
            for tx in &info.txs {
                index.by_txid.remove(&tx.txid);
            }
            settled.push_info(info);
        }
        index.base = cut;
        ChainDigest {
            index: settled,
            observed: std::mem::take(&mut self.observed),
            addr_txids: std::mem::take(&mut self.addr_txids),
        }
    }

    /// Appends `later`, whose blocks must continue this digest's heights;
    /// a digest that does not is refused and nothing is appended.
    pub(crate) fn append(&mut self, later: ChainDigest) -> Result<(), HeightGap> {
        let next = self.index.len() as u64;
        for (i, info) in later.index.blocks.iter().enumerate() {
            let expected = next + i as u64;
            if info.height != expected {
                return Err(HeightGap { expected, found: info.height });
            }
        }
        self.index.blocks.extend(later.index.blocks);
        self.index.by_txid.extend(later.index.by_txid);
        self.observed.extend(later.observed);
        for (addr, txids) in later.addr_txids {
            self.addr_txids.entry(addr).or_default().extend(txids);
        }
        Ok(())
    }

    /// Serializes the digest with the chain's wire primitives. Observed
    /// txids and addresses are written sorted, so equal digests encode to
    /// equal bytes.
    pub(crate) fn encode(&self) -> Bytes {
        let mut buf = BytesMut::new();
        write_compact_size(&mut buf, self.index.blocks.len() as u64);
        for block in &self.index.blocks {
            write_compact_size(&mut buf, block.height);
            buf.put_slice(block.hash.0.as_bytes());
            write_compact_size(&mut buf, block.time);
            match &block.miner {
                Some(miner) => {
                    buf.put_u8(1);
                    write_var_bytes(&mut buf, miner.as_bytes());
                }
                None => buf.put_u8(0),
            }
            write_compact_size(&mut buf, block.coinbase_wallets.len() as u64);
            for wallet in &block.coinbase_wallets {
                put_address(&mut buf, wallet);
            }
            write_compact_size(&mut buf, block.txs.len() as u64);
            for tx in &block.txs {
                // Height and position are implied by block membership and
                // row order; only the independent facts are stored.
                buf.put_slice(tx.txid.0.as_bytes());
                write_compact_size(&mut buf, tx.fee.to_sat());
                write_compact_size(&mut buf, tx.vsize);
                buf.put_u8(tx.is_cpfp as u8);
            }
        }
        let mut observed: Vec<&Txid> = self.observed.iter().collect();
        observed.sort_unstable();
        write_compact_size(&mut buf, observed.len() as u64);
        for txid in observed {
            buf.put_slice(txid.0.as_bytes());
        }
        let mut addr_txids: Vec<(&Address, &Vec<Txid>)> = self.addr_txids.iter().collect();
        addr_txids.sort_unstable_by_key(|(addr, _)| **addr);
        write_compact_size(&mut buf, addr_txids.len() as u64);
        for (addr, txids) in addr_txids {
            put_address(&mut buf, addr);
            write_compact_size(&mut buf, txids.len() as u64);
            for txid in txids {
                buf.put_slice(txid.0.as_bytes());
            }
        }
        buf.freeze()
    }

    /// Decodes one digest, the inverse of [`ChainDigest::encode`]. Its
    /// index starts at the first block's height; [`ChainDigest::append`]
    /// checks the heights.
    pub(crate) fn decode(buf: &mut Bytes) -> Result<ChainDigest, DecodeError> {
        let mut digest = ChainDigest::default();
        let block_count = checked_len(read_compact_size(buf)?)?;
        for i in 0..block_count {
            let height = read_compact_size(buf)?;
            let hash = BlockHash(Hash256::decode(buf)?);
            let time = read_compact_size(buf)?;
            ensure_remaining(buf, 1)?;
            let miner = if buf.get_u8() == 1 {
                let raw = read_var_bytes(buf)?;
                Some(String::from_utf8(raw.to_vec()).map_err(|_| DecodeError::UnexpectedEnd)?)
            } else {
                None
            };
            let wallet_count = checked_len(read_compact_size(buf)?)?;
            let mut coinbase_wallets = Vec::with_capacity(wallet_count.min(4_096));
            for _ in 0..wallet_count {
                coinbase_wallets.push(read_address(buf)?);
            }
            let tx_count = checked_len(read_compact_size(buf)?)?;
            let mut txs = Vec::with_capacity(tx_count.min(65_536));
            for position in 0..tx_count {
                let txid = Txid(Hash256::decode(buf)?);
                let fee = Amount::from_sat(read_compact_size(buf)?);
                let vsize = read_compact_size(buf)?;
                ensure_remaining(buf, 1)?;
                let is_cpfp = buf.get_u8() != 0;
                txs.push(TxRecord { txid, height, position, fee, vsize, is_cpfp });
            }
            if i == 0 {
                digest.index.base = height;
            }
            digest.index.push_info(BlockInfo { height, hash, time, miner, coinbase_wallets, txs });
        }
        let observed_count = checked_len(read_compact_size(buf)?)?;
        digest.observed.reserve(observed_count.min(1 << 20));
        for _ in 0..observed_count {
            digest.observed.insert(Txid(Hash256::decode(buf)?));
        }
        let addr_count = checked_len(read_compact_size(buf)?)?;
        digest.addr_txids.reserve(addr_count.min(1 << 20));
        for _ in 0..addr_count {
            let addr = read_address(buf)?;
            let n = checked_len(read_compact_size(buf)?)?;
            let mut txids = Vec::with_capacity(n.min(1 << 20));
            for _ in 0..n {
                txids.push(Txid(Hash256::decode(buf)?));
            }
            digest.addr_txids.insert(addr, txids);
        }
        Ok(digest)
    }
}

fn checked_len(n: u64) -> Result<usize, DecodeError> {
    if n > MAX_DECODE_LEN {
        return Err(DecodeError::OversizedLength(n));
    }
    Ok(n as usize)
}

fn put_address(buf: &mut BytesMut, addr: &Address) {
    let kind = match addr {
        Address::P2pkh(_) => 0u8,
        Address::P2sh(_) => 1,
        Address::P2wpkh(_) => 2,
    };
    buf.put_u8(kind);
    buf.put_slice(addr.payload());
}

fn read_address(buf: &mut Bytes) -> Result<Address, DecodeError> {
    ensure_remaining(buf, 21)?;
    let kind = buf.get_u8();
    let mut payload = [0u8; 20];
    buf.copy_to_slice(&mut payload);
    match kind {
        0 => Ok(Address::P2pkh(payload)),
        1 => Ok(Address::P2sh(payload)),
        2 => Ok(Address::P2wpkh(payload)),
        _ => Err(DecodeError::UnexpectedEnd),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cn_chain::{Block, CoinbaseBuilder, Params, Transaction};

    /// Builds a tiny two-block chain with a CPFP pair in block 1.
    fn sample_chain() -> Chain {
        let mut chain = Chain::new(Params::mainnet());
        let fund = Transaction::builder()
            .add_input(cn_chain::TxIn::new(cn_chain::OutPoint::NULL))
            .pay_to(Address::from_label("funder"), Amount::from_sat(10_000_000))
            .pay_to(Address::from_label("funder2"), Amount::from_sat(10_000_000))
            .build();
        chain.seed_utxos(&fund);

        let cb0 = CoinbaseBuilder::new(0)
            .marker(cn_chain::PoolMarker::new("/PoolA/"))
            .reward(Address::from_label("pool:A:0"), Amount::from_btc(50))
            .build();
        let b0 = Block::assemble(2, BlockHash::ZERO, 600, 0, cb0, Vec::<Transaction>::new());
        chain.connect(b0).expect("valid");

        let parent = Transaction::builder()
            .add_input_with_sizes(fund.txid(), 0, 107, 0)
            .pay_to(Address::from_label("r"), Amount::from_sat(9_900_000))
            .build();
        let child = Transaction::builder()
            .add_input_with_sizes(parent.txid(), 0, 107, 0)
            .pay_to(Address::from_label("r2"), Amount::from_sat(9_700_000))
            .build();
        let other = Transaction::builder()
            .add_input_with_sizes(fund.txid(), 1, 107, 0)
            .pay_to(Address::from_label("r3"), Amount::from_sat(9_950_000))
            .build();
        let fees = Amount::from_sat(100_000 + 200_000 + 50_000);
        let cb1 = CoinbaseBuilder::new(1)
            .marker(cn_chain::PoolMarker::new("/PoolB/"))
            .reward(Address::from_label("pool:B:0"), Amount::from_btc(50) + fees)
            .build();
        let b1 = Block::assemble(
            2,
            chain.tip_hash(),
            1_200,
            1,
            cb1,
            vec![parent, child, other],
        );
        chain.connect(b1).expect("valid");
        chain
    }

    #[test]
    fn index_captures_fees_positions_and_cpfp() {
        let chain = sample_chain();
        let index = ChainIndex::build(&chain);
        assert_eq!(index.len(), 2);
        assert_eq!(index.tx_count(), 3);
        assert_eq!(index.empty_block_count(), 1);

        let b1 = index.block(1).expect("exists");
        assert_eq!(b1.miner.as_deref(), Some("PoolB"));
        assert_eq!(b1.time, 1_200);
        assert_eq!(b1.txs[0].fee, Amount::from_sat(100_000));
        assert_eq!(b1.txs[1].fee, Amount::from_sat(200_000));
        assert_eq!(b1.txs[2].fee, Amount::from_sat(50_000));
        assert!(!b1.txs[0].is_cpfp);
        assert!(b1.txs[1].is_cpfp, "child spending same-block parent is CPFP");
        assert!(!b1.txs[2].is_cpfp);
        assert!((index.cpfp_fraction() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn locate_and_record_agree() {
        let chain = sample_chain();
        let index = ChainIndex::build(&chain);
        let b1 = index.block(1).expect("exists");
        for (pos, tx) in b1.txs.iter().enumerate() {
            assert_eq!(index.locate(&tx.txid), Some((1, pos as u32)));
            let rec = index.record(&tx.txid).expect("present");
            assert_eq!(rec.position, pos);
            assert_eq!(rec.fee_rate(), FeeRate::from_fee_and_vsize(rec.fee, rec.vsize));
        }
        assert_eq!(index.locate(&Txid::from([0xee; 32])), None);
    }

    #[test]
    fn incremental_push_matches_batch_build() {
        let chain = sample_chain();
        let batch = ChainIndex::build(&chain);
        let mut grown = ChainIndex::default();
        for (block, record) in chain.blocks().iter().zip(chain.records()) {
            grown.push_block(block, &record.tx_fees);
        }
        assert_eq!(grown.len(), batch.len());
        for (a, b) in grown.blocks().iter().zip(batch.blocks()) {
            assert_eq!(a.height, b.height);
            assert_eq!(a.hash, b.hash);
            assert_eq!(a.time, b.time);
            assert_eq!(a.miner, b.miner);
            assert_eq!(a.coinbase_wallets, b.coinbase_wallets);
            assert_eq!(a.txs, b.txs);
        }
        for block in batch.blocks() {
            for tx in &block.txs {
                assert_eq!(grown.locate(&tx.txid), batch.locate(&tx.txid));
            }
        }
    }

    /// The sample chain's digest: every body txid observed and logged under
    /// one address.
    fn sample_digest() -> ChainDigest {
        let index = ChainIndex::build(&sample_chain());
        let txids: Vec<Txid> =
            index.blocks().iter().flat_map(|b| b.txs.iter().map(|t| t.txid)).collect();
        ChainDigest {
            observed: txids.iter().copied().collect(),
            addr_txids: [(Address::from_label("r"), txids)].into_iter().collect(),
            index,
        }
    }

    #[test]
    fn drain_settles_a_prefix_and_append_restores_it() {
        let full = sample_digest();
        let mut live = full.clone();
        let settled = live.drain(1);
        assert_eq!(settled.index.blocks().len(), 1);
        assert_eq!(settled.index.blocks()[0].height, 0);
        assert_eq!(settled.observed, full.observed, "observed txids drain whole");
        assert_eq!(settled.addr_txids, full.addr_txids, "address entries drain whole");
        assert!(live.observed.is_empty() && live.addr_txids.is_empty());
        assert_eq!(live.index.len(), full.index.len(), "heights stay absolute");
        assert!(live.index.block(0).is_none(), "drained height is gone");
        assert_eq!(live.index.block(1).map(|b| b.hash), full.index.block(1).map(|b| b.hash));
        for tx in &full.index.block(1).expect("b1").txs {
            assert_eq!(live.index.locate(&tx.txid), full.index.locate(&tx.txid));
            assert_eq!(live.index.record(&tx.txid), full.index.record(&tx.txid));
        }
        // Draining below what is already settled drains no blocks.
        assert!(live.clone().drain(0).index.blocks().is_empty());

        // The settled prefix followed by the live remainder is the full digest.
        let mut restored = settled;
        restored.append(live).expect("heights continue");
        assert_eq!(restored.index.len(), full.index.len());
        assert_eq!(restored.index.tx_count(), full.index.tx_count());
        for block in full.index.blocks() {
            for tx in &block.txs {
                assert_eq!(restored.index.locate(&tx.txid), full.index.locate(&tx.txid));
            }
        }
        assert_eq!(restored.observed, full.observed);
        assert_eq!(restored.addr_txids, full.addr_txids);
    }

    #[test]
    fn append_refuses_a_height_gap() {
        let full = sample_digest();
        let mut live = full.clone();
        live.drain(1);
        // The live remainder without its settled block 0 skips a height.
        let mut restored = ChainDigest::default();
        assert_eq!(restored.append(live), Err(HeightGap { expected: 0, found: 1 }));
        assert!(restored.index.is_empty(), "a refused append appends nothing");
        assert!(restored.observed.is_empty() && restored.addr_txids.is_empty());
        // A digest appended to itself repeats heights.
        let mut twice = full.clone();
        assert_eq!(twice.append(full), Err(HeightGap { expected: 2, found: 0 }));
    }

    #[test]
    fn drained_digest_round_trips_to_the_same_bytes() {
        let mut live = sample_digest();
        let settled = live.drain(2);
        assert_eq!(settled.index.tx_count(), 3);
        assert!(!settled.observed.is_empty() && !settled.addr_txids.is_empty());
        let encoded = settled.encode();
        let mut cursor = encoded.clone();
        let decoded = ChainDigest::decode(&mut cursor).expect("decodes");
        assert!(!cursor.has_remaining(), "decoder consumed everything");
        assert_eq!(decoded.encode(), encoded);
        for block in settled.index.blocks() {
            for tx in &block.txs {
                assert_eq!(decoded.index.record(&tx.txid), Some(tx));
            }
        }
        // A torn digest is a typed decode error, not a panic.
        let mut torn = Bytes::copy_from_slice(&encoded[..encoded.len() / 2]);
        assert!(ChainDigest::decode(&mut torn).is_err());
    }

    #[test]
    fn push_block_continues_past_a_drain() {
        let chain = sample_chain();
        let full = ChainIndex::build(&chain);
        let mut grown = ChainDigest::default();
        let (blocks, records): (Vec<_>, Vec<_>) =
            chain.blocks().iter().zip(chain.records()).unzip();
        grown.index.push_block(blocks[0], &records[0].tx_fees);
        let spilled = grown.drain(1);
        grown.index.push_block(blocks[1], &records[1].tx_fees);
        assert_eq!(grown.index.len(), 2, "height accounts for the drained prefix");
        assert_eq!(grown.index.block(1).map(|b| b.hash), full.block(1).map(|b| b.hash));
        assert_eq!(spilled.index.blocks()[0].hash, full.block(0).expect("b0").hash);
    }

    #[test]
    fn attribution_fields_populated() {
        let chain = sample_chain();
        let index = ChainIndex::build(&chain);
        assert_eq!(index.block(0).expect("b0").miner.as_deref(), Some("PoolA"));
        assert_eq!(
            index.block(0).expect("b0").coinbase_wallets,
            vec![Address::from_label("pool:A:0")]
        );
        assert_eq!(index.block_times(), vec![600, 1_200]);
    }
}
