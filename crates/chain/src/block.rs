//! Block headers and blocks.

use crate::encode::{
    ensure_remaining, read_compact_size, write_compact_size, Decodable, DecodeError, Encodable,
};
use crate::hash::{sha256d, Hash256};
use crate::merkle::merkle_root;
use crate::transaction::{Transaction, Txid};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::fmt;
use std::sync::Arc;

/// A block identifier: the double-SHA-256 of the 80-byte header.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BlockHash(pub Hash256);

impl BlockHash {
    /// The all-zero hash, used as the genesis block's previous hash.
    pub const ZERO: BlockHash = BlockHash(Hash256::ZERO);
}

impl fmt::Display for BlockHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

impl fmt::Debug for BlockHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BlockHash({})", self.0)
    }
}

/// An 80-byte block header.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Header {
    /// Block version.
    pub version: i32,
    /// Hash of the previous block header.
    pub prev_hash: BlockHash,
    /// Merkle root over the block's txids.
    pub merkle_root: Hash256,
    /// Block timestamp in seconds (simulation time).
    pub time: u64,
    /// Compact difficulty target (constant in this substrate — difficulty
    /// retargeting does not affect transaction ordering).
    pub bits: u32,
    /// Nonce (carries simulation entropy so block hashes are distinct).
    pub nonce: u32,
}

impl Header {
    /// The header's block hash.
    pub fn block_hash(&self) -> BlockHash {
        BlockHash(sha256d(&self.encode_to_bytes()))
    }
}

impl Encodable for Header {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_i32_le(self.version);
        self.prev_hash.0.encode(buf);
        self.merkle_root.encode(buf);
        // Bitcoin headers carry a u32 timestamp; we encode the low 32 bits
        // (sim time fits comfortably) to preserve the 80-byte layout.
        buf.put_u32_le(self.time as u32);
        buf.put_u32_le(self.bits);
        buf.put_u32_le(self.nonce);
    }

    fn encoded_len(&self) -> usize {
        80
    }
}

impl Decodable for Header {
    fn decode(buf: &mut Bytes) -> Result<Self, DecodeError> {
        ensure_remaining(buf, 80)?;
        let version = buf.get_i32_le();
        let prev_hash = BlockHash(Hash256::decode(buf)?);
        let merkle_root = Hash256::decode(buf)?;
        let time = buf.get_u32_le() as u64;
        let bits = buf.get_u32_le();
        let nonce = buf.get_u32_le();
        Ok(Header { version, prev_hash, merkle_root, time, bits, nonce })
    }
}

/// A block: a header plus transactions, the first being the coinbase.
///
/// Transactions are held behind [`Arc`]: a mined block shares the same
/// transaction objects the mempools and the template hold, so block
/// construction and relay never copy transaction bodies.
#[derive(Clone, PartialEq, Eq)]
pub struct Block {
    /// The block header.
    pub header: Header,
    /// The transactions, coinbase first.
    pub transactions: Vec<Arc<Transaction>>,
}

impl Block {
    /// Assembles a block from a coinbase plus ordered non-coinbase
    /// transactions, computing the merkle root. Accepts owned
    /// transactions or shared `Arc` handles (the zero-copy miner path).
    pub fn assemble<I>(
        version: i32,
        prev_hash: BlockHash,
        time: u64,
        nonce: u32,
        coinbase: Transaction,
        transactions: I,
    ) -> Block
    where
        I: IntoIterator,
        I::Item: Into<Arc<Transaction>>,
    {
        let transactions = transactions.into_iter();
        let mut all: Vec<Arc<Transaction>> = Vec::with_capacity(1 + transactions.size_hint().0);
        all.push(Arc::new(coinbase));
        all.extend(transactions.map(Into::into));
        let txids: Vec<Txid> = all.iter().map(|t| t.txid()).collect();
        let header = Header {
            version,
            prev_hash,
            merkle_root: merkle_root(&txids),
            time,
            bits: 0x1d00_ffff,
            nonce,
        };
        Block { header, transactions: all }
    }

    /// The block's hash.
    pub fn block_hash(&self) -> BlockHash {
        self.header.block_hash()
    }

    /// The coinbase transaction, if the block is non-empty of transactions.
    pub fn coinbase(&self) -> Option<&Transaction> {
        self.transactions.first().filter(|t| t.is_coinbase()).map(|t| t.as_ref())
    }

    /// The non-coinbase transactions in block order (shared handles).
    pub fn body(&self) -> &[Arc<Transaction>] {
        if self.coinbase().is_some() {
            &self.transactions[1..]
        } else {
            &self.transactions
        }
    }

    /// True when the block commits no user transactions (the paper's
    /// "empty blocks").
    pub fn is_empty_block(&self) -> bool {
        self.body().is_empty()
    }

    /// Total BIP-141 weight of all transactions (header overhead excluded).
    pub fn total_weight(&self) -> u64 {
        self.transactions.iter().map(|t| t.weight()).sum()
    }

    /// Total virtual size of all transactions in vbytes.
    pub fn total_vsize(&self) -> u64 {
        self.transactions.iter().map(|t| t.vsize()).sum()
    }

    /// Recomputed merkle root over current transactions.
    pub fn computed_merkle_root(&self) -> Hash256 {
        let txids: Vec<Txid> = self.transactions.iter().map(|t| t.txid()).collect();
        merkle_root(&txids)
    }
}

impl fmt::Debug for Block {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Block")
            .field("hash", &self.block_hash())
            .field("txs", &self.transactions.len())
            .field("vsize", &self.total_vsize())
            .finish()
    }
}

impl Encodable for Block {
    fn encode(&self, buf: &mut BytesMut) {
        self.header.encode(buf);
        write_compact_size(buf, self.transactions.len() as u64);
        for tx in &self.transactions {
            tx.encode(buf);
        }
    }
}

impl Decodable for Block {
    fn decode(buf: &mut Bytes) -> Result<Self, DecodeError> {
        let header = Header::decode(buf)?;
        let n = read_compact_size(buf)?;
        if n > crate::encode::MAX_DECODE_LEN {
            return Err(DecodeError::OversizedLength(n));
        }
        let mut transactions = Vec::with_capacity(n as usize);
        for _ in 0..n {
            transactions.push(Arc::new(Transaction::decode(buf)?));
        }
        Ok(Block { header, transactions })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::Address;
    use crate::amount::Amount;
    use crate::transaction::{OutPoint, TxIn};

    fn coinbase() -> Transaction {
        Transaction::builder()
            .add_input(TxIn::new(OutPoint::NULL))
            .pay_to(Address::p2pkh([1; 20]), Amount::from_btc(6))
            .build()
    }

    fn user_tx(n: u8) -> Transaction {
        Transaction::builder()
            .add_input_with_sizes([n; 32].into(), 0, 107, 0)
            .pay_to(Address::p2pkh([n; 20]), Amount::from_sat(10_000))
            .build()
    }

    #[test]
    fn assemble_puts_coinbase_first() {
        let b = Block::assemble(2, BlockHash::ZERO, 100, 7, coinbase(), vec![user_tx(2)]);
        assert!(b.transactions[0].is_coinbase());
        assert_eq!(b.body().len(), 1);
        assert!(!b.is_empty_block());
    }

    #[test]
    fn empty_block_detection() {
        let b = Block::assemble(2, BlockHash::ZERO, 100, 7, coinbase(), Vec::<Transaction>::new());
        assert!(b.is_empty_block());
        assert_eq!(b.body().len(), 0);
    }

    #[test]
    fn merkle_root_commits_to_order() {
        let b1 =
            Block::assemble(2, BlockHash::ZERO, 0, 0, coinbase(), vec![user_tx(2), user_tx(3)]);
        let b2 =
            Block::assemble(2, BlockHash::ZERO, 0, 0, coinbase(), vec![user_tx(3), user_tx(2)]);
        assert_ne!(b1.header.merkle_root, b2.header.merkle_root);
        assert_ne!(b1.block_hash(), b2.block_hash());
        assert_eq!(b1.computed_merkle_root(), b1.header.merkle_root);
    }

    #[test]
    fn header_is_eighty_bytes_and_round_trips() {
        let b = Block::assemble(2, BlockHash::ZERO, 99, 3, coinbase(), vec![user_tx(4)]);
        let bytes = b.header.encode_to_bytes();
        assert_eq!(bytes.len(), 80);
        let decoded = Header::decode_all(&bytes).expect("decode");
        assert_eq!(decoded, b.header);
        assert_eq!(decoded.block_hash(), b.block_hash());
    }

    #[test]
    fn block_round_trips() {
        let b = Block::assemble(2, BlockHash::ZERO, 5, 1, coinbase(), vec![user_tx(2), user_tx(9)]);
        let bytes = b.encode_to_bytes();
        let decoded = Block::decode_all(&bytes).expect("decode");
        assert_eq!(decoded, b);
        assert_eq!(decoded.block_hash(), b.block_hash());
    }

    #[test]
    fn nonce_changes_hash() {
        let b1 = Block::assemble(2, BlockHash::ZERO, 5, 1, coinbase(), Vec::<Transaction>::new());
        let b2 = Block::assemble(2, BlockHash::ZERO, 5, 2, coinbase(), Vec::<Transaction>::new());
        assert_ne!(b1.block_hash(), b2.block_hash());
    }

    #[test]
    fn sizes_aggregate() {
        let txs = vec![user_tx(2), user_tx(3)];
        let expected: u64 = txs.iter().map(|t| t.vsize()).sum();
        let b = Block::assemble(2, BlockHash::ZERO, 5, 1, coinbase(), txs);
        assert_eq!(b.total_vsize(), expected + b.transactions[0].vsize());
        assert_eq!(b.total_weight(), b.transactions.iter().map(|t| t.weight()).sum::<u64>());
    }
}
