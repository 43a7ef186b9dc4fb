//! Epoch-checkpointed streaming audit: the chain-digest state spilled to a
//! log-structured store, bounding auditor memory to O(window + epoch).
//!
//! [`StreamingAuditor`]'s exact verdict is a function of the whole chain,
//! so its digested per-transaction state (the [`ChainIndex`], the observed
//! txid set, the address→txid log) necessarily grows with run length —
//! the one O(chain) term its module docs concede. [`SpilledAuditor`] moves
//! that term to disk: every `epoch_blocks` sealed heights it drains the
//! settled digest slice out of the wrapped auditor and appends it,
//! serialized with the chain's own wire primitives, to a seekable store.
//! Push-path memory is then O(window + epoch).
//!
//! The drain and restore hooks (`drain_digest`, `digest_view`,
//! `verdict_with_digest` and the `DigestSegment` they exchange) are
//! private to this crate: this module is their only user. The wrapped
//! auditor keeps its coverage counts, its refusal gate and its poisoning,
//! so spilling never changes what a verdict says.
//!
//! The exact verdict still needs the whole digest, so
//! [`SpilledAuditor::verdict`] replays the spilled segments, rebuilds the
//! full index/sets *transiently*, and hands them to the wrapped auditor's
//! verdict — bit-identical to an unspilled auditor's
//! [`StreamingAuditor::verdict`] over the same events. The peak is paid
//! once at verdict time instead of held for the whole run, and
//! [`StreamingAuditor::rolling`] stays available throughout at its usual
//! O(window) cost.
//!
//! The store is outside the auditor's control, so the auditor keeps a
//! keyed SipHash digest of every byte it appends (O(1) memory) and checks
//! the bytes it reads back against it before decoding anything: a store
//! that changed since it was written is refused with
//! [`SpillError::DigestMismatch`], never audited. The digest lives in the
//! auditor, not the store, so the store format and its byte count are
//! unchanged.

use crate::auditor::AuditReport;
use crate::error::AuditError;
use crate::index::{BlockInfo, ChainIndex, TxRecord};
use crate::streaming::{DigestSegment, RollingVerdict, StreamEvent, StreamingAuditor};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use cn_chain::encode::{
    ensure_remaining, read_compact_size, read_var_bytes, write_compact_size, write_var_bytes,
    DecodeError, MAX_DECODE_LEN,
};
use cn_chain::{Address, Amount, Block, BlockHash, FastMap, FastSet, Hash256, Txid};
use cn_mempool::MempoolSnapshot;
use std::fmt;
use std::hash::{BuildHasher, DefaultHasher, Hasher, RandomState};
use std::io::{self, Read, Seek, SeekFrom, Write};

/// Error from the spill store or the audit it feeds.
#[derive(Debug)]
pub enum SpillError {
    /// The underlying store failed.
    Io(io::Error),
    /// A spilled segment failed to decode on restore.
    Corrupt(DecodeError),
    /// The restored audit refused or failed.
    Audit(AuditError),
    /// The bytes read back from the store are not the bytes spilled into
    /// it: their digest differs from the one kept while appending.
    DigestMismatch,
    /// The restored block heights do not run 0, 1, 2, …: the store does
    /// not hold the digest that was spilled into it.
    NonContiguous {
        /// The height the restore expected at this position.
        expected: u64,
        /// The height the store holds there.
        found: u64,
    },
}

impl fmt::Display for SpillError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpillError::Io(e) => write!(f, "spill store i/o: {e}"),
            SpillError::Corrupt(e) => write!(f, "corrupt spill segment: {e}"),
            SpillError::Audit(e) => write!(f, "audit: {e}"),
            SpillError::DigestMismatch => {
                write!(f, "spill store changed since it was written (digest mismatch)")
            }
            SpillError::NonContiguous { expected, found } => {
                write!(f, "restored block height {found} where {expected} was expected")
            }
        }
    }
}

impl std::error::Error for SpillError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SpillError::Io(e) => Some(e),
            SpillError::Corrupt(e) => Some(e),
            SpillError::Audit(e) => Some(e),
            SpillError::DigestMismatch | SpillError::NonContiguous { .. } => None,
        }
    }
}

impl From<io::Error> for SpillError {
    fn from(e: io::Error) -> Self {
        SpillError::Io(e)
    }
}

impl From<DecodeError> for SpillError {
    fn from(e: DecodeError) -> Self {
        SpillError::Corrupt(e)
    }
}

impl From<AuditError> for SpillError {
    fn from(e: AuditError) -> Self {
        SpillError::Audit(e)
    }
}

/// A [`StreamingAuditor`] whose chain-digest state is epoch-checkpointed
/// into a seekable byte store (a spill file at scale, an in-memory
/// `Cursor` in tests). See the module docs for the memory contract.
pub struct SpilledAuditor<S: Read + Write + Seek> {
    auditor: StreamingAuditor,
    store: S,
    epoch_blocks: u64,
    /// Heights checkpointed into the store so far.
    spilled_blocks: u64,
    /// Store length in bytes (restore reads exactly this much).
    spilled_bytes: u64,
    /// Segments appended.
    spilled_segments: u64,
    /// Random keys of `digest`, so a corruption cannot be made to match.
    digest_keys: RandomState,
    /// SipHash of every byte appended to the store, in order.
    digest: DefaultHasher,
}

impl<S: Read + Write + Seek> SpilledAuditor<S> {
    /// Wraps `auditor`, checkpointing its digest into `store` every
    /// `epoch_blocks` sealed heights (0 disables spilling — the wrapper
    /// then behaves exactly like the inner auditor).
    pub fn new(auditor: StreamingAuditor, store: S, epoch_blocks: u64) -> SpilledAuditor<S> {
        let digest_keys = RandomState::new();
        SpilledAuditor {
            auditor,
            store,
            epoch_blocks,
            spilled_blocks: 0,
            spilled_bytes: 0,
            spilled_segments: 0,
            digest: digest_keys.build_hasher(),
            digest_keys,
        }
    }

    /// The wrapped auditor (rolling state, counters, tip).
    pub fn auditor(&self) -> &StreamingAuditor {
        &self.auditor
    }

    /// Digest segments checkpointed so far.
    pub fn spilled_segments(&self) -> u64 {
        self.spilled_segments
    }

    /// Bytes the checkpointed segments occupy in the store.
    pub fn spilled_bytes(&self) -> u64 {
        self.spilled_bytes
    }

    /// Dispatches one event; blocks may trigger a checkpoint.
    pub fn push_event(&mut self, event: &StreamEvent<'_>) -> Result<(), SpillError> {
        match event {
            StreamEvent::Block(b) => self.push_block(b),
            StreamEvent::Snapshot(s) => {
                self.push_snapshot(s);
                Ok(())
            }
        }
    }

    /// Ingests one snapshot (never spills — snapshot state is O(1)).
    pub fn push_snapshot(&mut self, snap: &MempoolSnapshot) {
        self.auditor.push_snapshot(snap);
    }

    /// Ingests one block, then checkpoints the digest if a full epoch of
    /// heights has sealed since the last spill.
    pub fn push_block(&mut self, block: &Block) -> Result<(), SpillError> {
        self.auditor.push_block(block)?;
        if self.epoch_blocks > 0
            && self.auditor.sealed_blocks().saturating_sub(self.spilled_blocks)
                >= self.epoch_blocks
        {
            self.spill()?;
        }
        Ok(())
    }

    /// Drains the settled digest slice and appends it to the store.
    fn spill(&mut self) -> Result<(), SpillError> {
        let segment = self.auditor.drain_digest();
        self.spilled_blocks += segment.blocks.len() as u64;
        let payload = encode_segment(&segment);
        let mut head = BytesMut::with_capacity(10);
        write_compact_size(&mut head, payload.len() as u64);
        self.store.seek(SeekFrom::Start(self.spilled_bytes))?;
        self.store.write_all(&head)?;
        self.store.write_all(&payload)?;
        self.digest.write(&head);
        self.digest.write(&payload);
        self.spilled_bytes += (head.len() + payload.len()) as u64;
        self.spilled_segments += 1;
        Ok(())
    }

    /// The windowed telemetry — oblivious to spilling.
    pub fn rolling(&self) -> RollingVerdict {
        self.auditor.rolling()
    }

    /// The exact audit: replays every spilled segment, rebuilds the full
    /// chain digest transiently (drained segments + the auditor's retained
    /// remainder), and produces the verdict an unspilled
    /// [`StreamingAuditor::verdict`] would return over the same events —
    /// bit-identical, including refusal semantics. A store whose bytes
    /// differ from those spilled into it is refused with
    /// [`SpillError::DigestMismatch`] before anything is decoded; a store
    /// that does not decode, or whose heights do not run contiguously from
    /// 0, is refused with a typed error too.
    pub fn verdict(&mut self) -> Result<AuditReport, SpillError> {
        let mut blocks: Vec<BlockInfo> = Vec::new();
        let mut observed: FastSet<Txid> = FastSet::default();
        let mut addr_txids: FastMap<Address, Vec<Txid>> = FastMap::default();

        self.store.seek(SeekFrom::Start(0))?;
        let mut raw = vec![0u8; self.spilled_bytes as usize];
        self.store.read_exact(&mut raw)?;
        // SipHash digests a byte stream (`write` carries partial words
        // over), so one call over the whole store equals the per-frame
        // calls made while appending.
        let mut check = self.digest_keys.build_hasher();
        check.write(&raw);
        if check.finish() != self.digest.finish() {
            return Err(SpillError::DigestMismatch);
        }
        let mut cursor = Bytes::from(raw);
        for _ in 0..self.spilled_segments {
            let len = read_compact_size(&mut cursor)?;
            ensure_remaining(&cursor, len as usize)?;
            let segment = decode_segment(&mut cursor)?;
            blocks.extend(segment.blocks);
            observed.extend(segment.observed);
            for (addr, txids) in segment.addr_txids {
                addr_txids.entry(addr).or_default().extend(txids);
            }
        }

        // The retained remainder: live index blocks, live sets.
        let live = self.auditor.digest_view();
        blocks.extend(live.0.iter().cloned());
        observed.extend(live.1.iter().copied());
        for (addr, txids) in live.2 {
            addr_txids.entry(*addr).or_default().extend(txids.iter().copied());
        }

        if let Some((expected, block)) =
            blocks.iter().enumerate().find(|(i, b)| b.height != *i as u64)
        {
            return Err(SpillError::NonContiguous {
                expected: expected as u64,
                found: block.height,
            });
        }
        let index = ChainIndex::from_blocks(blocks);
        Ok(self.auditor.verdict_with_digest(&index, &observed, &addr_txids)?)
    }
}

/// Serializes one digest segment with the chain's wire primitives.
fn encode_segment(segment: &DigestSegment) -> Bytes {
    let mut buf = BytesMut::new();
    write_compact_size(&mut buf, segment.blocks.len() as u64);
    for block in &segment.blocks {
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
            // Height and position are implied by block membership and row
            // order; only the independent facts are stored.
            buf.put_slice(tx.txid.0.as_bytes());
            write_compact_size(&mut buf, tx.fee.to_sat());
            write_compact_size(&mut buf, tx.vsize);
            buf.put_u8(tx.is_cpfp as u8);
        }
    }
    write_compact_size(&mut buf, segment.observed.len() as u64);
    for txid in &segment.observed {
        buf.put_slice(txid.0.as_bytes());
    }
    write_compact_size(&mut buf, segment.addr_txids.len() as u64);
    for (addr, txids) in &segment.addr_txids {
        put_address(&mut buf, addr);
        write_compact_size(&mut buf, txids.len() as u64);
        for txid in txids {
            buf.put_slice(txid.0.as_bytes());
        }
    }
    buf.freeze()
}

/// Decodes one digest segment (the inverse of [`encode_segment`]).
fn decode_segment(buf: &mut Bytes) -> Result<DigestSegment, DecodeError> {
    let block_count = checked_len(read_compact_size(buf)?)?;
    let mut blocks = Vec::with_capacity(block_count.min(4_096));
    for _ in 0..block_count {
        let height = read_compact_size(buf)?;
        let hash = BlockHash(read_hash(buf)?);
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
            let txid = Txid(read_hash(buf)?);
            let fee = Amount::from_sat(read_compact_size(buf)?);
            let vsize = read_compact_size(buf)?;
            ensure_remaining(buf, 1)?;
            let is_cpfp = buf.get_u8() != 0;
            txs.push(TxRecord { txid, height, position, fee, vsize, is_cpfp });
        }
        blocks.push(BlockInfo { height, hash, time, miner, coinbase_wallets, txs });
    }
    let observed_count = checked_len(read_compact_size(buf)?)?;
    let mut observed = Vec::with_capacity(observed_count.min(1 << 20));
    for _ in 0..observed_count {
        observed.push(Txid(read_hash(buf)?));
    }
    let addr_count = checked_len(read_compact_size(buf)?)?;
    let mut addr_txids = Vec::with_capacity(addr_count.min(1 << 20));
    for _ in 0..addr_count {
        let addr = read_address(buf)?;
        let n = checked_len(read_compact_size(buf)?)?;
        let mut txids = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            txids.push(Txid(read_hash(buf)?));
        }
        addr_txids.push((addr, txids));
    }
    Ok(DigestSegment { blocks, observed, addr_txids })
}

fn checked_len(n: u64) -> Result<usize, DecodeError> {
    if n > MAX_DECODE_LEN {
        return Err(DecodeError::OversizedLength(n));
    }
    Ok(n as usize)
}

fn read_hash(buf: &mut Bytes) -> Result<Hash256, DecodeError> {
    ensure_remaining(buf, 32)?;
    let mut raw = [0u8; 32];
    buf.copy_to_slice(&mut raw);
    Ok(Hash256(raw))
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
    use crate::coverage::StreamExpectation;
    use crate::streaming::{interleave, StreamingConfig};
    use cn_chain::{Amount, Chain, CoinbaseBuilder, Params, PoolMarker, Transaction};
    use cn_mempool::SnapshotEntry;
    use std::io::Cursor;

    /// A small valid chain alternating two pools, with per-block snapshots.
    fn sample(blocks: u64) -> (Chain, Vec<MempoolSnapshot>) {
        let mut chain = Chain::new(Params::mainnet());
        let mut fund =
            Transaction::builder().add_input(cn_chain::TxIn::new(cn_chain::OutPoint::NULL));
        for _ in 0..blocks * 2 {
            fund = fund.pay_to(Address::from_label("u"), Amount::from_sat(2_000_000));
        }
        let fund = fund.build();
        chain.seed_utxos(&fund);
        let mut snapshots = Vec::new();
        for h in 0..blocks {
            let t1 = Transaction::builder()
                .add_input_with_sizes(fund.txid(), (h * 2) as u32, 107, 0)
                .pay_to(Address::from_label("a"), Amount::from_sat(1_800_000))
                .build();
            let t2 = Transaction::builder()
                .add_input_with_sizes(fund.txid(), (h * 2 + 1) as u32, 107, 0)
                .pay_to(Address::from_label("b"), Amount::from_sat(1_900_000))
                .build();
            snapshots.push(MempoolSnapshot::from_entries(
                h * 600 + 300,
                [&t1, &t2]
                    .iter()
                    .enumerate()
                    .map(|(i, tx)| SnapshotEntry {
                        txid: tx.txid(),
                        received: h * 600 + 100 + i as u64,
                        fee: Amount::from_sat(if i == 0 { 200_000 } else { 100_000 }),
                        vsize: tx.vsize(),
                        has_unconfirmed_parent: false,
                    })
                    .collect(),
            ));
            let fees = Amount::from_sat(300_000);
            let pool = if h % 2 == 0 { "/Alpha/" } else { "/Beta/" };
            let cb = CoinbaseBuilder::new(h)
                .marker(PoolMarker::new(pool))
                .reward(
                    Address::from_label(&format!("pool:{}:0", &pool[1..pool.len() - 1])),
                    Amount::from_btc(50) + fees,
                )
                .extra_nonce(h)
                .build();
            let block =
                Block::assemble(2, chain.tip_hash(), (h + 1) * 600, h as u32, cb, vec![t1, t2]);
            chain.connect(block).expect("valid");
        }
        (chain, snapshots)
    }

    fn config(blocks: u64, window: u64) -> StreamingConfig {
        let mut cfg = StreamingConfig::new(StreamExpectation {
            windows: blocks,
            detailed: blocks,
            min_coverage: 0.0,
        });
        cfg.window_blocks = window;
        cfg
    }

    #[test]
    fn spilled_verdict_is_bit_identical_to_unspilled() {
        let (chain, snapshots) = sample(16);
        for epoch in [1u64, 3, 5] {
            let mut plain =
                StreamingAuditor::new(chain.initial_utxos(), config(16, 4));
            let mut spilled = SpilledAuditor::new(
                StreamingAuditor::new(chain.initial_utxos(), config(16, 4)),
                Cursor::new(Vec::new()),
                epoch,
            );
            for ev in interleave(chain.blocks(), &snapshots) {
                plain.push_event(&ev).expect("replays");
                spilled.push_event(&ev).expect("replays");
            }
            assert!(spilled.spilled_segments() > 0, "epoch {epoch} never spilled");
            assert!(
                spilled.auditor().digest_view().0.len() < chain.blocks().len(),
                "epoch {epoch} retained the whole index"
            );
            let want = plain.verdict().expect("audits");
            let got = spilled.verdict().expect("audits");
            assert_eq!(got, want, "epoch {epoch}");
            assert_eq!(got.render(), want.render(), "epoch {epoch}");
            // Rolling telemetry is oblivious to spilling.
            assert_eq!(spilled.rolling(), plain.rolling(), "epoch {epoch}");
            // Verdict is repeatable (the store survives being replayed).
            let again = spilled.verdict().expect("audits twice");
            assert_eq!(again, want, "epoch {epoch} second verdict");
        }
    }

    #[test]
    fn epoch_zero_never_spills_and_matches() {
        let (chain, snapshots) = sample(8);
        let mut plain = StreamingAuditor::new(chain.initial_utxos(), config(8, 3));
        let mut spilled = SpilledAuditor::new(
            StreamingAuditor::new(chain.initial_utxos(), config(8, 3)),
            Cursor::new(Vec::new()),
            0,
        );
        for ev in interleave(chain.blocks(), &snapshots) {
            plain.push_event(&ev).expect("replays");
            spilled.push_event(&ev).expect("replays");
        }
        assert_eq!(spilled.spilled_segments(), 0);
        assert_eq!(spilled.spilled_bytes(), 0);
        assert_eq!(spilled.verdict().expect("audits"), plain.verdict().expect("audits"));
    }

    #[test]
    fn corrupted_store_is_refused_never_audited() {
        let (chain, snapshots) = sample(16);
        let mut spilled = SpilledAuditor::new(
            StreamingAuditor::new(chain.initial_utxos(), config(16, 4)),
            Cursor::new(Vec::new()),
            3,
        );
        for ev in interleave(chain.blocks(), &snapshots) {
            spilled.push_event(&ev).expect("replays");
        }
        spilled.verdict().expect("the intact store audits");
        let len = spilled.store.get_ref().len();
        assert!(len > 1_000, "store too small to exercise: {len} bytes");
        for byte in 0..len {
            for bit in 0..8 {
                spilled.store.get_mut()[byte] ^= 1 << bit;
                let outcome =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| spilled.verdict()));
                assert!(
                    matches!(outcome, Ok(Err(SpillError::DigestMismatch))),
                    "flipping bit {bit} of byte {byte} was not refused"
                );
                spilled.store.get_mut()[byte] ^= 1 << bit;
            }
        }
        assert!(spilled.verdict().is_ok(), "the restored store audits again");
    }

    #[test]
    fn segment_round_trips_through_the_wire_format() {
        let (chain, snapshots) = sample(10);
        let mut auditor = StreamingAuditor::new(chain.initial_utxos(), config(10, 2));
        for ev in interleave(chain.blocks(), &snapshots) {
            auditor.push_event(&ev).expect("replays");
        }
        let segment = auditor.drain_digest();
        assert!(!segment.blocks.is_empty());
        assert!(!segment.observed.is_empty());
        assert!(!segment.addr_txids.is_empty());
        let encoded = encode_segment(&segment);
        let mut cursor = Bytes::copy_from_slice(&encoded);
        let decoded = decode_segment(&mut cursor).expect("round trip");
        assert!(!cursor.has_remaining(), "decoder consumed everything");
        assert_eq!(decoded.observed, segment.observed);
        assert_eq!(decoded.addr_txids, segment.addr_txids);
        assert_eq!(decoded.blocks.len(), segment.blocks.len());
        for (a, b) in decoded.blocks.iter().zip(&segment.blocks) {
            assert_eq!(a.height, b.height);
            assert_eq!(a.hash, b.hash);
            assert_eq!(a.time, b.time);
            assert_eq!(a.miner, b.miner);
            assert_eq!(a.coinbase_wallets, b.coinbase_wallets);
            assert_eq!(a.txs, b.txs);
        }
        // A truncated segment is a typed decode error, not a panic.
        let mut torn = Bytes::copy_from_slice(&encoded[..encoded.len() / 2]);
        assert!(decode_segment(&mut torn).is_err());
    }
}
