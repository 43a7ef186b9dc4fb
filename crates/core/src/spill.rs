//! Epoch-checkpointed streaming audit: the chain digest's settled prefix
//! spilled to a log-structured store, bounding auditor memory to
//! O(window + epoch).
//!
//! [`StreamingAuditor`]'s exact verdict is a function of the whole chain,
//! so its chain digest (the [`ChainIndex`](crate::ChainIndex), the observed
//! txid set, the address→txid log) necessarily grows with run length — the
//! one O(chain) term its module docs concede. [`SpilledAuditor`] moves that
//! term to a store: every `epoch_blocks` sealed heights it drains the
//! digest's settled prefix and appends its encoding to a seekable store.
//! Push-path memory is then O(window + epoch). The wrapped auditor keeps
//! its coverage counts, its refusal gate and its poisoning, so spilling
//! never changes what a verdict says.
//!
//! The exact verdict still needs the whole digest, so
//! [`SpilledAuditor::verdict`] decodes each spilled prefix straight onto
//! one restored digest and appends the live remainder by reference, so
//! each restored entry is hashed once. The wrapped auditor's one verdict
//! over it is bit-identical to an unspilled auditor's
//! [`StreamingAuditor::verdict`] over the same events. The peak is paid
//! once at verdict time instead of held for the whole run, and
//! [`StreamingAuditor::rolling`] stays available throughout at its usual
//! O(window) cost.
//!
//! The store is outside the auditor's control, so the auditor keeps a
//! keyed SipHash checksum of every byte it appends (O(1) memory) and checks
//! the bytes it reads back against it before decoding anything: a store
//! that changed since it was written is refused with
//! [`SpillError::DigestMismatch`], never audited. The checksum lives in the
//! auditor, not the store, so the store format and its byte count are
//! unchanged.

use crate::auditor::AuditReport;
use crate::error::AuditError;
use crate::index::{ChainDigest, HeightGap};
use crate::streaming::{RollingVerdict, StreamEvent, StreamingAuditor};
use bytes::{Bytes, BytesMut};
use cn_chain::encode::{ensure_remaining, read_compact_size, write_compact_size, DecodeError};
use cn_chain::Block;
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
    /// it: their checksum differs from the one kept while appending.
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

impl From<HeightGap> for SpillError {
    fn from(HeightGap { expected, found }: HeightGap) -> Self {
        SpillError::NonContiguous { expected, found }
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
    /// Random keys of `checksum`, so a corruption cannot be made to match.
    checksum_keys: RandomState,
    /// SipHash of every byte appended to the store, in order.
    checksum: DefaultHasher,
}

impl<S: Read + Write + Seek> SpilledAuditor<S> {
    /// Wraps `auditor`, checkpointing its digest into `store` every
    /// `epoch_blocks` sealed heights (0 disables spilling — the wrapper
    /// then behaves exactly like the inner auditor).
    pub fn new(auditor: StreamingAuditor, store: S, epoch_blocks: u64) -> SpilledAuditor<S> {
        let checksum_keys = RandomState::new();
        SpilledAuditor {
            auditor,
            store,
            epoch_blocks,
            spilled_blocks: 0,
            spilled_bytes: 0,
            spilled_segments: 0,
            checksum: checksum_keys.build_hasher(),
            checksum_keys,
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

    /// Drains the digest's settled prefix and appends it to the store.
    fn spill(&mut self) -> Result<(), SpillError> {
        let frontier = self.auditor.sealed_blocks();
        let settled = self.auditor.digest.drain(frontier);
        self.spilled_blocks += settled.index.blocks().len() as u64;
        let payload = settled.encode();
        let mut head = BytesMut::with_capacity(10);
        write_compact_size(&mut head, payload.len() as u64);
        self.store.seek(SeekFrom::Start(self.spilled_bytes))?;
        self.store.write_all(&head)?;
        self.store.write_all(&payload)?;
        self.checksum.write(&head);
        self.checksum.write(&payload);
        self.spilled_bytes += (head.len() + payload.len()) as u64;
        self.spilled_segments += 1;
        Ok(())
    }

    /// The windowed telemetry — oblivious to spilling.
    pub fn rolling(&self) -> RollingVerdict {
        self.auditor.rolling()
    }

    /// The exact audit: decodes every spilled prefix onto one digest,
    /// appends the wrapped auditor's live remainder, and produces the verdict
    /// an unspilled [`StreamingAuditor::verdict`] would return over the same
    /// events — bit-identical, including refusal semantics. A store whose bytes
    /// differ from those spilled into it is refused with
    /// [`SpillError::DigestMismatch`] before anything is decoded; a store
    /// that does not decode, or whose heights do not run contiguously from
    /// 0, is refused with a typed error too.
    pub fn verdict(&mut self) -> Result<AuditReport, SpillError> {
        self.store.seek(SeekFrom::Start(0))?;
        let mut raw = vec![0u8; self.spilled_bytes as usize];
        self.store.read_exact(&mut raw)?;
        // SipHash digests a byte stream (`write` carries partial words
        // over), so one call over the whole store equals the per-frame
        // calls made while appending.
        let mut check = self.checksum_keys.build_hasher();
        check.write(&raw);
        if check.finish() != self.checksum.finish() {
            return Err(SpillError::DigestMismatch);
        }
        let mut cursor = Bytes::from(raw);
        let mut restored = ChainDigest::default();
        for _ in 0..self.spilled_segments {
            let len = read_compact_size(&mut cursor)?;
            ensure_remaining(&cursor, len as usize)?;
            restored.decode::<SpillError>(&mut cursor)?;
        }
        restored.append(&self.auditor.digest)?;
        Ok(self.auditor.verdict_over(&restored)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coverage::StreamExpectation;
    use crate::self_interest::TouchLog;
    use crate::streaming::{interleave, StreamingConfig};
    use bytes::Buf;
    use cn_chain::{Address, Amount, Chain, CoinbaseBuilder, Params, PoolMarker, Transaction};
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
                spilled.auditor().digest.index.blocks().len() < chain.blocks().len(),
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
        let frontier = auditor.sealed_blocks();
        let segment = auditor.digest.drain(frontier);
        assert!(!segment.index.blocks().is_empty());
        assert!(!segment.observed.is_empty());
        assert_ne!(segment.touches, TouchLog::default());
        let encoded = segment.encode();
        let mut cursor = Bytes::copy_from_slice(&encoded);
        let mut decoded = ChainDigest::default();
        decoded.decode::<SpillError>(&mut cursor).expect("round trip");
        assert!(!cursor.has_remaining(), "decoder consumed everything");
        assert_eq!(decoded.observed, segment.observed);
        assert_eq!(decoded.touches, segment.touches);
        assert_eq!(decoded.index.blocks().len(), segment.index.blocks().len());
        for (a, b) in decoded.index.blocks().iter().zip(segment.index.blocks()) {
            assert_eq!(a.height, b.height);
            assert_eq!(a.hash, b.hash);
            assert_eq!(a.time, b.time);
            assert_eq!(a.miner, b.miner);
            assert_eq!(a.coinbase_wallets, b.coinbase_wallets);
            assert_eq!(a.txs, b.txs);
        }
        // A truncated segment is a typed decode error, not a panic.
        let mut torn = Bytes::copy_from_slice(&encoded[..encoded.len() / 2]);
        assert!(ChainDigest::default().decode::<SpillError>(&mut torn).is_err());
    }

    #[test]
    fn a_prefix_that_skips_heights_is_refused_as_non_contiguous() {
        let (chain, snapshots) = sample(10);
        let mut auditor = StreamingAuditor::new(chain.initial_utxos(), config(10, 2));
        for ev in interleave(chain.blocks(), &snapshots) {
            auditor.push_event(&ev).expect("replays");
        }
        let frontier = auditor.sealed_blocks();
        auditor.digest.drain(frontier / 2);
        let mut second = auditor.digest.drain(frontier).encode();
        // Restoring the second prefix without the first skips heights.
        let err =
            ChainDigest::default().decode::<SpillError>(&mut second).expect_err("skips heights");
        let want = frontier / 2;
        assert!(
            matches!(err, SpillError::NonContiguous { expected: 0, found } if found == want),
            "{err}"
        );
    }
}
