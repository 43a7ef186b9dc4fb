//! Compact append-only binary event logs — the disk-shaped form of a run.
//!
//! A simulation's observable output is one canonical event stream: blocks
//! and primary-observer mempool snapshots, time-sorted with blocks first on
//! same-second ties (exactly what `cn_core::streaming::interleave` produces
//! from a finished run, and what [`StreamingAuditor`](cn_core::StreamingAuditor) consumes). This
//! module serializes that stream into a segmented binary log and replays
//! it, so run length becomes a disk cost instead of a RAM cost:
//!
//! * [`LogWriter`] implements [`cn_sim::EventSink`], so a chunked
//!   `World::run_streamed` writes the log directly while dropping records
//!   from memory; [`write_run`] feeds a finished monolithic run through
//!   the identical encoder (the byte-identity oracle for the chunked path).
//! * [`LogReader`] replays the stream sequentially with O(segment) state.
//!
//! ## Format
//!
//! ```text
//! magic "CNEVLOG1"
//! prologue: compact_size seed_count, then each seed funding transaction
//!           as a length-prefixed canonical tx encoding — what a replay
//!           needs for the initial UTXO set
//! records:  tag u8 · compact_size payload_len · payload
//!   0x01 segment start: compact_size segment_index. Resets the txid
//!        intern table and the timestamp delta base; the writer opens a
//!        new segment after every `epoch_blocks`-th block record, making
//!        segmentation a pure function of (event sequence, epoch length)
//!        and per-segment decoder state O(epoch).
//!   0x02 block: the canonical block encoding.
//!   0x03 snapshot: flags u8 (bit0 detailed, bit1 truncated,
//!        bit2 degraded) · compact_size time-delta vs the previous
//!        record in this segment (absolute for the first) · then either
//!        aggregates (light: count, vsize) or struct-of-arrays row
//!        columns (detailed): txid handles (interned u32-sized compact
//!        sizes; a first appearance writes the next free handle followed
//!        by the raw 32 bytes), zigzag received-vs-snapshot-time deltas,
//!        fees, vsizes, and a packed unconfirmed-parent bitset.
//! ```
//!
//! Snapshot rows dominate log volume: the backlog is re-listed every
//! detailed snapshot, so interned txid handles (3 bytes amortized instead
//! of 32) and delta timestamps do most of the compression work.
//!
//! Corruption surfaces as a typed [`LogError`], never a panic.

use cn_chain::encode::{
    ensure_remaining, read_compact_size, write_compact_size, DecodeError, MAX_DECODE_LEN,
};
use cn_chain::{Amount, Block, Decodable, Encodable, FastMap, Timestamp, Transaction, Txid, UtxoSet};
use cn_mempool::{MempoolSnapshot, SnapshotEntry};
use cn_sim::sink::EventSink;
use cn_sim::SimOutput;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::fmt;
use std::io::{self, Read, Write};

/// File magic: identifies the format and pins its revision.
pub const LOG_MAGIC: &[u8; 8] = b"CNEVLOG1";

const TAG_SEGMENT: u8 = 0x01;
const TAG_BLOCK: u8 = 0x02;
const TAG_SNAPSHOT: u8 = 0x03;

const FLAG_DETAILED: u8 = 0b001;
const FLAG_TRUNCATED: u8 = 0b010;
const FLAG_DEGRADED: u8 = 0b100;

/// Error from writing or replaying an event log.
#[derive(Debug)]
pub enum LogError {
    /// An underlying I/O operation failed.
    Io(io::Error),
    /// The input does not start with [`LOG_MAGIC`].
    BadMagic,
    /// A record tag byte is not one of the known tags.
    UnknownTag(u8),
    /// The input ended in the middle of a record (a torn tail).
    TruncatedRecord,
    /// A record payload failed structural decoding.
    Decode(DecodeError),
    /// A snapshot row referenced a txid handle beyond the intern table.
    BadHandle {
        /// The handle the row carried.
        handle: u64,
        /// Intern-table size at that point.
        table: usize,
    },
    /// A record payload had bytes left over after decoding.
    TrailingBytes,
}

impl fmt::Display for LogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogError::Io(e) => write!(f, "event log i/o: {e}"),
            LogError::BadMagic => write!(f, "not an event log (bad magic)"),
            LogError::UnknownTag(t) => write!(f, "unknown event-log record tag {t:#04x}"),
            LogError::TruncatedRecord => write!(f, "event log ends mid-record"),
            LogError::Decode(e) => write!(f, "malformed event-log record: {e}"),
            LogError::BadHandle { handle, table } => {
                write!(f, "snapshot row references txid handle {handle} of {table}")
            }
            LogError::TrailingBytes => write!(f, "event-log record has trailing bytes"),
        }
    }
}

impl std::error::Error for LogError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LogError::Io(e) => Some(e),
            LogError::Decode(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for LogError {
    fn from(e: io::Error) -> Self {
        LogError::Io(e)
    }
}

impl From<DecodeError> for LogError {
    fn from(e: DecodeError) -> Self {
        LogError::Decode(e)
    }
}

/// Aggregate counters a finished [`LogWriter`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogStats {
    /// Total bytes written, magic and prologue included.
    pub bytes: u64,
    /// Block records written.
    pub blocks: u64,
    /// Snapshot records written.
    pub snapshots: u64,
    /// Segments opened.
    pub segments: u64,
}

fn zigzag(n: i64) -> u64 {
    ((n << 1) ^ (n >> 63)) as u64
}

fn unzigzag(n: u64) -> i64 {
    ((n >> 1) as i64) ^ -((n & 1) as i64)
}

/// Segmented binary encoder for the canonical event stream.
///
/// Implements [`EventSink`], so `World::run_streamed` can write the log
/// directly. I/O errors are sticky: the first failure is remembered,
/// subsequent events are ignored, and [`LogWriter::finish`] reports it —
/// keeping the sink trait infallible for the simulation loop.
pub struct LogWriter<W: Write> {
    out: W,
    epoch_blocks: u64,
    header_written: bool,
    segment_open: bool,
    blocks_in_segment: u64,
    last_time: Option<Timestamp>,
    intern: FastMap<Txid, u32>,
    stats: LogStats,
    error: Option<io::Error>,
    buf: BytesMut,
}

impl<W: Write> LogWriter<W> {
    /// Creates a writer that opens a new segment after every
    /// `epoch_blocks`-th block record (0 means one unbounded segment).
    pub fn new(out: W, epoch_blocks: u64) -> LogWriter<W> {
        LogWriter {
            out,
            epoch_blocks,
            header_written: false,
            segment_open: false,
            blocks_in_segment: 0,
            last_time: None,
            intern: FastMap::default(),
            stats: LogStats { bytes: 0, blocks: 0, snapshots: 0, segments: 0 },
            error: None,
            buf: BytesMut::new(),
        }
    }

    /// Flushes the underlying writer and returns the aggregate counters,
    /// or the first I/O error encountered.
    pub fn finish(mut self) -> Result<LogStats, LogError> {
        if let Some(e) = self.error.take() {
            return Err(LogError::Io(e));
        }
        self.out.flush()?;
        Ok(self.stats)
    }

    fn write_all(&mut self, bytes: &[u8]) {
        if self.error.is_some() {
            return;
        }
        if let Err(e) = self.out.write_all(bytes) {
            self.error = Some(e);
            return;
        }
        self.stats.bytes += bytes.len() as u64;
    }

    fn write_record(&mut self, tag: u8) {
        let payload = std::mem::take(&mut self.buf);
        let mut head = BytesMut::with_capacity(10);
        head.put_u8(tag);
        write_compact_size(&mut head, payload.len() as u64);
        self.write_all(&head);
        self.write_all(&payload);
    }

    fn ensure_segment(&mut self) {
        if self.segment_open {
            return;
        }
        let index = self.stats.segments;
        self.stats.segments += 1;
        self.segment_open = true;
        self.blocks_in_segment = 0;
        self.last_time = None;
        self.intern.clear();
        write_compact_size(&mut self.buf, index);
        self.write_record(TAG_SEGMENT);
    }

    fn encode_snapshot(&mut self, snap: &MempoolSnapshot) {
        let mut flags = 0u8;
        if snap.is_detailed() {
            flags |= FLAG_DETAILED;
        }
        if snap.is_truncated() {
            flags |= FLAG_TRUNCATED;
        }
        if snap.is_degraded() {
            flags |= FLAG_DEGRADED;
        }
        self.buf.put_u8(flags);
        let delta = snap.time - self.last_time.unwrap_or(0);
        write_compact_size(&mut self.buf, delta);
        if !snap.is_detailed() {
            write_compact_size(&mut self.buf, snap.len() as u64);
            write_compact_size(&mut self.buf, snap.total_vsize());
            return;
        }
        write_compact_size(&mut self.buf, snap.len() as u64);
        // Struct-of-arrays columns: like-typed values stream together, so
        // the varints of a mostly-unchanged backlog compress into long
        // runs of small handles and small deltas.
        for row in snap.rows() {
            match self.intern.get(&row.txid) {
                Some(&handle) => write_compact_size(&mut self.buf, handle as u64),
                None => {
                    let handle = self.intern.len() as u32;
                    self.intern.insert(row.txid, handle);
                    write_compact_size(&mut self.buf, handle as u64);
                    self.buf.put_slice(row.txid.0.as_bytes());
                }
            }
        }
        for row in snap.rows() {
            let delta = snap.time as i64 - row.received as i64;
            write_compact_size(&mut self.buf, zigzag(delta));
        }
        for row in snap.rows() {
            write_compact_size(&mut self.buf, row.fee.to_sat());
        }
        for row in snap.rows() {
            write_compact_size(&mut self.buf, row.vsize);
        }
        let mut bits = vec![0u8; snap.len().div_ceil(8)];
        for (i, row) in snap.rows().enumerate() {
            if row.has_unconfirmed_parent {
                bits[i / 8] |= 1 << (i % 8);
            }
        }
        self.buf.put_slice(&bits);
    }
}

impl<W: Write> EventSink for LogWriter<W> {
    fn on_start(&mut self, seeds: &[Transaction]) {
        if self.header_written {
            return;
        }
        self.header_written = true;
        self.write_all(&LOG_MAGIC[..]);
        write_compact_size(&mut self.buf, seeds.len() as u64);
        for tx in seeds {
            let mut tx_buf = BytesMut::new();
            tx.encode(&mut tx_buf);
            write_compact_size(&mut self.buf, tx_buf.len() as u64);
            self.buf.put_slice(&tx_buf);
        }
        let prologue = std::mem::take(&mut self.buf);
        self.write_all(&prologue);
    }

    fn on_block(&mut self, block: &Block) {
        debug_assert!(self.header_written, "on_start must precede events");
        self.ensure_segment();
        block.encode(&mut self.buf);
        self.write_record(TAG_BLOCK);
        self.last_time = Some(block.header.time);
        self.stats.blocks += 1;
        self.blocks_in_segment += 1;
        if self.epoch_blocks > 0 && self.blocks_in_segment >= self.epoch_blocks {
            self.segment_open = false;
        }
    }

    fn on_snapshot(&mut self, snapshot: &MempoolSnapshot) {
        debug_assert!(self.header_written, "on_start must precede events");
        self.ensure_segment();
        self.encode_snapshot(snapshot);
        self.write_record(TAG_SNAPSHOT);
        self.last_time = Some(snapshot.time);
        self.stats.snapshots += 1;
    }
}

/// One replayed event.
#[derive(Debug, Clone)]
pub enum LogEvent {
    /// A block record.
    Block(Block),
    /// A snapshot record.
    Snapshot(MempoolSnapshot),
}

/// Sequential event-log replayer with O(segment) state: the only
/// accumulation across records is the current segment's txid intern table,
/// which resets at every segment boundary.
pub struct LogReader<R: Read> {
    input: R,
    seeds: Vec<Transaction>,
    intern: Vec<Txid>,
    last_time: Option<Timestamp>,
    segments_seen: u64,
}

impl<R: Read> LogReader<R> {
    /// Opens a log: verifies the magic and reads the seed prologue.
    pub fn new(mut input: R) -> Result<LogReader<R>, LogError> {
        let mut magic = [0u8; 8];
        read_exact_or(&mut input, &mut magic, LogError::BadMagic)?;
        if &magic != LOG_MAGIC {
            return Err(LogError::BadMagic);
        }
        let count = read_compact_io(&mut input)?;
        if count > MAX_DECODE_LEN {
            return Err(LogError::Decode(DecodeError::OversizedLength(count)));
        }
        // The claimed count is untrusted until the txs actually decode.
        let mut seeds = Vec::with_capacity((count as usize).min(1_024));
        for _ in 0..count {
            let len = read_compact_io(&mut input)?;
            if len > MAX_DECODE_LEN {
                return Err(LogError::Decode(DecodeError::OversizedLength(len)));
            }
            let mut raw = vec![0u8; len as usize];
            read_exact_or(&mut input, &mut raw, LogError::TruncatedRecord)?;
            let mut bytes = Bytes::copy_from_slice(&raw);
            let tx = Transaction::decode(&mut bytes)?;
            if bytes.has_remaining() {
                return Err(LogError::TrailingBytes);
            }
            seeds.push(tx);
        }
        Ok(LogReader { input, seeds, intern: Vec::new(), last_time: None, segments_seen: 0 })
    }

    /// The seed funding transactions from the prologue.
    pub fn seeds(&self) -> &[Transaction] {
        &self.seeds
    }

    /// The UTXO set as it stood before the first block — what a streaming
    /// auditor must be constructed with.
    pub fn initial_utxos(&self) -> UtxoSet {
        let mut set = UtxoSet::new();
        for tx in &self.seeds {
            set.insert_outputs(tx);
        }
        set
    }

    /// Segments encountered so far.
    pub fn segments_seen(&self) -> u64 {
        self.segments_seen
    }

    /// Replays the next block or snapshot, `Ok(None)` at a clean end of
    /// log. Segment records are consumed internally.
    pub fn next_event(&mut self) -> Result<Option<LogEvent>, LogError> {
        loop {
            let tag = match read_u8_opt(&mut self.input)? {
                None => return Ok(None),
                Some(t) => t,
            };
            let len = read_compact_io(&mut self.input)?;
            if len > MAX_DECODE_LEN {
                return Err(LogError::Decode(DecodeError::OversizedLength(len)));
            }
            let mut payload = vec![0u8; len as usize];
            read_exact_or(&mut self.input, &mut payload, LogError::TruncatedRecord)?;
            let mut payload = Bytes::copy_from_slice(&payload);
            match tag {
                TAG_SEGMENT => {
                    let _index = read_compact_size(&mut payload)?;
                    self.intern.clear();
                    self.last_time = None;
                    self.segments_seen += 1;
                    if payload.has_remaining() {
                        return Err(LogError::TrailingBytes);
                    }
                }
                TAG_BLOCK => {
                    let block = Block::decode(&mut payload)?;
                    if payload.has_remaining() {
                        return Err(LogError::TrailingBytes);
                    }
                    self.last_time = Some(block.header.time);
                    return Ok(Some(LogEvent::Block(block)));
                }
                TAG_SNAPSHOT => {
                    let snap = self.decode_snapshot(&mut payload)?;
                    if payload.has_remaining() {
                        return Err(LogError::TrailingBytes);
                    }
                    self.last_time = Some(snap.time);
                    return Ok(Some(LogEvent::Snapshot(snap)));
                }
                other => return Err(LogError::UnknownTag(other)),
            }
        }
    }

    fn decode_snapshot(&mut self, payload: &mut Bytes) -> Result<MempoolSnapshot, LogError> {
        ensure_remaining(payload, 1)?;
        let flags = payload.get_u8();
        let delta = read_compact_size(payload)?;
        // A corrupt delta must surface as a typed error, not an overflow.
        let time = self
            .last_time
            .unwrap_or(0)
            .checked_add(delta)
            .ok_or(LogError::Decode(DecodeError::OversizedLength(delta)))?;
        let mut snap = if flags & FLAG_DETAILED == 0 {
            let count = read_compact_size(payload)?;
            if count > MAX_DECODE_LEN {
                return Err(LogError::Decode(DecodeError::OversizedLength(count)));
            }
            let vsize = read_compact_size(payload)?;
            MempoolSnapshot::light(time, count as usize, vsize)
        } else {
            let rows = read_compact_size(payload)?;
            if rows > MAX_DECODE_LEN {
                return Err(LogError::Decode(DecodeError::OversizedLength(rows)));
            }
            let rows = rows as usize;
            // Every row costs at least one handle byte, so a claimed count
            // beyond the remaining payload is structurally impossible —
            // reject it before trusting it for preallocation.
            ensure_remaining(payload, rows)?;
            let mut txids = Vec::with_capacity(rows);
            for _ in 0..rows {
                let handle = read_compact_size(payload)?;
                if handle < self.intern.len() as u64 {
                    txids.push(self.intern[handle as usize]);
                } else if handle == self.intern.len() as u64 {
                    ensure_remaining(payload, 32)?;
                    let mut raw = [0u8; 32];
                    payload.copy_to_slice(&mut raw);
                    let txid = Txid::from(raw);
                    self.intern.push(txid);
                    txids.push(txid);
                } else {
                    return Err(LogError::BadHandle { handle, table: self.intern.len() });
                }
            }
            let mut received = Vec::with_capacity(rows);
            for _ in 0..rows {
                let delta = unzigzag(read_compact_size(payload)?);
                // Wrapping: a corrupt delta yields a wrong-but-total value;
                // the surrounding record almost always fails structurally.
                received.push((time as i64).wrapping_sub(delta) as Timestamp);
            }
            let mut fees = Vec::with_capacity(rows);
            for _ in 0..rows {
                fees.push(Amount::from_sat(read_compact_size(payload)?));
            }
            let mut vsizes = Vec::with_capacity(rows);
            for _ in 0..rows {
                vsizes.push(read_compact_size(payload)?);
            }
            let bits_len = rows.div_ceil(8);
            ensure_remaining(payload, bits_len)?;
            let mut bits = vec![0u8; bits_len];
            payload.copy_to_slice(&mut bits);
            let entries: Vec<SnapshotEntry> = (0..rows)
                .map(|i| SnapshotEntry {
                    txid: txids[i],
                    received: received[i],
                    fee: fees[i],
                    vsize: vsizes[i],
                    has_unconfirmed_parent: bits[i / 8] & (1 << (i % 8)) != 0,
                })
                .collect();
            MempoolSnapshot::from_entries(time, entries)
        };
        if flags & FLAG_TRUNCATED != 0 {
            snap = snap.mark_truncated();
        }
        if flags & FLAG_DEGRADED != 0 {
            snap = snap.mark_degraded();
        }
        Ok(snap)
    }
}

/// Encodes a finished monolithic run through the same writer the chunked
/// path uses — the byte-identity oracle: for any epoch length,
/// `World::run_streamed` into a `LogWriter` must produce these bytes.
pub fn write_run<W: Write>(
    out: &SimOutput,
    epoch_blocks: u64,
    to: W,
) -> Result<LogStats, LogError> {
    let mut writer = LogWriter::new(to, epoch_blocks);
    writer.on_start(out.chain.seeded_transactions());
    for event in cn_core::streaming::interleave(out.chain.blocks(), &out.observer_streams[0]) {
        match event {
            cn_core::StreamEvent::Block(b) => writer.on_block(b),
            cn_core::StreamEvent::Snapshot(s) => writer.on_snapshot(s),
        }
    }
    writer.finish()
}

fn read_u8_opt<R: Read>(input: &mut R) -> Result<Option<u8>, LogError> {
    let mut byte = [0u8; 1];
    loop {
        match input.read(&mut byte) {
            Ok(0) => return Ok(None),
            Ok(_) => return Ok(Some(byte[0])),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(LogError::Io(e)),
        }
    }
}

fn read_exact_or<R: Read>(input: &mut R, buf: &mut [u8], on_eof: LogError) -> Result<(), LogError> {
    match input.read_exact(buf) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => Err(on_eof),
        Err(e) => Err(LogError::Io(e)),
    }
}

/// Reads a compact-size varint directly from an [`io::Read`] stream,
/// mapping EOF onto [`LogError::TruncatedRecord`].
fn read_compact_io<R: Read>(input: &mut R) -> Result<u64, LogError> {
    let mut first = [0u8; 1];
    read_exact_or(input, &mut first, LogError::TruncatedRecord)?;
    let extra = match first[0] {
        0xfd => 2,
        0xfe => 4,
        0xff => 8,
        n => return Ok(n as u64),
    };
    let mut rest = [0u8; 9];
    read_exact_or(input, &mut rest[1..=extra], LogError::TruncatedRecord)?;
    rest[0] = first[0];
    let mut bytes = Bytes::copy_from_slice(&rest[..=extra]);
    Ok(read_compact_size(&mut bytes)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::{dataset_a, Scale};
    use cn_sim::World;

    #[test]
    fn zigzag_round_trips() {
        for n in [0i64, 1, -1, 2, -2, 1 << 40, -(1 << 40), i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(n)), n);
        }
    }

    fn tiny_run() -> SimOutput {
        let mut s = dataset_a(Scale::Quick);
        s.duration = 3_600;
        World::new(s).run()
    }

    fn replay_all(log: &[u8]) -> (Vec<Block>, Vec<MempoolSnapshot>, Vec<Transaction>, u64) {
        let mut reader = LogReader::new(log).expect("valid log");
        let seeds = reader.seeds().to_vec();
        let mut blocks = Vec::new();
        let mut snaps = Vec::new();
        while let Some(event) = reader.next_event().expect("valid record") {
            match event {
                LogEvent::Block(b) => blocks.push(b),
                LogEvent::Snapshot(s) => snaps.push(s),
            }
        }
        (blocks, snaps, seeds, reader.segments_seen())
    }

    #[test]
    fn round_trip_replays_identical_stream() {
        let out = tiny_run();
        let mut log = Vec::new();
        let stats = write_run(&out, 7, &mut log).expect("write");
        assert_eq!(stats.bytes, log.len() as u64);
        assert_eq!(stats.blocks, out.chain.blocks().len() as u64);
        assert_eq!(stats.snapshots, out.observer_streams[0].len() as u64);
        // Trailing snapshots after an epoch-closing final block open one
        // extra segment, so the count is ceil(blocks/7) or one more.
        let floor = stats.blocks.div_ceil(7).max(1);
        assert!(stats.segments == floor || stats.segments == floor + 1);

        let (blocks, snaps, seeds, segments) = replay_all(&log);
        assert_eq!(seeds, out.chain.seeded_transactions());
        assert_eq!(blocks, out.chain.blocks());
        assert_eq!(snaps, out.observer_streams[0]);
        assert_eq!(segments, stats.segments);
    }

    #[test]
    fn epoch_segmentation_is_a_function_of_the_block_count() {
        let out = tiny_run();
        let blocks = out.chain.blocks().len() as u64;
        assert!(blocks > 2, "scenario too small to segment");

        let mut per_block = Vec::new();
        let one = write_run(&out, 1, &mut per_block).expect("write");
        assert!(one.segments == blocks || one.segments == blocks + 1);

        let mut unbounded = Vec::new();
        let zero = write_run(&out, 0, &mut unbounded).expect("write");
        assert_eq!(zero.segments, 1);

        // Same stream, same records — only the segment boundaries (and the
        // intern-table resets they force) differ. Sizes are a wash: short
        // segments re-pay the 32-byte txid dictionary, long segments widen
        // every row's handle varint — so only decoded equality is asserted.
        let (b1, s1, ..) = replay_all(&per_block);
        let (b0, s0, ..) = replay_all(&unbounded);
        assert_eq!(b1, b0);
        assert_eq!(s1, s0);
    }

    fn entry(seed: u8, received: Timestamp) -> SnapshotEntry {
        SnapshotEntry {
            txid: Txid::from([seed; 32]),
            received,
            fee: Amount::from_sat(1_000 + seed as u64),
            vsize: 110 + seed as u64,
            has_unconfirmed_parent: seed.is_multiple_of(2),
        }
    }

    #[test]
    fn snapshot_shapes_and_flags_round_trip() {
        let detailed =
            MempoolSnapshot::from_entries(500, vec![entry(1, 480), entry(2, 505), entry(3, 12)]);
        let originals = vec![
            MempoolSnapshot::light(100, 42, 9_000),
            MempoolSnapshot::from_entries(200, Vec::new()),
            detailed.clone(),
            detailed.truncate_detail(0.5),
            detailed.clone().mark_degraded(),
            detailed.truncate_detail(0.34).mark_degraded(),
            MempoolSnapshot::light(900, 7, 800).mark_degraded(),
        ];

        let mut log = Vec::new();
        let mut writer = LogWriter::new(&mut log, 0);
        writer.on_start(&[]);
        for snap in &originals {
            writer.on_snapshot(snap);
        }
        let stats = writer.finish().expect("write");
        assert_eq!(stats.snapshots, originals.len() as u64);

        let (blocks, snaps, seeds, _) = replay_all(&log);
        assert!(blocks.is_empty());
        assert!(seeds.is_empty());
        assert_eq!(snaps, originals);
        // `received` later than the snapshot stamp (entry 2) survives via
        // the signed delta; the flags byte carries each stamp combination.
        assert!(snaps[3].is_truncated() && !snaps[3].is_degraded());
        assert!(snaps[5].is_truncated() && snaps[5].is_degraded());
        assert!(!snaps[6].is_detailed() && snaps[6].is_degraded());
    }

    #[test]
    fn corrupt_input_yields_typed_errors_not_panics() {
        let out = tiny_run();
        let mut log = Vec::new();
        write_run(&out, 5, &mut log).expect("write");

        // Bad magic.
        let mut bad = log.clone();
        bad[0] ^= 0xff;
        assert!(matches!(LogReader::new(&bad[..]), Err(LogError::BadMagic)));

        // A torn tail: every proper prefix must end in a clean `Ok(None)`
        // or a typed truncation error — never a panic.
        for cut in [log.len() - 1, log.len() - 17, log.len() / 2, 9] {
            let mut reader = match LogReader::new(&log[..cut]) {
                Ok(r) => r,
                Err(LogError::TruncatedRecord) => continue,
                Err(e) => panic!("unexpected header error at cut {cut}: {e}"),
            };
            loop {
                match reader.next_event() {
                    Ok(Some(_)) => continue,
                    Ok(None) => break,
                    Err(LogError::TruncatedRecord | LogError::Decode(_)) => break,
                    Err(e) => panic!("unexpected error at cut {cut}: {e}"),
                }
            }
        }

        // An unknown record tag.
        let mut tagged = log.clone();
        tagged.extend_from_slice(&[0x7f, 0x00]);
        let mut reader = LogReader::new(&tagged[..]).expect("header intact");
        let err = loop {
            match reader.next_event() {
                Ok(Some(_)) => continue,
                Ok(None) => panic!("unknown tag not surfaced"),
                Err(e) => break e,
            }
        };
        assert!(matches!(err, LogError::UnknownTag(0x7f)));

        // A snapshot row pointing past the intern table.
        let mut bad_handle = Vec::new();
        let mut writer = LogWriter::new(&mut bad_handle, 0);
        writer.on_start(&[]);
        writer.finish().expect("header");
        // segment 0, then a detailed snapshot whose first row claims handle 9.
        bad_handle.extend_from_slice(&[TAG_SEGMENT, 0x01, 0x00]);
        bad_handle.extend_from_slice(&[TAG_SNAPSHOT, 0x04, FLAG_DETAILED, 0x00, 0x01, 0x09]);
        let mut reader = LogReader::new(&bad_handle[..]).expect("header intact");
        let err = reader.next_event().expect_err("bad handle");
        assert!(matches!(err, LogError::BadHandle { handle: 9, table: 0 }));

        // Payload longer than its contents decode to.
        let mut trailing = Vec::new();
        let mut writer = LogWriter::new(&mut trailing, 0);
        writer.on_start(&[]);
        writer.finish().expect("header");
        bad_segment_with_extra_byte(&mut trailing);
        let mut reader = LogReader::new(&trailing[..]).expect("header intact");
        let err = reader.next_event().expect_err("trailing bytes");
        assert!(matches!(err, LogError::TrailingBytes));
    }

    fn bad_segment_with_extra_byte(log: &mut Vec<u8>) {
        log.extend_from_slice(&[TAG_SEGMENT, 0x02, 0x00, 0xaa]);
    }
}
