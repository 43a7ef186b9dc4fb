//! The incremental (online) auditor: the batch methodology over a live
//! event stream, with rolling verdicts and windowed memory.
//!
//! [`StreamingAuditor`] ingests an interleaved stream of block-connect and
//! mempool-snapshot events ([`StreamEvent`]) and exposes two outputs:
//!
//! * [`StreamingAuditor::verdict`] — the **exact** audit. It maintains the
//!   same digested facts the batch pipeline derives — a
//!   [`ChainIndex`](crate::ChainIndex) grown block-by-block, a live UTXO
//!   view for fees, the self-interest touch log that the batch audit fills
//!   by its own address-only replay ([`crate::self_interest`]), and one
//!   [`SnapshotCoverage`] counted snapshot by snapshot with the batch
//!   tally's own per-window step — and then ends in the batch audit's own
//!   code: the coverage gate, attribution, the touch log's classification
//!   and [`crate::auditor::audit_attributed`]. The result is bit-identical
//!   to [`crate::auditor::audit_with_snapshots`] over the final chain and
//!   snapshot set, including the refusal behavior: an empty stream errors,
//!   and coverage below the expectation floor refuses with
//!   [`AuditError::InsufficientCoverage`].
//! * [`StreamingAuditor::rolling`] — the **windowed** telemetry: per-miner
//!   [`MinerAccumulator`] shards keyed by confirmation height, sealed and
//!   merged epoch-by-epoch (the associative merge law of
//!   [`cn_stats::stream`]), streaming delay/fee-rate quantiles
//!   ([`Histogram`]), windowed pair-violation counts, and an incremental
//!   binomial + Fisher evaluation over the per-epoch violation counts.
//!
//! # Memory bound
//!
//! The snapshot stream — by far the dominant data volume; an observer
//! re-lists its whole backlog every detailed snapshot — is **never
//! retained**. Each snapshot is folded into O(1) coverage counters, a
//! first-seen entry per *pending* transaction, and the histograms, then
//! dropped. Windowed pair state holds rows for at most `2·window_blocks`
//! confirmation heights (a sealed height stays one extra window as the
//! comparison partner of later blocks). What necessarily grows with the
//! chain is the chain digest: the per-transaction facts of the index, the
//! observed-txid set, and the address→txid touch log. The exact verdict is
//! a function of the whole chain, so no auditor can answer it from a window;
//! [`SpilledAuditor`](crate::SpilledAuditor) moves the digest's settled
//! prefix to a store instead. [`StreamCounters`] reports both
//! sides: `rows_processed` counts every snapshot row ever ingested, while
//! `window_rows`/`peak_window_rows` track the retained sliding-window
//! state, which stays O(window + backlog), not O(history).
//!
//! # Chunking invariance
//!
//! Verdict state is insensitive to how the stream is chunked or how
//! snapshots interleave with blocks: blocks must arrive in height order
//! (enforced by the UTXO replay), snapshot-derived state is built from
//! sets, counters, and per-transaction minima, and all cross-referencing
//! (observed∩confirmed, self-interest unions, attribution) happens at
//! `verdict()` time. Any interleaving of the same events therefore yields
//! the same verdict — the property `tests/streaming_equivalence.rs` pins.
//!
//! # Threads
//!
//! The auditor runs on the calling thread. A seal compares one block's
//! rows with at most `window_blocks` partners, too little work for a
//! fork-join fan-out to win back its thread spawns (DESIGN.md §11).
//! Callers that want parallelism run whole audits side by side.

use crate::auditor::{audit_observed, AuditConfig, AuditReport};
use crate::coverage::{SnapshotCoverage, StreamExpectation};
use crate::error::AuditError;
use crate::index::ChainDigest;
use crate::pairs::{count_cross_block, BlockPairSet};
use crate::ppe::block_ppe;
use crate::sppe::block_sppes;
use cn_chain::{Block, FastMap, FeeRate, Timestamp, TxOut, Txid, UtxoSet};
use cn_mempool::MempoolSnapshot;
use cn_stats::stream::{Histogram, MinerAccumulator};
use cn_stats::{binomial_test, fisher_combine, Tail};
use std::collections::{BTreeMap, VecDeque};

/// One event of the interleaved audit input stream.
#[derive(Clone, Copy, Debug)]
pub enum StreamEvent<'a> {
    /// A block connected to the chain tip.
    Block(&'a Block),
    /// An observer mempool snapshot.
    Snapshot(&'a MempoolSnapshot),
}

impl StreamEvent<'_> {
    /// The event's timestamp (block header time or snapshot time).
    pub fn time(&self) -> Timestamp {
        match self {
            StreamEvent::Block(b) => b.header.time,
            StreamEvent::Snapshot(s) => s.time,
        }
    }
}

/// Interleaves a finished run's blocks and snapshots into the canonical
/// event stream: merged by timestamp, blocks first on ties, with each
/// source's internal order preserved (blocks stay in height order).
pub fn interleave<'a>(
    blocks: &'a [Block],
    snapshots: &'a [MempoolSnapshot],
) -> Vec<StreamEvent<'a>> {
    let mut events = Vec::with_capacity(blocks.len() + snapshots.len());
    let (mut bi, mut si) = (0usize, 0usize);
    while bi < blocks.len() || si < snapshots.len() {
        let take_block = match (blocks.get(bi), snapshots.get(si)) {
            (Some(b), Some(s)) => b.header.time <= s.time,
            (Some(_), None) => true,
            _ => false,
        };
        if take_block {
            events.push(StreamEvent::Block(&blocks[bi]));
            bi += 1;
        } else {
            events.push(StreamEvent::Snapshot(&snapshots[si]));
            si += 1;
        }
    }
    events
}

/// Streaming-auditor parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StreamingConfig {
    /// The batch audit parameters the exact verdict runs with.
    pub audit: AuditConfig,
    /// What the snapshot stream was scheduled to contain, including the
    /// confidence floor below which [`StreamingAuditor::verdict`] refuses.
    pub expectation: StreamExpectation,
    /// Sliding-window width in confirmation heights. A block's rolling
    /// state is sealed once the tip is `window_blocks` past it, and kept
    /// one further window as the pair-comparison partner of later blocks.
    pub window_blocks: u64,
    /// The ε arrival margin for windowed pair-violation counting (§4.2.1).
    pub epsilon_secs: u64,
    /// How many trailing sealed epochs (of `window_blocks` heights each)
    /// the per-miner Fisher combination spans.
    pub fisher_epochs: usize,
}

impl StreamingConfig {
    /// Default streaming parameters over a given stream expectation:
    /// batch-default audit config, a 12-block window, ε = 10 s, Fisher
    /// over the trailing 64 epochs.
    pub fn new(expectation: StreamExpectation) -> StreamingConfig {
        StreamingConfig {
            audit: AuditConfig::default(),
            expectation,
            window_blocks: 12,
            epsilon_secs: 10,
            fisher_epochs: 64,
        }
    }
}

/// Ingestion and state-size counters; the bench driver exports these into
/// `BENCH_pipeline.json` so CI can assert the windowed state stays
/// O(window), not O(history).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StreamCounters {
    /// Total events pushed.
    pub events: u64,
    /// Blocks pushed.
    pub blocks: u64,
    /// Snapshots pushed.
    pub snapshots: u64,
    /// Snapshot rows ingested over the stream's lifetime — the volume a
    /// batch audit retains in full.
    pub rows_processed: u64,
    /// Rows currently retained in windowed state: sliding-window block
    /// rows plus pending first-seen entries.
    pub window_rows: u64,
    /// High-water mark of `window_rows`.
    pub peak_window_rows: u64,
}

/// A pending transaction's first-seen facts, folded over snapshots.
#[derive(Clone, Copy, Debug)]
struct SeenFact {
    received: Timestamp,
    /// True when any snapshot listed the tx with an unconfirmed parent —
    /// such rows are CPFP candidates and excluded from pair counting.
    unconfirmed_parent: bool,
}

/// One retained transaction row in the sliding window.
#[derive(Clone, Debug)]
struct WindowRow {
    txid: Txid,
    fee_rate: FeeRate,
    /// CPFP by the §E chain definition or ever seen with an unconfirmed
    /// parent; excluded from pair counting (resolved at seal time).
    excluded: bool,
    sppe: f64,
    seen: Option<SeenFact>,
}

/// Rolling state for one confirmation height.
#[derive(Clone, Debug)]
struct WindowBlock {
    time: Timestamp,
    miner: Option<String>,
    rows: Vec<WindowRow>,
    /// Eligible rows pre-sorted for the cross-block pair kernel, built
    /// once when this height seals and reused by every later seal that
    /// pairs against it.
    pairs: Option<BlockPairSet>,
}

/// One miner's row of a [`RollingVerdict`].
#[derive(Clone, Debug, PartialEq)]
pub struct RollingMiner {
    /// Pool name.
    pub name: String,
    /// Merged accumulator over every sealed height plus the live epoch.
    pub stats: MinerAccumulator,
    /// Fisher-combined p-value of the per-epoch pair-violation binomial
    /// tests (H₁: this miner resolves fee/time-ordered pairs against the
    /// norm more often than the epoch's global rate); `None` until an
    /// epoch with candidate pairs for this miner has sealed.
    pub fisher_p: Option<f64>,
}

/// The windowed telemetry snapshot returned by
/// [`StreamingAuditor::rolling`]. Deterministic for a given set of
/// ingested events, regardless of chunking.
#[derive(Clone, Debug, PartialEq)]
pub struct RollingVerdict {
    /// Chain height ingested so far (number of blocks).
    pub tip_blocks: u64,
    /// Heights whose rolling state has sealed (trails the tip by up to
    /// `window_blocks`).
    pub sealed_blocks: u64,
    /// Per-miner rolling stats, largest block count first (name-tiebroken),
    /// capped at the audit config's `top_k`.
    pub miners: Vec<RollingMiner>,
    /// Commit-delay quantiles in seconds (p50, p90), once observed
    /// confirmations exist.
    pub delay_p50_p90: Option<(f64, f64)>,
    /// Confirmed fee-rate quantiles in sat/vB (p50, p90).
    pub feerate_p50_p90: Option<(f64, f64)>,
    /// Ingestion/state counters at the time of the call.
    pub counters: StreamCounters,
}

impl RollingVerdict {
    /// Renders a compact, deterministic summary line block.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "rolling @ {} blocks ({} sealed): {} snapshots, {} rows processed, {} window rows (peak {})",
            self.tip_blocks,
            self.sealed_blocks,
            self.counters.snapshots,
            self.counters.rows_processed,
            self.counters.window_rows,
            self.counters.peak_window_rows,
        );
        if let Some((p50, p90)) = self.delay_p50_p90 {
            let _ = writeln!(out, "  commit delay p50 {p50:.0}s p90 {p90:.0}s");
        }
        if let Some((p50, p90)) = self.feerate_p50_p90 {
            let _ = writeln!(out, "  fee rate p50 {p50:.1} p90 {p90:.1} sat/vB");
        }
        for m in &self.miners {
            let _ = write!(
                out,
                "  {}: {} blocks, {} txs",
                m.name, m.stats.blocks, m.stats.txs
            );
            if let Some(ppe) = m.stats.mean_ppe() {
                let _ = write!(out, ", PPE {ppe:.2}%");
            }
            if let Some(v) = m.stats.violation_fraction() {
                let _ = write!(
                    out,
                    ", pairs {}/{} ({:.2}%)",
                    m.stats.pair_violating,
                    m.stats.pair_candidates,
                    v * 100.0
                );
            }
            if let Some(p) = m.fisher_p {
                let _ = write!(out, ", fisher p {p:.3}");
            }
            out.push('\n');
        }
        out
    }
}

/// The incremental auditor. See the module docs for the state layout and
/// guarantees.
#[derive(Clone, Debug)]
pub struct StreamingAuditor {
    config: StreamingConfig,

    // ---- exact-verdict state (mirrors the batch pipeline's inputs) ----
    /// The chain digest the exact verdict reads; a spilling auditor drains
    /// its settled prefix.
    pub(crate) digest: ChainDigest,
    utxos: UtxoSet,
    /// Window counters so far; the chain-side fields are filled at
    /// verdict time.
    coverage: SnapshotCoverage,
    /// Set when a pushed block failed to replay; all later verdicts refuse.
    poisoned: Option<u64>,

    // ---- windowed rolling state ----
    first_seen: FastMap<Txid, SeenFact>,
    window: BTreeMap<u64, WindowBlock>,
    /// Next height to seal.
    seal_frontier: u64,
    current_epoch: u64,
    epoch: BTreeMap<String, MinerAccumulator>,
    sealed: BTreeMap<String, MinerAccumulator>,
    fisher: BTreeMap<String, VecDeque<f64>>,
    delay_hist: Histogram,
    feerate_hist: Histogram,

    counters: StreamCounters,
}

impl StreamingAuditor {
    /// A streaming auditor over a chain seeded with `seed_utxos` (the
    /// pre-genesis outputs, [`cn_chain::Chain::initial_utxos`]).
    pub fn new(seed_utxos: UtxoSet, config: StreamingConfig) -> StreamingAuditor {
        let expectation = config.expectation;
        StreamingAuditor {
            config,
            digest: ChainDigest::default(),
            utxos: seed_utxos,
            coverage: SnapshotCoverage::tally(&[], expectation.windows, expectation.detailed),
            poisoned: None,
            first_seen: FastMap::default(),
            window: BTreeMap::new(),
            seal_frontier: 0,
            current_epoch: 0,
            epoch: BTreeMap::new(),
            sealed: BTreeMap::new(),
            fisher: BTreeMap::new(),
            // 30 s buckets out to 2 h; 1 sat/vB buckets out to 500.
            delay_hist: Histogram::new(0.0, 7_200.0, 240),
            feerate_hist: Histogram::new(0.0, 500.0, 500),
            counters: StreamCounters::default(),
        }
    }

    /// A no-op: the auditor always runs on the calling thread. Kept
    /// because the `perfbench` benchmark calls it with 1; nothing in the
    /// workspace does.
    pub fn with_workers(self, _workers: usize) -> StreamingAuditor {
        self
    }

    /// Ingestion/state counters.
    pub fn counters(&self) -> StreamCounters {
        self.counters
    }

    /// Blocks ingested so far.
    pub fn tip_blocks(&self) -> u64 {
        self.digest.index.len() as u64
    }

    /// Heights whose rolling state has sealed — everything below this is
    /// settled and eligible for a digest drain (see [`crate::spill`]).
    pub fn sealed_blocks(&self) -> u64 {
        self.seal_frontier
    }

    /// Dispatches one event.
    pub fn push_event(&mut self, event: &StreamEvent<'_>) -> Result<(), AuditError> {
        match event {
            StreamEvent::Block(b) => self.push_block(b),
            StreamEvent::Snapshot(s) => {
                self.push_snapshot(s);
                Ok(())
            }
        }
    }

    /// Ingests one observer snapshot: coverage counters, the observed-txid
    /// set, and first-seen facts. O(rows) work, O(1) retained beyond the
    /// per-pending-tx first-seen entry.
    pub fn push_snapshot(&mut self, snap: &MempoolSnapshot) {
        self.counters.events += 1;
        self.counters.snapshots += 1;
        self.coverage.count(snap);
        for row in snap.rows() {
            self.counters.rows_processed += 1;
            self.digest.observed.insert(row.txid);
            let fact = self
                .first_seen
                .entry(row.txid)
                .or_insert(SeenFact { received: row.received, unconfirmed_parent: false });
            fact.received = fact.received.min(row.received);
            fact.unconfirmed_parent |= row.has_unconfirmed_parent;
        }
        self.note_window_rows();
    }

    /// Ingests one connected block: replays it against the UTXO view
    /// (fees and the self-interest touch log), extends the chain
    /// index, and advances the sliding window (sealing heights
    /// `window_blocks` behind the new tip).
    ///
    /// Blocks must arrive in connect (height) order; a block that does not
    /// replay poisons the auditor — the error is sticky and every later
    /// [`StreamingAuditor::verdict`] returns it.
    pub fn push_block(&mut self, block: &Block) -> Result<(), AuditError> {
        if let Some(height) = self.poisoned {
            return Err(AuditError::UnreplayableBlock { height });
        }
        let height = self.digest.index.len() as u64;
        self.counters.events += 1;
        self.counters.blocks += 1;
        if let Some(cb) = block.coinbase() {
            self.utxos.insert_outputs(cb);
        }
        let mut fees = Vec::with_capacity(block.body().len());
        for tx in block.body() {
            // Resolve funding addresses before the spend consumes them.
            let funding = tx
                .inputs()
                .iter()
                .filter_map(|i| self.utxos.get(&i.prevout).and_then(TxOut::address))
                .collect();
            let fee = match self.utxos.apply_tx(tx) {
                Ok(fee) => fee,
                Err(_) => {
                    self.poisoned = Some(height);
                    return Err(AuditError::UnreplayableBlock { height });
                }
            };
            self.digest.touches.record(tx, funding);
            fees.push(fee);
        }
        self.digest.index.push_block(block, &fees);
        self.extend_window(height);
        while self.seal_frontier + self.config.window_blocks <= height {
            let h = self.seal_frontier;
            self.seal_height(h);
            self.seal_frontier += 1;
            // Evict heights a full window behind the seal frontier: no
            // future seal can pair against them.
            let keep_from = h.saturating_sub(self.config.window_blocks);
            while let Some((&lowest, _)) = self.window.first_key_value() {
                if lowest >= keep_from {
                    break;
                }
                if let Some(evicted) = self.window.remove(&lowest) {
                    for row in &evicted.rows {
                        self.first_seen.remove(&row.txid);
                    }
                }
            }
        }
        self.note_window_rows();
        Ok(())
    }

    /// Captures the just-indexed block into the sliding window.
    fn extend_window(&mut self, height: u64) {
        let info = self.digest.index.block(height).expect("just pushed");
        let rows = info
            .txs
            .iter()
            .zip(block_sppes(info))
            .map(|(rec, (_, sppe))| WindowRow {
                txid: rec.txid,
                fee_rate: rec.fee_rate(),
                excluded: rec.is_cpfp,
                sppe,
                seen: None,
            })
            .collect();
        self.window.insert(
            height,
            WindowBlock { time: info.time, miner: info.miner.clone(), rows, pairs: None },
        );
    }

    /// Seals one height: joins first-seen facts (settled by now — later
    /// snapshots list later arrivals), feeds the histograms and the
    /// current epoch's per-miner shards, and counts windowed pairs.
    fn seal_height(&mut self, height: u64) {
        let epoch = height / self.config.window_blocks.max(1);
        if epoch != self.current_epoch {
            self.finalize_epoch();
            self.current_epoch = epoch;
        }
        // Join first-seen facts into the sealed rows.
        let mut sealed_block = self.window.remove(&height).expect("height in window");
        for row in &mut sealed_block.rows {
            row.seen = self.first_seen.get(&row.txid).copied();
            if let Some(seen) = row.seen {
                row.excluded |= seen.unconfirmed_parent;
            }
        }

        // Per-miner block/PPE/SPPE components.
        if let Some(miner) = sealed_block.miner.clone() {
            let info = self.digest.index.block(height).expect("indexed");
            let acc = self.epoch.entry(miner).or_default();
            acc.push_block(sealed_block.rows.len() as u64, block_ppe(info));
            for row in &sealed_block.rows {
                acc.push_sppe(row.sppe, row.sppe >= self.config.audit.sppe_threshold);
            }
        }

        // Delay/fee-rate sketches over observed confirmations.
        for row in &sealed_block.rows {
            if let Some(seen) = row.seen {
                self.delay_hist.push(sealed_block.time.saturating_sub(seen.received) as f64);
                self.feerate_hist.push(row.fee_rate.sat_per_vbyte());
            }
        }

        // Windowed pair counting: each cross-block pair is examined once,
        // when its later block seals, and charged to the earlier block's
        // miner (whose inclusion decision resolved the pair). A candidate
        // is a fee/time-ordered pair (one member seen ≥ ε earlier at a
        // strictly higher fee rate); it violates the norm when that member
        // confirmed later.
        let eps = self.config.epsilon_secs;
        let lo = height.saturating_sub(self.config.window_blocks);
        // The sealing block's eligible rows (first-seen joined, CPFP
        // excluded), pre-sorted once for all its window comparisons. A
        // pair is a candidate when one side was seen ≥ ε earlier at a
        // strictly higher fee rate, and violating when that side
        // nevertheless confirmed later — exactly the nested scan
        // `count_cross_block_reference` spells out; the kernel is an
        // integer-exact replacement.
        let sealed_set = BlockPairSet::new(
            sealed_block
                .rows
                .iter()
                .filter(|r| !r.excluded)
                .filter_map(|r| r.seen.map(|s| (s.received, r.fee_rate))),
        );
        let mut charges: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
        for earlier in self.window.range(lo..height).map(|(_, b)| b) {
            let (Some(miner), Some(pairs)) = (earlier.miner.as_deref(), earlier.pairs.as_ref())
            else {
                continue;
            };
            let stats = count_cross_block(&sealed_set, pairs, eps);
            if stats.candidates > 0 {
                let c = charges.entry(miner).or_default();
                c.0 += stats.violating;
                c.1 += stats.candidates;
            }
        }
        for (miner, (violating, candidates)) in charges {
            self.epoch.entry(miner.to_string()).or_default().push_pairs(violating, candidates);
        }

        // Re-insert: the sealed height remains a comparison partner for
        // the next `window_blocks` seals, carrying its pre-sorted rows.
        sealed_block.pairs = Some(sealed_set);
        self.window.insert(height, sealed_block);
    }

    /// Closes the current epoch: per-miner binomial tests of the epoch's
    /// pair-violation counts against its global rate, folded into each
    /// miner's trailing Fisher set, then the shard merge into the sealed
    /// totals — the associative-merge law in action.
    fn finalize_epoch(&mut self) {
        let total_v: u64 = self.epoch.values().map(|a| a.pair_violating).sum();
        let total_c: u64 = self.epoch.values().map(|a| a.pair_candidates).sum();
        if total_c > 0 {
            let rate = total_v as f64 / total_c as f64;
            for (miner, acc) in &self.epoch {
                if acc.pair_candidates == 0 {
                    continue;
                }
                let p = binomial_test(acc.pair_violating, acc.pair_candidates, rate, Tail::Upper)
                    .p_value;
                let ps = self.fisher.entry(miner.clone()).or_default();
                if ps.len() == self.config.fisher_epochs.max(1) {
                    ps.pop_front();
                }
                ps.push_back(p);
            }
        }
        for (miner, acc) in std::mem::take(&mut self.epoch) {
            self.sealed.entry(miner).or_default().merge(&acc);
        }
    }

    /// Updates the retained-state counter and its high-water mark.
    fn note_window_rows(&mut self) {
        let rows: usize = self.window.values().map(|b| b.rows.len()).sum();
        self.counters.window_rows = (rows + self.first_seen.len()) as u64;
        self.counters.peak_window_rows =
            self.counters.peak_window_rows.max(self.counters.window_rows);
    }

    /// The windowed telemetry: sealed totals merged with the live epoch's
    /// shards, quantile sketches, and per-miner Fisher evidence. Pure —
    /// depends only on the set of events ingested so far.
    pub fn rolling(&self) -> RollingVerdict {
        let mut merged = self.sealed.clone();
        for (miner, acc) in &self.epoch {
            merged.entry(miner.clone()).or_default().merge(acc);
        }
        let mut miners: Vec<RollingMiner> = merged
            .into_iter()
            .map(|(name, stats)| {
                let fisher_p = self
                    .fisher
                    .get(&name)
                    .filter(|ps| !ps.is_empty())
                    .map(|ps| fisher_combine(&ps.iter().copied().collect::<Vec<_>>()));
                RollingMiner { name, stats, fisher_p }
            })
            .collect();
        miners.sort_by(|a, b| {
            b.stats.blocks.cmp(&a.stats.blocks).then_with(|| a.name.cmp(&b.name))
        });
        miners.truncate(self.config.audit.top_k);
        let q = |h: &Histogram| Some((h.quantile(0.5)?, h.quantile(0.9)?));
        RollingVerdict {
            tip_blocks: self.digest.index.len() as u64,
            sealed_blocks: self.seal_frontier,
            miners,
            delay_p50_p90: q(&self.delay_hist),
            feerate_p50_p90: q(&self.feerate_hist),
            counters: self.counters,
        }
    }

    /// The exact audit over everything ingested so far — bit-identical to
    /// [`crate::auditor::audit_with_snapshots`] over the same chain prefix
    /// and snapshot set, with the same refusal semantics (empty stream,
    /// coverage floor).
    pub fn verdict(&self) -> Result<AuditReport, AuditError> {
        self.verdict_over(&self.digest)
    }

    /// The exact audit over `digest`: this auditor's own, or the same
    /// digest with its spilled prefix restored. Coverage counts, the
    /// refusal gate and poisoning are this auditor's either way.
    pub(crate) fn verdict_over(&self, digest: &ChainDigest) -> Result<AuditReport, AuditError> {
        if let Some(height) = self.poisoned {
            return Err(AuditError::UnreplayableBlock { height });
        }
        audit_observed(
            self.coverage,
            &digest.observed,
            &digest.index,
            &self.config.expectation,
            self.config.audit,
            |attribution| digest.touches.self_interest(attribution),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cn_chain::{Address, Amount, Chain, CoinbaseBuilder, Params, PoolMarker, Transaction};
    use cn_mempool::SnapshotEntry;

    /// A small valid chain: 8 blocks, 2 user txs each, one pool.
    fn sample() -> (Chain, Vec<MempoolSnapshot>) {
        let mut chain = Chain::new(Params::mainnet());
        let mut fund =
            Transaction::builder().add_input(cn_chain::TxIn::new(cn_chain::OutPoint::NULL));
        for _ in 0..16 {
            fund = fund.pay_to(Address::from_label("u"), Amount::from_sat(2_000_000));
        }
        let fund = fund.build();
        chain.seed_utxos(&fund);
        let mut snapshots = Vec::new();
        for h in 0..8u64 {
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
            let cb = CoinbaseBuilder::new(h)
                .marker(PoolMarker::new("/Solo/"))
                .reward(Address::from_label("pool:Solo:0"), Amount::from_btc(50) + fees)
                .extra_nonce(h)
                .build();
            let block = Block::assemble(
                2,
                chain.tip_hash(),
                (h + 1) * 600,
                h as u32,
                cb,
                vec![t1, t2],
            );
            chain.connect(block).expect("valid");
        }
        (chain, snapshots)
    }

    fn expectation() -> StreamExpectation {
        StreamExpectation { windows: 8, detailed: 8, min_coverage: 0.0 }
    }

    #[test]
    fn verdict_matches_batch_audit() {
        let (chain, snapshots) = sample();
        let mut auditor =
            StreamingAuditor::new(chain.initial_utxos(), StreamingConfig::new(expectation()));
        for ev in interleave(chain.blocks(), &snapshots) {
            auditor.push_event(&ev).expect("replays");
        }
        let index = crate::ChainIndex::build(&chain);
        let batch = crate::auditor::audit_with_snapshots(
            &chain,
            &index,
            &snapshots,
            expectation(),
            AuditConfig::default(),
        )
        .expect("audits");
        let stream = auditor.verdict().expect("audits");
        assert_eq!(stream, batch);
        assert_eq!(stream.render(), batch.render());
    }

    #[test]
    fn empty_stream_refuses_like_batch() {
        let (chain, _) = sample();
        let auditor =
            StreamingAuditor::new(chain.initial_utxos(), StreamingConfig::new(expectation()));
        assert_eq!(auditor.verdict(), Err(AuditError::EmptySnapshotStream));
    }

    #[test]
    fn coverage_floor_refuses_like_batch() {
        let (chain, snapshots) = sample();
        let exp = expectation().with_min_coverage(0.9);
        let mut cfg = StreamingConfig::new(exp);
        cfg.window_blocks = 4;
        let mut auditor = StreamingAuditor::new(chain.initial_utxos(), cfg);
        // Only push the first snapshot: coverage 1/8 < 0.9.
        auditor.push_snapshot(&snapshots[0]);
        for b in chain.blocks() {
            auditor.push_block(b).expect("replays");
        }
        let index = crate::ChainIndex::build(&chain);
        let batch = crate::auditor::audit_with_snapshots(
            &chain,
            &index,
            &snapshots[..1],
            exp,
            AuditConfig::default(),
        );
        assert_eq!(auditor.verdict(), batch);
        assert!(matches!(auditor.verdict(), Err(AuditError::InsufficientCoverage { .. })));
    }

    #[test]
    fn window_state_stays_bounded_and_rolls() {
        let (chain, snapshots) = sample();
        let mut cfg = StreamingConfig::new(expectation());
        cfg.window_blocks = 2;
        let mut auditor = StreamingAuditor::new(chain.initial_utxos(), cfg);
        for ev in interleave(chain.blocks(), &snapshots) {
            auditor.push_event(&ev).expect("replays");
        }
        let rolling = auditor.rolling();
        assert_eq!(rolling.tip_blocks, 8);
        assert_eq!(rolling.sealed_blocks, 6, "tip minus window");
        // Retained rows bounded by two windows of blocks + pending txs,
        // far below the processed row count.
        let c = rolling.counters;
        assert!(c.rows_processed >= 16);
        // ≤ 2W+1 retained heights × 2 rows, doubled for first-seen entries.
        // (The peak ≪ rows_processed separation only shows at scale; the
        // bench harness and CI assert it over the full datasets.)
        assert!(c.window_rows <= (2 * 2 + 1) * 2 * 2, "window rows {}", c.window_rows);
        assert!(c.peak_window_rows >= c.window_rows);
        assert_eq!(rolling.miners.len(), 1);
        assert_eq!(rolling.miners[0].name, "Solo");
        assert!(rolling.delay_p50_p90.is_some());
        assert!(!rolling.render().is_empty());
    }

    #[test]
    fn unreplayable_block_poisons_the_auditor() {
        let (chain, snapshots) = sample();
        let mut auditor =
            StreamingAuditor::new(UtxoSet::new(), StreamingConfig::new(expectation()));
        auditor.push_snapshot(&snapshots[0]);
        // Without the seed outputs, the first body tx cannot replay.
        let err = auditor.push_block(&chain.blocks()[0]).expect_err("unreplayable");
        assert_eq!(err, AuditError::UnreplayableBlock { height: 0 });
        assert_eq!(auditor.verdict(), Err(AuditError::UnreplayableBlock { height: 0 }));
        let err2 = auditor.push_block(&chain.blocks()[1]).expect_err("sticky");
        assert_eq!(err2, AuditError::UnreplayableBlock { height: 0 });
    }
}
