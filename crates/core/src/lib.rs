//! # cn-core — the blockchain ordering-audit toolkit
//!
//! The primary contribution of *"Selfish & Opaque Transaction Ordering in
//! the Bitcoin Blockchain: The Case for Chain Neutrality"* (IMC 2021) is a
//! set of auditing techniques that detect miners deviating from the
//! fee-rate prioritization norms. This crate implements all of them
//! against any [`cn_chain::Chain`] plus (optionally) an observer's
//! Mempool-snapshot stream:
//!
//! * [`index::ChainIndex`] — one replay of the chain producing the
//!   per-transaction facts everything else consumes: fee, fee rate,
//!   position, CPFP status (§E definition), and marker-based miner
//!   attribution.
//! * [`attribution`] — mining-pool attribution from coinbase markers,
//!   hash-rate estimation, and reward-wallet inventories (Figures 2, 8a).
//! * [`ppe`] — *Position Prediction Error*: how far each block's actual
//!   ordering deviates from the fee-rate norm (Figures 1 and 7).
//! * [`sppe`] — *Signed PPE* per transaction and per miner: positive when
//!   a transaction was placed above its fee-rate rank (§5.1, §5.4.2).
//! * [`pairs`] — snapshot-based violation-pair counting with an ε arrival
//!   margin and CPFP filtering (§4.2.1, Figure 6); includes an
//!   `O(n log² n)` offline divide-and-conquer counter and an `O(n²)`
//!   reference implementation.
//! * [`prioritization`] — the exact binomial acceleration/deceleration
//!   test (§5.1.1–5.1.2) with a windowed Fisher's-method variant (§5.1.3)
//!   for drifting hash rates (Tables 2 and 3).
//! * [`self_interest`] — finding transactions that move coins from or to
//!   a pool's wallets, by full UTXO replay (§5.2, Figure 8b).
//! * [`darkfee`] — SPPE-threshold detection of dark-fee-accelerated
//!   transactions, scored against any oracle (Table 4).
//! * [`delay`], [`congestion`] — commit-delay and Mempool-congestion
//!   analyses behind Figures 3–5 and 9–12.
//! * [`lowfee`] — norm-III adherence: who mines below-floor transactions
//!   (§4.2.3).
//! * [`displacement`] — an extension quantifying the economic harm each
//!   norm violation causes to honestly bidding users (§6).
//! * [`auditor`] — the one-call driver composing all of the above into a
//!   typed [`auditor::AuditReport`]; `audit_with_snapshots` additionally
//!   consumes the observer stream and degrades gracefully when it is
//!   damaged.
//! * [`streaming`] — the incremental auditor: ingests a live interleaved
//!   stream of block-connect and snapshot events, emits rolling windowed
//!   verdicts with bounded memory, and produces exact audits bit-identical
//!   to `audit_with_snapshots` on demand
//!   ([`streaming::StreamingAuditor`]).
//! * [`reconcile`](mod@reconcile) — cross-observer reconciliation: fuses an observer
//!   *fleet*'s snapshot streams (union rows, min first-seen, unanimity
//!   rules for degraded/truncated stamps), quantifies first-seen
//!   disagreement between vantage points, and drives the standard audit
//!   over the fused view (`reconcile::audit_with_fleet`).
//! * [`error`], [`coverage`] — the typed failure taxonomy
//!   ([`error::AuditError`]) and observation-coverage accounting
//!   ([`coverage::SnapshotCoverage`]) behind degraded-data tolerance:
//!   audits over gapped or truncated snapshot streams return errors or
//!   coverage-qualified reports instead of panicking.
//! * [`report`] — plain-text table rendering used by the experiment
//!   harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attribution;
pub mod auditor;
pub mod congestion;
pub mod coverage;
pub mod cpfp;
pub mod darkfee;
pub mod delay;
pub mod displacement;
pub mod error;
pub mod index;
pub mod lowfee;
pub mod pairs;
pub mod ppe;
pub mod prioritization;
pub mod reconcile;
pub mod report;
pub mod self_interest;
pub mod spill;
pub mod sppe;
pub mod streaming;

pub use attribution::{attribute, Attribution, PoolStats};
pub use auditor::{
    audit_attributed, audit_chain, audit_with_snapshots, AuditConfig, AuditReport, Finding,
};
pub use coverage::{SnapshotCoverage, StreamExpectation};
pub use error::AuditError;
pub use darkfee::{sppe_threshold_table, SppeThresholdRow};
pub use index::{BlockInfo, ChainIndex, TxRecord};
pub use pairs::{
    count_cross_block, count_cross_block_reference, count_violations, count_violations_reference,
    BlockPairSet, PairObservation, PairStats,
};
pub use ppe::{block_ppe, chain_ppe, ppe_by_miner};
pub use prioritization::{differential_prioritization, windowed_prioritization, DifferentialTest};
pub use reconcile::{
    audit_with_fleet, reconcile, reconcile_with_pool, FirstSeenStats, FleetView, ObserverView,
};
pub use sppe::{sppe_for_miner, tx_sppe};
pub use spill::{SpillError, SpilledAuditor};
pub use streaming::{
    interleave, RollingMiner, RollingVerdict, StreamCounters, StreamEvent, StreamingAuditor,
    StreamingConfig,
};
