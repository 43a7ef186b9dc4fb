//! # cn-data — calibrated scenarios reproducing the paper's datasets
//!
//! The paper measures three datasets — 𝒜 (three weeks of Mempool
//! snapshots from a default node, Feb–Mar 2019), ℬ (one month from a
//! 125-peer no-fee-floor node, Jun 2019), and 𝒞 (every 2020 block) — plus
//! the Twitter-scam window inside 𝒞. None of those raw inputs exist
//! offline, so this crate synthesizes *calibrated equivalents*: scenarios
//! whose pool rosters, hash-rate shares, congestion profiles, CPFP
//! fractions, and injected misbehaviours match the paper's published
//! summary statistics, scaled down in wall-clock span (documented per
//! constructor and recorded in `EXPERIMENTS.md`).
//!
//! * [`pools`] — the top-20 mining-pool rosters with the paper's hash-rate
//!   shares and wallet counts.
//! * [`datasets`] — `dataset_a` / `dataset_b` / `dataset_c` scenario
//!   constructors, each with a [`Scale`] knob (`Quick` for tests, `Full`
//!   for the experiment harness).
//! * [`calibration`] — the paper's published numbers, for side-by-side
//!   comparison in reports.
//! * [`legacy`] — the pre-April-2016 coin-age-priority ordering era used
//!   by the Figure 1 reproduction.
//! * [`log`] — the compact binary event-log codec: a run's canonical
//!   block/snapshot stream serialized to disk and replayed, so run length
//!   is a disk-shaped cost instead of a RAM-shaped one.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calibration;
pub mod datasets;
pub mod legacy;
pub mod log;
pub mod pools;

pub use datasets::{dataset_a, dataset_b, dataset_c, dataset_mega, Scale};
pub use log::{write_run, LogError, LogEvent, LogReader, LogStats, LogWriter};
pub use pools::{roster_2019_a, roster_2019_b, roster_2020, PoolSpec};
