//! # cn-sim — deterministic discrete-event blockchain simulator
//!
//! Produces the artifacts the paper's audit consumes — a confirmed chain,
//! an observer's 15-second Mempool snapshot stream, and (unlike the real
//! world) *ground truth* about every injected misbehaviour — from a single
//! seeded scenario description:
//!
//! * [`event`] — a deterministic millisecond-resolution event queue.
//! * [`congestion`] — congestion profiles: base transaction rate, diurnal
//!   waves, and burst windows (dataset ℬ's June-2019 price-surge spikes).
//! * [`profile`] — per-run profiling: event counts and per-subsystem
//!   timings (observational only; never feeds back into the run).
//! * [`workload`] — the user population: wallet/outpoint management, fee
//!   bidding against a wallet-style estimator, CPFP chains, scam
//!   donations, self-interest transfers, dark-fee acceleration demand.
//! * [`scenario`] — the full configuration surface.
//! * [`sink`] — streaming event sinks: the chunked run path emits the
//!   canonical block/snapshot stream to a consumer instead of RAM.
//! * [`truth`] — ground-truth labels for detector validation.
//! * [`world`] — the runner: arrivals → P2P propagation → per-pool
//!   template construction → chain validation → Mempool block-connect.
//!
//! Identical seeds produce byte-identical results; no ambient clock or
//! platform randomness is consulted anywhere.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod congestion;
pub mod event;
pub mod profile;
pub mod scenario;
pub mod sink;
pub mod truth;
pub mod workload;
pub mod world;

pub use congestion::CongestionProfile;
pub use profile::SimProfile;
pub use scenario::{PoolBehavior, PoolConfig, ScamConfig, Scenario};
pub use sink::{CollectingSink, EventSink};
pub use truth::GroundTruth;
pub use world::{SimOutput, StreamedSummary, World};
