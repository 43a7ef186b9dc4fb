//! # cn-mempool — a Bitcoin-Core-style memory pool
//!
//! The Mempool is the queue the entire paper is about: miners draw
//! transactions from it when building blocks, and its congestion level
//! drives user fee behaviour. This crate reproduces the parts of Bitcoin
//! Core's `CTxMemPool` that matter for ordering studies:
//!
//! * acceptance policy, including the **minimum fee-rate threshold**
//!   (norm III; configurable off, as the paper's dataset ℬ node did),
//! * conflict (double-spend) rejection against in-pool spends,
//! * **ancestor/descendant linkage** so child-pays-for-parent (CPFP)
//!   packages can be scored the way `GetBlockTemplate` scores them,
//! * fee-rate-sorted iteration for greedy template construction,
//! * periodic [`snapshot::MempoolSnapshot`]s — the exact artifact the
//!   paper's datasets 𝒜/ℬ consist of (one per 15 seconds),
//! * a fee estimator modelled on wallet behaviour (suggest fees from the
//!   fee-rate distribution of recent blocks).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod entry;
pub mod estimator;
pub mod mempool;
pub mod policy;
pub mod rbf;
pub mod snapshot;

pub use entry::{AdmissionPrecheck, MempoolEntry};
pub use estimator::FeeEstimator;
pub use mempool::{AcceptError, AncKey, Mempool, TxHandle};
pub use policy::MempoolPolicy;
pub use rbf::{RbfError, Replacement};
pub use snapshot::{MempoolSnapshot, RowCursor, SnapshotEntry};
