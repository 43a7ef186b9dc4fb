//! # cn-stats — statistics substrate for blockchain ordering audits
//!
//! Implements, from first principles, every piece of statistical machinery
//! the paper's differential-prioritization methodology needs:
//!
//! * log-gamma / log-binomial coefficients ([`lgamma`]) for numerically
//!   stable exact binomial tail probabilities,
//! * the exact binomial acceleration/deceleration test of §5.1 plus the
//!   normal approximation of §5.1.3 ([`binomial`]),
//! * Fisher's method for combining windowed p-values ([`fisher`]),
//! * empirical CDFs, quantiles and summary statistics for every figure
//!   ([`ecdf`], [`summary`]),
//! * mergeable bounded-memory summaries for the streaming auditor — a
//!   fixed-precision quantile histogram and per-miner accumulators with an
//!   associative `merge` ([`stream`]),
//! * a deterministic, seedable RNG (xoshiro256++) and the sampling
//!   distributions the simulator draws from ([`rng`], [`dist`]) —
//!   implemented here rather than via `rand_distr` to stay within the
//!   sanctioned offline dependency set,
//! * a deterministic fork-join worker pool with an order-preserving join
//!   ([`parwork`]), the workspace's one thread spawner. It runs only
//!   coarse fan-outs (whole experiments, whole simulations, per-window
//!   fleet fusion); every simulation and block-by-block audit step is
//!   serial.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod binomial;
pub mod dist;
pub mod ecdf;
pub mod fisher;
pub mod ks;
pub mod lgamma;
pub mod normal;
pub mod parwork;
pub mod rng;
pub mod stream;
pub mod summary;

pub use binomial::{binomial_test, BinomialTest, Tail};
pub use dist::{Exponential, LogNormal, Pareto, Poisson, WeightedIndex};
pub use ecdf::Ecdf;
pub use fisher::fisher_combine;
pub use ks::{ks_two_sample, KsTest};
pub use lgamma::{ln_binomial, ln_factorial, ln_gamma};
pub use normal::{normal_cdf, normal_sf};
pub use parwork::Pool;
pub use rng::SimRng;
pub use stream::{Histogram, MinerAccumulator};
pub use summary::Summary;
