//! # chain-neutrality
//!
//! A research library reproducing *"Selfish & Opaque Transaction Ordering
//! in the Bitcoin Blockchain: The Case for Chain Neutrality"*
//! (Messias et al., ACM IMC 2021): an audit toolkit for transaction-
//! ordering norms in proof-of-work blockchains, together with the full
//! substrate needed to exercise it — a Bitcoin-like chain, a Bitcoin-Core-
//! style Mempool, a `GetBlockTemplate` assembler with misbehaviour
//! policies, a P2P propagation model, and a deterministic discrete-event
//! simulator with calibrated dataset scenarios.
//!
//! The crates re-exported here can also be used individually:
//!
//! | module | crate | role |
//! |---|---|---|
//! | [`chain`] | `cn-chain` | transactions, blocks, UTXO set, validation |
//! | [`stats`] | `cn-stats` | binomial tests, Fisher's method, ECDFs, RNG |
//! | [`mempool`] | `cn-mempool` | fee-rate-indexed Mempool with CPFP packages |
//! | [`miner`] | `cn-miner` | GBT templates, policies, acceleration services |
//! | [`net`] | `cn-net` | P2P topology, latency, per-node Mempool views |
//! | [`sim`] | `cn-sim` | discrete-event world with ground truth |
//! | [`audit`] | `cn-core` | PPE/SPPE, violation pairs, differential tests |
//! | [`data`] | `cn-data` | calibrated dataset 𝒜/ℬ/𝒞 scenarios |
//!
//! ## Quickstart
//!
//! ```
//! use chain_neutrality::prelude::*;
//!
//! // Simulate a small world with one self-dealing pool...
//! let mut scenario = Scenario::base("demo", 7);
//! scenario.duration = 45 * 60;
//! scenario.pools[0] = PoolConfig::honest("Cheater", 0.4, 2)
//!     .with_behavior(PoolBehavior::SelfInterest);
//! let out = World::new(scenario).run();
//!
//! // ...and audit it.
//! let index = ChainIndex::build(&out.chain);
//! let attribution = attribute(&index);
//! assert!(attribution.total_blocks() as u64 == out.chain.height());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use cn_chain as chain;
pub use cn_core as audit;
pub use cn_data as data;
pub use cn_mempool as mempool;
pub use cn_miner as miner;
pub use cn_net as net;
pub use cn_sim as sim;
pub use cn_stats as stats;

/// The most commonly used items, in one import.
pub mod prelude {
    pub use cn_chain::{
        Address, Amount, Block, BlockHash, Chain, FeeRate, Params, Transaction, TxOut, Txid,
    };
    pub use cn_core::{
        attribute, audit_chain, block_ppe, chain_ppe, differential_prioritization, sppe_for_miner,
        AuditConfig, AuditReport, ChainIndex,
    };
    pub use cn_data::{dataset_a, dataset_b, dataset_c, Scale};
    pub use cn_mempool::{Mempool, MempoolPolicy, MempoolSnapshot};
    pub use cn_miner::{AccelerationService, BlockAssembler, MiningPool, Priority};
    pub use cn_sim::{
        scenario::{PoolBehavior, PoolConfig, Scenario},
        SimOutput, World,
    };
    pub use cn_stats::{binomial_test, Ecdf, SimRng, Summary, Tail};
}
