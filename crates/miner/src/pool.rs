//! A mining pool operator: identity, wallets, policy, block production.

use crate::policy::{MinerPolicy, NormPolicy, TxContext};
use crate::template::{AssemblyStats, BlockAssembler, BlockTemplate};
use cn_chain::{
    Address, Block, BlockHash, CoinbaseBuilder, OutPoint, Params, PoolMarker, Timestamp,
};
use cn_mempool::Mempool;

/// A mining pool operator (MPO).
///
/// Owns a marker tag (stamped into every coinbase, the attribution signal
/// of §5.2), one or more reward wallets (Figure 8(a) shows real pools use
/// up to dozens), a hash-rate weight, and a prioritization policy.
pub struct MiningPool {
    name: String,
    marker: PoolMarker,
    wallets: Vec<Address>,
    hash_rate: f64,
    policy: Box<dyn MinerPolicy>,
    blocks_mined: u64,
    /// Created on the first build and reused for every later block, so the
    /// incremental-vs-full assembly counters accumulate per pool. Chain
    /// parameters are captured from that first call; callers never vary
    /// them across a pool's lifetime.
    assembler: Option<BlockAssembler>,
}

impl MiningPool {
    /// The deterministic reward wallets a pool named `name` uses — exposed
    /// so scenario builders can reference a pool's wallets (e.g. to wire a
    /// collusion policy) before or without constructing the pool.
    pub fn derive_wallets(name: &str, wallet_count: usize) -> Vec<Address> {
        (0..wallet_count)
            .map(|i| Address::from_label(&format!("pool:{name}:{i}")))
            .collect()
    }

    /// Creates a norm-following pool with `wallet_count` deterministic
    /// reward wallets derived from its name.
    pub fn new(name: impl Into<String>, hash_rate: f64, wallet_count: usize) -> MiningPool {
        let name = name.into();
        assert!(hash_rate >= 0.0 && hash_rate.is_finite(), "bad hash rate {hash_rate}");
        assert!(wallet_count > 0, "a pool needs at least one reward wallet");
        let wallets = MiningPool::derive_wallets(&name, wallet_count);
        MiningPool {
            marker: PoolMarker::new(format!("/{name}/")),
            name,
            wallets,
            hash_rate,
            policy: Box::new(NormPolicy),
            blocks_mined: 0,
            assembler: None,
        }
    }

    /// Replaces the prioritization policy.
    pub fn with_policy(mut self, policy: Box<dyn MinerPolicy>) -> MiningPool {
        self.policy = policy;
        self
    }

    /// The pool's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The coinbase marker.
    pub fn marker(&self) -> &PoolMarker {
        &self.marker
    }

    /// The pool's reward wallets.
    pub fn wallets(&self) -> &[Address] {
        &self.wallets
    }

    /// The pool's hash-rate weight (relative; normalized by the simulator).
    pub fn hash_rate(&self) -> f64 {
        self.hash_rate
    }

    /// The policy in force.
    pub fn policy(&self) -> &dyn MinerPolicy {
        self.policy.as_ref()
    }

    /// Blocks this pool has produced so far.
    pub fn blocks_mined(&self) -> u64 {
        self.blocks_mined
    }

    /// Template-assembly path counters for this pool, including the
    /// rebuild-reason breakdown. All zero before the first build.
    pub fn assembly_stats(&self) -> AssemblyStats {
        self.assembler.as_ref().map_or_else(AssemblyStats::default, BlockAssembler::stats)
    }

    /// Produces a full block on top of `prev`, at `height` and `time`,
    /// drawing from `mempool`. `resolve_input` maps an outpoint to the
    /// address it pays (the node layer owns that view); unresolvable
    /// inputs are treated as touching no watched wallet.
    pub fn build_block(
        &mut self,
        mempool: &Mempool,
        params: &Params,
        prev: BlockHash,
        height: u64,
        time: Timestamp,
        resolve_input: &dyn Fn(&OutPoint) -> Option<Address>,
    ) -> Block {
        let assembler =
            self.assembler.get_or_insert_with(|| BlockAssembler::new(params.clone()));
        let wants_inputs = self.policy.wants_input_addresses();
        let policy = self.policy.as_ref();
        let template: BlockTemplate = if policy.always_normal() {
            assembler.assemble_norm(mempool)
        } else {
            assembler.assemble(mempool, |entry| {
                let input_addresses: Vec<Address> = if wants_inputs {
                    entry
                        .tx()
                        .inputs()
                        .iter()
                        .filter_map(|i| resolve_input(&i.prevout))
                        .collect()
                } else {
                    Vec::new()
                };
                let ctx = TxContext {
                    tx: entry.tx(),
                    fee_rate: entry.fee_rate(),
                    input_addresses: &input_addresses,
                };
                policy.classify(&ctx)
            })
        };

        let reward = params.subsidy_at(height) + template.total_fees;
        let wallet = self.wallets[(self.blocks_mined as usize) % self.wallets.len()];
        let coinbase = CoinbaseBuilder::new(height)
            .marker(self.marker.clone())
            .reward(wallet, reward)
            .extra_nonce(self.blocks_mined)
            .build();
        self.blocks_mined += 1;
        Block::assemble(
            2,
            prev,
            time,
            (height as u32).wrapping_mul(2_654_435_761).wrapping_add(self.blocks_mined as u32),
            coinbase,
            template.transactions,
        )
    }
}

impl std::fmt::Debug for MiningPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MiningPool")
            .field("name", &self.name)
            .field("hash_rate", &self.hash_rate)
            .field("wallets", &self.wallets.len())
            .field("policy", &self.policy.name())
            .field("blocks_mined", &self.blocks_mined)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::AddressAccelerationPolicy;
    use cn_chain::{Amount, Transaction, TxOut, Txid};
    use cn_mempool::MempoolPolicy;

    fn tx_paying(seed: u8, addr: Address, rate: u64) -> (Transaction, Amount) {
        let tx = Transaction::builder()
            .add_input_with_sizes([seed; 32].into(), 0, 107, 0)
            .add_output(TxOut::to_address(Amount::from_sat(10_000), addr))
            .build();
        let fee = Amount::from_sat(tx.vsize() * rate);
        (tx, fee)
    }

    #[test]
    fn block_carries_marker_and_reward() {
        let mut pool = MiningPool::new("F2Pool", 0.17, 3);
        let mempool = Mempool::new(MempoolPolicy::default());
        let params = Params::mainnet();
        let block =
            pool.build_block(&mempool, &params, BlockHash::ZERO, 630_000, 0, &|_| None);
        assert_eq!(
            PoolMarker::from_coinbase(block.coinbase().expect("coinbase")),
            Some(PoolMarker::new("/F2Pool/"))
        );
        // Post-third-halving subsidy with no fees: 6.25 BTC.
        assert_eq!(
            block.coinbase().expect("coinbase").output_value(),
            Amount::from_sat(625_000_000)
        );
        assert!(block.is_empty_block());
        assert_eq!(pool.blocks_mined(), 1);
    }

    #[test]
    fn wallets_rotate_across_blocks() {
        let mut pool = MiningPool::new("SlushPool", 0.05, 3);
        let mempool = Mempool::new(MempoolPolicy::default());
        let params = Params::mainnet();
        let mut reward_addrs = Vec::new();
        let mut prev = BlockHash::ZERO;
        for h in 0..4 {
            let b = pool.build_block(&mempool, &params, prev, h, h * 600, &|_| None);
            prev = b.block_hash();
            let cb = b.coinbase().expect("coinbase");
            reward_addrs.push(cb.outputs()[0].address().expect("template address"));
        }
        assert_eq!(reward_addrs[0], pool.wallets()[0]);
        assert_eq!(reward_addrs[1], pool.wallets()[1]);
        assert_eq!(reward_addrs[2], pool.wallets()[2]);
        assert_eq!(reward_addrs[3], pool.wallets()[0]); // wrapped
    }

    #[test]
    fn policy_shapes_block_content() {
        let watched = Address::from_label("pool:ViaBTC:0");
        let mut pool = MiningPool::new("ViaBTC", 0.07, 1)
            .with_policy(Box::new(AddressAccelerationPolicy::new("self", [watched])));
        let mut mempool = Mempool::new(MempoolPolicy::default());
        let (whale, whale_fee) = tx_paying(1, Address::from_label("x"), 200);
        let (own, own_fee) = tx_paying(2, watched, 1);
        let whale_id = mempool.add(whale, whale_fee, 0).expect("ok");
        let own_id = mempool.add(own, own_fee, 1).expect("ok");
        let params = Params::mainnet();
        let block = pool.build_block(&mempool, &params, BlockHash::ZERO, 0, 0, &|_| None);
        let order: Vec<Txid> = block.body().iter().map(|t| t.txid()).collect();
        assert_eq!(order, vec![own_id, whale_id], "own low-fee tx must lead");
        // Coinbase claims subsidy + both fees.
        assert_eq!(
            block.coinbase().expect("cb").output_value(),
            params.subsidy_at(0) + whale_fee + own_fee
        );
    }

    #[test]
    fn resolver_feeds_input_addresses() {
        // A policy watching an address only visible via input resolution.
        let sender = Address::from_label("watched-sender");
        let mut pool = MiningPool::new("P", 0.1, 1)
            .with_policy(Box::new(AddressAccelerationPolicy::new("self", [sender])));
        let mut mempool = Mempool::new(MempoolPolicy::default());
        let (whale, whale_fee) = tx_paying(1, Address::from_label("x"), 200);
        let (from_watched, fee2) = tx_paying(2, Address::from_label("y"), 1);
        mempool.add(whale, whale_fee, 0).expect("ok");
        let watched_id = mempool.add(from_watched, fee2, 1).expect("ok");
        let params = Params::mainnet();
        let block = pool.build_block(&mempool, &params, BlockHash::ZERO, 0, 0, &|op| {
            // Pretend every outpoint with txid [2;32] is funded by `sender`.
            if op.txid == Txid::from([2u8; 32]) {
                Some(sender)
            } else {
                None
            }
        });
        assert_eq!(block.body()[0].txid(), watched_id);
    }
}
