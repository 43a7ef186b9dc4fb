//! The network: roles, per-stakeholder Mempool views, flood propagation.
//!
//! The simulator turns [`Network::propagation_from`] into timed delivery
//! events and admits each one into its node's view through
//! [`Network::mempool_mut`], sharing one [`RelayPayload`] per broadcast.

use crate::latency::LatencyModel;
use crate::topology::Topology;
use cn_chain::{Amount, Block, Transaction, Txid};
use cn_mempool::{AdmissionPrecheck, Mempool, MempoolPolicy};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::{Arc, OnceLock};

/// Index of a node in the network.
pub type NodeId = usize;

/// A broadcast transaction's relay state, shared by every delivery it
/// fans out to: the simulator allocates **one** `Arc<RelayPayload>` per
/// broadcast and every per-node delivery event holds a handle, instead of
/// cloning a transaction handle plus fee per delivery. The txid is
/// captured once so delivery bookkeeping never re-reads the transaction.
#[derive(Clone, Debug)]
pub struct RelayPayload {
    /// Cached transaction id.
    pub txid: Txid,
    /// The transaction body (shared; never copied per delivery).
    pub tx: Arc<Transaction>,
    /// The public fee the broadcast offers.
    pub fee: Amount,
    /// Node-independent admission prefix, computed lazily on the first
    /// delivery and shared by every subsequent one — once per transaction
    /// instead of once per (tx, node).
    precheck: OnceLock<AdmissionPrecheck>,
}

impl RelayPayload {
    /// Wraps a transaction and its fee for relay.
    pub fn new(tx: Arc<Transaction>, fee: Amount) -> RelayPayload {
        RelayPayload { txid: tx.txid(), tx, fee, precheck: OnceLock::new() }
    }

    /// The shared admission precheck, computed on first use and memoized
    /// for the rest of the fan-out.
    pub fn precheck(&self) -> &AdmissionPrecheck {
        self.precheck.get_or_init(|| AdmissionPrecheck::of(&self.tx, self.fee))
    }

    /// True when the precheck memo is already populated — a later delivery
    /// reusing the first one's work.
    pub fn precheck_cached(&self) -> bool {
        self.precheck.get().is_some()
    }
}

/// What a node does.
#[derive(Clone, Debug, PartialEq)]
pub enum NodeRole {
    /// Pure relay: forwards traffic, keeps no Mempool we care about.
    Relay,
    /// A measurement node recording a Mempool view (the paper's full
    /// nodes behind datasets 𝒜 and ℬ).
    Observer {
        /// The node's Mempool acceptance policy (dataset ℬ disabled the
        /// fee floor).
        policy: MempoolPolicy,
    },
    /// The network attachment point of one or more mining pools; its
    /// Mempool view is what the pools' `GetBlockTemplate` draws from.
    MinerHub {
        /// Hub label (the simulator keeps its own pool-to-hub map).
        pool: usize,
        /// The hub's Mempool acceptance policy — `accept_all` models the
        /// §4.2.3 pools that mine below-floor transactions.
        policy: MempoolPolicy,
    },
}

/// A simulated P2P network.
///
/// Flooding delivers a message to each node along the fastest path, so
/// first-arrival times are shortest-path distances in the latency graph —
/// computed with Dijkstra instead of simulating every hop.
#[derive(Clone, Debug)]
pub struct Network {
    topology: Topology,
    latency: LatencyModel,
    roles: Vec<NodeRole>,
    /// Mempool views indexed by node id: `Some` for observers and miner
    /// hubs, `None` for relays.
    mempools: Vec<Option<Mempool>>,
    /// Per-origin first-arrival vectors, filled on first use. Topology and
    /// latencies never change after construction, so a cached single-source
    /// run stays valid for the network's lifetime.
    propagation: Vec<OnceLock<Vec<f64>>>,
}

/// Max-heap adapter for Dijkstra's min-priority queue over f64 distances.
#[derive(PartialEq)]
struct QueueItem {
    dist: f64,
    node: NodeId,
}

impl Eq for QueueItem {}

impl Ord for QueueItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: smaller distance = greater priority. Distances are
        // finite sums of finite latencies, so partial_cmp cannot fail.
        other
            .dist
            .partial_cmp(&self.dist)
            .expect("finite distances")
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for QueueItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Network {
    /// Assembles a network; one Mempool is allocated per observer and
    /// miner hub.
    ///
    /// # Panics
    /// Panics when `roles.len()` differs from the topology's node count.
    pub fn new(topology: Topology, latency: LatencyModel, roles: Vec<NodeRole>) -> Network {
        assert_eq!(roles.len(), topology.len(), "one role per node");
        let mempools = roles
            .iter()
            .map(|role| match role {
                NodeRole::Observer { policy } | NodeRole::MinerHub { policy, .. } => {
                    Some(Mempool::new(*policy))
                }
                NodeRole::Relay => None,
            })
            .collect();
        let propagation = (0..topology.len()).map(|_| OnceLock::new()).collect();
        Network { topology, latency, roles, mempools, propagation }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.topology.len()
    }

    /// True when the network has no nodes.
    pub fn is_empty(&self) -> bool {
        self.topology.is_empty()
    }

    /// The role of `node`.
    pub fn role(&self, node: NodeId) -> &NodeRole {
        &self.roles[node]
    }

    /// Ids of all observer nodes.
    pub fn observers(&self) -> Vec<NodeId> {
        self.roles
            .iter()
            .enumerate()
            .filter(|(_, r)| matches!(r, NodeRole::Observer { .. }))
            .map(|(i, _)| i)
            .collect()
    }

    /// Ids of all miner-hub nodes, with their pool indexes.
    pub fn miner_hubs(&self) -> Vec<(NodeId, usize)> {
        self.roles
            .iter()
            .enumerate()
            .filter_map(|(i, r)| match r {
                NodeRole::MinerHub { pool, .. } => Some((i, *pool)),
                _ => None,
            })
            .collect()
    }

    /// The Mempool view held at `node` (observers and miner hubs only).
    pub fn mempool(&self, node: NodeId) -> Option<&Mempool> {
        self.mempools.get(node).and_then(Option::as_ref)
    }

    /// Mutable access to a node's Mempool view.
    pub fn mempool_mut(&mut self, node: NodeId) -> Option<&mut Mempool> {
        self.mempools.get_mut(node).and_then(Option::as_mut)
    }

    /// First-arrival time (in fractional seconds after emission) of a
    /// flooded message from `origin` at every node — single-source
    /// shortest paths over link latencies. The run is computed once per
    /// origin and cached (the latency graph is immutable), so repeated
    /// broadcasts from the same node cost one slice lookup.
    pub fn propagation_from(&self, origin: NodeId) -> &[f64] {
        self.propagation[origin].get_or_init(|| {
            let n = self.len();
            let mut dist = vec![f64::INFINITY; n];
            dist[origin] = 0.0;
            let mut heap = BinaryHeap::new();
            heap.push(QueueItem { dist: 0.0, node: origin });
            while let Some(QueueItem { dist: d, node }) = heap.pop() {
                if d > dist[node] {
                    continue;
                }
                for &next in self.topology.neighbors(node) {
                    let nd = d + self.latency.get(node, next);
                    if nd < dist[next] {
                        dist[next] = nd;
                        heap.push(QueueItem { dist: nd, node: next });
                    }
                }
            }
            dist
        })
    }

    /// Connects a freshly mined block on every stakeholder Mempool.
    ///
    /// Block propagation (seconds) is far shorter than the inter-block
    /// interval (minutes) and does not influence ordering metrics, so the
    /// connect is applied instantaneously; stale-tip races are out of
    /// scope.
    pub fn apply_block(&mut self, block: &Block) {
        for view in self.mempools.iter_mut().flatten() {
            view.apply_block(block);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cn_chain::{Address, Timestamp, TxOut};
    use cn_mempool::AcceptError;
    use cn_stats::SimRng;

    fn network(observer_policy: MempoolPolicy) -> Network {
        let mut rng = SimRng::seed_from_u64(11);
        let n = 10;
        let mut degrees = vec![4; n];
        degrees[0] = 8; // observer
        let topology = Topology::random(n, &degrees, &mut rng);
        let latency = LatencyModel::sample(&topology, 1.5, 0.5, &mut rng);
        let mut roles = vec![NodeRole::Relay; n];
        roles[0] = NodeRole::Observer { policy: observer_policy };
        roles[5] = NodeRole::MinerHub { pool: 0, policy: MempoolPolicy::default() };
        Network::new(topology, latency, roles)
    }

    fn tx(seed: u8) -> Arc<Transaction> {
        Arc::new(
            Transaction::builder()
                .add_input_with_sizes([seed; 32].into(), 0, 107, 0)
                .add_output(TxOut::to_address(Amount::from_sat(1_000), Address::from_label("r")))
                .build(),
        )
    }

    #[test]
    fn roles_create_mempools() {
        let net = network(MempoolPolicy::default());
        assert!(net.mempool(0).is_some());
        assert!(net.mempool(5).is_some());
        assert!(net.mempool(1).is_none());
        assert!(net.mempool(net.len()).is_none(), "out-of-range node has no view");
        assert_eq!(net.observers(), vec![0]);
        assert_eq!(net.miner_hubs(), vec![(5, 0)]);
    }

    #[test]
    fn propagation_is_metric_like() {
        let net = network(MempoolPolicy::default());
        let d = net.propagation_from(3);
        assert_eq!(d[3], 0.0);
        for (i, &v) in d.iter().enumerate() {
            assert!(v.is_finite(), "node {i} unreachable");
            if i != 3 {
                assert!(v > 0.0);
            }
        }
    }

    #[test]
    fn views_admit_one_shared_payload_at_their_arrival_times() {
        let mut net = network(MempoolPolicy::default());
        let t = tx(1);
        let payload = RelayPayload::new(Arc::clone(&t), Amount::from_sat(t.vsize() * 10));
        let arrivals = net.propagation_from(3).to_vec();
        for node in [0, 5] {
            // Observer, then hub: the second admission reuses the memo.
            assert_eq!(payload.precheck_cached(), node == 5);
            let arrival = 1_000 + arrivals[node].round() as Timestamp;
            let view = net.mempool_mut(node).expect("stakeholder");
            view.add_prechecked(Arc::clone(&payload.tx), payload.fee, arrival, payload.precheck())
                .expect("admitted");
            assert_eq!(view.get(&t.txid()).expect("in").received(), arrival);
        }
    }

    #[test]
    fn strict_observer_rejects_low_fee_while_hub_view_differs() {
        let mut net = network(MempoolPolicy::default());
        let t = tx(2);
        for node in [0, 5] {
            let view = net.mempool_mut(node).expect("stakeholder");
            let outcome = view.add_shared(Arc::clone(&t), Amount::ZERO, 0);
            assert!(matches!(outcome, Err(AcceptError::BelowMinFeeRate { .. })));
        }
        // A no-floor observer accepts the same transaction.
        let mut lax = network(MempoolPolicy::accept_all());
        let observer = lax.mempool_mut(0).expect("observer");
        assert!(observer.add_shared(Arc::clone(&t), Amount::ZERO, 0).is_ok());
    }

    #[test]
    fn apply_block_clears_all_views() {
        let t = tx(3);
        let fee = Amount::from_sat(t.vsize() * 10);
        let cb = cn_chain::CoinbaseBuilder::new(1)
            .reward(Address::from_label("p"), Amount::from_btc(6))
            .build();
        let block = Block::assemble(
            2,
            cn_chain::BlockHash::ZERO,
            600,
            0,
            cb,
            vec![(*t).clone()],
        );
        let mut net = network(MempoolPolicy::default());
        for node in [0, 5] {
            let view = net.mempool_mut(node).expect("stakeholder");
            view.add_shared(Arc::clone(&t), fee, 0).expect("admitted");
        }
        net.apply_block(&block);
        assert!(!net.mempool(0).expect("obs").contains(&t.txid()));
        assert!(!net.mempool(5).expect("hub").contains(&t.txid()));
    }

    #[test]
    fn different_origins_give_different_arrival_orders() {
        // The root cause of the paper's ε adjustment: two transactions
        // issued from different corners of the network can arrive at the
        // observer in either order.
        let net = network(MempoolPolicy::default());
        let from_2 = net.propagation_from(2);
        let from_8 = net.propagation_from(8);
        // Find the observer's arrival offsets; they must differ by origin.
        assert_ne!(from_2[0], from_8[0]);
    }
}
