//! The simulation runner: turns a [`Scenario`] into a chain, one snapshot
//! stream per observer, and ground truth.
//!
//! [`World::new`] is the only constructor. Every run builds its own world,
//! sweep levels included: building one (topology, latencies, the funded
//! chain) takes a few milliseconds, against seconds to run it.
//!
//! A world runs on the calling thread. Each user transaction draws its
//! random inputs from its own indexed RNG fork when it is issued, and
//! every stakeholder view connects a block in turn. Parallelism lives
//! one level up: callers run whole worlds on `cn_stats::Pool` workers.

use crate::event::{EventQueue, SimMillis};
use crate::profile::SimProfile;
use crate::scenario::{PoolBehavior, Scenario};
use crate::sink::EventSink;
use crate::truth::{GroundTruth, TxKind};
use crate::workload::{BuiltTx, PaymentDraws, PaymentTarget, Workload};
use cn_chain::{Address, Amount, Chain, FastMap, FeeRate, Timestamp, Txid};
use cn_mempool::{FeeEstimator, MempoolPolicy, MempoolSnapshot};
use cn_miner::{
    AccelerationService, AddressAccelerationPolicy, CensorPolicy, CompositePolicy, DarkFeePolicy,
    MinerPolicy, MiningPool,
};
use cn_net::{LatencyModel, Network, NodeId, NodeRole, RelayPayload, Topology};
use cn_stats::{Exponential, LogNormal, SimRng, WeightedIndex};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

/// The urgency-quantile menu users draw their fee target from.
const URGENCY_QUANTILES: [f64; 5] = [0.3, 0.5, 0.7, 0.9, 0.97];

/// Every random value the `index`-th user transaction consumes, sampled
/// from that transaction's own RNG fork (`fork_indexed("user-tx", index)`)
/// when the event fires.
///
/// The draws are *unconditional* — flips are stored as raw uniforms and
/// compared against their probabilities at application time — so the
/// record's shape never depends on simulation state: it is a pure
/// function of (seed, index), and the fee math that reads live state
/// consumes no RNG.
struct TxDraws {
    /// Uniform for the scam-donation flip.
    scam_u: f64,
    /// Uniform for the dark-fee acceleration-demand flip.
    accel_u: f64,
    /// Uniform for the zero-fee deviant flip.
    zero_fee_u: f64,
    /// Index into [`URGENCY_QUANTILES`].
    q_idx: usize,
    /// Fee-noise multiplier (LogNormal(0, 0.35)).
    noise: f64,
    /// Willingness-to-pay cap in sat/kvB (heavy-tailed).
    wtp: f64,
    /// Uniform for the CPFP allow-pending flip.
    allow_pending_u: f64,
    /// Payment-construction draws (coin-selection candidates, recipient,
    /// size and value samples).
    payment: PaymentDraws,
    /// Acceleration-provider pick (0 when the scenario has no providers).
    provider: u32,
    /// Origin relay node for the broadcast fan-out.
    origin: u32,
}

/// Everything a run produces; the audit layer consumes this.
pub struct SimOutput {
    /// The scenario that produced this output.
    pub scenario: Scenario,
    /// The confirmed chain.
    pub chain: Chain,
    /// One snapshot stream per fleet observer, index-aligned with the
    /// scenario's `observers`. Stream 0 is the *primary* observer's
    /// (the datasets 𝒜/ℬ analog, and the one a single-observer audit
    /// reads); the cross-observer reconciliation layer in `cn-core`
    /// merges them all.
    pub observer_streams: Vec<Vec<MempoolSnapshot>>,
    /// Ground-truth labels.
    pub truth: GroundTruth,
    /// Pool names, indexed as in the scenario.
    pub pool_names: Vec<String>,
    /// Which pool (by index) mined each block, by height — ground truth
    /// for validating marker-based attribution.
    pub block_miners: Vec<usize>,
    /// Dark-fee service handles, per pool (None for non-providers).
    pub services: Vec<Option<Arc<Mutex<AccelerationService>>>>,
    /// Blocks found but lost to a stale-tip race (fault injection); they
    /// never entered the chain and are not in `block_miners`.
    pub orphaned_blocks: usize,
    /// Where the run spent its time (observational; see [`SimProfile`]).
    pub profile: SimProfile,
}

/// What a chunked [`World::run_streamed`] run hands back: aggregate
/// counters only — the artifacts themselves went to the
/// [`EventSink`] and were dropped from memory.
#[derive(Debug, Clone)]
pub struct StreamedSummary {
    /// Blocks connected (and emitted to the sink).
    pub blocks: u64,
    /// Primary-observer snapshots emitted to the sink.
    pub snapshots: u64,
    /// Where the run spent its time (observational).
    pub profile: SimProfile,
}

/// Internal event kinds.
enum Ev {
    /// A user payment is issued somewhere in the network.
    IssueUserTx,
    /// A pool issues a transfer from its own wallet.
    IssueSelfTx(usize),
    /// A transaction reaches a stakeholder node's Mempool. The payload is
    /// allocated once per broadcast and shared by every delivery (fault
    /// duplicates included). `counted` is false for fault-injected
    /// duplicate deliveries, which must not touch the delivery
    /// bookkeeping.
    Deliver { node: NodeId, payload: Arc<RelayPayload>, counted: bool },
    /// A block is found.
    MineBlock,
    /// The observer records a snapshot.
    Snapshot,
}

/// The simulation world.
pub struct World {
    scenario: Scenario,
    rng_tx: SimRng,
    rng_mine: SimRng,
    chain: Chain,
    network: Network,
    pools: Vec<MiningPool>,
    hub_of_pool: Vec<NodeId>,
    /// The primary observer's node id (fleet index 0); fleet observer
    /// `j` sits at `observer + j`.
    observer: NodeId,
    observer_count: usize,
    relay_count: usize,
    workload: Workload,
    estimator: FeeEstimator,
    truth: GroundTruth,
    /// One stream per fleet observer, index-aligned with the scenario's
    /// `observers`.
    observer_streams: Vec<Vec<MempoolSnapshot>>,
    services: Vec<Option<Arc<Mutex<AccelerationService>>>>,
    block_miners: Vec<usize>,
    /// Providers (pool indexes) selling acceleration.
    providers: Vec<usize>,
    /// Outstanding delivery bookkeeping: txid -> (pending deliveries,
    /// accepted everywhere so far).
    delivery_state: FastMap<Txid, (usize, bool)>,
    pool_picker: WeightedIndex,
    /// Stakeholder nodes (observer + miner hubs), sorted and deduped once —
    /// every broadcast fans out to exactly this set.
    stakeholders: Vec<NodeId>,
    scam_address: Address,
    snapshot_counter: u64,
    /// Sequential arrival-time stream (Poisson thinning). Forked off the
    /// transaction root so `rng_tx` itself is never advanced — it serves
    /// purely as the base for per-transaction indexed forks.
    rng_arrival: SimRng,
    /// User transactions issued so far (indexed-fork input).
    user_tx_count: u64,
    /// Self-transfers issued so far (indexed-fork input).
    self_tx_count: u64,
    /// Dedicated fault stream; forked unconditionally (forking never
    /// advances the parent) but only drawn from when faults are enabled,
    /// keeping `FaultPlan::none()` runs bit-identical.
    rng_fault: SimRng,
    /// Observer outage windows in sim milliseconds, precomputed from the
    /// fault plan.
    downtime_ms: Vec<(SimMillis, SimMillis)>,
    orphaned_blocks: usize,
    profile: SimProfile,
    /// When false (the chunked scale tier), ground-truth labels are not
    /// accumulated — they are pure bookkeeping, never read back during a
    /// run, so skipping them cannot change any emitted byte while keeping
    /// memory flat in run length.
    record_truth: bool,
}

impl World {
    /// Builds the world for a scenario.
    ///
    /// # Panics
    /// Panics when the scenario fails validation.
    pub fn new(scenario: Scenario) -> World {
        scenario.validate().unwrap_or_else(|e| panic!("invalid scenario: {e}"));
        let root = SimRng::seed_from_u64(scenario.seed);
        let mut rng_topo = root.fork("topology");
        let rng_tx = root.fork("transactions");
        let rng_arrival = rng_tx.fork("arrivals");
        let rng_mine = root.fork("mining");
        let rng_fault = root.fork("faults");
        let downtime_ms = scenario.faults.observer.downtime_windows_ms(scenario.duration * 1_000);

        // --- Node layout: relays | observer fleet | hubs ------------------
        // The primary observer sits at `relay_count`; fleet observer `j`
        // at `relay_count + j`; hubs after the whole fleet. A one-node
        // fleet reproduces the pre-fleet layout exactly (same node count,
        // same degree vector, same topology-RNG draws).
        let relay_count = scenario.relay_nodes.max(2);
        let observer: NodeId = relay_count;
        let observer_count = scenario.observers.len();
        let hubs_base = relay_count + observer_count;
        // Pools that accept low-fee transactions need their own hub (their
        // Mempool admits what others reject); the rest share hubs.
        let mut hub_policies: Vec<MempoolPolicy> = Vec::new();
        let mut hub_of_pool: Vec<NodeId> = vec![0; scenario.pools.len()];
        let shared_hub_count = scenario.miner_hubs;
        for _ in 0..shared_hub_count {
            hub_policies.push(MempoolPolicy::default());
        }
        let mut shared_rr = 0usize;
        for (i, p) in scenario.pools.iter().enumerate() {
            if p.accepts_low_fee {
                hub_policies.push(MempoolPolicy::accept_all());
                hub_of_pool[i] = hubs_base + hub_policies.len(); // filled below
            } else {
                hub_of_pool[i] = hubs_base + (shared_rr % shared_hub_count);
                shared_rr += 1;
            }
        }
        // Fix dedicated-hub ids now that counts are known: dedicated hubs
        // come after the shared ones.
        {
            let mut next_dedicated = hubs_base + shared_hub_count;
            for (i, p) in scenario.pools.iter().enumerate() {
                if p.accepts_low_fee {
                    hub_of_pool[i] = next_dedicated;
                    next_dedicated += 1;
                }
            }
        }
        let hub_count = hub_policies.len();
        let n = relay_count + observer_count + hub_count;
        let mut degrees = vec![8usize; n];
        for (j, o) in scenario.observers.iter().enumerate() {
            degrees[observer + j] = o.peers;
        }
        let topology = Topology::random(n, &degrees, &mut rng_topo);
        let latency = LatencyModel::sample(
            &topology,
            scenario.link_latency_median,
            scenario.link_latency_sigma,
            &mut rng_topo,
        );
        let mut roles = vec![NodeRole::Relay; n];
        for (j, o) in scenario.observers.iter().enumerate() {
            roles[observer + j] = NodeRole::Observer { policy: o.policy };
        }
        for (h, policy) in hub_policies.iter().enumerate() {
            roles[hubs_base + h] = NodeRole::MinerHub { pool: h, policy: *policy };
        }
        let network = Network::new(topology, latency, roles);

        // --- Funding-seeded chain and workload ----------------------------
        // Pool reward wallets are a pure function of the roster
        // (name × wallet count), so the funding plan needs no constructed
        // pools.
        let mut chain = Chain::new(scenario.params.clone());
        let mut workload = Workload::new(scenario.users);
        workload.set_consolidation(scenario.wallet_consolidation);
        let pool_wallets: Vec<Address> = scenario
            .pools
            .iter()
            .flat_map(|p| MiningPool::derive_wallets(&p.name, p.wallet_count))
            .collect();
        workload.seed_funding(&mut chain, 6, Amount::from_btc(1), &pool_wallets);

        let mut stakeholders: Vec<NodeId> = network.observers();
        stakeholders.extend(network.miner_hubs().iter().map(|(n, _)| *n));
        stakeholders.sort_unstable();
        stakeholders.dedup();

        // --- Pools, policies, services ------------------------------------
        let scam_address = Address::from_label(&format!("scam:{}", scenario.name));
        let mut services: Vec<Option<Arc<Mutex<AccelerationService>>>> =
            vec![None; scenario.pools.len()];
        let mut providers = Vec::new();
        let mut pools = Vec::with_capacity(scenario.pools.len());
        for (i, cfg) in scenario.pools.iter().enumerate() {
            let mut parts: Vec<Box<dyn MinerPolicy>> = Vec::new();
            for b in &cfg.behaviors {
                match b {
                    PoolBehavior::SelfInterest => {
                        parts.push(Box::new(AddressAccelerationPolicy::new(
                            format!("{}:self", cfg.name),
                            MiningPool::derive_wallets(&cfg.name, cfg.wallet_count),
                        )));
                    }
                    PoolBehavior::Collude { partners } => {
                        let mut watched = Vec::new();
                        for partner in partners {
                            let pc = scenario
                                .pools
                                .iter()
                                .find(|p| &p.name == partner)
                                .expect("validated");
                            watched.extend(MiningPool::derive_wallets(&pc.name, pc.wallet_count));
                        }
                        parts.push(Box::new(AddressAccelerationPolicy::new(
                            format!("{}:collude", cfg.name),
                            watched,
                        )));
                    }
                    PoolBehavior::DarkFee { premium } => {
                        let svc = Arc::new(Mutex::new(
                            AccelerationService::new(cfg.name.clone()).with_premium(*premium),
                        ));
                        services[i] = Some(Arc::clone(&svc));
                        providers.push(i);
                        parts.push(Box::new(DarkFeePolicy::new(svc)));
                    }
                    PoolBehavior::CensorScam { exclude } => {
                        let policy = if *exclude {
                            CensorPolicy::excluding([scam_address])
                        } else {
                            CensorPolicy::decelerating([scam_address])
                        };
                        parts.push(Box::new(policy));
                    }
                }
            }
            let mut pool = MiningPool::new(cfg.name.clone(), cfg.hash_rate, cfg.wallet_count);
            if !parts.is_empty() {
                pool = pool.with_policy(Box::new(CompositePolicy::new(cfg.name.clone(), parts)));
            }
            pools.push(pool);
        }
        let pool_picker =
            WeightedIndex::new(&scenario.pools.iter().map(|p| p.hash_rate).collect::<Vec<_>>());

        let mut truth = GroundTruth::default();
        if scenario.scam.is_some() {
            truth.set_scam_address(scam_address);
        }

        World {
            estimator: FeeEstimator::new(12),
            scenario,
            rng_tx,
            rng_mine,
            chain,
            network,
            pools,
            hub_of_pool,
            observer,
            observer_count,
            relay_count,
            workload,
            truth,
            observer_streams: vec![Vec::new(); observer_count],
            services,
            block_miners: Vec::new(),
            providers,
            delivery_state: FastMap::default(),
            pool_picker,
            stakeholders,
            scam_address,
            snapshot_counter: 0,
            rng_arrival,
            user_tx_count: 0,
            self_tx_count: 0,
            rng_fault,
            downtime_ms,
            orphaned_blocks: 0,
            record_truth: true,
            profile: SimProfile {
                observer_snapshots: vec![0; observer_count],
                observer_degraded: vec![0; observer_count],
                ..SimProfile::default()
            },
        }
    }

    /// A no-op: a world always runs on the calling thread. Kept because
    /// the `perfbench` benchmark calls it with 1; nothing in the workspace
    /// does.
    pub fn with_workers(self, _workers: usize) -> World {
        self
    }

    /// Runs the scenario to completion and returns its artifacts.
    pub fn run(mut self) -> SimOutput {
        self.run_loop(&mut NoTap);
        SimOutput {
            pool_names: self.pools.iter().map(|p| p.name().to_string()).collect(),
            scenario: self.scenario,
            chain: self.chain,
            observer_streams: self.observer_streams,
            truth: self.truth,
            block_miners: self.block_miners,
            services: self.services,
            orphaned_blocks: self.orphaned_blocks,
            profile: self.profile,
        }
    }

    /// Runs the scenario to completion, streaming the canonical
    /// block/snapshot event stream to `sink` and *dropping* artifacts from
    /// memory as they are emitted, so peak RSS is O(epoch) instead of
    /// O(run length).
    ///
    /// The emitted stream is byte-compatible with feeding the equivalent
    /// monolithic [`World::run`] output through the batch interleaver
    /// (time-sorted, block-before-snapshot on same-second ties): the event
    /// loop itself is shared, only the bookkeeping differs. Ground-truth
    /// labels are not recorded (they are write-only during a run), chain
    /// history is pruned behind a small working horizon, and fleet
    /// observer streams are cleared every tick.
    pub fn run_streamed(mut self, sink: &mut dyn EventSink) -> StreamedSummary {
        self.record_truth = false;
        sink.on_start(self.chain.seeded_transactions());
        let mut tap = StreamTap {
            sink,
            pending_blocks: VecDeque::new(),
            pending_snapshots: VecDeque::new(),
            snapshots_emitted: 0,
        };
        self.run_loop(&mut tap);
        tap.drain_older_than(Timestamp::MAX);
        let snapshots_emitted = tap.snapshots_emitted;
        StreamedSummary {
            blocks: self.chain.height(),
            snapshots: snapshots_emitted,
            profile: self.profile,
        }
    }

    /// The shared event loop; `tap` observes artifact production (the
    /// chunked path streams-and-drops, the monolithic path does nothing).
    fn run_loop(&mut self, tap: &mut dyn RunTap) {
        let horizon_ms: SimMillis = self.scenario.duration * 1_000;
        let mut queue: EventQueue<Ev> = EventQueue::new();

        // Prime the schedule.
        if let Some(first) = self.next_user_arrival(0) {
            if first < horizon_ms {
                queue.schedule(first, Ev::IssueUserTx);
            }
        }
        if self.scenario.self_interest_rate > 0.0 {
            for i in 0..self.pools.len() {
                let gap = self.self_tx_gap();
                if gap < horizon_ms {
                    queue.schedule(gap, Ev::IssueSelfTx(i));
                }
            }
        }
        let spacing = self.scenario.params.target_spacing_secs;
        let first_block =
            (Exponential::with_mean(spacing as f64 * 1_000.0).sample(&mut self.rng_mine)) as u64;
        queue.schedule(first_block.min(horizon_ms.saturating_sub(1)), Ev::MineBlock);
        queue.schedule(self.scenario.snapshot_interval * 1_000, Ev::Snapshot);

        let run_started = Instant::now();
        while let Some((now_ms, ev)) = queue.pop() {
            if now_ms >= horizon_ms {
                break;
            }
            self.profile.events_popped += 1;
            match ev {
                Ev::IssueUserTx => {
                    self.profile.user_txs += 1;
                    self.issue_user_tx(now_ms, &mut queue);
                    if let Some(next) = self.next_user_arrival(now_ms) {
                        if next < horizon_ms {
                            queue.schedule(next, Ev::IssueUserTx);
                        }
                    }
                }
                Ev::IssueSelfTx(pool) => {
                    self.profile.self_txs += 1;
                    self.issue_self_tx(pool, now_ms, &mut queue);
                    let next = now_ms + self.self_tx_gap();
                    if next < horizon_ms {
                        queue.schedule(next, Ev::IssueSelfTx(pool));
                    }
                }
                Ev::Deliver { node, payload, counted } => {
                    let t = Instant::now();
                    self.profile.deliveries += 1;
                    // `deliver` skips admission for a tx that confirmed in
                    // flight; filling the memo here keeps the hit count
                    // independent of that.
                    if payload.precheck_cached() {
                        self.profile.admission_precheck_hits += 1;
                    } else {
                        let _ = payload.precheck();
                    }
                    self.deliver(node, &payload, now_ms, counted);
                    SimProfile::credit(&mut self.profile.admission, t.elapsed());
                }
                Ev::MineBlock => {
                    if self.mine_block(now_ms) {
                        tap.block_connected(self);
                    }
                    let gap = Exponential::with_mean(spacing as f64 * 1_000.0)
                        .sample(&mut self.rng_mine) as u64;
                    let next = now_ms + gap.max(1_000);
                    if next < horizon_ms {
                        queue.schedule(next, Ev::MineBlock);
                    }
                }
                Ev::Snapshot => {
                    self.profile.snapshot_ticks += 1;
                    let now_secs = now_ms / 1_000;
                    // The primary observer inside an outage window records
                    // nothing: the window is simply missing from the
                    // stream. The detail-stride counter still advances so
                    // the cadence realigns once the daemon is back.
                    let down = self.downtime_ms.iter().any(|&(s, e)| now_ms >= s && now_ms < e);
                    let detailed =
                        self.snapshot_counter.is_multiple_of(self.scenario.snapshot_detail_every);
                    self.snapshot_counter += 1;
                    // Every observer shares the cadence and detail stride
                    // and enforces its own maxmempool before recording. The
                    // observer faults (outage, truncation) model the primary
                    // daemon only. Observer 0's time is `snapshot`, the rest
                    // of the fleet's is `fleet`.
                    let obs_faults = self.scenario.faults.observer;
                    for j in 0..self.observer_count {
                        let t = Instant::now();
                        let recording = j > 0 || !down;
                        if let Some(pool) =
                            self.network.mempool_mut(self.observer + j).filter(|_| recording)
                        {
                            if let Some(cap) = self.scenario.observers[j].max_mempool_vsize {
                                pool.limit_size(cap);
                            }
                            let mut snap = if detailed {
                                pool.snapshot(now_secs)
                            } else {
                                pool.snapshot_light(now_secs)
                            };
                            if j == 0
                                && detailed
                                && obs_faults.truncate_prob > 0.0
                                && self.rng_fault.next_bool(obs_faults.truncate_prob)
                            {
                                snap = snap.truncate_detail(obs_faults.truncate_keep_frac);
                            }
                            // An eclipsed observer keeps recording — its
                            // daemon is fine — but the view is frozen, so
                            // the snapshot carries a degraded stamp that
                            // coverage accounting discounts. Deterministic:
                            // no RNG draw, so the empty adversary plan
                            // stays bit-inert.
                            if self.scenario.adversaries.eclipsed(j, now_ms) {
                                snap = snap.mark_degraded();
                                self.profile.observer_degraded[j] += 1;
                            }
                            self.profile.observer_snapshots[j] += 1;
                            self.observer_streams[j].push(snap);
                        }
                        let bucket = if j == 0 {
                            &mut self.profile.snapshot
                        } else {
                            &mut self.profile.fleet
                        };
                        SimProfile::credit(bucket, t.elapsed());
                    }
                    tap.snapshot_tick(self);
                    let next = now_ms + self.scenario.snapshot_interval * 1_000;
                    if next < horizon_ms {
                        queue.schedule(next, Ev::Snapshot);
                    }
                }
            }
        }
        self.profile.wall = run_started.elapsed().as_secs_f64();
        for pool in &self.pools {
            let stats = pool.assembly_stats();
            self.profile.assembly_incremental_hits += stats.incremental_hits;
            self.profile.assembly_full_rebuilds += stats.full_rebuilds;
            self.profile.rebuilds_with_accelerate += stats.rebuilds_with_accelerate;
            self.profile.rebuilds_with_decelerate += stats.rebuilds_with_decelerate;
            self.profile.rebuilds_with_exclude += stats.rebuilds_with_exclude;
        }
    }

    /// Next user-transaction arrival after `now_ms`, by Poisson thinning
    /// against the congestion profile.
    fn next_user_arrival(&mut self, now_ms: SimMillis) -> Option<SimMillis> {
        let max_rate = self.scenario.congestion.max_rate();
        let gap_dist = Exponential::new(max_rate / 1_000.0); // events per ms
        let mut t = now_ms as f64;
        for _ in 0..100_000 {
            t += gap_dist.sample(&mut self.rng_arrival).max(1.0);
            let rate = self.scenario.congestion.rate_at((t / 1_000.0) as Timestamp);
            if self.rng_arrival.next_f64() < rate / max_rate {
                return Some(t as SimMillis);
            }
        }
        None
    }

    fn self_tx_gap(&mut self) -> SimMillis {
        let mean_ms = 1_000.0 / self.scenario.self_interest_rate;
        (Exponential::with_mean(mean_ms).sample(&mut self.rng_mine) as SimMillis).max(1)
    }

    /// The observer's current top fee rate (the acceleration quote anchor).
    fn top_fee_rate(&self) -> FeeRate {
        self.network
            .mempool(self.observer)
            .and_then(|m| m.top_fee_rate())
            .unwrap_or(FeeRate::MIN_RELAY)
    }

    /// A user's public fee rate from wallet-estimator behaviour, applying
    /// pre-sampled draws (urgency-quantile index, noise multiplier,
    /// willingness cap) against live state.
    ///
    /// Bids combine the block-history estimator with the *live* backlog
    /// (real wallets use mempool-based estimation too, which is what makes
    /// Figure 4c's fee-vs-congestion monotonicity hold at issue time), and
    /// the estimator's positive feedback loop (bids quote recent blocks,
    /// which quote bids) is broken by a heavy-tailed per-transaction
    /// willingness-to-pay cap. The random parts live in [`TxDraws`]; the
    /// state reads happen here, in event order, and consume no RNG.
    fn user_fee_rate(&self, q_idx: usize, noise: f64, wtp: f64) -> FeeRate {
        // Users differ in urgency: quantile of recent block fee rates.
        let q = URGENCY_QUANTILES[q_idx];
        let suggested = self.estimator.suggest(q).to_sat_per_kvb() as f64;
        // Live-backlog pressure: how many block-capacities are pending
        // right now at the observer.
        let cap = self.scenario.params.max_block_vsize().max(1) as f64;
        let backlog =
            self.network.mempool(self.observer).map(|m| m.total_vsize() as f64).unwrap_or(0.0);
        let pressure = (backlog / cap).min(30.0);
        // Calm pools discount the history slightly; deep congestion scales
        // bids up logarithmically.
        let pressure_factor = 0.8 + 0.4 * (1.0 + pressure).ln();
        // Willingness cap: median 120 sat/vB, long right tail — matching
        // the paper's observation that fees span 1e-6 to beyond 1 BTC/KB
        // but cluster within two orders of magnitude of the minimum.
        let floor = FeeRate::MIN_RELAY.to_sat_per_kvb() as f64;
        let rate = (suggested * pressure_factor * noise).min(wtp).max(floor);
        FeeRate::from_sat_per_kvb(rate as u64)
    }

    /// Samples the full draw record for user transaction `index` from its
    /// own RNG fork. Pure: reads only the fork base and run constants.
    fn draw_user_tx(&self, index: u64) -> TxDraws {
        let providers = self.providers.len() as u64;
        let mut r = self.rng_tx.fork_indexed("user-tx", index);
        TxDraws {
            scam_u: r.next_f64(),
            accel_u: r.next_f64(),
            zero_fee_u: r.next_f64(),
            q_idx: r.next_below(URGENCY_QUANTILES.len() as u64) as usize,
            noise: LogNormal::new(0.0, 0.35).sample(&mut r),
            wtp: LogNormal::with_median(120_000.0, 1.2).sample(&mut r),
            allow_pending_u: r.next_f64(),
            payment: self.workload.draw_payment(&mut r),
            provider: if providers > 0 { r.next_below(providers) as u32 } else { 0 },
            origin: r.next_below(self.relay_count as u64) as u32,
        }
    }

    fn issue_user_tx(&mut self, now_ms: SimMillis, queue: &mut EventQueue<Ev>) {
        // The draws are timed as `pregen`, the rest of issuance as `issue`.
        let draw_started = Instant::now();
        let draws = self.draw_user_tx(self.user_tx_count);
        self.user_tx_count += 1;
        let issue_started = Instant::now();
        SimProfile::credit(&mut self.profile.pregen, issue_started - draw_started);
        let now_secs = now_ms / 1_000;
        // Scam donation? (The flip's uniform was pre-drawn; the window
        // check reads the clock, which only exists at application time.)
        let is_scam = match &self.scenario.scam {
            Some(cfg) => {
                now_secs >= cfg.window_start
                    && now_secs < cfg.window_end
                    && draws.scam_u < cfg.donation_prob
            }
            None => false,
        };
        // Dark-fee acceleration demand?
        let wants_acceleration = !is_scam
            && !self.providers.is_empty()
            && draws.accel_u < self.scenario.acceleration_demand;
        // Zero-fee deviant?
        let zero_fee =
            !is_scam && !wants_acceleration && draws.zero_fee_u < self.scenario.zero_fee_prob;

        let fee_rate = if zero_fee {
            FeeRate::ZERO
        } else if wants_acceleration {
            // Accelerating users deliberately underbid publicly (§5.4.1):
            // the dark fee does the work.
            FeeRate::MIN_RELAY
        } else {
            self.user_fee_rate(draws.q_idx, draws.noise, draws.wtp)
        };

        let target =
            if is_scam { PaymentTarget::To(self.scam_address) } else { PaymentTarget::RandomUser };
        let allow_pending = draws.allow_pending_u < self.scenario.cpfp_prob;
        let Some(built) =
            self.workload.build_payment(&draws.payment, None, target, fee_rate, allow_pending)
        else {
            SimProfile::credit(&mut self.profile.issue, issue_started.elapsed());
            return; // no spendable output right now; skip this arrival
        };
        let kind = if is_scam { TxKind::Scam } else { TxKind::User };
        if self.record_truth {
            self.truth.record_issue(built.tx.txid(), kind, now_secs, built.fee);
        }

        if wants_acceleration {
            let provider = self.providers[draws.provider as usize];
            let svc = self.services[provider].as_ref().expect("provider has service");
            let top = self.top_fee_rate();
            let mut svc = svc.lock();
            let quote = svc.quote(built.tx.vsize(), built.fee, top);
            svc.accelerate(built.tx.txid(), quote);
            drop(svc);
            if self.record_truth {
                self.truth.record_acceleration(
                    built.tx.txid(),
                    self.pools[provider].name().to_string(),
                    quote,
                );
            }
        }

        SimProfile::credit(&mut self.profile.issue, issue_started.elapsed());
        self.broadcast(built, now_ms, queue, false, draws.origin as usize);
    }

    fn issue_self_tx(&mut self, pool: usize, now_ms: SimMillis, queue: &mut EventQueue<Ev>) {
        let issue_started = Instant::now();
        let now_secs = now_ms / 1_000;
        // Self-transfers draw from their own indexed fork, like user
        // transactions.
        let mut r = self.rng_tx.fork_indexed("self-tx", self.self_tx_count);
        self.self_tx_count += 1;
        // Indexing after the draw keeps the wallet slice borrow disjoint
        // from the RNG borrow — no per-issue wallet-list clone.
        let wallet_count = self.pools[pool].wallets().len();
        let pick = r.next_below(wallet_count as u64) as usize;
        let from = self.pools[pool].wallets()[pick];
        let consolidates = r.next_bool(0.85);
        let q_idx = r.next_below(URGENCY_QUANTILES.len() as u64) as usize;
        let noise = LogNormal::new(0.0, 0.35).sample(&mut r);
        let wtp = LogNormal::with_median(120_000.0, 1.2).sample(&mut r);
        let payment = self.workload.draw_payment(&mut r);
        let origin = r.next_below(self.relay_count as u64) as usize;
        // Pools mostly consolidate their own funds at rock-bottom fee
        // rates (they are not in a hurry — unless, of course, they
        // cheat); under congestion those transfers linger, which is
        // exactly the setting where self-acceleration becomes observable
        // (§5.2). A minority of pool transfers (payouts, exchanges) pay
        // market rates and confirm normally regardless of who mines.
        let fee_rate = if consolidates {
            // Exactly the relay floor: consolidations queue behind every
            // bidder and clear only on deep drains — or in the pool's own
            // blocks.
            FeeRate::MIN_RELAY
        } else {
            self.user_fee_rate(q_idx, noise, wtp)
        };
        let Some(built) = self.workload.build_payment(
            &payment,
            Some(from),
            PaymentTarget::RandomUser,
            fee_rate,
            false,
        ) else {
            SimProfile::credit(&mut self.profile.issue, issue_started.elapsed());
            return; // pool wallet has no confirmed funds yet
        };
        if self.record_truth {
            self.truth.record_issue(
                built.tx.txid(),
                TxKind::SelfInterest { pool: self.pools[pool].name().to_string() },
                now_secs,
                built.fee,
            );
        }
        SimProfile::credit(&mut self.profile.issue, issue_started.elapsed());
        self.broadcast(built, now_ms, queue, true, origin);
    }

    /// Schedules per-stakeholder deliveries for a freshly issued tx,
    /// applying link faults (loss, spikes, reorder jitter, duplicates)
    /// and adversarial observation attacks (withholding, diffusion
    /// stalls, eclipses) when the scenario enables them. `miner_origin`
    /// marks transfers issued from pool wallets — the traffic the
    /// `MinerOrigin` withhold predicate targets. `origin` is the relay
    /// node the transaction enters from (users are spread over the edge);
    /// it is part of the issuer's pre-drawn record.
    fn broadcast(
        &mut self,
        built: BuiltTx,
        now_ms: SimMillis,
        queue: &mut EventQueue<Ev>,
        miner_origin: bool,
        origin: usize,
    ) {
        let relay_started = Instant::now();
        let arrivals = self.network.propagation_from(origin);
        let link = self.scenario.faults.link;
        let adv = &self.scenario.adversaries;
        let adv_enabled = adv.enabled();
        // The withhold predicates key on fee rate; computed once per
        // broadcast, and only when an adversary could consult it.
        let fee_rate_kvb = if adv_enabled {
            FeeRate::from_fee_and_vsize(built.fee, built.tx.vsize()).to_sat_per_kvb()
        } else {
            0
        };
        // One shared payload for the whole fan-out; each delivery event
        // (duplicates included) holds a handle, not a transaction clone.
        let payload = Arc::new(RelayPayload::new(built.tx, built.fee));
        let mut expected = 0usize;
        let mut lost = 0usize;
        for &node in &self.stakeholders {
            // Observer latency tiers scale the node's first-arrival delay;
            // factor 1.0 multiplies exactly, so default fleets keep the
            // pre-fleet arrival schedule bit-identical.
            let obs_idx = (node >= self.observer && node < self.observer + self.observer_count)
                .then(|| node - self.observer);
            let delay_ms = match obs_idx {
                Some(j) => (arrivals[node] * self.scenario.observers[j].latency_factor * 1_000.0)
                    .round() as SimMillis,
                None => (arrivals[node] * 1_000.0).round() as SimMillis,
            };
            let mut at = now_ms + delay_ms.max(1);
            let mut dup_trail = None;
            if link.enabled() {
                let Some(extra) = link.sample_delivery(&mut self.rng_fault) else {
                    lost += 1; // this node never hears of the tx
                    continue;
                };
                at += extra;
                dup_trail = link.sample_duplicate(&mut self.rng_fault);
            }
            if adv_enabled {
                if let Some(j) = obs_idx {
                    // Selectively-withholding peers: matching deliveries
                    // toward this observer vanish with probability
                    // `control`, independently per observer — which is
                    // exactly what a fleet exploits to recover coverage.
                    // Unlike link loss, an adversary-suppressed observer
                    // delivery never locks CPFP: the tx still reaches
                    // every miner, so child-spending stays consensus-
                    // valid — only *observation* is damaged. (The drop
                    // still shrinks `expected`, so users who pace CPFP on
                    // full propagation may unlock marginally earlier.)
                    if adv.withholds_delivery(j, miner_origin, fee_rate_kvb, &mut self.rng_fault) {
                        continue;
                    }
                    // Spy-resistant diffusion: the first hop toward an
                    // observer stalls; miners hear at normal speed.
                    at += adv.diffusion_extra_ms(&mut self.rng_fault);
                    // Eclipse: an arrival inside the window never lands
                    // (deterministic, no draw). Half-open boundaries are
                    // covered by the eclipse-window tests.
                    if adv.eclipsed(j, at) {
                        continue;
                    }
                }
            }
            expected += 1;
            queue.schedule(at, Ev::Deliver { node, payload: Arc::clone(&payload), counted: true });
            if let Some(trail) = dup_trail {
                queue.schedule(
                    at + trail,
                    Ev::Deliver { node, payload: Arc::clone(&payload), counted: false },
                );
            }
        }
        // A tx whose every delivery was lost has no pending deliveries to
        // track; inserting an entry would leak it forever. A partially
        // lost tx starts with `all_ok = false`: some stakeholder (possibly
        // a miner) will never hold it, so its outputs must stay locked — a
        // CPFP child spending them could reach a miner that cannot package
        // the parent, and the resulting block would be consensus-invalid.
        // (`lost` counts link-fault losses only; see the adversary note
        // above.)
        if expected > 0 {
            self.delivery_state.insert(payload.txid, (expected, lost == 0));
        }
        // With link faults or adversaries on, this path is dominated by
        // the per-delivery draws — attribute it to the faults subsystem.
        let slot = if link.enabled() || adv_enabled {
            &mut self.profile.faults
        } else {
            &mut self.profile.relay
        };
        SimProfile::credit(slot, relay_started.elapsed());
    }

    /// Admits one popped delivery into `node`'s view and, when it is
    /// counted, settles the broadcast's delivery bookkeeping.
    fn deliver(&mut self, node: NodeId, payload: &RelayPayload, now_ms: SimMillis, counted: bool) {
        let txid = payload.txid;
        let now_secs = now_ms / 1_000;
        if !counted {
            // Fault-injected duplicate: invisible to the bookkeeping, but
            // it still hits the Mempool unless the tx confirmed while in
            // flight (real nodes drop such stragglers on admission).
            if !self.chain.contains_tx(&txid) {
                if let Some(pool) = self.network.mempool_mut(node) {
                    let _ = pool.add_prechecked(
                        Arc::clone(&payload.tx),
                        payload.fee,
                        now_secs,
                        payload.precheck(),
                    );
                }
            }
            return;
        }
        // For a counted delivery, a missing bookkeeping entry means
        // exactly one thing: the tx confirmed while this delivery was in
        // flight (mine_block reclaims the entry of every confirmed tx,
        // and the entry cannot be exhausted early — each counted delivery
        // decrements it exactly once). Confirmed stragglers are dropped
        // as accepted, so this lookup answers the per-delivery chain
        // containment probe the old code paid on a much larger map.
        let World { network, delivery_state, workload, .. } = &mut *self;
        let Some((remaining, all_ok)) = delivery_state.get_mut(&txid) else {
            return;
        };
        let accepted = match network.mempool_mut(node) {
            Some(pool) => pool
                .add_prechecked(Arc::clone(&payload.tx), payload.fee, now_secs, payload.precheck())
                .is_ok(),
            None => false,
        };
        *all_ok &= accepted;
        *remaining -= 1;
        if *remaining == 0 {
            let ok = *all_ok;
            delivery_state.remove(&txid);
            if ok {
                workload.mark_broadcast_ok(&txid);
            }
        }
    }

    /// Mines one block; returns true when a block was actually connected
    /// (false for a stale-tip orphan discarded by fault injection).
    fn mine_block(&mut self, now_ms: SimMillis) -> bool {
        let t_assembly = Instant::now();
        let now_secs = now_ms / 1_000;
        let idx = self.pool_picker.sample(&mut self.rng_mine);
        // Stale-tip race (fault injection): the pool found a block but a
        // same-height competitor propagated first; the find is discarded
        // before connecting — mempools, chain, and the miner record are
        // untouched, exactly as a losing branch looks from the winner's
        // chain.
        let stale_prob = self.scenario.faults.stale_tip_prob;
        if stale_prob > 0.0 && self.rng_fault.next_bool(stale_prob) {
            self.orphaned_blocks += 1;
            SimProfile::credit(&mut self.profile.assembly, t_assembly.elapsed());
            return false;
        }
        let hub = self.hub_of_pool[idx];
        let height = self.chain.height();
        let prev = self.chain.tip_hash();
        // SPV/stale-template mining: occasionally a pool finds a block
        // before assembling a template and commits nothing.
        let mine_empty = self.rng_mine.next_bool(self.scenario.empty_block_prob);

        let World { network, chain, pools, .. } = self;
        let empty_mempool = cn_mempool::Mempool::new(cn_mempool::MempoolPolicy::default());
        let hub_mempool = if mine_empty {
            &empty_mempool
        } else {
            network.mempool(hub).expect("hub has a mempool")
        };
        let utxos = chain.utxos();
        let resolve = |op: &cn_chain::OutPoint| -> Option<Address> {
            utxos.get(op).and_then(|o| o.address()).or_else(|| {
                hub_mempool
                    .get(&op.txid)
                    .and_then(|e| e.tx().outputs().get(op.vout as usize))
                    .and_then(|o| o.address())
            })
        };
        let block = pools[idx].build_block(
            hub_mempool,
            &self.scenario.params,
            prev,
            height,
            now_secs,
            &resolve,
        );

        // Record fee rates for the estimator before views change.
        let mut rates = Vec::with_capacity(block.body().len());
        for tx in block.body() {
            if let Some(e) = hub_mempool.get(&tx.txid()) {
                rates.push(e.fee_rate());
            }
        }

        self.chain
            .connect(block.clone())
            .unwrap_or_else(|e| panic!("simulator built an invalid block: {e}"));
        self.estimator.record_rates(rates);
        self.workload.on_block_confirmed(&block);
        SimProfile::credit(&mut self.profile.assembly, t_assembly.elapsed());
        // The block tick proper: every stakeholder view evicts the
        // confirmed set and repairs its ancestor scores; timed as
        // `eviction` (schema ≤ 5 buried this inside `assembly`).
        let t_eviction = Instant::now();
        self.network.apply_block(&block);
        SimProfile::credit(&mut self.profile.eviction, t_eviction.elapsed());
        self.block_miners.push(idx);
        self.profile.blocks += 1;
        // Reclaim delivery bookkeeping for just-confirmed transactions.
        // Any still-in-flight delivery of these finds the tx on chain and
        // counts as accepted, and `mark_broadcast_ok` after confirmation
        // is a no-op — so dropping the entries changes nothing observable
        // while keeping the map from accumulating stragglers (txs whose
        // slowest deliveries would otherwise pin their entries, and, under
        // fault injection, txs that confirm despite lost deliveries and
        // would leak their entries permanently).
        for tx in block.body() {
            self.delivery_state.remove(&tx.txid());
        }
        true
    }
}

/// How many recent blocks the chunked run path keeps resident. Anything
/// older can no longer influence the simulation: `contains_tx` probes only
/// chase duplicate deliveries that trail their transaction's confirmation
/// by milliseconds, and block assembly reads nothing but the tip and the
/// UTXO set — a two-dozen-block horizon (hours of simulated time) is
/// orders of magnitude beyond any in-flight event.
const PRUNE_KEEP_BLOCKS: u64 = 24;

/// Hooks the shared event loop fires as artifacts are produced, so the
/// chunked path can stream-and-drop state without forking the loop.
trait RunTap {
    /// A block was connected (it is `world.chain.blocks().last()`).
    fn block_connected(&mut self, world: &mut World);
    /// A snapshot tick completed (primary and fleet observers recorded).
    fn snapshot_tick(&mut self, world: &mut World);
}

/// The monolithic path: artifacts accumulate in the world, nothing to do.
struct NoTap;

impl RunTap for NoTap {
    fn block_connected(&mut self, _world: &mut World) {}
    fn snapshot_tick(&mut self, _world: &mut World) {}
}

/// The chunked path: buffers the current second's events, emits everything
/// strictly older to the sink in canonical merge order, and prunes the
/// world's accumulated state behind the emission frontier.
///
/// Ordering argument: the simulation clock is monotone in milliseconds and
/// event timestamps are full seconds, so once an event at second `t` is
/// produced, no future block or snapshot can be stamped earlier than `t`.
/// Draining buffered events with time < `t` (blocks before snapshots on
/// equal stamps, matching the batch interleaver's tie-break) therefore
/// emits a stable prefix of the canonical stream.
struct StreamTap<'a> {
    sink: &'a mut dyn EventSink,
    pending_blocks: VecDeque<cn_chain::Block>,
    pending_snapshots: VecDeque<MempoolSnapshot>,
    snapshots_emitted: u64,
}

impl StreamTap<'_> {
    fn drain_older_than(&mut self, cutoff: Timestamp) {
        loop {
            let take_block = match (self.pending_blocks.front(), self.pending_snapshots.front()) {
                (Some(b), Some(s)) => b.header.time <= s.time,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => return,
            };
            if take_block {
                let Some(b) = self.pending_blocks.front() else { unreachable!() };
                if b.header.time >= cutoff {
                    return;
                }
                let b = self.pending_blocks.pop_front().expect("front exists");
                self.sink.on_block(&b);
            } else {
                let Some(s) = self.pending_snapshots.front() else { unreachable!() };
                if s.time >= cutoff {
                    return;
                }
                let s = self.pending_snapshots.pop_front().expect("front exists");
                self.sink.on_snapshot(&s);
                self.snapshots_emitted += 1;
            }
        }
    }
}

impl RunTap for StreamTap<'_> {
    fn block_connected(&mut self, world: &mut World) {
        let block = world.chain.blocks().last().expect("a block was just connected").clone();
        let cutoff = block.header.time;
        self.pending_blocks.push_back(block);
        self.drain_older_than(cutoff);
        let keep_from = world.chain.height().saturating_sub(PRUNE_KEEP_BLOCKS);
        world.chain.prune_below(keep_from);
    }

    fn snapshot_tick(&mut self, world: &mut World) {
        // At most one snapshot per tick lands in the primary stream (none
        // during an outage window); move it into the pending buffer.
        for snap in world.observer_streams[0].drain(..) {
            let cutoff = snap.time;
            self.pending_snapshots.push_back(snap);
            self.drain_older_than(cutoff);
        }
        // Fleet observers are not part of the logged stream; drop their
        // rows every tick so they cannot accumulate.
        for stream in world.observer_streams.iter_mut().skip(1) {
            stream.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::PoolConfig;

    fn quick_scenario(seed: u64) -> Scenario {
        let mut s = Scenario::base("world-test", seed);
        s.duration = 2 * 3_600;
        s.users = 60;
        s.congestion = crate::congestion::CongestionProfile::flat(0.8);
        // Small blocks so contention exists even in a short run.
        s.params.max_block_weight = 200_000;
        s
    }

    #[test]
    fn produces_blocks_and_snapshots() {
        let out = World::new(quick_scenario(1)).run();
        assert!(out.chain.height() > 3, "height {}", out.chain.height());
        assert!(out.observer_streams[0].len() > 100);
        assert!(out.chain.body_tx_count() > 100);
        assert_eq!(out.block_miners.len(), out.chain.height() as usize);
    }

    #[test]
    fn streamed_run_matches_monolithic_artifacts() {
        let out = World::new(quick_scenario(5)).run();
        let mut sink = crate::sink::CollectingSink::default();
        let summary = World::new(quick_scenario(5)).run_streamed(&mut sink);

        assert_eq!(summary.blocks, out.chain.height());
        assert_eq!(sink.blocks.len(), out.chain.height() as usize);
        for (streamed, monolithic) in sink.blocks.iter().zip(out.chain.blocks()) {
            assert_eq!(streamed.block_hash(), monolithic.block_hash());
        }
        assert_eq!(sink.snapshots, out.observer_streams[0]);
        assert_eq!(summary.snapshots as usize, out.observer_streams[0].len());
        assert_eq!(sink.seeds.len(), out.chain.seeded_transactions().len());

        // Canonical stream order: non-decreasing stamps, and within one
        // second every block precedes every snapshot (the batch
        // interleaver's tie-break).
        let stamps: Vec<(Timestamp, bool)> = sink
            .order
            .iter()
            .map(|&(is_block, i)| {
                if is_block {
                    (sink.blocks[i].header.time, true)
                } else {
                    (sink.snapshots[i].time, false)
                }
            })
            .collect();
        for w in stamps.windows(2) {
            assert!(w[0].0 <= w[1].0, "stream stamps regressed: {w:?}");
            if w[0].0 == w[1].0 {
                assert!(!w[1].1 || w[0].1, "snapshot emitted before a same-second block: {w:?}");
            }
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let a = World::new(quick_scenario(7)).run();
        let b = World::new(quick_scenario(7)).run();
        assert_eq!(a.chain.height(), b.chain.height());
        assert_eq!(a.chain.tip_hash(), b.chain.tip_hash());
        assert_eq!(a.observer_streams[0].len(), b.observer_streams[0].len());
        assert_eq!(a.block_miners, b.block_miners);
    }

    #[test]
    fn different_seeds_differ() {
        let a = World::new(quick_scenario(1)).run();
        let b = World::new(quick_scenario(2)).run();
        assert_ne!(a.chain.tip_hash(), b.chain.tip_hash());
    }

    #[test]
    fn hash_rate_shares_roughly_honored() {
        let mut s = quick_scenario(3);
        s.duration = 8 * 3_600; // more blocks for the share estimate
        let out = World::new(s).run();
        let total = out.block_miners.len() as f64;
        let share0 = out.block_miners.iter().filter(|&&m| m == 0).count() as f64 / total;
        // Pool 0 has 40% of the hash rate.
        assert!((share0 - 0.4).abs() < 0.15, "share {share0}");
    }

    #[test]
    fn self_interest_txs_recorded_and_mined() {
        let mut s = quick_scenario(4);
        s.self_interest_rate = 0.01;
        s.duration = 4 * 3_600;
        let out = World::new(s).run();
        let self_txs: usize =
            out.pool_names.iter().map(|n| out.truth.self_interest_txids(n).len()).sum();
        assert!(self_txs > 0, "no self-interest txs issued");
    }

    #[test]
    fn dark_fee_orders_recorded() {
        let mut s = quick_scenario(5);
        s.pools[1] = PoolConfig::honest("Beta", 0.35, 1)
            .with_behavior(PoolBehavior::DarkFee { premium: 1.5 });
        s.acceleration_demand = 0.05;
        let out = World::new(s).run();
        assert!(!out.truth.accelerated_txids().is_empty());
        let svc = out.services[1].as_ref().expect("provider service");
        assert!(svc.lock().order_count() > 0);
    }

    #[test]
    fn scam_donations_target_scam_address() {
        let mut s = quick_scenario(6);
        s.scam = Some(crate::scenario::ScamConfig {
            window_start: 600,
            window_end: 5_000,
            donation_prob: 0.1,
        });
        let out = World::new(s).run();
        let scam_txids = out.truth.scam_txids();
        assert!(!scam_txids.is_empty());
        let scam_addr = out.truth.scam_address().expect("set");
        // Every scam tx pays the scam address.
        for b in out.chain.blocks() {
            for tx in b.body() {
                if scam_txids.contains(&tx.txid()) {
                    assert!(tx.output_addresses().any(|a| a == scam_addr));
                }
            }
        }
    }

    #[test]
    fn empty_block_probability_respected() {
        let mut s = quick_scenario(9);
        s.empty_block_prob = 1.0;
        let out = World::new(s).run();
        assert!(out.chain.height() > 0);
        assert_eq!(
            out.chain.empty_block_count(),
            out.chain.height() as usize,
            "every block must be empty at probability 1"
        );
        let mut s = quick_scenario(9);
        s.empty_block_prob = 0.0;
        let out = World::new(s).run();
        // With steady traffic and p=0 only a drained mempool yields an
        // empty block; at this congestion level that never happens.
        assert!(out.chain.empty_block_count() < out.chain.height() as usize / 2);
    }

    #[test]
    fn chain_is_fully_valid_by_construction() {
        // connect() already validates; a completed run with blocks proves
        // the workload never produced an invalid spend. Assert fees add up.
        let out = World::new(quick_scenario(8)).run();
        assert!(out.chain.total_fees() > Amount::ZERO);
        assert_eq!(out.chain.records().len(), out.chain.blocks().len());
    }
}
