//! Scenario configuration: everything that varies between experiments.

use crate::congestion::CongestionProfile;
use cn_chain::{Params, Timestamp};
use cn_mempool::MempoolPolicy;
use cn_net::{AdversaryPlan, FaultPlan};
use serde::{Deserialize, Serialize};

/// One measurement node in the observer fleet.
///
/// The paper's two datasets came from two *differently configured* nodes
/// (𝒜: default policy, 8 peers; ℬ: no fee floor, 125 peers), and its
/// conclusions inherit whatever that one vantage point happened to see.
/// A fleet generalizes this: each observer gets its own peer count,
/// admission policy, Mempool cap, and latency tier, and the reconciliation
/// layer in `cn-core` merges their views.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ObserverConfig {
    /// Display label, used in reports and reconciliation output.
    pub label: String,
    /// Peer count — the node's degree in the P2P graph (8 for dataset
    /// 𝒜's default node, 125 for ℬ's).
    pub peers: usize,
    /// Mempool acceptance policy (dataset ℬ used `accept_all`).
    pub policy: MempoolPolicy,
    /// Mempool size cap in vbytes (Bitcoin Core's `-maxmempool`); worst
    /// descendant-rate packages are evicted beyond it. `None` = no cap.
    pub max_mempool_vsize: Option<u64>,
    /// Latency tier: multiplies the node's first-arrival delays. 1.0 is
    /// a well-connected datacenter node; >1.0 models a vantage point
    /// behind slow links (a home connection, a distant region).
    pub latency_factor: f64,
}

impl ObserverConfig {
    /// The paper's dataset-𝒜 analog: default policy, 8 peers, no cap —
    /// the single observer every pre-fleet scenario ran with.
    pub fn default_node() -> ObserverConfig {
        ObserverConfig {
            label: "obs0".into(),
            peers: 8,
            policy: MempoolPolicy::default(),
            max_mempool_vsize: None,
            latency_factor: 1.0,
        }
    }

    /// Renames the observer.
    pub fn named(mut self, label: impl Into<String>) -> ObserverConfig {
        self.label = label.into();
        self
    }
}

impl Default for ObserverConfig {
    fn default() -> ObserverConfig {
        ObserverConfig::default_node()
    }
}

/// A misbehaviour (or the absence of one) a pool can exhibit.
/// Behaviours compose — a pool may both self-accelerate and sell
/// dark-fee acceleration.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum PoolBehavior {
    /// Accelerate transactions touching the pool's own wallets (§5.2).
    SelfInterest,
    /// Accelerate transactions touching the named partner pools' wallets
    /// (the ViaBTC–1THash/SlushPool collusion of Table 2).
    Collude {
        /// Names of the partner pools whose transactions are favoured.
        partners: Vec<String>,
    },
    /// Operate a dark-fee acceleration service and honour its orders (§5.4).
    DarkFee {
        /// Quoting premium over the top of the Mempool (≥ 1.0).
        premium: f64,
    },
    /// Decelerate (or, with `exclude`, refuse) payments to the scam
    /// address (§5.3's hypothesis).
    CensorScam {
        /// Hard censorship instead of deprioritization.
        exclude: bool,
    },
}

/// One mining pool's configuration.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PoolConfig {
    /// Display name (also the coinbase marker tag).
    pub name: String,
    /// Relative hash rate (normalized across pools by the runner).
    pub hash_rate: f64,
    /// Number of reward wallets the pool rotates through (Figure 8a).
    pub wallet_count: usize,
    /// Misbehaviours, if any.
    pub behaviors: Vec<PoolBehavior>,
    /// When true, this pool's node accepts below-floor (even zero-fee)
    /// transactions — the §4.2.3 deviation observed for F2Pool, ViaBTC
    /// and BTC.com.
    pub accepts_low_fee: bool,
}

impl PoolConfig {
    /// A norm-following pool.
    pub fn honest(name: impl Into<String>, hash_rate: f64, wallet_count: usize) -> PoolConfig {
        PoolConfig {
            name: name.into(),
            hash_rate,
            wallet_count,
            behaviors: Vec::new(),
            accepts_low_fee: false,
        }
    }

    /// Adds a behaviour.
    pub fn with_behavior(mut self, b: PoolBehavior) -> PoolConfig {
        self.behaviors.push(b);
        self
    }

    /// Enables below-floor acceptance.
    pub fn accepting_low_fee(mut self) -> PoolConfig {
        self.accepts_low_fee = true;
        self
    }
}

/// The scam-attack sub-scenario (§5.3).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ScamConfig {
    /// Window start (seconds).
    pub window_start: Timestamp,
    /// Window end (seconds).
    pub window_end: Timestamp,
    /// Probability that a user transaction issued inside the window is a
    /// donation to the scam address.
    pub donation_prob: f64,
}

/// A complete simulation scenario.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Name, used in reports.
    pub name: String,
    /// RNG seed; same seed ⇒ identical output.
    pub seed: u64,
    /// Simulated duration in seconds.
    pub duration: Timestamp,
    /// Chain parameters.
    pub params: Params,
    /// The pool roster.
    pub pools: Vec<PoolConfig>,
    /// Transaction arrival-rate function.
    pub congestion: CongestionProfile,
    /// Observer snapshot cadence in seconds (the paper used 15).
    pub snapshot_interval: Timestamp,
    /// Every Nth snapshot carries per-transaction entries; the rest are
    /// aggregate-only. Detailed rows are what per-transaction analyses
    /// (violation pairs, first-seen times) consume; aggregates drive the
    /// congestion series. 1 = every snapshot detailed.
    pub snapshot_detail_every: u64,
    /// The observer fleet: one or more measurement nodes, each with its
    /// own peer count, policy, cap, and latency tier. The first entry is
    /// the *primary* observer — its stream is
    /// `SimOutput::observer_streams[0]`, and legacy [`FaultPlan`] observer
    /// faults (downtime, truncation) apply to it alone.
    pub observers: Vec<ObserverConfig>,
    /// Number of pure relay nodes in the P2P graph.
    pub relay_nodes: usize,
    /// Number of miner-hub nodes; pools attach round-robin. Fewer hubs
    /// than pools means some pools share a Mempool view (their policies
    /// still differ), trading view diversity for memory.
    pub miner_hubs: usize,
    /// Median per-link latency in seconds.
    pub link_latency_median: f64,
    /// Log-space sigma of per-link latency.
    pub link_latency_sigma: f64,
    /// Size of the user population.
    pub users: usize,
    /// Probability a user transaction spends a still-unconfirmed output
    /// (produces CPFP chains; Table 1 reports 19–26 %).
    pub cpfp_prob: f64,
    /// Probability a found block is mined empty — modelling SPV/stale-
    /// template mining, the source of the paper's ~1 % empty blocks.
    pub empty_block_prob: f64,
    /// Probability a user transaction offers a zero fee (only visible to
    /// no-floor nodes; §4.2.3).
    pub zero_fee_prob: f64,
    /// Per-pool rate (transactions per second) of self-interest transfers
    /// issued from pool wallets.
    pub self_interest_rate: f64,
    /// Probability a user transaction buys dark-fee acceleration instead
    /// of bidding publicly (requires a `DarkFee` pool).
    pub acceleration_demand: f64,
    /// Wallet consolidation threshold: when set, a payment whose funding
    /// wallet holds more than this many tracked outputs sweeps extra
    /// confirmed outputs (including dust) into the spend as additional
    /// inputs, so the live output population — and with it the UTXO set
    /// and the workload's ledger — stays bounded no matter how long the
    /// run is. `None` (the default) is bit-inert: every payment spends
    /// exactly one output, as before. Long-horizon scenarios (dataset-M)
    /// enable this so simulation memory is flat in chain length.
    pub wallet_consolidation: Option<usize>,
    /// Optional scam-attack window.
    pub scam: Option<ScamConfig>,
    /// Fault injection: link loss/latency spikes/duplicates, observer
    /// downtime and truncated detail dumps, stale-tip block races.
    /// [`FaultPlan::none`] (the default) is bit-inert: the run is
    /// identical to one without fault support compiled in.
    pub faults: FaultPlan,
    /// Adversarial observation scenarios aimed at the fleet: targeted
    /// eclipses, selectively-withholding peers, diffusion stalling.
    /// [`AdversaryPlan::none`] (the default) is bit-inert, like the
    /// fault plan.
    pub adversaries: AdversaryPlan,
}

impl Scenario {
    /// A small, fast scenario with sensible defaults — the starting point
    /// every test and example customizes.
    pub fn base(name: impl Into<String>, seed: u64) -> Scenario {
        Scenario {
            name: name.into(),
            seed,
            duration: 6 * 3_600,
            params: Params::mainnet(),
            pools: vec![
                PoolConfig::honest("Alpha", 0.4, 2),
                PoolConfig::honest("Beta", 0.35, 1),
                PoolConfig::honest("Gamma", 0.25, 1),
            ],
            congestion: CongestionProfile::flat(3.0),
            snapshot_interval: 15,
            snapshot_detail_every: 4,
            observers: vec![ObserverConfig::default_node()],
            relay_nodes: 12,
            miner_hubs: 3,
            link_latency_median: 1.5,
            link_latency_sigma: 0.6,
            users: 200,
            cpfp_prob: 0.12,
            empty_block_prob: 0.01,
            zero_fee_prob: 0.0,
            self_interest_rate: 0.002,
            acceleration_demand: 0.0,
            wallet_consolidation: None,
            scam: None,
            faults: FaultPlan::none(),
            adversaries: AdversaryPlan::none(),
        }
    }

    /// Normalized hash rate of pool `i`.
    pub fn normalized_hash_rate(&self, i: usize) -> f64 {
        let total: f64 = self.pools.iter().map(|p| p.hash_rate).sum();
        self.pools[i].hash_rate / total
    }

    /// Basic sanity checks, run by the world before starting.
    pub fn validate(&self) -> Result<(), String> {
        if self.pools.is_empty() {
            return Err("scenario needs at least one pool".into());
        }
        if self.pools.iter().map(|p| p.hash_rate).sum::<f64>() <= 0.0 {
            return Err("total hash rate must be positive".into());
        }
        if self.duration == 0 {
            return Err("duration must be positive".into());
        }
        if self.users == 0 {
            return Err("need at least one user".into());
        }
        if self.miner_hubs == 0 {
            return Err("need at least one miner hub".into());
        }
        if self.snapshot_detail_every == 0 {
            return Err("snapshot_detail_every must be at least 1".into());
        }
        if self.wallet_consolidation == Some(0) {
            return Err("wallet_consolidation threshold must be at least 1".into());
        }
        if self.observers.is_empty() {
            return Err("need at least one observer".into());
        }
        for (i, o) in self.observers.iter().enumerate() {
            if o.peers == 0 {
                return Err(format!("observer {i} ({}) needs at least one peer", o.label));
            }
            if !(o.latency_factor.is_finite() && o.latency_factor > 0.0) {
                return Err(format!(
                    "observer {i} ({}) latency_factor must be finite and positive, got {}",
                    o.label, o.latency_factor
                ));
            }
        }
        if !(0.0..=1.0).contains(&self.cpfp_prob)
            || !(0.0..=1.0).contains(&self.zero_fee_prob)
            || !(0.0..=1.0).contains(&self.acceleration_demand)
            || !(0.0..=1.0).contains(&self.empty_block_prob)
        {
            return Err("probabilities must be in [0,1]".into());
        }
        for p in &self.pools {
            for b in &p.behaviors {
                if let PoolBehavior::Collude { partners } = b {
                    for partner in partners {
                        if !self.pools.iter().any(|q| &q.name == partner) {
                            return Err(format!("{} colludes with unknown pool {partner}", p.name));
                        }
                    }
                }
            }
        }
        if let Some(scam) = &self.scam {
            if scam.window_end <= scam.window_start {
                return Err("empty scam window".into());
            }
            if !(0.0..=1.0).contains(&scam.donation_prob) {
                return Err("donation_prob must be in [0,1]".into());
            }
        }
        self.faults.validate().map_err(|e| e.to_string())?;
        self.adversaries.validate(self.observers.len()).map_err(|e| e.to_string())?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_scenario_validates() {
        assert_eq!(Scenario::base("t", 1).validate(), Ok(()));
    }

    #[test]
    fn normalized_rates_sum_to_one() {
        let s = Scenario::base("t", 1);
        let total: f64 = (0..s.pools.len()).map(|i| s.normalized_hash_rate(i)).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn unknown_collusion_partner_rejected() {
        let mut s = Scenario::base("t", 1);
        s.pools[0] = s.pools[0]
            .clone()
            .with_behavior(PoolBehavior::Collude { partners: vec!["Nobody".into()] });
        assert!(s.validate().is_err());
    }

    #[test]
    fn degenerate_configs_rejected() {
        let mut s = Scenario::base("t", 1);
        s.pools.clear();
        assert!(s.validate().is_err());

        let mut s = Scenario::base("t", 1);
        s.duration = 0;
        assert!(s.validate().is_err());

        let mut s = Scenario::base("t", 1);
        s.cpfp_prob = 1.5;
        assert!(s.validate().is_err());

        let mut s = Scenario::base("t", 1);
        s.scam = Some(ScamConfig { window_start: 10, window_end: 10, donation_prob: 0.5 });
        assert!(s.validate().is_err());
    }

    #[test]
    fn invalid_fault_plan_rejected() {
        let mut s = Scenario::base("t", 1);
        s.faults.link.loss_prob = 2.0;
        assert!(s.validate().is_err());

        let mut s = Scenario::base("t", 1);
        s.faults = FaultPlan::scaled(0.5);
        assert_eq!(s.validate(), Ok(()));
    }

    #[test]
    fn fleet_configs_validate() {
        let mut s = Scenario::base("t", 1);
        s.observers = vec![
            ObserverConfig::default_node(),
            ObserverConfig { peers: 125, latency_factor: 2.5, ..ObserverConfig::default_node() }
                .named("obs-b"),
        ];
        assert_eq!(s.validate(), Ok(()));

        let mut s = Scenario::base("t", 1);
        s.observers.clear();
        assert!(s.validate().is_err());

        let mut s = Scenario::base("t", 1);
        s.observers[0].peers = 0;
        assert!(s.validate().is_err());

        let mut s = Scenario::base("t", 1);
        s.observers[0].latency_factor = f64::NAN;
        assert!(s.validate().is_err());
    }

    #[test]
    fn adversaries_must_target_real_observers() {
        use cn_net::EclipseWindow;
        let mut s = Scenario::base("t", 1);
        s.adversaries.eclipses.push(EclipseWindow { observer: 3, start_secs: 0, end_secs: 60 });
        assert!(s.validate().is_err(), "eclipse targets a non-existent observer");
        s.observers = (0..4).map(|i| ObserverConfig::default_node().named(format!("o{i}"))).collect();
        assert_eq!(s.validate(), Ok(()));
    }

    #[test]
    fn builder_helpers_compose() {
        let p = PoolConfig::honest("X", 0.1, 2)
            .with_behavior(PoolBehavior::SelfInterest)
            .with_behavior(PoolBehavior::DarkFee { premium: 2.0 })
            .accepting_low_fee();
        assert_eq!(p.behaviors.len(), 2);
        assert!(p.accepts_low_fee);
    }
}
