//! Scenario constructors for the paper's three datasets.
//!
//! **Scaling.** The real datasets span weeks to a year of mainnet at
//! 1 MvB blocks and millions of transactions; a library test suite cannot
//! replay that. Every constructor therefore scales two knobs *together*,
//! preserving the ratios the findings depend on:
//!
//! * block capacity: 100 kvB (a tenth of mainnet) — so blocks still hold
//!   hundreds of transactions and position statistics are meaningful;
//! * arrival rate: calibrated against that capacity to reproduce each
//!   dataset's congestion profile (𝒜 ~75 % congested, ℬ ~92 % with price
//!   surge bursts, 𝒞 mixed).
//!
//! Wall-clock spans shrink from weeks to days ([`Scale::Full`]) or hours
//! ([`Scale::Quick`]); EXPERIMENTS.md records the resulting counts next
//! to the paper's.

use crate::pools::{roster_2019_a, roster_2019_b, roster_2020};
use cn_chain::{Params, Timestamp};
use cn_mempool::MempoolPolicy;
use cn_net::FaultPlan;
use cn_sim::congestion::CongestionProfile;
use cn_sim::scenario::{ObserverConfig, PoolBehavior, ScamConfig, Scenario};

/// How much simulated time to spend.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Hours — for unit/integration tests.
    Quick,
    /// Days — for the experiment harness and benches.
    Full,
    /// Weeks — the `megasim` scale tier (thousands of blocks through the
    /// event-log path). The standard datasets treat this like [`Full`](Scale::Full);
    /// only [`dataset_mega`]'s block-count targets stretch with it.
    Large,
}

impl Scale {
    fn duration(self, quick: Timestamp, full: Timestamp) -> Timestamp {
        match self {
            Scale::Quick => quick,
            Scale::Full | Scale::Large => full,
        }
    }

    /// Detailed-snapshot stride: every snapshot at Quick scale, one per
    /// five minutes at Full scale (memory: a year of 15-second
    /// per-transaction rows does not fit an ordinary machine; the paper's
    /// own released dataset faced the same constraint).
    fn snapshot_detail_every(self) -> u64 {
        match self {
            Scale::Quick => 4,
            Scale::Full | Scale::Large => 20,
        }
    }
}

/// Scaled-down chain parameters shared by all datasets: 100 kvB blocks.
pub fn scaled_params() -> Params {
    Params { max_block_weight: 400_000, ..Params::mainnet() }
}

/// Dataset 𝒜: default observer node (8 peers, fee floor on), moderate
/// congestion with diurnal waves (paper: congested ~75 % of the time).
pub fn dataset_a(scale: Scale) -> Scenario {
    let mut s = Scenario::base("dataset-A", 0xA11CE);
    s.params = scaled_params();
    s.duration = scale.duration(6 * 3_600, 72 * 3_600);
    s.pools = roster_2019_a().iter().map(|p| p.honest()).collect();
    s.congestion = CongestionProfile::diurnal(0.56, 0.45)
        .with_burst(s.duration / 5, s.duration / 5 + s.duration / 18, 2.2)
        .with_burst(3 * s.duration / 5, 3 * s.duration / 5 + s.duration / 24, 2.0);
    s.observers = vec![ObserverConfig {
        label: "A-default".into(),
        peers: 8,
        policy: MempoolPolicy::default(),
        max_mempool_vsize: Some(25 * s.params.max_block_vsize()),
        latency_factor: 1.0,
    }];
    s.snapshot_detail_every = scale.snapshot_detail_every();
    s.relay_nodes = 16;
    s.miner_hubs = 3;
    s.users = 300;
    s.cpfp_prob = 0.47; // realizes as ~26% same-block CPFP (Table 1)
    s.empty_block_prob = 0.012; // Table 1: 38 empty of 3119
    s.zero_fee_prob = 0.0;
    s.self_interest_rate = 0.0;
    s.acceleration_demand = 0.0;
    s
}

/// Dataset ℬ: well-connected observer (125 peers), **no fee floor**
/// (zero-fee transactions visible), heavier congestion with price-surge
/// bursts (paper: congested ~92 % of the time, June 2019 Libra surge).
pub fn dataset_b(scale: Scale) -> Scenario {
    let mut s = Scenario::base("dataset-B", 0xB0B);
    s.params = scaled_params();
    s.duration = scale.duration(6 * 3_600, 72 * 3_600);
    s.pools = roster_2019_b()
        .iter()
        .map(|p| {
            // §4.2.3: F2Pool, ViaBTC and BTC.com confirmed below-floor
            // transactions.
            let low_fee = matches!(p.name, "F2Pool" | "ViaBTC" | "BTC.com");
            p.with(Vec::new(), low_fee)
        })
        .collect();
    s.congestion = CongestionProfile::diurnal(0.56, 0.40)
        .with_burst(s.duration / 4, s.duration / 4 + s.duration / 12, 2.8)
        .with_burst(2 * s.duration / 3, 2 * s.duration / 3 + s.duration / 14, 3.2);
    s.observers = vec![ObserverConfig {
        label: "B-wideopen".into(),
        peers: 125,
        policy: MempoolPolicy::accept_all(),
        max_mempool_vsize: Some(25 * s.params.max_block_vsize()),
        latency_factor: 1.0,
    }];
    s.snapshot_detail_every = scale.snapshot_detail_every();
    s.relay_nodes = 16;
    s.miner_hubs = 3;
    s.users = 300;
    s.cpfp_prob = 0.40; // realizes as ~23% same-block CPFP
    s.empty_block_prob = 0.004; // Table 1: 18 of 4520
    s.zero_fee_prob = 0.0006; // the paper saw 1084 below-floor txs in a month
    s.self_interest_rate = 0.0;
    s.acceleration_demand = 0.0;
    s
}

/// Dataset 𝒞: the 2020 audit target, with every misbehaviour the paper
/// detected injected as ground truth:
///
/// * **Self-interest acceleration** by F2Pool, ViaBTC, 1THash & 58Coin,
///   and SlushPool (Table 2);
/// * **Collusion**: ViaBTC also accelerates 1THash & 58Coin's and
///   SlushPool's transactions (Table 2);
/// * **Dark-fee services** operated by BTC.com, AntPool, ViaBTC, F2Pool
///   and Poolin (§5.4.1), with public under-bidding demand;
/// * **Below-floor acceptance** by F2Pool, ViaBTC and BTC.com (§4.2.3);
/// * the **Twitter-scam window** with no pool treating scam payments
///   differently (Table 3's null result).
pub fn dataset_c(scale: Scale) -> Scenario {
    let mut s = Scenario::base("dataset-C", 0xC0DE);
    s.params = scaled_params();
    s.duration = scale.duration(12 * 3_600, 7 * 24 * 3_600);
    let premium = 1.5;
    s.pools = roster_2020()
        .iter()
        .map(|p| {
            let mut behaviors = Vec::new();
            match p.name {
                "F2Pool" => {
                    behaviors.push(PoolBehavior::SelfInterest);
                    behaviors.push(PoolBehavior::DarkFee { premium });
                }
                "ViaBTC" => {
                    behaviors.push(PoolBehavior::SelfInterest);
                    behaviors.push(PoolBehavior::Collude {
                        partners: vec!["1THash & 58Coin".into(), "SlushPool".into()],
                    });
                    behaviors.push(PoolBehavior::DarkFee { premium });
                }
                "1THash & 58Coin" => behaviors.push(PoolBehavior::SelfInterest),
                "SlushPool" => behaviors.push(PoolBehavior::SelfInterest),
                "BTC.com" | "AntPool" | "Poolin" => {
                    behaviors.push(PoolBehavior::DarkFee { premium });
                }
                _ => {}
            }
            let low_fee = matches!(p.name, "F2Pool" | "ViaBTC" | "BTC.com");
            p.with(behaviors, low_fee)
        })
        .collect();
    s.congestion = CongestionProfile::diurnal(0.48, 0.45)
        .with_burst(s.duration / 6, s.duration / 6 + s.duration / 20, 2.4)
        .with_burst(s.duration / 2, s.duration / 2 + s.duration / 26, 2.0)
        .with_burst(4 * s.duration / 5, 4 * s.duration / 5 + s.duration / 20, 2.6);
    s.observers = vec![ObserverConfig {
        label: "C-default".into(),
        peers: 8,
        policy: MempoolPolicy::default(),
        max_mempool_vsize: Some(25 * s.params.max_block_vsize()),
        latency_factor: 1.0,
    }];
    s.snapshot_detail_every = scale.snapshot_detail_every();
    s.relay_nodes = 16;
    s.miner_hubs = 4;
    s.users = 400;
    s.cpfp_prob = 0.36; // realizes as ~19% same-block CPFP (Table 1)
    s.empty_block_prob = 0.0045; // Table 1: 240 of 53214
    s.zero_fee_prob = 0.0003;
    // Every pool routinely moves its own funds (Figure 8b).
    s.self_interest_rate = 1.0 / 500.0;
    s.acceleration_demand = 0.012;
    // Twitter-scam window (July 15, 2020 analog): a day in the middle.
    let window_start = s.duration * 2 / 5;
    s.scam = Some(ScamConfig {
        window_start,
        window_end: window_start + s.duration / 7,
        donation_prob: 0.004,
    });
    s
}

/// Dataset ℳ ("mega"): the scale-tier scenario behind the `megasim`
/// experiment. Unlike 𝒜/ℬ/𝒞 it is not calibrated against a paper table;
/// it exists to make chain *length* the only variable under test, so the
/// per-block knobs are deliberately lean — quarter-size blocks, a small
/// cast, sparse snapshots — and the span is set by a block-count target
/// (`target_blocks × target_spacing`). The simulate-and-audit pipeline
/// runs it through the event-log path ([`crate::log`]) at two tiers and
/// asserts peak RSS stays flat in the target.
pub fn dataset_mega(target_blocks: u64) -> Scenario {
    let mut s = Scenario::base("dataset-M", 0x3E6A);
    // 25 kvB blocks: positions still span dozens of slots, but per-block
    // simulation cost is a quarter of the calibrated datasets'.
    s.params = Params { max_block_weight: 100_000, ..Params::mainnet() };
    s.duration = target_blocks * s.params.target_spacing_secs;
    s.pools = roster_2019_a().iter().map(|p| p.honest()).collect();
    // Arrival rate matched to the quarter-size blocks: ~0.10 tx/s against
    // ~41.7 vB/s of capacity keeps mean utilization near two thirds, so
    // diurnal peaks oversubscribe briefly but troughs always drain the
    // backlog. (0.52 — dataset-𝒜's rate against full-size blocks — would
    // oversubscribe 4× here and grow the mempool without bound.)
    s.congestion = CongestionProfile::diurnal(0.10, 0.35);
    s.observers = vec![ObserverConfig {
        label: "M-default".into(),
        peers: 8,
        policy: MempoolPolicy::default(),
        max_mempool_vsize: Some(25 * s.params.max_block_vsize()),
        latency_factor: 1.0,
    }];
    // Sparse sampling: one snapshot a minute, one detailed per ten — the
    // log path's row volume grows with the run regardless, which is the
    // point.
    s.snapshot_interval = 60;
    s.snapshot_detail_every = 10;
    s.relay_nodes = 8;
    s.miner_hubs = 2;
    s.users = 120;
    s.cpfp_prob = 0.3;
    s.empty_block_prob = 0.01;
    s.zero_fee_prob = 0.0;
    // A trickle of pool-wallet self-spends, so coinbase rewards re-enter
    // circulation instead of accruing one unspent output per block for
    // the whole run (pool wallets consolidate like user wallets do).
    s.self_interest_rate = 0.002;
    s.acceleration_demand = 0.0;
    // The load-bearing knob: without consolidation every payment nets one
    // new live output, so the UTXO set — and sim RSS with it — grows
    // linearly in the block target. Sweeping wallets back down to a dozen
    // outputs caps the live population at ~users × threshold.
    s.wallet_consolidation = Some(12);
    s
}

/// Dataset 𝒞 observed through a *realistically broken* measurement
/// pipeline: the same chain-side misbehaviours as [`dataset_c`], but the
/// observation layer degrades at a calibrated moderate fault intensity —
/// lossy and spiky relay links, duplicated/reordered deliveries, three
/// observer outages, truncated detail dumps, and stale-tip orphans. The
/// robustness experiment sweeps the intensity knob; this constructor
/// pins the single reference point used by tests and docs.
pub fn dataset_faulty(scale: Scale) -> Scenario {
    let mut s = dataset_c(scale);
    s.name = "dataset-faulty".into();
    s.seed = 0xFA017;
    s.faults = FaultPlan::scaled(0.35);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_datasets_validate() {
        for scale in [Scale::Quick, Scale::Full, Scale::Large] {
            assert_eq!(dataset_a(scale).validate(), Ok(()));
            assert_eq!(dataset_b(scale).validate(), Ok(()));
            assert_eq!(dataset_c(scale).validate(), Ok(()));
            assert_eq!(dataset_faulty(scale).validate(), Ok(()));
        }
        assert_eq!(dataset_mega(52).validate(), Ok(()));
    }

    #[test]
    fn mega_duration_tracks_the_block_target() {
        let small = dataset_mega(52);
        let large = dataset_mega(5_200);
        assert_eq!(small.duration, 52 * small.params.target_spacing_secs);
        assert_eq!(large.duration, 100 * small.duration);
        // Everything but the span is tier-invariant: the two tiers must
        // differ only in chain length for the flat-RSS comparison to mean
        // anything.
        assert_eq!(small.pools, large.pools);
        assert_eq!(small.seed, large.seed);
        assert_eq!(small.users, large.users);
        assert_eq!(small.snapshot_interval, large.snapshot_interval);
    }

    #[test]
    fn faulty_dataset_is_dataset_c_plus_faults() {
        let c = dataset_c(Scale::Quick);
        let f = dataset_faulty(Scale::Quick);
        assert!(!c.faults.enabled());
        assert!(f.faults.enabled());
        assert_eq!(f.pools, c.pools, "same misbehaviour ground truth");
        assert_eq!(f.duration, c.duration);
        assert!(f.faults.observer.downtime_frac > 0.0);
        assert!(f.faults.stale_tip_prob > 0.0);
    }

    #[test]
    fn dataset_b_is_laxer_and_better_connected() {
        let a = dataset_a(Scale::Quick);
        let b = dataset_b(Scale::Quick);
        assert_eq!(a.observers[0].policy, MempoolPolicy::default());
        assert_eq!(b.observers[0].policy, MempoolPolicy::accept_all());
        assert!(b.observers[0].peers > a.observers[0].peers);
        assert!(b.congestion.max_rate() > a.congestion.max_rate());
        assert!(b.zero_fee_prob > 0.0);
    }

    #[test]
    fn dataset_c_wires_the_misbehaviours() {
        let c = dataset_c(Scale::Quick);
        let by_name = |n: &str| c.pools.iter().find(|p| p.name == n).expect("in roster");
        assert!(by_name("ViaBTC")
            .behaviors
            .iter()
            .any(|b| matches!(b, PoolBehavior::Collude { partners } if partners.len() == 2)));
        assert!(by_name("SlushPool")
            .behaviors
            .iter()
            .any(|b| matches!(b, PoolBehavior::SelfInterest)));
        assert!(by_name("BTC.com")
            .behaviors
            .iter()
            .any(|b| matches!(b, PoolBehavior::DarkFee { .. })));
        assert!(by_name("AntPool").behaviors.iter().all(|b| !matches!(b, PoolBehavior::SelfInterest)));
        assert!(by_name("F2Pool").accepts_low_fee);
        assert!(!by_name("Poolin").accepts_low_fee);
        assert!(c.scam.is_some());
        assert!(c.acceleration_demand > 0.0);
    }

    #[test]
    fn scale_changes_duration_only() {
        let quick = dataset_a(Scale::Quick);
        let full = dataset_a(Scale::Full);
        assert!(full.duration > quick.duration);
        assert_eq!(quick.pools, full.pools);
        assert_eq!(quick.seed, full.seed);
    }

    #[test]
    fn scaled_params_keep_ratios() {
        let p = scaled_params();
        assert_eq!(p.max_block_vsize(), 100_000);
        assert_eq!(p.target_spacing_secs, 600);
    }
}
