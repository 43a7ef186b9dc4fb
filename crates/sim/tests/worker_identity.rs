//! Run-to-run byte-identity of the simulator: the same scenario run twice
//! in one process must produce exactly the same artifacts — chain,
//! snapshot streams, miner sequence, and event counters. Every `World`
//! runs on the calling thread, so what varies between the two runs is the
//! process-random seed of each std `HashMap` the run builds; a result that
//! leaked hash-iteration order would differ here. Each scenario targets
//! one path: every pre-drawn transaction field, same-millisecond fan-outs,
//! faulted partial deliveries, and a fleet of views connecting each block.

use cn_net::FaultPlan;
use cn_sim::scenario::ObserverConfig;
use cn_sim::{
    CongestionProfile, PoolBehavior, PoolConfig, ScamConfig, Scenario, SimOutput, World,
};
use proptest::prelude::*;

fn scenario(seed: u64) -> Scenario {
    let mut s = Scenario::base("worker-identity", seed);
    s.duration = 2 * 3_600;
    s.users = 60;
    s.congestion = CongestionProfile::flat(0.8);
    // Small blocks so contention exists even in a short run.
    s.params.max_block_weight = 200_000;
    s
}

/// A scenario exercising every pre-drawn field: scam flips, acceleration
/// demand with a dark-fee provider, zero-fee deviants, CPFP, and pool
/// self-transfers.
fn full_feature_scenario(seed: u64) -> Scenario {
    let mut s = scenario(seed);
    s.pools[1] = PoolConfig::honest("Beta", 0.35, 1)
        .with_behavior(PoolBehavior::DarkFee { premium: 1.5 });
    s.acceleration_demand = 0.05;
    s.zero_fee_prob = 0.02;
    s.self_interest_rate = 0.01;
    s.scam = Some(ScamConfig { window_start: 600, window_end: 5_000, donation_prob: 0.1 });
    s
}

fn assert_identical(first: &SimOutput, second: &SimOutput) {
    assert_eq!(first.chain.tip_hash(), second.chain.tip_hash());
    assert_eq!(first.chain.height(), second.chain.height());
    assert_eq!(first.block_miners, second.block_miners);
    assert_eq!(first.observer_streams, second.observer_streams);
    assert_eq!(first.orphaned_blocks, second.orphaned_blocks);
    assert_eq!(first.profile.user_txs, second.profile.user_txs);
    assert_eq!(first.profile.self_txs, second.profile.self_txs);
    assert_eq!(first.profile.deliveries, second.profile.deliveries);
    assert_eq!(first.profile.events_popped, second.profile.events_popped);
    assert_eq!(first.profile.admission_precheck_hits, second.profile.admission_precheck_hits);
}

/// Runs `scenario` twice, asserts the two runs' artifacts are identical,
/// and returns the first for the caller's coverage checks.
fn run_twice(scenario: &Scenario) -> SimOutput {
    let first = World::new(scenario.clone()).run();
    let second = World::new(scenario.clone()).run();
    assert_identical(&first, &second);
    first
}

#[test]
fn full_feature_scenario_is_worker_invariant() {
    let run = run_twice(&full_feature_scenario(41));
    assert!(run.profile.user_txs > 100, "scenario must generate real traffic");
    assert!(run.profile.self_txs > 0, "scenario must exercise self-transfers");
    assert!(!run.truth.accelerated_txids().is_empty(), "must exercise provider draws");
}

/// Near-zero link latency collapses every broadcast's fan-out onto one
/// millisecond (delivery delays floor at `now + 1`), so deliveries of
/// different transactions and to different views tie on due time
/// constantly and pop in insertion order.
fn floored_latency_scenario(seed: u64) -> Scenario {
    let mut s = scenario(seed);
    s.link_latency_median = 1e-9;
    s.link_latency_sigma = 1e-6;
    // Extra node views so one broadcast fans to several pools at once.
    s.observers = (0..3).map(|i| ObserverConfig::default_node().named(format!("o{i}"))).collect();
    s.relay_nodes = 2;
    s
}

/// Same-millisecond fan-outs: tied delivery times must pop in the same
/// order on every run.
#[test]
fn floored_latency_fanout_is_worker_invariant() {
    let run = run_twice(&floored_latency_scenario(7));
    assert!(run.profile.admission_precheck_hits > 0, "fan-out must reuse the relay precheck memo");
}

/// Same-millisecond fan-outs under an aggressive fault plan: losses carve
/// partial fan-outs (some nodes never see a tx), duplicates re-deliver
/// into pools that already hold the tx, and reorder jitter shuffles pop
/// order. Both runs must agree through all of it.
#[test]
fn faulted_partial_deliveries_are_worker_invariant() {
    let mut s = floored_latency_scenario(11);
    s.faults = FaultPlan::scaled(0.6);
    let run = run_twice(&s);
    assert!(run.profile.deliveries > 0, "faulted run must still deliver");
}

/// Per-view block ticks: every mined block connects on all node
/// mempools, so a run with a fleet of views exercises eviction across
/// many views on every block. Chain, streams, and counters must repeat.
#[test]
fn parallel_block_tick_is_worker_invariant() {
    let mut s = full_feature_scenario(19);
    s.observers = (0..4).map(|i| ObserverConfig::default_node().named(format!("v{i}"))).collect();
    s.relay_nodes = 3;
    let run = run_twice(&s);
    assert!(run.profile.blocks > 0, "scenario must mine blocks");
    assert!(run.chain.height() > 0, "blocks must connect");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    // Randomized: any seed, bit-identical output on every run.
    #[test]
    fn any_worker_count_matches_serial(seed in 0u64..1_000_000) {
        run_twice(&scenario(seed));
    }
}
