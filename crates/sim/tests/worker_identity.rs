//! Byte-identity of the simulator's fork-join work (sharded workload
//! pre-generation and the per-view block connect): the same scenario run
//! at any fork-join worker count must produce exactly the same artifacts
//! as the serial loop — chain, snapshot streams, miner sequence, and
//! event counters. This is the determinism-join contract (DESIGN.md §8)
//! enforced end-to-end through the simulator.

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

fn assert_identical(serial: &SimOutput, parallel: &SimOutput, workers: usize) {
    assert_eq!(serial.chain.tip_hash(), parallel.chain.tip_hash(), "workers={workers}");
    assert_eq!(serial.chain.height(), parallel.chain.height(), "workers={workers}");
    assert_eq!(serial.block_miners, parallel.block_miners, "workers={workers}");
    assert_eq!(serial.snapshots, parallel.snapshots, "workers={workers}");
    assert_eq!(serial.observer_streams, parallel.observer_streams, "workers={workers}");
    assert_eq!(serial.orphaned_blocks, parallel.orphaned_blocks, "workers={workers}");
    assert_eq!(serial.profile.user_txs, parallel.profile.user_txs, "workers={workers}");
    assert_eq!(serial.profile.self_txs, parallel.profile.self_txs, "workers={workers}");
    assert_eq!(serial.profile.deliveries, parallel.profile.deliveries, "workers={workers}");
    assert_eq!(serial.profile.events_popped, parallel.profile.events_popped, "workers={workers}");
    assert_eq!(
        serial.profile.admission_precheck_hits, parallel.profile.admission_precheck_hits,
        "workers={workers}"
    );
}

#[test]
fn full_feature_scenario_is_worker_invariant() {
    let serial = World::new(full_feature_scenario(41)).with_workers(1).run();
    assert!(serial.profile.user_txs > 100, "scenario must generate real traffic");
    assert!(serial.profile.self_txs > 0, "scenario must exercise self-transfers");
    assert!(!serial.truth.accelerated_txids().is_empty(), "must exercise provider draws");
    for workers in [2, 3, 8] {
        let parallel = World::new(full_feature_scenario(41)).with_workers(workers).run();
        assert_identical(&serial, &parallel, workers);
    }
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

/// Same-millisecond fan-outs at widths 1–8: pre-generation and the
/// per-view block connect must not change a single byte of output.
#[test]
fn floored_latency_fanout_is_worker_invariant() {
    let serial = World::new(floored_latency_scenario(7)).with_workers(1).run();
    let p = &serial.profile;
    assert!(p.admission_precheck_hits > 0, "fan-out must reuse the relay precheck memo");
    for workers in [2, 3, 5, 8] {
        let parallel = World::new(floored_latency_scenario(7)).with_workers(workers).run();
        assert_identical(&serial, &parallel, workers);
    }
}

/// Same-millisecond fan-outs under an aggressive fault plan: losses carve
/// partial fan-outs (some nodes never see a tx), duplicates re-deliver
/// into pools that already hold the tx, and reorder jitter shuffles pop
/// order. Every width must agree with serial through all of it.
#[test]
fn faulted_partial_deliveries_are_worker_invariant() {
    let faulted = |seed| {
        let mut s = floored_latency_scenario(seed);
        s.faults = FaultPlan::scaled(0.6);
        s
    };
    let serial = World::new(faulted(11)).with_workers(1).run();
    assert!(serial.profile.deliveries > 0, "faulted run must still deliver");
    for workers in [2, 4, 8] {
        let parallel = World::new(faulted(11)).with_workers(workers).run();
        assert_identical(&serial, &parallel, workers);
    }
}

/// Parallel per-pool block ticks at widths 1–8: every mined block fans
/// `apply_block` across all node mempools on the worker pool, so a run
/// with a fleet of views exercises the parallel eviction path on every
/// block. Chain, streams, and counters must be width-invariant.
#[test]
fn parallel_block_tick_is_worker_invariant() {
    let fleet = |seed| {
        let mut s = full_feature_scenario(seed);
        s.observers =
            (0..4).map(|i| ObserverConfig::default_node().named(format!("v{i}"))).collect();
        s.relay_nodes = 3;
        s
    };
    let serial = World::new(fleet(19)).with_workers(1).run();
    assert!(serial.profile.blocks > 0, "scenario must mine blocks");
    assert!(serial.chain.height() > 0, "blocks must connect");
    for workers in [2, 6, 8] {
        let parallel = World::new(fleet(19)).with_workers(workers).run();
        assert_identical(&serial, &parallel, workers);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    // Randomized: any seed, any worker count 2..=8, bit-identical output.
    #[test]
    fn any_worker_count_matches_serial(seed in 0u64..1_000_000, workers in 2usize..=8) {
        let serial = World::new(scenario(seed)).with_workers(1).run();
        let parallel = World::new(scenario(seed)).with_workers(workers).run();
        assert_identical(&serial, &parallel, workers);
    }
}
