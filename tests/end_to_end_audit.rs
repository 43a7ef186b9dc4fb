//! End-to-end pipeline tests: simulate worlds with known misbehaviour and
//! assert the audit toolkit detects exactly it.

use chain_neutrality::audit::darkfee::score_detector;
use chain_neutrality::audit::self_interest::find_self_interest_transactions;
use chain_neutrality::prelude::*;
use chain_neutrality::sim::congestion::CongestionProfile;

/// A congested three-pool world; `misbehave` controls whether pool
/// "Target" self-accelerates.
fn world(misbehave: bool, seed: u64) -> SimOutput {
    let mut scenario = Scenario::base(if misbehave { "cheat" } else { "fair" }, seed);
    scenario.duration = 20 * 3_600;
    scenario.params.max_block_weight = 400_000;
    scenario.congestion = CongestionProfile::flat(0.95);
    scenario.self_interest_rate = 0.012;
    scenario.pools = vec![
        PoolConfig::honest("Whale", 0.45, 2),
        PoolConfig::honest("Middle", 0.33, 1),
        if misbehave {
            PoolConfig::honest("Target", 0.22, 2).with_behavior(PoolBehavior::SelfInterest)
        } else {
            PoolConfig::honest("Target", 0.22, 2)
        },
    ];
    World::new(scenario).run()
}

#[test]
fn self_acceleration_detected_and_null_respected() {
    let cheating = world(true, 11);
    let index = ChainIndex::build(&cheating.chain);
    let attribution = attribute(&index);
    let c_txids = find_self_interest_transactions(&cheating.chain, &attribution)
        .of("Target")
        .cloned()
        .unwrap_or_default();
    assert!(c_txids.len() > 30, "enough self-interest txs: {}", c_txids.len());
    let theta0 = attribution.hash_rate("Target").expect("attributed");
    let test = differential_prioritization(&index, &c_txids, "Target", theta0);
    // The cheater is over-represented among its own transactions' blocks.
    assert!(
        test.p_accelerate < 0.05,
        "cheater must look suspicious: x={} y={} p={}",
        test.x,
        test.y,
        test.p_accelerate
    );
    let sppe = sppe_for_miner(&index, &c_txids, "Target").expect("some own blocks");
    assert!(sppe > 40.0, "accelerated txs ride on top: SPPE = {sppe}");

    // The same test on the same pool in an honest world stays quiet.
    let fair = world(false, 11);
    let index = ChainIndex::build(&fair.chain);
    let attribution = attribute(&index);
    let c_txids = find_self_interest_transactions(&fair.chain, &attribution)
        .of("Target")
        .cloned()
        .unwrap_or_default();
    let theta0 = attribution.hash_rate("Target").expect("attributed");
    let test = differential_prioritization(&index, &c_txids, "Target", theta0);
    assert!(test.p_accelerate > 0.01, "honest pool must not be flagged: p = {}", test.p_accelerate);
    if let Some(sppe) = sppe_for_miner(&index, &c_txids, "Target") {
        assert!(sppe.abs() < 40.0, "honest SPPE should be modest: {sppe}");
    }
}

#[test]
fn honest_pools_not_flagged_in_cheating_world() {
    let out = world(true, 12);
    let index = ChainIndex::build(&out.chain);
    let attribution = attribute(&index);
    let self_map = find_self_interest_transactions(&out.chain, &attribution);
    for honest in ["Whale", "Middle"] {
        let Some(c_txids) = self_map.of(honest) else { continue };
        let theta0 = attribution.hash_rate(honest).expect("attributed");
        let test = differential_prioritization(&index, c_txids, honest, theta0);
        assert!(
            !test.accelerates_at(0.001),
            "{honest} wrongly flagged: x={} y={} p={}",
            test.x,
            test.y,
            test.p_accelerate
        );
    }
}

#[test]
fn attribution_matches_simulator_ground_truth() {
    let out = world(false, 13);
    let index = ChainIndex::build(&out.chain);
    assert_eq!(index.len(), out.block_miners.len());
    for (height, &miner_idx) in out.block_miners.iter().enumerate() {
        let attributed = index
            .block(height as u64)
            .and_then(|b| b.miner.clone())
            .expect("every simulated block is marked");
        assert_eq!(attributed, out.pool_names[miner_idx], "height {height}");
    }
}

#[test]
fn dark_fee_detector_scores_well() {
    let mut scenario = Scenario::base("darkfee-e2e", 21);
    scenario.duration = 10 * 3_600;
    scenario.params.max_block_weight = 400_000;
    scenario.congestion = CongestionProfile::flat(0.8);
    scenario.acceleration_demand = 0.02;
    scenario.pools = vec![
        PoolConfig::honest("Honest", 0.6, 2),
        PoolConfig::honest("Seller", 0.4, 1).with_behavior(PoolBehavior::DarkFee { premium: 1.5 }),
    ];
    let out = World::new(scenario).run();
    let index = ChainIndex::build(&out.chain);
    assert!(!out.truth.accelerated_txids().is_empty(), "demand existed");
    let oracle = |t: &Txid| out.truth.is_accelerated(t);
    let (precision, recall) = score_detector(&index, "Seller", 80.0, &oracle);
    assert!(precision > 0.7, "precision {precision}");
    assert!(recall > 0.5, "recall {recall}");
    // The honest pool's blocks contain no accelerated-looking placements
    // attributable to dark fees paid to the seller.
    let (precision_honest, _) = score_detector(&index, "Honest", 80.0, &oracle);
    assert!(
        precision_honest < precision,
        "flagging in honest blocks should be weaker ({precision_honest} vs {precision})"
    );
}

#[test]
fn censoring_pool_flagged_by_deceleration_test() {
    let mut scenario = Scenario::base("censor-e2e", 31);
    scenario.duration = 8 * 3_600;
    scenario.params.max_block_weight = 400_000;
    scenario.congestion = CongestionProfile::flat(0.6);
    scenario.scam = Some(chain_neutrality::sim::scenario::ScamConfig {
        window_start: 600,
        window_end: 8 * 3_600 - 600,
        donation_prob: 0.05,
    });
    scenario.pools = vec![
        PoolConfig::honest("Censor", 0.5, 1)
            .with_behavior(PoolBehavior::CensorScam { exclude: true }),
        PoolConfig::honest("Neutral", 0.5, 1),
    ];
    let out = World::new(scenario).run();
    let index = ChainIndex::build(&out.chain);
    let scam = out.truth.scam_txids();
    assert!(!scam.is_empty());
    let test = differential_prioritization(&index, &scam, "Censor", 0.5);
    assert_eq!(test.x, 0, "a hard censor never mines scam payments");
    assert!(test.decelerates_at(0.01), "p = {}", test.p_decelerate);
    let neutral = differential_prioritization(&index, &scam, "Neutral", 0.5);
    assert!(!neutral.decelerates_at(0.001));
}
