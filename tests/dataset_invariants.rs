//! Invariants of the calibrated dataset scenarios (quick scale).

use chain_neutrality::audit::congestion::congested_fraction;
use chain_neutrality::prelude::*;
use std::sync::OnceLock;

fn run_a() -> &'static SimOutput {
    static CELL: OnceLock<SimOutput> = OnceLock::new();
    CELL.get_or_init(|| World::new(dataset_a(Scale::Quick)).run())
}

fn run_b() -> &'static SimOutput {
    static CELL: OnceLock<SimOutput> = OnceLock::new();
    CELL.get_or_init(|| World::new(dataset_b(Scale::Quick)).run())
}

fn run_c() -> &'static SimOutput {
    static CELL: OnceLock<SimOutput> = OnceLock::new();
    CELL.get_or_init(|| World::new(dataset_c(Scale::Quick)).run())
}

#[test]
fn dataset_a_shape() {
    let out = run_a();
    let index = ChainIndex::build(&out.chain);
    assert!(out.chain.height() >= 20, "height {}", out.chain.height());
    assert!(out.observer_streams[0].len() > 1_000);
    // CPFP share near Table 1's 26.45 %.
    let cpfp = index.cpfp_fraction();
    assert!((0.15..=0.40).contains(&cpfp), "CPFP fraction {cpfp}");
    // Congested most of the time, per Figure 3.
    let congested =
        congested_fraction(&out.observer_streams[0], out.scenario.params.max_block_vsize());
    assert!(congested > 0.5, "congested {congested}");
}

#[test]
fn dataset_b_is_more_congested_and_sees_zero_fee_txs() {
    let a = run_a();
    let b = run_b();
    let cap = a.scenario.params.max_block_vsize();
    let ca = congested_fraction(&a.observer_streams[0], cap);
    let cb = congested_fraction(&b.observer_streams[0], cap);
    assert!(cb > ca, "B ({cb}) must be more congested than A ({ca})");
    // The no-floor observer records zero-fee transactions that a default
    // observer would refuse.
    let zero_fee_seen =
        b.observer_streams[0].iter().flat_map(|s| s.rows()).any(|e| e.fee == Amount::ZERO);
    assert!(zero_fee_seen, "dataset B's observer accepts zero-fee txs");
    let zero_fee_seen_a =
        a.observer_streams[0].iter().flat_map(|s| s.rows()).any(|e| e.fee == Amount::ZERO);
    assert!(!zero_fee_seen_a, "dataset A's default observer filters them");
}

#[test]
fn dataset_c_injects_all_misbehaviours() {
    let out = run_c();
    // Ground truth must contain each misbehaviour class.
    assert!(!out.truth.accelerated_txids().is_empty(), "dark-fee demand");
    assert!(!out.truth.scam_txids().is_empty(), "scam window donations");
    for pool in ["F2Pool", "ViaBTC", "SlushPool", "1THash & 58Coin", "Poolin"] {
        assert!(
            !out.truth.self_interest_txids(pool).is_empty(),
            "{pool} should have issued self transfers"
        );
    }
    // Five pools sell acceleration.
    let sellers = out.services.iter().filter(|s| s.is_some()).count();
    assert_eq!(sellers, 5);
    // 20-pool roster attributed.
    let index = ChainIndex::build(&out.chain);
    let attribution = attribute(&index);
    assert!(attribution.pools.len() >= 10);
    assert_eq!(attribution.unidentified_blocks, 0);
}

#[test]
fn runs_are_deterministic() {
    let one = World::new(dataset_a(Scale::Quick)).run();
    let two = World::new(dataset_a(Scale::Quick)).run();
    assert_eq!(one.chain.tip_hash(), two.chain.tip_hash());
    assert_eq!(one.chain.height(), two.chain.height());
    assert_eq!(one.block_miners, two.block_miners);
    assert_eq!(one.observer_streams[0].len(), two.observer_streams[0].len());
    // Snapshot streams agree byte-for-byte on a few samples.
    for i in [0usize, one.observer_streams[0].len() / 2, one.observer_streams[0].len() - 1] {
        assert_eq!(one.observer_streams[0][i], two.observer_streams[0][i], "snapshot {i}");
    }
}

#[test]
fn low_fee_transactions_only_mined_by_low_fee_pools() {
    let out = run_b();
    let index = ChainIndex::build(&out.chain);
    // §4.2.3: below-floor txs can only be confirmed by pools that accept
    // them (F2Pool, ViaBTC, BTC.com in dataset B).
    let low_fee_miners: std::collections::HashSet<&str> = ["F2Pool", "ViaBTC", "BTC.com"].into();
    for block in index.blocks() {
        for tx in &block.txs {
            if tx.fee_rate() < FeeRate::MIN_RELAY {
                let miner = block.miner.as_deref().expect("marked");
                assert!(
                    low_fee_miners.contains(miner),
                    "below-floor tx {} mined by {miner}",
                    tx.txid
                );
            }
        }
    }
}

#[test]
fn scam_window_timing_respected() {
    let out = run_c();
    let scam_cfg = out.scenario.scam.as_ref().expect("configured");
    for txid in out.truth.scam_txids() {
        let t = out.truth.issue_time(&txid).expect("recorded");
        assert!(
            t >= scam_cfg.window_start && t < scam_cfg.window_end,
            "scam tx issued at {t} outside [{}, {})",
            scam_cfg.window_start,
            scam_cfg.window_end
        );
    }
}
