//! Quickstart: simulate a small blockchain world, then audit it.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use chain_neutrality::prelude::*;

fn main() {
    // 1. Describe a world: three pools, one of which selfishly
    //    accelerates transactions touching its own wallets.
    let mut scenario = Scenario::base("quickstart", 42);
    scenario.duration = 16 * 3_600; // sixteen hours of simulated time
    scenario.params.max_block_weight = 400_000; // 100 kvB blocks
    scenario.congestion = chain_neutrality::sim::congestion::CongestionProfile::flat(0.85);
    scenario.self_interest_rate = 0.01;
    scenario.pools = vec![
        PoolConfig::honest("Honest-A", 0.45, 2),
        PoolConfig::honest("Honest-B", 0.35, 1),
        PoolConfig::honest("Greedy", 0.20, 2).with_behavior(PoolBehavior::SelfInterest),
    ];

    // 2. Run it.
    println!("simulating {}s of chain activity...", scenario.duration);
    let out = World::new(scenario).run();
    println!(
        "chain: {} blocks, {} transactions, {} snapshots recorded",
        out.chain.height(),
        out.chain.body_tx_count(),
        out.observer_streams[0].len()
    );

    // 3. Audit: attribute blocks to pools from coinbase markers.
    let index = ChainIndex::build(&out.chain);
    let attribution = attribute(&index);
    println!("\npool footprint (from coinbase markers):");
    for pool in attribution.top(10) {
        println!(
            "  {:<10} {:>4} blocks ({:>5.2}%), {} txs",
            pool.name,
            pool.blocks,
            100.0 * pool.blocks as f64 / attribution.total_blocks() as f64,
            pool.transactions
        );
    }

    // 4. Check whether each pool's ordering deviates from the fee-rate
    //    norm (Position Prediction Error — Figure 7 of the paper).
    let ppes = chain_ppe(&index);
    let ecdf = Ecdf::new(ppes);
    println!(
        "\nPPE over all blocks: mean {:.2}%, median {:.2}%, p80 {:.2}%",
        ecdf.mean(),
        ecdf.quantile(0.5),
        ecdf.quantile(0.8)
    );

    // 5. Run the paper's differential-prioritization test on the greedy
    //    pool's own transactions.
    for name in ["Greedy", "Honest-A"] {
        let c_txids = chain_neutrality::audit::self_interest::self_interest_txids(
            &out.chain, &index, name,
        );
        let theta0 = attribution.hash_rate(name).unwrap_or(0.0);
        let test = differential_prioritization(&index, &c_txids, name, theta0);
        println!(
            "\n{name}: hash rate {:.1}%, mined {} of {} blocks containing its own txs",
            100.0 * theta0,
            test.x,
            test.y
        );
        println!(
            "  acceleration p-value: {:.6} -> {}",
            test.p_accelerate,
            if test.accelerates_at(0.05) {
                "SELF-ACCELERATION SUSPECTED (alpha = 0.05 at this tiny scale;\n   the full dataset-C experiment reaches p < 0.001)"
            } else {
                "no evidence of self-acceleration"
            }
        );
        if let Some(sppe) = sppe_for_miner(&index, &c_txids, name) {
            println!("  mean SPPE in its own blocks: {sppe:.1}%");
        }
    }

    // 6. Or do all of the above in one call.
    let report = audit_chain(
        &out.chain,
        &index,
        AuditConfig { alpha: 0.05, sppe_threshold: 80.0, ..AuditConfig::default() },
    );
    println!("\n--- one-call audit report ---\n{}", report.render());
}
