//! Dark-fee forensics (§5.4): price acceleration like a pool would,
//! detect accelerated transactions from on-chain placement alone (SPPE),
//! and score the detector against ground truth.
//!
//! ```text
//! cargo run --release --example dark_fee_forensics
//! ```

use chain_neutrality::audit::darkfee::{score_detector, sppe_threshold_table};
use chain_neutrality::miner::acceleration::fee_multiple;
use chain_neutrality::prelude::*;

fn main() {
    // A compact world where one pool sells dark-fee acceleration.
    let mut scenario = Scenario::base("dark-fee", 1337);
    scenario.duration = 4 * 3_600;
    scenario.params.max_block_weight = 400_000;
    scenario.congestion = chain_neutrality::sim::congestion::CongestionProfile::flat(0.6);
    scenario.pools = vec![
        PoolConfig::honest("BigPool", 0.5, 2),
        PoolConfig::honest("Accelerator", 0.3, 1)
            .with_behavior(PoolBehavior::DarkFee { premium: 1.5 }),
        PoolConfig::honest("SmallPool", 0.2, 1),
    ];
    scenario.acceleration_demand = 0.03;
    println!("simulating a market with a dark-fee acceleration service...");
    let out = World::new(scenario).run();
    let index = ChainIndex::build(&out.chain);

    // How expensive is acceleration? (Figure 14.)
    let service = out.services[1].as_ref().expect("Accelerator sells").lock();
    let snapshot =
        out.observer_streams[0].iter().max_by_key(|s| s.total_vsize()).expect("snapshots exist");
    let top = snapshot.rows().map(|e| e.fee_rate()).max().unwrap_or(FeeRate::MIN_RELAY);
    let multiples: Vec<f64> = snapshot
        .rows()
        .filter_map(|e| fee_multiple(e.fee, service.quote(e.vsize, e.fee, top)))
        .collect();
    if !multiples.is_empty() {
        let s = Summary::of(&multiples);
        println!(
            "quoted dark fees over a congested snapshot ({} txs): median {:.1}x the public fee, mean {:.1}x",
            s.n, s.median, s.mean
        );
    }

    // On-chain detection: sweep SPPE thresholds on the provider's blocks.
    println!("\nSPPE-threshold sweep on Accelerator's blocks (Table 4 method):");
    let oracle = |t: &Txid| out.truth.is_accelerated(t);
    println!("{:>8} {:>8} {:>13} {:>12}", "SPPE >=", "# txs", "# accelerated", "% accel");
    for row in sppe_threshold_table(&index, "Accelerator", &[99.0, 90.0, 50.0, 1.0], &oracle) {
        println!(
            "{:>7.0}% {:>8} {:>13} {:>11.2}%",
            row.threshold,
            row.total,
            row.accelerated,
            100.0 * row.precision()
        );
    }
    let (precision, recall) = score_detector(&index, "Accelerator", 90.0, &oracle);
    println!(
        "\ndetector at SPPE >= 90%: precision {:.1}%, recall {:.1}%",
        100.0 * precision,
        100.0 * recall
    );
    println!("(with 100 kvB blocks the percentile rank tops out below 99%,");
    println!(" so the paper's 99% cutoff maps to ~90% at this scale)");
    println!("orders placed with the service: {}", service.order_count());
    println!("ground-truth accelerated txs:   {}", out.truth.accelerated_txids().len());
}
