//! Scam-payment treatment (§5.3): the paper found *no* differential
//! treatment in the wild. This example shows both sides: a neutral world
//! where the test correctly stays silent, and a censoring world where the
//! deceleration test fires.
//!
//! ```text
//! cargo run --release --example scam_censorship
//! ```

use chain_neutrality::prelude::*;
use chain_neutrality::sim::scenario::ScamConfig;

fn run_world(censor: bool) -> (SimOutput, ChainIndex) {
    let mut scenario = Scenario::base(if censor { "censoring" } else { "neutral" }, 2020);
    scenario.duration = 4 * 3_600;
    scenario.params.max_block_weight = 400_000;
    scenario.congestion = chain_neutrality::sim::congestion::CongestionProfile::flat(0.55);
    scenario.pools = vec![
        PoolConfig::honest("Moralist", 0.45, 2),
        PoolConfig::honest("Neutral-1", 0.30, 1),
        PoolConfig::honest("Neutral-2", 0.25, 1),
    ];
    if censor {
        scenario.pools[0] =
            scenario.pools[0].clone().with_behavior(PoolBehavior::CensorScam { exclude: true });
    }
    scenario.scam = Some(ScamConfig {
        window_start: 600,
        window_end: scenario.duration - 600,
        donation_prob: 0.05,
    });
    let out = World::new(scenario).run();
    let index = ChainIndex::build(&out.chain);
    (out, index)
}

fn report(label: &str, out: &SimOutput, index: &ChainIndex) {
    let attribution = attribute(index);
    let scam_txids = out.truth.scam_txids();
    let confirmed = scam_txids.iter().filter(|t| index.locate(t).is_some()).count();
    println!("\n[{label}] scam donations: {} issued, {confirmed} confirmed", scam_txids.len());
    println!(
        "{:<12} {:>7} {:>4} {:>4} {:>12} {:>12}",
        "pool", "theta0", "x", "y", "p(accel)", "p(decel)"
    );
    for pool in attribution.top(3) {
        let theta0 = attribution.hash_rate(&pool.name).unwrap_or(0.0);
        let t = differential_prioritization(index, &scam_txids, &pool.name, theta0);
        println!(
            "{:<12} {:>7.3} {:>4} {:>4} {:>12.3e} {:>12.3e}{}",
            pool.name,
            theta0,
            t.x,
            t.y,
            t.p_accelerate,
            t.p_decelerate,
            if t.decelerates_at(0.001) {
                "  <- DECELERATION / CENSORSHIP"
            } else if t.accelerates_at(0.001) {
                "  <- acceleration?"
            } else {
                ""
            }
        );
    }
}

fn main() {
    println!("simulating a neutral world and a censoring world...");
    let (neutral_out, neutral_index) = run_world(false);
    report("neutral miners", &neutral_out, &neutral_index);
    println!("(expected: no p-value below 0.001 — the paper's Table 3 null result)");

    let (censor_out, censor_index) = run_world(true);
    report("Moralist censors scam payments", &censor_out, &censor_index);
    println!("(expected: Moralist's deceleration test fires — it never mines scam txs)");
}
