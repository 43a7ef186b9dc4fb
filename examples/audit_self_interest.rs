//! Reproduce the paper's Table 2 pipeline on the dataset-𝒞 scenario:
//! find every pool's self-interest transactions by UTXO replay, run the
//! binomial acceleration test for every (owner, miner) pair, and report
//! the significant ones — including the ViaBTC collusion.
//!
//! ```text
//! cargo run --release --example audit_self_interest
//! ```

use chain_neutrality::audit::prioritization::windowed_prioritization;
use chain_neutrality::audit::self_interest::find_self_interest_transactions;
use chain_neutrality::prelude::*;

fn main() {
    println!("simulating dataset C (quick scale)...");
    let out = World::new(dataset_c(Scale::Quick)).run();
    let index = ChainIndex::build(&out.chain);
    let attribution = attribute(&index);
    let self_map = find_self_interest_transactions(&out.chain, &attribution);

    println!(
        "{} blocks; {} pools attributed; {} pool-touching txs flagged\n",
        index.len(),
        attribution.pools.len(),
        self_map.total_flagged()
    );

    println!(
        "{:<18} {:<18} {:>7} {:>5} {:>5} {:>12} {:>9}",
        "transactions of", "miner m", "theta0", "x", "y", "p(accel)", "SPPE"
    );
    for owner in attribution.top(12) {
        let Some(c_txids) = self_map.of(&owner.name) else { continue };
        if c_txids.len() < 5 {
            continue;
        }
        for miner in attribution.top(10) {
            let theta0 = attribution.hash_rate(&miner.name).unwrap_or(0.0);
            let test = differential_prioritization(&index, c_txids, &miner.name, theta0);
            if !test.accelerates_at(0.01) {
                continue;
            }
            let sppe = sppe_for_miner(&index, c_txids, &miner.name).unwrap_or(0.0);
            println!(
                "{:<18} {:<18} {:>7.4} {:>5} {:>5} {:>12.2e} {:>8.1}%",
                owner.name, miner.name, theta0, test.x, test.y, test.p_accelerate, sppe
            );
            // Cross-check with the hash-rate-drift-robust variant (§5.1.3).
            if let Some(w) = windowed_prioritization(&index, c_txids, &miner.name, 4) {
                println!(
                    "{:<18} {:<18} (windowed Fisher: p(accel) = {:.2e})",
                    "", "", w.p_accelerate
                );
            }
        }
    }
    println!("\n(expected at full scale: F2Pool, ViaBTC, 1THash & 58Coin and SlushPool");
    println!(" self-accelerate; ViaBTC also accelerates its partners' transactions.)");
}
