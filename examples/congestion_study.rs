//! Congestion and fees (§4.1): how the Mempool backlog drives user
//! bidding and commit delays — Figures 3, 4 and 5 in miniature.
//!
//! ```text
//! cargo run --release --example congestion_study
//! ```

use chain_neutrality::audit::congestion::{
    congested_fraction, fee_rates_by_congestion, size_series,
};
use chain_neutrality::audit::delay::{
    commit_delays, delays_by_fee_band, first_seen_times, FeeBand,
};
use chain_neutrality::prelude::*;

fn main() {
    println!("simulating dataset A (quick scale)...");
    let out = World::new(dataset_a(Scale::Quick)).run();
    let index = ChainIndex::build(&out.chain);
    let capacity = out.scenario.params.max_block_vsize();

    // Backlog over time.
    let series = size_series(&out.observer_streams[0]).unwrap_or_default();
    println!(
        "\nMempool backlog: {} snapshots, congested {:.1}% of the time (paper: ~75%)",
        series.len(),
        100.0 * congested_fraction(&out.observer_streams[0], capacity)
    );
    let peak = series.iter().map(|(_, v)| *v).max().unwrap_or(0);
    println!("peak backlog: {:.1}x block capacity", peak as f64 / capacity as f64);

    // Do users bid more when it is crowded?
    println!("\nfee rates by congestion level at issue time:");
    let bins = fee_rates_by_congestion(&out.observer_streams[0], capacity);
    for (i, label) in ["none (<1x)", "low (1-2x)", "mid (2-4x)", "high (>4x)"].iter().enumerate() {
        if bins[i].is_empty() {
            continue;
        }
        let e = Ecdf::new(bins[i].clone());
        println!("  {label:<12} n={:<6} median {:.2e} BTC/KB", e.len(), e.quantile(0.5));
    }

    // Does bidding more help? (Figure 5.)
    let first = first_seen_times(&out.observer_streams[0]).unwrap_or_default();
    let records = commit_delays(&index, &first);
    let by_band = delays_by_fee_band(&records);
    println!("\ncommit delays by fee band:");
    for (band, label) in [
        (FeeBand::Low, "low    (<1e-4 BTC/KB)"),
        (FeeBand::High, "high   [1e-4, 1e-3)"),
        (FeeBand::Exorbitant, "exorb. (>=1e-3)"),
    ] {
        let Some(delays) = by_band.get(&band) else { continue };
        if delays.is_empty() {
            continue;
        }
        let e = Ecdf::new(delays.iter().map(|&d| d as f64).collect());
        println!(
            "  {label:<24} n={:<6} next-block {:.1}%  >=3 blocks {:.1}%",
            e.len(),
            100.0 * e.eval(1.0),
            100.0 * (1.0 - e.eval(2.0))
        );
    }
    println!("\n(the paper's takeaway: fees rise with congestion, and paying more works)");
}
