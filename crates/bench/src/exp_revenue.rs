//! Table 5: the fee share of miner revenue across subsidy eras.

use crate::lab::Lab;
use cn_core::report::Table;
use cn_data::calibration::PAPER_FEE_SHARE_BY_YEAR;
use cn_data::datasets::scaled_params;
use cn_data::Scale;
use cn_sim::congestion::CongestionProfile;
use cn_sim::scenario::{PoolConfig, Scenario};
use cn_sim::World;
use cn_stats::Summary;
use std::fmt::Write as _;

/// One simulated "year": a subsidy level and a demand level, standing in
/// for 2016–2020 (the 2017 mania year gets the demand spike; 2020 the
/// post-halving subsidy).
struct Era {
    year: u32,
    subsidy_btc: u64,
    demand: f64,
}

/// Table 5: per-era fee share of total miner revenue.
pub fn table5(lab: &Lab) -> String {
    let eras = [
        Era { year: 2016, subsidy_btc: 25, demand: 0.50 },
        Era { year: 2017, subsidy_btc: 12, demand: 2.20 },
        Era { year: 2018, subsidy_btc: 12, demand: 0.52 },
        Era { year: 2019, subsidy_btc: 12, demand: 0.55 },
        Era { year: 2020, subsidy_btc: 6, demand: 0.95 },
    ];
    let duration = match lab.scale() {
        Scale::Quick => 4 * 3_600,
        Scale::Full | Scale::Large => 24 * 3_600,
    };
    let mut out = String::new();
    let _ = writeln!(out, "Table 5 — miners' relative revenue from fees, by era");
    let _ = writeln!(
        out,
        "(paper yearly means: 2016 2.48%, 2017 11.77%, 2018 3.19%, 2019 2.75%, 2020 6.29%)\n"
    );
    let mut table =
        Table::new(&["year", "blocks", "mean %", "std", "min", "median", "max", "paper mean %"]);
    for era in eras {
        let mut s = Scenario::base(format!("era-{}", era.year), 5_000 + era.year as u64);
        s.params = scaled_params();
        // Scale the subsidy with the block-capacity scale-down (1/10) so
        // fee-vs-subsidy ratios stay comparable to mainnet's.
        s.params.initial_subsidy = cn_chain::Amount::from_sat(era.subsidy_btc * 10_000_000);
        s.duration = duration;
        s.pools = vec![
            PoolConfig::honest("Alpha", 0.4, 2),
            PoolConfig::honest("Beta", 0.35, 2),
            PoolConfig::honest("Gamma", 0.25, 1),
        ];
        s.congestion = CongestionProfile::diurnal(era.demand, 0.4);
        // Snapshots are irrelevant to revenue; keep them light and bound
        // the observer so heavy-demand eras stay in memory.
        s.snapshot_detail_every = 240;
        s.observers[0].max_mempool_vsize = Some(25 * s.params.max_block_vsize());
        s.users = 250;
        s.relay_nodes = 10;
        s.miner_hubs = 2;
        let sim = World::new(s).run();
        let shares: Vec<f64> = sim
            .chain
            .records()
            .iter()
            .map(|r| {
                let total = r.fees + r.subsidy;
                if total.is_zero() {
                    0.0
                } else {
                    100.0 * r.fees.to_sat() as f64 / total.to_sat() as f64
                }
            })
            .collect();
        if shares.is_empty() {
            continue;
        }
        let summary = Summary::of(&shares);
        let paper = PAPER_FEE_SHARE_BY_YEAR
            .iter()
            .find(|(y, _)| *y == era.year)
            .map(|(_, v)| *v)
            .unwrap_or(f64::NAN);
        table.row(&[
            era.year.to_string(),
            summary.n.to_string(),
            format!("{:.2}", summary.mean),
            format!("{:.2}", summary.std),
            format!("{:.2}", summary.min),
            format!("{:.2}", summary.median),
            format!("{:.2}", summary.max),
            format!("{paper:.2}"),
        ]);
    }
    out.push_str(&table.render());
    let _ = writeln!(
        out,
        "\n(shape to hold: 2017 demand spike dominates; 2020 > 2018/2019 after the halving)"
    );
    out
}
