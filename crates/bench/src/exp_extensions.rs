//! Extension experiments beyond the paper's numbered artifacts:
//! `norm3` — the §4.2.3 below-floor analysis; `harm` — the §6
//! displacement (economic-harm) quantification.

use crate::lab::Lab;
use cn_chain::FeeRate;
use cn_core::attribute;
use cn_core::displacement::{displacement_by_miner, displacement_fee_gap};
use cn_core::lowfee::low_fee_report;
use cn_core::report::{fmt_pct, Table};
use std::fmt::Write as _;

/// §4.2.3: below-floor transactions — who sees them, who mines them.
pub fn norm3(lab: &Lab) -> String {
    let (sim, index) = lab.b();
    let report = low_fee_report(&sim.observer_streams[0], index, FeeRate::MIN_RELAY);
    let mut out = String::new();
    let _ = writeln!(out, "Norm III (section 4.2.3) — below-floor transactions in dataset B");
    let _ = writeln!(out, "(paper: 1084 observed, 489 zero-fee, 53 confirmed — only by");
    let _ = writeln!(out, " F2Pool, ViaBTC and BTC.com)\n");
    let _ = writeln!(
        out,
        "observed below-floor: {} ({} zero-fee); confirmed: {} ({})",
        report.observed,
        report.zero_fee,
        report.confirmed,
        fmt_pct(report.confirmation_rate())
    );
    if report.by_miner.is_empty() {
        let _ = writeln!(out, "no below-floor confirmations.");
    } else {
        let mut table = Table::new(&["pool", "below-floor txs mined"]);
        for (miner, n) in &report.by_miner {
            table.row(&[miner.clone(), n.to_string()]);
        }
        out.push_str(&table.render());
    }
    // Invariant the paper reports: only the no-floor pools deviate.
    let deviants: Vec<&String> = report.by_miner.keys().collect();
    let allowed = ["BTC.com", "F2Pool", "ViaBTC"];
    let clean = deviants.iter().all(|d| allowed.contains(&d.as_str()));
    let _ = writeln!(
        out,
        "{}",
        if clean {
            "all below-floor confirmations come from the known no-floor pools."
        } else {
            "WARNING: an unexpected pool confirmed below-floor transactions."
        }
    );
    out
}

/// §6 extension: displacement — the harm norm violations cause to
/// honestly bidding users, per miner.
pub fn harm(lab: &Lab) -> String {
    let (_, index) = lab.c();
    let attribution = attribute(index);
    let mut out = String::new();
    let _ =
        writeln!(out, "Displacement (extension of section 6) — harm to honest bidders, dataset C");
    let _ =
        writeln!(out, "A queue-jumper is a transaction sitting in its block's top decile while");
    let _ = writeln!(out, "ranked in the bottom decile by fee rate.\n");
    let mut table = Table::new(&[
        "pool",
        "promoted txs",
        "positions lost",
        "jumped vbytes",
        "share of block space",
    ]);
    let by_miner = displacement_by_miner(index);
    // Show the top-10 pools by hash rate, in that order.
    for pool in attribution.top(10) {
        if let Some((_, d, share)) = by_miner.iter().find(|(m, _, _)| *m == pool.name) {
            table.row(&[
                pool.name.clone(),
                d.promoted.to_string(),
                d.positions_lost.to_string(),
                d.queue_jumped_vbytes.to_string(),
                fmt_pct(*share),
            ]);
        }
    }
    out.push_str(&table.render());
    // Total fee gap: what the displaced would have had to pay to hold rank.
    let total_gap: u64 = index.blocks().iter().map(displacement_fee_gap).sum();
    let _ = writeln!(
        out,
        "\ntotal fee premium consumed by queue-jumping (sats the jumpers did not pay): {total_gap}"
    );
    let _ = writeln!(
        out,
        "(expected shape: pools with non-zero jumped vbytes are exactly the misbehaving\n ones — the self-accelerators F2Pool/ViaBTC/1THash/SlushPool and the dark-fee\n sellers BTC.com/AntPool/Poolin; fully honest pools sit at zero)"
    );
    out
}
