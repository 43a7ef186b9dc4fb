//! Misbehaviour experiments: Figures 8, 13, 14 and Tables 2–4.

use crate::lab::Lab;
use cn_chain::Txid;
use cn_core::attribute;
use cn_core::darkfee::{score_detector, sppe_threshold_table};
use cn_core::prioritization::differential_prioritization;
use cn_core::report::{fmt_p, fmt_pct, Table};
use cn_core::self_interest::find_self_interest_transactions;
use cn_core::sppe::sppe_for_miner;
use cn_miner::acceleration::fee_multiple;
use cn_stats::{Ecdf, SimRng, Summary};
use std::fmt::Write as _;

/// Figure 8: (a) reward-wallet inventories per pool; (b) inferred
/// self-interest transaction counts per pool.
pub fn fig8(lab: &Lab) -> String {
    let (sim, index) = lab.c();
    let attribution = attribute(index);
    let self_map = find_self_interest_transactions(&sim.chain, &attribution);
    let mut out = String::new();
    let _ = writeln!(out, "Figure 8(a,b) — pool wallets and inferred MPO transactions (dataset C)");
    let _ = writeln!(out, "(paper: SlushPool used 56 wallets, Poolin 23; 12,121 MPO txs total)\n");
    let mut table = Table::new(&["pool", "wallets", "self-interest txs"]);
    let mut total = 0usize;
    for pool in attribution.top(20) {
        let n = self_map.of(&pool.name).map(|s| s.len()).unwrap_or(0);
        total += n;
        table.row(&[pool.name.clone(), pool.wallets.len().to_string(), n.to_string()]);
    }
    out.push_str(&table.render());
    let _ = writeln!(out, "total inferred MPO transactions: {total}");
    out
}

/// Table 2: differential prioritization of self-interest transactions.
///
/// For every pool whose wallets originate transactions, tests each top-10
/// miner for acceleration/deceleration; prints significant rows (accel
/// p < 0.001 — the paper's bar) plus the honest-pool nulls.
pub fn table2(lab: &Lab) -> String {
    let (sim, index) = lab.c();
    let attribution = attribute(index);
    let self_map = find_self_interest_transactions(&sim.chain, &attribution);
    let mut out = String::new();
    let _ = writeln!(out, "Table 2 — differential prioritization of self-interest transactions");
    let _ = writeln!(out, "(paper: F2Pool, ViaBTC, 1THash & 58Coin, SlushPool self-accelerate;");
    let _ = writeln!(out, " ViaBTC collusively accelerates 1THash & 58Coin and SlushPool)\n");
    let mut table = Table::new(&[
        "transactions of",
        "mining pool (m)",
        "theta0",
        "x",
        "y",
        "p-value (accel)",
        "p-value (decel)",
        "% SPPE(m)",
    ]);
    let mut flagged: Vec<(String, String)> = Vec::new();
    // Rows of interest: each misbehaving owner's own pool plus the
    // colluding miner (the paper's Table 2 row set) — printed regardless
    // of significance — and any other significant pair found by the
    // exhaustive sweep.
    let paper_rows = [
        ("F2Pool", "F2Pool"),
        ("ViaBTC", "ViaBTC"),
        ("1THash & 58Coin", "ViaBTC"),
        ("1THash & 58Coin", "1THash & 58Coin"),
        ("SlushPool", "SlushPool"),
        ("SlushPool", "ViaBTC"),
    ];
    for owner in attribution.top(20) {
        let Some(c_txids) = self_map.of(&owner.name) else { continue };
        if c_txids.len() < 5 {
            continue;
        }
        for miner in attribution.top(10) {
            let theta0 = attribution.hash_rate(&miner.name).unwrap_or(0.0);
            let test = differential_prioritization(index, c_txids, &miner.name, theta0);
            if test.y == 0 {
                continue;
            }
            let significant = test.accelerates_at(0.001);
            let is_paper_row = paper_rows.iter().any(|(o, m)| *o == owner.name && *m == miner.name);
            if significant || is_paper_row {
                let sppe = sppe_for_miner(index, c_txids, &miner.name).unwrap_or(0.0);
                table.row(&[
                    format!("{}{}", if significant { "*" } else { " " }, owner.name),
                    miner.name.clone(),
                    format!("{theta0:.4}"),
                    test.x.to_string(),
                    test.y.to_string(),
                    fmt_p(test.p_accelerate),
                    fmt_p(test.p_decelerate),
                    format!("{sppe:.4}"),
                ]);
            }
            if significant {
                flagged.push((owner.name.clone(), miner.name.clone()));
            }
        }
    }
    out.push_str(&table.render());
    let _ = writeln!(out, "(* = acceleration significant at alpha 0.001)");
    let _ = writeln!(out, "\nsignificant (accel p < 0.001) pairs: {}", flagged.len());

    // The null check the paper implies: honest pools not flagged.
    let honest = ["Poolin", "AntPool", "Huobi", "Okex", "Binance Pool"];
    let mut clean = true;
    for name in honest {
        if flagged.iter().any(|(owner, miner)| owner == name && miner == name) {
            clean = false;
            let _ = writeln!(out, "WARNING: honest pool {name} self-flagged");
        }
    }
    if clean {
        let _ = writeln!(out, "honest pools ({}) show no self-acceleration.", honest.join(", "));
    }
    out
}

/// Table 3: the scam-payment window — no pool should be flagged in either
/// direction.
pub fn table3(lab: &Lab) -> String {
    let (sim, index) = lab.c();
    let attribution = attribute(index);
    let scam_txids = sim.truth.scam_txids();
    let mut out = String::new();
    let _ = writeln!(out, "Table 3 — differential prioritization of scam payments");
    let _ = writeln!(out, "(paper: no statistically significant evidence in either direction)\n");
    let mut table = Table::new(&[
        "mining pool (m)",
        "theta0",
        "x",
        "y",
        "p-value (accel)",
        "p-value (decel)",
        "% SPPE(m)",
    ]);
    let mut any_flagged = false;
    for pool in attribution.top(9) {
        let theta0 = attribution.hash_rate(&pool.name).unwrap_or(0.0);
        let test = differential_prioritization(index, &scam_txids, &pool.name, theta0);
        let sppe = sppe_for_miner(index, &scam_txids, &pool.name).unwrap_or(0.0);
        table.row(&[
            pool.name.clone(),
            format!("{theta0:.4}"),
            test.x.to_string(),
            test.y.to_string(),
            fmt_p(test.p_accelerate),
            fmt_p(test.p_decelerate),
            format!("{sppe:.4}"),
        ]);
        any_flagged |= test.accelerates_at(0.001) || test.decelerates_at(0.001);
    }
    out.push_str(&table.render());
    let _ = writeln!(
        out,
        "\nscam donations observed: {}; confirmed: {}",
        scam_txids.len(),
        scam_txids.iter().filter(|t| index.locate(t).is_some()).count()
    );
    let _ = writeln!(
        out,
        "{}",
        if any_flagged {
            "WARNING: a pool was flagged — the simulated miners treat scam payments neutrally, so this indicates a detector false positive at alpha=0.001."
        } else {
            "no pool flagged at alpha = 0.001 in either direction — matching the paper."
        }
    );
    out
}

/// Table 4: SPPE-threshold detection of dark-fee accelerations on
/// BTC.com's blocks, scored against the acceleration service's order book
/// (the paper used BTC.com's public checker).
pub fn table4(lab: &Lab) -> String {
    let (sim, index) = lab.c();
    let provider = "BTC.com";
    let provider_idx = sim
        .pool_names
        .iter()
        .position(|n| n == provider)
        .expect("BTC.com is in the dataset-C roster");
    let service = sim.services[provider_idx].as_ref().expect("BTC.com sells acceleration");
    let service = service.lock();
    let is_accelerated = |t: &Txid| service.is_accelerated(t) || sim.truth.is_accelerated(t);

    let mut out = String::new();
    let _ = writeln!(out, "Table 4 — % of high-SPPE transactions that were dark-fee accelerated");
    let _ = writeln!(out, "(paper, BTC.com: >=99% SPPE -> 64.98% accelerated; >=50% -> 1.06%)\n");
    let mut table = Table::new(&["SPPE >=", "# txs", "# accelerated", "% accelerated"]);
    let rows =
        sppe_threshold_table(index, provider, &[100.0, 99.0, 90.0, 50.0, 1.0], &is_accelerated);
    for row in &rows {
        table.row(&[
            format!("{:.0}%", row.threshold),
            row.total.to_string(),
            row.accelerated.to_string(),
            fmt_pct(row.precision()),
        ]);
    }
    out.push_str(&table.render());

    // The paper's negative control: a random sample of the pool's txs.
    let mut rng = SimRng::seed_from_u64(4);
    let all: Vec<Txid> = index
        .blocks()
        .iter()
        .filter(|b| b.miner.as_deref() == Some(provider))
        .flat_map(|b| b.txs.iter().map(|t| t.txid))
        .collect();
    let mut accelerated_in_sample = 0usize;
    let sample_n = 1_000.min(all.len());
    for _ in 0..sample_n {
        if let Some(t) = rng.choose(&all) {
            if is_accelerated(t) {
                accelerated_in_sample += 1;
            }
        }
    }
    let _ = writeln!(
        out,
        "\nrandom sample of {sample_n} BTC.com txs: {accelerated_in_sample} accelerated (paper: 0 of 1000)"
    );
    let (precision, recall) = score_detector(index, provider, 99.0, &is_accelerated);
    let _ = writeln!(
        out,
        "detector at SPPE>=99%: precision {} recall {} (vs ground truth)",
        fmt_pct(precision),
        fmt_pct(recall)
    );
    out
}

/// Figure 13: the MPO distribution within the scam window.
pub fn fig13(lab: &Lab) -> String {
    let (sim, index) = lab.c();
    let scam = sim.scenario.scam.as_ref().expect("dataset C has a scam window");
    let mut out = String::new();
    let _ = writeln!(out, "Figure 13 — blocks mined during the scam window, by pool");
    let mut counts: Vec<(String, usize, usize)> = Vec::new();
    for block in index.blocks() {
        if block.time < scam.window_start || block.time >= scam.window_end {
            continue;
        }
        let name = block.miner.clone().unwrap_or_else(|| "(unknown)".into());
        match counts.iter_mut().find(|(n, _, _)| *n == name) {
            Some(entry) => {
                entry.1 += 1;
                entry.2 += block.txs.len();
            }
            None => counts.push((name, 1, block.txs.len())),
        }
    }
    counts.sort_by_key(|c| std::cmp::Reverse(c.1));
    let total: usize = counts.iter().map(|(_, b, _)| b).sum();
    let mut table = Table::new(&["pool", "blocks", "share", "txs"]);
    for (name, blocks, txs) in counts.iter().take(20) {
        table.row(&[
            name.clone(),
            blocks.to_string(),
            fmt_pct(*blocks as f64 / total.max(1) as f64),
            txs.to_string(),
        ]);
    }
    out.push_str(&table.render());
    let _ = writeln!(out, "window blocks: {total} (paper: 3697 over Jul 14 - Aug 9, 2020)");
    out
}

/// Figure 14: acceleration quotes vs public fees over a congested Mempool
/// snapshot.
pub fn fig14(lab: &Lab) -> String {
    let (sim, _) = lab.c();
    let provider_idx =
        sim.pool_names.iter().position(|n| n == "BTC.com").expect("BTC.com in roster");
    let service = sim.services[provider_idx].as_ref().expect("service").lock();

    // Pick the most congested *detailed* snapshot, as §G did (the paper
    // used one live Mempool snapshot from Nov 24, 2020).
    let snapshot = sim.observer_streams[0]
        .iter()
        .filter(|s| s.is_detailed())
        .max_by_key(|s| s.total_vsize())
        .expect("detailed snapshots recorded");
    let top_rate =
        snapshot.rows().map(|e| e.fee_rate()).max().unwrap_or(cn_chain::FeeRate::MIN_RELAY);
    let mut multiples = Vec::new();
    for entry in snapshot.rows() {
        let quote = service.quote(entry.vsize, entry.fee, top_rate);
        if let Some(mult) = fee_multiple(entry.fee, quote) {
            multiples.push(mult);
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "Figure 14 — acceleration-fee multiples over public fees");
    let _ = writeln!(out, "(paper: mean 566.3x, median 116.64x, p25 51.64, p75 351.8)\n");
    if multiples.is_empty() {
        let _ = writeln!(out, "(snapshot empty — no quotes)");
        return out;
    }
    let summary = Summary::of(&multiples);
    let _ = writeln!(
        out,
        "quotes: n={}, mean {:.1}x, median {:.2}x, p25 {:.2}, p75 {:.2}, min {:.2}, max {:.0}",
        summary.n, summary.mean, summary.median, summary.p25, summary.p75, summary.min, summary.max
    );
    let ecdf = Ecdf::new(multiples);
    let _ = writeln!(out, "\nCDF (multiple  F):");
    out.push_str(&cn_core::report::fmt_cdf(&ecdf.curve(11)));
    let _ = writeln!(out, "snapshot: {} pending txs at t={}s", snapshot.len(), snapshot.time);
    out
}
