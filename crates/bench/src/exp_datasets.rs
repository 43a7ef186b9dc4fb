//! Dataset-description experiments: Table 1 and Figures 2–5 and 9–12.

use crate::lab::Lab;
use cn_core::congestion::{congested_fraction, fee_rates_by_congestion, size_series};
use cn_core::delay::{commit_delays, delays_by_fee_band, first_seen_times, DelayRecord, FeeBand};
use cn_core::report::{fmt_pct, Table};
use cn_core::{attribute, ChainIndex};
use cn_data::calibration;
use cn_sim::SimOutput;
use cn_stats::{ks_two_sample, Ecdf};
use std::fmt::Write as _;

fn block_capacity(out: &SimOutput) -> u64 {
    out.scenario.params.max_block_vsize()
}

/// Table 1: dataset summaries, paper vs measured.
pub fn table1(lab: &Lab) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Table 1 — dataset summaries (measured vs paper; spans are scaled)");
    let mut table = Table::new(&[
        "dataset",
        "blocks",
        "issued txs",
        "CPFP %",
        "empty blocks",
        "paper blocks",
        "paper txs",
        "paper CPFP %",
        "paper empty",
    ]);
    let paper = [calibration::DATASET_A, calibration::DATASET_B, calibration::DATASET_C];
    for ((label, (sim, index)), cal) in
        [("A", lab.a()), ("B", lab.b()), ("C", lab.c())].into_iter().zip(paper)
    {
        table.row(&[
            label.to_string(),
            index.len().to_string(),
            sim.truth.len().to_string(),
            fmt_pct(index.cpfp_fraction()),
            index.empty_block_count().to_string(),
            cal.blocks.to_string(),
            cal.transactions.to_string(),
            fmt_pct(cal.cpfp_fraction),
            cal.empty_blocks.to_string(),
        ]);
    }
    out.push_str(&table.render());
    out
}

/// Figure 2: blocks and transactions by top-20 pool, per dataset.
pub fn fig2(lab: &Lab) -> String {
    let mut out = String::new();
    for (label, (_, index)) in [("A", lab.a()), ("B", lab.b()), ("C", lab.c())] {
        let attribution = attribute(index);
        let _ = writeln!(
            out,
            "Figure 2({}) — top-20 MPO footprint (dataset {label})",
            match label {
                "A" => "a",
                "B" => "b",
                _ => "c",
            }
        );
        let mut table = Table::new(&["pool", "blocks", "hash share", "txs confirmed"]);
        for pool in attribution.top(20) {
            table.row(&[
                pool.name.clone(),
                pool.blocks.to_string(),
                fmt_pct(pool.blocks as f64 / attribution.total_blocks().max(1) as f64),
                pool.transactions.to_string(),
            ]);
        }
        out.push_str(&table.render());
        let _ = writeln!(
            out,
            "top-20 combined share: {} (paper: 94.97% / 93.52% / 98.08%)\n",
            fmt_pct(attribution.top_share(20))
        );
    }
    out
}

/// Figure 3: (a) issuance vs block production over time; (b) Mempool-size
/// CDFs for 𝒜 and ℬ; (c) the 𝒜 size time series.
pub fn fig3(lab: &Lab) -> String {
    let (out_a, index_a) = lab.a();
    let (out_b, _) = lab.b();
    let mut out = String::new();

    let _ = writeln!(out, "Figure 3(a) — cumulative transactions vs blocks (dataset A)");
    let horizon = out_a.scenario.duration;
    let mut issue_times: Vec<u64> = Vec::new();
    for block in index_a.blocks() {
        for tx in &block.txs {
            if let Some(t) = out_a.truth.issue_time(&tx.txid) {
                issue_times.push(t);
            }
        }
    }
    issue_times.sort_unstable();
    let block_times = index_a.block_times();
    let mut table = Table::new(&["t (h)", "cum txs", "cum blocks"]);
    for step in 0..=10u64 {
        let t = horizon * step / 10;
        let txs = issue_times.partition_point(|&x| x <= t);
        let blocks = block_times.partition_point(|&x| x <= t);
        table.row(&[format!("{:.1}", t as f64 / 3_600.0), txs.to_string(), blocks.to_string()]);
    }
    out.push_str(&table.render());

    let _ = writeln!(out, "\nFigure 3(b) — Mempool size distributions (vbytes)");
    for (label, sim) in [("A", out_a), ("B", out_b)] {
        let sizes: Vec<f64> =
            sim.observer_streams[0].iter().map(|s| s.total_vsize() as f64).collect();
        let ecdf = Ecdf::new(sizes);
        let cap = block_capacity(sim) as f64;
        let _ = writeln!(
            out,
            "dataset {label}: congested {} of snapshots (paper: {}), median {:.0} vB, max {:.1}x capacity",
            fmt_pct(congested_fraction(&sim.observer_streams[0], block_capacity(sim))),
            if label == "A" { "~75%" } else { "~92%" },
            ecdf.quantile(0.5),
            ecdf.max() / cap
        );
    }

    let _ = writeln!(out, "\nFigure 3(c) — Mempool size over time (dataset A, sampled)");
    let series = size_series(&out_a.observer_streams[0]).unwrap_or_default();
    let stride = (series.len() / 20).max(1);
    let mut table = Table::new(&["t (h)", "mempool vB", "x capacity"]);
    for (t, v) in series.iter().step_by(stride) {
        table.row(&[
            format!("{:.2}", *t as f64 / 3_600.0),
            v.to_string(),
            format!("{:.2}", *v as f64 / block_capacity(out_a) as f64),
        ]);
    }
    out.push_str(&table.render());
    out
}

fn delay_records(sim: &SimOutput, index: &ChainIndex) -> Vec<DelayRecord> {
    let first = first_seen_times(&sim.observer_streams[0]).unwrap_or_default();
    commit_delays(index, &first)
}

fn delay_cdf_line(out: &mut String, label: &str, delays: &[u64]) {
    if delays.is_empty() {
        let _ = writeln!(out, "{label}: (no transactions)");
        return;
    }
    let e = Ecdf::new(delays.iter().map(|&d| d as f64).collect());
    let _ = writeln!(
        out,
        "{label}: n={}, next-block {}, >=3 blocks {}, >=10 blocks {}, max {}",
        e.len(),
        fmt_pct(e.eval(1.0)),
        fmt_pct(1.0 - e.eval(2.0)),
        fmt_pct(1.0 - e.eval(9.0)),
        e.max()
    );
}

/// Figure 4: (a) commit-delay CDFs; (b) fee-rate CDFs; (c) fee rates by
/// congestion level (dataset 𝒜).
pub fn fig4(lab: &Lab) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Figure 4(a) — commit delays in blocks");
    let _ = writeln!(out, "(paper: A 65% next block, ~15% >=3; B 60% / ~20%)");
    for (label, (sim, index)) in [("A", lab.a()), ("B", lab.b())] {
        let records = delay_records(sim, index);
        let delays: Vec<u64> = records.iter().map(|r| r.blocks).collect();
        delay_cdf_line(&mut out, &format!("dataset {label}"), &delays);
    }

    let _ = writeln!(out, "\nFigure 4(b) — fee-rate distributions (BTC/KB)");
    for (label, (_, index)) in [("A", lab.a()), ("B", lab.b())] {
        let rates: Vec<f64> = index
            .blocks()
            .iter()
            .flat_map(|b| b.txs.iter().map(|t| t.fee_rate().btc_per_kb()))
            .collect();
        if rates.is_empty() {
            continue;
        }
        let e = Ecdf::new(rates);
        let _ = writeln!(
            out,
            "dataset {label}: n={}, p10 {:.2e}, median {:.2e}, p90 {:.2e}, share in [1e-4,1e-3): {}",
            e.len(),
            e.quantile(0.1),
            e.quantile(0.5),
            e.quantile(0.9),
            fmt_pct(e.eval(1e-3) - e.eval(1e-4))
        );
    }

    let (out_a, _) = lab.a();
    let _ = writeln!(out, "\nFigure 4(c) — fee rates by congestion at issue time (dataset A)");
    let bins = fee_rates_by_congestion(&out_a.observer_streams[0], block_capacity(out_a));
    let mut table = Table::new(&["congestion bin", "n", "median BTC/KB", "p90 BTC/KB"]);
    for (i, name) in ["<1x (none)", "1-2x", "2-4x", ">4x"].iter().enumerate() {
        if bins[i].is_empty() {
            table.row(&[name.to_string(), "0".into(), "-".into(), "-".into()]);
            continue;
        }
        let e = Ecdf::new(bins[i].clone());
        table.row(&[
            name.to_string(),
            e.len().to_string(),
            format!("{:.2e}", e.quantile(0.5)),
            format!("{:.2e}", e.quantile(0.9)),
        ]);
    }
    out.push_str(&table.render());
    ks_dominance_note(&mut out, &bins);
    let _ = writeln!(out, "(paper: fee rates strictly higher at higher congestion)");
    out
}

/// Appends two-sample KS tests between adjacent congestion bins — the
/// statistical backing for "strictly higher in distribution".
fn ks_dominance_note(out: &mut String, bins: &[Vec<f64>; 4]) {
    for w in [(0usize, 1usize), (1, 2), (2, 3)] {
        let (lo, hi) = (&bins[w.0], &bins[w.1]);
        if lo.len() < 20 || hi.len() < 20 {
            continue;
        }
        let t = ks_two_sample(lo, hi);
        let lo_med = Ecdf::new(lo.clone()).quantile(0.5);
        let hi_med = Ecdf::new(hi.clone()).quantile(0.5);
        let _ = writeln!(
            out,
            "KS bin{} vs bin{}: D = {:.3}, p = {:.2e} ({}higher median at higher congestion)",
            w.0,
            w.1,
            t.statistic,
            t.p_value,
            if hi_med > lo_med { "" } else { "NOT " }
        );
    }
}

fn fee_band_report(sim: &SimOutput, index: &ChainIndex, label: &str) -> String {
    let mut out = String::new();
    let records = delay_records(sim, index);
    let by_band = delays_by_fee_band(&records);
    let _ = writeln!(out, "commit delays by fee band (dataset {label}):");
    for (band, name) in [
        (FeeBand::Low, "low (<1e-4 BTC/KB)"),
        (FeeBand::High, "high [1e-4,1e-3)"),
        (FeeBand::Exorbitant, "exorbitant (>=1e-3)"),
    ] {
        match by_band.get(&band) {
            Some(delays) if !delays.is_empty() => {
                delay_cdf_line(&mut out, name, delays);
            }
            _ => {
                let _ = writeln!(out, "{name}: (no transactions)");
            }
        }
    }
    let _ = writeln!(out, "(paper: higher fee band => stochastically smaller delay)");
    out
}

/// Figure 5: delay CDFs by fee band (dataset 𝒜).
pub fn fig5(lab: &Lab) -> String {
    let (sim, index) = lab.a();
    format!("Figure 5 — {}", fee_band_report(sim, index, "A"))
}

/// Figure 9: the ℬ Mempool-size time series (larger and spikier than 𝒜).
pub fn fig9(lab: &Lab) -> String {
    let (out_b, _) = lab.b();
    let mut out = String::new();
    let _ = writeln!(out, "Figure 9 — Mempool size over time (dataset B, sampled)");
    let series = size_series(&out_b.observer_streams[0]).unwrap_or_default();
    let stride = (series.len() / 20).max(1);
    let mut table = Table::new(&["t (h)", "mempool vB", "x capacity"]);
    for (t, v) in series.iter().step_by(stride) {
        table.row(&[
            format!("{:.2}", *t as f64 / 3_600.0),
            v.to_string(),
            format!("{:.2}", *v as f64 / block_capacity(out_b) as f64),
        ]);
    }
    out.push_str(&table.render());
    let congested = congested_fraction(&out_b.observer_streams[0], block_capacity(out_b));
    let _ = writeln!(out, "congested fraction: {} (paper: ~92%)", fmt_pct(congested));
    out
}

/// Figure 10: fee-rate CDFs of the top-5 pools' confirmed transactions
/// (dataset 𝒜) — the paper finds no major differences.
pub fn fig10(lab: &Lab) -> String {
    let (_, index) = lab.a();
    let attribution = attribute(index);
    let mut out = String::new();
    let _ = writeln!(out, "Figure 10 — fee rates by confirming pool (dataset A, top 5)");
    let mut table = Table::new(&["pool", "n", "p25 BTC/KB", "median", "p75"]);
    for pool in attribution.top(5) {
        let rates: Vec<f64> = index
            .blocks()
            .iter()
            .filter(|b| b.miner.as_deref() == Some(pool.name.as_str()))
            .flat_map(|b| b.txs.iter().map(|t| t.fee_rate().btc_per_kb()))
            .collect();
        if rates.is_empty() {
            continue;
        }
        let e = Ecdf::new(rates);
        table.row(&[
            pool.name.clone(),
            e.len().to_string(),
            format!("{:.2e}", e.quantile(0.25)),
            format!("{:.2e}", e.quantile(0.5)),
            format!("{:.2e}", e.quantile(0.75)),
        ]);
    }
    out.push_str(&table.render());
    let _ = writeln!(out, "(paper: no major distribution differences across MPOs)");
    out
}

/// Figure 11: fee rates by congestion level (dataset ℬ).
pub fn fig11(lab: &Lab) -> String {
    let (out_b, _) = lab.b();
    let mut out = String::new();
    let _ = writeln!(out, "Figure 11 — fee rates by congestion at issue time (dataset B)");
    let bins = fee_rates_by_congestion(&out_b.observer_streams[0], block_capacity(out_b));
    let mut table = Table::new(&["congestion bin", "n", "median BTC/KB", "p90 BTC/KB"]);
    for (i, name) in ["<1x (none)", "1-2x", "2-4x", ">4x"].iter().enumerate() {
        if bins[i].is_empty() {
            table.row(&[name.to_string(), "0".into(), "-".into(), "-".into()]);
            continue;
        }
        let e = Ecdf::new(bins[i].clone());
        table.row(&[
            name.to_string(),
            e.len().to_string(),
            format!("{:.2e}", e.quantile(0.5)),
            format!("{:.2e}", e.quantile(0.9)),
        ]);
    }
    out.push_str(&table.render());
    ks_dominance_note(&mut out, &bins);
    out
}

/// Figure 12: delay CDFs by fee band (dataset ℬ).
pub fn fig12(lab: &Lab) -> String {
    let (sim, index) = lab.b();
    format!("Figure 12 — {}", fee_band_report(sim, index, "B"))
}
