//! Norm-adherence experiments: Figures 1, 6, and 7.

use crate::lab::Lab;
use cn_core::pairs::{count_violations, PairObservation};
use cn_core::ppe::{block_ppe, chain_ppe, ppe_by_miner};
use cn_core::report::{fmt_cdf, Table};
use cn_core::{attribute, ChainIndex};
use cn_data::legacy::{synthetic_blocks, EraOrdering};
use cn_mempool::MempoolSnapshot;
use cn_stats::{Ecdf, SimRng, Summary};
use std::fmt::Write as _;

/// Figure 1: CDF of the fee-rate predictor's position error, pre- vs
/// post-April-2016 ordering norms.
pub fn fig1(_lab: &Lab) -> String {
    let mut rng = SimRng::seed_from_u64(2016);
    let pre = synthetic_blocks(EraOrdering::CoinAgePriority, 300, 120, &mut rng);
    let post = synthetic_blocks(EraOrdering::FeeRate, 300, 120, &mut rng);
    let pre_ppe: Vec<f64> = pre.iter().filter_map(block_ppe).collect();
    let post_ppe: Vec<f64> = post.iter().filter_map(block_ppe).collect();
    let pre_ecdf = Ecdf::new(pre_ppe);
    let post_ecdf = Ecdf::new(post_ppe);
    let mut out = String::new();
    let _ = writeln!(out, "Figure 1 — fee-rate-norm position-prediction error by era");
    let _ = writeln!(out, "(paper: ordering tracks the norm closely only after April 2016)\n");
    let _ = writeln!(
        out,
        "pre-2016 (coin-age priority): mean PPE {:.2}%, median {:.2}%",
        pre_ecdf.mean(),
        pre_ecdf.quantile(0.5)
    );
    let _ = writeln!(
        out,
        "post-2016 (fee-rate norm):    mean PPE {:.2}%, median {:.2}%\n",
        post_ecdf.mean(),
        post_ecdf.quantile(0.5)
    );
    let _ = writeln!(out, "CDF, pre-2016 era (PPE%  F):");
    out.push_str(&fmt_cdf(&pre_ecdf.curve(11)));
    let _ = writeln!(out, "\nCDF, post-2016 era (PPE%  F):");
    out.push_str(&fmt_cdf(&post_ecdf.curve(11)));
    out
}

/// Collects snapshot-level violation observations for Figure 6.
fn snapshot_observations(
    snap: &MempoolSnapshot,
    index: &ChainIndex,
    exclude_cpfp: bool,
) -> Vec<PairObservation> {
    snap.entries
        .iter()
        .filter_map(|e| {
            let rec = index.record(&e.txid)?;
            if exclude_cpfp && (rec.is_cpfp || e.has_unconfirmed_parent) {
                return None;
            }
            Some(PairObservation {
                received: e.received,
                fee_rate: e.fee_rate(),
                height: rec.height,
            })
        })
        .collect()
}

/// Figure 6: fraction of transaction pairs violating the selection norm
/// across 30 random Mempool snapshots of dataset 𝒜, for ε ∈ {0 s, 10 s,
/// 10 min}, with and without CPFP filtering.
pub fn fig6(lab: &Lab) -> String {
    let (out_a, index) = lab.a();
    let mut rng = SimRng::seed_from_u64(6);
    // Sample 30 snapshots with a decent backlog, uniformly at random.
    let eligible: Vec<&MempoolSnapshot> = out_a.observer_streams[0]
        .iter()
        .filter(|s| s.is_detailed() && s.len() >= 30)
        .collect();
    let mut picks: Vec<&MempoolSnapshot> = Vec::new();
    for _ in 0..30 {
        if let Some(s) = rng.choose(&eligible) {
            picks.push(s);
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "Figure 6 — violation-pair fractions over 30 random snapshots (dataset A)");
    let _ = writeln!(out, "(paper: a small but non-trivial fraction violates the norm, surviving");
    let _ = writeln!(out, " epsilon-tightening and CPFP removal)\n");
    for (label, exclude_cpfp) in [("all transactions", false), ("non-CPFP only", true)] {
        let mut table = Table::new(&["epsilon", "mean frac", "median frac", "max frac"]);
        for (eps_label, eps) in [("0s", 0u64), ("10s", 10), ("10min", 600)] {
            let fracs: Vec<f64> = picks
                .iter()
                .map(|s| {
                    let obs = snapshot_observations(s, index, exclude_cpfp);
                    // A snapshot with no eligible observations plots as 0.
                    count_violations(&obs, eps).map_or(0.0, |stats| stats.fraction_of_all())
                })
                .collect();
            let e = Ecdf::new(fracs);
            let pct4 = |x: f64| format!("{:.4}%", x * 100.0);
            table.row(&[
                eps_label.to_string(),
                pct4(e.mean()),
                pct4(e.quantile(0.5)),
                pct4(e.max()),
            ]);
        }
        let _ = writeln!(out, "[{label}]");
        out.push_str(&table.render());
        out.push('\n');
    }
    out
}

/// Figure 7: PPE CDF over dataset 𝒞 (a) overall and (b) per top-6 miner.
pub fn fig7(lab: &Lab) -> String {
    let (_, index) = lab.c();
    let ppes = chain_ppe(index);
    let ecdf = Ecdf::new(ppes.clone());
    let summary = Summary::of(&ppes);
    let mut out = String::new();
    let _ = writeln!(out, "Figure 7(a) — PPE over all dataset-C blocks");
    let _ = writeln!(
        out,
        "(paper: mean 2.65%, std 2.89, 80% of blocks below 4.03%)\n"
    );
    let _ = writeln!(
        out,
        "measured: mean {:.2}%, std {:.2}, p80 {:.2}%, blocks {}",
        summary.mean,
        summary.std,
        ecdf.quantile(0.8),
        summary.n
    );
    let _ = writeln!(out, "\nCDF (PPE%  F):");
    out.push_str(&fmt_cdf(&ecdf.curve(11)));

    let _ = writeln!(out, "\nFigure 7(b) — PPE by top-6 miner");
    let attribution = attribute(index);
    let by_miner = ppe_by_miner(index);
    let mut table = Table::new(&["pool", "blocks", "mean PPE", "median", "p80"]);
    for pool in attribution.top(6) {
        if let Some(values) = by_miner.get(&pool.name) {
            let e = Ecdf::new(values.clone());
            table.row(&[
                pool.name.clone(),
                values.len().to_string(),
                format!("{:.2}%", e.mean()),
                format!("{:.2}%", e.quantile(0.5)),
                format!("{:.2}%", e.quantile(0.8)),
            ]);
        }
    }
    out.push_str(&table.render());
    let _ = writeln!(
        out,
        "\n(paper: all pools broadly follow the norm; ViaBTC deviates slightly more)"
    );
    out
}
