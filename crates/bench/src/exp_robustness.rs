//! Robustness experiment: detector quality under injected faults.
//!
//! Sweeps [`FaultPlan::scaled`] intensity over the dataset-𝒞 misbehaviour
//! roster and reports, per level, how much observation survived (coverage
//! confidence), how many blocks were lost to stale-tip races, and the
//! precision/recall of the two detector families against the simulator's
//! ground truth:
//!
//! * **pair detection** — which (owner, miner) acceleration pairs the
//!   audit flags ([`Finding::SelfAcceleration`] /
//!   [`Finding::CollusiveAcceleration`]) vs the pools actually configured
//!   with `SelfInterest` / `Collude` behaviours;
//! * **dark-fee detection** — high-SPPE suspects in the provider's
//!   blocks scored against the acceleration order book (Table 4's
//!   methodology, degraded inputs).
//!
//! The zero-intensity row doubles as a regression anchor: it must match
//! what the fault-free audit reports.

use crate::lab::Lab;
use cn_chain::Txid;
use cn_core::darkfee::score_detector;
use cn_core::report::{fmt_pct, Table};
use cn_core::{audit_with_snapshots, AuditConfig, ChainIndex, Finding, StreamExpectation};
use cn_data::{dataset_c, Scale};
use cn_net::FaultPlan;
use cn_sim::scenario::{PoolBehavior, Scenario};
use cn_sim::World;
use cn_stats::Pool;
use std::collections::HashSet;
use std::fmt::Write as _;

/// The swept fault intensities (≥ 4 levels per the robustness protocol).
pub const INTENSITIES: [f64; 5] = [0.0, 0.15, 0.35, 0.6, 0.85];

/// SPPE cutoff for scoring the dark-fee detector. 90 % rather than the
/// paper's 99: the sweep's spans are hours, not a year, and quick-scale
/// blocks are small enough that the extreme percentile is mostly empty.
const DARKFEE_THRESHOLD: f64 = 90.0;

/// Detector settings for the sweep. Looser than [`AuditConfig::default`]
/// (alpha 0.01 vs 0.001, owners tested from 5 self-interest txs) so the
/// zero-fault row starts with measurable recall on a short span — the
/// sweep studies *degradation*, which needs a baseline above zero.
pub(crate) fn sweep_config() -> AuditConfig {
    AuditConfig { alpha: 0.01, sppe_threshold: DARKFEE_THRESHOLD, top_k: 20, min_c_txs: 5 }
}

/// (owner, miner) acceleration pairs the scenario actually configures —
/// the ground truth the audit findings are scored against.
pub(crate) fn truth_pairs(scenario: &Scenario) -> HashSet<(String, String)> {
    let mut pairs = HashSet::new();
    for pool in &scenario.pools {
        for behavior in &pool.behaviors {
            match behavior {
                PoolBehavior::SelfInterest => {
                    pairs.insert((pool.name.clone(), pool.name.clone()));
                }
                PoolBehavior::Collude { partners } => {
                    for partner in partners {
                        pairs.insert((partner.clone(), pool.name.clone()));
                    }
                }
                _ => {}
            }
        }
    }
    pairs
}

/// (owner, miner) pairs flagged by the audit.
pub(crate) fn detected_pairs(findings: &[Finding]) -> HashSet<(String, String)> {
    findings
        .iter()
        .filter_map(|f| match f {
            Finding::SelfAcceleration { miner, .. } => Some((miner.clone(), miner.clone())),
            Finding::CollusiveAcceleration { miner, owner, .. } => {
                Some((owner.clone(), miner.clone()))
            }
            Finding::DarkFeeSuspects { .. } => None,
        })
        .collect()
}

pub(crate) fn precision_recall(
    detected: &HashSet<(String, String)>,
    truth: &HashSet<(String, String)>,
) -> (f64, f64) {
    let tp = detected.intersection(truth).count() as f64;
    let precision = if detected.is_empty() { 1.0 } else { tp / detected.len() as f64 };
    let recall = if truth.is_empty() { 1.0 } else { tp / truth.len() as f64 };
    (precision, recall)
}

/// One intensity level's finished measurements, produced on a worker
/// thread and rendered serially so output stays byte-identical to the
/// old one-sim-at-a-time loop.
struct SweepRow {
    cells: [String; 9],
    /// Populated only for the last intensity: the 95 % coverage-floor demo.
    floor_demo: Option<String>,
}

/// Runs one fault-intensity level end to end: simulate, audit, score both
/// detector families. Pure function of its inputs, so levels can run on
/// separate workers.
fn sweep_level(
    base: &Scenario,
    truth: &HashSet<(String, String)>,
    intensity: f64,
    is_last: bool,
) -> SweepRow {
    let mut scenario = base.clone();
    scenario.name = format!("robustness-{intensity:.2}");
    scenario.faults = FaultPlan::scaled(intensity);
    let sim = World::new(scenario).run();
    let index = ChainIndex::build(&sim.chain);
    let expectation = StreamExpectation::from_run(
        sim.scenario.duration,
        sim.scenario.snapshot_interval,
        sim.scenario.snapshot_detail_every,
    );

    let (confidence, windows, detailed, pair_p, pair_r) = match audit_with_snapshots(
        &sim.chain,
        &index,
        &sim.observer_streams[0],
        expectation,
        sweep_config(),
    ) {
        Ok(report) => {
            let cov = report.coverage.expect("snapshot audits carry coverage");
            let (p, r) = precision_recall(&detected_pairs(&report.findings), truth);
            (
                format!("{:.3}", cov.confidence()),
                format!("{}/{}", cov.present_windows, cov.expected_windows),
                format!(
                    "{}/{} ({})",
                    cov.present_detailed, cov.expected_detailed, cov.truncated_detailed
                ),
                fmt_pct(p),
                fmt_pct(r),
            )
        }
        Err(e) => {
            // With min_coverage = 0 this only fires on a totally dead
            // observer; report it instead of crashing the sweep.
            (format!("err: {e}"), "-".into(), "-".into(), "-".into(), "-".into())
        }
    };

    // Dark-fee detection, scored against the provider's order book
    // (BTC.com, as in Table 4) plus the simulator's labels.
    let provider = "BTC.com";
    let (dark_p, dark_r) = match sim
        .pool_names
        .iter()
        .position(|n| n == provider)
        .and_then(|i| sim.services[i].as_ref())
    {
        Some(service) => {
            let service = service.lock();
            let oracle = |t: &Txid| service.is_accelerated(t) || sim.truth.is_accelerated(t);
            score_detector(&index, provider, DARKFEE_THRESHOLD, &oracle)
        }
        None => (0.0, 0.0),
    };

    // At the harshest level, show the refuse-to-report path: the same
    // stream against a 95 % coverage floor.
    let floor_demo = is_last.then(|| {
        let strict = expectation.with_min_coverage(0.95);
        match audit_with_snapshots(
            &sim.chain,
            &index,
            &sim.observer_streams[0],
            strict,
            sweep_config(),
        ) {
            Ok(_) => {
                format!("coverage floor 0.95 at intensity {intensity:.2}: audit still passed")
            }
            Err(e) => format!("coverage floor 0.95 at intensity {intensity:.2}: refused — {e}"),
        }
    });

    SweepRow {
        cells: [
            format!("{intensity:.2}"),
            confidence,
            windows,
            detailed,
            sim.orphaned_blocks.to_string(),
            pair_p,
            pair_r,
            fmt_pct(dark_p),
            fmt_pct(dark_r),
        ],
        floor_demo,
    }
}

/// The robustness sweep: detector precision/recall vs fault intensity.
pub fn robustness(lab: &Lab) -> String {
    // Dataset 𝒞's roster and misbehaviours, with the span trimmed at Full
    // scale: five runs of the 7-day scenario would dominate the whole
    // harness, and fault effects saturate well before that.
    let mut base = dataset_c(lab.scale());
    if matches!(lab.scale(), Scale::Full) {
        base.duration = 48 * 3_600;
    }
    let truth = truth_pairs(&base);

    let mut out = String::new();
    let _ = writeln!(out, "Robustness — detector quality vs injected-fault intensity");
    let _ = writeln!(
        out,
        "(dataset-C roster, {}h span, seed 0x{:X}; faults: link loss/spikes/duplicates,",
        base.duration / 3_600,
        base.seed
    );
    let _ = writeln!(
        out,
        " observer downtime + truncated detail dumps, stale-tip block races)\n"
    );
    let _ = writeln!(out, "ground-truth acceleration pairs: {}", truth.len());
    for (owner, miner) in {
        let mut sorted: Vec<_> = truth.iter().collect();
        sorted.sort();
        sorted
    } {
        let _ = writeln!(out, "  {miner} accelerates {owner}");
    }
    out.push('\n');

    let mut table = Table::new(&[
        "intensity",
        "confidence",
        "windows",
        "detailed (trunc)",
        "orphans",
        "pair P",
        "pair R",
        "darkfee P",
        "darkfee R",
    ]);
    // The five levels are independent sims, each building its own world
    // from a clone of the base scenario; `Pool::map` claims them across
    // workers and joins in level order, so the table is byte-identical to
    // a serial sweep.
    let levels: Vec<usize> = (0..INTENSITIES.len()).collect();
    let rows = Pool::auto().map(&levels, |&i| {
        sweep_level(&base, &truth, INTENSITIES[i], i + 1 == INTENSITIES.len())
    });

    let mut floor_demo = String::new();
    for row in rows {
        table.row(&row.cells);
        if let Some(demo) = row.floor_demo {
            floor_demo = demo;
        }
    }
    out.push_str(&table.render());
    let _ = writeln!(
        out,
        "\npair P/R: flagged (owner, miner) acceleration pairs vs configured misbehaviours"
    );
    let _ = writeln!(
        out,
        "darkfee P/R: SPPE>=90% suspects in BTC.com blocks vs the acceleration order book"
    );
    let _ = writeln!(out, "{floor_demo}");
    out
}
