//! Observer-fleet experiment: how many vantage points does a trustworthy
//! audit need when the network is adversarial?
//!
//! The paper's datasets come from single observer nodes, and §7 concedes
//! the weakness: one mempool is one peer neighborhood's opinion. This
//! experiment runs the dataset-𝒞 misbehaviour roster with a *fleet* of
//! eight heterogeneous observers (peer counts, acceptance policies,
//! latency tiers) under four network scenarios — clean, an eclipse of the
//! primary observer, fleet-wide selective withholding of high-fee and
//! miner-origin transactions, and spy-resistant diffusion delays — then
//! reconciles the first N ∈ {1, 2, 4, 8} streams through
//! [`cn_core::reconcile()`] and reports, per (scenario, N):
//!
//! * fused coverage confidence and degraded-window count — whether the
//!   audit would *refuse* below the coverage floor;
//! * pair-detection precision/recall vs the configured misbehaviours
//!   (chain-side, hence identical for every N within a scenario — the
//!   adversary can only take them away by forcing a refusal);
//! * observation recall over the ground-truth accelerated/self-interest
//!   transactions — the rows the withholding adversary targets;
//! * mean first-seen lag vs true issue times, and the cross-observer
//!   first-seen spread the reconciliation layer uses to spot tampering.
//!
//! The adversaries touch only observer deliveries (miners relay
//! unimpeded), so they never corrupt the chain-side detectors directly;
//! the chain can still shift *slightly* across scenarios because users
//! pace CPFP children on full propagation, which observer deliveries
//! participate in. What degrades under attack is *observation*, and what
//! the fleet buys back is audit availability and first-seen fidelity.

use crate::exp_robustness::{detected_pairs, precision_recall, sweep_config, truth_pairs};
use crate::lab::Lab;
use cn_chain::{FastSet, Timestamp, Txid};
use cn_core::darkfee::score_detector;
use cn_core::delay::first_seen_times;
use cn_core::report::{fmt_pct, Table};
use cn_core::{
    audit_chain, audit_with_fleet, reconcile, ChainIndex, ObserverView, StreamExpectation,
};
use cn_data::{dataset_c, Scale};
use cn_mempool::MempoolPolicy;
use cn_net::{AdversaryPlan, DiffusionDelay, EclipseWindow, WithholdPredicate, WithholdRule};
use cn_sim::scenario::ObserverConfig;
use cn_sim::{SimOutput, World};
use std::fmt::Write as _;

/// The swept fleet sizes (prefixes of the eight-observer roster).
pub const FLEET_SIZES: [usize; 4] = [1, 2, 4, 8];

/// Coverage floor for the main table: below this fused confidence the
/// audit refuses instead of reporting (graceful degradation, not a
/// crash).
const FLOOR: f64 = 0.3;

/// SPPE cutoff for the chain-side dark-fee column (see `exp_robustness`).
const DARKFEE_THRESHOLD: f64 = 90.0;

/// The heterogeneous eight-observer roster. Index 0 is the paper's
/// dataset-𝒜 analog (the node every pre-fleet scenario ran), so an N = 1
/// fleet is exactly the single-observer baseline; the rest vary peer
/// count, acceptance policy, mempool cap, and latency tier.
fn fleet_roster(mempool_cap: u64) -> Vec<ObserverConfig> {
    let node = |label: &str, peers: usize, latency: f64| ObserverConfig {
        label: label.into(),
        peers,
        policy: MempoolPolicy::default(),
        max_mempool_vsize: None,
        latency_factor: latency,
    };
    vec![
        ObserverConfig::default_node().named("dc-a"),
        ObserverConfig {
            label: "wide".into(),
            peers: 125,
            policy: MempoolPolicy::accept_all(),
            max_mempool_vsize: None,
            latency_factor: 1.0,
        },
        node("edge", 8, 1.6),
        node("region", 16, 1.25),
        ObserverConfig {
            label: "capped".into(),
            peers: 8,
            policy: MempoolPolicy::default(),
            max_mempool_vsize: Some(mempool_cap),
            latency_factor: 1.0,
        },
        node("spv", 4, 1.4),
        ObserverConfig {
            label: "backbone".into(),
            peers: 64,
            policy: MempoolPolicy::accept_all(),
            max_mempool_vsize: None,
            latency_factor: 0.9,
        },
        node("far", 8, 2.0),
    ]
}

/// The four network scenarios: one clean anchor and three adversaries.
fn network_scenarios(duration: Timestamp) -> Vec<(&'static str, AdversaryPlan)> {
    let eclipse = AdversaryPlan {
        // The primary observer loses its peers a quarter into the run
        // and never recovers: 75 % of its windows are degraded, pushing
        // its solo confidence under the audit floor.
        eclipses: vec![EclipseWindow {
            observer: 0,
            start_secs: duration / 4,
            end_secs: duration,
        }],
        ..AdversaryPlan::none()
    };
    let withhold = AdversaryPlan {
        // Spy nodes withhold exactly the transactions an auditor needs:
        // high-fee traffic and miner-origin transfers. Every observer is
        // targeted independently, so a fleet's union recovers what any
        // single vantage point loses.
        withholds: vec![
            WithholdRule {
                observer: None,
                control: 0.6,
                predicate: WithholdPredicate::HighFee { min_sat_per_kvb: 20_000 },
            },
            WithholdRule { observer: None, control: 0.5, predicate: WithholdPredicate::MinerOrigin },
        ],
        ..AdversaryPlan::none()
    };
    let diffusion = AdversaryPlan {
        // Spy-resistant diffusion: observer-bound announcements stall up
        // to 40 s, smearing first-seen times without hiding anything.
        diffusion: Some(DiffusionDelay { stall_prob: 0.6, max_stall_ms: 40_000 }),
        ..AdversaryPlan::none()
    };
    vec![
        ("clean", AdversaryPlan::none()),
        ("eclipse", eclipse),
        ("withhold", withhold),
        ("diffusion", diffusion),
    ]
}

/// One scenario's finished measurements: a table row per fleet size plus
/// the scenario header, produced on a worker thread and rendered serially.
struct ScenarioRows {
    header: String,
    rows: Vec<[String; 10]>,
    /// Populated for the eclipse scenario: the refuse-vs-recover demo
    /// driven through the one-call [`audit_with_fleet`] API.
    demo: Option<String>,
}

/// Builds the per-observer views for the first `n` streams of a run.
fn fleet_views(sim: &SimOutput, n: usize, expectation: StreamExpectation) -> Vec<ObserverView> {
    sim.scenario
        .observers
        .iter()
        .zip(&sim.observer_streams)
        .take(n)
        .map(|(cfg, stream)| ObserverView {
            label: cfg.label.clone(),
            snapshots: stream.clone(),
            expectation,
        })
        .collect()
}

/// Runs one network scenario end to end: simulate once with the full
/// roster, audit the chain once (it is snapshot-independent), then sweep
/// the fleet sizes as pure post-processing over the recorded streams.
fn run_scenario(
    base: &cn_sim::scenario::Scenario,
    truth: &std::collections::HashSet<(String, String)>,
    name: &str,
    adversaries: &AdversaryPlan,
) -> ScenarioRows {
    let mut scenario = base.clone();
    scenario.name = format!("fleet-{name}");
    scenario.adversaries = adversaries.clone();
    let sim = World::new(scenario).run();
    let index = ChainIndex::build(&sim.chain);
    let expectation = StreamExpectation::from_run(
        sim.scenario.duration,
        sim.scenario.snapshot_interval,
        sim.scenario.snapshot_detail_every,
    )
    .with_min_coverage(FLOOR);

    // Chain-side detections: identical for every fleet size within this
    // scenario (the audit's findings never read the snapshots; coverage
    // only decides whether they may be reported).
    let chain_report = audit_chain(&sim.chain, &index, sweep_config());
    let (pair_p, pair_r) = precision_recall(&detected_pairs(&chain_report.findings), truth);
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
    let header = format!(
        "scenario {name}: darkfee P {} / R {} (chain-side, identical for every N)",
        fmt_pct(dark_p),
        fmt_pct(dark_r)
    );

    // Ground-truth transactions the observation layer is scored on: the
    // accelerated order book plus every misbehaving pool's self-interest
    // transfers — exactly the rows the withholding adversary censors.
    let mut targets: FastSet<Txid> = sim.truth.accelerated_txids();
    for (owner, _) in truth {
        targets.extend(sim.truth.self_interest_txids(owner));
    }

    let mut rows = Vec::with_capacity(FLEET_SIZES.len());
    for n in FLEET_SIZES {
        let views = fleet_views(&sim, n, expectation);
        let fleet = reconcile(&views).expect("a recording fleet always reconciles");
        // The fused first-seen map: its keys are the txids the fleet
        // observed pending, so they also join the fused stream to the chain.
        let first_seen = first_seen_times(&fleet.fused).unwrap_or_default();
        let coverage = fleet.coverage.with_first_seen(&first_seen, &index);
        let confidence = coverage.confidence();
        let refused = confidence < FLOOR;

        let seen = targets.iter().filter(|t| first_seen.contains_key(t)).count();
        let seen_r = if targets.is_empty() { 1.0 } else { seen as f64 / targets.len() as f64 };

        // Mean fused first-seen lag vs true issue time over the observed
        // targets: the diffusion adversary's signature.
        let lags: Vec<f64> = targets
            .iter()
            .filter_map(|t| {
                let seen = *first_seen.get(t)?;
                let issued = sim.truth.issue_time(t)?;
                Some(seen.saturating_sub(issued) as f64)
            })
            .collect();
        let mean_lag = if lags.is_empty() {
            0.0
        } else {
            lags.iter().sum::<f64>() / lags.len() as f64
        };

        rows.push([
            name.to_string(),
            n.to_string(),
            format!("{}/{}", fleet.labels.len(), n),
            if refused {
                format!("{confidence:.3} REFUSED")
            } else {
                format!("{confidence:.3}")
            },
            coverage.degraded_windows.to_string(),
            if refused { "-".into() } else { fmt_pct(pair_p) },
            if refused { "-".into() } else { fmt_pct(pair_r) },
            fmt_pct(seen_r),
            format!("{mean_lag:.1}"),
            format!("{:.1}", fleet.first_seen.mean_spread_secs),
        ]);
    }

    // The eclipse scenario doubles as the graceful-degradation demo: the
    // same streams through the one-call fleet audit, solo vs full fleet.
    let demo = (name == "eclipse").then(|| {
        let mut out = String::new();
        for n in [1, FLEET_SIZES[FLEET_SIZES.len() - 1]] {
            let views = fleet_views(&sim, n, expectation);
            match audit_with_fleet(&sim.chain, &index, &views, sweep_config()) {
                Ok((report, fleet)) => {
                    let cov = report.coverage.expect("fleet audits carry coverage");
                    let _ = writeln!(
                        out,
                        "audit_with_fleet N={n}: reported at confidence {:.3} ({} live observer(s))",
                        cov.confidence(),
                        fleet.labels.len()
                    );
                }
                Err(e) => {
                    let _ = writeln!(out, "audit_with_fleet N={n}: refused — {e}");
                }
            }
        }
        out
    });

    ScenarioRows { header, rows, demo }
}

/// The observer-fleet sweep: audit quality vs vantage-point count under
/// adversarial network scenarios.
pub fn observer_fleet(lab: &Lab) -> String {
    // Dataset 𝒞's roster and misbehaviours (the same ground truth the
    // robustness sweep scores against), span-trimmed at Full scale for
    // the same reason: four 8-observer runs of the full 7-day span would
    // dominate the harness.
    let mut base = dataset_c(lab.scale());
    if matches!(lab.scale(), Scale::Full) {
        base.duration = 48 * 3_600;
    }
    base.observers = fleet_roster(12 * base.params.max_block_vsize());
    // Eight streams make per-window detail four times as expensive as the
    // single-observer datasets; sample at 30 s / every 8th detailed so the
    // sweep's reconciliation work stays proportionate. Coverage fractions
    // are schedule-relative, so the trim does not bias any column.
    base.snapshot_interval = 30;
    base.snapshot_detail_every = 8;
    let truth = truth_pairs(&base);
    let scenarios = network_scenarios(base.duration);

    let mut out = String::new();
    let _ = writeln!(out, "Observer fleet — audit quality vs vantage-point count under adversarial networks");
    let _ = writeln!(
        out,
        "(dataset-C roster, {}h span, seed 0x{:X}; 8 heterogeneous observers, N = fleet prefix;",
        base.duration / 3_600,
        base.seed
    );
    let _ = writeln!(
        out,
        " adversaries: observer eclipse, selective withholding of high-fee/miner-origin txs,"
    );
    let _ = writeln!(out, " spy-resistant diffusion delays; coverage floor {FLOOR})\n");
    let _ = writeln!(out, "observer roster:");
    for o in &base.observers {
        let _ = writeln!(
            out,
            "  {}: {} peers, latency x{:.2}{}{}",
            o.label,
            o.peers,
            o.latency_factor,
            if o.policy == MempoolPolicy::accept_all() { ", accept-all" } else { "" },
            if o.max_mempool_vsize.is_some() { ", capped mempool" } else { "" },
        );
    }
    let _ = writeln!(out, "\nground-truth acceleration pairs: {}", truth.len());
    out.push('\n');

    // The four scenarios are independent sims, each building its own
    // world from the base scenario and its adversary plan; `Pool::map`
    // claims them across workers and joins in input order, so output is
    // byte-identical to a serial sweep.
    let results = cn_stats::Pool::auto()
        .map(&scenarios, |(name, plan)| run_scenario(&base, &truth, name, plan));

    let mut table = Table::new(&[
        "scenario",
        "N",
        "live",
        "confidence",
        "degraded",
        "pair P",
        "pair R",
        "seen R",
        "lag s",
        "spread s",
    ]);
    let mut demo = String::new();
    for scenario in results {
        let _ = writeln!(out, "{}", scenario.header);
        for row in &scenario.rows {
            table.row(row);
        }
        if let Some(d) = scenario.demo {
            demo = d;
        }
    }
    out.push('\n');
    out.push_str(&table.render());
    let _ = writeln!(
        out,
        "\npair P/R: flagged (owner, miner) pairs vs configured misbehaviours; '-' = audit refused"
    );
    let _ = writeln!(
        out,
        "(chain-side columns shift slightly across scenarios: observer deliveries take part in"
    );
    let _ = writeln!(
        out,
        " the full-propagation pacing of CPFP children, so suppressing them nudges the workload)"
    );
    let _ = writeln!(
        out,
        "seen R: ground-truth accelerated/self-interest txs observed pending by the fused stream"
    );
    let _ = writeln!(
        out,
        "lag s: mean fused first-seen minus true issue time; spread s: mean cross-observer first-seen spread"
    );
    out.push('\n');
    out.push_str(&demo);
    out
}
