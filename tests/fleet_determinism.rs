//! Observer-fleet determinism and adversary-boundary integration tests:
//! a default single-observer fleet with no adversaries must be
//! bit-identical to the pre-fleet world, eclipse windows must honor their
//! half-open `[start, end)` contract at the exact boundaries, and an
//! eclipsed observer must degrade into coverage-stamped verdicts — never
//! a crash.

use chain_neutrality::audit::error::AuditError;
use chain_neutrality::audit::{audit_with_fleet, reconcile, ObserverView, StreamExpectation};
use chain_neutrality::net::{AdversaryPlan, EclipseWindow};
use chain_neutrality::prelude::*;
use chain_neutrality::sim::scenario::ObserverConfig;

fn short_scenario(seed: u64) -> Scenario {
    let mut s = Scenario::base("fleet-it", seed);
    s.duration = 2 * 3_600;
    s
}

/// Expectation matching `short_scenario`'s snapshot schedule.
fn expectation(s: &Scenario) -> StreamExpectation {
    StreamExpectation::from_run(s.duration, s.snapshot_interval, s.snapshot_detail_every)
}

fn views(out: &SimOutput) -> Vec<ObserverView> {
    out.scenario
        .observers
        .iter()
        .zip(&out.observer_streams)
        .map(|(cfg, stream)| ObserverView {
            label: cfg.label.clone(),
            snapshots: stream.clone(),
            expectation: expectation(&out.scenario),
        })
        .collect()
}

#[test]
fn n1_fleet_with_no_adversaries_is_bit_identical_to_default() {
    // The default scenario (implicit single observer) against the same
    // scenario spelled out as an explicit one-node fleet with an explicit
    // empty adversary plan: every observable must match byte for byte.
    let baseline = World::new(short_scenario(0xF1EE7)).run();
    let mut explicit = short_scenario(0xF1EE7);
    explicit.observers = vec![ObserverConfig::default_node()];
    explicit.adversaries = AdversaryPlan::none();
    let fleet = World::new(explicit).run();

    assert_eq!(baseline.chain.tip_hash(), fleet.chain.tip_hash());
    assert_eq!(baseline.chain.height(), fleet.chain.height());
    assert_eq!(baseline.observer_streams[0], fleet.observer_streams[0]);
    assert_eq!(baseline.truth.len(), fleet.truth.len());
    assert_eq!(baseline.orphaned_blocks, fleet.orphaned_blocks);

    // A one-node fleet records exactly one stream.
    assert_eq!(fleet.observer_streams.len(), 1);
    assert!(fleet.observer_streams[0].iter().all(|s| !s.is_degraded()));
    assert_eq!(fleet.profile.observer_snapshots, vec![fleet.observer_streams[0].len() as u64]);
    assert_eq!(fleet.profile.observer_degraded, vec![0]);
}

#[test]
fn multi_observer_fleet_runs_deterministically_per_stream() {
    // A grown fleet is a *different* world (extra nodes shift the
    // topology draws), but it must still be deterministic run-to-run and
    // record every stream on the same window schedule.
    let mut grown = short_scenario(0xF1EE8);
    grown.observers = vec![
        ObserverConfig::default_node(),
        ObserverConfig { peers: 16, latency_factor: 1.5, ..ObserverConfig::default_node() }
            .named("slow"),
    ];
    let fleet = World::new(grown.clone()).run();
    let again = World::new(grown).run();

    assert_eq!(fleet.chain.tip_hash(), again.chain.tip_hash());
    assert_eq!(fleet.observer_streams, again.observer_streams);
    assert_eq!(fleet.observer_streams.len(), 2);
    // The slow observer records the same window schedule with its own
    // (latency-shifted) first-seen times.
    assert_eq!(fleet.observer_streams[0].len(), fleet.observer_streams[1].len());
    for (a, b) in fleet.observer_streams[0].iter().zip(&fleet.observer_streams[1]) {
        assert_eq!(a.time, b.time);
    }
}

#[test]
fn eclipse_window_boundaries_are_half_open() {
    // Snapshots land every `snapshot_interval` seconds; align the window
    // to the schedule so the boundary snapshots exist exactly at the
    // open and close instants.
    let mut s = short_scenario(0xEC11);
    let interval = s.snapshot_interval;
    let start = 16 * interval; // 240 s with the 15 s default
    let end = 32 * interval;
    s.adversaries = AdversaryPlan {
        eclipses: vec![EclipseWindow { observer: 0, start_secs: start, end_secs: end }],
        ..AdversaryPlan::none()
    };
    let out = World::new(s).run();

    for snap in &out.observer_streams[0] {
        let inside = snap.time >= start && snap.time < end;
        assert_eq!(
            snap.is_degraded(),
            inside,
            "snapshot at t={} (window [{start}, {end})) has wrong stamp",
            snap.time
        );
    }
    // The boundary instants themselves were exercised: a snapshot exactly
    // at the open is degraded, exactly at the close is not.
    assert!(out.observer_streams[0].iter().any(|s| s.time == start && s.is_degraded()));
    assert!(out.observer_streams[0].iter().any(|s| s.time == end && !s.is_degraded()));
    let degraded = out.observer_streams[0].iter().filter(|s| s.is_degraded()).count() as u64;
    assert_eq!(out.profile.observer_degraded, vec![degraded]);
}

#[test]
fn eclipsed_observer_degrades_to_coverage_stamped_verdicts() {
    // A two-observer fleet whose primary is eclipsed for the whole run:
    // the primary must keep emitting (degraded) snapshots, the solo audit
    // must refuse under a coverage floor rather than panic, and the fleet
    // audit must recover through the healthy second observer.
    let mut s = short_scenario(0xEC12);
    s.observers =
        vec![ObserverConfig::default_node(), ObserverConfig::default_node().named("backup")];
    s.adversaries = AdversaryPlan {
        eclipses: vec![EclipseWindow { observer: 0, start_secs: 0, end_secs: s.duration }],
        ..AdversaryPlan::none()
    };
    let out = World::new(s).run();

    // Graceful degradation: the stream exists and every window is
    // coverage-stamped; nothing crashed.
    assert!(!out.observer_streams[0].is_empty());
    assert!(out.observer_streams[0].iter().all(|snap| snap.is_degraded()));
    // The eclipse drops deliveries, so the frozen view must stay behind
    // the healthy observer's.
    let primary_rows: usize = out.observer_streams[0].iter().map(|s| s.len()).sum();
    let backup_rows: usize = out.observer_streams[1].iter().map(|s| s.len()).sum();
    assert!(primary_rows < backup_rows, "eclipsed view should miss rows");

    let index = ChainIndex::build(&out.chain);
    let all_views = views(&out);

    // Solo audit over the eclipsed stream: refuses under a floor, with a
    // typed error — never a panic.
    let mut solo = all_views[0].clone();
    solo.expectation = solo.expectation.with_min_coverage(0.5);
    let err =
        audit_with_fleet(&out.chain, &index, std::slice::from_ref(&solo), AuditConfig::default());
    assert!(
        matches!(err, Err(AuditError::InsufficientCoverage { .. })),
        "expected coverage refusal, got {err:?}"
    );

    // The fleet heals: the backup observer's healthy windows lift the
    // fused confidence back over the same floor.
    let mut floored = all_views.clone();
    for v in &mut floored {
        v.expectation = v.expectation.with_min_coverage(0.5);
    }
    let (report, fleet) = audit_with_fleet(&out.chain, &index, &floored, AuditConfig::default())
        .expect("fleet recovers");
    assert_eq!(fleet.labels.len(), 2);
    assert_eq!(fleet.coverage.degraded_windows, 0, "healthy eye heals every window");
    let cov = report.coverage.expect("fleet audits carry coverage");
    assert!(cov.confidence() >= 0.5);

    // A fleet that is blind in every eye still refuses with the typed
    // empty-stream error.
    let blind = [
        ObserverView {
            label: "a".into(),
            snapshots: Vec::new(),
            expectation: expectation(&out.scenario),
        },
        ObserverView {
            label: "b".into(),
            snapshots: Vec::new(),
            expectation: expectation(&out.scenario),
        },
    ];
    assert_eq!(reconcile(&blind).expect_err("no eyes"), AuditError::EmptySnapshotStream);
}
