//! Fault-injection integration tests: the fault layer must be bit-inert
//! when disabled, must actually damage observation when enabled, and the
//! audit pipeline must degrade — never panic — on the damaged streams.

use chain_neutrality::audit::congestion::{congested_fraction, size_series};
use chain_neutrality::audit::coverage::{SnapshotCoverage, StreamExpectation};
use chain_neutrality::audit::delay::first_seen_times;
use chain_neutrality::audit::error::AuditError;
use chain_neutrality::audit::pairs::count_violations;
use chain_neutrality::audit::{audit_with_snapshots, AuditConfig, ChainIndex};
use chain_neutrality::net::FaultPlan;
use chain_neutrality::prelude::*;

fn short_scenario(seed: u64) -> Scenario {
    let mut s = Scenario::base("faults-it", seed);
    s.duration = 2 * 3_600;
    s
}

#[test]
fn none_plan_is_bit_inert() {
    // A scenario carrying an explicit FaultPlan::none() must reproduce
    // the default-constructed run exactly: same chain, same snapshot
    // stream, byte for byte in every observable.
    let baseline = World::new(short_scenario(0xBEEF)).run();
    let mut with_plan = short_scenario(0xBEEF);
    with_plan.faults = FaultPlan::none();
    let explicit = World::new(with_plan).run();

    assert_eq!(baseline.chain.tip_hash(), explicit.chain.tip_hash());
    assert_eq!(baseline.chain.height(), explicit.chain.height());
    assert_eq!(baseline.observer_streams[0].len(), explicit.observer_streams[0].len());
    for (a, b) in baseline.observer_streams[0].iter().zip(&explicit.observer_streams[0]) {
        assert_eq!(a.time, b.time);
        assert_eq!(a.len(), b.len());
        assert_eq!(a.total_vsize(), b.total_vsize());
        assert_eq!(a.is_detailed(), b.is_detailed());
        assert_eq!(a.entries, b.entries);
    }
    assert_eq!(baseline.orphaned_blocks, 0);
    assert_eq!(explicit.orphaned_blocks, 0);
}

#[test]
fn downtime_gaps_the_snapshot_stream() {
    let intact = World::new(short_scenario(11)).run();
    let mut faulty = short_scenario(11);
    faulty.faults.observer.downtime_frac = 0.3;
    faulty.faults.observer.downtime_spells = 2;
    let damaged = World::new(faulty).run();

    assert!(
        damaged.observer_streams[0].len() < intact.observer_streams[0].len(),
        "downtime must drop windows: {} vs {}",
        damaged.observer_streams[0].len(),
        intact.observer_streams[0].len()
    );
    // Roughly the requested fraction is missing (spell placement rounds).
    let kept = damaged.observer_streams[0].len() as f64 / intact.observer_streams[0].len() as f64;
    assert!((0.55..=0.85).contains(&kept), "kept fraction {kept}");
}

#[test]
fn truncation_marks_detailed_snapshots() {
    let mut scenario = short_scenario(12);
    scenario.faults.observer.truncate_prob = 1.0;
    scenario.faults.observer.truncate_keep_frac = 0.4;
    let out = World::new(scenario).run();
    let detailed: Vec<_> = out.observer_streams[0].iter().filter(|s| s.is_detailed()).collect();
    assert!(!detailed.is_empty());
    assert!(detailed.iter().all(|s| s.is_truncated()));
}

#[test]
fn stale_tip_races_orphan_blocks() {
    let mut scenario = short_scenario(13);
    scenario.faults.stale_tip_prob = 0.4;
    let out = World::new(scenario).run();
    assert!(out.orphaned_blocks > 0, "40% stale probability over 2h found no orphans");
    // Orphans never reach the chain.
    assert!(out.chain.height() > 0);
    assert_eq!(out.block_miners.len() as u64, out.chain.height());
}

#[test]
fn audit_degrades_on_faulty_stream_instead_of_panicking() {
    let mut scenario = short_scenario(14);
    scenario.faults = FaultPlan::scaled(0.7);
    let out = World::new(scenario).run();
    let index = ChainIndex::build(&out.chain);
    let expectation = StreamExpectation::from_run(
        out.scenario.duration,
        out.scenario.snapshot_interval,
        out.scenario.snapshot_detail_every,
    );
    let report = audit_with_snapshots(
        &out.chain,
        &index,
        &out.observer_streams[0],
        expectation,
        AuditConfig::default(),
    )
    .expect("degrades without a floor");
    let coverage = report.coverage.expect("coverage block present");
    assert!(coverage.confidence() < 1.0, "intensity 0.7 must dent coverage");
    assert!(!coverage.is_complete());
    assert!(report.render().contains("degraded observation"));

    // The same stream against a strict floor refuses loudly.
    let strict = expectation.with_min_coverage(0.99);
    let err = audit_with_snapshots(
        &out.chain,
        &index,
        &out.observer_streams[0],
        strict,
        AuditConfig::default(),
    );
    assert!(matches!(err, Err(AuditError::InsufficientCoverage { .. })));
}

#[test]
fn audit_rejects_fully_dead_observer() {
    let out = World::new(short_scenario(15)).run();
    let index = ChainIndex::build(&out.chain);
    let expectation = StreamExpectation::from_run(7_200, 15, 4);
    let err = audit_with_snapshots(&out.chain, &index, &[], expectation, AuditConfig::default());
    assert_eq!(err.unwrap_err(), AuditError::EmptySnapshotStream);
}

#[test]
fn metric_entry_points_survive_damaged_streams() {
    let mut scenario = short_scenario(16);
    scenario.faults = FaultPlan::scaled(0.9);
    let out = World::new(scenario).run();

    // Ok on the damaged-but-nonempty stream, no panics on gapped input.
    assert!(first_seen_times(&out.observer_streams[0]).is_ok());
    let series = size_series(&out.observer_streams[0]).expect("the damaged stream is not empty");
    assert_eq!(series.len(), out.observer_streams[0].len());
    let frac = congested_fraction(&out.observer_streams[0], 100_000);
    assert!((0.0..=1.0).contains(&frac));

    // Typed errors on the hopeless streams.
    assert_eq!(size_series(&[]), Err(AuditError::EmptySnapshotStream));
    assert_eq!(first_seen_times(&[]).unwrap_err(), AuditError::EmptySnapshotStream);
    assert_eq!(count_violations(&[], 30).unwrap_err(), AuditError::NoDetailedSnapshots);

    // A stream of only aggregate (light) snapshots has no per-tx rows.
    let lights: Vec<MempoolSnapshot> =
        out.observer_streams[0].iter().filter(|s| !s.is_detailed()).cloned().collect();
    assert!(!lights.is_empty());
    assert_eq!(first_seen_times(&lights).unwrap_err(), AuditError::NoDetailedSnapshots);

    // Coverage on the damaged stream stays within [0, 1] everywhere.
    let expectation = StreamExpectation::from_run(
        out.scenario.duration,
        out.scenario.snapshot_interval,
        out.scenario.snapshot_detail_every,
    );
    let stream = &out.observer_streams[0];
    let cov = SnapshotCoverage::assess(stream, expectation.windows, expectation.detailed)
        .with_chain(stream, &ChainIndex::build(&out.chain));
    for f in [cov.window_fraction(), cov.detail_fraction(), cov.confirmed_observed_fraction()] {
        assert!((0.0..=1.0).contains(&f), "fraction {f}");
    }
    assert!((0.0..=1.0).contains(&cov.confidence()));
}

#[test]
fn link_faults_slow_but_do_not_corrupt_the_economy() {
    // Heavy loss/duplication/reordering must never produce an invalid
    // block (the run would panic) and the chain still grows.
    let mut scenario = short_scenario(17);
    scenario.faults.link.loss_prob = 0.25;
    scenario.faults.link.duplicate_prob = 0.3;
    scenario.faults.link.reorder_prob = 0.4;
    scenario.faults.link.jitter_ms = 30_000;
    scenario.faults.link.spike_prob = 0.2;
    scenario.faults.link.spike_ms = 60_000;
    scenario.cpfp_prob = 0.4; // stress the parent-packaging invariant
    let out = World::new(scenario).run();
    assert!(out.chain.height() > 0);
    // The audit over the resulting chain completes.
    let index = ChainIndex::build(&out.chain);
    let report = chain_neutrality::audit::audit_chain(&out.chain, &index, AuditConfig::default());
    assert!(!report.render().is_empty());
}
