//! Streaming ↔ batch equivalence: the online auditor over any chunking or
//! interleaving of a run's event stream must produce verdicts bit-identical
//! to the batch `audit_with_snapshots` over the finished run — including
//! its refusal behavior — and its windowed state must stay bounded.

use chain_neutrality::audit::streaming::{
    interleave, StreamEvent, StreamingAuditor, StreamingConfig,
};
use chain_neutrality::audit::{audit_with_snapshots, AuditError, StreamExpectation};
use chain_neutrality::net::{AdversaryPlan, EclipseWindow};
use chain_neutrality::prelude::*;
use chain_neutrality::sim::congestion::CongestionProfile;

/// A congested two-pool world with a self-accelerating pool, so the batch
/// report carries real findings for the equivalence check to pin.
fn scenario(seed: u64) -> Scenario {
    let mut scenario = Scenario::base("stream-eq", seed);
    scenario.duration = 6 * 3_600;
    scenario.params.max_block_weight = 400_000;
    scenario.congestion = CongestionProfile::flat(0.9);
    scenario.self_interest_rate = 0.012;
    scenario.pools = vec![
        PoolConfig::honest("Honest", 0.6, 2),
        PoolConfig::honest("Greedy", 0.4, 2).with_behavior(PoolBehavior::SelfInterest),
    ];
    scenario
}

fn world(seed: u64) -> SimOutput {
    World::new(scenario(seed)).run()
}

fn expectation(out: &SimOutput) -> StreamExpectation {
    let s = &out.scenario;
    StreamExpectation::from_run(s.duration, s.snapshot_interval, s.snapshot_detail_every)
}

fn batch_report(out: &SimOutput, expectation: StreamExpectation) -> AuditReport {
    let index = ChainIndex::build(&out.chain);
    audit_with_snapshots(
        &out.chain,
        &index,
        &out.observer_streams[0],
        expectation,
        AuditConfig::default(),
    )
    .expect("batch audits")
}

fn fresh_auditor(out: &SimOutput, expectation: StreamExpectation) -> StreamingAuditor {
    StreamingAuditor::new(out.chain.initial_utxos(), StreamingConfig::new(expectation))
}

/// A randomized interleaving of the run's blocks and snapshots: each
/// source keeps its internal order (blocks must connect in height order),
/// but which source supplies the next event is a coin flip.
fn random_interleaving<'a>(out: &'a SimOutput, rng: &mut SimRng) -> Vec<StreamEvent<'a>> {
    let blocks = out.chain.blocks();
    let snapshots = &out.observer_streams[0];
    let mut events = Vec::with_capacity(blocks.len() + snapshots.len());
    let (mut bi, mut si) = (0usize, 0usize);
    while bi < blocks.len() || si < snapshots.len() {
        let take_block = if bi == blocks.len() {
            false
        } else if si == snapshots.len() {
            true
        } else {
            rng.next_bool(0.5)
        };
        if take_block {
            events.push(StreamEvent::Block(&blocks[bi]));
            bi += 1;
        } else {
            events.push(StreamEvent::Snapshot(&snapshots[si]));
            si += 1;
        }
    }
    events
}

#[test]
fn whole_stream_at_once_matches_batch() {
    let out = world(41);
    let exp = expectation(&out);
    let batch = batch_report(&out, exp);
    assert!(!batch.findings.is_empty(), "the world must produce findings to pin");

    let mut auditor = fresh_auditor(&out, exp);
    for ev in interleave(out.chain.blocks(), &out.observer_streams[0]) {
        auditor.push_event(&ev).expect("replays");
    }
    let stream = auditor.verdict().expect("audits");
    assert_eq!(stream, batch, "streaming verdict must be bit-identical to batch");
    assert_eq!(stream.render(), batch.render());
}

#[test]
fn single_event_chunks_and_interior_verdicts_match_batch() {
    // Push one event at a time and take a verdict every few events: the
    // interior calls must neither fail unexpectedly nor perturb the final
    // verdict (verdict() is a pure function of the ingested events).
    let out = world(42);
    let exp = expectation(&out);
    let batch = batch_report(&out, exp);

    let mut auditor = fresh_auditor(&out, exp);
    let events = interleave(out.chain.blocks(), &out.observer_streams[0]);
    for (i, ev) in events.iter().enumerate() {
        auditor.push_event(ev).expect("replays");
        if i % 97 == 0 {
            let _ = auditor.verdict();
            let _ = auditor.rolling();
        }
    }
    let first = auditor.verdict().expect("audits");
    let second = auditor.verdict().expect("audits");
    assert_eq!(first, second, "verdict() must be repeatable");
    assert_eq!(first, batch);
}

#[test]
fn randomized_chunkings_and_interleavings_match_batch() {
    let out = world(43);
    let exp = expectation(&out);
    let batch = batch_report(&out, exp);

    // Three seeded random chunkings of the canonical time-ordered stream:
    // chunk boundaries are administrative, so rolling telemetry must agree
    // too (same ingested prefix at the end).
    let canonical = interleave(out.chain.blocks(), &out.observer_streams[0]);
    let mut rollings = Vec::new();
    for seed in [1u64, 2, 3] {
        let mut rng = SimRng::seed_from_u64(seed);
        let mut auditor = fresh_auditor(&out, exp);
        let mut i = 0usize;
        while i < canonical.len() {
            let chunk = (i + 1 + rng.next_below(64) as usize).min(canonical.len());
            for ev in &canonical[i..chunk] {
                auditor.push_event(ev).expect("replays");
            }
            i = chunk;
        }
        assert_eq!(auditor.verdict().expect("audits"), batch, "chunking seed {seed}");
        rollings.push(auditor.rolling());
    }
    assert!(rollings.windows(2).all(|w| w[0] == w[1]), "rolling is chunking-invariant");

    // Three seeded random interleavings of blocks against snapshots: the
    // exact verdict depends only on the event *set*, not arrival order.
    for seed in [7u64, 8, 9] {
        let mut rng = SimRng::seed_from_u64(seed);
        let mut auditor = fresh_auditor(&out, exp);
        for ev in random_interleaving(&out, &mut rng) {
            auditor.push_event(&ev).expect("replays");
        }
        assert_eq!(auditor.verdict().expect("audits"), batch, "interleaving seed {seed}");
    }
}

#[test]
fn refusal_parity_with_batch() {
    let out = world(44);
    let index = ChainIndex::build(&out.chain);
    let exp = expectation(&out);

    // Empty stream: both refuse identically.
    let mut blocks_only = fresh_auditor(&out, exp);
    for b in out.chain.blocks() {
        blocks_only.push_block(b).expect("replays");
    }
    assert_eq!(blocks_only.verdict(), Err(AuditError::EmptySnapshotStream));
    assert_eq!(
        audit_with_snapshots(&out.chain, &index, &[], exp, AuditConfig::default()),
        Err(AuditError::EmptySnapshotStream),
    );

    // A strict coverage floor over a decimated stream: identical refusal,
    // including the measured coverage payload.
    let strict = exp.with_min_coverage(0.95);
    let kept: Vec<MempoolSnapshot> = out.observer_streams[0].iter().step_by(5).cloned().collect();
    let mut auditor =
        StreamingAuditor::new(out.chain.initial_utxos(), StreamingConfig::new(strict));
    for b in out.chain.blocks() {
        auditor.push_block(b).expect("replays");
    }
    for s in &kept {
        auditor.push_snapshot(s);
    }
    let batch = audit_with_snapshots(&out.chain, &index, &kept, strict, AuditConfig::default());
    assert!(matches!(batch, Err(AuditError::InsufficientCoverage { .. })));
    assert_eq!(auditor.verdict(), batch);
}

#[test]
fn faulted_stream_matches_batch_with_and_without_refusal() {
    // Observer downtime gaps the stream, truncated dumps cut detailed
    // snapshots short, and an eclipse stamps an hour of windows degraded;
    // light snapshots stay in between. Batch and streaming audits must
    // count every kind of damage the same way, down to the coverage block.
    let mut faulted = scenario(46);
    faulted.faults.observer.downtime_frac = 0.2;
    faulted.faults.observer.downtime_spells = 2;
    faulted.faults.observer.truncate_prob = 0.5;
    faulted.faults.observer.truncate_keep_frac = 0.6;
    faulted.adversaries = AdversaryPlan {
        eclipses: vec![EclipseWindow { observer: 0, start_secs: 3_600, end_secs: 7_200 }],
        ..AdversaryPlan::none()
    };
    let out = World::new(faulted).run();
    assert!(out.observer_streams[0].iter().any(|s| s.is_detailed() && s.is_truncated()));
    assert!(out.observer_streams[0].iter().any(|s| s.is_degraded()));
    assert!(out.observer_streams[0].iter().any(|s| !s.is_detailed()));

    let index = ChainIndex::build(&out.chain);
    let exp = expectation(&out);
    let batch = audit_with_snapshots(
        &out.chain,
        &index,
        &out.observer_streams[0],
        exp,
        AuditConfig::default(),
    )
    .expect("degrades without a floor");
    let coverage = batch.coverage.expect("coverage block present");
    assert!(coverage.present_windows < coverage.expected_windows, "downtime must gap the stream");
    assert!(coverage.truncated_detailed > 0);
    assert!(coverage.degraded_windows > 0);

    let mut auditor = fresh_auditor(&out, exp);
    for ev in interleave(out.chain.blocks(), &out.observer_streams[0]) {
        auditor.push_event(&ev).expect("replays");
    }
    assert_eq!(auditor.verdict(), Ok(batch));

    // A floor above the measured confidence: both refuse, with the same
    // measured coverage in the error.
    assert!(coverage.confidence() < 0.99);
    let strict = exp.with_min_coverage(0.99);
    let refused = audit_with_snapshots(
        &out.chain,
        &index,
        &out.observer_streams[0],
        strict,
        AuditConfig::default(),
    );
    assert_eq!(
        refused,
        Err(AuditError::InsufficientCoverage { coverage: coverage.confidence(), required: 0.99 })
    );
    let mut auditor = fresh_auditor(&out, strict);
    for ev in interleave(out.chain.blocks(), &out.observer_streams[0]) {
        auditor.push_event(&ev).expect("replays");
    }
    assert_eq!(auditor.verdict(), refused);
}

#[test]
fn windowed_state_stays_far_below_processed_volume() {
    let out = world(45);
    let exp = expectation(&out);
    let mut auditor = fresh_auditor(&out, exp);
    for ev in interleave(out.chain.blocks(), &out.observer_streams[0]) {
        auditor.push_event(&ev).expect("replays");
    }
    let c = auditor.counters();
    assert!(c.rows_processed > 10_000, "the run must be row-heavy ({})", c.rows_processed);
    assert!(
        c.peak_window_rows * 4 <= c.rows_processed,
        "windowed state must stay O(window), not O(history): peak {} vs {} processed",
        c.peak_window_rows,
        c.rows_processed,
    );
    let rolling = auditor.rolling();
    assert_eq!(rolling.tip_blocks, out.chain.blocks().len() as u64);
    assert!(rolling.sealed_blocks <= rolling.tip_blocks);
    assert!(!rolling.miners.is_empty());
    assert!(rolling.delay_p50_p90.is_some());
}
