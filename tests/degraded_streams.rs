//! Property tests for the degraded-data-tolerant audit pipeline: every
//! snapshot-consuming metric must be total (no panics) over streams with
//! random gaps, duplicate txids, empty detail dumps, and truncation, and
//! the coverage score must be monotone in the damage.

use chain_neutrality::audit::congestion::{congested_fraction, size_series};
use chain_neutrality::audit::coverage::SnapshotCoverage;
use chain_neutrality::audit::delay::first_seen_times;
use chain_neutrality::audit::error::AuditError;
use chain_neutrality::audit::pairs::{count_violations, count_violations_reference, PairObservation};
use chain_neutrality::prelude::*;
use cn_mempool::SnapshotEntry;
use proptest::prelude::*;

/// One random snapshot: detailed with 0..12 entries drawn from a tiny
/// txid alphabet (forcing duplicates across snapshots), or aggregate-only.
fn arb_snapshot() -> impl Strategy<Value = MempoolSnapshot> {
    (
        0u64..50_000,
        any::<bool>(),
        proptest::collection::vec((0u8..24, 0u64..50_000, 1u64..2_000_000, 50u64..5_000, any::<bool>()), 0..12),
        0usize..500,
        0u64..1_000_000,
        0.0f64..=1.0,
        any::<bool>(),
    )
        .prop_map(|(time, detailed, raw, count, vsize, keep, truncate)| {
            if detailed {
                let entries = raw
                    .into_iter()
                    .map(|(id, received, fee, vsize, cpfp)| SnapshotEntry {
                        txid: Txid::from([id; 32]),
                        received,
                        fee: Amount::from_sat(fee),
                        vsize,
                        has_unconfirmed_parent: cpfp,
                    })
                    .collect();
                let snap = MempoolSnapshot::from_entries(time, entries);
                if truncate {
                    snap.truncate_detail(keep)
                } else {
                    snap
                }
            } else {
                MempoolSnapshot::light(time, count, vsize)
            }
        })
}

fn arb_stream() -> impl Strategy<Value = Vec<MempoolSnapshot>> {
    proptest::collection::vec(arb_snapshot(), 0..30)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn first_seen_is_total_and_consistent(stream in arb_stream()) {
        // Total: no panic on any stream shape; a typed error only on
        // hopeless input.
        match first_seen_times(&stream) {
            Ok(seen) => {
                // Every reported txid really appears in a detailed
                // snapshot, at a time no later than any of its sightings.
                for (txid, t) in &seen {
                    let sightings: Vec<u64> = stream
                        .iter()
                        .filter(|s| s.is_detailed())
                        .flat_map(|s| s.rows())
                        .filter(|e| e.txid == *txid)
                        .map(|e| e.received)
                        .collect();
                    prop_assert!(!sightings.is_empty());
                    prop_assert!(sightings.iter().all(|s| t <= s), "first-seen after a sighting");
                }
                // And every detailed row's txid is reported.
                for s in stream.iter().filter(|s| s.is_detailed()) {
                    for e in s.rows() {
                        prop_assert!(seen.contains_key(&e.txid), "sighted txid missing");
                    }
                }
            }
            Err(AuditError::EmptySnapshotStream) => prop_assert!(stream.is_empty()),
            Err(AuditError::NoDetailedSnapshots) => {
                prop_assert!(!stream.is_empty());
                prop_assert!(stream.iter().all(|s| !s.is_detailed()));
            }
            Err(e) => prop_assert!(false, "unexpected error {e}"),
        }
    }

    #[test]
    fn congestion_metrics_are_total(stream in arb_stream(), capacity in 1u64..500_000) {
        match size_series(&stream) {
            Ok(series) => prop_assert_eq!(series.len(), stream.len()),
            Err(AuditError::EmptySnapshotStream) => prop_assert!(stream.is_empty()),
            Err(e) => prop_assert!(false, "unexpected error {e}"),
        }
        let frac = congested_fraction(&stream, capacity);
        prop_assert!((0.0..=1.0).contains(&frac), "fraction {frac}");
    }

    #[test]
    fn violation_counting_is_total(
        raw in proptest::collection::vec((0u64..2_000, 0u64..100_000, 0u64..60), 0..100),
        epsilon in 0u64..50,
    ) {
        let obs: Vec<PairObservation> = raw
            .into_iter()
            .map(|(t, rate, h)| PairObservation {
                received: t,
                fee_rate: FeeRate::from_sat_per_kvb(rate),
                height: h,
            })
            .collect();
        match count_violations(&obs, epsilon) {
            Ok(stats) => {
                prop_assert!(!obs.is_empty());
                prop_assert_eq!(stats, count_violations_reference(&obs, epsilon));
                prop_assert!(stats.violating <= stats.candidates);
            }
            Err(AuditError::NoDetailedSnapshots) => prop_assert!(obs.is_empty()),
            Err(e) => prop_assert!(false, "unexpected error {e}"),
        }
    }

    #[test]
    fn coverage_fractions_bounded_and_monotone(
        stream in arb_stream(),
        expected_windows in 0u64..40,
        expected_detailed in 0u64..40,
    ) {
        // Bounded on arbitrary streams and expectations (including
        // expectations *smaller* than the stream).
        let cov = SnapshotCoverage::assess(&stream, expected_windows, expected_detailed);
        for f in [cov.window_fraction(), cov.detail_fraction(), cov.confidence()] {
            prop_assert!((0.0..=1.0).contains(&f), "fraction {f}");
        }
        // Removing a suffix of windows never raises confidence.
        let mut last = f64::INFINITY;
        for removed in 0..=stream.len() {
            let cut = &stream[..stream.len() - removed];
            let c = SnapshotCoverage::assess(cut, expected_windows, expected_detailed).confidence();
            prop_assert!(c <= last + 1e-12, "confidence rose from {last} to {c}");
            last = c;
        }
    }

    #[test]
    fn truncation_shrinks_and_marks(snap in arb_snapshot(), keep in 0.0f64..=1.0) {
        let cut = snap.truncate_detail(keep);
        prop_assert!(cut.len() <= snap.len());
        prop_assert_eq!(cut.time, snap.time);
        if snap.is_detailed() {
            prop_assert!(cut.is_detailed());
            prop_assert!(cut.is_truncated());
            // Surviving entries are a subset of the original's.
            for e in cut.rows() {
                prop_assert!(snap.rows().any(|kept| kept == e));
            }
        } else {
            // Aggregate snapshots have nothing to truncate.
            prop_assert_eq!(cut.len(), snap.len());
            prop_assert_eq!(cut.is_truncated(), snap.is_truncated());
        }
    }
}
