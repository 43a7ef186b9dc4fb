//! Fleet fusion against its reference, at every fork-join width.
//!
//! `reconcile_with_pool` fuses the windows in one serial fold: a window
//! whose contributors were each merged from their snapshots in the last
//! detailed window re-fuses only the txids their deltas name, and every
//! other window is a keyframe, a k-way merge over the contributors'
//! txid-sorted rows. It reads `txs_observed` off its first-seen maps. The
//! reference below is the straightforward version: a hash union of every
//! window's rows re-sorted by txid, a full row-hashing coverage assessment
//! per stream, and per-observer first-seen maps merged in roster order.
//! The properties assert the two agree field for field at widths 1–8
//! (DESIGN.md §8), over two kinds of fleet:
//!
//! * fleets with light, truncated and degraded windows, repeated window
//!   times within one observer, and duplicate txids with differing fees
//!   inside one snapshot, whose first observer may instead be a stream
//!   recorded from a real `Mempool`;
//! * fleets of 2–5 views recorded from `Mempool`s fed one shared history,
//!   each view taking some admissions and removals late or never, so
//!   their windows have lineage and take the delta path, mixed with
//!   unchanged pools, store restarts, dropped change lists, truncation
//!   cuts, missed windows and repeated times, which make keyframes.
//!
//! The library folds each stored row once where the reference folds every
//! listing: `first_seen_times` and `SnapshotCoverage::assess` visit a row
//! that many snapshots list only at its first listing. A second property
//! compares both with the per-listing folds over a recorded stream, a
//! sub-slice of it, and two recorded streams concatenated with truncation
//! cuts and standalone `from_entries` snapshots mixed in; the shared-history
//! property does the same over its fused stream, whose windows share one
//! row store where they were merged from one another.

use cn_chain::{Address, Amount, FastMap, FastSet, Timestamp, Transaction, Txid};
use cn_core::delay::first_seen_times;
use cn_core::reconcile::{reconcile_with_pool, FirstSeenStats, FleetView, ObserverView};
use cn_core::{AuditError, SnapshotCoverage, StreamExpectation};
use cn_mempool::{Mempool, MempoolPolicy, MempoolSnapshot, SnapshotEntry};
use cn_stats::Pool;
use proptest::prelude::*;
use std::collections::BTreeMap;

// ---- the reference ----

/// Coverage by hashing every detailed row of the stream.
fn reference_assess(
    snapshots: &[MempoolSnapshot],
    expected_windows: u64,
    expected_detailed: u64,
) -> SnapshotCoverage {
    let detailed: Vec<&MempoolSnapshot> = snapshots.iter().filter(|s| s.is_detailed()).collect();
    let observed: FastSet<Txid> =
        detailed.iter().flat_map(|s| s.rows().map(|e| e.txid)).collect();
    SnapshotCoverage {
        expected_windows,
        present_windows: snapshots.len() as u64,
        expected_detailed,
        present_detailed: detailed.len() as u64,
        truncated_detailed: detailed.iter().filter(|s| s.is_truncated()).count() as u64,
        degraded_windows: snapshots.iter().filter(|s| s.is_degraded()).count() as u64,
        txs_observed: observed.len(),
        txs_confirmed: 0,
        confirmed_observed: 0,
    }
}

/// Window-by-window union. Contributors are bucketed by time in roster
/// order (then stream order), and rows are folded in that order: the
/// first row of a txid supplies fee and vsize, later rows lower
/// `received` to their minimum and OR `has_unconfirmed_parent` in.
fn reference_fuse(live: &[&ObserverView]) -> Vec<MempoolSnapshot> {
    if let [solo] = live {
        return solo.snapshots.clone();
    }
    let mut by_time: BTreeMap<Timestamp, Vec<&MempoolSnapshot>> = BTreeMap::new();
    for view in live {
        for snap in &view.snapshots {
            by_time.entry(snap.time).or_default().push(snap);
        }
    }
    by_time
        .into_iter()
        .map(|(time, contributors)| {
            let detailed: Vec<&&MempoolSnapshot> =
                contributors.iter().filter(|s| s.is_detailed()).collect();
            let snap = if detailed.is_empty() {
                let count = contributors.iter().map(|s| s.len()).max().unwrap_or(0);
                let vsize = contributors.iter().map(|s| s.total_vsize()).max().unwrap_or(0);
                MempoolSnapshot::light(time, count, vsize)
            } else {
                let mut rows: FastMap<Txid, SnapshotEntry> = FastMap::default();
                for s in &detailed {
                    for e in s.rows() {
                        rows.entry(e.txid)
                            .and_modify(|kept| {
                                kept.received = kept.received.min(e.received);
                                kept.has_unconfirmed_parent |= e.has_unconfirmed_parent;
                            })
                            .or_insert(*e);
                    }
                }
                let merged = MempoolSnapshot::from_entries(time, rows.into_values().collect());
                if detailed.iter().all(|s| s.is_truncated()) {
                    merged.truncate_detail(1.0)
                } else {
                    merged
                }
            };
            if contributors.iter().all(|s| s.is_degraded()) {
                snap.mark_degraded()
            } else {
                snap
            }
        })
        .collect()
}

/// Cross-observer first-seen statistics from per-observer maps.
fn reference_first_seen(live: &[&ObserverView]) -> FirstSeenStats {
    let mut sightings: FastMap<Txid, (Timestamp, Timestamp, usize)> = FastMap::default();
    for view in live {
        let mut first: FastMap<Txid, Timestamp> = FastMap::default();
        for snap in view.snapshots.iter().filter(|s| s.is_detailed()) {
            for e in snap.rows() {
                first
                    .entry(e.txid)
                    .and_modify(|t| *t = (*t).min(e.received))
                    .or_insert(e.received);
            }
        }
        for (txid, t) in first {
            sightings
                .entry(txid)
                .and_modify(|(min, max, n)| {
                    *min = (*min).min(t);
                    *max = (*max).max(t);
                    *n += 1;
                })
                .or_insert((t, t, 1));
        }
    }
    let mut spreads: Vec<u64> =
        sightings.values().filter(|(_, _, n)| *n >= 2).map(|(min, max, _)| max - min).collect();
    spreads.sort_unstable();
    let n = spreads.len();
    FirstSeenStats {
        txs_union: sightings.len(),
        txs_all: sightings.values().filter(|(_, _, n)| *n == live.len()).count(),
        disagreements: spreads.iter().filter(|s| **s > 0).count(),
        mean_spread_secs: if n == 0 { 0.0 } else { spreads.iter().sum::<u64>() as f64 / n as f64 },
        median_spread_secs: match n {
            0 => 0.0,
            n if n.is_multiple_of(2) => (spreads[n / 2 - 1] + spreads[n / 2]) as f64 / 2.0,
            n => spreads[n / 2] as f64,
        },
        max_spread_secs: spreads.last().copied().unwrap_or(0),
    }
}

fn reference_reconcile(views: &[ObserverView]) -> Result<FleetView, AuditError> {
    let (live, dead): (Vec<&ObserverView>, Vec<&ObserverView>) =
        views.iter().partition(|v| !v.snapshots.is_empty());
    if live.is_empty() {
        return Err(AuditError::EmptySnapshotStream);
    }
    let expectation = StreamExpectation {
        windows: live.iter().map(|v| v.expectation.windows).max().unwrap_or(0),
        detailed: live.iter().map(|v| v.expectation.detailed).max().unwrap_or(0),
        min_coverage: live.iter().map(|v| v.expectation.min_coverage).fold(0.0, f64::max),
    };
    let fused = reference_fuse(&live);
    Ok(FleetView {
        labels: live.iter().map(|v| v.label.clone()).collect(),
        dropped: dead.iter().map(|v| v.label.clone()).collect(),
        per_observer: live
            .iter()
            .map(|v| reference_assess(&v.snapshots, v.expectation.windows, v.expectation.detailed))
            .collect(),
        coverage: reference_assess(&fused, expectation.windows, expectation.detailed),
        fused,
        first_seen: reference_first_seen(&live),
        expectation,
    })
}

fn assert_matches_reference(got: &FleetView, want: &FleetView, workers: usize) {
    assert_eq!(got.labels, want.labels, "workers={workers}");
    assert_eq!(got.dropped, want.dropped, "workers={workers}");
    assert_eq!(got.per_observer, want.per_observer, "workers={workers}");
    assert_eq!(got.fused, want.fused, "workers={workers}");
    assert_eq!(got.coverage, want.coverage, "workers={workers}");
    assert_eq!(got.first_seen, want.first_seen, "workers={workers}");
    assert_eq!(got.expectation, want.expectation, "workers={workers}");
    assert_eq!(got.render(), want.render(), "workers={workers}");
}

// ---- the fleets ----

/// A row over a 64-txid space. Fee, vsize and the parent flag are drawn
/// per row, so a txid repeated within a snapshot or across observers
/// carries differing values and every fold rule is visible.
fn entry_strategy() -> impl Strategy<Value = SnapshotEntry> {
    (0u8..64, 0u64..5_000, 1_000u64..300_000, 60u64..400, any::<bool>()).prop_map(
        |(seed, received, fee, vsize, parent)| SnapshotEntry {
            txid: Txid::from([seed; 32]),
            received,
            fee: Amount::from_sat(fee),
            vsize,
            has_unconfirmed_parent: parent,
        },
    )
}

/// One snapshot at one of 8 window times (so an observer can repeat a
/// time): detailed with 0–40 rows, light, or detailed and then cut by
/// `truncate_detail` at 0, ¼, ½, ¾ or all of its rows; any of them
/// possibly degraded.
fn snapshot_strategy() -> impl Strategy<Value = MempoolSnapshot> {
    (
        0u64..8,
        proptest::collection::vec(entry_strategy(), 0..40),
        0u8..7,
        0usize..60,
        any::<bool>(),
    )
        .prop_map(|(w, rows, kind, light_count, degraded)| {
            let time = w * 600 + 300;
            let snap = match kind {
                0 => MempoolSnapshot::light(time, light_count, light_count as u64 * 150),
                1 => MempoolSnapshot::from_entries(time, rows),
                cut => MempoolSnapshot::from_entries(time, rows)
                    .truncate_detail(f64::from(cut - 2) / 4.0),
            };
            if degraded {
                snap.mark_degraded()
            } else {
                snap
            }
        })
}

/// A stream recorded from one `Mempool` view: a backlog of 0–150 roots,
/// then up to 160 steps that admit a root or a child of a resident (whose
/// CPFP flag then turns on), remove a resident with its descendants, or
/// take a detailed or a light snapshot at one of the 8 window times.
fn recorded_stream_strategy() -> impl Strategy<Value = Vec<MempoolSnapshot>> {
    (0u32..150, proptest::collection::vec((0u8..8, any::<u32>()), 0..160))
        .prop_map(|(backlog, steps)| record(backlog, &steps))
}

fn record(backlog: u32, steps: &[(u8, u32)]) -> Vec<MempoolSnapshot> {
    let spend = |prevout: Txid, value: u64| {
        Transaction::builder()
            .add_input_with_sizes(prevout, 0, 107, 0)
            .pay_to(Address::from_label("r"), Amount::from_sat(value))
            .build()
    };
    let root = |n: u32| {
        let mut prevout = [0xC7; 32];
        prevout[..4].copy_from_slice(&n.to_le_bytes());
        spend(Txid::from(prevout), 50_000 + u64::from(n))
    };
    let mut pool = Mempool::new(MempoolPolicy::accept_all());
    let mut roots = 0u32;
    for _ in 0..backlog {
        let tx = root(roots);
        roots += 1;
        pool.add(tx.clone(), Amount::from_sat(tx.vsize() * 2), 0).expect("a fresh root");
    }
    let mut stream = Vec::new();
    for (step, &(kind, pick)) in steps.iter().enumerate() {
        let now = step as u64 + 1;
        let resident =
            (!pool.is_empty()).then(|| pool.iter().nth(pick as usize % pool.len()).map(|e| e.txid()));
        let time = u64::from(pick % 8) * 600 + 300;
        match kind {
            0 | 1 => {
                let tx = root(roots);
                roots += 1;
                let fee = Amount::from_sat(tx.vsize() * u64::from(1 + pick % 9));
                pool.add(tx, fee, now).expect("a fresh root");
            }
            2 => {
                if let Some(Some(parent)) = resident {
                    let tx = spend(parent, 1_000 + u64::from(pick % 997));
                    let _ = pool.add(tx, Amount::from_sat(2_000), now);
                }
            }
            3 | 4 => {
                if let Some(Some(victim)) = resident {
                    pool.remove_with_descendants(&victim);
                }
            }
            5 | 6 => stream.push(pool.snapshot(time)),
            _ => stream.push(pool.snapshot_light(time)),
        }
    }
    stream
}

/// A fleet of 1–6 observers, each with 0–8 snapshots and its own
/// expectation; an observer with no snapshots is dropped. On one fleet
/// in four, the first observer's stream is recorded from a `Mempool`.
fn fleet_strategy() -> impl Strategy<Value = Vec<ObserverView>> {
    let view_s = (
        proptest::collection::vec(snapshot_strategy(), 0..8),
        0u64..12,
        0u64..12,
        0u8..3,
    );
    (proptest::collection::vec(view_s, 1..=6), 0u8..4, recorded_stream_strategy()).prop_map(
        |(views, recorded, stream)| {
            let mut views: Vec<ObserverView> = views
                .into_iter()
                .enumerate()
                .map(|(i, (snapshots, windows, detailed, floor))| ObserverView {
                    label: format!("obs-{i}"),
                    snapshots,
                    expectation: StreamExpectation {
                        windows,
                        detailed: detailed.min(windows),
                        min_coverage: f64::from(floor) / 4.0,
                    },
                })
                .collect();
            if recorded == 0 {
                views[0].snapshots = stream;
            }
            views
        },
    )
}

/// One step of a fleet's shared history: its kind, a pick, and each of up
/// to five views' take on it.
type SharedStep = (u8, u32, [u8; 5]);

/// A fleet of 2–5 views recorded from `Mempool`s fed one shared history:
/// a backlog of 100–400 roots, then up to 80 steps that admit a root or a
/// child of an earlier transaction, remove an earlier transaction with its
/// descendants, flood some views with more admissions and removals than
/// they hold (which drops their change lists), or snapshot every view at
/// the next window time.
fn shared_fleet_strategy() -> impl Strategy<Value = Vec<ObserverView>> {
    let take = 0u8..32;
    let takes = (take.clone(), take.clone(), take.clone(), take.clone(), take)
        .prop_map(|(a, b, c, d, e)| [a, b, c, d, e]);
    let step = (0u8..10, any::<u32>(), takes);
    (2usize..=5, 100u32..400, proptest::collection::vec(step, 0..80))
        .prop_map(|(views, backlog, steps)| record_fleet(views, backlog, &steps))
}

/// A pending change to one view's pool.
#[derive(Clone)]
enum Change {
    Admit(Transaction, Amount),
    Remove(Txid),
}

fn apply(pool: &mut Mempool, change: Change, now: Timestamp) {
    match change {
        Change::Admit(tx, fee) => {
            let _ = pool.add(tx, fee, now);
        }
        Change::Remove(txid) => {
            pool.remove_with_descendants(&txid);
        }
    }
}

/// Plays `steps` into `views` pools. A view takes an admission or a
/// removal now (26 in 32), one step late (so its first-seen times differ
/// from the others'), or never. At a snapshot step it takes a detailed
/// snapshot (28 in 32), a light one, one cut to half its rows, none (a
/// missed window), or two at the same time. A flood reaches a view on 8
/// in 32.
fn record_fleet(views: usize, backlog: u32, steps: &[SharedStep]) -> Vec<ObserverView> {
    let coin = |tag: u8, n: u32| {
        let mut prevout = [tag; 32];
        prevout[..4].copy_from_slice(&n.to_le_bytes());
        Txid::from(prevout)
    };
    let spend = |prevout: Txid, vout: u32, value: u64| {
        Transaction::builder()
            .add_input_with_sizes(prevout, vout, 107, 0)
            .pay_to(Address::from_label("r"), Amount::from_sat(value))
            .pay_to(Address::from_label("s"), Amount::from_sat(value))
            .build()
    };
    let mut pools: Vec<Mempool> =
        (0..views).map(|_| Mempool::new(MempoolPolicy::accept_all())).collect();
    let mut streams: Vec<Vec<MempoolSnapshot>> = vec![Vec::new(); views];
    let mut late: Vec<Vec<Change>> = vec![Vec::new(); views];
    let mut made: Vec<Txid> = Vec::new();
    // Flood transactions leave as soon as they arrive, so every flood
    // reuses them.
    let mut flood: Vec<Transaction> = Vec::new();
    for n in 0..backlog {
        let tx = spend(coin(0xB0, n), 0, 40_000 + u64::from(n));
        let fee = Amount::from_sat(tx.vsize() * u64::from(1 + n % 7));
        made.push(tx.txid());
        pools.iter_mut().for_each(|p| apply(p, Change::Admit(tx.clone(), fee), 0));
    }
    let mut roots = backlog;
    let mut windows = 0u64;
    for (step, &(kind, pick, takes)) in steps.iter().enumerate() {
        let now = step as u64 + 1;
        for (pool, changes) in pools.iter_mut().zip(&mut late) {
            changes.drain(..).for_each(|change| apply(pool, change, now));
        }
        let change = match kind {
            0..=2 => {
                let tx = spend(coin(0xB0, roots), 0, 40_000 + u64::from(roots));
                roots += 1;
                let fee = Amount::from_sat(tx.vsize() * u64::from(1 + pick % 9));
                Some(Change::Admit(tx, fee))
            }
            3 | 4 => {
                let parent = made[pick as usize % made.len()];
                let tx = spend(parent, pick >> 31, 1_000 + u64::from(pick % 997));
                Some(Change::Admit(tx, Amount::from_sat(3_000)))
            }
            5 | 6 => Some(Change::Remove(made[pick as usize % made.len()])),
            7 => {
                for (pool, _) in pools.iter_mut().zip(takes).filter(|(_, take)| *take < 8) {
                    for i in 0..pool.len() / 2 + 1 {
                        if flood.len() <= i {
                            flood.push(spend(coin(0xF1, i as u32), 0, 1_000));
                        }
                        let tx = flood[i].clone();
                        let txid = tx.txid();
                        apply(pool, Change::Admit(tx, Amount::from_sat(5_000)), now);
                        apply(pool, Change::Remove(txid), now);
                    }
                }
                None
            }
            _ => {
                windows += 1;
                let time = windows * 600;
                for ((pool, stream), take) in pools.iter_mut().zip(&mut streams).zip(takes) {
                    match take {
                        0..=27 => stream.push(pool.snapshot(time)),
                        28 => stream.push(pool.snapshot_light(time)),
                        29 => stream.push(pool.snapshot(time).truncate_detail(0.5)),
                        30 => {}
                        _ => stream.extend([pool.snapshot(time), pool.snapshot(time)]),
                    }
                }
                None
            }
        };
        let Some(change) = change else { continue };
        if let Change::Admit(tx, _) = &change {
            made.push(tx.txid());
        }
        for ((pool, pending), take) in pools.iter_mut().zip(&mut late).zip(takes) {
            match take {
                0..=25 => apply(pool, change.clone(), now),
                26..=29 => pending.push(change.clone()),
                _ => {}
            }
        }
    }
    streams
        .into_iter()
        .enumerate()
        .map(|(i, snapshots)| ObserverView {
            label: format!("view-{i}"),
            snapshots,
            expectation: StreamExpectation { windows, detailed: windows, min_coverage: 0.0 },
        })
        .collect()
}

/// The first window fusion can merge from the last detailed one, by a
/// rule of its own: the two windows' detailed contributors are the same
/// live views, once each in roster order, each merged from its snapshot
/// there. Returns that last window's place in the fused stream, the
/// window's, and the txids the contributors' deltas name.
fn first_window_with_lineage(views: &[ObserverView]) -> Option<(usize, usize, FastSet<Txid>)> {
    let live: Vec<&ObserverView> = views.iter().filter(|v| !v.snapshots.is_empty()).collect();
    if live.len() < 2 {
        return None;
    }
    let mut by_time: BTreeMap<Timestamp, Vec<(usize, &MempoolSnapshot)>> = BTreeMap::new();
    for (seat, view) in live.iter().enumerate() {
        for snap in &view.snapshots {
            by_time.entry(snap.time).or_default().push((seat, snap));
        }
    }
    let mut last: Option<(usize, Vec<(usize, &MempoolSnapshot)>)> = None;
    for (at, contributors) in by_time.into_values().enumerate() {
        let detailed: Vec<(usize, &MempoolSnapshot)> =
            contributors.into_iter().filter(|(_, s)| s.is_detailed()).collect();
        if detailed.is_empty() {
            continue;
        }
        if let Some((before, was)) = &last {
            let seats = |c: &[(usize, &MempoolSnapshot)]| {
                c.iter().map(|(seat, _)| *seat).collect::<Vec<_>>()
            };
            let once = detailed.windows(2).all(|w| w[0].0 < w[1].0);
            if once && seats(was) == seats(&detailed) {
                let deltas: Option<Vec<_>> =
                    was.iter().zip(&detailed).map(|((_, p), (_, s))| s.delta_from(p)).collect();
                if let Some(deltas) = deltas {
                    let named = deltas.iter().flatten().map(|(txid, _)| *txid).collect();
                    return Some((*before, at, named));
                }
            }
        }
        last = Some((at, detailed));
    }
    None
}

/// Fusion at widths 1–8 against the reference; returns the fleet, if it
/// reconciles.
fn assert_fusion_matches_reference(views: &[ObserverView]) -> Option<FleetView> {
    let want = reference_reconcile(views);
    let mut fleet = None;
    for workers in 1..=8 {
        match (reconcile_with_pool(views, Pool::with_workers(workers)), &want) {
            (Ok(got), Ok(want)) => {
                assert_matches_reference(&got, want, workers);
                fleet = Some(got);
            }
            (Err(got), Err(want)) => assert_eq!(&got, want),
            (got, want) => panic!(
                "workers={workers}: library ok={}, reference ok={}",
                got.is_ok(),
                want.is_ok()
            ),
        }
    }
    fleet
}

/// Fusion of a shared-history fleet against the reference, the folds over
/// its fused stream against theirs, and, where its windows have lineage,
/// the fused stream's shared store.
fn check_shared_history(views: &[ObserverView]) {
    let Some(fleet) = assert_fusion_matches_reference(views) else { return };
    let fused = &fleet.fused;
    assert_folds_match(fused, "a fused stream");
    let Some((before, at, named)) = first_window_with_lineage(views) else { return };
    // The window before is a keyframe, whose R rows take under R + 256
    // slots of a store of their own, and a merge writing at most 256 rows
    // takes 256 more. Within four slots per listed row, the merge keeps the
    // keyframe's store, and it re-fuses only the txids the deltas name.
    let (before, after) = (&fused[before], &fused[at]);
    if named.len() <= 256 && named.len() < after.len() && before.len() + 512 <= 4 * after.len() {
        let delta = after.delta_from(before).expect("merged from the window before");
        assert!(delta.iter().all(|(txid, _)| named.contains(txid)));
        let listed: usize = fused.iter().map(|s| s.rows().count()).sum();
        let mut visited = 0;
        MempoolSnapshot::visit_stored_rows(fused, |_| visited += 1);
        assert!(visited < listed, "visited {visited} of {listed} listed rows");
    }
}

/// First-seen times folded over every listing, in stream order.
fn reference_first_seen_times(
    snapshots: &[MempoolSnapshot],
) -> Result<Vec<(Txid, Timestamp)>, AuditError> {
    if snapshots.is_empty() {
        return Err(AuditError::EmptySnapshotStream);
    }
    if !snapshots.iter().any(|s| s.is_detailed()) {
        return Err(AuditError::NoDetailedSnapshots);
    }
    let mut first: FastMap<Txid, Timestamp> = FastMap::default();
    for e in snapshots.iter().flat_map(|s| s.rows()) {
        first.entry(e.txid).and_modify(|t| *t = (*t).min(e.received)).or_insert(e.received);
    }
    Ok(first.into_iter().collect())
}

/// Both stored-row folds against their per-listing references. The
/// first-seen maps must also list their entries in one order: each txid
/// enters the map at its first listing either way.
fn assert_folds_match(stream: &[MempoolSnapshot], what: &str) {
    let got = first_seen_times(stream).map(|m| m.into_iter().collect::<Vec<_>>());
    assert_eq!(got, reference_first_seen_times(stream), "first-seen times, {what}");
    assert_eq!(
        SnapshotCoverage::assess(stream, 8, 8),
        reference_assess(stream, 8, 8),
        "coverage, {what}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn fusion_matches_the_reference_at_every_width(views in fleet_strategy()) {
        assert_fusion_matches_reference(&views);
    }

    #[test]
    fn fusion_of_a_shared_history_matches_the_reference(views in shared_fleet_strategy()) {
        check_shared_history(&views);
    }

    #[test]
    fn stored_row_folds_match_every_listing(
        a in recorded_stream_strategy(),
        b in recorded_stream_strategy(),
        bounds in (any::<u16>(), any::<u16>()),
        cut_every in 1usize..5,
        keep in 0u8..5,
    ) {
        assert_folds_match(&a, "one recorded stream");
        let (from, to) = (bounds.0 as usize % (a.len() + 1), bounds.1 as usize % (a.len() + 1));
        assert_folds_match(&a[from.min(to)..from.max(to)], "a sub-slice");
        // Every `cut_every`-th snapshot of `a` is cut short, and every
        // detailed snapshot of `b` is followed by a standalone copy of
        // its rows.
        let mut mixed: Vec<MempoolSnapshot> = a
            .iter()
            .enumerate()
            .map(|(i, s)| {
                if i % cut_every == 0 { s.truncate_detail(f64::from(keep) / 4.0) } else { s.clone() }
            })
            .collect();
        for s in &b {
            mixed.push(s.clone());
            if s.is_detailed() {
                mixed.push(MempoolSnapshot::from_entries(s.time, s.rows().copied().collect()));
            }
        }
        assert_folds_match(&mixed, "two streams with cuts and standalone snapshots");
    }

    #[test]
    fn assess_matches_the_reference(
        snapshots in proptest::collection::vec(snapshot_strategy(), 0..8),
        windows in 0u64..12,
        detailed in 0u64..12,
    ) {
        prop_assert_eq!(
            SnapshotCoverage::assess(&snapshots, windows, detailed),
            reference_assess(&snapshots, windows, detailed)
        );
    }
}
