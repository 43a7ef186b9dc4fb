//! Edge cases of cross-observer reconciliation: unanimity rules over
//! fully degraded windows, the single-observer fast path against the
//! general fusion path, windows with nothing in them, and rows handed
//! over out of txid order.

use cn_chain::{
    Address, Amount, Block, Chain, CoinbaseBuilder, Params, PoolMarker, Transaction, Txid,
};
use cn_core::reconcile::ObserverView;
use cn_core::{
    audit_with_fleet, audit_with_snapshots, reconcile, reconcile_with_pool, AuditConfig,
    AuditError, ChainIndex, StreamExpectation,
};
use cn_mempool::{MempoolSnapshot, SnapshotEntry};
use cn_stats::Pool;

fn entry(seed: u8, received: u64) -> SnapshotEntry {
    SnapshotEntry {
        txid: Txid::from([seed; 32]),
        received,
        fee: Amount::from_sat(1_000),
        vsize: 100,
        has_unconfirmed_parent: false,
    }
}

fn view(label: &str, snapshots: Vec<MempoolSnapshot>, windows: u64) -> ObserverView {
    ObserverView {
        label: label.into(),
        snapshots,
        expectation: StreamExpectation { windows, detailed: windows, min_coverage: 0.0 },
    }
}

/// A small honest chain plus a matching snapshot stream, for audits that
/// need a real chain behind the fleet.
fn sample_world() -> (Chain, Vec<MempoolSnapshot>) {
    let mut chain = Chain::new(Params::mainnet());
    let mut fund = Transaction::builder().add_input(cn_chain::TxIn::new(cn_chain::OutPoint::NULL));
    for _ in 0..12 {
        fund = fund.pay_to(Address::from_label("u"), Amount::from_sat(2_000_000));
    }
    let fund = fund.build();
    chain.seed_utxos(&fund);
    let mut snapshots = Vec::new();
    for h in 0..6u64 {
        let t1 = Transaction::builder()
            .add_input_with_sizes(fund.txid(), (h * 2) as u32, 107, 0)
            .pay_to(Address::from_label("a"), Amount::from_sat(1_800_000))
            .build();
        let t2 = Transaction::builder()
            .add_input_with_sizes(fund.txid(), (h * 2 + 1) as u32, 107, 0)
            .pay_to(Address::from_label("b"), Amount::from_sat(1_900_000))
            .build();
        snapshots.push(MempoolSnapshot::from_entries(
            h * 600 + 300,
            [&t1, &t2]
                .iter()
                .enumerate()
                .map(|(i, tx)| SnapshotEntry {
                    txid: tx.txid(),
                    received: h * 600 + 100 + i as u64,
                    fee: Amount::from_sat(if i == 0 { 200_000 } else { 100_000 }),
                    vsize: tx.vsize(),
                    has_unconfirmed_parent: false,
                })
                .collect(),
        ));
        let fees = Amount::from_sat(300_000);
        let cb = CoinbaseBuilder::new(h)
            .marker(PoolMarker::new("/Solo/"))
            .reward(Address::from_label("pool:Solo:0"), Amount::from_btc(50) + fees)
            .extra_nonce(h)
            .build();
        let block = Block::assemble(2, chain.tip_hash(), (h + 1) * 600, h as u32, cb, vec![t1, t2]);
        chain.connect(block).expect("valid");
    }
    (chain, snapshots)
}

// ---- unanimity when ALL observers were degraded ----

#[test]
fn whole_stream_degraded_in_every_eye_stays_degraded() {
    // Both observers were eclipsed for the entire run: every fused window
    // keeps the degraded stamp, and the fused confidence collapses to 0.
    let degraded = |seed: u8| {
        vec![
            MempoolSnapshot::from_entries(15, vec![entry(seed, 10)]).mark_degraded(),
            MempoolSnapshot::from_entries(30, vec![entry(seed + 1, 20)]).mark_degraded(),
        ]
    };
    let fleet =
        reconcile(&[view("a", degraded(1), 2), view("b", degraded(10), 2)]).expect("reconciles");
    assert!(fleet.fused.iter().all(|s| s.is_degraded()), "unanimously degraded windows survive");
    assert_eq!(fleet.coverage.degraded_windows, 2);
    assert_eq!(fleet.coverage.undegraded_fraction(), 0.0);
    assert_eq!(fleet.coverage.confidence(), 0.0);
    // The rows themselves remain observations.
    assert_eq!(fleet.first_seen.txs_union, 4);
}

#[test]
fn per_window_unanimity_is_independent() {
    // Window 15: both degraded (stamp survives). Window 30: only one
    // (healed). The unanimity rule is per window, not per stream.
    let a = vec![
        MempoolSnapshot::from_entries(15, vec![entry(1, 10)]).mark_degraded(),
        MempoolSnapshot::from_entries(30, vec![entry(2, 20)]).mark_degraded(),
    ];
    let b = vec![
        MempoolSnapshot::from_entries(15, vec![entry(3, 11)]).mark_degraded(),
        MempoolSnapshot::from_entries(30, vec![entry(4, 21)]),
    ];
    let fleet = reconcile(&[view("a", a, 2), view("b", b, 2)]).expect("reconciles");
    assert!(fleet.fused[0].is_degraded());
    assert!(!fleet.fused[1].is_degraded());
    assert_eq!(fleet.coverage.degraded_windows, 1);
    assert_eq!(fleet.coverage.undegraded_fraction(), 0.5);
}

// ---- single-observer fast path vs the general fusion path ----

#[test]
fn solo_fast_path_preserves_stream_and_stamps() {
    // A one-eyed fleet's fused stream is its observer's stream verbatim,
    // including degraded and truncated stamps and light windows.
    let snaps = vec![
        MempoolSnapshot::from_entries(15, vec![entry(1, 10), entry(2, 11)]),
        MempoolSnapshot::from_entries(30, vec![entry(3, 20)]).mark_degraded(),
        MempoolSnapshot::from_entries(45, (1..=4).map(|i| entry(i, 40)).collect())
            .truncate_detail(0.5),
        MempoolSnapshot::light(60, 7, 700),
    ];
    let fleet = reconcile(&[view("solo", snaps.clone(), 4)]).expect("reconciles");
    assert_eq!(fleet.fused, snaps);
    assert!(fleet.dropped.is_empty());

    // An observer dropped for total blindness does not knock the fleet off
    // the fast path.
    let fleet = reconcile(&[view("solo", snaps.clone(), 4), view("blind", Vec::new(), 4)])
        .expect("reconciles");
    assert_eq!(fleet.fused, snaps);
    assert_eq!(fleet.dropped, vec!["blind".to_string()]);
}

#[test]
fn duplicated_observer_fuses_to_the_solo_stream() {
    // Feeding the same stream through two "observers" exercises the
    // general fusion path; its output must match the solo fast path —
    // same rows, same minima, same stamps, same light aggregates.
    let snaps = vec![
        MempoolSnapshot::from_entries(15, vec![entry(1, 10), entry(2, 11)]).mark_degraded(),
        MempoolSnapshot::from_entries(30, (1..=4).map(|i| entry(i, 20)).collect())
            .truncate_detail(0.5),
        MempoolSnapshot::light(45, 9, 900),
    ];
    let solo = reconcile(&[view("a", snaps.clone(), 3)]).expect("reconciles");
    let twin = reconcile(&[view("a", snaps.clone(), 3), view("b", snaps, 3)]).expect("reconciles");
    assert_eq!(solo.fused, twin.fused);
    assert_eq!(solo.coverage, twin.coverage);
    assert_eq!(solo.first_seen.txs_union, twin.first_seen.txs_union);
    assert_eq!(twin.first_seen.disagreements, 0, "identical eyes never disagree");
}

#[test]
fn n1_fleet_audit_equals_single_stream_audit() {
    let (chain, snapshots) = sample_world();
    let index = ChainIndex::build(&chain);
    let expectation = StreamExpectation { windows: 6, detailed: 6, min_coverage: 0.0 };
    let solo = ObserverView { label: "solo".into(), snapshots: snapshots.clone(), expectation };
    let (fleet_report, fleet) =
        audit_with_fleet(&chain, &index, &[solo], AuditConfig::default()).expect("audits");
    let single =
        audit_with_snapshots(&chain, &index, &snapshots, expectation, AuditConfig::default())
            .expect("audits");
    assert_eq!(fleet_report, single, "one-eyed fleet audit is the single-observer audit");
    assert_eq!(fleet_report.render(), single.render());
    assert_eq!(fleet.expectation, expectation);
}

// ---- empty-window fusion ----

#[test]
fn empty_detailed_windows_fuse_to_an_empty_detailed_window() {
    // Both observers took a detailed snapshot of an empty backlog.
    let a = vec![MempoolSnapshot::from_entries(15, Vec::new())];
    let b = vec![MempoolSnapshot::from_entries(15, Vec::new())];
    let fleet = reconcile(&[view("a", a, 1), view("b", b, 1)]).expect("reconciles");
    let fused = &fleet.fused[0];
    assert!(fused.is_detailed());
    assert!(fused.is_empty());
    assert_eq!(fused.total_vsize(), 0);
    assert_eq!(fleet.first_seen.txs_union, 0);
    assert_eq!(fleet.coverage.txs_observed, 0);
    assert_eq!(fleet.coverage.window_fraction(), 1.0, "an empty window is still a window");
}

#[test]
fn zero_count_light_windows_fuse_to_zero() {
    let a = vec![MempoolSnapshot::light(30, 0, 0)];
    let b = vec![MempoolSnapshot::light(30, 0, 0)];
    let fleet = reconcile(&[view("a", a, 1), view("b", b, 1)]).expect("reconciles");
    let fused = &fleet.fused[0];
    assert!(!fused.is_detailed());
    assert!(fused.is_empty());
    assert_eq!(fused.total_vsize(), 0);
    assert_eq!(fused.congestion_bin(1_000_000), 0);
}

#[test]
fn empty_detailed_beats_light_in_the_same_window() {
    // One observer dumped an (empty) detail view, the other only counted.
    // Fusion prefers detail: the fused window is detailed and empty — the
    // detail dump is positive evidence the backlog was empty, while the
    // light count alone cannot say what was in it.
    let detailed = vec![MempoolSnapshot::from_entries(15, Vec::new())];
    let light = vec![MempoolSnapshot::light(15, 3, 300)];
    let fleet = reconcile(&[view("d", detailed, 1), view("l", light, 1)]).expect("reconciles");
    let fused = &fleet.fused[0];
    assert!(fused.is_detailed());
    assert!(fused.is_empty());
    assert_eq!(fleet.coverage.present_detailed, 1);
}

#[test]
fn empty_window_stream_still_audits_the_chain() {
    // A fleet that only ever saw empty backlogs still audits: the
    // chain-side tests need no snapshot rows, and coverage reports how
    // blind the observation layer was.
    let (chain, _) = sample_world();
    let index = ChainIndex::build(&chain);
    let views = vec![
        view("a", vec![MempoolSnapshot::from_entries(15, Vec::new())], 1),
        view("b", vec![MempoolSnapshot::light(15, 0, 0)], 1),
    ];
    let (report, fleet) =
        audit_with_fleet(&chain, &index, &views, AuditConfig::default()).expect("audits");
    let cov = report.coverage.expect("coverage present");
    assert_eq!(cov.txs_observed, 0);
    assert_eq!(cov.confirmed_observed, 0);
    assert!(cov.confidence() < 1.0, "saw none of the confirmed txs");
    assert_eq!(fleet.first_seen.txs_union, 0);
}

// ---- rows out of txid order ----

/// A detailed snapshot over rows in the given order, bypassing the sort
/// every other constructor performs.
fn scrambled(time: u64, seeds: &[u8]) -> MempoolSnapshot {
    let rows: Vec<SnapshotEntry> = seeds.iter().map(|&s| entry(s, time - 5)).collect();
    MempoolSnapshot::from_rows_as_given(time, &rows)
}

#[test]
fn unsorted_rows_refuse_with_the_window_time() {
    let a = vec![
        MempoolSnapshot::from_entries(15, vec![entry(1, 5), entry(2, 6)]),
        scrambled(30, &[3, 1, 2]),
        scrambled(45, &[4, 2]),
    ];
    let b = vec![
        MempoolSnapshot::from_entries(15, vec![entry(2, 7)]),
        MempoolSnapshot::from_entries(30, vec![entry(2, 20), entry(3, 21)]),
        MempoolSnapshot::light(45, 2, 200),
    ];
    let views = [view("a", a, 3), view("b", b, 3)];
    // The earliest offending window is named at every width, and the
    // refusal is an error value, not a panic.
    for workers in 1..=4 {
        let err = reconcile_with_pool(&views, Pool::with_workers(workers))
            .expect_err("unsorted rows refuse");
        assert_eq!(err, AuditError::UnsortedSnapshotRows { time: 30 }, "workers={workers}");
    }
    assert!(reconcile(&views).expect_err("refuses").to_string().contains("30"));

    // A descent in a run that is the window's only detailed contributor
    // (the other observer only counted) is caught too.
    let a = vec![scrambled(45, &[4, 2])];
    let b = vec![MempoolSnapshot::light(45, 2, 200)];
    let err = reconcile(&[view("a", a, 1), view("b", b, 1)]).expect_err("refuses");
    assert_eq!(err, AuditError::UnsortedSnapshotRows { time: 45 });

    // Equal txids in a row are sorted, not scrambled: they fold together.
    let a = vec![scrambled(15, &[1, 1, 2])];
    let b = vec![MempoolSnapshot::from_entries(15, vec![entry(2, 3)])];
    let fleet = reconcile(&[view("a", a, 1), view("b", b, 1)]).expect("sorted with repeats");
    assert_eq!(fleet.fused[0].len(), 2);
    let tx2 = fleet.fused[0].rows().nth(1).expect("two fused rows");
    assert_eq!(tx2.received, 3, "earliest sighting of tx2");
}

#[test]
fn unsorted_rows_refuse_the_fleet_audit() {
    let (chain, snapshots) = sample_world();
    let index = ChainIndex::build(&chain);
    let mut damaged = snapshots.clone();
    let mut rows: Vec<SnapshotEntry> = damaged[2].rows().copied().collect();
    rows.reverse();
    damaged[2] = MempoolSnapshot::from_rows_as_given(damaged[2].time, &rows);
    let views = [view("healthy", snapshots, 6), view("damaged", damaged.clone(), 6)];
    let err = audit_with_fleet(&chain, &index, &views, AuditConfig::default())
        .expect_err("unsorted rows refuse");
    assert_eq!(err, AuditError::UnsortedSnapshotRows { time: damaged[2].time });
}
