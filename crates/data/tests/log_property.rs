//! Randomized properties of the event-log codec: arbitrary canonical
//! streams round-trip exactly, and arbitrary tail corruption surfaces as a
//! typed error after a faithful prefix — never a panic.

use cn_chain::{Address, Amount, Block, BlockHash, Header, Timestamp, Transaction};
use cn_data::log::{LogError, LogEvent, LogReader, LogWriter};
use cn_mempool::{MempoolSnapshot, SnapshotEntry};
use cn_sim::EventSink;
use proptest::prelude::*;
use std::sync::Arc;

fn arb_transaction() -> impl Strategy<Value = Transaction> {
    (
        proptest::collection::vec((any::<[u8; 32]>(), 0u32..4, 0usize..120, 0usize..80), 1..4),
        proptest::collection::vec((1u64..10_000_000, any::<[u8; 20]>()), 1..4),
        any::<u32>(),
    )
        .prop_map(|(inputs, outputs, lock_time)| {
            let mut b = Transaction::builder().lock_time(lock_time);
            for (txid, vout, ss, wit) in inputs {
                b = b.add_input_with_sizes(txid.into(), vout, ss, wit);
            }
            for (value, payload) in outputs {
                b = b.pay_to(Address::p2pkh(payload), Amount::from_sat(value));
            }
            b.build()
        })
}

/// One generated event, time carried as a delta so streams stay canonical
/// (non-decreasing stamps) by construction.
#[derive(Debug, Clone)]
enum EventSpec {
    Block {
        delta: u16,
        nonce: u32,
        txs: Vec<Transaction>,
    },
    Light {
        delta: u16,
        count: u16,
        vsize: u32,
        degraded: bool,
    },
    /// Detailed rows; `rows` may be empty (an empty detail window).
    Detailed {
        delta: u16,
        rows: Vec<([u8; 32], i16, u32, u16, bool)>,
        keep_frac: Option<u8>,
        degraded: bool,
    },
}

fn arb_event() -> impl Strategy<Value = EventSpec> {
    (
        (0u8..3, any::<u16>(), any::<bool>()),
        (any::<u32>(), proptest::collection::vec(arb_transaction(), 0..3)),
        (any::<u16>(), any::<u32>()),
        (
            proptest::collection::vec(
                (any::<[u8; 32]>(), any::<i16>(), 1u32..5_000_000, 1u16..4_000, any::<bool>()),
                0..20,
            ),
            any::<bool>(),
            0u8..101,
        ),
    )
        .prop_map(
            |((sel, delta, degraded), (nonce, txs), (count, vsize), (rows, keep, frac))| match sel {
                0 => EventSpec::Block { delta, nonce, txs },
                1 => EventSpec::Light { delta, count, vsize: vsize / 2, degraded },
                _ => EventSpec::Detailed {
                    delta,
                    rows,
                    keep_frac: if keep { Some(frac) } else { None },
                    degraded,
                },
            },
        )
}

/// Materializes specs into the canonical stream the writer will see.
fn build_stream(start: Timestamp, specs: &[EventSpec]) -> Vec<LogEvent> {
    let mut time = start;
    let mut prev_hash = BlockHash::ZERO;
    let mut events = Vec::new();
    for spec in specs {
        match spec {
            EventSpec::Block { delta, nonce, txs } => {
                time += *delta as Timestamp;
                let transactions: Vec<Arc<Transaction>> =
                    txs.iter().cloned().map(Arc::new).collect();
                let header = Header {
                    version: 2,
                    prev_hash,
                    merkle_root: cn_chain::merkle_root(
                        &transactions.iter().map(|t| t.txid()).collect::<Vec<_>>(),
                    ),
                    time,
                    bits: 0x1d00_ffff,
                    nonce: *nonce,
                };
                prev_hash = header.block_hash();
                events.push(LogEvent::Block(Block { header, transactions }));
            }
            EventSpec::Light { delta, count, vsize, degraded } => {
                time += *delta as Timestamp;
                let mut snap = MempoolSnapshot::light(time, *count as usize, *vsize as u64);
                if *degraded {
                    snap = snap.mark_degraded();
                }
                events.push(LogEvent::Snapshot(snap));
            }
            EventSpec::Detailed { delta, rows, keep_frac, degraded } => {
                time += *delta as Timestamp;
                let entries: Vec<SnapshotEntry> = rows
                    .iter()
                    .map(|(txid, recv_off, fee, vsize, parent)| SnapshotEntry {
                        txid: (*txid).into(),
                        received: time.saturating_add_signed(*recv_off as i64),
                        fee: Amount::from_sat(*fee as u64),
                        vsize: *vsize as u64,
                        has_unconfirmed_parent: *parent,
                    })
                    .collect();
                let mut snap = MempoolSnapshot::from_entries(time, entries);
                if let Some(frac) = keep_frac {
                    snap = snap.truncate_detail(*frac as f64 / 100.0);
                }
                if *degraded {
                    snap = snap.mark_degraded();
                }
                events.push(LogEvent::Snapshot(snap));
            }
        }
    }
    events
}

fn encode(seeds: &[Transaction], events: &[LogEvent], epoch: u64) -> Vec<u8> {
    let mut log = Vec::new();
    let mut writer = LogWriter::new(&mut log, epoch);
    writer.on_start(seeds);
    for event in events {
        match event {
            LogEvent::Block(b) => writer.on_block(b),
            LogEvent::Snapshot(s) => writer.on_snapshot(s),
        }
    }
    writer.finish().expect("in-memory write cannot fail");
    log
}

fn assert_event_eq(want: &LogEvent, have: &LogEvent, at: usize) {
    match (want, have) {
        (LogEvent::Block(w), LogEvent::Block(h)) => assert_eq!(w, h, "block {at} differs"),
        (LogEvent::Snapshot(w), LogEvent::Snapshot(h)) => {
            assert_eq!(w, h, "snapshot {at} differs")
        }
        (w, h) => panic!("event {at} kind mismatch: {w:?} vs {h:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_streams_round_trip(
        seeds in proptest::collection::vec(arb_transaction(), 0..4),
        specs in proptest::collection::vec(arb_event(), 0..30),
        start in 0u64..1_000_000,
        epoch in 0u64..6,
    ) {
        let events = build_stream(start, &specs);
        let log = encode(&seeds, &events, epoch);

        let mut reader = LogReader::new(&log[..]).expect("valid header");
        prop_assert_eq!(reader.seeds(), &seeds[..]);
        for (i, expected) in events.iter().enumerate() {
            let got = reader.next_event().expect("valid record").expect("stream too short");
            assert_event_eq(expected, &got, i);
        }
        prop_assert!(reader.next_event().expect("clean end").is_none());
    }

    #[test]
    fn torn_tails_fail_typed_after_a_faithful_prefix(
        seeds in proptest::collection::vec(arb_transaction(), 0..3),
        specs in proptest::collection::vec(arb_event(), 1..20),
        start in 0u64..1_000_000,
        cut_frac in 0.0f64..1.0,
    ) {
        let events = build_stream(start, &specs);
        let log = encode(&seeds, &events, 3);
        let cut = ((log.len() as f64) * cut_frac) as usize;
        let torn = &log[..cut];

        match LogReader::new(torn) {
            // The header itself was torn — a typed error is the contract.
            Err(LogError::BadMagic | LogError::TruncatedRecord | LogError::Decode(_)) => {}
            Err(e) => panic!("unexpected header error at cut {cut}: {e}"),
            Ok(mut reader) => {
                prop_assert_eq!(reader.seeds(), &seeds[..]);
                let mut replayed = 0usize;
                loop {
                    match reader.next_event() {
                        Ok(Some(event)) => {
                            // Whatever survives the cut must match the
                            // original stream, in order.
                            prop_assert!(replayed < events.len());
                            assert_event_eq(&events[replayed], &event, replayed);
                            replayed += 1;
                        }
                        Ok(None) => break,
                        Err(LogError::TruncatedRecord | LogError::Decode(_)) => break,
                        Err(e) => panic!("unexpected error at cut {cut}: {e}"),
                    }
                }
            }
        }
    }

    #[test]
    fn flipped_bytes_never_panic(
        seeds in proptest::collection::vec(arb_transaction(), 0..2),
        specs in proptest::collection::vec(arb_event(), 1..12),
        start in 0u64..100_000,
        pos_frac in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        let events = build_stream(start, &specs);
        let mut log = encode(&seeds, &events, 2);
        let pos = (((log.len() - 1) as f64) * pos_frac) as usize;
        log[pos] ^= flip;

        // Any outcome is acceptable except a panic: a typed error, a clean
        // end, or even a different-but-well-formed stream.
        if let Ok(mut reader) = LogReader::new(&log[..]) {
            for _ in 0..events.len() + 2 {
                match reader.next_event() {
                    Ok(Some(_)) => continue,
                    _ => break,
                }
            }
        }
    }
}
