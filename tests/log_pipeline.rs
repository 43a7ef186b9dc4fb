//! The event-log pipeline end to end: epoch-chunked simulation into the
//! binary log must be byte-identical to encoding a finished monolithic
//! run, for any epoch length; and replaying a log through the streaming
//! auditor — spilled or not — must reproduce the batch verdict
//! bit-for-bit.

use chain_neutrality::audit::streaming::{StreamingAuditor, StreamingConfig};
use chain_neutrality::audit::{audit_with_snapshots, SpilledAuditor, StreamExpectation};
use chain_neutrality::data::log::{write_run, LogEvent, LogReader, LogWriter};
use chain_neutrality::prelude::*;
use chain_neutrality::sim::EventSink;
use std::io::Cursor;

/// Epoch lengths that exercise the interesting segment shapes: a segment
/// per block, a ragged partial tail, and a tail that never fills.
const EPOCHS: [u64; 3] = [1, 7, 50];

/// Fans one simulation's event stream into several log writers, so a
/// single `run_streamed` pass feeds every epoch length under test.
struct Fan<'a>(Vec<LogWriter<&'a mut Vec<u8>>>);

impl EventSink for Fan<'_> {
    fn on_start(&mut self, seeds: &[Transaction]) {
        for w in &mut self.0 {
            w.on_start(seeds);
        }
    }
    fn on_block(&mut self, block: &Block) {
        for w in &mut self.0 {
            w.on_block(block);
        }
    }
    fn on_snapshot(&mut self, snapshot: &MempoolSnapshot) {
        for w in &mut self.0 {
            w.on_snapshot(snapshot);
        }
    }
}

fn expectation(out: &SimOutput) -> StreamExpectation {
    let s = &out.scenario;
    StreamExpectation::from_run(s.duration, s.snapshot_interval, s.snapshot_detail_every)
}

/// For each quick dataset: one chunked simulation fanned into a writer
/// per epoch length must produce the same bytes as encoding the finished
/// monolithic run at that epoch length. This is the segment-handoff
/// oracle — intern-table resets, time-base resets, and partial tail
/// segments all have to land on the same byte boundaries.
#[test]
fn chunked_simulation_matches_monolithic_encoding_byte_for_byte() {
    for (name, scenario) in [
        ("A", dataset_a(Scale::Quick)),
        ("B", dataset_b(Scale::Quick)),
        ("C", dataset_c(Scale::Quick)),
    ] {
        let mut chunked: Vec<Vec<u8>> = EPOCHS.iter().map(|_| Vec::new()).collect();
        let mut fan = Fan(chunked
            .iter_mut()
            .zip(EPOCHS)
            .map(|(buf, epoch)| LogWriter::new(buf, epoch))
            .collect());
        let summary = World::new(scenario.clone()).run_streamed(&mut fan);
        for writer in fan.0 {
            writer.finish().expect("chunked log finishes");
        }
        assert!(summary.blocks > 0, "dataset {name} must mine blocks");

        let out = World::new(scenario).run();
        for (buf, epoch) in chunked.iter().zip(EPOCHS) {
            let mut mono = Vec::new();
            let stats = write_run(&out, epoch, &mut mono).expect("monolithic encode");
            assert_eq!(stats.blocks, summary.blocks);
            assert_eq!(stats.snapshots, summary.snapshots);
            assert_eq!(
                *buf, mono,
                "dataset {name}, epoch {epoch}: chunked and monolithic logs diverge"
            );
        }
    }
}

/// Replaying a log through the streaming auditor must reproduce the batch
/// `audit_with_snapshots` verdict bit-for-bit — and spilling the digest
/// to a store along the way must change nothing.
#[test]
fn log_replay_reproduces_the_batch_verdict() {
    for (name, scenario) in [("A", dataset_a(Scale::Quick)), ("C", dataset_c(Scale::Quick))] {
        let out = World::new(scenario).run();
        let exp = expectation(&out);
        let index = ChainIndex::build(&out.chain);
        let batch = audit_with_snapshots(
            &out.chain,
            &index,
            &out.observer_streams[0],
            exp,
            AuditConfig::default(),
        )
        .expect("batch audits");

        let mut bytes = Vec::new();
        write_run(&out, 50, &mut bytes).expect("log encodes");

        // Plain streaming replay.
        let mut reader = LogReader::new(Cursor::new(&bytes[..])).expect("valid header");
        let mut plain = StreamingAuditor::new(reader.initial_utxos(), StreamingConfig::new(exp));
        while let Some(event) = reader.next_event().expect("log replays") {
            match &event {
                LogEvent::Block(b) => plain.push_block(b).expect("block replays"),
                LogEvent::Snapshot(s) => plain.push_snapshot(s),
            }
        }
        let verdict = plain.verdict().expect("streamed verdict");
        assert_eq!(verdict, batch, "dataset {name}: streamed verdict diverges from batch");

        // Spilled replay: digest checkpointed to an in-memory store every
        // few sealed blocks.
        let mut reader = LogReader::new(Cursor::new(&bytes[..])).expect("valid header");
        let mut spilled = SpilledAuditor::new(
            StreamingAuditor::new(reader.initial_utxos(), StreamingConfig::new(exp)),
            Cursor::new(Vec::new()),
            4,
        );
        while let Some(event) = reader.next_event().expect("log replays") {
            match &event {
                LogEvent::Block(b) => spilled.push_block(b).expect("block replays"),
                LogEvent::Snapshot(s) => spilled.push_snapshot(s),
            }
        }
        assert!(
            spilled.spilled_segments() > 0,
            "dataset {name}: the spill path must actually engage"
        );
        let verdict = spilled.verdict().expect("spilled verdict");
        assert_eq!(verdict, batch, "dataset {name}: spilled verdict diverges from batch");
    }
}
