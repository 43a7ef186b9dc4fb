//! `log_replay`: dataset ℳ simulated through `World::run_streamed` into an
//! in-memory event log, decoded again, and audited by the spilled auditor
//! over an in-memory spill store.
//!
//! It uses the same layers as `sim_fleet` and `audit_fleet` differently:
//! small single-observer mempools instead of eight congested views, the log
//! encoder and decoder, and the digest spill store.

use crate::sim_fleet::{credit_profile, record_profile};
use crate::trace::Trace;
use crate::{Pass, Record, Workload};
use cn_chain::{Block, Transaction};
use cn_core::streaming::{StreamingAuditor, StreamingConfig};
use cn_core::{AuditReport, SpilledAuditor, StreamExpectation};
use cn_data::dataset_mega;
use cn_data::log::{LogEvent, LogReader, LogStats, LogWriter};
use cn_mempool::MempoolSnapshot;
use cn_sim::scenario::Scenario;
use cn_sim::{EventSink, World};
use std::io::Cursor;
use std::time::Instant;

/// Target blocks per input: the scenario's span in target block intervals.
const TARGET_BLOCKS: u64 = 1_040;

/// Blocks per event-log segment, as in the megasim experiment.
const LOG_EPOCH_BLOCKS: u64 = 50;

/// Sealed heights per digest-spill checkpoint, as in the megasim experiment.
const SPILL_EPOCH_BLOCKS: u64 = 16;

/// An [`EventSink`] that forwards every call to `inner` and times each one
/// as a `data.log_encode` span.
pub struct TimedSink<'a, S: EventSink> {
    pub inner: &'a mut S,
    pub trace: &'a mut Trace,
}

impl<S: EventSink> EventSink for TimedSink<'_, S> {
    fn on_start(&mut self, seeds: &[Transaction]) {
        let span = self.trace.open("data.log_encode");
        self.inner.on_start(seeds);
        self.trace.close(span);
    }

    fn on_block(&mut self, block: &Block) {
        let span = self.trace.open("data.log_encode");
        self.inner.on_block(block);
        self.trace.close(span);
    }

    fn on_snapshot(&mut self, snapshot: &MempoolSnapshot) {
        let span = self.trace.open("data.log_encode");
        self.inner.on_snapshot(snapshot);
        self.trace.close(span);
    }
}

/// What a pass produced.
#[derive(Debug, PartialEq)]
struct Replayed {
    stats: LogStats,
    /// Blocks the simulator reported emitting.
    emitted_blocks: u64,
    /// Blocks and snapshots the decoder returned.
    decoded: (u64, u64),
    verdict: AuditReport,
}

/// One seeded input and the results its warm-up pass produced.
struct Input {
    scenario: Scenario,
    expectation: StreamExpectation,
    expected: Option<Replayed>,
}

#[derive(Default)]
pub struct LogReplay {
    inputs: Vec<Input>,
    /// The event log, reused from pass to pass.
    log: Vec<u8>,
}

impl LogReplay {
    /// Simulate → encode → decode → spilled audit → verdict.
    fn replay(
        &mut self,
        input: usize,
        trace: &mut Trace,
        record: &mut Record,
    ) -> Result<Replayed, String> {
        let Input {
            scenario,
            expectation,
            ..
        } = &self.inputs[input];
        self.log.clear();
        let world = trace.span("sim.build", || World::new(scenario.clone()).with_workers(1));
        let mut writer = LogWriter::new(&mut self.log, LOG_EPOCH_BLOCKS);
        let run = trace.open("sim.run");
        let summary = if trace.enabled() {
            world.run_streamed(&mut TimedSink {
                inner: &mut writer,
                trace: &mut *trace,
            })
        } else {
            world.run_streamed(&mut writer)
        };
        trace.close(run);
        credit_profile(trace, run, &summary.profile);
        record_profile(record, &summary.profile);
        let stats = trace
            .span("data.log_encode", || writer.finish())
            .map_err(|e| e.to_string())?;

        let mut reader = trace
            .span("data.log_decode", || LogReader::new(&self.log[..]))
            .map_err(|e| e.to_string())?;
        let auditor =
            StreamingAuditor::new(reader.initial_utxos(), StreamingConfig::new(*expectation))
                .with_workers(1);
        let mut spilled = SpilledAuditor::new(auditor, Cursor::new(Vec::new()), SPILL_EPOCH_BLOCKS);
        let mut decoded = (0, 0);
        while let Some(event) = trace
            .span("data.log_decode", || reader.next_event())
            .map_err(|e| e.to_string())?
        {
            match &event {
                LogEvent::Block(b) => {
                    decoded.0 += 1;
                    trace
                        .span("core.spill_block", || spilled.push_block(b))
                        .map_err(|e| e.to_string())?;
                }
                LogEvent::Snapshot(s) => {
                    decoded.1 += 1;
                    trace.span("core.spill_snapshot", || spilled.push_snapshot(s));
                }
            }
        }
        let started = Instant::now();
        let verdict = trace
            .span("core.spill_verdict", || spilled.verdict())
            .map_err(|e| e.to_string())?;
        if !trace.enabled() {
            record
                .verdict_ms
                .push(started.elapsed().as_secs_f64() * 1e3);
        }
        record.count("core.spill_bytes", spilled.spilled_bytes() as f64);
        record.count("data.log_bytes", stats.bytes as f64);
        record.count("data.log_segments", stats.segments as f64);
        record.count(
            "log_bytes_per_block",
            stats.bytes as f64 / stats.blocks.max(1) as f64,
        );
        Ok(Replayed {
            stats,
            emitted_blocks: summary.blocks,
            decoded,
            verdict,
        })
    }

    /// The current log through a plain, unspilled streaming auditor.
    fn unspilled_verdict(&self, expectation: StreamExpectation) -> Result<AuditReport, String> {
        let mut reader = LogReader::new(&self.log[..]).map_err(|e| e.to_string())?;
        let mut auditor =
            StreamingAuditor::new(reader.initial_utxos(), StreamingConfig::new(expectation))
                .with_workers(1);
        while let Some(event) = reader.next_event().map_err(|e| e.to_string())? {
            match &event {
                LogEvent::Block(b) => auditor.push_block(b).map_err(|e| e.to_string())?,
                LogEvent::Snapshot(s) => auditor.push_snapshot(s),
            }
        }
        auditor.verdict().map_err(|e| e.to_string())
    }
}

/// The counts a replay must agree with its own log on.
fn self_consistent(r: &Replayed) -> bool {
    r.decoded == (r.stats.blocks, r.stats.snapshots) && r.emitted_blocks == r.stats.blocks
}

impl Workload for LogReplay {
    /// Dataset ℳ's own seed, 0x3E6A, and five more that, like it, mine
    /// 1,037 to 1,050 of the 1,040 targeted blocks. ℳ is built to be
    /// steady: the ten seeds timed cost within 8 % of each other per block.
    const POOL: &'static [u64] = &[0x3E6A, 2, 15, 18, 26, 31];

    fn scenario(seed: u64) -> Scenario {
        let mut scenario = dataset_mega(TARGET_BLOCKS);
        scenario.seed = seed;
        scenario
    }

    fn add_input(&mut self, scenario: Scenario) -> Result<(), String> {
        let expectation = StreamExpectation::from_run(
            scenario.duration,
            scenario.snapshot_interval,
            scenario.snapshot_detail_every,
        );
        self.inputs.push(Input {
            scenario,
            expectation,
            expected: None,
        });
        let input = self.inputs.len() - 1;
        let replayed = self.replay(input, &mut Trace::new(false), &mut Record::default())?;
        if !self_consistent(&replayed) {
            return Err(format!(
                "decoded counts disagree with the log: {:?}",
                replayed.stats
            ));
        }
        if self.unspilled_verdict(expectation)? != replayed.verdict {
            return Err("spilled verdict differs from the unspilled replay".into());
        }
        self.inputs[input].expected = Some(replayed);
        Ok(())
    }

    fn describe(&self) -> String {
        self.inputs
            .iter()
            .map(|i| {
                let stats = i.expected.as_ref().map(|r| r.stats);
                format!(
                    "input seed {}: dataset-M, {} blocks mined of {TARGET_BLOCKS} targeted, \
                     {} snapshots, {} log bytes\n",
                    i.scenario.seed,
                    stats.map_or(0, |s| s.blocks),
                    stats.map_or(0, |s| s.snapshots),
                    stats.map_or(0, |s| s.bytes),
                )
            })
            .collect()
    }

    fn pass(&mut self, input: usize, trace: &mut Trace, record: &mut Record) -> Pass {
        let timer = trace.begin_pass();
        let replayed = self.replay(input, trace, record);
        let seconds = trace.end_pass(timer);
        let expected = self.inputs[input].expected.as_ref();
        let blocks = expected.map_or(0, |r| r.stats.blocks);
        let ok = replayed.is_ok_and(|r| self_consistent(&r) && expected == Some(&r));
        Pass {
            seconds,
            blocks,
            ok,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log_of(run: impl FnOnce(World, &mut LogWriter<&mut Vec<u8>>)) -> Vec<u8> {
        let mut log = Vec::new();
        let mut writer = LogWriter::new(&mut log, LOG_EPOCH_BLOCKS);
        run(World::new(dataset_mega(8)).with_workers(1), &mut writer);
        writer.finish().expect("an in-memory log cannot fail");
        log
    }

    #[test]
    fn timed_sink_writes_the_bare_writers_bytes() {
        let bare = log_of(|world, writer| {
            world.run_streamed(writer);
        });
        let mut trace = Trace::new(true);
        let timed = log_of(|world, writer| {
            world.run_streamed(&mut TimedSink {
                inner: writer,
                trace: &mut trace,
            });
        });
        assert!(!bare.is_empty());
        assert_eq!(bare, timed);
        let spans = trace.spans();
        assert!(spans.len() > 8, "one span per start, block and snapshot");
        assert!(spans
            .iter()
            .all(|s| s.name == "data.log_encode" && s.end >= s.start));
    }
}
