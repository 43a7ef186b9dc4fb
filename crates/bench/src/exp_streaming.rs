//! Streaming-audit experiment: replays each pinned dataset's event stream
//! through the incremental [`cn_core::streaming::StreamingAuditor`] and
//! demonstrates, on the same goldens every other experiment pins, that
//!
//! * the on-demand exact verdict is **bit-identical** to the batch
//!   `audit_with_snapshots` over the finished run — for the canonical
//!   time-ordered replay, for three seeded randomized *chunkings* of it
//!   (administrative chunk boundaries), and for three seeded randomized
//!   *interleavings* of blocks against snapshots (arrival-order shuffles);
//! * the rolling windowed telemetry is chunking-invariant — every chunked
//!   replay ends in the same [`cn_core::streaming::RollingVerdict`] as the
//!   canonical one;
//! * the windowed state stays O(window), not O(history): the peak retained
//!   row count is a small multiple of the sliding window while the rows
//!   *processed* grow with the run.
//!
//! Wall-clock throughput and peak RSS are measured too, but deliberately
//! kept out of the golden report (they are machine-dependent); the driver
//! exports them into `BENCH_pipeline.json` via [`Lab::record_streaming`].

use crate::lab::{Lab, StreamingBench};
use cn_core::report::Table;
use cn_core::streaming::{interleave, StreamEvent, StreamingAuditor, StreamingConfig};
use cn_core::{audit_with_snapshots, AuditConfig, AuditReport, StreamExpectation};
use cn_sim::SimOutput;
use cn_stats::SimRng;
use std::fmt::Write as _;
use std::time::Instant;

/// Seeds for the randomized chunkings of the canonical stream.
const CHUNKING_SEEDS: [u64; 3] = [1, 2, 3];

/// Seeds for the randomized block/snapshot interleavings.
const INTERLEAVING_SEEDS: [u64; 3] = [7, 8, 9];

/// Largest random chunk, in events.
const MAX_CHUNK: u64 = 64;

fn expectation(out: &SimOutput) -> StreamExpectation {
    let s = &out.scenario;
    StreamExpectation::from_run(s.duration, s.snapshot_interval, s.snapshot_detail_every)
}

fn fresh(out: &SimOutput, exp: StreamExpectation) -> StreamingAuditor {
    StreamingAuditor::new(out.chain.initial_utxos(), StreamingConfig::new(exp))
}

fn batch_report(
    out: &SimOutput,
    index: &cn_core::ChainIndex,
    exp: StreamExpectation,
) -> AuditReport {
    audit_with_snapshots(&out.chain, index, &out.observer_streams[0], exp, AuditConfig::default())
        .expect("batch audits the pinned dataset")
}

/// A seeded random interleaving: each source keeps its internal order
/// (blocks must connect in height order), but which source supplies the
/// next event is a coin flip.
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

/// Peak resident set size of this process in KiB (`VmHWM`), where the
/// platform exposes `/proc/self/status`; `None` elsewhere.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|line| {
        line.strip_prefix("VmHWM:")
            .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
    })
}

fn yes_no(ok: bool) -> &'static str {
    if ok {
        "yes"
    } else {
        "NO — DIVERGED"
    }
}

/// The `streaming` experiment.
pub fn streaming(lab: &Lab) -> String {
    let mut txt = String::new();
    txt.push_str("Streaming auditor vs batch audit over the pinned datasets\n");
    txt.push_str("(verdicts must be bit-identical under every replay order)\n\n");

    let datasets = [("A", lab.a()), ("B", lab.b()), ("C", lab.c())];
    let mut bench = StreamingBench::default();
    let mut table = Table::new(&[
        "dataset",
        "events",
        "rows processed",
        "peak window rows",
        "bound ratio",
        "identical",
    ]);
    let mut all_identical = true;

    for (name, (out, index)) in datasets {
        let exp = expectation(out);
        let batch = batch_report(out, index, exp);
        let events = interleave(out.chain.blocks(), &out.observer_streams[0]);

        // Canonical time-ordered replay — the one the throughput counters
        // are taken from.
        let started = Instant::now();
        let mut auditor = fresh(out, exp);
        for ev in &events {
            auditor.push_event(ev).expect("replays the pinned dataset");
        }
        let push_secs = started.elapsed().as_secs_f64();
        let canonical_ok = auditor.verdict().expect("audits") == batch;
        let rolling = auditor.rolling();
        let counters = auditor.counters();
        let mut dataset_ok = canonical_ok;

        bench.events += counters.events;
        bench.blocks += counters.blocks;
        bench.snapshots += counters.snapshots;
        bench.rows_processed += counters.rows_processed;
        bench.peak_window_rows = bench.peak_window_rows.max(counters.peak_window_rows);
        bench.replay_seconds += push_secs;

        let _ = writeln!(
            txt,
            "dataset {name}: {} blocks, {} snapshots, {} events, {} snapshot rows",
            counters.blocks, counters.snapshots, counters.events, counters.rows_processed,
        );
        let _ = writeln!(
            txt,
            "  canonical replay     verdict identical to batch: {}",
            yes_no(canonical_ok)
        );

        // Three randomized chunkings of the canonical stream: chunk
        // boundaries are administrative, so the exact verdict *and* the
        // rolling telemetry must both land where the canonical replay did.
        for seed in CHUNKING_SEEDS {
            let mut rng = SimRng::seed_from_u64(seed);
            let mut chunked = fresh(out, exp);
            let mut i = 0usize;
            while i < events.len() {
                let end = (i + 1 + rng.next_below(MAX_CHUNK) as usize).min(events.len());
                for ev in &events[i..end] {
                    chunked.push_event(ev).expect("replays");
                }
                i = end;
            }
            let verdict_ok = chunked.verdict().expect("audits") == batch;
            let rolling_ok = chunked.rolling() == rolling;
            dataset_ok &= verdict_ok && rolling_ok;
            let _ = writeln!(
                txt,
                "  chunking seed {seed}      verdict identical to batch: {}, rolling matches canonical: {}",
                yes_no(verdict_ok),
                yes_no(rolling_ok),
            );
        }

        // Three randomized interleavings of blocks against snapshots: the
        // exact verdict depends only on the event *set*, not arrival order.
        for seed in INTERLEAVING_SEEDS {
            let mut rng = SimRng::seed_from_u64(seed);
            let mut shuffled = fresh(out, exp);
            for ev in random_interleaving(out, &mut rng) {
                shuffled.push_event(&ev).expect("replays");
            }
            let verdict_ok = shuffled.verdict().expect("audits") == batch;
            dataset_ok &= verdict_ok;
            let _ = writeln!(
                txt,
                "  interleaving seed {seed}  verdict identical to batch: {}",
                yes_no(verdict_ok),
            );
        }

        // End-of-run rolling telemetry from the canonical replay.
        for line in rolling.render().lines() {
            let _ = writeln!(txt, "  | {line}");
        }
        let ratio = if counters.peak_window_rows > 0 {
            counters.rows_processed as f64 / counters.peak_window_rows as f64
        } else {
            0.0
        };
        let _ = writeln!(
            txt,
            "  memory: peak window rows {} vs {} rows processed ({:.1}x below)\n",
            counters.peak_window_rows, counters.rows_processed, ratio,
        );

        all_identical &= dataset_ok;
        table.row(&[
            name.to_string(),
            counters.events.to_string(),
            counters.rows_processed.to_string(),
            counters.peak_window_rows.to_string(),
            format!("{ratio:.1}x"),
            yes_no(dataset_ok).to_string(),
        ]);
    }

    bench.peak_rss_kb = peak_rss_kb();
    lab.record_streaming(bench);

    txt.push_str(&table.render());
    let _ = writeln!(txt, "\nall replays bit-identical to batch: {}", yes_no(all_identical),);
    txt
}
