//! Regenerates the paper's tables and figures.
//!
//! ```text
//! experiments [--quick] [--verify] all
//! experiments [--quick] table2 fig7 ...
//! experiments --scale large megasim
//! experiments [--quick] --stream
//! experiments --list
//! ```
//!
//! `--scale <quick|full|large>` picks the lab scale explicitly; `--quick`
//! remains shorthand for `--scale quick`, and the default is full. The
//! `large` tier exists for the `megasim` scale experiment (thousands of
//! blocks through the event-log path); the standard datasets treat it
//! like full scale.
//!
//! `--stream` runs the long-lived service loop instead of the experiment
//! suite: it replays dataset 𝒜's interleaved block/snapshot event stream
//! through the incremental `StreamingAuditor` the way a live auditing
//! daemon would, printing rolling verdicts as blocks arrive and the exact
//! on-demand verdict at the end, then records ingestion throughput and
//! peak-RSS counters into the run's record.
//!
//! Experiments run on `cn_stats::Pool::auto()`, the width every simulation
//! in the process uses: `CN_WORKERS` when set, else one worker per core
//! (the pool never runs more workers than there are ids). `CN_WORKERS=1`
//! is the plain in-thread loop. Reports are joined in presentation order
//! and printed after the join, so runs at any width are byte-identical
//! modulo the wall-clock figures in `[... took ...]` lines; the record
//! states the width.
//!
//! Every run writes its record (`cn_bench::record`): per-dataset
//! simulation profiles, per-experiment times, and total wall time. Only a
//! full-suite (`all`) run writes the canonical `BENCH_pipeline.json` — the
//! perf trajectory every future change is measured against. Named ids and
//! `--stream` write `BENCH_pipeline.partial.json` instead, so a partial run
//! can never overwrite the trajectory.
//!
//! Output is printed and mirrored to `results/<id>.txt`. With `--verify`,
//! each freshly generated report is first compared byte-for-byte against
//! the checked-in `results/<id>.txt`; any mismatch fails the run (exit 3)
//! after all experiments finish, making golden drift visible in CI before
//! the files are refreshed.

use cn_bench::exp_streaming::peak_rss_kb;
use cn_bench::record::{run_record, Run};
use cn_bench::{run_experiment, Lab, StreamingBench, ALL_IDS};
use cn_core::streaming::{interleave, StreamEvent, StreamingAuditor, StreamingConfig};
use cn_core::StreamExpectation;
use cn_data::Scale;
use cn_stats::Pool;
use std::io::Write as _;
use std::time::{Duration, Instant};

/// The serial wall-time anchor of `experiments --quick all` that CI gates
/// against (`ci/bench_baseline_wall_seconds.txt`). Read at runtime so the
/// recorded speedup compares to the same number the gate uses; `None` when
/// invoked outside the repo root.
fn checked_in_baseline_secs() -> Option<f64> {
    std::fs::read_to_string("ci/bench_baseline_wall_seconds.txt")
        .ok()
        .and_then(|s| s.trim().parse::<f64>().ok())
        .filter(|b| *b > 0.0)
}

/// The canonical performance record, written only by a full-suite run.
const BENCH_RECORD: &str = "BENCH_pipeline.json";

/// Where runs of named ids and `--stream` write their record.
const BENCH_PARTIAL_RECORD: &str = "BENCH_pipeline.partial.json";

/// One experiment's outcome, produced by a pool worker.
struct Slot {
    /// `None` for an unknown id.
    report: Option<String>,
    elapsed: Duration,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list") {
        for id in ALL_IDS {
            println!("{id}");
        }
        return;
    }
    // `--scale <tier>` consumes its value token, so walk the args rather
    // than filtering on the `--` prefix.
    let mut scale = Scale::Full;
    let mut verify = false;
    let mut stream = false;
    let mut ids: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => scale = Scale::Quick,
            "--verify" => verify = true,
            "--stream" => stream = true,
            "--scale" => {
                i += 1;
                scale = match args.get(i).map(String::as_str) {
                    Some("quick") => Scale::Quick,
                    Some("full") => Scale::Full,
                    Some("large") => Scale::Large,
                    other => {
                        eprintln!("--scale expects quick|full|large, got {other:?}");
                        std::process::exit(2);
                    }
                };
            }
            flag if flag.starts_with("--") => {
                eprintln!("unknown flag: {flag}");
                std::process::exit(2);
            }
            id => ids.push(id.to_string()),
        }
        i += 1;
    }
    let pool = Pool::auto();
    let run_all = !stream && (ids.is_empty() || ids.iter().any(|a| a == "all"));
    if run_all {
        ids = ALL_IDS.iter().map(|s| s.to_string()).collect();
    }
    let lab = Lab::new(scale);
    let wall_started = Instant::now();
    let mut failed = false;
    let mut verify_failures: Vec<String> = Vec::new();
    let mut experiment_secs: Vec<(String, f64)> = Vec::with_capacity(ids.len());
    if stream {
        run_stream_service(&lab);
    } else {
        let _ = std::fs::create_dir_all("results");
        // Warm all three datasets concurrently when the whole suite runs
        // (it touches all of them anyway); targeted invocations stay lazy
        // so e.g. `experiments fig1` never pays for dataset 𝒞.
        if run_all && pool.workers() > 1 {
            lab.prewarm();
        }
        // The pool joins in id order, so the reports print in presentation
        // order whichever worker finished first.
        let slots = pool.map(&ids, |id| {
            let started = Instant::now();
            let report = run_experiment(id, &lab);
            Slot { report, elapsed: started.elapsed() }
        });
        for (id, slot) in ids.iter().zip(slots) {
            emit_report(id, slot, verify, &mut failed, &mut verify_failures, &mut experiment_secs);
        }
    }

    let run = Run {
        scale,
        stream,
        workers: pool.workers(),
        experiment_seconds: &experiment_secs,
        total_wall_seconds: wall_started.elapsed().as_secs_f64(),
        baseline_wall_seconds: checked_in_baseline_secs(),
    };
    let record = if run_all { BENCH_RECORD } else { BENCH_PARTIAL_RECORD };
    if let Err(e) = std::fs::write(record, run_record(&lab, &run).render()) {
        eprintln!("warning: could not write {record}: {e}");
    }
    if failed {
        std::process::exit(2);
    }
    if !verify_failures.is_empty() {
        eprintln!("verify: {} experiment(s) drifted from results/: {}", verify_failures.len(), verify_failures.join(" "));
        std::process::exit(3);
    }
}

/// Prints one finished experiment, mirrors it to `results/<id>.txt`, and —
/// under `--verify` — diffs it against the previously checked-in bytes
/// first, so golden drift is detected before the file is refreshed.
fn emit_report(
    id: &str,
    slot: Slot,
    verify: bool,
    failed: &mut bool,
    verify_failures: &mut Vec<String>,
    experiment_secs: &mut Vec<(String, f64)>,
) {
    match slot.report {
        Some(report) => {
            println!("==================== {id} ====================");
            println!("{report}");
            println!("[{id} took {:.1?}]", slot.elapsed);
            experiment_secs.push((id.to_string(), slot.elapsed.as_secs_f64()));
            if verify {
                match std::fs::read_to_string(format!("results/{id}.txt")) {
                    Ok(golden) if golden == report => {}
                    Ok(_) => {
                        eprintln!("verify: {id} output differs from checked-in results/{id}.txt");
                        verify_failures.push(id.to_string());
                    }
                    Err(e) => {
                        eprintln!("verify: could not read results/{id}.txt: {e}");
                        verify_failures.push(id.to_string());
                    }
                }
            }
            match std::fs::File::create(format!("results/{id}.txt")) {
                Ok(mut f) => {
                    let _ = f.write_all(report.as_bytes());
                }
                Err(e) => eprintln!("warning: could not write results/{id}.txt: {e}"),
            }
        }
        None => {
            eprintln!("unknown experiment id: {id} (use --list)");
            *failed = true;
        }
    }
}

/// `--stream`: the long-lived service loop. Replays dataset 𝒜's
/// interleaved block/snapshot event stream through a [`StreamingAuditor`]
/// in arrival order, printing a rolling verdict every few blocks the way
/// a live auditing daemon would, then takes the exact on-demand verdict
/// (bit-identical to the batch audit) and records ingestion, throughput,
/// and peak-RSS counters for the run's performance record.
fn run_stream_service(lab: &Lab) {
    /// Rolling-verdict cadence, in ingested blocks.
    const REPORT_EVERY_BLOCKS: u64 = 25;
    let (out, _) = lab.a();
    let s = &out.scenario;
    let exp =
        StreamExpectation::from_run(s.duration, s.snapshot_interval, s.snapshot_detail_every);
    let mut auditor =
        StreamingAuditor::new(out.chain.initial_utxos(), StreamingConfig::new(exp));
    let started = Instant::now();
    let mut last_report = 0u64;
    for ev in interleave(out.chain.blocks(), &out.snapshots) {
        if let Err(e) = auditor.push_event(&ev) {
            eprintln!("stream: unrecoverable ingest error: {e}");
            std::process::exit(2);
        }
        if matches!(ev, StreamEvent::Block(_))
            && auditor.tip_blocks() >= last_report + REPORT_EVERY_BLOCKS
        {
            last_report = auditor.tip_blocks();
            print!("{}", auditor.rolling().render());
        }
    }
    let replay_seconds = started.elapsed().as_secs_f64();
    let c = auditor.counters();
    println!("---- end of stream ----");
    print!("{}", auditor.rolling().render());
    match auditor.verdict() {
        Ok(report) => println!("{}", report.render()),
        Err(e) => println!("exact verdict refused: {e}"),
    }
    println!(
        "[stream replayed {} events in {:.2}s — {:.0} events/s, peak window rows {}]",
        c.events,
        replay_seconds,
        c.events as f64 / replay_seconds.max(1e-9),
        c.peak_window_rows,
    );
    lab.record_streaming(StreamingBench {
        events: c.events,
        blocks: c.blocks,
        snapshots: c.snapshots,
        rows_processed: c.rows_processed,
        peak_window_rows: c.peak_window_rows,
        replay_seconds,
        peak_rss_kb: peak_rss_kb(),
    });
}
