//! Regenerates the paper's tables and figures.
//!
//! ```text
//! experiments [--quick] [--verify] all
//! experiments [--quick] table2 fig7 ...
//! experiments --scale large megasim
//! experiments --list
//! ```
//!
//! `--scale <quick|full|large>` picks the lab scale explicitly; `--quick`
//! remains shorthand for `--scale quick`, and the default is full. The
//! `large` tier exists for the `megasim` scale experiment (thousands of
//! blocks through the event-log path); the standard datasets treat it
//! like full scale.
//!
//! Experiments run on `cn_stats::Pool::auto()`, the one pool width in the
//! process: `CN_WORKERS` when set, else one worker per core (the pool
//! never runs more workers than there are ids). Simulations and audits
//! run on their caller's thread, so `CN_WORKERS=1` is the plain in-thread
//! loop throughout. Reports are joined in presentation order
//! and printed after the join, so runs at any width are byte-identical
//! modulo the wall-clock figures in `[... took ...]` lines; the record
//! states the width.
//!
//! Every run writes its record (`cn_bench::record`): per-dataset
//! simulation profiles, per-experiment times, and total wall time. Only a
//! full-suite (`all`) run writes the canonical `BENCH_pipeline.json` — the
//! perf trajectory every future change is measured against. Named ids
//! write `BENCH_pipeline.partial.json` instead, so a partial run can never
//! overwrite the trajectory. A run of one id alone, such as `streaming` or
//! `megasim`, also records that experiment's peak RSS.
//!
//! Output is printed and mirrored to `results/<id>.txt`. With `--verify`,
//! each freshly generated report is first compared byte-for-byte against
//! the checked-in `results/<id>.txt`; any mismatch fails the run (exit 3)
//! after all experiments finish, making golden drift visible in CI before
//! the files are refreshed.

use cn_bench::record::{run_record, Run};
use cn_bench::{run_experiment, Lab, ALL_IDS};
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

/// Where runs of named ids write their record.
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
    let mut ids: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => scale = Scale::Quick,
            "--verify" => verify = true,
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
    let run_all = ids.is_empty() || ids.iter().any(|a| a == "all");
    if run_all {
        ids = ALL_IDS.iter().map(|s| s.to_string()).collect();
    }
    let lab = Lab::new(scale);
    let wall_started = Instant::now();
    let mut failed = false;
    let mut verify_failures: Vec<String> = Vec::new();
    let mut experiment_secs: Vec<(String, f64)> = Vec::with_capacity(ids.len());
    let _ = std::fs::create_dir_all("results");
    // Warm all three datasets before any experiment starts when the whole
    // suite runs (it touches all of them anyway), so dataset simulation is
    // charged to `dataset_sim_seconds`, not to whichever experiment asks
    // first; targeted invocations stay lazy so e.g. `experiments fig1`
    // never pays for dataset 𝒞.
    if run_all {
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

    let run = Run {
        scale,
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
        eprintln!(
            "verify: {} experiment(s) drifted from results/: {}",
            verify_failures.len(),
            verify_failures.join(" ")
        );
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
