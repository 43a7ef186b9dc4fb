//! Regenerates the paper's tables and figures.
//!
//! ```text
//! experiments [--quick] [--serial] [--verify] all
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
//! peak-RSS counters into the run's performance record.
//!
//! Experiments run on a `cn_stats::Pool` (one worker per available core,
//! capped at the number of ids; one worker under `--serial` or on a
//! one-core box, which is the plain in-thread loop). Reports are joined in
//! presentation order and printed after the join, so parallel runs are
//! byte-identical to `--serial` runs modulo the wall-clock figures in
//! `[... took ...]` lines; the record states which mode ran.
//!
//! Every run writes a performance record with per-dataset simulation
//! times, per-experiment times, and total wall time. Only a full-suite
//! (`all`) run writes the canonical `BENCH_pipeline.json` — the perf
//! trajectory every future change is measured against. Named ids and
//! `--stream` write `BENCH_pipeline.partial.json` instead, so a partial run
//! can never overwrite the trajectory.
//!
//! Output is printed and mirrored to `results/<id>.txt`. With `--verify`,
//! each freshly generated report is first compared byte-for-byte against
//! the checked-in `results/<id>.txt`; any mismatch fails the run (exit 3)
//! after all experiments finish, making golden drift visible in CI before
//! the files are refreshed.

use cn_bench::exp_streaming::peak_rss_kb;
use cn_bench::{run_experiment, Lab, MegasimTier, StreamingBench, ALL_IDS, DATASET_NAMES};
use cn_data::Scale;
use cn_core::streaming::{interleave, StreamEvent, StreamingAuditor, StreamingConfig};
use cn_core::StreamExpectation;
use cn_stats::Pool;
use std::fmt::Write as _;
use std::io::Write as _;
use std::time::{Duration, Instant};

/// Serial wall time of `experiments --quick all` on the reference machine,
/// taken as the minimum of three `--serial` runs (the least contaminated
/// figure on a noisy box). Re-measured after each hot-path overhaul so the
/// recorded speedup compares against the *current* serial engine, not a
/// stale one (the pre-overhaul origin was 49.029 s; earlier refreshes read
/// 17.1 s before the hardware-hash and scheduler work landed, then
/// 13.182 s before the incremental-assembly and fork-and-replay work —
/// though the box itself had also drifted ~20 % slower by the time of that
/// reading, so the true engine delta is larger than the two figures
/// suggest). The 32.704 s figure reflected the observer-fleet growth
/// (23rd experiment plus per-observer bookkeeping); 37.906 s added the
/// 24th (`streaming`: seven full event-stream replays per dataset). The
/// 27.332 s figure was a genuine engine win at unchanged workload: the
/// streaming auditor's cross-block pair scans moved from per-pair probing
/// to sorted-merge/bitset kernels, and issuance moved to pre-generated
/// per-transaction draw records (the fork-join layer's serial path). The
/// current figure (minimum of five runs) is the admission/eviction drain:
/// relay-shared admission prechecks, batched same-timestamp delivery
/// admission, parallel per-pool block ticks, and the mempool
/// index-maintenance diet (weight multiset and fee-rate set deleted,
/// fixed-point ancestor-rate prefix, seeded-cursor rebuilds).
const SERIAL_BASELINE_QUICK_ALL_SECS: f64 = 24.187;

/// Checked-in wall-time anchor CI gates against (`ci/bench_baseline_wall_seconds.txt`).
/// Read at runtime so the emitted speedup always compares to the same number
/// the regression gate uses; `None` when invoked outside the repo root.
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
    let mut serial_flag = false;
    let mut verify = false;
    let mut stream = false;
    let mut ids: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => scale = Scale::Quick,
            "--serial" => serial_flag = true,
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
    if stream {
        let lab = Lab::new(scale);
        let wall_started = Instant::now();
        run_stream_service(&lab);
        let total_wall = wall_started.elapsed().as_secs_f64();
        let json = bench_json(&lab, scale, "stream", 1, 1, &[], total_wall);
        if let Err(e) = std::fs::write(BENCH_PARTIAL_RECORD, json) {
            eprintln!("warning: could not write {BENCH_PARTIAL_RECORD}: {e}");
        }
        return;
    }
    let run_all = ids.is_empty() || ids.iter().any(|a| a == "all");
    if run_all {
        ids = ALL_IDS.iter().map(|s| s.to_string()).collect();
    }
    let lab = Lab::new(scale);
    let _ = std::fs::create_dir_all("results");

    let wall_started = Instant::now();
    // Detected once, recorded next to the width actually used — a
    // 1-worker record on a 16-core box is a probe bug, not a measurement.
    let detected = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let width = if serial_flag || detected < 2 { 1 } else { detected.min(ids.len()).max(1) };
    let mode = if width == 1 { "serial" } else { "parallel" };
    // Warm all three datasets concurrently when the whole suite runs (it
    // touches all of them anyway); targeted invocations stay lazy so e.g.
    // `experiments fig1` never pays for dataset 𝒞.
    if run_all && width > 1 {
        lab.prewarm();
    }

    // The pool joins in id order, so the reports print in presentation
    // order whichever worker finished first.
    let slots = Pool::with_workers(width).map(&ids, |id| {
        let started = Instant::now();
        let report = run_experiment(id, &lab);
        Slot { report, elapsed: started.elapsed() }
    });
    let mut failed = false;
    let mut verify_failures: Vec<String> = Vec::new();
    let mut experiment_secs: Vec<(String, f64)> = Vec::with_capacity(ids.len());
    for (id, slot) in ids.iter().zip(slots) {
        emit_report(id, slot, verify, &mut failed, &mut verify_failures, &mut experiment_secs);
    }

    let total_wall = wall_started.elapsed().as_secs_f64();
    let record = if run_all { BENCH_RECORD } else { BENCH_PARTIAL_RECORD };
    let json = bench_json(&lab, scale, mode, detected, width, &experiment_secs, total_wall);
    if let Err(e) = std::fs::write(record, json) {
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

/// Renders the run's performance record by hand (no JSON dependency
/// in-tree).
fn bench_json(
    lab: &Lab,
    scale: Scale,
    mode: &str,
    workers_detected: usize,
    workers_used: usize,
    experiment_secs: &[(String, f64)],
    total_wall: f64,
) -> String {
    let mut json = String::new();
    json.push_str("{\n");
    // Schema 8: drops the three same-timestamp delivery-batch counters
    // from `sim_profile` (the simulator admits each delivery as it pops).
    // Schema 7 added the `megasim` block (the scale tier's per-tier
    // simulate→log→replay counters, throughput, and `VmHWM` after replay
    // — what the CI flat-RSS ceiling gates on) and the "large" scale.
    // Schema 6 split the `mempool` subsystem-seconds slot into
    // `admission` + `eviction` (per-view block-connect eviction was
    // previously buried in `assembly`), and added the relay-memo,
    // delivery-batch and rebuild-reason counters (`admission_precheck_hits`,
    // `rebuilds_with_{accelerate,decelerate,exclude}`). Schema 5 added
    // intra-simulation fork-join accounting — the `sim_workers` width
    // used inside each simulation, the `pregen` subsystem-seconds slot,
    // and the per-worker `pregen_shards` breakdown. Schema 4 added the
    // `streaming` block (ingestion counters, replay throughput, peak
    // RSS) and the "stream" mode. Schema 3 added per-observer
    // snapshot/degraded counters, the fleet subsystem-seconds slot, and
    // the `mode` key (serial/parallel). Bump on any key change so
    // trajectory tooling can tell versions apart without sniffing.
    json.push_str("  \"schema\": 8,\n");
    let scale_name = match scale {
        Scale::Quick => "quick",
        Scale::Full => "full",
        Scale::Large => "large",
    };
    let _ = writeln!(json, "  \"scale\": \"{scale_name}\",");
    let _ = writeln!(json, "  \"mode\": \"{mode}\",");
    let _ = writeln!(json, "  \"workers_detected\": {workers_detected},");
    let _ = writeln!(json, "  \"workers_used\": {workers_used},");
    // The fork-join width *inside* each simulation (workload
    // pre-generation; also what the streaming auditor and reconciler
    // default to). Honors CN_WORKERS, so the CI dual-run gate's forced
    // widths are visible in the artifact it checks.
    let _ = writeln!(json, "  \"sim_workers\": {},", cn_stats::Pool::auto().workers());
    json.push_str("  \"dataset_sim_seconds\": {\n");
    let sim = lab.sim_seconds();
    for (i, name) in DATASET_NAMES.iter().enumerate() {
        let comma = if i + 1 < DATASET_NAMES.len() { "," } else { "" };
        match sim[i] {
            Some(secs) => {
                let _ = writeln!(json, "    \"{name}\": {secs:.3}{comma}");
            }
            None => {
                let _ = writeln!(json, "    \"{name}\": null{comma}");
            }
        }
    }
    json.push_str("  },\n");
    json.push_str("  \"sim_profile\": {\n");
    let profiles = lab.sim_profiles();
    for (i, name) in DATASET_NAMES.iter().enumerate() {
        let comma = if i + 1 < DATASET_NAMES.len() { "," } else { "" };
        match &profiles[i] {
            Some(p) => {
                let _ = writeln!(json, "    \"{name}\": {{");
                let _ = writeln!(json, "      \"events_popped\": {},", p.events_popped);
                let _ = writeln!(json, "      \"events_per_sec\": {:.0},", p.events_per_sec());
                let _ = writeln!(json, "      \"deliveries\": {},", p.deliveries);
                let _ = writeln!(json, "      \"user_txs\": {},", p.user_txs);
                let _ = writeln!(json, "      \"self_txs\": {},", p.self_txs);
                let _ = writeln!(json, "      \"blocks\": {},", p.blocks);
                let _ = writeln!(json, "      \"snapshot_ticks\": {},", p.snapshot_ticks);
                let _ = writeln!(json, "      \"observer_snapshots\": {:?},", p.observer_snapshots);
                let _ = writeln!(json, "      \"observer_degraded\": {:?},", p.observer_degraded);
                let _ = writeln!(
                    json,
                    "      \"assembly_incremental_hits\": {},",
                    p.assembly_incremental_hits
                );
                let _ = writeln!(
                    json,
                    "      \"assembly_full_rebuilds\": {},",
                    p.assembly_full_rebuilds
                );
                let _ = writeln!(
                    json,
                    "      \"rebuilds_with_accelerate\": {},",
                    p.rebuilds_with_accelerate
                );
                let _ = writeln!(
                    json,
                    "      \"rebuilds_with_decelerate\": {},",
                    p.rebuilds_with_decelerate
                );
                let _ = writeln!(json, "      \"rebuilds_with_exclude\": {},", p.rebuilds_with_exclude);
                let _ = writeln!(
                    json,
                    "      \"admission_precheck_hits\": {},",
                    p.admission_precheck_hits
                );
                let _ = writeln!(json, "      \"subsystem_seconds\": {{");
                let _ = writeln!(json, "        \"issue\": {:.3},", p.issue);
                let _ = writeln!(json, "        \"relay\": {:.3},", p.relay);
                let _ = writeln!(json, "        \"faults\": {:.3},", p.faults);
                let _ = writeln!(json, "        \"admission\": {:.3},", p.admission);
                let _ = writeln!(json, "        \"eviction\": {:.3},", p.eviction);
                let _ = writeln!(json, "        \"assembly\": {:.3},", p.assembly);
                let _ = writeln!(json, "        \"snapshot\": {:.3},", p.snapshot);
                let _ = writeln!(json, "        \"fleet\": {:.3},", p.fleet);
                let _ = writeln!(json, "        \"pregen\": {:.3}", p.pregen);
                let _ = writeln!(json, "      }},");
                let _ = writeln!(json, "      \"pregen_shards\": {{");
                let _ = writeln!(json, "        \"batches\": {},", p.pregen_batches);
                let _ = writeln!(json, "        \"items\": {},", p.pregen_items);
                let _ = writeln!(json, "        \"items_per_worker\": {:?},", p.pregen_shard_items);
                let secs: Vec<String> =
                    p.pregen_shard_seconds.iter().map(|s| format!("{s:.3}")).collect();
                let _ = writeln!(json, "        \"seconds_per_worker\": [{}]", secs.join(", "));
                let _ = writeln!(json, "      }}");
                let _ = writeln!(json, "    }}{comma}");
            }
            None => {
                let _ = writeln!(json, "    \"{name}\": null{comma}");
            }
        }
    }
    json.push_str("  },\n");
    json.push_str("  \"experiment_seconds\": {\n");
    for (i, (id, secs)) in experiment_secs.iter().enumerate() {
        let comma = if i + 1 < experiment_secs.len() { "," } else { "" };
        let _ = writeln!(json, "    \"{id}\": {secs:.3}{comma}");
    }
    json.push_str("  },\n");
    // Streaming-auditor counters: present when the `streaming` experiment
    // or the `--stream` service loop ran this process. CI asserts the
    // windowed state stayed O(window) from these
    // (peak_window_rows ≪ rows_processed).
    match lab.streaming_bench() {
        Some(b) => {
            json.push_str("  \"streaming\": {\n");
            let _ = writeln!(json, "    \"events\": {},", b.events);
            let _ = writeln!(json, "    \"blocks\": {},", b.blocks);
            let _ = writeln!(json, "    \"snapshots\": {},", b.snapshots);
            let _ = writeln!(json, "    \"rows_processed\": {},", b.rows_processed);
            let _ = writeln!(json, "    \"peak_window_rows\": {},", b.peak_window_rows);
            let _ = writeln!(json, "    \"replay_seconds\": {:.3},", b.replay_seconds);
            let _ = writeln!(json, "    \"events_per_sec\": {:.0},", b.events_per_sec());
            match b.peak_rss_kb {
                Some(kb) => {
                    let _ = writeln!(json, "    \"peak_rss_kb\": {kb}");
                }
                None => json.push_str("    \"peak_rss_kb\": null\n"),
            }
            json.push_str("  },\n");
        }
        None => json.push_str("  \"streaming\": null,\n"),
    }
    // Megasim scale-tier counters: present when the `megasim` experiment
    // ran this process. CI's flat-RSS ceiling reads the two
    // `rss_after_replay_kb` values (main must stay within 2× ref despite
    // the 10× block target).
    match lab.megasim_bench() {
        Some(b) => {
            let tier_json = |json: &mut String, key: &str, t: &MegasimTier, comma: &str| {
                let _ = writeln!(json, "    \"{key}\": {{");
                let _ = writeln!(json, "      \"blocks\": {},", t.blocks);
                let _ = writeln!(json, "      \"snapshots\": {},", t.snapshots);
                let _ = writeln!(json, "      \"log_bytes\": {},", t.log_bytes);
                let _ = writeln!(json, "      \"log_segments\": {},", t.log_segments);
                let _ = writeln!(json, "      \"bytes_per_block\": {:.1},", t.bytes_per_block());
                let _ = writeln!(json, "      \"spill_segments\": {},", t.spill_segments);
                let _ = writeln!(json, "      \"spill_bytes\": {},", t.spill_bytes);
                let _ = writeln!(json, "      \"sim_seconds\": {:.3},", t.sim_seconds);
                let _ = writeln!(json, "      \"replay_seconds\": {:.3},", t.replay_seconds);
                let _ = writeln!(json, "      \"blocks_per_sec\": {:.1},", t.blocks_per_sec());
                match t.rss_after_sim_kb {
                    Some(kb) => {
                        let _ = writeln!(json, "      \"rss_after_sim_kb\": {kb},");
                    }
                    None => json.push_str("      \"rss_after_sim_kb\": null,\n"),
                }
                match t.rss_after_replay_kb {
                    Some(kb) => {
                        let _ = writeln!(json, "      \"rss_after_replay_kb\": {kb}");
                    }
                    None => json.push_str("      \"rss_after_replay_kb\": null\n"),
                }
                let _ = writeln!(json, "    }}{comma}");
            };
            json.push_str("  \"megasim\": {\n");
            tier_json(&mut json, "ref", &b.reference, ",");
            tier_json(&mut json, "main", &b.main, ",");
            match (b.reference.rss_after_replay_kb, b.main.rss_after_replay_kb) {
                (Some(r), Some(m)) if r > 0 => {
                    let _ = writeln!(
                        json,
                        "    \"rss_ratio_main_over_ref\": {:.2}",
                        m as f64 / r as f64
                    );
                }
                _ => json.push_str("    \"rss_ratio_main_over_ref\": null\n"),
            }
            json.push_str("  },\n");
        }
        None => json.push_str("  \"megasim\": null,\n"),
    }
    let _ = writeln!(json, "  \"total_wall_seconds\": {total_wall:.3},");
    let _ = writeln!(
        json,
        "  \"serial_baseline_quick_all_seconds\": {SERIAL_BASELINE_QUICK_ALL_SECS:.3},"
    );
    // The speedup figure only means something for the configuration the
    // baseline was measured on: the full quick-scale suite.
    let full_quick_suite = scale == Scale::Quick && experiment_secs.len() == ALL_IDS.len();
    if full_quick_suite && total_wall > 0.0 {
        let _ = writeln!(
            json,
            "  \"speedup_vs_serial_baseline\": {:.2},",
            SERIAL_BASELINE_QUICK_ALL_SECS / total_wall
        );
    } else {
        json.push_str("  \"speedup_vs_serial_baseline\": null,\n");
    }
    // Unlike the serial-baseline ratio above, this one stays meaningful on
    // a 1-worker box: it compares against the checked-in wall-time anchor
    // the CI gate uses, so algorithmic wins show up even without
    // parallelism. Emitted only for the configuration the anchor was
    // measured on (full quick suite).
    match checked_in_baseline_secs() {
        Some(baseline) if full_quick_suite && total_wall > 0.0 => {
            let _ = writeln!(json, "  \"checked_in_baseline_wall_seconds\": {baseline:.3},");
            let _ = writeln!(
                json,
                "  \"single_thread_speedup_vs_checked_in_baseline\": {:.2}",
                baseline / total_wall
            );
        }
        _ => {
            json.push_str("  \"checked_in_baseline_wall_seconds\": null,\n");
            json.push_str("  \"single_thread_speedup_vs_checked_in_baseline\": null\n");
        }
    }
    json.push_str("}\n");
    json
}
