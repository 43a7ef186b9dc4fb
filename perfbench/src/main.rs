//! The repository benchmark: single-threaded, in-memory runs of the
//! simulate → log → audit pipeline through the library's public API.
//!
//! ```text
//! perfbench --workload <sim_fleet|audit_fleet|log_replay> [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! A run picks [`INPUTS`] inputs from its workload's pinned pool by the
//! seed (see [`inputs`]); each set-up ends with an untimed warm-up pass
//! that runs the correctness oracles. It then repeats rounds of timed
//! passes, one pass per input, until `--seconds` of pass time have
//! accumulated. Set-up and pass times are corrected for the host's speed
//! (see [`host`]). Every fork-join width is pinned to one thread, and
//! nothing touches the filesystem. The last line of standard output is
//! one JSON object: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. A traced run passes over each input both
//! untraced and traced, so that it can report its own tracing overhead, and
//! writes the per-layer self-time table to standard error.
//!
//! See `README.md` in this directory for the metrics and workloads.

mod audit_fleet;
mod host;
mod inputs;
mod log_replay;
mod sim_fleet;
mod trace;

use cn_sim::scenario::Scenario;
use host::HostClock;
use inputs::{pick, INPUTS};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;
use trace::{layers, median, status_mb, tail, Trace};

/// The per-layer metrics a traced run reports, with their units. Time
/// metrics are self seconds per traced pass; counts are per pass.
const PER_LAYER: &[(&str, &str)] = &[
    ("pass_s", "s"),
    ("setup_rss_mb", "MiB"),
    ("unattributed_s", "s"),
    ("trace.overhead_pct", "%"),
    ("sim.build_s", "s"),
    ("sim.loop_s", "s"),
    ("sim.issue_s", "s"),
    ("sim.pregen_s", "s"),
    ("net.relay_s", "s"),
    ("mempool.admission_s", "s"),
    ("mempool.eviction_s", "s"),
    ("miner.assembly_s", "s"),
    ("mempool.snapshot_s", "s"),
    ("sim.fleet_s", "s"),
    ("core.index_build_s", "s"),
    ("core.reconcile_s", "s"),
    ("core.stream_block_s", "s"),
    ("core.stream_snapshot_s", "s"),
    ("core.verdict_s", "s"),
    ("core.coverage_s", "s"),
    ("core.attribute_s", "s"),
    ("core.self_interest_s", "s"),
    ("core.audit_attributed_s", "s"),
    ("data.log_encode_s", "s"),
    ("data.log_decode_s", "s"),
    ("core.spill_block_s", "s"),
    ("core.spill_snapshot_s", "s"),
    ("core.spill_verdict_s", "s"),
    ("sim.events", "count"),
    ("net.deliveries", "count"),
    ("sim.user_txs", "count"),
    ("mempool.precheck_hit_ratio", "ratio"),
    ("miner.incremental_hit_ratio", "ratio"),
    ("core.rows_processed", "count"),
    ("core.peak_window_rows", "count"),
    ("core.spill_bytes", "bytes"),
    ("data.log_bytes", "bytes"),
    ("data.log_segments", "count"),
    ("log_bytes_per_block", "bytes"),
    ("verdict_ms", "ms"),
    ("block_ingest_p50_ms", "ms"),
    ("block_ingest_tail_ms", "ms"),
];

/// One timed pass.
pub struct Pass {
    /// Wall seconds of the timed region.
    pub seconds: f64,
    /// Blocks carried through the pass.
    pub blocks: u64,
    /// Whether the pass's correctness check held.
    pub ok: bool,
}

/// Measurements a workload reports besides pass time.
#[derive(Default)]
pub struct Record {
    /// Per-block streaming-ingest latencies of untraced passes, ms.
    pub ingest_ms: Vec<f64>,
    /// Per-pass exact-verdict latencies of untraced passes, ms.
    pub verdict_ms: Vec<f64>,
    /// Work counts summed over passes.
    pub counts: BTreeMap<&'static str, f64>,
}

impl Record {
    /// Adds one pass's count.
    pub fn count(&mut self, name: &'static str, value: f64) {
        *self.counts.entry(name).or_default() += value;
    }
}

/// A benchmark workload over several seeded inputs.
pub trait Workload: Default {
    /// Scenario seeds whose inputs cost the same per block within a few
    /// per cent; a run uses [`INPUTS`] of them.
    const POOL: &'static [u64];
    /// The workload's scenario for `seed`.
    fn scenario(seed: u64) -> Scenario;
    /// Builds the input for `scenario` and runs its untimed warm-up pass
    /// with the correctness oracles. The input is kept even when an oracle
    /// fails.
    fn add_input(&mut self, scenario: Scenario) -> Result<(), String>;
    /// One line per input stating its size.
    fn describe(&self) -> String;
    /// One timed pass over input `input`.
    fn pass(&mut self, input: usize, trace: &mut Trace, record: &mut Record) -> Pass;
}

struct Args {
    workload: String,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <sim_fleet|audit_fleet|log_replay> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>]";

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: None,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => {
                args.seed = Some(match value.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16).map_err(|_| bad())?,
                    None => value.parse().map_err(|_| bad())?,
                })
            }
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad value for --trace: {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// The outcome of one run, ready to print.
struct Outcome {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<(&'static str, f64, &'static str)>,
    notes: String,
}

fn run<W: Workload>(args: &Args) -> Outcome {
    let mut notes = String::new();
    let seed = args.seed.unwrap_or(0);
    let input_seeds = pick(W::POOL, seed);
    let _ = writeln!(notes, "seed {seed}: input seeds {input_seeds:?}");
    let mut workload = W::default();
    let mut host = HostClock::new();
    let mut setups = Vec::with_capacity(INPUTS);
    let mut warm_failures = 0;
    for &input_seed in &input_seeds {
        let started = Instant::now();
        let warm = workload.add_input(W::scenario(input_seed));
        setups.push(host.normalise(started.elapsed().as_secs_f64()));
        if let Err(e) = warm {
            warm_failures += 1;
            let _ = writeln!(
                notes,
                "warm-up oracle failed on input seed {input_seed}: {e}"
            );
        }
    }
    let setup_rss_mb = status_mb("VmRSS:");
    notes.push_str(&workload.describe());

    let mut trace = Trace::new(false);
    let mut record = Record::default();
    // Untraced and traced totals: (normalised seconds, blocks, passes).
    let mut totals = [(0.0, 0u64, 0usize); 2];
    let (mut attempted, mut failed) = (0, 0);
    let mut pass_seconds = Vec::new();
    let mut rounds = 0;
    while rounds == 0 || pass_seconds.iter().sum::<f64>() < args.seconds {
        // A traced run passes over each input twice in a row, untraced and
        // traced, in an order that flips every round, so that the overhead
        // estimate compares neighbouring passes.
        let modes: &[bool] = match (args.trace, rounds % 2) {
            (false, _) => &[false],
            (true, 0) => &[false, true],
            (true, _) => &[true, false],
        };
        for input in 0..INPUTS {
            for &traced in modes {
                trace.set_enabled(traced);
                let pass = workload.pass(input, &mut trace, &mut record);
                pass_seconds.push(pass.seconds);
                let total = &mut totals[usize::from(traced)];
                total.0 += host.normalise(pass.seconds);
                total.1 += pass.blocks;
                total.2 += 1;
                attempted += 1;
                failed += usize::from(!pass.ok);
            }
        }
        rounds += 1;
    }
    let rate = |(seconds, blocks, _): (f64, u64, usize)| blocks as f64 / seconds.max(1e-9);
    let wall: f64 = pass_seconds.iter().sum();
    let _ = writeln!(
        notes,
        "passes: {attempted} ({failed} failed) in {rounds} rounds, {wall:.3} s timed, \
         {:.3} s normalised",
        totals[0].0 + totals[1].0,
    );
    let _ = writeln!(
        notes,
        "host slowdown, from the reference kernel: median {:.3} over {} runs: {}",
        median(host.slowdowns()),
        host.slowdowns().len(),
        three_places(host.slowdowns()),
    );
    let _ = writeln!(
        notes,
        "normalised set-up seconds: {}",
        three_places(&setups)
    );
    let _ = writeln!(notes, "wall pass seconds: {}", three_places(&pass_seconds));
    let counts: Vec<String> = record
        .counts
        .iter()
        .map(|(k, v)| format!("{k} {}", v / attempted as f64))
        .collect();
    let _ = writeln!(notes, "mean per pass: {}", counts.join(", "));
    notes.push_str(&latency_notes(&record));
    let peak_rss_mb = status_mb("VmHWM:");
    let _ = writeln!(
        notes,
        "resident after set-up: {setup_rss_mb:.1} MiB, peak: {peak_rss_mb:.1} MiB"
    );

    let metrics = if args.trace {
        let overhead = rate(totals[0]) / rate(totals[1]) - 1.0;
        per_layer(
            &trace,
            &record,
            attempted,
            totals[1].2,
            overhead,
            setup_rss_mb,
        )
    } else {
        vec![
            ("setup_s", median(&setups), "s"),
            ("blocks_per_s", rate(totals[0]), "1/s"),
            ("peak_rss_mb", peak_rss_mb, "MiB"),
        ]
    };
    Outcome {
        correct: warm_failures == 0 && failed == 0,
        attempted,
        failed,
        metrics,
        notes,
    }
}

/// `values` to three decimal places, space-separated.
fn three_places(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|v| format!("{v:.3}")).collect();
    items.join(" ")
}

/// Ingest and verdict latencies as text.
fn latency_notes(record: &Record) -> String {
    let mut out = String::new();
    if !record.verdict_ms.is_empty() {
        let _ = writeln!(
            out,
            "verdict: median {:.3} ms over {} passes",
            median(&record.verdict_ms),
            record.verdict_ms.len()
        );
    }
    if !record.ingest_ms.is_empty() {
        let _ = write!(out, "block ingest: p50 {:.3} ms", median(&record.ingest_ms));
        if let Some((p, v)) = tail(&record.ingest_ms) {
            let _ = write!(out, ", p{p} {v:.3} ms");
        }
        let _ = writeln!(out, " over {} blocks", record.ingest_ms.len());
    }
    out
}

/// The per-layer metrics of a traced run; writes the self-time table to
/// standard error. `overhead` is how much faster untraced passes ran.
fn per_layer(
    trace: &Trace,
    record: &Record,
    all_passes: usize,
    traced_passes: usize,
    overhead: f64,
    setup_rss_mb: f64,
) -> Vec<(&'static str, f64, &'static str)> {
    let passes = traced_passes.max(1) as f64;
    let by_layer = layers(trace.spans());
    let pass_total = by_layer.get("pass").map_or(0.0, |l| l.total);

    let mut table = String::new();
    let _ = writeln!(
        table,
        "{:<24} {:<10} {:>10} {:>12} {:>12} {:>7}",
        "layer", "parent", "calls/pass", "total s/pass", "self s/pass", "share"
    );
    for (name, layer) in &by_layer {
        let _ = writeln!(
            table,
            "{:<24} {:<10} {:>10.1} {:>12.6} {:>12.6} {:>6.2}%",
            name,
            layer.parent,
            layer.calls as f64 / passes,
            layer.total / passes,
            layer.self_time / passes,
            100.0 * layer.self_time / pass_total.max(1e-12),
        );
    }
    let _ = writeln!(
        table,
        "over {traced_passes} traced passes; the self time of `pass` is what no layer span covers\n\
         tracing overhead: untraced passes ran {:.2}% faster than traced ones",
        100.0 * overhead
    );
    eprint!("{table}");

    let tail = tail(&record.ingest_ms);
    let self_s = |span: &str| by_layer.get(span).map_or(0.0, |l| l.self_time) / passes;
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = match name {
                "pass_s" => pass_total / passes,
                "setup_rss_mb" => setup_rss_mb,
                "unattributed_s" => self_s("pass"),
                "trace.overhead_pct" => 100.0 * overhead,
                "sim.loop_s" => self_s("sim.run"),
                "verdict_ms" => median(&record.verdict_ms),
                "block_ingest_p50_ms" => median(&record.ingest_ms),
                "block_ingest_tail_ms" => tail.map_or(0.0, |t| t.1),
                _ => match name.strip_suffix("_s") {
                    Some(span) => self_s(span),
                    None => record
                        .counts
                        .get(name)
                        .map_or(0.0, |sum| sum / all_passes as f64),
                },
            };
            (name, value, unit)
        })
        .collect()
}

fn json(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "sim_fleet" => run::<sim_fleet::SimFleet>(&args),
        "audit_fleet" => run::<audit_fleet::AuditFleet>(&args),
        "log_replay" => run::<log_replay::LogReplay>(&args),
        other => {
            eprintln!("perfbench: unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!("workload {} trace {}", args.workload, u8::from(args.trace));
    print!("{}", outcome.notes);
    println!("{}", json(&outcome));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    #[test]
    fn every_per_layer_metric_is_declared_in_benchmark_json() {
        for (name, unit) in PER_LAYER {
            let declared = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(BENCHMARK_JSON.contains(&declared), "{declared} missing");
        }
        let declared = BENCHMARK_JSON.matches("\"better\"").count();
        assert_eq!(
            declared,
            PER_LAYER.len() + 3,
            "per-layer plus three end-to-end metrics"
        );
    }

    #[test]
    fn json_prints_every_digit() {
        let outcome = Outcome {
            correct: true,
            attempted: 4,
            failed: 0,
            metrics: vec![("blocks_per_s", 0.1 + 0.2, "1/s"), ("x", f64::NAN, "s")],
            notes: String::new(),
        };
        assert_eq!(
            json(&outcome),
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": {\
             \"blocks_per_s\": {\"value\": 0.30000000000000004, \"unit\": \"1/s\"}, \
             \"x\": {\"value\": 0.0, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn args_parse_decimal_and_hex_seeds() {
        let argv = |s: &str| {
            s.split(' ')
                .map(String::from)
                .collect::<Vec<_>>()
                .into_iter()
        };
        let a = parse_args(argv(
            "--workload log_replay --seed 0x3E6A --seconds 2.5 --trace 1",
        ))
        .expect("valid");
        assert_eq!((a.seed, a.seconds, a.trace), (Some(0x3E6A), 2.5, true));
        assert_eq!(
            parse_args(argv("--workload x --seed 7"))
                .expect("valid")
                .seed,
            Some(7)
        );
        assert!(parse_args(argv("--seed 7")).is_err());
        assert!(parse_args(argv("--workload x --trace 2")).is_err());
    }
}
