//! The run record: what one `experiments` run measured, as one typed JSON
//! value built by one pure function ([`run_record`]) and written by one
//! renderer ([`Json::render`]). The workspace has no JSON dependency, so
//! [`Json`] holds just the value kinds the record uses.
//!
//! `mode` and `workers` state the one `Pool::auto()` width the whole
//! process ran at. The serial anchor and the speedup against it are
//! written only for a serial run of the full quick-scale suite, the
//! configuration the anchor was measured in. The RSS fields are the
//! process `VmHWM`, so they are written only when the process ran that
//! one experiment (a single id, or `--stream` for the streaming block);
//! otherwise the high-water mark belongs to whichever experiment peaked.

use crate::lab::{Lab, MegasimBench, MegasimTier, StreamingBench, DATASET_NAMES};
use crate::ALL_IDS;
use cn_data::Scale;
use cn_sim::SimProfile;
use std::fmt::Write as _;

/// The record's key-layout version; bump it on any key change.
const SCHEMA: u64 = 9;

/// A JSON value.
#[derive(Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// A non-negative integer.
    Int(u64),
    /// A number, rendered with three decimals; `null` when not finite,
    /// which JSON cannot express.
    Num(f64),
    /// A string, escaped on render.
    Str(String),
    /// An array, rendered on one line.
    Arr(Vec<Json>),
    /// An object, rendered one key per line in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// The value as JSON text, objects indented two spaces per level, with
    /// a trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        let _ = match self {
            Json::Int(n) => write!(out, "{n}"),
            Json::Num(x) if x.is_finite() => write!(out, "{x:.3}"),
            Json::Null | Json::Num(_) => write!(out, "null"),
            Json::Str(s) => write!(out, "{}", Escaped(s)),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push_str(if i > 0 { ", " } else { "" });
                    item.write(out, depth);
                }
                write!(out, "]")
            }
            Json::Obj(fields) if fields.is_empty() => write!(out, "{{}}"),
            Json::Obj(fields) => {
                let pad = "  ".repeat(depth);
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    let sep = if i > 0 { "," } else { "" };
                    let _ = write!(out, "{sep}\n{pad}  {}: ", Escaped(key));
                    value.write(out, depth + 1);
                }
                write!(out, "\n{pad}}}")
            }
        };
    }
}

/// A string as a JSON string literal.
struct Escaped<'a>(&'a str);

impl std::fmt::Display for Escaped<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_char('"')?;
        for c in self.0.chars() {
            match c {
                '"' => f.write_str("\\\"")?,
                '\\' => f.write_str("\\\\")?,
                '\n' => f.write_str("\\n")?,
                '\r' => f.write_str("\\r")?,
                '\t' => f.write_str("\\t")?,
                c if u32::from(c) < 0x20 => write!(f, "\\u{:04x}", u32::from(c))?,
                c => f.write_char(c)?,
            }
        }
        f.write_char('"')
    }
}

/// An object from `(key, value)` pairs, keys kept in order.
fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

fn int_or_null(n: Option<u64>) -> Json {
    n.map_or(Json::Null, Json::Int)
}

/// What the harness knows about a run beyond the lab's measurements.
#[derive(Debug)]
pub struct Run<'a> {
    /// The lab scale.
    pub scale: Scale,
    /// True for the `--stream` service loop.
    pub stream: bool,
    /// The `Pool::auto()` width of every fan-out in the process.
    pub workers: usize,
    /// Wall seconds per experiment that ran, in presentation order.
    pub experiment_seconds: &'a [(String, f64)],
    /// Wall seconds of the whole run.
    pub total_wall_seconds: f64,
    /// The checked-in serial wall-time anchor, when it could be read.
    pub baseline_wall_seconds: Option<f64>,
}

/// Builds the run record from the lab's measurements and the run's facts.
pub fn run_record(lab: &Lab, run: &Run) -> Json {
    let mode = match (run.stream, run.workers) {
        (true, _) => "stream",
        (false, 1) => "serial",
        (false, _) => "parallel",
    };
    let serial_quick_suite = mode == "serial"
        && run.scale == Scale::Quick
        && run.experiment_seconds.iter().map(|(id, _)| id.as_str()).eq(ALL_IDS.iter().copied());
    let baseline = run.baseline_wall_seconds.filter(|_| serial_quick_suite);
    let speedup = match baseline {
        Some(b) if run.total_wall_seconds > 0.0 => Json::Num(b / run.total_wall_seconds),
        _ => Json::Null,
    };
    let own_rss = run.stream || run.experiment_seconds.len() == 1;
    let scale = match run.scale {
        Scale::Quick => "quick",
        Scale::Full => "full",
        Scale::Large => "large",
    };
    let profiles = lab.sim_profiles();
    obj([
        ("schema", Json::Int(SCHEMA)),
        ("scale", Json::Str(scale.to_string())),
        ("mode", Json::Str(mode.to_string())),
        ("workers", Json::Int(run.workers as u64)),
        (
            "dataset_sim_seconds",
            obj(DATASET_NAMES
                .into_iter()
                .zip(lab.sim_seconds())
                .map(|(name, secs)| (name, secs.map_or(Json::Null, Json::Num)))),
        ),
        (
            "sim_profile",
            obj(DATASET_NAMES
                .into_iter()
                .zip(&profiles)
                .map(|(name, p)| (name, p.as_ref().map_or(Json::Null, sim_profile)))),
        ),
        (
            "experiment_seconds",
            obj(run.experiment_seconds.iter().map(|(id, secs)| (id.as_str(), Json::Num(*secs)))),
        ),
        ("streaming", lab.streaming_bench().map_or(Json::Null, |b| streaming(&b, own_rss))),
        ("megasim", lab.megasim_bench().map_or(Json::Null, |b| megasim(&b, own_rss))),
        ("total_wall_seconds", Json::Num(run.total_wall_seconds)),
        ("baseline_wall_seconds", baseline.map_or(Json::Null, Json::Num)),
        ("speedup_vs_baseline", speedup),
    ])
}

fn sim_profile(p: &SimProfile) -> Json {
    let per_observer = |counts: &[u64]| Json::Arr(counts.iter().copied().map(Json::Int).collect());
    obj([
        ("events_popped", Json::Int(p.events_popped)),
        ("events_per_sec", Json::Num(p.events_per_sec())),
        ("deliveries", Json::Int(p.deliveries)),
        ("user_txs", Json::Int(p.user_txs)),
        ("self_txs", Json::Int(p.self_txs)),
        ("blocks", Json::Int(p.blocks)),
        ("snapshot_ticks", Json::Int(p.snapshot_ticks)),
        ("observer_snapshots", per_observer(&p.observer_snapshots)),
        ("observer_degraded", per_observer(&p.observer_degraded)),
        ("assembly_incremental_hits", Json::Int(p.assembly_incremental_hits)),
        ("assembly_full_rebuilds", Json::Int(p.assembly_full_rebuilds)),
        ("rebuilds_with_accelerate", Json::Int(p.rebuilds_with_accelerate)),
        ("rebuilds_with_decelerate", Json::Int(p.rebuilds_with_decelerate)),
        ("rebuilds_with_exclude", Json::Int(p.rebuilds_with_exclude)),
        ("admission_precheck_hits", Json::Int(p.admission_precheck_hits)),
        (
            "subsystem_seconds",
            obj([
                ("issue", p.issue),
                ("relay", p.relay),
                ("faults", p.faults),
                ("admission", p.admission),
                ("eviction", p.eviction),
                ("assembly", p.assembly),
                ("snapshot", p.snapshot),
                ("fleet", p.fleet),
                ("pregen", p.pregen),
            ]
            .map(|(key, secs)| (key, Json::Num(secs)))),
        ),
    ])
}

fn streaming(b: &StreamingBench, own_rss: bool) -> Json {
    obj([
        ("events", Json::Int(b.events)),
        ("blocks", Json::Int(b.blocks)),
        ("snapshots", Json::Int(b.snapshots)),
        ("rows_processed", Json::Int(b.rows_processed)),
        ("peak_window_rows", Json::Int(b.peak_window_rows)),
        ("replay_seconds", Json::Num(b.replay_seconds)),
        ("events_per_sec", Json::Num(b.events_per_sec())),
        ("peak_rss_kb", int_or_null(b.peak_rss_kb.filter(|_| own_rss))),
    ])
}

fn megasim(b: &MegasimBench, own_rss: bool) -> Json {
    let tier = |t: &MegasimTier| {
        obj([
            ("blocks", Json::Int(t.blocks)),
            ("snapshots", Json::Int(t.snapshots)),
            ("log_bytes", Json::Int(t.log_bytes)),
            ("log_segments", Json::Int(t.log_segments)),
            ("bytes_per_block", Json::Num(t.bytes_per_block())),
            ("spill_segments", Json::Int(t.spill_segments)),
            ("spill_bytes", Json::Int(t.spill_bytes)),
            ("sim_seconds", Json::Num(t.sim_seconds)),
            ("replay_seconds", Json::Num(t.replay_seconds)),
            ("blocks_per_sec", Json::Num(t.blocks_per_sec())),
            ("rss_after_sim_kb", int_or_null(t.rss_after_sim_kb.filter(|_| own_rss))),
            ("rss_after_replay_kb", int_or_null(t.rss_after_replay_kb.filter(|_| own_rss))),
        ])
    };
    let ratio = match (b.reference.rss_after_replay_kb, b.main.rss_after_replay_kb) {
        (Some(r), Some(m)) if own_rss && r > 0 => Json::Num(m as f64 / r as f64),
        _ => Json::Null,
    };
    obj([("ref", tier(&b.reference)), ("main", tier(&b.main)), ("rss_ratio_main_over_ref", ratio)])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(workers: usize, experiment_seconds: &[(String, f64)]) -> Run<'_> {
        Run {
            scale: Scale::Quick,
            stream: false,
            workers,
            experiment_seconds,
            total_wall_seconds: 12.0,
            baseline_wall_seconds: Some(24.0),
        }
    }

    /// The value at `path` in nested objects.
    fn at<'a>(mut value: &'a Json, path: &[&str]) -> &'a Json {
        for key in path {
            let Json::Obj(fields) = value else { panic!("{value:?} is not an object") };
            value = &fields.iter().find(|(k, _)| k == key).expect("key present").1;
        }
        value
    }

    #[test]
    fn strings_are_escaped() {
        let s = Json::Str("a\"b\\c\nd\te\r\u{1}é".to_string());
        assert_eq!(s.render(), "\"a\\\"b\\\\c\\nd\\te\\r\\u0001é\"\n");
        assert_eq!(obj([("k\"ey", Json::Null)]).render(), "{\n  \"k\\\"ey\": null\n}\n");
    }

    #[test]
    fn none_and_numbers_render() {
        assert_eq!(int_or_null(None).render(), "null\n");
        assert_eq!(int_or_null(Some(7)).render(), "7\n");
        assert_eq!(Json::Num(2.0 / 3.0).render(), "0.667\n");
        assert_eq!(Json::Num(f64::NAN).render(), "null\n");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null\n");
    }

    #[test]
    fn nested_arrays_and_objects_render() {
        let value = obj([
            ("empty_arr", Json::Arr(Vec::new())),
            ("empty_obj", Json::Obj(Vec::new())),
            ("arr", Json::Arr(vec![Json::Int(1), Json::Arr(vec![Json::Null]), Json::Num(0.5)])),
            ("inner", obj([("deep", obj([("x", Json::Str("y".to_string()))]))])),
        ]);
        let expected = r#"{
  "empty_arr": [],
  "empty_obj": {},
  "arr": [1, [null], 0.500],
  "inner": {
    "deep": {
      "x": "y"
    }
  }
}
"#;
        assert_eq!(value.render(), expected);
    }

    #[test]
    fn empty_lab_record_is_all_null_blocks() {
        let expected = r#"{
  "schema": 9,
  "scale": "quick",
  "mode": "serial",
  "workers": 1,
  "dataset_sim_seconds": {
    "A": null,
    "B": null,
    "C": null
  },
  "sim_profile": {
    "A": null,
    "B": null,
    "C": null
  },
  "experiment_seconds": {},
  "streaming": null,
  "megasim": null,
  "total_wall_seconds": 12.000,
  "baseline_wall_seconds": null,
  "speedup_vs_baseline": null
}
"#;
        assert_eq!(run_record(&Lab::quick(), &run(1, &[])).render(), expected);
    }

    #[test]
    fn speedup_only_for_a_serial_full_quick_suite() {
        let lab = Lab::quick();
        let suite: Vec<(String, f64)> = ALL_IDS.iter().map(|id| (id.to_string(), 0.1)).collect();
        let serial = run_record(&lab, &run(1, &suite));
        assert_eq!(at(&serial, &["baseline_wall_seconds"]), &Json::Num(24.0));
        assert_eq!(at(&serial, &["speedup_vs_baseline"]), &Json::Num(2.0));
        let parallel = run_record(&lab, &run(2, &suite));
        assert_eq!(at(&parallel, &["mode"]), &Json::Str("parallel".to_string()));
        for other in [
            parallel,
            run_record(&lab, &run(1, &suite[..3])),
            run_record(&lab, &Run { scale: Scale::Full, ..run(1, &suite) }),
        ] {
            assert_eq!(at(&other, &["baseline_wall_seconds"]), &Json::Null);
            assert_eq!(at(&other, &["speedup_vs_baseline"]), &Json::Null);
        }
    }

    #[test]
    fn rss_is_written_only_for_a_sole_experiment() {
        let lab = Lab::quick();
        lab.record_streaming(StreamingBench {
            peak_rss_kb: Some(900),
            ..StreamingBench::default()
        });
        let tier = |kb| MegasimTier {
            rss_after_sim_kb: Some(kb),
            rss_after_replay_kb: Some(kb),
            ..MegasimTier::default()
        };
        lab.record_megasim(MegasimBench { reference: tier(100), main: tier(150) });

        let sole = run_record(&lab, &run(1, &[("megasim".to_string(), 1.0)]));
        assert_eq!(at(&sole, &["megasim", "main", "rss_after_replay_kb"]), &Json::Int(150));
        assert_eq!(at(&sole, &["megasim", "rss_ratio_main_over_ref"]), &Json::Num(1.5));
        let stream = run_record(&lab, &Run { stream: true, ..run(1, &[]) });
        assert_eq!(at(&stream, &["mode"]), &Json::Str("stream".to_string()));
        assert_eq!(at(&stream, &["streaming", "peak_rss_kb"]), &Json::Int(900));

        let two = [("streaming".to_string(), 1.0), ("megasim".to_string(), 1.0)];
        let shared = run_record(&lab, &run(1, &two));
        assert_eq!(at(&shared, &["streaming", "peak_rss_kb"]), &Json::Null);
        assert_eq!(at(&shared, &["megasim", "rss_ratio_main_over_ref"]), &Json::Null);
        for tier in ["ref", "main"] {
            for key in ["rss_after_sim_kb", "rss_after_replay_kb"] {
                assert_eq!(at(&shared, &["megasim", tier, key]), &Json::Null);
            }
        }
    }
}
