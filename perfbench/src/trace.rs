//! In-memory span recording, and the statistics the report is built from.
//!
//! A span is one layer call seen from outside: its name, its start and end
//! (seconds since the trace began) and the span that was open when it
//! started. Spans stay in memory until the run ends; nothing is written
//! while a pass is timed.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer name, e.g. `mempool.admission`.
    pub name: &'static str,
    /// Start, in seconds since the trace origin.
    pub start: f64,
    /// End, in seconds since the trace origin.
    pub end: f64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
}

impl Span {
    fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// The start of a timed pass: a clock and, when tracing, its root span.
pub struct PassTimer {
    started: Instant,
    span: Option<usize>,
}

/// A span recorder that can be switched off, in which case every call is
/// a no-op that records nothing.
pub struct Trace {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Trace {
    /// A recorder, initially on or off.
    pub fn new(enabled: bool) -> Trace {
        Trace {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switches recording on or off between passes.
    pub fn set_enabled(&mut self, enabled: bool) {
        debug_assert!(self.stack.is_empty(), "switch only between passes");
        self.enabled = enabled;
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Opens a span as a child of the innermost open one. Returns `None`
    /// when recording is off.
    pub fn open(&mut self, name: &'static str) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        let now = self.now();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.stack.last().copied(),
        });
        self.stack.push(id);
        Some(id)
    }

    /// Closes a span returned by [`Trace::open`].
    pub fn close(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.spans[id].end = self.now();
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(id), "spans close in reverse order of opening");
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    /// Starts timing a pass, opening its root span `pass` when tracing.
    pub fn begin_pass(&mut self) -> PassTimer {
        let span = self.open("pass");
        PassTimer {
            started: Instant::now(),
            span,
        }
    }

    /// Stops timing a pass; returns its wall seconds.
    pub fn end_pass(&mut self, timer: PassTimer) -> f64 {
        let seconds = timer.started.elapsed().as_secs_f64();
        self.close(timer.span);
        seconds
    }

    /// Adds children of `parent` that the program timed itself (durations
    /// only). They are laid end to end from the parent's start: their
    /// durations are exact, their placement is not.
    pub fn credit(&mut self, parent: Option<usize>, parts: &[(&'static str, f64)]) {
        let Some(parent) = parent else { return };
        let mut at = self.spans[parent].start;
        for &(name, seconds) in parts {
            self.spans.push(Span {
                name,
                start: at,
                end: at + seconds,
                parent: Some(parent),
            });
            at += seconds;
        }
    }
}

/// Each span's self time: its duration minus the durations of its direct
/// children. Spans of one thread never overlap their siblings, so the
/// children's durations sum to the part of the parent they cover. Clamped
/// at zero against clock rounding.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut out: Vec<f64> = spans.iter().map(Span::duration).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            out[parent] -= span.duration();
        }
    }
    out.into_iter().map(|s| s.max(0.0)).collect()
}

/// One layer's totals over a run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Layer {
    /// Name of the enclosing layer (`-` for a root).
    pub parent: &'static str,
    /// Spans recorded.
    pub calls: u64,
    /// Summed duration, seconds.
    pub total: f64,
    /// Summed self time, seconds.
    pub self_time: f64,
}

/// Totals per span name.
pub fn layers(spans: &[Span]) -> BTreeMap<&'static str, Layer> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
    for (span, self_time) in spans.iter().zip(selfs) {
        let layer = out.entry(span.name).or_default();
        layer.parent = span.parent.map_or("-", |p| spans[p].name);
        layer.calls += 1;
        layer.total += span.duration();
        layer.self_time += self_time;
    }
    out
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Candidate tail percentiles, highest first.
const TAIL_LADDER: [f64; 8] = [99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0];

/// The highest percentile of `values` that still has at least ten samples
/// beyond it, as `(percentile, value)`; `None` below twenty samples.
/// Percentiles are nearest-rank: the p-th is the ⌈p·n/100⌉-th smallest.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    TAIL_LADDER.iter().find_map(|&p| {
        let rank = ((p * n as f64 / 100.0).ceil() as usize).max(1);
        (n >= rank + 10).then(|| (p, v[rank - 1]))
    })
}

/// A size field of this process's `/proc/self/status`, such as `VmHWM:`
/// (peak resident set) or `VmRSS:` (resident now), in MiB; 0 where `/proc`
/// is unavailable.
pub fn status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix(field))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("pass", 0.0, 10.0, None),
            span("sim.run", 1.0, 7.0, Some(0)),
            span("mempool.admission", 1.0, 4.0, Some(1)),
            span("miner.assembly", 4.5, 6.0, Some(1)),
            span("core.index_build", 7.0, 9.0, Some(0)),
        ];
        let selfs = self_times(&spans);
        let expect = [2.0, 1.5, 3.0, 1.5, 2.0];
        for (got, want) in selfs.iter().zip(expect) {
            assert!((got - want).abs() < 1e-12, "{selfs:?}");
        }
        // Self times partition the root: nothing counted twice or lost.
        assert!((selfs.iter().sum::<f64>() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn layers_sum_repeated_spans() {
        let spans = vec![
            span("pass", 0.0, 4.0, None),
            span("core.stream_block", 0.0, 1.0, Some(0)),
            span("core.stream_block", 2.0, 2.5, Some(0)),
        ];
        let by_name = layers(&spans);
        let block = &by_name["core.stream_block"];
        assert_eq!((block.calls, block.parent), (2, "pass"));
        assert!((block.self_time - 1.5).abs() < 1e-12);
        assert!((by_name["pass"].self_time - 2.5).abs() < 1e-12);
    }

    #[test]
    fn credited_children_count_against_their_parent() {
        let mut trace = Trace::new(true);
        let run = trace.open("sim.run");
        std::thread::sleep(std::time::Duration::from_millis(5));
        trace.close(run);
        trace.credit(run, &[("sim.issue", 0.001), ("mempool.admission", 0.002)]);
        let selfs = self_times(trace.spans());
        let total = trace.spans()[0].end - trace.spans()[0].start;
        assert!((selfs[0] - (total - 0.003)).abs() < 1e-9);
        assert_eq!(trace.spans()[2].parent, Some(0));
    }

    #[test]
    fn a_disabled_trace_records_nothing() {
        let mut trace = Trace::new(false);
        let id = trace.open("pass");
        assert_eq!(trace.span("x", || 7), 7);
        trace.credit(id, &[("y", 1.0)]);
        trace.close(id);
        assert!(trace.spans().is_empty());
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let values: Vec<f64> = (1..=600).map(f64::from).collect();
        // p99 leaves 6 beyond, p98 leaves 12.
        assert_eq!(tail(&values), Some((98.0, 588.0)));
        let values: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&values), Some((99.9, 9_990.0)));
        // Exactly ten beyond qualifies.
        let values: Vec<f64> = (1..=1_000).map(f64::from).collect();
        assert_eq!(tail(&values), Some((99.0, 990.0)));
        // Order of the input does not matter.
        let mut shuffled: Vec<f64> = (1..=600).rev().map(f64::from).collect();
        shuffled.swap(3, 400);
        assert_eq!(tail(&shuffled), Some((98.0, 588.0)));
    }

    #[test]
    fn tail_needs_enough_samples() {
        let few: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&few), None);
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&twenty), Some((50.0, 10.0)));
        let forty: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&forty), Some((75.0, 30.0)));
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
