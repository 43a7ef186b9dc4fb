//! The lab: runs each dataset scenario at most once per process and
//! shares the outputs (plus their chain indexes) across experiments.

use cn_core::ChainIndex;
use cn_data::{dataset_a, dataset_b, dataset_c, Scale};
use cn_sim::{SimOutput, SimProfile, World};
use cn_stats::Pool;
use std::sync::OnceLock;
use std::time::Instant;

/// How many datasets the lab manages (𝒜, ℬ, 𝒞).
pub const DATASET_COUNT: usize = 3;

/// Display names for the lab's datasets, in cell order.
pub const DATASET_NAMES: [&str; DATASET_COUNT] = ["A", "B", "C"];

/// Ingestion and state-size counters from the streaming-audit experiment,
/// surfaced into `BENCH_pipeline.json` so CI can assert the online
/// auditor's windowed state stays O(window) rather than O(history).
#[derive(Clone, Copy, Debug, Default)]
pub struct StreamingBench {
    /// Events replayed across the canonical dataset replays.
    pub events: u64,
    /// Blocks among them.
    pub blocks: u64,
    /// Snapshots among them.
    pub snapshots: u64,
    /// Snapshot rows ingested — the volume a batch audit retains in full.
    pub rows_processed: u64,
    /// High-water mark of retained windowed rows across all replays.
    pub peak_window_rows: u64,
    /// Wall-clock seconds spent pushing events (excludes verdicts).
    pub replay_seconds: f64,
    /// Peak resident set size in KiB (`VmHWM`), when the platform
    /// exposes it.
    pub peak_rss_kb: Option<u64>,
}

impl StreamingBench {
    /// Events pushed per second of replay wall time.
    pub fn events_per_sec(&self) -> f64 {
        if self.replay_seconds > 0.0 {
            self.events as f64 / self.replay_seconds
        } else {
            0.0
        }
    }
}

/// One `megasim` tier's measurements: a full simulate→log→replay→audit
/// pass through the event-log path at a fixed block-count target.
#[derive(Clone, Debug, Default)]
pub struct MegasimTier {
    /// Tier label (`"ref"` or `"main"`).
    pub label: String,
    /// Blocks simulated (and written to the log).
    pub blocks: u64,
    /// Snapshots written to the log.
    pub snapshots: u64,
    /// Event-log size in bytes.
    pub log_bytes: u64,
    /// Segments the event log was chunked into.
    pub log_segments: u64,
    /// Digest segments the spilled auditor checkpointed to its store.
    pub spill_segments: u64,
    /// Bytes the spilled digest occupies.
    pub spill_bytes: u64,
    /// Wall-clock seconds simulating (writing the log).
    pub sim_seconds: f64,
    /// Wall-clock seconds replaying the log through the spilled auditor
    /// (excludes the verdict).
    pub replay_seconds: f64,
    /// `VmHWM` in KiB sampled right after the simulation finished writing
    /// the log, when the platform exposes it.
    pub rss_after_sim_kb: Option<u64>,
    /// `VmHWM` in KiB sampled right after the replay (before the verdict's
    /// transient digest rebuild), when the platform exposes it.
    pub rss_after_replay_kb: Option<u64>,
}

impl MegasimTier {
    /// Blocks simulated-and-audited per second of sim + replay wall time.
    pub fn blocks_per_sec(&self) -> f64 {
        let secs = self.sim_seconds + self.replay_seconds;
        if secs > 0.0 {
            self.blocks as f64 / secs
        } else {
            0.0
        }
    }

    /// Log bytes per block — the disk-shaped cost per unit of chain.
    pub fn bytes_per_block(&self) -> f64 {
        if self.blocks > 0 {
            self.log_bytes as f64 / self.blocks as f64
        } else {
            0.0
        }
    }
}

/// The `megasim` experiment's two tiers (reference and main), surfaced
/// into `BENCH_pipeline.json` so CI can assert peak RSS stays flat as the
/// block-count target grows 10×.
#[derive(Clone, Debug, Default)]
pub struct MegasimBench {
    /// The small tier (a tenth of the main target), measured first.
    pub reference: MegasimTier,
    /// The main tier.
    pub main: MegasimTier,
}

/// Lazily simulated datasets plus derived indexes.
///
/// Each dataset lives in one `OnceLock` cell, so it is simulated at most
/// once per process no matter how many experiments (or threads) ask for
/// it. A `World` owns all of its RNG streams, which makes every cell's
/// init closure self-contained — [`Lab::prewarm`] exploits that to warm
/// all three cells on parallel scoped threads with bit-identical results.
pub struct Lab {
    scale: Scale,
    cells: [OnceLock<(SimOutput, ChainIndex)>; DATASET_COUNT],
    /// Wall-clock seconds each cell's init took (simulate + index);
    /// `None` until that dataset has been materialized.
    sim_seconds: [OnceLock<f64>; DATASET_COUNT],
    /// Counters recorded by the streaming experiment, if it ran.
    streaming: OnceLock<StreamingBench>,
    /// Counters recorded by the megasim experiment, if it ran.
    megasim: OnceLock<MegasimBench>,
}

impl Lab {
    /// A lab at the given scale.
    pub fn new(scale: Scale) -> Lab {
        Lab {
            scale,
            cells: [OnceLock::new(), OnceLock::new(), OnceLock::new()],
            sim_seconds: [OnceLock::new(), OnceLock::new(), OnceLock::new()],
            streaming: OnceLock::new(),
            megasim: OnceLock::new(),
        }
    }

    /// Hours-scale lab for tests.
    pub fn quick() -> Lab {
        Lab::new(Scale::Quick)
    }

    /// Days-scale lab for the experiment harness.
    pub fn full() -> Lab {
        Lab::new(Scale::Full)
    }

    /// The megasim scale tier: standard datasets behave as at full scale,
    /// while `megasim` stretches to its thousands-of-blocks targets.
    pub fn large() -> Lab {
        Lab::new(Scale::Large)
    }

    /// The scale in use.
    pub fn scale(&self) -> Scale {
        self.scale
    }

    /// The dataset in cell `which` (0 = 𝒜, 1 = ℬ, 2 = 𝒞), simulated on
    /// first use.
    fn dataset(&self, which: usize) -> &(SimOutput, ChainIndex) {
        self.cells[which].get_or_init(|| {
            let started = Instant::now();
            let scenario = match which {
                0 => dataset_a(self.scale),
                1 => dataset_b(self.scale),
                _ => dataset_c(self.scale),
            };
            let out = World::new(scenario).run();
            let index = ChainIndex::build(&out.chain);
            let _ = self.sim_seconds[which].set(started.elapsed().as_secs_f64());
            (out, index)
        })
    }

    /// Dataset 𝒜's output and index (simulated on first use).
    pub fn a(&self) -> &(SimOutput, ChainIndex) {
        self.dataset(0)
    }

    /// Dataset ℬ's output and index.
    pub fn b(&self) -> &(SimOutput, ChainIndex) {
        self.dataset(1)
    }

    /// Dataset 𝒞's output and index.
    pub fn c(&self) -> &(SimOutput, ChainIndex) {
        self.dataset(2)
    }

    /// Materializes all three datasets over `Pool::auto()` (in turn at
    /// width 1), so no experiment's time includes a dataset simulation.
    ///
    /// Each `World` is seeded from its scenario and owns its RNG streams,
    /// so warming concurrently produces bit-identical outputs to the lazy
    /// serial path; `OnceLock` guarantees each cell still initializes
    /// exactly once even if experiments race with the warmers. 𝒞, the
    /// longest, is claimed first, so at width 2 the other two run beside it.
    pub fn prewarm(&self) {
        Pool::auto().map(&[2, 0, 1], |&which| {
            self.dataset(which);
        });
    }

    /// Wall-clock seconds spent simulating + indexing each dataset, in
    /// [`DATASET_NAMES`] order; `None` for datasets never requested.
    pub fn sim_seconds(&self) -> [Option<f64>; DATASET_COUNT] {
        [
            self.sim_seconds[0].get().copied(),
            self.sim_seconds[1].get().copied(),
            self.sim_seconds[2].get().copied(),
        ]
    }

    /// Records the streaming experiment's counters (first writer wins —
    /// the experiment runs once per process).
    pub fn record_streaming(&self, bench: StreamingBench) {
        let _ = self.streaming.set(bench);
    }

    /// The streaming experiment's counters, if it ran this process.
    pub fn streaming_bench(&self) -> Option<StreamingBench> {
        self.streaming.get().copied()
    }

    /// Records the megasim experiment's tier measurements (first writer
    /// wins — the experiment runs once per process).
    pub fn record_megasim(&self, bench: MegasimBench) {
        let _ = self.megasim.set(bench);
    }

    /// The megasim experiment's tier measurements, if it ran this process.
    pub fn megasim_bench(&self) -> Option<MegasimBench> {
        self.megasim.get().cloned()
    }

    /// Per-run simulator profiles (event counts, per-subsystem seconds),
    /// in [`DATASET_NAMES`] order; `None` for datasets never requested.
    pub fn sim_profiles(&self) -> [Option<SimProfile>; DATASET_COUNT] {
        [
            self.cells[0].get().map(|(out, _)| out.profile.clone()),
            self.cells[1].get().map(|(out, _)| out.profile.clone()),
            self.cells[2].get().map(|(out, _)| out.profile.clone()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_seconds_track_materialization() {
        let lab = Lab::quick();
        assert_eq!(lab.sim_seconds(), [None, None, None]);
        lab.a();
        let secs = lab.sim_seconds();
        assert!(secs[0].is_some());
        assert_eq!(secs[1], None);
        assert_eq!(secs[2], None);
    }
}
