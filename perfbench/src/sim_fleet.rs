//! `sim_fleet`: dataset 𝒞 at quick scale (12 h) simulated with an
//! eight-observer fleet, then indexed for audit.
//!
//! Admission and eviction across eight mempool views dominate a pass, with
//! fleet snapshots and block assembly behind them; there is almost no audit
//! work. The roster and the 30 s / every-8th-detailed schedule are the
//! observer-fleet experiment's, on a clean network.

use crate::inputs::target_blocks;
use crate::trace::Trace;
use crate::{Pass, Record, Workload};
use cn_chain::BlockHash;
use cn_core::ChainIndex;
use cn_data::{dataset_c, Scale};
use cn_mempool::MempoolPolicy;
use cn_sim::scenario::{ObserverConfig, Scenario};
use cn_sim::{SimOutput, SimProfile, World};

/// The eight-observer roster: the dataset-𝒜-style primary node plus seven
/// vantage points that vary peer count, acceptance policy, mempool cap and
/// latency tier.
fn fleet_roster(mempool_cap: u64) -> Vec<ObserverConfig> {
    let node = |label: &str, peers: usize, policy: MempoolPolicy, latency: f64| ObserverConfig {
        label: label.into(),
        peers,
        policy,
        max_mempool_vsize: None,
        latency_factor: latency,
    };
    vec![
        ObserverConfig::default_node().named("dc-a"),
        node("wide", 125, MempoolPolicy::accept_all(), 1.0),
        node("edge", 8, MempoolPolicy::default(), 1.6),
        node("region", 16, MempoolPolicy::default(), 1.25),
        ObserverConfig {
            max_mempool_vsize: Some(mempool_cap),
            ..node("capped", 8, MempoolPolicy::default(), 1.0)
        },
        node("spv", 4, MempoolPolicy::default(), 1.4),
        node("backbone", 64, MempoolPolicy::accept_all(), 0.9),
        node("far", 8, MempoolPolicy::default(), 2.0),
    ]
}

/// Scenario seeds whose fleet runs mine 70 to 74 of the 72 targeted
/// blocks, record 3.8 to 4.4 M snapshot rows, and cost within 5 % of each
/// other per block. Dataset 𝒞's own seed, 0xC0DE, mines 60 blocks and is
/// not among them.
pub const POOL: &[u64] = &[15, 35, 60, 81, 105, 114];

/// The fleet scenario: dataset 𝒞 at quick scale, reseeded, with the
/// eight-observer roster and its sampling schedule.
pub fn scenario(seed: u64) -> Scenario {
    let mut s = dataset_c(Scale::Quick);
    s.seed = seed;
    s.observers = fleet_roster(12 * s.params.max_block_vsize());
    s.snapshot_interval = 30;
    s.snapshot_detail_every = 8;
    s
}

/// Simulates `scenario` on one thread and indexes the chain. Traced, the
/// simulator's own phase timings become children of the `sim.run` span.
pub fn simulate(scenario: &Scenario, trace: &mut Trace) -> (SimOutput, ChainIndex) {
    let world = trace.span("sim.build", || World::new(scenario.clone()).with_workers(1));
    let run = trace.open("sim.run");
    let out = world.run();
    trace.close(run);
    credit_profile(trace, run, &out.profile);
    let index = trace.span("core.index_build", || ChainIndex::build(&out.chain));
    (out, index)
}

/// Credits the simulator's disjoint phase timings to the `sim.run` span.
pub fn credit_profile(trace: &mut Trace, run: Option<usize>, p: &SimProfile) {
    trace.credit(
        run,
        &[
            ("sim.issue", p.issue),
            ("sim.pregen", p.pregen),
            ("net.relay", p.relay + p.faults),
            ("mempool.admission", p.admission),
            ("mempool.eviction", p.eviction),
            ("miner.assembly", p.assembly),
            ("mempool.snapshot", p.snapshot),
            ("sim.fleet", p.fleet),
        ],
    );
}

/// Records the simulator's work counts for the per-layer report.
pub fn record_profile(record: &mut Record, p: &SimProfile) {
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    record.count("sim.events", p.events_popped as f64);
    record.count("net.deliveries", p.deliveries as f64);
    record.count("sim.user_txs", p.user_txs as f64);
    record.count(
        "mempool.precheck_hit_ratio",
        ratio(p.admission_precheck_hits, p.deliveries),
    );
    record.count(
        "miner.incremental_hit_ratio",
        ratio(
            p.assembly_incremental_hits,
            p.assembly_incremental_hits + p.assembly_full_rebuilds,
        ),
    );
}

/// What must repeat exactly from pass to pass.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    tip: BlockHash,
    rows: u64,
    blocks: u64,
    observer_snapshots: Vec<u64>,
    events: u64,
    deliveries: u64,
    user_txs: u64,
    self_txs: u64,
    snapshot_ticks: u64,
}

impl Fingerprint {
    fn of(out: &SimOutput) -> Fingerprint {
        let p = &out.profile;
        Fingerprint {
            tip: out.chain.tip_hash(),
            rows: out
                .observer_streams
                .iter()
                .flatten()
                .map(|s| s.rows().count() as u64)
                .sum(),
            blocks: out.chain.height(),
            observer_snapshots: out
                .observer_streams
                .iter()
                .map(|s| s.len() as u64)
                .collect(),
            events: p.events_popped,
            deliveries: p.deliveries,
            user_txs: p.user_txs,
            self_txs: p.self_txs,
            snapshot_ticks: p.snapshot_ticks,
        }
    }
}

/// One seeded input and the fingerprint its warm-up pass left.
struct Input {
    scenario: Scenario,
    expected: Fingerprint,
}

#[derive(Default)]
pub struct SimFleet {
    inputs: Vec<Input>,
}

impl Workload for SimFleet {
    const POOL: &'static [u64] = POOL;

    fn scenario(seed: u64) -> Scenario {
        scenario(seed)
    }

    fn add_input(&mut self, scenario: Scenario) -> Result<(), String> {
        let (out, _index) = simulate(&scenario, &mut Trace::new(false));
        let expected = Fingerprint::of(&out);
        let blind = out.observer_streams.iter().any(Vec::is_empty);
        self.inputs.push(Input { scenario, expected });
        if blind {
            return Err("an observer recorded no snapshots".into());
        }
        Ok(())
    }

    fn describe(&self) -> String {
        self.inputs
            .iter()
            .map(|i| {
                format!(
                    "input seed {}: dataset-C quick, {} observers, {} rows, {} blocks mined of {} targeted\n",
                    i.scenario.seed,
                    i.scenario.observers.len(),
                    i.expected.rows,
                    i.expected.blocks,
                    target_blocks(&i.scenario),
                )
            })
            .collect()
    }

    fn pass(&mut self, input: usize, trace: &mut Trace, record: &mut Record) -> Pass {
        let input = &self.inputs[input];
        let timer = trace.begin_pass();
        let (out, index) = simulate(&input.scenario, trace);
        let seconds = trace.end_pass(timer);
        record_profile(record, &out.profile);
        let ok =
            index.len() as u64 == out.chain.height() && Fingerprint::of(&out) == input.expected;
        Pass {
            seconds,
            blocks: out.chain.height(),
            ok,
        }
    }
}
