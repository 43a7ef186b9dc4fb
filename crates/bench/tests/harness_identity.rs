//! Determinism guards for the parallel harness: a pre-warmed `Lab` driven
//! by `Pool` workers must be byte-identical to a lazy serial one, and the
//! `FaultPlan::none()` bit-inertness from the fault-injection layer must
//! survive running worlds on worker threads.

use cn_bench::{run_experiment, Lab};
use cn_data::{dataset_a, Scale};
use cn_net::FaultPlan;
use cn_sim::{SimOutput, World};
use cn_stats::Pool;

/// A cheap-but-covering experiment subset: `table1` touches all three
/// datasets, `fig2` reads the 𝒜/ℬ snapshot streams, `table2` exercises the
/// misbehaviour roster on dataset 𝒞.
const IDS: [&str; 3] = ["table1", "fig2", "table2"];

#[test]
fn parallel_prewarm_matches_serial_byte_for_byte() {
    let serial = Lab::quick();
    let serial_reports: Vec<String> =
        IDS.iter().map(|id| run_experiment(id, &serial).expect("known id")).collect();

    let parallel = Lab::quick();
    parallel.prewarm();
    let parallel_reports: Vec<String> = Pool::with_workers(IDS.len())
        .map(&IDS, |id| run_experiment(id, &parallel).expect("known id"));

    for ((id, serial_report), parallel_report) in
        IDS.iter().zip(&serial_reports).zip(&parallel_reports)
    {
        assert_eq!(serial_report, parallel_report, "{id} diverged between serial and parallel");
    }
}

/// Canonical comparison surface for a run: chain shape, snapshot stream,
/// and attribution ground truth. (`SimOutput` holds service handles, so it
/// cannot simply derive `PartialEq`.)
fn fingerprint(out: &SimOutput) -> (Vec<cn_chain::BlockHash>, usize, Vec<usize>, usize) {
    let hashes = out.chain.blocks().iter().map(|b| b.block_hash()).collect();
    (hashes, out.observer_streams[0].len(), out.block_miners.clone(), out.orphaned_blocks)
}

#[test]
fn fault_plan_none_stays_bit_inert_on_worker_threads() {
    let stock = dataset_a(Scale::Quick);
    let mut explicit_none = dataset_a(Scale::Quick);
    explicit_none.faults = FaultPlan::none();

    let runs = Pool::with_workers(2).map(&[stock, explicit_none], |s| World::new(s.clone()).run());
    let (stock_out, none_out) = (&runs[0], &runs[1]);

    assert_eq!(
        fingerprint(stock_out),
        fingerprint(none_out),
        "FaultPlan::none() must not perturb a run, threaded or not"
    );
    assert_eq!(stock_out.observer_streams, none_out.observer_streams, "snapshot streams diverged");
}
