//! Lightweight run profiling: where a simulation spends its time.
//!
//! Every [`crate::World::run`] fills one [`SimProfile`] as a side effect:
//! how many events of each kind the queue popped, and wall-clock seconds
//! attributed per subsystem (workload issue, relay scheduling, mempool
//! admission, block assembly, snapshotting, fault sampling). The counters
//! are observational only — no profile read ever feeds back into the
//! simulation, so instrumented and uninstrumented runs stay bit-identical.
//!
//! The experiment harness emits these numbers into `BENCH_pipeline.json`,
//! giving performance work per-phase attribution instead of a single wall
//! number.

use std::time::Duration;

/// Counters and per-subsystem timings for one simulation run.
///
/// `Clone` but deliberately not `Copy`: the per-observer vectors grow
/// with the fleet.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SimProfile {
    /// Total events popped from the queue.
    pub events_popped: u64,
    /// Per-stakeholder transaction deliveries processed (including
    /// fault-injected duplicates).
    pub deliveries: u64,
    /// User transactions issued (scam and accelerated included).
    pub user_txs: u64,
    /// Pool self-interest transfers issued.
    pub self_txs: u64,
    /// Blocks mined and connected (stale-tip orphans excluded).
    pub blocks: u64,
    /// Snapshot ticks handled (recorded or lost to observer downtime).
    pub snapshot_ticks: u64,
    /// Snapshots actually recorded, per fleet observer (index-aligned
    /// with the scenario's `observers`).
    pub observer_snapshots: Vec<u64>,
    /// Snapshots recorded while the observer's view was known-degraded
    /// (eclipse windows), per fleet observer.
    pub observer_degraded: Vec<u64>,
    /// Templates built with no classified deviation (the assembler's
    /// Normal phase alone), summed over every pool in the run.
    pub assembly_incremental_hits: u64,
    /// Templates whose priority map carried at least one deviation, so
    /// deviation phases ran too, summed over every pool in the run.
    pub assembly_full_rebuilds: u64,
    /// Templates whose priority map carried at least one Accelerate entry,
    /// summed over every pool (one template can count under several
    /// classes).
    pub rebuilds_with_accelerate: u64,
    /// Templates carrying at least one Decelerate entry.
    pub rebuilds_with_decelerate: u64,
    /// Templates carrying at least one Exclude entry.
    pub rebuilds_with_exclude: u64,
    /// Deliveries whose payload's admission-precheck memo was already
    /// populated by an earlier delivery of the same transaction — work
    /// shared across the fan-out instead of recomputed per node.
    pub admission_precheck_hits: u64,
    /// Wall-clock seconds for the whole run.
    pub wall: f64,
    /// Seconds building and booking workload transactions (fee sampling,
    /// coin selection, transaction construction).
    pub issue: f64,
    /// Seconds scheduling fault-free relay deliveries.
    pub relay: f64,
    /// Seconds scheduling deliveries through an enabled link-fault plan
    /// (loss/spike/reorder/duplicate draws dominate this path).
    pub faults: f64,
    /// Seconds admitting deliveries into per-node Mempool views, one
    /// delivery per popped event (the `admission` half of what schema ≤ 5
    /// reported as one `mempool` bucket).
    pub admission: f64,
    /// Seconds evicting confirmed/conflicted transactions from every
    /// stakeholder view on block connect (previously buried inside
    /// `assembly`).
    pub eviction: f64,
    /// Seconds assembling templates, validating and connecting blocks
    /// (per-view eviction excluded — see `eviction`).
    pub assembly: f64,
    /// Seconds recording the primary observer's snapshots (cap
    /// enforcement included).
    pub snapshot: f64,
    /// Seconds recording the non-primary fleet observers' snapshots —
    /// the marginal cost of running a fleet instead of one node.
    pub fleet: f64,
    /// Seconds pre-generating user-transaction draw batches (fork-join
    /// region, wall time as seen by the event loop).
    pub pregen: f64,
}

impl SimProfile {
    /// Events per wall-clock second; 0 when the run was too fast to time.
    pub fn events_per_sec(&self) -> f64 {
        if self.wall > 0.0 {
            self.events_popped as f64 / self.wall
        } else {
            0.0
        }
    }

    /// Adds `d` to the subsystem slot selected by `slot`.
    pub(crate) fn credit(slot: &mut f64, d: Duration) {
        *slot += d.as_secs_f64();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_per_sec_guards_zero_wall() {
        let p = SimProfile::default();
        assert_eq!(p.events_per_sec(), 0.0);
        let p = SimProfile { events_popped: 100, wall: 2.0, ..SimProfile::default() };
        assert!((p.events_per_sec() - 50.0).abs() < 1e-12);
    }

    #[test]
    fn credit_accumulates() {
        let mut slot = 0.0;
        SimProfile::credit(&mut slot, Duration::from_millis(250));
        SimProfile::credit(&mut slot, Duration::from_millis(750));
        assert!((slot - 1.0).abs() < 1e-9);
    }
}
