//! Cross-observer reconciliation: fusing an observer *fleet* into one
//! audit-grade view.
//!
//! The paper's datasets come from single vantage points, and §7 flags the
//! obvious weakness: one node's mempool is one peer neighborhood's
//! opinion. An adversarial network — an eclipsed observer, peers that
//! selectively withhold high-fee or miner-origin transactions, spy-
//! resistant diffusion delays — can bias everything downstream (first-seen
//! times, violation pairs, dark-fee suspicion) without leaving a trace in
//! the stream itself.
//!
//! This module takes N independent observer streams and reconciles them:
//!
//! * **Fused stream** — per snapshot window, the union of every
//!   observer's rows, first-seen taken as the *minimum* across observers
//!   (the earliest time anyone saw the transaction is the best available
//!   bound on its broadcast time). A window is stamped degraded or
//!   truncated only when *every* contributing observer's window was — one
//!   healthy vantage point heals the fleet.
//! * **Disagreement statistics** — how far the observers' first-seen
//!   times spread for transactions seen by more than one of them. Large
//!   spreads are the fingerprint of selective withholding or targeted
//!   delay; a healthy fleet disagrees by network propagation jitter only.
//! * **Fused coverage** — a [`SnapshotCoverage`] over the fused stream,
//!   so [`crate::auditor::audit_with_snapshots`] can consume the fleet
//!   view exactly as it would a single observer's.
//!
//! Observers whose streams are entirely empty (hard-eclipsed from the
//! first window) are dropped and reported, not fatal: the audit proceeds
//! on whoever still saw the network. Only a fleet that is blind in *every*
//! eye refuses to audit.

use crate::auditor::{audit_with_snapshots, AuditConfig, AuditReport};
use crate::coverage::{SnapshotCoverage, StreamExpectation};
use crate::delay::first_seen_times;
use crate::error::AuditError;
use crate::index::ChainIndex;
use cn_chain::{Chain, FastMap, Timestamp, Txid};
use cn_mempool::{MempoolSnapshot, SnapshotEntry};
use cn_stats::Pool;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One observer's contribution to the fleet: its label, its snapshot
/// stream, and what that stream was scheduled to contain.
#[derive(Clone, Debug)]
pub struct ObserverView {
    /// Human-readable vantage-point name (from the scenario config).
    pub label: String,
    /// The snapshots this observer recorded.
    pub snapshots: Vec<MempoolSnapshot>,
    /// What the stream was supposed to contain.
    pub expectation: StreamExpectation,
}

/// How much the fleet's observers disagree about when transactions first
/// appeared — the reconciliation layer's adversary detector.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FirstSeenStats {
    /// Transactions seen pending by at least one live observer.
    pub txs_union: usize,
    /// Transactions seen by *every* live observer.
    pub txs_all: usize,
    /// Transactions seen by at least two observers whose first-seen
    /// times differ.
    pub disagreements: usize,
    /// Mean first-seen spread (max − min, seconds) over transactions
    /// seen by at least two observers.
    pub mean_spread_secs: f64,
    /// Median first-seen spread over the same set.
    pub median_spread_secs: f64,
    /// Largest first-seen spread anywhere.
    pub max_spread_secs: u64,
}

/// The reconciled fleet: who contributed, who was blind, what the fused
/// stream looks like, and how much the vantage points disagreed.
#[derive(Clone, Debug)]
pub struct FleetView {
    /// Labels of observers that contributed at least one snapshot.
    pub labels: Vec<String>,
    /// Labels of observers dropped for having recorded nothing at all.
    pub dropped: Vec<String>,
    /// Per-live-observer coverage, index-aligned with `labels`.
    pub per_observer: Vec<SnapshotCoverage>,
    /// The fused snapshot stream (union rows, min first-seen).
    pub fused: Vec<MempoolSnapshot>,
    /// Coverage of the fused stream.
    pub coverage: SnapshotCoverage,
    /// Cross-observer first-seen agreement statistics.
    pub first_seen: FirstSeenStats,
    /// The fused stream's expectation (the widest of the live
    /// observers'), for feeding straight into an audit.
    pub expectation: StreamExpectation,
}

impl FleetView {
    /// Renders the reconciliation block the fleet experiment prints.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "fleet: {} live observer(s){}, fused confidence {:.3}",
            self.labels.len(),
            if self.dropped.is_empty() {
                String::new()
            } else {
                format!(", {} dropped ({})", self.dropped.len(), self.dropped.join(" "))
            },
            self.coverage.confidence(),
        );
        for (label, cov) in self.labels.iter().zip(&self.per_observer) {
            let _ = writeln!(
                out,
                "  {label}: confidence {:.3}, {} degraded window(s)",
                cov.confidence(),
                cov.degraded_windows
            );
        }
        let fs = &self.first_seen;
        let _ = writeln!(
            out,
            "  first-seen: {} txs union, {} seen by all, {} disagreement(s), spread mean {:.1}s median {:.1}s max {}s",
            fs.txs_union,
            fs.txs_all,
            fs.disagreements,
            fs.mean_spread_secs,
            fs.median_spread_secs,
            fs.max_spread_secs,
        );
        out
    }
}

/// Reconciles N observer streams into one [`FleetView`].
///
/// Errors with [`AuditError::EmptySnapshotStream`] only when **every**
/// observer recorded nothing; any single surviving vantage point keeps
/// the fleet auditable (graceful degradation). Rows out of txid order
/// refuse with [`AuditError::UnsortedSnapshotRows`]; see
/// [`reconcile_with_pool`].
pub fn reconcile(views: &[ObserverView]) -> Result<FleetView, AuditError> {
    reconcile_with_pool(views, Pool::auto())
}

/// [`reconcile`] with an explicit fork-join width for the per-window
/// fusions and the per-observer first-seen maps. The reconciliation is
/// byte-identical at any width (the pool's order-preserving join); the
/// parameter only moves wall time, and exists so the serial-vs-parallel
/// identity property can be tested without touching process-global state.
///
/// Detailed rows must be in txid order, as every [`MempoolSnapshot`]
/// constructor leaves them: fusion merges them rather than re-sorting.
/// A fused window whose contributors break that order refuses with
/// [`AuditError::UnsortedSnapshotRows`] instead of emitting duplicated
/// rows. A one-observer fleet shares its stream verbatim and merges
/// nothing, so its rows are passed through unchecked.
pub fn reconcile_with_pool(views: &[ObserverView], pool: Pool) -> Result<FleetView, AuditError> {
    let (live, dead): (Vec<&ObserverView>, Vec<&ObserverView>) =
        views.iter().partition(|v| !v.snapshots.is_empty());
    if live.is_empty() {
        return Err(AuditError::EmptySnapshotStream);
    }
    let labels: Vec<String> = live.iter().map(|v| v.label.clone()).collect();
    let dropped: Vec<String> = dead.iter().map(|v| v.label.clone()).collect();

    // The fused stream promises the widest schedule any live observer
    // promised; min_coverage is the strictest floor among them.
    let expectation = StreamExpectation {
        windows: live.iter().map(|v| v.expectation.windows).max().unwrap_or(0),
        detailed: live.iter().map(|v| v.expectation.detailed).max().unwrap_or(0),
        min_coverage: live.iter().map(|v| v.expectation.min_coverage).fold(0.0, f64::max),
    };

    let fused = fuse_streams(&live, pool)?;
    // An observer's first-seen map is keyed by exactly the distinct txids
    // of its detailed snapshots, and the fused stream's detailed windows
    // hold the union of those, so coverage takes its `txs_observed` counts
    // from the maps instead of hashing the rows again.
    let first_seen_maps =
        pool.map(&live, |view| first_seen_times(&view.snapshots).unwrap_or_default());
    let per_observer: Vec<SnapshotCoverage> = live
        .iter()
        .zip(&first_seen_maps)
        .map(|(v, first)| SnapshotCoverage {
            txs_observed: first.len(),
            ..SnapshotCoverage::tally(&v.snapshots, v.expectation.windows, v.expectation.detailed)
        })
        .collect();
    let first_seen = first_seen_stats(&first_seen_maps);
    let coverage = SnapshotCoverage {
        txs_observed: first_seen.txs_union,
        ..SnapshotCoverage::tally(&fused, expectation.windows, expectation.detailed)
    };

    Ok(FleetView { labels, dropped, per_observer, fused, coverage, first_seen, expectation })
}

/// Reconciles the fleet and runs the standard snapshot audit over the
/// fused stream: the one-call driver for multi-vantage auditing. Returns
/// the report alongside the fleet view so callers can print both the
/// findings and the reconciliation diagnostics.
pub fn audit_with_fleet(
    chain: &Chain,
    index: &ChainIndex,
    views: &[ObserverView],
    config: AuditConfig,
) -> Result<(AuditReport, FleetView), AuditError> {
    let fleet = reconcile(views)?;
    let report = audit_with_snapshots(chain, index, &fleet.fused, fleet.expectation, config)?;
    Ok((report, fleet))
}

/// Fuses the live observers' streams window by window.
///
/// Window membership is decided serially (a cheap time-keyed bucketing,
/// roster order within a window); the per-window fusions are independent
/// of one another and fan out across the pool, joined back in ascending
/// window order. The first window that refuses (see [`merge_rows`]) is
/// the error, at any width.
fn fuse_streams(live: &[&ObserverView], pool: Pool) -> Result<Vec<MempoolSnapshot>, AuditError> {
    if let [solo] = live {
        // A one-eyed fleet *is* its observer: share the rows (Arc clones)
        // instead of merging every window's union of one.
        return Ok(solo.snapshots.clone());
    }
    let mut by_time: BTreeMap<Timestamp, Vec<&MempoolSnapshot>> = BTreeMap::new();
    for view in live {
        for snap in &view.snapshots {
            by_time.entry(snap.time).or_default().push(snap);
        }
    }
    let windows: Vec<(Timestamp, Vec<&MempoolSnapshot>)> = by_time.into_iter().collect();
    pool.map(&windows, |(time, contributors)| fuse_window(*time, contributors))
        .into_iter()
        .collect()
}

/// Fuses one window's contributors, given in roster order. One healthy
/// contributor heals the window: stamps survive fusion only when
/// unanimous.
fn fuse_window(
    time: Timestamp,
    contributors: &[&MempoolSnapshot],
) -> Result<MempoolSnapshot, AuditError> {
    let detailed: Vec<&MempoolSnapshot> =
        contributors.iter().copied().filter(|s| s.is_detailed()).collect();
    let snap = if detailed.is_empty() {
        // Light window: the biggest backlog anyone saw is the
        // least-censored aggregate available.
        let count = contributors.iter().map(|s| s.len()).max().unwrap_or(0);
        let vsize = contributors.iter().map(|s| s.total_vsize()).max().unwrap_or(0);
        MempoolSnapshot::light(time, count, vsize)
    } else {
        let runs: Vec<&[SnapshotEntry]> = detailed.iter().map(|s| s.entries.as_slice()).collect();
        let (rows, vsize) = merge_rows(runs).ok_or(AuditError::UnsortedSnapshotRows { time })?;
        let merged = MempoolSnapshot::from_shared(time, Arc::new(rows), vsize);
        if detailed.iter().all(|s| s.is_truncated()) {
            // Every dump was cut off, so the union is still a cut view.
            merged.mark_truncated()
        } else {
            merged
        }
    };
    Ok(if contributors.iter().all(|s| s.is_degraded()) { snap.mark_degraded() } else { snap })
}

/// K-way merge of txid-sorted row runs (roster order) into one strictly
/// ascending run, returned with its summed vsize.
///
/// All rows carrying a txid fold into one: the first run holding it, and
/// that run's first such row, supply fee and vsize; `received` is the
/// minimum over the rows (the earliest sighting is the best bound on
/// broadcast time) and `has_unconfirmed_parent` their OR (CPFP candidacy
/// stays flagged if anyone saw the parent unconfirmed, conservative for
/// §4.2.1). Returns `None` when the output would not strictly ascend,
/// which happens exactly when some run has a descent.
fn merge_rows(mut heads: Vec<&[SnapshotEntry]>) -> Option<(Vec<SnapshotEntry>, u64)> {
    // Every fused row consumes at least one input row, so the union is no
    // longer than the runs together. Contributors mostly share their rows,
    // so twice the longest run bounds it in practice without reserving for
    // a run repeated many times over; what the union leaves unused is
    // handed back at the end.
    let total: usize = heads.iter().map(|r| r.len()).sum();
    let longest = heads.iter().map(|r| r.len()).max().unwrap_or(0);
    let mut rows: Vec<SnapshotEntry> = Vec::with_capacity(total.min(2 * longest));
    let mut vsize = 0;
    loop {
        let mut lead: Option<(usize, &SnapshotEntry)> = None;
        for (i, run) in heads.iter().enumerate() {
            if let Some(head) = run.first() {
                if lead.is_none_or(|(_, best)| head.txid < best.txid) {
                    lead = Some((i, head));
                }
            }
        }
        let Some((first, &head)) = lead else { break };
        if rows.last().is_some_and(|last| last.txid >= head.txid) {
            return None;
        }
        let mut row = head;
        for run in &mut heads[first..] {
            while let Some((e, rest)) = run.split_first() {
                if e.txid != row.txid {
                    break;
                }
                row.received = row.received.min(e.received);
                row.has_unconfirmed_parent |= e.has_unconfirmed_parent;
                *run = rest;
            }
        }
        vsize += row.vsize;
        rows.push(row);
    }
    rows.shrink_to_fit();
    Some((rows, vsize))
}

/// Computes the cross-observer first-seen agreement statistics from the
/// live observers' first-seen maps, merged serially in roster order.
fn first_seen_stats(per_obs: &[FastMap<Txid, Timestamp>]) -> FirstSeenStats {
    let mut sightings: FastMap<Txid, (Timestamp, Timestamp, usize)> = FastMap::default();
    for first in per_obs {
        for (&txid, &t) in first {
            sightings
                .entry(txid)
                .and_modify(|(min, max, n)| {
                    *min = (*min).min(t);
                    *max = (*max).max(t);
                    *n += 1;
                })
                .or_insert((t, t, 1));
        }
    }

    let txs_union = sightings.len();
    let txs_all = sightings.values().filter(|(_, _, n)| *n == per_obs.len()).count();
    let mut spreads: Vec<u64> =
        sightings.values().filter(|(_, _, n)| *n >= 2).map(|(min, max, _)| max - min).collect();
    spreads.sort_unstable();
    let disagreements = spreads.iter().filter(|s| **s > 0).count();
    let mean_spread_secs = if spreads.is_empty() {
        0.0
    } else {
        spreads.iter().sum::<u64>() as f64 / spreads.len() as f64
    };
    let median_spread_secs = if spreads.is_empty() {
        0.0
    } else if spreads.len().is_multiple_of(2) {
        (spreads[spreads.len() / 2 - 1] + spreads[spreads.len() / 2]) as f64 / 2.0
    } else {
        spreads[spreads.len() / 2] as f64
    };
    let max_spread_secs = spreads.last().copied().unwrap_or(0);

    FirstSeenStats {
        txs_union,
        txs_all,
        disagreements,
        mean_spread_secs,
        median_spread_secs,
        max_spread_secs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cn_chain::Amount;

    fn entry(seed: u8, received: Timestamp) -> SnapshotEntry {
        SnapshotEntry {
            txid: Txid::from([seed; 32]),
            received,
            fee: Amount::from_sat(1_000),
            vsize: 100,
            has_unconfirmed_parent: false,
        }
    }

    fn view(label: &str, snapshots: Vec<MempoolSnapshot>, windows: u64) -> ObserverView {
        ObserverView {
            label: label.into(),
            snapshots,
            expectation: StreamExpectation { windows, detailed: windows, min_coverage: 0.0 },
        }
    }

    #[test]
    fn all_empty_fleet_refuses_to_audit() {
        let views = vec![view("a", Vec::new(), 4), view("b", Vec::new(), 4)];
        assert_eq!(reconcile(&views).expect_err("blind fleet"), AuditError::EmptySnapshotStream);
    }

    #[test]
    fn empty_observers_are_dropped_not_fatal() {
        let snaps = vec![MempoolSnapshot::from_entries(15, vec![entry(1, 10)])];
        let views = vec![view("alive", snaps, 1), view("eclipsed", Vec::new(), 1)];
        let fleet = reconcile(&views).expect("one live eye suffices");
        assert_eq!(fleet.labels, vec!["alive".to_string()]);
        assert_eq!(fleet.dropped, vec!["eclipsed".to_string()]);
        assert_eq!(fleet.fused.len(), 1);
        assert!(fleet.render().contains("1 dropped"));
    }

    #[test]
    fn fusion_takes_union_rows_and_min_first_seen() {
        // Observer a sees tx1 at 10 and tx2 at 20; observer b sees tx1
        // later (withheld) and tx3 that a never saw.
        let a = view(
            "a",
            vec![MempoolSnapshot::from_entries(15, vec![entry(1, 10), entry(2, 20)])],
            1,
        );
        let b = view(
            "b",
            vec![MempoolSnapshot::from_entries(15, vec![entry(1, 14), entry(3, 12)])],
            1,
        );
        let fleet = reconcile(&[a, b]).expect("reconciles");
        assert_eq!(fleet.fused.len(), 1);
        let fused = &fleet.fused[0];
        assert_eq!(fused.len(), 3, "union of rows");
        let tx1 = fused.entries.iter().find(|e| e.txid == Txid::from([1; 32])).expect("tx1");
        assert_eq!(tx1.received, 10, "earliest sighting wins");
        let fs = fleet.first_seen;
        assert_eq!(fs.txs_union, 3);
        assert_eq!(fs.txs_all, 1, "only tx1 seen by both");
        assert_eq!(fs.disagreements, 1);
        assert_eq!(fs.max_spread_secs, 4);
        assert!((fs.mean_spread_secs - 4.0).abs() < 1e-12);
        assert!((fs.median_spread_secs - 4.0).abs() < 1e-12);
    }

    #[test]
    fn one_healthy_observer_heals_degraded_windows() {
        let healthy = view("h", vec![MempoolSnapshot::from_entries(15, vec![entry(1, 10)])], 1);
        let eclipsed = view(
            "e",
            vec![MempoolSnapshot::from_entries(15, vec![entry(2, 11)]).mark_degraded()],
            1,
        );
        let fleet = reconcile(&[healthy, eclipsed]).expect("reconciles");
        assert!(!fleet.fused[0].is_degraded(), "one healthy eye heals the window");
        assert_eq!(fleet.coverage.degraded_windows, 0);
        assert_eq!(fleet.per_observer[1].degraded_windows, 1, "per-observer stamp kept");

        // Unanimously degraded windows stay stamped.
        let e1 = view(
            "e1",
            vec![MempoolSnapshot::from_entries(15, vec![entry(1, 10)]).mark_degraded()],
            1,
        );
        let e2 = view(
            "e2",
            vec![MempoolSnapshot::from_entries(15, vec![entry(2, 11)]).mark_degraded()],
            1,
        );
        let fleet = reconcile(&[e1, e2]).expect("reconciles");
        assert!(fleet.fused[0].is_degraded());
        assert_eq!(fleet.coverage.degraded_windows, 1);
    }

    #[test]
    fn light_windows_fuse_to_widest_backlog() {
        let a = view("a", vec![MempoolSnapshot::light(30, 10, 2_000)], 1);
        let b = view("b", vec![MempoolSnapshot::light(30, 25, 5_000)], 1);
        let fleet = reconcile(&[a, b]).expect("reconciles");
        assert!(!fleet.fused[0].is_detailed());
        assert_eq!(fleet.fused[0].len(), 25);
        assert_eq!(fleet.fused[0].total_vsize(), 5_000);
    }

    #[test]
    fn truncation_survives_only_when_unanimous() {
        let full = MempoolSnapshot::from_entries(15, vec![entry(1, 10), entry(2, 11)]);
        let cut = full.truncate_detail(0.5);
        assert!(cut.is_truncated());
        let fleet =
            reconcile(&[view("a", vec![full.clone()], 1), view("b", vec![cut.clone()], 1)])
                .expect("reconciles");
        assert!(!fleet.fused[0].is_truncated(), "the full dump heals the cut one");
        let fleet = reconcile(&[view("a", vec![cut.clone()], 1), view("b", vec![cut], 1)])
            .expect("reconciles");
        assert!(fleet.fused[0].is_truncated(), "everyone cut: still a cut view");
    }

    #[test]
    fn fleet_expectation_is_the_widest_promise() {
        let snaps = vec![MempoolSnapshot::from_entries(15, vec![entry(1, 10)])];
        let mut a = view("a", snaps.clone(), 3);
        a.expectation.min_coverage = 0.25;
        let b = view("b", snaps, 7);
        let fleet = reconcile(&[a, b]).expect("reconciles");
        assert_eq!(fleet.expectation.windows, 7);
        assert_eq!(fleet.expectation.min_coverage, 0.25);
    }
}
