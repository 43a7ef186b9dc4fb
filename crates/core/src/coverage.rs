//! Observation-coverage accounting: how much of the expected snapshot
//! stream actually arrived, and how much of the chain it saw.
//!
//! Every audit over snapshots carries one of these blocks. The paper's
//! own datasets have exactly this problem — dataset 𝒜's node restarted,
//! dataset ℬ covers a different span — and an audit that silently treats
//! a gappy stream as complete understates violation counts and commit
//! delays without any visible warning. Coverage makes the damage a
//! first-class, reportable number.
//!
//! This module is the only place that counts snapshot windows and decides
//! whether a snapshot audit may report. The batch audit
//! ([`crate::auditor::audit_with_snapshots`]) folds a whole stream with
//! `tally`; the streaming auditor ([`crate::streaming::StreamingAuditor`])
//! applies the same per-snapshot `count` as each snapshot arrives. Both
//! then pass one gate, `admit`, which joins the observed txids to the
//! chain and refuses an empty stream or a stream below the coverage
//! floor, so batch and streaming audits cannot disagree on a count or a
//! refusal.

use crate::error::AuditError;
use crate::index::ChainIndex;
use cn_chain::{FastMap, FastSet, Timestamp, Txid};
use cn_mempool::MempoolSnapshot;

/// How complete a snapshot stream is relative to what the observer was
/// supposed to record, plus how much of the confirmed chain it saw.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SnapshotCoverage {
    /// Snapshot windows the observer was scheduled to record.
    pub expected_windows: u64,
    /// Windows actually present in the stream.
    pub present_windows: u64,
    /// Detailed (per-transaction) snapshots expected.
    pub expected_detailed: u64,
    /// Detailed snapshots present (including truncated ones).
    pub present_detailed: u64,
    /// Present detailed snapshots whose dump was cut off partway.
    pub truncated_detailed: u64,
    /// Windows recorded while the observer's view was known-compromised
    /// (e.g. inside an eclipse window). The rows are real observations,
    /// but the backlog they show is frozen, so confidence discounts them.
    pub degraded_windows: u64,
    /// Distinct transactions appearing in any detailed snapshot.
    pub txs_observed: usize,
    /// Transactions confirmed on the audited chain (0 when no chain was
    /// supplied).
    pub txs_confirmed: usize,
    /// Confirmed transactions the observer also saw pending.
    pub confirmed_observed: usize,
}

impl SnapshotCoverage {
    /// Measures a stream against the expected window counts. Chain-side
    /// fields stay zero; chain them in with
    /// [`SnapshotCoverage::with_chain`].
    pub fn assess(
        snapshots: &[MempoolSnapshot],
        expected_windows: u64,
        expected_detailed: u64,
    ) -> SnapshotCoverage {
        SnapshotCoverage {
            txs_observed: observed_txids(snapshots).len(),
            ..SnapshotCoverage::tally(snapshots, expected_windows, expected_detailed)
        }
    }

    /// The row-free part of [`SnapshotCoverage::assess`]: window, detail,
    /// truncation and degradation counts, with `txs_observed` left zero
    /// for a caller that already knows the distinct-txid count (fleet
    /// reconciliation reads it off its first-seen maps).
    pub(crate) fn tally(
        snapshots: &[MempoolSnapshot],
        expected_windows: u64,
        expected_detailed: u64,
    ) -> SnapshotCoverage {
        let mut coverage = SnapshotCoverage {
            expected_windows,
            present_windows: 0,
            expected_detailed,
            present_detailed: 0,
            truncated_detailed: 0,
            degraded_windows: 0,
            txs_observed: 0,
            txs_confirmed: 0,
            confirmed_observed: 0,
        };
        for snap in snapshots {
            coverage.count(snap);
        }
        coverage
    }

    /// Counts one arrived snapshot window: present, detailed, truncated
    /// (detailed only) and degraded.
    pub(crate) fn count(&mut self, snap: &MempoolSnapshot) {
        self.present_windows += 1;
        if snap.is_detailed() {
            self.present_detailed += 1;
            self.truncated_detailed += u64::from(snap.is_truncated());
        }
        self.degraded_windows += u64::from(snap.is_degraded());
    }

    /// Fills the chain-side fields: how many confirmed transactions the
    /// stream saw pending before they committed.
    pub fn with_chain(self, snapshots: &[MempoolSnapshot], index: &ChainIndex) -> Self {
        self.join_chain(observed_txids(snapshots).iter(), index)
    }

    /// [`SnapshotCoverage::with_chain`] from the stream's first-seen map
    /// ([`crate::delay::first_seen_times`]), whose keys are its observed
    /// txids.
    pub fn with_first_seen(
        self,
        first_seen: &FastMap<Txid, Timestamp>,
        index: &ChainIndex,
    ) -> Self {
        self.join_chain(first_seen.keys(), index)
    }

    /// Joins distinct observed txids to the chain.
    fn join_chain<'a>(
        mut self,
        observed: impl Iterator<Item = &'a Txid>,
        index: &ChainIndex,
    ) -> Self {
        self.txs_confirmed = index.tx_count();
        self.confirmed_observed = observed.filter(|t| index.record(t).is_some()).count();
        self
    }

    /// The refusal gate of every snapshot audit. Completes the counted
    /// windows with the distinct `observed` txids joined against the
    /// chain, then refuses with [`AuditError::EmptySnapshotStream`] when
    /// no window arrived at all, or with
    /// [`AuditError::InsufficientCoverage`] when confidence falls below
    /// the expectation's floor. Otherwise returns the finished block.
    pub(crate) fn admit(
        self,
        observed: &FastSet<Txid>,
        index: &ChainIndex,
        expectation: &StreamExpectation,
    ) -> Result<SnapshotCoverage, AuditError> {
        if self.present_windows == 0 {
            return Err(AuditError::EmptySnapshotStream);
        }
        let coverage = SnapshotCoverage { txs_observed: observed.len(), ..self }
            .join_chain(observed.iter(), index);
        let confidence = coverage.confidence();
        if confidence < expectation.min_coverage {
            return Err(AuditError::InsufficientCoverage {
                coverage: confidence,
                required: expectation.min_coverage,
            });
        }
        Ok(coverage)
    }

    /// Fraction of expected snapshot windows present, in `[0, 1]`.
    /// Strictly monotone in the number of windows removed from a stream.
    pub fn window_fraction(&self) -> f64 {
        ratio(self.present_windows, self.expected_windows)
    }

    /// Fraction of expected detailed snapshots present *untruncated* —
    /// the share of per-transaction observation capacity that survived.
    pub fn detail_fraction(&self) -> f64 {
        ratio(self.present_detailed - self.truncated_detailed, self.expected_detailed)
    }

    /// Fraction of expected windows that arrived with a healthy
    /// (non-degraded) view. Equals [`SnapshotCoverage::window_fraction`]
    /// when no window was degraded, so streams recorded before degraded
    /// stamping existed score identically.
    pub fn undegraded_fraction(&self) -> f64 {
        ratio(self.present_windows.saturating_sub(self.degraded_windows), self.expected_windows)
    }

    /// Fraction of confirmed transactions the observer saw pending
    /// (1.0 when no chain was joined — nothing contradicts the stream).
    pub fn confirmed_observed_fraction(&self) -> f64 {
        if self.txs_confirmed == 0 {
            1.0
        } else {
            self.confirmed_observed as f64 / self.txs_confirmed as f64
        }
    }

    /// The single confidence number a report leads with: the weakest of
    /// the window, undegraded-window, detail, and chain-visibility
    /// fractions. 1.0 means the stream is complete; anything lower flags
    /// a degraded audit.
    pub fn confidence(&self) -> f64 {
        self.window_fraction()
            .min(self.undegraded_fraction())
            .min(self.detail_fraction())
            .min(self.confirmed_observed_fraction())
    }

    /// True when nothing expected is missing or damaged.
    pub fn is_complete(&self) -> bool {
        self.present_windows >= self.expected_windows
            && self.present_detailed >= self.expected_detailed
            && self.truncated_detailed == 0
            && self.degraded_windows == 0
    }

    /// Renders the block appended to audit reports.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "coverage: {}/{} snapshot windows ({:.1}%), {}/{} detailed ({} truncated)",
            self.present_windows,
            self.expected_windows,
            self.window_fraction() * 100.0,
            self.present_detailed,
            self.expected_detailed,
            self.truncated_detailed,
        );
        // Mentioned only when present, so reports over healthy streams
        // render byte-identically to before degraded stamping existed.
        if self.degraded_windows > 0 {
            let _ = writeln!(
                out,
                "          {} windows recorded with a degraded (eclipsed) view",
                self.degraded_windows,
            );
        }
        let _ = writeln!(
            out,
            "          {} txs observed pending; {}/{} confirmed txs seen before commit ({:.1}%)",
            self.txs_observed,
            self.confirmed_observed,
            self.txs_confirmed,
            self.confirmed_observed_fraction() * 100.0,
        );
        let _ = writeln!(out, "confidence: {:.3}", self.confidence());
        out
    }
}

/// What a snapshot stream was supposed to contain — the denominator of
/// every coverage fraction — plus the caller's tolerance for damage.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StreamExpectation {
    /// Snapshot windows the observer was scheduled to record.
    pub windows: u64,
    /// How many of those were scheduled to carry per-transaction rows.
    pub detailed: u64,
    /// Confidence floor: below this, an audit refuses to report instead
    /// of degrading (`0.0` = always degrade gracefully).
    pub min_coverage: f64,
}

impl StreamExpectation {
    /// Derives the expectation from a run's schedule: snapshots at
    /// `interval_secs`, `2·interval_secs`, … strictly before
    /// `duration_secs`, every `detail_every`-th one detailed.
    pub fn from_run(
        duration_secs: u64,
        interval_secs: u64,
        detail_every: u64,
    ) -> StreamExpectation {
        let windows = duration_secs.div_ceil(interval_secs.max(1)).saturating_sub(1);
        let detailed = windows.div_ceil(detail_every.max(1));
        StreamExpectation { windows, detailed, min_coverage: 0.0 }
    }

    /// Sets the confidence floor.
    pub fn with_min_coverage(mut self, floor: f64) -> StreamExpectation {
        self.min_coverage = floor;
        self
    }
}

/// The distinct txids listed by a stream's detailed snapshots, from each
/// stored row once ([`MempoolSnapshot::visit_stored_rows`]).
pub(crate) fn observed_txids(snapshots: &[MempoolSnapshot]) -> FastSet<Txid> {
    let mut observed = FastSet::default();
    MempoolSnapshot::visit_stored_rows(snapshots, |row| {
        observed.insert(row.txid);
    });
    observed
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        1.0
    } else {
        (num as f64 / den as f64).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cn_chain::{Amount, Txid};
    use cn_mempool::SnapshotEntry;

    fn detailed(time: u64, ids: &[u8]) -> MempoolSnapshot {
        MempoolSnapshot::from_entries(
            time,
            ids.iter()
                .map(|&i| SnapshotEntry {
                    txid: Txid::from([i; 32]),
                    received: time,
                    fee: Amount::from_sat(1_000),
                    vsize: 100,
                    has_unconfirmed_parent: false,
                })
                .collect(),
        )
    }

    #[test]
    fn complete_stream_scores_full_confidence() {
        let snaps =
            vec![detailed(15, &[1]), MempoolSnapshot::light(30, 1, 100), detailed(45, &[1, 2])];
        let cov = SnapshotCoverage::assess(&snaps, 3, 2);
        assert!(cov.is_complete());
        assert_eq!(cov.window_fraction(), 1.0);
        assert_eq!(cov.detail_fraction(), 1.0);
        assert_eq!(cov.confidence(), 1.0);
        assert_eq!(cov.txs_observed, 2);
    }

    #[test]
    fn gaps_lower_window_fraction() {
        let snaps = vec![detailed(15, &[1]), detailed(45, &[2])];
        let cov = SnapshotCoverage::assess(&snaps, 4, 4);
        assert!(!cov.is_complete());
        assert_eq!(cov.window_fraction(), 0.5);
        assert!(cov.confidence() <= 0.5);
    }

    #[test]
    fn truncation_lowers_detail_fraction_only() {
        let snaps = vec![detailed(15, &[1, 2, 3, 4]).truncate_detail(0.5), detailed(30, &[5])];
        let cov = SnapshotCoverage::assess(&snaps, 2, 2);
        assert_eq!(cov.window_fraction(), 1.0);
        assert_eq!(cov.truncated_detailed, 1);
        assert_eq!(cov.detail_fraction(), 0.5);
        assert!(!cov.is_complete());
    }

    #[test]
    fn coverage_monotone_under_window_removal() {
        let full: Vec<MempoolSnapshot> =
            (0..20).map(|i| detailed(15 * (i + 1), &[i as u8])).collect();
        let mut last = f64::INFINITY;
        for removed in 0..full.len() {
            let stream = &full[..full.len() - removed];
            let cov = SnapshotCoverage::assess(stream, 20, 20);
            let c = cov.confidence();
            assert!(c <= last, "confidence rose from {last} to {c} removing {removed}");
            last = c;
        }
    }

    #[test]
    fn degraded_windows_lower_confidence_without_hiding_rows() {
        let snaps = vec![
            detailed(15, &[1]),
            detailed(30, &[2]).mark_degraded(),
            detailed(45, &[3]).mark_degraded(),
            detailed(60, &[4]),
        ];
        let cov = SnapshotCoverage::assess(&snaps, 4, 4);
        assert_eq!(cov.degraded_windows, 2);
        assert_eq!(cov.window_fraction(), 1.0, "degraded windows still count as present");
        assert_eq!(cov.undegraded_fraction(), 0.5);
        assert_eq!(cov.confidence(), 0.5);
        assert!(!cov.is_complete());
        assert_eq!(cov.txs_observed, 4, "degraded rows remain observations");
        let s = cov.render();
        assert!(s.contains("2 windows recorded with a degraded"), "{s}");
        // A healthy stream renders without any degradation line at all.
        let healthy = SnapshotCoverage::assess(&[detailed(15, &[1])], 1, 1);
        assert!(!healthy.render().contains("degraded"));
        assert!(healthy.is_complete());
    }

    #[test]
    fn expectation_matches_run_schedule() {
        // Snapshots at 15, 30, …, < 21 600 s: 1 439 windows, every 4th
        // detailed starting with the first: ceil(1439/4) = 360.
        let exp = StreamExpectation::from_run(21_600, 15, 4);
        assert_eq!(exp.windows, 1_439);
        assert_eq!(exp.detailed, 360);
        assert_eq!(exp.min_coverage, 0.0);
        assert_eq!(exp.with_min_coverage(0.5).min_coverage, 0.5);
    }

    #[test]
    fn render_mentions_the_numbers() {
        let cov = SnapshotCoverage::assess(&[detailed(15, &[1])], 2, 1);
        let s = cov.render();
        assert!(s.contains("1/2"), "{s}");
        assert!(s.contains("confidence"), "{s}");
    }
}
