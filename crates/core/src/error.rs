//! The typed failure taxonomy for snapshot-consuming audit paths.
//!
//! Real snapshot streams arrive damaged — observer outages leave gaps,
//! interrupted dumps truncate detail, and whole runs can produce nothing
//! usable. Audit entry points that consume snapshots return
//! [`AuditError`] instead of panicking, so a pipeline over degraded data
//! fails (or degrades) deliberately.

use cn_chain::Timestamp;
use std::fmt;

/// Why an audit over a snapshot stream could not produce a result.
#[derive(Clone, Debug, PartialEq)]
pub enum AuditError {
    /// The snapshot stream has no snapshots at all — the observer never
    /// recorded anything in the analysis window.
    EmptySnapshotStream,
    /// The stream has snapshots but none carry per-transaction rows, so
    /// first-seen joins and violation-pair analyses are impossible.
    NoDetailedSnapshots,
    /// Observation coverage fell below the caller's floor; the report
    /// would be statistically meaningless.
    InsufficientCoverage {
        /// The fraction of expected snapshot windows actually present.
        coverage: f64,
        /// The caller's minimum acceptable fraction.
        required: f64,
    },
    /// A statistic that must be finite (a PPE mean, a p-value) was not;
    /// carries the computation site for diagnosis.
    NonFiniteStatistic {
        /// Which computation produced the non-finite value.
        context: &'static str,
    },
    /// A block pushed into the streaming auditor does not replay against
    /// its UTXO view — it spends unknown or already-spent outputs, so the
    /// auditor's fee and self-interest accounting cannot advance.
    UnreplayableBlock {
        /// Height of the offending block.
        height: u64,
    },
    /// A detailed snapshot handed to fleet reconciliation holds rows out
    /// of txid order. The fused window is a merge of txid-sorted rows, so
    /// such rows would fuse into duplicated or misordered output.
    UnsortedSnapshotRows {
        /// Time of the snapshot window whose rows could not be merged.
        time: Timestamp,
    },
}

impl fmt::Display for AuditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditError::EmptySnapshotStream => {
                write!(f, "snapshot stream is empty: nothing was observed")
            }
            AuditError::NoDetailedSnapshots => {
                write!(f, "snapshot stream has no detailed snapshots: per-tx analyses impossible")
            }
            AuditError::InsufficientCoverage { coverage, required } => write!(
                f,
                "observation coverage {:.1}% is below the required {:.1}%",
                coverage * 100.0,
                required * 100.0
            ),
            AuditError::NonFiniteStatistic { context } => {
                write!(f, "non-finite statistic in {context}")
            }
            AuditError::UnreplayableBlock { height } => {
                write!(f, "block at height {height} does not replay against the UTXO view")
            }
            AuditError::UnsortedSnapshotRows { time } => {
                write!(f, "snapshot rows of the window at time {time} are not sorted by txid")
            }
        }
    }
}

impl std::error::Error for AuditError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(AuditError::EmptySnapshotStream.to_string().contains("empty"));
        let e = AuditError::InsufficientCoverage { coverage: 0.42, required: 0.5 };
        let s = e.to_string();
        assert!(s.contains("42.0%") && s.contains("50.0%"), "{s}");
        assert!(AuditError::NonFiniteStatistic { context: "ppe" }.to_string().contains("ppe"));
        assert!(AuditError::UnsortedSnapshotRows { time: 4_200 }.to_string().contains("4200"));
    }

    #[test]
    fn implements_error_trait() {
        fn takes_error(_: &dyn std::error::Error) {}
        takes_error(&AuditError::NoDetailedSnapshots);
    }
}
