//! Mempool congestion analysis (§4.1, Figures 3, 4b–c, 9, 11).

use crate::delay::first_seen_times;
use crate::error::AuditError;
use cn_chain::{FastMap, Timestamp, Txid};
use cn_mempool::MempoolSnapshot;

/// The Mempool-size time series in vbytes (Figures 3c and 9).
///
/// An empty stream is an error, not an empty series: a congestion
/// analysis over zero windows says nothing, and downstream means over it
/// would be 0/0.
pub fn size_series(snapshots: &[MempoolSnapshot]) -> Result<Vec<(Timestamp, u64)>, AuditError> {
    if snapshots.is_empty() {
        return Err(AuditError::EmptySnapshotStream);
    }
    Ok(snapshots.iter().map(|s| (s.time, s.total_vsize())).collect())
}

/// Fraction of snapshots whose backlog exceeds one block capacity — the
/// paper's headline congestion statistic (75 % for 𝒜, 92 % for ℬ).
pub fn congested_fraction(snapshots: &[MempoolSnapshot], block_capacity: u64) -> f64 {
    if snapshots.is_empty() {
        return 0.0;
    }
    let congested = snapshots.iter().filter(|s| s.total_vsize() > block_capacity).count();
    congested as f64 / snapshots.len() as f64
}

/// Per-transaction fee rates grouped by the congestion bin *at first
/// observation* (Figures 4c and 11): bins 0–3 as defined by
/// [`MempoolSnapshot::congestion_bin`].
pub fn fee_rates_by_congestion(
    snapshots: &[MempoolSnapshot],
    block_capacity: u64,
) -> [Vec<f64>; 4] {
    // A stream without detailed rows has no first sightings to bin.
    let Ok(first) = first_seen_times(snapshots) else { return Default::default() };
    let mut assigned: FastMap<Txid, (usize, f64)> = FastMap::default();
    for snap in snapshots {
        let bin = snap.congestion_bin(block_capacity);
        for entry in snap.rows() {
            // The first snapshot containing the tx defines its bin.
            if first.get(&entry.txid).copied() == Some(entry.received) {
                assigned.entry(entry.txid).or_insert((bin, entry.fee_rate().btc_per_kb()));
            }
        }
    }
    let mut out: [Vec<f64>; 4] = Default::default();
    for (_, (bin, rate)) in assigned {
        out[bin].push(rate);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cn_chain::Amount;
    use cn_mempool::SnapshotEntry;

    fn entry(seed: u8, received: Timestamp, vsize: u64, fee: u64) -> SnapshotEntry {
        SnapshotEntry {
            txid: Txid::from([seed; 32]),
            received,
            fee: Amount::from_sat(fee),
            vsize,
            has_unconfirmed_parent: false,
        }
    }

    #[test]
    fn size_series_extracts_totals() {
        let snaps = vec![
            MempoolSnapshot::from_entries(15, vec![entry(1, 10, 400, 800)]),
            MempoolSnapshot::from_entries(30, vec![]),
        ];
        assert_eq!(size_series(&snaps), Ok(vec![(15, 400), (30, 0)]));
        assert_eq!(size_series(&[]), Err(AuditError::EmptySnapshotStream));
    }

    #[test]
    fn congested_fraction_counts_backlog() {
        let cap = 1_000u64;
        let snaps = vec![
            MempoolSnapshot::from_entries(0, vec![entry(1, 0, 1_500, 100)]),
            MempoolSnapshot::from_entries(15, vec![entry(2, 5, 500, 100)]),
            MempoolSnapshot::from_entries(30, vec![entry(3, 20, 2_000, 100)]),
            MempoolSnapshot::from_entries(45, vec![]),
        ];
        assert!((congested_fraction(&snaps, cap) - 0.5).abs() < 1e-12);
        assert_eq!(congested_fraction(&[], cap), 0.0);
    }

    #[test]
    fn fee_rates_grouped_by_first_seen_bin() {
        let cap = 1_000u64;
        // Snapshot 1: uncongested (bin 0) contains tx 1.
        // Snapshot 2: heavily congested (bin 3) introduces tx 2.
        let snaps = vec![
            MempoolSnapshot::from_entries(0, vec![entry(1, 0, 500, 1_000)]),
            MempoolSnapshot::from_entries(
                15,
                vec![entry(1, 0, 500, 1_000), entry(2, 10, 5_000, 50_000)],
            ),
        ];
        let bins = fee_rates_by_congestion(&snaps, cap);
        assert_eq!(bins[0].len(), 1, "tx1 first seen uncongested");
        assert_eq!(bins[3].len(), 1, "tx2 first seen at bin 3");
        assert!(bins[1].is_empty() && bins[2].is_empty());
    }
}
