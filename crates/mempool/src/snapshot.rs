//! Mempool snapshots — the paper's primary measurement artifact.
//!
//! Datasets 𝒜 and ℬ are streams of snapshots taken every 15 seconds from an
//! observer node. Each snapshot records, for every unconfirmed transaction,
//! when it was first seen and what fee rate it offers; the audit layer joins
//! these with the chain to compute commit delays, congestion levels, and
//! ordering-violation pairs.
//!
//! Snapshots come in two weights: *detailed* (per-transaction rows — what
//! the paper's datasets contain) and *light* (aggregate backlog size only).
//! A year-scale simulation cannot afford per-transaction rows every 15
//! seconds, so the simulator interleaves them; every congestion analysis
//! works on the aggregate, and per-transaction analyses use the detailed
//! subset.
//!
//! Most of a backlog is unchanged from one detailed snapshot to the next,
//! so a detailed snapshot does not own its rows. It lists them, in txid
//! order, as 4-byte references into a *row store*: a table of immutable,
//! reference-counted chunks of rows. A [`crate::Mempool`] view keeps one
//! store and writes a row into it only when the row first appears or
//! changes, so consecutive snapshots of one view share every unchanged
//! row. A snapshot built any other way ([`MempoolSnapshot::from_entries`],
//! a decoder, a fusion of several views) gets a store of its own. Either
//! way a snapshot is self-contained: its rows stay valid, unchanged, for as
//! long as it lives, whatever the view does next.

use cn_chain::{Amount, FeeRate, Timestamp, Txid};
use std::collections::HashSet;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One transaction's row within a detailed snapshot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SnapshotEntry {
    /// The transaction id.
    pub txid: Txid,
    /// When the observer first received it.
    pub received: Timestamp,
    /// The absolute fee it offers.
    pub fee: Amount,
    /// Its virtual size.
    pub vsize: u64,
    /// True when a parent was still unconfirmed at snapshot time — such
    /// entries are CPFP candidates, which §4.2.1 excludes from
    /// violation-pair counting.
    pub has_unconfirmed_parent: bool,
}

impl SnapshotEntry {
    /// The entry's standalone fee rate.
    pub fn fee_rate(&self) -> FeeRate {
        FeeRate::from_fee_and_vsize(self.fee, self.vsize)
    }
}

/// A row reference's low `CHUNK_BITS` bits are its slot in a store chunk;
/// the bits above are the chunk's index in the store.
const CHUNK_BITS: u32 = 8;

/// The most rows a store chunk holds.
pub(crate) const CHUNK_ROWS: usize = 1 << CHUNK_BITS;

/// The rows of a detailed snapshot: the row store they live in, and one
/// reference per row, in listing (txid) order.
///
/// A store is a table of immutable chunks. Appending a batch of rows never
/// touches a chunk already in the table: the batch starts a new chunk, so
/// its rows sit in its own chunks in the order given, and the tail of its
/// last chunk's slots stays unused. Listings built from one store share
/// its chunks, and clones share both the chunk table and the references.
///
/// A listing also records where its rows came from, for
/// [`MempoolSnapshot::visit_stored_rows`]: a listing merged from another
/// lists, below `fresh_from`, only rows that one listed too.
#[derive(Clone, Debug)]
pub(crate) struct Listing {
    chunks: Arc<[Arc<[SnapshotEntry]>]>,
    refs: Arc<[u32]>,
    /// This listing's number, unique in the process: clones share it, and
    /// no other listing has it, even one at a freed listing's address.
    id: u64,
    /// The number of the listing this one was merged from, or 0 (no
    /// listing's number) for one built from rows.
    parent: u64,
    /// The first reference of the rows written for this listing.
    fresh_from: u32,
}

/// The next listing's number.
static NEXT_LISTING: AtomicU64 = AtomicU64::new(1);

fn next_listing() -> u64 {
    NEXT_LISTING.fetch_add(1, Ordering::Relaxed)
}

impl Listing {
    /// A new store holding `rows`, listed exactly as given.
    pub(crate) fn fresh(rows: &[SnapshotEntry]) -> Listing {
        let len = u32::try_from(rows.len()).expect("a listing's references fit in 32 bits");
        Listing {
            chunks: rows.chunks(CHUNK_ROWS).map(Arc::from).collect(),
            refs: (0..len).collect(),
            id: next_listing(),
            parent: 0,
            fresh_from: 0,
        }
    }

    /// A listing merged from this one: its store with `batch` appended,
    /// listing `refs`, which are this listing's references or the batch's.
    /// The batch's rows take the references from [`Listing::next_ref`] on.
    pub(crate) fn append(&self, batch: &[SnapshotEntry], refs: Vec<u32>) -> Listing {
        let chunks = self.chunks.iter().cloned().chain(batch.chunks(CHUNK_ROWS).map(Arc::from));
        Listing {
            chunks: chunks.collect(),
            refs: refs.into(),
            id: next_listing(),
            parent: self.id,
            fresh_from: self.next_ref(),
        }
    }

    /// The reference of the first row a batch appended to this listing's
    /// store gets: the first slot of a new chunk.
    pub(crate) fn next_ref(&self) -> u32 {
        u32::try_from(self.slots()).expect("store references fit in 32 bits")
    }

    /// The store's slots, the unused tail of each batch's last chunk
    /// included: what a store costs in references, and at most
    /// [`CHUNK_ROWS`] times its chunk table's length.
    pub(crate) fn slots(&self) -> usize {
        self.chunks.len() << CHUNK_BITS
    }

    /// The listed references, in listing order.
    pub(crate) fn refs(&self) -> &[u32] {
        &self.refs
    }

    /// The row reference `r` names.
    pub(crate) fn row(&self, r: u32) -> &SnapshotEntry {
        row_at(&self.chunks, r)
    }

    /// The first `keep` listed rows, from the same store and with the
    /// same origin.
    fn prefix(&self, keep: usize) -> Listing {
        Listing {
            chunks: Arc::clone(&self.chunks),
            refs: self.refs[..keep].into(),
            id: next_listing(),
            ..*self
        }
    }

    /// The listed rows, in listing order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &SnapshotEntry> {
        let chunks = &self.chunks;
        self.refs.iter().map(move |&r| row_at(chunks, r))
    }
}

fn row_at(chunks: &[Arc<[SnapshotEntry]>], r: u32) -> &SnapshotEntry {
    &chunks[(r >> CHUNK_BITS) as usize][r as usize & (CHUNK_ROWS - 1)]
}

/// The state of a Mempool at one instant.
///
/// A detailed snapshot lists its rows, in txid order, from a row store
/// that the snapshots of one [`crate::Mempool`] view share (see the
/// module docs). Cloning a snapshot costs two reference counts, and
/// equality compares contents, not storage. A light snapshot holds
/// aggregates only, and allocates nothing.
#[derive(Clone, Default)]
pub struct MempoolSnapshot {
    /// Snapshot time.
    pub time: Timestamp,
    /// A detailed snapshot's rows; `None` for a light one.
    listing: Option<Listing>,
    truncated: bool,
    degraded: bool,
    count: usize,
    vsize: u64,
}

impl MempoolSnapshot {
    /// Builds a detailed snapshot from per-transaction rows, sorted here
    /// by txid.
    pub fn from_entries(time: Timestamp, mut entries: Vec<SnapshotEntry>) -> MempoolSnapshot {
        entries.sort_by_key(|e| e.txid);
        MempoolSnapshot::from_rows_as_given(time, &entries)
    }

    /// Builds a detailed snapshot over `rows` exactly as given, in a
    /// store of its own: no sort, so a producer that already holds its
    /// rows in txid order (a k-way merge) pays no second pass. Rows out
    /// of txid order make a snapshot that fleet reconciliation refuses
    /// with `UnsortedSnapshotRows`; every other constructor sorts.
    pub fn from_rows_as_given(time: Timestamp, rows: &[SnapshotEntry]) -> MempoolSnapshot {
        let vsize = rows.iter().map(|e| e.vsize).sum();
        MempoolSnapshot::detailed(time, Listing::fresh(rows), vsize)
    }

    /// Builds a detailed snapshot over a listing whose aggregate vsize the
    /// caller has tracked (the Mempool hot path).
    pub(crate) fn detailed(time: Timestamp, listing: Listing, vsize: u64) -> MempoolSnapshot {
        debug_assert_eq!(listing.iter().map(|e| e.vsize).sum::<u64>(), vsize);
        MempoolSnapshot {
            time,
            count: listing.refs.len(),
            listing: Some(listing),
            truncated: false,
            degraded: false,
            vsize,
        }
    }

    /// Builds a light snapshot carrying only aggregates.
    pub fn light(time: Timestamp, count: usize, vsize: u64) -> MempoolSnapshot {
        MempoolSnapshot { time, listing: None, truncated: false, degraded: false, count, vsize }
    }

    /// A copy of this detailed snapshot with its per-transaction dump cut
    /// off partway — what an interrupted RPC transfer leaves behind. Keeps
    /// the first `keep_frac` of the txid-sorted rows, recomputes the
    /// aggregates from the surviving rows (the cut loses them too), and
    /// marks the result [`MempoolSnapshot::is_truncated`]. Light snapshots
    /// are returned unchanged: they carry no dump to truncate. The cut
    /// lists its rows from the original's store, and a cut that keeps
    /// every row shares the original's listing outright.
    pub fn truncate_detail(&self, keep_frac: f64) -> MempoolSnapshot {
        let Some(listing) = &self.listing else { return self.clone() };
        let keep = (self.count as f64 * keep_frac.clamp(0.0, 1.0)) as usize;
        if keep >= self.count {
            return MempoolSnapshot { truncated: true, ..self.clone() };
        }
        let cut = listing.prefix(keep);
        let vsize = cut.iter().map(|e| e.vsize).sum();
        MempoolSnapshot {
            truncated: true,
            degraded: self.degraded,
            ..MempoolSnapshot::detailed(self.time, cut, vsize)
        }
    }

    /// The same snapshot stamped *degraded*: the observer recorded it
    /// while its view was known-compromised (e.g. inside an eclipse
    /// window, where the backlog is frozen at whatever the node held when
    /// it lost its peers). The rows are kept — they are real observations
    /// — but coverage accounting discounts the window, so a downstream
    /// audit can never mistake an eclipsed stream for a healthy one.
    pub fn mark_degraded(mut self) -> MempoolSnapshot {
        self.degraded = true;
        self
    }

    /// True when the observer's view was known-compromised at snapshot
    /// time; see [`MempoolSnapshot::mark_degraded`].
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// The same snapshot stamped *truncated* — the reassembly hook for
    /// decoders replaying recorded streams. [`MempoolSnapshot::from_entries`]
    /// always yields an untruncated snapshot and
    /// [`MempoolSnapshot::truncate_detail`] performs a fresh cut, so a codec
    /// that persisted a truncated snapshot's surviving rows needs this stamp
    /// to round-trip the flag (the aggregates already equal the surviving-row
    /// sums, which `from_entries` recomputes identically).
    pub fn mark_truncated(mut self) -> MempoolSnapshot {
        self.truncated = true;
        self
    }

    /// True when per-transaction rows are present.
    pub fn is_detailed(&self) -> bool {
        self.listing.is_some()
    }

    /// True when this snapshot's detail dump was cut off partway; its
    /// rows and aggregates undercount the real backlog, and coverage
    /// accounting treats it as a degraded observation window.
    pub fn is_truncated(&self) -> bool {
        self.truncated
    }

    /// Number of unconfirmed transactions at snapshot time.
    pub fn len(&self) -> usize {
        self.count
    }

    /// True when no transactions were pending.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Aggregate virtual size — compared against the 1 MB block capacity to
    /// classify congestion (Figure 3).
    pub fn total_vsize(&self) -> u64 {
        self.vsize
    }

    /// Iterates the per-transaction rows, in txid order: every row of a
    /// detailed snapshot ([`MempoolSnapshot::len`] of them), nothing for a
    /// light one.
    pub fn rows(&self) -> impl Iterator<Item = &SnapshotEntry> {
        let (chunks, refs): (&[Arc<[SnapshotEntry]>], &[u32]) = match &self.listing {
            Some(listing) => (&listing.chunks, &listing.refs),
            None => (&[], &[]),
        };
        refs.iter().map(move |&r| row_at(chunks, r))
    }

    /// Visits the rows `snapshots` list, in stream order, skipping rows
    /// an earlier visit already covered: all of a snapshot whose listing
    /// was visited before (a clone), and, in a snapshot a view merged from
    /// a visited one, every row it kept from that one. A view's stream
    /// lists each row at every detailed tick but writes it once, so its
    /// rows are visited about once each. A row is visited again when the
    /// snapshot it was merged from is missing from `snapshots` or was cut
    /// short, so the fold must be one a repeated row cannot change (a
    /// minimum, a set union); such a fold gets the result a fold over
    /// every listing gets, and meets each txid first at the same point.
    pub fn visit_stored_rows<'a>(
        snapshots: &'a [MempoolSnapshot],
        mut visit: impl FnMut(&'a SnapshotEntry),
    ) {
        let mut visited: HashSet<u64> = HashSet::new();
        for listing in snapshots.iter().filter_map(|s| s.listing.as_ref()) {
            if !visited.insert(listing.id) {
                continue;
            }
            let from = if visited.contains(&listing.parent) { listing.fresh_from } else { 0 };
            for &r in listing.refs.iter().filter(|&&r| r >= from) {
                visit(listing.row(r));
            }
        }
    }

    /// True when both snapshots list their rows from one allocation: a
    /// clone, or the snapshot of a view that did not change since the last.
    #[cfg(test)]
    pub(crate) fn shares_rows_with(&self, other: &MempoolSnapshot) -> bool {
        match (&self.listing, &other.listing) {
            (Some(a), Some(b)) => {
                Arc::ptr_eq(&a.chunks, &b.chunks) && Arc::ptr_eq(&a.refs, &b.refs)
            }
            _ => false,
        }
    }

    /// The congestion bin of §4.1.2 given a block capacity in vbytes:
    /// 0 = below capacity (no congestion), 1 = (1x, 2x], 2 = (2x, 4x],
    /// 3 = above 4x (highest congestion).
    pub fn congestion_bin(&self, block_capacity: u64) -> usize {
        let size = self.total_vsize();
        if size <= block_capacity {
            0
        } else if size <= 2 * block_capacity {
            1
        } else if size <= 4 * block_capacity {
            2
        } else {
            3
        }
    }
}

impl PartialEq for MempoolSnapshot {
    fn eq(&self, other: &MempoolSnapshot) -> bool {
        let flags = |s: &MempoolSnapshot| (s.is_detailed(), s.truncated, s.degraded);
        (self.time, self.count, self.vsize) == (other.time, other.count, other.vsize)
            && flags(self) == flags(other)
            && self.rows().eq(other.rows())
    }
}

impl Eq for MempoolSnapshot {}

impl fmt::Debug for MempoolSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Rows<'a>(&'a MempoolSnapshot);
        impl fmt::Debug for Rows<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_list().entries(self.0.rows()).finish()
            }
        }
        f.debug_struct("MempoolSnapshot")
            .field("time", &self.time)
            .field("rows", &Rows(self))
            .field("detailed", &self.is_detailed())
            .field("truncated", &self.truncated)
            .field("degraded", &self.degraded)
            .field("count", &self.count)
            .field("vsize", &self.vsize)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(seed: u8, vsize: u64, fee: u64) -> SnapshotEntry {
        SnapshotEntry {
            txid: Txid::from([seed; 32]),
            received: 0,
            fee: Amount::from_sat(fee),
            vsize,
            has_unconfirmed_parent: false,
        }
    }

    #[test]
    fn detailed_snapshot_aggregates_entries() {
        let snap = MempoolSnapshot::from_entries(15, vec![entry(2, 300, 600), entry(1, 250, 500)]);
        assert_eq!(snap.total_vsize(), 550);
        assert_eq!(snap.len(), 2);
        assert!(!snap.is_empty());
        assert!(snap.is_detailed());
        // Entries sorted by txid for determinism.
        assert_eq!(snap.rows().next().map(|e| e.txid), Some(Txid::from([1; 32])));
    }

    #[test]
    fn light_snapshot_keeps_aggregates_only() {
        let snap = MempoolSnapshot::light(30, 1_000, 275_000);
        assert!(!snap.is_detailed());
        assert_eq!(snap.rows().count(), 0);
        assert_eq!(snap.len(), 1_000);
        assert_eq!(snap.total_vsize(), 275_000);
    }

    #[test]
    fn congestion_bins_match_paper_boundaries() {
        let cap = 1_000_000u64;
        let mk = |v: u64| MempoolSnapshot::light(0, 1, v);
        assert_eq!(mk(0).congestion_bin(cap), 0);
        assert_eq!(mk(cap).congestion_bin(cap), 0);
        assert_eq!(mk(cap + 1).congestion_bin(cap), 1);
        assert_eq!(mk(2 * cap).congestion_bin(cap), 1);
        assert_eq!(mk(2 * cap + 1).congestion_bin(cap), 2);
        assert_eq!(mk(4 * cap).congestion_bin(cap), 2);
        assert_eq!(mk(4 * cap + 1).congestion_bin(cap), 3);
    }

    #[test]
    fn fee_rate_computed_per_entry() {
        let e = entry(1, 250, 500);
        assert_eq!(e.fee_rate(), FeeRate::from_sat_per_vb(2));
    }

    #[test]
    fn truncation_keeps_prefix_and_marks_snapshot() {
        let snap = MempoolSnapshot::from_entries(
            15,
            (1..=10).map(|i| entry(i, 100, 1_000)).collect(),
        );
        let cut = snap.truncate_detail(0.5);
        assert!(cut.is_truncated());
        assert!(cut.is_detailed());
        assert_eq!(cut.len(), 5);
        assert_eq!(cut.total_vsize(), 500);
        assert_eq!(cut.rows().next().map(|e| e.txid), Some(Txid::from([1; 32])));
        assert!(!snap.is_truncated(), "original untouched");

        // Degenerate fractions clamp instead of panicking.
        assert_eq!(snap.truncate_detail(2.0).len(), 10);
        assert_eq!(snap.truncate_detail(-1.0).len(), 0);
    }

    #[test]
    fn degraded_stamp_round_trips_and_survives_truncation() {
        let snap = MempoolSnapshot::from_entries(
            15,
            (1..=4).map(|i| entry(i, 100, 1_000)).collect(),
        );
        assert!(!snap.is_degraded());
        let stamped = snap.clone().mark_degraded();
        assert!(stamped.is_degraded());
        assert_eq!(stamped.len(), snap.len(), "rows are kept");
        assert_ne!(stamped, snap, "the stamp participates in equality");
        // The stamp survives a truncation cut (both branches).
        assert!(stamped.truncate_detail(0.5).is_degraded());
        assert!(stamped.truncate_detail(1.0).is_degraded());
        assert!(MempoolSnapshot::light(30, 5, 500).mark_degraded().is_degraded());
    }

    #[test]
    fn rows_iterate_detailed_only() {
        let detailed =
            MempoolSnapshot::from_entries(15, vec![entry(2, 300, 600), entry(1, 250, 500)]);
        assert_eq!(detailed.rows().count(), 2);
        assert_eq!(
            detailed.rows().map(|e| e.txid).collect::<Vec<_>>(),
            vec![Txid::from([1; 32]), Txid::from([2; 32])]
        );
        let light = MempoolSnapshot::light(30, 1_000, 275_000);
        assert_eq!(light.rows().count(), 0);
    }

    #[test]
    fn truncating_light_snapshot_is_identity() {
        let light = MempoolSnapshot::light(30, 100, 50_000);
        let cut = light.truncate_detail(0.2);
        assert_eq!(cut, light);
        assert!(!cut.is_truncated());
    }
}
