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
//! reference-counted chunks of rows. A snapshot merged from another
//! ([`MempoolSnapshot::merged`]) writes only its changed rows, into the
//! other's store, and records which of the other's references it dropped
//! or replaced, so it can name its delta from it
//! ([`MempoolSnapshot::delta_from`]) without reading its unchanged rows.
//! A [`crate::Mempool`] view merges each detailed snapshot from its last
//! one, and fleet fusion merges each fused window from the one before, so
//! consecutive snapshots of one view, and of one fused stream, share every
//! unchanged row. A snapshot built from rows
//! ([`MempoolSnapshot::from_entries`], a decoder, a fusion keyframe) gets
//! a store of its own. Either way a snapshot is self-contained: its rows
//! stay valid, unchanged, for as long as it lives, whatever is merged from
//! it next.

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

/// A merge restarts its row store once the store holds more than this
/// many slots per row the merged snapshot lists. Like the change list's
/// bound in [`crate::Mempool`], it caps what a chain of merges keeps for
/// the next one at a constant multiple of the listing, however long it
/// runs.
pub(crate) const STORE_SLOTS_PER_ROW: usize = 4;

/// The rows of a detailed snapshot: the row store they live in, and one
/// reference per row, in listing (txid) order.
///
/// A store is a table of immutable chunks. Appending a batch of rows never
/// touches a chunk already in the table: the batch starts a new chunk, so
/// its rows sit in its own chunks in the order given, and the tail of its
/// last chunk's slots stays unused. Listings built from one store share
/// its chunks, and clones share both the chunk table and the references.
///
/// A listing also records where its rows came from: a listing merged from
/// another lists, below `fresh_from`, only rows that one listed too (for
/// [`MempoolSnapshot::visit_stored_rows`]), and the rows from `fresh_from`
/// on, with the references in `dropped`, are its delta from that one (for
/// [`MempoolSnapshot::delta_from`]).
#[derive(Clone, Debug)]
struct Listing {
    chunks: Arc<[Arc<[SnapshotEntry]>]>,
    refs: Arc<[u32]>,
    /// This listing's number, unique in the process: clones share it, and
    /// no other listing has it, even one at a freed listing's address.
    id: u64,
    /// The number of the listing this one was merged from, or 0 (no
    /// listing's number) for one built from rows.
    parent: u64,
    /// The first reference of the rows written for this listing: the
    /// store's chunks from this one on hold exactly those rows, in txid
    /// order.
    fresh_from: u32,
    /// The references of the rows of the listing this one was merged from
    /// that it dropped or replaced, in listing (txid) order.
    dropped: Arc<[u32]>,
}

/// The next listing's number.
static NEXT_LISTING: AtomicU64 = AtomicU64::new(1);

fn next_listing() -> u64 {
    NEXT_LISTING.fetch_add(1, Ordering::Relaxed)
}

impl Listing {
    /// A new store holding `rows`, listed exactly as given.
    fn fresh(rows: &[SnapshotEntry]) -> Listing {
        let len = u32::try_from(rows.len()).expect("a listing's references fit in 32 bits");
        Listing {
            chunks: rows.chunks(CHUNK_ROWS).map(Arc::from).collect(),
            refs: (0..len).collect(),
            id: next_listing(),
            parent: 0,
            fresh_from: 0,
            dropped: Arc::new([]),
        }
    }

    /// The reference of the first row a batch appended to this listing's
    /// store gets: the first slot of a new chunk.
    fn next_ref(&self) -> u32 {
        u32::try_from(self.slots()).expect("store references fit in 32 bits")
    }

    /// The store's slots, the unused tail of each batch's last chunk
    /// included: what a store costs in references, and at most
    /// [`CHUNK_ROWS`] times its chunk table's length.
    fn slots(&self) -> usize {
        self.chunks.len() << CHUNK_BITS
    }

    /// The row reference `r` names.
    fn row(&self, r: u32) -> &SnapshotEntry {
        row_at(&self.chunks, r)
    }

    /// The rows written for this listing, in txid order.
    fn written(&self) -> impl Iterator<Item = &SnapshotEntry> {
        self.chunks[(self.fresh_from >> CHUNK_BITS) as usize..].iter().flat_map(|c| c.iter())
    }

    /// The first `keep` listed rows, from the same store and with the
    /// same origin.
    fn prefix(&self, keep: usize) -> Listing {
        Listing {
            chunks: Arc::clone(&self.chunks),
            refs: self.refs[..keep].into(),
            id: next_listing(),
            dropped: Arc::clone(&self.dropped),
            ..*self
        }
    }

    /// The listed rows, in listing order.
    fn iter(&self) -> impl Iterator<Item = &SnapshotEntry> {
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
/// that the snapshots merged from one another share (see the module
/// docs). Cloning a snapshot costs three reference counts, and
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

    /// `prev`'s rows with `changes` applied, written into `prev`'s store:
    /// the single listing merge, which a fused window merged from the last
    /// one uses, and a [`crate::Mempool`] view's next snapshot too (with
    /// rows it looks up in its pool as the merge reaches them).
    ///
    /// Each change names a txid and its row from now on, or `None` to
    /// drop it; `prev`'s rows of that txid are dropped either way. The
    /// changes must strictly ascend by txid, and a row must carry its
    /// change's txid: otherwise, and for a light `prev`, this returns
    /// `None`. The rows given are appended to the store as one batch, in
    /// the order given, and every other row keeps its reference, found by
    /// galloping from the last change, so the merge costs O(changes ·
    /// log run) plus a copy of the 4-byte references. The result records
    /// the references it dropped, so [`MempoolSnapshot::delta_from`]
    /// returns exactly these changes (less those that dropped nothing and
    /// wrote nothing); when no change did either, the result shares
    /// `prev`'s listing. Once the store holds more than four slots per
    /// listed row (a batch fills whole 256-row chunks), the merge restarts
    /// it with the result's rows in txid order, and the result has no
    /// delta from `prev`: a chain of merges whose older snapshots are
    /// dropped keeps a store bounded by its listing, however long it
    /// runs. `prev` keeps the chunks it lists; nothing written is ever
    /// changed under it.
    ///
    /// The result is detailed and unstamped, whatever `prev`'s stamps.
    pub fn merged(
        prev: &MempoolSnapshot,
        time: Timestamp,
        changes: &[(Txid, Option<SnapshotEntry>)],
    ) -> Option<MempoolSnapshot> {
        MempoolSnapshot::merged_by(prev, time, changes, |c| c.0, |c| c.1)
    }

    /// [`MempoolSnapshot::merged`] over changes that name their txid
    /// through `txid_of` and their row through `row_of`, which the merge
    /// calls only once it has reached the change's place in `prev`. A
    /// view looks each row up in its pool then: building every
    /// `(txid, row)` pair ahead of the gallop made its snapshots about
    /// 6 % slower in a micro-benchmark.
    pub(crate) fn merged_by<C>(
        prev: &MempoolSnapshot,
        time: Timestamp,
        changes: &[C],
        txid_of: impl Fn(&C) -> Txid,
        mut row_of: impl FnMut(&C) -> Option<SnapshotEntry>,
    ) -> Option<MempoolSnapshot> {
        let last = prev.listing.as_ref()?;
        let next_ref = last.next_ref();
        let mut vsize = prev.vsize;
        let mut batch: Vec<SnapshotEntry> = Vec::new();
        let mut dropped: Vec<u32> = Vec::new();
        let mut refs: Vec<u32> = Vec::with_capacity(last.refs.len());
        let mut rest: &[u32] = &last.refs;
        let mut after: Option<Txid> = None;
        for change in changes {
            let txid = txid_of(change);
            if after.is_some_and(|t| t >= txid) {
                return None;
            }
            after = Some(txid);
            // Copy the unchanged run before `txid`, then drop its old rows.
            let run = gallop(rest, |r| last.row(r).txid < txid);
            refs.extend_from_slice(&rest[..run]);
            rest = &rest[run..];
            while let Some((&r, tail)) = rest.split_first() {
                if last.row(r).txid != txid {
                    break;
                }
                vsize -= last.row(r).vsize;
                dropped.push(r);
                rest = tail;
            }
            if let Some(row) = row_of(change) {
                if row.txid != txid {
                    return None;
                }
                vsize += row.vsize;
                refs.push(next_ref + batch.len() as u32);
                batch.push(row);
            }
        }
        if batch.is_empty() && dropped.is_empty() {
            // Nothing changed: share `prev`'s listing, as an unchanged
            // view's consecutive snapshots do, rather than restart a store
            // that a merge has yet to grow.
            return Some(MempoolSnapshot::detailed(time, last.clone(), vsize));
        }
        refs.extend_from_slice(rest);
        let chunks = last.chunks.iter().cloned().chain(batch.chunks(CHUNK_ROWS).map(Arc::from));
        let mut listing = Listing {
            chunks: chunks.collect(),
            refs: refs.into(),
            id: next_listing(),
            parent: last.id,
            fresh_from: next_ref,
            dropped: dropped.into(),
        };
        if listing.slots() > STORE_SLOTS_PER_ROW * listing.refs.len() {
            let rows: Vec<SnapshotEntry> = listing.iter().copied().collect();
            listing = Listing::fresh(&rows);
        }
        Some(MempoolSnapshot::detailed(time, listing, vsize))
    }

    /// Builds a detailed snapshot over a listing whose aggregate vsize the
    /// caller has tracked.
    fn detailed(time: Timestamp, listing: Listing, vsize: u64) -> MempoolSnapshot {
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

    /// This snapshot's delta from `prev`, the snapshot it was merged from
    /// ([`MempoolSnapshot::merged`]): each txid whose rows differ, in
    /// ascending order, with its row here, or `None` where it left.
    /// Applying the delta to `prev` with [`MempoolSnapshot::merged`] gives
    /// this snapshot's rows. Costs O(changes), from the rows written for
    /// this snapshot and the references it dropped; snapshots that share
    /// one listing (an unchanged pool) have an empty delta.
    ///
    /// `None` unless this snapshot was merged from `prev`: a snapshot
    /// built from rows, one whose merge restarted its store, a truncation
    /// cut (which lists only part of what it was cut from) and any other
    /// snapshot's successor have no delta from `prev`, nor does a light
    /// snapshot.
    pub fn delta_from(&self, prev: &MempoolSnapshot) -> Option<Vec<(Txid, Option<SnapshotEntry>)>> {
        let (listing, before) = (self.listing.as_ref()?, prev.listing.as_ref()?);
        if self.truncated {
            return None;
        }
        if listing.id == before.id {
            return Some(Vec::new());
        }
        if listing.parent != before.id {
            return None;
        }
        let mut written = listing.written().peekable();
        let mut delta: Vec<(Txid, Option<SnapshotEntry>)> =
            Vec::with_capacity(listing.dropped.len());
        for &r in listing.dropped.iter() {
            let txid = listing.row(r).txid;
            while let Some(row) = written.next_if(|w| w.txid < txid) {
                delta.push((row.txid, Some(*row)));
            }
            // `prev` may list a txid more than once; its rows drop together.
            if delta.last().is_some_and(|(t, _)| *t == txid) {
                continue;
            }
            delta.push((txid, written.next_if(|w| w.txid == txid).copied()));
        }
        delta.extend(written.map(|row| (row.txid, Some(*row))));
        Some(delta)
    }

    /// A forward cursor over this snapshot's rows, for looking up
    /// ascending txids; empty for a light snapshot.
    pub fn cursor(&self) -> RowCursor<'_> {
        match &self.listing {
            Some(listing) => RowCursor { chunks: &listing.chunks, rest: &listing.refs },
            None => RowCursor { chunks: &[], rest: &[] },
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

    /// The slots of the row store this snapshot lists from; 0 when light.
    #[cfg(test)]
    pub(crate) fn store_slots(&self) -> usize {
        self.listing.as_ref().map_or(0, Listing::slots)
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

/// A forward cursor over a detailed snapshot's rows
/// ([`MempoolSnapshot::cursor`]). Looking up ascending txids, it gallops
/// from the last one found, so a sorted run of lookups costs O(log gap)
/// each, not a search of every row.
#[derive(Clone, Debug)]
pub struct RowCursor<'a> {
    chunks: &'a [Arc<[SnapshotEntry]>],
    /// The references not yet passed, in listing order.
    rest: &'a [u32],
}

impl<'a> RowCursor<'a> {
    /// The rows listed for `txid`, in listing order (none, one, or more
    /// in a snapshot built from rows that repeat it), and moves past them.
    /// A txid below one sought before finds nothing.
    pub fn seek(&mut self, txid: &Txid) -> impl Iterator<Item = &'a SnapshotEntry> + 'a {
        let (chunks, rest) = (self.chunks, self.rest);
        let from = gallop(rest, |r| row_at(chunks, r).txid < *txid);
        let len = rest[from..].iter().take_while(|&&r| row_at(chunks, r).txid == *txid).count();
        self.rest = &rest[from + len..];
        rest[from..from + len].iter().map(move |&r| row_at(chunks, r))
    }
}

/// The number of leading `refs` whose row is `below` the target, found by
/// galloping from the front: probes at 1, 2, 4, … references bracket the
/// answer, and a binary search settles it inside the bracket. A merge
/// whose sorted changes land a short run apart pays O(log run) per
/// change, not a search of everything left.
fn gallop(refs: &[u32], below: impl Fn(u32) -> bool) -> usize {
    let mut bound = 1;
    while bound <= refs.len() && below(refs[bound - 1]) {
        bound *= 2;
    }
    let start = bound / 2;
    start + refs[start..bound.min(refs.len())].partition_point(|&r| below(r))
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
        let snap =
            MempoolSnapshot::from_entries(15, (1..=10).map(|i| entry(i, 100, 1_000)).collect());
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
        let snap =
            MempoolSnapshot::from_entries(15, (1..=4).map(|i| entry(i, 100, 1_000)).collect());
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

    fn change(seed: u8, row: Option<SnapshotEntry>) -> (Txid, Option<SnapshotEntry>) {
        (Txid::from([seed; 32]), row)
    }

    #[test]
    fn a_merge_names_its_delta_and_shares_its_unchanged_rows() {
        // 200 rows: a merge appends a chunk without outgrowing the store.
        let rows = (1..=200).map(|i| entry(i, 100, 1_000)).collect();
        let a = MempoolSnapshot::from_entries(10, rows);
        let changes = vec![
            change(3, None),
            change(5, Some(entry(5, 200, 3_000))),
            change(201, None), // drops nothing and writes nothing
            change(210, Some(entry(210, 100, 500))),
        ];
        let b = MempoolSnapshot::merged(&a, 20, &changes).expect("sorted changes");
        assert_eq!((b.time, b.len(), b.total_vsize()), (20, 200, 200 * 100 + 100));
        let delta = b.delta_from(&a).expect("b was merged from a");
        assert_eq!(delta, vec![changes[0], changes[1], changes[3]]);
        // The delta applied to `a` gives `b`, over `a`'s stored rows.
        let applied = MempoolSnapshot::merged(&a, 20, &delta).expect("a delta is sorted");
        assert_eq!(applied, b);
        let stored: HashSet<*const SnapshotEntry> = a.rows().map(|r| r as _).collect();
        let shared = applied.rows().filter(|&r| stored.contains(&(r as *const _))).count();
        assert_eq!(shared, 198, "every row the delta does not name is a's");
        // Each stored row is visited once: a's, then b's two written rows.
        let mut visited = 0;
        MempoolSnapshot::visit_stored_rows(&[a.clone(), b.clone()], |_| visited += 1);
        assert_eq!(visited, 202);

        // A merge that changes nothing shares the listing: an empty delta.
        let same = MempoolSnapshot::merged(&b, 30, &[change(201, None)]).expect("sorted");
        assert!(same.shares_rows_with(&b));
        assert_eq!(same.delta_from(&b), Some(Vec::new()));
        assert_eq!(b.delta_from(&b.clone()), Some(Vec::new()));

        // No lineage, no delta.
        let copy = MempoolSnapshot::from_entries(20, b.rows().copied().collect());
        assert_eq!(copy.delta_from(&a), None, "built from rows");
        assert_eq!(b.truncate_detail(0.5).delta_from(&a), None, "a truncation cut");
        assert_eq!(b.truncate_detail(1.0).delta_from(&a), None, "a cut keeping every row");
        assert_eq!(a.delta_from(&b), None, "the wrong way round");
        let sibling = MempoolSnapshot::merged(&a, 20, &[change(7, None)]).expect("sorted");
        assert_eq!(b.delta_from(&sibling), None, "a non-predecessor");
        let light = MempoolSnapshot::light(20, 200, 20_000);
        assert_eq!(light.delta_from(&a), None);
        assert_eq!(b.delta_from(&light), None);
    }

    #[test]
    fn a_merge_refuses_unsorted_changes_and_a_light_base() {
        let a = MempoolSnapshot::from_entries(10, (1..=8).map(|i| entry(i, 100, 1_000)).collect());
        let merge =
            |changes: &[(Txid, Option<SnapshotEntry>)]| MempoolSnapshot::merged(&a, 20, changes);
        assert!(merge(&[change(5, None), change(3, None)]).is_none(), "descending");
        assert!(merge(&[change(5, None), change(5, None)]).is_none(), "repeated");
        assert!(merge(&[change(5, Some(entry(6, 100, 1)))]).is_none(), "a row under another txid");
        assert!(MempoolSnapshot::merged(&MempoolSnapshot::light(10, 8, 800), 20, &[]).is_none());
        // The same changes in order merge.
        let b = merge(&[change(3, None), change(5, None)]).expect("ascending");
        assert_eq!(b.rows().map(|r| r.txid).collect::<Vec<_>>(), {
            [1u8, 2, 4, 6, 7, 8].map(|i| Txid::from([i; 32])).to_vec()
        });
    }

    #[test]
    fn a_merge_drops_every_row_of_a_repeated_txid() {
        let mut rows: Vec<SnapshotEntry> = (1..=200).map(|i| entry(i, 100, 1)).collect();
        rows.push(entry(2, 300, 2));
        let a = MempoolSnapshot::from_entries(10, rows);
        let b =
            MempoolSnapshot::merged(&a, 20, &[change(2, Some(entry(2, 50, 5)))]).expect("sorted");
        assert_eq!((b.len(), b.total_vsize()), (200, 199 * 100 + 50));
        // The delta names the txid once; a cursor finds both of a's rows.
        assert_eq!(b.delta_from(&a), Some(vec![change(2, Some(entry(2, 50, 5)))]));
        let mut cursor = b.cursor();
        assert_eq!(cursor.seek(&Txid::from([2; 32])).map(|r| r.vsize).collect::<Vec<_>>(), [50]);
        let mut cursor = a.cursor();
        assert_eq!(cursor.seek(&Txid::from([2; 32])).count(), 2);
        assert_eq!(cursor.seek(&Txid::from([3; 32])).count(), 1);
        assert_eq!(cursor.seek(&Txid::from([1; 32])).count(), 0, "behind the cursor");
        let light = MempoolSnapshot::light(10, 1, 1);
        assert_eq!(light.cursor().seek(&Txid::from([1; 32])).count(), 0);
    }

    #[test]
    fn truncating_light_snapshot_is_identity() {
        let light = MempoolSnapshot::light(30, 100, 50_000);
        let cut = light.truncate_detail(0.2);
        assert_eq!(cut, light);
        assert!(!cut.is_truncated());
    }
}
