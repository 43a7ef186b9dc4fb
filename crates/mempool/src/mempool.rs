//! The Mempool proper: acceptance, package linkage, block connect, and
//! the orders its readers ask for.
//!
//! Residents live in a slab arena: admission interns the txid to a dense
//! `u32` handle, and every internal structure (parent/child adjacency,
//! ancestry walks, the conflict map) operates on handles instead of
//! re-hashing 32-byte txids. The txid-keyed maps that remain (`lookup`,
//! `spent`) use the digest-prefix hasher from [`cn_chain::fasthash`], the
//! same trick as Bitcoin Core's `SaltedTxidHasher`.
//!
//! Each entry caches its ancestor and descendant package scores in every
//! pool. Admission and removal keep neither the assembler's order nor the
//! snapshot rows current: [`Mempool::anc_keys_best_first`] heapifies the
//! cached ancestor scores on each call, and [`Mempool::snapshot`] merges
//! the rows changed since the previous snapshot into that snapshot's
//! listing, writing only those rows into the view's row store.
//! The one kept index is the `-maxmempool` eviction order, which the first
//! [`Mempool::limit_size`] over the cap builds and every later mutation
//! keeps sorted.

use crate::entry::{AdmissionPrecheck, MempoolEntry};
use crate::policy::MempoolPolicy;
use crate::snapshot::{MempoolSnapshot, SnapshotEntry};
use cn_chain::{Amount, Block, FastMap, FeeRate, OutPoint, Timestamp, Transaction, Txid};
use std::cmp::{Ordering, Reverse};
use std::collections::{BTreeSet, BinaryHeap};
use std::fmt;
use std::sync::Arc;

/// Why a transaction was refused admission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AcceptError {
    /// Already in the pool.
    Duplicate,
    /// Fee rate below the policy floor (norm III).
    BelowMinFeeRate {
        /// The transaction's fee rate.
        offered: FeeRate,
        /// The policy floor.
        floor: FeeRate,
    },
    /// Spends an outpoint another in-pool transaction already spends.
    Conflict {
        /// The contested outpoint.
        outpoint: OutPoint,
        /// The in-pool transaction spending it.
        existing: Txid,
    },
    /// The in-pool ancestor package would exceed the policy depth limit.
    TooManyAncestors,
    /// An ancestor's descendant set would exceed the policy limit.
    TooManyDescendants,
}

impl fmt::Display for AcceptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AcceptError::Duplicate => write!(f, "transaction already in mempool"),
            AcceptError::BelowMinFeeRate { offered, floor } => {
                write!(f, "fee rate {offered} below floor {floor}")
            }
            AcceptError::Conflict { outpoint, existing } => {
                write!(f, "conflicts with {existing} over {}:{}", outpoint.txid, outpoint.vout)
            }
            AcceptError::TooManyAncestors => write!(f, "ancestor package too deep"),
            AcceptError::TooManyDescendants => write!(f, "descendant package too large"),
        }
    }
}

impl std::error::Error for AcceptError {}

/// Fee-rate sort key for [`Mempool::iter_by_fee_rate_desc`]: highest fee
/// rate first, FIFO arrival order within ties (the arrival sequence is
/// unique per pool, so the order is total without a txid tie-break).
type RateKey = (FeeRate, Reverse<u64>, u32);

/// A dense per-pool transaction handle: the slab index a resident was
/// interned at on admission. Valid until that transaction leaves the pool
/// (slots are recycled, so never hold one across a remove).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TxHandle(u32);

impl TxHandle {
    /// The slab index, for handle-indexed scratch arrays.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Ancestor-package score key, ordered exactly like the assembler ranks
/// candidates: cross-multiplied package fee rate, then smaller package,
/// then earlier arrival, then txid. The greatest key is the best
/// candidate, so [`Mempool::anc_keys_best_first`] pops keys from a
/// max-heap in the order `GetBlockTemplate`'s selection loop wants them.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AncKey {
    /// Saturating fixed-point package rate, `floor(fee << 32 / vsize)`:
    /// a compare-first approximation of the exact cross-multiplied rate.
    /// `floor` (and saturation) are monotone, so `approx_a < approx_b`
    /// implies the exact rates compare the same way; only equal
    /// approximations fall through to the exact comparison. Most heap
    /// comparisons therefore resolve on one integer compare instead of
    /// two 128-bit multiplications.
    pub approx: u64,
    /// Ancestor-package fee in satoshis when the key was taken.
    pub fee: u64,
    /// Ancestor-package virtual size.
    pub vsize: u64,
    /// Arrival sequence (unique per pool — makes the order total).
    pub seq: u64,
    /// The transaction this key scores.
    pub txid: Txid,
    /// Its slab handle, so key consumers skip the txid lookup.
    pub handle: TxHandle,
}

impl AncKey {
    /// The monotone fixed-point rate prefix for (`fee`, `vsize`).
    pub fn approx_rate(fee: u64, vsize: u64) -> u64 {
        (((fee as u128) << 32) / vsize.max(1) as u128).min(u64::MAX as u128) as u64
    }
}

impl Ord for AncKey {
    fn cmp(&self, other: &Self) -> Ordering {
        self.approx
            .cmp(&other.approx)
            .then_with(|| {
                let lhs = self.fee as u128 * other.vsize as u128;
                let rhs = other.fee as u128 * self.vsize as u128;
                lhs.cmp(&rhs)
            })
            // Smaller packages first among equal rates (Core's heuristic).
            .then_with(|| other.vsize.cmp(&self.vsize))
            // Earlier arrival wins: greater-is-better, so compare reversed.
            .then_with(|| other.seq.cmp(&self.seq))
            .then_with(|| self.txid.cmp(&other.txid))
            .then_with(|| self.handle.cmp(&other.handle))
    }
}

impl PartialOrd for AncKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A Bitcoin-Core-style memory pool.
///
/// ```
/// use cn_mempool::{Mempool, MempoolPolicy};
/// use cn_chain::{Address, Amount, Transaction, TxOut};
///
/// let mut pool = Mempool::new(MempoolPolicy::default());
/// let tx = Transaction::builder()
///     .add_input_with_sizes([1u8; 32].into(), 0, 107, 0)
///     .add_output(TxOut::to_address(Amount::from_sat(50_000), Address::from_label("r")))
///     .build();
/// let fee = Amount::from_sat(tx.vsize() * 10); // 10 sat/vB
/// let txid = pool.add(tx, fee, 0).expect("above the relay floor");
/// assert!(pool.contains(&txid));
/// assert_eq!(pool.iter_by_fee_rate_desc().next().unwrap().txid(), txid);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Mempool {
    policy: MempoolPolicy,
    /// Txid → slab handle. The only per-touch txid hash on the hot path.
    lookup: FastMap<Txid, u32>,
    /// The intern arena. `None` slots are free and listed in `free`.
    slots: Vec<Option<MempoolEntry>>,
    free: Vec<u32>,
    /// In-pool spends, for conflict detection and confirmed-conflict eviction.
    spent: FastMap<OutPoint, u32>,
    /// Descendant-package fee rate index — the `-maxmempool` eviction
    /// order. Built by the first [`Mempool::limit_size`] that finds the
    /// pool over its cap, kept sorted by every mutation after.
    by_desc_rate: Option<BTreeSet<(FeeRate, Txid)>>,
    /// The last detailed snapshot, sharing its rows: the next one is
    /// merged from it.
    snapshot_cache: Option<MempoolSnapshot>,
    /// Txids admitted, removed or re-flagged since that snapshot, unsorted
    /// and possibly repeated: the rows the next snapshot merges in. Kept
    /// only while `snapshot_cache` is set; see [`Mempool::row_changed`].
    changed_rows: Vec<Txid>,
    total_vsize: u64,
    next_sequence: u64,
}

// Node views run inside whole worlds on `cn_stats::Pool` workers, and a
// checkpoint shared by those workers clones its views into each fork.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Mempool>();
};

impl Mempool {
    /// Creates an empty pool with the given policy.
    pub fn new(policy: MempoolPolicy) -> Mempool {
        Mempool { policy, ..Mempool::default() }
    }

    /// Number of resident transactions.
    pub fn len(&self) -> usize {
        self.lookup.len()
    }

    /// True when the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.lookup.is_empty()
    }

    /// Aggregate virtual size of all residents, in vbytes — the paper's
    /// "Mempool size" congestion signal.
    pub fn total_vsize(&self) -> u64 {
        self.total_vsize
    }

    /// The live entry at slab index `h` (panics on a dead handle).
    fn slot(&self, h: u32) -> &MempoolEntry {
        self.slots[h as usize].as_ref().expect("live handle")
    }

    fn slot_mut(&mut self, h: u32) -> &mut MempoolEntry {
        self.slots[h as usize].as_mut().expect("live handle")
    }

    fn handle(&self, txid: &Txid) -> Option<u32> {
        self.lookup.get(txid).copied()
    }

    /// Looks up a resident entry.
    pub fn get(&self, txid: &Txid) -> Option<&MempoolEntry> {
        self.handle(txid).map(|h| self.slot(h))
    }

    /// True when `txid` is resident.
    pub fn contains(&self, txid: &Txid) -> bool {
        self.lookup.contains_key(txid)
    }

    /// The slab handle `txid` was interned at, if resident.
    pub fn handle_of(&self, txid: &Txid) -> Option<TxHandle> {
        self.handle(txid).map(TxHandle)
    }

    /// The entry behind a live handle.
    pub fn entry_at(&self, h: TxHandle) -> &MempoolEntry {
        self.slot(h.0)
    }

    /// Slab capacity (one past the largest handle index ever issued) —
    /// the size handle-indexed scratch arrays need.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Direct resident parents of a live handle.
    pub fn parent_handles(&self, h: TxHandle) -> impl Iterator<Item = TxHandle> + '_ {
        self.slot(h.0).parents.iter().map(|&p| TxHandle(p))
    }

    /// Direct resident children of a live handle.
    pub fn child_handles(&self, h: TxHandle) -> impl Iterator<Item = TxHandle> + '_ {
        self.slot(h.0).children.iter().map(|&c| TxHandle(c))
    }

    /// Every resident's key at its cached ancestor score, best-first — the
    /// order the assembler's selection walk reads. Each call heapifies the
    /// keys (O(n)) and each step pops one (O(log n)), so a walk that stops
    /// once the block is full never orders the rest.
    pub fn anc_keys_best_first(&self) -> impl Iterator<Item = AncKey> {
        let mut heap: BinaryHeap<AncKey> = self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(h, s)| s.as_ref().map(|e| Self::anc_key(e, h as u32)))
            .collect();
        std::iter::from_fn(move || heap.pop())
    }

    /// Smallest resident transaction weight.
    ///
    /// One dense slab scan per call (weights are cached on the
    /// transaction, so each slot is a pointer chase, not a recompute).
    /// The assembler asks once per template — tens of scans per simulated
    /// hour — which is far cheaper than the sorted multiset this used to
    /// maintain across every admission and eviction on the hot path.
    pub fn min_tx_weight(&self) -> Option<u64> {
        self.slots.iter().flatten().map(|e| e.tx().weight()).min()
    }

    /// Attempts to admit `tx` with externally computed `fee` at time `now`.
    pub fn add(
        &mut self,
        tx: Transaction,
        fee: Amount,
        now: Timestamp,
    ) -> Result<Txid, AcceptError> {
        self.add_shared(Arc::new(tx), fee, now)
    }

    /// Like [`Mempool::add`], but takes a shared transaction handle so
    /// several node views can admit the same transaction without copying it.
    pub fn add_shared(
        &mut self,
        tx: Arc<Transaction>,
        fee: Amount,
        now: Timestamp,
    ) -> Result<Txid, AcceptError> {
        let pre = AdmissionPrecheck::of(&tx, fee);
        self.add_prechecked(tx, fee, now, &pre)
    }

    /// Like [`Mempool::add_shared`], but consumes a shared
    /// [`AdmissionPrecheck`]: the node-independent admission prefix (txid,
    /// vsize, standalone rate, distinct prevout txids) computed once per
    /// transaction by the relay layer and reused by every receiving node,
    /// instead of recomputed per (tx, node).
    pub fn add_prechecked(
        &mut self,
        tx: Arc<Transaction>,
        fee: Amount,
        now: Timestamp,
        pre: &AdmissionPrecheck,
    ) -> Result<Txid, AcceptError> {
        let txid = pre.txid;
        if self.lookup.contains_key(&txid) {
            return Err(AcceptError::Duplicate);
        }
        let rate = pre.rate;
        if let Some(floor) = self.policy.min_fee_rate {
            if rate < floor {
                return Err(AcceptError::BelowMinFeeRate { offered: rate, floor });
            }
        }
        for input in tx.inputs() {
            if let Some(&existing) = self.spent.get(&input.prevout) {
                return Err(AcceptError::Conflict {
                    outpoint: input.prevout,
                    existing: self.slot(existing).txid(),
                });
            }
        }
        // Package limits against in-pool ancestors. The resident subset of
        // the precheck's distinct prevout txids, in precheck order, is
        // exactly the parent set the per-input scan used to rebuild; most
        // transactions have none, and then nothing is allocated.
        let parents: Vec<u32> =
            pre.parent_txids.iter().filter_map(|ptxid| self.lookup.get(ptxid).copied()).collect();
        let ancestors: Vec<u32> = if parents.is_empty() {
            Vec::new()
        } else {
            self.closure_including(&parents, Link::Parents)
        };
        if !parents.is_empty() {
            if ancestors.len() >= self.policy.max_ancestors {
                return Err(AcceptError::TooManyAncestors);
            }
            for &ancestor in &ancestors {
                // O(1) via the maintained descendant-package cardinality:
                // desc_count counts the ancestor plus its descendants, the
                // same quantity the closure walk here used to recount.
                if self.slot(ancestor).desc_count as usize >= self.policy.max_descendants {
                    return Err(AcceptError::TooManyDescendants);
                }
            }
        }

        let sequence = self.next_sequence;
        self.next_sequence += 1;
        let vsize = pre.vsize;
        self.total_vsize += vsize;

        let mut entry = MempoolEntry::new(tx, fee, now, sequence);
        entry.parents = parents;
        let h = match self.free.pop() {
            Some(h) => {
                self.slots[h as usize] = Some(entry);
                h
            }
            None => {
                self.slots.push(Some(entry));
                (self.slots.len() - 1) as u32
            }
        };
        self.lookup.insert(txid, h);
        for input in self.slots[h as usize].as_ref().expect("just interned").tx().inputs() {
            self.spent.insert(input.prevout, h);
        }
        for i in 0..self.slot(h).parents.len() {
            let p = self.slot(h).parents[i];
            self.slot_mut(p).children.push(h);
        }
        // P2P paths can deliver a child before its parent; if any resident
        // transaction already spends one of this transaction's outputs,
        // reconstruct the parent→child edge now, once per child however
        // many of the outputs it spends.
        let mut reconnected = false;
        let out_count = self.slot(h).tx().outputs().len() as u32;
        for vout in 0..out_count {
            let Some(&c) = self.spent.get(&OutPoint::new(txid, vout)) else { continue };
            if self.slot(h).children.contains(&c) {
                continue;
            }
            self.slot_mut(h).children.push(c);
            let child = self.slot_mut(c);
            child.parents.push(h);
            if child.parents.len() == 1 {
                // The child's CPFP flag just turned on.
                let child_txid = child.txid();
                self.row_changed(child_txid);
            }
            reconnected = true;
        }
        let entry = self.slots[h as usize].as_ref().expect("just interned");
        if let Some(index) = &mut self.by_desc_rate {
            index.insert(Self::desc_key(entry, txid));
        }
        self.row_changed(txid);
        if reconnected {
            // Rare out-of-order arrival: the new transaction gained resident
            // descendants, so the incremental deltas below don't apply.
            // Recompute the affected neighbourhood from the graph.
            self.rescore_around(h);
        } else {
            let fee_sat = fee.to_sat();
            let mut anc_fee = fee_sat;
            let mut anc_vsize = vsize;
            for &a in &ancestors {
                let e = self.slot(a);
                anc_fee += e.fee().to_sat();
                anc_vsize += e.vsize();
            }
            self.set_anc_score(h, anc_fee, anc_vsize);
            for &a in &ancestors {
                self.shift_desc_score(a, fee_sat as i128, vsize as i128, 1);
            }
        }
        Ok(txid)
    }

    /// Notes that `txid`'s snapshot row appeared, vanished or changed its
    /// CPFP flag, if a snapshot's rows are cached for the next one to merge
    /// it into. Once more rows changed than the pool holds, merging would
    /// cost more than sorting the slab, so the cache is dropped instead.
    fn row_changed(&mut self, txid: Txid) {
        if self.snapshot_cache.is_none() {
            return;
        }
        self.changed_rows.push(txid);
        if self.changed_rows.len() > self.len() {
            self.snapshot_cache = None;
            self.changed_rows.clear();
        }
    }

    /// The ancestor-score key of the entry at `h`, at its cached score.
    fn anc_key(entry: &MempoolEntry, h: u32) -> AncKey {
        AncKey {
            approx: AncKey::approx_rate(entry.anc_fee, entry.anc_vsize),
            fee: entry.anc_fee,
            vsize: entry.anc_vsize,
            seq: entry.sequence(),
            txid: entry.txid(),
            handle: TxHandle(h),
        }
    }

    /// Sets the entry's cached ancestor-package totals.
    fn set_anc_score(&mut self, h: u32, fee_sat: u64, vsize: u64) {
        let Some(entry) = self.slots[h as usize].as_mut() else { return };
        entry.anc_fee = fee_sat;
        entry.anc_vsize = vsize;
    }

    /// The descendant-package index key currently stored for `txid`.
    fn desc_key(entry: &MempoolEntry, txid: Txid) -> (FeeRate, Txid) {
        (FeeRate::from_fee_and_vsize(Amount::from_sat(entry.desc_fee), entry.desc_vsize), txid)
    }

    /// Applies a delta to the descendant-package totals (and cardinality)
    /// at `h`, re-keying the eviction index if it is built.
    fn shift_desc_score(&mut self, h: u32, dfee: i128, dvsize: i128, dcount: i64) {
        let Some(entry) = self.slots[h as usize].as_ref() else { return };
        let fee = (entry.desc_fee as i128 + dfee).max(0) as u64;
        let vsize = (entry.desc_vsize as i128 + dvsize).max(0) as u64;
        let count = (entry.desc_count as i64 + dcount).max(0) as u32;
        self.set_desc_score(h, fee, vsize, count);
    }

    /// Recomputes the descendant-package totals at `h` from the graph and
    /// re-keys the eviction index if it is built.
    fn recompute_desc_score(&mut self, h: u32) {
        let (fee, vsize, count) = self.compute_descendant_package_counted_h(h);
        self.set_desc_score(h, fee.to_sat(), vsize, count);
    }

    /// Sets the descendant-package totals at `h`, re-keying the eviction
    /// index if it is built.
    fn set_desc_score(&mut self, h: u32, fee_sat: u64, vsize: u64, count: u32) {
        let Some(entry) = self.slots[h as usize].as_mut() else { return };
        let old_key = Self::desc_key(entry, entry.txid());
        entry.desc_fee = fee_sat;
        entry.desc_vsize = vsize;
        entry.desc_count = count;
        if let Some(index) = &mut self.by_desc_rate {
            let new_key = Self::desc_key(entry, old_key.1);
            if new_key != old_key {
                index.remove(&old_key);
                index.insert(new_key);
            }
        }
    }

    /// Recomputes the cached package scores around `h` from the graph:
    /// ancestor scores for the entry and its descendants, descendant scores
    /// for the entry and its ancestors. Only needed on the rare
    /// child-before-parent reconnect.
    fn rescore_around(&mut self, h: u32) {
        let mut down = self.descendants_h(h);
        down.push(h);
        for d in down {
            let (fee, vsize) = self.compute_ancestor_package_h(d);
            self.set_anc_score(d, fee.to_sat(), vsize);
        }
        let mut up = self.ancestors_h(h);
        up.push(h);
        for a in up {
            self.recompute_desc_score(a);
        }
    }

    /// Removes one transaction (no descendant handling); returns the entry.
    /// Package scores of survivors are the *caller's* responsibility — see
    /// [`Mempool::apply_block`] and [`Mempool::remove_with_descendants`].
    fn remove_single_h(&mut self, h: u32) -> Option<MempoolEntry> {
        let entry = self.slots[h as usize].take()?;
        let txid = entry.txid();
        self.lookup.remove(&txid);
        self.free.push(h);
        if let Some(index) = &mut self.by_desc_rate {
            index.remove(&Self::desc_key(&entry, txid));
        }
        self.row_changed(txid);
        self.total_vsize -= entry.vsize();
        for input in entry.tx().inputs() {
            self.spent.remove(&input.prevout);
        }
        for &p in &entry.parents {
            if let Some(pe) = self.slots[p as usize].as_mut() {
                pe.children.retain(|&c| c != h);
            }
        }
        // Direct children lost a resident parent; drop the edge and
        // refresh their CPFP flag.
        for &c in &entry.children {
            let Some(ce) = self.slots[c as usize].as_mut() else { continue };
            ce.parents.retain(|&p| p != h);
            if ce.parents.is_empty() {
                let child_txid = ce.txid();
                self.row_changed(child_txid);
            }
        }
        Some(entry)
    }

    /// Removes `txid` and every in-pool descendant (used when a transaction
    /// is evicted or conflicted away — its children can no longer be mined).
    pub fn remove_with_descendants(&mut self, txid: &Txid) -> Vec<MempoolEntry> {
        let Some(h) = self.handle(txid) else { return Vec::new() };
        let mut order = self.descendants_h(h);
        order.push(h);
        // The whole subtree leaves together, so no survivor loses an
        // ancestor (a survivor descending from a removed tx would itself be
        // in the subtree). Survivors that are ancestors of removed members
        // shed them from their descendant packages; subtract each removed
        // member from its out-of-subtree ancestors before edges disappear.
        for &r in &order {
            let (fee, vsize) = {
                let e = self.slot(r);
                (e.fee().to_sat(), e.vsize())
            };
            for a in self.ancestors_h(r) {
                if !order.contains(&a) {
                    self.shift_desc_score(a, -(fee as i128), -(vsize as i128), -1);
                }
            }
        }
        let mut removed = Vec::with_capacity(order.len());
        for t in order {
            if let Some(e) = self.remove_single_h(t) {
                removed.push(e);
            }
        }
        removed
    }

    /// Connects a block: removes confirmed transactions and evicts any pool
    /// transaction (plus descendants) that conflicts with a confirmed spend.
    /// Returns `(confirmed_count, conflicted_count)`.
    ///
    /// One pass over the resident confirmed set marks it and seeds two
    /// walks: its surviving direct children, and its surviving direct
    /// parents. The set then leaves together, and each walk extends its
    /// seeds through survivors only, deduplicated by the marks. A survivor
    /// that lost an ancestor descends from a surviving direct child (the
    /// last confirmed member on its path), and one that lost a descendant
    /// is, or is an ancestor of, a surviving direct parent (only on
    /// out-of-order arrivals: valid blocks confirm parents first). So the
    /// walks reach exactly the survivors whose packages lost a member, and
    /// each is rescored once, however many members it lost; descendants
    /// that confirm in the same block are never walked. A valid block
    /// cannot confirm a descendant of a transaction it conflicts out (the
    /// descendant's input would be unspendable), so deferring the conflict
    /// scan behind the batched confirm leaves the final pool state, and
    /// both counts, exactly what removing one member at a time produced.
    pub fn apply_block(&mut self, block: &Block) -> (usize, usize) {
        let confirmed_h: Vec<u32> =
            block.body().iter().filter_map(|tx| self.handle(&tx.txid())).collect();
        let confirmed = confirmed_h.len();
        if confirmed > 0 {
            let mut marks = vec![0u8; self.slots.len()];
            for &h in &confirmed_h {
                marks[h as usize] = CONFIRMED;
            }
            let (mut down, mut up) = (Vec::new(), Vec::new());
            for &h in &confirmed_h {
                let entry = self.slot(h);
                for &c in &entry.children {
                    mark_once(&mut marks, c, LOST_ANCESTOR, &mut down);
                }
                for &p in &entry.parents {
                    mark_once(&mut marks, p, LOST_DESCENDANT, &mut up);
                }
            }
            for &h in &confirmed_h {
                self.remove_single_h(h);
            }
            // The confirmed members' edges are gone, so neither walk can
            // step back into the set.
            self.close_marked(&mut down, &mut marks, LOST_ANCESTOR, Link::Children);
            self.close_marked(&mut up, &mut marks, LOST_DESCENDANT, Link::Parents);
            for d in down {
                let (fee, vsize) = self.compute_ancestor_package_h(d);
                self.set_anc_score(d, fee.to_sat(), vsize);
            }
            for a in up {
                self.recompute_desc_score(a);
            }
        }
        // A confirmed spend of an outpoint invalidates any other pool
        // transaction spending it.
        let mut conflicted = 0;
        for tx in block.body() {
            let txid = tx.txid();
            for input in tx.inputs() {
                if let Some(&rival) = self.spent.get(&input.prevout) {
                    let rival_txid = self.slot(rival).txid();
                    if rival_txid != txid {
                        conflicted += self.remove_with_descendants(&rival_txid).len();
                    }
                }
            }
        }
        (confirmed, conflicted)
    }

    /// Extends `queue`, whose handles are already marked `side`, to its
    /// closure along `link`, marking and queueing each new handle once.
    fn close_marked(&self, queue: &mut Vec<u32>, marks: &mut [u8], side: u8, link: Link) {
        let mut next = 0;
        while next < queue.len() {
            let entry = self.slot(queue[next]);
            next += 1;
            let linked = match link {
                Link::Parents => &entry.parents,
                Link::Children => &entry.children,
            };
            for &l in linked {
                mark_once(marks, l, side, queue);
            }
        }
    }

    /// Handle-level ancestor closure of `seeds` *including* the seeds
    /// (for [`Link::Parents`]) — the shape admission's package-limit check
    /// wants. Linear-scan dedup: package limits cap these sets at 25.
    fn closure_including(&self, seeds: &[u32], link: Link) -> Vec<u32> {
        let mut out: Vec<u32> = Vec::new();
        let mut stack: Vec<u32> = seeds.to_vec();
        while let Some(t) = stack.pop() {
            if out.contains(&t) {
                continue;
            }
            out.push(t);
            let entry = self.slot(t);
            let next = match link {
                Link::Parents => &entry.parents,
                Link::Children => &entry.children,
            };
            stack.extend_from_slice(next);
        }
        out
    }

    /// All in-pool ancestor handles of `h` (excluding itself).
    fn ancestors_h(&self, h: u32) -> Vec<u32> {
        self.closure_including(&self.slot(h).parents.clone(), Link::Parents)
    }

    /// All in-pool descendant handles of `h` (excluding itself).
    fn descendants_h(&self, h: u32) -> Vec<u32> {
        self.closure_including(&self.slot(h).children.clone(), Link::Children)
    }

    /// All in-pool ancestors of `txid` (excluding itself).
    pub fn ancestors(&self, txid: &Txid) -> Vec<Txid> {
        match self.handle(txid) {
            Some(h) => self.ancestors_h(h).into_iter().map(|a| self.slot(a).txid()).collect(),
            None => Vec::new(),
        }
    }

    /// All in-pool descendants of `txid` (excluding itself).
    pub fn descendants(&self, txid: &Txid) -> Vec<Txid> {
        match self.handle(txid) {
            Some(h) => self.descendants_h(h).into_iter().map(|d| self.slot(d).txid()).collect(),
            None => Vec::new(),
        }
    }

    /// Ancestor handles of a live handle (excluding itself).
    pub fn ancestor_handles(&self, h: TxHandle) -> Vec<TxHandle> {
        self.ancestors_h(h.0).into_iter().map(TxHandle).collect()
    }

    /// Descendant handles of a live handle (excluding itself).
    pub fn descendant_handles(&self, h: TxHandle) -> Vec<TxHandle> {
        self.descendants_h(h.0).into_iter().map(TxHandle).collect()
    }

    /// Walk-based descendant-package score and cardinality, for rescoring
    /// fallbacks and index-consistency checks.
    fn compute_descendant_package_counted_h(&self, h: u32) -> (Amount, u64, u32) {
        let entry = self.slot(h);
        let mut fee = entry.fee();
        let mut vsize = entry.vsize();
        let mut count: u32 = 1;
        for d in self.descendants_h(h) {
            let e = self.slot(d);
            fee += e.fee();
            vsize += e.vsize();
            count += 1;
        }
        (fee, vsize, count)
    }

    /// Evicts lowest-value packages until the pool fits in `max_vsize`
    /// virtual bytes — Bitcoin Core's `-maxmempool` behaviour. The victim
    /// each round is the transaction with the lowest descendant-package
    /// fee rate (ties by txid); it leaves together with its descendants.
    /// Returns the evicted txids in eviction order. A pool that fits its
    /// cap returns at once; otherwise each victim costs O(log n) via the
    /// descendant-rate index, which the first call over the cap builds from
    /// the cached descendant scores and later mutations keep sorted.
    pub fn limit_size(&mut self, max_vsize: u64) -> Vec<Txid> {
        if self.total_vsize <= max_vsize {
            return Vec::new();
        }
        self.by_desc_rate.get_or_insert_with(|| {
            self.slots.iter().flatten().map(|e| Self::desc_key(e, e.txid())).collect()
        });
        let mut evicted = Vec::new();
        while self.total_vsize > max_vsize {
            let Some(&(_, victim)) = self.by_desc_rate.as_ref().and_then(BTreeSet::first) else {
                break;
            };
            evicted.extend(self.remove_with_descendants(&victim).iter().map(|e| e.txid()));
        }
        evicted
    }

    /// Walk-based ancestor-package score, for rescoring fallbacks and
    /// index-consistency checks.
    fn compute_ancestor_package_h(&self, h: u32) -> (Amount, u64) {
        let entry = self.slot(h);
        let mut fee = entry.fee();
        let mut vsize = entry.vsize();
        for a in self.ancestors_h(h) {
            let e = self.slot(a);
            fee += e.fee();
            vsize += e.vsize();
        }
        (fee, vsize)
    }

    /// The detailed snapshot row for a resident entry.
    fn row(entry: &MempoolEntry) -> SnapshotEntry {
        SnapshotEntry {
            txid: entry.txid(),
            received: entry.received(),
            fee: entry.fee(),
            vsize: entry.vsize(),
            has_unconfirmed_parent: !entry.parents.is_empty(),
        }
    }

    /// Direct in-pool children of `txid` (one spending hop, not the full
    /// descendant closure).
    pub fn children_of(&self, txid: &Txid) -> impl Iterator<Item = Txid> + '_ {
        self.handle(txid)
            .into_iter()
            .flat_map(move |h| self.slot(h).children.iter().map(|&c| self.slot(c).txid()))
    }

    /// Whether `txid` has at least one in-pool ancestor (i.e. is the child
    /// part of a potential CPFP package).
    pub fn has_unconfirmed_parent(&self, txid: &Txid) -> bool {
        self.get(txid).map(|e| !e.parents.is_empty()).unwrap_or(false)
    }

    /// Iterates entries from highest to lowest fee rate (FIFO within ties).
    ///
    /// Sorts on demand: the pool no longer maintains a fee-rate index on
    /// the admission path, because the only hot consumer of rate order is
    /// the *top* rate ([`Mempool::top_fee_rate`]) and everything else
    /// (snapshot reports, benches, tests) tolerates an O(n log n) sort at
    /// call time. The order is the old maintained-index order exactly:
    /// rate descending, FIFO (arrival sequence) within equal rates.
    pub fn iter_by_fee_rate_desc(&self) -> impl Iterator<Item = &MempoolEntry> + '_ {
        let mut keys: Vec<RateKey> = self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(h, s)| {
                s.as_ref().map(|e| (e.fee_rate(), Reverse(e.sequence()), h as u32))
            })
            .collect();
        keys.sort_unstable_by(|a, b| b.cmp(a));
        keys.into_iter().map(move |(_, _, h)| self.slot(h))
    }

    /// The highest resident fee rate — the acceleration quote anchor.
    /// One dense scan; called per quote, not per admission.
    pub fn top_fee_rate(&self) -> Option<FeeRate> {
        self.slots.iter().flatten().map(|e| e.fee_rate()).max()
    }

    /// Iterates all entries in slab order (deterministic, not sorted).
    pub fn iter(&self) -> impl Iterator<Item = &MempoolEntry> + '_ {
        self.slots.iter().filter_map(|s| s.as_ref())
    }

    /// Records the pool's full state at `now` — one paper-style dataset
    /// row with per-transaction entries, txid-sorted and CPFP-flagged.
    ///
    /// The first call writes the slab's rows into a new row store in txid
    /// order. A later call merges the rows admitted, removed or re-flagged
    /// since the previous snapshot into that snapshot's rows, in its store
    /// ([`MempoolSnapshot::merged`], which also restarts a store that has
    /// outgrown the pool), so the view's snapshots share every unchanged
    /// row and each names its delta from the one before
    /// ([`MempoolSnapshot::delta_from`]). Consecutive snapshots of an
    /// unchanged pool share one listing. The snapshots already taken keep
    /// the chunks they list; nothing written is ever changed under them.
    pub fn snapshot(&mut self, now: Timestamp) -> MempoolSnapshot {
        let mut snap = match self.snapshot_cache.take() {
            Some(last) if self.changed_rows.is_empty() => last,
            Some(last) => self.merge_changed_rows(&last, now),
            None => {
                let mut rows: Vec<SnapshotEntry> = self.iter().map(Self::row).collect();
                rows.sort_unstable_by_key(|r| r.txid);
                MempoolSnapshot::from_rows_as_given(now, &rows)
            }
        };
        snap.time = now;
        self.snapshot_cache = Some(snap.clone());
        snap
    }

    /// `last` with each changed txid's row replaced by its current one, or
    /// dropped if it left the pool; empties the change list.
    fn merge_changed_rows(&mut self, last: &MempoolSnapshot, now: Timestamp) -> MempoolSnapshot {
        let mut changed = std::mem::take(&mut self.changed_rows);
        changed.sort_unstable();
        changed.dedup();
        let row_of = |txid: &Txid| self.handle(txid).map(|h| Self::row(self.slot(h)));
        let snap = MempoolSnapshot::merged_by(last, now, &changed, |txid| *txid, row_of)
            .expect("sorted, distinct changes");
        debug_assert_eq!(snap.total_vsize(), self.total_vsize);
        changed.clear();
        self.changed_rows = changed;
        snap
    }

    /// Records only the pool's aggregate state at `now` (count and total
    /// virtual size) — cheap enough for every 15-second tick of a
    /// year-scale run.
    pub fn snapshot_light(&self, now: Timestamp) -> MempoolSnapshot {
        MempoolSnapshot::light(now, self.len(), self.total_vsize)
    }
}

/// [`Mempool::apply_block`]'s per-slot marks: a confirmed member, and a
/// survivor queued for each rescore.
const CONFIRMED: u8 = 1;
const LOST_ANCESTOR: u8 = 2;
const LOST_DESCENDANT: u8 = 4;

/// Queues `h` for the `side` rescore unless it is confirmed or queued.
fn mark_once(marks: &mut [u8], h: u32, side: u8, queue: &mut Vec<u32>) {
    let mark = &mut marks[h as usize];
    if *mark & (CONFIRMED | side) == 0 {
        *mark |= side;
        queue.push(h);
    }
}

/// Which adjacency direction a closure walk follows.
#[derive(Clone, Copy)]
enum Link {
    Parents,
    Children,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{CHUNK_ROWS, STORE_SLOTS_PER_ROW};
    use cn_chain::{Address, TxOut};
    use std::collections::HashSet;

    fn tx_with(seed: u8, vout: u32, out_sats: u64) -> Transaction {
        Transaction::builder()
            .add_input_with_sizes([seed; 32].into(), vout, 107, 0)
            .add_output(TxOut::to_address(Amount::from_sat(out_sats), Address::from_label("r")))
            .build()
    }

    fn child_of(parent: &Transaction, out_sats: u64) -> Transaction {
        Transaction::builder()
            .add_input_with_sizes(parent.txid(), 0, 107, 0)
            .add_output(TxOut::to_address(Amount::from_sat(out_sats), Address::from_label("c")))
            .build()
    }

    fn pool() -> Mempool {
        Mempool::new(MempoolPolicy::default())
    }

    /// A block confirming `body`.
    fn block_with(body: Vec<Transaction>) -> Block {
        let cb = cn_chain::CoinbaseBuilder::new(1)
            .reward(Address::from_label("pool"), Amount::from_btc(6))
            .build();
        Block::assemble(1, cn_chain::BlockHash::ZERO, 0, 0, cb, body)
    }

    /// Every resident's cached ancestor and descendant package scores and
    /// descendant count must equal a walk of the graph, and the best-first
    /// keys must list each resident once, at its cached score, best first.
    fn assert_scores_match_graph(p: &Mempool) {
        let keys: Vec<AncKey> = p.anc_keys_best_first().collect();
        assert_eq!(keys.len(), p.len(), "one key per resident");
        assert!(keys.windows(2).all(|w| w[0] > w[1]), "keys come best first");
        for key in &keys {
            let e = p.entry_at(key.handle);
            assert_eq!((key.txid, key.seq), (e.txid(), e.sequence()), "key matches entry");
            let (fee, vsize) = p.compute_ancestor_package_h(key.handle.0);
            assert_eq!((key.fee, key.vsize), (fee.to_sat(), vsize), "ancestor score matches graph");
            let (fee, vsize, count) = p.compute_descendant_package_counted_h(key.handle.0);
            assert_eq!(
                (e.desc_fee, e.desc_vsize, e.desc_count),
                (fee.to_sat(), vsize, count),
                "descendant score matches the graph"
            );
        }
    }

    /// The rows a snapshot must hold, built from the slab without the
    /// cached previous snapshot.
    fn rows_from_scratch(p: &Mempool) -> Vec<SnapshotEntry> {
        let mut rows: Vec<SnapshotEntry> = p.iter().map(Mempool::row).collect();
        rows.sort_by_key(|r| r.txid);
        rows
    }

    /// The rows a snapshot lists, in its order.
    fn rows_of(snap: &MempoolSnapshot) -> Vec<SnapshotEntry> {
        snap.rows().copied().collect()
    }

    #[test]
    fn add_and_lookup() {
        let mut p = pool();
        let t = tx_with(1, 0, 1_000);
        let vsize = t.vsize();
        let txid = p.add(t, Amount::from_sat(2_000), 10).expect("accepted");
        assert!(p.contains(&txid));
        assert_eq!(p.len(), 1);
        assert_eq!(p.total_vsize(), vsize);
        assert_eq!(p.get(&txid).expect("resident").received(), 10);
        assert_eq!(p.handle_of(&txid).map(|h| h.index()), Some(0));
        assert_scores_match_graph(&p);
    }

    #[test]
    fn only_snapshot_and_limit_size_keep_state_for_their_next_call() {
        let mut p = pool();
        let parent = tx_with(1, 0, 50_000);
        p.add(parent.clone(), Amount::from_sat(1_000), 0).expect("ok");
        p.add(child_of(&parent, 40_000), Amount::from_sat(2_000), 1).expect("ok");
        p.apply_block(&block_with(vec![parent]));
        let kept = |p: &Mempool| {
            (p.snapshot_cache.is_some(), p.changed_rows.len(), p.by_desc_rate.is_some())
        };
        assert_eq!(kept(&p), (false, 0, false), "mutations keep nothing");
        assert_eq!(p.anc_keys_best_first().count(), 1);
        assert_eq!(kept(&p), (false, 0, false), "the ancestor order is not kept");
        p.snapshot(2);
        assert_eq!(kept(&p), (true, 0, false));
        p.add(tx_with(2, 0, 1_000), Amount::from_sat(2_000), 3).expect("ok");
        assert_eq!(kept(&p), (true, 1, false), "a snapshotting view notes changed rows");
        p.limit_size(u64::MAX);
        assert_eq!(kept(&p), (true, 1, false));
    }

    #[test]
    fn limit_size_builds_nothing_while_the_pool_fits_its_cap() {
        let mut p = pool();
        let cheap = tx_with(1, 0, 1_000);
        let rich = tx_with(2, 0, 1_000);
        let vs = cheap.vsize();
        p.add(cheap.clone(), Amount::from_sat(vs * 2), 0).expect("ok");
        p.add(rich, Amount::from_sat(vs * 50), 1).expect("ok");
        for cap in [u64::MAX, p.total_vsize()] {
            assert!(p.limit_size(cap).is_empty());
            assert!(p.by_desc_rate.is_none(), "under its cap, {cap}, nothing is built");
        }
        assert_eq!(p.limit_size(p.total_vsize() - 1), vec![cheap.txid()]);
        assert!(p.by_desc_rate.is_some(), "the first call over the cap builds the order");
    }

    #[test]
    fn duplicate_rejected() {
        let mut p = pool();
        let t = tx_with(1, 0, 1_000);
        p.add(t.clone(), Amount::from_sat(2_000), 0).expect("first");
        assert_eq!(p.add(t, Amount::from_sat(2_000), 1), Err(AcceptError::Duplicate));
    }

    #[test]
    fn relay_floor_enforced_and_disableable() {
        let t = tx_with(1, 0, 1_000);
        let mut strict = pool();
        assert!(matches!(
            strict.add(t.clone(), Amount::from_sat(10), 0),
            Err(AcceptError::BelowMinFeeRate { .. })
        ));
        let mut lax = Mempool::new(MempoolPolicy::accept_all());
        assert!(lax.add(t, Amount::ZERO, 0).is_ok());
    }

    #[test]
    fn conflicting_spend_rejected() {
        let mut p = pool();
        let a = tx_with(1, 0, 1_000);
        let b = Transaction::builder()
            .add_input_with_sizes([1; 32].into(), 0, 108, 0) // same prevout, different tx
            .add_output(TxOut::to_address(Amount::from_sat(900), Address::from_label("x")))
            .build();
        p.add(a.clone(), Amount::from_sat(2_000), 0).expect("first");
        let err = p.add(b, Amount::from_sat(3_000), 1).expect_err("conflict");
        assert!(matches!(err, AcceptError::Conflict { existing, .. } if existing == a.txid()));
    }

    #[test]
    fn fee_rate_iteration_descending_with_fifo_ties() {
        let mut p = pool();
        let low = tx_with(1, 0, 1_000);
        let high = tx_with(2, 0, 1_000);
        let mid_first = tx_with(3, 0, 1_000);
        let mid_second = tx_with(4, 0, 1_000);
        // All four txs have identical vsize, so fees order the rates.
        let vs = low.vsize();
        p.add(low.clone(), Amount::from_sat(vs * 2), 0).expect("ok");
        p.add(mid_first.clone(), Amount::from_sat(vs * 5), 1).expect("ok");
        p.add(high.clone(), Amount::from_sat(vs * 9), 2).expect("ok");
        p.add(mid_second.clone(), Amount::from_sat(vs * 5), 3).expect("ok");
        let order: Vec<Txid> = p.iter_by_fee_rate_desc().map(|e| e.txid()).collect();
        assert_eq!(order, vec![high.txid(), mid_first.txid(), mid_second.txid(), low.txid()]);
    }

    #[test]
    fn ancestors_and_descendants_tracked() {
        let mut p = pool();
        let parent = tx_with(1, 0, 50_000);
        let child = child_of(&parent, 40_000);
        let grandchild = child_of(&child, 30_000);
        p.add(parent.clone(), Amount::from_sat(1_000), 0).expect("ok");
        p.add(child.clone(), Amount::from_sat(5_000), 1).expect("ok");
        p.add(grandchild.clone(), Amount::from_sat(5_000), 2).expect("ok");

        let mut anc = p.ancestors(&grandchild.txid());
        anc.sort();
        let mut expect = vec![parent.txid(), child.txid()];
        expect.sort();
        assert_eq!(anc, expect);

        let mut desc = p.descendants(&parent.txid());
        desc.sort();
        let mut expect = vec![child.txid(), grandchild.txid()];
        expect.sort();
        assert_eq!(desc, expect);

        assert!(p.has_unconfirmed_parent(&child.txid()));
        assert!(!p.has_unconfirmed_parent(&parent.txid()));
        assert_scores_match_graph(&p);
    }

    #[test]
    fn ancestor_package_scores_cpfp() {
        // accept_all so the deliberately underpriced parent gets in.
        let mut p = Mempool::new(MempoolPolicy::accept_all());
        let parent = tx_with(1, 0, 50_000);
        let child = child_of(&parent, 40_000);
        let (pv, cv) = (parent.vsize(), child.vsize());
        p.add(parent.clone(), Amount::from_sat(100), 0).expect("low-fee parent");
        p.add(child.clone(), Amount::from_sat(9_000), 1).expect("high-fee child");
        let (fee, vsize) = p.get(&child.txid()).expect("resident").ancestor_score();
        assert_eq!(fee, Amount::from_sat(9_100));
        assert_eq!(vsize, pv + cv);
        // Parent alone scores only itself.
        let (fee, vsize) = p.get(&parent.txid()).expect("resident").ancestor_score();
        assert_eq!(fee, Amount::from_sat(100));
        assert_eq!(vsize, pv);
        assert_scores_match_graph(&p);
    }

    #[test]
    fn apply_block_confirms_and_evicts_conflicts() {
        let mut p = pool();
        let confirmed = tx_with(1, 0, 1_000);
        let rival = Transaction::builder()
            .add_input_with_sizes([2; 32].into(), 0, 107, 0)
            .add_output(TxOut::to_address(Amount::from_sat(800), Address::from_label("x")))
            .build();
        let rival_child = child_of(&rival, 500);
        p.add(confirmed.clone(), Amount::from_sat(2_000), 0).expect("ok");
        p.add(rival.clone(), Amount::from_sat(2_000), 0).expect("ok");
        p.add(rival_child.clone(), Amount::from_sat(2_000), 0).expect("ok");

        // The block confirms `confirmed` plus a tx double-spending `rival`'s input.
        let winner = Transaction::builder()
            .add_input_with_sizes([2; 32].into(), 0, 108, 0)
            .add_output(TxOut::to_address(Amount::from_sat(700), Address::from_label("w")))
            .build();
        let block = block_with(vec![confirmed.clone(), winner]);
        let (confirmed_n, conflicted_n) = p.apply_block(&block);
        assert_eq!(confirmed_n, 1);
        assert_eq!(conflicted_n, 2); // rival + its child
        assert!(p.is_empty());
        assert_scores_match_graph(&p);
    }

    #[test]
    fn remove_with_descendants_cleans_indexes() {
        let mut p = pool();
        let parent = tx_with(1, 0, 50_000);
        let child = child_of(&parent, 40_000);
        p.add(parent.clone(), Amount::from_sat(1_000), 0).expect("ok");
        p.add(child.clone(), Amount::from_sat(1_000), 0).expect("ok");
        let removed = p.remove_with_descendants(&parent.txid());
        assert_eq!(removed.len(), 2);
        assert!(p.is_empty());
        assert_eq!(p.total_vsize(), 0);
        assert_eq!(p.iter_by_fee_rate_desc().count(), 0);
        assert_eq!(p.min_tx_weight(), None);
        // Re-adding after removal works (spent index was cleaned).
        assert!(p.add(parent, Amount::from_sat(1_000), 1).is_ok());
        assert_scores_match_graph(&p);
    }

    #[test]
    fn ancestor_limit_enforced() {
        let mut p = Mempool::new(MempoolPolicy { max_ancestors: 2, ..MempoolPolicy::default() });
        let t0 = tx_with(1, 0, 90_000);
        let t1 = child_of(&t0, 80_000);
        let t2 = child_of(&t1, 70_000);
        p.add(t0, Amount::from_sat(1_000), 0).expect("ok");
        p.add(t1, Amount::from_sat(1_000), 0).expect("ok");
        assert_eq!(p.add(t2, Amount::from_sat(1_000), 0), Err(AcceptError::TooManyAncestors));
    }

    #[test]
    fn descendant_limit_enforced() {
        let mut p = Mempool::new(MempoolPolicy { max_descendants: 2, ..MempoolPolicy::default() });
        // One parent with two outputs; attach children until refused.
        let parent = Transaction::builder()
            .add_input_with_sizes([7; 32].into(), 0, 107, 0)
            .add_output(TxOut::to_address(Amount::from_sat(50_000), Address::from_label("a")))
            .add_output(TxOut::to_address(Amount::from_sat(50_000), Address::from_label("b")))
            .build();
        let c0 = Transaction::builder()
            .add_input_with_sizes(parent.txid(), 0, 107, 0)
            .add_output(TxOut::to_address(Amount::from_sat(40_000), Address::from_label("c")))
            .build();
        let c1 = Transaction::builder()
            .add_input_with_sizes(parent.txid(), 1, 107, 0)
            .add_output(TxOut::to_address(Amount::from_sat(40_000), Address::from_label("d")))
            .build();
        p.add(parent, Amount::from_sat(1_000), 0).expect("ok");
        p.add(c0, Amount::from_sat(1_000), 0).expect("ok");
        assert_eq!(p.add(c1, Amount::from_sat(1_000), 0), Err(AcceptError::TooManyDescendants));
    }

    #[test]
    fn descendant_package_mirrors_ancestor_package() {
        let mut p = Mempool::new(MempoolPolicy::accept_all());
        let parent = tx_with(1, 0, 50_000);
        let child = child_of(&parent, 40_000);
        p.add(parent.clone(), Amount::from_sat(100), 0).expect("ok");
        p.add(child.clone(), Amount::from_sat(9_000), 1).expect("ok");
        let (fee, vsize) = p.get(&parent.txid()).expect("resident").descendant_score();
        assert_eq!(fee, Amount::from_sat(9_100));
        assert_eq!(vsize, parent.vsize() + child.vsize());
        let (fee, _) = p.get(&child.txid()).expect("resident").descendant_score();
        assert_eq!(fee, Amount::from_sat(9_000));
    }

    #[test]
    fn limit_size_evicts_worst_packages_first() {
        let mut p = pool();
        let cheap = tx_with(1, 0, 1_000);
        let mid = tx_with(2, 0, 1_000);
        let rich = tx_with(3, 0, 1_000);
        let vs = cheap.vsize();
        p.add(cheap.clone(), Amount::from_sat(vs * 2), 0).expect("ok");
        p.add(mid.clone(), Amount::from_sat(vs * 10), 1).expect("ok");
        p.add(rich.clone(), Amount::from_sat(vs * 50), 2).expect("ok");
        let evicted = p.limit_size(2 * vs);
        assert_eq!(evicted, vec![cheap.txid()]);
        assert!(p.contains(&mid.txid()) && p.contains(&rich.txid()));
        assert!(p.total_vsize() <= 2 * vs);
        // Already under the cap: a second call is a no-op.
        assert!(p.limit_size(2 * vs).is_empty());
    }

    #[test]
    fn limit_size_keeps_cpfp_parent_with_rich_child() {
        let mut p = Mempool::new(MempoolPolicy::accept_all());
        let parent = tx_with(1, 0, 50_000);
        let child = child_of(&parent, 40_000);
        let loner = tx_with(2, 0, 1_000);
        p.add(parent.clone(), Amount::from_sat(100), 0).expect("ok");
        p.add(child.clone(), Amount::from_sat(50_000), 1).expect("ok");
        p.add(loner.clone(), Amount::from_sat(2_000), 2).expect("ok");
        // Descendant-package scoring protects the low-fee parent because
        // its package includes the rich child; the loner goes instead.
        let budget = parent.vsize() + child.vsize();
        let evicted = p.limit_size(budget);
        assert_eq!(evicted, vec![loner.txid()]);
        assert!(p.contains(&parent.txid()) && p.contains(&child.txid()));
    }

    #[test]
    fn snapshot_captures_pool_state() {
        let mut p = pool();
        let parent = tx_with(1, 0, 50_000);
        let child = child_of(&parent, 40_000);
        p.add(parent.clone(), Amount::from_sat(1_000), 5).expect("ok");
        p.add(child.clone(), Amount::from_sat(2_000), 9).expect("ok");
        let snap = p.snapshot(15);
        assert_eq!(snap.time, 15);
        assert_eq!(snap.rows().count(), 2);
        let child_row = snap.rows().find(|e| e.txid == child.txid()).expect("child");
        assert!(child_row.has_unconfirmed_parent);
        assert_eq!(child_row.received, 9);
        let parent_row = snap.rows().find(|e| e.txid == parent.txid()).expect("parent");
        assert!(!parent_row.has_unconfirmed_parent);
        assert_eq!(snap.total_vsize(), parent.vsize() + child.vsize());
    }

    #[test]
    fn handles_recycled_after_removal() {
        let mut p = pool();
        let a = tx_with(1, 0, 1_000);
        let b = tx_with(2, 0, 1_000);
        let a_id = p.add(a, Amount::from_sat(2_000), 0).expect("ok");
        let slot_a = p.handle_of(&a_id).expect("live").index();
        p.remove_with_descendants(&a_id);
        let b_id = p.add(b, Amount::from_sat(2_000), 1).expect("ok");
        assert_eq!(p.handle_of(&b_id).expect("live").index(), slot_a, "slot reused");
        assert_eq!(p.slot_count(), 1);
        assert_scores_match_graph(&p);
    }

    #[test]
    fn desc_count_tracks_adds_removes_and_reconnect() {
        let mut p = Mempool::new(MempoolPolicy::accept_all());
        let parent = tx_with(1, 0, 50_000);
        let child = child_of(&parent, 40_000);
        let grandchild = child_of(&child, 30_000);
        // Out-of-order arrival: child first, then parent (reconnect path),
        // then grandchild (incremental path).
        p.add(child.clone(), Amount::from_sat(4_000), 0).expect("ok");
        p.add(parent.clone(), Amount::from_sat(300), 1).expect("ok");
        p.add(grandchild.clone(), Amount::from_sat(900), 2).expect("ok");
        assert_eq!(p.get(&parent.txid()).expect("resident").descendant_count(), 3);
        assert_eq!(p.get(&child.txid()).expect("resident").descendant_count(), 2);
        assert_eq!(p.get(&grandchild.txid()).expect("resident").descendant_count(), 1);
        assert_scores_match_graph(&p);
        // Subtree eviction sheds the removed members from survivors.
        p.remove_with_descendants(&child.txid());
        assert_eq!(p.get(&parent.txid()).expect("resident").descendant_count(), 1);
        assert_scores_match_graph(&p);
    }

    #[test]
    fn add_prechecked_matches_add_shared() {
        // The same package admitted through both entry points must land in
        // identical pool state, including refusals.
        let mut via_shared = pool();
        let mut via_pre = pool();
        let parent = tx_with(1, 0, 50_000);
        let child = child_of(&parent, 40_000);
        let dup = parent.clone();
        for tx in [parent, child, dup] {
            let fee = Amount::from_sat(tx.vsize() * 3);
            let shared: Arc<Transaction> = tx.into();
            let pre = AdmissionPrecheck::of(&shared, fee);
            let a = via_shared.add_shared(Arc::clone(&shared), fee, 7);
            let b = via_pre.add_prechecked(shared, fee, 7, &pre);
            assert_eq!(a, b);
        }
        assert_eq!(via_shared.len(), via_pre.len());
        let order_a: Vec<Txid> = via_shared.iter_by_fee_rate_desc().map(|e| e.txid()).collect();
        let order_b: Vec<Txid> = via_pre.iter_by_fee_rate_desc().map(|e| e.txid()).collect();
        assert_eq!(order_a, order_b);
        assert_scores_match_graph(&via_pre);
    }

    #[test]
    fn apply_block_batched_confirm_of_cpfp_package() {
        // A whole parent/child package confirms in one block while an
        // unrelated CPFP pair survives — survivor scores must match the
        // graph after the batched connect.
        let mut p = Mempool::new(MempoolPolicy::accept_all());
        let parent = tx_with(1, 0, 50_000);
        let child = child_of(&parent, 40_000);
        let other = tx_with(2, 0, 50_000);
        let other_child = child_of(&other, 40_000);
        p.add(parent.clone(), Amount::from_sat(100), 0).expect("ok");
        p.add(child.clone(), Amount::from_sat(9_000), 1).expect("ok");
        p.add(other.clone(), Amount::from_sat(200), 2).expect("ok");
        p.add(other_child.clone(), Amount::from_sat(7_000), 3).expect("ok");
        let block = block_with(vec![parent.clone(), child.clone()]);
        let (confirmed_n, conflicted_n) = p.apply_block(&block);
        assert_eq!((confirmed_n, conflicted_n), (2, 0));
        assert_eq!(p.len(), 2);
        let (fee, _) = p.get(&other_child.txid()).expect("resident").ancestor_score();
        assert_eq!(fee, Amount::from_sat(7_200));
        assert_eq!(p.get(&other.txid()).expect("resident").descendant_count(), 2);
        assert_scores_match_graph(&p);
    }

    #[test]
    fn scores_track_reconnect_and_confirm() {
        // Child delivered before parent (out-of-order reconnect), then the
        // parent is confirmed away — the cached scores must match the
        // graph at every step.
        let mut p = Mempool::new(MempoolPolicy::accept_all());
        let parent = tx_with(9, 0, 50_000);
        let child = child_of(&parent, 40_000);
        p.add(child.clone(), Amount::from_sat(4_000), 0).expect("orphan accepted");
        p.add(parent.clone(), Amount::from_sat(300), 1).expect("parent accepted");
        assert_scores_match_graph(&p);
        let (fee, _) = p.get(&child.txid()).expect("resident").ancestor_score();
        assert_eq!(fee, Amount::from_sat(4_300), "reconnect rescored the child");

        p.apply_block(&block_with(vec![parent.clone()]));
        assert_scores_match_graph(&p);
        let (fee, _) = p.get(&child.txid()).expect("child survives").ancestor_score();
        assert_eq!(fee, Amount::from_sat(4_000), "confirm peeled the parent off");
    }

    #[test]
    fn apply_block_rescores_survivors_below_a_confirmed_parent() {
        // The parent confirms alone. Its child and its grandchild, two
        // hops down, stay and lose it from their ancestor packages.
        let mut p = Mempool::new(MempoolPolicy::accept_all());
        let parent = tx_with(1, 0, 50_000);
        let child = child_of(&parent, 40_000);
        let grandchild = child_of(&child, 30_000);
        p.add(parent.clone(), Amount::from_sat(300), 0).expect("ok");
        p.add(child.clone(), Amount::from_sat(4_000), 1).expect("ok");
        p.add(grandchild.clone(), Amount::from_sat(900), 2).expect("ok");
        assert_eq!(p.apply_block(&block_with(vec![parent])), (1, 0));
        assert_scores_match_graph(&p);
        let (fee, vsize) = p.get(&grandchild.txid()).expect("resident").ancestor_score();
        assert_eq!((fee, vsize), (Amount::from_sat(4_900), child.vsize() + grandchild.vsize()));
    }

    #[test]
    fn apply_block_rescores_survivors_above_a_confirmed_child() {
        // The child confirms without its resident parent, which only an
        // out-of-order history produces. Its parent and grandparent stay
        // and shed it from their descendant packages.
        let mut p = Mempool::new(MempoolPolicy::accept_all());
        let grandparent = tx_with(1, 0, 50_000);
        let parent = child_of(&grandparent, 40_000);
        let child = child_of(&parent, 30_000);
        p.add(grandparent.clone(), Amount::from_sat(300), 0).expect("ok");
        p.add(parent.clone(), Amount::from_sat(4_000), 1).expect("ok");
        p.add(child.clone(), Amount::from_sat(900), 2).expect("ok");
        assert_eq!(p.apply_block(&block_with(vec![child])), (1, 0));
        assert_scores_match_graph(&p);
        let top = p.get(&grandparent.txid()).expect("resident");
        assert_eq!(
            (top.descendant_score().0, top.descendant_count()),
            (Amount::from_sat(4_300), 2)
        );
    }

    #[test]
    fn late_parent_is_linked_once_to_a_child_spending_two_of_its_outputs() {
        let parent = Transaction::builder()
            .add_input_with_sizes([7; 32].into(), 0, 107, 0)
            .add_output(TxOut::to_address(Amount::from_sat(50_000), Address::from_label("a")))
            .add_output(TxOut::to_address(Amount::from_sat(50_000), Address::from_label("b")))
            .build();
        let child = Transaction::builder()
            .add_input_with_sizes(parent.txid(), 0, 107, 0)
            .add_input_with_sizes(parent.txid(), 1, 107, 0)
            .add_output(TxOut::to_address(Amount::from_sat(90_000), Address::from_label("c")))
            .build();
        for parent_first in [true, false] {
            let mut p = Mempool::new(MempoolPolicy::accept_all());
            let mut arrivals = [(parent.clone(), 300), (child.clone(), 4_000)];
            if !parent_first {
                arrivals.reverse();
            }
            for (tx, fee) in arrivals {
                p.add(tx, Amount::from_sat(fee), 0).expect("accepted");
            }
            let parent_h = p.handle_of(&parent.txid()).expect("resident");
            let child_h = p.handle_of(&child.txid()).expect("resident");
            assert_eq!(p.parent_handles(child_h).count(), 1, "parent first: {parent_first}");
            assert_eq!(p.child_handles(parent_h).count(), 1, "parent first: {parent_first}");
            assert_scores_match_graph(&p);
        }
    }

    #[test]
    fn snapshot_merges_rows_changed_since_the_last_one() {
        let mut p = Mempool::new(MempoolPolicy::accept_all());
        let parent = tx_with(1, 0, 50_000);
        let child = child_of(&parent, 40_000);
        let loner = tx_with(2, 0, 1_000);
        p.add(child.clone(), Amount::from_sat(4_000), 0).expect("orphan accepted");
        p.add(loner.clone(), Amount::from_sat(2_000), 1).expect("ok");
        let first = p.snapshot(10);
        assert_eq!(rows_of(&first), rows_from_scratch(&p));
        let unchanged = p.snapshot(11);
        assert!(first.shares_rows_with(&unchanged), "unchanged pool shares rows");
        assert_eq!(unchanged.delta_from(&first), Some(Vec::new()), "and has an empty delta");
        // The parent arrives (the child's flag turns on), the loner leaves.
        p.add(parent.clone(), Amount::from_sat(300), 2).expect("ok");
        p.remove_with_descendants(&loner.txid());
        let merged = p.snapshot(12);
        assert_eq!(rows_of(&merged), rows_from_scratch(&p));
        assert!(merged.rows().any(|r| r.txid == child.txid() && r.has_unconfirmed_parent));
        // The parent confirms: the child's flag turns off again.
        p.apply_block(&block_with(vec![parent]));
        let merged = p.snapshot(13);
        assert_eq!(rows_of(&merged), rows_from_scratch(&p));
        assert!(!rows_of(&merged)[0].has_unconfirmed_parent);
        assert_eq!(merged.total_vsize(), child.vsize());
        assert_eq!(rows_of(&first).len(), 2, "a kept snapshot keeps its rows");
    }

    #[test]
    fn snapshot_after_more_changes_than_residents_sorts_the_slab() {
        let mut p = pool();
        p.add(tx_with(1, 0, 1_000), Amount::from_sat(2_000), 0).expect("ok");
        let first = p.snapshot(1);
        for seed in 2..6 {
            let tx = tx_with(seed, 0, 1_000);
            let txid = p.add(tx, Amount::from_sat(2_000), 2).expect("ok");
            p.remove_with_descendants(&txid);
        }
        assert!(p.snapshot_cache.is_none(), "the change list outgrew the pool");
        assert!(p.changed_rows.is_empty());
        let sorted = p.snapshot(3);
        assert_eq!(rows_of(&sorted), rows_from_scratch(&p));
        assert_eq!(sorted.delta_from(&first), None, "a sorted slab has no delta");
    }

    #[test]
    fn snapshot_store_restarts_once_it_outgrows_the_pool() {
        // Each tick replaces the oldest of 300 residents: a batch of one
        // row, which starts a chunk of its own.
        let mut p = Mempool::new(MempoolPolicy::accept_all());
        let fee = Amount::from_sat(2_000);
        let spend = |i: u32| {
            let mut prevout = [0xAB; 32];
            prevout[..4].copy_from_slice(&i.to_le_bytes());
            Transaction::builder()
                .add_input_with_sizes(prevout.into(), 0, 107, 0)
                .add_output(TxOut::to_address(Amount::from_sat(1_000), Address::from_label("r")))
                .build()
        };
        let mut residents: Vec<Txid> =
            (0..300).map(|i| p.add(spend(i), fee, 0).expect("ok")).collect();
        let slots = |p: &Mempool| p.snapshot_cache.as_ref().map_or(0, MempoolSnapshot::store_slots);
        let mut kept = vec![(p.snapshot(0), rows_from_scratch(&p))];
        let fresh = slots(&p);
        let mut restarts = 0;
        for tick in 1..=12u32 {
            p.remove_with_descendants(&residents.remove(0));
            residents.push(p.add(spend(300 + tick), fee, u64::from(tick)).expect("ok"));
            let before = slots(&p);
            let snap = p.snapshot(u64::from(tick));
            assert_eq!(rows_of(&snap), rows_from_scratch(&p));
            assert!(slots(&p) <= STORE_SLOTS_PER_ROW * p.len(), "the store stays bounded");
            let last = &kept.last().expect("kept").0;
            if slots(&p) < before {
                restarts += 1;
                assert_eq!(slots(&p), fresh, "a restarted store holds the rows in fresh chunks");
                assert_eq!(snap.delta_from(last), None, "a restarted store has no delta");
            } else {
                assert_eq!(slots(&p), before + CHUNK_ROWS, "a batch takes one chunk");
                let delta = snap.delta_from(last).expect("merged from the last snapshot");
                assert_eq!(delta.len(), 2, "one resident left, one arrived");
                let stored: HashSet<*const SnapshotEntry> = last.rows().map(|r| r as _).collect();
                let shared = snap.rows().filter(|&r| stored.contains(&(r as *const _))).count();
                assert_eq!(shared, 299, "unchanged rows are the same stored rows");
            }
            kept.push((snap, rows_from_scratch(&p)));
        }
        assert!(restarts >= 2, "the churn crosses store restarts");
        for (snap, rows) in &kept {
            assert_eq!(&rows_of(snap), rows, "a kept snapshot's rows never change");
        }
        // Each stored row is visited once, however many snapshots list it.
        let snapshots: Vec<MempoolSnapshot> = kept.into_iter().map(|(s, _)| s).collect();
        let mut stored = 0;
        MempoolSnapshot::visit_stored_rows(&snapshots, |_| stored += 1);
        assert_eq!(stored, 300 * (1 + restarts) + (12 - restarts));
    }
}
