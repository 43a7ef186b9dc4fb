//! The Mempool proper: indexes, acceptance, package linkage, block connect.
//!
//! Residents live in a slab arena: admission interns the txid to a dense
//! `u32` handle, and every internal structure (parent/child adjacency,
//! ancestry walks, the assembler-facing ancestor-score index) operates on
//! handles instead of re-hashing 32-byte txids. The txid-keyed maps that
//! remain (`lookup`, `spent`) use the digest-prefix hasher from
//! [`cn_chain::fasthash`], the same trick as Bitcoin Core's
//! `SaltedTxidHasher`.
//!
//! Each entry caches its ancestor and descendant package scores in every
//! pool. The three sorted indexes derived from them (ancestor-score order,
//! eviction order, snapshot rows) each have one reader, which builds the
//! index on its first call; from then on every mutation keeps it current.
//! A pool view that never assembles, evicts or snapshots never pays for
//! the matching index.

use crate::entry::{AdmissionPrecheck, MempoolEntry};
use crate::policy::MempoolPolicy;
use crate::snapshot::{MempoolSnapshot, SnapshotEntry};
use cn_chain::{Amount, Block, FastMap, FeeRate, OutPoint, Timestamp, Transaction, Txid};
use std::cmp::{Ordering, Reverse};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::{Arc, OnceLock};

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
/// then earlier arrival, then txid. Iterating the pool's ancestor-score
/// index in reverse therefore yields candidates best-first — the order
/// `GetBlockTemplate`'s selection loop wants them.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AncKey {
    /// Saturating fixed-point package rate, `floor(fee << 32 / vsize)`:
    /// a compare-first approximation of the exact cross-multiplied rate.
    /// `floor` (and saturation) are monotone, so `approx_a < approx_b`
    /// implies the exact rates compare the same way; only equal
    /// approximations fall through to the exact comparison. Most tree
    /// descents therefore resolve on one integer compare instead of two
    /// 128-bit multiplications per node.
    pub approx: u64,
    /// Ancestor-package fee in satoshis at the time the key was indexed.
    pub fee: u64,
    /// Ancestor-package virtual size.
    pub vsize: u64,
    /// Arrival sequence (unique per pool — makes the order total).
    pub seq: u64,
    /// The transaction this key scores.
    pub txid: Txid,
    /// Its slab handle, so index consumers skip the txid lookup.
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
    /// Ancestor-package score index, so the assembler's selection loop
    /// walks residents best-first without rebuilding a heap per block.
    /// Built from the cached ancestor scores by the first
    /// [`Mempool::anc_score_iter`], kept sorted by every mutation after.
    anc_index: OnceLock<BTreeSet<AncKey>>,
    /// Descendant-package fee rate index — the `-maxmempool` eviction
    /// order. Built by the first [`Mempool::limit_size`], kept after.
    by_desc_rate: Option<BTreeSet<(FeeRate, Txid)>>,
    /// Live txid-sorted snapshot rows, so a detailed snapshot is one
    /// sort-free copy instead of a per-entry rebuild with ancestry walks.
    /// Built by the first [`Mempool::snapshot`], kept after.
    rows: Option<BTreeMap<Txid, SnapshotEntry>>,
    /// Last detailed-row dump, shared until the pool next changes.
    snapshot_cache: Option<Arc<Vec<SnapshotEntry>>>,
    total_vsize: u64,
    next_sequence: u64,
}

// Node views cross the fork-join pool's threads and are cloned into
// checkpoint forks; the lazily built indexes must not cost that.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Mempool>();
};

impl Mempool {
    /// Creates an empty pool with the given policy.
    pub fn new(policy: MempoolPolicy) -> Mempool {
        Mempool { policy, ..Mempool::default() }
    }

    /// The acceptance policy.
    pub fn policy(&self) -> &MempoolPolicy {
        &self.policy
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

    /// The ancestor-score index, worst-first (reverse it for the
    /// assembler's best-first order). The first call builds it from the
    /// cached ancestor scores; later mutations keep it sorted.
    pub fn anc_score_iter(&self) -> impl DoubleEndedIterator<Item = &AncKey> + '_ {
        self.anc_index
            .get_or_init(|| {
                self.slots
                    .iter()
                    .enumerate()
                    .filter_map(|(h, s)| s.as_ref().map(|e| Self::anc_key(e, h as u32)))
                    .collect()
            })
            .iter()
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
    pub fn add(&mut self, tx: Transaction, fee: Amount, now: Timestamp) -> Result<Txid, AcceptError> {
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
        // exactly the parent set the per-input scan used to rebuild.
        let mut parents: Vec<u32> = Vec::with_capacity(pre.parent_txids.len());
        for ptxid in &pre.parent_txids {
            if let Some(&p) = self.lookup.get(ptxid) {
                parents.push(p);
            }
        }
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
        // reconstruct the parent→child edge now.
        let mut reconnected = false;
        let out_count = self.slot(h).tx().outputs().len() as u32;
        for vout in 0..out_count {
            let Some(&c) = self.spent.get(&OutPoint::new(txid, vout)) else { continue };
            if !self.slot(h).children.contains(&c) {
                self.slot_mut(h).children.push(c);
            }
            let child = self.slot_mut(c);
            child.parents.push(h);
            let child_txid = child.txid();
            if let Some(row) = self.rows.as_mut().and_then(|rows| rows.get_mut(&child_txid)) {
                row.has_unconfirmed_parent = true;
            }
            reconnected = true;
        }
        let entry = self.slots[h as usize].as_ref().expect("just interned");
        if let Some(index) = &mut self.by_desc_rate {
            index.insert(Self::desc_key(entry, txid));
        }
        if let Some(rows) = &mut self.rows {
            rows.insert(txid, Self::row(entry));
            self.snapshot_cache = None;
        }
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
            self.insert_anc_score(h, anc_fee, anc_vsize);
            for &a in &ancestors {
                self.shift_desc_score(a, fee_sat as i128, vsize as i128, 1);
            }
        }
        Ok(txid)
    }

    /// The ancestor-score index key currently stored for the entry at `h`.
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

    /// Sets the entry's ancestor-package totals and re-keys the score
    /// index. Also the insertion path: removing a key that was never
    /// indexed is a no-op, so fresh entries land here too.
    fn set_anc_score(&mut self, h: u32, fee_sat: u64, vsize: u64) {
        let Some(entry) = self.slots[h as usize].as_mut() else { return };
        let old = Self::anc_key(entry, h);
        entry.anc_fee = fee_sat;
        entry.anc_vsize = vsize;
        if let Some(index) = self.anc_index.get_mut() {
            let new = Self::anc_key(entry, h);
            if new != old {
                index.remove(&old);
            }
            index.insert(new);
        }
    }

    /// Insertion-only [`Mempool::set_anc_score`] for an entry that was
    /// never indexed: skips the old-key removal probe, which is a full
    /// tree descent for a key that cannot be present. Admission is the
    /// hottest caller and always inserts fresh entries, so the saved
    /// probe is once per accepted transaction per node.
    fn insert_anc_score(&mut self, h: u32, fee_sat: u64, vsize: u64) {
        let Some(entry) = self.slots[h as usize].as_mut() else { return };
        entry.anc_fee = fee_sat;
        entry.anc_vsize = vsize;
        if let Some(index) = self.anc_index.get_mut() {
            index.insert(Self::anc_key(entry, h));
        }
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
    /// [`Mempool::remove_confirmed`] and [`Mempool::remove_with_descendants`].
    fn remove_single_h(&mut self, h: u32) -> Option<MempoolEntry> {
        let entry = self.slots[h as usize].take()?;
        let txid = entry.txid();
        self.lookup.remove(&txid);
        self.free.push(h);
        if let Some(index) = self.anc_index.get_mut() {
            index.remove(&Self::anc_key(&entry, h));
        }
        if let Some(index) = &mut self.by_desc_rate {
            index.remove(&Self::desc_key(&entry, txid));
        }
        if let Some(rows) = &mut self.rows {
            rows.remove(&txid);
            self.snapshot_cache = None;
        }
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
            if let Some(row) = self.rows.as_mut().and_then(|rows| rows.get_mut(&ce.txid())) {
                row.has_unconfirmed_parent = !ce.parents.is_empty();
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
    /// Batched: the whole resident confirmed set leaves first, then each
    /// surviving neighbour is rescored exactly once — when a CPFP package
    /// confirms together, the per-member interleaved removal used to rescore
    /// the same survivors once per confirmed member. A valid block cannot
    /// confirm a descendant of a transaction it conflicts out (the
    /// descendant's input would be unspendable), so deferring the conflict
    /// scan behind the batched confirm leaves the final pool state — and
    /// both counts — exactly what the interleaved order produced.
    pub fn apply_block(&mut self, block: &Block) -> (usize, usize) {
        let confirmed_h: Vec<u32> =
            block.body().iter().filter_map(|tx| self.handle(&tx.txid())).collect();
        let confirmed = confirmed_h.len();
        if confirmed > 0 {
            // Survivors below a confirmed member lose it from their ancestor
            // package; survivors above one (only on out-of-order arrivals —
            // valid blocks confirm parents first) shed it from their
            // descendant package.
            let mut touched_down: Vec<u32> = Vec::new();
            let mut touched_up: Vec<u32> = Vec::new();
            for &h in &confirmed_h {
                touched_down.extend(self.descendants_h(h));
                if !self.slot(h).parents.is_empty() {
                    touched_up.extend(self.ancestors_h(h));
                }
            }
            for &h in &confirmed_h {
                self.remove_single_h(h);
            }
            // No admissions happen mid-connect, so freed slots stay empty:
            // a dead handle here is a confirmed member, not a recycled slot.
            touched_down.sort_unstable();
            touched_down.dedup();
            for d in touched_down {
                if self.slots[d as usize].is_some() {
                    let (fee, vsize) = self.compute_ancestor_package_h(d);
                    self.set_anc_score(d, fee.to_sat(), vsize);
                }
            }
            touched_up.sort_unstable();
            touched_up.dedup();
            for a in touched_up {
                if self.slots[a as usize].is_some() {
                    self.recompute_desc_score(a);
                }
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

    /// The in-pool transaction currently spending `outpoint`, if any.
    pub fn spender_of(&self, outpoint: &OutPoint) -> Option<Txid> {
        self.spent.get(outpoint).map(|&h| self.slot(h).txid())
    }

    /// The *descendant package score* of `txid`: total fee and vsize of
    /// the transaction plus all its in-pool descendants — the quantity
    /// Bitcoin Core's size-limit eviction ranks by. O(1): the pool keeps
    /// the score current across every add/remove/confirm.
    pub fn descendant_package(&self, txid: &Txid) -> Option<(Amount, u64)> {
        self.get(txid).map(|e| e.descendant_score())
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
    /// Returns the evicted txids in eviction order. O(log n) per victim
    /// via the descendant-rate index, which the first call builds from the
    /// cached descendant scores and later mutations keep sorted.
    pub fn limit_size(&mut self, max_vsize: u64) -> Vec<Txid> {
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

    /// The CPFP *ancestor package score* of `txid`: total fee and vsize of
    /// the transaction plus all its in-pool ancestors — the quantity
    /// Bitcoin Core's assembler actually ranks by. O(1): the pool keeps
    /// the score current across every add/remove/confirm.
    pub fn ancestor_package(&self, txid: &Txid) -> Option<(Amount, u64)> {
        self.get(txid).map(|e| e.ancestor_score())
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

    /// Evicts entries older than `max_age` at time `now` (Bitcoin Core's
    /// two-week expiry, configurable). Descendants of an evicted entry are
    /// evicted with it. Returns evicted txids.
    pub fn evict_expired(&mut self, now: Timestamp, max_age: u64) -> Vec<Txid> {
        let expired: Vec<Txid> = self
            .iter()
            .filter(|e| now.saturating_sub(e.received()) > max_age)
            .map(|e| e.txid())
            .collect();
        let mut evicted = Vec::new();
        for txid in expired {
            if self.contains(&txid) {
                evicted.extend(self.remove_with_descendants(&txid).iter().map(|e| e.txid()));
            }
        }
        evicted
    }

    /// Records the pool's full state at `now` — one paper-style dataset
    /// row with per-transaction entries. The first call builds the sorted,
    /// CPFP-flagged rows and later mutations keep them live, so each call
    /// is a single shared-storage copy; consecutive snapshots of an
    /// unchanged pool share one allocation.
    pub fn snapshot(&mut self, now: Timestamp) -> MempoolSnapshot {
        let live = self.rows.get_or_insert_with(|| {
            self.slots.iter().flatten().map(|e| (e.txid(), Self::row(e))).collect()
        });
        let rows = match &self.snapshot_cache {
            Some(cached) => Arc::clone(cached),
            None => {
                let rows: Arc<Vec<SnapshotEntry>> = Arc::new(live.values().copied().collect());
                self.snapshot_cache = Some(Arc::clone(&rows));
                rows
            }
        };
        MempoolSnapshot::from_shared(now, rows, self.total_vsize)
    }

    /// Records only the pool's aggregate state at `now` (count and total
    /// virtual size) — cheap enough for every 15-second tick of a
    /// year-scale run.
    pub fn snapshot_light(&self, now: Timestamp) -> MempoolSnapshot {
        MempoolSnapshot::light(now, self.len(), self.total_vsize)
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
    use cn_chain::{Address, TxOut};

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

    /// `p` with its ancestor-score index built, so every later mutation
    /// maintains it incrementally.
    fn indexed(p: Mempool) -> Mempool {
        let _ = p.anc_score_iter();
        p
    }

    /// The incrementally kept ancestor-score index must hold exactly one
    /// key per resident, at the entry's current (anc_fee, anc_vsize, seq),
    /// and the cached descendant-package cardinality must match the graph.
    /// Reading through `anc_score_iter` would build a fresh index and pass
    /// vacuously, so the pool must have built it before its first mutation.
    fn assert_anc_index_consistent(p: &Mempool) {
        let index = p.anc_index.get().expect("index built before the first mutation");
        assert_eq!(index.len(), p.len(), "one key per resident");
        for key in index {
            let e = p.get(&key.txid).expect("indexed txs are resident");
            assert_eq!((key.fee, key.vsize), (e.anc_fee, e.anc_vsize), "key matches entry");
            assert_eq!(key.seq, e.sequence());
            let (fee, vsize) = p.compute_ancestor_package_h(key.handle.0);
            assert_eq!((key.fee, key.vsize), (fee.to_sat(), vsize), "key matches the graph");
            assert_eq!(
                e.descendant_count() as usize,
                p.descendants_h(key.handle.0).len() + 1,
                "desc_count matches the graph"
            );
        }
    }

    #[test]
    fn add_and_lookup() {
        let mut p = indexed(pool());
        let t = tx_with(1, 0, 1_000);
        let vsize = t.vsize();
        let txid = p.add(t, Amount::from_sat(2_000), 10).expect("accepted");
        assert!(p.contains(&txid));
        assert_eq!(p.len(), 1);
        assert_eq!(p.total_vsize(), vsize);
        assert_eq!(p.get(&txid).expect("resident").received(), 10);
        assert_eq!(p.handle_of(&txid).map(|h| h.index()), Some(0));
        assert_anc_index_consistent(&p);
    }

    #[test]
    fn each_index_is_built_only_by_its_reader() {
        let mut p = pool();
        let parent = tx_with(1, 0, 50_000);
        p.add(parent.clone(), Amount::from_sat(1_000), 0).expect("ok");
        p.add(child_of(&parent, 40_000), Amount::from_sat(2_000), 1).expect("ok");
        p.apply_block(&cn_chain::Block::assemble(
            1,
            cn_chain::BlockHash::ZERO,
            0,
            0,
            cn_chain::CoinbaseBuilder::new(1)
                .reward(Address::from_label("pool"), Amount::from_btc(6))
                .build(),
            vec![parent],
        ));
        let built = |p: &Mempool| {
            (p.anc_index.get().is_some(), p.by_desc_rate.is_some(), p.rows.is_some())
        };
        assert_eq!(built(&p), (false, false, false), "mutations build nothing");
        p.snapshot(2);
        assert_eq!(built(&p), (false, false, true));
        p.limit_size(u64::MAX);
        assert_eq!(built(&p), (false, true, true));
        assert_eq!(p.anc_score_iter().count(), 1);
        assert_eq!(built(&p), (true, true, true));
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
        let mut p = indexed(pool());
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
        assert_anc_index_consistent(&p);
    }

    #[test]
    fn ancestor_package_scores_cpfp() {
        // accept_all so the deliberately underpriced parent gets in.
        let mut p = indexed(Mempool::new(MempoolPolicy::accept_all()));
        let parent = tx_with(1, 0, 50_000);
        let child = child_of(&parent, 40_000);
        let (pv, cv) = (parent.vsize(), child.vsize());
        p.add(parent.clone(), Amount::from_sat(100), 0).expect("low-fee parent");
        p.add(child.clone(), Amount::from_sat(9_000), 1).expect("high-fee child");
        let (fee, vsize) = p.ancestor_package(&child.txid()).expect("resident");
        assert_eq!(fee, Amount::from_sat(9_100));
        assert_eq!(vsize, pv + cv);
        // Parent alone scores only itself.
        let (fee, vsize) = p.ancestor_package(&parent.txid()).expect("resident");
        assert_eq!(fee, Amount::from_sat(100));
        assert_eq!(vsize, pv);
        assert_anc_index_consistent(&p);
    }

    #[test]
    fn apply_block_confirms_and_evicts_conflicts() {
        let mut p = indexed(pool());
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
        let cb = cn_chain::CoinbaseBuilder::new(1)
            .reward(Address::from_label("pool"), Amount::from_btc(6))
            .build();
        let block = cn_chain::Block::assemble(
            2,
            cn_chain::BlockHash::ZERO,
            0,
            0,
            cb,
            vec![confirmed.clone(), winner],
        );
        let (confirmed_n, conflicted_n) = p.apply_block(&block);
        assert_eq!(confirmed_n, 1);
        assert_eq!(conflicted_n, 2); // rival + its child
        assert!(p.is_empty());
        assert_anc_index_consistent(&p);
    }

    #[test]
    fn remove_with_descendants_cleans_indexes() {
        let mut p = indexed(pool());
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
        assert_anc_index_consistent(&p);
    }

    #[test]
    fn ancestor_limit_enforced() {
        let mut p = Mempool::new(MempoolPolicy {
            max_ancestors: 2,
            ..MempoolPolicy::default()
        });
        let t0 = tx_with(1, 0, 90_000);
        let t1 = child_of(&t0, 80_000);
        let t2 = child_of(&t1, 70_000);
        p.add(t0, Amount::from_sat(1_000), 0).expect("ok");
        p.add(t1, Amount::from_sat(1_000), 0).expect("ok");
        assert_eq!(p.add(t2, Amount::from_sat(1_000), 0), Err(AcceptError::TooManyAncestors));
    }

    #[test]
    fn descendant_limit_enforced() {
        let mut p = Mempool::new(MempoolPolicy {
            max_descendants: 2,
            ..MempoolPolicy::default()
        });
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
    fn expiry_evicts_old_entries_with_children() {
        let mut p = indexed(pool());
        let old = tx_with(1, 0, 50_000);
        let child = child_of(&old, 40_000);
        let fresh = tx_with(2, 0, 1_000);
        p.add(old.clone(), Amount::from_sat(1_000), 0).expect("ok");
        p.add(child.clone(), Amount::from_sat(1_000), 500_000).expect("ok");
        p.add(fresh.clone(), Amount::from_sat(1_000), 1_000_000).expect("ok");
        let evicted = p.evict_expired(1_000_100, 600_000);
        assert_eq!(evicted.len(), 2);
        assert!(p.contains(&fresh.txid()));
        assert!(!p.contains(&old.txid()));
        assert!(!p.contains(&child.txid()));
        assert_anc_index_consistent(&p);
    }

    #[test]
    fn descendant_package_mirrors_ancestor_package() {
        let mut p = Mempool::new(MempoolPolicy::accept_all());
        let parent = tx_with(1, 0, 50_000);
        let child = child_of(&parent, 40_000);
        p.add(parent.clone(), Amount::from_sat(100), 0).expect("ok");
        p.add(child.clone(), Amount::from_sat(9_000), 1).expect("ok");
        let (fee, vsize) = p.descendant_package(&parent.txid()).expect("resident");
        assert_eq!(fee, Amount::from_sat(9_100));
        assert_eq!(vsize, parent.vsize() + child.vsize());
        let (fee, _) = p.descendant_package(&child.txid()).expect("resident");
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
        assert_eq!(snap.entries.len(), 2);
        let child_row = snap.entries.iter().find(|e| e.txid == child.txid()).expect("child");
        assert!(child_row.has_unconfirmed_parent);
        assert_eq!(child_row.received, 9);
        let parent_row = snap.entries.iter().find(|e| e.txid == parent.txid()).expect("parent");
        assert!(!parent_row.has_unconfirmed_parent);
        assert_eq!(snap.total_vsize(), parent.vsize() + child.vsize());
    }

    #[test]
    fn handles_recycled_after_removal() {
        let mut p = indexed(pool());
        let a = tx_with(1, 0, 1_000);
        let b = tx_with(2, 0, 1_000);
        let a_id = p.add(a, Amount::from_sat(2_000), 0).expect("ok");
        let slot_a = p.handle_of(&a_id).expect("live").index();
        p.remove_with_descendants(&a_id);
        let b_id = p.add(b, Amount::from_sat(2_000), 1).expect("ok");
        assert_eq!(p.handle_of(&b_id).expect("live").index(), slot_a, "slot reused");
        assert_eq!(p.slot_count(), 1);
        assert_anc_index_consistent(&p);
    }

    #[test]
    fn desc_count_tracks_adds_removes_and_reconnect() {
        let mut p = indexed(Mempool::new(MempoolPolicy::accept_all()));
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
        assert_anc_index_consistent(&p);
        // Subtree eviction sheds the removed members from survivors.
        p.remove_with_descendants(&child.txid());
        assert_eq!(p.get(&parent.txid()).expect("resident").descendant_count(), 1);
        assert_anc_index_consistent(&p);
    }

    #[test]
    fn add_prechecked_matches_add_shared() {
        // The same package admitted through both entry points must land in
        // identical pool state, including refusals.
        let mut via_shared = pool();
        let mut via_pre = indexed(pool());
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
        assert_anc_index_consistent(&via_pre);
    }

    #[test]
    fn apply_block_batched_confirm_of_cpfp_package() {
        // A whole parent/child package confirms in one block while an
        // unrelated CPFP pair survives — survivor scores must match the
        // graph after the batched connect.
        let mut p = indexed(Mempool::new(MempoolPolicy::accept_all()));
        let parent = tx_with(1, 0, 50_000);
        let child = child_of(&parent, 40_000);
        let other = tx_with(2, 0, 50_000);
        let other_child = child_of(&other, 40_000);
        p.add(parent.clone(), Amount::from_sat(100), 0).expect("ok");
        p.add(child.clone(), Amount::from_sat(9_000), 1).expect("ok");
        p.add(other.clone(), Amount::from_sat(200), 2).expect("ok");
        p.add(other_child.clone(), Amount::from_sat(7_000), 3).expect("ok");
        let cb = cn_chain::CoinbaseBuilder::new(1)
            .reward(Address::from_label("pool"), Amount::from_btc(6))
            .build();
        let block = cn_chain::Block::assemble(
            1,
            cn_chain::BlockHash::ZERO,
            0,
            0,
            cb,
            vec![parent.clone(), child.clone()],
        );
        let (confirmed_n, conflicted_n) = p.apply_block(&block);
        assert_eq!((confirmed_n, conflicted_n), (2, 0));
        assert_eq!(p.len(), 2);
        let (fee, _) = p.ancestor_package(&other_child.txid()).expect("resident");
        assert_eq!(fee, Amount::from_sat(7_200));
        assert_eq!(p.get(&other.txid()).expect("resident").descendant_count(), 2);
        assert_anc_index_consistent(&p);
    }

    #[test]
    fn anc_index_tracks_reconnect_and_confirm() {
        // Child delivered before parent (out-of-order reconnect), then the
        // parent is confirmed away — the maintained index must match the
        // graph at every step.
        let mut p = indexed(Mempool::new(MempoolPolicy::accept_all()));
        let parent = tx_with(9, 0, 50_000);
        let child = child_of(&parent, 40_000);
        p.add(child.clone(), Amount::from_sat(4_000), 0).expect("orphan accepted");
        p.add(parent.clone(), Amount::from_sat(300), 1).expect("parent accepted");
        assert_anc_index_consistent(&p);
        let (fee, _) = p.ancestor_package(&child.txid()).expect("resident");
        assert_eq!(fee, Amount::from_sat(4_300), "reconnect rescored the child");

        let cb = cn_chain::CoinbaseBuilder::new(1)
            .reward(Address::from_label("pool"), Amount::from_btc(6))
            .build();
        let block = cn_chain::Block::assemble(
            1,
            cn_chain::BlockHash::ZERO,
            0,
            0,
            cb,
            vec![parent.clone()],
        );
        p.apply_block(&block);
        assert_anc_index_consistent(&p);
        let (fee, _) = p.ancestor_package(&child.txid()).expect("child survives");
        assert_eq!(fee, Amount::from_sat(4_000), "confirm peeled the parent off");
    }
}
