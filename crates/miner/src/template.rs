//! `GetBlockTemplate`-style block template construction.
//!
//! Reproduces the two norms the protocol's shared implementation encodes
//! (§2.1 of the paper):
//!
//! * **Norm I (selection)** — candidates are drawn greedily by *ancestor
//!   package* fee rate (CPFP-aware, as Bitcoin Core's `BlockAssembler`
//!   does), until the weight budget is exhausted.
//! * **Norm II (ordering)** — within the block, transactions are placed in
//!   descending fee-rate order, subject only to the topological constraint
//!   that parents precede children.
//!
//! Deviations are injected through a [`Priority`] classifier: accelerated
//! transactions are selected and placed *first* (dragging their ancestors
//! along), decelerated ones are deferred to the residual space at the
//! *bottom*, excluded ones (and, necessarily, their descendants) never
//! appear. This is exactly the lever the paper's SPPE detector measures.

use crate::policy::Priority;
use cn_chain::{Amount, FastMap, FastSet, Params, Transaction, Txid};
use cn_mempool::{Mempool, MempoolEntry, TxHandle};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// The product of template construction: ordered body transactions plus
/// their fees (coinbase is the pool's job).
///
/// Transactions are shared handles into the mempool's storage — assembling
/// a template never copies a transaction body.
#[derive(Clone, Debug)]
pub struct BlockTemplate {
    /// Body transactions in final block order.
    pub transactions: Vec<Arc<Transaction>>,
    /// Fee of each transaction, parallel to `transactions`.
    pub fees: Vec<Amount>,
    /// Total fees offered by the body.
    pub total_fees: Amount,
    /// Total body weight in weight units.
    pub total_weight: u64,
}

impl BlockTemplate {
    /// Number of body transactions.
    pub fn len(&self) -> usize {
        self.transactions.len()
    }

    /// True when the template selected nothing.
    pub fn is_empty(&self) -> bool {
        self.transactions.is_empty()
    }
}

/// Ancestor-package score compared exactly (cross-multiplied), as fee-rate
/// division would introduce rounding ties.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct PackageScore {
    fee: u64,
    vsize: u64,
    /// Arrival sequence for deterministic tie-breaks (earlier wins).
    seq: u64,
}

impl Ord for PackageScore {
    fn cmp(&self, other: &Self) -> Ordering {
        let lhs = self.fee as u128 * other.vsize as u128;
        let rhs = other.fee as u128 * self.vsize as u128;
        lhs.cmp(&rhs)
            // Smaller packages first among equal rates (Core's heuristic).
            .then_with(|| other.vsize.cmp(&self.vsize))
            // Earlier arrival wins: greater-is-better, so compare reversed.
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for PackageScore {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct HeapItem {
    score: PackageScore,
    txid: Txid,
}

impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        self.score.cmp(&other.score).then_with(|| self.txid.cmp(&other.txid))
    }
}

impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Heap item of the selection walk: ordered like [`HeapItem`] (the slab
/// handle never decides, as one txid has one handle), and carrying the
/// handle so the walk's per-slot state is dense array indexing instead of
/// txid hashing.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Candidate {
    score: PackageScore,
    txid: Txid,
    handle: TxHandle,
}

/// How one priority phase treats a mempool slot.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Slot {
    /// Not a candidate: another priority class, or blocked behind an
    /// unselected ancestor the phase may not pull in.
    Out,
    /// A candidate whose phase-start copy is its key among the pool's
    /// best-first ancestor-score keys.
    Keyed,
    /// A candidate whose phase-start copy the side heap holds.
    Heaped,
}

/// Lifetime assembly counters for one assembler: how many templates had
/// no classified deviation and how many had one, by deviation class. One
/// template can count under several classes (a priority map may carry
/// Accelerate and Exclude entries at once).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AssemblyStats {
    /// Templates with no classified deviation: the Normal phase alone,
    /// walking the pool's best-first ancestor-score keys.
    pub incremental_hits: u64,
    /// Templates whose priority map carried at least one deviation, so
    /// deviation phases ran around the Normal one.
    pub full_rebuilds: u64,
    /// Templates whose priority map carried ≥1 Accelerate entry.
    pub rebuilds_with_accelerate: u64,
    /// Templates whose priority map carried ≥1 Decelerate entry.
    pub rebuilds_with_decelerate: u64,
    /// Templates whose priority map carried ≥1 Exclude entry.
    pub rebuilds_with_exclude: u64,
}

/// A `GetBlockTemplate`-style assembler.
///
/// ```
/// use cn_miner::{BlockAssembler, Priority};
/// use cn_mempool::{Mempool, MempoolPolicy};
/// use cn_chain::{Address, Amount, Params, Transaction, TxOut};
///
/// let mut pool = Mempool::new(MempoolPolicy::default());
/// for (seed, rate) in [(1u8, 5u64), (2, 50)] {
///     let tx = Transaction::builder()
///         .add_input_with_sizes([seed; 32].into(), 0, 107, 0)
///         .add_output(TxOut::to_address(Amount::from_sat(1_000), Address::from_label("r")))
///         .build();
///     let fee = Amount::from_sat(tx.vsize() * rate);
///     pool.add(tx, fee, 0).unwrap();
/// }
/// let tpl = BlockAssembler::new(Params::mainnet()).assemble(&pool, |_| Priority::Normal);
/// // Norm II: the 50 sat/vB transaction leads the block.
/// assert_eq!(tpl.len(), 2);
/// assert!(tpl.fees[0] > tpl.fees[1]);
/// ```
#[derive(Clone, Debug)]
pub struct BlockAssembler {
    params: Params,
    /// Templates built with and without a classified deviation, by class.
    stats: AssemblyStats,
}

impl BlockAssembler {
    /// Creates an assembler for the given chain parameters.
    pub fn new(params: Params) -> BlockAssembler {
        BlockAssembler { params, stats: AssemblyStats::default() }
    }

    /// Lifetime counters: how many templates this assembler built with and
    /// without a classified deviation, and which classes they carried.
    pub fn stats(&self) -> AssemblyStats {
        self.stats
    }

    /// The body weight budget (block limit minus coinbase reservation).
    pub fn weight_budget(&self) -> u64 {
        self.params
            .max_block_weight
            .saturating_sub(self.params.coinbase_reserved_weight)
    }

    /// Builds a template from `mempool`, classifying each candidate with
    /// `classify` (use `|_| Priority::Normal` for a norm-following miner).
    ///
    /// Selection runs phase by phase — accelerated, Normal, decelerated —
    /// over one selection state indexed by slab handle, on the mempool's
    /// incrementally maintained ancestor-package scores. The Normal phase
    /// pops the pool's ancestor-score keys best-first from a heap built for
    /// this template ([`Mempool::anc_keys_best_first`]), merged with a side
    /// heap of re-scored copies (candidates whose score moved before the
    /// phase began, and copies requeued during it); a deviation phase runs
    /// on the side heap alone. A phase nobody is classified into is
    /// skipped, so a norm-following template is one walk over the keys.
    /// The result is bit-identical to
    /// [`BlockAssembler::assemble_reference`], the walk-everything
    /// specification version.
    pub fn assemble<F>(&mut self, mempool: &Mempool, classify: F) -> BlockTemplate
    where
        F: Fn(&MempoolEntry) -> Priority,
    {
        let priorities = self.classify_priorities(mempool, classify);
        self.assemble_with_priorities(mempool, &priorities)
    }

    /// [`BlockAssembler::assemble`] for a policy known to classify every
    /// transaction as Normal: skips the per-entry classification pass, so
    /// only the Normal phase's walk over the keys runs.
    pub fn assemble_norm(&mut self, mempool: &Mempool) -> BlockTemplate {
        let priorities = FastMap::default();
        self.assemble_with_priorities(mempool, &priorities)
    }

    /// Shared selection dispatch behind the public `assemble` entry points.
    fn assemble_with_priorities(
        &mut self,
        mempool: &Mempool,
        priorities: &FastMap<Txid, Priority>,
    ) -> BlockTemplate {
        // Classes present after propagation, so an accelerated child's
        // dragged-up ancestors count too.
        let has = |class: Priority| priorities.values().any(|p| *p == class);
        if priorities.is_empty() {
            self.stats.incremental_hits += 1;
        } else {
            self.stats.full_rebuilds += 1;
            self.stats.rebuilds_with_accelerate += u64::from(has(Priority::Accelerate));
            self.stats.rebuilds_with_decelerate += u64::from(has(Priority::Decelerate));
            self.stats.rebuilds_with_exclude += u64::from(has(Priority::Exclude));
        }
        let mut selection = Selection::new(mempool, self.weight_budget());
        for phase in [Priority::Accelerate, Priority::Normal, Priority::Decelerate] {
            // A deviation phase nobody is classified into has no candidates.
            if phase == Priority::Normal || has(phase) {
                selection.select_phase(priorities, phase);
            }
        }
        self.order_and_finish(mempool, priorities, selection.order)
    }

    /// Walk-based reference assembler: recomputes every package score from
    /// the transaction graph, exactly as written before the indexed hot
    /// path existed. Kept as the specification the optimized
    /// [`BlockAssembler::assemble`] must match bit for bit (see the
    /// property tests); not intended for production use.
    pub fn assemble_reference<F>(&self, mempool: &Mempool, classify: F) -> BlockTemplate
    where
        F: Fn(&MempoolEntry) -> Priority,
    {
        let priorities = self.classify_priorities(mempool, classify);
        let budget = self.weight_budget();
        let mut selected: Vec<Txid> = Vec::new();
        let mut selected_set: FastSet<Txid> = FastSet::default();
        let mut used_weight = 0u64;
        for phase in [Priority::Accelerate, Priority::Normal, Priority::Decelerate] {
            self.select_phase_reference(
                mempool,
                &priorities,
                phase,
                budget,
                &mut used_weight,
                &mut selected,
                &mut selected_set,
            );
        }
        self.order_and_finish(mempool, &priorities, selected)
    }

    /// Applies `classify` and propagates priorities along package edges
    /// (exclusion down, acceleration up, deceleration down).
    fn classify_priorities<F>(&self, mempool: &Mempool, classify: F) -> FastMap<Txid, Priority>
    where
        F: Fn(&MempoolEntry) -> Priority,
    {
        // Sparse: only deviations from Normal are stored (the map is empty
        // for a norm-following pool), so lookups go through
        // [`BlockAssembler::prio`].
        let mut priorities: FastMap<Txid, Priority> = FastMap::default();
        for entry in mempool.iter() {
            let p = classify(entry);
            if p != Priority::Normal {
                priorities.insert(entry.txid(), p);
            }
        }
        // Exclusion propagates downward: a descendant of an excluded
        // transaction cannot be mined (its input would be missing).
        let excluded_seeds: Vec<Txid> = priorities
            .iter()
            .filter(|(_, p)| **p == Priority::Exclude)
            .map(|(t, _)| *t)
            .collect();
        for seed in excluded_seeds {
            for d in mempool.descendants(&seed) {
                priorities.insert(d, Priority::Exclude);
            }
        }
        // Acceleration propagates upward: committing an accelerated child
        // requires committing its ancestors, at the same priority (this is
        // how real acceleration services honour CPFP packages).
        let accelerated_seeds: Vec<Txid> = priorities
            .iter()
            .filter(|(_, p)| **p == Priority::Accelerate)
            .map(|(t, _)| *t)
            .collect();
        for seed in accelerated_seeds {
            for a in mempool.ancestors(&seed) {
                if priorities.get(&a) != Some(&Priority::Exclude) {
                    priorities.insert(a, Priority::Accelerate);
                }
            }
        }
        // Deceleration propagates downward: a package containing a
        // decelerated ancestor is deferred with it (unless the child is
        // itself accelerated, which re-prioritizes the package upward and
        // was handled above).
        let decelerated_seeds: Vec<Txid> = priorities
            .iter()
            .filter(|(_, p)| **p == Priority::Decelerate)
            .map(|(t, _)| *t)
            .collect();
        for seed in decelerated_seeds {
            if priorities.get(&seed) != Some(&Priority::Decelerate) {
                continue; // was re-prioritized by an accelerated descendant
            }
            for d in mempool.descendants(&seed) {
                if Self::prio(&priorities, &d) == Priority::Normal {
                    priorities.insert(d, Priority::Decelerate);
                }
            }
        }

        priorities
    }

    /// The effective priority of `txid` under a sparse priority map
    /// (absent means Normal).
    fn prio(priorities: &FastMap<Txid, Priority>, txid: &Txid) -> Priority {
        priorities.get(txid).copied().unwrap_or(Priority::Normal)
    }

    /// Whether phase `phase` may pull in a package member of priority `p`.
    fn phase_allows(phase: Priority, p: Priority) -> bool {
        match p {
            Priority::Exclude => false,
            // The accelerate phase drags ancestors of any minable priority.
            _ if phase == Priority::Accelerate => true,
            _ => p == phase,
        }
    }

    /// Greedy ancestor-package selection restricted to one priority class
    /// (reference version: rescans and rescores via graph walks).
    #[allow(clippy::too_many_arguments)]
    fn select_phase_reference(
        &self,
        mempool: &Mempool,
        priorities: &FastMap<Txid, Priority>,
        phase: Priority,
        budget: u64,
        used_weight: &mut u64,
        selected: &mut Vec<Txid>,
        selected_set: &mut FastSet<Txid>,
    ) {
        let mut heap: BinaryHeap<HeapItem> = BinaryHeap::new();
        for entry in mempool.iter() {
            let txid = entry.txid();
            if Self::prio(priorities, &txid) != phase || selected_set.contains(&txid) {
                continue;
            }
            if let Some(score) = self.package_score(mempool, &txid, selected_set, priorities, phase)
            {
                heap.push(HeapItem { score, txid });
            }
        }
        while let Some(item) = heap.pop() {
            if selected_set.contains(&item.txid) {
                continue; // already swept in as someone's ancestor
            }
            // Stale check: recompute authoritative score; if it changed
            // (an ancestor was selected meanwhile), reinsert and retry.
            let Some(score) =
                self.package_score(mempool, &item.txid, selected_set, priorities, phase)
            else {
                continue; // package no longer eligible in this phase
            };
            if score != item.score {
                heap.push(HeapItem { score, txid: item.txid });
                continue;
            }
            // Gather the unselected ancestors + self, check the fit.
            let mut package: Vec<Txid> = mempool
                .ancestors(&item.txid)
                .into_iter()
                .filter(|a| !selected_set.contains(a))
                .collect();
            package.push(item.txid);
            let weight: u64 = package
                .iter()
                .map(|t| mempool.get(t).expect("resident").tx().weight())
                .sum();
            if *used_weight + weight > budget {
                continue; // does not fit; try the next-best package
            }
            // Include ancestors before the child (topological within package).
            package.sort_by_key(|t| {
                let depth = mempool.ancestors(t).len();
                (depth, mempool.get(t).expect("resident").sequence())
            });
            for txid in package {
                if selected_set.insert(txid) {
                    selected.push(txid);
                }
            }
            *used_weight += weight;
            // Descendants of what we just took have new package scores.
            for d in mempool.descendants(&item.txid) {
                if Self::prio(priorities, &d) == phase && !selected_set.contains(&d) {
                    if let Some(score) =
                        self.package_score(mempool, &d, selected_set, priorities, phase)
                    {
                        heap.push(HeapItem { score, txid: d });
                    }
                }
            }
        }
    }

    /// Score of `txid`'s package (self + unselected in-pool ancestors), or
    /// `None` when the package contains a member this phase must not pull
    /// in (excluded always; lower-priority members only in their own phase).
    fn package_score(
        &self,
        mempool: &Mempool,
        txid: &Txid,
        selected_set: &FastSet<Txid>,
        priorities: &FastMap<Txid, Priority>,
        phase: Priority,
    ) -> Option<PackageScore> {
        let entry = mempool.get(txid)?;
        let mut fee = entry.fee().to_sat();
        let mut vsize = entry.vsize();
        let seq = entry.sequence();
        for a in mempool.ancestors(txid) {
            if selected_set.contains(&a) {
                continue;
            }
            match Self::prio(priorities, &a) {
                Priority::Exclude => return None,
                // An ancestor in a *lower* phase cannot be pulled in by a
                // higher phase; Accelerate ancestors were already promoted.
                p if p != phase && phase != Priority::Accelerate => return None,
                _ => {}
            }
            let e = mempool.get(&a).expect("ancestors resident");
            fee += e.fee().to_sat();
            vsize += e.vsize();
        }
        Some(PackageScore { fee, vsize, seq })
    }

    /// Orders the selected set per norm II (fee-rate descending, parents
    /// first, accelerated at the top, decelerated at the bottom) and
    /// totals the template.
    fn order_and_finish(
        &self,
        mempool: &Mempool,
        priorities: &FastMap<Txid, Priority>,
        selected: Vec<Txid>,
    ) -> BlockTemplate {
        let selected_set: FastSet<Txid> = selected.iter().copied().collect();
        // Kahn's algorithm with a priority queue: among transactions whose
        // selected parents are all placed, place the one with the best
        // (segment, fee rate, arrival) key.
        #[derive(PartialEq, Eq)]
        struct OrderKey {
            segment: u8, // 0 accelerated, 1 normal, 2 decelerated
            rate_num: u64,
            rate_den: u64,
            seq: u64,
            txid: Txid,
        }
        impl Ord for OrderKey {
            fn cmp(&self, other: &Self) -> Ordering {
                // BinaryHeap pops the max; "better" must compare greater.
                other
                    .segment
                    .cmp(&self.segment)
                    .then_with(|| {
                        let lhs = self.rate_num as u128 * other.rate_den as u128;
                        let rhs = other.rate_num as u128 * self.rate_den as u128;
                        lhs.cmp(&rhs)
                    })
                    .then_with(|| other.seq.cmp(&self.seq))
                    .then_with(|| other.txid.cmp(&self.txid))
            }
        }
        impl PartialOrd for OrderKey {
            fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
                Some(self.cmp(other))
            }
        }

        let segment_of = |txid: &Txid| -> u8 {
            match priorities.get(txid) {
                Some(Priority::Accelerate) => 0,
                Some(Priority::Decelerate) => 2,
                _ => 1,
            }
        };
        let mut pending_parents: FastMap<Txid, usize> = FastMap::default();
        for txid in &selected {
            // Distinct parents: a child may spend several outputs of one
            // parent, which still counts as a single placement dependency.
            let parents: FastSet<Txid> = mempool
                .get(txid)
                .expect("resident")
                .tx()
                .inputs()
                .iter()
                .map(|i| i.prevout.txid)
                .filter(|t| selected_set.contains(t))
                .collect();
            pending_parents.insert(*txid, parents.len());
        }
        let mut ready: BinaryHeap<OrderKey> = BinaryHeap::new();
        let make_key = |txid: Txid| -> OrderKey {
            let e = mempool.get(&txid).expect("resident");
            OrderKey {
                segment: segment_of(&txid),
                rate_num: e.fee().to_sat(),
                rate_den: e.vsize().max(1),
                seq: e.sequence(),
                txid,
            }
        };
        for (txid, n) in &pending_parents {
            if *n == 0 {
                ready.push(make_key(*txid));
            }
        }
        let mut ordered: Vec<Txid> = Vec::with_capacity(selected.len());
        while let Some(key) = ready.pop() {
            ordered.push(key.txid);
            // Only direct children hold a placement dependency on this tx.
            for child in mempool.children_of(&key.txid) {
                if let Some(n) = pending_parents.get_mut(&child) {
                    *n = n.saturating_sub(1);
                    if *n == 0 {
                        ready.push(make_key(child));
                    }
                }
            }
        }
        debug_assert_eq!(ordered.len(), selected.len(), "ordering lost transactions");

        let mut transactions = Vec::with_capacity(ordered.len());
        let mut fees = Vec::with_capacity(ordered.len());
        let mut total_fees = Amount::ZERO;
        let mut total_weight = 0u64;
        for txid in ordered {
            let e = mempool.get(&txid).expect("resident");
            total_fees += e.fee();
            total_weight += e.tx().weight();
            fees.push(e.fee());
            transactions.push(e.tx_arc());
        }
        BlockTemplate { transactions, fees, total_fees, total_weight }
    }
}

/// One template's selection state, shared by every priority phase and
/// indexed by mempool slab handle.
struct Selection<'a> {
    mempool: &'a Mempool,
    budget: u64,
    /// Weight of the lightest resident: no package weighs less, so once
    /// the residual budget is below it nothing more can fit.
    min_weight: u64,
    used: u64,
    /// Selected transactions, in selection order.
    order: Vec<Txid>,
    selected: Vec<bool>,
    /// Remaining package score (self + every unselected in-pool ancestor)
    /// of each slot whose package has lost a member to the block; `None`
    /// means the pool's cached ancestor score still holds.
    rem: Vec<Option<(u64, u64)>>,
    /// The slots `rem` covers, in the order they were first set.
    moved: Vec<TxHandle>,
}

impl<'a> Selection<'a> {
    fn new(mempool: &'a Mempool, budget: u64) -> Selection<'a> {
        let slots = mempool.slot_count();
        Selection {
            mempool,
            budget,
            min_weight: mempool.min_tx_weight().unwrap_or(u64::MAX),
            used: 0,
            order: Vec::new(),
            selected: vec![false; slots],
            rem: vec![None; slots],
            moved: Vec::new(),
        }
    }

    /// `h` at its remaining package score.
    fn candidate(&self, h: TxHandle) -> Candidate {
        let e = self.mempool.entry_at(h);
        let (fee, vsize) = self.rem[h.index()].unwrap_or_else(|| {
            let (f, v) = e.ancestor_score();
            (f.to_sat(), v)
        });
        let score = PackageScore { fee, vsize, seq: e.sequence() };
        Candidate { score, txid: e.txid(), handle: h }
    }

    /// Greedy ancestor-package selection for one priority class.
    ///
    /// The selections are the reference heap's
    /// ([`BlockAssembler::select_phase_reference`]), because the walk acts
    /// on exactly the copies that heap holds, in the same order:
    /// * At phase start, one copy per candidate at its remaining score.
    ///   In the Normal phase a candidate whose score has not moved has
    ///   that copy as its key among the pool's ancestor-score keys, which
    ///   a cursor pops best-first. Every other candidate's copy goes into
    ///   the side heap, and the cursor skips its stale key.
    /// * After a selection, one copy per candidate descendant of the
    ///   popped transaction, at its new score; a popped copy whose score
    ///   moved is requeued at its true score. The cursor and the heap
    ///   merge under the heap's total order.
    /// * `rem` equals self + every unselected in-pool ancestor, because
    ///   every selected transaction is subtracted from all of its
    ///   descendants at selection time, so a score check is an array read.
    /// * A candidate is *blocked* while some unselected ancestor has a
    ///   priority the phase must not pull in. Blockers are never selected
    ///   during the phase, so one downward sweep settles blocked status.
    fn select_phase(&mut self, priorities: &FastMap<Txid, Priority>, phase: Priority) {
        let pool = self.mempool;
        let handle = |txid: &Txid| pool.handle_of(txid).expect("classified txs resident");
        let normal = phase == Priority::Normal;
        // The sparse priority map lists every slot that is not Normal.
        let mut slot = vec![if normal { Slot::Keyed } else { Slot::Out }; pool.slot_count()];
        for (txid, p) in priorities {
            slot[handle(txid).index()] = if *p == phase { Slot::Heaped } else { Slot::Out };
        }
        // The Accelerate and Normal phases refuse only classified
        // transactions; the Decelerate phase also refuses the unselected
        // Normal majority, so it scans the pool (in slab order: the sweep
        // below marks a closure, which no order changes) for blockers.
        let refuses = |p: Priority| !BlockAssembler::phase_allows(phase, p);
        let mut stack: Vec<TxHandle> = if phase == Priority::Decelerate {
            pool.iter()
                .map(|e| e.txid())
                .filter(|txid| refuses(BlockAssembler::prio(priorities, txid)))
                .map(|txid| handle(&txid))
                .collect()
        } else {
            priorities.iter().filter(|(_, p)| refuses(**p)).map(|(t, _)| handle(t)).collect()
        };
        stack.retain(|h| !self.selected[h.index()]);
        // A blocker's descendants are blockers or candidates: exclusion
        // reaches every descendant, and in the Normal and Decelerate phases
        // every unselected slot of another class blocks. So a child already
        // `Out` has been, or will be, swept from.
        while let Some(h) = stack.pop() {
            for c in pool.child_handles(h) {
                if slot[c.index()] != Slot::Out {
                    slot[c.index()] = Slot::Out;
                    stack.push(c);
                }
            }
        }
        let seeds: Vec<TxHandle> =
            if normal { self.moved.clone() } else { priorities.keys().map(handle).collect() };
        let mut heap: BinaryHeap<Candidate> = BinaryHeap::new();
        for h in seeds {
            if !self.selected[h.index()] && slot[h.index()] != Slot::Out {
                slot[h.index()] = Slot::Heaped;
                heap.push(self.candidate(h));
            }
        }

        // Only the Normal phase reads the keys; a deviation phase skips
        // the heapify.
        let mut cursor =
            normal.then(|| pool.anc_keys_best_first()).into_iter().flatten().peekable();
        while self.budget - self.used >= self.min_weight {
            let keyed = cursor.peek().map(|k| Candidate {
                score: PackageScore { fee: k.fee, vsize: k.vsize, seq: k.seq },
                txid: k.txid,
                handle: k.handle,
            });
            let from_cursor = match (keyed, heap.peek()) {
                (Some(c), Some(m)) => c > *m,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            let item = if from_cursor {
                cursor.next();
                match keyed {
                    Some(c) if slot[c.handle.index()] == Slot::Keyed => c,
                    _ => continue,
                }
            } else {
                heap.pop().expect("peeked")
            };
            let h = item.handle;
            if self.selected[h.index()] {
                continue; // already swept in as someone's ancestor
            }
            let now = self.candidate(h);
            if now != item {
                heap.push(now); // an ancestor was selected since this copy was keyed
                continue;
            }
            // Gather the unselected ancestors + self, check the fit.
            let mut package = pool.ancestor_handles(h);
            package.retain(|a| !self.selected[a.index()]);
            package.push(h);
            let weight: u64 = package.iter().map(|t| pool.entry_at(*t).tx().weight()).sum();
            if self.used + weight > self.budget {
                continue; // does not fit; try the next-best package
            }
            self.used += weight;
            for t in &package {
                self.selected[t.index()] = true;
                self.order.push(pool.entry_at(*t).txid());
            }
            for m in &package {
                let e = pool.entry_at(*m);
                for d in pool.descendant_handles(*m) {
                    if self.selected[d.index()] {
                        continue;
                    }
                    let rem = &mut self.rem[d.index()];
                    if rem.is_none() {
                        self.moved.push(d);
                    }
                    let (fee, vsize) = rem.get_or_insert_with(|| {
                        let (f, v) = pool.entry_at(d).ancestor_score();
                        (f.to_sat(), v)
                    });
                    *fee -= e.fee().to_sat();
                    *vsize -= e.vsize();
                }
            }
            for d in pool.descendant_handles(h) {
                if !self.selected[d.index()] && slot[d.index()] != Slot::Out {
                    heap.push(self.candidate(d));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cn_chain::{Address, FeeRate, TxOut};
    use cn_mempool::MempoolPolicy;

    fn params() -> Params {
        Params::mainnet()
    }

    fn tx_with(seed: u8, out_sats: u64) -> Transaction {
        Transaction::builder()
            .add_input_with_sizes([seed; 32].into(), 0, 107, 0)
            .add_output(TxOut::to_address(Amount::from_sat(out_sats), Address::from_label("r")))
            .build()
    }

    fn child_of(parent: &Transaction, out_sats: u64) -> Transaction {
        Transaction::builder()
            .add_input_with_sizes(parent.txid(), 0, 107, 0)
            .add_output(TxOut::to_address(Amount::from_sat(out_sats), Address::from_label("c")))
            .build()
    }

    fn add_at_rate(pool: &mut Mempool, tx: Transaction, sat_per_vb: u64, t: u64) -> Txid {
        let fee = Amount::from_sat(tx.vsize() * sat_per_vb);
        pool.add(tx, fee, t).expect("accepted")
    }

    #[test]
    fn empty_mempool_empty_template() {
        let pool = Mempool::new(MempoolPolicy::default());
        let tpl = BlockAssembler::new(params()).assemble(&pool, |_| Priority::Normal);
        assert!(tpl.is_empty());
        assert_eq!(tpl.total_fees, Amount::ZERO);
    }

    #[test]
    fn norm_orders_by_fee_rate_desc() {
        let mut pool = Mempool::new(MempoolPolicy::default());
        let a = add_at_rate(&mut pool, tx_with(1, 1_000), 5, 0);
        let b = add_at_rate(&mut pool, tx_with(2, 1_000), 50, 1);
        let c = add_at_rate(&mut pool, tx_with(3, 1_000), 20, 2);
        let tpl = BlockAssembler::new(params()).assemble(&pool, |_| Priority::Normal);
        let order: Vec<Txid> = tpl.transactions.iter().map(|t| t.txid()).collect();
        assert_eq!(order, vec![b, c, a]);
        assert_eq!(tpl.len(), 3);
    }

    #[test]
    fn weight_budget_respected() {
        let mut small = params();
        small.max_block_weight = 4_000 + 2 * tx_with(1, 1).weight(); // room for ~2 txs
        let mut pool = Mempool::new(MempoolPolicy::default());
        add_at_rate(&mut pool, tx_with(1, 1_000), 10, 0);
        add_at_rate(&mut pool, tx_with(2, 1_000), 30, 1);
        add_at_rate(&mut pool, tx_with(3, 1_000), 20, 2);
        let mut assembler = BlockAssembler::new(small);
        let tpl = assembler.assemble(&pool, |_| Priority::Normal);
        assert_eq!(tpl.len(), 2);
        assert!(tpl.total_weight <= assembler.weight_budget());
        // The two highest rates won.
        let rates: Vec<u64> = tpl
            .fees
            .iter()
            .zip(&tpl.transactions)
            .map(|(f, t)| FeeRate::from_fee_and_vsize(*f, t.vsize()).to_sat_per_kvb() / 1000)
            .collect();
        assert_eq!(rates, vec![30, 20]);
    }

    #[test]
    fn cpfp_package_selected_together_parent_first() {
        let mut pool = Mempool::new(MempoolPolicy::accept_all());
        // Low-fee parent alone would lose to mid; high-fee child rescues it.
        let parent = tx_with(1, 50_000);
        let child = child_of(&parent, 40_000);
        let parent_id = pool.add(parent.clone(), Amount::from_sat(0), 0).expect("ok");
        let child_fee = Amount::from_sat((parent.vsize() + child.vsize()) * 40);
        let child_id = pool.add(child.clone(), child_fee, 1).expect("ok");
        let mid = add_at_rate(&mut pool, tx_with(9, 1_000), 20, 2);

        let mut small = params();
        small.max_block_weight =
            4_000 + parent.weight() + child.weight(); // no room for mid
        let tpl = BlockAssembler::new(small).assemble(&pool, |_| Priority::Normal);
        let order: Vec<Txid> = tpl.transactions.iter().map(|t| t.txid()).collect();
        // Package rate 40 sat/vB beats mid's 20; parent must precede child.
        assert_eq!(order, vec![parent_id, child_id]);
        assert!(!order.contains(&mid));
    }

    #[test]
    fn acceleration_puts_low_fee_tx_on_top() {
        let mut pool = Mempool::new(MempoolPolicy::default());
        let whale = add_at_rate(&mut pool, tx_with(1, 1_000), 100, 0);
        let sponsored = add_at_rate(&mut pool, tx_with(2, 1_000), 1, 1);
        add_at_rate(&mut pool, tx_with(3, 1_000), 50, 2);
        let tpl = BlockAssembler::new(params()).assemble(&pool, |e| {
            if e.txid() == sponsored {
                Priority::Accelerate
            } else {
                Priority::Normal
            }
        });
        let order: Vec<Txid> = tpl.transactions.iter().map(|t| t.txid()).collect();
        assert_eq!(order[0], sponsored, "accelerated tx must lead the block");
        assert_eq!(order[1], whale);
    }

    #[test]
    fn deceleration_sinks_to_bottom() {
        let mut pool = Mempool::new(MempoolPolicy::default());
        let rich = add_at_rate(&mut pool, tx_with(1, 1_000), 100, 0);
        add_at_rate(&mut pool, tx_with(2, 1_000), 50, 1);
        let sunk = rich;
        let tpl = BlockAssembler::new(params()).assemble(&pool, |e| {
            if e.txid() == sunk {
                Priority::Decelerate
            } else {
                Priority::Normal
            }
        });
        let order: Vec<Txid> = tpl.transactions.iter().map(|t| t.txid()).collect();
        assert_eq!(*order.last().expect("non-empty"), sunk);
    }

    #[test]
    fn decelerated_dropped_first_under_contention() {
        let mut small = params();
        small.max_block_weight = 4_000 + tx_with(1, 1).weight(); // one tx fits
        let mut pool = Mempool::new(MempoolPolicy::default());
        let rich = add_at_rate(&mut pool, tx_with(1, 1_000), 100, 0);
        let poor = add_at_rate(&mut pool, tx_with(2, 1_000), 2, 1);
        let tpl = BlockAssembler::new(small).assemble(&pool, |e| {
            if e.txid() == rich {
                Priority::Decelerate
            } else {
                Priority::Normal
            }
        });
        // The decelerated 100 sat/vB tx loses its slot to the normal 2 sat/vB one.
        let order: Vec<Txid> = tpl.transactions.iter().map(|t| t.txid()).collect();
        assert_eq!(order, vec![poor]);
    }

    #[test]
    fn exclusion_censors_tx_and_descendants() {
        let mut pool = Mempool::new(MempoolPolicy::default());
        let parent = tx_with(1, 50_000);
        let child = child_of(&parent, 40_000);
        let parent_id = add_at_rate(&mut pool, parent.clone(), 30, 0);
        let child_fee = Amount::from_sat(child.vsize() * 60);
        let child_id = pool.add(child, child_fee, 1).expect("ok");
        let bystander = add_at_rate(&mut pool, tx_with(5, 1_000), 5, 2);
        let tpl = BlockAssembler::new(params()).assemble(&pool, |e| {
            if e.txid() == parent_id {
                Priority::Exclude
            } else {
                Priority::Normal
            }
        });
        let order: Vec<Txid> = tpl.transactions.iter().map(|t| t.txid()).collect();
        assert_eq!(order, vec![bystander]);
        assert!(!order.contains(&parent_id));
        assert!(!order.contains(&child_id), "orphaned child must be censored too");
    }

    #[test]
    fn accelerated_child_drags_normal_parent_to_top() {
        let mut pool = Mempool::new(MempoolPolicy::default());
        let parent = tx_with(1, 50_000);
        let child = child_of(&parent, 40_000);
        let parent_id = add_at_rate(&mut pool, parent, 1, 0);
        let child_id = add_at_rate(&mut pool, child, 1, 1);
        let whale = add_at_rate(&mut pool, tx_with(7, 1_000), 500, 2);
        let tpl = BlockAssembler::new(params()).assemble(&pool, |e| {
            if e.txid() == child_id {
                Priority::Accelerate
            } else {
                Priority::Normal
            }
        });
        let order: Vec<Txid> = tpl.transactions.iter().map(|t| t.txid()).collect();
        assert_eq!(order[0], parent_id, "parent must be promoted with its child");
        assert_eq!(order[1], child_id);
        assert_eq!(order[2], whale);
    }

    #[test]
    fn totals_are_consistent() {
        let mut pool = Mempool::new(MempoolPolicy::default());
        for seed in 1..=10u8 {
            add_at_rate(&mut pool, tx_with(seed, 1_000), (seed as u64) * 3, seed as u64);
        }
        let tpl = BlockAssembler::new(params()).assemble(&pool, |_| Priority::Normal);
        assert_eq!(tpl.len(), 10);
        let sum: Amount = tpl.fees.iter().copied().sum();
        assert_eq!(sum, tpl.total_fees);
        let weight: u64 = tpl.transactions.iter().map(|t| t.weight()).sum();
        assert_eq!(weight, tpl.total_weight);
    }

    #[test]
    fn tie_break_is_fifo() {
        let mut pool = Mempool::new(MempoolPolicy::default());
        let first = add_at_rate(&mut pool, tx_with(1, 1_000), 10, 0);
        let second = add_at_rate(&mut pool, tx_with(2, 1_000), 10, 1);
        let tpl = BlockAssembler::new(params()).assemble(&pool, |_| Priority::Normal);
        let order: Vec<Txid> = tpl.transactions.iter().map(|t| t.txid()).collect();
        assert_eq!(order, vec![first, second]);
    }
}
