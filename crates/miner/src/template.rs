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

/// Heap item for the cursor fast path: ordered exactly like [`HeapItem`],
/// but carrying the mempool slab handle so score-overlay lookups are dense
/// array indexing instead of txid hashing.
#[derive(Clone, Copy, Debug)]
struct CursorItem {
    score: PackageScore,
    txid: Txid,
    handle: TxHandle,
}

impl Ord for CursorItem {
    fn cmp(&self, other: &Self) -> Ordering {
        self.score.cmp(&other.score).then_with(|| self.txid.cmp(&other.txid))
    }
}

impl PartialOrd for CursorItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for CursorItem {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for CursorItem {}

/// Lifetime assembly-path counters for one assembler: which selection
/// path each template took, and — for full rebuilds — which deviation
/// classes forced it off the incremental path. One rebuild can count
/// under several reasons (a priority map may carry Accelerate and
/// Exclude entries at once).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AssemblyStats {
    /// Templates built on the incremental all-Normal fast path.
    pub incremental_hits: u64,
    /// Templates that needed the full classify-and-rebuild path.
    pub full_rebuilds: u64,
    /// Full rebuilds whose priority map carried ≥1 Accelerate entry.
    pub rebuilds_with_accelerate: u64,
    /// Full rebuilds whose priority map carried ≥1 Decelerate entry.
    pub rebuilds_with_decelerate: u64,
    /// Full rebuilds whose priority map carried ≥1 Exclude entry.
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
    /// Which selection path each template took, with rebuild reasons.
    stats: AssemblyStats,
}

impl BlockAssembler {
    /// Creates an assembler for the given chain parameters.
    pub fn new(params: Params) -> BlockAssembler {
        BlockAssembler { params, stats: AssemblyStats::default() }
    }

    /// Lifetime path counters — how many templates this assembler built
    /// on the incremental fast path vs the full rebuild path, and what
    /// forced each rebuild.
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
    /// Selection runs on the mempool's incrementally maintained
    /// ancestor-package scores. When every candidate is Normal — the
    /// overwhelmingly common case — the assembler takes the incremental
    /// fast path: a cursor over the pool's persistent ancestor-score index
    /// (which survives across blocks; connecting a block only re-keys the
    /// affected descendants) merged with a small side heap of re-scored
    /// entries. Otherwise it falls back to the full phase-by-phase
    /// rebuild. Either way the result is bit-identical to
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
    /// transaction as Normal: skips the per-entry classification pass
    /// entirely and goes straight to the incremental fast path.
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
        let budget = self.weight_budget();
        if priorities.is_empty() {
            self.stats.incremental_hits += 1;
            let selected = self.select_norm_cursor(mempool, budget);
            return self.order_and_finish(mempool, priorities, selected);
        }
        self.stats.full_rebuilds += 1;
        // Which deviation classes forced this rebuild (post-propagation,
        // so an accelerated child's dragged-up ancestors count too).
        let (mut acc, mut dec, mut exc) = (false, false, false);
        for p in priorities.values() {
            match p {
                Priority::Accelerate => acc = true,
                Priority::Decelerate => dec = true,
                Priority::Exclude => exc = true,
                Priority::Normal => {}
            }
        }
        self.stats.rebuilds_with_accelerate += u64::from(acc);
        self.stats.rebuilds_with_decelerate += u64::from(dec);
        self.stats.rebuilds_with_exclude += u64::from(exc);
        let mut selected: Vec<Txid> = Vec::new();
        let mut selected_set: FastSet<Txid> = FastSet::default();
        let mut used_weight = 0u64;
        // Remaining package score per candidate: self + every *unselected*
        // in-pool ancestor. A sparse overlay over the pool's cached
        // ancestor totals: an absent key means "nothing selected out of
        // this package yet", so the cached score is authoritative and no
        // per-candidate seeding pass is needed.
        let mut rem: FastMap<Txid, (u64, u64)> = FastMap::default();

        for phase in [Priority::Accelerate, Priority::Normal, Priority::Decelerate] {
            // A deviation phase with no transaction classified into it has
            // no candidates — its heap would come up empty after a full
            // blocked-status sweep of the mempool. Skipping it outright is
            // bit-identical (the priority map is sparse: absent = Normal),
            // and turns the common norm-following pool into a single-phase
            // pass.
            if phase != Priority::Normal && !priorities.values().any(|p| *p == phase) {
                continue;
            }
            // Accelerate-only rebuild whose accelerate phase committed every
            // classified transaction (the common shape: a dark-fee pool with
            // a handful of live accelerations — on dataset 𝒞 this is all 42
            // rebuilds). The Normal phase then has no blockers (a blocker is
            // an *unselected* disallowed transaction) and no classified
            // candidates, so it degenerates to norm selection over the
            // leftover pool: run it on the persistent-index cursor seeded
            // with the accelerate phase's selections instead of heapifying
            // every resident.
            if phase == Priority::Normal
                && acc
                && !dec
                && !exc
                && priorities.keys().all(|t| selected_set.contains(t))
            {
                let slots = mempool.slot_count();
                let mut sel = vec![false; slots];
                for t in selected.iter() {
                    if let Some(h) = mempool.handle_of(t) {
                        sel[h.index()] = true;
                    }
                }
                let mut dense_rem: Vec<Option<(u64, u64)>> = vec![None; slots];
                let mut modified: BinaryHeap<CursorItem> = BinaryHeap::new();
                for (t, &(fee, vsize)) in &rem {
                    let Some(h) = mempool.handle_of(t) else { continue };
                    if sel[h.index()] {
                        continue;
                    }
                    dense_rem[h.index()] = Some((fee, vsize));
                    modified.push(CursorItem {
                        score: PackageScore { fee, vsize, seq: mempool.entry_at(h).sequence() },
                        txid: *t,
                        handle: h,
                    });
                }
                self.select_norm_cursor_from(
                    mempool,
                    budget,
                    used_weight,
                    &mut selected,
                    sel,
                    dense_rem,
                    modified,
                );
                // No Decelerate or Exclude entries exist, so no later phase
                // reads `selected_set`/`rem`/`used_weight`; leaving them at
                // their accelerate-phase state is fine.
                continue;
            }
            self.select_phase_indexed(
                mempool,
                priorities,
                phase,
                budget,
                &mut used_weight,
                &mut selected,
                &mut selected_set,
                &mut rem,
            );
        }

        self.order_and_finish(mempool, priorities, selected)
    }

    /// Greedy norm selection driven by the mempool's persistent
    /// ancestor-score index — the incremental fast path for an all-Normal
    /// template.
    ///
    /// The pool builds its ancestor-score index on the first template and
    /// keeps it sorted across blocks after that (admission, RBF, eviction,
    /// and block connect each re-key only the affected entries), so
    /// assembly starts from an already-sorted candidate list instead of
    /// heapifying every resident: a static cursor walks the index
    /// best-first while a side heap carries only entries whose remaining
    /// package score deviates from their block-start key (an ancestor got
    /// selected). Both feeds merge under
    /// the exact [`HeapItem`] total order; a cursor entry whose key went
    /// stale is requeued at its true score just as the reference's
    /// stale-check requeues a popped heap copy, so the pop sequence — and
    /// therefore the selection — is bit-identical to the reference walk.
    fn select_norm_cursor(&self, mempool: &Mempool, budget: u64) -> Vec<Txid> {
        let slots = mempool.slot_count();
        let mut selected: Vec<Txid> = Vec::new();
        self.select_norm_cursor_from(
            mempool,
            budget,
            0,
            &mut selected,
            vec![false; slots],
            vec![None; slots],
            BinaryHeap::new(),
        );
        selected
    }

    /// The cursor walk behind [`BlockAssembler::select_norm_cursor`],
    /// generalized to *continue from a prior phase's selections*: `sel`,
    /// `rem`, and `modified` seed the walk with what that phase already
    /// committed (selected handles, deviated remaining-package scores, and
    /// one re-scored heap copy per deviated entry). With empty seeds this
    /// is exactly the block-start cursor. The staleness argument is
    /// unchanged — a cursor copy keyed before the seed phase pops, fails
    /// the score check, and requeues at its true score, while every
    /// *improved* score is already present in `modified` — so the pop
    /// sequence matches the heap-everything phase selector pop for pop.
    #[allow(clippy::too_many_arguments)]
    fn select_norm_cursor_from(
        &self,
        mempool: &Mempool,
        budget: u64,
        mut used: u64,
        selected: &mut Vec<Txid>,
        mut sel: Vec<bool>,
        mut rem: Vec<Option<(u64, u64)>>,
        mut modified: BinaryHeap<CursorItem>,
    ) {
        // Any package weighs at least the lightest resident transaction;
        // once that cannot fit, nothing can. Same early exit as the phase
        // selector, with the minimum scanned once per template instead of
        // maintained across every admission.
        let Some(min_weight) = mempool.min_tx_weight() else {
            return;
        };
        let score_at = |rem: &[Option<(u64, u64)>], h: TxHandle| -> PackageScore {
            let e = mempool.entry_at(h);
            let (fee, vsize) = rem[h.index()].unwrap_or_else(|| {
                let (f, v) = e.ancestor_score();
                (f.to_sat(), v)
            });
            PackageScore { fee, vsize, seq: e.sequence() }
        };
        let mut cursor = mempool.anc_score_iter().rev().peekable();
        loop {
            if budget - used < min_weight {
                break; // no remaining package can fit
            }
            // Take the better of the two feeds under the heap total order.
            let from_cursor: Option<CursorItem> = cursor.peek().map(|k| CursorItem {
                score: PackageScore { fee: k.fee, vsize: k.vsize, seq: k.seq },
                txid: k.txid,
                handle: k.handle,
            });
            let use_cursor = match (&from_cursor, modified.peek()) {
                (Some(c), Some(m)) => c > m,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            let item = if use_cursor {
                cursor.next();
                from_cursor.expect("peeked")
            } else {
                modified.pop().expect("peeked")
            };
            let h = item.handle;
            if sel[h.index()] {
                continue; // already swept in as someone's ancestor
            }
            // Stale check: if an ancestor was selected since this copy was
            // keyed (at block start for cursor entries, at push time for
            // heap copies), requeue at the true remaining score and retry.
            let score = score_at(&rem, h);
            if score != item.score {
                modified.push(CursorItem { score, txid: item.txid, handle: h });
                continue;
            }
            // Gather the unselected ancestors + self, check the fit.
            let mut package: Vec<TxHandle> = mempool
                .ancestor_handles(h)
                .into_iter()
                .filter(|a| !sel[a.index()])
                .collect();
            package.push(h);
            let weight: u64 =
                package.iter().map(|t| mempool.entry_at(*t).tx().weight()).sum();
            if used + weight > budget {
                continue; // does not fit; try the next-best package
            }
            // Include ancestors before the child (topological within package).
            package.sort_by_key(|t| {
                (mempool.ancestor_handles(*t).len(), mempool.entry_at(*t).sequence())
            });
            for t in &package {
                if !sel[t.index()] {
                    sel[t.index()] = true;
                    selected.push(mempool.entry_at(*t).txid());
                }
            }
            used += weight;
            // Every selected member leaves the remaining package of each
            // of its unselected descendants.
            for m in &package {
                let e = mempool.entry_at(*m);
                let (mfee, mvsize) = (e.fee().to_sat(), e.vsize());
                for d in mempool.descendant_handles(*m) {
                    if sel[d.index()] {
                        continue;
                    }
                    let slot = rem[d.index()].get_or_insert_with(|| {
                        let (f, v) = mempool.entry_at(d).ancestor_score();
                        (f.to_sat(), v)
                    });
                    slot.0 -= mfee;
                    slot.1 -= mvsize;
                }
            }
            // Descendants of what we just took have new package scores.
            for d in mempool.descendant_handles(h) {
                if sel[d.index()] {
                    continue;
                }
                modified.push(CursorItem {
                    score: score_at(&rem, d),
                    txid: mempool.entry_at(d).txid(),
                    handle: d,
                });
            }
        }
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

    /// Greedy ancestor-package selection for one priority class, driven by
    /// maintained remaining-package scores.
    ///
    /// Invariants making this bit-identical to the reference walk:
    /// * `rem[t]` always equals self + every unselected in-pool ancestor,
    ///   because every selected transaction is subtracted from all of its
    ///   descendants at selection time.
    /// * A candidate is *blocked* when some unselected ancestor has a
    ///   priority the phase must not pull in. Blockers can never be
    ///   selected during the phase (selections are restricted to allowed
    ///   priorities), so blocked status is static per phase and one
    ///   downward sweep computes it.
    /// * Heap keys are exact integer package scores, so pop order matches
    ///   the reference's recompute-per-pop order.
    #[allow(clippy::too_many_arguments)]
    fn select_phase_indexed(
        &self,
        mempool: &Mempool,
        priorities: &FastMap<Txid, Priority>,
        phase: Priority,
        budget: u64,
        used_weight: &mut u64,
        selected: &mut Vec<Txid>,
        selected_set: &mut FastSet<Txid>,
        rem: &mut FastMap<Txid, (u64, u64)>,
    ) {
        // Downward sweep: everything below a disallowed unselected
        // transaction is unpackageable this phase. The priority map is
        // sparse (absent = Normal), so for the Accelerate and Normal
        // phases every possible seed is a map key — the Accelerate phase
        // only refuses Exclude, the Normal phase refuses every non-Normal
        // priority — and the sweep can seed off the map instead of
        // scanning the whole pool. Only the Decelerate phase (which
        // refuses the unselected Normal majority) still needs the scan.
        let mut blocked: FastSet<Txid> = FastSet::default();
        let mut stack: Vec<Txid> = Vec::new();
        if phase == Priority::Decelerate {
            for entry in mempool.iter() {
                let txid = entry.txid();
                if selected_set.contains(&txid) {
                    continue;
                }
                let p = Self::prio(priorities, &txid);
                if !Self::phase_allows(phase, p) {
                    stack.push(txid);
                }
            }
        } else {
            for (txid, p) in priorities {
                if !Self::phase_allows(phase, *p) && !selected_set.contains(txid) {
                    stack.push(*txid);
                }
            }
        }
        while let Some(t) = stack.pop() {
            for c in mempool.children_of(&t) {
                if blocked.insert(c) {
                    stack.push(c);
                }
            }
        }

        let score_of = |rem: &FastMap<Txid, (u64, u64)>, txid: &Txid| -> PackageScore {
            let e = mempool.get(txid).expect("resident");
            let (fee, vsize) = rem.get(txid).copied().unwrap_or_else(|| {
                let (f, v) = e.ancestor_score();
                (f.to_sat(), v)
            });
            PackageScore { fee, vsize, seq: e.sequence() }
        };

        let mut heap: BinaryHeap<HeapItem> = BinaryHeap::new();
        // Smallest single-transaction weight among candidates: a lower
        // bound on any package still to come (every package weighs at
        // least its own child). Lets the pop loop stop as soon as no
        // candidate can possibly fit, instead of walk-checking the whole
        // remaining heap — pure early exit, selections are unchanged.
        let mut min_weight = u64::MAX;
        let mut push_candidate = |entry: &MempoolEntry, txid: Txid| {
            min_weight = min_weight.min(entry.tx().weight());
            let (fee, vsize) = rem.get(&txid).copied().unwrap_or_else(|| {
                let (f, v) = entry.ancestor_score();
                (f.to_sat(), v)
            });
            heap.push(HeapItem {
                score: PackageScore { fee, vsize, seq: entry.sequence() },
                txid,
            });
        };
        if phase == Priority::Normal {
            // Normal candidates are everything *not* in the sparse map.
            for entry in mempool.iter() {
                let txid = entry.txid();
                if priorities.contains_key(&txid)
                    || selected_set.contains(&txid)
                    || blocked.contains(&txid)
                {
                    continue;
                }
                push_candidate(entry, txid);
            }
        } else {
            // Deviation-phase candidates are exactly the map keys of that
            // priority: iterate the sparse map, not the pool.
            for (txid, p) in priorities {
                if *p != phase || selected_set.contains(txid) || blocked.contains(txid) {
                    continue;
                }
                push_candidate(mempool.get(txid).expect("classified txs resident"), *txid);
            }
        }
        while let Some(item) = heap.pop() {
            if budget - *used_weight < min_weight {
                break; // no remaining package can fit
            }
            if selected_set.contains(&item.txid) {
                continue; // already swept in as someone's ancestor
            }
            // Stale check against the maintained score; if an ancestor was
            // selected since this entry was pushed, reinsert and retry.
            let score = score_of(rem, &item.txid);
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
            for txid in &package {
                if selected_set.insert(*txid) {
                    selected.push(*txid);
                }
            }
            *used_weight += weight;
            // Every selected member leaves the remaining package of each of
            // its unselected descendants.
            for m in &package {
                let e = mempool.get(m).expect("resident");
                let (mfee, mvsize) = (e.fee().to_sat(), e.vsize());
                for d in mempool.descendants(m) {
                    if selected_set.contains(&d) {
                        continue;
                    }
                    let slot = rem.entry(d).or_insert_with(|| {
                        let (f, v) = mempool.get(&d).expect("resident").ancestor_score();
                        (f.to_sat(), v)
                    });
                    slot.0 -= mfee;
                    slot.1 -= mvsize;
                }
            }
            // Descendants of what we just took have new package scores.
            for d in mempool.descendants(&item.txid) {
                if Self::prio(priorities, &d) == phase
                    && !selected_set.contains(&d)
                    && !blocked.contains(&d)
                {
                    heap.push(HeapItem { score: score_of(rem, &d), txid: d });
                }
            }
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
