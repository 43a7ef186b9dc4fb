//! Violation-pair counting (§4.2.1, Figure 6).
//!
//! Given the observer's view — for each eventually confirmed transaction,
//! its first-seen time `t`, fee rate `f`, and confirmation height `b` — a
//! pair `(i, j)` *violates* the fee-rate selection norm when
//!
//! ```text
//! t_i + ε < t_j   &&   f_i > f_j   &&   b_i > b_j
//! ```
//!
//! i.e. transaction `i` was seen (ε-robustly) earlier and offered more,
//! yet was committed later. The ε margin (the paper uses 10 s and 10 min)
//! absorbs divergence between the observer's arrival order and the
//! miners'.
//!
//! Counting is a 3-dimensional dominance problem. [`count_violations`]
//! solves it with an `O(n log² n)` offline divide-and-conquer (CDQ)
//! counter over a Fenwick tree, and also counts the candidate pairs
//! (pairs where the norm makes a prediction at all) for normalization;
//! [`count_violations_reference`] is the `O(n²)` oracle it is tested
//! against.
//!
//! The streaming auditor asks a two-block variant of the same question
//! when a block seals; [`count_cross_block`] answers it with one bitset
//! kernel, and [`count_cross_block_reference`] is its quadratic oracle.

use crate::error::AuditError;
use cn_chain::{FeeRate, Timestamp};

/// One confirmed transaction as the pair analysis sees it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PairObservation {
    /// First time the observer saw the transaction.
    pub received: Timestamp,
    /// The fee rate it offered.
    pub fee_rate: FeeRate,
    /// The height of the block that finally committed it.
    pub height: u64,
}

/// Violation-count result.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct PairStats {
    /// Pairs meeting all three violation conditions.
    pub violating: u64,
    /// Pairs meeting the time and fee conditions (the norm predicted an
    /// order for these).
    pub candidates: u64,
    /// All unordered pairs, `n·(n−1)/2`.
    pub total_pairs: u64,
}

impl PairStats {
    /// Violating share of all pairs (the Figure 6 y-axis).
    pub fn fraction_of_all(&self) -> f64 {
        if self.total_pairs == 0 {
            0.0
        } else {
            self.violating as f64 / self.total_pairs as f64
        }
    }

    /// Violating share of pairs where the norm made a prediction.
    pub fn fraction_of_candidates(&self) -> f64 {
        if self.candidates == 0 {
            0.0
        } else {
            self.violating as f64 / self.candidates as f64
        }
    }
}

/// Quadratic reference implementation (kept as the oracle for property
/// tests and as the ablation baseline for the CDQ counter).
pub fn count_violations_reference(obs: &[PairObservation], epsilon: u64) -> PairStats {
    let n = obs.len() as u64;
    let mut stats = PairStats { total_pairs: n * n.saturating_sub(1) / 2, ..PairStats::default() };
    for i in obs {
        for j in obs {
            if i.received.saturating_add(epsilon) < j.received && i.fee_rate > j.fee_rate {
                stats.candidates += 1;
                if i.height > j.height {
                    stats.violating += 1;
                }
            }
        }
    }
    stats
}

/// A Fenwick (binary indexed) tree over counts.
#[derive(Clone, Debug)]
struct Fenwick {
    tree: Vec<u64>,
}

impl Fenwick {
    fn new(n: usize) -> Fenwick {
        Fenwick { tree: vec![0; n + 1] }
    }

    /// Adds `delta` at 1-based index `i`.
    fn add(&mut self, mut i: usize, delta: i64) {
        while i < self.tree.len() {
            self.tree[i] = self.tree[i].wrapping_add(delta as u64);
            i += i & i.wrapping_neg();
        }
    }

    /// Sum of indices `1..=i`.
    fn prefix(&self, mut i: usize) -> u64 {
        let mut acc = 0u64;
        while i > 0 {
            acc = acc.wrapping_add(self.tree[i]);
            i -= i & i.wrapping_neg();
        }
        acc
    }
}

#[derive(Clone, Copy, Debug)]
struct Op {
    /// Event time: `t + ε` for inserts, `t` for queries.
    time: u64,
    /// Queries sort before inserts at equal time (strict `<` semantics).
    is_insert: bool,
    fee: FeeRate,
    /// 1-based compressed height rank.
    height_rank: usize,
}

/// Counts violating and candidate pairs in `O(n log² n)` by
/// divide and conquer.
///
/// The operation sequence interleaves *inserts* (transaction `i` becomes
/// ε-eligible at `t_i + ε`) and *queries* (transaction `j` at `t_j` asks
/// how many eligible transactions dominate it in fee and height). The
/// recursion counts, for each query in the right half, the dominating
/// inserts in the left half via a fee-ordered sweep over a Fenwick tree
/// keyed by height rank.
///
/// An empty observation set (every detailed snapshot lost or truncated to
/// nothing) is refused with [`AuditError::NoDetailedSnapshots`]: a zero
/// count would read as "no violations". Callers that want zero for an
/// empty snapshot say so at the call site.
pub fn count_violations(obs: &[PairObservation], epsilon: u64) -> Result<PairStats, AuditError> {
    if obs.is_empty() {
        return Err(AuditError::NoDetailedSnapshots);
    }
    let n = obs.len() as u64;
    let total_pairs = n * n.saturating_sub(1) / 2;
    if obs.len() < 2 {
        return Ok(PairStats { total_pairs, ..PairStats::default() });
    }
    // Compress heights to ranks 1..=k.
    let mut heights: Vec<u64> = obs.iter().map(|o| o.height).collect();
    heights.sort_unstable();
    heights.dedup();
    let rank = |h: u64| heights.partition_point(|&x| x < h) + 1; // 1-based

    let mut ops: Vec<Op> = Vec::with_capacity(obs.len() * 2);
    for o in obs {
        ops.push(Op {
            time: o.received.saturating_add(epsilon),
            is_insert: true,
            fee: o.fee_rate,
            height_rank: rank(o.height),
        });
        ops.push(Op {
            time: o.received,
            is_insert: false,
            fee: o.fee_rate,
            height_rank: rank(o.height),
        });
    }
    // Queries first at equal time: `t_i + ε < t_j` is strict.
    ops.sort_by(|a, b| a.time.cmp(&b.time).then_with(|| a.is_insert.cmp(&b.is_insert)));

    let mut fenwick = Fenwick::new(heights.len());
    let mut violating = 0u64;
    let mut candidates = 0u64;
    cdq(&mut ops, &mut fenwick, &mut violating, &mut candidates);
    Ok(PairStats { violating, candidates, total_pairs })
}

/// Counts cross-half dominances and recurses. `ops` is ordered by
/// sequence time on entry and by fee (descending) on exit — the classic
/// CDQ merge-sort structure.
fn cdq(ops: &mut [Op], fenwick: &mut Fenwick, violating: &mut u64, candidates: &mut u64) {
    if ops.len() <= 1 {
        return;
    }
    let mid = ops.len() / 2;
    let (left, right) = ops.split_at_mut(mid);
    cdq(left, fenwick, violating, candidates);
    cdq(right, fenwick, violating, candidates);
    // Both halves are now sorted by fee descending. Sweep: for each query
    // in the right half (in fee-descending order), first add all left
    // inserts with strictly greater fee, then count height dominators.
    let mut li = 0usize;
    let mut added = 0u64;
    for q in right.iter().filter(|o| !o.is_insert) {
        while li < left.len() && left[li].fee > q.fee {
            if left[li].is_insert {
                fenwick.add(left[li].height_rank, 1);
                added += 1;
            }
            li += 1;
        }
        *candidates += added;
        *violating += added - fenwick.prefix(q.height_rank);
    }
    // Roll back the Fenwick for the parent call.
    for op in left[..li].iter().filter(|o| o.is_insert) {
        fenwick.add(op.height_rank, -1);
    }
    // Merge the halves by fee descending (manual merge keeps O(n log n)
    // overall sort cost across the recursion).
    let mut merged = Vec::with_capacity(left.len() + right.len());
    let (mut a, mut b) = (0usize, 0usize);
    while a < left.len() && b < right.len() {
        if left[a].fee >= right[b].fee {
            merged.push(left[a]);
            a += 1;
        } else {
            merged.push(right[b]);
            b += 1;
        }
    }
    merged.extend_from_slice(&left[a..]);
    merged.extend_from_slice(&right[b..]);
    ops.copy_from_slice(&merged);
}

// ---------------------------------------------------------------------------
// Cross-block kernel (streaming window sealing)
// ---------------------------------------------------------------------------
//
// The streaming auditor charges each cross-block pair to the earlier
// block's miner when the later block seals, which asks a two-set variant
// of the dominance question: given a *later* block L and an *earlier*
// block E (both already reduced to eligible `(received, fee)` rows),
//
// ```text
// held(L, E)     = #{(a ∈ L, b ∈ E) : b.recv + ε < a.recv && b.fee > a.fee}
// violating(L,E) = #{(a ∈ L, b ∈ E) : a.recv + ε < b.recv && a.fee > b.fee}
// candidates     = held + violating
// ```
//
// The naive scan is `O(|L|·|E|)` per block pair and dominates window
// sealing. Both directions are instances of one primitive —
// `dominant(X, Y) = #{(x, y) : x.recv + ε < y.recv && x.fee > y.fee}` —
// which one bitset kernel answers over pre-sorted per-block arrays
// ([`BlockPairSet`], built once per sealed block and reused for every
// window comparison it participates in): sweep Y by fee (descending)
// with a two-pointer marking of higher-fee X rows in a bitset indexed by
// X's arrival rank, and answer each y by a prefix popcount,
// `O(|Y|·|X|/64)`. It is bit-identical to the nested-loop reference
// (strict comparisons, saturating ε): counting is exact integer
// arithmetic, so the kernel can never change an audit verdict.

/// One block's eligible rows, pre-sorted for the cross-block kernel.
///
/// Rows carry only what the norm compares: first-seen time and the exact
/// integer fee key (sat/kvB). Ranks are `u32` handles into the block's
/// own arrays, mirroring the interned-txid discipline used elsewhere.
#[derive(Clone, Debug, Default)]
pub struct BlockPairSet {
    /// First-seen times, ascending.
    recv: Vec<u64>,
    /// Fee keys, ascending.
    fees_asc: Vec<u64>,
    /// Arrival rank of the row at each fee-ascending slot.
    recv_rank_by_fee_asc: Vec<u32>,
}

impl BlockPairSet {
    /// Builds the sorted views from `(received, fee_key)` rows.
    pub fn new(rows: impl IntoIterator<Item = (Timestamp, FeeRate)>) -> BlockPairSet {
        let mut by_recv: Vec<(u64, u64)> =
            rows.into_iter().map(|(t, f)| (t, f.to_sat_per_kvb())).collect();
        by_recv.sort_unstable();
        let mut fee_order: Vec<u32> = (0..by_recv.len() as u32).collect();
        fee_order.sort_unstable_by_key(|&r| by_recv[r as usize].1);
        BlockPairSet {
            recv: by_recv.iter().map(|r| r.0).collect(),
            fees_asc: fee_order.iter().map(|&r| by_recv[r as usize].1).collect(),
            recv_rank_by_fee_asc: fee_order,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.recv.len()
    }

    /// Whether the block contributed no eligible rows.
    pub fn is_empty(&self) -> bool {
        self.recv.is_empty()
    }

    /// `#{x : x.recv + ε < than}` — the ε-eligible arrival prefix.
    /// `saturating_add` keeps huge ε total (no row is ever eligible).
    fn eligible_before(&self, than: u64, epsilon: u64) -> usize {
        self.recv.partition_point(|&t| t.saturating_add(epsilon) < than)
    }
}

/// `dominant(X, Y)` via fee-descending sweep + arrival-rank bitset.
fn dominant(x: &BlockPairSet, y: &BlockPairSet, epsilon: u64) -> u64 {
    if x.is_empty() || y.is_empty() {
        return 0;
    }
    let words = x.len().div_ceil(64);
    let mut bits = vec![0u64; words];
    // Y rows in fee-descending order, carrying their arrival times.
    let mut xj = x.len(); // next X fee-desc candidate is fees_asc[xj - 1]
    let mut count = 0u64;
    for ys in (0..y.len()).rev() {
        let y_fee = y.fees_asc[ys];
        let y_recv = y.recv[y.recv_rank_by_fee_asc[ys] as usize];
        while xj > 0 && x.fees_asc[xj - 1] > y_fee {
            let rank = x.recv_rank_by_fee_asc[xj - 1] as usize;
            bits[rank / 64] |= 1u64 << (rank % 64);
            xj -= 1;
        }
        let k = x.eligible_before(y_recv, epsilon);
        for &word in bits.iter().take(k / 64) {
            count += word.count_ones() as u64;
        }
        if !k.is_multiple_of(64) {
            let mask = (1u64 << (k % 64)) - 1;
            count += (bits[k / 64] & mask).count_ones() as u64;
        }
    }
    count
}

/// Cross-block pair statistics between a sealing (later) block and one
/// earlier window block. `total_pairs` is the ordered cross-product
/// `|L|·|E|`.
pub fn count_cross_block(later: &BlockPairSet, earlier: &BlockPairSet, epsilon: u64) -> PairStats {
    let violating = dominant(later, earlier, epsilon);
    let held = dominant(earlier, later, epsilon);
    PairStats {
        violating,
        candidates: held + violating,
        total_pairs: later.len() as u64 * earlier.len() as u64,
    }
}

/// Quadratic cross-block reference: the literal sealed-block × window-block
/// scan the kernel replaces, kept as the oracle for property tests and the
/// `pair_kernels` bench.
pub fn count_cross_block_reference(
    later: &[(Timestamp, FeeRate)],
    earlier: &[(Timestamp, FeeRate)],
    epsilon: u64,
) -> PairStats {
    let mut stats = PairStats {
        total_pairs: later.len() as u64 * earlier.len() as u64,
        ..PairStats::default()
    };
    for &(ra, fa) in later {
        for &(rb, fb) in earlier {
            if rb.saturating_add(epsilon) < ra && fb > fa {
                // Seen earlier at a higher rate, confirmed earlier: held.
                stats.candidates += 1;
            } else if ra.saturating_add(epsilon) < rb && fa > fb {
                // Seen earlier at a higher rate, confirmed later: violation.
                stats.candidates += 1;
                stats.violating += 1;
            }
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(t: u64, rate: u64, h: u64) -> PairObservation {
        PairObservation { received: t, fee_rate: FeeRate::from_sat_per_kvb(rate), height: h }
    }

    /// [`count_violations`] over a non-empty set.
    fn counted(data: &[PairObservation], eps: u64) -> PairStats {
        count_violations(data, eps).expect("observations present")
    }

    #[test]
    fn single_clear_violation() {
        // i seen first with a better rate, yet confirmed later.
        let data = [obs(0, 100, 5), obs(10, 50, 4)];
        let stats = count_violations_reference(&data, 0);
        assert_eq!(stats.violating, 1);
        assert_eq!(stats.candidates, 1);
        assert_eq!(stats.total_pairs, 1);
        assert_eq!(counted(&data, 0), stats);
    }

    #[test]
    fn norm_respected_no_violation() {
        let data = [obs(0, 100, 4), obs(10, 50, 5)];
        let stats = count_violations_reference(&data, 0);
        assert_eq!(stats.violating, 0);
        assert_eq!(stats.candidates, 1);
        assert_eq!(counted(&data, 0), stats);
    }

    #[test]
    fn epsilon_filters_close_arrivals() {
        let data = [obs(0, 100, 5), obs(8, 50, 4)];
        assert_eq!(count_violations_reference(&data, 0).violating, 1);
        // With ε = 10, 0 + 10 < 8 is false: the pair is no longer decided.
        assert_eq!(count_violations_reference(&data, 10).violating, 0);
        assert_eq!(counted(&data, 10).violating, 0);
    }

    #[test]
    fn strict_boundary_on_epsilon() {
        // t_i + ε == t_j must NOT count.
        let data = [obs(0, 100, 5), obs(10, 50, 4)];
        assert_eq!(count_violations_reference(&data, 10).violating, 0);
        assert_eq!(counted(&data, 10).violating, 0);
        assert_eq!(count_violations_reference(&data, 9).violating, 1);
        assert_eq!(counted(&data, 9).violating, 1);
    }

    #[test]
    fn equal_fee_rates_never_counted() {
        let data = [obs(0, 100, 5), obs(10, 100, 4)];
        let stats = count_violations_reference(&data, 0);
        assert_eq!(stats.candidates, 0);
        assert_eq!(stats.violating, 0);
        assert_eq!(counted(&data, 0), stats);
    }

    #[test]
    fn same_block_is_not_a_violation() {
        let data = [obs(0, 100, 5), obs(10, 50, 5)];
        let stats = count_violations_reference(&data, 0);
        assert_eq!(stats.violating, 0);
        assert_eq!(stats.candidates, 1);
        assert_eq!(counted(&data, 0), stats);
    }

    #[test]
    fn fractions() {
        let data = [obs(0, 100, 5), obs(10, 50, 4), obs(20, 10, 3)];
        let stats = count_violations_reference(&data, 0);
        assert_eq!(stats.total_pairs, 3);
        assert_eq!(stats.violating, 3);
        assert!((stats.fraction_of_all() - 1.0).abs() < 1e-12);
        assert!((stats.fraction_of_candidates() - 1.0).abs() < 1e-12);
        assert_eq!(PairStats::default().fraction_of_all(), 0.0);
    }

    #[test]
    fn cdq_matches_reference_on_pseudorandom_data() {
        // Deterministic pseudo-random stream via a simple LCG.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        };
        for n in [1usize, 2, 3, 10, 64, 257] {
            let data: Vec<PairObservation> =
                (0..n).map(|_| obs(next() % 1_000, next() % 50, next() % 20)).collect();
            for eps in [0u64, 5, 50] {
                let reference = count_violations_reference(&data, eps);
                let cdq = counted(&data, eps);
                assert_eq!(cdq, reference, "n={n} eps={eps}");
            }
        }
    }

    #[test]
    fn cdq_matches_reference_under_adversarial_ties() {
        // Tiny value domains make exact ties the rule, not the exception:
        // with times drawn from {0, ε, 2ε, …}, fees from three values, and
        // heights from two, almost every pair sits on a tie or exactly on
        // the strict `t_i + ε < t_j` boundary — the regime where the
        // Fenwick sweep's tie-breaking (queries before inserts at equal
        // time, strict fee comparison) is easiest to get subtly wrong.
        let mut state = 0x853c_49e6_748f_ea9bu64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        };
        for eps in [0u64, 1, 7] {
            for n in [2usize, 3, 5, 17, 128] {
                let data: Vec<PairObservation> = (0..n)
                    .map(|_| {
                        // Times on the exact ε lattice; step 0 collapses
                        // everything onto a single instant.
                        let t = (next() % 4) * eps.max(1);
                        obs(t, [10, 10, 20, 30][(next() % 4) as usize], 1 + next() % 2)
                    })
                    .collect();
                assert_eq!(
                    counted(&data, eps),
                    count_violations_reference(&data, eps),
                    "ties: n={n} eps={eps}"
                );
            }
        }
    }

    #[test]
    fn cdq_matches_reference_with_epsilon_at_every_gap() {
        // For a fixed pseudo-random set, sweep ε across every pairwise
        // time gap and its ±1 neighbours, so each pair in turn flips from
        // decided to undecided exactly at the strict boundary.
        let mut state = 0xda3e_39cb_94b9_5bdbu64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        };
        let data: Vec<PairObservation> =
            (0..40).map(|_| obs(next() % 200, next() % 30, next() % 8)).collect();
        let mut epsilons = vec![0u64];
        for i in &data {
            for j in &data {
                let gap = j.received.saturating_sub(i.received);
                epsilons.extend([gap.saturating_sub(1), gap, gap + 1]);
            }
        }
        epsilons.sort_unstable();
        epsilons.dedup();
        for eps in epsilons {
            assert_eq!(counted(&data, eps), count_violations_reference(&data, eps), "eps={eps}");
        }
    }

    #[test]
    fn cdq_handles_epsilon_saturation() {
        // `t + ε` saturates instead of wrapping: with ε = u64::MAX no pair
        // can satisfy the strict inequality, however the times tie.
        let data = [obs(0, 100, 5), obs(u64::MAX - 1, 50, 4), obs(u64::MAX, 70, 3), obs(3, 60, 2)];
        for eps in [u64::MAX, u64::MAX - 1, u64::MAX / 2] {
            let reference = count_violations_reference(&data, eps);
            assert_eq!(counted(&data, eps), reference, "eps={eps}");
        }
        assert_eq!(counted(&data, u64::MAX).violating, 0);
    }

    #[test]
    fn fully_degenerate_inputs() {
        // All-identical observations: no pair has a strict fee or time
        // edge, so nothing is a candidate whatever ε says.
        let data = vec![obs(5, 10, 3); 50];
        for eps in [0u64, 1, 100] {
            let stats = counted(&data, eps);
            assert_eq!(stats.candidates, 0);
            assert_eq!(stats.violating, 0);
            assert_eq!(stats, count_violations_reference(&data, eps));
        }
    }

    #[test]
    fn empty_and_singleton() {
        assert_eq!(count_violations(&[], 0), Err(AuditError::NoDetailedSnapshots));
        let one = [obs(0, 10, 1)];
        let stats = counted(&one, 0);
        assert_eq!(stats.total_pairs, 0);
        assert_eq!(stats.violating, 0);
    }

    // --- cross-block kernel ---

    fn rows(raw: &[(u64, u64)]) -> Vec<(Timestamp, FeeRate)> {
        raw.iter().map(|&(t, f)| (t, FeeRate::from_sat_per_kvb(f))).collect()
    }

    /// Asserts the kernel against the reference.
    fn assert_cross_kernel(
        later: &[(Timestamp, FeeRate)],
        earlier: &[(Timestamp, FeeRate)],
        eps: u64,
    ) {
        let reference = count_cross_block_reference(later, earlier, eps);
        let l = BlockPairSet::new(later.iter().copied());
        let e = BlockPairSet::new(earlier.iter().copied());
        assert_eq!(count_cross_block(&l, &e, eps), reference, "eps={eps}");
    }

    #[test]
    fn cross_block_single_violation_and_hold() {
        // a ∈ later seen first at a higher rate but confirmed later: violation.
        let later = rows(&[(0, 100)]);
        let earlier = rows(&[(10, 50)]);
        let stats = count_cross_block_reference(&later, &earlier, 0);
        assert_eq!((stats.violating, stats.candidates, stats.total_pairs), (1, 1, 1));
        assert_cross_kernel(&later, &earlier, 0);
        // b ∈ earlier seen first at a higher rate and confirmed first: held.
        let stats = count_cross_block_reference(&earlier, &later, 0);
        assert_eq!((stats.violating, stats.candidates), (0, 1));
        assert_cross_kernel(&earlier, &later, 0);
    }

    #[test]
    fn cross_block_strict_epsilon_boundary() {
        // t_a + ε == t_b must NOT count, t_a + ε == t_b − 1 must.
        let later = rows(&[(0, 100)]);
        let earlier = rows(&[(10, 50)]);
        assert_eq!(count_cross_block_reference(&later, &earlier, 10).candidates, 0);
        assert_eq!(count_cross_block_reference(&later, &earlier, 9).violating, 1);
        for eps in [0, 9, 10, 11] {
            assert_cross_kernel(&later, &earlier, eps);
        }
    }

    #[test]
    fn cross_block_equal_fees_and_times_never_counted() {
        // Fee ties and time ties are both strict: all-identical rows on
        // both sides yield zero candidates at every ε.
        let later = rows(&[(5, 10), (5, 10), (5, 10)]);
        let earlier = rows(&[(5, 10), (5, 10)]);
        for eps in [0, 1, u64::MAX] {
            let stats = count_cross_block_reference(&later, &earlier, eps);
            assert_eq!((stats.violating, stats.candidates), (0, 0));
            assert_cross_kernel(&later, &earlier, eps);
        }
    }

    #[test]
    fn cross_block_adversarial_tie_lattice() {
        // Times on the exact ε lattice and fees from a tiny domain: the
        // regime where prefix boundaries (partition_point on `t + ε` and
        // on fee keys) sit exactly on tied values.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        };
        for eps in [0u64, 1, 7] {
            for (nl, ne) in [(1usize, 1usize), (3, 2), (17, 5), (64, 129)] {
                let mk = |n: usize, next: &mut dyn FnMut() -> u64| {
                    rows(
                        &(0..n)
                            .map(|_| {
                                ((next() % 4) * eps.max(1), [10, 10, 20, 30][(next() % 4) as usize])
                            })
                            .collect::<Vec<_>>(),
                    )
                };
                let later = mk(nl, &mut next);
                let earlier = mk(ne, &mut next);
                assert_cross_kernel(&later, &earlier, eps);
            }
        }
    }

    #[test]
    fn cross_block_epsilon_at_every_gap() {
        // Sweep ε across every pairwise gap ±1 so each cross pair flips
        // from decided to undecided exactly at the strict boundary.
        let mut state = 0xda3e_39cb_94b9_5bdbu64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        };
        let later = rows(&(0..23).map(|_| (next() % 100, next() % 20)).collect::<Vec<_>>());
        let earlier = rows(&(0..31).map(|_| (next() % 100, next() % 20)).collect::<Vec<_>>());
        let mut epsilons = vec![0u64];
        for &(ta, _) in &later {
            for &(tb, _) in &earlier {
                let gap = ta.abs_diff(tb);
                epsilons.extend([gap.saturating_sub(1), gap, gap + 1]);
            }
        }
        epsilons.sort_unstable();
        epsilons.dedup();
        for eps in epsilons {
            assert_cross_kernel(&later, &earlier, eps);
        }
    }

    #[test]
    fn cross_block_epsilon_saturation() {
        // `t + ε` saturates instead of wrapping: near-u64::MAX times and
        // huge ε must never produce a candidate through overflow.
        let later = rows(&[(0, 100), (u64::MAX - 1, 50), (u64::MAX, 70)]);
        let earlier = rows(&[(3, 60), (u64::MAX, 10)]);
        for eps in [u64::MAX, u64::MAX - 1, u64::MAX / 2, 0] {
            assert_cross_kernel(&later, &earlier, eps);
        }
        let l = BlockPairSet::new(later.iter().copied());
        let e = BlockPairSet::new(earlier.iter().copied());
        assert_eq!(count_cross_block(&l, &e, u64::MAX).candidates, 0);
    }

    #[test]
    fn cross_block_pseudorandom_equivalence() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        };
        for (nl, ne) in [(0usize, 5usize), (5, 0), (1, 1), (40, 7), (130, 130), (257, 64)] {
            let later = rows(&(0..nl).map(|_| (next() % 1_000, next() % 50)).collect::<Vec<_>>());
            let earlier = rows(&(0..ne).map(|_| (next() % 1_000, next() % 50)).collect::<Vec<_>>());
            for eps in [0u64, 5, 50] {
                assert_cross_kernel(&later, &earlier, eps);
            }
        }
    }

    #[test]
    fn cross_block_matches_reference_on_thousands_of_rows() {
        // One side far above the 64-row word size (5,000 rows span 79
        // bitset words), the other small, in both roles: times on a
        // coarse lattice and fees from a tiny domain, so most pairs tie
        // on fee or sit exactly on the strict `t + ε < t'` boundary.
        let mut state = 0x6a09_e667_f3bc_c908u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut lattice = |n: usize| {
            rows(
                &(0..n)
                    .map(|_| ((next() % 40) * 5, [10, 10, 20, 30, 40][(next() % 5) as usize]))
                    .collect::<Vec<_>>(),
            )
        };
        let big = lattice(5_000);
        let small = lattice(64);
        for eps in [0u64, 5] {
            assert_cross_kernel(&big, &small, eps);
            assert_cross_kernel(&small, &big, eps);
        }
    }

    #[test]
    fn cross_block_empty_sides() {
        let some = BlockPairSet::new(rows(&[(1, 10), (2, 20)]));
        let empty = BlockPairSet::new(std::iter::empty());
        assert!(empty.is_empty());
        assert_eq!(count_cross_block(&some, &empty, 0), PairStats::default());
        assert_eq!(count_cross_block(&empty, &some, 0), PairStats::default());
    }
}
