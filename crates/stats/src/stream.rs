//! Mergeable streaming summaries for the online auditor.
//!
//! Two building blocks back `cn_core::streaming`:
//!
//! * [`Histogram`] — a fixed-precision, bounded-memory quantile sketch.
//!   State is a vector of `u64` bucket counts plus exact min/max/count/sum,
//!   so `merge` is field-wise addition and therefore **exactly** associative
//!   and commutative (integer arithmetic; the f64 `sum` is the only field
//!   with rounding, and it is never used for quantiles).
//! * [`MinerAccumulator`] — the per-miner rolling tally of blocks,
//!   transactions, PPE/SPPE components and pair-violation counts. All
//!   count fields are integers (exact merge); the PPE/SPPE components are
//!   f64 sums, where merge reassociates the additions.
//!
//! # Merge laws and error bounds
//!
//! For every integer field `f`: `merge(a, b).f == a.f + b.f` exactly, so
//! merge is associative, commutative, and agrees bit-for-bit with pushing
//! all elements into a single accumulator in any order.
//!
//! For f64 sum fields, `merge` computes `a.sum + b.sum`, which reassociates
//! the element-wise additions. IEEE-754 addition is commutative but not
//! associative, so the merged sum may differ from the sequential sum by
//! accumulated rounding: for `n` elements bounded by `M`, the difference is
//! at most `n · ε · n·M` with `ε = f64::EPSILON ≈ 2.2e-16` (standard
//! forward-error bound for recursive summation). The property tests in
//! `crates/stats/tests/stream_algebra.rs` check integer fields with
//! `assert_eq!` and f64 fields against this relative bound.
//!
//! For [`Histogram::quantile`], the returned value is the lower edge of the
//! bucket containing the requested rank, clamped into `[min, max]`. The
//! error is therefore at most one bucket width for in-range samples; samples
//! below `lo` or above `hi` land in the underflow/overflow buckets, where
//! the answer degrades to the exact observed `min`/`max` respectively.

use serde::{Deserialize, Serialize};

/// Fixed-precision streaming histogram over `[lo, hi)` with
/// underflow/overflow buckets and exact extrema.
///
/// Memory is `O(buckets)` regardless of how many samples are pushed, and
/// two sketches with identical geometry merge exactly (integer bucket
/// counts add field-wise).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    /// In-range bucket counts; index 0 covers `[lo, lo + width)`.
    counts: Vec<u64>,
    /// Samples strictly below `lo`.
    underflow: u64,
    /// Samples at or above `hi`.
    overflow: u64,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Histogram {
    /// A histogram over `[lo, hi)` with `buckets` equal-width buckets.
    ///
    /// # Panics
    /// Panics when `buckets == 0`, when `lo >= hi`, or when either bound is
    /// non-finite — all indicate a caller bug, not unusual data.
    pub fn new(lo: f64, hi: f64, buckets: usize) -> Self {
        assert!(buckets > 0, "histogram needs at least one bucket");
        assert!(lo.is_finite() && hi.is_finite(), "histogram bounds must be finite");
        assert!(lo < hi, "histogram range [{lo}, {hi}) is empty");
        Histogram {
            lo,
            hi,
            counts: vec![0; buckets],
            underflow: 0,
            overflow: 0,
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Bucket width; the worst-case quantile error for in-range samples.
    pub fn bucket_width(&self) -> f64 {
        (self.hi - self.lo) / self.counts.len() as f64
    }

    /// Record one sample. Non-finite samples are ignored (counted nowhere)
    /// so a stray NaN cannot poison the extrema.
    pub fn push(&mut self, value: f64) {
        if !value.is_finite() {
            return;
        }
        if value < self.lo {
            self.underflow += 1;
        } else if value >= self.hi {
            self.overflow += 1;
        } else {
            let idx = ((value - self.lo) / self.bucket_width()) as usize;
            // Rounding at the top edge can land exactly on len(); clamp.
            let idx = idx.min(self.counts.len() - 1);
            self.counts[idx] += 1;
        }
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Fold another sketch into this one. Both must share geometry.
    ///
    /// # Panics
    /// Panics when the two sketches disagree on `[lo, hi)` or bucket count.
    pub fn merge(&mut self, other: &Histogram) {
        assert!(
            self.lo == other.lo && self.hi == other.hi && self.counts.len() == other.counts.len(),
            "histogram merge requires identical geometry"
        );
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.underflow += other.underflow;
        self.overflow += other.overflow;
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of all samples, or `None` before the first push.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Exact minimum sample, or `None` before the first push.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Exact maximum sample, or `None` before the first push.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Approximate `q`-quantile (`q ∈ [0, 1]`), or `None` before the first
    /// push. Answers are the lower edge of the bucket holding the rank
    /// `ceil(q·n)` sample, clamped into the exact `[min, max]` envelope;
    /// see the module docs for the error bound.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 || !(0.0..=1.0).contains(&q) {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = self.underflow;
        if rank <= seen {
            return Some(self.min);
        }
        let width = self.bucket_width();
        for (i, c) in self.counts.iter().enumerate() {
            seen += c;
            if rank <= seen {
                let edge = self.lo + i as f64 * width;
                return Some(edge.clamp(self.min, self.max));
            }
        }
        // Rank falls in the overflow bucket.
        Some(self.max)
    }
}

/// Per-miner rolling tally: block/transaction counts, PPE/SPPE components,
/// and windowed pair-violation counts.
///
/// The merge law is field-wise addition (min for nothing, no max fields):
/// exact for the integer counts, reassociating for the f64 component sums
/// (see module docs for the bound). `merge(a, b)` therefore equals pushing
/// b's underlying elements into `a` — exactly for counts, to within
/// rounding for the f64 sums.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct MinerAccumulator {
    /// Blocks attributed to the miner.
    pub blocks: u64,
    /// Body (non-coinbase) transactions confirmed by the miner.
    pub txs: u64,
    /// Sum of per-block PPE values (percent).
    pub ppe_sum: f64,
    /// Number of blocks contributing to `ppe_sum`.
    pub ppe_count: u64,
    /// Sum of per-transaction signed PPE values (percent).
    pub sppe_sum: f64,
    /// Number of transactions contributing to `sppe_sum`.
    pub sppe_count: u64,
    /// Transactions whose SPPE meets the dark-fee suspicion threshold.
    pub sppe_hot: u64,
    /// Ordering-norm violation pairs charged to the miner.
    pub pair_violating: u64,
    /// Candidate pairs examined when charging violations.
    pub pair_candidates: u64,
}

impl MinerAccumulator {
    /// Record one block containing `txs` body transactions, with its PPE
    /// (when defined — blocks with no non-CPFP transactions have none).
    pub fn push_block(&mut self, txs: u64, ppe: Option<f64>) {
        self.blocks += 1;
        self.txs += txs;
        if let Some(p) = ppe {
            self.ppe_sum += p;
            self.ppe_count += 1;
        }
    }

    /// Record one transaction's signed PPE; `hot` marks it as meeting the
    /// dark-fee suspicion threshold.
    pub fn push_sppe(&mut self, sppe: f64, hot: bool) {
        self.sppe_sum += sppe;
        self.sppe_count += 1;
        if hot {
            self.sppe_hot += 1;
        }
    }

    /// Record pair-violation counts charged to this miner.
    pub fn push_pairs(&mut self, violating: u64, candidates: u64) {
        self.pair_violating += violating;
        self.pair_candidates += candidates;
    }

    /// Fold another accumulator into this one (field-wise addition).
    pub fn merge(&mut self, other: &MinerAccumulator) {
        self.blocks += other.blocks;
        self.txs += other.txs;
        self.ppe_sum += other.ppe_sum;
        self.ppe_count += other.ppe_count;
        self.sppe_sum += other.sppe_sum;
        self.sppe_count += other.sppe_count;
        self.sppe_hot += other.sppe_hot;
        self.pair_violating += other.pair_violating;
        self.pair_candidates += other.pair_candidates;
    }

    /// Mean per-block PPE, or `None` when no block had a defined PPE.
    pub fn mean_ppe(&self) -> Option<f64> {
        (self.ppe_count > 0).then(|| self.ppe_sum / self.ppe_count as f64)
    }

    /// Mean per-transaction SPPE, or `None` before the first transaction.
    pub fn mean_sppe(&self) -> Option<f64> {
        (self.sppe_count > 0).then(|| self.sppe_sum / self.sppe_count as f64)
    }

    /// Fraction of charged pairs that violate the norm, or `None` when no
    /// candidate pairs have been examined.
    pub fn violation_fraction(&self) -> Option<f64> {
        (self.pair_candidates > 0).then(|| self.pair_violating as f64 / self.pair_candidates as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_within_one_bucket() {
        let mut h = Histogram::new(0.0, 100.0, 100);
        for i in 0..1000 {
            h.push(i as f64 / 10.0);
        }
        let width = h.bucket_width();
        for (q, exact) in [(0.1, 10.0), (0.5, 50.0), (0.9, 90.0)] {
            let approx = h.quantile(q).unwrap();
            assert!((approx - exact).abs() <= width + 1e-9, "q={q}: {approx} vs {exact}");
        }
        assert_eq!(h.min(), Some(0.0));
        assert_eq!(h.max(), Some(99.9));
    }

    #[test]
    fn histogram_under_overflow() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.push(-5.0);
        h.push(15.0);
        h.push(5.0);
        assert_eq!(h.count(), 3);
        assert_eq!(h.quantile(0.0), Some(-5.0));
        assert_eq!(h.quantile(1.0), Some(15.0));
    }

    #[test]
    fn histogram_ignores_non_finite() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.push(f64::NAN);
        h.push(f64::INFINITY);
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), None);
    }

    #[test]
    fn histogram_merge_matches_sequential_exactly() {
        let samples: Vec<f64> = (0..500).map(|i| (i * 7 % 97) as f64).collect();
        let mut whole = Histogram::new(0.0, 100.0, 32);
        for &s in &samples {
            whole.push(s);
        }
        let mut left = Histogram::new(0.0, 100.0, 32);
        let mut right = Histogram::new(0.0, 100.0, 32);
        for (i, &s) in samples.iter().enumerate() {
            if i % 2 == 0 {
                left.push(s);
            } else {
                right.push(s);
            }
        }
        left.merge(&right);
        // Integer state merges exactly; only `sum` may differ by rounding
        // (here it doesn't, the samples are small integers).
        assert_eq!(whole, left);
    }

    #[test]
    #[should_panic(expected = "identical geometry")]
    fn histogram_merge_geometry_mismatch_panics() {
        let mut a = Histogram::new(0.0, 1.0, 4);
        let b = Histogram::new(0.0, 1.0, 8);
        a.merge(&b);
    }

    #[test]
    fn accumulator_merge_is_fieldwise() {
        let mut a = MinerAccumulator::default();
        a.push_block(10, Some(12.5));
        a.push_sppe(40.0, false);
        let mut b = MinerAccumulator::default();
        b.push_block(5, None);
        b.push_sppe(95.0, true);
        b.push_pairs(3, 17);
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.blocks, 2);
        assert_eq!(merged.txs, 15);
        assert_eq!(merged.ppe_count, 1);
        assert_eq!(merged.sppe_count, 2);
        assert_eq!(merged.sppe_hot, 1);
        assert_eq!(merged.pair_violating, 3);
        assert_eq!(merged.pair_candidates, 17);
        assert_eq!(merged.mean_ppe(), Some(12.5));
        assert_eq!(merged.mean_sppe(), Some((40.0 + 95.0) / 2.0));
        assert_eq!(merged.violation_fraction(), Some(3.0 / 17.0));
    }
}
