//! Empirical cumulative distribution functions and quantiles.
//!
//! Every figure in the paper is a CDF of some population (PPE per block,
//! fee-rates, commit delays, Mempool sizes); [`Ecdf`] is the common engine
//! that evaluates and tabulates them.

use serde::{Deserialize, Serialize};

/// An empirical CDF over a finite sample.
///
/// ```
/// use cn_stats::Ecdf;
/// let e = Ecdf::new(vec![1.0, 2.0, 2.0, 5.0]);
/// assert_eq!(e.eval(2.0), 0.75);
/// assert_eq!(e.quantile(0.5), 2.0);
/// ```
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds an ECDF from a sample, ignoring NaNs.
    ///
    /// # Panics
    /// Panics when the (NaN-filtered) sample is empty.
    pub fn new(mut values: Vec<f64>) -> Ecdf {
        values.retain(|v| !v.is_nan());
        assert!(!values.is_empty(), "ECDF needs at least one finite value");
        values.sort_by(|a, b| a.partial_cmp(b).expect("NaNs filtered"));
        Ecdf { sorted: values }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the sample is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// `F(x)`: the fraction of samples `<= x`.
    pub fn eval(&self, x: f64) -> f64 {
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// The `q`-quantile for `q` in `[0, 1]`, using the nearest-rank method.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0,1]");
        if q == 0.0 {
            return self.sorted[0];
        }
        let rank = (q * self.sorted.len() as f64).ceil() as usize;
        self.sorted[rank.clamp(1, self.sorted.len()) - 1]
    }

    /// The sample minimum.
    pub fn min(&self) -> f64 {
        self.sorted[0]
    }

    /// The sample maximum.
    pub fn max(&self) -> f64 {
        *self.sorted.last().expect("non-empty")
    }

    /// The sample mean.
    pub fn mean(&self) -> f64 {
        self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
    }

    /// Tabulates `(x, F(x))` at `points` evenly spaced sample quantiles —
    /// the series a plotting tool would consume to draw the figure.
    pub fn curve(&self, points: usize) -> Vec<(f64, f64)> {
        assert!(points >= 2, "need at least two curve points");
        (0..points)
            .map(|i| {
                let q = i as f64 / (points - 1) as f64;
                let x = self.quantile(q);
                (x, self.eval(x))
            })
            .collect()
    }

    /// The underlying sorted sample.
    pub fn values(&self) -> &[f64] {
        &self.sorted
    }
}

/// Fixed-width histogram over `[lo, hi)` with `bins` buckets plus overflow.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    lo: f64,
    width: f64,
    counts: Vec<u64>,
    overflow: u64,
    underflow: u64,
}

impl Histogram {
    /// Creates an empty histogram.
    ///
    /// # Panics
    /// Panics when `hi <= lo` or `bins == 0`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Histogram {
        assert!(hi > lo, "empty range");
        assert!(bins > 0, "need at least one bin");
        Histogram {
            lo,
            width: (hi - lo) / bins as f64,
            counts: vec![0; bins],
            overflow: 0,
            underflow: 0,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, x: f64) {
        if x < self.lo {
            self.underflow += 1;
            return;
        }
        let idx = ((x - self.lo) / self.width) as usize;
        if idx >= self.counts.len() {
            self.overflow += 1;
        } else {
            self.counts[idx] += 1;
        }
    }

    /// Bin counts (excluding under/overflow).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Observations below the range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Observations at or above the top of the range.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total observations recorded.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum::<u64>() + self.overflow + self.underflow
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_steps_at_sample_points() {
        let e = Ecdf::new(vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(e.eval(0.5), 0.0);
        assert_eq!(e.eval(1.0), 0.25);
        assert_eq!(e.eval(2.5), 0.5);
        assert_eq!(e.eval(4.0), 1.0);
        assert_eq!(e.eval(100.0), 1.0);
    }

    #[test]
    fn quantiles_nearest_rank() {
        let e = Ecdf::new(vec![10.0, 20.0, 30.0, 40.0, 50.0]);
        assert_eq!(e.quantile(0.0), 10.0);
        assert_eq!(e.quantile(0.2), 10.0);
        assert_eq!(e.quantile(0.5), 30.0);
        assert_eq!(e.quantile(1.0), 50.0);
        assert_eq!(e.quantile(0.21), 20.0);
    }

    #[test]
    fn handles_duplicates() {
        let e = Ecdf::new(vec![5.0, 5.0, 5.0, 7.0]);
        assert_eq!(e.eval(5.0), 0.75);
        assert_eq!(e.eval(4.9), 0.0);
        assert_eq!(e.quantile(0.5), 5.0);
    }

    #[test]
    fn nan_filtered() {
        let e = Ecdf::new(vec![1.0, f64::NAN, 2.0]);
        assert_eq!(e.len(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one finite value")]
    fn empty_panics() {
        let _ = Ecdf::new(vec![f64::NAN]);
    }

    #[test]
    fn curve_is_monotone() {
        let values: Vec<f64> = (0..1000).map(|i| ((i * 37) % 101) as f64).collect();
        let e = Ecdf::new(values);
        let curve = e.curve(50);
        assert_eq!(curve.len(), 50);
        for w in curve.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 <= w[1].1);
        }
        assert_eq!(curve.last().expect("non-empty").1, 1.0);
    }

    #[test]
    fn summary_accessors() {
        let e = Ecdf::new(vec![2.0, 8.0]);
        assert_eq!(e.min(), 2.0);
        assert_eq!(e.max(), 8.0);
        assert_eq!(e.mean(), 5.0);
    }

    #[test]
    fn histogram_bins_and_overflow() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        for x in [0.0, 1.9, 2.0, 9.9, 10.0, 11.0, -1.0] {
            h.record(x);
        }
        assert_eq!(h.counts(), &[2, 1, 0, 0, 1]);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.total(), 7);
    }
}
