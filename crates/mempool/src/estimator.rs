//! A wallet-style fee estimator.
//!
//! §4.1.2: "the Bitcoin Core code and most of the wallet software rely on
//! the distribution of transactions' fee-rates included in previous blocks
//! to suggest to users the fees that they should include." This estimator
//! reproduces that behaviour: it keeps the fee-rate distributions of the
//! last `window` blocks and suggests a quantile of the pooled sample. The
//! simulator's users consult it when pricing their transactions, which is
//! what makes simulated fee-rates track congestion the way Figure 4(c)
//! shows real ones do.

use cn_chain::FeeRate;
use std::collections::VecDeque;

/// Rolling fee estimator over recent blocks.
///
/// The pooled, sorted sample is rebuilt once per recorded block rather
/// than on every [`FeeEstimator::suggest`] call: users consult the
/// estimator per transaction, blocks arrive ~600× less often.
#[derive(Clone, Debug)]
pub struct FeeEstimator {
    window: usize,
    recent: VecDeque<Vec<FeeRate>>,
    pooled_sorted: Vec<FeeRate>,
}

impl FeeEstimator {
    /// Creates an estimator remembering the last `window` blocks.
    ///
    /// # Panics
    /// Panics when `window` is zero.
    pub fn new(window: usize) -> FeeEstimator {
        assert!(window > 0, "window must be positive");
        FeeEstimator { window, recent: VecDeque::with_capacity(window), pooled_sorted: Vec::new() }
    }

    /// Records the fee rates observed in a newly mined block's body.
    pub fn record_rates(&mut self, rates: Vec<FeeRate>) {
        if self.recent.len() == self.window {
            self.recent.pop_front();
        }
        self.recent.push_back(rates);
        self.pooled_sorted.clear();
        self.pooled_sorted.extend(self.recent.iter().flatten().copied());
        self.pooled_sorted.sort_unstable();
    }

    /// Suggests the fee rate at quantile `q` of the pooled recent sample
    /// (e.g. 0.5 for an economical wallet, 0.9 for an impatient one).
    /// Returns the relay floor when no history exists yet.
    pub fn suggest(&self, q: f64) -> FeeRate {
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0,1]");
        let pooled = &self.pooled_sorted;
        if pooled.is_empty() {
            return FeeRate::MIN_RELAY;
        }
        let rank = ((q * pooled.len() as f64).ceil() as usize).clamp(1, pooled.len());
        pooled[rank - 1]
    }

    /// Number of blocks currently remembered.
    pub fn depth(&self) -> usize {
        self.recent.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rates(v: &[u64]) -> Vec<FeeRate> {
        v.iter().map(|&s| FeeRate::from_sat_per_vb(s)).collect()
    }

    #[test]
    fn empty_history_returns_floor() {
        let est = FeeEstimator::new(5);
        assert_eq!(est.suggest(0.5), FeeRate::MIN_RELAY);
    }

    #[test]
    fn suggests_quantiles_of_pooled_sample() {
        let mut est = FeeEstimator::new(5);
        est.record_rates(rates(&[1, 2, 3, 4]));
        est.record_rates(rates(&[5, 6, 7, 8, 9, 10]));
        assert_eq!(est.suggest(0.5), FeeRate::from_sat_per_vb(5));
        assert_eq!(est.suggest(1.0), FeeRate::from_sat_per_vb(10));
        assert_eq!(est.suggest(0.1), FeeRate::from_sat_per_vb(1));
    }

    #[test]
    fn window_slides() {
        let mut est = FeeEstimator::new(2);
        est.record_rates(rates(&[100]));
        est.record_rates(rates(&[1]));
        est.record_rates(rates(&[2]));
        // The 100 sat/vB block fell out of the window.
        assert_eq!(est.suggest(1.0), FeeRate::from_sat_per_vb(2));
        assert_eq!(est.depth(), 2);
    }

    #[test]
    fn rising_congestion_raises_suggestions() {
        let mut est = FeeEstimator::new(3);
        est.record_rates(rates(&[1, 1, 2]));
        let calm = est.suggest(0.9);
        est.record_rates(rates(&[20, 30, 40]));
        est.record_rates(rates(&[25, 35, 45]));
        let congested = est.suggest(0.9);
        assert!(congested > calm);
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_panics() {
        let _ = FeeEstimator::new(0);
    }
}
