//! Congestion profiles: the transaction arrival-rate function λ(t).
//!
//! Figure 3 of the paper shows the Mempool oscillating between drained and
//! 15× block capacity; dataset ℬ adds sharp price-surge bursts. The
//! arrival process is a nonhomogeneous Poisson process whose rate is a
//! base level modulated by a diurnal wave and explicit burst windows.

use cn_chain::Timestamp;
use serde::{Deserialize, Serialize};

/// A burst window multiplying the base rate.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Burst {
    /// Window start (seconds).
    pub start: Timestamp,
    /// Window end (exclusive, seconds).
    pub end: Timestamp,
    /// Rate multiplier while inside the window.
    pub multiplier: f64,
}

/// The arrival-rate function.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CongestionProfile {
    /// Base arrivals per second.
    pub base_rate: f64,
    /// Peak-to-trough amplitude of the diurnal wave, in `[0, 1)`;
    /// 0 disables it.
    pub diurnal_amplitude: f64,
    /// Period of the diurnal wave in seconds (86,400 for a day).
    pub diurnal_period: Timestamp,
    /// Burst windows (may overlap; multipliers compound).
    pub bursts: Vec<Burst>,
}

impl CongestionProfile {
    /// A flat profile with the given rate.
    pub fn flat(rate: f64) -> CongestionProfile {
        assert!(rate > 0.0 && rate.is_finite(), "rate must be positive");
        CongestionProfile {
            base_rate: rate,
            diurnal_amplitude: 0.0,
            diurnal_period: 86_400,
            bursts: Vec::new(),
        }
    }

    /// A daily-wave profile.
    pub fn diurnal(rate: f64, amplitude: f64) -> CongestionProfile {
        assert!((0.0..1.0).contains(&amplitude), "amplitude in [0,1)");
        CongestionProfile { diurnal_amplitude: amplitude, ..CongestionProfile::flat(rate) }
    }

    /// Adds a burst window.
    pub fn with_burst(mut self, start: Timestamp, end: Timestamp, multiplier: f64) -> Self {
        assert!(end > start, "empty burst window");
        assert!(multiplier > 0.0, "multiplier must be positive");
        self.bursts.push(Burst { start, end, multiplier });
        self
    }

    /// λ(t): instantaneous arrivals per second.
    pub fn rate_at(&self, t: Timestamp) -> f64 {
        let phase = 2.0 * std::f64::consts::PI * (t % self.diurnal_period) as f64
            / self.diurnal_period as f64;
        let mut rate = self.base_rate * (1.0 + self.diurnal_amplitude * phase.sin());
        for b in &self.bursts {
            if t >= b.start && t < b.end {
                rate *= b.multiplier;
            }
        }
        rate
    }

    /// An upper bound on λ over all t (for Poisson thinning).
    pub fn max_rate(&self) -> f64 {
        let burst_factor: f64 = self.bursts.iter().map(|b| b.multiplier.max(1.0)).product();
        self.base_rate * (1.0 + self.diurnal_amplitude) * burst_factor
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_profile_is_constant() {
        let p = CongestionProfile::flat(2.5);
        assert_eq!(p.rate_at(0), 2.5);
        assert_eq!(p.rate_at(1_000_000), 2.5);
        assert_eq!(p.max_rate(), 2.5);
    }

    #[test]
    fn diurnal_wave_oscillates_around_base() {
        let p = CongestionProfile::diurnal(4.0, 0.5);
        let quarter = p.diurnal_period / 4;
        assert!((p.rate_at(quarter) - 6.0).abs() < 1e-9); // peak: base*(1+a)
        assert!((p.rate_at(3 * quarter) - 2.0).abs() < 1e-9); // trough
        assert!((p.rate_at(0) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn bursts_multiply_inside_window_only() {
        let p = CongestionProfile::flat(1.0).with_burst(100, 200, 5.0);
        assert_eq!(p.rate_at(99), 1.0);
        assert_eq!(p.rate_at(100), 5.0);
        assert_eq!(p.rate_at(199), 5.0);
        assert_eq!(p.rate_at(200), 1.0);
    }

    #[test]
    fn overlapping_bursts_compound() {
        let p = CongestionProfile::flat(1.0).with_burst(0, 100, 2.0).with_burst(50, 150, 3.0);
        assert_eq!(p.rate_at(75), 6.0);
        assert_eq!(p.rate_at(25), 2.0);
        assert_eq!(p.rate_at(125), 3.0);
    }

    #[test]
    fn max_rate_dominates_everywhere() {
        let p =
            CongestionProfile::diurnal(2.0, 0.4).with_burst(10, 20, 3.0).with_burst(15, 30, 2.0);
        let max = p.max_rate();
        for t in 0..200 {
            assert!(p.rate_at(t) <= max + 1e-12, "t={t}");
        }
    }

    #[test]
    #[should_panic(expected = "empty burst window")]
    fn degenerate_burst_panics() {
        let _ = CongestionProfile::flat(1.0).with_burst(5, 5, 2.0);
    }
}
