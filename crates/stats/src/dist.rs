//! Sampling distributions for the workload generator.
//!
//! Implemented here (instead of pulling `rand_distr`) to keep dependencies
//! within the sanctioned offline set; each sampler is validated against its
//! analytic moments in tests.

use crate::rng::SimRng;

/// Exponential distribution with rate `lambda` (mean `1/lambda`).
///
/// Inter-block times and Poisson-process inter-arrival gaps are exponential.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Exponential {
    lambda: f64,
}

impl Exponential {
    /// Creates an exponential with the given rate.
    ///
    /// # Panics
    /// Panics for non-positive or non-finite rates.
    pub fn new(lambda: f64) -> Exponential {
        assert!(lambda.is_finite() && lambda > 0.0, "rate must be positive, got {lambda}");
        Exponential { lambda }
    }

    /// Creates an exponential with the given mean.
    pub fn with_mean(mean: f64) -> Exponential {
        Exponential::new(1.0 / mean)
    }

    /// Draws a sample by inverse-CDF.
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        // 1 - U in (0, 1] avoids ln(0).
        let u = 1.0 - rng.next_f64();
        -u.ln() / self.lambda
    }
}

/// Poisson distribution with mean `lambda`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Poisson {
    lambda: f64,
}

impl Poisson {
    /// Creates a Poisson with the given mean.
    ///
    /// # Panics
    /// Panics for negative or non-finite means.
    pub fn new(lambda: f64) -> Poisson {
        assert!(lambda.is_finite() && lambda >= 0.0, "mean must be non-negative, got {lambda}");
        Poisson { lambda }
    }

    /// Draws a sample: Knuth's product method below λ = 30, a
    /// normal-approximation with continuity correction above (adequate for
    /// workload generation, and branch-free of table lookups).
    pub fn sample(&self, rng: &mut SimRng) -> u64 {
        if self.lambda == 0.0 {
            return 0;
        }
        if self.lambda < 30.0 {
            let limit = (-self.lambda).exp();
            let mut product = rng.next_f64();
            let mut count = 0u64;
            while product > limit {
                product *= rng.next_f64();
                count += 1;
            }
            count
        } else {
            let normal = sample_standard_normal(rng);
            let v = self.lambda + self.lambda.sqrt() * normal + 0.5;
            if v < 0.0 {
                0
            } else {
                v as u64
            }
        }
    }
}

/// Log-normal distribution parameterized by the underlying normal's
/// `mu` and `sigma`.
///
/// Transaction sizes, values, and P2P link latencies are heavy-tailed;
/// log-normal matches their empirical shape well.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Creates a log-normal with the given log-space parameters.
    ///
    /// # Panics
    /// Panics for non-finite `mu` or non-positive/non-finite `sigma`.
    pub fn new(mu: f64, sigma: f64) -> LogNormal {
        assert!(mu.is_finite(), "mu must be finite");
        assert!(sigma.is_finite() && sigma > 0.0, "sigma must be positive, got {sigma}");
        LogNormal { mu, sigma }
    }

    /// Creates a log-normal with the given *linear-space* median and
    /// log-space sigma — the natural way to calibrate "typical value X,
    /// spread factor exp(sigma)".
    pub fn with_median(median: f64, sigma: f64) -> LogNormal {
        assert!(median > 0.0, "median must be positive");
        LogNormal::new(median.ln(), sigma)
    }

    /// Draws a sample.
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        (self.mu + self.sigma * sample_standard_normal(rng)).exp()
    }
}

/// Samples from a discrete distribution given non-negative weights.
///
/// Used to pick the pool that mines each block, proportional to hash rate.
#[derive(Clone, Debug, PartialEq)]
pub struct WeightedIndex {
    cumulative: Vec<f64>,
}

impl WeightedIndex {
    /// Builds the sampler.
    ///
    /// # Panics
    /// Panics when `weights` is empty, contains a negative/non-finite
    /// weight, or sums to zero.
    pub fn new(weights: &[f64]) -> WeightedIndex {
        assert!(!weights.is_empty(), "need at least one weight");
        let mut cumulative = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for &w in weights {
            assert!(w.is_finite() && w >= 0.0, "invalid weight {w}");
            acc += w;
            cumulative.push(acc);
        }
        assert!(acc > 0.0, "weights sum to zero");
        WeightedIndex { cumulative }
    }

    /// Draws an index with probability proportional to its weight.
    pub fn sample(&self, rng: &mut SimRng) -> usize {
        let total = *self.cumulative.last().expect("non-empty");
        let target = rng.next_f64() * total;
        self.cumulative.partition_point(|&c| c <= target).min(self.cumulative.len() - 1)
    }
}

/// Standard normal via Box–Muller (one value per call; the partner draw is
/// discarded for simplicity — workload generation is not RNG-bound).
fn sample_standard_normal(rng: &mut SimRng) -> f64 {
    let u1 = (1.0 - rng.next_f64()).max(f64::MIN_POSITIVE);
    let u2 = rng.next_f64();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::seed_from_u64(0xfeed)
    }

    #[test]
    fn exponential_mean_matches() {
        let d = Exponential::with_mean(600.0);
        let mut r = rng();
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| d.sample(&mut r)).sum::<f64>() / n as f64;
        assert!((mean - 600.0).abs() < 12.0, "mean {mean}");
    }

    #[test]
    fn exponential_is_positive() {
        let d = Exponential::new(2.0);
        let mut r = rng();
        for _ in 0..1000 {
            assert!(d.sample(&mut r) > 0.0);
        }
    }

    #[test]
    fn poisson_small_lambda_moments() {
        let d = Poisson::new(3.5);
        let mut r = rng();
        let n = 50_000;
        let samples: Vec<u64> = (0..n).map(|_| d.sample(&mut r)).collect();
        let mean = samples.iter().sum::<u64>() as f64 / n as f64;
        let var = samples.iter().map(|&s| (s as f64 - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 3.5).abs() < 0.06, "mean {mean}");
        assert!((var - 3.5).abs() < 0.15, "var {var}");
    }

    #[test]
    fn poisson_large_lambda_moments() {
        let d = Poisson::new(500.0);
        let mut r = rng();
        let n = 20_000;
        let mean = (0..n).map(|_| d.sample(&mut r)).sum::<u64>() as f64 / n as f64;
        assert!((mean - 500.0).abs() < 2.0, "mean {mean}");
    }

    #[test]
    fn poisson_zero_lambda() {
        let d = Poisson::new(0.0);
        let mut r = rng();
        assert_eq!(d.sample(&mut r), 0);
    }

    #[test]
    fn lognormal_median_matches() {
        let d = LogNormal::with_median(250.0, 0.6);
        let mut r = rng();
        let n = 50_000;
        let mut samples: Vec<f64> = (0..n).map(|_| d.sample(&mut r)).collect();
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let median = samples[n / 2];
        assert!((median / 250.0 - 1.0).abs() < 0.05, "median {median}");
        assert!(samples[0] > 0.0);
    }

    #[test]
    fn weighted_index_proportions() {
        let w = WeightedIndex::new(&[1.0, 3.0, 6.0]);
        let mut r = rng();
        let mut counts = [0u32; 3];
        let n = 60_000;
        for _ in 0..n {
            counts[w.sample(&mut r)] += 1;
        }
        assert!((counts[0] as f64 / n as f64 - 0.1).abs() < 0.01, "{counts:?}");
        assert!((counts[1] as f64 / n as f64 - 0.3).abs() < 0.01, "{counts:?}");
        assert!((counts[2] as f64 / n as f64 - 0.6).abs() < 0.01, "{counts:?}");
    }

    #[test]
    fn weighted_index_zero_weight_never_sampled() {
        let w = WeightedIndex::new(&[0.0, 1.0]);
        let mut r = rng();
        for _ in 0..1000 {
            assert_eq!(w.sample(&mut r), 1);
        }
    }

    #[test]
    #[should_panic(expected = "weights sum to zero")]
    fn all_zero_weights_panic() {
        let _ = WeightedIndex::new(&[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn exponential_rejects_bad_rate() {
        let _ = Exponential::new(0.0);
    }

    #[test]
    fn standard_normal_moments() {
        let mut r = rng();
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| sample_standard_normal(&mut r)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }
}
