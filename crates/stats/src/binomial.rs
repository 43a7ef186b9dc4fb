//! The paper's differential-prioritization test (§5.1).
//!
//! Given a miner with normalized hash rate `θ₀`, and `y` blocks that contain
//! at least one transaction from the set under test (*c-blocks*), of which
//! `x` were mined by that miner, the acceleration test computes
//! `p = Pr(B ≥ x)` and the deceleration test `p = Pr(B ≤ x)` for
//! `B ~ Binomial(y, θ₀)`. Small p-values reject the null "the miner treats
//! these transactions like everyone else."

use crate::lgamma::{ln_add_exp, ln_binomial};
use crate::normal::normal_cdf;
use serde::{Deserialize, Serialize};

/// Which tail of the binomial distribution to accumulate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Tail {
    /// `Pr(B ≥ x)` — the acceleration test (H₁: θ > θ₀).
    Upper,
    /// `Pr(B ≤ x)` — the deceleration test (H₁: θ < θ₀).
    Lower,
}

/// Result of a one-sided binomial test.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct BinomialTest {
    /// Observed successes (c-blocks mined by the miner under test).
    pub x: u64,
    /// Trials (c-blocks in total).
    pub y: u64,
    /// Null success probability (the miner's normalized hash rate).
    pub theta0: f64,
    /// The tail accumulated.
    pub tail: Tail,
    /// The p-value.
    pub p_value: f64,
}

impl BinomialTest {
    /// True when the null is rejected at significance `alpha`.
    pub fn rejects_at(&self, alpha: f64) -> bool {
        self.p_value < alpha
    }
}

/// Exact one-sided binomial test, computed in log space.
///
/// ```
/// use cn_stats::{binomial_test, Tail};
/// // Table 2's F2Pool row: 466 of 839 c-blocks at a 17.53% hash rate.
/// let t = binomial_test(466, 839, 0.1753, Tail::Upper);
/// assert!(t.p_value < 1e-100);
/// assert!(t.rejects_at(0.001));
/// ```
///
/// # Panics
/// Panics when `x > y` or `theta0` is outside `[0, 1]` — both indicate a
/// bug in the caller's block accounting rather than unusual data.
pub fn binomial_test(x: u64, y: u64, theta0: f64, tail: Tail) -> BinomialTest {
    assert!(x <= y, "observed {x} successes out of {y} trials");
    assert!((0.0..=1.0).contains(&theta0), "theta0 = {theta0} outside [0,1]");
    let p_value = match tail {
        Tail::Upper => binomial_tail_upper(x, y, theta0),
        Tail::Lower => binomial_tail_lower(x, y, theta0),
    };
    BinomialTest { x, y, theta0, tail, p_value }
}

/// `Pr(B ≥ x)` for `B ~ Binomial(y, θ)`.
pub fn binomial_tail_upper(x: u64, y: u64, theta: f64) -> f64 {
    if x == 0 {
        return 1.0;
    }
    if theta <= 0.0 {
        return 0.0; // x >= 1 successes impossible
    }
    if theta >= 1.0 {
        return 1.0; // all trials succeed, so B = y >= x
    }
    // Sum the smaller tail for speed/accuracy, complementing when needed.
    // Upper tail sums y - x + 1 terms; if the lower tail is shorter, do 1 - lower(x-1).
    if x <= y - x {
        1.0 - binomial_tail_lower(x - 1, y, theta)
    } else {
        sum_pmf_range(x, y, y, theta).exp().min(1.0)
    }
}

/// `Pr(B ≤ x)` for `B ~ Binomial(y, θ)`.
pub fn binomial_tail_lower(x: u64, y: u64, theta: f64) -> f64 {
    if x >= y {
        return 1.0;
    }
    if theta <= 0.0 {
        return 1.0; // B = 0 <= x always
    }
    if theta >= 1.0 {
        return 0.0; // B = y > x
    }
    if y - x <= x {
        1.0 - binomial_tail_upper(x + 1, y, theta)
    } else {
        sum_pmf_range(0, x, y, theta).exp().min(1.0)
    }
}

/// log of `sum_{k=lo..=hi} C(y,k) θ^k (1-θ)^(y-k)`.
fn sum_pmf_range(lo: u64, hi: u64, y: u64, theta: f64) -> f64 {
    let ln_theta = theta.ln();
    let ln_1m = (-theta).ln_1p();
    let mut acc = f64::NEG_INFINITY;
    for k in lo..=hi {
        let term = ln_binomial(y, k) + k as f64 * ln_theta + (y - k) as f64 * ln_1m;
        acc = ln_add_exp(acc, term);
    }
    acc
}

/// Normal approximation to the acceleration test p-value (§5.1.3):
/// `Φ((x - yθ₀)/sqrt(yθ₀(1-θ₀)))` — note the paper writes the CDF of the
/// *standardized deficit*; for the upper tail this is `1 - Φ(z)` with a
/// continuity correction of one half.
///
/// The distribution boundaries are pinned to their exact values: at `x = 0`
/// the upper tail is `Pr(B ≥ 0) = 1` and at `x = y` the lower tail is
/// `Pr(B ≤ y) = 1` by definition, but the half-unit continuity correction
/// would otherwise report strictly less than one (e.g. `x = 0, y = 4,
/// θ₀ = 0.5` gave ≈ 0.994) — a silent exit from the approximation's
/// validity region at exactly the inputs where callers rely on the test
/// being vacuous.
///
/// # Panics
/// Panics when `x > y` or `theta0` is outside `[0, 1]`, matching
/// [`binomial_test`].
pub fn binomial_test_normal_approx(x: u64, y: u64, theta0: f64, tail: Tail) -> BinomialTest {
    assert!(x <= y, "observed {x} successes out of {y} trials");
    assert!((0.0..=1.0).contains(&theta0), "theta0 = {theta0} outside [0,1]");
    let mean = y as f64 * theta0;
    let sd = (y as f64 * theta0 * (1.0 - theta0)).sqrt();
    let p_value = if (x == 0 && tail == Tail::Upper) || (x == y && tail == Tail::Lower) {
        // Pr(B >= 0) and Pr(B <= y) are exactly 1; the half-unit
        // continuity correction would otherwise undershoot.
        1.0
    } else if sd == 0.0 {
        // Degenerate null: all mass at 0 or y.
        match tail {
            Tail::Upper => {
                if (theta0 >= 1.0 && x <= y) || x == 0 {
                    1.0
                } else {
                    0.0
                }
            }
            Tail::Lower => {
                if theta0 <= 0.0 || x >= y {
                    1.0
                } else {
                    0.0
                }
            }
        }
    } else {
        match tail {
            // Pr(B >= x) ≈ 1 - Φ((x - 0.5 - mean)/sd)
            Tail::Upper => 1.0 - normal_cdf((x as f64 - 0.5 - mean) / sd),
            // Pr(B <= x) ≈ Φ((x + 0.5 - mean)/sd)
            Tail::Lower => normal_cdf((x as f64 + 0.5 - mean) / sd),
        }
    };
    BinomialTest { x, y, theta0, tail, p_value: p_value.clamp(0.0, 1.0) }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} vs {b}");
    }

    #[test]
    fn fair_coin_exact_values() {
        // Pr(B >= 8 | n=10, p=0.5) = (45 + 10 + 1)/1024
        assert_close(binomial_test(8, 10, 0.5, Tail::Upper).p_value, 56.0 / 1024.0, 1e-12);
        // Pr(B <= 2 | n=10, p=0.5) symmetric
        assert_close(binomial_test(2, 10, 0.5, Tail::Lower).p_value, 56.0 / 1024.0, 1e-12);
    }

    #[test]
    fn boundary_cases() {
        assert_eq!(binomial_test(0, 10, 0.3, Tail::Upper).p_value, 1.0);
        assert_eq!(binomial_test(10, 10, 0.3, Tail::Lower).p_value, 1.0);
        assert_close(binomial_test(10, 10, 0.5, Tail::Upper).p_value, 1.0 / 1024.0, 1e-15);
        assert_close(binomial_test(0, 10, 0.5, Tail::Lower).p_value, 1.0 / 1024.0, 1e-15);
    }

    #[test]
    fn degenerate_theta() {
        assert_eq!(binomial_test(3, 10, 0.0, Tail::Upper).p_value, 0.0);
        assert_eq!(binomial_test(0, 10, 0.0, Tail::Upper).p_value, 1.0);
        assert_eq!(binomial_test(3, 10, 0.0, Tail::Lower).p_value, 1.0);
        assert_eq!(binomial_test(10, 10, 1.0, Tail::Upper).p_value, 1.0);
        assert_eq!(binomial_test(3, 10, 1.0, Tail::Lower).p_value, 0.0);
    }

    #[test]
    fn upper_and_lower_tails_complement() {
        for &(x, y, theta) in &[(3u64, 20u64, 0.1f64), (10, 50, 0.3), (100, 400, 0.22)] {
            let upper = binomial_test(x, y, theta, Tail::Upper).p_value;
            let lower_below = binomial_test(x - 1, y, theta, Tail::Lower).p_value;
            assert_close(upper + lower_below, 1.0, 1e-10);
        }
    }

    #[test]
    fn paper_magnitude_case() {
        // Table 2, F2Pool row: θ₀ = 0.1753, x = 466, y = 839.
        // The paper reports p ≈ 0.0000 for acceleration.
        let t = binomial_test(466, 839, 0.1753, Tail::Upper);
        assert!(t.p_value < 1e-100, "p = {}", t.p_value);
        assert!(t.rejects_at(0.001));
        // And the deceleration test on the same data is ~1.
        let d = binomial_test(466, 839, 0.1753, Tail::Lower);
        assert!(d.p_value > 0.999_999);
    }

    #[test]
    fn null_data_is_not_flagged() {
        // x close to expectation should give a large p-value.
        let t = binomial_test(150, 1000, 0.15, Tail::Upper);
        assert!(t.p_value > 0.4, "p = {}", t.p_value);
        assert!(!t.rejects_at(0.01));
    }

    #[test]
    fn normal_approx_close_to_exact_in_validity_region() {
        for &(x, y, theta) in
            &[(120u64, 1000u64, 0.1f64), (320, 1000, 0.3), (5100, 10000, 0.5), (80, 1000, 0.1)]
        {
            for tail in [Tail::Upper, Tail::Lower] {
                let exact = binomial_test(x, y, theta, tail).p_value;
                let approx = binomial_test_normal_approx(x, y, theta, tail).p_value;
                assert!(
                    (exact - approx).abs() < 5e-3,
                    "x={x} y={y} θ={theta} {tail:?}: exact {exact} vs approx {approx}"
                );
            }
        }
    }

    #[test]
    fn large_y_does_not_overflow() {
        let t = binomial_test(60_000, 100_000, 0.5, Tail::Upper);
        assert!(t.p_value > 0.0 && t.p_value < 1e-300 || t.p_value == 0.0 || t.p_value < 1e-100);
        let t2 = binomial_test(50_100, 100_000, 0.5, Tail::Upper);
        assert!(t2.p_value > 0.2 && t2.p_value < 0.3);
    }

    #[test]
    #[should_panic(expected = "successes out of")]
    fn x_greater_than_y_panics() {
        let _ = binomial_test(11, 10, 0.5, Tail::Upper);
    }

    #[test]
    fn monotone_in_x() {
        let mut prev = 1.1;
        for x in 0..=50 {
            let p = binomial_test(x, 50, 0.4, Tail::Upper).p_value;
            assert!(p <= prev + 1e-12);
            prev = p;
        }
    }

    #[test]
    fn normal_approx_boundaries_match_exact() {
        // Regression: the continuity correction used to report < 1 at the
        // distribution boundaries, where the exact tail is 1 by definition.
        for y in [1u64, 4, 10, 839] {
            for theta in [0.01, 0.1753, 0.5, 0.99] {
                let up0 = binomial_test_normal_approx(0, y, theta, Tail::Upper);
                assert_eq!(up0.p_value, 1.0, "upper x=0 y={y} θ={theta}");
                assert_eq!(binomial_test(0, y, theta, Tail::Upper).p_value, up0.p_value);
                let loy = binomial_test_normal_approx(y, y, theta, Tail::Lower);
                assert_eq!(loy.p_value, 1.0, "lower x=y={y} θ={theta}");
                assert_eq!(binomial_test(y, y, theta, Tail::Lower).p_value, loy.p_value);
            }
        }
        // The opposite boundaries stay approximated (small but nonzero).
        let p = binomial_test_normal_approx(4, 4, 0.5, Tail::Upper).p_value;
        assert!(p > 0.0 && p < 0.1, "p = {p}");
    }

    #[test]
    #[should_panic(expected = "outside [0,1]")]
    fn normal_approx_rejects_bad_theta() {
        let _ = binomial_test_normal_approx(2, 10, 1.5, Tail::Upper);
    }

    #[test]
    fn monotone_in_theta() {
        // Pr(B >= x) is nondecreasing in θ; Pr(B <= x) is nonincreasing.
        // Holds for the exact test everywhere and for the approximation
        // (Φ is monotone in its argument, and z moves monotonically with θ
        // for fixed x, y away from the pinned boundaries).
        for (x, y) in [(3u64, 20u64), (10, 50), (0, 10), (10, 10), (466, 839)] {
            let thetas: Vec<f64> = (0..=40).map(|i| i as f64 / 40.0).collect();
            for tail in [Tail::Upper, Tail::Lower] {
                let mut prev_exact = match tail {
                    Tail::Upper => -0.1,
                    Tail::Lower => 1.1,
                };
                let mut prev_approx = prev_exact;
                for &theta in &thetas {
                    let e = binomial_test(x, y, theta, tail).p_value;
                    let a = binomial_test_normal_approx(x, y, theta, tail).p_value;
                    match tail {
                        Tail::Upper => {
                            assert!(e >= prev_exact - 1e-12, "exact x={x} y={y} θ={theta}");
                            assert!(a >= prev_approx - 1e-12, "approx x={x} y={y} θ={theta}");
                        }
                        Tail::Lower => {
                            assert!(e <= prev_exact + 1e-12, "exact x={x} y={y} θ={theta}");
                            assert!(a <= prev_approx + 1e-12, "approx x={x} y={y} θ={theta}");
                        }
                    }
                    prev_exact = e;
                    prev_approx = a;
                }
            }
        }
    }
}
