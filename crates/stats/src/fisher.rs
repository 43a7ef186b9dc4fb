//! Fisher's method for combining independent p-values (§5.1.3).
//!
//! When hash rates drift over a long window, the paper splits the window
//! into pieces with roughly constant hash rate, tests each, and combines:
//! `X = -2 Σ ln pᵢ ~ χ²(2n)` under the joint null. Because the degrees of
//! freedom are always even, the χ² survival function has the closed form
//! `exp(-x/2) Σ_{j<n} (x/2)^j / j!`, which we evaluate in log space.

use crate::lgamma::{ln_add_exp, ln_factorial};

/// Survival function `Pr(χ²(2n) > x)` for even degrees of freedom `2n`.
///
/// # Panics
/// Panics when `n == 0` or `x` is negative/NaN.
pub fn chi2_sf_even(x: f64, n: u64) -> f64 {
    assert!(n > 0, "chi-square needs at least 2 degrees of freedom");
    assert!(x >= 0.0, "chi-square statistic must be non-negative, got {x}");
    let half = x / 2.0;
    if half == 0.0 {
        return 1.0;
    }
    // ln of sum_{j=0}^{n-1} half^j / j!
    let ln_half = half.ln();
    let mut acc = f64::NEG_INFINITY;
    for j in 0..n {
        acc = ln_add_exp(acc, j as f64 * ln_half - ln_factorial(j));
    }
    (acc - half).exp().min(1.0)
}

/// Combines independent p-values with Fisher's method, returning the
/// combined p-value. Zero p-values are clamped to `f64::MIN_POSITIVE` so a
/// single underflowed input yields a (correctly) zero combined p rather
/// than NaN.
///
/// # Panics
/// Panics on an empty slice or on p-values outside `[0, 1]`.
pub fn fisher_combine(p_values: &[f64]) -> f64 {
    assert!(!p_values.is_empty(), "cannot combine zero p-values");
    let mut stat = 0.0;
    for &p in p_values {
        assert!((0.0..=1.0).contains(&p), "p-value {p} outside [0,1]");
        let p = p.max(f64::MIN_POSITIVE);
        stat += -2.0 * p.ln();
    }
    chi2_sf_even(stat, p_values.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} vs {b}");
    }

    #[test]
    fn chi2_known_values() {
        // χ²(2): sf(x) = exp(-x/2)
        assert_close(chi2_sf_even(2.0, 1), (-1.0f64).exp(), 1e-12);
        assert_close(chi2_sf_even(5.991, 1), 0.05, 1e-3); // 95th pct of χ²(2)
                                                          // χ²(4): sf(x) = exp(-x/2)(1 + x/2)
        assert_close(chi2_sf_even(4.0, 2), (-2.0f64).exp() * 3.0, 1e-12);
        assert_close(chi2_sf_even(9.488, 2), 0.05, 1e-3); // 95th pct of χ²(4)
    }

    #[test]
    fn single_p_value_is_identity() {
        for p in [0.001, 0.05, 0.3, 0.9, 1.0] {
            assert_close(fisher_combine(&[p]), p, 1e-12);
        }
    }

    #[test]
    fn uniform_nulls_stay_unremarkable() {
        let p = fisher_combine(&[0.5, 0.5, 0.5, 0.5]);
        assert!(p > 0.3 && p < 0.9, "p = {p}");
    }

    #[test]
    fn repeated_small_evidence_compounds() {
        let single = 0.04;
        let combined = fisher_combine(&[single; 5]);
        assert!(combined < single, "combined {combined} should beat single {single}");
        assert!(combined < 1e-3);
    }

    #[test]
    fn one_strong_result_dominates() {
        let combined = fisher_combine(&[1e-12, 0.8, 0.9]);
        assert!(combined < 1e-8, "combined = {combined}");
    }

    #[test]
    fn zero_p_is_clamped_not_nan() {
        let combined = fisher_combine(&[0.0, 0.5]);
        assert!((0.0..1e-300).contains(&combined));
        assert!(!combined.is_nan());
    }

    #[test]
    fn all_ones_combine_to_one() {
        assert_close(fisher_combine(&[1.0, 1.0, 1.0]), 1.0, 1e-12);
    }

    #[test]
    #[should_panic(expected = "cannot combine zero p-values")]
    fn empty_input_panics() {
        let _ = fisher_combine(&[]);
    }

    #[test]
    #[should_panic(expected = "outside [0,1]")]
    fn out_of_range_p_panics() {
        let _ = fisher_combine(&[1.5]);
    }

    #[test]
    fn sf_monotone_in_x() {
        let mut prev = 1.0;
        for i in 0..200 {
            let x = i as f64 * 0.5;
            let p = chi2_sf_even(x, 5);
            assert!(p <= prev + 1e-12);
            prev = p;
        }
    }
}
