//! The standard normal distribution: CDF and survival function.
//!
//! §5.1.3 of the paper approximates the binomial tail by
//! `Φ((x - yθ₀) / sqrt(yθ₀(1-θ₀)))` for large `y`; this module supplies Φ
//! with ~1e-15 absolute accuracy via the complementary error function.

/// Complementary error function, via the rational Chebyshev approximation of
/// W. J. Cody (1969), absolute error below 1e-15 across the real line.
pub fn erfc(x: f64) -> f64 {
    let ax = x.abs();

    if ax < 0.5 {
        1.0 - erf_series(x)
    } else {
        // erfc(ax) = exp(-ax^2) * R(ax)
        let r = if ax < 4.0 { erfc_mid(ax) } else { erfc_far(ax) };
        let v = (-ax * ax).exp() * r;
        if x < 0.0 {
            return 2.0 - v;
        }
        v
    }
}

/// Error function.
pub fn erf(x: f64) -> f64 {
    if x.abs() < 0.5 {
        erf_series(x)
    } else {
        1.0 - erfc(x)
    }
}

// erf on |x| < 0.5 via its Maclaurin-like rational approximation.
fn erf_series(x: f64) -> f64 {
    const A: [f64; 5] = [
        3.209_377_589_138_469_4e3,
        3.774_852_376_853_02e2,
        1.138_641_541_510_501_6e2,
        3.161_123_743_870_565_6,
        1.857_777_061_846_031_5e-1,
    ];
    const B: [f64; 4] = [
        2.844_236_833_439_171e3,
        1.282_616_526_077_372_3e3,
        2.440_246_379_344_441_6e2,
        2.360_129_095_234_412_2e1,
    ];
    let z = x * x;
    let num = ((((A[4] * z + A[3]) * z + A[2]) * z + A[1]) * z) + A[0];
    let den = ((((z + B[3]) * z + B[2]) * z + B[1]) * z) + B[0];
    x * num / den
}

// exp(x^2)*erfc(x) on 0.5 <= x < 4.
fn erfc_mid(x: f64) -> f64 {
    const P: [f64; 9] = [
        1.230_339_354_797_997_2e3,
        2.051_078_377_826_071_6e3,
        1.712_047_612_634_070_7e3,
        8.819_522_212_417_69e2,
        2.986_351_381_974_001e2,
        6.611_919_063_714_163e1,
        8.883_149_794_388_375,
        5.641_884_969_886_701e-1,
        2.153_115_354_744_038_3e-8,
    ];
    const Q: [f64; 8] = [
        1.230_339_354_803_749_5e3,
        3.439_367_674_143_721_6e3,
        4.362_619_090_143_247e3,
        3.290_799_235_733_459_7e3,
        1.621_389_574_566_690_3e3,
        5.371_811_018_620_099e2,
        1.176_939_508_913_124_6e2,
        1.574_492_611_070_983_3e1,
    ];
    let num =
        ((((((((P[8] * x + P[7]) * x + P[6]) * x + P[5]) * x + P[4]) * x + P[3]) * x + P[2]) * x
            + P[1])
            * x)
            + P[0];
    let den = ((((((((x + Q[7]) * x + Q[6]) * x + Q[5]) * x + Q[4]) * x + Q[3]) * x + Q[2]) * x
        + Q[1])
        * x)
        + Q[0];
    num / den
}

// exp(x^2)*erfc(x) on x >= 4.
fn erfc_far(x: f64) -> f64 {
    const P: [f64; 6] = [
        -6.587_491_615_298_378e-4,
        -1.608_378_514_874_228e-2,
        -1.257_816_929_786_021_5e-1,
        -3.603_448_999_498_044_4e-1,
        -3.053_266_349_612_323e-1,
        -1.631_538_713_730_209_8e-2,
    ];
    const Q: [f64; 5] = [
        2.335_204_976_268_691_8e-3,
        6.051_834_131_244_132e-2,
        5.279_051_029_514_285e-1,
        1.872_952_849_923_460_4,
        2.568_520_192_289_822,
    ];
    if x > 26.5 {
        return 0.0;
    }
    /// 1 / sqrt(pi)
    const FRAC_1_SQRT_PI: f64 = 0.564_189_583_547_756_3;
    let z = 1.0 / (x * x);
    let num = (((((P[5] * z + P[4]) * z + P[3]) * z + P[2]) * z + P[1]) * z) + P[0];
    let den = (((((z + Q[4]) * z + Q[3]) * z + Q[2]) * z + Q[1]) * z) + Q[0];
    let r = z * num / den;
    (FRAC_1_SQRT_PI + r) / x
}

/// Standard normal CDF `Φ(x)`.
pub fn normal_cdf(x: f64) -> f64 {
    0.5 * erfc(-x * std::f64::consts::FRAC_1_SQRT_2)
}

/// Standard normal survival function `1 − Φ(x)`, accurate in the far tail.
pub fn normal_sf(x: f64) -> f64 {
    0.5 * erfc(x * std::f64::consts::FRAC_1_SQRT_2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} vs {b} (diff {})", (a - b).abs());
    }

    #[test]
    fn erf_known_values() {
        assert_close(erf(0.0), 0.0, 1e-16);
        assert_close(erf(0.5), 0.520_499_877_813_046_5, 1e-12);
        assert_close(erf(1.0), 0.842_700_792_949_714_9, 1e-12);
        assert_close(erf(2.0), 0.995_322_265_018_952_7, 1e-12);
        assert_close(erf(-1.0), -0.842_700_792_949_714_9, 1e-12);
    }

    #[test]
    fn erfc_complements_erf() {
        for x in [-3.0, -1.0, -0.3, 0.0, 0.3, 1.0, 3.0, 5.0] {
            assert_close(erf(x) + erfc(x), 1.0, 1e-12);
        }
    }

    #[test]
    fn cdf_known_values() {
        assert_close(normal_cdf(0.0), 0.5, 1e-15);
        assert_close(normal_cdf(1.0), 0.841_344_746_068_542_9, 1e-10);
        assert_close(normal_cdf(-1.0), 0.158_655_253_931_457_05, 1e-10);
        assert_close(normal_cdf(1.959_963_984_540_054), 0.975, 1e-9);
        assert_close(normal_cdf(2.326_347_874_040_841), 0.99, 1e-9);
    }

    #[test]
    fn sf_is_symmetric_tail() {
        for x in [0.0, 0.5, 1.0, 2.5, 4.0] {
            assert_close(normal_sf(x), normal_cdf(-x), 1e-13);
        }
    }

    #[test]
    fn far_tail_is_tiny_but_positive() {
        let p = normal_sf(8.0);
        assert!(p > 0.0 && p < 1e-14, "sf(8) = {p}");
        assert_eq!(normal_sf(40.0), 0.0);
    }

    #[test]
    fn monotone_decreasing_sf() {
        let mut prev = 1.0;
        let mut x = -6.0;
        while x <= 6.0 {
            let p = normal_sf(x);
            assert!(p <= prev + 1e-15, "sf not monotone at {x}");
            prev = p;
            x += 0.01;
        }
    }
}
