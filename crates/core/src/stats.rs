//! Self-contained statistical primitives for the inference engine.
//!
//! The model needs the Poisson likelihood (with real-valued counts, since
//! observed bytes rarely align to whole MTUs) and the normal CDF (to
//! integrate the Brownian kernel over rate bins). Implemented here from
//! standard approximations so the workspace needs no external math crate.

/// Natural log of the gamma function, Lanczos approximation (g = 7, n = 9).
/// Absolute error < 1e-10 over the domain used here (x > 0).
pub fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma domain is x > 0, got {x}");
    // Coefficients for g=7, n=9 (Numerical Recipes / Boost style).
    const G: f64 = 7.0;
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula keeps accuracy near zero.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEF[0];
    let t = x + G + 0.5;
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// Log of the Poisson pmf `P(K = k)` with mean `mean`, extended to
/// real-valued `k ≥ 0` via the gamma function. Returns `-inf` when the
/// event is impossible (`mean == 0` with `k > 0`).
pub fn poisson_ln_pmf(k: f64, mean: f64) -> f64 {
    assert!(k >= 0.0 && mean >= 0.0, "k={k}, mean={mean}");
    if mean == 0.0 {
        return if k == 0.0 { 0.0 } else { f64::NEG_INFINITY };
    }
    k * mean.ln() - mean - ln_gamma(k + 1.0)
}

/// [`poisson_ln_pmf`] with the `ln Γ(k + 1)` term supplied by the
/// caller. The observation loop of the rate model evaluates the pmf at
/// one fixed `k` across every rate bin; `ln_gamma` is the expensive term
/// and depends only on `k`, so hoisting it out of that loop saves ~256
/// Lanczos evaluations per tick. The arithmetic (`k·ln(mean) − mean −
/// lgk1`, left to right) is exactly [`poisson_ln_pmf`]'s, so results are
/// bit-identical when `lgk1 == ln_gamma(k + 1)`.
pub fn poisson_ln_pmf_with_ln_gamma(k: f64, mean: f64, lgk1: f64) -> f64 {
    assert!(k >= 0.0 && mean >= 0.0, "k={k}, mean={mean}");
    if mean == 0.0 {
        return if k == 0.0 { 0.0 } else { f64::NEG_INFINITY };
    }
    k * mean.ln() - mean - lgk1
}

/// Standard normal CDF via the complementary error function.
pub fn normal_cdf(z: f64) -> f64 {
    0.5 * erfc(-z / std::f64::consts::SQRT_2)
}

/// Complementary error function, Numerical-Recipes rational Chebyshev
/// approximation; |error| < 1.2e-7 everywhere, which is far below the
/// probability floor of the model.
pub fn erfc(x: f64) -> f64 {
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    let ans = t
        * (-z * z - 1.265_512_23
            + t * (1.000_023_68
                + t * (0.374_091_96
                    + t * (0.096_784_18
                        + t * (-0.186_288_06
                            + t * (0.278_868_07
                                + t * (-1.135_203_98
                                    + t * (1.488_515_87
                                        + t * (-0.822_152_23 + t * 0.170_872_77)))))))))
            .exp();
    if x >= 0.0 {
        ans
    } else {
        2.0 - ans
    }
}

/// Probability mass of a normal distribution `N(mu, sigma)` falling inside
/// the interval `[lo, hi]`.
pub fn normal_mass(mu: f64, sigma: f64, lo: f64, hi: f64) -> f64 {
    assert!(sigma > 0.0 && hi >= lo);
    normal_cdf((hi - mu) / sigma) - normal_cdf((lo - mu) / sigma)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_gamma_matches_factorials() {
        // Γ(n+1) = n!
        let facts: [(f64, f64); 6] = [
            (1.0, 1.0),
            (2.0, 1.0),
            (3.0, 2.0),
            (4.0, 6.0),
            (5.0, 24.0),
            (11.0, 3_628_800.0),
        ];
        for (x, f) in facts {
            assert!(
                (ln_gamma(x) - f.ln()).abs() < 1e-9,
                "ln_gamma({x}) = {} want {}",
                ln_gamma(x),
                f.ln()
            );
        }
    }

    #[test]
    fn ln_gamma_half_integer() {
        // Γ(1/2) = √π.
        let want = std::f64::consts::PI.sqrt().ln();
        assert!((ln_gamma(0.5) - want).abs() < 1e-9);
    }

    #[test]
    fn poisson_pmf_sums_to_one() {
        for mean in [0.1, 1.0, 5.0, 20.0] {
            let total: f64 = (0..200).map(|k| poisson_ln_pmf(k as f64, mean).exp()).sum();
            assert!((total - 1.0).abs() < 1e-9, "mean {mean}: sum {total}");
        }
    }

    #[test]
    fn poisson_pmf_known_values() {
        // P(K=0 | mean 2) = e^-2.
        assert!((poisson_ln_pmf(0.0, 2.0).exp() - (-2.0f64).exp()).abs() < 1e-12);
        // P(K=3 | mean 3) = 27 e^-3 / 6.
        let want = 27.0 * (-3.0f64).exp() / 6.0;
        assert!((poisson_ln_pmf(3.0, 3.0).exp() - want).abs() < 1e-12);
    }

    #[test]
    fn poisson_zero_mean_is_degenerate() {
        assert_eq!(poisson_ln_pmf(0.0, 0.0), 0.0);
        assert_eq!(poisson_ln_pmf(1.0, 0.0), f64::NEG_INFINITY);
    }

    #[test]
    fn poisson_fractional_k_is_smooth() {
        // The continuous extension should interpolate between the integer
        // values monotonically for k below the mean.
        let mean = 10.0;
        let a = poisson_ln_pmf(4.0, mean);
        let b = poisson_ln_pmf(4.5, mean);
        let c = poisson_ln_pmf(5.0, mean);
        assert!(a < b && b < c, "{a} {b} {c}");
    }

    #[test]
    fn normal_cdf_symmetry_and_landmarks() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!((normal_cdf(1.959_96) - 0.975).abs() < 1e-4);
        assert!((normal_cdf(-1.959_96) - 0.025).abs() < 1e-4);
        for z in [-3.0, -1.0, -0.2, 0.7, 2.5] {
            let s = normal_cdf(z) + normal_cdf(-z);
            assert!((s - 1.0).abs() < 1e-7);
        }
    }

    #[test]
    fn normal_mass_covers_everything() {
        assert!((normal_mass(5.0, 2.0, -1e3, 1e3) - 1.0).abs() < 1e-7);
        // ±1σ contains ≈ 68.27%.
        let m = normal_mass(0.0, 1.0, -1.0, 1.0);
        assert!((m - 0.682_69).abs() < 1e-4, "{m}");
    }

    #[test]
    fn erfc_landmarks() {
        assert!((erfc(0.0) - 1.0).abs() < 1e-7);
        assert!(erfc(3.0) < 1e-4);
        assert!((erfc(-3.0) - 2.0).abs() < 1e-4);
    }
}
