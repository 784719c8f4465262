//! Numerically stable scalar math used throughout inference.
//!
//! All vote counting happens in log-odds space (Eqs. 10–15) and all value
//! posteriors are normalized with log-sum-exp (Eq. 21/25), so extreme
//! parameter values cannot overflow or collapse to NaN.

/// Logistic sigmoid `σ(x) = 1 / (1 + e^{-x})`, stable for large `|x|`.
#[inline]
pub fn sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        let e = (-x).exp();
        1.0 / (1.0 + e)
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Log-odds `logit(p) = ln(p / (1 - p))` with clamping away from {0, 1}.
#[inline]
pub fn logit(p: f64) -> f64 {
    let p = clamp_prob(p);
    (p / (1.0 - p)).ln()
}

/// Clamp a probability into the open interval `(ε, 1-ε)` so logs and odds
/// stay finite. ε = 1e-9.
#[inline]
fn clamp_prob(p: f64) -> f64 {
    p.clamp(1e-9, 1.0 - 1e-9)
}

/// Clamp an estimated quality parameter into `[0.001, 0.999]`.
///
/// Source accuracies and extractor precision/recall enter vote counts only
/// through `ln` ratios; this clamp bounds any single vote's magnitude (the
/// same role as the default-quality floor in the paper's implementation).
#[inline]
pub fn clamp_quality(p: f64) -> f64 {
    p.clamp(0.001, 0.999)
}

/// `ln(Σ_i e^{x_i})` over `xs` plus `extra_count` additional terms of
/// `e^0 = 1`, computed stably.
///
/// The `extra_count` models the unobserved domain values of Eq. 21: every
/// value nobody provides has vote count 0, i.e. contributes `exp(0)` to the
/// normalizer (see Example 3.2 where `Z = e^{10.8} + e^{5.4} + 9·e^0`).
pub fn log_sum_exp_with_zeros(xs: &[f64], extra_count: usize) -> f64 {
    let mut m = if extra_count > 0 {
        0.0
    } else {
        f64::NEG_INFINITY
    };
    for &x in xs {
        if x > m {
            m = x;
        }
    }
    if m == f64::NEG_INFINITY {
        return f64::NEG_INFINITY;
    }
    let mut sum = 0.0;
    for &x in xs {
        sum += (x - m).exp();
    }
    sum += extra_count as f64 * (-m).exp();
    m + sum.ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigmoid_matches_reference_values() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
        assert!((sigmoid(11.7) - 0.99999).abs() < 1e-4);
        assert!((sigmoid(-9.4) - 8.26e-5).abs() < 1e-5);
        // Example 3.1 of the paper: σ(11.7) ≈ 1, σ(-9.4) ≈ 0.
        assert!(sigmoid(11.7) > 0.999);
        assert!(sigmoid(-9.4) < 0.001);
    }

    #[test]
    fn sigmoid_is_stable_at_extremes() {
        assert_eq!(sigmoid(1e9), 1.0);
        assert_eq!(sigmoid(-1e9), 0.0);
        assert!(sigmoid(f64::MAX).is_finite());
        assert!(sigmoid(f64::MIN).is_finite());
    }

    #[test]
    fn logit_inverts_sigmoid() {
        for &p in &[0.01, 0.25, 0.5, 0.75, 0.99] {
            assert!((sigmoid(logit(p)) - p).abs() < 1e-9, "p={p}");
        }
    }

    #[test]
    fn logit_is_finite_at_bounds() {
        assert!(logit(0.0).is_finite());
        assert!(logit(1.0).is_finite());
        assert!(logit(0.0) < -10.0);
        assert!(logit(1.0) > 10.0);
    }

    #[test]
    fn lse_reproduces_example_3_2_normalizer() {
        // Z = e^{10.8} + e^{5.4} + 9 e^0; p(USA) = e^{10.8} / Z ≈ 0.995.
        let z = log_sum_exp_with_zeros(&[10.8, 5.4], 9);
        let p_usa = (10.8 - z).exp();
        let p_kenya = (5.4 - z).exp();
        assert!((p_usa - 0.995).abs() < 5e-4, "p_usa={p_usa}");
        assert!((p_kenya - 0.004).abs() < 5e-4, "p_kenya={p_kenya}");
    }

    #[test]
    fn lse_handles_large_and_empty_inputs() {
        let z = log_sum_exp_with_zeros(&[1000.0, 999.0], 5);
        assert!(z.is_finite() && z > 1000.0);
        assert_eq!(log_sum_exp_with_zeros(&[], 0), f64::NEG_INFINITY);
        // Only zeros: ln(k).
        assert!((log_sum_exp_with_zeros(&[], 9) - 9f64.ln()).abs() < 1e-12);
    }
}
