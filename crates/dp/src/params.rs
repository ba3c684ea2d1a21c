//! `(ε, δ)`-probabilistic differential-privacy parameters.
//!
//! Definition 2 of the paper splits the output space into a
//! δ-bounded exceptional part Ω₁ and an ε-bounded part Ω₂. Theorem 1
//! turns both bounds into one *linear* right-hand side per user log:
//!
//! ```text
//! Σ x_ij · ln t_ijk  ≤  min{ ε, ln 1/(1−δ) }  =  B
//! ```
//!
//! because Condition 2 requires `Σ x ln t ≤ ε` and Condition 3 requires
//! `1 − Π (1/t)^x ≤ δ ⇔ Σ x ln t ≤ ln 1/(1−δ)`.

use std::fmt;

/// Validated `(ε, δ)` pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrivacyParams {
    epsilon: f64,
    delta: f64,
}

/// The collapsed per-user-log budget `B = min{ε, ln 1/(1−δ)}`.
///
/// Every privacy constraint of the sanitization is `Σ x ln t ≤ B`, so
/// two parameter pairs with equal `B` induce *identical* optimization
/// problems — the saturation plateaus of Table 4 follow directly.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct PrivacyBudget(f64);

impl PrivacyParams {
    /// Construct from `ε > 0` and `δ ∈ (0, 1)`.
    ///
    /// # Panics
    /// Panics when parameters are out of range or non-finite; privacy
    /// parameters are programmer-provided configuration, not data.
    pub fn new(epsilon: f64, delta: f64) -> Self {
        assert!(epsilon.is_finite() && epsilon > 0.0, "epsilon must be finite and > 0");
        assert!(delta.is_finite() && delta > 0.0 && delta < 1.0, "delta must be in (0, 1)");
        PrivacyParams { epsilon, delta }
    }

    /// Construct from `e^ε` (the paper reports `e^ε` grids) and `δ`.
    pub fn from_e_epsilon(e_epsilon: f64, delta: f64) -> Self {
        assert!(e_epsilon.is_finite() && e_epsilon > 1.0, "e^epsilon must be > 1");
        Self::new(e_epsilon.ln(), delta)
    }

    /// The ε parameter.
    pub fn epsilon(self) -> f64 {
        self.epsilon
    }

    /// `e^ε`.
    pub fn e_epsilon(self) -> f64 {
        self.epsilon.exp()
    }

    /// The δ parameter.
    pub fn delta(self) -> f64 {
        self.delta
    }

    /// `ln 1/(1−δ)`, the Condition-3 side of the budget.
    pub fn delta_log_bound(self) -> f64 {
        // ln(1/(1-δ)) = -ln(1-δ) = -ln_1p(-δ), computed stably.
        -(-self.delta).ln_1p()
    }

    /// The collapsed budget `B = min{ε, ln 1/(1−δ)}` of Equation (4).
    pub fn budget(self) -> PrivacyBudget {
        PrivacyBudget(self.epsilon.min(self.delta_log_bound()))
    }

    /// Which side of the `min` binds: `true` when ε is the binding
    /// (smaller or equal) term. Useful for explaining Table 4 plateaus.
    pub fn epsilon_binds(self) -> bool {
        self.epsilon <= self.delta_log_bound()
    }
}

impl fmt::Display for PrivacyParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(ε={:.6}, δ={:.6})", self.epsilon, self.delta)
    }
}

impl PrivacyBudget {
    /// The budget value `B`.
    pub fn value(self) -> f64 {
        self.0
    }
}

impl fmt::Display for PrivacyBudget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_is_min_of_both_sides() {
        // ε = ln 2 ≈ 0.693; δ = 0.1 -> ln(1/0.9) ≈ 0.105 -> δ binds
        let p = PrivacyParams::from_e_epsilon(2.0, 0.1);
        assert!((p.budget().value() - (1.0f64 / 0.9).ln()).abs() < 1e-12);
        assert!(!p.epsilon_binds());

        // δ = 0.8 -> ln 5 ≈ 1.609 -> ε binds
        let p = PrivacyParams::from_e_epsilon(2.0, 0.8);
        assert!((p.budget().value() - 2.0f64.ln()).abs() < 1e-12);
        assert!(p.epsilon_binds());
    }

    #[test]
    fn equal_budgets_for_saturated_cells() {
        // Table 4 plateau: for e^ε = 1.4 the cells δ = 0.5 and δ = 0.8
        // are both ε-bound and thus identical problems.
        let a = PrivacyParams::from_e_epsilon(1.4, 0.5);
        let b = PrivacyParams::from_e_epsilon(1.4, 0.8);
        assert_eq!(a.budget(), b.budget());
    }

    #[test]
    fn delta_log_bound_is_stable_for_tiny_delta() {
        let p = PrivacyParams::new(1.0, 1e-12);
        // ln(1/(1-δ)) ≈ δ for tiny δ
        assert!((p.delta_log_bound() - 1e-12).abs() < 1e-24);
    }

    #[test]
    fn e_epsilon_roundtrip() {
        let p = PrivacyParams::from_e_epsilon(1.7, 0.2);
        assert!((p.e_epsilon() - 1.7).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "epsilon must be finite and > 0")]
    fn rejects_nonpositive_epsilon() {
        let _ = PrivacyParams::new(0.0, 0.5);
    }

    #[test]
    #[should_panic(expected = "delta must be in (0, 1)")]
    fn rejects_delta_one() {
        let _ = PrivacyParams::new(1.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "e^epsilon must be > 1")]
    fn rejects_e_epsilon_below_one() {
        let _ = PrivacyParams::from_e_epsilon(0.9, 0.5);
    }

    #[test]
    fn display_formats() {
        let p = PrivacyParams::new(0.5, 0.25);
        assert!(p.to_string().contains("ε=0.5"));
        assert!(p.budget().to_string().starts_with("0.28"));
    }
}
