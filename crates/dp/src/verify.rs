//! Checking Definition 2 on concrete output distributions.
//!
//! For tiny inputs the output space of the multinomial sanitizer can be
//! enumerated and its pmf computed in closed form (Eq. 1). This module
//! provides the *generic* half of that validation: given the two output
//! distributions of a mechanism on neighboring inputs `D`, `D′` and a
//! split predicate for the exceptional set Ω₁, it measures
//!
//! * `delta_mass = Pr[R(D) ∈ Ω₁]` (must be ≤ δ), and
//! * `max_log_ratio = max_{O ∈ Ω₂} |ln Pr[R(D)=O] − ln Pr[R(D′)=O]|`
//!   (must be ≤ ε),
//!
//! plus the exact multinomial pmfs used to build the distributions.

use std::collections::HashMap;
use std::hash::Hash;

/// Result of a probabilistic-DP check on explicit distributions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DpCheck {
    /// `Pr[R(D) ∈ Ω₁]`.
    pub delta_mass: f64,
    /// `max_{O ∈ Ω₂} |ln ratio|`; `f64::INFINITY` if some Ω₂ output has
    /// positive probability under exactly one input.
    pub max_log_ratio: f64,
}

impl DpCheck {
    /// Whether the check certifies `(ε, δ)`-probabilistic DP (with a
    /// small numerical slack).
    pub fn satisfies(&self, epsilon: f64, delta: f64) -> bool {
        self.delta_mass <= delta + 1e-9 && self.max_log_ratio <= epsilon + 1e-9
    }
}

/// Verify Definition 2 given both output distributions and the Ω₁
/// predicate. Outputs missing from a map are treated as probability 0.
pub fn check_probabilistic_dp<O, F>(
    dist_d: &HashMap<O, f64>,
    dist_d_prime: &HashMap<O, f64>,
    mut in_omega1: F,
) -> DpCheck
where
    O: Eq + Hash + Clone,
    F: FnMut(&O) -> bool,
{
    let mut delta_mass = 0.0;
    let mut max_log_ratio: f64 = 0.0;

    let mut keys: Vec<&O> = dist_d.keys().collect();
    for k in dist_d_prime.keys() {
        if !dist_d.contains_key(k) {
            keys.push(k);
        }
    }

    for o in keys {
        let p = dist_d.get(o).copied().unwrap_or(0.0);
        let q = dist_d_prime.get(o).copied().unwrap_or(0.0);
        if in_omega1(o) {
            delta_mass += p;
            continue;
        }
        match (p > 0.0, q > 0.0) {
            (true, true) => {
                let r = (p.ln() - q.ln()).abs();
                max_log_ratio = max_log_ratio.max(r);
            }
            (false, false) => {}
            // An Ω₂ output reachable from one input only: the ratio is
            // unbounded and ε-DP fails outright on this split.
            _ => max_log_ratio = f64::INFINITY,
        }
    }

    DpCheck { delta_mass, max_log_ratio }
}

/// Check Proposition 1 (indistinguishability DP): for every event
/// `Ô ⊆ Ω` formed from the union of single outputs... exactness over all
/// 2^|Ω| events is infeasible, but the worst event for
/// `Pr[R(D) ∈ Ô] ≤ e^ε Pr[R(D′) ∈ Ô] + δ` is the set of outputs where
/// `p > e^ε q`, so it suffices to sum the excess mass.
pub fn check_indistinguishability<O>(
    dist_d: &HashMap<O, f64>,
    dist_d_prime: &HashMap<O, f64>,
    epsilon: f64,
) -> f64
where
    O: Eq + Hash + Clone,
{
    let mut excess = 0.0;
    let e_eps = epsilon.exp();
    let mut keys: Vec<&O> = dist_d.keys().collect();
    for k in dist_d_prime.keys() {
        if !dist_d.contains_key(k) {
            keys.push(k);
        }
    }
    for o in keys {
        let p = dist_d.get(o).copied().unwrap_or(0.0);
        let q = dist_d_prime.get(o).copied().unwrap_or(0.0);
        excess += (p - e_eps * q).max(0.0);
    }
    excess
}

/// `ln n!` computed by direct summation (exact enough for the tiny
/// trial counts used in verification).
pub fn ln_factorial(n: u64) -> f64 {
    (2..=n).map(|k| (k as f64).ln()).sum()
}

/// Exact multinomial pmf: probability of the count vector `counts` after
/// `Σ counts` trials with category probabilities `weights / Σ weights`.
///
/// Categories with zero weight must have zero count (else the pmf is 0).
pub fn multinomial_pmf(weights: &[u64], counts: &[u64]) -> f64 {
    assert_eq!(weights.len(), counts.len(), "weights/counts length mismatch");
    let total_w: u64 = weights.iter().sum();
    assert!(total_w > 0, "weights must not sum to zero");
    let n: u64 = counts.iter().sum();
    let mut ln_p = ln_factorial(n);
    for (&w, &c) in weights.iter().zip(counts) {
        if w == 0 {
            if c > 0 {
                return 0.0;
            }
            continue;
        }
        ln_p += c as f64 * ((w as f64 / total_w as f64).ln());
        ln_p -= ln_factorial(c);
    }
    ln_p.exp()
}

/// Enumerate all count vectors of length `k` summing to `trials`
/// (the full output space of one pair's multinomial sampling).
pub fn enumerate_compositions(trials: u64, k: usize) -> Vec<Vec<u64>> {
    assert!(k > 0, "need at least one category");
    let mut out = Vec::new();
    let mut current = vec![0u64; k];
    fn rec(remaining: u64, idx: usize, current: &mut Vec<u64>, out: &mut Vec<Vec<u64>>) {
        if idx == current.len() - 1 {
            current[idx] = remaining;
            out.push(current.clone());
            return;
        }
        for v in 0..=remaining {
            current[idx] = v;
            rec(remaining - v, idx + 1, current, out);
        }
    }
    rec(trials, 0, &mut current, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_factorial_small_values() {
        assert_eq!(ln_factorial(0), 0.0);
        assert_eq!(ln_factorial(1), 0.0);
        assert!((ln_factorial(5) - 120f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn multinomial_pmf_sums_to_one() {
        let weights = [2u64, 3, 5];
        for trials in 0..5u64 {
            let total: f64 = enumerate_compositions(trials, 3)
                .iter()
                .map(|c| multinomial_pmf(&weights, c))
                .sum();
            assert!((total - 1.0).abs() < 1e-12, "trials {trials}: total {total}");
        }
    }

    #[test]
    fn multinomial_pmf_binomial_case() {
        // n = 2, p = 0.5: P(1,1) = 0.5
        assert!((multinomial_pmf(&[1, 1], &[1, 1]) - 0.5).abs() < 1e-12);
        // P(2,0) = 0.25
        assert!((multinomial_pmf(&[1, 1], &[2, 0]) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn zero_weight_category_forces_zero_count() {
        assert_eq!(multinomial_pmf(&[1, 0], &[0, 1]), 0.0);
        assert!((multinomial_pmf(&[1, 0], &[3, 0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn enumerate_compositions_counts() {
        // C(trials + k - 1, k - 1) compositions
        assert_eq!(enumerate_compositions(3, 2).len(), 4);
        assert_eq!(enumerate_compositions(2, 3).len(), 6);
        for c in enumerate_compositions(4, 3) {
            assert_eq!(c.iter().sum::<u64>(), 4);
        }
    }

    #[test]
    fn check_flags_unbounded_ratio() {
        let mut d: HashMap<u8, f64> = HashMap::new();
        d.insert(0, 0.5);
        d.insert(1, 0.5);
        let mut dp: HashMap<u8, f64> = HashMap::new();
        dp.insert(0, 1.0);
        // output 1 reachable only from D and not exceptional -> infinite
        let check = check_probabilistic_dp(&d, &dp, |_| false);
        assert!(check.max_log_ratio.is_infinite());
        // but if output 1 is in Ω₁ the mechanism is (0, 0.5)-probabilistic DP
        let check = check_probabilistic_dp(&d, &dp, |&o| o == 1);
        assert!((check.delta_mass - 0.5).abs() < 1e-12);
        assert!((check.max_log_ratio - (0.5f64.ln() - 1.0f64.ln()).abs()).abs() < 1e-12);
        assert!(check.satisfies(0.7, 0.5));
        assert!(!check.satisfies(0.6, 0.5));
    }

    #[test]
    fn indistinguishability_excess_zero_when_identical() {
        let mut d: HashMap<u8, f64> = HashMap::new();
        d.insert(0, 0.3);
        d.insert(1, 0.7);
        assert_eq!(check_indistinguishability(&d, &d, 0.0), 0.0);
    }

    #[test]
    fn indistinguishability_excess_positive_when_violated() {
        let mut d: HashMap<u8, f64> = HashMap::new();
        d.insert(0, 1.0);
        let mut dp: HashMap<u8, f64> = HashMap::new();
        dp.insert(1, 1.0);
        // with ε = 0 the worst event Ô = {0} has excess 1
        assert!((check_indistinguishability(&d, &dp, 0.0) - 1.0).abs() < 1e-12);
    }
}
