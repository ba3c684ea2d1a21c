//! The three utility-maximizing problems of Section 5.
//!
//! * [`output_size`] — O-UMP: maximize `Σ x_ij` (the optimum is the
//!   maximum achievable output size λ),
//! * [`frequent`] — F-UMP: minimize the sum of support distances of the
//!   frequent pairs at a fixed output size `|O| ∈ (0, λ]`,
//! * [`packing`] — the O-UMP as a packing LP: the certified bound every
//!   O-UMP answer carries, and the dual-guided greedy that answers
//!   every production (anytime) solve,
//! * [`diversity`] — D-UMP: maximize the number of distinct pairs kept
//!   (a packing BIP; NP-hard, solved by the SPE heuristic of
//!   Algorithm 2 and several comparison solvers).
//!
//! All three solve over the same privacy polytope
//! ([`crate::constraints::PrivacyConstraints`]); the paper's Lemmas 1–3
//! rely only on `⌊x*⌋ ≤ x*` keeping the floored counts feasible, which
//! [`floor_counts`] implements and every solver re-verifies.

pub mod diversity;
pub mod frequent;
pub mod output_size;
pub mod packing;

use crate::constraints::PrivacyConstraints;
use crate::error::CoreError;

/// Floor an LP point to integer counts (`⌊x*⌋`), guarding against the
/// solver's representation noise just below integers.
pub fn floor_counts(x: &[f64]) -> Vec<u64> {
    x.iter().map(|&v| if v <= 0.0 { 0 } else { (v + 1e-7).floor() as u64 }).collect()
}

/// Verify floored counts against the constraints, converting numerical
/// surprises into a hard error instead of a privacy leak.
pub fn verify_counts(constraints: &PrivacyConstraints, counts: &[u64]) -> Result<(), CoreError> {
    let x: Vec<f64> = counts.iter().map(|&c| c as f64).collect();
    if constraints.n_pairs() == 0 {
        return Ok(());
    }
    let violation = constraints.max_violation(&x);
    if violation > 1e-6 {
        return Err(CoreError::ConstraintViolation { violation });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floor_handles_noise_and_negatives() {
        let x = [2.9999999999, -0.3, 0.0, 5.2, 0.999999999];
        assert_eq!(floor_counts(&x), vec![3, 0, 0, 5, 1]);
    }

    #[test]
    fn floor_of_exact_integers_is_identity() {
        assert_eq!(floor_counts(&[0.0, 1.0, 7.0]), vec![0, 1, 7]);
    }
}
