//! End-to-end differential privacy of the count computation (§4.2).
//!
//! The multinomial sampling is `(ε, δ)`-probabilistically DP by
//! Theorem 1, but the *computation of the optimal counts* also reads the
//! data. The paper's recipe:
//!
//! 1. bound the leave-one-out sensitivity of every pair's optimal count
//!    by `d`, removing user logs that cause larger swings
//!    ([`bound_sensitivity`]),
//! 2. add `Lap(d/ε′)` to each optimal count ([`noisy_counts`]),
//! 3. since noise can push counts outside the privacy polytope, repair
//!    them before sampling ([`repair_counts`]) — the paper notes noisy
//!    counts only *likely* satisfy the constraints; repairing restores
//!    the guarantee at a small utility cost.

use rand::Rng;

use dpsan_dp::laplace::LaplaceNoise;
use dpsan_dp::params::PrivacyParams;
use dpsan_lp::simplex::SimplexOptions;
use dpsan_searchlog::{PairId, SearchLog, UserId};

use crate::constraints::PrivacyConstraints;
use crate::error::CoreError;
use crate::session::SolveSession;
use crate::ump::output_size::OumpOptions;

/// Remove user logs whose presence moves any pair's O-UMP optimal count
/// by more than `d` (one leave-one-out pass, as in §4.2). Returns the
/// reduced log and the removed users.
///
/// This is `O(#users)` LP solves, all through one session — intended
/// for small logs and for demonstrating the §4.2 procedure, not for the
/// full AOL scale.
pub fn bound_sensitivity(
    log: &SearchLog,
    params: PrivacyParams,
    d: f64,
) -> Result<(SearchLog, Vec<UserId>), CoreError> {
    assert!(d > 0.0, "sensitivity bound must be positive");
    let mut session = SolveSession::new(SimplexOptions::default());
    let opts = OumpOptions::default();
    let base = session.solve_oump(&PrivacyConstraints::build(log, params)?, &opts)?;

    let mut removed = Vec::new();
    for user in log.users_with_logs() {
        // D - A_k: drop all of this user's pairs from the log
        let keep: Vec<bool> = (0..log.n_pairs())
            .map(|pi| {
                let p = PairId::from_index(pi);
                log.holders(p).any(|t| t.user != user) // pair survives if another holder exists
            })
            .collect();
        let (without, mapping) = log.retain_pairs(&keep);
        // the neighbor must itself be preprocessed (pairs may have become
        // single-holder after removing the user's counts) — rebuild
        // without this user's records entirely:
        let without = drop_user(&without, user);
        let (without, _) = dpsan_searchlog::preprocess(&without);
        if without.n_pairs() == 0 {
            continue;
        }
        let neighbor = session.solve_oump(&PrivacyConstraints::build(&without, params)?, &opts)?;
        // compare counts pair-by-pair through the id mappings
        let mut worst = 0.0f64;
        for (pi, (&bc, &mid)) in base.counts.iter().zip(&mapping).enumerate() {
            let a = bc as f64;
            // `mid` only says the pair survived retain_pairs; its target id
            // is stale after drop_user + preprocess, so re-look-up by key
            let b = if mid.is_some() {
                let (q, u) = log.pair_key(PairId::from_index(pi));
                without.pair_id(q, u).map_or(0.0, |np| neighbor.counts[np.index()] as f64)
            } else {
                0.0
            };
            worst = worst.max((a - b).abs());
        }
        if worst > d {
            removed.push(user);
        }
    }

    if removed.is_empty() {
        return Ok((log.clone(), removed));
    }
    let mut result = log.clone();
    for &user in &removed {
        result = drop_user(&result, user);
    }
    let (result, _) = dpsan_searchlog::preprocess(&result);
    Ok((result, removed))
}

/// A copy of `log` without any record of `user`.
fn drop_user(log: &SearchLog, user: UserId) -> SearchLog {
    let mut b = dpsan_searchlog::SearchLogBuilder::with_vocabulary_of(log);
    for r in log.records() {
        if r.user != user {
            b.add_record(r).expect("records are valid");
        }
    }
    b.build()
}

/// Add `Lap(d/ε′)` to each count (§4.2).
pub fn noisy_counts<R: Rng>(rng: &mut R, counts: &[u64], d: f64, epsilon_prime: f64) -> Vec<f64> {
    let noise = LaplaceNoise::for_sensitivity(d, epsilon_prime);
    counts.iter().map(|&c| c as f64 + noise.sample(rng)).collect()
}

/// Repair noisy counts into the privacy polytope: clamp to `≥ 0`,
/// floor, then scale any violated row's pairs down until every
/// constraint holds. Deterministic and always terminates (zero is
/// feasible).
pub fn repair_counts(constraints: &PrivacyConstraints, noisy: &[f64]) -> Vec<u64> {
    let mut counts: Vec<u64> =
        noisy.iter().map(|&v| if v <= 0.0 { 0 } else { v.floor() as u64 }).collect();
    for _ in 0..64 {
        let x: Vec<f64> = counts.iter().map(|&c| c as f64).collect();
        let activity = constraints.row_activity(&x);
        let budget = constraints.budget();
        let mut violated = false;
        for (i, &a) in activity.iter().enumerate() {
            if a > budget + 1e-12 {
                violated = true;
                let scale = budget / a;
                for &(p, _) in constraints.row(i) {
                    counts[p] = (counts[p] as f64 * scale).floor() as u64;
                }
            }
        }
        if !violated {
            return counts;
        }
    }
    // fallback: zero is always private
    vec![0; noisy.len()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpsan_searchlog::{preprocess, SearchLogBuilder};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_log() -> SearchLog {
        let mut b = SearchLogBuilder::new();
        let spec: [(&str, &[(&str, u64)]); 3] = [
            ("q0", &[("u1", 5), ("u2", 5)]),
            ("q1", &[("u2", 2), ("u3", 4)]),
            ("q2", &[("u1", 3), ("u3", 3)]),
        ];
        for (q, holders) in spec {
            for &(user, c) in holders {
                b.add(user, q, &format!("{q}.com"), c).unwrap();
            }
        }
        let (log, _) = preprocess(&b.build());
        log
    }

    fn params() -> PrivacyParams {
        PrivacyParams::from_e_epsilon(2.0, 0.5)
    }

    #[test]
    fn repair_accepts_feasible_counts() {
        let log = small_log();
        let c = PrivacyConstraints::build(&log, params()).unwrap();
        let counts = repair_counts(&c, &[0.7, 0.2, 0.9]);
        assert!(c.satisfied_by(&counts, 1e-9));
        assert_eq!(counts, vec![0, 0, 0], "floors of sub-1 noisy counts");
    }

    #[test]
    fn repair_fixes_violations() {
        let log = small_log();
        let c = PrivacyConstraints::build(&log, params()).unwrap();
        let counts = repair_counts(&c, &[1000.0, 1000.0, 1000.0]);
        assert!(c.satisfied_by(&counts, 1e-9));
    }

    #[test]
    fn repair_clamps_negatives() {
        let log = small_log();
        let c = PrivacyConstraints::build(&log, params()).unwrap();
        let counts = repair_counts(&c, &[-5.0, -0.1, 2.0]);
        assert_eq!(counts[0], 0);
        assert_eq!(counts[1], 0);
        assert!(c.satisfied_by(&counts, 1e-9));
    }

    #[test]
    fn noise_has_requested_scale() {
        let mut rng = StdRng::seed_from_u64(5);
        let counts = vec![100u64; 20_000];
        let noisy = noisy_counts(&mut rng, &counts, 2.0, 1.0);
        let mean = noisy.iter().sum::<f64>() / noisy.len() as f64;
        let var = noisy.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / noisy.len() as f64;
        assert!((mean - 100.0).abs() < 0.2, "mean {mean}");
        // Var = 2 (d/ε)² = 8
        assert!((var - 8.0).abs() < 1.0, "var {var}");
    }

    #[test]
    fn bound_sensitivity_keeps_or_removes() {
        let log = small_log();
        // enormous d: nobody is removed
        let (kept, removed) = bound_sensitivity(&log, params(), 1e6).unwrap();
        assert!(removed.is_empty());
        assert_eq!(kept.n_pairs(), log.n_pairs());

        // minuscule d: users with influence are removed
        let (reduced, removed) = bound_sensitivity(&log, params(), 1e-3).unwrap();
        if !removed.is_empty() {
            assert!(reduced.size() < log.size());
        }
    }
}
