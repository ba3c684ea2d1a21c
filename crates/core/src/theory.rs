//! Closed-form verification of the privacy analysis (Section 4).
//!
//! For tiny logs, everything in the paper's proofs can be computed
//! exactly:
//!
//! * Eq. 2 — `Pr[R(D) ∈ Ω₁] = 1 − Π (1 − c_ijk/c_ij)^{x_ij}` per user,
//! * Eq. 3 — the worst-case ratio `Π t_ijk^{x_ij}` per user,
//! * the full joint output distribution of the multinomial sampler
//!   (Eq. 1 factorizes over pairs), enabling an *exhaustive* check of
//!   Definition 2 against any neighbor `D′ = D − A_k` and of
//!   Proposition 1 (probabilistic ⇒ indistinguishability DP).

use std::collections::HashMap;

use dpsan_dp::params::PrivacyParams;
use dpsan_dp::verify::{enumerate_compositions, multinomial_pmf, DpCheck};
use dpsan_searchlog::{PairId, SearchLog, UserId};

/// Exact per-user evaluation of the Theorem 1 conditions at integer
/// counts.
#[derive(Debug, Clone)]
pub struct Theorem1Report {
    /// Condition 1: no pair held entirely by one user has a positive
    /// count.
    pub condition1_ok: bool,
    /// `max_k Σ_{A_k} x ln t` — must be ≤ ε (Condition 2).
    pub worst_log_ratio: f64,
    /// `max_k (1 − Π (1 − c_ijk/c_ij)^{x_ij})` — must be ≤ δ
    /// (Condition 3, via Eq. 2).
    pub worst_delta_mass: f64,
    /// Whether Condition 2 holds at the given ε.
    pub condition2_ok: bool,
    /// Whether Condition 3 holds at the given δ.
    pub condition3_ok: bool,
}

impl Theorem1Report {
    /// All three conditions hold.
    pub fn ok(&self) -> bool {
        self.condition1_ok && self.condition2_ok && self.condition3_ok
    }
}

/// Evaluate Theorem 1 exactly at integer counts.
pub fn theorem1_report(log: &SearchLog, counts: &[u64], params: PrivacyParams) -> Theorem1Report {
    assert_eq!(counts.len(), log.n_pairs(), "one count per pair");
    let mut condition1_ok = true;
    for (pi, &c) in counts.iter().enumerate() {
        if c > 0 && log.n_holders(PairId::from_index(pi)) < 2 {
            condition1_ok = false;
        }
    }

    let mut worst_log_ratio = 0.0f64;
    let mut worst_delta_mass = 0.0f64;
    for user in log.users_with_logs() {
        let mut log_ratio = 0.0;
        let mut ln_survive = 0.0;
        for e in log.user_log(user) {
            let c = log.pair_total(e.pair) as f64;
            let ck = e.count as f64;
            let x = counts[e.pair.index()] as f64;
            log_ratio += x * (c / (c - ck)).ln();
            ln_survive += x * ((c - ck) / c).ln();
        }
        worst_log_ratio = worst_log_ratio.max(log_ratio);
        worst_delta_mass = worst_delta_mass.max(1.0 - ln_survive.exp());
    }

    Theorem1Report {
        condition1_ok,
        worst_log_ratio,
        worst_delta_mass,
        condition2_ok: worst_log_ratio <= params.epsilon() + 1e-9,
        condition3_ok: worst_delta_mass <= params.delta() + 1e-9,
    }
}

/// `Pr[R(D) ∈ Ω₁]` for the neighbor differing in `user` (Eq. 2): the
/// probability that `user` is sampled at least once.
pub fn pr_user_sampled(log: &SearchLog, counts: &[u64], user: UserId) -> f64 {
    let mut ln_survive = 0.0;
    for e in log.user_log(user) {
        let c = log.pair_total(e.pair) as f64;
        let ck = e.count as f64;
        ln_survive += counts[e.pair.index()] as f64 * ((c - ck) / c).ln();
    }
    1.0 - ln_survive.exp()
}

/// An output of the sampler as a flat triplet-count vector (one slot per
/// `(pair, holder)` of the input log), hashable for distribution maps.
pub type OutputKey = Vec<u64>;

/// Number of outputs the exhaustive enumeration would produce
/// (`Π_p C(x_p + h_p − 1, h_p − 1)`); used to guard the cross-product.
pub fn output_space_size(log: &SearchLog, counts: &[u64]) -> f64 {
    let mut total = 1.0f64;
    for (pi, &x) in counts.iter().enumerate() {
        let h = log.n_holders(PairId::from_index(pi)) as u64;
        // C(x + h - 1, h - 1)
        let mut ways = 1.0f64;
        for i in 0..h - 1 {
            ways *= (x + i + 1) as f64 / (i + 1) as f64;
        }
        total *= ways;
    }
    total
}

/// The exact joint output distribution of the sampler run on `log` with
/// the given per-pair trial counts, where each holder's weight comes
/// from `weight_of(pair, user)`. Panics if the output space exceeds
/// `max_outputs`.
fn joint_distribution(
    log: &SearchLog,
    counts: &[u64],
    max_outputs: usize,
    mut weight_of: impl FnMut(PairId, UserId) -> u64,
) -> HashMap<OutputKey, f64> {
    let mut dist: HashMap<OutputKey, f64> = HashMap::new();
    dist.insert(Vec::new(), 1.0);
    for (pi, &cnt) in counts.iter().enumerate() {
        let p = PairId::from_index(pi);
        let holders: Vec<UserId> = log.holders(p).map(|t| t.user).collect();
        let weights: Vec<u64> = holders.iter().map(|&u| weight_of(p, u)).collect();
        let mut next: HashMap<OutputKey, f64> = HashMap::new();
        for comp in enumerate_compositions(cnt, holders.len()) {
            let pr = multinomial_pmf(&weights, &comp);
            if pr == 0.0 {
                continue;
            }
            for (key, &base) in &dist {
                let mut k = key.clone();
                k.extend_from_slice(&comp);
                next.insert(k, base * pr);
            }
            assert!(next.len() <= max_outputs, "output space too large to enumerate");
        }
        dist = next;
    }
    dist
}

/// Exhaustively check Definition 2 for the neighbor pair
/// `(D, D′ = D − A_user)`: builds both output distributions, splits Ω
/// into Ω₁ = {outputs sampling `user`} and Ω₂, and measures the δ mass
/// and the worst Ω₂ log-ratio. Only for tiny logs
/// (`output_space_size ≤ max_outputs`).
pub fn exhaustive_neighbor_check(
    log: &SearchLog,
    counts: &[u64],
    user: UserId,
    max_outputs: usize,
) -> DpCheck {
    assert!(
        output_space_size(log, counts) <= max_outputs as f64,
        "output space too large; shrink the log or the counts"
    );
    // slot layout: per pair, holders in order; remember which slots
    // belong to `user`
    let mut user_slots = Vec::new();
    let mut slot = 0usize;
    for pi in 0..log.n_pairs() {
        for t in log.holders(PairId::from_index(pi)) {
            if t.user == user {
                user_slots.push(slot);
            }
            slot += 1;
        }
    }

    let dist_d = joint_distribution(log, counts, max_outputs, |p, u| log.triplet_count(p, u));
    // D′ removes the user's log: their weight is 0 everywhere
    let dist_d_prime = joint_distribution(log, counts, max_outputs, |p, u| {
        if u == user {
            0
        } else {
            log.triplet_count(p, u)
        }
    });

    dpsan_dp::verify::check_probabilistic_dp(&dist_d, &dist_d_prime, |o: &OutputKey| {
        user_slots.iter().any(|&s| o[s] > 0)
    })
}

/// The Proposition 1 excess for the same neighbor pair: worst-event
/// violation of `Pr[R(D) ∈ Ô] ≤ e^ε Pr[R(D′) ∈ Ô] + δ` (must be ≤ δ
/// whenever the probabilistic check passes at `(ε, δ)`).
pub fn indistinguishability_excess(
    log: &SearchLog,
    counts: &[u64],
    user: UserId,
    epsilon: f64,
    max_outputs: usize,
) -> f64 {
    let dist_d = joint_distribution(log, counts, max_outputs, |p, u| log.triplet_count(p, u));
    let dist_d_prime = joint_distribution(log, counts, max_outputs, |p, u| {
        if u == user {
            0
        } else {
            log.triplet_count(p, u)
        }
    });
    let a = dpsan_dp::verify::check_indistinguishability(&dist_d, &dist_d_prime, epsilon);
    let b = dpsan_dp::verify::check_indistinguishability(&dist_d_prime, &dist_d, epsilon);
    a.max(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraints::PrivacyConstraints;
    use crate::session::SolveSession;
    use crate::ump::output_size::{OumpOptions, OumpSolution};
    use dpsan_lp::simplex::SimplexOptions;
    use dpsan_searchlog::{preprocess, SearchLogBuilder};

    /// The O-UMP optimum at [`params`] through a fresh default session.
    fn solve_oump(log: &SearchLog) -> OumpSolution {
        let c = PrivacyConstraints::build(log, params()).unwrap();
        SolveSession::new(SimplexOptions::default())
            .solve_oump(&c, &OumpOptions::default())
            .unwrap()
    }

    /// Tiny log: 2 pairs, few holders, so the output space is small.
    fn tiny_log() -> SearchLog {
        let mut b = SearchLogBuilder::new();
        b.add("u1", "q0", "q0.com", 3).unwrap();
        b.add("u2", "q0", "q0.com", 2).unwrap();
        b.add("u2", "q1", "q1.com", 1).unwrap();
        b.add("u3", "q1", "q1.com", 2).unwrap();
        let (log, _) = preprocess(&b.build());
        log
    }

    fn params() -> PrivacyParams {
        PrivacyParams::from_e_epsilon(2.0, 0.5)
    }

    #[test]
    fn theorem1_holds_at_oump_optimum() {
        let log = tiny_log();
        let s = solve_oump(&log);
        let rep = theorem1_report(&log, &s.counts, params());
        assert!(rep.ok(), "{rep:?}");
        assert!(rep.worst_log_ratio <= params().epsilon() + 1e-9);
        assert!(rep.worst_delta_mass <= params().delta() + 1e-9);
    }

    #[test]
    fn theorem1_detects_violations() {
        let log = tiny_log();
        let rep = theorem1_report(&log, &[50, 50], params());
        assert!(!rep.condition2_ok || !rep.condition3_ok);
    }

    #[test]
    fn eq2_matches_monte_carlo() {
        use dpsan_dp::multinomial::{sample_multinomial, MultinomialStrategy};
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let log = tiny_log();
        let counts = vec![2u64, 1];
        let u2 = UserId(log.users().get("u2").unwrap());
        let exact = pr_user_sampled(&log, &counts, u2);

        // Monte Carlo: sample both pairs and check if u2 appears
        let mut rng = StdRng::seed_from_u64(11);
        let runs = 200_000;
        let mut hits = 0usize;
        for _ in 0..runs {
            let mut sampled = false;
            for (pi, &cnt) in counts.iter().enumerate() {
                let p = PairId::from_index(pi);
                let holders: Vec<_> = log.holders(p).collect();
                let weights: Vec<u64> = holders.iter().map(|t| t.count).collect();
                let out = sample_multinomial(&mut rng, &weights, cnt, MultinomialStrategy::Auto);
                for (h, &x) in holders.iter().zip(&out) {
                    if h.user == u2 && x > 0 {
                        sampled = true;
                    }
                }
            }
            hits += usize::from(sampled);
        }
        let mc = hits as f64 / runs as f64;
        assert!((mc - exact).abs() < 0.005, "MC {mc} vs exact {exact}");
    }

    #[test]
    fn exhaustive_check_certifies_theorem1_bounds() {
        let log = tiny_log();
        let s = solve_oump(&log);
        let rep = theorem1_report(&log, &s.counts, params());
        for user in log.users_with_logs() {
            let check = exhaustive_neighbor_check(&log, &s.counts, user, 500_000);
            // the enumerated δ mass equals Eq. 2 exactly
            let eq2 = pr_user_sampled(&log, &s.counts, user);
            assert!((check.delta_mass - eq2).abs() < 1e-9, "{} vs {}", check.delta_mass, eq2);
            // the worst Ω₂ ratio is within the Theorem 1 bound
            assert!(
                check.max_log_ratio <= rep.worst_log_ratio + 1e-9,
                "ratio {} exceeds bound {}",
                check.max_log_ratio,
                rep.worst_log_ratio
            );
            assert!(check.satisfies(params().epsilon(), params().delta()));
        }
    }

    #[test]
    fn proposition1_implied_by_probabilistic_dp() {
        let log = tiny_log();
        let s = solve_oump(&log);
        for user in log.users_with_logs() {
            let excess =
                indistinguishability_excess(&log, &s.counts, user, params().epsilon(), 500_000);
            assert!(
                excess <= params().delta() + 1e-9,
                "Proposition 1 violated: excess {excess} > δ"
            );
        }
    }

    #[test]
    fn constraints_and_theorem1_agree() {
        // the linearized constraint system and the exact product form
        // must agree on feasibility at integer points
        let log = tiny_log();
        let c = PrivacyConstraints::build(&log, params()).unwrap();
        for counts in [[0u64, 0], [1, 0], [0, 1], [1, 1], [2, 1], [3, 2], [10, 10]] {
            let lin = c.satisfied_by(&counts, 1e-9);
            let rep = theorem1_report(&log, &counts, params());
            // budget = min(ε, ln 1/(1−δ)): linear feasibility ⇔ both
            // exact conditions (they are the same inequality in logs)
            assert_eq!(lin, rep.condition2_ok && rep.condition3_ok, "at {counts:?}");
        }
    }

    #[test]
    fn output_space_size_formula() {
        let log = tiny_log();
        // pair q0: 2 holders, x=2 -> C(3,1)=3; q1: 2 holders, x=1 -> 2
        assert_eq!(output_space_size(&log, &[2, 1]), 6.0);
    }

    #[test]
    #[should_panic(expected = "output space too large")]
    fn exhaustive_check_guards_explosion() {
        let log = tiny_log();
        let user = log.users_with_logs().next().unwrap();
        let _ = exhaustive_neighbor_check(&log, &[1_000_000, 1_000_000], user, 1000);
    }
}
