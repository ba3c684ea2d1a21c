//! Property-based integration tests of the privacy guarantees on random
//! tiny logs: the released counts of every objective satisfy Theorem 1,
//! and exhaustive Definition 2 checks pass for every neighbor.

use dpsan::core::mechanism::zealous_plan;
use dpsan::core::theory::{exhaustive_neighbor_check, output_space_size, theorem1_report};
use dpsan::core::ump::diversity::DumpOptions;
use dpsan::core::ump::output_size::OumpOptions;
use dpsan::core::SolveSession;
use dpsan::dp::threshold::{release_probability, tail_margin};
use dpsan::lp::simplex::SimplexOptions;
use dpsan::prelude::*;
use proptest::prelude::*;

fn session() -> SolveSession {
    SolveSession::new(SimplexOptions::default())
}

/// The O-UMP's floored optimal counts, through a fresh default session.
fn oump_counts(log: &SearchLog, params: PrivacyParams) -> Vec<u64> {
    let c = PrivacyConstraints::build(log, params).unwrap();
    session().solve_oump(&c, &OumpOptions::default()).unwrap().counts
}

/// A random preprocessed log: `n_pairs` pairs over `n_users` users,
/// every pair held by 2–3 users with counts 1–4.
fn random_log(n_users: usize, pairs: Vec<(u8, u8, u8, u8)>) -> SearchLog {
    let mut b = SearchLogBuilder::new();
    for (i, &(u1, u2, c1, c2)) in pairs.iter().enumerate() {
        let a = u1 as usize % n_users;
        let mut bidx = u2 as usize % n_users;
        if bidx == a {
            bidx = (bidx + 1) % n_users;
        }
        b.add(&format!("u{a}"), &format!("q{i}"), &format!("q{i}.com"), 1 + (c1 % 4) as u64)
            .unwrap();
        b.add(&format!("u{bidx}"), &format!("q{i}"), &format!("q{i}.com"), 1 + (c2 % 4) as u64)
            .unwrap();
    }
    let (log, _) = preprocess(&b.build());
    log
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn oump_counts_always_satisfy_theorem1(
        pairs in prop::collection::vec((0u8..5, 0u8..5, 0u8..4, 0u8..4), 2..6),
        e_eps in 1.05f64..3.0,
        delta in 0.05f64..0.9,
    ) {
        let log = random_log(5, pairs);
        prop_assume!(log.n_pairs() > 0);
        let params = PrivacyParams::from_e_epsilon(e_eps, delta);
        let counts = oump_counts(&log, params);
        let rep = theorem1_report(&log, &counts, params);
        prop_assert!(rep.ok(), "{rep:?}");
    }

    #[test]
    fn dump_counts_always_satisfy_theorem1(
        pairs in prop::collection::vec((0u8..5, 0u8..5, 0u8..4, 0u8..4), 2..6),
        e_eps in 1.05f64..3.0,
        delta in 0.05f64..0.9,
    ) {
        let log = random_log(5, pairs);
        prop_assume!(log.n_pairs() > 0);
        let params = PrivacyParams::from_e_epsilon(e_eps, delta);
        let c = PrivacyConstraints::build(&log, params).unwrap();
        let sol = session().solve_dump(&c, &DumpOptions::default()).unwrap();
        let rep = theorem1_report(&log, &sol.counts, params);
        prop_assert!(rep.ok(), "{rep:?}");
    }

    #[test]
    fn exhaustive_definition2_holds_for_every_neighbor(
        pairs in prop::collection::vec((0u8..4, 0u8..4, 0u8..3, 0u8..3), 2..4),
        e_eps in 1.2f64..2.5,
        delta in 0.1f64..0.8,
    ) {
        let log = random_log(4, pairs);
        prop_assume!(log.n_pairs() > 0);
        let params = PrivacyParams::from_e_epsilon(e_eps, delta);
        let counts = oump_counts(&log, params);
        prop_assume!(output_space_size(&log, &counts) <= 60_000.0);
        for user in log.users_with_logs() {
            let check = exhaustive_neighbor_check(&log, &counts, user, 80_000);
            prop_assert!(
                check.satisfies(params.epsilon(), params.delta()),
                "user {user}: {check:?} vs (ε={}, δ={})", params.epsilon(), params.delta()
            );
        }
    }

    #[test]
    fn full_pipeline_never_releases_infeasible_counts(
        pairs in prop::collection::vec((0u8..6, 0u8..6, 0u8..4, 0u8..4), 2..7),
        e_eps in 1.05f64..3.0,
        delta in 0.05f64..0.9,
        seed in 0u64..1000,
    ) {
        let log = random_log(6, pairs);
        prop_assume!(log.n_pairs() > 0);
        let params = PrivacyParams::from_e_epsilon(e_eps, delta);
        let release = UmpSanitizer::new(UtilityObjective::OutputSize)
            .sanitize(&log, params, seed)
            .unwrap();
        let c = PrivacyConstraints::build(&release.reference, params).unwrap();
        prop_assert!(c.satisfied_by(&release.counts, 1e-9));
    }

    /// Mechanism-API contract: every `Sanitizer` impl debits its budget
    /// ledger exactly once per release (the base spend; only the
    /// optional UMP Laplace step may add a second entry), at the ε the
    /// release was asked for.
    #[test]
    fn every_mechanism_debits_the_ledger_exactly_once(
        pairs in prop::collection::vec((0u8..6, 0u8..6, 0u8..4, 0u8..4), 2..7),
        e_eps in 1.05f64..3.0,
        delta in 0.05f64..0.9,
        seed in 0u64..1000,
    ) {
        let log = random_log(6, pairs);
        prop_assume!(log.n_pairs() > 0);
        let params = PrivacyParams::from_e_epsilon(e_eps, delta);
        let mechanisms: [Box<dyn Sanitizer>; 3] = [
            Box::new(UmpSanitizer::new(UtilityObjective::OutputSize)),
            Box::new(ZealousSanitizer::new()),
            Box::new(LdpSanitizer::new()),
        ];
        for mech in &mechanisms {
            let release = mech.sanitize(&log, params, seed).unwrap();
            prop_assert_eq!(
                release.ledger.entries().len(), 1,
                "{}: one debit per release", mech.info().id
            );
            prop_assert!(
                (release.ledger.total_epsilon() - params.epsilon()).abs() < 1e-12,
                "{}: debits the requested ε", mech.info().id
            );
        }
    }

    /// ZEALOUS threshold contract on random logs: a pair is released
    /// iff its noisy count clears τ, every decided pair passed the
    /// coarse phase, and the released output contains exactly the
    /// released decisions.
    #[test]
    fn zealous_releases_only_above_noisy_threshold(
        pairs in prop::collection::vec((0u8..6, 0u8..6, 0u8..4, 0u8..4), 2..7),
        e_eps in 1.05f64..3.0,
        delta in 0.05f64..0.9,
        seed in 0u64..1000,
    ) {
        let log = random_log(6, pairs);
        prop_assume!(log.n_pairs() > 0);
        let params = PrivacyParams::from_e_epsilon(e_eps, delta);
        let opts = ZealousOptions::default();
        let plan = zealous_plan(&log, params, seed, &opts);
        let release = ZealousSanitizer::with_options(opts).sanitize(&log, params, seed).unwrap();
        for d in &plan.decisions {
            prop_assert_eq!(d.released, d.noisy_count >= plan.threshold);
            prop_assert!(d.capped_count >= plan.coarse_threshold, "coarse phase filters first");
            prop_assert_eq!(release.counts[d.pair.index()] > 0, d.released);
        }
        let decided: Vec<usize> = plan.decisions.iter().map(|d| d.pair.index()).collect();
        for idx in 0..release.counts.len() {
            if !decided.contains(&idx) {
                prop_assert_eq!(release.counts[idx], 0, "undecided pairs are never released");
            }
        }
    }

    /// The paper's reliability bound, in closed form: a count sitting
    /// `b·ln(1/(2β))` above the release threshold τ is released with
    /// probability at least 1 − β.
    #[test]
    fn zealous_reliability_bound_closed_form(
        cap in 1u64..20,
        epsilon in 0.05f64..3.0,
        tau_prime in 1u64..50,
        delta in 0.001f64..0.49,
        beta in 0.001f64..0.49,
    ) {
        let b = 2.0 * cap as f64 / epsilon;
        let tau = tau_prime as f64 + tail_margin(b, delta);
        let count = tau + tail_margin(b, beta);
        let p = release_probability(count, tau, b);
        prop_assert!(p >= 1.0 - beta - 1e-12, "p = {p} vs 1 - β = {}", 1.0 - beta);
    }
}
