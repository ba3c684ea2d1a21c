//! Auditing the privacy guarantee on a tiny log.
//!
//! For small inputs everything in the paper's Section 4 can be computed
//! *exactly*: the per-user Theorem 1 conditions, the Eq. 2 probability
//! of sampling a user, an exhaustive enumeration of the output space
//! checking Definition 2 against every neighbor, and the Proposition 1
//! (indistinguishability) excess. This example runs the full audit.
//!
//! ```sh
//! cargo run --release --example privacy_audit
//! ```

use dpsan::core::theory::{
    exhaustive_neighbor_check, indistinguishability_excess, output_space_size, pr_user_sampled,
    theorem1_report,
};
use dpsan::core::ump::output_size::OumpOptions;
use dpsan::core::SolveSession;
use dpsan::lp::simplex::SimplexOptions;
use dpsan::prelude::*;

fn main() {
    // a deliberately tiny log so the output space stays enumerable;
    // each pair is spread over four holders so small positive counts
    // are feasible and the audit exercises non-trivial distributions
    let mut b = SearchLogBuilder::new();
    for user in ["alice", "bob", "carol", "dave"] {
        b.add(user, "q0", "q0.com", 2).unwrap();
    }
    for user in ["alice", "bob", "carol"] {
        b.add(user, "q1", "q1.com", 1).unwrap();
    }
    let (log, _) = preprocess(&b.build());

    let params = PrivacyParams::from_e_epsilon(3.0, 0.8);
    let constraints = PrivacyConstraints::build(&log, params).expect("preprocessed log");
    let sol = SolveSession::new(SimplexOptions::default())
        .solve_oump(&constraints, &OumpOptions::default())
        .expect("solvable");
    println!("optimal counts: {:?} (λ = {})", sol.counts, sol.lambda);

    // Theorem 1, evaluated exactly
    let rep = theorem1_report(&log, &sol.counts, params);
    println!("\nTheorem 1 at the released counts:");
    println!("  condition 1 (no unique pairs kept):  {}", rep.condition1_ok);
    println!(
        "  condition 2 (worst Σ x·ln t = {:.4} ≤ ε = {:.4}):  {}",
        rep.worst_log_ratio,
        params.epsilon(),
        rep.condition2_ok
    );
    println!(
        "  condition 3 (worst Pr[user sampled] = {:.4} ≤ δ = {}):  {}",
        rep.worst_delta_mass,
        params.delta(),
        rep.condition3_ok
    );

    // exhaustive Definition 2 check against every neighbor D' = D - A_k
    println!(
        "\nexhaustive neighbor checks (output space: {} outputs):",
        output_space_size(&log, &sol.counts)
    );
    for user in log.users_with_logs() {
        let name = log.users().resolve(user.0);
        let eq2 = pr_user_sampled(&log, &sol.counts, user);
        let check = exhaustive_neighbor_check(&log, &sol.counts, user, 1_000_000);
        let prop1 =
            indistinguishability_excess(&log, &sol.counts, user, params.epsilon(), 1_000_000);
        println!(
            "  vs D - A_{name}: Pr[{name} sampled] = {:.4} (Eq.2 {:.4}), \
             worst Ω₂ |ln ratio| = {:.4}, Prop.1 excess = {:.6}",
            check.delta_mass, eq2, check.max_log_ratio, prop1
        );
        assert!(check.satisfies(params.epsilon(), params.delta()));
        assert!(prop1 <= params.delta() + 1e-9);
    }
    println!("\nall neighbors satisfy (ε, δ)-probabilistic differential privacy ✓");
}
