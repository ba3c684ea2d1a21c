//! Retraction steps through one solve session: when a sliding window
//! drops old rows, per-pair counts *decrease* between consecutive O-UMP
//! solves — variable caps shrink below the previous optimum and every
//! touched `ln t_ijk` coefficient drifts.
//!
//! The growth direction (appended counts) is exercised by the serve
//! suite; these tests pin the *decrease* direction: every session
//! solve after a retraction must agree exactly — same λ, same floored
//! counts — with a solve of the same constraint system through a fresh
//! session, so a session's answers never depend on the solves before
//! them.

use dpsan_core::session::SolveSession;
use dpsan_core::ump::output_size::{OumpOptions, OumpSolution};
use dpsan_core::PrivacyConstraints;
use dpsan_dp::params::PrivacyParams;
use dpsan_lp::simplex::SimplexOptions;
use dpsan_searchlog::{preprocess, SearchLog, SearchLogBuilder};
use proptest::prelude::*;

const USERS: [&str; 3] = ["u1", "u2", "u3"];
const PAIRS: [(&str, &str); 3] =
    [("google", "google.com"), ("book", "amazon.com"), ("news", "bbc.com")];

/// Build a preprocessed log from a `users × pairs` count matrix
/// (zeros are skipped — that user simply holds nothing of the pair).
fn window(counts: &[[u64; 3]; 3]) -> SearchLog {
    let mut b = SearchLogBuilder::new();
    for (u, row) in USERS.iter().zip(counts) {
        for ((q, url), &c) in PAIRS.iter().zip(row) {
            if c > 0 {
                b.add(u, q, url, c).unwrap();
            }
        }
    }
    let (log, _) = preprocess(&b.build());
    log
}

fn params() -> PrivacyParams {
    PrivacyParams::from_e_epsilon(2.0, 0.5)
}

/// A cold solve: the same constraints through a fresh session.
fn solve_cold(constraints: &PrivacyConstraints, opts: &OumpOptions) -> OumpSolution {
    SolveSession::new(SimplexOptions::default()).solve_oump(constraints, opts).unwrap()
}

/// Session solve vs cold solve of the same constraints: λ and the
/// floored counts must agree exactly (the serve layer's byte-identity
/// guarantee rests on this).
fn assert_matches_cold(
    session: &mut SolveSession,
    log: &SearchLog,
    opts: &OumpOptions,
    step: usize,
) {
    let constraints = PrivacyConstraints::build(log, params()).unwrap();
    let swept = session.solve_oump(&constraints, opts).unwrap();
    let cold = solve_cold(&constraints, opts);
    assert_eq!(swept.lambda, cold.lambda, "step {step}: λ diverged from cold solve");
    assert_eq!(swept.counts, cold.counts, "step {step}: counts diverged from cold solve");
    assert!(
        (swept.lp_value - cold.lp_value).abs() <= 1e-7,
        "step {step}: LP optimum diverged: session {} vs cold {}",
        swept.lp_value,
        cold.lp_value,
    );
}

#[test]
fn sliding_window_retraction_matches_cold_solves() {
    // grow, grow, retract hard, retract again: the two retractions
    // shrink every cap below the previous optimum's basic values
    let steps: [[[u64; 3]; 3]; 4] = [
        [[15, 3, 0], [7, 0, 5], [17, 1, 4]],
        [[20, 5, 2], [9, 1, 6], [18, 2, 7]],
        [[8, 2, 1], [4, 1, 3], [6, 1, 2]],
        [[3, 1, 0], [2, 1, 1], [2, 1, 1]],
    ];
    let opts = OumpOptions::default();
    let mut session = SolveSession::new(SimplexOptions::default());
    for (step, counts) in steps.iter().enumerate() {
        assert_matches_cold(&mut session, &window(counts), &opts, step);
    }
    assert_eq!(session.stats().solves, 4);
}

#[test]
fn retraction_to_minimum_support_still_solves() {
    // shrink all the way down to the smallest preprocessable window
    // (every pair at two holders with one unit each): caps collapse
    // from double digits to 2, the previous vertex is far outside
    let opts = OumpOptions::default();
    let mut session = SolveSession::new(SimplexOptions::default());
    let fat: [[u64; 3]; 3] = [[30, 10, 9], [25, 8, 7], [28, 9, 8]];
    let thin: [[u64; 3]; 3] = [[1, 1, 1], [1, 1, 1], [0, 0, 0]];
    assert_matches_cold(&mut session, &window(&fat), &opts, 0);
    assert_matches_cold(&mut session, &window(&thin), &opts, 1);
}

#[test]
fn alternating_growth_and_retraction_keeps_the_session_sound() {
    // a sawtooth window: the session must stay correct when shrinking
    // caps (retraction) and growing counts alternate
    let opts = OumpOptions::default();
    let mut session = SolveSession::new(SimplexOptions::default());
    let lo: [[u64; 3]; 3] = [[4, 2, 1], [3, 1, 2], [5, 2, 2]];
    let hi: [[u64; 3]; 3] = [[19, 6, 4], [12, 5, 7], [21, 8, 6]];
    for step in 0..6 {
        let counts = if step % 2 == 0 { &hi } else { &lo };
        assert_matches_cold(&mut session, &window(counts), &opts, step);
    }
    assert_eq!(session.stats().solves, 6);
}

#[test]
fn retraction_that_drops_a_pair_degrades_to_cold_not_garbage() {
    // the window slides past every "news" row: the pair disappears in
    // preprocessing and the LP loses a column — the session must still
    // return the cold answer
    let opts = OumpOptions::default();
    let mut session = SolveSession::new(SimplexOptions::default());
    let with_pair: [[u64; 3]; 3] = [[15, 3, 6], [7, 2, 5], [17, 1, 4]];
    let without_pair: [[u64; 3]; 3] = [[8, 2, 0], [4, 1, 0], [6, 1, 0]];
    assert_matches_cold(&mut session, &window(&with_pair), &opts, 0);
    assert_matches_cold(&mut session, &window(&without_pair), &opts, 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random walks over the count matrix — growth, retraction, and
    /// mixtures — always agree with a cold solve.
    #[test]
    fn random_count_walks_match_cold_solves(
        mats in prop::collection::vec(
            prop::collection::vec(0u64..24, 9),
            2..6,
        ),
    ) {
        let opts = OumpOptions::default();
        let mut session = SolveSession::new(SimplexOptions::default());
        for (step, flat) in mats.iter().enumerate() {
            let mut counts = [[0u64; 3]; 3];
            for (i, &v) in flat.iter().enumerate() {
                counts[i / 3][i % 3] = v;
            }
            let log = window(&counts);
            if log.n_pairs() == 0 {
                continue;
            }
            let constraints = PrivacyConstraints::build(&log, params()).unwrap();
            let swept = session.solve_oump(&constraints, &opts).unwrap();
            let cold = solve_cold(&constraints, &opts);
            prop_assert_eq!(swept.lambda, cold.lambda, "step {}: λ diverged", step);
            prop_assert_eq!(&swept.counts, &cold.counts, "step {}: counts diverged", step);
        }
    }
}
