//! The sparse solver route must be exactly as deterministic as the
//! dense one: same input, same seed → byte-identical release, run to
//! run. The routes may land on *different* optimal vertices (both are
//! optimal — the cross-check suites compare objectives at 1e-9, not
//! bytes), but each route on its own can never drift: that is the
//! contract the golden fixture and the CI scale-smoke gate rely on
//! once a log is big enough to route sparse.

use dpsan_core::constraints::PrivacyConstraints;
use dpsan_core::mechanism::{Sanitizer, UmpSanitizer, UtilityObjective};
use dpsan_core::session::SolveSession;
use dpsan_core::ump::output_size::OumpOptions;
use dpsan_datagen::{generate, presets};
use dpsan_dp::params::PrivacyParams;
use dpsan_lp::simplex::SimplexOptions;
use dpsan_searchlog::io::write_tsv;
use dpsan_searchlog::{preprocess, SearchLog};

fn release_bytes(pre: &SearchLog, sparse: Option<bool>) -> (Vec<u8>, u64) {
    let lp = SimplexOptions { sparse, ..SimplexOptions::default() };
    let mech = UmpSanitizer::new(UtilityObjective::OutputSize).with_lp_options(lp).with_exact_lp();
    let rel =
        mech.sanitize(pre, PrivacyParams::from_e_epsilon(2.0, 0.5), 0xd95a_11ce).expect("sanitize");
    let mut buf = Vec::new();
    write_tsv(&rel.output, &mut buf).expect("serialize release");
    (buf, rel.output.size())
}

#[test]
fn sparse_route_release_is_byte_identical_across_runs() {
    let (pre, _) = preprocess(&generate(&presets::aol_tiny()));
    let (a, _) = release_bytes(&pre, Some(true));
    let (b, _) = release_bytes(&pre, Some(true));
    assert!(
        a == b,
        "two sparse-route runs over the same input diverged:\n{}\nvs\n{}",
        String::from_utf8_lossy(&a),
        String::from_utf8_lossy(&b)
    );
    assert!(!a.is_empty(), "the tiny release must not be empty");
}

#[test]
fn sparse_route_matches_dense_objective() {
    // both routes must land on an *optimal* vertex of the same LP: the
    // vertices (and hence the floored counts) may differ, but the
    // objective agrees to the dense-oracle tolerance
    let (pre, _) = preprocess(&generate(&presets::aol_tiny()));
    let cons = PrivacyConstraints::build(&pre, PrivacyParams::from_e_epsilon(2.0, 0.5)).unwrap();
    let run = |sparse| {
        SolveSession::new(SimplexOptions { sparse: Some(sparse), ..SimplexOptions::default() })
            .solve_oump(&cons, &OumpOptions::default())
            .expect("optimal")
            .lp_value
    };
    let (s, d) = (run(true), run(false));
    assert!(
        (s - d).abs() <= 1e-9 * (1.0 + d.abs()),
        "sparse objective {s} diverged from dense oracle {d}"
    );
}
