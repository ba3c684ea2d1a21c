//! The sparse solver route must be exactly as deterministic as the
//! dense one: same input, same seed → byte-identical release, run to
//! run. The routes may land on *different* optimal vertices (both are
//! optimal — the cross-check suites compare objectives at 1e-9, not
//! bytes), but each route on its own can never drift: that is the
//! contract the golden fixture and the CI scale-smoke gate rely on
//! once a log is big enough to route sparse. The route's pivot path is
//! pinned here too, as `tests/golden.rs` pins the dense route's.

use dpsan_core::constraints::PrivacyConstraints;
use dpsan_core::sampling::sample_output;
use dpsan_core::session::SolveSession;
use dpsan_core::ump::output_size::OumpOptions;
use dpsan_core::SessionStats;
use dpsan_datagen::{generate, presets};
use dpsan_dp::multinomial::MultinomialStrategy;
use dpsan_dp::params::PrivacyParams;
use dpsan_lp::simplex::SimplexOptions;
use dpsan_searchlog::io::write_tsv;
use dpsan_searchlog::{preprocess, SearchLog};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// An exact (LP + floor) O-UMP release on the given kernel route: the
/// steps `UmpSanitizer::with_exact_lp` runs, with the route forced.
fn release_bytes(pre: &SearchLog, sparse: Option<bool>) -> (Vec<u8>, u64) {
    let c = PrivacyConstraints::build(pre, PrivacyParams::from_e_epsilon(2.0, 0.5)).unwrap();
    let counts = SolveSession::new(SimplexOptions { sparse, ..SimplexOptions::default() })
        .solve_oump(&c, &OumpOptions::default())
        .expect("optimal")
        .counts;
    let mut rng = StdRng::seed_from_u64(0xd95a_11ce);
    let output = sample_output(&mut rng, pre, &counts, MultinomialStrategy::Auto);
    let mut buf = Vec::new();
    write_tsv(&output, &mut buf).expect("serialize release");
    (buf, output.size())
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

#[test]
fn sparse_route_pivot_path_is_pinned() {
    // a forced-sparse exact O-UMP solve at tiny and small keeps its
    // (solves, iterations, refactorizations): a kernel change that
    // moves a pivot on this route moves these
    for (name, config, pinned) in [
        ("tiny", presets::aol_tiny(), (1, 112, 6)),
        ("small", presets::aol_small(), (1, 6_536, 195)),
    ] {
        let (pre, _) = preprocess(&generate(&config));
        let cons =
            PrivacyConstraints::build(&pre, PrivacyParams::from_e_epsilon(2.0, 0.5)).unwrap();
        let mut session =
            SolveSession::new(SimplexOptions { sparse: Some(true), ..SimplexOptions::default() });
        session.solve_oump(&cons, &OumpOptions::default()).expect("optimal");
        let SessionStats { solves, iterations, refactorizations, .. } = session.stats();
        assert_eq!(
            (solves, iterations, refactorizations),
            pinned,
            "{name}: sparse-route pivot path moved"
        );
    }
}
