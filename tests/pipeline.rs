//! Cross-crate integration tests: generator → preprocessing →
//! constraints → UMP solvers → sampling → metrics, end to end.

use dpsan::core::metrics::{diff_ratio_histogram, diversity_retained, precision_recall};
use dpsan::core::sampling::output_pair_counts;
use dpsan::core::theory::theorem1_report;
use dpsan::core::ump::output_size::OumpOptions;
use dpsan::core::SolveSession;
use dpsan::lp::simplex::SimplexOptions;
use dpsan::prelude::*;

const SEED: u64 = 0xd95a_11ce;

/// The maximum output size λ, through a fresh default session.
fn oump_lambda(pre: &SearchLog, params: PrivacyParams) -> u64 {
    let c = PrivacyConstraints::build(pre, params).unwrap();
    SolveSession::new(SimplexOptions::default())
        .solve_oump(&c, &OumpOptions::default())
        .unwrap()
        .lambda
}

fn tiny_input() -> SearchLog {
    generate(&presets::aol_tiny())
}

#[test]
fn oump_pipeline_is_private_and_schema_preserving() {
    let input = tiny_input();
    let params = PrivacyParams::from_e_epsilon(2.0, 0.5);
    let release =
        UmpSanitizer::new(UtilityObjective::OutputSize).sanitize(&input, params, SEED).unwrap();

    // released counts satisfy Theorem 1 exactly
    let rep = theorem1_report(&release.reference, &release.counts, params);
    assert!(rep.ok(), "{rep:?}");

    // sampled output matches the counts and the input schema
    assert_eq!(output_pair_counts(&release.reference, &release.output), release.counts);
    for r in release.output.records() {
        let p = release.reference.pair_id(r.query, r.url).expect("pair from input");
        assert!(release.reference.holders(p).any(|t| t.user == r.user));
    }
}

#[test]
fn fump_pipeline_tracks_frequent_pairs() {
    let input = tiny_input();
    let params = PrivacyParams::from_e_epsilon(2.3, 0.8);
    let (pre, _) = preprocess(&input);
    let lambda = oump_lambda(&pre, params);
    assert!(lambda > 0);

    // mark the top ~5% of pairs frequent
    let mut counts: Vec<u64> = pre.pairs().map(|p| p.total).collect();
    counts.sort_unstable_by(|a, b| b.cmp(a));
    let min_support = counts[(counts.len() / 20).max(1) - 1] as f64 / pre.size() as f64;

    let release = UmpSanitizer::new(UtilityObjective::FrequentPairs {
        min_support,
        output_size: (lambda * 4 / 5).max(1),
    })
    .sanitize(&input, params, SEED)
    .unwrap();

    let pr = precision_recall(&release.reference, &release.counts, min_support);
    assert!(pr.input_frequent > 0);
    // with a generous budget some head pairs survive flooring
    assert!(
        release.counts.iter().sum::<u64>() > 0,
        "the F-UMP output is non-empty at a loose budget"
    );
}

#[test]
fn dump_pipeline_retains_diversity_monotonically() {
    let input = tiny_input();
    let retained = |e_eps: f64| {
        let params = PrivacyParams::from_e_epsilon(e_eps, 0.5);
        let release = UmpSanitizer::new(UtilityObjective::Diversity { solver: DumpSolver::Spe })
            .sanitize(&input, params, SEED)
            .unwrap();
        diversity_retained(&release.counts)
    };
    let lo = retained(1.1);
    let hi = retained(2.3);
    assert!(hi >= lo, "diversity grows with ε: {lo} -> {hi}");
}

#[test]
fn sampled_outputs_vary_by_seed_but_share_totals() {
    let input = tiny_input();
    let params = PrivacyParams::from_e_epsilon(2.0, 0.5);
    let mech = UmpSanitizer::new(UtilityObjective::OutputSize);
    let a = mech.sanitize(&input, params, 1).unwrap();
    let b = mech.sanitize(&input, params, 2).unwrap();
    // same optimal counts, different multinomial draws
    assert_eq!(a.counts, b.counts);
    assert_eq!(a.output.size(), b.output.size());
    let ra: Vec<_> = a.output.records().collect();
    let rb: Vec<_> = b.output.records().collect();
    assert_ne!(ra, rb, "different seeds give different user attributions");
}

#[test]
fn diff_ratio_histogram_improves_with_output_size() {
    let input = tiny_input();
    let (pre, _) = preprocess(&input);
    let params = PrivacyParams::from_e_epsilon(2.3, 0.8);
    let lambda = oump_lambda(&pre, params);
    if lambda < 4 {
        return; // not enough room at this scale
    }
    let release =
        UmpSanitizer::new(UtilityObjective::OutputSize).sanitize(&input, params, SEED).unwrap();
    let h = diff_ratio_histogram(&release.reference, &release.output, 0.1, 10);
    assert_eq!(h.total as usize, pre.n_triplets());
}

#[test]
fn laplace_step_composes_in_ledger() {
    let input = tiny_input();
    let params = PrivacyParams::from_e_epsilon(2.0, 0.5);
    let release = UmpSanitizer::new(UtilityObjective::OutputSize)
        .with_laplace(LaplaceStep { sensitivity: 1.0, epsilon_prime: 0.3 })
        .sanitize(&input, params, SEED)
        .unwrap();
    assert_eq!(release.ledger.entries().len(), 2);
    assert!(release.ledger.within(params.epsilon() + 0.3, params.delta()));
    // the repaired counts are still private
    let rep = theorem1_report(&release.reference, &release.counts, params);
    assert!(rep.ok());
}

#[test]
fn tsv_roundtrip_of_sanitized_output() {
    let input = tiny_input();
    let params = PrivacyParams::from_e_epsilon(2.0, 0.5);
    let release =
        UmpSanitizer::new(UtilityObjective::OutputSize).sanitize(&input, params, SEED).unwrap();
    let mut buf = Vec::new();
    dpsan::searchlog::io::write_tsv(&release.output, &mut buf).unwrap();
    let reread = dpsan::searchlog::io::read_tsv(std::io::Cursor::new(buf)).unwrap();
    assert_eq!(reread.size(), release.output.size());
    assert_eq!(reread.n_pairs(), release.output.n_pairs());
    assert_eq!(reread.n_user_logs(), release.output.n_user_logs());
}

#[test]
fn rival_mechanisms_share_the_released_counts_frame() {
    let input = tiny_input();
    let params = PrivacyParams::from_e_epsilon(2.0, 0.5);
    let mechanisms: [Box<dyn Sanitizer>; 3] = [
        Box::new(UmpSanitizer::new(UtilityObjective::OutputSize)),
        Box::new(ZealousSanitizer::new()),
        Box::new(LdpSanitizer::new()),
    ];
    for mech in &mechanisms {
        let release = mech.sanitize(&input, params, SEED).unwrap();
        assert_eq!(
            release.counts.len(),
            release.reference.n_pairs(),
            "{}: counts cover the reference pair space",
            mech.info().id
        );
        let score = mechanism_score(&release.reference, &release.counts, 0.02);
        assert!(score.precision >= 0.0 && score.precision <= 1.0, "{}", mech.info().id);
        assert!(score.recall >= 0.0 && score.recall <= 1.0, "{}", mech.info().id);
        assert!(score.query_kl >= 0.0, "{}", mech.info().id);
    }
}
