//! Query recommendation on sanitized logs (the F-UMP use case).
//!
//! The paper motivates frequent-pair preservation with applications
//! like query suggestion: a recommender mines frequent query–url pairs,
//! so the sanitizer should keep their supports intact. This example
//! sanitizes a synthetic log with the F-UMP objective and compares the
//! frequent pairs mined from input and output.
//!
//! ```sh
//! cargo run --release --example query_recommendation
//! ```

use dpsan::core::metrics::precision_recall;
use dpsan::core::ump::output_size::OumpOptions;
use dpsan::core::SolveSession;
use dpsan::lp::simplex::SimplexOptions;
use dpsan::prelude::*;

fn main() {
    let input = generate(&presets::aol_small());
    let (pre, _) = preprocess(&input);
    println!("preprocessed input: {}", LogStats::of(&pre));

    let params = PrivacyParams::from_e_epsilon(2.3, 0.9);

    // learn the feasible output-size ceiling λ and use most of it
    let constraints = PrivacyConstraints::build(&pre, params).expect("preprocessed log");
    let lambda = SolveSession::new(SimplexOptions::default())
        .solve_oump(&constraints, &OumpOptions::default())
        .expect("O-UMP always solvable")
        .lambda;
    let output_size = (lambda * 9 / 10).max(1);
    println!("λ = {lambda}; requesting |O| = {output_size}");

    // pick a support level that marks the very head of the distribution
    let min_support = {
        let mut counts: Vec<u64> = pre.pairs().map(|p| p.total).collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let k = (counts.len() / 400).max(1); // the very head (top 0.25 %)
        counts[k - 1] as f64 / pre.size() as f64
    };

    let mechanism = UmpSanitizer::new(UtilityObjective::FrequentPairs { min_support, output_size });
    let result = mechanism.sanitize(&input, params, 7).expect("sanitization succeeds");

    // mine "recommendations" (frequent pairs) from both sides
    let input_top = frequent_pairs(&result.reference, min_support);
    println!("\nfrequent query-url pairs in the input (support >= {min_support:.4}):");
    for f in input_top.iter().take(8) {
        let (q, u) = result.reference.pair_key(f.pair);
        println!(
            "  {:<18} -> {:<24} support {:.4}",
            result.reference.queries().resolve(q.0),
            result.reference.urls().resolve(u.0),
            f.support
        );
    }

    let out_top = frequent_pairs(&result.output, min_support);
    println!("\nfrequent pairs in the sanitized output:");
    for f in out_top.iter().take(8) {
        let (q, u) = result.output.pair_key(f.pair);
        println!(
            "  {:<18} -> {:<24} support {:.4}",
            result.output.queries().resolve(q.0),
            result.output.urls().resolve(u.0),
            f.support
        );
    }

    let pr = precision_recall(&result.reference, &result.counts, min_support);
    println!(
        "\nfrequent-pair precision = {:.3}, recall = {:.3} ({} input-frequent pairs)",
        pr.precision, pr.recall, pr.input_frequent
    );
    println!(
        "a recommender trained on the sanitized log sees {} of the {} head pairs",
        (pr.recall * pr.input_frequent as f64).round() as u64,
        pr.input_frequent
    );
}
