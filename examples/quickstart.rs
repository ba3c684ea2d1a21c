//! Quickstart: sanitize a small search log end to end.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use dpsan::prelude::*;

fn main() {
    // Build a toy search log. The "pregnancy test nyc" pair belongs to a
    // single user — exactly the kind of tuple the mechanism must drop.
    let mut b = SearchLogBuilder::new();
    for k in 0..12 {
        b.add(&format!("{:03}", k), "google", "google.com", 4).unwrap();
        if k % 2 == 0 {
            b.add(&format!("{:03}", k), "weather", "weather.com", 2).unwrap();
        }
        if k % 3 == 0 {
            b.add(&format!("{:03}", k), "car price", "kbb.com", 3).unwrap();
        }
    }
    b.add("001", "pregnancy test nyc", "medicinenet.com", 2).unwrap();
    let input = b.build();
    println!("input:  {}", LogStats::of(&input));

    // (ε, δ)-probabilistic differential privacy with e^ε = 2, δ = 0.5.
    let params = PrivacyParams::from_e_epsilon(2.0, 0.5);
    println!(
        "privacy: ε = {:.4}, δ = {}, per-user budget B = {}",
        params.epsilon(),
        params.delta(),
        params.budget()
    );

    // Algorithm 1 with the output-size objective (O-UMP).
    let mechanism = UmpSanitizer::new(UtilityObjective::OutputSize);
    let mut ledger = BudgetLedger::new();
    let result =
        mechanism.sanitize_into(&input, params, 7, &mut ledger).expect("sanitization succeeds");

    println!(
        "preprocessing removed {} unique pair(s) carrying {} click(s)",
        result.report.removed_pairs, result.report.removed_count
    );
    println!("output: {}", LogStats::of(&result.output));
    println!();
    println!("sanitized tuples (identical schema as the input):");
    println!("{:<6} {:<22} {:<22} count", "user", "query", "url");
    for r in result.output.records() {
        println!(
            "{:<6} {:<22} {:<22} {}",
            result.output.users().resolve(r.user.0),
            result.output.queries().resolve(r.query.0),
            result.output.urls().resolve(r.url.0),
            r.count
        );
    }
    println!();
    println!("{ledger}");
}
