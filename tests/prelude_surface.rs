//! Workspace-wiring smoke test: the `dpsan::prelude` re-exports named
//! in the README resolve, and a minimal sanitize round-trip succeeds
//! through the facade alone.

use dpsan::prelude::*;

/// Every documented prelude name resolves as the type it claims to be.
#[test]
fn prelude_reexports_resolve() {
    // constructible types
    let _builder: SearchLogBuilder = SearchLogBuilder::new();
    let params: PrivacyParams = PrivacyParams::from_e_epsilon(2.0, 0.5);
    let ump: UmpSanitizer = UmpSanitizer::new(UtilityObjective::OutputSize);
    let zealous: ZealousSanitizer = ZealousSanitizer::new();
    let ldp: LdpSanitizer = LdpSanitizer::new();
    let _solver: DumpSolver = DumpSolver::Spe;
    let _zopts: ZealousOptions = ZealousOptions::default();
    let _lopts: LdpOptions = LdpOptions::default();
    let _ = params;

    // every mechanism is a trait object with static metadata
    let mechanisms: [&dyn Sanitizer; 3] = [&ump, &zealous, &ldp];
    for m in mechanisms {
        let info: MechanismInfo = m.info();
        let _: PrivacyModel = info.privacy;
        assert!(!info.id.is_empty());
    }

    // objective variants all name-resolve
    let _objs =
        [UtilityObjective::OutputSize, UtilityObjective::Diversity { solver: DumpSolver::Spe }];

    // functions and modules
    let _ = preprocess;
    let _: fn(&SearchLog, f64) -> Vec<_> = frequent_pairs;
    let _ = metrics::precision_recall;
    let _: fn(&SearchLog, &[u64], f64) -> MechanismScore = mechanism_score;
    let _ = generate;
    let _ = presets::aol_tiny;
    let _cfg: AolLikeConfig = presets::aol_tiny();
}

/// A small end-to-end sanitize through the facade: unique pairs are
/// removed, the output keeps the input schema, and the released counts
/// satisfy the privacy constraint polytope.
#[test]
fn minimal_sanitize_roundtrip() {
    let mut b = SearchLogBuilder::new();
    for k in 0..6 {
        b.add(&format!("u{k}"), "rust lang", "rust-lang.org", 3).unwrap();
        b.add(&format!("u{k}"), "weather", "weather.com", 2).unwrap();
    }
    b.add("u0", "my private query", "example.org", 5).unwrap();
    let input = b.build();

    let params = PrivacyParams::from_e_epsilon(2.0, 0.5);
    let mechanism = UmpSanitizer::new(UtilityObjective::OutputSize);
    let mut ledger = BudgetLedger::new();
    let release: Release = mechanism.sanitize_into(&input, params, 7, &mut ledger).unwrap();

    // the single-holder pair is preprocessed away
    assert_eq!(release.report.removed_pairs, 1);
    // identical output schema: every record is a positive-count tuple
    for record in release.output.records() {
        assert!(record.count > 0);
    }
    // released counts lie in the privacy polytope of the preprocessed log
    let constraints = PrivacyConstraints::build(&release.reference, params).unwrap();
    assert!(constraints.satisfied_by(&release.counts, 1e-9));
    // stats view of the output agrees with the log itself
    let stats = LogStats::of(&release.output);
    assert_eq!(stats.total_tuples, release.output.size());
    // exactly one budget debit for the release
    assert_eq!(ledger.entries().len(), 1);
}
