//! The mechanism abstraction: one [`Sanitizer`] trait, many
//! sanitization mechanisms.
//!
//! The paper's LP-based pipeline ([`UmpSanitizer`]) is one point in a
//! design space of private search-log release mechanisms. This module
//! defines the common contract — preprocess-aligned released counts, a
//! schema-compatible output log, a declared budget expenditure — so rival
//! mechanisms plug in as one trait impl each and the evaluation harness
//! can score them on shared utility metrics (`repro compare`):
//!
//! * [`UmpSanitizer`] — Hong et al. (EDBT 2012): utility-maximizing
//!   multinomial sampling under `(ε, δ)`-probabilistic DP (this paper);
//! * [`ZealousSanitizer`] — Götz et al.: two-phase noisy-threshold
//!   heavy-hitter release under `(ε, δ)`-indistinguishability;
//! * [`LdpSanitizer`] — per-user randomized response in the local
//!   model (Ding et al.'s linear reduction), no trusted curator.
//!
//! # Example
//!
//! ```
//! use dpsan_core::mechanism::{Sanitizer, UmpSanitizer, UtilityObjective};
//! use dpsan_dp::params::PrivacyParams;
//! use dpsan_dp::BudgetLedger;
//! use dpsan_searchlog::SearchLogBuilder;
//!
//! let mut b = SearchLogBuilder::new();
//! for k in 0..8 {
//!     b.add(&format!("u{k}"), "rust lang", "rust-lang.org", 3).unwrap();
//!     b.add(&format!("u{k}"), "weather", "weather.com", 2).unwrap();
//! }
//! b.add("u0", "my private query", "example.org", 5).unwrap();
//! let input = b.build();
//!
//! let params = PrivacyParams::from_e_epsilon(2.0, 0.5);
//! let mechanism = UmpSanitizer::new(UtilityObjective::OutputSize);
//! let mut ledger = BudgetLedger::new();
//! let release = mechanism.sanitize_into(&input, params, 7, &mut ledger).unwrap();
//!
//! assert_eq!(release.report.removed_pairs, 1); // Condition 1
//! assert_eq!(ledger.entries().len(), 1); // one budget debit
//! assert!(release.output.size() > 0);
//! ```

pub mod ldp;
pub mod ump;
pub mod zealous;

pub use ldp::{LdpOptions, LdpSanitizer};
pub use ump::{LaplaceStep, UmpSanitizer, UtilityObjective};
pub use zealous::{zealous_plan, ZealousDecision, ZealousOptions, ZealousPlan, ZealousSanitizer};

use dpsan_dp::composition::{BudgetEntry, BudgetLedger};
use dpsan_dp::params::PrivacyParams;
use dpsan_searchlog::{PreprocessReport, SearchLog};

use crate::error::CoreError;
use crate::session::SessionStats;

/// The privacy model a mechanism's guarantee lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrivacyModel {
    /// `(ε, δ)`-probabilistic differential privacy (Definition 2 of the
    /// paper): the output distribution violates the ε-ratio with
    /// probability at most δ.
    ProbabilisticDp,
    /// `(ε, δ)`-indistinguishability: neighboring inputs produce any
    /// output set with probabilities within `e^ε`, up to additive δ.
    ApproximateDp,
    /// ε-local differential privacy: each user randomizes their own
    /// record; no trusted curator sees raw data.
    LocalDp,
}

impl std::fmt::Display for PrivacyModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PrivacyModel::ProbabilisticDp => write!(f, "(eps,delta)-probabilistic DP"),
            PrivacyModel::ApproximateDp => write!(f, "(eps,delta)-indistinguishability"),
            PrivacyModel::LocalDp => write!(f, "eps-local DP"),
        }
    }
}

/// Static metadata describing a mechanism.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MechanismInfo {
    /// Stable machine-readable id (the `--mechanism` CLI name).
    pub id: &'static str,
    /// Human-readable mechanism name.
    pub name: &'static str,
    /// The work the mechanism reproduces.
    pub paper: &'static str,
    /// The privacy model of its guarantee.
    pub privacy: PrivacyModel,
    /// Whether releases run LP solves through a
    /// [`SolveSession`](crate::session::SolveSession) (if `false`, the
    /// [`Release::solver`] counters are always zero).
    pub uses_lp: bool,
}

/// Everything one sanitization release produces, mechanism-independent.
#[derive(Debug)]
pub struct Release {
    /// The sanitized search log, in the input's 4-column schema.
    pub output: SearchLog,
    /// The preprocessed input `D` (Condition 1 applied) the released
    /// counts are indexed against — the shared frame every mechanism's
    /// utility metrics are computed in.
    pub reference: SearchLog,
    /// Released count per [`Release::reference`] pair (zero for
    /// suppressed pairs). Always `reference.n_pairs()` long.
    pub counts: Vec<u64>,
    /// What preprocessing removed.
    pub report: PreprocessReport,
    /// LP-solver counters of this release. All-zero for mechanisms
    /// that never touch a `SolveSession` (ZEALOUS, LDP) — `repro
    /// --stats` aggregates these unconditionally instead of special-
    /// casing non-LP mechanisms.
    pub solver: SessionStats,
    /// The certified upper bound on the optimal output size λ* that the
    /// O-UMP solve reported ([`crate::ump::output_size::OumpSolution::upper_bound`]).
    /// `None` for every other mechanism and objective. Data-dependent
    /// operator diagnostics, like the LP value: not part of the release.
    pub upper_bound: Option<f64>,
}

/// A differentially private search-log sanitization mechanism.
///
/// Implementations take a *raw* input log (preprocessing is applied
/// internally and is idempotent, so passing an already-preprocessed log
/// is fine), the privacy parameters, and an RNG seed; they return a
/// [`Release`] whose counts refer to the preprocessed input. Given the
/// same `(log, params, seed)` a release is deterministic, and because
/// streamed sharded ingestion builds a structurally identical
/// [`SearchLog`], releases are byte-identical across `--shards` /
/// `--jobs` values.
///
/// The full `(ε, δ)` parameters are passed rather than the collapsed
/// budget `B = min{ε, ln 1/(1−δ)}` of Eq. (4): only the UMP constraint
/// system consumes the collapsed form ([`PrivacyParams::budget`]),
/// while threshold and local mechanisms calibrate on ε and δ
/// separately.
///
/// # Budget accounting
///
/// A mechanism declares what one release costs
/// ([`expenditure`](Sanitizer::expenditure)) and implements only the
/// work ([`sanitize`](Sanitizer::sanitize)); it never touches a ledger.
/// The provided [`sanitize_into`](Sanitizer::sanitize_into) is the one
/// place a release is charged to a **caller-owned** [`BudgetLedger`]:
/// it refuses an over-budget release with [`CoreError::Budget`] before
/// any work (no LP solve, no state mutated), and debits the whole
/// expenditure atomically only once the work has succeeded. This is how
/// a service composes privacy loss across repeated publication of the
/// same evolving log (`dpsan_serve::ServeSession` drives it).
pub trait Sanitizer {
    /// Static mechanism metadata.
    fn info(&self) -> MechanismInfo;

    /// The privacy expenditure of one release at `params`, in debit
    /// order (the UMP Laplace step adds a second entry).
    fn expenditure(&self, params: PrivacyParams) -> Vec<BudgetEntry>;

    /// Run one release. No budget accounting: a stand-alone release
    /// spends [`expenditure`](Sanitizer::expenditure) whether or not a
    /// ledger records it.
    fn sanitize(
        &self,
        log: &SearchLog,
        params: PrivacyParams,
        seed: u64,
    ) -> Result<Release, CoreError>;

    /// Run one release, charging its expenditure to `ledger`. Not meant
    /// to be overridden: this is the one budget-accounting path.
    ///
    /// On `Err` — including a [`CoreError::Budget`] refusal — `ledger`
    /// is left exactly as it was.
    fn sanitize_into(
        &self,
        log: &SearchLog,
        params: PrivacyParams,
        seed: u64,
        ledger: &mut BudgetLedger,
    ) -> Result<Release, CoreError> {
        let batch = self.expenditure(params);
        ledger.check_all(&batch)?;
        let release = self.sanitize(log, params, seed)?;
        ledger.try_spend_all(&batch).expect("checked above, and the ledger is borrowed mutably");
        Ok(release)
    }
}

impl<S: Sanitizer + ?Sized> Sanitizer for Box<S> {
    fn info(&self) -> MechanismInfo {
        (**self).info()
    }

    fn expenditure(&self, params: PrivacyParams) -> Vec<BudgetEntry> {
        (**self).expenditure(params)
    }

    fn sanitize(
        &self,
        log: &SearchLog,
        params: PrivacyParams,
        seed: u64,
    ) -> Result<Release, CoreError> {
        (**self).sanitize(log, params, seed)
    }
}

/// When a service considers a re-release due.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TriggerPolicy {
    /// Re-release once this many new input rows have been observed
    /// since the last successful release. `0` means "never due on row
    /// count" — the caller triggers explicitly (e.g. on a wall-clock
    /// window).
    pub every_rows: u64,
}

impl TriggerPolicy {
    /// An event-count trigger: due after `every_rows` new rows.
    pub fn every_rows(every_rows: u64) -> Self {
        TriggerPolicy { every_rows }
    }

    /// A manual trigger: never due on its own.
    pub fn manual() -> Self {
        TriggerPolicy { every_rows: 0 }
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::input_log;
    use super::*;

    fn params() -> PrivacyParams {
        PrivacyParams::from_e_epsilon(2.0, 0.5)
    }

    const SEED: u64 = 0xd95a_11ce;

    fn mechanisms() -> Vec<Box<dyn Sanitizer>> {
        vec![
            Box::new(UmpSanitizer::new(UtilityObjective::OutputSize)),
            Box::new(
                UmpSanitizer::new(UtilityObjective::OutputSize)
                    .with_laplace(LaplaceStep { sensitivity: 1.0, epsilon_prime: 0.5 }),
            ),
            Box::new(ZealousSanitizer::new()),
            Box::new(LdpSanitizer::new()),
        ]
    }

    fn tsv(log: &SearchLog) -> Vec<u8> {
        let mut buf = Vec::new();
        dpsan_searchlog::io::write_tsv(log, &mut buf).unwrap();
        buf
    }

    #[test]
    fn sanitize_into_releases_match_one_shot_sanitize() {
        // routing through the budget path must not perturb the mechanism
        for m in mechanisms() {
            let mut ledger = BudgetLedger::new();
            let charged = m.sanitize_into(&input_log(), params(), SEED, &mut ledger).unwrap();
            let one_shot = m.sanitize(&input_log(), params(), SEED).unwrap();
            assert_eq!(charged.counts, one_shot.counts, "{}", m.info().id);
            assert_eq!(tsv(&charged.output), tsv(&one_shot.output), "{}", m.info().id);
        }
    }

    #[test]
    fn boxed_mechanism_debits_exactly_the_expenditure() {
        for m in mechanisms() {
            let mut ledger = BudgetLedger::new();
            m.sanitize_into(&input_log(), params(), SEED, &mut ledger).unwrap();
            assert_eq!(ledger.entries(), m.expenditure(params()).as_slice(), "{}", m.info().id);
        }
        let boxed: Box<dyn Sanitizer> = Box::new(ZealousSanitizer::new());
        let mut ledger = BudgetLedger::new();
        boxed.sanitize_into(&input_log(), params(), SEED, &mut ledger).unwrap();
        assert_eq!(boxed.info().id, "zealous");
        assert_eq!(ledger.entries().len(), 1);
    }

    #[test]
    fn ledger_composes_across_releases() {
        let m = ZealousSanitizer::new();
        let mut ledger = BudgetLedger::new();
        for _ in 0..3 {
            m.sanitize_into(&input_log(), params(), SEED, &mut ledger).unwrap();
        }
        assert_eq!(ledger.entries().len(), 3);
        assert!((ledger.total_epsilon() - 3.0 * params().epsilon()).abs() < 1e-9);
        assert!((ledger.total_delta() - 3.0 * params().delta()).abs() < 1e-9);
    }

    #[test]
    fn over_budget_release_is_refused_cleanly() {
        // lifetime admits exactly two releases
        let pp = PrivacyParams::from_e_epsilon(2.0, 0.2);
        let mut ledger = BudgetLedger::with_lifetime(2.0 * pp.epsilon(), 2.0 * pp.delta());
        let m = ZealousSanitizer::new();
        m.sanitize_into(&input_log(), pp, SEED, &mut ledger).unwrap();
        m.sanitize_into(&input_log(), pp, SEED, &mut ledger).unwrap();
        let before = ledger.entries().to_vec();
        let err = m.sanitize_into(&input_log(), pp, SEED, &mut ledger).unwrap_err();
        assert!(matches!(err, CoreError::Budget(_)), "got {err}");
        assert_eq!(ledger.entries(), before.as_slice(), "ledger unchanged");
    }

    #[test]
    fn refused_release_charges_nothing() {
        for m in mechanisms() {
            let mut ledger = BudgetLedger::with_lifetime(params().epsilon() / 2.0, 0.9);
            let err = m.sanitize_into(&input_log(), params(), SEED, &mut ledger).unwrap_err();
            assert!(matches!(err, CoreError::Budget(_)), "{}: {err}", m.info().id);
            assert!(ledger.entries().is_empty(), "{}", m.info().id);
        }
        // the Laplace entry alone overflows: the batch is refused whole
        let m = UmpSanitizer::new(UtilityObjective::OutputSize)
            .with_laplace(LaplaceStep { sensitivity: 1.0, epsilon_prime: 0.5 });
        let mut ledger = BudgetLedger::with_lifetime(params().epsilon() + 0.25, 0.9);
        let err = m.sanitize_into(&input_log(), params(), SEED, &mut ledger).unwrap_err();
        assert!(matches!(err, CoreError::Budget(e) if e.label.starts_with("Laplace")));
        assert!(ledger.entries().is_empty());
    }

    #[test]
    fn ump_refusal_spends_nothing_and_skips_the_solver() {
        let m = UmpSanitizer::new(UtilityObjective::OutputSize);
        let mut ledger = BudgetLedger::with_lifetime(params().epsilon() / 2.0, 0.999);
        let err = m.sanitize_into(&input_log(), params(), SEED, &mut ledger).unwrap_err();
        assert!(matches!(err, CoreError::Budget(_)));
        assert!(ledger.entries().is_empty());
        assert_eq!(m.session_stats().solves, 0, "refusal happens before any LP work");
    }

    #[test]
    fn failed_release_debits_nothing() {
        // an |O| above λ is infeasible: the solve fails after the check
        let m = UmpSanitizer::new(UtilityObjective::FrequentPairs {
            min_support: 0.1,
            output_size: 1_000_000,
        });
        let mut ledger = BudgetLedger::with_lifetime(10.0, 0.9);
        let err = m.sanitize_into(&input_log(), params(), SEED, &mut ledger).unwrap_err();
        assert!(!matches!(err, CoreError::Budget(_)), "the solve fails, not the check: {err}");
        assert!(ledger.entries().is_empty());
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use dpsan_searchlog::{SearchLog, SearchLogBuilder};

    /// The shared mechanism-test fixture: pairs spread across many
    /// holders with small shares so the LP optima survive flooring
    /// (the regime of real logs), plus one unique pair that
    /// preprocessing removes.
    pub(crate) fn input_log() -> SearchLog {
        let mut b = SearchLogBuilder::new();
        for k in 0..10 {
            b.add(&format!("u{k}"), "google", "google.com", 10).unwrap();
        }
        for k in 0..8 {
            b.add(&format!("u{k}"), "weather", "weather.com", 5).unwrap();
        }
        for k in 3..9 {
            b.add(&format!("u{k}"), "news", "cnn.com", 4).unwrap();
        }
        for k in 5..10 {
            b.add(&format!("u{k}"), "maps", "maps.google.com", 3).unwrap();
        }
        b.add("u99", "unique", "unique.org", 4).unwrap();
        b.build()
    }
}
