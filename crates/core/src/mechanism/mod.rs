//! The mechanism abstraction: one [`Sanitizer`] trait, many
//! sanitization mechanisms.
//!
//! The paper's LP-based pipeline ([`UmpSanitizer`]) is one point in a
//! design space of private search-log release mechanisms. This module
//! defines the common contract — preprocess-aligned released counts, a
//! schema-compatible output log, explicit budget accounting — so rival
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
//! let release = mechanism.sanitize(&input, params, 7).unwrap();
//!
//! assert_eq!(release.report.removed_pairs, 1); // Condition 1
//! assert_eq!(release.ledger.entries().len(), 1); // one budget debit
//! assert!(release.output.size() > 0);
//! ```

pub mod ldp;
pub mod planner;
pub mod ump;
pub mod zealous;

pub use ldp::{LdpOptions, LdpSanitizer};
pub use planner::{ReleasePlanner, TriggerPolicy};
pub use ump::{LaplaceStep, UmpSanitizer, UtilityObjective};
pub use zealous::{zealous_plan, ZealousDecision, ZealousOptions, ZealousPlan, ZealousSanitizer};

use dpsan_dp::composition::BudgetLedger;
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
    /// Privacy expenditures of this release (every mechanism debits its
    /// ledger exactly once per release; the optional UMP Laplace step
    /// adds a second entry).
    pub ledger: BudgetLedger,
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
/// [`sanitize_into`](Sanitizer::sanitize_into) is the required method:
/// it charges the release's full expenditure to a **caller-owned**
/// [`BudgetLedger`] *before* doing any mechanism work, atomically (a
/// release that spends twice, e.g. sampling + Laplace, either charges
/// both entries or neither). On a ledger with a lifetime cap
/// ([`BudgetLedger::with_lifetime`]) an over-budget release is refused
/// with [`CoreError::Budget`] — cheaply, with no LP solve and no state
/// mutated. This is how a service composes privacy loss across repeated
/// publication of the same evolving log; [`ReleasePlanner`] drives it.
///
/// [`sanitize`](Sanitizer::sanitize) is the one-shot convenience: it
/// forwards to `sanitize_into` with a fresh uncapped ledger, so a single
/// release can never be refused.
pub trait Sanitizer {
    /// Static mechanism metadata.
    fn info(&self) -> MechanismInfo;

    /// Run one release, charging its expenditure to `ledger`.
    ///
    /// On `Err` — including a [`CoreError::Budget`] refusal — `ledger`
    /// is left exactly as it was. The returned [`Release::ledger`]
    /// records this release's own entries (a per-release view of what
    /// was just appended to `ledger`).
    fn sanitize_into(
        &self,
        log: &SearchLog,
        params: PrivacyParams,
        seed: u64,
        ledger: &mut BudgetLedger,
    ) -> Result<Release, CoreError>;

    /// Run one stand-alone release against a fresh uncapped ledger.
    fn sanitize(
        &self,
        log: &SearchLog,
        params: PrivacyParams,
        seed: u64,
    ) -> Result<Release, CoreError> {
        let mut ledger = BudgetLedger::new();
        self.sanitize_into(log, params, seed, &mut ledger)
    }
}

impl<S: Sanitizer + ?Sized> Sanitizer for Box<S> {
    fn info(&self) -> MechanismInfo {
        (**self).info()
    }

    fn sanitize_into(
        &self,
        log: &SearchLog,
        params: PrivacyParams,
        seed: u64,
        ledger: &mut BudgetLedger,
    ) -> Result<Release, CoreError> {
        (**self).sanitize_into(log, params, seed, ledger)
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
