//! # dpsan-core
//!
//! The paper's contribution: *differentially private search-log
//! sanitization with optimal output utility* (Hong, Vaidya, Lu, Wu —
//! EDBT 2012).
//!
//! The sanitization (Algorithm 1) has two steps:
//!
//! 1. compute optimal output counts `x*_ij` for every query–url pair by
//!    solving a **utility-maximizing problem** whose constraints
//!    (Theorem 1) guarantee `(ε, δ)`-probabilistic differential privacy —
//!    see [`constraints`] and the three objectives in [`ump`];
//! 2. sample user-IDs for each pair with `⌊x*_ij⌋` multinomial trials —
//!    see [`sampling`] — so the output has the *identical schema* as the
//!    input search log.
//!
//! [`mechanism`] is the mechanism API: the [`Sanitizer`]
//! trait plus three impls — the paper's pipeline
//! ([`mechanism::UmpSanitizer`]: preprocessing → UMP → optional
//! Section-4.2 Laplace step → sampling), Götz et al.'s ZEALOUS
//! noisy-threshold release ([`mechanism::ZealousSanitizer`]), and a
//! local-model randomized-response baseline
//! ([`mechanism::LdpSanitizer`]) — so the evaluation harness can score
//! rival mechanisms on shared metrics. For a service that re-releases
//! an evolving log, [`mechanism::ReleasePlanner`] drives repeated
//! releases through one mechanism, a trigger policy, and an *enforced*
//! cross-release budget ledger. [`metrics`]
//! implements every utility measure of the evaluation (precision/recall
//! of frequent pairs, support distances, diversity, `DiffRatio`
//! histograms, the cross-mechanism [`metrics::MechanismScore`]);
//! [`theory`] computes the probabilities of Eqs. (1)–(3) in closed form
//! and exhaustively checks Definition 2 on tiny logs; [`end_to_end`]
//! implements the leave-one-out sensitivity bounding and Laplace
//! noising of the count-computation step.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod constraints;
pub mod end_to_end;
pub mod error;
pub mod mechanism;
pub mod metrics;
pub mod obs;
pub mod sampling;
pub mod session;
pub mod theory;
pub mod ump;

pub use constraints::PrivacyConstraints;
pub use error::CoreError;
pub use mechanism::{
    LdpSanitizer, MechanismInfo, PrivacyModel, Release, ReleasePlanner, Sanitizer, TriggerPolicy,
    UmpSanitizer, UtilityObjective, ZealousSanitizer,
};
pub use session::{SessionStats, SolveSession};
pub use ump::diversity::{DumpOptions, DumpSolution, DumpSolver};
pub use ump::frequent::{FumpOptions, FumpSolution};
pub use ump::output_size::{OumpOptions, OumpSolution};
