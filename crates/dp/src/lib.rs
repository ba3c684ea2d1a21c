//! # dpsan-dp
//!
//! Differential-privacy substrate for the `dpsan` workspace.
//!
//! Implements the probabilistic-differential-privacy machinery the paper
//! builds on:
//!
//! * [`params`] — validated `(ε, δ)` parameters and the collapsed budget
//!   `B = min{ε, ln 1/(1−δ)}` of Equation (4),
//! * [`laplace`] — the Laplace mechanism used for the optional
//!   end-to-end privacy of the count-computation step (Section 4.2),
//! * [`alias`] — Walker/Vose alias tables for O(1) categorical draws,
//! * [`multinomial`] — the multinomial user-ID sampler of Algorithm 1
//!   step 2, with both alias and CDF-scan strategies,
//! * [`composition`] — sequential composition bookkeeping for pipelines
//!   that consume several `(ε, δ)` budgets,
//! * [`obs`] — the ledger's metric handles (spend/refusal counters,
//!   spent/remaining gauges) for ledgers marked
//!   [`observed`](composition::BudgetLedger::observed),
//! * [`threshold`] — ZEALOUS-style noisy-threshold calibration (noise
//!   scale, release threshold, Laplace tail / reliability margins),
//! * [`response`] — one-bit randomized response with the linear
//!   reduction to user-level ε-LDP,
//! * [`verify`] — Monte-Carlo and exhaustive estimators of the
//!   probability ratios of Definition 2, used to validate mechanisms on
//!   tiny inputs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alias;
pub mod composition;
pub mod laplace;
pub mod multinomial;
pub mod obs;
pub mod params;
pub mod response;
pub mod threshold;
pub mod verify;

pub use alias::AliasTable;
pub use composition::{BudgetEntry, BudgetError, BudgetLedger};
pub use laplace::{sample_laplace, LaplaceNoise};
pub use multinomial::{sample_multinomial, MultinomialStrategy};
pub use params::{PrivacyBudget, PrivacyParams};
pub use response::RandomizedResponse;
