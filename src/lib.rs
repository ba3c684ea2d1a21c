//! # dpsan — Differentially Private Search Log Sanitization with Optimal Output Utility
//!
//! A from-scratch Rust reproduction of Hong, Vaidya, Lu, Wu (EDBT 2012):
//! utility-maximizing, `(ε, δ)`-probabilistically differentially private
//! search-log sanitization whose output has the *identical schema* as
//! the input (user-IDs preserved via multinomial sampling).
//!
//! This facade re-exports the workspace crates:
//!
//! * [`searchlog`] — the search-log data model (histograms,
//!   preprocessing, AOL io),
//! * [`dp`] — differential-privacy primitives (parameters, Laplace,
//!   multinomial sampling, verification),
//! * [`lp`] — the LP/MIP solver substrate (revised simplex, branch &
//!   bound),
//! * [`core`] — the sanitization mechanisms (the [`Sanitizer`]
//!   trait with UMP / ZEALOUS / local-randomized-response impls,
//!   constraints, the three UMPs, sampling, metrics, closed-form
//!   privacy checks),
//!
//! [`Sanitizer`]: prelude::Sanitizer
//! * [`datagen`] — synthetic AOL-like log generation,
//! * [`stream`] — bounded-memory sharded ingestion (chunked intake,
//!   user-hash shards, sort-only merge),
//! * [`serve`] — the always-on sanitization service (file tailing,
//!   incremental ingest sessions, trigger-driven re-release, the
//!   enforced cross-release budget ledger),
//! * [`store`] — durable crash-safe persistence (checksummed shard
//!   snapshots, WAL-backed resumable ingest, the chained
//!   release-manifest ledger that makes budgets survive restarts),
//! * [`obs`] — the telemetry substrate (process-wide metrics registry,
//!   exact-quantile latency histograms, Prometheus/JSON exporters,
//!   filtered span tracing) every layer above reports into,
//! * [`eval`] — the table/figure reproduction harness and the
//!   `sanitize` / `genlog` / `repro` binaries.
//!
//! ## Quickstart
//!
//! ```
//! use dpsan::prelude::*;
//!
//! // a toy input log: (user, query, url, count) tuples
//! let mut b = SearchLogBuilder::new();
//! for k in 0..8 {
//!     b.add(&format!("u{k}"), "rust lang", "rust-lang.org", 3).unwrap();
//!     b.add(&format!("u{k}"), "weather", "weather.com", 2).unwrap();
//! }
//! b.add("u0", "my private query", "example.org", 5).unwrap();
//! let input = b.build();
//!
//! // sanitize with the output-size objective at (ε, δ) = (ln 2, 0.5)
//! let params = PrivacyParams::from_e_epsilon(2.0, 0.5);
//! let mechanism = UmpSanitizer::new(UtilityObjective::OutputSize);
//! let release = mechanism.sanitize(&input, params, 7).unwrap();
//!
//! // the unique pair is gone; the output keeps the input schema
//! assert_eq!(release.report.removed_pairs, 1);
//! for record in release.output.records() {
//!     assert!(record.count > 0);
//! }
//!
//! // rival mechanisms implement the same trait and are scored on the
//! // same released-counts frame
//! let zealous = ZealousSanitizer::new().sanitize(&input, params, 7).unwrap();
//! let score = metrics::mechanism_score(&zealous.reference, &zealous.counts, 0.05);
//! assert!(score.precision >= 0.0 && score.recall <= 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use dpsan_core as core;
pub use dpsan_datagen as datagen;
pub use dpsan_dp as dp;
pub use dpsan_eval as eval;
pub use dpsan_lp as lp;
pub use dpsan_obs as obs;
pub use dpsan_searchlog as searchlog;
pub use dpsan_serve as serve;
pub use dpsan_store as store;
pub use dpsan_stream as stream;

/// The most common imports in one place.
pub mod prelude {
    pub use dpsan_core::mechanism::{
        LaplaceStep, LdpOptions, LdpSanitizer, MechanismInfo, PrivacyModel, Release, Sanitizer,
        TriggerPolicy, UmpSanitizer, UtilityObjective, ZealousOptions, ZealousSanitizer,
    };
    pub use dpsan_core::metrics;
    pub use dpsan_core::metrics::{mechanism_score, MechanismScore, PrecisionRecall};
    pub use dpsan_core::ump::diversity::DumpSolver;
    pub use dpsan_core::PrivacyConstraints;
    pub use dpsan_datagen::{generate, presets, write_log_file, AolLikeConfig};
    pub use dpsan_dp::composition::{BudgetEntry, BudgetError, BudgetLedger};
    pub use dpsan_dp::params::PrivacyParams;
    pub use dpsan_searchlog::{frequent_pairs, preprocess, LogStats, SearchLog, SearchLogBuilder};
    pub use dpsan_serve::{serve, FollowReader, ServeOptions, ServeReport, ServeSession};
    pub use dpsan_store::{DurableStore, RecoveryReport, StoreConfig, StoreError};
    pub use dpsan_stream::{ingest_path, ingest_tsv, IngestSession, StreamConfig};
}
